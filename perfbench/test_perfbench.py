"""Self-tests of the benchmark: the gate catches wrong answers, the tracer
survives missing call sites, and the benchmark files agree.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tvals import Enclosure, ValueSpec, evaluate_direct, evaluate_spec  # noqa: E402

SHIFT = Fraction(1, 1000)


def shifted(enclosure: Enclosure) -> Enclosure:
    return Enclosure.from_fraction_pair(
        enclosure.lo_fraction + SHIFT, enclosure.hi_fraction + SHIFT, enclosure.precision_bits
    )


def error_rate(bad: dict, attempted: int) -> float:
    return len(bad) / attempted


def eval_results(shift_first: bool):
    results = []
    for i, (index, offset, exponent) in enumerate(
        [((2,), 0, 20), ((2, 1), 1, 25), ((3, 1, 1), 2, 15), ((2, 1), 1, 30)]
    ):
        spec = ValueSpec(index, offset)
        target = Fraction(1, 10**exponent)
        enclosure = evaluate_spec(spec, target)
        if shift_first and i == 0:
            enclosure = shifted(enclosure)
        oracle = evaluate_direct(spec, max_outer=4000)
        results.append({"id": i, "spec": spec, "target": target, "enclosure": enclosure, "oracle": oracle})
    return results


def test_shifted_enclosure_raises_error_rate():
    assert error_rate(gate.check_eval(eval_results(False)), 4) == 0
    bad = gate.check_eval(eval_results(True))
    assert error_rate(bad, 4) == 0.25
    assert "oracle" in bad[0]


def test_repeats_that_disagree_fail_both():
    results = eval_results(False)
    results[3]["enclosure"] = shifted(results[3]["enclosure"])
    results[3]["oracle"] = results[3]["enclosure"]  # only the repeat check can see it
    assert set(gate.check_eval(results)) == {1, 3}


def test_oracle_gate_flags_disjoint_pairs():
    spec = ValueSpec((2, 1), 0)
    direct = evaluate_direct(spec, max_outer=4000)
    fast = evaluate_spec(spec, Fraction(1, 10**8))
    assert gate.check_oracle({0: [(direct, fast)]}) == {}
    assert list(gate.check_oracle({0: [(direct, fast)], 1: [(direct, shifted(fast))]})) == [1]


def test_order_gate_spot_checks_and_distinctness():
    coords = {0: ((2, 1, 1, 1), (4, 1)), 1: ((2, 3), (2, 3)), 2: ((2, 2), (2, 2))}
    ranks = {3: ((2,), 2), 4: ((2, 1), 3)}
    assert gate.check_order(ranks, coords) == {}
    coords[1] = ((2, 3), (2, 2))
    ranks[4] = ((2, 1), 2)
    assert set(gate.check_order(ranks, coords)) == {1, 2, 3, 4}


def test_cli_gate():
    spec = ValueSpec((2, 1), 0)
    ref = evaluate_spec(spec, Fraction(1, 10**32))
    lo, hi = ref.decimal_strings(20)
    good = f"2,1  in  [{lo}, {hi}]"
    base = {"kind": "eval", "key": "2,1|0", "expect_rc": 0, "rc": 0}
    outputs = [
        dict(base, id="a", hit=False, stdout=good),
        dict(base, id="b", hit=True, stdout=good + "  (cached, accelerated)"),
        dict(base, id="c", hit=True, stdout=good),
        dict(base, id="d", hit=False, stdout=f"2,1  in  [{float(Fraction(lo) + SHIFT)!r}, 2]"),
        dict(base, id="e", hit=False, stdout=good, rc=1),
        {"id": "f", "kind": "phi", "key": "2,3", "expect_rc": 0, "rc": 0, "stdout": "phi(2,3) = (2, 3)"},
        {"id": "g", "kind": "phi", "key": "2,3", "expect_rc": 0, "rc": 0, "stdout": "phi(2,3) = (2, 4)"},
    ]
    reference = {"2,1|0": ref, "2,3": [2, 3]}
    assert set(gate.check_cli(outputs, reference)) == {"c", "d", "e", "g"}


def _trace_script(body: str) -> dict:
    """Run ``body`` in a fresh interpreter with the tracer importable; the
    body prints one JSON line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    out = subprocess.run(
        [sys.executable, "-c", body], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tracer_reports_missing_call_site_as_absent():
    result = _trace_script(
        """
import json
from fractions import Fraction
import tracer, metrics
targets = [t if t[1] != "_plan" else ("tvals.evaluator", "_renamed_plan", t[2]) for t in tracer.TARGETS]
tr = tracer.Tracer(targets).install()
from tvals import evaluator, ValueSpec
evaluator.evaluate_spec(ValueSpec((2, 1, 1), 1), Fraction(1, 10**20))
values, absent = metrics.layer_metrics(tr.summary(), 1)
print(json.dumps({"values": values, "absent": absent, "sites": tr.absent_sites}))
"""
    )
    assert result["sites"] == ["tvals.evaluator._renamed_plan"]
    assert set(result["absent"]) == {"evaluator.plan.calls", "evaluator.plan.self_s"}
    values = result["values"]
    assert values["evaluator.recurrence.calls"] == 1
    assert values["evaluator.expansion.builds"] >= 3
    assert 0 < values["evaluator.expansion.useful_ratio"] <= 1
    assert values["evaluator.evaluate.calls"] == 1


def test_tracer_self_time_excludes_children():
    result = _trace_script(
        """
import json
from fractions import Fraction
import tracer
tr = tracer.Tracer().install()
from tvals import evaluator, ValueSpec
evaluator.evaluate_spec(ValueSpec((2, 1), 0), Fraction(1, 10**30))
s = tr.summary()
print(json.dumps(s))
"""
    )
    total = result["span:evaluator.evaluate:total_s"]
    selves = sum(v for k, v in result.items() if k.endswith(":self_s")) + result["enclosure.self_s"]
    assert abs(selves - total) < 1e-3 * max(total, 1e-3) + 1e-5
    assert result["span:top:total_s"] == total


def test_benchmark_files_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(metrics.LAYER_METRICS) + ["trace.overhead_ratio"]
    assert set(metrics.PREDICTIONS["moves"]) == set(per_layer)
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(run.WORKLOADS)
    assert set(run.TAIL_PERCENTILE) == set(workloads) == set(metrics.PREDICTIONS["top_layer"])


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == (90, 10)
    assert run.percentile(values, 50) == (50, 50)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "order_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
