"""Record one labelled set of performance rows into a ``BENCH_<n>.json`` file.

Run from the repository root, once per source tree to compare::

    python3 bench/record.py --tree ../parent --label parent \\
        --perfbench runs/parent_*.txt --pytest ../parent/test_output.txt --out BENCH_<n>.json
    python3 bench/record.py --tree . --label change \\
        --perfbench runs/change_*.txt --pytest test_output.txt --out BENCH_<n>.json

Rows, all for the source tree ``--tree`` (its ``src/`` is put on the path):

* ``cold``: the fixed grid below, each timed in a fresh Python process
  (every ``lru_cache`` empty), ``REPEAT`` times, with ``mpmath`` blocked
  so that a tree which still needs it fails here;
* ``perfbench``: the end-to-end medians of each workload, copied from saved
  ``python3 perfbench/run.py ... --trace 0`` output (one run per file, or
  several concatenated); across runs the median, quartiles and seeds;
* ``pytest``: the call durations that a saved ``pytest --durations=N``
  log lists for the acceptance criteria.

Each row carries the stamp of the tree it measured: the Python and
``tvals`` versions.  Rows already in ``--out`` under another label are
kept; rows under ``--label`` are replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

COLD_GRID = (
    ("prefix_expansion", 32),
    ("prefix_expansion", 64),
    ("prefix_expansion", 128),
    ("evaluate_spec", 30),
    ("evaluate_spec", 100),
    ("evaluate_spec", 300),
)
INDEX = (2, 1, 1, 1)
REPEAT = 3
END_TO_END = ("setup_s", "throughput_rps", "latency_p50_s", "latency_tail_s", "peak_rss_mb")

# runs in the child: ``kind`` is prefix_expansion (argument: the order) or
# evaluate_spec (argument: the exponent e of the target width 10**-e)
_CHILD = """
import json, sys, time
sys.modules["mpmath"] = None
from fractions import Fraction
import tvals
from tvals.evaluator import evaluate_spec, prefix_expansion
from tvals.indices import ValueSpec
kind, index, arg = sys.argv[1], tuple(json.loads(sys.argv[2])), int(sys.argv[3])
start = time.perf_counter()
if kind == "prefix_expansion":
    prefix_expansion(index, arg)
else:
    evaluate_spec(ValueSpec(index, 0), Fraction(1, 10**arg))
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "python": sys.version.split()[0], "tvals": tvals.__version__}))
"""


def time_cold(tree: Path, kind: str, index: tuple, arg: int) -> dict:
    """One cold timing in a fresh process; returns seconds and the stamp."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, kind, json.dumps(index), str(arg)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _name(kind: str, arg: int) -> str:
    if kind == "prefix_expansion":
        return f"prefix_expansion({INDEX}, {arg})"
    return f"evaluate_spec(T{INDEX}, 1e-{arg})"


def cold_rows(tree: Path) -> list[dict]:
    rows = []
    for kind, arg in COLD_GRID:
        runs = [time_cold(tree, kind, INDEX, arg) for _ in range(REPEAT)]
        seconds = [run["seconds"] for run in runs]
        rows.append({
            "kind": "cold",
            "name": _name(kind, arg),
            "median_s": statistics.median(seconds),
            "runs_s": seconds,
            "stamp": {"python": runs[0]["python"], "tvals": runs[0]["tvals"]},
        })
    return rows


def parse_perfbench(text: str) -> list[dict]:
    """Report, failure count and end-to-end values of each untraced run in ``text``."""
    runs, report = [], None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        payload = json.loads(line)
        if "report" in payload:
            report = payload["report"]
        elif "metrics" in payload and report is not None and report["trace"] == 0:
            values = {name: payload["metrics"][name]["value"] for name in END_TO_END}
            runs.append({"report": report, "failed": payload["failed"], "values": values})
            report = None
    return runs


def perfbench_rows(paths: list[Path]) -> list[dict]:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        for run in parse_perfbench(path.read_text()):
            by_workload.setdefault(run["report"]["workload"], []).append(run)
    rows = []
    for workload, runs in sorted(by_workload.items()):
        median, quartiles = {}, {}
        for name in END_TO_END:
            values = sorted(run["values"][name] for run in runs)
            median[name] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                quartiles[name] = [q1, q3]
        first = runs[0]["report"]
        rows.append({
            "kind": "perfbench",
            "name": workload,
            "runs": len(runs),
            "seeds": [run["report"]["seed"] for run in runs],
            "failed": sum(run["failed"] for run in runs),
            "median": median,
            "quartiles": quartiles,
            "stamp": {"python": first["python"], "tvals": first["tvals"]},
        })
    return rows


_DURATION = re.compile(r"^([0-9.]+)s call\s+(tests/test_acceptance\.py::\S+)")


def pytest_rows(path: Path, stamp: dict) -> list[dict]:
    rows = []
    for line in path.read_text().splitlines():
        match = _DURATION.match(line)
        if match:
            rows.append({
                "kind": "pytest",
                "name": match.group(2),
                "seconds": float(match.group(1)),
                "stamp": stamp,
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, required=True, help="source tree to time")
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to update")
    parser.add_argument("--perfbench", type=Path, nargs="*", default=[], help="saved run.py outputs")
    parser.add_argument("--pytest", type=Path, default=None, help="saved pytest --durations log")
    args = parser.parse_args(argv)
    rows = cold_rows(args.tree.resolve())
    rows += perfbench_rows(args.perfbench)
    if args.pytest is not None:
        rows += pytest_rows(args.pytest, rows[0]["stamp"])
    for row in rows:
        row["label"] = args.label
    kept = []
    if args.out.exists():
        kept = [r for r in json.loads(args.out.read_text())["rows"] if r["label"] != args.label]
    args.out.write_text(json.dumps({"rows": kept + rows}, indent=1) + "\n")
    for row in rows:
        value = row.get("median_s", row.get("seconds", row.get("median", {}).get("throughput_rps")))
        print(f"{args.label:8s} {row['kind']:9s} {row['name']:50s} {value:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
