"""Record labelled sets of performance rows into a ``BENCH_<n>.json`` file.

Run from the repository root with one ``--tree``/``--label`` pair per source
tree to compare; ``--perfbench`` and ``--pytest``, when given, follow each
pair and belong to it::

    python3 bench/record.py --out BENCH_<n>.json \\
        --tree ../parent --label parent \\
        --perfbench runs/parent_*.txt --pytest ../parent/test_output.txt \\
        --tree . --label change \\
        --perfbench runs/change_*.txt --pytest test_output.txt

Rows, each for one source tree (its ``src/`` is put on the path):

* ``cold``: the fixed grid below (a calibration loop, the evaluator
  layers, the order queries ``phi`` and ``beta_table``, and the pairing
  scans up to weight 7, 9 and 10), each timed in a fresh Python process
  (every ``lru_cache`` empty),
  ``REPEAT`` times, with ``mpmath`` blocked so that a tree which still
  needs it fails here, each run with the process's peak RSS; each pairing
  scan row also gives its number of ``order._decide`` calls, counted in
  one more fresh process apart from the timed ones; and the wall
  time of a whole ``python -m tvals.cli``
  process, from spawn to exit: ``tv eval`` on a cache miss and on a cache
  hit, and ``tv phi``.  Each tree's ``src/`` is compiled (``python -m compileall``)
  before the first row, so that stale bytecode is not timed as the tree's
  own cost.  Each row is timed on every tree before the next row starts,
  the trees alternating (in reverse order on every other repeat), so that
  a drift of the host's speed reaches all trees alike.  The calibration
  row times a fixed pure-Python integer loop that uses no ``tvals`` code,
  so it reads alike on every tree of one file, and across files it tells
  a change of host speed from a change of the code;
* ``perfbench``: the end-to-end medians of each workload, copied from saved
  ``python3 perfbench/run.py ... --trace 0`` output (one run per file, or
  several concatenated); across runs the median, quartiles and seeds;
* ``traced``: the per-layer metrics of saved ``--trace 1`` output, each
  the median over that workload's traced runs;
* ``pytest``: the call durations that a saved ``pytest --durations=N``
  log lists for the acceptance criteria.

Each row carries the stamp of the tree it measured: the Python and
``tvals`` versions.  Rows already in ``--out`` under another label are
kept; rows under a given ``--label`` are replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COLD_GRID = (
    ("calibration", 6),
    ("prefix_expansion", 32),
    ("prefix_expansion", 64),
    ("prefix_expansion", 128),
    ("evaluate_spec", 20),
    ("evaluate_spec", 30),
    ("evaluate_spec", 100),
    ("evaluate_spec", 300),
    ("evaluate_direct_many", 5),
    ("phi", 0),
    ("beta_table", 12),
    ("check_phi_conjecture", 8),
    ("check_phi_conjecture", 10),
    ("check_phi_conjecture", 11),
    ("tv_eval", 0),
    ("tv_eval", 1),
    ("tv_phi", 0),
)
INDEX = (2, 1, 1, 1)
REPEAT = 5
END_TO_END = ("setup_s", "throughput_rps", "latency_p50_s", "latency_tail_s", "peak_rss_mb")

# the fresh ``tv`` process rows, by kind: argument 0 runs the command on an
# empty cache, 1 on a cache that one untimed process seeded, where it must hit
TV_COMMANDS = {
    "tv_eval": ("eval", "--index", ",".join(map(str, INDEX)), "--digits", "30"),
    "tv_phi": ("phi", "--index", ",".join(map(str, INDEX))),
}

# runs in the child: ``kind`` is calibration (argument: the exponent e of
# 10**e steps of an integer loop, the index unused), prefix_expansion
# (argument: the order), evaluate_spec (argument: the exponent e of the
# target width 10**-e),
# evaluate_direct_many (argument: the exponent e of max_outer 10**e, at
# offsets 0 and 1), phi (argument unused), beta_table (argument: the count,
# the index unused) or check_phi_conjecture (argument: total_max t, with
# weight_max = n_max = t - 1, the index unused)
_CHILD = """
import json, resource, sys, time
sys.modules["mpmath"] = None
from fractions import Fraction
import tvals
from tvals.evaluator import evaluate_direct_many, evaluate_spec, prefix_expansion
from tvals.indices import ValueSpec
from tvals.order import beta_table, phi
from tvals.verify import check_phi_conjecture
kind, index, arg = sys.argv[1], tuple(json.loads(sys.argv[2])), int(sys.argv[3])
start = time.perf_counter()
if kind == "calibration":
    x = 1
    for _ in range(10**arg):
        x = (x * 1103515245 + 12345) % 2147483648
elif kind == "prefix_expansion":
    prefix_expansion(index, arg)
elif kind == "evaluate_direct_many":
    evaluate_direct_many(index, (0, 1), 10**arg)
elif kind == "phi":
    phi(index)
elif kind == "beta_table":
    beta_table(arg)
elif kind == "check_phi_conjecture":
    check_phi_conjecture(arg - 1, arg - 1, total_max=arg)
else:
    evaluate_spec(ValueSpec(index, 0), Fraction(1, 10**arg))
seconds = time.perf_counter() - start
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(json.dumps({"seconds": seconds, "peak_rss_mb": peak_rss_mb,
                  "python": sys.version.split()[0], "tvals": tvals.__version__}))
"""


# runs in the child of ``count_decisions``: the pairing scan of the cold row
# ``check_phi_conjecture`` (argument: total_max t) with ``order._decide``
# wrapped in a counter, so that no timed run pays for the counting
_COUNT_CHILD = """
import json, sys
sys.modules["mpmath"] = None
from tvals import order
from tvals.verify import check_phi_conjecture
arg = int(sys.argv[1])
calls = 0
decide = order._decide
def counted(left, right, budget):
    global calls
    calls += 1
    return decide(left, right, budget)
order._decide = counted
check_phi_conjecture(arg - 1, arg - 1, total_max=arg)
print(json.dumps({"decide_calls": calls}))
"""


def _child_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")


def time_cold(tree: Path, kind: str, index: tuple, arg: int) -> dict:
    """One cold timing in a fresh process; returns seconds, the process's
    peak RSS and the stamp."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, kind, json.dumps(index), str(arg)],
        env=_child_env(tree), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def count_decisions(tree: Path, arg: int) -> int:
    """The ``order._decide`` calls of the cold pairing scan row with
    total_max ``arg``, run once more in a fresh process of its own."""
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_CHILD, str(arg)],
        env=_child_env(tree), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["decide_calls"]


def time_tv(tree: Path, kind: str, hit: int = 0) -> dict:
    """Wall time of one ``python -m tvals.cli`` process running the command
    of ``kind`` on an empty cache (``hit`` 0), or on a seeded cache where it
    must hit (1); returns seconds and the stamp."""
    command = [sys.executable, "-m", "tvals.cli", *TV_COMMANDS[kind]]
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(_child_env(tree), TV_CACHE=str(Path(tmp) / "enclosures.jsonl"))
        if hit:
            subprocess.run(command, env=env, capture_output=True, check=True)
        start = time.perf_counter()
        done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        seconds = time.perf_counter() - start
    if ("(cached" in done.stdout) != bool(hit):
        raise RuntimeError(f"expected a cache {'hit' if hit else 'miss'}: {done.stdout!r}")
    version = re.search(r'__version__ = "([^"]+)"', (tree / "src" / "tvals" / "__init__.py").read_text())
    return {"seconds": seconds, "python": sys.version.split()[0], "tvals": version.group(1)}


def _name(kind: str, arg: int) -> str:
    if kind == "calibration":
        return f"calibration (10**{arg} steps of a pure-Python integer loop)"
    if kind == "prefix_expansion":
        return f"prefix_expansion({INDEX}, {arg})"
    if kind == "evaluate_direct_many":
        return f"evaluate_direct_many({INDEX}, (0, 1), 10**{arg})"
    if kind == "phi":
        return f"phi({INDEX})"
    if kind == "beta_table":
        return f"beta_table({arg})"
    if kind == "check_phi_conjecture":
        return f"check_phi_conjecture({arg - 1}, {arg - 1}, total_max={arg})"
    if kind in TV_COMMANDS:
        return f"tv {' '.join(TV_COMMANDS[kind])} (fresh process, cache {'hit' if arg else 'miss'})"
    return f"evaluate_spec(T{INDEX}, 1e-{arg})"


def compile_tree(tree: Path) -> None:
    """Write fresh bytecode for the tree's sources, so that no timed process
    recompiles a module whose ``__pycache__`` is stale or missing."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)


def cold_rows(trees: list[Path]) -> list[list[dict]]:
    """The cold rows of each tree, in the order of ``trees``: each tree is
    compiled first, then each grid row is timed ``REPEAT`` times on every
    tree before the next row starts."""
    for tree in trees:
        compile_tree(tree)
    rows: list[list[dict]] = [[] for _ in trees]
    turn = list(enumerate(trees))
    for kind, arg in COLD_GRID:
        runs: list[list[dict]] = [[] for _ in trees]
        for repeat in range(REPEAT):
            for number, tree in turn if repeat % 2 == 0 else reversed(turn):
                if kind in TV_COMMANDS:
                    runs[number].append(time_tv(tree, kind, arg))
                else:
                    runs[number].append(time_cold(tree, kind, INDEX, arg))
        for number, tree_runs in enumerate(runs):
            seconds = [run["seconds"] for run in tree_runs]
            row = {
                "kind": "cold",
                "name": _name(kind, arg),
                "median_s": statistics.median(seconds),
                "runs_s": seconds,
                "stamp": {"python": tree_runs[0]["python"], "tvals": tree_runs[0]["tvals"]},
            }
            if "peak_rss_mb" in tree_runs[0]:  # not measured for ``tv`` processes
                rss = [run["peak_rss_mb"] for run in tree_runs]
                row.update(median_rss_mb=statistics.median(rss), runs_rss_mb=rss)
            if kind == "check_phi_conjecture":
                row["decide_calls"] = count_decisions(trees[number], arg)
            rows[number].append(row)
    return rows


def parse_perfbench(text: str, trace: int = 0) -> list[dict]:
    """Report, failure count and metric values of each run in ``text`` made
    with ``--trace trace``: the end-to-end metrics untraced, the per-layer
    ones traced."""
    runs, report = [], None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        payload = json.loads(line)
        if "report" in payload:
            report = payload["report"]
        elif "metrics" in payload and report is not None and report["trace"] == trace:
            values = {name: metric["value"] for name, metric in payload["metrics"].items()}
            runs.append({"report": report, "failed": payload["failed"], "values": values})
            report = None
    return runs


def _rows_by_workload(kind: str, paths: list[Path], trace: int) -> list[tuple[dict, list[dict]]]:
    """One row head per workload (its runs, seeds, failures and stamp) with
    the runs of that workload made with ``--trace trace``."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        for run in parse_perfbench(path.read_text(), trace):
            by_workload.setdefault(run["report"]["workload"], []).append(run)
    out = []
    for workload, runs in sorted(by_workload.items()):
        first = runs[0]["report"]
        out.append(({
            "kind": kind,
            "name": workload,
            "runs": len(runs),
            "seeds": [run["report"]["seed"] for run in runs],
            "failed": sum(run["failed"] for run in runs),
            "stamp": {"python": first["python"], "tvals": first["tvals"]},
        }, runs))
    return out


def perfbench_rows(paths: list[Path]) -> list[dict]:
    rows = []
    for row, runs in _rows_by_workload("perfbench", paths, trace=0):
        median, quartiles = {}, {}
        for name in END_TO_END:
            values = sorted(run["values"][name] for run in runs)
            median[name] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                quartiles[name] = [q1, q3]
        rows.append(dict(row, median=median, quartiles=quartiles))
    return rows


def traced_rows(paths: list[Path]) -> list[dict]:
    """Per workload, the median of each per-layer metric over the traced runs."""
    rows = []
    for row, runs in _rows_by_workload("traced", paths, trace=1):
        names = runs[0]["values"]
        median = {name: statistics.median(run["values"][name] for run in runs) for name in names}
        rows.append(dict(row, median=median))
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
    parser.add_argument("--tree", type=Path, action="append", required=True,
                        help="source tree to time; repeat once per tree")
    parser.add_argument("--label", action="append", required=True,
                        help="row label of the tree before it, e.g. parent or change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to update")
    parser.add_argument("--perfbench", type=Path, nargs="*", action="append", default=None,
                        help="saved run.py outputs of the tree before it")
    parser.add_argument("--pytest", type=Path, action="append", default=None,
                        help="saved pytest --durations log of the tree before it")
    args = parser.parse_args(argv)
    trees = len(args.tree)
    if len(args.label) != trees or len(set(args.label)) != trees:
        parser.error("give one distinct --label per --tree")
    for name in ("perfbench", "pytest"):
        if getattr(args, name) is not None and len(getattr(args, name)) != trees:
            parser.error(f"give --{name} once per --tree, or not at all")
    perfbench = args.perfbench or [[] for _ in args.tree]
    pytest = args.pytest or [None] * trees
    labelled = []
    for label, rows, runs, durations in zip(
        args.label, cold_rows([tree.resolve() for tree in args.tree]), perfbench, pytest
    ):
        rows += perfbench_rows(runs) + traced_rows(runs)
        if durations is not None:
            rows += pytest_rows(durations, rows[0]["stamp"])
        labelled += [dict(row, label=label) for row in rows]
    kept = []
    if args.out.exists():
        kept = [r for r in json.loads(args.out.read_text())["rows"] if r["label"] not in args.label]
    args.out.write_text(json.dumps({"rows": kept + labelled}, indent=1) + "\n")
    for row in labelled:
        value = row.get("median_s", row.get("seconds", row.get("median", {}).get("throughput_rps")))
        shown = f"{value:.4g}" if value is not None else f"{row['runs']} runs"
        print(f"{row['label']:8s} {row['kind']:9s} {row['name']:50s} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
