"""Benchmark of the tvals library: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload eval_highprec --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``eval_highprec``: ``evaluate`` requests, depth <= 4, widths 1e-15..1e-45.
* ``order_scan``: the pairing triangle, ``rank_of_tail`` then ``phi``.
* ``oracle_crosscheck``: direct oracle against ``evaluate`` at 1e-8.
* ``cli_session``: fresh ``python -m tvals.cli`` processes on a seeded cache.

Each workload is a closed loop: this client runs one worker process at a
time, and the worker runs one request at a time.  A round is one fresh
worker (so every ``lru_cache`` starts empty) running the round's request
list; rounds repeat until ``--seconds`` would be exceeded.  For
``cli_session`` a round is a cache-seeding process followed by one ``tv``
process per request.  Every round gets its inputs from
``random.Random("<workload>:<seed>:<round>")``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time from
worker start to its first request), ``throughput_rps`` (median over rounds
of requests per second of request time), ``latency_p50_s``, ``latency_tail_s`` (a fixed
percentile per workload, chosen so that at least ten samples lie beyond it;
the report line gives the percentile and the count) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced rounds on the same inputs,
prints the per-layer metrics of the traced rounds and the tracing overhead,
and names the layer with the most self time.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON ``report`` with
the stamps (seed, CPUs, Python, mpmath and its backend, tvals version,
commit, request counts), ``error_rate`` and the failures.  All temporary
files live in ``.perfbench_tmp/`` under the repository root and are removed
on exit; ``TV_CACHE`` always points there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

WORKLOADS = ("eval_highprec", "order_scan", "oracle_crosscheck", "cli_session")
# Fixed per workload so that runs of different speed report the same
# percentile; each leaves at least ten samples beyond it at the parent's
# request counts (the report line shows the actual count).
TAIL_PERCENTILE = {"eval_highprec": 90, "order_scan": 95, "oracle_crosscheck": 75, "cli_session": 75}
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 165  # every process is stopped well inside 180 s


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Spawns the workload's processes one at a time inside a temporary directory."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float):
        self.workload, self.seed, self.tmp, self.deadline = workload, seed, tmp, deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            TV_CACHE=str(tmp / "unused-cache.jsonl"),
        )
        self.count = 0
        self.stamp: dict = {}

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.tmp / f"{self.count:05d}-{stem}"

    def spawn(self, cmd, env=None) -> dict:
        """Run ``cmd`` to completion; returns exit code, peak RSS, start and
        end times (``time.monotonic``) and stdout.  Killed at the deadline."""
        out_path, err_path = self.path("out"), self.path("err")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("time limit reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env or self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode,
            "rss_kb": usage.ru_maxrss,
            "start": start,
            "end": end,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace"),
        }

    def job(self, mode: str, env=None, **fields) -> tuple[dict, dict]:
        """Run ``worker.py`` in ``mode``; returns (process info, result)."""
        out = self.path("result.json")
        job_path = self.path("job.json")
        job = {"mode": mode, "workload": self.workload, "seed": self.seed, "out": str(out), **fields}
        job_path.write_text(json.dumps(job))
        proc = self.spawn([sys.executable, str(BENCH / "worker.py"), str(job_path)], env)
        if proc["rc"] != 0 or not out.exists():
            tail = proc["stderr"].strip().splitlines()[-3:]
            raise WorkerFailed(f"{mode} worker exited {proc['rc']}: {' | '.join(tail)}")
        result = json.loads(out.read_text())
        self.stamp = self.stamp or result.get("stamp", {})
        return proc, result

    # -- one round -------------------------------------------------------
    def round(self, number: int, traced: bool) -> dict:
        if self.workload == "cli_session":
            return self.cli_round(number, traced)
        proc, result = self.job("round", round=number, trace=traced)
        return {
            "latencies": result["latencies"],
            "failures": result["failures"],
            "rss_kb": result["rss_kb"],
            "setup": result["ready"] - proc["start"],
            "trace": result["trace"],
        }

    def cli_round(self, number: int, traced: bool) -> dict:
        cache = self.tmp / f"cache-{number}-{int(traced)}.jsonl"
        env = dict(self.env, TV_CACHE=str(cache))
        seeder, plan = self.job("cli_seed", env=env, round=number)
        latencies, outputs, summaries, rss_kb = [], [], [], 0
        hits = evals = 0
        for i, request in enumerate(plan["requests"]):
            if traced:
                summary_path = self.path("trace.json")
                cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(summary_path), repr(time.monotonic())]
            else:
                cmd = [sys.executable, "-m", "tvals.cli"]
            proc = self.spawn(cmd + request["argv"], env)
            latencies.append(proc["end"] - proc["start"])
            rss_kb = max(rss_kb, proc["rss_kb"])
            outputs.append(dict(request, id=f"{number}:{int(traced)}:{i}", rc=proc["rc"], stdout=proc["stdout"]))
            if request["kind"] == "eval":
                evals += 1
                hits += "(cached" in proc["stdout"]
            if traced and summary_path.exists():
                summaries.append(json.loads(summary_path.read_text()))
        trace = None
        if traced:
            from tracer import merge

            trace = merge(summaries)
            trace["cli.eval_hits"] = hits
            trace["cli.eval_requests"] = evals
            trace["cli.cache_file_bytes"] = cache.stat().st_size if cache.exists() else 0
        return {
            "latencies": latencies,
            "failures": {},
            "outputs": outputs,
            "rss_kb": rss_kb,
            "setup": plan["ready"] - seeder["start"],
            "trace": trace,
        }

    def setup_probe(self, number: int) -> float:
        if self.workload == "cli_session":
            env = dict(self.env, TV_CACHE=str(self.tmp / f"probe-{number}.jsonl"))
            proc, result = self.job("cli_seed", env=env, round=number)
        else:
            proc, result = self.job("setup", round=number, trace=False)
        return result["ready"] - proc["start"]

    def check_cli(self, rounds) -> None:
        """Apply the CLI gate (library answers computed in one extra
        worker) and record failures on the rounds."""
        outputs = [out for r in rounds for out in r["outputs"]]
        _, result = self.job("cli_check", outputs=outputs)
        for r in rounds:
            for i, out in enumerate(r["outputs"]):
                if out["id"] in result["bad"]:
                    r["failures"][str(i)] = result["bad"][out["id"]]


def percentile(sorted_values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, tmp: Path, started: float) -> tuple[dict, dict]:
    """Run the rounds; returns (metric values, report)."""
    runner = Runner(args.workload, args.seed, tmp, started + HARD_LIMIT_S)
    rounds: list[dict] = []
    pairs = 0
    loop_start = time.monotonic()
    while True:
        for traced in (False, True) if args.trace else (False,):
            rounds.append(dict(runner.round(pairs, traced), traced=traced, number=pairs))
        pairs += 1
        elapsed = time.monotonic() - loop_start
        if elapsed + elapsed / pairs > args.seconds:
            break
    if args.workload == "cli_session":
        runner.check_cli(rounds)

    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    failures = [f"round {r['number']} request {i}: {why}" for r in rounds for i, why in r["failures"].items()]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "requests_per_round": [len(r["latencies"]) for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    values: dict = {}
    if not args.trace:
        latencies = sorted(x for r in plain for x in r["latencies"])
        setups = [r["setup"] for r in plain]
        probe = 1000
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.setup_probe(probe))
            probe += 1
        pct = TAIL_PERCENTILE[args.workload]
        tail, beyond = percentile(latencies, pct)
        values = {
            "setup_s": statistics.median(setups),
            "throughput_rps": statistics.median(len(r["latencies"]) / sum(r["latencies"]) for r in plain),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "peak_rss_mb": max(r["rss_kb"] for r in plain) / 1024,
        }
        report.update(tail_percentile=pct, tail_samples_beyond=beyond, setup_samples=len(setups))
    else:
        from metrics import layer_metrics, top_layer
        from tracer import merge

        summary = merge(r["trace"] for r in traced)
        busy_traced = sum(sum(r["latencies"]) for r in traced)
        busy_plain = sum(sum(r["latencies"]) for r in plain)
        values, absent = layer_metrics(summary, len(traced))
        values["trace.overhead_ratio"] = busy_traced / busy_plain
        report.update(
            traced_rounds=len(traced),
            absent_metrics=absent,
            absent_call_sites=summary["absent_sites"],
            top_layer=top_layer(args.workload, summary, busy_traced),
        )
    report.update(
        runner.stamp,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        commit=git_commit(),
    )
    return values, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "tvals" / "__init__.py").is_file():
        print(f"error: no tvals sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        values, report = measure(args, tmp, started)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    missing = set(units) - set(values)
    if missing:
        print(f"error: benchmark computes no {sorted(missing)}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{args.workload:18s} {name:36s} {values[name]:.6g} {unit}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload:18s} error_rate {report['error_rate']:.4g} ({failed}/{attempted})")
    print(json.dumps({"report": report}))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
