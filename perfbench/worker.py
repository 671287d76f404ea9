"""One benchmark worker process: builds a round's requests and runs them.

Usage (the client, ``run.py``, starts it): ``python worker.py <job.json>``.
The job names a mode, a workload, the seed and round number and the
result path.  Modes:

* ``round``: generate the round's requests from the seed, run them
  closed-loop and timed, snapshot the trace (when traced), then run the
  untimed correctness gate.  Writes latencies, failures and stamps.
* ``setup``: import and generate only, then exit (extra ``setup_s``
  samples).
* ``cli_seed``: the set-up of a ``cli_session`` round: seed the round's
  ``TV_CACHE`` file through ``tvals.cli.main`` and write the request list.
* ``cli_check``: compute the library's answers for the CLI outputs of a
  run and apply the gate to them.

A round's requests come from ``random.Random("<workload>:<seed>:<round>")``
and from permutations fixed by the seed (see ``_cycle``), so a seed and
round always give the same inputs.  The worker reaches the
library only through module attributes (``order.phi``, not a name imported
early), so a tracer installed before the round sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import gate

# eval_highprec: depth <= 4, weight <= 7, offsets 0-2.  Widths down to
# 1e-35 stay on the 128-bit rung; from about 3e-36 the ladder climbs to 256
# bits and the planner builds high-order expansions (the cost cliff).  Each
# round asks depths 2-4 once per width band below the cliff and once more at
# another band, depth 1 twice, and makes one request past the cliff at
# depth 2 with both exponents >= 2 (those all cost about the same; a final
# exponent of 1 takes a cheaper plan).  Rounds then cost alike, and the
# median and 90th percentile fall inside groups of similar requests rather
# than between them.
EVAL_BANDS = ((15, 19), (20, 25), (26, 30), (31, 35))
EVAL_CLIFF_EXP = (36, 45)
EVAL_DEPTH1 = 2
ORACLE_MAX_OUTER = 4_000  # untimed direct-oracle check of eval results

# order_scan: the pairing triangle weight(k) + n <= T
ORDER_TOTAL = 5

# oracle_crosscheck: criterion 9 at reduced size
CROSS_WEIGHT = 6
CROSS_MAX_OUTER = 20_000
CROSS_WIDTH = Fraction(1, 10**8)

# cli_session: specs are admissible indices of weight <= 6 and depth <= 4
# at offsets 0-2.  Seeded records, misses and phi indices are drawn per
# depth from sets of similar cost, so rounds and set-ups cost alike.
CLI_WEIGHT = 6
CLI_SEEDED_PER_DEPTH = 5
CLI_MISSES_PER_DEPTH = 3
CLI_HITS = 20
CLI_PHI = ((2, 2), (2, 3), (2, 1, 1))


def _rng(job) -> random.Random:
    return random.Random(f"{job['workload']}:{job['seed']}:{job.get('round', 0)}")


def _cycle(job, name, items, count) -> list:
    """``count`` distinct items for this round from a permutation of
    ``items`` fixed by the seed: round ``r`` takes the ``r``-th slice, so a
    run's rounds cover the set evenly instead of sampling it with repeats,
    and runs with different seeds ask for work of the same mix."""
    perm = list(items)
    random.Random(f"{job['workload']}:{job['seed']}:{name}").shuffle(perm)
    start = job.get("round", 0) * count
    return [perm[(start + i) % len(perm)] for i in range(count)]


def _idx(index) -> str:
    return ",".join(map(str, index)) if index else "empty"


def _by_depth(max_weight) -> dict:
    """Admissible indices of weight <= ``max_weight`` and depth <= 4, by depth."""
    from tvals import enumerate_admissible_up_to

    pool = {d: [] for d in range(1, 5)}
    for k in enumerate_admissible_up_to(max_weight):
        if len(k) <= 4:
            pool[len(k)].append(k)
    return pool


# ----------------------------------------------------------------------
# request generation: each takes the job and returns (label, thunk) pairs
# ----------------------------------------------------------------------
def eval_requests(job):
    from tvals import evaluator
    from tvals.indices import ValueSpec

    rng = _rng(job)
    pool = _by_depth(7)
    plan = []  # (spec, exponent)
    for k in _cycle(job, "depth1", pool[1], EVAL_DEPTH1):
        plan.append((ValueSpec(k, rng.randint(0, 2)), rng.randint(*rng.choice(EVAL_BANDS))))
    for d in range(2, 5):
        indices = _cycle(job, f"depth{d}", pool[d], len(EVAL_BANDS))
        chosen = [ValueSpec(k, rng.randint(0, 2)) for k in indices]
        exps = [rng.randint(*band) for band in EVAL_BANDS]
        rng.shuffle(exps)
        plan += list(zip(chosen, exps))
        repeat = rng.randrange(len(chosen))
        band = rng.choice([b for b in EVAL_BANDS if not b[0] <= exps[repeat] <= b[1]])
        plan.append((chosen[repeat], rng.randint(*band)))
    (cliff,) = _cycle(job, "cliff", [k for k in pool[2] if min(k) >= 2], 1)
    plan.append((ValueSpec(cliff, rng.randint(0, 2)), rng.randint(*EVAL_CLIFF_EXP)))
    rng.shuffle(plan)

    def request(spec, width):
        return lambda: evaluator.evaluate_spec(spec, width)

    return [((spec, Fraction(1, 10**e)), request(spec, Fraction(1, 10**e))) for spec, e in plan]


def triangle(total):
    """Families and members of the pairing triangle ``weight(k)+n <= total``."""
    from tvals import enumerate_admissible_up_to

    families = enumerate_admissible_up_to(total - 1)
    members = [(n,) for n in range(2, total + 1)]
    members += [k + (n,) for k in families for n in range(1, total - sum(k) + 1)]
    return families, members


def order_requests(job):
    from tvals import order

    rng = _rng(job)
    families, members = triangle(ORDER_TOTAL)
    rng.shuffle(families)
    rng.shuffle(members)
    return [(("rank", k), (lambda k=k: order.rank_of_tail(k))) for k in families] + [
        (("phi", m), (lambda m=m: order.phi(m))) for m in members
    ]


def cross_requests(job):
    from tvals import enumerate_admissible_up_to
    from tvals import evaluator
    from tvals.indices import ValueSpec

    indices = enumerate_admissible_up_to(CROSS_WEIGHT)
    _rng(job).shuffle(indices)

    def request(k):
        def run():
            direct = evaluator.evaluate_direct_many(k, (0, 1), CROSS_MAX_OUTER)
            return [
                (direct[n], evaluator.evaluate_spec(ValueSpec(k, n), CROSS_WIDTH))
                for n in (0, 1)
            ]

        return run

    return [(k, request(k)) for k in indices]


GENERATORS = {
    "eval_highprec": eval_requests,
    "order_scan": order_requests,
    "oracle_crosscheck": cross_requests,
}


# ----------------------------------------------------------------------
# gates over a finished round
# ----------------------------------------------------------------------
def gate_round(workload, labels, ok) -> dict:
    if workload == "eval_highprec":
        from tvals import evaluator

        oracles = {}
        results = []
        for i, enclosure in ok.items():
            spec, target = labels[i]
            if spec not in oracles:
                oracles[spec] = evaluator.evaluate_direct(spec, max_outer=ORACLE_MAX_OUTER)
            results.append(
                {"id": i, "spec": spec, "target": target, "enclosure": enclosure, "oracle": oracles[spec]}
            )
        return gate.check_eval(results)
    if workload == "order_scan":
        ranks = {i: (labels[i][1], v) for i, v in ok.items() if labels[i][0] == "rank"}
        coords = {
            i: (labels[i][1], (v.band, v.position)) for i, v in ok.items() if labels[i][0] == "phi"
        }
        return gate.check_order(ranks, coords)
    return gate.check_oracle(ok)


def run_round(job) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    labels, thunks = zip(*GENERATORS[job["workload"]](job))
    if job["mode"] == "setup":
        return {"ready": time.monotonic()}
    latencies, outputs, failures = [], {}, {}
    ready = time.monotonic()
    for i, thunk in enumerate(thunks):
        if tracer is not None:
            tracer.request = i
        start = time.perf_counter()
        try:
            outputs[i] = thunk()
        except Exception as exc:  # a failed request is counted, the round goes on
            failures[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
    summary = tracer.summary() if tracer is not None else None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, reason in gate_round(job["workload"], labels, outputs).items():
        failures.setdefault(i, reason)
    return {
        "ready": ready,
        "latencies": latencies,
        "failures": {str(i): r for i, r in failures.items()},
        "rss_kb": rss_kb,
        "trace": summary,
        "stamp": stamp(),
    }


def stamp() -> dict:
    import mpmath
    import tvals
    from mpmath import libmp

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": libmp.BACKEND,
        "tvals": tvals.__version__,
    }


# ----------------------------------------------------------------------
# cli_session: cache seeding and the checker
# ----------------------------------------------------------------------
def cli_seed(job) -> dict:
    """Seed ``TV_CACHE`` through the CLI's own write path and return the
    round's request list with the expected outcome of each request."""
    from tvals import cli

    rng = _rng(job)
    by_depth = _by_depth(CLI_WEIGHT)
    seeded = {}
    for d, indices in by_depth.items():
        for k in _cycle(job, f"depth{d}", indices, CLI_SEEDED_PER_DEPTH):
            seeded[(k, rng.randint(0, 2))] = rng.randint(12, 24)
    specs = [(k, n) for indices in by_depth.values() for k in indices for n in range(3)]
    misses = []
    for d, indices in by_depth.items():
        unseeded = [(k, n) for k in indices for n in range(3) if (k, n) not in seeded]
        misses += rng.sample(unseeded, CLI_MISSES_PER_DEPTH)
    for (k, n), digits in seeded.items():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["eval", "--index", _idx(k), "--tail", str(n), "--digits", str(digits)])
        if rc != 0:
            raise RuntimeError(f"seeding eval {k} tail {n} exited {rc}")

    def eval_request(spec, digits, hit):
        k, n = spec
        return {
            "kind": "eval",
            "argv": ["eval", "--index", _idx(k), "--tail", str(n), "--digits", str(digits)],
            "key": f"{_idx(k)}|{n}",
            "hit": hit,
            "expect_rc": 0,
        }

    requests = []
    # a hit asks for no more digits than the seeded record holds; a miss
    # names a spec the cache has never seen, so both outcomes are certain
    hit_specs = list(seeded)
    for _ in range(CLI_HITS):
        spec = rng.choice(hit_specs)
        requests.append(eval_request(spec, rng.randint(8, seeded[spec]), True))
    for spec in misses:
        requests.append(eval_request(spec, rng.randint(12, 30), False))
    (a, na), (b, nb) = rng.sample(specs, 2)
    left, right = f"tail:{na}:{_idx(a)}", f"tail:{nb}:{_idx(b)}"
    requests.append({"kind": "compare", "argv": ["compare", "--a", left, "--b", right],
                     "key": f"{left}|{right}", "expect_rc": 0})
    index = rng.choice(CLI_PHI)
    requests.append({"kind": "phi", "argv": ["phi", "--index", _idx(index)],
                     "key": _idx(index), "expect_rc": 0})
    requests.append({"kind": "scan", "argv": ["scan", "--kind", "p-sets", "--rank-max",
                     str(rng.randint(2, 3)), "--nmax", str(rng.randint(4, 10))], "expect_rc": 0})
    requests.append({"kind": "verify", "argv": ["verify", "--suite", "order"], "expect_rc": 0})
    rng.shuffle(requests)
    return {"requests": requests, "stamp": stamp(), "ready": time.monotonic()}


def cli_check(job) -> dict:
    """Library answers for every distinct CLI request of the run, then the
    gate; returns the failing ``"<round>:<id>"`` keys."""
    from tvals import evaluator, order
    from tvals.indices import ValueSpec, parse_index, parse_value_spec

    outputs = job["outputs"]
    reference = {}
    for out in outputs:
        key = out.get("key")
        if key is None or key in reference:
            continue
        try:
            if out["kind"] == "eval":
                index, offset = key.split("|")
                spec = ValueSpec(parse_index(index), int(offset))
                reference[key] = evaluator.evaluate_spec(spec, Fraction(1, 10**32))
            elif out["kind"] == "compare":
                left, right = key.split("|")
                outcome = order.compare(parse_value_spec(left), parse_value_spec(right))
                reference[key] = outcome.verdict.value
            elif out["kind"] == "phi":
                coord = order.phi(parse_index(key))
                reference[key] = [coord.band, coord.position]
        except Exception:  # the library raised: the gate fails the request
            continue
    return {"bad": gate.check_cli(outputs, reference)}


MODES = {"round": run_round, "setup": run_round, "cli_seed": cli_seed, "cli_check": cli_check}


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    result = MODES[job["mode"]](job)
    Path(job["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
