"""Correctness gate: which requests of a round returned a wrong answer.

Every function takes the round's results and returns ``{request id:
reason}`` for the requests that fail their check.  The benchmark adds
these to the requests that raised, and reports the total against the
requests attempted as ``error_rate``.  The checks only compare
enclosures, coordinates and printed text, so they can be fed
deliberately wrong results (see ``test_perfbench.py``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

# criterion-8 spot checks of the coordinate map
PHI_SPOT_CHECKS = {(2, 1, 1, 1): (4, 1), (2, 3): (2, 3)}


def check_eval(results) -> dict:
    """``results``: dicts with ``id``, ``spec``, ``target`` (Fraction),
    ``enclosure`` and ``oracle`` (an independent direct-summation enclosure
    of the same spec).  Checks width <= target, overlap with the oracle,
    and pairwise overlap of repeats of one spec at different widths."""
    bad = {}
    for r in results:
        if r["enclosure"].width() > r["target"]:
            bad[r["id"]] = f"width {float(r['enclosure'].width()):.3e} above target"
        elif not r["enclosure"].overlaps(r["oracle"]):
            bad[r["id"]] = "disjoint from the direct-summation oracle"
    by_spec: dict = {}
    for r in results:
        by_spec.setdefault(r["spec"], []).append(r)
    for group in by_spec.values():
        for a, b in combinations(group, 2):
            if not a["enclosure"].overlaps(b["enclosure"]):
                bad.setdefault(a["id"], "repeats of one spec disagree")
                bad.setdefault(b["id"], "repeats of one spec disagree")
    return bad


def check_order(ranks, coords) -> dict:
    """``ranks``: ``{id: (family, rank)}`` from ``rank_of_tail``;
    ``coords``: ``{id: (member, (band, position))}`` from ``phi``.
    Checks the criterion-8 spot values and that no two tails share a rank
    and no two values share coordinates."""
    bad = {}
    for rid, (member, coord) in coords.items():
        expected = PHI_SPOT_CHECKS.get(tuple(member))
        if expected is not None and tuple(coord) != expected:
            bad[rid] = f"phi{tuple(member)} = {tuple(coord)}, expected {expected}"
    for table, what in ((ranks, "rank"), (coords, "coordinates")):
        seen: dict = {}
        for rid, (_, value) in table.items():
            if value in seen:
                bad.setdefault(rid, f"{what} {value} repeated")
                bad.setdefault(seen[value], f"{what} {value} repeated")
            seen[value] = rid
    return bad


def check_oracle(pairs) -> dict:
    """``pairs``: ``{id: [(direct, accelerated), ...]}``; every pair must
    overlap."""
    return {
        rid: "direct and accelerated enclosures are disjoint"
        for rid, items in pairs.items()
        if not all(direct.overlaps(fast) for direct, fast in items)
    }


_INTERVAL = re.compile(r"in\s+\[([-0-9.eE+]+), ([-0-9.eE+]+)\]")
_PHI = re.compile(r"= \((\d+), (\d+)\)")
_VERDICT = re.compile(r": (Greater|Less|Unresolved)\b")


def printed_interval(stdout: str):
    """``(lo, hi)`` as Fractions from a ``tv eval`` line, or None."""
    match = _INTERVAL.search(stdout)
    if match is None:
        return None
    return Fraction(match.group(1)), Fraction(match.group(2))


def check_cli(outputs, reference) -> dict:
    """``outputs``: dicts with ``id``, ``kind``, ``expect_rc``, ``rc``,
    ``stdout``, a ``key`` naming what was asked and, for ``eval``, ``hit``.
    ``reference`` maps an ``eval`` key to the library's enclosure, a
    ``compare`` key to the library's verdict name and a ``phi`` key to its
    coordinates; a missing entry means the library raised.  Checks the exit code, that
    ``(cached`` appears exactly on expected hits, and that the printed
    answer agrees with the library."""
    bad = {}
    for out in outputs:
        rid, kind, text = out["id"], out["kind"], out["stdout"]
        if out["rc"] != out["expect_rc"]:
            bad[rid] = f"exit code {out['rc']}, expected {out['expect_rc']}"
            continue
        key = out.get("key")
        if kind == "eval":
            if ("(cached" in text) != out["hit"]:
                bad[rid] = "cache hit expected" if out["hit"] else "unexpected cache hit"
                continue
            interval = printed_interval(text)
            ref = reference.get(key)
            if interval is None or ref is None:
                bad[rid] = "no printed interval or no library enclosure"
            elif interval[1] < ref.lo_fraction or interval[0] > ref.hi_fraction:
                bad[rid] = "printed interval disjoint from the library enclosure"
        elif kind == "compare":
            match = _VERDICT.search(text)
            if match is None or match.group(1) != reference.get(key):
                bad[rid] = f"verdict differs from the library's {reference.get(key)}"
        elif kind == "phi":
            match = _PHI.search(text)
            got = (int(match.group(1)), int(match.group(2))) if match else None
            if got is None or list(got) != list(reference.get(key, ())):
                bad[rid] = f"coordinates {got} differ from the library's {reference.get(key)}"
    return bad
