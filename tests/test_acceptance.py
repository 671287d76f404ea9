"""Acceptance gate: one test per criterion, each emitting one PASS/FAIL line.

Criterion 11 certifies the structure of the appended-exponent pairing.  The
natural conjecture ("reading A": the value of ``k + (n,)`` sits at
coordinates ``(rank of the tail of k, n)``) is false, and the criterion
asserts the certified refutation rather than the conjecture: the value with
index (2,1,1,1) clears the rank-4 threshold although its prefix (2,1,1)
ranks fifth, which the independent direct-summation oracle confirms.  It
also asserts what does hold across the scanned triangle: every member is
placed without an unresolved comparison, members only ever escape upward
(a value ``T(k + (n,))`` exceeds the tail of ``k`` it converges to), no two
members share a coordinate, and within a family the coordinates increase
with ``n``.  The other two clauses of criterion 11 are empty threshold sets
through rank 3 and zero unresolved collisions.
"""

import time
from fractions import Fraction

import pytest

from tvals.enclosure import Enclosure
from tvals.evaluator import (
    EvalRequest,
    evaluate,
    evaluate_direct_family,
    evaluate_direct_many,
)
from tvals.indices import (
    ValueSpec,
    enumerate_admissible_up_to,
    index_str,
    parse_index,
)
from tvals.numerics import const_catalan, const_pi
from tvals.order import band_prefix, beta_table, phi
from tvals.verify import (
    ScanStatus,
    check_phi_conjecture,
    scan_p_sets,
    scan_tail_collisions,
    verify_catalan,
    verify_chain,
    verify_limits,
    verify_monotonicity,
    verify_repeated,
    verify_sum_formula,
    verify_tail_recurrence,
)


def test_criterion_01_single_even_value(criterion_recorder):
    started = time.monotonic()
    got = evaluate(
        EvalRequest(ValueSpec((2,), 0), target_width=Fraction(1, 10**30))
    )
    pi = const_pi(256)
    closed_form = pi.pow_int(2) * Enclosure.from_fraction(Fraction(1, 8), 256)
    elapsed = time.monotonic() - started
    ok = (
        got.width() <= Fraction(1, 10**30)
        and got.overlaps(closed_form)
        and elapsed < 10.0
    )
    criterion_recorder(
        1, ok, f"t(2) enclosed at width <= 1e-30, contains pi^2/8, {elapsed:.2f}s"
    )
    assert ok


def test_criterion_02_repeated_block_families(criterion_recorder):
    started = time.monotonic()
    report = verify_repeated(n_max=3, tolerance=Fraction(1, 10**20))
    elapsed = time.monotonic() - started
    ok = report.status is ScanStatus.ALL_PASSED and elapsed <= 120.0
    criterion_recorder(
        2,
        ok,
        f"three repeated-exponent families, depths 1-3, width <= 1e-20, {elapsed:.1f}s",
    )
    assert ok, report.counts()


def test_criterion_03_even_sum_identity(criterion_recorder):
    report = verify_sum_formula(n_max=4, tolerance=Fraction(1, 10**12))
    ok = report.status is ScanStatus.ALL_PASSED
    criterion_recorder(
        3, ok, "even-index sums match closed form to 1e-12 through weight 8"
    )
    assert ok, report.counts()


def test_criterion_04_alternating_partial_sums(criterion_recorder):
    report = verify_catalan(j_max=12)
    ok = report.status is ScanStatus.ALL_PASSED
    criterion_recorder(
        4, ok, "partial sums increase toward 2G; frozen depth-12 gap ceiling holds"
    )
    assert ok, report.counts()


def test_criterion_05_constant_gap_in_unit_interval(criterion_recorder):
    catalan = const_catalan(160)
    pi = const_pi(160)
    gap = catalan + catalan - pi.pow_int(2) * Enclosure.from_fraction(
        Fraction(1, 8), 160
    )
    ok = gap.lo_fraction > 0 and gap.hi_fraction < 1
    criterion_recorder(
        5, ok, "2G - pi^2/8 certified strictly inside (0, 1)"
    )
    assert ok


def test_criterion_06_descending_chain_prefix(criterion_recorder):
    started = time.monotonic()
    report = verify_chain(block_count=4, per_block=8)
    elapsed = time.monotonic() - started
    ok = report.status is ScanStatus.ALL_PASSED and elapsed <= 300.0
    criterion_recorder(
        6, ok, f"4 blocks x 8 items, all adjacent separations certified, {elapsed:.1f}s"
    )
    assert ok, report.counts()


def test_criterion_07_leading_table_rows(criterion_recorder):
    table = beta_table(4)
    indices_ok = [entry.index for entry in table] == [(), (2,), (2, 1), (3,)]
    separations_ok = all(
        below.value.certified_lt(above.value)
        for above, below in zip(table, table[1:])
    )
    pi = const_pi(192)
    second = pi.pow_int(2) * Enclosure.from_fraction(Fraction(1, 8), 192) \
        - Enclosure.from_fraction(Fraction(1), 192)
    values_ok = table[0].value.contains(Fraction(1)) and table[1].value.overlaps(second)
    ok = indices_ok and separations_ok and values_ok
    criterion_recorder(
        7, ok, "table rows 1-4 ordered with certified separations; rows 1-2 match closed forms"
    )
    assert ok


def test_criterion_08_coordinate_spot_checks(criterion_recorder):
    expected = {
        (2,): (1, 1),
        (4,): (1, 3),
        (2, 3): (2, 3),
        (2, 1, 1): (3, 1),
    }
    got = {index: phi(index) for index in expected}
    ok = all(
        (coord.band, coord.position) == expected[index]
        for index, coord in got.items()
    )
    criterion_recorder(8, ok, "four coordinate spot checks match")
    assert ok, got


def test_criterion_09_oracle_equivalence(criterion_recorder):
    started = time.monotonic()
    indices = enumerate_admissible_up_to(6, include_empty=False)
    assert len(indices) == 31
    disjoint = []
    direct = evaluate_direct_family(indices, offsets=(0, 1), max_outer=10**6)
    for index in indices:
        for offset in (0, 1):
            fast = evaluate(
                EvalRequest(
                    ValueSpec(index, offset), target_width=Fraction(1, 10**8)
                )
            )
            if not fast.overlaps(direct[index][offset]):
                disjoint.append((index, offset))
    elapsed = time.monotonic() - started
    ok = not disjoint
    criterion_recorder(
        9,
        ok,
        f"31 indices x offsets {{0,1}}: accelerated and direct summation overlap "
        f"everywhere ({elapsed:.0f}s)",
    )
    assert ok, disjoint


def test_criterion_10_monotonicity_and_recurrence(criterion_recorder):
    mono = verify_monotonicity(pair_count=50, weight_max=8)
    recurrence = verify_tail_recurrence(weight_max=8, tolerance=Fraction(1, 10**10))
    ok = (
        mono.status is ScanStatus.ALL_PASSED
        and mono.counts()["pass"] == 50
        and recurrence.status is ScanStatus.ALL_PASSED
    )
    criterion_recorder(
        10, ok, "50 strict-decrease pairs and all weight<=8 tail recurrences certified"
    )
    assert ok, (mono.counts(), recurrence.counts())


def test_criterion_11_conjecture_scans(criterion_recorder):
    psets = scan_p_sets(rank_max=3, n_max=10)
    collisions = scan_tail_collisions(weight_max=8, resolution=Fraction(1, 10**25))
    pairing = check_phi_conjecture(weight_max=9, n_max=10, total_max=10)

    psets_ok = psets.status is ScanStatus.ALL_PASSED
    collisions_ok = collisions.counts().get("unresolved", 0) == 0
    shift_notes = [
        f
        for f in pairing.findings
        if f.verdict == "note" and "documented shift" in f.detail
    ]
    summary_notes = [
        f for f in pairing.findings if f.subject == "reading B summary"
    ]
    documented_ok = bool(shift_notes) and bool(summary_notes)
    assert psets_ok, psets.counts()
    assert collisions_ok, collisions.counts()
    assert documented_ok

    members = {
        parse_index(f.subject): f for f in pairing.findings if "actual" in f.data
    }
    problems = []

    unresolved = [f.subject for f in pairing.findings if f.verdict == "unresolved"]
    if unresolved or pairing.status is not ScanStatus.COUNTEREXAMPLE:
        problems.append(f"status {pairing.status.value}, unresolved {unresolved}")

    counterexample = members.get((2, 1, 1, 1))
    if counterexample is None or not (
        counterexample.verdict == "fail"
        and counterexample.data["reading_a"] == [5, 1]
        and counterexample.data["actual"] == [4, 1]
    ):
        problems.append(
            f"2,1,1,1 does not refute reading A as (5, 1) -> (4, 1): {counterexample}"
        )

    # T(k + (n,)) is the tail of k plus positive terms, so a member lands in
    # its reading-A band or escapes above it, never below
    downward = [
        index_str(index)
        for index, f in members.items()
        if f.data["actual"][0] > f.data["reading_a"][0]
    ]
    if downward:
        problems.append(f"members below their reading-A band: {downward}")
    escapes = sum(
        f.data["actual"][0] < f.data["reading_a"][0] for f in members.values()
    )
    shifts = sum(
        f.verdict == "fail" and f.data["actual"][0] == f.data["reading_a"][0]
        for f in members.values()
    )

    placed = {
        index: tuple(f.data["actual"])
        for index, f in members.items()
        if None not in f.data["actual"]
    }
    if len(placed) != len(members):
        unplaced = [index_str(index) for index in members if index not in placed]
        problems.append(f"members without a position in their band: {unplaced}")
    if len(set(placed.values())) != len(placed):
        problems.append("two members share a coordinate")

    # T(k, n) strictly decreases in n, so its coordinates strictly increase
    families: dict = {}
    for index, coord in placed.items():
        families.setdefault(index[:-1], []).append((index[-1], coord))
    non_monotone = []
    for k, row in families.items():
        coords = [coord for _, coord in sorted(row)]
        if any(a >= b for a, b in zip(coords, coords[1:])):
            non_monotone.append(index_str(k))
    if non_monotone:
        problems.append(f"families not increasing in n: {non_monotone}")

    # the refutation does not rest on the fast path: direct summation alone
    # separates T(2,1,1,1) from beta_4 = t(3) - 1, the tail of (3,) at offset 1
    direct_member = evaluate_direct_many((2, 1, 1, 1), (0,), max_outer=2 * 10**4)[0]
    direct_beta4 = evaluate_direct_many((3,), (1,), max_outer=2 * 10**4)[1]
    if not direct_member.certified_gt(direct_beta4):
        problems.append(
            f"direct summation does not separate {direct_member} from {direct_beta4}"
        )

    ok = not problems
    summary = (
        "threshold sets empty through rank 3 and zero unresolved collisions; "
        f"reading-A pairing refuted at {escapes + shifts} of {len(members)} members "
        f"({escapes} upward escapes, {shifts} same-band shifts, none downward), "
        "coordinates distinct and increasing in n; certified counterexample "
        "2,1,1,1 at (4, 1), not (5, 1), confirmed by direct summation"
    )
    criterion_recorder(11, ok, summary if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_12_limit_envelopes(criterion_recorder):
    reports = {
        index: verify_limits(index, n_max=12) for index in ((), (2,), (2, 1))
    }
    ok = all(r.status is ScanStatus.ALL_PASSED for r in reports.values())
    criterion_recorder(
        12, ok, "appended-exponent values decrease to the cutoff-1 tail within 3^-n envelopes"
    )
    assert ok, {k: r.counts() for k, r in reports.items()}
