"""Mechanical verification scans over identities, inequalities and order laws.

Every operation returns a :class:`ScanReport` — a replayable record holding
the scan name, its exact parameters, one finding per checked item, and an
overall status:

* ``AllPassed``   — every certified check succeeded;
* ``Counterexample`` — at least one check certifiably failed;
* ``Unresolved``  — nothing failed, but some check could not be decided
  within budget.

Numeric evidence is recorded as outward decimal endpoint pairs, so a report
can be re-checked without recomputing.  Informational findings (verdict
``note``) never affect the status.
"""

from __future__ import annotations

import enum
import json
import math
import random
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .enclosure import Enclosure, _format_lower, _format_sci
from .errors import BudgetExceededError, UnresolvedComparisonError
from .evaluator import evaluate_spec
from .indices import (
    MultiIndex,
    ValueSpec,
    _compositions,
    _Frozen,
    enumerate_admissible_up_to,
    index_str,
)
from .numerics import PrecisionBudget, const_catalan, const_pi, euler_int
from .order import (
    _FIRST_WIDTH,
    ComparisonOutcome,
    Verdict,
    band_of_value,
    beta_table,
    compare,
    phi,
    rank_of_tail,
)

__all__ = [
    "ScanStatus",
    "Finding",
    "ScanReport",
    "verify_repeated",
    "verify_sum_formula",
    "verify_catalan",
    "verify_tail_recurrence",
    "verify_monotonicity",
    "verify_chain",
    "verify_limits",
    "scan_p_sets",
    "scan_tail_collisions",
    "check_phi_conjecture",
    "CATALAN_GAP_BOUNDS",
]

# Frozen calibration for the partial-sum gap check: the residual mass after
# twelve terms was measured once at high precision (about 2.4415e-4) and is
# required to stay below this recorded ceiling.
CATALAN_GAP_BOUNDS: dict[int, Fraction] = {12: Fraction(1, 4000)}


class ScanStatus(enum.Enum):
    ALL_PASSED = "AllPassed"
    COUNTEREXAMPLE = "Counterexample"
    UNRESOLVED = "Unresolved"


class Finding(_Frozen):
    """One checked item: ``verdict`` is pass / fail / unresolved / note."""

    __slots__ = ("subject", "verdict", "detail", "data")
    subject: str
    verdict: str
    detail: str
    data: dict

    def __init__(
        self, subject: str, verdict: str, detail: str = "", data: Optional[dict] = None
    ) -> None:
        super().__init__(subject, verdict, detail, {} if data is None else data)


class ScanReport(_Frozen):
    __slots__ = ("scan_id", "parameters", "findings", "status")
    scan_id: str
    parameters: dict
    findings: list[Finding]
    status: ScanStatus

    @property
    def passed(self) -> bool:
        return self.status is ScanStatus.ALL_PASSED

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.verdict] = out.get(finding.verdict, 0) + 1
        return out

    def to_json(self) -> str:
        payload = {
            "scan_id": self.scan_id,
            "parameters": self.parameters,
            "status": self.status.value,
            "findings": [f._fields() for f in self.findings],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScanReport":
        payload = json.loads(text)
        return cls(
            scan_id=payload["scan_id"],
            parameters=payload["parameters"],
            findings=[Finding(**f) for f in payload["findings"]],
            status=ScanStatus(payload["status"]),
        )


def _report(scan_id: str, parameters: dict, findings: list[Finding]) -> ScanReport:
    """The report of a scan, its status derived from the findings:
    Counterexample on any failure; else Unresolved on any unresolved
    finding, or when nothing was checked (no pass); else AllPassed."""
    verdicts = {f.verdict for f in findings}
    if "fail" in verdicts:
        status = ScanStatus.COUNTEREXAMPLE
    elif "unresolved" in verdicts or "pass" not in verdicts:
        status = ScanStatus.UNRESOLVED
    else:
        status = ScanStatus.ALL_PASSED
    return ScanReport(scan_id, parameters, findings, status)


def _enc_json(enclosure: Enclosure, digits: int = 36) -> dict:
    lo, hi = enclosure.decimal_strings(digits)
    return {"lo": lo, "hi": hi}


def _overlap_finding(
    subject: str,
    computed: Enclosure,
    reference: Enclosure,
    tolerance: Fraction,
    detail: str,
) -> Finding:
    overlap = computed.overlaps(reference)
    width = computed.width() + reference.width()
    narrow = width <= tolerance
    verdict = "pass" if overlap and narrow else ("fail" if not overlap else "unresolved")
    return Finding(
        subject=subject,
        verdict=verdict,
        detail=detail
        if verdict == "pass"
        else f"{detail}; overlap={overlap}, combined width "
        f"{_format_sci(width)} vs tolerance {_format_sci(tolerance)}",
        data={
            "computed": _enc_json(computed),
            "reference": _enc_json(reference),
            "combined_width": _format_sci(width, 6),
        },
    )


def _comparison_finding(
    subject: str,
    outcome: ComparisonOutcome,
    expected: Verdict,
    details: Optional[dict[str, str]] = None,
) -> Finding:
    """``pass`` when the certified verdict is ``expected``, ``unresolved``
    when none was reached, ``fail`` otherwise; ``details`` maps each of these
    to its detail text (default: the verdict's name)."""
    if outcome.verdict is expected:
        verdict = "pass"
    elif outcome.verdict is Verdict.UNRESOLVED:
        verdict = "unresolved"
    else:
        verdict = "fail"
    return Finding(
        subject=subject,
        verdict=verdict,
        detail=(details or {}).get(verdict, f"verdict {outcome.verdict.value}"),
        data={"separation": _format_lower(outcome.separation)},
    )


# ----------------------------------------------------------------------
# closed-form scans
# ----------------------------------------------------------------------
def verify_repeated(
    n_max: int = 3,
    tolerance: Fraction = Fraction(1, 10**20),
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """Repeated-exponent closed forms in powers of pi.

    Checks, for ``n`` up to ``n_max``, that evaluation of the index with
    ``n`` copies of a fixed even exponent agrees with the closed form:
    ``2``-repeats give ``pi^(2n)/((2n)! 2^(2n))``, ``4``-repeats give
    ``pi^(4n)/((4n)! 2^(2n))``, ``6``-repeats give ``3 pi^(6n)/((6n)! 4)``.
    The closed forms are computed at a precision sized from ``n_max`` and
    the tolerance.
    """
    tolerance = Fraction(tolerance)
    bits = 160 + 8 * n_max + tolerance.denominator.bit_length()
    pi = const_pi(bits)
    findings = []
    for base in (2, 4, 6):
        for n in range(1, n_max + 1):
            index = (base,) * n
            computed = evaluate_spec(ValueSpec(index, 0), tolerance / 8, budget)
            w = base * n
            if base == 6:
                scale = Fraction(3, math.factorial(w) * 4)
            else:
                scale = Fraction(1, math.factorial(w) * 2 ** (2 * n))
            reference = pi.pow_int(w) * Enclosure.from_fraction(scale, bits)
            findings.append(
                _overlap_finding(
                    f"{index_str(index)}",
                    computed,
                    reference,
                    tolerance,
                    f"repeat base {base}, {n} copies",
                )
            )
    return _report(
        "repeated-closed-forms",
        {"n_max": n_max, "tolerance": str(tolerance)},
        findings,
    )


def verify_sum_formula(
    n_max: int = 4,
    tolerance: Fraction = Fraction(1, 10**12),
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """Depth-graded sums of all even indices of fixed weight.

    For each half-weight ``n <= n_max`` and depth ``d <= n``, the sum of
    evaluations over all even indices of weight ``2n`` and depth ``d`` must
    match ``(-1)^(n-d) pi^(2n) / (4^n (2n)!) *
    sum_l C(n-l, d) C(2n, 2l) E_{2l}`` with exact integer Euler numbers,
    at a precision sized from ``n_max`` and the tolerance.
    """
    tolerance = Fraction(tolerance)
    bits = 192 + 8 * n_max + tolerance.denominator.bit_length()
    pi = const_pi(bits)
    findings = []
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            # the even indices of weight 2n and depth d: compositions of n, doubled
            members = [tuple(2 * part for part in c) for c in _compositions(n, d, 1)]
            accumulator: Optional[Enclosure] = None
            member_width = tolerance / (8 * max(len(members), 1))
            for index in members:
                enclosure = evaluate_spec(ValueSpec(index, 0), member_width, budget)
                accumulator = enclosure if accumulator is None else accumulator + enclosure
            inner = 0
            for l in range(0, n - d + 1):
                inner += math.comb(n - l, d) * math.comb(2 * n, 2 * l) * euler_int(2 * l)
            scale = Fraction((-1) ** (n - d) * inner, 4**n * math.factorial(2 * n))
            reference = pi.pow_int(2 * n) * Enclosure.from_fraction(scale, bits)
            findings.append(
                _overlap_finding(
                    f"weight {2*n} depth {d}",
                    accumulator,
                    reference,
                    tolerance,
                    f"{len(members)} even indices",
                )
            )
    return _report(
        "even-weight-sum",
        {"n_max": n_max, "tolerance": str(tolerance)},
        findings,
    )


def verify_catalan(
    j_max: int = 12, budget: Optional[PrecisionBudget] = None
) -> ScanReport:
    """Partial sums of the minimal-exponent family against their known total.

    The values with index ``(2, 1, ..., 1)`` sum over all depths to twice
    Catalan's constant.  Certifies each partial sum strictly increasing and
    strictly below the total, records the shrinking gap, and (for ``j_max``
    with a frozen calibration) checks the final gap against the recorded
    ceiling.
    """
    total = const_catalan(160).scale_pow2(1)
    findings = []
    partial: Optional[Enclosure] = None
    previous_gap: Optional[Enclosure] = None
    for j in range(1, j_max + 1):
        index = (2,) + (1,) * (j - 1)
        term = evaluate_spec(ValueSpec(index, 0), Fraction(1, 10**24), budget)
        term_positive = term.is_positive()
        partial = term if partial is None else partial + term
        gap = total - partial
        below = gap.is_positive()
        shrinking = True if previous_gap is None else term_positive
        verdict = "pass" if (term_positive and below and shrinking) else "fail"
        findings.append(
            Finding(
                subject=f"partial sum through depth {j}",
                verdict=verdict,
                detail=(
                    "increasing, below the total, gap shrinking"
                    if verdict == "pass"
                    else f"term positive={term_positive}, below total={below}"
                ),
                data={
                    "partial": _enc_json(partial),
                    "gap": _enc_json(gap),
                    "gap_float": f"{float(gap.midpoint()):.6e}",
                },
            )
        )
        previous_gap = gap
    if j_max in CATALAN_GAP_BOUNDS:
        bound = CATALAN_GAP_BOUNDS[j_max]
        ok = previous_gap.hi_fraction <= bound
        findings.append(
            Finding(
                subject=f"frozen gap ceiling at depth {j_max}",
                verdict="pass" if ok else "fail",
                detail=f"gap {float(previous_gap.midpoint()):.6e} vs frozen "
                f"ceiling {float(bound):.6e}",
                data={"gap": _enc_json(previous_gap), "bound": str(bound)},
            )
        )
    return _report(
        "catalan-partial-sums",
        {"j_max": j_max},
        findings,
    )


# ----------------------------------------------------------------------
# structural scans
# ----------------------------------------------------------------------
def verify_tail_recurrence(
    weight_max: int = 8,
    tolerance: Fraction = Fraction(1, 10**10),
    offsets: Sequence[int] = (0, 1, 2),
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """One-step tail recurrence for every admissible index up to a weight.

    Checks ``t(k)_n = t(k)_{n+1} + (2n+1)**(-k_d) * t(k_1..k_{d-1})_{n+1}``
    at each requested offset, where the empty prefix contributes exactly 1.
    """
    tolerance = Fraction(tolerance)
    width = tolerance / 16
    findings = []
    for index in enumerate_admissible_up_to(weight_max):
        for n in offsets:
            lhs = evaluate_spec(ValueSpec(index, n), width, budget)
            deeper = evaluate_spec(ValueSpec(index, n + 1), width, budget)
            inner = evaluate_spec(ValueSpec(index[:-1], n + 1), width, budget)
            step = Enclosure.from_fraction(
                Fraction(1, (2 * n + 1) ** index[-1]), lhs.precision_bits
            )
            rhs = deeper + step * inner
            findings.append(
                _overlap_finding(
                    f"{index_str(index)} at offset {n}",
                    lhs,
                    rhs,
                    tolerance,
                    "one-step recurrence",
                )
            )
    return _report(
        "tail-recurrence",
        {
            "weight_max": weight_max,
            "tolerance": str(tolerance),
            "offsets": list(offsets),
        },
        findings,
    )


def verify_monotonicity(
    pair_count: int = 50,
    weight_max: int = 8,
    seed: int = 0x7A115,
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """Sampled strict-decrease laws.

    Alternates two families of certified comparisons: raising any single
    exponent strictly lowers the value, and raising the tail offset strictly
    lowers the value.
    """
    rng = random.Random(seed)
    pool = enumerate_admissible_up_to(weight_max - 1)
    findings = []
    for i in range(pair_count):
        if i % 2 == 0:
            index = pool[rng.randrange(len(pool))]
            position = rng.randrange(len(index))
            raised = index[:position] + (index[position] + 1,) + index[position + 1 :]
            left, right = ValueSpec(index, 0), ValueSpec(raised, 0)
            label = f"{index_str(index)} vs exponent raised at {position + 1}"
        else:
            index = pool[rng.randrange(len(pool))]
            n = rng.randrange(0, 6)
            left, right = ValueSpec(index, n), ValueSpec(index, n + 1)
            label = f"{index_str(index)} offset {n} vs {n + 1}"
        outcome = compare(left, right, budget)
        findings.append(_comparison_finding(label, outcome, Verdict.GREATER))
    return _report(
        "monotonicity",
        {"pair_count": pair_count, "weight_max": weight_max, "seed": seed},
        findings,
    )


def _chain_blocks(
    block_count: int, per_block: int, budget: PrecisionBudget
) -> Iterator[tuple[list[MultiIndex], MultiIndex]]:
    """The chain's blocks: each its members in decreasing order and the
    index of the tail they accumulate at."""
    for entry in beta_table(block_count, budget):
        first = 2 if len(entry.index) == 0 else 1  # the single-1 index diverges
        yield [entry.index + (n,) for n in range(first, first + per_block)], entry.index


def verify_chain(
    block_count: int = 4,
    per_block: int = 8,
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """The descending interleaved chain of values and their accumulation
    points.

    Block ``r`` walks the family of the rank-``r`` tail: its first
    ``per_block`` members in decreasing order, then the tail itself, which
    must still dominate the next block's first member.  Every adjacent pair
    is certified strictly decreasing.  The first block appends exponents to
    the empty index, whose first appended value would be the divergent
    single-1 index; the walk therefore starts at exponent 2 (noted).
    """
    chain: list[tuple[str, ValueSpec]] = []
    for members, tail in _chain_blocks(block_count, per_block, budget):
        chain.extend((index_str(member), ValueSpec(member, 0)) for member in members)
        chain.append((f"tail:1:{index_str(tail)}", ValueSpec(tail, 1)))
    findings = [
        Finding(
            subject="block structure",
            verdict="note",
            detail=f"{block_count} blocks of {per_block} members plus their "
            "accumulation points; the empty-index block starts at exponent 2 "
            "because the single-1 index diverges",
        )
    ]
    for (left_label, left), (right_label, right) in zip(chain, chain[1:]):
        outcome = compare(left, right, budget)
        subject = f"{left_label} > {right_label}"
        findings.append(_comparison_finding(subject, outcome, Verdict.GREATER))
    return _report(
        "descending-chain",
        {"block_count": block_count, "per_block": per_block},
        findings,
    )


def verify_limits(
    index: MultiIndex,
    n_max: int = 12,
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """Geometric approach of a family to its accumulation point.

    For the family obtained by appending an exponent ``n`` to ``index``,
    certifies that the values decrease strictly in ``n``, stay strictly
    above the tail of ``index``, and approach it geometrically:
    ``t(index + (n,)) - tail <= C * 3**(-n)`` where
    ``C = 3**n0 * (first certified difference)`` — each raise of the final
    exponent divides the surplus by at least 3 because the appended
    variable's denominator is at least 3.  Raises ``ValueError`` when
    ``n_max`` is below the family's first exponent, or equal to it: the
    envelope is frozen from the first member, so one member leaves it untested.
    """
    n_start = 2 if len(index) == 0 else 1
    if n_max < n_start:
        raise ValueError(f"n_max must be at least {n_start} for index {index_str(index)}")
    if n_max == n_start:
        raise ValueError(
            f"n_max must exceed {n_start} for index {index_str(index)}: the envelope "
            "is frozen from the first member, so a second is needed to test it"
        )
    width = Fraction(1, 10**24)
    limit = evaluate_spec(ValueSpec(index, 1), width, budget)
    findings = []
    constant: Optional[Fraction] = None
    previous: Optional[Enclosure] = None
    for n in range(n_start, n_max + 1):
        member = index + (n,)
        value = evaluate_spec(ValueSpec(member, 0), width, budget)
        surplus = value - limit
        above = surplus.is_positive()
        decreasing = previous is None or value.certified_lt(previous)
        if constant is None:
            constant = surplus.hi_fraction * 3**n
            geometric = True
        else:
            geometric = surplus.hi_fraction <= constant * Fraction(1, 3**n)
        verdict = "pass" if (above and decreasing and geometric) else "fail"
        findings.append(
            Finding(
                subject=f"{index_str(member)}",
                verdict=verdict,
                detail=(
                    "above limit, decreasing, geometric envelope"
                    if verdict == "pass"
                    else f"above={above}, decreasing={decreasing}, "
                    f"geometric={geometric}"
                ),
                data={
                    "surplus": _enc_json(surplus),
                    "scaled_ratio": f"{float(surplus.midpoint() * 3**n):.6f}",
                },
            )
        )
        previous = value
    findings.append(
        Finding(
            subject="envelope constant",
            verdict="note",
            detail=f"C = {float(constant):.6e} frozen from the first member",
            data={"constant": str(constant)},
        )
    )
    return _report(
        "limit-approach",
        {"index": index_str(index), "n_max": n_max},
        findings,
    )


# ----------------------------------------------------------------------
# order-structure scans
# ----------------------------------------------------------------------
def scan_p_sets(
    rank_max: int = 3,
    n_max: int = 10,
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """Band-escape sets: family members reaching the previous band.

    For each rank ``r``, checks whether any member of the rank-``r``
    family (the tail's source index with one exponent appended) reaches or
    exceeds the rank-``(r-1)`` tail.  Rank 1 is empty by definition (there
    is no previous band); every other set is conjectured empty, so any
    certified member is a counterexample.
    """
    table = beta_table(rank_max, budget)
    findings = [
        Finding(
            subject="rank 1",
            verdict="note",
            detail="empty by definition: no band lies above the first",
        )
    ]
    for r in range(2, rank_max + 1):
        source = table[r - 1].index
        upper = ValueSpec(table[r - 2].index, 1)
        for n in range(1, n_max + 1):
            member = source + (n,)
            outcome = compare(ValueSpec(member, 0), upper, budget)
            findings.append(
                _comparison_finding(
                    f"rank {r}, member {index_str(member)}",
                    outcome,
                    Verdict.LESS,
                    {
                        "pass": "stays below the previous band",
                        "fail": "reaches the previous band",
                        "unresolved": "not separable from the previous band",
                    },
                )
            )
    return _report(
        "band-escape-sets",
        {"rank_max": rank_max, "n_max": n_max},
        findings,
    )


def scan_tail_collisions(
    weight_max: int = 8,
    resolution: Fraction = Fraction(1, 10**25),
    budget: Optional[PrecisionBudget] = None,
) -> ScanReport:
    """Pairwise separation of all tails up to a weight.

    Sorts the tails once and certifies every adjacent pair disjoint, which
    certifies all pairs by transitivity.  A pair still overlapping when both
    enclosures are narrower than ``resolution`` is reported unresolved (a
    collision candidate — the injectivity conjecture would fail there).
    """
    resolution = Fraction(resolution)
    specs = [ValueSpec(index, 1) for index in enumerate_admissible_up_to(weight_max, include_empty=True)]

    def sort_mid(spec: ValueSpec) -> Fraction:
        return evaluate_spec(spec, _FIRST_WIDTH, budget).midpoint()

    ordered = sorted(specs, key=lambda s: (-sort_mid(s), s.index))
    findings = [
        Finding(
            subject="scan size",
            verdict="note",
            detail=f"{len(ordered)} tails, {len(ordered) - 1} adjacent pairs "
            "(pairwise separation follows by transitivity)",
        )
    ]
    min_separation: Optional[Fraction] = None
    for left, right in zip(ordered, ordered[1:]):
        outcome = compare(left, right, budget)
        if outcome.verdict is Verdict.GREATER:
            verdict = "pass"
            if min_separation is None or outcome.separation < min_separation:
                min_separation = outcome.separation
        elif outcome.verdict is Verdict.LESS:
            verdict = "fail"  # the midpoint pre-sort was certifiably wrong
        else:
            a = evaluate_spec(left, resolution, budget)
            b = evaluate_spec(right, resolution, budget)
            verdict = "unresolved" if a.overlaps(b) else "pass"
        findings.append(
            Finding(
                subject=f"{left} vs {right}",
                verdict=verdict,
                detail=f"adjacent separation {_format_lower(outcome.separation)}",
                data={"separation": _format_lower(outcome.separation)},
            )
        )
    findings.append(
        Finding(
            subject="minimum adjacent separation",
            verdict="note",
            detail=_format_lower(min_separation) if min_separation else "none",
        )
    )
    return _report(
        "tail-collisions",
        {"weight_max": weight_max, "resolution": str(resolution)},
        findings,
    )


def check_phi_conjecture(
    weight_max: int = 4,
    n_max: int = 4,
    budget: Optional[PrecisionBudget] = None,
    *,
    total_max: Optional[int] = None,
) -> ScanReport:
    """Coordinates of appended-exponent values against two predictions.

    For every admissible ``k`` of weight at most ``weight_max`` (including
    the empty index) and appended exponent ``n <= n_max``, places the value
    of ``k + (n,)`` with :func:`~tvals.order.phi` and compares its actual
    coordinates (band, position) with:

    * reading A — band predicted as the rank of the tail of ``k``;
    * reading B — band predicted as the least rank whose tail lies
      certifiably below the *full* value of ``k`` (for the empty index this
      is rank 2, since the full value 1 equals the rank-1 tail exactly).

    Reading A is the scored prediction.  The empty-index family is expected
    at position ``n - 1`` — the slot at position 1 conceptually belongs to
    the divergent single-1 index — and is recorded as a documented shift,
    not a failure.  Reading-B disagreements are recorded as notes.

    ``total_max``, when given, additionally restricts the scan to members
    with ``weight(k) + n <= total_max`` — the triangle on which the escape
    phenomenon is certified exhaustively at reasonable cost.
    """
    findings = []
    b_disagreements = 0
    families = [()] + enumerate_admissible_up_to(weight_max)
    for k in families:
        w = sum(k)
        n_lo = 2 if len(k) == 0 else 1
        n_hi = n_max if total_max is None else min(n_max, total_max - w)
        if n_hi < n_lo:
            continue
        try:
            reading_a = rank_of_tail(k, budget)
            if len(k) == 0:
                reading_b = 2  # the full value 1 equals the rank-1 tail exactly
            else:
                reading_b = band_of_value(k, budget)
        except (UnresolvedComparisonError, BudgetExceededError) as exc:
            findings.append(
                Finding(
                    subject=f"family {index_str(k)}",
                    verdict="unresolved",
                    detail=str(exc),
                )
            )
            continue
        for n in range(n_lo, n_hi + 1):
            member = k + (n,)
            try:
                coordinate = phi(member, budget)
            except (ValueError, UnresolvedComparisonError, BudgetExceededError) as exc:
                findings.append(
                    Finding(
                        subject=index_str(member),
                        verdict="unresolved",
                        detail=str(exc),
                    )
                )
                continue
            actual = (coordinate.band, coordinate.position)
            if len(k) == 0:
                expected = (1, n - 1)
                agree_a = actual == expected
                verdict = "note" if agree_a else "fail"
                detail = (
                    "documented shift: the empty-index family sits one "
                    "position early because the divergent single-1 index "
                    "conceptually occupies position 1"
                    if agree_a
                    else f"expected {expected} under the documented shift, got {actual}"
                )
            else:
                expected = (reading_a, n)
                agree_a = actual == expected
                verdict = "pass" if agree_a else "fail"
                detail = (
                    "matches reading A"
                    if agree_a
                    else f"reading A predicts {expected}, actual {actual}"
                )
            agree_b = actual == (reading_b, n)
            if not agree_b:
                b_disagreements += 1
            findings.append(
                Finding(
                    subject=index_str(member),
                    verdict=verdict,
                    detail=detail,
                    data={
                        "actual": list(actual),
                        "reading_a": [reading_a, n],
                        "reading_b": [reading_b, n],
                        "agrees_b": agree_b,
                    },
                )
            )
    findings.append(
        Finding(
            subject="reading B summary",
            verdict="note",
            detail=f"{b_disagreements} of the scanned members disagree with "
            "the literal reading B; the band of a full value is generally "
            "not the rank of its tail",
        )
    )
    return _report(
        "pairing-conjecture",
        {"weight_max": weight_max, "n_max": n_max, "total_max": total_max},
        findings,
    )
