"""Certified order structure of the nested-sum values and their tails.

The tails ``t(k)_1`` over all admissible ``k`` (including the empty index,
whose tail is exactly 1) form a strictly decreasing sequence once sorted;
its entries cut the full values into bands.  This module provides:

* :func:`compare` — adaptive certified comparison of two named values.
  Equality is never certified: indistinguishable inputs yield
  ``Verdict.UNRESOLVED``.
* :func:`enumerate_tails_above` — all tails above a threshold, in
  certified decreasing order.
* :func:`beta_table` — the first ``count`` tails in decreasing order.
* :func:`rank_of_tail` — position of one tail in that order.
* :func:`band_prefix` — all full values in a band down to a cutoff, in
  decreasing order.
* :func:`phi` — the coordinates (band, position within band) of a full
  value; the order-reversing pairing between values and index pairs.

Each order fact is certified once per budget.  One list holds the tails,
and one per band its members, in certified decreasing order, each complete
above the lowest threshold walked so far.  A tail walk is a complete
branch-and-bound: depth is cut off by comparing the threshold with the
certified remaining mass of the per-depth maxima, whose total is known in
closed form via Catalan's constant, and exponent growth by componentwise
monotonicity.  A band walk reads its families off the tail list: each
family decreases to its limit, a tail, from a first member at most 3/2
times that limit (a proved bound), so band ``r`` down to ``alpha`` draws
only on the tails from the ``r``-th down to ``(2/3) * alpha``.
:func:`enumerate_tails_above` and :func:`beta_table` read the head of the
tail list, and ranks and bands count the tails above a value by bisecting
into it; :func:`band_prefix` reads the head of a band's list, and
:func:`phi` a position in it.
Every decision of a walk or a bisection reads both sides at ``2**-16``
first and climbs the refinement ladder from ``2**-48`` only when those
enclosures overlap; :func:`compare` and every displayed or sorted
enclosure start at ``2**-48``.  Enclosures are memoised by (spec, width,
budget).  All these stores live for the whole process.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from fractions import Fraction
from typing import Iterator, Optional, Union

from .enclosure import Enclosure, _format_sci
from .errors import BudgetExceededError, UnresolvedComparisonError
from .evaluator import evaluate_spec
from .indices import MultiIndex, ValueSpec, _Frozen, is_admissible
from .numerics import PrecisionBudget, const_catalan

__all__ = [
    "Verdict",
    "ComparisonOutcome",
    "BetaEntry",
    "PhiCoord",
    "compare",
    "enumerate_tails_above",
    "beta_table",
    "rank_of_tail",
    "band_prefix",
    "band_of_value",
    "phi",
]


class Verdict(enum.Enum):
    GREATER = "Greater"
    LESS = "Less"
    UNRESOLVED = "Unresolved"


class ComparisonOutcome(_Frozen):
    """Result of a certified comparison.

    ``separation`` is a certified lower bound on the absolute difference
    (zero when unresolved); ``bits_used`` the highest endpoint precision
    consulted.
    """

    __slots__ = ("verdict", "separation", "bits_used")
    verdict: Verdict
    separation: Fraction
    bits_used: int


class BetaEntry(_Frozen):
    """One row of the decreasing tail table."""

    __slots__ = ("rank", "index", "value")
    rank: int
    index: MultiIndex
    value: Enclosure


class PhiCoord(_Frozen):
    """Band number and (1-based) position within the band."""

    __slots__ = ("band", "position")
    band: int
    position: int


_DEFAULT_BUDGET = PrecisionBudget()

# The first refinement width is also the width of every displayed or sorted
# enclosure and of the depth-cap masses at coarse thresholds, so all of them
# share one enclosure per spec.  A decision reads it only when its coarse
# tier overlaps.
_FIRST_WIDTH = Fraction(1, 2**48)

# The first tier of every branch-and-bound decision (``_decide``).  Most gaps
# that decisions resolve are wide: over 10 cold ``order_scan`` rounds, the
# first-width enclosures lay at least 2**-8 apart in 2,788 of 3,485
# decisions, 2**-12 in 3,155 and 2**-16 in 3,320, and no more at 2**-20 or
# 2**-24.  So this width settles what any finer first tier would, and the
# other 165 decisions need the ladder anyway.
_COARSE_WIDTH = Fraction(1, 2**16)


def _refinement_widths(budget: PrecisionBudget):
    yield _FIRST_WIDTH
    for bits in budget.rungs():
        width = Fraction(1, 2 ** max(bits - 10, 20))
        if width < Fraction(1, 2**64):
            yield width


# A hit returns the object that the miss computed (a budget-capped partial
# included), so repeated queries see the same enclosure without re-entering
# the evaluator.
_ENCLOSURES: dict[tuple[ValueSpec, Fraction, PrecisionBudget], Enclosure] = {}


def _enclose(spec: ValueSpec, width: Fraction, budget: PrecisionBudget) -> Enclosure:
    key = (spec, width, budget)
    enclosure = _ENCLOSURES.get(key)
    if enclosure is None:
        try:
            enclosure = evaluate_spec(spec, width, budget)
        except BudgetExceededError as exc:
            if exc.partial is None:
                raise
            enclosure = exc.partial
        _ENCLOSURES[key] = enclosure
    return enclosure


def compare(
    left: ValueSpec,
    right: ValueSpec,
    budget: Optional[PrecisionBudget] = None,
) -> ComparisonOutcome:
    """Certified three-way comparison of two named values.

    Refines both enclosures until they separate or the budget tops out.
    Identical specs (and genuinely indistinguishable values) come back
    ``UNRESOLVED`` with separation zero; equality is never asserted.
    """
    budget = budget or _DEFAULT_BUDGET
    if left == right:
        return ComparisonOutcome(Verdict.UNRESOLVED, Fraction(0), 0)
    bits_used = 0
    for width in _refinement_widths(budget):
        a = _enclose(left, width, budget)
        b = _enclose(right, width, budget)
        bits_used = max(a.precision_bits, b.precision_bits)
        if a.certified_gt(b):
            return ComparisonOutcome(Verdict.GREATER, a.separation(b), bits_used)
        if a.certified_lt(b):
            return ComparisonOutcome(Verdict.LESS, a.separation(b), bits_used)
    return ComparisonOutcome(Verdict.UNRESOLVED, Fraction(0), bits_used)


def _scalar_verdict(
    spec: ValueSpec, scalar: Fraction, budget: PrecisionBudget
) -> Verdict:
    """Certified position of a named value relative to an exact rational."""
    for width in _refinement_widths(budget):
        enclosure = _enclose(spec, width, budget)
        side = enclosure.cmp_scalar(scalar)
        if side > 0:
            return Verdict.GREATER
        if side < 0:
            return Verdict.LESS
    return Verdict.UNRESOLVED


def _decide(
    left: ValueSpec, right: Union[ValueSpec, Fraction], budget: PrecisionBudget
) -> Verdict:
    """Certified ``GREATER`` or ``LESS`` of ``left`` against another named
    value or an exact rational; raises
    :class:`~tvals.errors.UnresolvedComparisonError` when they cannot be
    separated within the budget.

    Two tiers: enclosures at ``_COARSE_WIDTH`` settle the decision when they
    are disjoint (both are certified, so their order is the true one), and
    only an overlap climbs the ladder of :func:`compare` or
    :func:`_scalar_verdict` from ``_FIRST_WIDTH``."""
    coarse = _enclose(left, _COARSE_WIDTH, budget)
    if isinstance(right, ValueSpec):
        other = _enclose(right, _COARSE_WIDTH, budget)
        if coarse.certified_gt(other):
            return Verdict.GREATER
        if coarse.certified_lt(other):
            return Verdict.LESS
        verdict = compare(left, right, budget).verdict
    else:
        side = coarse.cmp_scalar(right)
        if side:
            return Verdict.GREATER if side > 0 else Verdict.LESS
        verdict = _scalar_verdict(left, right, budget)
    if verdict is Verdict.UNRESOLVED:
        raise UnresolvedComparisonError(
            f"{left} not separable from {right}", left=left, right=right
        )
    return verdict


def _depth_max_index(d: int) -> MultiIndex:
    """The depth-``d`` index of componentwise-minimal exponents."""
    return (2,) + (1,) * (d - 1)


def _quantize_down(value: Fraction) -> Fraction:
    """Largest ``2**(-a) * (1 + b/32)`` (integer ``b < 32``) not above ``value``.

    Collapses nearby ad-hoc thresholds onto a shared grid so enumerations
    can be reused across queries; correctness is unaffected because callers
    only require *some* threshold below their target."""
    if value <= 0:
        raise ValueError("value must be positive")
    a = 0
    while Fraction(1, 2**a) > value:
        a += 1
    while a > 0 and Fraction(1, 2 ** (a - 1)) <= value:
        a -= 1
    scaled = value * 2**a  # in [1, 2)
    b = (scaled.numerator * 32) // scaled.denominator - 32
    b = min(max(b, 0), 31)
    return Fraction(32 + b, 32 * 2**a)


def _mass_total(offset: int) -> Enclosure:
    """Closed-form sum of the per-depth maxima: ``2G`` for full values,
    ``(2G - 1)/2`` for tails at offset 1 (G = Catalan's constant)."""
    g = const_catalan(96)
    two_g = g.scale_pow2(1)
    if offset == 0:
        return two_g
    return (two_g - Enclosure.exact_int(1)).scale_pow2(-1)


def _depth_cap(threshold: Fraction, offset: int, budget: PrecisionBudget) -> int:
    """Smallest ``D`` such that every index of depth beyond ``D`` has value
    certifiably below ``threshold``, via the remaining per-depth mass.

    Any lower bounds on the mass terms give a sound cap; a wider enclosure
    can only make it larger.  The terms are read at one of two fixed widths,
    so they are shared across thresholds.  When ``threshold >= 2**-32`` that
    is the first refinement width, and the slack of at most
    ``64 * 2**-48 <= threshold / 2**10`` adds at most one depth, whose first
    candidate is decided below the threshold.  Below that it is
    ``2**-80``."""
    total_hi = _mass_total(offset).hi_fraction
    mass_width = _FIRST_WIDTH if threshold >= Fraction(1, 2**32) else Fraction(1, 2**80)
    acc_lo = Fraction(0)
    for cap in range(1, 65):
        enclosure = _enclose(
            ValueSpec(_depth_max_index(cap), offset), mass_width, budget
        )
        acc_lo += enclosure.lo_fraction
        if total_hi - acc_lo < threshold:
            return cap
    raise BudgetExceededError(
        f"depth cap for threshold {_format_sci(threshold)} not reached by depth 64"
    )


def _prefixes_above(
    d: int,
    length: int,
    offset: int,
    threshold: Fraction,
    budget: PrecisionBudget,
    partial: MultiIndex = (),
) -> Iterator[MultiIndex]:
    """Depth-first branch-and-bound over the first ``length`` exponents of
    depth-``d`` indices extending ``partial``.

    Yields every prefix whose ones-padded value at ``offset`` is certifiably
    above ``threshold``, each exponent in increasing order.  Padding with ones
    gives the largest value of the subtree, and raising any exponent lowers
    it, so the walk along a position stops at the first certified ``LESS``.
    """
    if len(partial) == length:
        yield partial
        return
    exponent = 2 if len(partial) == 0 else 1
    while True:
        candidate = partial + (exponent,)
        padded = candidate + (1,) * (d - len(candidate))
        if _decide(ValueSpec(padded, offset), threshold, budget) is Verdict.LESS:
            return
        yield from _prefixes_above(d, length, offset, threshold, budget, candidate)
        exponent += 1


def _count_above(
    ordered: list[ValueSpec], value: Union[ValueSpec, Fraction], budget: PrecisionBudget
) -> int:
    """Number of entries of ``ordered`` (certified decreasing) that lie above
    ``value``, a named value not in ``ordered`` or an exact rational, by
    certified bisection."""
    return bisect_left(
        ordered, True, key=lambda entry: _decide(entry, value, budget) is Verdict.LESS
    )


# A certified list is a floor and specs in certified decreasing order: every
# member of its set above the floor is listed.  An absent key has no floor
# yet.  Tail lists are keyed by budget, band lists by (band, budget).
_TAIL_LISTS: dict[PrecisionBudget, tuple[Fraction, list[ValueSpec]]] = {}
_BAND_LISTS: dict[tuple[int, PrecisionBudget], tuple[Fraction, list[ValueSpec]]] = {}


def _listed_down_to(
    store: dict, key, threshold: Fraction, budget: PrecisionBudget, walk
) -> list[ValueSpec]:
    """The certified list ``store[key]``, complete above ``threshold``.

    A threshold at or above the list's floor reads the list as it is; a lower
    one runs ``walk(threshold)``, which yields every member above it, and
    inserts the ones not yet listed by certified bisection.  The list is
    replaced only once the whole extension is certified, so a raised
    :class:`~tvals.errors.UnresolvedComparisonError` leaves it as it was."""
    floor, specs = store.get(key, (None, []))
    if floor is None or threshold < floor:
        specs = list(specs)
        listed = set(specs)
        for spec in walk(threshold):
            if spec not in listed:
                specs.insert(_count_above(specs, spec, budget), spec)
        store[key] = (threshold, specs)
    return specs


def _tails_down_to(threshold: Fraction, budget: PrecisionBudget) -> list[ValueSpec]:
    """The certified tail list of ``budget``, complete above ``threshold``.

    The walk is complete by construction: depths beyond a certified cap are
    excluded by the remaining-mass argument, exponent growth by componentwise
    monotonicity (every increment divides a tail by at least 3 since all
    variables are at least 2)."""

    def walk(low: Fraction) -> Iterator[ValueSpec]:
        if low < 1:
            yield ValueSpec((), 1)  # the empty tail is exactly 1
        for d in range(1, _depth_cap(low, 1, budget) + 1):
            for index in _prefixes_above(d, d, 1, low, budget):
                yield ValueSpec(index, 1)

    return _listed_down_to(_TAIL_LISTS, budget, threshold, budget, walk)


def enumerate_tails_above(
    threshold: Fraction, budget: Optional[PrecisionBudget] = None
) -> tuple[MultiIndex, ...]:
    """All indices (including the empty one) whose tail at offset 1 exceeds
    ``threshold``, in certified decreasing order of the tails.

    Reads the head of the certified tail list, walked down to ``threshold``
    when needed.  Raises :class:`~tvals.errors.UnresolvedComparisonError`
    when the threshold cannot be separated from some tail value.
    """
    budget = budget or _DEFAULT_BUDGET
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive (the tail set is infinite)")
    if threshold >= 1:
        return ()
    tails = _tails_down_to(threshold, budget)
    return tuple(spec.index for spec in tails[: _count_above(tails, threshold, budget)])


def _tails_through(count: int, budget: PrecisionBudget) -> list[ValueSpec]:
    """The certified tail list, holding at least ``count`` tails.

    Extends the tail list by lowering its threshold by factors of two until
    it holds enough tails; a threshold that lands unresolvably close to some
    tail is lowered by one step of the quantized grid instead.
    """
    threshold = Fraction(1, 2)
    while True:
        try:
            ordered = _tails_down_to(threshold, budget)
        except UnresolvedComparisonError:
            threshold = _quantize_down(threshold * (1 - Fraction(1, 2**10)))
        else:
            if len(ordered) >= count:
                return ordered
            threshold = threshold / 2
        if threshold < Fraction(1, 2**200):
            raise BudgetExceededError(
                f"could not find {count} tails above 2**-200"
            )


def beta_table(
    count: int, budget: Optional[PrecisionBudget] = None
) -> tuple[BetaEntry, ...]:
    """The first ``count`` tails in certified decreasing order, each with its
    enclosure at width ``2**-48``."""
    budget = budget or _DEFAULT_BUDGET
    if count < 1:
        raise ValueError("count must be positive")
    return tuple(
        BetaEntry(position, spec.index, _enclose(spec, _FIRST_WIDTH, budget))
        for position, spec in enumerate(_tails_through(count, budget)[:count], start=1)
    )


def _tails_above(spec: ValueSpec, budget: PrecisionBudget) -> int:
    """Number of tails certifiably above the value of ``spec`` (its own tail
    excluded).

    Extends the tail list to be complete just below the value.  A tail is
    then listed, and its position is the count; any other value is placed by
    bisection, in O(log n) certified decisions."""
    enclosure = _enclose(spec, _FIRST_WIDTH, budget)
    if enclosure.lo_fraction <= 0:
        raise BudgetExceededError(
            f"{spec} is too small to place: its first enclosure reaches down to 0"
        )
    threshold = _quantize_down(enclosure.lo_fraction * (1 - Fraction(1, 2**10)))
    tails = _tails_down_to(threshold, budget)
    if spec.tail_offset == 1:
        return tails.index(spec)
    return _count_above(tails, spec, budget)


def rank_of_tail(
    index: MultiIndex, budget: Optional[PrecisionBudget] = None
) -> int:
    """1-based position of ``t(index)_1`` in the decreasing tail order.

    Reads the position from the certified tail list, extended to be complete
    just below the value.  A tail that cannot be separated raises
    :class:`~tvals.errors.UnresolvedComparisonError` (a collision would make
    the rank ill-defined).
    """
    budget = budget or _DEFAULT_BUDGET
    if not is_admissible(index):
        raise ValueError(f"index {index} is not admissible")
    return _tails_above(ValueSpec(index, 1), budget) + 1


def _band_down_to(
    band: int, tails: list[ValueSpec], alpha: Fraction, budget: PrecisionBudget
) -> list[ValueSpec]:
    """The certified list of band ``band``, complete above ``alpha``;
    ``tails`` is the certified tail list, holding at least ``band`` tails.

    Each full value ``p + (n,)`` lies in the family of ``p``, which decreases
    in ``n`` to its limit, the tail ``t(p)_1``.  A member of band ``r`` lies
    at or below the band top ``β_(r-1)``, so its family's limit lies below
    the top: it is the ``r``-th tail or a later one.  No member exceeds 3/2
    of its family's limit (proved below), so a member above ``alpha`` has a
    limit above ``(2/3) * alpha``.  The walk therefore extends the tail list
    to ``(2/3) * alpha`` and reads the band's families off it, from the
    ``r``-th tail to the last one above that bound.  Along each family it
    walks ``n`` upward until a member is decided below ``alpha``, and decides
    members against the top until one lies below it.

    The bound is ``t(p + (1,)) <= (3/2) * t(p)_1`` for every nonempty
    admissible ``p``; larger ``n`` only lower a member, and for the empty
    prefix ``t((2,)) = π²/8 < 3/2``.  Appending ``n`` adds one summation
    variable, so ``t(p + (n,)) = sum_{m>=1} (2m-1)**-n * t(p)_m``.

    Lemma: for ``p = q + (k,)``, ``(2m+1) * t(p)_m`` does not increase in
    ``m >= 1``.  Since ``t(p)_m - t(p)_(m+1) = (2m+1)**-k * t(q)_(m+1)``,
    this says ``2 * t(p)_(m+1) <= (2m+1)**(1-k) * t(q)_(m+1)``, where
    ``t(p)_(m+1) = sum_{j>=m+2} (2j-1)**-k * t(q)_j``.

    * ``k >= 2``: ``t(q)_j`` does not increase in ``j``, and by convexity
      ``sum_{j>=m+2} (2j-1)**-k <= (2m+2)**(1-k) / (2(k-1)) <= (2m+1)**(1-k) / 2``.
    * ``k = 1``: ``q`` is nonempty admissible, so the lemma for ``q`` (by
      induction on depth) gives ``t(q)_j <= (2m+3) * t(q)_(m+1) / (2j+1)``
      for ``j >= m+1``.  The telescoping sum
      ``sum_{j>=m+2} 1/((2j-1)(2j+1)) = 1/(2(2m+3))`` then gives
      ``t(p)_(m+1) <= t(q)_(m+1) / 2``.

    So ``t(p)_m <= 3 * t(p)_1 / (2m+1)``, and
    ``t(p + (1,)) <= 3 * t(p)_1 * sum_{m>=1} 1/((2m-1)(2m+1)) = (3/2) * t(p)_1``.
    """
    top_spec = tails[band - 2] if band > 1 else None

    def walk(threshold: Fraction) -> Iterator[ValueSpec]:
        limit_floor = 2 * threshold / 3
        listed = _tails_down_to(_quantize_down(limit_floor), budget)
        for prefix in listed[band - 1 : _count_above(listed, limit_floor, budget)]:
            below_top = top_spec is None
            for n in itertools.count(1 if prefix.index else 2):
                spec = ValueSpec(prefix.index + (n,), 0)
                if _decide(spec, threshold, budget) is Verdict.LESS:
                    break
                # values decrease along the family, so once one drops
                # below the band top the rest need no further comparison
                below_top = below_top or _decide(spec, top_spec, budget) is Verdict.LESS
                if below_top:
                    yield spec

    return _listed_down_to(_BAND_LISTS, (band, budget), alpha, budget, walk)


def band_prefix(
    band: int,
    alpha: Union[Fraction, Enclosure],
    budget: Optional[PrecisionBudget] = None,
) -> list[tuple[MultiIndex, Enclosure]]:
    """All full values in band ``band`` down to ``alpha``, decreasing.

    Band ``r`` collects the full values between consecutive tails: at most
    the ``(r-1)``-th tail (no upper cap for band 1) and above the ``r``-th.
    ``alpha`` must be certifiably above the band floor, which keeps the
    answer finite; values are returned with their enclosures, largest first.

    Reads the head of the band's certified list, walked down to ``alpha``
    when needed.  Any value that cannot be separated from the band top or
    from a sibling raises :class:`~tvals.errors.UnresolvedComparisonError`.
    """
    budget = budget or _DEFAULT_BUDGET
    if band < 1:
        raise ValueError("band must be positive")
    alpha_lo = alpha.lo_fraction if isinstance(alpha, Enclosure) else Fraction(alpha)
    if alpha_lo <= 0:
        raise ValueError("alpha must be positive")
    tails = _tails_through(band, budget)
    floor_spec = tails[band - 1]
    if _scalar_verdict(floor_spec, alpha_lo, budget) is not Verdict.LESS:
        raise ValueError(
            f"alpha={_format_sci(alpha_lo)} is not certifiably above the "
            f"band-{band} floor (tail of {floor_spec.index})"
        )
    members = _band_down_to(band, tails, alpha_lo, budget)
    return [
        (spec.index, _enclose(spec, _FIRST_WIDTH, budget))
        for spec in members[: _count_above(members, alpha_lo, budget)]
    ]


def band_of_value(
    index: MultiIndex, budget: Optional[PrecisionBudget] = None
) -> int:
    """Band number of the full value: one more than the number of tails
    certifiably above it.  Raises
    :class:`~tvals.errors.UnresolvedComparisonError` if the value cannot be
    separated from some tail."""
    budget = budget or _DEFAULT_BUDGET
    if len(index) == 0 or not is_admissible(index):
        raise ValueError(f"index {index} must be nonempty admissible")
    return _tails_above(ValueSpec(index, 0), budget) + 1


def phi(
    index: MultiIndex, budget: Optional[PrecisionBudget] = None
) -> PhiCoord:
    """Coordinates of a full value: its band and position within the band.

    The band is the least ``r`` whose ``r``-th tail lies certifiably below
    the value; the position is its place in the band's certified list, read
    down to just below the value at the coarsest refinement width that stays
    certifiably above the band floor.  Defined for nonempty admissible
    indices (the empty index is the band-1 accumulation point itself).
    """
    budget = budget or _DEFAULT_BUDGET
    if len(index) == 0:
        raise ValueError("phi is defined for nonempty admissible indices")
    if not is_admissible(index):
        raise ValueError(f"index {index} is not admissible")
    spec = ValueSpec(index, 0)
    band = band_of_value(index, budget)
    tails = _tails_through(band, budget)
    for width in _refinement_widths(budget):
        enclosure = _enclose(spec, width, budget)
        alpha = enclosure.lo_fraction - enclosure.width()
        if alpha > 0 and _scalar_verdict(tails[band - 1], alpha, budget) is Verdict.LESS:
            break
    else:
        raise BudgetExceededError(f"could not separate {spec} from the band-{band} floor")
    members = _band_down_to(band, tails, alpha, budget)
    if spec not in members:
        raise BudgetExceededError(
            f"could not place within band {band}: {spec} is not listed"
        )
    return PhiCoord(band, members.index(spec) + 1)
