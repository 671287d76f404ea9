"""Accelerated evaluation versus closed forms and a frozen direct-sum oracle.

Decimal strings below marked "frozen" were produced once by the rigorous
direct summation routine at high term count, then pinned; the accelerated
evaluator must enclose them independently.
"""

import functools
import hashlib
import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tvals import evaluator, numerics
from tvals.enclosure import Enclosure
from tvals.errors import BudgetExceededError, DivergentError
from tvals.evaluator import (
    EvalRequest,
    evaluate,
    evaluate_direct,
    evaluate_direct_family,
    evaluate_direct_many,
    prefix_expansion,
)
from tvals.indices import ValueSpec, enumerate_admissible_up_to
from tvals.numerics import (
    _GUARD_BITS,
    PrecisionBudget,
    base_expansion,
    const_pi,
    evaluate_expansion,
)

TIGHT = Fraction(1, 10**30)


def as_fractions(view):
    """An expansion view ``(den, ((power, num), ...), bound)`` as the
    ``(coefficients, bound)`` pair of ``Fraction``s it stands for."""
    den, nums, bound = view
    return tuple((p, Fraction(num, den)) for p, num in nums), Fraction(bound, den)


def as_view(coefficients, bound):
    """The reduced view of ``Fraction`` coefficients and bound."""
    den = math.lcm(bound.denominator, *(c.denominator for _, c in coefficients))
    return (
        den,
        tuple((p, c.numerator * (den // c.denominator)) for p, c in coefficients),
        bound.numerator * (den // bound.denominator),
    )


def exact_seed(view, order, n):
    """The exact ``(S - R, S + R)`` of a view at ``w = 1/(2n+1)``: its sum
    ``S`` and its remainder ``R = bound * w**(order+1)``."""
    coefficients, bound = as_fractions(view)
    w = Fraction(1, 2 * n + 1)
    value = sum((c * w**p for p, c in coefficients), Fraction(0))
    remainder = bound * w ** (order + 1)
    return value - remainder, value + remainder


def enclosure_of(index, offset=0, width=TIGHT):
    return evaluate(EvalRequest(ValueSpec(tuple(index), offset), target_width=width))


def assert_contains_decimal(enclosure, digits_str):
    """digits_str is a truncated decimal: true value in [d, d + 10^-places)."""
    whole, _, frac = digits_str.partition(".")
    value = Fraction(int(whole + frac), 10 ** len(frac))
    slack = Fraction(1, 10 ** len(frac))
    assert enclosure.lo_fraction <= value + slack
    assert enclosure.hi_fraction >= value
    assert enclosure.width() <= 2 * slack


# --- closed forms -----------------------------------------------------------

def test_depth_one_even_exponent_closed_form():
    # sum of odd reciprocal squares = pi^2 / 8
    got = enclosure_of([2])
    pi = const_pi(192)
    want = pi.pow_int(2) * Enclosure.from_fraction(Fraction(1, 8), 192)
    assert got.overlaps(want)
    assert got.width() <= TIGHT


def test_repeated_two_depth_two_closed_form():
    # double sum with both exponents 2 has closed form pi^4/384 - pi^2/16
    pi = const_pi(256)
    want = pi.pow_int(4) * Enclosure.from_fraction(Fraction(1, 384), 256) \
        - pi.pow_int(2) * Enclosure.from_fraction(Fraction(1, 16), 256)
    # the identity: (pi^2/8)^2 = 2*t(2,2) + t(4), and t(4) = pi^4/96
    t22 = enclosure_of([2, 2])
    t4 = enclosure_of([4])
    square = pi.pow_int(4) * Enclosure.from_fraction(Fraction(1, 64), 256)
    assert (t22 + t22 + t4).overlaps(square)
    assert t4.overlaps(pi.pow_int(4) * Enclosure.from_fraction(Fraction(1, 96), 256))
    del want


def test_empty_index_tail_is_one():
    got = enclosure_of([], offset=5)
    assert got.contains(Fraction(1))
    assert got.width() == 0


# --- frozen oracles (direct summation, pinned) ------------------------------

FROZEN = {
    ((2, 1), 0): "0.32923616284981706824354944",
    ((3, 1), 0): "0.0594411038619010762765559",
    ((2, 2, 1), 0): "0.0233373502844753861833784",
    ((2, 1, 1, 1), 0): "0.0657083385982503774448652",
    ((2, 1, 1), 1): "0.0442766551976111924440462",
}


@pytest.mark.parametrize("key", sorted(FROZEN), ids=lambda k: f"{k[0]}o{k[1]}")
def test_accelerated_matches_frozen_oracle(key):
    index, offset = key
    assert_contains_decimal(enclosure_of(index, offset), FROZEN[key])


# --- direct summation crosscheck --------------------------------------------

@pytest.mark.parametrize("index", [(2,), (2, 1), (3, 2), (2, 1, 1)])
def test_direct_overlaps_accelerated(index):
    direct = evaluate_direct(ValueSpec(index, 0), max_outer=20000)
    fast = enclosure_of(index)
    assert direct.overlaps(fast)
    assert direct.width() < Fraction(1, 10**3)
    assert fast.width() < direct.width()


def test_direct_many_fuses_offsets_consistently():
    together = evaluate_direct_many((2, 1), offsets=(0, 1, 2), max_outer=20000)
    assert set(together) == {0, 1, 2}
    for offset in (0, 1, 2):
        alone = evaluate_direct(ValueSpec((2, 1), offset), max_outer=20000)
        assert together[offset].overlaps(alone)
    # deeper cutoffs only shrink the value
    assert together[2].hi_fraction < together[0].hi_fraction


def test_direct_empty_index():
    got = evaluate_direct(ValueSpec((), 3), max_outer=100)
    assert got.contains(Fraction(1))


NEGATIVE = "tail_offset must be non-negative"  # ValueSpec's own wording


@pytest.mark.parametrize(
    "offsets, message",
    [((-1,), NEGATIVE), ((0, -1), NEGATIVE), ((), "at least one tail offset")],
    ids=["negative", "mixed", "none"],
)
def test_direct_rejects_offsets_that_value_spec_rejects(offsets, message):
    with pytest.raises(ValueError, match=message):
        evaluate_direct_many((2, 1), offsets, 100)
    with pytest.raises(ValueError, match=message):
        evaluate_direct_family([(2, 1), (3,)], offsets, 100)
    with pytest.raises(ValueError, match=NEGATIVE):
        ValueSpec((2, 1), -1)


def test_direct_rejects_nonpositive_exponents():
    # the a-priori rounding bound needs every exponent to be at least 1
    with pytest.raises(ValueError, match="exponents must be positive"):
        evaluate_direct_family([(2, 1), (2, 0)], (0,), 100)


@pytest.mark.parametrize(
    "index, offset, message",
    [((2, 1), 10**6 - 1, "max_outer too small"), ((2,) + (1,) * 18, 0, "term budget too small")],
    ids=["offset", "depth-19"],
)
def test_direct_rejects_before_the_sweep(index, offset, message, monkeypatch):
    def swept(a, b):
        raise AssertionError("the sweep ran before the input was checked")

    monkeypatch.setattr(evaluator, "floordiv", swept)
    with pytest.raises(ValueError, match=message):
        evaluate_direct_family([(3,), index], (offset,), 10**6)


# --- the oracle's block sweep against the per-outer-value loop ---------------

def reference_lanes(index, offsets, max_outer, fixed_bits=80):
    """The oracle as it was before its a-priori rounding bound: one Python
    loop per outer value, offset and level, where each level adds the
    previous outer value's partial sum of the level inward of it, floored
    and ceiled after division by ``(2m-1)**k``, in two lanes.  Returns the
    scaled ``(floor, ceiling)`` sums per offset."""
    d = len(index)
    one = 1 << fixed_bits
    chains = {n: [[0, 0] for _ in index] for n in offsets}
    for m in range(1, max_outer + 1):
        odd = 2 * m - 1
        for n, chain in chains.items():
            for j in range(d):  # outer levels first: each reads the inner one below m
                if j == d - 1:
                    inner = (one, one) if m > n else (0, 0)
                else:
                    inner = chain[j + 1]
                p = odd ** index[j]
                chain[j][0] += inner[0] // p
                chain[j][1] += -((-inner[1]) // p)
    return {n: tuple(chain[0]) for n, chain in chains.items()}


def reference_direct_many(index, offsets, max_outer, fixed_bits=80):
    """The two-lane reference's enclosures: its floor and ceiling sums, the
    latter plus the discarded-region bound."""
    one = 1 << fixed_bits
    discard = evaluator._discard_bound(index, max_outer)
    return {
        n: Enclosure.from_fraction_pair(
            Fraction(lo, one), Fraction(hi, one) + discard, fixed_bits
        )
        for n, (lo, hi) in reference_lanes(index, offsets, max_outer, fixed_bits).items()
    }


def same_enclosure(a, b):
    return (a.lo_fraction, a.hi_fraction, a.precision_bits) == (
        b.lo_fraction, b.hi_fraction, b.precision_bits
    )


BLOCK = evaluator._BLOCK
EDGE_OFFSETS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1)


@pytest.mark.parametrize(
    "index, max_outer, fixed_bits",
    [
        ((2,), 3 * BLOCK + 7, 80),
        ((2, 1), 1537 // BLOCK * BLOCK + 1, 80),
        ((3, 1, 2), 9 * BLOCK + 9, 80),
        ((2, 1, 1, 1), 12 * BLOCK - 1, 80),
        ((2, 2, 1, 1), 5 * BLOCK + 7, 40),
    ],
    ids=str,
)
def test_block_sweep_matches_per_outer_value_loop(index, max_outer, fixed_bits):
    assert max_outer <= 1600 and max_outer % BLOCK
    offsets = [n for n in EDGE_OFFSETS if n + len(index) + 2 <= max_outer]
    got = evaluate_direct_many(index, offsets, max_outer, fixed_bits)
    lanes = reference_lanes(index, offsets, max_outer, fixed_bits)
    want = reference_direct_many(index, offsets, max_outer, fixed_bits)
    assert list(got) == offsets
    one = 1 << fixed_bits
    discard = evaluator._discard_bound(index, max_outer)
    for n in offsets:
        floor_sum = lanes[n][0]
        # the lower endpoint is the reference's floor lane, bit for bit, and
        # the upper one the a-priori rounding bound on top of that lane
        bound = Enclosure.from_fraction_pair(
            Fraction(floor_sum, one),
            Fraction(floor_sum + len(index) * max_outer, one) + discard,
            fixed_bits,
        )
        assert same_enclosure(got[n], bound)
        assert (got[n].lo_fraction, got[n].precision_bits) == (
            want[n].lo_fraction, want[n].precision_bits
        )
        assert got[n].overlaps(want[n])


def test_family_sweep_equals_one_index_sweeps():
    indices = enumerate_admissible_up_to(6)
    offsets = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1)
    family = evaluate_direct_family(indices, offsets, 4 * BLOCK + 3)
    assert list(family) == indices
    for index in indices:
        alone = evaluate_direct_many(index, offsets, 4 * BLOCK + 3)
        assert all(same_enclosure(family[index][n], alone[n]) for n in offsets)


def test_family_handles_the_empty_index_and_shared_suffixes():
    family = evaluate_direct_family([(2, 1), (), (3, 1), (2, 1)], (2, 0), 500)
    assert list(family) == [(2, 1), (), (3, 1)]
    assert family[()][2].contains(Fraction(1))
    assert same_enclosure(family[(3, 1)][0], evaluate_direct_many((3, 1), (0,), 500)[0])


def test_oracle_enclosures_are_frozen():
    # SHA-256 of the 62 enclosures of the weight <= 6 indices at offsets 0 and
    # 1.  The lower-endpoint digest was computed with the two-lane sweep (and,
    # before that, the per-outer-value loop), so the floor lane is unchanged;
    # the full digest pins the upper endpoints of the a-priori rounding bound.
    indices = enumerate_admissible_up_to(6)
    family = evaluate_direct_family(indices, (0, 1), 2 * 10**4)
    lower, full = hashlib.sha256(), hashlib.sha256()
    for index in indices:
        for n in (0, 1):
            e = family[index][n]
            lower.update(repr((index, n, e.lo_fraction)).encode())
            full.update(repr((index, n, e.lo_fraction, e.hi_fraction, e.precision_bits)).encode())
    assert lower.hexdigest() == (
        "ea472e5d56cfedc39d9e7bb800969872e1f55d06f66c66c38ece9a7c978c8ee8"
    )
    assert full.hexdigest() == (
        "627b15380d2f927b16ada8d1a8a34e0be6bac108298a964efcf2830d61396248"
    )


# --- the oracle's a-priori rounding bound against exact sums ----------------

EXACT_MAX_OUTER = 300
EXACT_OFFSETS = (0, 1, BLOCK)
EXACT_INDICES = enumerate_admissible_up_to(6)


@functools.lru_cache(maxsize=None)
def exact_truncated_sums():
    """``{(index, n): S}`` with ``S`` the exact sum over
    ``EXACT_MAX_OUTER >= m_1 > ... > m_d > n`` of ``prod (2m_i-1)**-k_i``,
    one ``Fraction`` loop per outer value and suffix."""
    indices, max_outer = EXACT_INDICES, EXACT_MAX_OUTER
    # longer suffixes first, so that each reads the shorter one below m
    suffixes = sorted(
        {index[j:] for index in indices for j in range(len(index))}, key=len, reverse=True
    )
    out = {}
    for n in EXACT_OFFSETS:
        sums = dict.fromkeys(suffixes, Fraction(0))
        for m in range(1, max_outer + 1):
            odd = 2 * m - 1
            for suffix in suffixes:
                inner = sums[suffix[1:]] if len(suffix) > 1 else Fraction(int(m > n))
                sums[suffix] += inner / odd ** suffix[0]
        out.update(((index, n), sums[index]) for index in indices)
    return out


class RawEndpoints:
    """Stands in for ``Enclosure`` in the sweep: keeps the exact endpoints it
    is built from, before any outward rounding."""

    @staticmethod
    def from_fraction_pair(lo, hi, precision_bits):
        return lo, hi


def rounding_misses(monkeypatch, fixed_bits=80):
    """Run the real sweep at ``EXACT_MAX_OUTER`` and list the ``(index, n)``
    whose floor lane ``L`` is not within ``L <= S <= L + d * max_outer``
    units of the exact ``S``, or whose endpoints do not reach from ``L`` up
    to ``S`` plus the discarded-region bound."""
    max_outer, one = EXACT_MAX_OUTER, 1 << fixed_bits
    with monkeypatch.context() as patch:
        patch.setattr(evaluator, "Enclosure", RawEndpoints)
        family = evaluate_direct_family(EXACT_INDICES, EXACT_OFFSETS, max_outer, fixed_bits)
    misses = []
    for (index, n), exact in exact_truncated_sums().items():
        lo, hi = family[index][n]
        floor_sum, s = lo * one, exact * one
        assert floor_sum.denominator == 1
        within = floor_sum <= s <= floor_sum + len(index) * max_outer
        discard = evaluator._discard_bound(index, max_outer)
        if not (within and exact + discard <= hi):
            misses.append((index, n))
    return misses


def test_rounding_bound_holds_against_exact_sums(monkeypatch):
    assert EXACT_MAX_OUTER % BLOCK and len(exact_truncated_sums()) == 3 * 31
    assert rounding_misses(monkeypatch) == []


@pytest.mark.parametrize(
    "fault",
    [
        # one unit too many per floor: the lower endpoint rises above S
        lambda a, b: a // b + 1,
        # more units lost per floor than the depth of any index (at most 5):
        # the upper endpoint falls below S
        lambda a, b: a // b - 6,
    ],
    ids=["excess", "deficit"],
)
def test_planted_rounding_faults_are_rejected(fault, monkeypatch):
    monkeypatch.setattr(evaluator, "floordiv", fault)
    assert len(rounding_misses(monkeypatch)) == 3 * 31


# --- determinism, budgets, errors -------------------------------------------

def test_evaluation_is_bitwise_deterministic():
    a = enclosure_of([3, 1, 2])
    b = enclosure_of([3, 1, 2])
    assert a.lo_fraction == b.lo_fraction and a.hi_fraction == b.hi_fraction


def test_budget_exceeded_carries_partial_result():
    request = EvalRequest(
        ValueSpec((2, 1), 0),
        target_width=Fraction(1, 10**60),
        budget=PrecisionBudget(start_bits=64, max_bits=128),
    )
    with pytest.raises(BudgetExceededError) as excinfo:
        evaluate(request)
    partial = excinfo.value.partial
    assert partial is not None
    reference = Fraction(32923616284981706824, 10**20)
    assert partial.lo_fraction <= reference + Fraction(1, 10**19)
    assert partial.hi_fraction >= reference - Fraction(1, 10**19)
    assert partial.width() > Fraction(1, 10**60)  # genuinely short of target


def test_divergent_leading_exponent_rejected():
    with pytest.raises(DivergentError):
        evaluate(EvalRequest(ValueSpec((1, 1), 0)))
    with pytest.raises(DivergentError):
        evaluate_direct(ValueSpec((1,), 0), max_outer=100)


@pytest.mark.parametrize("width", [Fraction(4), Fraction(1, 10**8)], ids=str)
def test_budget_starting_below_ten_bits_evaluates(width):
    # rungs below ten bits have precision floors 2**-(bits-10) above one
    budget = PrecisionBudget(start_bits=8, max_bits=64)
    got = evaluate(EvalRequest(ValueSpec((2, 1), 0), width, budget))
    assert got.width() <= width
    assert got.overlaps(enclosure_of((2, 1)))


def test_request_default_width_is_modest():
    request = EvalRequest(ValueSpec((2,), 0))
    got = evaluate(request)
    assert got.width() <= request.target_width


def test_tail_offsets_decrease_toward_zero():
    values = [enclosure_of([2, 1], offset=n) for n in range(4)]
    for shallower, deeper in zip(values, values[1:]):
        assert deeper.hi_fraction < shallower.lo_fraction
    assert values[3].hi_fraction < Fraction(1, 20)


# --- harmonic product (no closed forms) -------------------------------------

STUFFLE_PAIRS = [(a, b) for a in range(2, 5) for b in range(a, 9 - a)]


@pytest.mark.parametrize("a,b", STUFFLE_PAIRS, ids=str)
def test_harmonic_product_at_high_precision(a, b):
    # t(a) t(b) = t(a,b) + t(b,a) + t(a+b): splitting the double sum over
    # distinct odd numbers by which one is larger, plus the diagonal
    width = Fraction(1, 10**100)
    product = enclosure_of([a], width=width) * enclosure_of([b], width=width)
    stuffle = (
        enclosure_of([a, b], width=width)
        + enclosure_of([b, a], width=width)
        + enclosure_of([a + b], width=width)
    )
    assert product.overlaps(stuffle)
    assert stuffle.width() <= 3 * width


DEPTH_TWO_STUFFLES = [(2, 2, 1), (2, 3, 1), (3, 2, 2)]


@pytest.mark.parametrize("a,b,c", DEPTH_TWO_STUFFLES, ids=str)
def test_harmonic_product_with_depth_two_factor(a, b, c):
    # t(a) t(b,c): the new variable lies above, at, between, at or below the
    # two ordered variables of t(b,c)
    width = Fraction(1, 10**200)
    product = enclosure_of([a], width=width) * enclosure_of([b, c], width=width)
    stuffle = (
        enclosure_of([a, b, c], width=width)
        + enclosure_of([a + b, c], width=width)
        + enclosure_of([b, a, c], width=width)
        + enclosure_of([b, a + c], width=width)
        + enclosure_of([b, c, a], width=width)
    )
    assert product.overlaps(stuffle)
    assert stuffle.width() <= 5 * width


def quasi_shuffles(a, b):
    """The terms of the harmonic product ``t(a) t(b)``, repeats included:
    the largest variable is ``a``'s first alone, ``b``'s first alone, or
    both at once."""
    if not a or not b:
        return [a + b]
    return (
        [a[:1] + w for w in quasi_shuffles(a[1:], b)]
        + [b[:1] + w for w in quasi_shuffles(a, b[1:])]
        + [(a[0] + b[0],) + w for w in quasi_shuffles(a[1:], b[1:])]
    )


PRODUCT_PAIRS = [
    (a, b)
    for a in enumerate_admissible_up_to(6)
    for b in enumerate_admissible_up_to(6)
    if sum(a) + sum(b) <= 8
]


@pytest.mark.parametrize(
    "pair", PRODUCT_PAIRS, ids=lambda p: "x".join(",".join(map(str, k)) for k in p)
)
def test_harmonic_product_property(pair):
    # t(a) t(b) is the sum of t(w) over the quasi-shuffles w of a and b;
    # every t(w) is far above the widths, so the sum without any one term
    # is disjoint from the product
    a, b = pair
    width = Fraction(1, 10**200)
    product = enclosure_of(a, width=width) * enclosure_of(b, width=width)
    terms = quasi_shuffles(a, b)
    values = {w: enclosure_of(w, width=width) for w in terms}
    total = sum((values[w] for w in terms[1:]), values[terms[0]])
    assert product.overlaps(total)
    for value in values.values():
        assert not product.overlaps(total - value)


# --- planner and recurrence -------------------------------------------------

def test_plan_prices_the_expansion_build(monkeypatch):
    # the planner builds only the order it returns and its one fixed
    # anchor, and seeds where the real remainder bound of that order is
    # small enough; at 256 bits a depth-2 index needs no order above 32
    built = []

    def recording(prefix, order):
        built.append(order)
        return prefix_expansion(prefix, order)

    monkeypatch.setattr(evaluator, "prefix_expansion", recording)
    anchor = evaluator._ORDER_SCHEDULE[0]
    cases = [
        ((2, 3), 1, Fraction(1, 2**246)),
        ((2, 1, 1, 1), 0, Fraction(1, 10**100)),
        ((2, 1, 1, 1), 0, Fraction(1, 10**300)),
    ]
    for index, offset, tau in cases:
        built.clear()
        order, seed = evaluator._plan(index, offset, tau)
        assert set(built) <= {order, anchor}
        assert 0 <= seed - offset <= evaluator._MAX_STEPS
        bound = sum(
            as_fractions(prefix_expansion(index[:i], order))[1]
            for i in range(1, len(index) + 1)
        )
        ratio = bound * 6 ** len(index) * 4 / tau
        assert (2 * seed + 1) ** (order + 1) >= ratio
        assert (2 * seed - 1) ** (order + 1) < ratio  # no later than needed
        if index == (2, 3):
            assert order <= 32


def spy_plan(monkeypatch, first=None):
    """Record the ``tau`` of every ``_plan`` call; ``first``, if given,
    replaces the plan of the first call."""
    taus = []
    real = evaluator._plan

    def spy(index, offset, tau):
        taus.append(tau)
        if first is not None and len(taus) == 1:
            return first(index, offset, tau)
        return real(index, offset, tau)

    monkeypatch.setattr(evaluator, "_plan", spy)
    return taus


LADDER_CASES = [
    (index, offset, Fraction(1, 10**e))
    for index, offset in (((3,), 0), ((2, 1), 1), ((2, 2, 1), 0), ((2, 1, 1, 1), 0))
    for e in range(15, 50, 5)
]


@pytest.mark.parametrize("index,offset,width", LADDER_CASES, ids=str)
def test_ladder_plans_for_the_requested_width(index, offset, width, monkeypatch):
    # the first rung plans for the width asked for, not for the rung floor
    reference = enclosure_of(index, offset, Fraction(1, 10**60))
    taus = spy_plan(monkeypatch)
    got = evaluator._evaluate_cached.__wrapped__(index, offset, width, PrecisionBudget())
    assert taus[0] == width
    assert got.width() <= width
    assert got.overlaps(reference)


def test_ladder_retries_a_missed_width_at_the_rung_floor(monkeypatch):
    index, offset, width = (2, 1, 1), 0, Fraction(1, 10**30)
    budget = PrecisionBudget()
    usable = [b for b in budget.rungs() if Fraction(1, 2 ** (b - 10)) <= width]
    # a seed one step above the offset leaves the remainder far above width
    taus = spy_plan(monkeypatch, first=lambda index, offset, tau: (8, offset + 1))
    got = evaluator._evaluate_cached.__wrapped__(index, offset, width, budget)
    assert taus == [width, Fraction(1, 2 ** (usable[1] - 10))]
    assert got.width() <= width
    assert got.overlaps(enclosure_of(index, offset, Fraction(1, 10**60)))


@settings(max_examples=300, deadline=None)
@given(
    ratio=st.integers(min_value=1, max_value=2**4000),
    order=st.sampled_from(evaluator._ORDER_SCHEDULE),
    offset=st.integers(min_value=0, max_value=50),
)
def test_seed_is_the_least_that_meets_the_ratio(ratio, order, offset):
    seed = evaluator._seed(ratio, offset, order)
    assert (2 * seed + 1) ** (order + 1) >= ratio
    assert seed == max(1, offset) or (2 * seed - 1) ** (order + 1) < ratio


def _root_cases():
    rng = random.Random(23)
    exponents = (1, 2, 3, 5, 9, 17, 65, 129, 257)
    for k in exponents:
        for bits in (1, 2, 8, 64, 300, 1000, 4000):
            for _ in range(4):
                yield rng.getrandbits(bits) + 1, k
        for root in (2, 3, 10, 2**20 + 1, 3**50):
            for x in (root**k - 1, root**k, root**k + 1):
                yield x, k


def test_kth_root_ceil_is_the_least_root():
    for x, k in _root_cases():
        r = evaluator._kth_root_ceil(x, k)
        assert r >= 1 and r**k >= x, (x, k)
        assert r == 1 or (r - 1) ** k < x, (x, k)


def reference_evaluate_at(index, offset, bits, order, seed):
    """``_evaluate_at`` as it was before the upper chain was negated: a
    ceiling division for each upper endpoint, each level's power taken at
    every step."""
    wp = bits + _GUARD_BITS
    one = 1 << wp
    los, his = [one], [one]
    for i in range(1, len(index) + 1):
        lo, hi = evaluate_expansion(prefix_expansion(index[:i], order), order, seed, wp)
        los.append(max(0, lo))
        his.append(hi)
    for j in range(seed - 1, offset - 1, -1):
        odd = 2 * j + 1
        for i in range(len(index), 0, -1):
            p = odd ** index[i - 1]
            los[i] += los[i - 1] // p
            his[i] += -((-his[i - 1]) // p)
    return Enclosure.from_fraction_pair(Fraction(los[-1], one), Fraction(his[-1], one), wp)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_recurrence_matches_the_ceiling_loop(depth):
    for index in itertools.product(range(1, 5), repeat=depth):
        if index[0] < 2:
            continue
        for offset in (0, 1, 2):
            args = (index, offset, 64, 8, offset + 30)
            got = evaluator._evaluate_at(*args)
            want = reference_evaluate_at(*args)
            assert (got.lo_fraction, got.hi_fraction, got.precision_bits) == (
                want.lo_fraction, want.hi_fraction, want.precision_bits
            ), args


def test_depth_four_at_width_1e_100():
    fine = enclosure_of([2, 1, 1, 1], width=Fraction(1, 10**100))
    assert fine.width() <= Fraction(1, 10**100)
    assert fine.overlaps(enclosure_of([2, 1, 1, 1]))
    assert_contains_decimal(fine, FROZEN[((2, 1, 1, 1), 0)])


@pytest.mark.parametrize("index,offset", [((2,), 0), ((3, 1, 2), 0), ((2, 1, 1), 3)])
def test_recurrence_rounds_outward(index, offset):
    # the fixed-point loop against the same recurrence in exact rationals,
    # started from the exact expansion sums minus and plus their remainders
    bits, order, seed = 64, 8, 40
    got = evaluator._evaluate_at(index, offset, bits, order, seed)
    los, his = [Fraction(1)], [Fraction(1)]
    for i in range(1, len(index) + 1):
        lo, hi = exact_seed(prefix_expansion(index[:i], order), order, seed)
        los.append(max(Fraction(0), lo))
        his.append(hi)
    for j in range(seed - 1, offset - 1, -1):
        for i in range(len(index), 0, -1):
            power = (2 * j + 1) ** index[i - 1]
            los[i] += los[i - 1] / power
            his[i] += his[i - 1] / power
    assert got.lo_fraction <= los[-1]
    assert got.hi_fraction >= his[-1]
    assert got.width() - (his[-1] - los[-1]) < Fraction(1, 2**bits)


@pytest.mark.parametrize("index", [(2, 2), (2, 1, 1), (3, 1, 2), (4, 1)])
def test_expansion_remainder_encloses_tail_at_low_order(index):
    # at low order and the smallest offsets the remainder term carries the
    # enclosure, so a remainder bound that is too small shows here
    for n in (1, 2):
        truth = enclosure_of(index, offset=n)
        for order in (2, 3, 4, 6, 8):
            lo, hi = exact_seed(prefix_expansion(index, order), order, n)
            assert lo <= truth.hi_fraction and truth.lo_fraction <= hi


# SHA-256 of the repr of the (coefficients, bound) pair of Fractions of
# prefix_expansion(k, order) over the grid below, each built from an empty
# cache: the construction is exact, so a changed coefficient or bound shows
# here even where the result would stay sound.  The first digest hashes the
# coefficients alone, so a change to the bounds leaves it as it is.  Both
# were taken when prefix_expansion still returned Fractions.
EXPANSION_COEFFICIENTS_SHA256 = "662b7a548a0bc0a826d97e13552f00869088bf7a1069d43a472d5bcb793bd73a"
EXPANSION_GRID_SHA256 = "4a85a894e422522a07e11b42083e0086b3ede623e6b5968e49c16934ce4f55c2"


def test_prefix_expansions_are_frozen():
    coefficients, full = hashlib.sha256(), hashlib.sha256()
    for index in [(2, 1), (2, 1, 1, 1), (3, 1, 2)]:
        for order in (8, 16, 32):
            prefix_expansion.cache_clear()
            expansion = as_fractions(prefix_expansion(index, order))
            coefficients.update(repr(expansion[0]).encode())
            full.update(repr(expansion).encode())
    assert coefficients.hexdigest() == EXPANSION_COEFFICIENTS_SHA256
    assert full.hexdigest() == EXPANSION_GRID_SHA256


# SHA-256 of the repr of the (coefficients, bound) pair of Fractions of
# prefix_expansion(k, 128) for the indices below, each built from an empty
# cache, taken with the Fraction build before the integer one
ORDER_128_SHA256 = "0176aef34d209939528b5fc6bb7d181743f6031b4aa4b6003688ebd1571d1656"


def test_order_128_expansions_are_frozen():
    digest = hashlib.sha256()
    for index in [(2, 1, 1, 1), (3, 1, 2), (2, 1, 1, 1, 1, 1)]:
        prefix_expansion.cache_clear()
        view = prefix_expansion(index, 128)
        assert math.gcd(*view[0:1], *(num for _, num in view[1]), view[2]) == 1
        digest.update(repr(as_fractions(view)).encode())
    assert digest.hexdigest() == ORDER_128_SHA256


# SHA-256 of (k, n, w, lo, hi, bits) of the fast path over the weight <= 6,
# depth <= 4 indices.  The endpoints follow the planner's plans, so a
# planner change moves this digest; the order facts that must not move are
# pinned apart, as the ranks and indices of beta_table(12) in test_order.py.
# The integer seeds moved one of the 270 enclosures inward, and
# test_fast_path_lies_inside_the_enclosure_seeded_the_old_way checks that
# every one lies inside the enclosure of the old seeds
FAST_PATH_SHA256 = "9257bcb8f6f31bdd90489414c00071a192b515b313a3070a3b7b36e138f39da9"


def fast_path_grid():
    """The ``_evaluate_cached`` arguments of the ``FAST_PATH_SHA256`` grid."""
    indices = [k for k in enumerate_admissible_up_to(6) if len(k) <= 4]
    assert len(indices) == 30
    widths = (Fraction(1, 10**8), Fraction(1, 10**30), Fraction(1, 10**45))
    return [(k, n, w, PrecisionBudget()) for k in indices for n in (0, 1, 2) for w in widths]


def test_fast_path_enclosures_are_frozen():
    digest = hashlib.sha256()
    for k, n, w, _ in fast_path_grid():
        e = evaluator.evaluate_spec(ValueSpec(k, n), w)
        digest.update(repr((k, n, w, e.lo_fraction, e.hi_fraction, e.precision_bits)).encode())
    assert digest.hexdigest() == FAST_PATH_SHA256


# --- the integer kernels against their Fraction references -----------------

@functools.lru_cache(maxsize=None)
def reference_bernoulli(n):
    """``B_n`` by the ``Fraction`` recurrence ``sum_j C(n+1, j) B_j = 0``,
    as it was built before the tangent numbers."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    return -sum(math.comb(n + 1, j) * reference_bernoulli(j) for j in range(n)) / (n + 1)


@functools.lru_cache(maxsize=None)
def reference_base_expansion(k, order):
    """The depth-one expansion as ``(coefficients, bound)`` in ``Fraction``
    arithmetic, built from Bernoulli numbers as it was before the tangent
    numbers: Euler--Maclaurin terms ``2**(2r-1) B_2r (k)_(2r-1) / (2r)!``
    up to the order, the first omitted one and the leading terms beyond
    the order rescaled by ``w <= 1/3`` into the bound."""
    coeffs = {}
    if k - 1 <= order:
        coeffs[k - 1] = Fraction(1, 2 * (k - 1))
    if k <= order:
        coeffs[k] = Fraction(1, 2)
    r = 1
    while True:
        rising = math.prod(range(k, k + 2 * r - 1))
        c = Fraction(2 ** (2 * r - 1)) * reference_bernoulli(2 * r) * rising / math.factorial(2 * r)
        if k + 2 * r - 1 > order:
            break
        coeffs[k + 2 * r - 1] = c
        r += 1
    bound = abs(c) / 3 ** (k + 2 * r - 1 - (order + 1))
    if k - 1 > order:
        bound += Fraction(1, 2 * (k - 1)) / 3 ** (k - 1 - (order + 1))
    if k > order:
        bound += Fraction(1, 2) / 3 ** (k - (order + 1))
    return tuple(sorted(coeffs.items())), bound


def test_bernoulli_numbers_match_the_recurrence():
    assert [numerics.bernoulli_fraction(n) for n in range(261)] == [
        reference_bernoulli(n) for n in range(261)
    ]


BASE_ORDERS = (1, 2, 3) + evaluator._ORDER_SCHEDULE


@pytest.mark.parametrize("order", BASE_ORDERS)
def test_base_expansion_matches_the_bernoulli_build(order):
    numerics.base_expansion.cache_clear()
    numerics._tangent_numbers.cache_clear()
    for k in range(2, 41):
        view = base_expansion(k, order)
        want = reference_base_expansion(k, order)
        assert as_fractions(view) == want
        # reduced: equal expansions have equal views
        assert view == as_view(*want)


def reference_step_expansion(coeffs, bound, s, order):
    """The expansion step in ``Fraction`` arithmetic, as it was before the
    integer build: the partial-fraction split per input coefficient, then
    one ``reference_base_expansion(i)`` per pole order ``i``."""

    def partial_fraction(s, q):
        alpha = {
            s - u: Fraction((-1) ** u * math.comb(q + u - 1, u), 2 ** (q + u))
            for u in range(s)
        }
        gamma = {
            q - v: Fraction((-1) ** s * math.comb(s + v - 1, v), 2 ** (s + v))
            for v in range(q)
        }
        return alpha, gamma

    new, weight, mass = {}, {}, {}
    new_bound = Fraction(3, 2) / Fraction(3 ** (s - 1)) * bound
    for q, d in coeffs:
        if d == 0:
            continue
        alpha, gamma = partial_fraction(s, q)
        a1 = alpha.get(1, Fraction(0))
        if a1:
            new[1] = new.get(1, Fraction(0)) + d * a1
        for i, g in gamma.items():
            if i >= 2 and g:
                new[i] = new.get(i, Fraction(0)) - d * g
        for i in range(2, max(s, q) + 1):
            c = alpha.get(i, Fraction(0)) + gamma.get(i, Fraction(0))
            if c == 0:
                continue
            if i > order + 1:
                new_bound += abs(d * c) * Fraction(3, 2) / Fraction(
                    3 ** (i - 1 - (order + 1))
                )
                continue
            dc = d * c
            weight[i] = weight.get(i, Fraction(0)) + dc
            mass[i] = mass.get(i, Fraction(0)) + abs(dc)
    for i, e in weight.items():
        base_coeffs, base_bound = reference_base_expansion(i, order)
        for p, v in base_coeffs:
            new[p] = new.get(p, Fraction(0)) + e * v
        new_bound += mass[i] * base_bound
    return tuple(sorted((p, v) for p, v in new.items() if v != 0)), new_bound


def _step_inputs():
    # (inner index, order, s): exponents s beyond order + 1 take the far
    # branch, and the expansion of (12,) at order 8 has no coefficients
    for inner, orders, exponents in [
        ((2,), range(2, 13), (1, 2, 12, 13)),
        ((3, 11), range(2, 13), (1, 2)),
        ((2, 1, 13), range(2, 13), (1, 4)),
        ((12,), (8,), (1, 3, 11)),
        ((2, 1), (16, 32, 48), (1, 2, 3, 5)),
        ((3, 1, 2), (24, 64), (1, 2)),
    ]:
        for order in orders:
            for s in exponents:
                yield inner, order, s


@pytest.mark.parametrize("inner, order, s", list(_step_inputs()), ids=str)
def test_integer_step_matches_fraction_step(inner, order, s):
    view = prefix_expansion(inner, order)
    coeffs, bound = as_fractions(view)
    got = evaluator._step_expansion(view, s, order)
    want = reference_step_expansion(coeffs, bound, s, order)
    assert as_fractions(got) == want
    # the view is reduced, so equal expansions have equal views
    assert got == as_view(*want)
    # zero coefficients, anywhere in the input, contribute nothing
    den, nums, bound_num = view
    padded = (den, ((1, 0),) + nums + ((order + 1, 0),), bound_num)
    assert evaluator._step_expansion(padded, s, order) == got
    assert reference_step_expansion(*as_fractions(padded), s, order) == want


def test_step_of_an_empty_expansion_scales_the_bound():
    view = prefix_expansion((12,), 8)
    assert view[1] == ()
    got = evaluator._step_expansion(view, 3, 8)
    assert as_fractions(got) == ((), reference_base_expansion(12, 8)[1] / 6)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.dictionaries(
        st.integers(0, 40),
        st.fractions(max_denominator=10**12),
        max_size=12,
    ),
    n=st.integers(0, 10**6),
    wp=st.integers(8, 600),
    bound=st.fractions(min_value=0, max_denominator=10**6),
    extra=st.integers(0, 3),
)
def test_evaluate_expansion_seeds_are_the_exact_floor_and_ceiling(terms, n, wp, bound, extra):
    view = as_view(tuple(sorted(terms.items())), bound)
    order = max(terms, default=0) + extra
    lo, hi = exact_seed(view, order, n)
    assert evaluate_expansion(view, order, n, wp) == (
        math.floor(lo * 2**wp), math.ceil(hi * 2**wp)
    )


def reference_seed(view, order, n, wp):
    """The seeds as they were built before they were integers: the sum
    rounded outward to ``wp`` bits as an ``Enclosure``, widened by the
    remainder, then floored and ceiled at scale ``2**wp``."""
    lo, hi = exact_seed(view, order, n)  # the sum is the midpoint
    start = Enclosure.from_fraction((lo + hi) / 2, wp).widen((hi - lo) / 2)
    return math.floor(start.lo_fraction * 2**wp), math.ceil(start.hi_fraction * 2**wp)


def test_fast_path_lies_inside_the_enclosure_seeded_the_old_way(monkeypatch):
    # the integer seeds lie inside the old ones and the recurrence is
    # monotone in its seeds, so every enclosure of the FAST_PATH_SHA256 grid
    # lies inside the one the old seeds give
    fresh = evaluator._evaluate_cached.__wrapped__
    got = {key: fresh(*key) for key in fast_path_grid()}
    monkeypatch.setattr(evaluator, "evaluate_expansion", reference_seed)
    for key, enclosure in got.items():
        reference = fresh(*key)
        assert reference.lo_fraction <= enclosure.lo_fraction
        assert enclosure.hi_fraction <= reference.hi_fraction


def test_budget_message_reports_widths_below_the_float_range():
    target = Fraction(1, 10**1002)
    with pytest.raises(BudgetExceededError) as excinfo:
        evaluator.evaluate_spec(ValueSpec((2,), 0), target)
    message = str(excinfo.value)
    match = re.match(r"width (\S+) above target (\S+) for 2 at ", message)
    assert match is not None, message
    assert match.group(2) == "1.000e-1002"
    width = excinfo.value.partial.width()
    printed = Fraction(Decimal(match.group(1)))
    assert abs(printed - width) <= width / 1000
