"""Accelerated evaluation versus closed forms and a frozen direct-sum oracle.

Decimal strings below marked "frozen" were produced once by the rigorous
direct summation routine at high term count, then pinned; the accelerated
evaluator must enclose them independently.
"""

import hashlib
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from tvals import evaluator
from tvals.enclosure import Enclosure
from tvals.errors import BudgetExceededError, DivergentError
from tvals.evaluator import (
    EvalRequest,
    evaluate,
    evaluate_direct,
    evaluate_direct_many,
    prefix_expansion,
)
from tvals.indices import ValueSpec
from tvals.numerics import PrecisionBudget, const_pi, evaluate_expansion

TIGHT = Fraction(1, 10**30)


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


# --- planner and recurrence -------------------------------------------------

def test_plan_prices_the_expansion_build(monkeypatch):
    # at 256 bits a depth-2 index needs neither an order above 32 nor
    # building one to find that out
    built = []

    def recording(prefix, order):
        built.append(order)
        return prefix_expansion(prefix, order)

    monkeypatch.setattr(evaluator, "prefix_expansion", recording)
    order, seed = evaluator._plan((2, 3), 1, Fraction(1, 2**246))
    assert order <= 32
    assert 0 <= seed - 1 <= 20_000
    assert max(built) <= 32


def test_depth_four_at_width_1e_100():
    fine = enclosure_of([2, 1, 1, 1], width=Fraction(1, 10**100))
    assert fine.width() <= Fraction(1, 10**100)
    assert fine.overlaps(enclosure_of([2, 1, 1, 1]))
    assert_contains_decimal(fine, FROZEN[((2, 1, 1, 1), 0)])


@pytest.mark.parametrize("index,offset", [((2,), 0), ((3, 1, 2), 0), ((2, 1, 1), 3)])
def test_recurrence_rounds_outward(index, offset):
    # the fixed-point loop against the same recurrence in exact rationals,
    # started from the same seed enclosures
    bits, order, seed = 64, 8, 40
    got = evaluator._evaluate_at(index, offset, bits, order, seed)
    los, his = [Fraction(1)], [Fraction(1)]
    for i in range(1, len(index) + 1):
        coeffs, bound = prefix_expansion(index[:i], order)
        start = evaluate_expansion(coeffs, bound, order, seed, bits)
        los.append(max(Fraction(0), start.lo_fraction))
        his.append(start.hi_fraction)
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
            coeffs, bound = prefix_expansion(index, order)
            assert evaluate_expansion(coeffs, bound, order, n, 128).overlaps(truth)


# SHA-256 of repr(prefix_expansion(k, order)) over the grid below, each
# built from an empty cache: the construction is exact, so a changed
# coefficient or bound shows here even where the result would stay sound
EXPANSION_GRID_SHA256 = "4a85a894e422522a07e11b42083e0086b3ede623e6b5968e49c16934ce4f55c2"


def test_prefix_expansions_are_frozen():
    digest = hashlib.sha256()
    for index in [(2, 1), (2, 1, 1, 1), (3, 1, 2)]:
        for order in (8, 16, 32):
            prefix_expansion.cache_clear()
            digest.update(repr(prefix_expansion(index, order)).encode())
    assert digest.hexdigest() == EXPANSION_GRID_SHA256


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
