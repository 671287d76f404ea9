"""Constants, exact integer sequences, and one-dimensional tail sums.

The decimal oracles for the two transcendental constants are frozen from
published high-precision values; everything here must enclose them exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tvals.enclosure import Enclosure
from tvals.errors import DivergentError
from tvals.evaluator import odd_power_tail
from tvals.numerics import (
    PrecisionBudget,
    bernoulli_fraction,
    const_catalan,
    const_pi,
    euler_int,
)

# 50-digit published values (frozen oracles)
PI_50 = Fraction(
    31415926535897932384626433832795028841971693993751, 10**49
)
CATALAN_50 = Fraction(
    9159655941772190150546035149323841107741493742817, 10**49
)


# the oracles are rounded to 49 places, so the true constant lies within
# half an ulp of them; the enclosure must come at least that close
ORACLE_SLACK = Fraction(1, 10**49)


@pytest.mark.parametrize("bits", [64, 128, 192, 256])
def test_pi_encloses_published_value(bits):
    enclosure = const_pi(bits)
    assert enclosure.lo_fraction <= PI_50 + ORACLE_SLACK
    assert enclosure.hi_fraction >= PI_50 - ORACLE_SLACK
    assert enclosure.width() <= Fraction(1, 2 ** (bits - 8))


@pytest.mark.parametrize("bits", [64, 128, 192, 256])
def test_catalan_encloses_published_value(bits):
    enclosure = const_catalan(bits)
    assert enclosure.lo_fraction <= CATALAN_50 + ORACLE_SLACK
    assert enclosure.hi_fraction >= CATALAN_50 - ORACLE_SLACK
    assert enclosure.width() <= Fraction(1, 2 ** (bits - 8))


def test_constants_nest_as_precision_rises():
    coarse_pi, fine_pi = const_pi(64), const_pi(256)
    assert coarse_pi.overlaps(fine_pi)
    assert fine_pi.width() < coarse_pi.width()


def test_euler_numbers_match_table():
    assert [euler_int(2 * l) for l in range(6)] == [1, -1, 5, -61, 1385, -50521]
    assert all(euler_int(2 * l + 1) == 0 for l in range(6))


def test_bernoulli_numbers_match_table():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for k, value in expected.items():
        assert bernoulli_fraction(k) == value
    assert all(bernoulli_fraction(k) == 0 for k in (3, 5, 7, 9, 11))


def test_odd_power_tail_at_zero_is_full_sum():
    # sum over all odd reciprocals squared equals pi**2 / 8
    tail = odd_power_tail(2, 0, 128)
    pi = const_pi(160)
    reference = pi.pow_int(2) * Enclosure.from_fraction(Fraction(1, 8), 160)
    assert tail.overlaps(reference)
    assert tail.width() <= Fraction(1, 2**120)


def test_odd_power_tail_offset_one_drops_leading_term():
    full = odd_power_tail(2, 0, 128)
    offset = odd_power_tail(2, 1, 128)
    difference = full - offset
    assert difference.contains(Fraction(1))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=12),
)
def test_odd_power_tail_telescopes(k, cutoff):
    outer = odd_power_tail(k, cutoff, 96)
    inner = odd_power_tail(k, cutoff + 1, 96)
    step = Enclosure.from_fraction(Fraction(1, (2 * cutoff + 1) ** k), 128)
    assert outer.overlaps(inner + step)
    assert outer.cmp_scalar(Fraction(0)) > 0
    assert inner.hi_fraction < outer.hi_fraction + Fraction(1, 2**90)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=50))
def test_odd_power_tail_bracketed_by_first_term(k, cutoff):
    tail = odd_power_tail(k, cutoff, 96)
    first = Fraction(1, (2 * cutoff + 1) ** k)
    assert tail.hi_fraction > first  # contains the first term and more
    # crude integral envelope: the whole tail is below first * (2n+1)/(2(k-1))
    envelope = first * Fraction(2 * cutoff + 3, 2 * (k - 1))
    assert tail.lo_fraction < first * 2 + envelope


def test_odd_power_tail_at_high_precision():
    # a float root in the seed planner overflowed here at 512 bits
    fine = odd_power_tail(3, 0, 512)
    assert fine.is_positive()
    assert fine.width() <= Fraction(1, 2**500)
    assert fine.overlaps(odd_power_tail(3, 0, 128))
    tail = odd_power_tail(2, 0, 960)
    pi = const_pi(1024)
    reference = pi.pow_int(2) * Enclosure.from_fraction(Fraction(1, 8), 1024)
    assert tail.overlaps(reference)


def test_odd_power_tail_rejects_divergent_exponent():
    with pytest.raises(DivergentError):
        odd_power_tail(1, 0, 64)
    with pytest.raises(DivergentError):
        odd_power_tail(0, 3, 64)


def test_precision_budget_rungs_double_to_ceiling():
    budget = PrecisionBudget(start_bits=64, max_bits=512)
    rungs = list(budget.rungs())
    assert rungs[0] == 64 and rungs[-1] == 512
    assert all(b == 2 * a for a, b in zip(rungs, rungs[1:]))


def test_precision_budget_validation():
    with pytest.raises(ValueError):
        PrecisionBudget(start_bits=0)
    with pytest.raises(ValueError):
        PrecisionBudget(start_bits=128, max_bits=64)
