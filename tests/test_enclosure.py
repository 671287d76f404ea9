"""Containment and outward-rounding laws of the interval type."""

import math
import operator
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tvals.enclosure import Enclosure, RoundingError, _format_sci

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)
nonzero_rationals = rationals.filter(lambda q: abs(q) > Fraction(1, 1000))
precisions = st.integers(min_value=16, max_value=192)


@given(rationals, precisions)
def test_from_fraction_contains_exact_value(q, bits):
    enclosure = Enclosure.from_fraction(q, bits)
    assert enclosure.lo_fraction <= q <= enclosure.hi_fraction
    assert enclosure.width() <= Fraction(abs(q) + 1, 2 ** (bits - 4))


@given(rationals, rationals, precisions)
def test_addition_contains_exact_sum(a, b, bits):
    result = Enclosure.from_fraction(a, bits) + Enclosure.from_fraction(b, bits)
    assert result.contains(a + b)


@given(rationals, rationals, precisions)
def test_subtraction_contains_exact_difference(a, b, bits):
    result = Enclosure.from_fraction(a, bits) - Enclosure.from_fraction(b, bits)
    assert result.contains(a - b)


@given(rationals, rationals, precisions)
def test_multiplication_contains_exact_product(a, b, bits):
    result = Enclosure.from_fraction(a, bits) * Enclosure.from_fraction(b, bits)
    assert result.contains(a * b)


@given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000),
       st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000),
       st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000),
       st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000))
def test_interval_multiplication_covers_all_corner_products(a, b, c, d):
    lo1, hi1 = min(a, b), max(a, b)
    lo2, hi2 = min(c, d), max(c, d)
    left = Enclosure.from_fraction_pair(lo1, hi1, 96)
    right = Enclosure.from_fraction_pair(lo2, hi2, 96)
    product = left * right
    for x in (lo1, hi1):
        for y in (lo2, hi2):
            assert product.contains(x * y)


@given(rationals, nonzero_rationals, precisions)
def test_division_contains_exact_quotient(a, b, bits):
    result = Enclosure.from_fraction(a, bits) / Enclosure.from_fraction(b, bits)
    assert result.contains(Fraction(a) / Fraction(b))


def test_division_by_interval_containing_zero_rejected():
    straddling = Enclosure.from_fraction_pair(Fraction(-1), Fraction(1), 64)
    with pytest.raises(RoundingError):
        Enclosure.exact_int(1) / straddling


@given(rationals, st.integers(min_value=0, max_value=7), precisions)
def test_integer_power_contains_exact_power(q, exponent, bits):
    enclosure = Enclosure.from_fraction(q, bits)
    assert enclosure.pow_int(exponent).contains(q**exponent)


@given(st.fractions(min_value=Fraction(-10), max_value=Fraction(10), max_denominator=1000),
       st.fractions(min_value=Fraction(-10), max_value=Fraction(10), max_denominator=1000),
       st.integers(min_value=0, max_value=5))
def test_straddling_interval_power_contains_endpoint_powers(a, b, exponent):
    lo, hi = min(a, b), max(a, b)
    enclosure = Enclosure.from_fraction_pair(lo, hi, 96)
    powered = enclosure.pow_int(exponent)
    assert powered.contains(lo**exponent)
    assert powered.contains(hi**exponent)
    if lo <= 0 <= hi:
        assert powered.contains(0 if exponent else 1)


@given(nonzero_rationals, st.integers(min_value=1, max_value=4))
def test_negative_power_is_reciprocal(q, exponent):
    enclosure = Enclosure.from_fraction(q, 128)
    assert enclosure.pow_int(-exponent).contains(Fraction(1, 1) / Fraction(q) ** exponent)


@given(rationals, st.integers(min_value=-20, max_value=20))
def test_scale_pow2_is_exact(q, shift):
    enclosure = Enclosure.from_fraction(q, 96)
    scaled = enclosure.scale_pow2(shift)
    assert scaled.lo_fraction == enclosure.lo_fraction * Fraction(2) ** shift
    assert scaled.hi_fraction == enclosure.hi_fraction * Fraction(2) ** shift


@given(rationals, rationals)
def test_hull_contains_both_operands(a, b):
    ea, eb = Enclosure.from_fraction(a, 64), Enclosure.from_fraction(b, 64)
    hull = ea.hull(eb)
    assert hull.contains(a) and hull.contains(b)


@given(rationals, st.fractions(min_value=0, max_value=10, max_denominator=1000))
def test_widen_expands_symmetrically(q, radius):
    enclosure = Enclosure.from_fraction(q, 96)
    widened = enclosure.widen(radius)
    assert widened.lo_fraction <= q - radius + Fraction(1, 2**80)
    assert widened.hi_fraction >= q + radius - Fraction(1, 2**80)


@given(rationals, precisions, st.integers(min_value=2, max_value=40))
def test_decimal_strings_round_trip_outward(q, bits, digits):
    enclosure = Enclosure.from_fraction(q, bits)
    lo, hi = enclosure.decimal_strings(digits)
    reparsed = Enclosure.from_decimal_strings(lo, hi, bits)
    assert reparsed.lo_fraction <= enclosure.lo_fraction
    assert reparsed.hi_fraction >= enclosure.hi_fraction
    assert reparsed.contains(q)


def test_decimal_strings_beyond_the_int_str_limit():
    digits = 5000  # above Python's default 4,300-digit int-to-str limit
    enclosure = Enclosure.from_fraction(Fraction(1, 3), 64)
    lo, hi = enclosure.decimal_strings(digits)
    assert len(lo.partition(".")[2]) == len(hi.partition(".")[2]) == digits
    scale = 10**digits
    assert Fraction(Decimal(lo)) == Fraction(math.floor(enclosure.lo_fraction * scale), scale)
    assert Fraction(Decimal(hi)) == Fraction(math.ceil(enclosure.hi_fraction * scale), scale)
    assert Fraction(Decimal(lo)) <= Fraction(1, 3) <= Fraction(Decimal(hi))


@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    st.integers(min_value=0, max_value=4000),
    st.sampled_from((3, 6)),
)
def test_format_sci_matches_float_text_and_survives_underflow(q, shift, digits):
    x = q / 2**shift
    text = _format_sci(x, digits)
    if x >= Fraction(sys.float_info.min):
        assert text == f"{float(x):.{digits}e}"
    mantissa, _, exponent = text.partition("e")
    assert len(mantissa) == digits + 2 and 1 <= Decimal(mantissa) < 10
    half_unit = Fraction(5, 10 ** (digits + 1)) * Fraction(10) ** int(exponent)
    assert abs(Fraction(Decimal(text)) - x) <= half_unit


@given(rationals, rationals)
def test_certified_order_implies_disjoint(a, b):
    ea, eb = Enclosure.from_fraction(a, 96), Enclosure.from_fraction(b, 96)
    if ea.certified_lt(eb):
        assert a < b
        assert ea.separation(eb) > 0
    if ea.certified_gt(eb):
        assert a > b


@given(rationals, rationals)
def test_cmp_scalar_is_conservative(q, scalar):
    enclosure = Enclosure.from_fraction(q, 96)
    side = enclosure.cmp_scalar(scalar)
    if side > 0:
        assert q > scalar
    elif side < 0:
        assert q < scalar


@given(rationals, precisions)
def test_with_precision_keeps_containment(q, bits):
    enclosure = Enclosure.from_fraction(q, 192)
    coarse = enclosure.with_precision(bits)
    assert coarse.contains(q)
    assert coarse.lo_fraction <= enclosure.lo_fraction
    assert coarse.hi_fraction >= enclosure.hi_fraction


def test_intersect_requires_overlap():
    a = Enclosure.from_fraction_pair(0, 1, 64)
    b = Enclosure.from_fraction_pair(Fraction(1, 2), 2, 64)
    both = a.intersect(b)
    assert both.lo_fraction == Fraction(1, 2) and both.hi_fraction == 1
    c = Enclosure.from_fraction_pair(3, 4, 64)
    with pytest.raises(RoundingError):
        a.intersect(c)


def test_empty_interval_rejected():
    with pytest.raises(RoundingError):
        Enclosure.from_fraction_pair(2, 1, 64)


@settings(max_examples=40)
@given(rationals, rationals, rationals)
def test_arithmetic_chain_containment(a, b, c):
    ea = Enclosure.from_fraction(a, 128)
    eb = Enclosure.from_fraction(b, 128)
    ec = Enclosure.from_fraction(c, 128)
    chained = (ea + eb) * ec - ea
    assert chained.contains((a + b) * c - a)


def _significant_bits(e: Fraction) -> int:
    man = abs(e.numerator)
    if man == 0:
        return 0
    return (man >> ((man & -man).bit_length() - 1)).bit_length()


def _neighbours(e: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """The dyadics with at most ``p`` significant bits just below and just
    above the nonzero dyadic ``e``."""
    man, exp = abs(e.numerator), -(e.denominator.bit_length() - 1)
    zeros = (man & -man).bit_length() - 1
    man, exp = man >> zeros, exp + zeros
    while man.bit_length() < p:
        man, exp = man << 1, exp - 1
    away = Fraction(man + 1) * Fraction(2) ** exp
    toward = Fraction(2 * man - 1 if man == 1 << (p - 1) else 2 * man - 2) * Fraction(2) ** (exp - 1)
    return (-away, -toward) if e < 0 else (toward, away)


def _assert_tight(enclosure: Enclosure, exact_lo: Fraction, exact_hi: Fraction, p: int):
    lo, hi = enclosure.lo_fraction, enclosure.hi_fraction
    for endpoint in (lo, hi):
        assert endpoint.denominator & (endpoint.denominator - 1) == 0  # dyadic
        assert _significant_bits(endpoint) <= p
    assert lo <= exact_lo and hi >= exact_hi
    # no p-bit dyadic fits between an endpoint and the exact value (dyadics
    # accumulate at zero, so an inexact endpoint is never zero)
    assert lo == exact_lo or (lo != 0 and _neighbours(lo, p)[1] > exact_lo)
    assert hi == exact_hi or (hi != 0 and _neighbours(hi, p)[0] < exact_hi)


@given(rationals, st.integers(min_value=2, max_value=192))
def test_from_fraction_rounds_to_the_nearest_outward_dyadic(q, bits):
    _assert_tight(Enclosure.from_fraction(q, bits), q, q, bits)


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv]
)
@given(a=rationals, b=nonzero_rationals, bits=st.integers(min_value=2, max_value=192),
       widen=st.booleans())
def test_arithmetic_rounds_to_the_nearest_outward_dyadic(op, a, b, bits, widen):
    left = Enclosure.from_fraction(a, bits)
    right = Enclosure.from_fraction(b, bits + 17 if widen else bits)
    corners = [
        op(x, y)
        for x in (left.lo_fraction, left.hi_fraction)
        for y in (right.lo_fraction, right.hi_fraction)
    ]
    result = op(left, right)
    assert result.precision_bits == right.precision_bits
    _assert_tight(result, min(corners), max(corners), result.precision_bits)
