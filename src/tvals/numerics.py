"""Certified numeric building blocks: constants, exact sequences, tail expansions.

Everything here is either exact integer/rational arithmetic or an
:class:`~tvals.enclosure.Enclosure` produced with explicit remainder bounds:

* ``const_pi`` sums a Machin arctangent combination in fixed point; the
  alternating-series remainder is bounded by the first omitted term.
* ``const_catalan`` combines a central-binomial series with a logarithm
  evaluated by an inverse-hyperbolic-tangent series; both have positive terms
  with certified geometric term ratios (1/4 and 1/3), giving closed-form
  tail bounds.
* ``base_expansion`` gives the depth-one tail expansions as integer views,
  each coefficient a ratio of a tangent number and a binomial.  The tangent
  numbers come from an integer triangle, which ``bernoulli_fraction``
  reads too.

All functions are pure; memoization caches only deterministic values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .enclosure import Enclosure
from .errors import DivergentError
from .indices import _Frozen

__all__ = [
    "PrecisionBudget",
    "bernoulli_fraction",
    "euler_int",
    "const_pi",
    "const_catalan",
    "base_expansion",
    "evaluate_expansion",
]

_GUARD_BITS = 32


class PrecisionBudget(_Frozen):
    """Resource ceiling for adaptive evaluation.

    ``start_bits`` is the first precision rung and ``max_bits`` the ceiling
    (rungs double).  Instances are immutable and hashable.
    """

    __slots__ = ("start_bits", "max_bits")
    start_bits: int
    max_bits: int

    def __init__(self, start_bits: int = 64, max_bits: int = 4096) -> None:
        if start_bits < 8:
            raise ValueError("start_bits must be at least 8")
        if max_bits < start_bits:
            raise ValueError("max_bits must be at least start_bits")
        super().__init__(start_bits, max_bits)

    # written out: budgets key every memo, and the base's derived hash and
    # equality are 2x slower
    def __hash__(self) -> int:
        return hash((self.start_bits, self.max_bits))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return (self.start_bits, self.max_bits) == (other.start_bits, other.max_bits)
        return NotImplemented

    def rungs(self) -> Iterator[int]:
        """Yield precision rungs ``start, 2*start, ...`` capped at ``max_bits``."""
        bits = self.start_bits
        while True:
            yield bits
            if bits >= self.max_bits:
                return
            bits = min(bits * 2, self.max_bits)


# ----------------------------------------------------------------------
# exact integer sequences
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _tangent_numbers(n: int) -> tuple[int, ...]:
    """The tangent numbers ``T_1, ..., T_n``, the integers with
    ``tan x = sum T_r x**(2r-1) / (2r-1)!``, by the O(n**2) integer
    triangle of Brent and Harvey, "Fast computation of Bernoulli, tangent
    and secant numbers" (arXiv:1108.0286).  Entry ``r`` reads only the
    entries up to ``r`` and the passes beyond ``r`` leave it alone, so
    ``T_r`` is the same for every ``n >= r``."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1 : n + 1])


@lru_cache(maxsize=None)
def bernoulli_fraction(n: int) -> Fraction:
    """Exact Bernoulli number ``B_n`` (``B_1 = -1/2`` convention).

    The even ones come from the tangent numbers:
    ``B_2h = (-1)**(h-1) * 2h * T_h / (4**h * (4**h - 1))``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    half = n // 2
    four = 4**half
    tangent = _tangent_numbers(half)[-1]
    return Fraction((-1) ** (half - 1) * n * tangent, four * (four - 1))


@lru_cache(maxsize=None)
def euler_int(n: int) -> int:
    """Exact Euler number ``E_n`` (secant coefficients; odd entries vanish)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    if n % 2 == 1:
        return 0
    half = n // 2
    acc = 0
    for k in range(half):
        acc += math.comb(n, 2 * k) * euler_int(2 * k)
    return -acc


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------
def _atan_inv_fixed(m: int, shift: int) -> tuple[int, int]:
    """Bracket ``arctan(1/m)`` scaled by ``2**shift`` (alternating series)."""
    one = 1 << shift
    m2 = m * m
    lo = 0
    hi = 0
    denom_pow = m  # m**(2j+1)
    j = 0
    while True:
        d = (2 * j + 1) * denom_pow
        if d > one:
            break
        if j % 2 == 0:
            lo += one // d
            hi += -((-one) // d)
        else:
            lo -= -((-one) // d)
            hi -= one // d
        denom_pow *= m2
        j += 1
    # alternating decreasing terms: the partial-sum error is at most the
    # first omitted term, which the loop guard bounded by one unit
    return lo - 1, hi + 1


@lru_cache(maxsize=None)
def const_pi(precision_bits: int) -> Enclosure:
    """Certified enclosure of pi via ``16 arctan(1/5) - 4 arctan(1/239)``."""
    wp = precision_bits + _GUARD_BITS
    a_lo, a_hi = _atan_inv_fixed(5, wp)
    b_lo, b_hi = _atan_inv_fixed(239, wp)
    lo = 16 * a_lo - 4 * b_hi
    hi = 16 * a_hi - 4 * b_lo
    scale = Fraction(1, 1 << wp)
    return Enclosure.from_fraction_pair(lo * scale, hi * scale, precision_bits)


def _sqrt3_fixed(shift: int) -> tuple[int, int]:
    """Bracket ``sqrt(3)`` scaled by ``2**shift``."""
    s = math.isqrt(3 << (2 * shift))
    return s, s + 1


@lru_cache(maxsize=None)
def const_catalan(precision_bits: int) -> Enclosure:
    """Certified enclosure of Catalan's constant.

    Uses the central-binomial acceleration
    ``G = (3/8) * sum 1/((2n+1)^2 C(2n,n)) + (pi/8) * log(2 + sqrt 3)``
    with ``log(2 + sqrt 3) = (2/sqrt 3) * sum 1/(3^j (2j+1))``.  Successive
    term ratios are at most 1/4 and 1/3, so the truncation tails are bounded
    by a fixed multiple of the first omitted term.
    """
    wp = precision_bits + _GUARD_BITS
    one = 1 << wp

    # S1 = sum of 1 / ((2n+1)^2 * C(2n,n)); term ratio <= 1/4
    s1_lo = 0
    s1_hi = 0
    binom = 1  # C(2n, n)
    n = 0
    while True:
        d = (2 * n + 1) ** 2 * binom
        if d > one:
            s1_hi += 2  # tail <= (4/3) * first omitted term < 2 units
            break
        s1_lo += one // d
        s1_hi += -((-one) // d)
        binom = binom * (2 * n + 1) * (2 * n + 2) // ((n + 1) * (n + 1))
        n += 1

    # S2 = sum of 1 / (3^j (2j+1)); term ratio <= 1/3
    s2_lo = 0
    s2_hi = 0
    pow3 = 1
    j = 0
    while True:
        d = pow3 * (2 * j + 1)
        if d > one:
            s2_hi += 2  # tail <= (3/2) * first omitted term < 2 units
            break
        s2_lo += one // d
        s2_hi += -((-one) // d)
        pow3 *= 3
        j += 1

    scale = Fraction(1, one)
    s1 = Enclosure.from_fraction_pair(s1_lo * scale, s1_hi * scale, wp)
    s2 = Enclosure.from_fraction_pair(s2_lo * scale, s2_hi * scale, wp)
    r3_lo, r3_hi = _sqrt3_fixed(wp)
    sqrt3 = Enclosure.from_fraction_pair(r3_lo * scale, r3_hi * scale, wp)
    pi = const_pi(wp)

    two = Enclosure.exact_int(2, wp)
    log_term = two * s2 / sqrt3
    eight = Enclosure.exact_int(8, wp)
    three = Enclosure.exact_int(3, wp)
    catalan = three * s1 / eight + pi * log_term / eight
    return catalan.with_precision(precision_bits)


# ----------------------------------------------------------------------
# odd-power tail expansions
# ----------------------------------------------------------------------
# an expansion as integers over one denominator, reduced:
# ``(den, ((power, num), ...), bound)`` for coefficients ``num/den`` in
# increasing power and the remainder constant ``bound/den``
_View = tuple[int, tuple[tuple[int, int], ...], int]


@lru_cache(maxsize=None)
def base_expansion(k: int, order: int) -> _View:
    """Asymptotic expansion of ``sum_{m>n} (2m-1)^(-k)`` in ``w = 1/(2n+1)``.

    Returns a reduced ``_View`` of the coefficients of the powers
    ``p <= order`` of ``w`` and of a constant ``A`` such that the
    truncation error is within ``A * w**(order+1)`` for every ``n >= 1``.
    The coefficients are ``1/(2(k-1))`` at ``w**(k-1)``, ``1/2`` at
    ``w**k`` and the Euler--Maclaurin terms at ``w**(k+2r-1)``,
    ``2**(2r-1) B_2r k(k+1)...(k+2r-2) / (2r)!``, which the tangent numbers
    ``T_r`` give as the integer ratio
    ``c_r = (-1)**(r-1) * T_r * C(k+2r-2, 2r-1) / (2 * (4**r - 1))``.
    The summand is completely monotone, so the Euler--Maclaurin remainder
    is enveloped by the first omitted term ``c_r``; when that term has
    power above ``order + 1`` it is rescaled using ``w <= 1/3``, and so are
    the leading terms that themselves fall beyond the order (large ``k``).
    Writing ``B_2r`` through ``T_r`` changes no value: the coefficients and
    the bound, made of the same omitted terms, are the rationals of the
    Bernoulli form, and a reduced view of given values is unique.
    """
    if k < 2:
        raise DivergentError(f"odd-power tail diverges for exponent {k}")
    if order < 1:
        raise ValueError("order must be positive")
    # (power, numerator, denominator) of each term up to the first omitted
    # c_r; k=2 omits c_r first at r = (order+1)//2, larger k sooner
    tangents = _tangent_numbers((order + 1) // 2)
    terms = [(k - 1, 1, 2 * (k - 1)), (k, 1, 2)]
    for r, tangent in enumerate(tangents, 1):
        power = k + 2 * r - 1
        num = (-1) ** (r - 1) * tangent * math.comb(power - 1, 2 * r - 1)
        terms.append((power, num, 2 * (4**r - 1)))
        if power > order:
            break
    # the omitted terms join the bound as |num| / (den * 3**(power-cut));
    # each term reduced, so that their common denominator stays small
    cut = order + 1
    parts = []
    for p, num, d in terms:
        if p > order:
            num, d = abs(num), d * 3 ** (p - cut)
        g = math.gcd(num, d)
        parts.append((p, num // g, d // g))
    den = math.lcm(*(d for _, _, d in parts))
    nums = [(p, num * (den // d)) for p, num, d in parts if p <= order]
    bound = sum(num * (den // d) for p, num, d in parts if p > order)
    g = math.gcd(den, bound, *(num for _, num in nums))
    return den // g, tuple((p, num // g) for p, num in nums), bound // g


def evaluate_expansion(view: _View, order: int, n: int, wp: int) -> tuple[int, int]:
    """Scaled seeds of a ``w``-power expansion at ``w = 1/(2n+1)``.

    ``view`` is a ``_View`` with no power above ``order + 1``.  With ``S``
    the sum and ``R = (bound/den) * w**(order+1)`` the remainder, returns
    the integers ``floor((S - R) * 2**wp)`` and ``ceil((S + R) * 2**wp)``.
    Both are exact: Horner's rule in ``m = 2n+1`` on the numerators, then
    one floor division each by ``den * m**(order+1)``.
    """
    den, coefficients, bound = view
    m = 2 * n + 1
    acc = 0
    top = 0
    for power, num in coefficients:
        acc = acc * m ** (power - top) + num
        top = power
    total = acc * m ** (order + 1 - top)
    scale = den * m ** (order + 1)
    return ((total - bound) << wp) // scale, -((-(total + bound) << wp) // scale)
