"""Outward-rounded interval arithmetic on exact dyadic endpoints.

An :class:`Enclosure` is an immutable pair ``lo <= hi`` of exact dyadic
rationals (held as :class:`~fractions.Fraction`) together with the working
precision that produced it.  Every arithmetic operation computes its exact
result on the endpoints and rounds it once, through :func:`_round`, to at
most ``precision_bits`` significant bits: the lower endpoint toward minus
infinity and the upper endpoint toward plus infinity.  The result therefore
contains the exact image of the operand intervals, and each endpoint is the
nearest such dyadic, so the drift per primitive operation is at most one
unit in the last place at the recorded precision.

All state is carried in the instances; the module holds no mutable
globals, so every function here is safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
import sys
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import Union

__all__ = ["Enclosure", "RoundingError"]

ScalarLike = Union[int, Fraction]


class RoundingError(ArithmeticError):
    """Raised when an interval operation is undefined (e.g. division by an
    interval containing zero) or would produce an empty interval."""


def _round(q: Fraction, prec: int, up: bool) -> Fraction:
    """The dyadic rational with at most ``prec`` significant bits nearest to
    ``q`` on its upper side (``up``) or its lower side."""
    num, den = q.numerator, q.denominator
    if num == 0:
        return q
    mag = -num if num < 0 else num
    # mag * 2**shift / den lies in (2**(prec-1), 2**(prec+1))
    shift = prec - mag.bit_length() + den.bit_length()
    if shift >= 0:
        man, rem = divmod(mag << shift, den)
    else:
        man, rem = divmod(mag, den << -shift)
    if man.bit_length() > prec:
        rem = rem or man & 1
        man >>= 1
        shift -= 1
    if rem and up == (num > 0):
        man += 1  # away from zero; 2**prec still has one significant bit
    if num < 0:
        man = -man
    return Fraction(man, 1 << shift) if shift >= 0 else Fraction(man << -shift)


def _outward(lo: Fraction, hi: Fraction, prec: int) -> "Enclosure":
    """Enclosure of ``[lo, hi]`` with both endpoints rounded outward."""
    return Enclosure(_round(lo, prec, False), _round(hi, prec, True), prec)


class Enclosure:
    """A closed interval ``[lo, hi]`` certified to contain an exact real value.

    Instances are immutable.  ``precision_bits`` records the working precision
    of the binary endpoints; it propagates through arithmetic as the maximum
    of the operand precisions.
    """

    __slots__ = ("_lo", "_hi", "precision_bits")

    def __init__(self, lo: Fraction, hi: Fraction, precision_bits: int):
        if precision_bits < 2:
            raise ValueError("precision_bits must be at least 2")
        if lo > hi:
            raise RoundingError("empty interval: lo > hi")
        self._lo = lo
        self._hi = hi
        self.precision_bits = precision_bits

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fraction(cls, value: ScalarLike, precision_bits: int) -> "Enclosure":
        """Tightest representable interval around an exact rational."""
        return cls.from_fraction_pair(value, value, precision_bits)

    @classmethod
    def from_fraction_pair(
        cls, lo: ScalarLike, hi: ScalarLike, precision_bits: int
    ) -> "Enclosure":
        """Interval with rational endpoints, rounded outward."""
        return _outward(Fraction(lo), Fraction(hi), precision_bits)

    @classmethod
    def exact_int(cls, value: int, precision_bits: int = 8) -> "Enclosure":
        """Degenerate interval at an integer (exact at any precision)."""
        exact = Fraction(value)
        return cls(exact, exact, max(precision_bits, value.bit_length() + 2))

    @classmethod
    def from_decimal_strings(
        cls, lo: str, hi: str, precision_bits: int
    ) -> "Enclosure":
        """Rebuild an interval from decimal endpoint strings (outward)."""
        return cls.from_fraction_pair(
            Fraction(Decimal(lo)), Fraction(Decimal(hi)), precision_bits
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def lo_fraction(self) -> Fraction:
        return self._lo

    @property
    def hi_fraction(self) -> Fraction:
        return self._hi

    def width(self) -> Fraction:
        """Exact width ``hi - lo``."""
        return self._hi - self._lo

    def midpoint(self) -> Fraction:
        return (self._lo + self._hi) / 2

    def contains(self, value: Union[ScalarLike, "Enclosure"]) -> bool:
        if isinstance(value, Enclosure):
            return self._lo <= value._lo and value._hi <= self._hi
        return self._lo <= value <= self._hi

    def overlaps(self, other: "Enclosure") -> bool:
        return not (self.certified_lt(other) or other.certified_lt(self))

    def certified_lt(self, other: "Enclosure") -> bool:
        """True when every point of ``self`` is below every point of ``other``."""
        return self._hi < other._lo

    def certified_gt(self, other: "Enclosure") -> bool:
        return self._lo > other._hi

    def cmp_scalar(self, value: ScalarLike) -> int:
        """-1 if certainly below ``value``, +1 if certainly above, else 0."""
        if self._hi < value:
            return -1
        if self._lo > value:
            return 1
        return 0

    def is_positive(self) -> bool:
        return self._lo > 0

    def is_negative(self) -> bool:
        return self._hi < 0

    def separation(self, other: "Enclosure") -> Fraction:
        """Certified lower bound on ``|self - other|`` (zero when overlapping)."""
        if self.certified_lt(other):
            return other._lo - self._hi
        if other.certified_lt(self):
            return self._lo - other._hi
        return Fraction(0)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _join_prec(self, other: "Enclosure") -> int:
        return max(self.precision_bits, other.precision_bits)

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return _outward(self._lo + other._lo, self._hi + other._hi, self._join_prec(other))

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return _outward(self._lo - other._hi, self._hi - other._lo, self._join_prec(other))

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self._hi, -self._lo, self.precision_bits)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        return self._corner_hull(other, operator.mul)

    def __truediv__(self, other: "Enclosure") -> "Enclosure":
        if not (other.is_positive() or other.is_negative()):
            raise RoundingError("division by an interval containing zero")
        return self._corner_hull(other, operator.truediv)

    def _corner_hull(self, other: "Enclosure", op) -> "Enclosure":
        """Outward hull of the exact ``op`` over the four endpoint pairs
        (the image of a product or quotient of intervals)."""
        corners = [op(a, b) for a in (self._lo, self._hi) for b in (other._lo, other._hi)]
        return _outward(min(corners), max(corners), self._join_prec(other))

    def pow_int(self, exponent: int) -> "Enclosure":
        """Integer power of the interval (image of the power map)."""
        if exponent == 0:
            return Enclosure.exact_int(1, self.precision_bits)
        if exponent < 0:
            return Enclosure.exact_int(1, self.precision_bits) / self.pow_int(-exponent)
        lo, hi = self._lo**exponent, self._hi**exponent
        if exponent % 2 == 0 and self._lo < 0:
            # an even power falls to zero where the interval reaches it
            lo, hi = (Fraction(0) if self._hi > 0 else hi), max(lo, hi)
        return _outward(lo, hi, self.precision_bits)

    def scale_pow2(self, shift: int) -> "Enclosure":
        """Exact multiplication by ``2**shift``."""
        factor = Fraction(2) ** shift
        return Enclosure(self._lo * factor, self._hi * factor, self.precision_bits)

    def widen(self, radius: ScalarLike) -> "Enclosure":
        """Symmetric outward padding by a non-negative rational radius."""
        r = Fraction(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        if r == 0:
            return self
        return _outward(self._lo - r, self._hi + r, self.precision_bits)

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(
            min(self._lo, other._lo), max(self._hi, other._hi), self._join_prec(other)
        )

    def intersect(self, other: "Enclosure") -> "Enclosure":
        """Intersection; raises :class:`RoundingError` when disjoint."""
        return Enclosure(
            max(self._lo, other._lo), min(self._hi, other._hi), self._join_prec(other)
        )

    def with_precision(self, precision_bits: int) -> "Enclosure":
        """Re-round the endpoints outward at a (usually lower) precision."""
        return _outward(self._lo, self._hi, precision_bits)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def decimal_strings(self, digits: int) -> tuple[str, str]:
        """Outward decimal endpoint strings with ``digits`` fractional digits.

        The returned pair brackets the interval: the first string is the
        largest ``digits``-digit decimal not above ``lo`` and the second the
        smallest not below ``hi``.
        """
        scale = 10**digits
        return (
            _format_scaled_decimal(math.floor(self._lo * scale), digits),
            _format_scaled_decimal(math.ceil(self._hi * scale), digits),
        )

    def display(self, digits: int = 20) -> str:
        lo_s, hi_s = self.decimal_strings(digits)
        return f"[{lo_s}, {hi_s}]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Enclosure({self.display()}, bits={self.precision_bits})"

    # written out, not derived from ``indices._Frozen``: arithmetic builds an
    # enclosure per operation, so ``__init__`` sets the fields directly
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Enclosure):
            return NotImplemented
        return (
            self._lo == other._lo
            and self._hi == other._hi
            and self.precision_bits == other.precision_bits
        )

    def __hash__(self) -> int:
        return hash((self._lo, self._hi, self.precision_bits))


# below the smallest int-to-str limit Python accepts (640 digits), so long
# decimals never depend on ``sys.set_int_max_str_digits``
_STR_CHUNK = 512


def _zero_padded(value: int, width: int) -> str:
    """``value`` (``0 <= value < 10**width``) as exactly ``width`` digits,
    converted in chunks below the int-to-str limit."""
    if width <= _STR_CHUNK:
        return f"{value:0{width}d}"
    low_width = width // 2
    high, low = divmod(value, 10**low_width)
    return _zero_padded(high, width - low_width) + _zero_padded(low, low_width)


def _format_scaled_decimal(units: int, digits: int) -> str:
    """Render ``units / 10**digits`` as a plain decimal string."""
    sign = "-" if units < 0 else ""
    units = abs(units)
    if digits == 0:
        return f"{sign}{units}"
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{_zero_padded(frac, digits)}"


def _format_sci(x: Fraction, digits: int = 3) -> str:
    """``x > 0`` in ``%.{digits}e`` form, also where ``float(x)`` underflows.

    Where the float is normal this is the float's own text; below that the
    ``digits + 1`` significant digits are the exact quotient rounded
    half-even.
    """
    if x >= Fraction(sys.float_info.min):
        return f"{float(x):.{digits}e}"
    quotient = Context(prec=digits + 1).divide(Decimal(x.numerator), Decimal(x.denominator))
    return f"{quotient:.{digits}e}"


def _format_lower(x: Fraction) -> str:
    """``x >= 0`` in ``%.6e`` form rounded down, a certified lower bound, also
    where ``float(x)`` underflows; the float's own text wherever that lies at
    or below ``x``."""
    if x == 0:
        return "0.000000e+00"
    quotient = Context(prec=7, rounding=ROUND_FLOOR).divide(
        Decimal(x.numerator), Decimal(x.denominator)
    )
    mantissa, exponent = f"{quotient:.6e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"
