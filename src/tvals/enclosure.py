"""Outward-rounded interval arithmetic on arbitrary-precision binary floats.

An :class:`Enclosure` is an immutable pair ``lo <= hi`` of arbitrary-precision
dyadic floats together with the working precision that produced it.  Every
arithmetic operation rounds the lower endpoint toward minus infinity and the
upper endpoint toward plus infinity, so the result is guaranteed to contain
the exact image of the operand intervals.  The rounding drift per primitive
operation is at most one unit in the last place at the recorded precision.

The endpoint arithmetic is delegated to :mod:`mpmath.libmp`, which provides
correctly rounded basic operations with directed rounding modes.  All state
is carried in the instances; the module holds no mutable globals, so every
function here is safe to call concurrently.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Union

from mpmath import libmp

__all__ = ["Enclosure", "RoundingError"]

_DOWN = "f"  # toward minus infinity
_UP = "c"  # toward plus infinity

_SPECIAL_EXPS = (getattr(libmp, "finf", None), getattr(libmp, "fninf", None), getattr(libmp, "fnan", None))

ScalarLike = Union[int, Fraction]


class RoundingError(ArithmeticError):
    """Raised when an interval operation is undefined (e.g. division by an
    interval containing zero) or when a non-finite endpoint would arise."""


def _raw_from_fraction(value: Fraction, prec: int, rnd: str):
    return libmp.from_rational(value.numerator, value.denominator, prec, rnd)


def _raw_to_fraction(x) -> Fraction:
    """Exact rational value of a finite raw mpf tuple."""
    if x in _SPECIAL_EXPS:
        raise RoundingError("non-finite endpoint")
    sign, man, exp, _ = x
    if man == 0 and exp != 0:
        raise RoundingError("non-finite endpoint")
    mag = Fraction(int(man)) * (Fraction(2) ** exp)
    return -mag if sign else mag


def _cmp_raw_fraction(x, q: Fraction) -> int:
    """Exact three-way comparison of a raw mpf endpoint with a rational."""
    diff = _raw_to_fraction(x) - q
    if diff < 0:
        return -1
    if diff > 0:
        return 1
    return 0


class Enclosure:
    """A closed interval ``[lo, hi]`` certified to contain an exact real value.

    Instances are immutable.  ``precision_bits`` records the working precision
    of the binary endpoints; it propagates through arithmetic as the maximum
    of the operand precisions.
    """

    __slots__ = ("_lo", "_hi", "precision_bits")

    def __init__(self, lo, hi, precision_bits: int):
        if precision_bits < 2:
            raise ValueError("precision_bits must be at least 2")
        self._lo = lo
        self._hi = hi
        self.precision_bits = precision_bits
        if libmp.mpf_gt(lo, hi):
            raise RoundingError("empty interval: lo > hi")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fraction(cls, value: ScalarLike, precision_bits: int) -> "Enclosure":
        """Tightest representable interval around an exact rational."""
        value = Fraction(value)
        lo = _raw_from_fraction(value, precision_bits, _DOWN)
        hi = _raw_from_fraction(value, precision_bits, _UP)
        return cls(lo, hi, precision_bits)

    @classmethod
    def from_fraction_pair(
        cls, lo: ScalarLike, hi: ScalarLike, precision_bits: int
    ) -> "Enclosure":
        """Interval with rational endpoints, rounded outward."""
        lo_f = _raw_from_fraction(Fraction(lo), precision_bits, _DOWN)
        hi_f = _raw_from_fraction(Fraction(hi), precision_bits, _UP)
        return cls(lo_f, hi_f, precision_bits)

    @classmethod
    def exact_int(cls, value: int, precision_bits: int = 8) -> "Enclosure":
        """Degenerate interval at an integer (exact at any precision)."""
        raw = libmp.from_int(value)
        return cls(raw, raw, max(precision_bits, value.bit_length() + 2))

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
        return _raw_to_fraction(self._lo)

    @property
    def hi_fraction(self) -> Fraction:
        return _raw_to_fraction(self._hi)

    def width(self) -> Fraction:
        """Exact width ``hi - lo``."""
        return self.hi_fraction - self.lo_fraction

    def midpoint(self) -> Fraction:
        return (self.lo_fraction + self.hi_fraction) / 2

    def contains(self, value: Union[ScalarLike, "Enclosure"]) -> bool:
        if isinstance(value, Enclosure):
            return (
                _cmp_raw_fraction(self._lo, value.lo_fraction) <= 0
                and _cmp_raw_fraction(self._hi, value.hi_fraction) >= 0
            )
        q = Fraction(value)
        return _cmp_raw_fraction(self._lo, q) <= 0 and _cmp_raw_fraction(self._hi, q) >= 0

    def overlaps(self, other: "Enclosure") -> bool:
        return not (self.certified_lt(other) or other.certified_lt(self))

    def certified_lt(self, other: "Enclosure") -> bool:
        """True when every point of ``self`` is below every point of ``other``."""
        return libmp.mpf_lt(self._hi, other._lo)

    def certified_gt(self, other: "Enclosure") -> bool:
        return libmp.mpf_gt(self._lo, other._hi)

    def cmp_scalar(self, value: ScalarLike) -> int:
        """-1 if certainly below ``value``, +1 if certainly above, else 0."""
        q = Fraction(value)
        if _cmp_raw_fraction(self._hi, q) < 0:
            return -1
        if _cmp_raw_fraction(self._lo, q) > 0:
            return 1
        return 0

    def is_positive(self) -> bool:
        return libmp.mpf_gt(self._lo, libmp.fzero)

    def is_negative(self) -> bool:
        return libmp.mpf_lt(self._hi, libmp.fzero)

    def separation(self, other: "Enclosure") -> Fraction:
        """Certified lower bound on ``|self - other|`` (zero when overlapping)."""
        if self.certified_lt(other):
            return other.lo_fraction - self.hi_fraction
        if other.certified_lt(self):
            return self.lo_fraction - other.hi_fraction
        return Fraction(0)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _join_prec(self, other: "Enclosure") -> int:
        return max(self.precision_bits, other.precision_bits)

    def __add__(self, other: "Enclosure") -> "Enclosure":
        p = self._join_prec(other)
        return Enclosure(
            libmp.mpf_add(self._lo, other._lo, p, _DOWN),
            libmp.mpf_add(self._hi, other._hi, p, _UP),
            p,
        )

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        p = self._join_prec(other)
        return Enclosure(
            libmp.mpf_sub(self._lo, other._hi, p, _DOWN),
            libmp.mpf_sub(self._hi, other._lo, p, _UP),
            p,
        )

    def __neg__(self) -> "Enclosure":
        return Enclosure(libmp.mpf_neg(self._hi), libmp.mpf_neg(self._lo), self.precision_bits)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        p = self._join_prec(other)
        # sign-determined cases avoid the four-corner scan (raw mpf sign
        # field: 0 for >= 0, 1 for < 0)
        if self._lo[0] == 0 and other._lo[0] == 0:
            return Enclosure(
                libmp.mpf_mul(self._lo, other._lo, p, _DOWN),
                libmp.mpf_mul(self._hi, other._hi, p, _UP),
                p,
            )
        if self._hi[0] == 1 and other._lo[0] == 0:
            return Enclosure(
                libmp.mpf_mul(self._lo, other._hi, p, _DOWN),
                libmp.mpf_mul(self._hi, other._lo, p, _UP),
                p,
            )
        if other._hi[0] == 1 and self._lo[0] == 0:
            return Enclosure(
                libmp.mpf_mul(self._hi, other._lo, p, _DOWN),
                libmp.mpf_mul(self._lo, other._hi, p, _UP),
                p,
            )
        return self._corner_hull(other, libmp.mpf_mul, p)

    def __truediv__(self, other: "Enclosure") -> "Enclosure":
        if not (other.is_positive() or other.is_negative()):
            raise RoundingError("division by an interval containing zero")
        return self._corner_hull(other, libmp.mpf_div, self._join_prec(other))

    def _corner_hull(self, other: "Enclosure", op, p: int) -> "Enclosure":
        """Outward hull of the directed-rounded ``op`` over the four
        endpoint pairs (the image of a product or quotient of intervals)."""
        lo = hi = None
        for a in (self._lo, self._hi):
            for b in (other._lo, other._hi):
                down = op(a, b, p, _DOWN)
                up = op(a, b, p, _UP)
                if lo is None or libmp.mpf_lt(down, lo):
                    lo = down
                if hi is None or libmp.mpf_gt(up, hi):
                    hi = up
        return Enclosure(lo, hi, p)

    def pow_int(self, exponent: int) -> "Enclosure":
        """Integer power of the interval (image of the power map)."""
        if exponent == 0:
            return Enclosure.exact_int(1, self.precision_bits)
        if exponent < 0:
            return Enclosure.exact_int(1, self.precision_bits) / self.pow_int(-exponent)
        p = self.precision_bits
        lo_neg = libmp.mpf_lt(self._lo, libmp.fzero)
        hi_pos = libmp.mpf_gt(self._hi, libmp.fzero)
        if lo_neg and hi_pos and exponent % 2 == 0:
            # straddles zero with an even exponent: minimum is zero
            c1 = libmp.mpf_pow_int(self._lo, exponent, p, _UP)
            c2 = libmp.mpf_pow_int(self._hi, exponent, p, _UP)
            hi = c1 if libmp.mpf_gt(c1, c2) else c2
            return Enclosure(libmp.fzero, hi, p)
        if not lo_neg or exponent % 2 == 1:
            # monotone increasing on the relevant range
            return Enclosure(
                libmp.mpf_pow_int(self._lo, exponent, p, _DOWN),
                libmp.mpf_pow_int(self._hi, exponent, p, _UP),
                p,
            )
        # entirely non-positive, even exponent: decreasing
        return Enclosure(
            libmp.mpf_pow_int(self._hi, exponent, p, _DOWN),
            libmp.mpf_pow_int(self._lo, exponent, p, _UP),
            p,
        )

    def scale_pow2(self, shift: int) -> "Enclosure":
        """Exact multiplication by ``2**shift``."""
        return Enclosure(
            libmp.mpf_shift(self._lo, shift),
            libmp.mpf_shift(self._hi, shift),
            self.precision_bits,
        )

    def widen(self, radius: ScalarLike) -> "Enclosure":
        """Symmetric outward padding by a non-negative rational radius."""
        r = Fraction(radius)
        if r < 0:
            raise ValueError("radius must be non-negative")
        if r == 0:
            return self
        p = self.precision_bits
        rad_lo = _raw_from_fraction(r, p, _UP)
        return Enclosure(
            libmp.mpf_sub(self._lo, rad_lo, p, _DOWN),
            libmp.mpf_add(self._hi, rad_lo, p, _UP),
            p,
        )

    def hull(self, other: "Enclosure") -> "Enclosure":
        p = self._join_prec(other)
        lo = self._lo if libmp.mpf_lt(self._lo, other._lo) else other._lo
        hi = self._hi if libmp.mpf_gt(self._hi, other._hi) else other._hi
        return Enclosure(lo, hi, p)

    def intersect(self, other: "Enclosure") -> "Enclosure":
        """Intersection; raises :class:`RoundingError` when disjoint."""
        p = self._join_prec(other)
        lo = self._lo if libmp.mpf_gt(self._lo, other._lo) else other._lo
        hi = self._hi if libmp.mpf_lt(self._hi, other._hi) else other._hi
        return Enclosure(lo, hi, p)

    def with_precision(self, precision_bits: int) -> "Enclosure":
        """Re-round the endpoints outward at a (usually lower) precision."""
        return Enclosure(
            libmp.mpf_pos(self._lo, precision_bits, _DOWN),
            libmp.mpf_pos(self._hi, precision_bits, _UP),
            precision_bits,
        )

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
        lo_scaled = self.lo_fraction * scale
        hi_scaled = self.hi_fraction * scale
        lo_units = lo_scaled.numerator // lo_scaled.denominator
        hi_units = -((-hi_scaled.numerator) // hi_scaled.denominator)
        return (
            _format_scaled_decimal(lo_units, digits),
            _format_scaled_decimal(hi_units, digits),
        )

    def display(self, digits: int = 20) -> str:
        lo_s, hi_s = self.decimal_strings(digits)
        return f"[{lo_s}, {hi_s}]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Enclosure({libmp.to_str(self._lo, 20)}, {libmp.to_str(self._hi, 20)}, "
            f"bits={self.precision_bits})"
        )

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


def _format_scaled_decimal(units: int, digits: int) -> str:
    """Render ``units / 10**digits`` as a plain decimal string."""
    sign = "-" if units < 0 else ""
    units = abs(units)
    if digits == 0:
        return f"{sign}{units}"
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"

