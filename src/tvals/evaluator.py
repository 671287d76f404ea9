"""Certified evaluation of nested odd-denominator sums and their tails.

Two independent evaluators are provided:

* :func:`evaluate` — the production path.  For each prefix of the index it
  builds an exact rational asymptotic expansion of the tail function in
  ``w = 1/(2n+1)``, seeds all prefixes at a large offset where the expansion
  remainder is provably small, and walks the exact tail recurrence
  ``t(k)_n = t(k)_{n+1} + (2n+1)^(-k_d) * t(k_1..k_{d-1})_{n+1}`` downward in
  scaled-integer fixed point, flooring lower and ceiling upper endpoints.
  A planner picks the expansion order and seed offset by pricing the
  recurrence steps against the cost of building the expansions, and a
  precision ladder retries with more bits until the requested width is met.
* :func:`evaluate_direct` — the reference oracle.  It sums the defining
  nested series directly in scaled-integer fixed point with directed
  rounding and adds an explicit rational over-estimate of the discarded
  region, using only integer arithmetic.

The expansion machinery rests on three audited facts: the Euler--Maclaurin
remainder for a completely monotone summand is enveloped by the first
omitted term; ``sum_{m>n} (2m-1)**(-i) <= (3/2) * (2n+1)**(1-i)`` for
``i >= 2, n >= 1``; and the partial-fraction split of
``(2j-1)**(-s) (2j+1)**(-q)`` telescopes exactly at the pole pair of order
one.  Everything else is exact rational bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .enclosure import Enclosure, _format_sci
from .errors import BudgetExceededError, DivergentError
from .indices import MultiIndex, ValueSpec
from .numerics import (
    _GUARD_BITS,
    PrecisionBudget,
    base_expansion,
    evaluate_expansion,
)

__all__ = [
    "EvalRequest",
    "DEFAULT_TARGET_WIDTH",
    "evaluate",
    "evaluate_spec",
    "evaluate_direct",
    "evaluate_direct_many",
    "odd_power_tail",
    "prefix_expansion",
]

DEFAULT_TARGET_WIDTH = Fraction(1, 10**30)

_LN2_UPPER = Fraction(6_931_472, 10**7)  # rational upper bound on log(2)


@dataclass(frozen=True)
class EvalRequest:
    """What to evaluate and how hard to try."""

    spec: ValueSpec
    target_width: Fraction = DEFAULT_TARGET_WIDTH
    budget: PrecisionBudget = field(default_factory=PrecisionBudget)

    def __post_init__(self) -> None:
        if self.target_width <= 0:
            raise ValueError("target_width must be positive")


# ----------------------------------------------------------------------
# expansion construction
# ----------------------------------------------------------------------
def _partial_fraction(s: int, q: int) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Split ``(2j-1)**(-s) (2j+1)**(-q)`` into pole parts at each factor.

    Returns ``(alpha, gamma)`` with
    ``(2j-1)**(-s) (2j+1)**(-q) =
    sum_i alpha[i] (2j-1)**(-i) + sum_i gamma[i] (2j+1)**(-i)``.
    The order-one coefficients cancel: ``alpha[1] + gamma[1] = 0``.
    """
    alpha = {
        s - u: Fraction((-1) ** u * math.comb(q + u - 1, u), 2 ** (q + u))
        for u in range(s)
    }
    gamma = {
        q - v: Fraction((-1) ** s * math.comb(s + v - 1, v), 2 ** (s + v))
        for v in range(q)
    }
    return alpha, gamma


def _step_expansion(
    coeffs: tuple[tuple[int, Fraction], ...],
    bound: Fraction,
    s: int,
    order: int,
) -> tuple[tuple[tuple[int, Fraction], ...], Fraction]:
    """Expansion of ``n -> sum_{j>n} (2j-1)**(-s) f(j)`` given one for ``f``.

    Valid for every ``n >= 1``.  Uses the partial-fraction split per power,
    the exact telescoping of the cancelling order-one poles, and the exact
    identity ``sum_{j>n} (2j+1)**(-i) = T_i(n) - w**i``.

    The map is linear in the input coefficients, so the ``T_i`` terms are
    gathered per pole order ``i`` (``weight[i]`` for the coefficients,
    ``mass[i]`` for the bound) and each ``base_expansion(i)`` is added once,
    which keeps the exact work at O(order**2).
    """
    new: dict[int, Fraction] = {}
    weight: dict[int, Fraction] = {}
    mass: dict[int, Fraction] = {}
    # the summand's own remainder, summed over j > n
    new_bound = Fraction(3, 2) / Fraction(3 ** (s - 1)) * bound
    for q, d in coeffs:
        if d == 0:
            continue
        alpha, gamma = _partial_fraction(s, q)
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
                # T_i(n) <= (3/2) w**(i-1) <= (3/2) 3**(order+1-(i-1)) w**(order+1)
                new_bound += abs(d * c) * Fraction(3, 2) / Fraction(
                    3 ** (i - 1 - (order + 1))
                )
                continue
            dc = d * c
            weight[i] = weight.get(i, Fraction(0)) + dc
            mass[i] = mass.get(i, Fraction(0)) + abs(dc)
    for i, e in weight.items():
        base_coeffs, base_bound = base_expansion(i, order)
        for p, v in base_coeffs:
            new[p] = new.get(p, Fraction(0)) + e * v
        new_bound += mass[i] * base_bound
    cleaned = tuple(sorted((p, v) for p, v in new.items() if v != 0))
    return cleaned, new_bound


@lru_cache(maxsize=None)
def prefix_expansion(
    prefix: MultiIndex, order: int
) -> tuple[tuple[tuple[int, Fraction], ...], Fraction]:
    """Exact expansion of ``n -> t(prefix)_n`` in ``w = 1/(2n+1)``.

    Returns ``(coefficients, bound)``: the truncation error is within
    ``bound * w**(order+1)`` for every ``n >= 1``.
    """
    if len(prefix) == 0:
        raise ValueError("the empty prefix is the constant 1; no expansion")
    if prefix[0] < 2:
        raise DivergentError(f"inadmissible prefix {prefix}")
    if len(prefix) == 1:
        return base_expansion(prefix[0], order)
    inner_coeffs, inner_bound = prefix_expansion(prefix[:-1], order)
    return _step_expansion(inner_coeffs, inner_bound, prefix[-1], order)


# ----------------------------------------------------------------------
# accelerated evaluation
# ----------------------------------------------------------------------
def _kth_root_ceil(x: int, k: int) -> int:
    if x <= 1:
        return 1
    # integer-only bisection; float pow overflows for very large x
    lo, hi = 1, 1 << -(-x.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


_ORDER_SCHEDULE = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
_MAX_STEPS = 20_000
# Cost of building the expansions of one order, per order**3, in units of
# one recurrence step of one prefix at 512 bits.  Measured cold on CPython
# 3.11 (2 vCPU), building every prefix of a depth-2 to depth-4 index takes
# 0.5-2.8 units per order**3 at orders 16-32 and 0.1-0.6 at orders 64-128,
# about 11-55 units per order**2.  The cubic charge is kept: ``48 *
# order**2`` chooses the same plans at widths 1e-30 to 1e-300, and ``16 *
# order**2`` moves 1e-30 and 1e-100 to higher orders that run slower.  The
# depth-1 expansions are charged the same so that a cheap base expansion
# never pulls in Bernoulli numbers of a high order.
_BUILD_COST = 2


def _plan(index: MultiIndex, offset: int, tau: Fraction) -> tuple[int, int]:
    """Choose expansion order and seed offset for an analytic error near
    ``tau/4``.  Heuristic only: the returned enclosure certifies itself.

    A plan costs ``d * steps`` recurrence steps plus ``_BUILD_COST *
    order**3`` for building its expansions.  Orders are priced upward and
    the walk stops before building one whose build alone costs more than
    the best plan so far.  A plan within ``_MAX_STEPS`` steps is feasible;
    if none is, the priced plan with the fewest steps runs ``_MAX_STEPS``
    steps and the width check decides.
    """
    d = len(index)
    margin = Fraction(6) ** d  # headroom for error growth in the recurrence
    best: Optional[tuple[int, int, int]] = None  # (cost, order, seed), feasible
    nearest: Optional[tuple[int, int]] = None  # (seed, order), fewest steps
    for order in _ORDER_SCHEDULE:
        build = _BUILD_COST * order**3
        if best is not None and build >= best[0]:
            break
        total_bound = Fraction(0)
        for i in range(1, d + 1):
            total_bound += prefix_expansion(index[:i], order)[1]
        ratio = total_bound * margin * 4 / tau
        ratio_int = max(1, -((-ratio.numerator) // ratio.denominator))
        root = _kth_root_ceil(ratio_int, order + 1)
        seed = max(1, offset, root // 2)
        while (2 * seed + 1) ** (order + 1) < ratio_int:
            seed += 1
        if nearest is None or seed < nearest[0]:
            nearest = (seed, order)
        if seed - offset > _MAX_STEPS:
            continue
        cost = d * (seed - offset) + build
        if best is None or cost < best[0]:
            best = (cost, order, seed)
    if best is None:
        return nearest[1], offset + _MAX_STEPS
    return best[1], best[2]


def _evaluate_at(
    index: MultiIndex, offset: int, bits: int, order: int, seed: int
) -> Enclosure:
    """Seed every prefix at ``seed`` and run the exact recurrence down.

    The loop runs in scaled-integer fixed point at scale ``2**wp``: each
    prefix carries an integer lower and upper endpoint.  Every quantity
    involved is nonnegative (the seeds' lower endpoints are clamped at
    zero, which is sound because the true values are positive sums), so a
    step is one floor division for the lower endpoint and one ceiling
    division for the upper, each off by less than one unit in the
    direction that keeps the enclosure.
    """
    wp = bits + _GUARD_BITS
    one = 1 << wp
    # level 0 is the empty prefix, the constant 1
    los = [one]
    his = [one]
    for i in range(1, len(index) + 1):
        coeffs, bound = prefix_expansion(index[:i], order)
        enclosure = evaluate_expansion(coeffs, bound, order, seed, bits)
        lo = enclosure.lo_fraction * one
        hi = enclosure.hi_fraction * one
        los.append(max(0, lo.numerator // lo.denominator))
        his.append(-((-hi.numerator) // hi.denominator))
    levels = range(len(index), 0, -1)  # deepest first: each reads step j+1
    for j in range(seed - 1, offset - 1, -1):
        odd = 2 * j + 1
        for i in levels:
            p = odd ** index[i - 1]
            los[i] += los[i - 1] // p
            his[i] += -((-his[i - 1]) // p)
    return Enclosure.from_fraction_pair(
        Fraction(los[-1], one), Fraction(his[-1], one), wp
    )


def _narrower(a: Optional[Enclosure], b: Enclosure) -> Enclosure:
    if a is None or b.width() < a.width():
        return b
    return a


@lru_cache(maxsize=None)
def _evaluate_cached(
    index: MultiIndex, offset: int, target_width: Fraction, budget: PrecisionBudget
) -> Enclosure:
    if len(index) == 0:
        return Enclosure.exact_int(1, budget.start_bits)
    if index[0] < 2:
        raise DivergentError(
            f"index {index} is inadmissible: the outer sum diverges"
        )
    rungs = list(budget.rungs())
    usable = [b for b in rungs if Fraction(1, 2 ** (b - 10)) <= target_width]
    attempts = usable if usable else [rungs[-1]]
    best: Optional[Enclosure] = None
    for bits in attempts:
        tau = min(target_width, Fraction(1, 2 ** (bits - 10)))
        order, seed = _plan(index, offset, tau)
        enclosure = _evaluate_at(index, offset, bits, order, seed)
        best = _narrower(best, enclosure)
        if best.width() <= target_width:
            return best
    raise BudgetExceededError(
        f"width {_format_sci(best.width())} above target "
        f"{_format_sci(target_width)} for {ValueSpec(index, offset)} "
        f"at {attempts[-1]} bits",
        partial=best,
    )


def evaluate(request: EvalRequest) -> Enclosure:
    """Certified enclosure of the value named by ``request.spec``.

    Deterministic: identical requests return identical enclosures.  Raises
    :class:`DivergentError` for inadmissible indices and
    :class:`BudgetExceededError` (carrying the narrowest partial result)
    when the precision ladder tops out above the target width.
    """
    return _evaluate_cached(
        request.spec.index,
        request.spec.tail_offset,
        Fraction(request.target_width),
        request.budget,
    )


def evaluate_spec(
    spec: ValueSpec,
    target_width: Fraction = DEFAULT_TARGET_WIDTH,
    budget: Optional[PrecisionBudget] = None,
) -> Enclosure:
    """Convenience wrapper around :func:`evaluate`."""
    return evaluate(
        EvalRequest(spec, Fraction(target_width), budget or PrecisionBudget())
    )


def odd_power_tail(k: int, cutoff: int, precision_bits: int) -> Enclosure:
    """Certified enclosure of ``sum_{m > cutoff} (2m-1)**(-k)``.

    The depth-one tail ``t(k)_cutoff``, evaluated to an absolute width of
    about ``precision_bits`` bits below its leading term within the default
    :class:`PrecisionBudget`.  Raises :class:`DivergentError` for ``k <= 1``.
    The result is positive and decreases as ``cutoff`` grows.
    """
    if k <= 1:
        raise DivergentError(f"odd-power tail diverges for exponent {k}")
    lead = Fraction(1, (2 * max(cutoff, 1) + 1) ** (k - 1))
    target_width = lead * Fraction(1, 2**precision_bits) + Fraction(
        1, 2 ** (precision_bits + _GUARD_BITS)
    )
    return evaluate_spec(ValueSpec((k,), cutoff), target_width)


# ----------------------------------------------------------------------
# direct summation oracle
# ----------------------------------------------------------------------
def _discard_bound(exponents: Sequence[int], max_outer: int) -> Fraction:
    """Rational over-estimate of all chains whose outer variable exceeds
    ``max_outer``, via dyadic blocks and an Abel-summed log-power envelope.

    Uses ``sum_{m>n} (2m-1)**(-k) <= (3/2)(2n+1)**(1-k)`` for the outer
    variable and bounds the inner chains over distinct values below ``m`` by
    ``L(m)**(d-1) / (d-1)!`` with ``L(m) <= 1 + log(2m)/2``.
    """
    k = exponents[0]
    d = len(exponents)
    if k < 2:
        raise DivergentError(f"inadmissible index {tuple(exponents)}")
    half_ln2 = _LN2_UPPER / 2

    def tail_at(n: int) -> Fraction:
        return Fraction(3, 2) * Fraction(1, (2 * n + 1) ** (k - 1))

    if d == 1:
        return tail_at(max_outer)
    # L(M * 2**t) <= 1 + log(2M)/2 + t*log(2)/2 <= a + b*t  (rational, exact)
    a = 1 + Fraction((2 * max_outer).bit_length()) * half_ln2
    b = half_ln2
    # Abel summation over blocks (M*2**t, M*2**(t+1)]:
    #   sum_t L(M_{t+1})^{d-1} (T(M_t) - T(M_{t+1}))
    #     = L(M_1)^{d-1} T(M_0) + sum_{t>=1} (L(M_{t+1})^{d-1} - L(M_t)^{d-1}) T(M_t)
    # where the increment of L**(d-1) over one block is at most
    # (d-1) * b * (a + b(t+1))**(d-2) since L grows by at most b per block.
    total = (a + b) ** (d - 1) * tail_at(max_outer)
    decay = Fraction(1, 2 ** (k - 1))
    closure_ratio = decay * (1 + b / a) ** (d - 2)
    if closure_ratio >= 1:
        raise ValueError(
            "term budget too small to certify the discarded region at depth "
            f"{d}; raise max_outer above {max_outer}"
        )
    term = Fraction(0)
    for t in range(1, 41):
        term = (d - 1) * b * (a + b * (t + 1)) ** (d - 2) * tail_at(max_outer * 2**t)
        total += term
        if term < Fraction(1, 2**200):
            break
    total += term * closure_ratio / (1 - closure_ratio)
    return total / math.factorial(d - 1)


def evaluate_direct_many(
    index: MultiIndex,
    offsets: Sequence[int],
    max_outer: int = 1_000_000,
    fixed_bits: int = 80,
) -> dict[int, Enclosure]:
    """Direct nested summation for several tail offsets in one sweep.

    Processes the outer variable ``m = 1..max_outer`` once, maintaining one
    scaled-integer accumulator chain per requested offset with floor/ceiling
    rounding, then adds the discarded-region bound to every upper endpoint.
    """
    if len(index) == 0:
        return {n: Enclosure.exact_int(1) for n in offsets}
    if index[0] < 2:
        raise DivergentError(f"index {index} is inadmissible: the outer sum diverges")
    d = len(index)
    if max_outer < max(offsets) + d + 2:
        raise ValueError("max_outer too small for this depth and offset")
    discard = _discard_bound(index, max_outer)
    one = 1 << fixed_bits
    exps = list(index)
    # chains[c] = [lo_1, hi_1, ..., lo_d, hi_d] for offset offsets[c]
    chains = [[0] * (2 * d) for _ in offsets]
    gates = list(offsets)
    for m in range(1, max_outer + 1):
        odd = 2 * m - 1
        powers = [odd**k for k in exps]
        for chain, gate in zip(chains, gates):
            # update outer levels first so each uses the previous iteration's
            # strictly-smaller inner partial sums
            for j in range(d):
                if j == d - 1:
                    if m <= gate:
                        continue
                    inner_lo = one
                    inner_hi = one
                else:
                    inner_lo = chain[2 * (j + 1)]
                    inner_hi = chain[2 * (j + 1) + 1]
                    if inner_hi == 0:
                        continue
                p = powers[j]
                chain[2 * j] += inner_lo // p
                chain[2 * j + 1] += -((-inner_hi) // p)
    scale = Fraction(1, one)
    out: dict[int, Enclosure] = {}
    for chain, offset in zip(chains, gates):
        lo = chain[0] * scale
        hi = chain[1] * scale + discard
        out[offset] = Enclosure.from_fraction_pair(lo, hi, fixed_bits)
    return out


def evaluate_direct(
    spec: ValueSpec, max_outer: int = 1_000_000, fixed_bits: int = 80
) -> Enclosure:
    """Reference oracle: rigorous direct summation with explicit truncation.

    Independent of the accelerated path: plain nested summation in scaled
    integer arithmetic, plus a rational over-estimate of everything beyond
    ``max_outer``.  Slow but trustworthy.
    """
    return evaluate_direct_many(
        spec.index, (spec.tail_offset,), max_outer, fixed_bits
    )[spec.tail_offset]
