"""Certified evaluation of nested odd-denominator sums and their tails.

Two independent evaluators are provided:

* :func:`evaluate` — the production path.  For each prefix of the index it
  builds an exact rational asymptotic expansion of the tail function in
  ``w = 1/(2n+1)``, held as integers over one reduced denominator (a
  *view*): at depth one in closed form from the integer tangent numbers,
  deeper by an exact step per exponent.  It seeds all prefixes at a large
  offset where the expansion remainder is provably small, each seed the
  floor or ceiling of the view's sum minus or plus its remainder at scale
  ``2**wp``, and walks the exact tail recurrence
  ``t(k)_n = t(k)_{n+1} + (2n+1)^(-k_d) * t(k_1..k_{d-1})_{n+1}`` downward in
  that scaled-integer fixed point, flooring lower and ceiling upper
  endpoints; the upper chain is held negated, so that each endpoint is one
  floor division per step.  From the first expansion coefficient to the
  recurrence no ``Fraction`` is built.
  A planner prices each expansion order from an estimate of its remainder
  bound, weighing the recurrence steps against the cost of building the
  expansions, and builds only the order it picks.  The first plan aims at
  the requested width, not at the precision floor of its rung, so a caller
  that wants a narrower enclosure must ask for it; a precision ladder
  retries with more bits, planned for each rung's floor, until the
  requested width is met.
* :func:`evaluate_direct` — the reference oracle.  It sums the defining
  nested series directly in scaled-integer fixed point, one floored pass
  per level over blocks of outer values, and adds an a-priori bound on
  that pass's rounding and an explicit rational over-estimate of the
  discarded region, using only integer arithmetic.
  :func:`evaluate_direct_family` sums many indices in one sweep.

The expansion machinery rests on three audited facts: the Euler--Maclaurin
remainder for a completely monotone summand is enveloped by the first
omitted term; ``sum_{m>n} (2m-1)**(-i) <= (3/2) * (2n+1)**(1-i)`` for
``i >= 2, n >= 1``; and the partial-fraction split of
``(2j-1)**(-s) (2j+1)**(-q)`` telescopes exactly at the pole pair of order
one.  Everything else is exact integer bookkeeping.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import floordiv
from typing import Optional, Sequence

from .enclosure import Enclosure, _format_sci
from .errors import BudgetExceededError, DivergentError
from .indices import MultiIndex, ValueSpec, _Frozen
from .numerics import (
    _GUARD_BITS,
    PrecisionBudget,
    _View,
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
    "evaluate_direct_family",
    "odd_power_tail",
    "prefix_expansion",
]

DEFAULT_TARGET_WIDTH = Fraction(1, 10**30)

_LN2_UPPER = Fraction(6_931_472, 10**7)  # rational upper bound on log(2)


class EvalRequest(_Frozen):
    """What to evaluate and how hard to try.  Instances are immutable and
    hashable."""

    __slots__ = ("spec", "target_width", "budget")
    spec: ValueSpec
    target_width: Fraction
    budget: PrecisionBudget

    def __init__(
        self,
        spec: ValueSpec,
        target_width: Fraction = DEFAULT_TARGET_WIDTH,
        budget: PrecisionBudget = PrecisionBudget(),
    ) -> None:
        if target_width <= 0:
            raise ValueError("target_width must be positive")
        super().__init__(spec, target_width, budget)


# ----------------------------------------------------------------------
# expansion construction
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _partial_fraction(
    s: int, q: int
) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Split ``(2j-1)**(-s) (2j+1)**(-q)`` into pole parts at each factor.

    With ``alpha[i]`` the coefficient of ``(2j-1)**(-i)`` and ``gamma[i]``
    that of ``(2j+1)**(-i)``, all dyadic, returns the integers
    ``2**(s+q-1)`` times: ``alpha[1]``; ``gamma[i]`` for ``i >= 2``; and
    the nonzero ``alpha[i] + gamma[i]`` for ``2 <= i <= max(s, q)``.  The
    order-one coefficients cancel: ``alpha[1] + gamma[1] = 0``.
    """
    # alpha[s-u] = (-1)**u C(q+u-1, u) / 2**(q+u),
    # gamma[q-v] = (-1)**s C(s+v-1, v) / 2**(s+v)
    alpha = {
        s - u: (-1) ** u * math.comb(q + u - 1, u) << (s - 1 - u) for u in range(s)
    }
    gamma = {
        q - v: (-1) ** s * math.comb(s + v - 1, v) << (q - 1 - v) for v in range(q)
    }
    poles = ((i, alpha.get(i, 0) + gamma.get(i, 0)) for i in range(2, max(s, q) + 1))
    return (
        alpha[1],
        tuple((i, g) for i, g in gamma.items() if i >= 2),
        tuple((i, c) for i, c in poles if c),
    )


def _step_expansion(view: _View, s: int, order: int) -> _View:
    """Expansion of ``n -> sum_{j>n} (2j-1)**(-s) f(j)`` given one for ``f``.

    Valid for every ``n >= 1``.  Uses the partial-fraction split per power,
    the exact telescoping of the cancelling order-one poles, and the exact
    identity ``sum_{j>n} (2j+1)**(-i) = T_i(n) - w**i``.

    The map is linear in the input coefficients, so the ``T_i`` terms are
    gathered per pole order ``i`` (``weight[i]`` for the coefficients,
    ``mass[i]`` for the bound) and each ``base_expansion(i)`` is added once,
    which keeps the exact work at O(order**2).  All of it runs on integers:
    the input view over its ``den``, the dyadic split over
    ``2**(s+top-1)``, each base expansion over its own denominator, as
    ``base_expansion`` returns it, and their sum over the lcm of those; the
    sums run in lists indexed by power.  The output is a view again,
    reduced by one gcd, so no level builds a ``Fraction``.
    """
    den, coeffs, bound = view
    top = max((q for q, _ in coeffs), default=1)
    cut = order + 1
    # beyond the order, T_i(n) <= (3/2) w**(i-1) <= (3/2) 3**(cut-(i-1)) w**cut;
    # ``far`` sums |d c| 3**(reach-(i-1-cut)), so that it is over 3**reach
    reach = max(max(s, top) - 1 - cut, 0)
    far = 0
    # over den * 2**(s+top-1); new holds powers up to top, the poles kept
    # in weight and mass go up to cut
    new = [0] * (max(top, order) + 1)
    weight = [0] * (cut + 1)
    mass = [0] * (cut + 1)
    for q, d in coeffs:
        if not d:
            continue
        num = d << (top - q)
        a1, gammas, poles = _partial_fraction(s, q)
        new[1] += num * a1
        for i, g in gammas:
            new[i] -= num * g
        for i, c in poles:
            dc = num * c
            if i > cut:
                far += abs(dc) * 3 ** (reach - (i - 1 - cut))
                continue
            weight[i] += dc
            mass[i] += abs(dc)
    # every pole met has mass, also where its weights cancel
    views = [(i, base_expansion(i, order)) for i in range(2, cut + 1) if mass[i]]
    lcm = math.lcm(*(view[0] for _, view in views))
    # over den * 2**(s+top-1) * lcm
    acc = [v * lcm for v in new]
    spread = 0
    for i, (scale, base_nums, base_bound) in views:
        lift = lcm // scale
        e = weight[i] * lift
        for p, b in base_nums:
            acc[p] += e * b
        spread += mass[i] * lift * base_bound
    # over ``total``: the summand's own remainder summed over j > n, the
    # input bound times 3 / (2 * 3**(s-1)), plus the pole masses; the
    # factor 2 * 3**rise clears the denominators of both
    rise = max(s - 1, reach)
    total = (den << (s + top)) * lcm * 3**rise
    new_bound = (
        3 ** (rise - s + 2) * lcm * (bound << (s + top - 1))
        + 2 * 3**rise * spread
        + 3 ** (rise - reach + 1) * lcm * far
    )
    nums = [(p, v * 2 * 3**rise) for p, v in enumerate(acc) if v]
    g = math.gcd(total, new_bound, *(v for _, v in nums))
    return total // g, tuple((p, v // g) for p, v in nums), new_bound // g


@lru_cache(maxsize=None)
def prefix_expansion(prefix: MultiIndex, order: int) -> _View:
    """Exact expansion of ``n -> t(prefix)_n`` in ``w = 1/(2n+1)``, as a
    reduced view ``(den, ((power, num), ...), bound)``: the coefficients
    are ``num/den`` and the truncation error is within
    ``(bound/den) * w**(order+1)`` for every ``n >= 1``.
    """
    if len(prefix) == 0:
        raise ValueError("the empty prefix is the constant 1; no expansion")
    if prefix[0] < 2:
        raise DivergentError(f"inadmissible prefix {prefix}")
    if len(prefix) == 1:
        return base_expansion(prefix[0], order)
    return _step_expansion(prefix_expansion(prefix[:-1], order), prefix[-1], order)


# ----------------------------------------------------------------------
# accelerated evaluation
# ----------------------------------------------------------------------
def _kth_root_ceil(x: int, k: int) -> int:
    """Least positive ``r`` with ``r**k >= x``."""
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
# Cost of building the expansions of one order, per order**2, in units of
# one recurrence step of one prefix (0.13-0.23 us at 64 to 512 bits).
# Measured on CPython 3.11 (2 vCPU) at orders 8-128 over the prefixes of
# (2,1), (2,1,1), (2,1,1,1) and (3,1,2): 0.4-2.8 units per order**2 once
# the depth-1 base expansions and the partial-fraction splits, which all
# indices share, are cached, and 1.8-6.8 units from empty caches.
_BUILD_COST = 4


def _growth_bits(order: int, base: int, levels: int) -> int:
    """``floor(log2)`` of ``((order/base)**order / (8/base)**8)**levels``."""
    num = (order**order * base**8) ** levels
    return (num // (base**order * 8**8) ** levels).bit_length() - 1


# log2 of the growth of the total remainder bound from order 8, the first
# of the schedule, to each order: about ``(order/8)**order`` at depth one
# and ``(order/12)**(2*order)`` deeper, each over its value at order 8.
# Fitted at orders 8-128 over the indices of weight <= 7 and depth <= 4 and
# a few to depth 24, the estimate is within a factor 2**14 of the real
# bound, which moves a seed by at most 2**(14/(order+1)).
_GROWTH_BITS = {
    order: (_growth_bits(order, 8, 1), _growth_bits(order, 12, 2))
    for order in _ORDER_SCHEDULE
}


def _seed(ratio: int, offset: int, order: int) -> int:
    """Least seed, from ``max(1, offset)`` up, with ``(2*seed+1)**(order+1)
    >= ratio``."""
    # the root r is least with r**(order+1) >= ratio, and 2*(r//2) + 1 >= r
    return max(1, offset, _kth_root_ceil(ratio, order + 1) // 2)


def _plan(index: MultiIndex, offset: int, tau: Fraction) -> tuple[int, int]:
    """Choose expansion order and seed offset for an analytic error near
    ``tau/4``.  Heuristic only: the returned enclosure certifies itself.

    The seed is the least at which the total remainder bound of the
    prefixes' expansions, times ``6**d`` of headroom for error growth in the
    recurrence, times ``w**(order+1)``, is at most ``tau/4``.  A plan costs
    ``d * steps`` recurrence steps plus ``_BUILD_COST * order**2`` for
    building its expansions.  Orders are priced upward, each from an
    estimate of its bound (the real bound at the anchor, the first order of
    the schedule, times ``2**_GROWTH_BITS``), until the build alone costs
    more than the best plan.  A plan within ``_MAX_STEPS`` steps is
    feasible; if none is, the plan with the fewest steps is taken.  Only the
    anchor and the chosen order are built: the seed comes from the chosen
    order's real bound, capped at ``_MAX_STEPS`` steps, where the width
    check decides.
    """
    d = len(index)
    headroom = 4 * 6**d

    def ratio(order: int) -> int:
        # ceil(headroom * total bound / tau), over one common denominator
        views = [prefix_expansion(index[:i], order) for i in range(1, d + 1)]
        den = math.lcm(*(view[0] for view in views))
        num = sum(bound * (den // v_den) for v_den, _, bound in views)
        return -(-num * headroom * tau.denominator // (den * tau.numerator))

    estimate = ratio(_ORDER_SCHEDULE[0])
    best: Optional[tuple[int, int]] = None  # (cost, order), feasible
    nearest: Optional[tuple[int, int]] = None  # (steps, order), fewest steps
    for order in _ORDER_SCHEDULE:
        build = _BUILD_COST * order**2
        if best is not None and build >= best[0]:
            break
        steps = _seed(estimate << _GROWTH_BITS[order][d > 1], offset, order) - offset
        if nearest is None or steps < nearest[0]:
            nearest = (steps, order)
        if steps <= _MAX_STEPS and (best is None or d * steps + build < best[0]):
            best = (d * steps + build, order)
    order = (best or nearest)[1]
    seed = _seed(ratio(order), offset, order)
    return order, min(seed, offset + _MAX_STEPS)


def _evaluate_at(
    index: MultiIndex, offset: int, bits: int, order: int, seed: int
) -> Enclosure:
    """Seed every prefix at ``seed`` and run the exact recurrence down.

    The loop runs in scaled-integer fixed point at scale ``2**wp``: each
    prefix carries an integer lower and upper endpoint, seeded with the
    floor and ceiling that ``evaluate_expansion`` returns.  Every quantity
    involved is nonnegative (the seeds' lower endpoints are clamped at
    zero, which is sound because the true values are positive sums), so a
    step is one floor division for the lower endpoint and one ceiling
    division for the upper, each off by less than one unit in the
    direction that keeps the enclosure.  The upper chain is kept negated,
    ``floor(-h/p) == -ceil(h/p)``, so both are one floor division each.
    """
    wp = bits + _GUARD_BITS
    one = 1 << wp
    # level 0 is the empty prefix, the constant 1; negs holds the upper
    # endpoints negated
    los = [one]
    negs = [-one]
    for i in range(1, len(index) + 1):
        lo, hi = evaluate_expansion(prefix_expansion(index[:i], order), order, seed, wp)
        los.append(max(0, lo))
        negs.append(-hi)
    # deepest first: each reads step j+1
    levels = [(i, index[i - 1]) for i in range(len(index), 0, -1)]
    for j in range(seed - 1, offset - 1, -1):
        odd = 2 * j + 1
        for i, k in levels:
            p = odd**k
            los[i] += los[i - 1] // p
            negs[i] += negs[i - 1] // p
    return Enclosure.from_fraction_pair(
        Fraction(los[-1], one), Fraction(-negs[-1], one), wp
    )


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
    # the rungs whose floor 2**-(bits-10) is at most the target width
    num, den = target_width.numerator, target_width.denominator
    usable = [b for b in rungs if num << b >= den << 10]
    attempts = usable if usable else [rungs[-1]]
    best: Optional[Enclosure] = None
    for bits in attempts:
        # the first plan aims at the width asked for: on a usable rung the
        # rounding, about d * steps * 2**-(bits+32), is far below the rung
        # floor, so the rung sets only the fixed-point bits; a retry after a
        # missed width plans for the rung floor
        floor = Fraction(1 << 10, 1 << bits)
        tau = target_width if best is None else min(target_width, floor)
        order, seed = _plan(index, offset, tau)
        enclosure = _evaluate_at(index, offset, bits, order, seed)
        if best is None or enclosure.width() < best.width():
            best = enclosure
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

    The enclosure is at most ``request.target_width`` wide.  It is planned
    for that width, not for the precision floor of the rung it runs on, so
    a caller that needs a narrower enclosure must ask for one.
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

    The sum runs in integers over ``P/Q = _LN2_UPPER/2``, and one
    ``Fraction`` is built at the end.
    """
    k = exponents[0]
    d = len(exponents)
    if k < 2:
        raise DivergentError(f"inadmissible index {tuple(exponents)}")
    if d == 1:
        return Fraction(3, 2 * (2 * max_outer + 1) ** (k - 1))
    half_ln2 = _LN2_UPPER / 2
    p, q = half_ln2.numerator, half_ln2.denominator
    # L(M * 2**t) <= 1 + log(2M)/2 + t*log(2)/2 <= a + b*t with b = p/q and
    # a = big_a/q, rational and exact
    big_a = q + (2 * max_outer).bit_length() * p
    # Abel summation over blocks (M*2**t, M*2**(t+1)]:
    #   sum_t L(M_{t+1})^{d-1} (T(M_t) - T(M_{t+1}))
    #     = L(M_1)^{d-1} T(M_0) + sum_{t>=1} (L(M_{t+1})^{d-1} - L(M_t)^{d-1}) T(M_t)
    # where the increment of L**(d-1) over one block is at most
    # (d-1) * b * (a + b(t+1))**(d-2) since L grows by at most b per block.
    # With T(n) = 3 / (2 (2n+1)**(k-1)), every term is over
    # scale * (2M 2**t + 1)**(k-1); num/den is the sum times scale.
    scale = 2 * q ** (d - 1)
    num = 3 * (big_a + p) ** (d - 1)
    den = (2 * max_outer + 1) ** (k - 1)
    # the closure ratio 2**(1-k) * (1 + b/a)**(d-2), as close_num/close_den
    close_num = (big_a + p) ** (d - 2)
    close_den = big_a ** (d - 2) << (k - 1)
    if close_num >= close_den:
        raise ValueError(
            "term budget too small to certify the discarded region at depth "
            f"{d}; raise max_outer above {max_outer}"
        )
    for t in range(1, 41):
        # the term is term_num / (scale * power)
        term_num = 3 * (d - 1) * p * (big_a + p * (t + 1)) ** (d - 2)
        power = (2 * max_outer * 2**t + 1) ** (k - 1)
        num = num * power + term_num * den
        den *= power
        if term_num << 200 < scale * power:
            break
    # the last term times closure/(1 - closure)
    rest = close_den - close_num
    num = num * power * rest + term_num * close_num * den
    den *= power * rest
    return Fraction(num, den * scale * math.factorial(d - 1))


# Outer values per sweep block.  At most one block list per level of the
# current suffix path is alive, so memory is bounded by depth times block.
# Measured on CPython 3.11 (2 vCPU) over the 31 indices of weight <= 6, one
# ``evaluate_direct_many`` call each at offsets 0 and 1 and 2*10**4 outer
# values, best of 3 in each of 3 fresh processes: 0.41-0.46 s at a block of
# 64, 0.37 s at 128, 0.34-0.38 s at 256, 0.32-0.33 s at 512 and 0.31-0.32 s
# at 1024.  Those processes peaked at 13.90-14.06 MB RSS at 64, 13.91-14.05
# at 256, 14.05-14.14 at 512 and 14.21-14.42 at 1024: 256 is the fastest
# block that keeps the peak.
_BLOCK = 256


def evaluate_direct_family(
    indices: Sequence[MultiIndex],
    offsets: Sequence[int],
    max_outer: int = 1_000_000,
    fixed_bits: int = 80,
) -> dict[MultiIndex, dict[int, Enclosure]]:
    """Direct nested summation of several indices at several tail offsets,
    in one sweep of the outer variable ``m = 1..max_outer``.

    Returns ``{index: {offset: enclosure}}``.  In scaled integers at
    ``2**fixed_bits``, level ``j`` of an index adds at each ``m`` the partial
    sum of level ``j+1`` below ``m`` divided by ``(2m-1)**k_j``, floored;
    the innermost level adds ``1`` the same way once ``m`` exceeds the
    offset.  A level depends only on the suffix of the index inward of it,
    so indices that share a suffix share its levels.

    The outer values run in blocks of ``_BLOCK``.  The innermost level
    divides the constant root, so per block and exponent its quotients
    ``2**fixed_bits // (2m-1)**k`` are computed once, and each offset takes
    them with those at ``m <= offset`` zeroed.  Per block and offset, every
    other suffix (parents first) makes one pass of floor divisions over its
    parent's block.  A suffix with children then makes one pass of running
    sums and carries its last partial sum into the next block; a leaf, whose
    sums no level reads, adds only the sum of its quotients to its carried
    partial sum.

    That floored sum is the lower endpoint.  The upper endpoint is it plus
    ``d * max_outer`` units of ``2**-fixed_bits`` plus the discarded-region
    bound, by an a-priori bound on the rounding.  Write ``S_j(m)`` for the
    exact scaled partial sum of level ``j`` up to ``m``, ``L_j(m)`` for the
    floored one and ``e_j(m) = S_j(m) - L_j(m)``.  Level ``d``, the constant
    root, is exact: ``e_d = 0``.  Every quotient is nonnegative and a floor
    loses less than one unit, so ``e_j(0) = 0`` and
    ``0 <= e_j(m) <= e_j(m-1) + e_{j+1}(m-1) / (2m-1)**k_j + 1``.
    If ``e_{j+1}(m) <= (d-j-1) m`` for all ``m``, then ``k_j >= 1`` and
    ``(m-1)/(2m-1) <= 1/2`` bound each step by ``(d-j-1)/2 + 1 <= d-j``, so
    ``e_j(m) <= (d-j) m``.  Down from ``j = d-1`` this gives
    ``0 <= e_0(max_outer) <= d * max_outer``.
    """
    offsets = list(dict.fromkeys(offsets))
    if not offsets:
        raise ValueError("at least one tail offset is required")
    if min(offsets) < 0:
        raise ValueError("tail_offset must be non-negative")
    indices = [tuple(index) for index in indices]
    # checked and bounded before the sweep, so that bad input fails at once
    discards = {}
    for index in indices:
        if not index:
            continue
        if min(index) < 1:
            raise ValueError(f"exponents must be positive integers: {index}")
        if index[0] < 2:
            raise DivergentError(
                f"index {index} is inadmissible: the outer sum diverges"
            )
        need = max(offsets) + len(index) + 2
        if max_outer < need:
            raise ValueError(
                f"max_outer too small for this depth and offset: {index} at "
                f"offset {max(offsets)} needs at least {need}, got {max_outer}"
            )
        discards[index] = _discard_bound(index, max_outer)
    suffixes = {index[j:] for index in indices for j in range(len(index))}
    children: dict[MultiIndex, list[MultiIndex]] = {}
    for suffix in suffixes:
        children.setdefault(suffix[1:], []).append(suffix)
    roots = children.get((), [])
    one = 1 << fixed_bits
    # per suffix and offset: the floored partial sum over the blocks swept
    sums = {suffix: [0] * len(offsets) for suffix in suffixes}
    exponents = {suffix[0] for suffix in suffixes}
    for start in range(1, max_outer + 1, _BLOCK):
        size = min(_BLOCK, max_outer + 1 - start)
        odds = range(2 * start - 1, 2 * (start + size) - 1, 2)
        powers = {k: [odd**k for odd in odds] for k in exponents}
        # the innermost quotients, the same in every lane past its offset
        shared = {
            suffix: list(map(floordiv, repeat(one), powers[suffix[0]])) for suffix in roots
        }
        for lane, n in enumerate(offsets):
            # the empty suffix is 1 only once m exceeds the offset, so the
            # innermost quotients at m <= n are zero
            zeros = min(max(n + 1 - start, 0), size)
            # each suffix with its quotients; depth first, so that a
            # parent's block is dropped once its last child has read it
            stack = [
                (suffix, [0] * zeros + shared[suffix][zeros:]) for suffix in roots
            ]
            while stack:
                suffix, steps = stack.pop()
                below = children.get(suffix)
                if not below:
                    # a leaf: only its sum is read
                    sums[suffix][lane] += sum(steps)
                    continue
                # starts with the partial sum below the block, so that the
                # next level divides the sum below each m by m's power
                block = list(accumulate(steps, initial=sums[suffix][lane]))
                sums[suffix][lane] = block[-1]
                stack.extend(
                    (child, map(floordiv, block, powers[child[0]])) for child in below
                )

    out: dict[MultiIndex, dict[int, Enclosure]] = {}
    for index in indices:
        if not index:
            out[index] = {n: Enclosure.exact_int(1) for n in offsets}
            continue
        slack = len(index) * max_outer  # the rounding bound proved above
        out[index] = {
            n: Enclosure.from_fraction_pair(
                Fraction(lo, one), Fraction(lo + slack, one) + discards[index], fixed_bits
            )
            for n, lo in zip(offsets, sums[index])
        }
    return out


def evaluate_direct_many(
    index: MultiIndex,
    offsets: Sequence[int],
    max_outer: int = 1_000_000,
    fixed_bits: int = 80,
) -> dict[int, Enclosure]:
    """Direct nested summation of one index for several tail offsets:
    the one-index case of :func:`evaluate_direct_family`."""
    index = tuple(index)
    return evaluate_direct_family([index], offsets, max_outer, fixed_bits)[index]


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
