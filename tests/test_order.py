"""Certified comparison, threshold enumeration, ranks, bands, and pairing."""

import random
from fractions import Fraction

import pytest

from tvals.enclosure import Enclosure
from tvals import order
from tvals.errors import BudgetExceededError, UnresolvedComparisonError
from tvals.evaluator import EvalRequest, evaluate
from tvals.indices import ValueSpec, enumerate_admissible_up_to
from tvals.numerics import PrecisionBudget
from tvals.order import (
    Verdict,
    band_of_value,
    band_prefix,
    beta_table,
    compare,
    enumerate_tails_above,
    phi,
    rank_of_tail,
)
from tvals.verify import check_phi_conjecture

# frozen 21-digit truncations of the first ordered tail values
BETA_DECIMALS = {
    1: "1.000000000000000000000",
    2: "0.233700550136169827354",
    3: "0.095535612713647240889",
    4: "0.051799790264644999724",
    5: "0.044276655197611192444",
}
BETA_INDICES = {1: (), 2: (2,), 3: (2, 1), 4: (3,), 5: (2, 1, 1)}


def _fraction_of(decimal_str):
    whole, _, frac = decimal_str.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac))


# --- compare ----------------------------------------------------------------

def test_compare_known_pair():
    outcome = compare(ValueSpec((2,), 0), ValueSpec((3,), 0))
    assert outcome.verdict is Verdict.GREATER
    assert outcome.separation > Fraction(15, 100)


def test_compare_antisymmetry():
    pool = [
        ValueSpec((2,), 0),
        ValueSpec((3,), 1),
        ValueSpec((2, 1), 0),
        ValueSpec((2, 2), 2),
        ValueSpec((), 0),
    ]
    for i, left in enumerate(pool):
        for right in pool[i + 1:]:
            forth = compare(left, right)
            back = compare(right, left)
            assert {forth.verdict, back.verdict} == {Verdict.GREATER, Verdict.LESS}
            assert forth.separation > 0 and back.separation > 0


def test_compare_identical_specs_is_unresolved():
    spec = ValueSpec((2, 1), 1)
    outcome = compare(spec, spec, budget=PrecisionBudget(start_bits=64, max_bits=256))
    assert outcome.verdict is Verdict.UNRESOLVED


def test_compare_equal_values_different_specs_is_unresolved():
    # the empty tail is exactly 1 at every cutoff
    outcome = compare(
        ValueSpec((), 1),
        ValueSpec((), 7),
        budget=PrecisionBudget(start_bits=64, max_bits=256),
    )
    assert outcome.verdict is Verdict.UNRESOLVED


# --- threshold enumeration --------------------------------------------------

@pytest.mark.parametrize(
    "theta,expected",
    [
        (Fraction(1, 5), ((), (2,))),
        (Fraction(9, 100), ((), (2,), (2, 1))),
        (Fraction(1, 20), ((), (2,), (2, 1), (3,))),
        (Fraction(1, 25), ((), (2,), (2, 1), (3,), (2, 1, 1))),
    ],
)
def test_enumerate_tails_matches_frozen_ordering(theta, expected):
    assert enumerate_tails_above(theta) == expected


def test_enumerate_tails_complete_against_sweep():
    # every admissible index of weight <= 7 left out must certify below theta
    theta = Fraction(1, 25)
    found = set(enumerate_tails_above(theta))
    bound = Enclosure.from_fraction(theta, 96)
    for index in enumerate_admissible_up_to(7, include_empty=True):
        tail = evaluate(
            EvalRequest(ValueSpec(index, 1), target_width=Fraction(1, 2**40))
        )
        if index in found:
            assert tail.lo_fraction > theta
        else:
            assert tail.certified_lt(bound)


# --- beta table and ranks ---------------------------------------------------

def test_beta_table_matches_frozen_decimals():
    table = beta_table(5)
    assert [entry.rank for entry in table] == [1, 2, 3, 4, 5]
    for entry in table:
        assert entry.index == BETA_INDICES[entry.rank]
        reference = _fraction_of(BETA_DECIMALS[entry.rank])
        # reference truncates the true value, so a sound enclosure must
        # bracket it to well within the table's working width
        loose = Fraction(1, 10**15)
        assert reference - loose <= entry.value.lo_fraction <= reference + loose
        assert reference - loose <= entry.value.hi_fraction <= reference + loose
        assert entry.value.hi_fraction >= reference
    values = [entry.value for entry in table]
    for above, below in zip(values, values[1:]):
        assert below.certified_lt(above)


# the first twelve tails in decreasing order; pinned without their
# enclosures, which change whenever the planner does
BETA_12_RANKS = [
    (1, ()), (2, (2,)), (3, (2, 1)), (4, (3,)), (5, (2, 1, 1)),
    (6, (2, 1, 1, 1)), (7, (2, 2)), (8, (4,)), (9, (2, 1, 1, 1, 1)),
    (10, (2, 1, 2)), (11, (3, 1)), (12, (2, 3)),
]


def test_beta_table_ranks_and_indices_are_pinned():
    assert [(entry.rank, entry.index) for entry in beta_table(12)] == BETA_12_RANKS


def test_rank_of_tail_inverts_table():
    for rank, index in BETA_INDICES.items():
        assert rank_of_tail(index) == rank


def test_rank_of_tail_rejects_unknown_prefix():
    with pytest.raises(ValueError):
        rank_of_tail((1, 1))


# --- bands and pairing ------------------------------------------------------

@pytest.mark.parametrize(
    "index,expected_band",
    [((2,), 1), ((4,), 1), ((2, 3), 2), ((2, 1, 1), 3), ((3, 2), 4)],
)
def test_band_of_value_spot_checks(index, expected_band):
    assert band_of_value(index) == expected_band


@pytest.mark.parametrize(
    "index,coordinate",
    [((2,), (1, 1)), ((4,), (1, 3)), ((2, 3), (2, 3)), ((2, 1, 1), (3, 1))],
)
def test_phi_spot_checks(index, coordinate):
    got = phi(index)
    assert (got.band, got.position) == coordinate


def test_band_prefix_is_descending_and_above_threshold():
    # each band holds values above its floor threshold, so alpha must sit
    # inside the band: band 1 floor is 1, band 2 floor is about 0.2337
    for band, alpha in ((1, Fraction(11, 10)), (2, Fraction(1, 4))):
        members = band_prefix(band, alpha)
        assert members, f"band {band} prefix empty above {alpha}"
        previous = None
        for index, enclosure in members:
            assert enclosure.lo_fraction > alpha
            assert band_of_value(index) == band
            if previous is not None:
                assert enclosure.certified_lt(previous)
            previous = enclosure


def test_threshold_messages_print_values_below_the_float_range(monkeypatch):
    tiny = Fraction(1, 10**400)  # float() underflows to 0.0
    with pytest.raises(ValueError, match=r"^alpha=1\.000e-400 is not certifiably above"):
        band_prefix(2, tiny)
    # no depth mass ever accumulates, so the cap is never reached
    monkeypatch.setattr(order, "_enclose", lambda spec, width, budget: Enclosure.exact_int(0))
    with pytest.raises(BudgetExceededError, match=r"threshold 1\.000e-400 not reached"):
        order._depth_cap(tiny, 0, PrecisionBudget())


def test_band_escape_documented():
    # the value with index (2,1,1,1) clears the fourth threshold even though
    # its deepest proper prefix (2,1,1) only ranks fifth among ordered tails:
    # coordinates assigned by value land one band higher than the prefix rank
    assert rank_of_tail((2, 1, 1)) == 5
    assert band_of_value((2, 1, 1, 1)) == 4
    escape = evaluate(
        EvalRequest(ValueSpec((2, 1, 1, 1), 0), target_width=Fraction(1, 2**60))
    )
    beta4 = beta_table(4)[3].value
    assert escape.certified_gt(beta4)
    assert escape.lo_fraction - beta4.hi_fraction > Fraction(1, 100)


def test_phi_band_positions_consistent_with_prefix():
    coordinate = phi((2, 3))
    value = evaluate(
        EvalRequest(ValueSpec((2, 3), 0), target_width=Fraction(1, 2**48))
    )
    members = band_prefix(coordinate.band, value.lo_fraction)
    assert members[-1][0] == (2, 3)
    assert len(members) == coordinate.position


@pytest.mark.parametrize("n", [20, 30, 40])
def test_phi_next_to_the_band_floor(n):
    # T(2,n) lies within about 3^-n of the band-2 floor t(2)_1, closer than
    # the first refinement width for n = 30 and 40
    got = phi((2, n))
    assert (got.band, got.position) == (2, n)


def test_values_below_the_first_width_exceed_the_budget():
    # both values lie below 2^-48, so the first enclosure reaches down to 0
    with pytest.raises(BudgetExceededError, match=r"^tail:1:30,30 is too small to place"):
        rank_of_tail((30, 30))
    with pytest.raises(BudgetExceededError, match=r"^30,30,30 is too small"):
        phi((30, 30, 30))


# --- the certified tail list ------------------------------------------------

def raw_tails_above(threshold, budget):
    """The tails above ``threshold`` as a set, from a walk of its own: the
    empty tail and the branch-and-bound of every depth up to the cap."""
    found = {ValueSpec((), 1)}
    for d in range(1, order._depth_cap(threshold, 1, budget) + 1):
        found.update(
            ValueSpec(index, 1) for index in order._prefixes_above(d, d, 1, threshold, budget)
        )
    return found


def reference_tails_above(spec, budget):
    """The linear count: every tail just below the value decided against it."""
    if len(spec.index) == 0:
        enclosure = Enclosure.exact_int(1)
    else:
        enclosure = order._enclose(spec, Fraction(1, 2**48), budget)
    threshold = order._quantize_down(enclosure.lo_fraction * (1 - Fraction(1, 2**10)))
    tails = raw_tails_above(threshold, budget)
    return sum(
        order._decide(tail, spec, budget) is Verdict.GREATER
        for tail in tails
        if tail != spec
    )


def assert_certified_decreasing(specs):
    for above, below in zip(specs, specs[1:]):
        assert compare(above, below).verdict is Verdict.GREATER, (above, below)


def test_ranks_and_bands_match_the_linear_count():
    budget = PrecisionBudget()
    for index in enumerate_admissible_up_to(6, include_empty=True):
        assert rank_of_tail(index) == reference_tails_above(ValueSpec(index, 1), budget) + 1
        if index:
            assert band_of_value(index) == (
                reference_tails_above(ValueSpec(index, 0), budget) + 1
            )


def test_tail_list_stays_certified_under_falling_thresholds(monkeypatch):
    monkeypatch.setattr(order, "_TAIL_LISTS", {})
    budget = PrecisionBudget()
    for threshold in (Fraction(1, 5), Fraction(1, 20), Fraction(1, 300), Fraction(1, 1000)):
        specs = order._tails_down_to(threshold, budget)
        # complete above the threshold, and nothing below it
        assert set(specs) == raw_tails_above(threshold, budget)
        assert_certified_decreasing(specs)
    # a query above the floor reads the list as it is
    assert order._tails_down_to(Fraction(1, 20), budget) is specs
    swapped = list(specs)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    with pytest.raises(AssertionError):
        assert_certified_decreasing(swapped)


def test_tail_list_matches_beta_table(monkeypatch):
    monkeypatch.setattr(order, "_TAIL_LISTS", {})
    budget = PrecisionBudget()
    order._tails_down_to(Fraction(1, 20), budget)
    table = beta_table(24, budget)  # extends this fresh list
    floor, specs = order._TAIL_LISTS[budget]
    assert [spec.index for spec in specs[:24]] == [entry.index for entry in table]
    assert [entry.index for entry in table[:5]] == list(BETA_INDICES.values())
    # inserting into a shorter list gives the sort of a raw walk
    from_scratch = order._listed_down_to(
        {}, budget, floor, budget, lambda low: raw_tails_above(low, budget)
    )
    assert specs == from_scratch


def test_no_budget_means_the_default_budget(monkeypatch):
    # 2**-70 above the value of t(2)_1: the first width cannot decide it,
    # so the enumeration climbs the budget's rungs
    tail = order._enclose(ValueSpec((2,), 1), Fraction(1, 2**100), PrecisionBudget())
    threshold = tail.hi_fraction + Fraction(1, 2**70)
    assert enumerate_tails_above(threshold, None) == ((),)
    assert enumerate_tails_above(threshold) == ((),)
    monkeypatch.setattr(order, "_TAIL_LISTS", {})
    assert beta_table(3, None) == beta_table(3, PrecisionBudget())
    assert list(order._TAIL_LISTS) == [PrecisionBudget()]


def test_enclosure_memo_returns_the_computed_object():
    spec, width, budget = ValueSpec((2, 1, 2), 1), Fraction(1, 2**48), PrecisionBudget()
    assert order._enclose(spec, width, budget) is order._enclose(spec, width, budget)


# --- depth cap --------------------------------------------------------------

def _fine_depth_cap(threshold, offset, budget):
    """The cap from mass terms at 2**-80, the finest width the cap reads."""
    remaining = order._mass_total(offset).hi_fraction
    cap = 0
    while remaining >= threshold:
        cap += 1
        spec = ValueSpec(order._depth_max_index(cap), offset)
        remaining -= order._enclose(spec, Fraction(1, 2**80), budget).lo_fraction
    return cap


def test_depth_cap_is_sound_against_the_fine_mass_terms():
    budget = PrecisionBudget()
    for offset in (0, 1):
        for a in range(1, 33):
            for b in range(0, 32, 8):
                threshold = Fraction(32 + b, 32 * 2**a)  # on the quantized grid
                if threshold >= 1:
                    continue
                reference = _fine_depth_cap(threshold, offset, budget)
                # sound: deeper indices fit under the fine mass bound too;
                # the coarse terms cost at most one depth
                assert reference <= order._depth_cap(threshold, offset, budget) <= reference + 1


def test_depth_cap_below_the_coarse_range_uses_the_fine_terms():
    threshold, budget = Fraction(1, 2**40), PrecisionBudget()
    assert order._depth_cap(threshold, 1, budget) == _fine_depth_cap(threshold, 1, budget)


# --- the certified band lists -----------------------------------------------

def _band_alphas(band):
    """Cutoffs between the band floor and its top, closing in on the floor."""
    table = beta_table(band)
    floor = table[band - 1].value.hi_fraction
    top = Fraction(2) if band == 1 else table[band - 2].value.lo_fraction
    return [floor + (top - floor) / 4**j for j in range(1, 11)]


def test_band_lists_answer_like_a_fresh_walk(monkeypatch):
    budget = PrecisionBudget()
    shared = {}
    queries = [(band, alpha) for band in (1, 2, 3, 4) for alpha in _band_alphas(band)]
    random.Random(12).shuffle(queries)
    for band, alpha in queries:
        monkeypatch.setattr(order, "_BAND_LISTS", shared)
        got = band_prefix(band, alpha)
        monkeypatch.setattr(order, "_BAND_LISTS", {})
        assert got == band_prefix(band, alpha), (band, alpha)
    for band in (1, 2, 3, 4):
        floor, specs = shared[(band, budget)]
        assert floor == min(_band_alphas(band))
        assert_certified_decreasing(specs)


def test_phi_reads_the_same_coordinates_in_any_order(monkeypatch):
    indices = enumerate_admissible_up_to(6)
    random.Random(6).shuffle(indices)
    monkeypatch.setattr(order, "_BAND_LISTS", {})
    shared = {index: phi(index) for index in indices}
    for index in indices:
        monkeypatch.setattr(order, "_BAND_LISTS", {})
        assert phi(index) == shared[index], index


def test_unresolved_band_walk_leaves_the_list_as_it_was(monkeypatch):
    monkeypatch.setattr(order, "_BAND_LISTS", {})
    budget = PrecisionBudget()
    alphas = _band_alphas(2)
    band_prefix(2, alphas[3])
    before = order._BAND_LISTS[(2, budget)]
    assert [spec.index for spec in before[1]] == [(2, 1), (2, 2), (2, 3)]
    true_decide = order._decide
    planted = ValueSpec((2, 6), 0)

    def decide(left, right, budget):
        if left == planted:
            raise UnresolvedComparisonError("planted", left=left, right=right)
        return true_decide(left, right, budget)

    # the walk down to alphas[7] lists (2,4) and (2,5) before it meets (2,6)
    monkeypatch.setattr(order, "_decide", decide)
    with pytest.raises(UnresolvedComparisonError, match="planted"):
        band_prefix(2, alphas[7])
    assert order._BAND_LISTS[(2, budget)] is before
    assert [spec.index for spec in before[1]] == [(2, 1), (2, 2), (2, 3)]
    monkeypatch.setattr(order, "_decide", true_decide)
    assert [index for index, _ in band_prefix(2, alphas[7])] == [(2, n) for n in range(1, 9)]


def test_band_walks_decide_no_tail_against_a_tail(monkeypatch):
    # a family whose limit is listed above the band is cut by that listing
    beta_table(12)
    alphas = {band: _band_alphas(band)[3] for band in range(2, 9)}
    monkeypatch.setattr(order, "_BAND_LISTS", {})
    true_decide = order._decide
    decided = []

    def decide(left, right, budget):
        decided.append((left, right))
        return true_decide(left, right, budget)

    monkeypatch.setattr(order, "_decide", decide)
    for band, alpha in alphas.items():
        assert band_prefix(band, alpha), band
    assert decided
    assert [
        (left, right)
        for left, right in decided
        if isinstance(right, ValueSpec) and left.tail_offset == right.tail_offset == 1
    ] == []


def test_unresolved_tail_threshold_steps_down_the_grid(monkeypatch):
    monkeypatch.setattr(order, "_TAIL_LISTS", {})
    true_decide = order._decide
    planted = []

    def decide(left, right, budget):
        if right == Fraction(1, 2) and not planted:
            planted.append(left)
            raise UnresolvedComparisonError("planted", left=left, right=right)
        return true_decide(left, right, budget)

    monkeypatch.setattr(order, "_decide", decide)
    table = beta_table(5)
    assert planted
    assert [entry.index for entry in table] == list(BETA_INDICES.values())
    # one grid step below 1/2, then halvings from there
    floor, specs = order._TAIL_LISTS[PrecisionBudget()]
    assert floor == Fraction(63, 128) / 2**4
    assert_certified_decreasing(specs)


# --- the two tiers of a decision --------------------------------------------

def _side(enclose, left, right):
    """+1 or -1 when the enclosure of ``left`` lies certifiably above or
    below that of ``right`` (a spec) or ``right`` itself (a rational), else 0."""
    a = enclose(left)
    if isinstance(right, Fraction):
        return a.cmp_scalar(right)
    b = enclose(right)
    return 1 if a.certified_gt(b) else -1 if a.certified_lt(b) else 0


def _evaluated(spec, width, budget):
    """An enclosure from the evaluator, a budget-capped partial included,
    past the order layer's memo."""
    try:
        return evaluate(EvalRequest(spec, width, budget))
    except BudgetExceededError as exc:
        return exc.partial


def reference_decide(left, right, budget):
    """The one-tier ladder: every width of ``compare`` from 2**-48 on, each
    enclosure from the evaluator, so no coarse enclosure is ever consulted."""
    if left == right:
        return Verdict.UNRESOLVED
    for width in order._refinement_widths(budget):
        side = _side(lambda spec: _evaluated(spec, width, budget), left, right)
        if side:
            return Verdict.GREATER if side > 0 else Verdict.LESS
    return Verdict.UNRESOLVED


def test_coarse_verdicts_match_the_one_tier_ladder(monkeypatch):
    for store in ("_ENCLOSURES", "_TAIL_LISTS", "_BAND_LISTS"):
        monkeypatch.setattr(order, store, {})
    true_decide = order._decide
    decided = []

    def decide(left, right, budget):
        verdict = Verdict.UNRESOLVED  # unless it returns
        try:
            verdict = true_decide(left, right, budget)
            return verdict
        finally:
            decided.append((left, right, budget, verdict))

    monkeypatch.setattr(order, "_decide", decide)
    beta_table(24)
    check_phi_conjecture(7, 7, total_max=8)
    settled = sum(
        _side(lambda spec: order._enclose(spec, order._COARSE_WIDTH, budget), left, right) != 0
        for left, right, budget, _ in decided
    )
    # both tiers ran: most decisions settle coarse, some climb the ladder
    assert len(decided) > 1000 and 0 < len(decided) - settled < settled
    mismatches = [
        (left, right, verdict)
        for left, right, budget, verdict in decided
        if verdict is not reference_decide(left, right, budget)
    ]
    assert mismatches == []


# compare outcomes as the one-tier ladder gave them: (left, right, verdict,
# exact separation, bits used); the last pair needs the second rung
COMPARE_PINS = [
    (((2,), 0), ((3,), 0), Verdict.GREATER,
     Fraction(7205831482284665234821911055, 2**95), 96),
    (((2, 1), 0), ((2,), 1), Verdict.GREATER,
     Fraction(3784555524988320596460429949, 2**95), 96),
    (((2, 1, 1, 1), 0), ((3,), 1), Verdict.GREATER,
     Fraction(1101948727712375661695195577, 2**96), 96),
    (((4,), 1), ((2, 1, 1), 1), Verdict.LESS,
     Fraction(2345044560257949739223342867, 2**96), 96),
    (((2, 1), 0), ((), 1), Verdict.LESS,
     Fraction(3321461643651639270477731935, 2**92), 96),
    (((3, 1, 1), 0), ((2, 2, 1), 0), Verdict.LESS,
     Fraction(563034755255779625754790215, 2**95), 96),
    (((2,), 10**20), ((2,), 10**20 + 1), Verdict.GREATER,
     Fraction(9134385, 2**158), 160),
]


def test_compare_outcomes_are_pinned_after_coarse_decisions():
    budget = PrecisionBudget()
    for (left, left_offset), (right, right_offset), verdict, separation, bits in COMPARE_PINS:
        a, b = ValueSpec(left, left_offset), ValueSpec(right, right_offset)
        order._decide(a, b, budget)  # leaves coarse enclosures of both in the memo
        got = compare(a, b)
        assert (got.verdict, got.separation, got.bits_used) == (verdict, separation, bits), (a, b)


# --- band walks read their families off the tail list -----------------------

def test_a_family_starts_within_three_halves_of_its_limit():
    # the bound that lets a band walk read its families off the tail list
    budget, width = PrecisionBudget(), Fraction(1, 2**48)
    ratios = {}
    for prefix in enumerate_admissible_up_to(8):
        first = order._enclose(ValueSpec(prefix + (1,), 0), width, budget)
        limit = order._enclose(ValueSpec(prefix, 1), width, budget)
        assert 2 * first.hi_fraction < 3 * limit.lo_fraction, prefix
        ratios[prefix] = first.lo_fraction / limit.hi_fraction
    # the empty prefix, whose limit is 1: t((2,)) = pi^2/8 < 3/2
    assert 2 * order._enclose(ValueSpec((2,), 0), width, budget).hi_fraction < 3
    # close to tight: no constant below 1.499 would hold
    assert max(ratios, key=ratios.get) == (2, 1, 1, 1, 1, 1, 1)
    assert max(ratios.values()) > Fraction(1499, 1000)


def reference_band_walk(band, tails, budget):
    """The band walk by a branch-and-bound of its own over every full-value
    prefix, as ``order._band_down_to`` ran it before it read its families
    off the tail list: a family whose limit is listed above the band is cut
    by that listing, and depth-1 values live in band 1."""
    above_band = set(tails[: band - 1])
    top_spec = tails[band - 2] if band > 1 else None

    def walk(threshold):
        for d in range(1 if band == 1 else 2, order._depth_cap(threshold, 0, budget) + 1):
            for partial in order._prefixes_above(d, d - 1, 0, threshold, budget):
                if ValueSpec(partial, 1) in above_band:
                    continue
                below_top = top_spec is None
                for candidate in order._prefixes_above(d, d, 0, threshold, budget, partial):
                    spec = ValueSpec(candidate, 0)
                    below_top = below_top or order._decide(spec, top_spec, budget) is Verdict.LESS
                    if below_top:
                        yield spec

    return walk


def test_band_lists_match_the_prefix_walk(monkeypatch):
    budget = PrecisionBudget()
    built = {}
    for store in ("_TAIL_LISTS", "_BAND_LISTS"):
        monkeypatch.setattr(order, store, {})
    for band in range(1, 25):
        alphas = _band_alphas(band)
        for alpha in (alphas[1], alphas[5]):  # the second one extends the list
            band_prefix(band, alpha)
    built.update(order._BAND_LISTS)
    for store in ("_TAIL_LISTS", "_BAND_LISTS"):
        monkeypatch.setattr(order, store, {})
    check_phi_conjecture(8, 8, total_max=9)
    scanned = dict(order._BAND_LISTS)
    assert len(built) == 24 and len(scanned) > 24
    for lists in (built, scanned):
        for (band, budget), (floor, specs) in lists.items():
            monkeypatch.setattr(order, "_TAIL_LISTS", {})
            walk = reference_band_walk(band, order._tails_through(band, budget), budget)
            assert order._listed_down_to({}, band, floor, budget, walk) == specs, band


def test_band_walks_run_no_branch_and_bound_over_full_values(monkeypatch):
    for store in ("_TAIL_LISTS", "_BAND_LISTS"):
        monkeypatch.setattr(order, store, {})
    true_prefixes_above, true_depth_cap = order._prefixes_above, order._depth_cap
    offsets = []

    def prefixes_above(d, length, offset, *rest):
        offsets.append(("_prefixes_above", offset))
        return true_prefixes_above(d, length, offset, *rest)

    def depth_cap(threshold, offset, budget):
        offsets.append(("_depth_cap", offset))
        return true_depth_cap(threshold, offset, budget)

    monkeypatch.setattr(order, "_prefixes_above", prefixes_above)
    monkeypatch.setattr(order, "_depth_cap", depth_cap)
    for index in enumerate_admissible_up_to(6):
        phi(index)
    # both ran, for the tail walks alone
    assert set(offsets) == {("_prefixes_above", 1), ("_depth_cap", 1)}
