"""Multi-index structure, enumeration order, and text round-trips."""


import pytest
from hypothesis import given, strategies as st

from tvals.indices import (
    IndexParseError,
    ValueSpec,
    depth,
    enumerate_admissible,
    enumerate_admissible_up_to,
    index_str,
    is_admissible,
    parse_index,
    parse_value_spec,
    weight,
)

index_strategy = st.lists(
    st.integers(min_value=1, max_value=6), min_size=0, max_size=5
).map(tuple)

admissible_strategy = index_strategy.filter(is_admissible)


def brute_force_compositions(total):
    """All orderings of positive integers summing to ``total`` with first
    part at least 2, by exhaustive recursion."""

    def extend(remaining, minimum_first):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum_first, remaining + 1):
            for rest in extend(remaining - first, 1):
                yield (first,) + rest

    return [combo for combo in extend(total, 2)]


def test_admissibility_rules():
    assert is_admissible(())
    assert is_admissible((2,))
    assert is_admissible((2, 1, 1))
    assert not is_admissible((1,))
    assert not is_admissible((1, 2))


def test_weight_and_depth():
    assert weight(()) == 0 and depth(()) == 0
    assert weight((3, 1, 2)) == 6 and depth((3, 1, 2)) == 3


@pytest.mark.parametrize("w", range(2, 11))
def test_enumeration_count_matches_brute_force(w):
    enumerated = enumerate_admissible(w)
    brute = brute_force_compositions(w)
    assert sorted(enumerated) == sorted(brute)
    assert len(enumerated) == 2 ** (w - 2)
    assert len(set(enumerated)) == len(enumerated)


def test_enumeration_is_depth_graded_then_lexicographic():
    enumerated = enumerate_admissible(5)
    assert enumerated == sorted(enumerated, key=lambda k: (len(k), k))
    depths = [depth(k) for k in enumerated]
    assert depths == sorted(depths)


def test_enumerate_weight_edge_cases():
    assert enumerate_admissible(2) == [(2,)]
    assert enumerate_admissible(3) == [(3,), (2, 1)]
    with pytest.raises(ValueError):
        enumerate_admissible(1)
    with pytest.raises(ValueError):
        enumerate_admissible(0)


def test_enumerate_up_to_collects_all_weights():
    up_to = enumerate_admissible_up_to(6)
    assert len(up_to) == sum(2 ** (w - 2) for w in range(2, 7)) == 31
    assert all(2 <= weight(k) <= 6 for k in up_to)
    with_empty = enumerate_admissible_up_to(6, include_empty=True)
    assert with_empty[0] == () and len(with_empty) == 32


@given(admissible_strategy)
def test_index_text_round_trip(index):
    assert parse_index(index_str(index)) == index


def test_parse_errors_name_the_token():
    with pytest.raises(IndexParseError, match="'x'"):
        parse_index("2,x")
    with pytest.raises(IndexParseError, match="'0'"):
        parse_index("2,0")
    with pytest.raises(IndexParseError, match="'1'"):
        parse_index("1,2")
    with pytest.raises(IndexParseError):
        parse_index("")


def test_parse_empty_keyword():
    assert parse_index("empty") == ()
    assert parse_index(" EMPTY ") == ()


@given(admissible_strategy, st.integers(min_value=0, max_value=9))
def test_value_spec_round_trip(index, offset):
    spec = ValueSpec(index, offset)
    assert parse_value_spec(spec.serialize()) == spec


def test_value_spec_text_forms():
    assert parse_value_spec("2,1") == ValueSpec((2, 1), 0)
    assert parse_value_spec("tail:1:empty") == ValueSpec((), 1)
    assert parse_value_spec("tail:3:2,1") == ValueSpec((2, 1), 3)
    with pytest.raises(IndexParseError):
        parse_value_spec("tail:-1:2")
    with pytest.raises(IndexParseError):
        parse_value_spec("tail:x:2")


def test_value_spec_rejects_negative_offset():
    with pytest.raises(ValueError):
        ValueSpec((2,), -1)
