"""Exponent indices and value specifications for nested odd-denominator sums.

A *multi-index* is a tuple of positive integer exponents ``(k_1, ..., k_d)``.
It is *admissible* when it is empty or its first exponent is at least 2;
admissible indices are exactly those whose nested sum converges.  A
:class:`ValueSpec` names either a full value (tail offset 0) or a tail in
which the innermost summation variable is restricted to exceed the offset.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator, Sequence

__all__ = [
    "MultiIndex",
    "ValueSpec",
    "IndexParseError",
    "is_admissible",
    "weight",
    "depth",
    "index_str",
    "parse_index",
    "parse_value_spec",
    "enumerate_admissible",
    "enumerate_admissible_up_to",
]

MultiIndex = tuple[int, ...]


class IndexParseError(ValueError):
    """Raised for malformed index or value-spec text; names the bad token."""


def is_admissible(index: Sequence[int]) -> bool:
    """True when the nested sum for ``index`` converges (empty or first >= 2)."""
    if any(not isinstance(e, int) or e < 1 for e in index):
        return False
    return len(index) == 0 or index[0] >= 2


def weight(index: Sequence[int]) -> int:
    return sum(index)

def depth(index: Sequence[int]) -> int:
    return len(index)


def index_str(index: Sequence[int]) -> str:
    """Serialize an index as comma-separated exponents, ``empty`` for ()."""
    if len(index) == 0:
        return "empty"
    return ",".join(str(e) for e in index)


def parse_index(text: str) -> MultiIndex:
    """Parse ``"2,1,1"`` style text (or ``"empty"``) into a multi-index.

    Raises :class:`IndexParseError` naming the offending token.  Admissibility
    is enforced: the leading exponent must be at least 2 so the outer sum
    converges.
    """
    stripped = text.strip()
    if stripped.lower() == "empty":
        return ()
    if stripped == "":
        raise IndexParseError("empty index text; use 'empty' for the empty index")
    parts = stripped.split(",")
    result = []
    for token in parts:
        token = token.strip()
        if not token.isdigit():
            raise IndexParseError(f"invalid exponent token {token!r}")
        value = int(token)
        if value < 1:
            raise IndexParseError(f"exponent must be positive, got {token!r}")
        result.append(value)
    if result[0] < 2:
        raise IndexParseError(
            f"leading exponent {parts[0].strip()!r} is inadmissible: "
            "it must be at least 2 for the outer sum to converge"
        )
    return tuple(result)


class _Frozen:
    """Base of the immutable value types.  ``__slots__`` names the fields in
    declaration order, and the protocol derives from it: construction by
    position or name, equality and hash over the field tuple, repr, and
    copies and pickles that go back through the constructor.  After
    ``__init__`` no field can be assigned or deleted."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names, values = self.__slots__, args
        if kwargs:
            bound = dict(zip(names, args), **kwargs)
            # a surplus position, or a field given twice, leaves fewer values than arguments
            complete = len(bound) == len(args) + len(kwargs) and bound.keys() == set(names)
            values = tuple(bound[name] for name in names) if complete else None
        if values is None or len(values) != len(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {', '.join(names)}; "
                f"got {len(args)} by position and {sorted(kwargs)} by name"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> dict:
        """The fields by name, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"


@total_ordering
class ValueSpec(_Frozen):
    """Names the number: full value at offset 0, tail for offset ``n >= 1``.

    A tail restricts the innermost summation variable to exceed
    ``tail_offset``; the empty index has value exactly 1 at every offset.
    Instances are immutable and hashable, and order by index, then offset.
    """

    __slots__ = ("index", "tail_offset")
    index: MultiIndex
    tail_offset: int

    def __init__(self, index: MultiIndex, tail_offset: int = 0) -> None:
        if tail_offset < 0:
            raise ValueError("tail_offset must be non-negative")
        if any(not isinstance(e, int) or e < 1 for e in index):
            raise ValueError(f"exponents must be positive integers: {index}")
        # set directly: binding through the base's ``__init__`` is 2x slower
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "tail_offset", tail_offset)

    # written out: specs key every memo, and the base's derived hash and
    # equality are 2x slower
    def __hash__(self) -> int:
        return hash((self.index, self.tail_offset))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return (self.index, self.tail_offset) == (other.index, other.tail_offset)
        return NotImplemented

    def __lt__(self, other: object):
        if other.__class__ is self.__class__:
            return (self.index, self.tail_offset) < (other.index, other.tail_offset)
        return NotImplemented

    @property
    def admissible(self) -> bool:
        return is_admissible(self.index)

    @property
    def weight(self) -> int:
        return weight(self.index)

    @property
    def depth(self) -> int:
        return depth(self.index)

    def serialize(self) -> str:
        if self.tail_offset == 0:
            return index_str(self.index)
        return f"tail:{self.tail_offset}:{index_str(self.index)}"

    def __str__(self) -> str:
        return self.serialize()


def parse_value_spec(text: str) -> ValueSpec:
    """Parse ``"<index>"`` or ``"tail:<n>:<index>"`` notation."""
    stripped = text.strip()
    if stripped.lower().startswith("tail:"):
        parts = stripped.split(":", 2)
        if len(parts) != 3:
            raise IndexParseError(f"malformed tail spec {text!r}; use tail:<n>:<index>")
        offset_token = parts[1].strip()
        if not offset_token.isdigit():
            raise IndexParseError(f"invalid tail offset token {offset_token!r}")
        return ValueSpec(parse_index(parts[2]), int(offset_token))
    if ":" in stripped:
        raise IndexParseError(f"unrecognized value spec {text!r}")
    return ValueSpec(parse_index(stripped), 0)


def _compositions(total: int, parts: int, minimum_first: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` positive parts, first bounded
    below, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= minimum_first:
            yield (total,)
        return
    for first in range(minimum_first, total - (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, 1):
            yield (first,) + rest


def enumerate_admissible(target_weight: int) -> list[MultiIndex]:
    """All admissible indices of the exact weight, depth-graded then
    lexicographic.  There are ``2**(w-2)`` of them for weight ``w >= 2``.

    Weights below 2 are rejected: the only index of weight 0 is the empty
    index (callers wanting it ask :func:`enumerate_admissible_up_to` with
    ``include_empty``), and weight 1 admits no convergent index at all.
    """
    if target_weight < 2:
        raise ValueError("weight must be at least 2")
    result: list[MultiIndex] = []
    for d in range(1, target_weight):
        result.extend(_compositions(target_weight, d, 2))
    return result


def enumerate_admissible_up_to(max_weight: int, include_empty: bool = False) -> list[MultiIndex]:
    """Admissible indices with ``2 <= weight <= max_weight`` (optionally with
    the empty index first), ordered by weight, then depth, then lexicographic."""
    result: list[MultiIndex] = [()] if include_empty else []
    for w in range(2, max_weight + 1):
        result.extend(enumerate_admissible(w))
    return result

