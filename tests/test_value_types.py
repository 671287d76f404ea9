"""The small value types: equality, hash, order, repr, immutability and
validation of ``ValueSpec``, ``PrecisionBudget``, ``EvalRequest`` and
``CacheRecord``, the record protocol of the order and scan results, and the
key order of a cache line."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from tvals.cli import CacheRecord, cache_store
from tvals.enclosure import Enclosure
from tvals.evaluator import DEFAULT_TARGET_WIDTH, EvalRequest
from tvals.indices import ValueSpec
from tvals.numerics import PrecisionBudget
from tvals.order import BetaEntry, ComparisonOutcome, PhiCoord, Verdict
from tvals.verify import Finding, ScanReport, ScanStatus

_RECORD_FIELDS = ["index", "tail_offset", "precision_bits", "lo", "hi", "method", "created_at"]


_RECORD = dict(index=[2, 1], tail_offset=0, precision_bits=96, lo="0.1", hi="0.2",
               method="accelerated", created_at="2020-01-01T00:00:00+00:00")


def _record(**changes):
    return CacheRecord(**{**_RECORD, **changes})


_FINDING = Finding("2,1", "pass", "ok", {"actual": [1, 2]})

# per record type: its fields by name in declaration order, one field
# changed, whether it is hashable, and the repr of the record
_RECORDS = [
    pytest.param(
        ComparisonOutcome, dict(verdict=Verdict.GREATER, separation=Fraction(1, 3), bits_used=64),
        dict(verdict=Verdict.LESS), True,
        "ComparisonOutcome(verdict=<Verdict.GREATER: 'Greater'>, separation=Fraction(1, 3), bits_used=64)",
        id="ComparisonOutcome",
    ),
    pytest.param(
        BetaEntry, dict(rank=1, index=(), value=Enclosure.exact_int(1)), dict(rank=2), True,
        "BetaEntry(rank=1, index=(), value=Enclosure([1.00000000000000000000, "
        "1.00000000000000000000], bits=8))",
        id="BetaEntry",
    ),
    pytest.param(
        PhiCoord, dict(band=2, position=3), dict(position=4), True,
        "PhiCoord(band=2, position=3)",
        id="PhiCoord",
    ),
    pytest.param(
        Finding, dict(subject="2,1", verdict="pass", detail="ok", data={"actual": [1, 2]}),
        dict(data={"actual": [1, 3]}), False,
        "Finding(subject='2,1', verdict='pass', detail='ok', data={'actual': [1, 2]})",
        id="Finding",
    ),
    pytest.param(
        ScanReport,
        dict(scan_id="pairing", parameters={"total_max": 4}, findings=[_FINDING],
             status=ScanStatus.ALL_PASSED),
        dict(status=ScanStatus.UNRESOLVED), False,
        "ScanReport(scan_id='pairing', parameters={'total_max': 4}, findings=[Finding("
        "subject='2,1', verdict='pass', detail='ok', data={'actual': [1, 2]})], "
        "status=<ScanStatus.ALL_PASSED: 'AllPassed'>)",
        id="ScanReport",
    ),
    pytest.param(
        CacheRecord, _RECORD, dict(hi="0.3"), False,
        "CacheRecord(index=[2, 1], tail_offset=0, precision_bits=96, lo='0.1', hi='0.2', "
        "method='accelerated', created_at='2020-01-01T00:00:00+00:00')",
        id="CacheRecord",
    ),
]


@pytest.mark.parametrize("cls, fields, change, hashable, text", _RECORDS)
def test_record_repr(cls, fields, change, hashable, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, change, hashable, text", _RECORDS)
def test_record_binds_fields_by_position_or_name(cls, fields, change, hashable, text):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    (_, first), *rest = fields.items()
    assert cls(first, **dict(rest)) == record
    for bad in (
        lambda: cls(),
        lambda: cls(*fields.values(), None),
        lambda: cls(**fields, extra=1),
        lambda: cls(first, **fields),
    ):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("cls, fields, change, hashable, text", _RECORDS)
def test_record_equality_and_hash(cls, fields, change, hashable, text):
    record = cls(**fields)
    assert record == cls(**fields)
    assert record != cls(**{**fields, **change})
    assert record != tuple(fields.values())
    if hashable:
        assert hash(record) == hash(tuple(fields.values()))
        assert len({record, cls(**fields), cls(**{**fields, **change})}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_finding_default_data_is_fresh():
    first, second = Finding("2,1", "pass"), Finding("3", "pass")
    assert first == Finding("2,1", "pass", "", {})
    assert first.data == {} and first.data is not second.data
    first.data["actual"] = [1, 1]
    assert second.data == {}


def test_value_spec_equality_and_hash():
    spec = ValueSpec((2, 1), 0)
    assert spec == ValueSpec((2, 1)) == ValueSpec(index=(2, 1), tail_offset=0)
    assert spec != ValueSpec((2, 1), 1)
    assert spec != ((2, 1), 0)
    assert hash(spec) == hash(((2, 1), 0))
    assert len({spec, ValueSpec((2, 1)), ValueSpec((2, 1), 1)}) == 2


def test_value_spec_orders_by_index_then_offset():
    specs = [ValueSpec((3,)), ValueSpec((2, 1), 1), ValueSpec((2, 1)), ValueSpec(()), ValueSpec((2,), 4)]
    assert sorted(specs) == [
        ValueSpec(()), ValueSpec((2,), 4), ValueSpec((2, 1)), ValueSpec((2, 1), 1), ValueSpec((3,))
    ]
    assert ValueSpec((2,)) < ValueSpec((2, 1)) <= ValueSpec((2, 1)) < ValueSpec((2, 1), 1)
    assert ValueSpec((3,)) > ValueSpec((2, 9)) >= ValueSpec((2, 9))
    assert not ValueSpec((2,)) < ValueSpec((2,))
    with pytest.raises(TypeError):
        ValueSpec((2,)) < ((2,), 0)


def test_budget_and_request_equality_and_hash():
    assert PrecisionBudget() == PrecisionBudget(64, 4096) == PrecisionBudget(start_bits=64, max_bits=4096)
    assert PrecisionBudget(64, 128) != PrecisionBudget(64, 256)
    assert hash(PrecisionBudget(32, 128)) == hash((32, 128))
    spec = ValueSpec((2,))
    request = EvalRequest(spec)
    assert request.target_width == DEFAULT_TARGET_WIDTH
    assert request.budget == PrecisionBudget()
    assert request == EvalRequest(spec, DEFAULT_TARGET_WIDTH, PrecisionBudget())
    assert request != EvalRequest(spec, Fraction(1, 10))
    assert hash(request) == hash((spec, DEFAULT_TARGET_WIDTH, PrecisionBudget()))


def test_reprs():
    assert repr(ValueSpec((2, 1), 3)) == "ValueSpec(index=(2, 1), tail_offset=3)"
    assert str(ValueSpec((2, 1), 3)) == "tail:3:2,1"
    assert repr(PrecisionBudget()) == "PrecisionBudget(start_bits=64, max_bits=4096)"
    assert repr(EvalRequest(ValueSpec((2,)), Fraction(1, 8), PrecisionBudget(16, 32))) == (
        "EvalRequest(spec=ValueSpec(index=(2,), tail_offset=0), "
        "target_width=Fraction(1, 8), budget=PrecisionBudget(start_bits=16, max_bits=32))"
    )
    assert repr(_record()) == (
        "CacheRecord(index=[2, 1], tail_offset=0, precision_bits=96, lo='0.1', hi='0.2', "
        "method='accelerated', created_at='2020-01-01T00:00:00+00:00')"
    )


@pytest.mark.parametrize(
    "value, field",
    [
        (ValueSpec((2,)), "index"),
        (ValueSpec((2,)), "tail_offset"),
        (PrecisionBudget(), "max_bits"),
        (EvalRequest(ValueSpec((2,))), "budget"),
        (ComparisonOutcome(Verdict.LESS, Fraction(1, 3), 64), "separation"),
        (BetaEntry(1, (), Enclosure.exact_int(1)), "rank"),
        (PhiCoord(2, 3), "band"),
        (_FINDING, "data"),
        (ScanReport("pairing", {}, [], ScanStatus.UNRESOLVED), "findings"),
        (_record(), "created_at"),
    ],
)
def test_frozen_types_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize(
    "value",
    [
        ValueSpec((2, 1), 3),
        PrecisionBudget(16, 32),
        EvalRequest(ValueSpec((2,)), Fraction(1, 8)),
        ComparisonOutcome(Verdict.GREATER, Fraction(1, 3), 64),
        BetaEntry(1, (), Enclosure.exact_int(1)),
        PhiCoord(2, 3),
        _FINDING,
        ScanReport("pairing", {"total_max": 4}, [_FINDING], ScanStatus.ALL_PASSED),
        _record(),
    ],
)
def test_frozen_types_copy_and_pickle(value):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ValueSpec((2,), -1), "tail_offset must be non-negative"),
        (lambda: ValueSpec((2, 0)), r"exponents must be positive integers: \(2, 0\)"),
        (lambda: ValueSpec((2.0,)), "exponents must be positive integers"),
        (lambda: PrecisionBudget(start_bits=4), "start_bits must be at least 8"),
        (lambda: PrecisionBudget(64, 32), "max_bits must be at least start_bits"),
        (lambda: EvalRequest(ValueSpec((2,)), Fraction(0)), "target_width must be positive"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_cache_record_fields():
    record = _record()
    assert record == _record()
    assert record != _record(hi="0.3")
    with pytest.raises(TypeError):
        hash(record)
    fields = {name: getattr(record, name) for name in _RECORD_FIELDS}
    with pytest.raises(TypeError):
        CacheRecord(**{**fields, "extra": 1})
    del fields["method"]
    with pytest.raises(TypeError):
        CacheRecord(**fields)


def test_cache_store_writes_the_fields_in_order(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_store(path, _record())
    line = path.read_text(encoding="utf-8")
    assert line.endswith("\n") and line.count("\n") == 1
    assert list(json.loads(line)) == _RECORD_FIELDS
    assert line == (
        '{"index": [2, 1], "tail_offset": 0, "precision_bits": 96, "lo": "0.1", "hi": "0.2", '
        '"method": "accelerated", "created_at": "2020-01-01T00:00:00+00:00"}\n'
    )
