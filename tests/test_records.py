"""The result records are immutable values: equal by class and fields,
hashable, picklable, and never taken for a tuple by the canonical JSON."""

import importlib
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import invineq
from invineq.charpoly import CharPoly, IdentityReport
from invineq.cli import _json_encoder
from invineq.determinants import DetReport
from invineq.matrices import PolyMatrix, RatMatrix, build_boundary
from invineq.polynomial import RatPoly
from invineq.records import Record
from invineq.roots import Enclosure
from invineq.spectra import (
    AsymptoticRow,
    BoundReport,
    FloatCrossReport,
    InverseConstantReport,
    MonotoneReport,
    OrderingFlags,
    QuadraticSurd,
)

# Each factory builds a fresh record, equal to the one it built before.
RECORDS = {
    Enclosure: lambda: Enclosure(F(1, 3), F(1, 2)),
    RatMatrix: lambda: RatMatrix(((F(1), F(2)), (F(2), F(5)))),
    PolyMatrix: lambda: build_boundary(0, 3),
    CharPoly: lambda: CharPoly(2, 1, RatPoly((-3, 1))),
    IdentityReport: lambda: IdentityReport(),
    DetReport: lambda: DetReport(2, "boundary-0", RatPoly((4, F(-2, 5))), RatPoly((4, F(-2, 5)))),
    QuadraticSurd: lambda: QuadraticSurd(F(1, 3), F(1, 2)),
    OrderingFlags: lambda: OrderingFlags(True, True, True, False, True, True, False, True),
    BoundReport: lambda: BoundReport(
        4, QuadraticSurd(F(5), F(10)), Enclosure(F(8), F(9)), F(10),
        Enclosure(F(9), F(10)), Enclosure(F(8), F(9)),
        OrderingFlags(True, True, True, True, True, True, False, True)),
    MonotoneReport: lambda: MonotoneReport(True, 3, ()),
    InverseConstantReport: lambda: InverseConstantReport(4, Enclosure(F(2), F(3)), True, True),
    AsymptoticRow: lambda: AsymptoticRow(10, F(1, 2), F(1, 3), F(9), F(10), {"pi_sq": F(10)}),
    FloatCrossReport: lambda: FloatCrossReport(2, 3.0, 3.0, 0.0, 1e-9, True, False),
}

# The record's own checks, each on values it must refuse.
INVALID = {
    Enclosure: lambda: Enclosure(F(1), F(0)),
    QuadraticSurd: lambda: QuadraticSurd(F(0), F(-1)),
}


# Records whose fields all have defaults, so that no field is missing.
DEFAULTED = {IdentityReport}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_value(cls):
    record, twin = RECORDS[cls](), RECORDS[cls]()
    assert type(record) is cls and record is not twin and record == twin
    values = _fields(record)
    if any(isinstance(v, dict) for v in values):
        # A record that holds a dict is unhashable, as the dict is.
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)

    # Positional and keyword construction, in field order.
    assert cls(*values) == record
    assert cls(**dict(zip(cls.__slots__, values))) == record

    assert record != values and values != record
    other = next(c for c in RECORDS if c is not cls)
    assert record != RECORDS[other]()

    with pytest.raises(AttributeError):
        setattr(record, cls.__slots__[0], values[0])
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    with pytest.raises(AttributeError):
        delattr(record, cls.__slots__[0])

    if cls in INVALID:
        with pytest.raises(ValueError):
            INVALID[cls]()

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record

    with pytest.raises(TypeError):
        _json_encoder().encode(record)
    with pytest.raises(TypeError):
        _json_encoder().encode({"row": record})


def test_records_with_equal_fields_differ_by_class():
    assert Enclosure(F(1), F(2)) != QuadraticSurd(F(1), F(2))


def test_every_record_has_a_factory():
    # Importing the package loads only its core layers, so every module is
    # imported here: then __subclasses__ sees the records of each one.
    for info in pkgutil.iter_modules(invineq.__path__, "invineq."):
        importlib.import_module(info.name)
    found, todo = set(), list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.split(".")[0] == "invineq":
            found.add(cls)
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_construction_rejects_a_bad_signature(cls):
    values = _fields(RECORDS[cls]())
    first = cls.__slots__[0]
    if cls not in DEFAULTED:
        with pytest.raises(TypeError):
            cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
