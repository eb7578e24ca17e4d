"""The value classes are immutable records with the behaviour that
dataclass(frozen=True) gave them: equality, hash and repr by their fields,
no assignment, and copies that equal the original.

Each record is compared with a frozen dataclass of the same name and fields,
which stands for the format the classes had before they became records.
"""

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest

from squaretriads.ecurve import ECPoint, WeierstrassModel
from squaretriads.errors import DomainError
from squaretriads.exactnum import Record, TwoSquares
from squaretriads.families import FamilyReport, ParametricFamily, TwoSquaresPipelineSteps
from squaretriads.quartic import QuarticModel, QuarticPoint
from squaretriads.search import CorpusReport, SearchConfig, Table1Report
from squaretriads.triads import CubicSpec, PQParameterization, SquareCertificate, Triad

F = Fraction

# each class with the fields of one instance, and the fields of another that
# differs in at least one of them
CASES = {
    "Triad": (Triad, dict(a=45, b=64, c=180), dict(a=45, b=64, c=181)),
    "SquareCertificate": (SquareCertificate, dict(f=17, g=150, h=720), dict(f=17, g=150, h=0)),
    "TwoSquares": (TwoSquares, dict(p=F(3, 5), q=F(4, 5), value=F(1)), dict(p=F(4, 5), q=F(3, 5), value=F(1))),
    "CubicSpec": (CubicSpec, dict(f=F(1), g=F(2, 3), h=F(3)), dict(f=F(1), g=F(2), h=F(3))),
    "PQParameterization": (
        PQParameterization,
        dict(p=F(1), q=F(2), m=F(3), h=F(4, 7)),
        dict(p=F(1), q=F(2), m=F(3), h=F(4)),
    ),
    "QuarticModel": (
        QuarticModel,
        dict(a1=F(-20), a2=F(-210), a3=F(-100), a4=F(25)),
        dict(a1=F(1), a2=F(0), a3=F(1), a4=F(1)),
    ),
    "QuarticPoint": (QuarticPoint, dict(u=F(0), v=F(1, 2)), dict(u=F(0), v=F(-1, 2))),
    "ECPoint": (ECPoint, dict(x=F(0), y=F(1)), dict(x=None, y=None)),
    "WeierstrassModel": (WeierstrassModel, dict(A=F(0), B=F(1)), dict(A=F(-2), B=F(1))),
    "ParametricFamily": (
        ParametricFamily,
        dict(
            name="toy", params=("s",), a=1, b=2, c=3, witnesses=(1, 2, 3),
            constraints=(), classification="no-squares", paper_eq="(0)",
        ),
        dict(
            name="toy", params=("s",), a=1, b=2, c=4, witnesses=(1, 2, 3),
            constraints=(), classification="no-squares", paper_eq="(0)",
        ),
    ),
    "FamilyReport": (
        FamilyReport,
        dict(name="toy", ok=True, square_members=1, classification_ok=True, messages=("fine",)),
        dict(name="toy", ok=False, square_members=1, classification_ok=True, messages=("fine",)),
    ),
    "TwoSquaresPipelineSteps": (
        TwoSquaresPipelineSteps,
        dict(x_known=1, t_value=2, u_first=3, u_second=4, x_second=5, family="toy"),
        dict(x_known=1, t_value=2, u_first=3, u_second=4, x_second=6, family="toy"),
    ),
    "SearchConfig": (
        SearchConfig,
        dict(bound=100, primitive_only=True, workers=2),
        dict(bound=100, primitive_only=False, workers=2),
    ),
    "Table1Report": (
        Table1Report,
        dict(rows=(("toy", (1, 2), (1, 2, 3), (1, 2, 3), True),), elapsed=0.5),
        dict(rows=(), elapsed=0.5),
    ),
    "CorpusReport": (
        CorpusReport,
        dict(entries=(((45, 64, 180), SquareCertificate(17, 150, 720)),), elapsed=0.25),
        dict(entries=(((45, 64, 180), None),), elapsed=0.25),
    ),
}

ROUND_TRIPS = {
    **{"pickle-%d" % p: (lambda obj, p=p: pickle.loads(pickle.dumps(obj, protocol=p))) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _dataclass_twin(cls, fields: dict):
    """The frozen dataclass of cls's name and fields, holding the same values."""
    return dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)(**fields)


def test_every_record_class_is_covered():
    assert len(CASES) == 15
    for name, (cls, fields, other) in CASES.items():
        assert cls.__name__ == name and issubclass(cls, Record)
        assert cls._fields == tuple(fields) == tuple(other)
        assert fields != other


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_are_immutable(name):
    cls, fields, _ = CASES[name]
    obj = cls(**fields)
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")
    assert tuple(getattr(obj, field) for field in cls._fields) == tuple(fields.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash_follow_the_fields(name):
    cls, fields, other = CASES[name]
    obj = cls(**fields)
    same = cls(*fields.values())
    assert obj == same and not obj != same
    assert hash(obj) == hash(same) == hash(tuple(fields.values()))
    assert obj != cls(**other)
    values = tuple(fields.values())
    assert obj != values and values != obj
    assert obj.__eq__(values) is NotImplemented
    # a record of another class with the same fields and values is not equal
    twin_record = type(name, (Record,), {"__slots__": cls._fields})(**fields)
    assert obj != twin_record and twin_record != obj
    assert obj != _dataclass_twin(cls, fields)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_dataclass_repr(name):
    cls, fields, other = CASES[name]
    assert repr(cls(**fields)) == repr(_dataclass_twin(cls, fields))
    assert repr(cls(**other)) == repr(_dataclass_twin(cls, other))


def test_repr_examples():
    assert repr(Triad(45, 64, 180)) == "Triad(a=45, b=64, c=180)"
    assert repr(TwoSquares(0, 1, 1)) == "TwoSquares(p=Fraction(0, 1), q=Fraction(1, 1), value=Fraction(1, 1))"
    assert repr(ECPoint()) == "ECPoint(x=None, y=None)"


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_and_copies_give_equal_records(name, how):
    cls, fields, other = CASES[name]
    for obj in (cls(**fields), cls(**other)):
        back = ROUND_TRIPS[how](obj)
        assert type(back) is cls
        assert back == obj and hash(back) == hash(obj)


def test_copies_are_built_through_the_checks():
    # a record pickles as (class, field values), so unpickling validates again
    assert Triad(45, 64, 180).__reduce__() == (Triad, (45, 64, 180))
    assert QuarticModel(1, 0, 1, 1).__reduce__() == (QuarticModel, (F(1), F(0), F(1), F(1)))
    bad = Triad(45, 64, 180)
    object.__setattr__(bad, "c", 0)
    with pytest.raises(DomainError, match="positive integers"):
        copy.copy(bad)


@pytest.mark.parametrize("name", sorted(CASES))
def test_keyword_and_positional_construction_agree(name):
    cls, fields, _ = CASES[name]
    values = list(fields.values())
    assert cls(**fields) == cls(*values)
    # the first half by position, the rest by name
    k = len(values) // 2
    assert cls(*values[:k], **dict(list(fields.items())[k:])) == cls(**fields)
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    with pytest.raises(TypeError):
        cls(*values[:1], **fields)


@pytest.mark.parametrize("cls", [ParametricFamily, FamilyReport, TwoSquaresPipelineSteps, Table1Report, CorpusReport])
def test_generic_construction_requires_every_field(cls):
    with pytest.raises(TypeError):
        cls(*range(len(cls._fields) - 1))


def test_defaults():
    assert SearchConfig(100) == SearchConfig(100, False, 1) == SearchConfig(bound=100, primitive_only=False, workers=1)
    assert ECPoint() == ECPoint(None, None)
    assert ECPoint().is_identity and not ECPoint(0, 1).is_identity


def test_triad_ordering_is_member_tuple_ordering():
    triads = [Triad(*m) for m in itertools.product((1, 2, 3), repeat=3)]
    for s, t in itertools.product(triads, repeat=2):
        u, v = s.members(), t.members()
        assert (s < t, s <= t, s > t, s >= t, s == t) == (u < v, u <= v, u > v, u >= v, u == v)
    assert sorted(reversed(triads)) == triads


@pytest.mark.parametrize("other", [(1, 2, 3), SquareCertificate(1, 2, 3), 1])
def test_triads_order_only_among_triads(other):
    t = Triad(1, 2, 3)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(t, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        t < other
    with pytest.raises(TypeError):
        t >= other


def test_quartic_model_ring_is_no_field():
    model = QuarticModel(-20, -210, -100, 25)
    assert "_ring" in QuarticModel.__slots__ and "_ring" not in QuarticModel._fields
    assert model._ring == (1, -20, -210, -100, 25)
    other = QuarticModel(-20, -210, -100, 25)
    object.__setattr__(other, "_ring", None)
    assert model == other and hash(model) == hash(other) and repr(model) == repr(other)
    assert "_ring" not in repr(model)
    # a copy derives its ring again
    assert pickle.loads(pickle.dumps(other))._ring == model._ring
