"""Frozen value records keep the semantics of `@dataclass(frozen=True)`:
equality within one class, the hash of the field tuple, refused
assignment, defaults, `__post_init__` and `Name(f=..., g=...)` reprs."""

import copy
import pickle
from fractions import Fraction

import pytest

from rittkit import (QQ, BivarPoly, ConstantExpr, FieldDescriptor,
                     InouNormalForm, LinearPoly, OrbitPoint, Poly,
                     PreperiodicResult, ShapeReport, cyclotomic_field)
from rittkit.errors import ResourceCapError
from rittkit.field import CYCLOTOMIC, RATIONALS
from rittkit.record import Record, fresh


class Pair(Record):
    left: int
    right: tuple = ()


class OtherPair(Record):
    left: int
    right: tuple = ()


class Checked(Record):
    n: int
    seen: list = fresh(list)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative")
        self.seen.append(self.n)


def _hot_examples():
    K = cyclotomic_field(5)
    x = Poly.x(QQ)
    return [
        (lambda: Poly(QQ, (Fraction(1), Fraction(2)))),
        (lambda: LinearPoly(QQ, Fraction(2), Fraction(1))),
        (lambda: BivarPoly(QQ, (x, x * x))),
        (lambda: FieldDescriptor(CYCLOTOMIC, 5)),
        (lambda: Poly(K, (K.zeta(),))),
    ]


HOT = _hot_examples()
PLAIN = [
    lambda: Pair(1, (2, 3)),
    lambda: OrbitPoint(3, (Fraction(1), Fraction(2))),
    lambda: ConstantExpr("int", 7),
    lambda: ShapeReport(True, False, None, None, False),
    lambda: PreperiodicResult("Preperiodic", 1, 2),
]


@pytest.mark.parametrize("make", HOT + PLAIN)
def test_equal_fields_give_equal_objects_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, n) for n in a._fields))


def test_equality_holds_only_within_one_class():
    assert Pair(1, (2,)) != OtherPair(1, (2,))
    assert Pair(1, (2,)) != (1, (2,))
    assert Pair(1, (2,)) != Pair(1, (3,))
    x = Poly.x(QQ)
    rows = (x, x)
    assert Poly(QQ, rows) != BivarPoly(QQ, rows)
    assert BivarPoly(QQ, rows) != Poly(QQ, rows)
    assert FieldDescriptor(RATIONALS) != (RATIONALS, None)
    assert Poly(QQ, (Fraction(1),)) != Poly(cyclotomic_field(3),
                                            (Fraction(1),))


@pytest.mark.parametrize("make", HOT + PLAIN)
def test_assignment_is_refused(make):
    obj = make()
    field = obj._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("make", HOT + PLAIN[1:])
def test_copy_and_pickle_round_trip(make):
    obj = make()
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj))):
        assert twin == obj and type(twin) is type(obj)


def test_hot_classes_have_slots_and_no_dict():
    for make in HOT:
        obj = make()
        assert not hasattr(obj, "__dict__")
        assert type(obj).__slots__ == type(obj)._fields


def test_defaults():
    assert FieldDescriptor(RATIONALS).order is None
    assert FieldDescriptor(RATIONALS) is not QQ
    assert FieldDescriptor(RATIONALS) == QQ
    assert FieldDescriptor(kind=CYCLOTOMIC, order=7).order == 7
    e = ConstantExpr("int")
    assert (e.value, e.children) == (None, ())
    assert ShapeReport(True, False, None, None, False).hints == ()
    r = PreperiodicResult("Unknown")
    assert (r.tail, r.period, r.certificate) == (None, None, None)
    ell = LinearPoly.identity()
    nf1 = InouNormalForm(ell, ell, 1, 2, Poly.x(), False)
    nf2 = InouNormalForm(ell, ell, 1, 2, Poly.x(), False)
    assert nf1.detail == {} and nf1.detail is not nf2.detail
    nf3 = InouNormalForm(ell, ell, 1, 2, Poly.x(), False, detail={"k": 1})
    assert nf3.detail == {"k": 1}


def test_positional_keyword_and_missing_arguments():
    assert Pair(left=1) == Pair(1) == Pair(1, ())
    assert Pair(right=(5,), left=1) == Pair(1, (5,))
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, (), 3)
    with pytest.raises(TypeError):
        Pair(1, left=2)
    with pytest.raises(TypeError):
        Pair(1, other=2)


def test_post_init_runs_with_fresh_defaults():
    a, b = Checked(1), Checked(2)
    assert a.seen == [1] and b.seen == [2]
    with pytest.raises(ValueError):
        Checked(-1)


def test_field_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor(RATIONALS, 5)
    for order in (None, 0, -3, 1, 2):
        with pytest.raises(ValueError):
            FieldDescriptor(CYCLOTOMIC, order)
    with pytest.raises(ValueError):
        FieldDescriptor("Reals")
    with pytest.raises(ResourceCapError):
        FieldDescriptor(CYCLOTOMIC, 1031)
    with pytest.raises(ResourceCapError):
        FieldDescriptor(CYCLOTOMIC, 10 ** 9)


def test_repr_names_each_field():
    assert repr(Pair(1, (2,))) == "Pair(left=1, right=(2,))"
    assert repr(OrbitPoint(0, (1, 2))) == "OrbitPoint(index=0, point=(1, 2))"
    assert repr(QQ) == "FieldDescriptor(kind='Rationals', order=None)"
    assert repr(FieldDescriptor(CYCLOTOMIC, 5)) == (
        "FieldDescriptor(kind='Cyclotomic', order=5)")
    assert repr(LinearPoly(QQ, Fraction(2), Fraction(1))) == (
        f"LinearPoly(field={QQ!r}, a=Fraction(2, 1), b=Fraction(1, 1))")
    x = Poly.x(QQ)
    assert repr(BivarPoly(QQ, (x,))) == f"BivarPoly(field={QQ!r}, rows=(Poly(x),))"
    assert repr(ConstantExpr("int", 3, ())) == (
        "ConstantExpr(kind='int', value=3, children=())")
