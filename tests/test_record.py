"""The value semantics of every record class: construction, validation,
equality, hash, repr and immutability."""

from fractions import Fraction

import pytest

from oneloop.cli import RunConfig
from oneloop.exact import QI
from oneloop.heis import HeisLatticePoint, HeisPoint, LatticeDescription
from oneloop.liealg import CenterVector
from oneloop.matrices import MatGl, StructureReport
from oneloop.params import ModelParams
from oneloop.quatarith import QuatInt, QuatParams

P23 = QuatParams(2, 3)


# (class, arguments, arguments of an unequal value, arguments that
# __post_init__ rejects or None when the class validates nothing)
CASES = [
    (RunConfig, ("center",), ("lattice",), ("center", 0)),
    (ModelParams, (2, 1.0), (2, 0.5), (0,)),
    (MatGl, (1, ((0, 0, QI(1)),)), (1, ((0, 0, QI(2)),)), (1, ((0, 0, 1),))),
    (StructureReport, (2, 16, ()), (2, 16, (("E1", "T"),)), None),
    (CenterVector, (Fraction(1, 2), 1, 0), (Fraction(1, 2), 2, 0), (0, 0.5, 0)),
    (QuatParams, (2, 3), (3, 7), (0, 3)),
    (QuatInt, (1, 0, 0, 0, P23), (1, 0, 0, 0, QuatParams(3, 7)), (1.0, 0, 0, 0, P23)),
    (HeisPoint, ((QI(1), QI(0)), Fraction(0)), ((QI(1), QI(0)), Fraction(1)),
     ((0.5,), 0)),
    (LatticeDescription, (1, ((QI(1),),), Fraction(1)), (1, ((QI(1),),), Fraction(2)),
     (2, ((QI(1),),), Fraction(1))),
    (HeisLatticePoint, ((1, 2), 0), ((1, 2), 1), ((1.5,), 0)),
]


@pytest.mark.parametrize("cls, args, other, bad", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_value_semantics(cls, args, other, bad):
    value = cls(*args)
    names = tuple(cls.__annotations__)
    values = tuple(getattr(value, name) for name in names)
    assert hash(value) == hash(values)
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    assert value != cls(*other)
    assert value != values and value.__eq__(values) is NotImplemented
    assert repr(value) == (
        f"{cls.__name__}(" + ", ".join(f"{n}={getattr(value, n)!r}" for n in names) + ")"
    )
    if cls is QuatInt:
        # Slotted and unfrozen: built once per norm-one scan candidate.
        assert cls.__slots__ == names and not hasattr(value, "__dict__")
    else:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, names[0], values[0])
        with pytest.raises(AttributeError):
            delattr(value, names[0])
        assert getattr(value, names[0]) == values[0]
    with pytest.raises(TypeError, match="missing"):
        cls()
    if bad is not None:
        with pytest.raises(ValueError):
            cls(*bad)


def test_repr_and_defaults():
    assert repr(QuatInt(1, 0, 0, 0, P23)) == (
        "QuatInt(q0=1, q1=0, q2=0, q3=0, params=QuatParams(a=2, b=3))")
    assert repr(ModelParams(1)) == "ModelParams(n=1, c=0.0)"
    assert RunConfig("center") == RunConfig("center", 2, 1.0, None, 42, 20, 3, None, None,
                                            (1.0, 2.0, 4.0))


def test_only_init_is_generated():
    # One __eq__, __hash__ and __repr__ (and, when frozen, one __setattr__
    # and __delattr__) serve every record; each class gets its own __init__.
    classes = [case[0] for case in CASES]
    for name in ("__eq__", "__hash__", "__repr__"):
        assert len({vars(cls)[name] for cls in classes}) == 1, name
    frozen = [cls for cls in classes if cls is not QuatInt]
    for name in ("__setattr__", "__delattr__"):
        assert len({vars(cls)[name] for cls in frozen}) == 1, name
    assert len({vars(cls)["__init__"] for cls in classes}) == len(classes)
