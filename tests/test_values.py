"""Value semantics of the package's record and value types: equality by
value, hashing and immutability where the type is frozen, and the
constructor checks of the frozen types with a validating constructor."""

from __future__ import annotations

from fractions import Fraction

import pytest

from detorbit.invariant import HomPoly
from detorbit.kronecker import PositivityReport
from detorbit.latin import OrbitTally, SignedTally
from detorbit.oracles import MatrixTensorTerm
from detorbit.orbit import RestrictionMatrix, WitnessResult
from detorbit.tensors import SparseTensor

_A = RestrictionMatrix.from_rows([[1, 0], [0, 1]])
_B = RestrictionMatrix.from_rows([[1, 1], [0, 1]])
_M = ((Fraction(1),),)

# Per type: a factory of a fresh value, an equal value built apart from it,
# and a different value.
_VALUES = {
    "RestrictionMatrix": lambda: (
        RestrictionMatrix.from_rows([[1, 0], [0, 1]]),
        RestrictionMatrix(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))),
        RestrictionMatrix.from_rows([[1, 0], [0, 2]]),
    ),
    "MatrixTensorTerm": lambda: (
        MatrixTensorTerm(Fraction(1, 2), (_M,)),
        MatrixTensorTerm(Fraction(2, 4), (((Fraction(1),),),)),
        MatrixTensorTerm(Fraction(1, 3), (_M,)),
    ),
    "SignedTally": lambda: (
        SignedTally(1, 2, {((1,), (2,)): (1, 0)}),
        SignedTally(1, 2, {((1,), (2,)): (1, 0)}),
        SignedTally(1, 2, {((1,), (2,)): (0, 1)}),
    ),
    "OrbitTally": lambda: (
        OrbitTally(1, 2, {(1, 2): (2, 1, 0)}),
        OrbitTally(1, 2, {(1, 2): (2, 1, 0)}),
        OrbitTally(1, 3, {(1, 2): (2, 1, 0)}),
    ),
    "WitnessResult": lambda: (
        WitnessResult(2, 2, _A, Fraction(1), 0, "cyclic-identity", 0),
        WitnessResult(2, 2, _A, Fraction(1), 0, "cyclic-identity", 0),
        WitnessResult(2, 2, _B, Fraction(1), 1, "all-ones", 0),
    ),
    "PositivityReport": lambda: (
        PositivityReport(2, 1, 2, [{"sk": "1"}], True),
        PositivityReport(2, 1, 2, [{"sk": "1"}], True),
        PositivityReport(2, 1, 2, [{"sk": "0"}], False),
    ),
    "SparseTensor": lambda: (
        SparseTensor(2, 2, {b"\x00\x01": Fraction(1)}),
        SparseTensor(2, 2, {b"\x00\x01": 1, b"\x01\x00": 0}),
        SparseTensor(2, 2, {b"\x01\x00": Fraction(1)}),
    ),
    "HomPoly": lambda: (
        HomPoly(2, 2, {(1, 1): Fraction(3)}),
        HomPoly(2, 2, {(1, 1): 3, (2, 0): 0}),
        HomPoly(2, 2, {(2, 0): Fraction(3)}),
    ),
}

_FROZEN = {
    "RestrictionMatrix": "rows",
    "MatrixTensorTerm": "coefficient",
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_equality_is_by_value(name):
    value, same, other = _VALUES[name]()
    assert value is not same
    assert value == same and not value != same
    assert value != other and not value == other


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_frozen_types_hash_by_value_and_reject_assignment(name):
    value, same, _other = _VALUES[name]()
    assert hash(value) == hash(same)
    assert len({value, same}) == 1
    field = _FROZEN[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) is before


@pytest.mark.parametrize(
    "rows,message",
    [
        ((), "empty matrix"),
        (((),), "empty matrix"),
        (((Fraction(1), Fraction(0)), (Fraction(1),)), "ragged rows"),
        (((Fraction(1), Fraction(0)),), "need at least as many rows as columns"),
        (((1,),), "entries must be Fractions"),
        (((Fraction(1),), (0.5,)), "entries must be Fractions"),
    ],
)
def test_restriction_matrix_constructor_checks(rows, message):
    with pytest.raises(ValueError, match=message):
        RestrictionMatrix(rows)
