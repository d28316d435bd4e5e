"""The value types: their repr, equality, hash and immutability are pinned.

Seven result records (`TwoSquareRep`, `PythTriple`, `PythQuadruple`,
`CZ2Solution`, `ZlSolution`, `Factorization`, `GaussianFactorization`) hold
only ints, bools and tuples. `GaussianInt`, `ResidueSet` and `QuadCongruence`
are values too, but not sequences: `3 * GaussianInt(1, 2)` must not repeat
it, and a `ResidueSet` iterates over its residues. The three share one base,
`core._Value`: their equality, hash, repr and pickling follow the tuple of
their fields, and a value never equals one of another class.
"""

import copy
import pickle

import pytest

from quadres import (
    CZ2Solution,
    Factorization,
    GaussianFactorization,
    GaussianInt,
    PythQuadruple,
    PythTriple,
    QuadCongruence,
    ResidueSet,
    TwoSquareRep,
    ZlSolution,
)
from quadres.errors import BadParameters, NotQuadratic

# (make, fields, repr): make(**fields) builds the instance, and the repr is
# the one every earlier release printed
TYPES = [
    (GaussianInt, dict(re=1, im=2), "GaussianInt(re=1, im=2)"),
    (
        ResidueSet,
        dict(modulus=8, residues=(1, 3, 5, 7)),
        "ResidueSet(modulus=8, residues=(1, 3, 5, 7))",
    ),
    (QuadCongruence, dict(a=1, b=0, c=-1, n=8), "QuadCongruence(a=1, b=0, c=-1, n=8)"),
    (TwoSquareRep, dict(a=3, b=4, primitive=True), "TwoSquareRep(a=3, b=4, primitive=True)"),
    (PythTriple, dict(s=4, t=3, r=5, m=2, n=1), "PythTriple(s=4, t=3, r=5, m=2, n=1)"),
    (
        PythQuadruple,
        dict(x=0, y=0, z=4, w=4, m=1, n=1, u=1, v=1, primitive=False),
        "PythQuadruple(x=0, y=0, z=4, w=4, m=1, n=1, u=1, v=1, primitive=False)",
    ),
    (
        CZ2Solution,
        dict(x=2, y=11, z=5, c=5, d3=1, g=0, u=2, v=1),
        "CZ2Solution(x=2, y=11, z=5, c=5, d3=1, g=0, u=2, v=1)",
    ),
    (
        ZlSolution,
        dict(x=2, y=11, z=5, l=3, a=2, b=1),
        "ZlSolution(x=2, y=11, z=5, l=3, a=2, b=1)",
    ),
    (
        Factorization,
        dict(sign=-1, factors=((2, 3), (3, 2), (5, 1))),
        "Factorization(sign=-1, factors=((2, 3), (3, 2), (5, 1)))",
    ),
    (
        GaussianFactorization,
        dict(unit=GaussianInt(1, 0), factors=((GaussianInt(2, 1), 2),)),
        "GaussianFactorization(unit=GaussianInt(re=1, im=0), "
        "factors=((GaussianInt(re=2, im=1), 2),))",
    ),
]
IDS = [make.__name__ for make, _, _ in TYPES]


@pytest.mark.parametrize("make, fields, text", TYPES, ids=IDS)
def test_repr_lists_the_fields(make, fields, text):
    assert repr(make(**fields)) == text
    assert repr(make(*fields.values())) == text


@pytest.mark.parametrize("make, fields, text", TYPES, ids=IDS)
def test_fields_read_back_by_name(make, fields, text):
    obj = make(**fields)
    assert {name: getattr(obj, name) for name in fields} == fields


@pytest.mark.parametrize("make, fields, text", TYPES, ids=IDS)
def test_equality_and_hash_follow_the_fields(make, fields, text):
    obj = make(**fields)
    assert obj == make(**fields)
    assert not obj != make(**fields)
    assert hash(obj) == hash(make(**fields)) == hash(tuple(fields.values()))
    # changing the last field gives an unequal value of the same type
    *first, last = fields.values()
    other = {bool: lambda v: not v, int: lambda v: v + 1, tuple: lambda v: v[:-1]}[type(last)](last)
    assert obj != make(*first, other)
    assert not obj == make(*first, other)


def test_gaussian_int_hash_is_the_hash_of_its_pair():
    assert hash(GaussianInt(1, 2)) == hash((1, 2))
    assert GaussianInt() == GaussianInt(0, 0)
    assert len({GaussianInt(1, 2), GaussianInt(1, 2), GaussianInt(2, 1)}) == 2


@pytest.mark.parametrize("make, fields, text", TYPES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, fields, text):
    obj = make(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == make(**fields)


@pytest.mark.parametrize("make, fields, text", TYPES, ids=IDS)
def test_pickle_and_copy_round_trip(make, fields, text):
    obj = make(**fields)
    for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(back) is make
        assert back == obj


@pytest.mark.parametrize("make", [GaussianInt, ResidueSet, QuadCongruence])
def test_the_three_classes_are_not_tuples(make):
    fields = next(f for m, f, _ in TYPES if m is make)
    obj = make(**fields)
    assert not isinstance(obj, tuple)
    assert obj != tuple(fields.values())


def test_equal_fields_of_two_classes_are_unequal_values():
    # the same field tuple in two of the three classes, compared both ways
    pairs = [
        (GaussianInt(8, (1,)), ResidueSet(8, (1,))),
        (GaussianInt(1, 2), ResidueSet(1, 2)),
    ]
    for x, y in pairs + [(y, x) for x, y in pairs]:
        assert not x == y
        assert x != y
    assert len({GaussianInt(1, 2), ResidueSet(1, 2)}) == 2


def test_gaussian_int_is_not_a_sequence():
    with pytest.raises(TypeError):
        3 * GaussianInt(1, 2)
    with pytest.raises(TypeError):
        GaussianInt(1, 2) * 3
    with pytest.raises(TypeError):
        GaussianInt(1, 2) + 3
    with pytest.raises(TypeError):
        GaussianInt(1, 2) - 3
    with pytest.raises(TypeError):
        len(GaussianInt(1, 2))
    with pytest.raises(TypeError):
        iter(GaussianInt(1, 2))


def test_residue_set_goes_over_its_residues():
    rs = ResidueSet(8, (1, 3, 5, 7))
    assert len(rs) == 4
    assert list(rs) == [1, 3, 5, 7]
    assert 9 in rs and -1 in rs and 2 not in rs
    (only,) = ResidueSet(5, (2,))
    assert only == 2


def test_quad_congruence_keeps_its_checks():
    with pytest.raises(NotQuadratic):
        QuadCongruence(0, 1, 1, 5)
    with pytest.raises(NotQuadratic):
        QuadCongruence(10, 1, 1, 5)
    with pytest.raises(BadParameters, match="modulus must be positive"):
        QuadCongruence(1, 0, 0, 0)
    assert QuadCongruence(1, 0, 0, 7).discriminant == 0
    assert QuadCongruence(2, 3, 1, 7).discriminant == 1


RECORDS = [entry for entry in TYPES if entry[0] not in (GaussianInt, ResidueSet, QuadCongruence)]


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=[m.__name__ for m, _, _ in RECORDS])
def test_records_are_tuples_of_their_fields(make, fields, text):
    obj = make(**fields)
    assert isinstance(obj, tuple)
    assert obj == tuple(obj) == tuple(fields.values())
    assert list(obj._asdict().items()) == list(fields.items())


def test_records_unpack_and_compare_across_types():
    a, b, primitive = TwoSquareRep(3, 4, True)
    assert (a, b, primitive) == (3, 4, True)
    x, y, z, *_ = ZlSolution(2, 11, 5, 3, 2, 1)
    assert (x, y, z) == (2, 11, 5)
    # equality is tuple equality, so it does not look at the type
    assert Factorization(1, ()) == GaussianFactorization(1, ()) == (1, ())
    assert Factorization(1, ((5, 1),)).value() == 5
    assert GaussianFactorization(GaussianInt(0, 1), ((GaussianInt(1, 1), 1),)).value() == GaussianInt(-1, 1)
