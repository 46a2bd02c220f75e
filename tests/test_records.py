"""The package's value classes are immutable records on one base: constructed by
position or keyword with the same defaults, equal and hashed by their fields only,
refusing assignment, and printed as Name(field=value, ...)."""

from fractions import Fraction

import pytest

from minsimplex.extremal.bounds import ReferenceBounds
from minsimplex.extremal.constructions import ConstructionId
from minsimplex.extremal.search import SearchResult
from minsimplex.geometry import PointSet, SimplexReport
from minsimplex.hypergraph import Hypergraph, SemiSimplexReport
from minsimplex.matroid import Circuit, VectorConfiguration
from minsimplex.record import Record
from minsimplex.stoichiometry import AtomUniverse, Reaction, ReactionReport, Species

H2, O2, H2O = Species("H2", (2, 0)), Species("O2", (0, 2)), Species("H2O", (2, 1))
ZERO, ONE = Fraction(0), Fraction(1)

# one value of each record class, its fields in constructor order, already in
# the form the constructor stores
RECORDS = [
    (VectorConfiguration, {"dimension": 2, "vectors": ((ONE, ZERO), (ZERO, ONE))}),
    (Circuit, {"members": (0, 1, 2), "coefficients": (1, 1, -1)}),
    (PointSet, {"dimension": 1, "points": ((ZERO,), (Fraction(1, 2),))}),
    (SimplexReport, {"supports": ((0, 1, 2),)}),
    (AtomUniverse, {"symbols": ("H", "O")}),
    (Species, {"name": "H2O", "composition": (2, 1)}),
    (Reaction, {"reactants": ((H2, 2), (O2, 1)), "products": ((H2O, 2),)}),
    (ReactionReport, {"species_count": 3, "atom_kinds": 2, "configuration_rank": 2,
                      "counts_by_size": {3: 1}, "benchmark": 1}),
    (Hypergraph, {"n": 3, "edges": ((0, 1), (1, 2))}),
    (SemiSimplexReport, {"n": 3, "k": 2, "sections": ((0, 1),), "empty_sections": ()}),
    (SearchResult, {"n": 3, "k": 2, "linear_constrained": True, "minimum": Fraction(1, 3),
                    "witnesses": (Hypergraph(3, ()),), "search_space_size": 8,
                    "witnesses_truncated": True}),
    (ConstructionId, {"kind": "two-disjoint-edges", "d": None, "k": 2}),
    (ReferenceBounds, {"upper_sk": Fraction(5, 8), "upper_s_prime_k": Fraction(4, 9),
                       "lower_start": Fraction(1, 4)}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def test_every_record_class_is_covered():
    assert {cls for cls, _ in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword and by_position is not by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({shown})"


def test_defaults():
    fields = (3, 2, False, Fraction(1, 2), (), 8)
    assert SearchResult(*fields).witnesses_truncated is False
    assert SearchResult(*fields) == SearchResult(*fields, witnesses_truncated=False)
    assert SearchResult(*fields) != SearchResult(*fields, witnesses_truncated=True)
    cone = ConstructionId("cone", d=3)
    assert (cone.kind, cone.d, cone.k) == ("cone", 3, None)
    assert ConstructionId("two-disjoint-edges", k=2) == ConstructionId("two-disjoint-edges", None, 2)


def test_constructors_normalise_their_fields():
    assert PointSet(1, [["1/2"]]).points == ((Fraction(1, 2),),)
    assert VectorConfiguration(1, [[2]]).vectors == ((Fraction(2),),)
    assert AtomUniverse(["H"]).symbols == ("H",)
    assert Species("H2", [2]).composition == (2,)
    assert Hypergraph(3, [(2, 1), [1, 0]]).edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equality_and_hash_read_the_fields_only(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert a != tuple(fields.values()) and a.__eq__(tuple(fields.values())) is NotImplemented
    if cls is ReactionReport:  # a dict field, unhashable as in a frozen dataclass
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_equality_ignores_a_cached_lift_and_needs_one_class():
    points = ((0, 0), (1, 0), (0, 1), (1, 1))
    walked = PointSet(2, points)
    assert walked.lift.hyperplane_sums is not None and walked.lift.integer_rows
    assert "lift" in vars(walked) and "_walk_outcome" in vars(walked.lift)
    assert walked == PointSet(2, points) and hash(walked) == hash(PointSet(2, points))
    assert walked.lift == VectorConfiguration(3, tuple((1,) + p for p in points))
    assert walked != PointSet(2, points[:3])
    assert Circuit((0, 1, 2), (1, 1, -1)) != Circuit((0, 1, 2), (-1, -1, 1))
    # the same field values in another record class
    assert PointSet(2, points) != VectorConfiguration(2, points)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(**fields)


def test_repr_is_unchanged():
    # the strings the frozen dataclasses printed
    assert repr(Circuit((0, 1, 2), (1, -2, 1))) == "Circuit(members=(0, 1, 2), coefficients=(1, -2, 1))"
    assert repr(PointSet(1, [[0], ["1/2"]])) == (
        "PointSet(dimension=1, points=((Fraction(0, 1),), (Fraction(1, 2),)))"
    )
    assert repr(ConstructionId("cone", d=3)) == "ConstructionId(kind='cone', d=3, k=None)"
