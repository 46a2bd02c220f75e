"""Affine simplex enumeration and counting in exact rational point sets.

An affine simplex is k >= 3 points lying on a (k-2)-dimensional flat while
every proper subset is affinely independent; it is the affine analogue of a
matroid circuit. Points p are affinely dependent exactly when their lifts
(1, p) are linearly dependent, so the affine simplexes are the circuits of
the lift, enumerated by matroid.circuit_supports: a set of points is an
affine simplex exactly when it is a member of
enumerate_affine_simplexes(ps).supports. Affine rank is the lift's rank
minus 1. PointSet.lift is built once per point set and kept, with its
integer rows, for every later scan and rank of that set. The JSON forms
of the counts and of the simplex listings are built by cli.

The hypothesis of the dimension-d counting results, no d points on a
(d-2)-flat, says that every d of the lifted vectors are independent. The
hyperplane walk of the lift (matroid.hyperplane_walk) answers it; its
group sums and the first dependent set it reports are cached on the lift,
so the check, the count and classify_r3_semi_simplexes share one walk per
point set. The point sets of extremal.construct meet the hypothesis by
their formulas and are built with no walk. Under it,
count_affine_simplexes enumerates nothing; only listing the simplexes, or
counting them when d = 0, n < d or the hypothesis fails, runs the scan.
This module also hosts the linear-to-affine projection (central
projection of a vector configuration onto a hyperplane off the origin).
"""

from __future__ import annotations

import csv
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import InputError, InvariantError
from .exactla import rank  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .exactla import primitive, read_json, read_text, vector_to_json
from .matroid import (
    VectorConfiguration,
    check_indices,
    check_lengths,
    circuit_supports,
    count_circuits,
    exact_rows,
    rows_from_json,
    subset_rank,
)
from .record import Record


class PointSet(Record):
    """Ordered list of exact points in R^d; duplicate points are rejected.

    Entries are ints or Fractions (matroid.exact_rows): integral input stays
    int, in the points, in their hash for the duplicate check and in the
    lift. An int equals the Fraction of the same value and hashes alike, so
    a point given both ways is still a duplicate.
    """

    def __init__(self, dimension: int, points: tuple[tuple[int | Fraction, ...], ...]):
        points = exact_rows(points, dimension, "point")
        seen: dict[tuple, int] = {}
        for i, p in enumerate(points):
            if p in seen:
                raise InvariantError(f"duplicate points at indices {seen[p]} and {i}")
            seen[p] = i
        self.__dict__.update(dimension=dimension, points=points)

    def __len__(self) -> int:
        return len(self.points)

    def to_json_obj(self) -> dict:
        return {"dimension": self.dimension, "points": [vector_to_json(p) for p in self.points]}

    @cached_property
    def lift(self) -> VectorConfiguration:
        """The vectors (1, p) in R^(d+1); their circuits are the affine simplexes."""
        return VectorConfiguration(self.dimension + 1, tuple((1,) + p for p in self.points))


def load_points(path: str) -> PointSet:
    """Read a PointSet from JSON, or from CSV (one point per row)."""
    if path.endswith(".csv"):
        rows = [row for row in csv.reader(read_text(path).splitlines()) if row]
        if not rows:
            raise InputError(f"{path}: no points in CSV")
        check_lengths(rows, len(rows[0]), "point", InputError)
        return PointSet(len(rows[0]), tuple(rows))
    return PointSet(*rows_from_json(read_json(path), "points"))


def affine_rank(ps: PointSet, subset: Iterable[int]) -> int:
    """Dimension of the affine hull: rank of the lifted points (1, p), minus 1."""
    idx = check_indices(subset, len(ps), "point")
    if not idx:
        raise InputError("affine_rank needs at least one point")
    return subset_rank(ps.lift, idx) - 1


class SimplexReport(Record):
    """Enumerated affine simplexes, as sorted member tuples, grouped by cardinality."""

    def __init__(self, supports: tuple[tuple[int, ...], ...]):
        self.__dict__.update(supports=supports)

    @property
    def counts(self) -> dict[int, int]:
        return dict(sorted(Counter(map(len, self.supports)).items()))

    @property
    def total(self) -> int:
        return len(self.supports)


def enumerate_affine_simplexes(ps: PointSet) -> SimplexReport:
    """All affine simplexes, sorted by members: the circuits of the lift (1, p).

    Points are distinct, so the lift has no loops and no parallel pairs and
    every simplex has at least 3 points; at most rank(lift) + 1 <= d + 2.
    """
    return SimplexReport(tuple(circuit_supports(ps.lift)))


def count_affine_simplexes(ps: PointSet) -> dict[int, int]:
    """Affine simplexes by size: enumerate_affine_simplexes(ps).counts.

    They are the circuit counts of the lift (matroid.count_circuits, with
    D = d + 1): with m_H points on each hyperplane H, sum C(m_H, d+1) of
    size d + 1 and C(n, d+2) - sum [C(m_H, d+2) + C(m_H, d+1)(n - m_H)] of
    size d + 2 when n >= d >= 1 and no d points lie on a (d-2)-flat, from
    one hyperplane walk, and the scan's counts otherwise.
    """
    return count_circuits(ps.lift)


def check_small_flat_hypothesis(ps: PointSet) -> bool:
    """True iff no d points lie on a (d-2)-dimensional flat (vacuous below d points).

    d points lie on a (d-2)-flat exactly when they are affinely dependent,
    that is when their lifted rows are dependent: the hyperplane walk of
    the lift then reports a first dependent set (ps.lift.dependent_set),
    where the count leaves it. The walk runs only when n >= d >= 1, so
    below d points, where no d-subset exists, and in R^0 there is none.
    """
    return ps.lift.dependent_set is None


def classify_r3_semi_simplexes(ps: PointSet) -> tuple[int, int]:
    """(coplanar quadruple count, generic quintuple count) for d = 3 point sets.

    Requires no three collinear points; under that hypothesis these two kinds
    exhaust the affine simplexes, so the counts sum to the total. A set that
    fails it names its first collinear triple in member order: distinct
    points lift to rows of which no two are dependent, so the first set the
    hyperplane walk reports is that triple (ps.lift.dependent_set).
    """
    if ps.dimension != 3:
        raise InvariantError(f"classification needs dimension 3, got {ps.dimension}")
    triple = ps.lift.dependent_set
    if triple is not None:
        raise InvariantError(f"collinear triple at indices {triple}")
    counts = count_affine_simplexes(ps)
    return counts.get(4, 0), counts.get(5, 0)


def project_to_affine(cfg: VectorConfiguration) -> PointSet:
    """Central projection of a vector configuration onto a hyperplane a.x = 1.

    The functional is a = (1, t, t^2, ..., t^(D-1)) for the first t >= 1 with
    a.v != 0 for every vector v; each v maps to v / (a.v). Coordinates on the
    hyperplane come from the rational basis change that sends a to the last
    coordinate, which here amounts to dropping coordinate 0 (a starts with 1).
    Circuits of the input correspond one-to-one to affine simplexes of the
    output. A configuration in R^0, which has no hyperplane to project onto,
    is refused; so are the first zero vector, else the first pair in member
    order with one exactla.primitive form (a circuit of size 1 or 2).
    """
    d = cfg.dimension
    if d == 0:
        raise InvariantError("a configuration in R^0 cannot be projected")
    vectors = cfg.vectors
    by_form: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(cfg.integer_rows):
        if not any(row):
            raise InvariantError(f"zero vector at index {i} cannot be projected")
        by_form.setdefault(tuple(primitive(row)), []).append(i)
    for members in by_form.values():  # in order of their first members
        if len(members) > 1:
            raise InvariantError(f"parallel vectors at indices {members[0]} and {members[1]}")
    t = 1
    while True:
        a = [Fraction(t) ** p for p in range(d)]
        dots = [sum(ai * xi for ai, xi in zip(a, v)) for v in vectors]
        if all(dot != 0 for dot in dots):
            break
        t += 1
    # The vectors may hold ints, where int / int would be a float. Each dot
    # is a Fraction, since d >= 1 and every a_i is one, so x / dot is an
    # exact Fraction whatever the type of x.
    points = tuple(
        tuple(x / dot for x in v[1:]) for v, dot in zip(vectors, dots)
    )
    return PointSet(d - 1, points)
