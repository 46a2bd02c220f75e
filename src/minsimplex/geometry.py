"""Affine simplex detection, enumeration and counting in exact rational point sets.

An affine simplex is k >= 3 points lying on a (k-2)-dimensional flat while
every proper subset is affinely independent; it is the affine analogue of a
matroid circuit. Points p are affinely dependent exactly when their lifts
(1, p) are linearly dependent, so the affine simplexes are the circuits of
the lift and are enumerated by matroid.circuit_supports; affine rank is the
lift's rank minus 1. PointSet.lift is built once per point set and kept,
with its integer rows, for every later scan and rank of that set.

PointSet.hyperplanes, also built once, is the table of hyperplanes that d
of the points span, keyed by the primitive form of the wedge of their
lifted rows, or None as soon as some d points turn out to be dependent. It
answers the general-position hypothesis of the dimension-d counting
results (no d points on a (d-2)-flat), gives hypergraph.from_point_set its
sections (a set that fails the hypothesis takes a second pass that keeps
every hyperplane), and gives count_affine_simplexes the simplex counts by
size from the number of points on each hyperplane, with no enumeration.
Only listing the simplexes themselves, or counting them when d = 0, n < d
or the hypothesis fails, runs the scan. This module
also hosts the linear-to-affine projection (central projection of a vector
configuration onto a hyperplane off the origin).
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError, InvariantError
from .exactla import rank  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .exactla import primitive, read_json, read_text, vector_to_json
from .matroid import (
    VectorConfiguration,
    check_indices,
    check_labels,
    check_lengths,
    circuit_supports,
    exact_rows,
    is_circuit,
    rows_from_json,
    subset_rank,
)


@dataclass(frozen=True)
class PointSet:
    """Ordered list of exact points in R^d; duplicate points are rejected."""

    dimension: int
    points: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", exact_rows(self.points, self.dimension, "point"))
        seen: dict[tuple, int] = {}
        for i, p in enumerate(self.points):
            if p in seen:
                raise InvariantError(f"duplicate points at indices {seen[p]} and {i}")
            seen[p] = i
        object.__setattr__(self, "labels", check_labels(self.labels, len(self), "point"))

    def __len__(self) -> int:
        return len(self.points)

    def to_json_obj(self) -> dict:
        obj = {"dimension": self.dimension, "points": [vector_to_json(p) for p in self.points]}
        if self.labels:
            obj["labels"] = list(self.labels)
        return obj

    @cached_property
    def lift(self) -> VectorConfiguration:
        """The vectors (1, p) in R^(d+1); their circuits are the affine simplexes."""
        return VectorConfiguration(self.dimension + 1, tuple((1,) + p for p in self.points))

    @cached_property
    def hyperplanes(self) -> "Hyperplanes | None":
        """The hyperplanes spanned by d of the points, from one pass over the
        d-subsets; None when some d points are affinely dependent, that is lie
        on a (d-2)-flat: the pass stops at the first such d-subset."""
        return hyperplane_table(self.lift.integer_rows, self.dimension)


@dataclass(frozen=True)
class Hyperplanes:
    """The hyperplanes of R^d that d points of a set span.

    sections holds the members of each hyperplane with more than d of the
    points, sorted, in the order of the hyperplane's first d-subset;
    independent says that some d points span a hyperplane.
    """

    sections: tuple[tuple[int, ...], ...]
    independent: bool


def _minor_terms(t: int, ncols: int) -> list[list[tuple[int, int]]]:
    """The Laplace expansion of the (t+1)-minors of t + 1 rows along the
    last row: for each (t+1)-subset C of the columns, in lexicographic
    order, and each column c, the pair (sign, index of the t-minor on C
    without c among the t-subsets in lexicographic order) by which that
    minor multiplies the last row's entry c; (0, 0) when c is not in C."""
    index = {cols: i for i, cols in enumerate(combinations(range(ncols), t))}
    terms = []
    for cols in combinations(range(ncols), t + 1):
        pairs = [(0, 0)] * ncols
        for i, c in enumerate(cols):
            pairs[c] = ((-1) ** (t + i), index[cols[:i] + cols[i + 1 :]])
        terms.append(pairs)
    return terms


def hyperplane_table(
    rows: Sequence[Sequence[int]], d: int, keep_all: bool = False
) -> Hyperplanes | None:
    """Hyperplanes of the d-subsets of the lifted integer rows (1, p) in Z^(d+1).

    The wedge of a d-subset, its d x d minors, is zero exactly when the
    d points are dependent; otherwise it is a normal of the hyperplane they
    span, and two d-subsets span the same hyperplane exactly when their
    wedges are proportional, that is when their exactla.primitive forms are
    equal. The subsets are visited depth-first in lexicographic order. Each
    prefix of t < d members turns its wedge into one coefficient row per
    (t+1)-minor (Laplace expansion along the next row), so that the wedge
    of each extension is a few dot products: d + 1 of them and a primitive
    form for each last member. The last members of one prefix are grouped
    by hyperplane, and a hyperplane collects the members of its groups.

    When no wedge is zero, a hyperplane with m > d points first shows up at
    its first d - 1 points, as a group of all m - d + 1 others, and one with
    m = d points shows up once, as a group of one: the pass keeps no group
    of one that is new. A zero wedge ends the pass with None. With some d
    points dependent, a hyperplane may only ever show up in groups of one,
    each with a point the others lack, so keep_all skips the dependent
    d-subsets instead and keeps every hyperplane.
    """
    n = len(rows)
    if d == 0:
        return Hyperplanes((), True)  # the empty set spans R^0
    terms = [_minor_terms(t, d + 1) for t in range(d)]
    members: dict[tuple[int, ...], set[int]] = {}
    independent = False

    def visit(prefix: tuple[int, ...], wedge: list[int]) -> bool:
        """Visit the extensions of prefix; False at a zero wedge, unless keep_all."""
        nonlocal independent
        t = len(prefix)
        # the wedge of prefix + (j,) is coefs . rows[j], by expansion along rows[j]
        coefs = [[s * wedge[k] for s, k in cols] for cols in terms[t]]
        start = prefix[-1] + 1 if prefix else 0
        if t < d - 1:
            for j in range(start, n - d + t + 1):  # leaves room for d - t - 1 more members
                row = rows[j]
                w = [sum(map(mul, coef, row)) for coef in coefs]
                if any(w):
                    if not visit(prefix + (j,), w):
                        return False
                elif not keep_all:
                    return False
            return True
        groups: dict[tuple[int, ...], list[int]] = {}
        for r in range(start, n):
            row = rows[r]
            normal = [sum(map(mul, coef, row)) for coef in coefs]
            if not any(normal):
                if not keep_all:
                    return False
                continue
            key = tuple(primitive(normal))
            group = groups.get(key)
            if group is None:
                groups[key] = [r]
            else:
                group.append(r)
        independent = independent or bool(groups)
        for key, group in groups.items():
            found = members.get(key)
            if found is not None:
                found.update(prefix)
                found.update(group)
            elif keep_all or len(group) > 1:
                members[key] = {*prefix, *group}
        return True

    if not visit((), [1]):
        return None
    sections = tuple(tuple(sorted(m)) for m in members.values() if len(m) > d)
    return Hyperplanes(sections, independent)


def load_points(path: str) -> PointSet:
    """Read a PointSet from JSON, or from CSV (one point per row)."""
    if path.endswith(".csv"):
        rows = [row for row in csv.reader(read_text(path).splitlines()) if row]
        if not rows:
            raise InputError(f"{path}: no points in CSV")
        check_lengths(rows, len(rows[0]), "point", InputError)
        return PointSet(len(rows[0]), tuple(rows))
    return PointSet(*rows_from_json(read_json(path), "points"))


def save_points(ps: PointSet, path: str) -> None:
    if path.endswith(".csv"):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for p in ps.points:
                writer.writerow(vector_to_json(p))
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ps.to_json_obj(), fh, indent=1)
        fh.write("\n")


def affine_rank(ps: PointSet, subset: Iterable[int]) -> int:
    """Dimension of the affine hull: rank of the lifted points (1, p), minus 1."""
    idx = check_indices(subset, len(ps), "point")
    if not idx:
        raise InputError("affine_rank needs at least one point")
    return subset_rank(ps.lift, idx) - 1


def is_affine_simplex(ps: PointSet, subset: Iterable[int]) -> bool:
    """True iff the points span a (k-2)-flat and all proper subsets are independent."""
    idx = check_indices(subset, len(ps), "point")
    if len(idx) < 3:
        raise InvariantError(f"affine simplexes have at least 3 points, got {len(idx)}")
    return is_circuit(ps.lift, idx)


@dataclass(frozen=True)
class SimplexReport:
    """Enumerated affine simplexes, as sorted member tuples, grouped by cardinality."""

    dimension: int
    point_count: int
    supports: tuple[tuple[int, ...], ...]

    @property
    def counts(self) -> dict[int, int]:
        return dict(sorted(Counter(map(len, self.supports)).items()))

    @property
    def total(self) -> int:
        return len(self.supports)

    def to_json_obj(self, counts_only: bool = False) -> dict:
        obj = counts_json_obj(self.dimension, self.point_count, self.counts)
        if not counts_only:
            obj["simplexes"] = self.supports
        return obj


def counts_json_obj(dimension: int, point_count: int, counts: dict[int, int]) -> dict:
    """The JSON form of simplex counts by size, as SimplexReport writes them."""
    return {
        "dimension": dimension,
        "point_count": point_count,
        "counts": {str(k): v for k, v in counts.items()},
        "total": sum(counts.values()),
    }


def enumerate_affine_simplexes(ps: PointSet) -> SimplexReport:
    """All affine simplexes, sorted by members: the circuits of the lift (1, p).

    Points are distinct, so the lift has no loops and no parallel pairs and
    every simplex has at least 3 points; at most rank(lift) + 1 <= d + 2.
    """
    return SimplexReport(ps.dimension, len(ps), tuple(circuit_supports(ps.lift)))


def count_affine_simplexes(ps: PointSet) -> dict[int, int]:
    """Affine simplexes by size: enumerate_affine_simplexes(ps).counts.

    When n >= d >= 1 and no d points lie on a (d-2)-flat, every set of at
    most d points is independent, so every simplex has d + 1 or d + 2
    members, and the counts follow from the number m of points on each
    hyperplane (PointSet.hyperplanes):
    - d + 1 points are a simplex exactly when they lie on one hyperplane:
      the sum of C(m, d+1);
    - d + 2 points are one unless d + 1 of them lie on a hyperplane, and
      two such (d+1)-subsets share d independent points and so lie on the
      same one: C(n, d+2) minus the sum of C(m, d+2) + C(m, d+1)(n - m).
    Hyperplanes with m = d add nothing to either. Otherwise, that is for
    d = 0, fewer than d points or d dependent points, the counts come from
    the scan.
    """
    n, d = len(ps), ps.dimension
    table = ps.hyperplanes if n >= d >= 1 else None
    if table is None:
        return enumerate_affine_simplexes(ps).counts
    sizes = [len(members) for members in table.sections]
    counts = {
        d + 1: sum(comb(m, d + 1) for m in sizes),
        d + 2: comb(n, d + 2) - sum(comb(m, d + 2) + comb(m, d + 1) * (n - m) for m in sizes),
    }
    return {size: count for size, count in counts.items() if count}


def check_small_flat_hypothesis(ps: PointSet) -> bool:
    """True iff no d points lie on a (d-2)-dimensional flat (vacuous below d points).

    d points lie on a (d-2)-flat exactly when they are affinely dependent,
    that is when the wedge of their lifted rows is zero (PointSet.hyperplanes
    is then None). Below d points there is no d-subset, so a collinear triple
    among them does not count.
    """
    return len(ps) < ps.dimension or ps.hyperplanes is not None


def classify_r3_semi_simplexes(ps: PointSet) -> tuple[int, int]:
    """(coplanar quadruple count, generic quintuple count) for d = 3 point sets.

    Requires no three collinear points; under that hypothesis these two kinds
    exhaust the affine simplexes, so the counts sum to the total. The
    dependent triples of PointSet.hyperplanes are exactly the collinear ones,
    and the first one in member order is reported.
    """
    if ps.dimension != 3:
        raise InvariantError(f"classification needs dimension 3, got {ps.dimension}")
    if ps.hyperplanes is None:
        bad = circuit_supports(ps.lift, max_size=3)[0]  # the first triple, in member order
        raise InvariantError(f"collinear triple at indices {bad}")
    counts = count_affine_simplexes(ps)
    return counts.get(4, 0), counts.get(5, 0)


def project_to_affine(cfg: VectorConfiguration) -> PointSet:
    """Central projection of a vector configuration onto a hyperplane a.x = 1.

    The functional is a = (1, t, t^2, ..., t^(D-1)) for the first t >= 1 with
    a.v != 0 for every vector v; each v maps to v / (a.v). Coordinates on the
    hyperplane come from the rational basis change that sends a to the last
    coordinate, which here amounts to dropping coordinate 0 (a starts with 1).
    Circuits of the input correspond one-to-one to affine simplexes of the
    output.
    """
    d = cfg.dimension
    vectors = cfg.vectors
    # zero vectors and parallel pairs are exactly the circuits of size 1 and 2
    small = circuit_supports(cfg, max_size=2)
    for members in small:
        if len(members) == 1:
            raise InvariantError(f"zero vector at index {members[0]} cannot be projected")
    if small:
        i, j = small[0]
        raise InvariantError(f"parallel vectors at indices {i} and {j}")
    t = 1
    while True:
        a = [Fraction(t) ** p for p in range(d)]
        dots = [sum(ai * xi for ai, xi in zip(a, v)) for v in vectors]
        if all(dot != 0 for dot in dots):
            break
        t += 1
    points = tuple(
        tuple(x / dot for x in v[1:]) for v, dot in zip(vectors, dots)
    )
    return PointSet(d - 1, points, cfg.labels)
