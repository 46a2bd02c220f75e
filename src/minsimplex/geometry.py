"""Affine simplex detection and enumeration in exact rational point sets.

An affine simplex is k >= 3 points lying on a (k-2)-dimensional flat while
every proper subset is affinely independent; it is the affine analogue of a
matroid circuit. Points p are affinely dependent exactly when their lifts
(1, p) are linearly dependent, so the affine simplexes are the circuits of
the lift and are enumerated by matroid.circuit_supports; affine rank is the
lift's rank minus 1. PointSet.lift is built once per point set and kept,
with its integer rows, for every later scan, rank and hyperplane normal
(hypergraph.from_point_set) of that set. This module also
hosts the linear-to-affine projection (central projection of a vector
configuration onto a hyperplane off the origin) and the general-position
hypothesis check used by the dimension-d counting results, which is the
same scan capped at d members.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import InputError, InvariantError
from .exactla import rank  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .exactla import read_json, read_text, vector_to_json
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
        obj = {
            "dimension": self.dimension,
            "point_count": self.point_count,
            "counts": {str(k): v for k, v in self.counts.items()},
            "total": self.total,
        }
        if not counts_only:
            obj["simplexes"] = self.supports
        return obj


def enumerate_affine_simplexes(ps: PointSet) -> SimplexReport:
    """All affine simplexes, sorted by members: the circuits of the lift (1, p).

    Points are distinct, so the lift has no loops and no parallel pairs and
    every simplex has at least 3 points; at most rank(lift) + 1 <= d + 2.
    """
    return SimplexReport(ps.dimension, len(ps), tuple(circuit_supports(ps.lift)))


def check_small_flat_hypothesis(ps: PointSet) -> bool:
    """True iff no d points lie on a (d-2)-dimensional flat (vacuous below d points).

    d points lie on a (d-2)-flat exactly when they are affinely dependent,
    that is when they contain an affine simplex: a circuit of the lift with
    at most d members. Below d points there is no d-subset, so a collinear
    triple among them does not count.
    """
    return len(ps) < ps.dimension or not circuit_supports(ps.lift, max_size=ps.dimension)


def classify_r3_semi_simplexes(ps: PointSet) -> tuple[int, int]:
    """(coplanar quadruple count, generic quintuple count) for d = 3 point sets.

    Requires no three collinear points; under that hypothesis these two kinds
    exhaust the affine simplexes, so the counts sum to the total. The
    simplexes of size 3 are exactly the collinear triples, and the first one
    in member order is reported.
    """
    if ps.dimension != 3:
        raise InvariantError(f"classification needs dimension 3, got {ps.dimension}")
    report = enumerate_affine_simplexes(ps)
    counts = report.counts
    if 3 in counts:
        bad = next(m for m in report.supports if len(m) == 3)
        raise InvariantError(f"collinear triple at indices {bad}")
    if any(size not in (4, 5) for size in counts):
        raise InvariantError(f"unexpected simplex sizes {sorted(counts)} under the hypothesis")
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
