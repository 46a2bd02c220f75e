"""Generators for the extremal configurations with closed-form counts.

Every generator returns exact coordinates (or an explicit hypergraph) from
a literal formula, with no search. The point sets whose formula needs
general position (no d points on a (d-2)-flat) are checked at build time
by the hyperplane walk, which the count then reads, and fail loudly rather
than emit a configuration whose count formula would not apply.

  inplane-generic(d):    n points in general position inside a hyperplane
                         of R^d; exactly C(n, d+1) affine simplexes.
  cone(d):               n-1 such points plus one apex off the hyperplane;
                         exactly C(n-1, d+1) simplexes.
  parallel-pairs:        point pairs (-i, i^2), (i, i^2) on the parabola
                         y = x^2 in the plane z = 0, each on its own row,
                         plus an off-plane pair parallel to the rows (d = 3);
                         C(n-1,4) - (n-2)(n-5)/2 simplexes for even n and
                         C(n-1,4) - (n-3)(n-5)/2 for odd n.
  two-lines:             n-2 points on one line and 3 on another, sharing
                         one point (d = 2); C(n-2,3) + C(n-3,2) + 1.
  two-disjoint-edges(k): hypergraph with two disjoint n-edges; its k-level
                         YBLM sum is 1 - (C(n,k)/C(2n,k)) * 2nk/(2n-k).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ..errors import InputError, InvariantError
from ..geometry import PointSet
from ..hypergraph import Hypergraph
from ..record import Record

KINDS = ("inplane-generic", "cone", "parallel-pairs", "two-lines", "two-disjoint-edges")
# the least n at which each kind is built and its closed form holds
_MIN_N = {"inplane-generic": 0, "cone": 2, "parallel-pairs": 6, "two-lines": 5,
          "two-disjoint-edges": 1}


class ConstructionId(Record):
    def __init__(self, kind: str, d: int | None = None, k: int | None = None):
        if kind not in KINDS:
            raise InputError(f"unknown construction {kind!r}; known: {', '.join(KINDS)}")
        if kind in ("inplane-generic", "cone"):
            if d is None or d < 2:
                raise InputError(f"{kind} needs a dimension d >= 2")
            if k is not None:
                raise InputError(f"{kind} takes no level parameter k")
        elif kind == "two-disjoint-edges":
            if k is None or k < 1:
                raise InputError("two-disjoint-edges needs a level k >= 1")
            if d is not None:
                raise InputError("two-disjoint-edges takes no dimension parameter d")
        elif d is not None or k is not None:
            raise InputError(f"{kind} takes no extra parameter")
        self.__dict__.update(kind=kind, d=d, k=k)

    def __str__(self) -> str:
        if self.d is not None:
            return f"{self.kind}(d={self.d})"
        if self.k is not None:
            return f"{self.kind}(k={self.k})"
        return self.kind


def _parallel_pairs_points(n: int) -> PointSet:
    """Pairs (-i, i^2, 0), (i, i^2, 0) for i = 1..m on the parabola y = x^2,
    then its vertex (0, 0, 0) when n is odd, then the apex pair (0, 0, 1),
    (1, 0, 1) on a line parallel to every pair's row. A line meets the
    parabola in at most two points, so no three in-plane points are
    collinear; any plane through the apex line meets z = 0 in one row."""
    m = (n - 2) // 2  # for odd n, (n - 3) // 2 pairs and the vertex
    points = [(x, i * i, 0) for i in range(1, m + 1) for x in (-i, i)]
    if n % 2:
        points.append((0, 0, 0))
    points += [(0, 0, 1), (1, 0, 1)]
    return _in_general_position(PointSet(3, tuple(points)), "parallel pairs")


def _moment_points(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """(t, t^2, ..., t^(d-1), 0) for t = 1..n: the moment curve inside x_d = 0."""
    zero = (Fraction(0),)
    return tuple(tuple(Fraction(t) ** p for p in range(1, d)) + zero for t in range(1, n + 1))


def _in_general_position(ps: PointSet, name: str) -> PointSet:
    """ps, unless d of its points lie on a (d-2)-flat."""
    dependent = ps.lift.dependent_set
    if dependent is not None:
        raise InvariantError(f"{name}: points {dependent} lie on a lower flat")
    return ps


def _inplane_points(d: int, n: int) -> PointSet:
    return _in_general_position(PointSet(d, _moment_points(n, d)), "in-plane moment points")


def _cone_points(d: int, n: int) -> PointSet:
    apex = tuple(Fraction(0) for _ in range(d - 1)) + (Fraction(1),)
    # one check of all n points covers the n - 1 in-plane ones
    return _in_general_position(PointSet(d, _moment_points(n - 1, d) + (apex,)), "cone points")


def _two_lines_points(n: int) -> PointSet:
    line_a = [(Fraction(i), Fraction(0)) for i in range(n - 2)]
    line_b = [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))]
    return PointSet(2, tuple(line_a + line_b))


def _check_n(cid: ConstructionId, n: int) -> None:
    if n < _MIN_N[cid.kind]:
        raise InputError(f"{cid.kind} needs n >= {_MIN_N[cid.kind]}, got {n}")


def construct(cid: ConstructionId, n: int):
    """Build the named configuration at size n; PointSet or Hypergraph."""
    _check_n(cid, n)
    if cid.kind == "inplane-generic":
        return _inplane_points(cid.d, n)
    if cid.kind == "cone":
        return _cone_points(cid.d, n)
    if cid.kind == "parallel-pairs":
        return _parallel_pairs_points(n)
    if cid.kind == "two-lines":
        return _two_lines_points(n)
    # two disjoint n-edges; k only matters for the expected YBLM value
    return Hypergraph(2 * n, (tuple(range(n)), tuple(range(n, 2 * n))))


def expected_count(cid: ConstructionId, n: int):
    """Closed-form simplex count (or exact YBLM sum for two-disjoint-edges)."""
    _check_n(cid, n)
    if cid.kind == "inplane-generic":
        return comb(n, cid.d + 1)
    if cid.kind == "cone":
        return comb(n - 1, cid.d + 1)
    if cid.kind == "parallel-pairs":
        if n % 2 == 0:
            return comb(n - 1, 4) - (n - 2) * (n - 5) // 2
        return comb(n - 1, 4) - (n - 3) * (n - 5) // 2
    if cid.kind == "two-lines":
        return comb(n - 2, 3) + comb(n - 3, 2) + 1
    k = cid.k
    if not 1 <= k <= n:
        raise InputError(f"two-disjoint-edges closed form needs 1 <= k <= n, got k={k}, n={n}")
    return 1 - Fraction(comb(n, k), comb(2 * n, k)) * Fraction(2 * n * k, 2 * n - k)
