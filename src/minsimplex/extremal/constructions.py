"""Generators for the extremal configurations with closed-form counts.

Every generator returns integer coordinates (or an explicit hypergraph)
from a literal formula, with no search and no check. The point sets whose
count needs general position (no d points on a (d-2)-flat) have it by two
classical facts. Without their last coordinate, 0, the lifts
(1, t, ..., t^(d-1)) of any d moment points form a Vandermonde matrix,
whose determinant is the product of the differences of the t, so d moment
points are affinely independent; the apex lies off x_d = 0, their
hyperplane. A line meets the parabola y = x^2 at most
twice, and the apex pair's line lies in z = 1, off the plane z = 0 of the
other points. The CLI counts each set and compares the count with its
closed form.

  inplane-generic(d):    the moment points (t, ..., t^(d-1), 0), t = 1..n,
                         inside a hyperplane of R^d; C(n, d+1) simplexes.
  cone(d):               n-1 such points plus the apex (0, ..., 0, 1);
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

from ..errors import InputError
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
    return PointSet(3, tuple(points))


def _moment_points(n: int, d: int) -> list[tuple[int, ...]]:
    """(t, t^2, ..., t^(d-1), 0) for t = 1..n: the moment curve inside x_d = 0."""
    return [tuple(t**p for p in range(1, d)) + (0,) for t in range(1, n + 1)]


def _check_n(cid: ConstructionId, n: int) -> None:
    if n < _MIN_N[cid.kind]:
        raise InputError(f"{cid.kind} needs n >= {_MIN_N[cid.kind]}, got {n}")


def construct(cid: ConstructionId, n: int):
    """Build the named configuration at size n; PointSet or Hypergraph."""
    _check_n(cid, n)
    if cid.kind == "inplane-generic":
        return PointSet(cid.d, tuple(_moment_points(n, cid.d)))
    if cid.kind == "cone":
        apex = (0,) * (cid.d - 1) + (1,)
        return PointSet(cid.d, tuple(_moment_points(n - 1, cid.d) + [apex]))
    if cid.kind == "parallel-pairs":
        return _parallel_pairs_points(n)
    if cid.kind == "two-lines":  # n - 2 points on y = 0, and two more on x = 0
        return PointSet(2, tuple([(i, 0) for i in range(n - 2)] + [(0, 1), (0, 2)]))
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
