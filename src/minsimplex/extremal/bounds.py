"""Closed-form reference values: exact k=2 theory and limit bounds.

The k=2 minimum has an exact formula driven by the triangle Turan number;
for general k only reference bounds on the limits are exposed (computing
the k-uniform Turan numbers themselves is a famous open problem).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from ..errors import InputError, InvariantError
from ..hypergraph import Hypergraph
from ..record import Record


def turan_k2(n: int) -> int:
    """Maximum edge count of a triangle-free graph on n vertices: floor(n^2/4)."""
    if n < 1:
        raise InputError("turan_k2 needs n >= 1")
    return n * n // 4


def s2_exact(n: int) -> Fraction:
    """Exact minimum semi-simplex sum at k = 2: 1 - floor(n^2/4) / C(n,2)."""
    if n < 3:
        raise InputError("s2_exact needs n >= 3")
    return 1 - Fraction(turan_k2(n), comb(n, 2))


class ReferenceBounds(Record):
    def __init__(
        self,
        upper_sk: Fraction,  # limit of constrained minima is at most 1 - k/2^k
        upper_s_prime_k: Fraction,  # unconstrained limit is at most (1 - 1/k)^(k-1)
        lower_start: Fraction,  # first sequence value: s(k+1, k) = 1/(k+1)
    ):
        self.__dict__.update(
            upper_sk=upper_sk, upper_s_prime_k=upper_s_prime_k, lower_start=lower_start
        )


def reference_bounds(k: int) -> ReferenceBounds:
    if k < 2:
        raise InputError("reference_bounds needs k >= 2")
    return ReferenceBounds(
        upper_sk=1 - Fraction(k, 2**k),
        upper_s_prime_k=Fraction(k - 1, k) ** (k - 1),
        lower_start=Fraction(1, k + 1),
    )


def _graph_adjacency(g: Hypergraph) -> list[int]:
    adj = [0] * g.n
    for e in g.edges:
        if len(e) != 2:
            raise InvariantError(f"triangle counting needs a graph; edge {e} has size {len(e)}")
        u, v = e
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def count_triangles(g: Hypergraph) -> int:
    """Number of vertex triples with all three pairs present."""
    adj = _graph_adjacency(g)
    total = 0
    for u, v in g.edges:
        total += (adj[u] & adj[v]).bit_count()
    return total // 3


def triangle_bound_check(g: Hypergraph) -> bool:
    """Exact check of the supersaturation bound: triangles >= (4m^2 - mn^2)/(3n)."""
    n, m = g.n, len(g.edges)
    if n == 0:
        return True
    return count_triangles(g) >= Fraction(4 * m * m - m * n * n, 3 * n)


def complement_graph(g: Hypergraph) -> Hypergraph:
    """Complement of a 2-uniform hypergraph on the same vertex set."""
    _graph_adjacency(g)
    present = set(g.edges)
    edges = tuple(e for e in combinations(range(g.n), 2) if e not in present)
    return Hypergraph(g.n, edges)


def complete_bipartite(a: int, b: int) -> Hypergraph:
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Hypergraph(a + b, edges)
