"""q-linear hypergraphs, k-sections, semi-simplex families, and YBLM sums.

For a hypergraph H on n vertices, the k-section E_k collects every k-set
contained in an edge, and E0_{k+1} collects the (k+1)-sets none of whose
k-subsets appear in E_k. Members of the union are the semi-simplexes; the
union is always a Sperner family, so its YBLM sum is at most 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import InputError, InvariantError
from .exactla import int_from_json, primitive, read_json
from .geometry import PointSet
from .matroid import hyperplane_walk

Family = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set {0..n-1} plus a family of distinct non-empty edges."""

    n: int
    edges: Family

    def __post_init__(self):
        if self.n < 0:
            raise InvariantError("vertex count must be non-negative")
        norm = []
        for e in self.edges:
            raw = tuple(e)
            edge = tuple(sorted(set(raw)))
            if not edge:
                raise InvariantError("empty edge")
            if edge[0] < 0 or edge[-1] >= self.n:
                raise InvariantError(f"edge {edge} out of vertex range 0..{self.n - 1}")
            if len(edge) != len(raw):
                raise InvariantError(f"repeated vertex in edge {raw}")
            norm.append(edge)
        if len(set(norm)) != len(norm):
            raise InvariantError("edges must be pairwise distinct")
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Hypergraph":
        try:
            n = int_from_json(obj["n"], "'n'")
            if n < 0:
                raise InputError(f"'n' must be non-negative, got {n}")
            edges = tuple(tuple(int_from_json(v, "vertex") for v in e) for e in obj["edges"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"hypergraph needs 'n' and 'edges': {exc}") from exc
        for e in edges:
            if not e or len(set(e)) != len(e) or not all(0 <= v < n for v in e):
                raise InputError(f"edge {list(e)} must be distinct vertices in 0..{n - 1}")
        return cls(n, edges)


def load_hypergraph(path: str) -> Hypergraph:
    return Hypergraph.from_json_obj(read_json(path))


def first_linearity_violation(h: Hypergraph, q: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First edge pair with |E & E'| >= q, or None."""
    for e1, e2 in combinations(h.edges, 2):
        if len(set(e1) & set(e2)) >= q:
            return e1, e2
    return None


def is_q_linear(h: Hypergraph, q: int) -> bool:
    """True iff every pair of distinct edges meets in fewer than q vertices."""
    if q < 1:
        raise InputError("q must be at least 1")
    return first_linearity_violation(h, q) is None


def k_section(h: Hypergraph, k: int) -> Family:
    """All k-sets contained in some edge (edges smaller than k contribute nothing)."""
    if k < 1:
        raise InputError("k must be at least 1")
    out = {sub for e in h.edges if len(e) >= k for sub in combinations(e, k)}
    return tuple(sorted(out))


def _empty_section(n: int, k: int, section: set) -> Family:
    """All (k+1)-sets of vertices containing no member of the k-section."""
    cands = combinations(range(n), k + 1)
    return tuple(c for c in cands if section.isdisjoint(combinations(c, k)))


def linear_edge_counts(n: int, k: int, size: int) -> tuple[int, int]:
    """(k-sets added to E_k, (k+1)-sets kept out of E0_{k+1}) by an edge of
    `size` vertices in a (k-1)-linear hypergraph on n vertices. Lemma: no
    (k+1)-set holds k-subsets of two edges, which would share k-1 vertices,
    so each edge adds and covers its own sets, whatever the other edges."""
    return comb(size, k), comb(size, k + 1) + comb(size, k) * (n - size)


@dataclass(frozen=True)
class SemiSimplexReport:
    """The two semi-simplex families E_k and E0_{k+1} with their cardinalities."""

    n: int
    k: int
    sections: Family
    empty_sections: Family

    @property
    def counts(self) -> dict[int, int]:
        return {self.k: len(self.sections), self.k + 1: len(self.empty_sections)}

    @property
    def family(self) -> Family:
        return self.sections + self.empty_sections

    @property
    def total(self) -> int:
        return len(self.sections) + len(self.empty_sections)

    @property
    def yblm_sum(self) -> Fraction:
        """yblm_sum(self.family, n) from the counts: |E_k| / C(n, k) + |E0| / C(n, k+1),
        with no E0 term at k = n, where no (k+1)-set exists."""
        sizes = self.counts.items()
        return sum((Fraction(c, comb(self.n, size)) for size, c in sizes if c), Fraction(0))


def semi_simplexes(h: Hypergraph, k: int) -> SemiSimplexReport:
    """Report with E_k, E0_{k+1} and their cardinalities."""
    if not 1 <= k <= h.n:
        raise InputError(f"k must be in 1..{h.n}, got {k}")
    section = k_section(h, k)
    return SemiSimplexReport(h.n, k, section, _empty_section(h.n, k, set(section)))


def semi_simplex_deficit(h: Hypergraph, k: int) -> Fraction:
    """Normalized deficit (C(n,k) - |E_k| - |E0_{k+1}|) / n^(k-1).

    Only defined for (k-1)-linear hypergraphs; used to probe the lower-bound
    constant from below on concrete instances; computed from the edge sizes.
    """
    if k < 2:
        raise InputError("deficit needs k >= 2")
    bad = first_linearity_violation(h, k - 1)
    if bad is not None:
        raise InvariantError(
            f"hypergraph is not {k - 1}-linear: edges {bad[0]} and {bad[1]} "
            f"share {len(set(bad[0]) & set(bad[1]))} vertices"
        )
    n = h.n
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    counts = [linear_edge_counts(n, k, len(e)) for e in h.edges]
    sections = sum(added for added, _ in counts)
    empty_sections = comb(n, k + 1) - sum(covered for _, covered in counts)
    return Fraction(comb(n, k) - sections - empty_sections, n ** (k - 1))


def is_sperner(family: Iterable[Sequence[int]]) -> bool:
    """Antichain check: no member contains another."""
    by_size: dict[int, set[tuple[int, ...]]] = {}
    for s in family:
        by_size.setdefault(len(s), set()).add(tuple(sorted(s)))
    sizes = sorted(by_size)
    for i, small in enumerate(sizes):
        members = by_size[small]
        for large in sizes[i + 1 :]:
            for big in by_size[large]:
                if any(sub in members for sub in combinations(big, small)):
                    return False
    return True


def yblm_sum(family: Iterable[Sequence[int]], n: int) -> Fraction:
    """Exact sum of 1 / C(n, |S|) over the family."""
    sizes: dict[int, int] = {}
    for s in family:
        ss = tuple(sorted(set(s)))
        if ss and (ss[0] < 0 or ss[-1] >= n):
            raise InputError(f"set {ss} not within 0..{n - 1}")
        sizes[len(ss)] = sizes.get(len(ss), 0) + 1
    return sum((Fraction(c, comb(n, size)) for size, c in sizes.items()), Fraction(0))


def from_point_set(ps: PointSet) -> Hypergraph:
    """Hypergraph of maximal hyperplane sections with at least d+1 points.

    Edges are the maximal subsets whose affine hull has dimension at most
    d-1, kept only when they carry at least d+1 points. They come from one
    hyperplane walk of the lift (matroid.hyperplane_walk): each group of
    points that spans one hyperplane with a prefix of d - 1 points is keyed
    by the primitive normal of that hyperplane, and each key collects the
    members of its groups and prefixes, by basis exchange its whole section.
    Groups of two or more are keyed, and every group once the walk has
    reported d dependent points, which is exact. Let P0 be the lex-first
    independent (d-1)-subset of a section S; S shows up only at independent
    subsets of S, none of them before P0. If no dependent set was reported
    before the walk yields P0, each point of S outside P0 comes after P0 and
    spans S with it (else it would lie on the flat of the members of P0
    before it, a dependent set reported on the way to P0), so S shows up at
    P0 as one group of its other points, at least 2. Otherwise every group
    of S is keyed, as if the walk keyed all groups. No d points span a
    hyperplane exactly when the whole set lies on a lower flat; it is then
    the unique maximal subset.
    """
    n, d = len(ps), ps.dimension
    if n <= d or d == 0:
        return Hypergraph(n, ())
    members: dict[tuple[int, ...], set[int]] = {}
    dependent = independent = False
    for prefix, groups, units in hyperplane_walk(ps.lift.integer_rows, d + 1, units=True):
        if groups is None:
            dependent = True
            continue
        independent = independent or bool(groups)
        for (x, y), group in groups.items():
            if len(group) == 1 and not dependent:
                continue
            key = tuple(primitive([ux * y - uy * x for ux, uy in units]))
            section = members.get(key)
            if section is None:
                members[key] = {*prefix, *group}
            else:
                section.update(prefix, group)
    if not independent:
        return Hypergraph(n, (tuple(range(n)),))
    return Hypergraph(n, tuple(tuple(sorted(m)) for m in members.values() if len(m) > d))


def random_linear_hypergraph(rng: random.Random, n: int, k: int) -> Hypergraph:
    """(k-1)-linear hypergraph built by rejection sampling of edges of size >= k."""
    edges: list[tuple[int, ...]] = []
    for _ in range(3 * n):
        size = rng.randint(k, min(n, k + 3))
        cand = tuple(sorted(rng.sample(range(n), size)))
        if cand in edges:
            continue
        if all(len(set(cand) & set(e)) < k - 1 for e in edges):
            edges.append(cand)
    return Hypergraph(n, tuple(edges))
