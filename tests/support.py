"""Seeded instance generators and naive oracles shared across test modules."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

from minsimplex import geometry, hypergraph, matroid
from minsimplex.exactla import integer_row, nullspace_basis, primitive, rank
from minsimplex.hypergraph import random_linear_hypergraph  # noqa: F401  (shared by test modules)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code: str, cwd=None, env=None) -> subprocess.CompletedProcess:
    """Run `python -c code` in a new interpreter that imports minsimplex from src,
    with `env` added to the environment; a variable set to None is removed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    full = dict(os.environ, **(env or {}), PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd,
        env={k: v for k, v in full.items() if v is not None},
        capture_output=True, text=True, timeout=300,
    )


def random_rational(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_deficient_rows(
    rng: random.Random, nrows: int, ncols: int, span: int = 4
) -> list[list[Fraction]]:
    """Rows that are often rank-deficient: some are copies or integer
    combinations of earlier rows, and some columns are all zero.

    With a large span (say 10**30) the entries, and so the Bareiss minors,
    are far beyond machine words.
    """
    zero_cols = {c for c in range(ncols) if rng.random() < 0.25}
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = rng.random() if rows else 1.0
        if kind < 0.2:
            row = list(rng.choice(rows))
        elif kind < 0.5:
            row = [Fraction(0)] * ncols
            for src in rng.sample(rows, rng.randint(1, len(rows))):
                f = rng.randint(-3, 3)
                row = [x + f * y for x, y in zip(row, src)]
        else:
            row = [
                Fraction(0) if c in zero_cols else random_rational(rng, span)
                for c in range(ncols)
            ]
        rows.append(row)
    return rows


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot columns).

    The slow oracle for `exactla`, which runs fraction-free Bareiss
    elimination on integer rows instead.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(work), len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def rref_nullspace(rows) -> list[tuple[Fraction, ...]]:
    """The standard nullspace basis read off `rref`: x_f = 1 per free column f."""
    work, pivots = rref(rows)
    ncols = len(work[0]) if work else 0
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -work[i][f]
        basis.append(tuple(vec))
    return basis


def random_configuration(rng: random.Random, n: int, dim: int) -> matroid.VectorConfiguration:
    vectors = tuple(
        tuple(random_rational(rng) for _ in range(dim)) for _ in range(n)
    )
    return matroid.VectorConfiguration(dim, vectors)


def random_admissible_configuration(
    rng: random.Random, n: int, dim: int
) -> matroid.VectorConfiguration:
    """Configuration with no zero vector and no parallel pair (projection input)."""
    vectors: list[tuple[Fraction, ...]] = []
    while len(vectors) < n:
        cand = tuple(random_rational(rng) for _ in range(dim))
        if all(x == 0 for x in cand):
            continue
        if any(rank([cand, v]) <= 1 for v in vectors):
            continue
        vectors.append(cand)
    return matroid.VectorConfiguration(dim, tuple(vectors))


def random_point_set(rng: random.Random, n: int, dim: int, span: int = 3) -> geometry.PointSet:
    points: list[tuple[Fraction, ...]] = []
    seen = set()
    while len(points) < n:
        cand = tuple(Fraction(rng.randint(-span, span)) for _ in range(dim))
        if cand in seen:
            continue
        seen.add(cand)
        points.append(cand)
    return geometry.PointSet(dim, tuple(points))


def random_graph(rng: random.Random, n: int, p: float) -> hypergraph.Hypergraph:
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < p)
    return hypergraph.Hypergraph(n, edges)


def _linearly_independent(cfg: matroid.VectorConfiguration, members: tuple[int, ...]) -> bool:
    return rank([cfg.vectors[i] for i in members]) == len(members)


def oracle_circuits(cfg: matroid.VectorConfiguration) -> list[tuple[int, ...]]:
    """Brute force over every subset: dependent while every subset one vector
    smaller is independent.

    Dependence is `exactla.rank` of the Fraction vectors, so the oracle
    shares no code with `subset_rank` and the configuration's integer rows,
    which the scan uses.
    """
    n = len(cfg)
    out = []
    for size in range(1, n + 1):
        for members in combinations(range(n), size):
            if not _linearly_independent(cfg, members) and all(
                _linearly_independent(cfg, members[:i] + members[i + 1 :]) for i in range(size)
            ):
                out.append(members)
    return sorted(out)


def circuit_coefficients_oracle(
    cfg: matroid.VectorConfiguration, members: tuple[int, ...]
) -> tuple[int, ...]:
    """The primitive dependency of a circuit: its member columns have a
    1-dimensional kernel, read off `exactla.nullspace_basis` of the Fraction
    vectors and made primitive (gcd 1, first entry positive); (1,) for a loop."""
    if len(members) == 1:
        return (1,)
    basis = nullspace_basis([list(col) for col in zip(*(cfg.vectors[i] for i in members))])
    assert len(basis) == 1, f"{members} has nullity {len(basis)}"
    coeffs = tuple(primitive(integer_row(basis[0])))
    assert all(coeffs), f"{members} is not minimal"
    return coeffs


def _affinely_dependent(ps: geometry.PointSet, members: tuple[int, ...]) -> bool:
    base = ps.points[members[0]]
    diffs = [[x - b for x, b in zip(ps.points[i], base)] for i in members[1:]]
    return rank(diffs) < len(diffs)


def oracle_affine_simplexes(ps: geometry.PointSet) -> list[tuple[int, ...]]:
    """Brute force over every subset of size >= 3: affinely dependent while
    every subset one point smaller is independent.

    Dependence is the rank of the differences p_i - p_base, so the oracle
    shares no code with the lift (1, p) that geometry enumerates through.
    """
    n = len(ps)
    out = []
    for size in range(3, n + 1):
        for members in combinations(range(n), size):
            if _affinely_dependent(ps, members) and not any(
                _affinely_dependent(ps, members[:i] + members[i + 1 :]) for i in range(size)
            ):
                out.append(members)
    return sorted(out)


def oracle_small_flat_hypothesis(ps: geometry.PointSet) -> bool:
    """Brute force over every d-subset: none is affinely dependent, i.e.
    no d points lie on a (d-2)-flat (vacuous below d points)."""
    d = ps.dimension
    return not any(_affinely_dependent(ps, m) for m in combinations(range(len(ps)), d))


def _plain_affine_rank(ps: geometry.PointSet, members) -> int:
    return rank([(1,) + ps.points[i] for i in members]) - 1


def plain_from_point_set(ps: geometry.PointSet) -> hypergraph.Hypergraph:
    """The closure oracle for `hypergraph.from_point_set`: each affinely
    independent d-subset closed under the points of its hyperplane, kept
    when the closure has at least d+1 points; the whole set when it is
    degenerate.

    Affine rank is `exactla.rank` of the Fraction lifts, so the oracle reads
    neither the lift's integer rows nor a kernel.
    """
    n, d = len(ps), ps.dimension
    if n <= d:
        return hypergraph.Hypergraph(n, ())
    if _plain_affine_rank(ps, range(n)) <= d - 1:
        return hypergraph.Hypergraph(n, (tuple(range(n)),))
    closures = set()
    for members in combinations(range(n), d):
        if _plain_affine_rank(ps, members) != d - 1:
            continue
        closure = tuple(
            i for i in range(n)
            if i in members or _plain_affine_rank(ps, members + (i,)) == d - 1
        )
        if len(closure) >= d + 1:
            closures.add(closure)
    return hypergraph.Hypergraph(n, tuple(closures))


def random_set_family(
    rng: random.Random, n: int, max_edges: int = 6
) -> tuple[tuple[int, ...], ...]:
    """Distinct non-empty edges on n vertices, each a sorted tuple, in random order."""
    edges = {
        tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        for _ in range(rng.randint(0, max_edges))
    }
    family = list(edges)
    rng.shuffle(family)
    return tuple(family)


def relabeled_family(
    rng: random.Random, n: int, family: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """A copy of family under a random vertex permutation, edges in random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [tuple(sorted(perm[v] for v in e)) for e in family]
    rng.shuffle(edges)
    return tuple(edges)


def free_scan_python(n: int, k: int) -> tuple[Fraction, list[int]]:
    """Plain-Python scan of every k-uniform family on n vertices: s'(n,k) and
    every minimizing mask, ascending (bit i is the i-th k-set in lexicographic order)."""
    ksets = {s: i for i, s in enumerate(combinations(range(n), k))}
    # the k-sets of each (k+1)-set, as a mask: a family leaves t empty iff it misses them all
    shadows = [
        sum(1 << ksets[s] for s in combinations(t, k)) for t in combinations(range(n), k + 1)
    ]
    ck, ck1 = len(ksets), len(shadows)
    best, argmins = None, []
    for mask in range(1 << ck):
        empty = sum(1 for shadow in shadows if mask & shadow == 0)
        score = mask.bit_count() * ck1 + empty * ck  # the value times C(n,k) * C(n,k+1)
        if best is None or score < best:
            best, argmins = score, []
        if score == best:
            argmins.append(mask)
    return Fraction(best, ck * ck1), argmins
