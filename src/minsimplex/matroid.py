"""Circuit enumeration for finite rational vector configurations.

A circuit is a minimal linearly dependent subset: dependent, while every
proper subset is independent. enumerate_circuits pairs its members with
its unique primitive integer coefficient vector, a dependency witness (sum
of coefficient times vector is exactly zero), in one plain tuple.

circuit_supports lists the circuits, and geometry enumerates the affine
simplexes of a point set P as the circuits of its lift {(1, p) : p in P}.
A uniform configuration, every D of whose vectors are independent, is
listed from the walk below: its circuits are exactly the (D+1)-subsets,
since any D + 1 vectors of R^D are dependent and their proper subsets are
not. Every other configuration, and enumerate_circuits, which needs the
coefficients, go through the one scan for minimal dependent sets in the
package, and general position is tested with the walk, not the scan.
The scan is a depth-first search over independent sets in lexicographic
order, in integer arithmetic (fraction-free row operations divided by the
previous pivot, as in Bareiss, Math. Comp. 22, 1968). Each node carries,
for every later vector, one list of D entries: its row reduced modulo the
current set, followed by the combination of input vectors that produced
it. A child costs one fused update of that list per later vector. A row
that reduces to zero is a dependency; it is a circuit when its combination
has full support, and that combination, made primitive, is the circuit's
coefficient vector, so no rank test, kernel or rescaling is computed per
candidate.
A set of D - 1 members closes the last level itself: any two later
vectors outside its span are dependent with it, so the set tests each such
pair's combination for full support and emits it, with no child node.

Counting needs no scan when every D - 1 of the n >= D - 1 vectors are
independent. hyperplane_walk walks the (D-2)-subsets in the same order
and groups the later vectors by the hyperplane each spans with the subset.
A hyperplane with m_H vectors shows up at each (D-2)-subset of them as one
group of its members after the subset, so the sums over every prefix and
every group G, A = sum C(|G|, 2) and B = sum C(|G|, 3), are sum C(m_H, D)
and sum C(m_H, D+1) over the hyperplanes, with no hyperplane named;
count_circuits reads them. The walk is an iterator: it yields each
(D-2)-subset with its groups, and each zero row it meets, a dependent set
of at most D - 1 vectors, and its reader stops it by leaving its loop.
Each reader runs its own walk. The count returns at the first dependent
set, which makes the walk the package's one general-position test, while
hypergraph.from_point_set reads on to the end and keys the groups of its
walk by their hyperplanes' normals, to merge them into sections. For
n >= D - 1 >= 1 the configuration is uniform exactly when the count's walk
ends with no dependent set (every D - 1 vectors independent) and A = 0 (no
D of them on a hyperplane). circuit_supports asks that first. With no
count cached, the uniformity test walks on its own and leaves at its first
group of two or more (A > 0); an outcome it reaches, the walk's end or a
first dependent set, is kept as the count's.

The checks on ordered rational rows, their indices and their JSON form
are shared with geometry.PointSet.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError, InvariantError
from .exactla import (
    coerce_rational,
    int_from_json,
    integer_row,
    nullspace_basis,  # noqa: F401  (wrapped by name in perfbench/tracing.py)
    primitive,
    rank,  # noqa: F401  (matroid.rank is wrapped by name in perfbench/tracing.py)
    rank_int_rows,
    read_json,
)
from .record import Record


def check_lengths(
    rows: Sequence[Sequence], dimension: int, noun: str, error: type[Exception] = InvariantError
) -> None:
    """Raise `error` unless every row has `dimension` entries: InvariantError for rows
    built in code, InputError for rows read from a file."""
    for i, row in enumerate(rows):
        if len(row) != dimension:
            raise error(f"{noun} {i} has length {len(row)}, expected {dimension}")


def exact_rows(
    rows: Iterable, dimension: int, noun: str
) -> tuple[tuple[int | Fraction, ...], ...]:
    """The rows as exact entries, each of length dimension >= 0: ints stay ints
    and "p/q" strings become Fractions (exactla.coerce_rational)."""
    if dimension < 0:
        raise InvariantError(f"{noun}s need a non-negative dimension, got {dimension}")
    out = tuple(tuple(coerce_rational(x) for x in row) for row in rows)
    check_lengths(out, dimension, noun)
    return out


def check_indices(subset: Iterable[int], count: int, noun: str) -> tuple[int, ...]:
    """The distinct indices in ascending order, each in 0..count-1."""
    idx = tuple(sorted(set(subset)))
    for i in idx:
        if not 0 <= i < count:
            raise InputError(f"{noun} index {i} out of range 0..{count - 1}")
    return idx


def rows_from_json(obj, key: str) -> tuple[int, list]:
    """(dimension, rows) of {"dimension": d, key: [[entry, ...], ...]}; other
    keys are ignored. A negative dimension or a row of another length is an
    InputError, and the class that receives them coerces the entries."""
    noun = key[:-1]
    if not isinstance(obj, dict) or "dimension" not in obj or key not in obj:
        raise InputError(f"{noun} file needs 'dimension' and '{key}'")
    rows = obj[key]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError(f"'{key}' must be a list of {noun}s, each a list of entries")
    dimension = int_from_json(obj["dimension"], "'dimension'")
    if dimension < 0:
        raise InputError(f"'dimension' must be non-negative, got {dimension}")
    check_lengths(rows, dimension, noun, InputError)
    return dimension, rows


class VectorConfiguration(Record):
    """Ordered list of vectors in R^D, with exact entries (exact_rows): an
    integral configuration holds ints, with no Fraction per entry. It keeps
    its integer rows and what its walk's two readers learn: the count's
    group sums or first dependent set, and whether it is uniform, which
    decides whether circuit_supports lists it from the walk or scans it."""

    def __init__(self, dimension: int, vectors: tuple[tuple[int | Fraction, ...], ...]):
        vectors = exact_rows(vectors, dimension, "vector")
        self.__dict__.update(dimension=dimension, vectors=vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    @cached_property
    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """The vectors with denominators cleared per vector (exactla.integer_row).

        Scaling a vector never changes the rank of a subset, so every rank
        test runs on these, computed once per configuration. A vector of
        ints is its own integer row.
        """
        return tuple(
            v if all(type(x) is int for x in v) else tuple(integer_row(v)) for v in self.vectors
        )

    @cached_property
    def _walk_outcome(self) -> tuple[tuple[int, int] | None, tuple[int, ...] | None]:
        """The count's reading of one hyperplane_walk: ((A, B), None) at
        the walk's end, or (None, P) at its first dependent set P."""
        if not len(self) >= self.dimension - 1 >= 1:
            return None, None
        pairs = triples = 0
        for prefix, groups, _ in hyperplane_walk(self.integer_rows, self.dimension):
            if groups is None:
                return None, prefix
            for group in groups.values():
                m = len(group)
                if m > 1:
                    pairs += m * (m - 1) // 2
                    triples += m * (m - 1) * (m - 2) // 6
        return (pairs, triples), None

    @cached_property
    def uniform(self) -> bool:
        """True when a hyperplane walk proves every D of the vectors
        independent: it ends with no dependent set (every D - 1 are
        independent) and A = 0 (no D lie on a hyperplane). Then the circuits
        are the (D+1)-subsets (see circuit_supports). The walk does not run
        below n >= D - 1 >= 1, where this is False and the scan lists. With no
        count cached, this reads its own walk and leaves it at the first
        group of two or more (A > 0); the outcomes it reaches, ((0, 0), None)
        at the walk's end and (None, P) at a first dependent set P, are the
        count's, and are kept as such."""
        if "_walk_outcome" not in self.__dict__ and len(self) >= self.dimension - 1 >= 1:
            outcome = (0, 0), None
            for prefix, groups, _ in hyperplane_walk(self.integer_rows, self.dimension):
                if groups is None:
                    outcome = None, prefix
                    break
                if any(len(group) > 1 for group in groups.values()):
                    return False
            self.__dict__["_walk_outcome"] = outcome
        return self.hyperplane_sums == (0, 0)

    @property
    def hyperplane_sums(self) -> tuple[int, int] | None:
        """(sum of C(m_H, D), sum of C(m_H, D+1)) over the hyperplanes H of
        R^D, m_H being the number of vectors on H, from one hyperplane_walk;
        None unless n >= D - 1 >= 1 and every D - 1 of the vectors are
        independent. They are the sums of C(|G|, 2) and C(|G|, 3) over the
        walk's groups G (see the module docstring).
        """
        return self._walk_outcome[0]

    @property
    def dependent_set(self) -> tuple[int, ...] | None:
        """The first dependent set (at most D - 1 vectors) the same walk reports, or None."""
        return self._walk_outcome[1]


def load_vectors(path: str) -> VectorConfiguration:
    return VectorConfiguration(*rows_from_json(read_json(path), "vectors"))


def subset_rank(cfg: VectorConfiguration, subset: Iterable[int]) -> int:
    """Rank of the chosen vectors."""
    idx = check_indices(subset, len(cfg), "vector")
    rows = cfg.integer_rows
    return rank_int_rows([rows[i] for i in idx], cfg.dimension)


def configuration_rank(cfg: VectorConfiguration) -> int:
    return subset_rank(cfg, range(len(cfg)))


def _visit(members: tuple[int, ...], carried: list, rlen: int, prev: int, emit: Callable) -> None:
    """One node of the circuit scan: the independent set `members`, with
    rlen = D - len(members) columns left and prev its last member's pivot.

    `carried` holds, in ascending index order, one entry per index k >
    max(members) that is still live or closes a circuit. A live entry is
    (k, v, own): v[:rlen] is k's integer row reduced modulo the span of the
    members, with the members' pivot columns removed, and nonzero; v[rlen:]
    is k's combination of the members' input vectors, so v always has D
    entries; own, never zero, is the coefficient of k's own input vector.
    An entry (k, None, comb) says that members + (k,) is a circuit with
    dependency comb; a dependent members + (k,) without full support is not
    carried at all, since no circuit contains it.

    Each live j is extended in turn. Its child entries are the later live
    rows reduced by j's row at j's first nonzero column p, which is then
    removed: every entry, own and the appended coefficient of j included,
    becomes (a*x - b*y) // prev. This is Bareiss's step, exact because every
    row at a node is the image of its row of [integer rows | diag(s)] (s_k
    the lcm of vector k's denominators) under one elimination: each entry is
    a minor of that matrix, so Hadamard-bounded, though on rows of large
    content it can exceed a gcd-reduced entry. When one column is left
    (rlen == 1) every later row reduces to zero modulo members + (j,), so
    the node tests each later pair's full-support combination itself and
    emits it, with no child node; that combination is the step applied to
    the two rows' tails, past their one reduced entry, left undivided for
    emit's gcd. Extending j in ascending order yields the circuits in
    ascending member order.
    """
    r = rlen - 1
    for i, (j, vj, oj) in enumerate(carried):
        if vj is None:
            emit(members + (j,), oj)
            continue
        head = members + (j,)
        if r == 0:
            a = vj[0]
            tail = vj[1:]
            for k, vk, ok in carried[i + 1 :]:
                if vk is None:
                    continue
                b = vk[0]
                comb = [a * x - b * y for x, y in zip(vk[1:], tail)]
                if all(comb):
                    comb.append(-b * oj)
                    comb.append(a * ok)
                    emit(head + (k,), comb)
            continue
        p = 0
        while not vj[p]:
            p += 1
        a = vj[p]
        child = []
        for k, vk, ok in carried[i + 1 :]:
            if vk is None:
                continue
            b = vk[p]
            v = [(a * x - b * y) // prev for x, y in zip(vk, vj)]
            del v[p]
            v.append(-b * oj // prev)
            if any(v[:r]):
                child.append((k, v, a * ok // prev))
            elif all(v[r:]):
                v = v[r:]
                v.append(a * ok // prev)
                child.append((k, None, v))
        _visit(head, child, r, a, emit)


def _scan(cfg: VectorConfiguration, emit: Callable) -> None:
    """Call emit(members, comb) for every circuit, in ascending member order;
    comb is an integer dependency of its input vectors, in member order.
    Vector k enters as its integer row s_k v_k, with own coefficient s_k."""
    carried = [
        (k, list(row), lcm(*(x.denominator for x in v))) if any(row) else (k, None, [1])
        for k, (v, row) in enumerate(zip(cfg.vectors, cfg.integer_rows))
    ]
    _visit((), carried, cfg.dimension, 1, emit)


def circuit_supports(cfg: VectorConfiguration) -> list[tuple[int, ...]]:
    """Members of every circuit, sorted.

    A uniform configuration (VectorConfiguration.uniform) lists its
    (D+1)-subsets in lexicographic order, which is the scan's list in the
    scan's order, with no scan: D + 1 vectors of R^D are dependent, and
    every proper subset of them is independent. Otherwise,
    a depth-first scan over the independent sets in lexicographic order
    (see _visit) that carries each later vector's row reduced modulo the
    span of the current set. Every circuit is found once, from itself minus
    its largest member, when that member's row reduces to zero with a
    dependency of full support. The zero vector is a size-1 circuit (loop).
    No independent set exceeds the rank, so the scan stops at rank + 1
    members on its own.
    """
    if cfg.uniform:
        return list(combinations(range(len(cfg)), cfg.dimension + 1))
    found: list[tuple[int, ...]] = []
    _scan(cfg, lambda members, comb: found.append(members))
    return found


def count_circuits(cfg: VectorConfiguration) -> dict[int, int]:
    """Circuits by size, ascending, with no zero entries: the counts of
    circuit_supports(cfg).

    When n >= D - 1 >= 1 and every D - 1 of the vectors are independent,
    every circuit has D or D + 1 members, and the counts follow from the
    number m_H of vectors on each hyperplane H (VectorConfiguration.hyperplane_sums):
    - D vectors are a circuit exactly when they lie on one hyperplane:
      A = sum of C(m_H, D);
    - D + 1 vectors are one unless D of them lie on a hyperplane, and two
      such D-subsets share D - 1 independent vectors and so lie on the same
      one: C(n, D+1) minus the sum of C(m_H, D+1) + C(m_H, D)(n - m_H),
      which is C(n, D+1) - (n - D) A + D B with B = sum of C(m_H, D+1).
    Otherwise the scan counts the circuits by size as it finds them, and
    keeps none of them.
    """
    sums = cfg.hyperplane_sums
    if sums is None:
        counts: dict[int, int] = {}

        def emit(members, comb):
            counts[len(members)] = counts.get(len(members), 0) + 1

        _scan(cfg, emit)
        return dict(sorted(counts.items()))
    n, dim = len(cfg), cfg.dimension
    a, b = sums
    counts = {dim: a, dim + 1: comb(n, dim + 1) - (n - dim) * a + dim * b}
    return {size: count for size, count in counts.items() if count}


def hyperplane_walk(
    rows: Sequence[Sequence[int]], dimension: int, units: bool = False
) -> Iterator[tuple]:
    """Yield the (D-2)-subsets of the integer rows in R^D, D >= 2, in
    lexicographic order, with the later rows grouped by the hyperplane
    that each spans with the subset, and every dependent set met on the way.

    The walk is depth-first, like the circuit scan (see _visit), and carries
    only rows, no combinations: each prefix holds every later row reduced
    modulo the span of its members by the fraction-free update a*x - b*y at
    the pivot column, which is then removed, divided exactly by the
    previous pivot (Bareiss), so that every row at one prefix is the image
    of its original under one linear map. At a prefix P of D - 2 members
    each later row k has 2 entries, nonzero exactly when P + (k,) is
    independent, and two such rows are parallel exactly when they span one
    hyperplane with P. The walk yields (P, groups, unit_rows), groups being
    a dict from the primitive form of each direction (first nonzero entry
    positive) to the later members in that direction, both in ascending
    member order.

    A zero row k at prefix P, at any depth (a loop at the root), makes
    P + (k,) a dependent set of at most D - 1 rows with P independent: the
    walk yields (P + (k,), None, None) and drops the row. When no D - 2
    rows are dependent (distinct points lifted to R^4, say), the first such
    set is the first dependent (D - 1)-subset in lexicographic order. A
    reader stops the walk by leaving its loop. When units is set, the unit
    vectors e_0 .. e_(D-1) go through the same maps, and unit_rows holds
    their 2-entry images u_c at P; the hyperplane through P and a group of
    direction w then has the normal (det(u_c, w))_c. Otherwise unit_rows
    is None.
    """
    carried = []
    for k, row in enumerate(rows):
        if any(row):
            carried.append((k, row))
        else:
            yield (k,), None, None
    unit_rows = None
    if units:
        unit_rows = [[int(r == c) for c in range(dimension)] for r in range(dimension)]
    if dimension == 2:  # the empty prefix: the rows have 2 entries already
        groups: dict[tuple[int, ...], list[int]] = {}
        for k, row in carried:
            groups.setdefault(tuple(primitive(row)), []).append(k)
        yield (), groups, unit_rows
    else:
        yield from _walk((), carried, unit_rows, 1, dimension - 2)


def _reduce(row: Sequence[int], pivot_row: Sequence[int], p: int, prev: int) -> list[int]:
    """row reduced by pivot_row at its pivot column p, which is removed (Bareiss)."""
    a, b = pivot_row[p], row[p]
    v = [(a * x - b * y) // prev for x, y in zip(row, pivot_row)]
    del v[p]
    return v


_OTHERS = ((1, 2), (0, 2), (0, 1))  # the columns of a 3-entry row besides its pivot


def _walk(
    prefix: tuple[int, ...], carried: list, units: list | None, prev: int, left: int
) -> Iterator[tuple]:
    """The events of hyperplane_walk at the prefixes that extend `prefix`
    by `left` >= 1 more members. `prev` is the pivot of its last member
    (1 at the root)."""
    for i in range(len(carried) - left):  # room for left - 1 more members and one later row
        j, vj = carried[i]
        p = 0
        while not vj[p]:
            p += 1
        head = prefix + (j,)
        reduced = None if units is None else [_reduce(u, vj, p, prev) for u in units]
        if left > 1:
            child = []
            for k, vk in carried[i + 1 :]:
                v = _reduce(vk, vj, p, prev)
                if any(v):
                    child.append((k, v))
                else:
                    yield head + (k,), None, None
            yield from _walk(head, child, reduced, vj[p], left - 1)
            continue
        # head has D - 2 members: each later row has 3 entries and reduces to 2
        a = vj[p]
        c, e = _OTHERS[p]
        jc, je = vj[c], vj[e]
        groups: dict[tuple[int, int], list[int]] = {}
        for k, vk in carried[i + 1 :]:
            b = vk[p]
            x = (a * vk[c] - b * jc) // prev
            y = (a * vk[e] - b * je) // prev
            if not (x or y):
                yield head + (k,), None, None
                continue
            # exactla.primitive of (x, y), inline: a call per row makes the walk 1.6-1.9x slower
            g = gcd(x, y)
            if x < 0 or not x and y < 0:
                g = -g
            key = (x // g, y // g)
            group = groups.get(key)
            if group is None:
                groups[key] = [k]
            else:
                group.append(k)
        yield head, groups, reduced


def enumerate_circuits(cfg: VectorConfiguration) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every circuit as a pair (members, coefficients), sorted by members.

    The coefficients are the scan's dependency over the input vectors, in
    member order and exactla.primitive form: the unique primitive dependency,
    with (1,) for a loop. A circuit's dependency has full support, so its
    first entry gives the sign, and one gcd makes it primitive.
    """
    circuits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def emit(members, comb):
        g = gcd(*comb)
        if comb[0] < 0:
            g = -g
        circuits.append((members, tuple([c // g for c in comb])))

    _scan(cfg, emit)
    return circuits
