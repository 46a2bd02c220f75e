"""Exhaustive search for the minimum semi-simplex sums s(n, k) and s'(n, k).

Two regimes:

* Unconstrained ("free", s'): the semi-simplex family depends only on the
  k-section, and every k-uniform family is a k-section, so the search
  covers all 2^C(n,k) subsets of the k-level. Each family is a bitmask over
  the lexicographically ordered k-sets; the objective is compared through
  the integer numerator |E_k| * C(n,k+1) + |E0_{k+1}| * C(n,k) over the
  common denominator. The objective is invariant under relabeling, so the
  scan breaks the symmetry (orderly generation; McKay, J. Algorithms 26,
  1998): besides the empty family it scores only the families that hold
  the k-set {0..k-1} and whose k-sets {0..k-2, j} have their j first in
  k..n-1. Any family has such a copy: relabel an edge onto {0..k-1}, then
  permute k..n-1. The scan meets in the middle (Horowitz & Sahni,
  J. ACM 21, 1974): a mask is a high half h and a low half l, and it misses
  a (k+1)-set exactly when both halves miss it, so the numerators of all
  (h, l) are one 0/1 matrix product, computed in float32 blocks of at most
  _BLOCK scores. Both rules read the low half only, so they drop columns
  of the product and leave its rows. Every partial sum is a non-negative
  integer of at most 2*C(n,k)*C(n,k+1), which is refused before the scan
  unless it is below 2^24, so BLAS computes each score exactly in any
  summation order. With k >= 2 and at most 62 k-sets that sum is at most
  2*55*165 = 18150, at (11, 2). The scan runs in-process and visits its
  masks in ascending order; the command line runs its products on one BLAS
  thread (cli.main).
  C(n,k) is limited to 62 (int64 halves) whatever the budget, and that
  limit is checked before the budget. numpy is imported by the free search
  only, so importing this module does not load it.

* Linear-constrained (s): the families of edges of size >= k with
  pairwise intersections below k-1 (smaller edges never change the
  semi-simplex family and only tighten the constraint, so they are omitted
  without loss). They form a tree: a family's children add one of its
  remaining candidates each, in descending order, and the child that adds j
  keeps the remaining candidates ANDed with compat[j], the bitmask of the
  earlier candidates compatible with j. So every child's set holds lower
  candidates only, and the largest edges, which clash with most others, are
  placed first. Two candidates clash iff one holds a (k-1)-subset of the
  other, so compat is built from the holders of each (k-1)-set. The score
  depends on the edge sizes only (hypergraph.linear_edge_counts): its
  numerator is C(n,k+1)*w_m0 plus one delta per chosen edge. So a family's
  subtree depends only on its set of remaining candidates, and these sets
  repeat (the 4,464,329 families of s(8,4) share 92,537 non-empty ones), so
  each distinct set is solved once, for the number of families in its
  subtree and the least score they add, at one step per candidate in it.
  A second walk descends only into subtrees that reach the minimum, so it
  lists the minimizers in the tree's depth-first order, highest candidate
  first. The budget bounds the family count, and the steps too.

Witnesses are deduplicated up to vertex relabeling via the minimum
lexicographic incidence form over all relabelings. The relabeled copies
are the family's orbit under S_n, closed breadth-first under two
generators (the transposition (0 1) and the n-cycle; Butler, LNCS 559,
1991), so a class costs its size n!/|Aut(F)| rather than n!. The orbit is
walked once per isomorphism class: it records the key of every relabeled
copy, and later members of the class are found by lookup. A class with a
trivial automorphism group still has all n! copies, and n > 8 is refused
before either search starts. Each search keeps at most
_MAX_RAW_WITNESSES minimizing families, in the free search the minimizers
among the scanned masks; when it drops more, the result says so in
`witnesses_truncated`.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

from ..errors import BudgetError, InputError
from ..hypergraph import Hypergraph, is_q_linear, k_section, semi_simplexes
from ..hypergraph import linear_edge_counts
from ..record import Record

DEFAULT_BUDGET_BITS = 25
_BLOCK = 1 << 18  # most score entries per matrix product of the free scan (whole rows)
_LOW_BITS = 11  # at most 2^11 low halves, so the right-hand factor stays in cache
_MAX_RAW_WITNESSES = 5000
_CANONICAL_N_LIMIT = 8
_MAX_FREE_BITS = 62  # masks and the mask count 2^bits must fit in int64
_FLOAT_EXACT_BITS = 24  # float32 holds every integer below 2^24 exactly


class SearchResult(Record):
    def __init__(
        self, n: int, k: int, linear_constrained: bool, minimum: Fraction,
        witnesses: tuple[Hypergraph, ...], search_space_size: int,
        witnesses_truncated: bool = False,  # minimizers beyond _MAX_RAW_WITNESSES were dropped
    ):
        self.__dict__.update(
            n=n, k=k, linear_constrained=linear_constrained, minimum=minimum, witnesses=witnesses,
            search_space_size=search_space_size, witnesses_truncated=witnesses_truncated,
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "linear_constrained": self.linear_constrained,
            "minimum": f"{self.minimum.numerator}/{self.minimum.denominator}",
            "minimum_approx": float(self.minimum),
            "witnesses": [h.to_json_obj() for h in self.witnesses],
            "search_space_size": self.search_space_size,
        }


def _canonical_tables(n: int) -> tuple[tuple, list[tuple[int, ...]]]:
    """What `canonical_family` reads at n: the two generators as maps of
    vertex bitmasks (none for n <= 1), and the vertices of every bitmask."""
    top = (1 << n) - 1
    generators = ()
    if n > 1:
        swap = [m ^ 3 if (m ^ m >> 1) & 1 else m for m in range(top + 1)]
        cycle = [(m << 1 & top) | m >> (n - 1) for m in range(top + 1)]
        generators = (swap.__getitem__, cycle.__getitem__)
    subsets = [()]
    for m in range(1, top + 1):  # the lowest vertex of m, then those of m without it
        low = m & -m
        subsets.append((low.bit_length() - 1,) + subsets[m ^ low])
    return generators, subsets


def canonical_family(
    n: int, edges: tuple[tuple[int, ...], ...], orbit: set[int] | None = None, tables=None
) -> tuple[tuple[int, ...], ...]:
    """Minimum-over-relabelings form of a family of distinct edges on n vertices.

    The relabeled copies are the orbit of the family under S_n, found
    breadth-first from two generators acting on vertex bitmasks: the
    transposition (0 1) and the cycle v -> v+1 mod n. The cost is one step
    per distinct copy, n!/|Aut(F)|, not n!. If `orbit` is given, the
    `_family_key` of every copy is added to it. `tables`, if given, is
    `_canonical_tables(n)`, built once for many families.
    """
    if n > _CANONICAL_N_LIMIT:
        raise InputError(f"canonical labeling supported up to n = {_CANONICAL_N_LIMIT}")
    generators, subsets = tables or _canonical_tables(n)
    copies = [frozenset(sum(1 << v for v in e) for e in edges)]
    seen = set(copies)
    for fam in copies:  # grows while it is walked: breadth-first
        for g in generators:
            image = frozenset(map(g, fam))
            if image not in seen:
                seen.add(image)
                copies.append(image)
    if orbit is not None:
        orbit.update(sum(1 << m for m in fam) for fam in copies)
    return min(tuple(sorted(subsets[m] for m in fam)) for fam in copies)


def _family_key(edges: tuple[tuple[int, ...], ...]) -> int:
    """One int per set family: bit m is set iff the vertices in bitmask m form an edge."""
    return sum(1 << sum(1 << v for v in e) for e in edges)


def _canonical_witnesses(n: int, families: list[tuple[tuple[int, ...], ...]]) -> tuple[Hypergraph, ...]:
    """The distinct canonical forms of `families`, sorted, as hypergraphs.

    `canonical_family` runs once per isomorphism class, on tables built once
    for the call. Its orbit holds the key of every relabeled copy, so each
    later family of the same class costs one key and one dict lookup.
    """
    canonical_of: dict[int, tuple[tuple[int, ...], ...]] = {}
    classes = []
    tables = _canonical_tables(n)
    for fam in families:
        if _family_key(fam) not in canonical_of:
            orbit: set[int] = set()
            classes.append(canonical_family(n, fam, orbit, tables))
            canonical_of.update(dict.fromkeys(orbit, classes[-1]))
    return tuple(Hypergraph(n, fam) for fam in sorted(classes))


# ---------------------------------------------------------------------------
# free search (s'): scan all k-uniform families as bitmasks
# ---------------------------------------------------------------------------


def _super_masks(n: int, k: int) -> list[int]:
    """Per (k+1)-set, in combinations order, the mask of its k-subsets' bits."""
    index = {b: i for i, b in enumerate(combinations(range(n), k))}
    super_masks = []
    for cand in combinations(range(n), k + 1):
        mask = 0
        for sub in combinations(cand, k):
            mask |= 1 << index[sub]
        super_masks.append(mask)
    return super_masks


def _objective_weights(n: int, k: int) -> tuple[int, int, int]:
    # value = mk/C(n,k) + m0/C(n,k+1) = (mk*C(n,k+1) + m0*C(n,k)) / denom
    ck, ck1 = comb(n, k), comb(n, k + 1)
    return ck1, ck, ck * ck1


def _popcounts(xs):
    """The set bits of each non-negative int64 in the array `xs`, as uint64.

    SWAR: the bits are summed in pairs, then nibbles, then bytes, and one
    multiplication adds the eight byte sums into the top byte. Every operand
    is uint64, so no numpy version promotes the arithmetic to float64.
    """
    import numpy as np

    u = np.uint64
    x = xs.astype(u)
    x = x - (x >> u(1) & u(0x5555555555555555))
    x = (x & u(0x3333333333333333)) + (x >> u(2) & u(0x3333333333333333))
    x = x + (x >> u(4)) & u(0x0F0F0F0F0F0F0F0F)
    return x * u(0x0101010101010101) >> u(56)


def _scan_free(n: int, k: int) -> tuple[int, list[int], bool]:
    """Scan the family masks of a domain that meets every relabeling orbit;
    returns (min numerator, ascending argmins in the domain, truncated).

    The domain is the empty family (mask 0) and the masks that hold bit 0,
    the k-set {0..k-1}, and whose bits 1..t form a prefix 1..10..0. Bit
    j - k + 1 is the k-set {0..k-2, j}, for j = k..n-1, and t is n - k, or
    L - 1 if smaller. The domain meets every orbit: relabel any edge onto
    {0..k-1}, then permute {k..n-1} so that the j whose {0..k-2, j} is an
    edge come first. The score is an orbit invariant, so the domain's
    minimum is the minimum, and every minimizing class has a representative
    among the argmins. Truncated says that more than _MAX_RAW_WITNESSES
    masks of the domain reach the minimum and only the smallest were kept.

    A mask is (h << L) | l. It misses a (k+1)-set t exactly when h misses
    t's high bits and l its low bits, so one float32 product A @ Bt per block
    of consecutive high halves h scores every (h, l) of the block. Both
    rules touch the low half only, so Bt keeps just the columns l in the
    domain, a block is _BLOCK // len(cols) high halves, and the blocks visit
    the masks in ascending order. Scores are integers of at most 18150
    (module docstring), exact in float32.
    """
    import numpy as np

    super_masks = _super_masks(n, k)
    w_mk, w_m0, _ = _objective_weights(n, k)
    bits = comb(n, k)
    low_bits = min(bits // 2, _LOW_BITS)
    low, high = 1 << low_bits, 1 << (bits - low_bits)
    # the low halves in the domain: bit 0 set, and bits 1..t a run of ones from bit 1
    cols = np.arange(1, low, 2, dtype=np.int64)
    links = cols >> 1 & (1 << min(n - k, low_bits - 1)) - 1
    cols = cols[(links & links + 1) == 0]
    ncols = cols.size
    rows = min(high, max(1, _BLOCK // ncols))  # high halves per block
    t_low = np.array([t & (low - 1) for t in super_masks], dtype=np.int64)
    t_high = np.array([t >> low_bits for t in super_masks], dtype=np.int64)
    w_pop = np.uint64(w_mk)

    # A[h] = ([h misses t_high] per (k+1)-set t, |h| * w_mk, 1) and
    # Bt[:, l] = (w_m0 * [l misses t_low] per t, 1, |l| * w_mk), so A[h] . Bt[:, l]
    # is the score numerator |mask| * w_mk + m0 * w_m0 of mask (h << L) | l
    bt = np.empty((len(super_masks) + 2, ncols), dtype=np.float32)
    bt[:-2] = (cols & t_low[:, None]) == 0
    bt[:-2] *= w_m0
    bt[-2] = 1
    bt[-1] = _popcounts(cols) * w_pop

    # one A and one score buffer serve every block; the last block may use fewer rows
    a_buf = np.empty((rows, len(super_masks) + 2), dtype=np.float32)
    a_buf[:, -1] = 1
    s_buf = np.empty((rows, ncols), dtype=np.float32)

    # the empty family misses every (k+1)-set; it is the smallest mask
    best = w_m0 * len(super_masks)
    argmins = [0]
    truncated = False
    for h0 in range(0, high, rows):
        hs = np.arange(h0, min(h0 + rows, high), dtype=np.int64)
        a, scores = a_buf[: hs.size], s_buf[: hs.size]
        a[:, :-2] = (hs[:, None] & t_high) == 0
        a[:, -2] = _popcounts(hs) * w_pop
        np.matmul(a, bt, out=scores)
        block_best = int(scores.min())
        if block_best < best:
            best = block_best
            argmins = []
            truncated = False
        if block_best == best and not truncated:
            where = np.flatnonzero(scores == block_best)
            room = _MAX_RAW_WITNESSES - len(argmins)
            if where.size > room:
                where = where[:room]
                truncated = True
            # entry i of the block is row i // ncols, column i % ncols
            masks = (h0 + where // ncols) << low_bits | cols[where % ncols]
            argmins.extend(masks.tolist())
    return best, argmins, truncated


def _check_free_space(n: int, k: int, budget_bits: int) -> None:
    bits = comb(n, k)
    if bits > _MAX_FREE_BITS:
        raise InputError(
            f"free search supports at most C(n,k) = {_MAX_FREE_BITS} k-sets (int64 masks), "
            f"got C({n},{k}) = {bits}"
        )
    # a score's partial sums are non-negative integers of at most w_mk*C(n,k) + w_m0*C(n,k+1)
    peak = 2 * bits * comb(n, k + 1)
    if peak >= 1 << _FLOAT_EXACT_BITS:
        raise InputError(
            f"free search scores reach 2*C({n},{k})*C({n},{k + 1}) = {peak}, "
            f"beyond the 2^{_FLOAT_EXACT_BITS} that float32 products hold exactly"
        )
    if bits > budget_bits:
        raise BudgetError(
            f"free search over 2^{bits} k-uniform families exceeds budget 2^{budget_bits} "
            f"(n={n}, k={k}); raise the budget to override"
        )


def _free_search(n: int, k: int) -> SearchResult:
    bits = comb(n, k)
    blocks = list(combinations(range(n), k))
    best, raw_masks, truncated = _scan_free(n, k)
    families = [tuple(blocks[i] for i in range(bits) if mask >> i & 1) for mask in raw_masks]
    witnesses = _canonical_witnesses(n, families)
    denom = _objective_weights(n, k)[2]
    return SearchResult(n, k, False, Fraction(best, denom), witnesses, 1 << bits, truncated)


# ---------------------------------------------------------------------------
# constrained search (s): backtracking over (k-1)-linear families
# ---------------------------------------------------------------------------


def _edge_delta(n: int, k: int, size: int) -> int:
    """Score numerator change when an edge of `size` vertices joins a (k-1)-linear family."""
    w_mk, w_m0, _ = _objective_weights(n, k)
    added, covered = linear_edge_counts(n, k, size)
    return added * w_mk - covered * w_m0


def _linear_search(n: int, k: int, budget_bits: int) -> SearchResult:
    max_families = 1 << budget_bits
    cands = [e for size in range(k, n + 1) for e in combinations(range(n), size)]
    # two candidates clash iff they share at least k-1 vertices, iff one holds
    # a (k-1)-subset of the other; holders[s] is the mask of candidates holding s
    holders: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(cands):
        for s in combinations(e, k - 1):
            holders[s] = holders.get(s, 0) | 1 << i
    full = (1 << len(cands)) - 1
    # compat[j]: the earlier candidates that share fewer than k-1 vertices with j
    compat = []
    for j, e in enumerate(cands):
        clash = 0
        for s in combinations(e, k - 1):
            clash |= holders[s]
        compat.append(~clash & ((1 << j) - 1))
    delta_of_size = {size: _edge_delta(n, k, size) for size in range(k, n + 1)}
    delta = [delta_of_size[len(e)] for e in cands]
    _, w_m0, denom = _objective_weights(n, k)

    # A family's subtree depends only on avail, its remaining candidates, so
    # each distinct avail is solved once: memo[avail] = (families in the
    # subtree, least score numerator the subtree adds to its root's).
    memo: dict[int, tuple[int, int]] = {}
    steps = 0

    def refuse() -> None:
        raise BudgetError(
            f"constrained search visited more than 2^{budget_bits} families "
            f"(n={n}, k={k}); raise the budget to override"
        )

    def solve(avail: int) -> tuple[int, int]:
        nonlocal steps
        # one step per child; each distinct avail is some family's, whose
        # children are distinct families, so the steps stay below the family
        # count and bounding them too refuses no search within budget
        steps += avail.bit_count()
        if steps > max_families:
            refuse()
        count, least = 1, 0
        rest = avail
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            child = avail & compat[j]
            if child:
                sub = memo.get(child) or solve(child)
                count += sub[0]
                if delta[j] + sub[1] < least:
                    least = delta[j] + sub[1]
            else:
                count += 1
                if delta[j] < least:
                    least = delta[j]
        if count > max_families:
            refuse()
        memo[avail] = count, least
        return count, least

    empty = comb(n, k + 1) * w_m0  # the empty family's score: m0 = C(n,k+1)
    families, least = solve(full)
    best = empty + least

    # the minimizers in depth-first order: descend, in descending j, only
    # into subtrees whose least score reaches the minimum
    best_families: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[int] = []

    def walk(avail: int, score: int) -> bool:
        """Collect the subtree's minimizers; False once one too many was met."""
        if score == best:
            if len(best_families) == _MAX_RAW_WITNESSES:
                return False
            best_families.append(tuple(cands[i] for i in chosen))
        rest = avail
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            child = avail & compat[j]
            if score + delta[j] + (memo[child][1] if child else 0) == best:
                chosen.append(j)
                more = walk(child, score + delta[j])
                chosen.pop()
                if not more:
                    return False
        return True

    truncated = not walk(full, empty)
    witnesses = _canonical_witnesses(n, best_families)
    return SearchResult(n, k, True, Fraction(best, denom), witnesses, families, truncated)


def brute_force_s(
    n: int,
    k: int,
    linear_constrained: bool,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> SearchResult:
    """Exact minimum of the semi-simplex YBLM sum over hypergraphs on n vertices.

    linear_constrained=True restricts to (k-1)-linear hypergraphs (the s
    flavor); False searches all hypergraphs through their k-sections (s').
    Refuses to start (or aborts) once the candidate space exceeds
    2^budget_bits, and refuses to start when n is beyond the canonical
    labeling of the witnesses.
    """
    if k < 2:
        raise InputError("search needs k >= 2")
    if n < k + 1:
        raise InputError(f"search needs n >= k+1, got n={n}, k={k}")
    if budget_bits < 0:
        raise InputError(f"budget must be a non-negative bit count, got {budget_bits}")
    if not linear_constrained:
        _check_free_space(n, k, budget_bits)
    if n > _CANONICAL_N_LIMIT:
        raise InputError(f"canonical labeling supported up to n = {_CANONICAL_N_LIMIT}")
    if linear_constrained:
        return _linear_search(n, k, budget_bits)
    return _free_search(n, k)


def verify_witness(result: SearchResult, witness: Hypergraph) -> bool:
    """Recompute the witness's semi-simplex sum against the reported minimum."""
    report = semi_simplexes(witness, result.k)
    if report.yblm_sum != result.minimum:
        return False
    if result.linear_constrained:
        return is_q_linear(witness, result.k - 1)
    # unconstrained witnesses are reported through their k-sections
    return witness.edges == k_section(witness, result.k)


def monotonicity_check(
    k: int,
    n_max: int,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> bool:
    """True iff s(n,k) and s'(n,k) are non-decreasing for n = k+1 .. n_max.

    A False return would contradict vertex-deletion monotonicity, so it is
    treated as an implementation-bug signal: the computed tables are dumped
    to stderr for diagnosis.
    """
    rows = []
    for n in range(k + 1, n_max + 1):
        s_val = brute_force_s(n, k, True, budget_bits).minimum
        sp_val = brute_force_s(n, k, False, budget_bits).minimum
        rows.append((n, s_val, sp_val))
    ok = all(a[1] <= b[1] and a[2] <= b[2] for a, b in zip(rows, rows[1:]))
    if not ok:
        print(f"monotonicity violated for k={k}:", file=sys.stderr)
        for n, s_val, sp_val in rows:
            print(f"  n={n}  s={s_val}  s'={sp_val}", file=sys.stderr)
    return ok


def default_budget_bits() -> int:
    """Budget from the environment, or the built-in default."""
    raw = os.environ.get("MINSIMPLEX_BUDGET_BITS")
    if raw is None:
        return DEFAULT_BUDGET_BITS
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"MINSIMPLEX_BUDGET_BITS must be an integer, got {raw!r}") from exc
