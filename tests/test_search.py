import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from minsimplex.cli import main
from minsimplex.errors import BudgetError, InputError
from minsimplex.extremal import (
    brute_force_s,
    canonical_family,
    complement_graph,
    complete_bipartite,
    monotonicity_check,
    reference_bounds,
    s2_exact,
    search,
    verify_witness,
)
from minsimplex.hypergraph import Hypergraph, is_q_linear, semi_simplexes, yblm_sum

from support import free_scan_python, in_free_domain, random_set_family, relabeled_family


def linear_families(n: int, k: int):
    """Every (k-1)-linear family of candidate edges (size >= k), by filtering
    every subset of the candidate edge list."""
    cands = []
    for size in range(k, n + 1):
        cands.extend(combinations(range(n), size))
    for mask in range(1 << len(cands)):
        family = [cands[i] for i in range(len(cands)) if mask >> i & 1]
        if all(len(set(a) & set(b)) < k - 1 for a, b in combinations(family, 2)):
            yield tuple(family)


def linear_scan_oracle(n: int, k: int) -> Fraction:
    """Independent minimum over (k-1)-linear families, evaluated through the
    hypergraph module."""
    return min(
        yblm_sum(semi_simplexes(Hypergraph(n, family), k).family, n)
        for family in linear_families(n, k)
    )


def relabeled_copies(n, edges):
    """Every one of the n! relabelings of a family, as sorted tuples of sorted edges."""
    for perm in permutations(range(n)):
        yield tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))


def plain_canonical_family(n, edges):
    """The canonical form by sorting every one of the n! relabelings."""
    return min(relabeled_copies(n, edges))


def relabeled_keys(n, family):
    """The `_family_key` of each of the n! relabeled copies of a family."""
    return {
        search._family_key([[perm[v] for v in e] for e in family])
        for perm in permutations(range(n))
    }


def linear_search_recount(n: int, k: int):
    """The depth-first search with its objective recounted in full for every
    family, each visited once in descending candidate order: a family's
    children add one lower candidate each, the highest first. Returns
    (minimum, canonical witness forms, families visited, minimizing families
    in visiting order)."""
    cands = []
    for size in range(k, n + 1):
        cands.extend(combinations(range(n), size))
    cand_masks = [sum(1 << v for v in e) for e in cands]
    w_mk, w_m0, denom = search._objective_weights(n, k)
    level_k1 = list(combinations(range(n), k + 1))
    best = None
    best_families = []
    visited = 0
    chosen = []
    chosen_masks = []
    section = set()

    def evaluate():
        nonlocal best, visited
        visited += 1
        m0 = sum(
            1
            for cand in level_k1
            if not any(sub in section for sub in combinations(cand, k))
        )
        score = len(section) * w_mk + m0 * w_m0
        if best is None or score < best:
            best = score
            best_families.clear()
        if score == best:
            best_families.append(tuple(cands[i] for i in chosen))

    def rec(stop):
        evaluate()
        for j in range(stop - 1, -1, -1):
            mask = cand_masks[j]
            if any((mask & m).bit_count() >= k - 1 for m in chosen_masks):
                continue
            added = list(combinations(cands[j], k))
            chosen.append(j)
            chosen_masks.append(mask)
            section.update(added)
            rec(j)
            section.difference_update(added)
            chosen_masks.pop()
            chosen.pop()

    rec(len(cands))
    forms = sorted({plain_canonical_family(n, f) for f in best_families})
    return Fraction(best, denom), forms, visited, best_families


def test_smallest_case_both_flavors():
    for constrained in (True, False):
        result = brute_force_s(3, 2, constrained)
        assert result.minimum == Fraction(1, 3)
        assert result.witnesses
        for w in result.witnesses:
            assert verify_witness(result, w)


def test_s_n2_matches_closed_form():
    for n in range(3, 7):
        closed = s2_exact(n)
        assert brute_force_s(n, 2, True).minimum == closed
        assert brute_force_s(n, 2, False).minimum == closed


def test_lemma_value_k3():
    assert brute_force_s(4, 3, True).minimum == Fraction(1, 4)
    assert brute_force_s(4, 3, False).minimum == Fraction(1, 4)


def test_constrained_witness_is_two_blocks():
    result = brute_force_s(6, 2, True)
    assert len(result.witnesses) == 1
    w = result.witnesses[0]
    assert sorted(len(e) for e in w.edges) == [3, 3]
    assert is_q_linear(w, 1)
    assert verify_witness(result, w)


def test_free_witness_complement_is_complete_bipartite():
    for n in (4, 5, 6):
        result = brute_force_s(n, 2, False)
        want = canonical_family(n, complete_bipartite(n // 2, n - n // 2).edges)
        for w in result.witnesses:
            assert verify_witness(result, w)
            assert canonical_family(n, complement_graph(w).edges) == want


def mask_family(n, k, mask):
    """The family of k-sets whose bits are set in mask (bit i is the i-th k-set)."""
    ksets = list(combinations(range(n), k))
    return tuple(ksets[i] for i in range(len(ksets)) if mask >> i & 1)


def domain_masks(n, k, masks):
    """The masks whose families lie in the free scan's domain, in their order."""
    return [m for m in masks if in_free_domain(n, k, mask_family(n, k, m))]


def test_every_family_has_a_relabeled_copy_in_the_free_scan_domain():
    # every family for n <= 5, and seeded samples beyond, by brute force over the n! relabelings
    cases = []
    for n in range(3, 6):
        for k in range(2, n):
            cases += [(n, k, m) for m in range(1 << comb(n, k))]
    rng = random.Random(2039)
    for n, k in ((6, 2), (6, 3), (6, 4), (7, 2), (7, 5)):
        cases += [(n, k, rng.getrandbits(comb(n, k))) for _ in range(25)]
    assert len(cases) == 8 + 64 + 16 + 2 * 1024 + 32 + 5 * 25
    for n, k, mask in cases:
        family = mask_family(n, k, mask)
        assert any(in_free_domain(n, k, copy) for copy in relabeled_copies(n, family)), family


def test_numpy_engine_matches_python_oracle():
    # every (n, k) with n <= 8 and C(n,k) <= 20: the minimum, every minimizing
    # mask in the scan's domain, ascending, and through them every minimizing class
    pairs = [(n, k) for n in range(3, 9) for k in range(2, n) if comb(n, k) <= 20]
    assert (6, 3) in pairs and len(pairs) == 12
    for n, k in pairs:
        minimum, masks = free_scan_python(n, k)
        best, argmins, truncated = search._scan_free(n, k)
        assert Fraction(best, comb(n, k) * comb(n, k + 1)) == minimum
        assert brute_force_s(n, k, False).minimum == minimum
        assert (argmins, truncated) == (domain_masks(n, k, masks), False)
        classes = {plain_canonical_family(n, mask_family(n, k, m)) for m in masks}
        assert {plain_canonical_family(n, mask_family(n, k, m)) for m in argmins} == classes


def test_swar_popcounts_match_int_bit_count():
    # a high half holds up to 62 - 11 = 51 bits, a mask up to 62
    import numpy as np

    rng = random.Random(41)
    values = [0, 1, (1 << 51) - 1, (1 << 62) - 1]
    values += [rng.randrange(1 << rng.randint(1, 62)) for _ in range(2000)]
    counts = search._popcounts(np.array(values, dtype=np.int64))
    assert counts.dtype == np.uint64
    assert counts.tolist() == [v.bit_count() for v in values]


def test_backtracking_engine_matches_subset_oracle():
    # n=4, k=2: 11 candidate edges, 2048 subsets; n=4, k=3: 5 candidates
    for n, k in ((4, 2), (4, 3), (5, 4)):
        assert brute_force_s(n, k, True).minimum == linear_scan_oracle(n, k)


def test_scan_blocks_keep_witnesses(monkeypatch):
    # the scan keeps 12 low halves per high half at (5,3) and 384 at (7,5), so
    # blocks of 24 and 2^12 entries hold 2 and 10 high halves: the 8 and 57
    # representatives lie in 5 and 23 blocks, and block 0 has a worse local minimum
    for n, k, block, rows, reps, blocks in ((5, 3, 24, 2, 8, 5), (7, 5, 1 << 12, 10, 57, 23)):
        unpatched = brute_force_s(n, k, False)
        _, masks, truncated = search._scan_free(n, k)
        assert len(masks) == reps and not truncated
        low_bits = min(comb(n, k) // 2, search._LOW_BITS)
        monkeypatch.setattr(search, "_BLOCK", block)
        assert (masks[0] >> low_bits) // rows > 0
        assert len({(m >> low_bits) // rows for m in masks}) == blocks
        assert search._scan_free(n, k)[1:] == (masks, False)
        assert brute_force_s(n, k, False) == unpatched
        monkeypatch.undo()


def test_scan_blocks_truncate_to_the_smallest_masks(monkeypatch):
    # the three smallest representatives of s'(5,3) lie in blocks 1, 2 and 4;
    # block 4 holds two more
    masks = domain_masks(5, 3, free_scan_python(5, 3)[1])
    monkeypatch.setattr(search, "_BLOCK", 24)
    monkeypatch.setattr(search, "_MAX_RAW_WITNESSES", 3)
    assert [(m >> 5) // 2 for m in masks[:5]] == [1, 2, 4, 4, 4]
    assert search._scan_free(5, 3)[1:] == (masks[:3], True)
    result = brute_force_s(5, 3, False)
    assert result.witnesses_truncated
    for w in result.witnesses:
        assert verify_witness(result, w)


def test_s_dominates_s_prime():
    for n, k in ((4, 2), (5, 2), (6, 2), (4, 3), (5, 3)):
        s_val = brute_force_s(n, k, True).minimum
        sp_val = brute_force_s(n, k, False).minimum
        assert sp_val <= s_val
        assert 0 < sp_val <= 1 and 0 < s_val <= 1


def test_monotonicity_small():
    assert monotonicity_check(2, 6)
    assert monotonicity_check(3, 5)
    assert monotonicity_check(4, 5)  # n_max = k+1: single value


def test_budget_refusal_free():
    # C(9,2) = 36 k-sets: int64 masks allow it, the default budget 2^25 does not
    with pytest.raises(BudgetError, match="2\\^36"):
        brute_force_s(9, 2, False)


def test_int64_limit_is_checked_before_the_budget(capsys):
    # C(12,3) = 220 k-sets: no budget could make this scan possible
    with pytest.raises(InputError, match="C\\(12,3\\) = 220"):
        brute_force_s(12, 3, False)
    assert main(["search", "12", "3", "--free"]) == 2
    assert "int64" in capsys.readouterr().err


def test_budget_refusal_constrained():
    with pytest.raises(BudgetError):
        brute_force_s(7, 2, True, budget_bits=5)


def test_budget_override_allows_run():
    # C(6,2) = 15 bits; a tight budget refuses, an explicit override runs
    with pytest.raises(BudgetError):
        brute_force_s(6, 2, False, budget_bits=10)
    assert brute_force_s(6, 2, False, budget_bits=15).minimum == s2_exact(6)


def test_parameter_validation():
    with pytest.raises(InputError):
        brute_force_s(5, 1, False)
    with pytest.raises(InputError):
        brute_force_s(3, 3, False)


def test_search_result_reports_space_size():
    result = brute_force_s(5, 2, False)
    assert result.search_space_size == 1 << 10
    constrained = brute_force_s(5, 2, True)
    assert constrained.search_space_size >= 1


def test_minimum_below_reference_upper_bound():
    # finite values sit below the limiting upper bounds at these sizes
    ref = reference_bounds(2)
    assert brute_force_s(6, 2, True).minimum <= ref.upper_sk


def test_canonical_family_is_isomorphism_invariant():
    fam_a = ((0, 1), (1, 2))
    fam_b = ((2, 3), (1, 2))  # relabeled path
    assert canonical_family(4, fam_a) == canonical_family(4, fam_b)
    assert canonical_family(4, fam_a) != canonical_family(4, ((0, 1), (2, 3)))


def test_canonical_family_matches_plain_relabeling_minimum():
    rng = random.Random(31)
    for n in range(1, 8):
        for _ in range(15 if n < 7 else 4):
            family = random_set_family(rng, n)
            orbit = set()
            assert canonical_family(n, family, orbit) == plain_canonical_family(n, family)
            # the orbit holds exactly the keys of the n! relabeled copies
            assert orbit == relabeled_keys(n, family)


def _power_set(n):
    return tuple(e for size in range(n + 1) for e in combinations(range(n), size))


@pytest.mark.parametrize(
    "n, family",
    [(n, fam) for n in range(5) for fam in [(), ((),), _power_set(n)]]
    + [(1, ((0,),)), (2, ((0,),)), (2, ((1,), (0, 1))), (2, ((0,), (1,))), (2, ((), (1,)))],
)
def test_canonical_family_with_degenerate_generators(n, family):
    # n <= 1 has no generators, and at n = 2 the transposition and the cycle coincide
    orbit = set()
    assert canonical_family(n, family, orbit) == plain_canonical_family(n, family)
    assert orbit == relabeled_keys(n, family)


def _fano_plane():
    return tuple(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7))


def _sqs8():
    # the planes of AG(3,2): four points of GF(2)^3 whose sum is zero
    return tuple(q for q in combinations(range(8), 4) if q[0] ^ q[1] ^ q[2] ^ q[3] == 0)


@pytest.mark.parametrize(
    "n, family, aut_order",
    [
        (7, _fano_plane(), 168),  # PGL(3,2)
        (7, complete_bipartite(3, 4).edges, 3 * 2 * 4 * 3 * 2),  # S_3 x S_4
        (8, _sqs8(), 1344),  # AGL(3,2)
    ],
)
def test_orbit_size_is_n_factorial_over_automorphisms(n, family, aut_order):
    orbit = set()
    assert canonical_family(n, family, orbit) == plain_canonical_family(n, family)
    assert len(orbit) == factorial(n) // aut_order


def test_orbit_of_a_family_without_symmetry_is_every_relabeling():
    family = random_set_family(random.Random(17), 8, max_edges=7)
    copies = list(relabeled_copies(8, family))
    # only the identity maps the family to itself
    assert copies.count(tuple(sorted(family))) == 1
    orbit = set()
    assert canonical_family(8, family, orbit) == min(copies)
    assert len(orbit) == factorial(8) == 40320
    assert orbit == {search._family_key(c) for c in copies}


def test_canonical_witnesses_equal_per_family_canonical_forms():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(6):
            base = [random_set_family(rng, n) for _ in range(3)]
            families = base + [relabeled_family(rng, n, rng.choice(base)) for _ in range(8)]
            rng.shuffle(families)
            want = sorted({canonical_family(n, f) for f in families})
            got = search._canonical_witnesses(n, families)
            assert [w.edges for w in got] == want


def test_canonical_witnesses_canonicalize_once_per_class(monkeypatch):
    rng = random.Random(11)
    family = random_set_family(rng, 5, max_edges=5)
    copies = [relabeled_family(rng, 5, family) for _ in range(20)]
    calls = []
    real = search.canonical_family
    monkeypatch.setattr(search, "canonical_family", lambda *a: calls.append(a) or real(*a))
    assert len(search._canonical_witnesses(5, copies)) == 1
    assert len(calls) == 1


def test_canonical_tables_are_built_once_per_search(monkeypatch):
    # s(5,3) has two witness classes; both are canonicalized on one set of tables
    tables = []
    real = search._canonical_tables
    monkeypatch.setattr(search, "_canonical_tables", lambda n: tables.append(n) or real(n))
    result = brute_force_s(5, 3, True)
    assert len(result.witnesses) == 2
    assert tables == [5]


def test_canonical_subsets_table_lists_the_vertices_of_every_mask():
    for n in range(9):
        subsets = search._canonical_tables(n)[1]
        assert subsets == [tuple(v for v in range(n) if m >> v & 1) for m in range(1 << n)]


def test_canonical_family_on_shared_tables_matches_plain_relabeling_minimum():
    rng = random.Random(35)
    for n in range(1, 8):
        tables = search._canonical_tables(n)
        for _ in range(15 if n < 7 else 4):
            family = random_set_family(rng, n)
            assert canonical_family(n, family, None, tables) == plain_canonical_family(n, family)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_incremental_linear_search_matches_recount_oracle(n):
    # at n = 7 the recount oracle takes seconds per k; k >= 5 is left out
    for k in range(2, n if n < 7 else 5):
        result = brute_force_s(n, k, True)
        minimum, forms, visited, _ = linear_search_recount(n, k)
        assert result.minimum == minimum
        assert [w.edges for w in result.witnesses] == forms
        assert result.search_space_size == visited


@pytest.mark.parametrize("cap", [1, 2, 5, 15, 16])
def test_truncated_linear_witnesses_are_the_first_minimizers_visited(monkeypatch, cap):
    # the search keeps the first `cap` minimizing families of the depth-first
    # order, so its witnesses are the classes of the oracle's first `cap`; the
    # 20 minimizers of s(5,3) are 5 of one class, then 15 of the other
    monkeypatch.setattr(search, "_MAX_RAW_WITNESSES", cap)
    for n in range(3, 7):
        for k in range(2, n):
            _, _, _, raw = linear_search_recount(n, k)
            result = brute_force_s(n, k, True)
            assert [w.edges for w in result.witnesses] == sorted(
                {plain_canonical_family(n, f) for f in raw[:cap]}
            )
            assert result.witnesses_truncated == (len(raw) > cap)


@pytest.mark.parametrize(
    "n, k, families, bits", [(5, 3, 32, 4), (6, 3, 353, 8), (7, 2, 877, 9), (7, 3, 8390, 13)]
)
def test_linear_budget_refuses_exactly_past_the_family_count(n, k, families, bits):
    # 2^bits < families <= 2^(bits + 1); s(5,3) has exactly 2^5 families
    message = (
        f"constrained search visited more than 2^{bits} families "
        f"(n={n}, k={k}); raise the budget to override"
    )
    with pytest.raises(BudgetError) as refused:
        brute_force_s(n, k, True, budget_bits=bits)
    assert str(refused.value) == message
    assert brute_force_s(n, k, True, budget_bits=bits + 1).search_space_size == families


def test_edge_deltas_add_up_to_the_semi_simplex_sum():
    # the lemma: on a (k-1)-linear family the score numerator is
    # C(n,k+1)*w_m0 plus one size-only delta per edge
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(3, 10)
        k = rng.randint(2, n - 1)
        family = []
        for _ in range(rng.randint(0, 12)):
            edge = tuple(sorted(rng.sample(range(n), rng.randint(k, n))))
            if edge not in family and all(len(set(edge) & set(e)) < k - 1 for e in family):
                family.append(edge)
        _, w_m0, denom = search._objective_weights(n, k)
        score = comb(n, k + 1) * w_m0 + sum(search._edge_delta(n, k, len(e)) for e in family)
        assert score == yblm_sum(semi_simplexes(Hypergraph(n, family), k).family, n) * denom


def test_search_refuses_n_beyond_canonical_limit_before_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(search, "_linear_search", no_search)
    monkeypatch.setattr(search, "_scan_free", no_search)
    with pytest.raises(InputError, match="canonical labeling supported up to n = 8"):
        brute_force_s(9, 3, True)
    # C(9,2) = 36 k-sets fit int64 masks and this budget, so only n stops the scan
    with pytest.raises(InputError, match="canonical labeling supported up to n = 8"):
        brute_force_s(9, 2, False, budget_bits=36)


def test_witness_truncation_is_reported(monkeypatch, capsys):
    for constrained in (True, False):
        assert not brute_force_s(5, 3, constrained).witnesses_truncated
    assert main(["search", "5", "3", "--linear"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(search, "_MAX_RAW_WITNESSES", 2)
    for constrained in (True, False):
        result = brute_force_s(5, 3, constrained)
        assert result.witnesses_truncated
        for w in result.witnesses:
            assert verify_witness(result, w)
    assert main(["search", "5", "3", "--linear"]) == 0
    assert "witnesses truncated" in capsys.readouterr().err


def test_linear_search_matches_all_subsets_at_n4():
    n = 4
    for k in (2, 3):
        values = {
            family: yblm_sum(semi_simplexes(Hypergraph(n, family), k).family, n)
            for family in linear_families(n, k)
        }
        minimum = min(values.values())
        forms = sorted({plain_canonical_family(n, f) for f, v in values.items() if v == minimum})
        result = brute_force_s(n, k, True)
        assert result.minimum == minimum
        assert [w.edges for w in result.witnesses] == forms
        assert result.search_space_size == len(values)


def test_free_search_canonicalizes_once_per_witness_class(monkeypatch):
    calls = []
    real = search.canonical_family
    monkeypatch.setattr(search, "canonical_family", lambda *a: calls.append(a) or real(*a))
    result = brute_force_s(7, 2, False)
    assert result.minimum == s2_exact(7)
    assert len(set(result.witnesses)) == len(result.witnesses)
    assert len(calls) == len(result.witnesses) >= 1


def test_free_search_refuses_more_than_62_k_sets(monkeypatch):
    def no_scan(args):
        raise AssertionError("scan started")

    monkeypatch.setattr(search, "_scan_free", no_scan)
    # C(9,3) = 84 k-sets: the budget allows it, int64 masks do not
    with pytest.raises(InputError, match="C\\(9,3\\) = 84"):
        brute_force_s(9, 3, False, budget_bits=100)


def test_float_exactness_bound_admits_every_free_search():
    # every (n, k) the free search accepts (k >= 2, n >= k+1, C(n,k) <= 62) has scores
    # whose partial sums stay below 2^_FLOAT_EXACT_BITS, so that bound never refuses a
    # scan the k-set limit allows; the largest, 2 * 55 * 165 = 18150, is at (11, 2)
    peaks = {
        (n, k): 2 * comb(n, k) * comb(n, k + 1)
        for n in range(3, search._MAX_FREE_BITS + 2)
        for k in range(2, n)
        if comb(n, k) <= search._MAX_FREE_BITS
    }
    assert max(peaks.values()) == peaks[11, 2] == 18150
    assert all(peak < 1 << search._FLOAT_EXACT_BITS for peak in peaks.values())


def test_float_exactness_bound_is_checked_before_the_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started")

    # scores of s'(6,3) reach 2 * C(6,3) * C(6,4) = 600, of s'(5,3) 2 * 10 * 5 = 100
    monkeypatch.setattr(search, "_FLOAT_EXACT_BITS", 9)
    assert brute_force_s(5, 3, False).minimum == Fraction(3, 10)
    monkeypatch.setattr(search, "_scan_free", no_scan)
    with pytest.raises(InputError, match="C\\(6,3\\)\\*C\\(6,4\\) = 600, beyond the 2\\^9"):
        brute_force_s(6, 3, False)
    # the bound is checked after the int64 limit and before the budget
    with pytest.raises(InputError, match="C\\(9,3\\) = 84"):
        brute_force_s(9, 3, False, budget_bits=100)
    with pytest.raises(InputError, match="exactly"):
        brute_force_s(6, 3, False, budget_bits=10)
    # scores of s'(4,3) reach 2 * 4 * 1 = 8: below 2^4, not below 2^3
    monkeypatch.setattr(search, "_FLOAT_EXACT_BITS", 3)
    with pytest.raises(InputError, match="= 8, beyond the 2\\^3"):
        brute_force_s(4, 3, False)
    monkeypatch.undo()
    monkeypatch.setattr(search, "_FLOAT_EXACT_BITS", 4)
    assert brute_force_s(4, 3, False).minimum == Fraction(1, 4)
