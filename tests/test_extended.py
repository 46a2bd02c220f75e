"""Heavier cross-checks beyond the acceptance ranges (still fast)."""

from fractions import Fraction
from itertools import combinations

import pytest

from minsimplex import geometry, hypergraph, matroid
from minsimplex.errors import BudgetError
from minsimplex.extremal import (
    ConstructionId,
    brute_force_s,
    construct,
    expected_count,
    s2_exact,
    verify_witness,
)


def test_parallel_pairs_beyond_acceptance_range():
    cid = ConstructionId("parallel-pairs")
    for n in (15, 16, 22, 34, 40):
        ps = construct(cid, n)
        assert geometry.enumerate_affine_simplexes(ps).total == expected_count(cid, n)


def test_cone_and_inplane_generic_at_n40_in_r3():
    # the regime of the C(n,4) - cn^3 lower bound for affine simplexes in R^3
    for cid in (ConstructionId("cone", 3), ConstructionId("inplane-generic", 3)):
        ps = construct(cid, 40)
        assert geometry.enumerate_affine_simplexes(ps).total == expected_count(cid, 40)


def test_count_matches_closed_forms_beyond_enumeration():
    # 3,759,721 and 63,371,946 simplexes for parallel pairs: counted from the
    # hyperplane table, far past what the scan can list
    cases = [(ConstructionId("parallel-pairs"), 100), (ConstructionId("parallel-pairs"), 200)]
    cases += [(ConstructionId(kind, 3), 100) for kind in ("cone", "inplane-generic")]
    for cid, n in cases:
        ps = construct(cid, n)
        assert sum(geometry.count_affine_simplexes(ps).values()) == expected_count(cid, n)


def test_uniform_listing_of_30_moment_vectors_equals_the_scan():
    # (1, t, t^2, t^3) for t = 1..30: every 4 are independent (Vandermonde),
    # so the listing is the 5-subsets, and the scan finds the same 142,506
    cfg = matroid.VectorConfiguration(4, tuple((1, t, t * t, t**3) for t in range(1, 31)))
    scanned = []
    matroid._scan(cfg, lambda members, comb: scanned.append(members))
    assert len(scanned) == 142506
    assert matroid.circuit_supports(cfg) == scanned == list(combinations(range(30), 5))


def test_two_lines_large():
    cid = ConstructionId("two-lines")
    for n in (16, 20):
        ps = construct(cid, n)
        assert geometry.enumerate_affine_simplexes(ps).total == expected_count(cid, n)


def test_bridge_on_larger_parallel_pairs():
    ps = construct(ConstructionId("parallel-pairs"), 12)
    quads, quints = geometry.classify_r3_semi_simplexes(ps)
    assert quads + quints == expected_count(ConstructionId("parallel-pairs"), 12)
    report = hypergraph.semi_simplexes(hypergraph.from_point_set(ps), 4)
    assert (len(report.sections), len(report.empty_sections)) == (quads, quints)


def test_bridge_counts_at_parallel_pairs_200():
    # the semi-simplexes of the hyperplane sections, counted from the edge sizes,
    # are the affine simplexes of the points, counted from the hyperplane walk;
    # listing E0_5 would mean testing C(200, 5), about 2.5e9 sets
    ps = construct(ConstructionId("parallel-pairs"), 200)
    counts = hypergraph.semi_simplexes(hypergraph.from_point_set(ps), 4).counts
    assert counts == geometry.count_affine_simplexes(ps) == {4: 62117154, 5: 1254792}


def test_k3_pair_at_n6():
    free = brute_force_s(6, 3, False)
    constrained = brute_force_s(6, 3, True)
    assert free.minimum <= constrained.minimum
    assert 0 < free.minimum <= 1
    # two disjoint 3-edges on 6 vertices are 2-linear, so their value 7/10
    # is an upper bound on the constrained minimum
    assert constrained.minimum <= Fraction(7, 10)
    # values cannot drop below the n=5 level
    assert brute_force_s(5, 3, True).minimum <= constrained.minimum
    assert brute_force_s(5, 3, False).minimum <= free.minimum


def test_s_at_n8_with_verified_witnesses():
    cases = ((3, Fraction(139, 280), 433039), (4, Fraction(1, 5), 4464329), (5, Fraction(2, 7), 239174))
    for k, value, families in cases:
        result = brute_force_s(8, k, True)
        assert result.minimum == value
        assert result.search_space_size == families
        assert result.minimum >= brute_force_s(7, k, True).minimum
        assert result.witnesses and not result.witnesses_truncated
        for w in result.witnesses:
            assert verify_witness(result, w)


def test_linear_budget_refuses_s_8_4_exactly_past_its_family_count():
    # 2^22 = 4,194,304 < 4,464,329 families <= 2^23
    with pytest.raises(BudgetError) as refused:
        brute_force_s(8, 4, True, budget_bits=22)
    assert str(refused.value) == (
        "constrained search visited more than 2^22 families (n=8, k=4); raise the budget to override"
    )
    assert brute_force_s(8, 4, True, budget_bits=23).search_space_size == 4464329


@pytest.mark.parametrize(
    "n, k, value, families, classes",
    [
        (3, 2, Fraction(1, 3), 5, 1),
        (4, 2, Fraction(1, 3), 15, 1),
        (4, 3, Fraction(1, 4), 6, 1),
        (5, 2, Fraction(2, 5), 52, 1),
        (5, 3, Fraction(2, 5), 32, 2),
        (5, 4, Fraction(1, 5), 7, 1),
        (6, 2, Fraction(2, 5), 203, 1),
        (6, 3, Fraction(2, 5), 353, 1),
        (6, 4, Fraction(1, 5), 83, 1),
        (6, 5, Fraction(1, 6), 8, 1),
        (7, 2, Fraction(3, 7), 877, 1),
        (7, 3, Fraction(2, 5), 8390, 1),
        (7, 4, Fraction(1, 5), 6150, 1),
        (7, 5, Fraction(2, 7), 240, 2),
        (7, 6, Fraction(1, 7), 9, 1),
        (8, 2, Fraction(3, 7), 4140, 1),
        (8, 3, Fraction(139, 280), 433039, 1),
        (8, 4, Fraction(1, 5), 4464329, 1),
        (8, 5, Fraction(2, 7), 239174, 2),
        (8, 6, Fraction(1, 7), 773, 1),
        (8, 7, Fraction(1, 8), 10, 1),
    ],
)
def test_every_linear_search_the_cli_accepts(n, k, value, families, classes):
    # every (n, k) with 3 <= n <= 8: the order in which the search visits its
    # tree shows in none of the minimum, the family count or the witness classes
    result = brute_force_s(n, k, True)
    assert result.minimum == value
    assert result.search_space_size == families
    assert len(result.witnesses) == classes
    assert result.witnesses_truncated is False


def test_s_prime_at_n8_k2():
    # 2^28 masks: past the default budget
    result = brute_force_s(8, 2, False, budget_bits=28)
    assert result.minimum == s2_exact(8)
    assert result.minimum >= brute_force_s(7, 2, False).minimum
    assert result.witnesses and not result.witnesses_truncated
    for w in result.witnesses:
        assert verify_witness(result, w)


def test_s_prime_at_n7_k3():
    # 2^35 families, covered by one scanned mask per relabeling orbit and more
    result = brute_force_s(7, 3, False, budget_bits=35)
    assert result.minimum == Fraction(12, 35)
    assert result.search_space_size == 2**35
    assert len(result.witnesses) == 5 and not result.witnesses_truncated
    for w in result.witnesses:
        assert verify_witness(result, w)
