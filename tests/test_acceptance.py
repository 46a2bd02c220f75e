"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All arithmetic is exact; tolerances are zero unless a criterion states a
runtime target, which is asserted in wall-clock seconds.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from minsimplex import extremal, geometry, hypergraph, matroid, stoichiometry

from support import (
    oracle_affine_simplexes,
    oracle_circuits,
    random_admissible_configuration,
    random_configuration,
    random_graph,
    random_linear_hypergraph,
    random_point_set,
)


def _pass(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  {message}")


def test_criterion_01_parallel_pairs_formula():
    start = time.monotonic()
    cid = extremal.ConstructionId("parallel-pairs")
    for n in range(6, 15):
        ps = extremal.construct(cid, n)
        got = geometry.enumerate_affine_simplexes(ps).total
        if n % 2 == 0:
            want = comb(n - 1, 4) - (n - 2) * (n - 5) // 2
        else:
            want = comb(n - 1, 4) - (n - 3) * (n - 5) // 2
        assert got == want == extremal.expected_count(cid, n), f"n={n}: {got} != {want}"
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"parallel-pairs suite took {elapsed:.1f}s (target < 10s)"
    _pass(1, f"parallel-pairs counts match for n=6..14 in {elapsed:.1f}s")


def test_criterion_02_inplane_and_cone_counts():
    for d in (2, 3):
        inplane = extremal.ConstructionId("inplane-generic", d=d)
        cone = extremal.ConstructionId("cone", d=d)
        for n in range(d + 1, 13):
            got = geometry.enumerate_affine_simplexes(extremal.construct(inplane, n)).total
            assert got == comb(n, d + 1), f"inplane d={d} n={n}"
        for n in range(d + 2, 13):
            got = geometry.enumerate_affine_simplexes(extremal.construct(cone, n)).total
            assert got == comb(n - 1, d + 1), f"cone d={d} n={n}"
    _pass(2, "in-plane C(n,d+1) and cone C(n-1,d+1) for d=2,3 and n<=12")


def test_criterion_03_two_lines_counts():
    cid = extremal.ConstructionId("two-lines")
    for n in range(6, 15):
        got = geometry.enumerate_affine_simplexes(extremal.construct(cid, n)).total
        assert got == comb(n - 2, 3) + comb(n - 3, 2) + 1, f"n={n}"
    _pass(3, "two-lines counts C(n-2,3)+C(n-3,2)+1 for n=6..14")


def test_criterion_04_exact_s_n2_with_witness_structure():
    start = time.monotonic()
    for n in range(3, 8):
        closed = extremal.s2_exact(n)
        constrained = extremal.brute_force_s(n, 2, True)
        free = extremal.brute_force_s(n, 2, False)
        assert constrained.minimum == closed, f"s({n},2)"
        assert free.minimum == closed, f"s'({n},2)"
        want = extremal.canonical_family(
            n, extremal.complete_bipartite(n // 2, n - n // 2).edges
        )
        assert free.witnesses, f"no witnesses at n={n}"
        for w in free.witnesses:
            got = extremal.canonical_family(n, extremal.complement_graph(w).edges)
            assert got == want, f"witness complement at n={n} is not complete bipartite"
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"s(n,2) suite took {elapsed:.1f}s (target < 5 min)"
    _pass(4, f"s(n,2)=s'(n,2)=1-floor(n^2/4)/C(n,2) for n=3..7, witnesses "
             f"complement K(fl,ceil) in {elapsed:.1f}s")


def test_criterion_05_lemma_values():
    for k in (2, 3, 4):
        want = Fraction(1, k + 1)
        assert extremal.brute_force_s(k + 1, k, True).minimum == want, f"s({k+1},{k})"
        assert extremal.brute_force_s(k + 1, k, False).minimum == want, f"s'({k+1},{k})"
    _pass(5, "s(k+1,k) = s'(k+1,k) = 1/(k+1) for k=2,3,4")


def test_criterion_06_monotonicity():
    assert extremal.monotonicity_check(2, 7)
    _pass(6, "s(n,2) and s'(n,2) non-decreasing over n=3..7")


def test_criterion_07_two_disjoint_edges_value():
    for k in (2, 3):
        cid = extremal.ConstructionId("two-disjoint-edges", k=k)
        for n in range(3, 7):
            h = extremal.construct(cid, n)
            direct = hypergraph.yblm_sum(hypergraph.semi_simplexes(h, k).family, h.n)
            assert direct == extremal.expected_count(cid, n), f"k={k} n={n}"
        at6 = extremal.expected_count(cid, 6)
        assert at6 <= 1 - Fraction(k, 2**k) + Fraction(1, 20), f"trend check k={k}"
    _pass(7, "two-disjoint-edges YBLM closed form for k=2,3, n=3..6; "
             "n=6 value within 0.05 of the limit bound")


def test_criterion_08_deficit_survey():
    rng = random.Random(83)
    instances = []
    for k in (3, 4):
        for _ in range(25):
            n = rng.randint(k + 2, 20)
            instances.append((random_linear_hypergraph(rng, n, k), k))
    pp = extremal.ConstructionId("parallel-pairs")
    tl = extremal.ConstructionId("two-lines")
    for n in (8, 10):
        instances.append((hypergraph.from_point_set(extremal.construct(pp, n)), 4))
        instances.append((hypergraph.from_point_set(extremal.construct(tl, n)), 3))
    inp = extremal.ConstructionId("inplane-generic", d=3)
    instances.append((hypergraph.from_point_set(extremal.construct(inp, 8)), 4))
    cone = extremal.ConstructionId("cone", d=3)
    instances.append((hypergraph.from_point_set(extremal.construct(cone, 9)), 4))
    tde = extremal.ConstructionId("two-disjoint-edges", k=3)
    instances.append((extremal.construct(tde, 4), 3))

    max_deficit = None
    for h, k in instances:
        deficit = hypergraph.semi_simplex_deficit(h, k)
        assert deficit <= h.n, f"deficit {deficit} exceeds n={h.n}"
        report = hypergraph.semi_simplexes(h, k)
        assert hypergraph.is_sperner(report.family)
        assert hypergraph.yblm_sum(report.family, h.n) <= 1
        if max_deficit is None or deficit > max_deficit:
            max_deficit = deficit
    _pass(8, f"{len(instances)} instances: deficits <= n, Sperner and YBLM hold; "
             f"max observed deficit = {max_deficit} (~{float(max_deficit):.4f})")


def test_criterion_09_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(89)
    for _ in range(50):
        n = rng.randint(4, 8)
        dim = rng.randint(1, 4)
        cfg = random_configuration(rng, n, dim)
        got = [c.members for c in matroid.enumerate_circuits(cfg)]
        assert got == oracle_circuits(cfg)
    for _ in range(50):
        n = rng.randint(4, 8)
        dim = rng.randint(2, 4)
        ps = random_point_set(rng, n, dim)
        got = sorted(geometry.enumerate_affine_simplexes(ps).supports)
        assert got == oracle_affine_simplexes(ps)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"oracle suite took {elapsed:.1f}s (target < 60s)"
    _pass(9, f"100 randomized instances match the all-subset oracles in {elapsed:.1f}s")


def test_criterion_10_projection_correspondence():
    rng = random.Random(97)
    for _ in range(25):
        n = rng.randint(2, 8)
        dim = rng.randint(2, 4)
        cfg = random_admissible_configuration(rng, n, dim)
        circuits = sorted(c.members for c in matroid.enumerate_circuits(cfg))
        projected = geometry.project_to_affine(cfg)
        simplexes = sorted(geometry.enumerate_affine_simplexes(projected).supports)
        assert circuits == simplexes
    _pass(10, "circuit/affine-simplex bijection on 25 admissible configurations")


def test_criterion_11_triangle_bound():
    checked = 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            assert extremal.triangle_bound_check(hypergraph.Hypergraph(n, edges))
            checked += 1
    rng = random.Random(101)
    for _ in range(10_000):
        n = rng.choice((6, 7))
        assert extremal.triangle_bound_check(random_graph(rng, n, rng.random()))
        checked += 1
    _pass(11, f"triangle count >= (4m^2-mn^2)/(3n) on {checked} graphs "
              "(exhaustive n<=5 plus 10^4 samples at n=6,7)")


def test_criterion_12_stoichiometry():
    universe = stoichiometry.AtomUniverse(("C", "H", "O"))
    assert stoichiometry.parse_formula("H2O", universe).composition == (0, 2, 1)
    assert stoichiometry.parse_formula("CH3COOH", universe).composition == (2, 4, 2)
    water_universe = stoichiometry.AtomUniverse(("H", "O"))
    species = [stoichiometry.parse_formula(f, water_universe) for f in ("H2", "O2", "H2O")]
    reactions = stoichiometry.minimal_reactions(species)
    assert len(reactions) == 1
    assert reactions[0].equation() == "2 H2 + O2 -> 2 H2O"
    _pass(12, "footnote vectors parse exactly; {H2,O2,H2O} yields 2 H2 + O2 -> 2 H2O")
