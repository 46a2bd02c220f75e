import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from minsimplex.errors import InputError, InvariantError
from minsimplex.extremal import ConstructionId, construct
from minsimplex.geometry import (
    PointSet,
    affine_rank,
    check_small_flat_hypothesis,
    enumerate_affine_simplexes,
)
from minsimplex.hypergraph import (
    Hypergraph,
    empty_section,
    first_linearity_violation,
    from_point_set,
    is_q_linear,
    is_sperner,
    k_section,
    semi_simplexes,
    semi_simplex_deficit,
    yblm_sum,
)

from support import plain_from_point_set, random_linear_hypergraph, random_point_set, random_set_family


def two_disjoint(n):
    return Hypergraph(2 * n, (tuple(range(n)), tuple(range(n, 2 * n))))


def test_is_q_linear_examples():
    assert is_q_linear(Hypergraph(6, ((0, 1, 2), (3, 4, 5))), 1)
    h = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
    assert is_q_linear(h, 2)
    assert not is_q_linear(h, 1)
    assert is_q_linear(Hypergraph(4, ((0, 1, 2, 3),)), 1)


def test_k_section_examples():
    h = Hypergraph(4, ((0, 1, 2, 3),))
    assert len(k_section(h, 3)) == 4
    for n in (3, 4, 5):
        assert len(k_section(two_disjoint(n), 2)) == 2 * comb(n, 2)
    assert k_section(Hypergraph(5, ()), 2) == ()


def test_k_section_ignores_small_edges():
    h = Hypergraph(5, ((0,), (1, 2), (0, 1, 2, 3)))
    assert k_section(h, 3) == tuple(sorted(combinations((0, 1, 2, 3), 3)))


def test_empty_section_examples():
    assert len(empty_section(Hypergraph(4, ()), 2)) == 4
    # two disjoint 3-sets on 6 vertices: C(6,3) - 2*C(3,3) - 2*3*C(3,2) = 0
    assert empty_section(two_disjoint(3), 2) == ()
    assert empty_section(Hypergraph(5, ((0, 1, 2, 3, 4),)), 3) == ()


def test_semi_simplexes_counts():
    # 8 generic coplanar points in R^3 -> one 8-edge -> E_4 = C(8,4), E0_5 empty
    pts = tuple((Fraction(t), Fraction(t) ** 2, Fraction(0)) for t in range(1, 9))
    h = from_point_set(PointSet(3, pts))
    report = semi_simplexes(h, 4)
    assert report.counts == {4: 70, 5: 0}

    report = semi_simplexes(Hypergraph(6, ()), 3)
    assert report.counts == {3: 0, 4: comb(6, 4)}

    pp6 = from_point_set(construct(ConstructionId("parallel-pairs"), 6))
    assert semi_simplexes(pp6, 4).total == 3


def test_semi_simplex_deficit_single_full_edge():
    h = Hypergraph(6, ((0, 1, 2, 3, 4, 5),))
    assert semi_simplex_deficit(h, 3) <= 0


def test_semi_simplex_deficit_empty_family():
    # raw value: (C(n,k) - C(n,k+1)) / n^(k-1), negative when k < (n-1)/2
    h = Hypergraph(10, ())
    assert semi_simplex_deficit(h, 3) == Fraction(comb(10, 3) - comb(10, 4), 100)
    assert semi_simplex_deficit(h, 3) < 0


def test_semi_simplex_deficit_two_lines():
    # two-lines at n=10: C(8,3) + C(7,2) + 1 = 78 semi-simplexes
    h = from_point_set(construct(ConstructionId("two-lines"), 10))
    assert sorted(len(e) for e in h.edges) == [3, 8]
    assert semi_simplexes(h, 3).total == 78
    assert semi_simplex_deficit(h, 3) == Fraction(comb(10, 3) - 78, 100)


def test_semi_simplex_deficit_requires_linearity():
    h = Hypergraph(5, ((0, 1, 2), (0, 1, 3)))
    with pytest.raises(InvariantError, match=r"not 2-linear.*\(0, 1, 2\)"):
        semi_simplex_deficit(h, 3)


def test_first_linearity_violation_names_pair():
    h = Hypergraph(5, ((0, 1, 2), (0, 1, 3)))
    assert first_linearity_violation(h, 2) == ((0, 1, 2), (0, 1, 3))


def test_is_sperner():
    assert is_sperner([(0, 1), (1, 2)])
    assert not is_sperner([(0, 1), (0, 1, 2)])
    assert is_sperner([])


def test_semi_simplexes_always_sperner_and_yblm_random():
    rng = random.Random(61)
    for _ in range(20):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k + 1, 12)
        h = random_linear_hypergraph(rng, n, k)
        report = semi_simplexes(h, k)
        assert is_sperner(report.family)
        assert yblm_sum(report.family, n) <= 1
        assert report.yblm_sum == yblm_sum(report.family, n)
        # disjointness of the two families is definitional
        section = set(report.sections)
        for f in report.empty_sections:
            assert not any(sub in section for sub in combinations(f, k))


def test_empty_sections_are_the_sets_meeting_every_edge_in_fewer_than_k():
    # a (k+1)-set has a k-subset in E_k exactly when it shares k vertices
    # with an edge, so E0_{k+1} is every (k+1)-set that meets each edge in
    # fewer than k; linear and arbitrary families alike
    rng = random.Random(71)
    seen = set()
    for trial in range(90):
        k = 2 + trial % 3
        n = rng.randint(k + 1, 10)
        if trial % 2:
            h = random_linear_hypergraph(rng, n, k)
        else:
            h = Hypergraph(n, random_set_family(rng, n))
        oracle = tuple(
            c for c in combinations(range(n), k + 1) if all(len(set(c) & set(e)) < k for e in h.edges)
        )
        assert semi_simplexes(h, k).empty_sections == oracle, (h, k)
        seen.add((k, is_q_linear(h, k - 1), bool(oracle)))
    # linear and non-linear families, with and without E0, for k = 2, 3, 4
    assert {(k, linear, e0) for k in (2, 3, 4) for linear in (True, False) for e0 in (True, False)} <= seen


def test_yblm_sum_examples():
    assert yblm_sum(k_section(two_disjoint(3), 2), 6) == Fraction(2, 5)
    k = 4
    single = Hypergraph(k + 1, (tuple(range(k)),))
    report = semi_simplexes(single, k)
    assert yblm_sum(report.family, k + 1) == Fraction(1, k + 1)
    # at k = n there is no (k+1)-set, so E0 adds nothing to the report's sum
    for edges in ((tuple(range(k)),), ()):
        report = semi_simplexes(Hypergraph(k, edges), k)
        assert report.yblm_sum == yblm_sum(report.family, k) == len(edges)
    full = tuple(combinations(range(6), 3))
    assert yblm_sum(full, 6) == 1


def test_yblm_sum_range_check():
    with pytest.raises(InputError):
        yblm_sum([(0, 9)], 5)


def test_k_set_in_at_most_one_edge_when_linear():
    rng = random.Random(67)
    for _ in range(15):
        k = rng.choice((3, 4))
        n = rng.randint(k + 2, 12)
        h = random_linear_hypergraph(rng, n, k)
        seen = {}
        for e in h.edges:
            if len(e) < k:
                continue
            for sub in combinations(e, k):
                assert sub not in seen, f"{sub} in two edges of a {k-1}-linear hypergraph"
                seen[sub] = e


def test_from_point_set_single_plane():
    pts = tuple((Fraction(t), Fraction(t) ** 2, Fraction(0)) for t in range(1, 9))
    h = from_point_set(PointSet(3, pts))
    assert h.edges == (tuple(range(8)),)


def test_from_point_set_parallel_pairs_structure():
    ps = construct(ConstructionId("parallel-pairs"), 6)
    h = from_point_set(ps)
    assert len(h.edges) == 3
    assert (0, 1, 2, 3) in h.edges  # the in-plane quadruple
    assert (0, 1, 4, 5) in h.edges and (2, 3, 4, 5) in h.edges  # pair + apex pair
    assert is_q_linear(h, 3)


def test_from_point_set_no_hyperplane_points():
    generic5 = PointSet(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)))
    assert from_point_set(generic5).edges == ()


def test_from_point_set_too_few_points():
    ps = PointSet(3, ((0, 0, 0), (1, 0, 0)))
    assert from_point_set(ps).edges == ()


def test_from_point_set_single_point_in_r0():
    assert from_point_set(PointSet(0, ((),))) == Hypergraph(1, ())
    assert from_point_set(PointSet(0, ())) == Hypergraph(0, ())


def _points_on_flat(rng, d, k, count):
    """count points, some perhaps equal, on a random flat of R^d spanned by
    k random directions (of dimension below k when they are dependent)."""
    base = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
    dirs = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d)] for _ in range(k)]
    pts = []
    for _ in range(count):
        ts = [rng.randint(-2, 2) for _ in dirs]
        pts.append(tuple(b + sum(t * u[i] for t, u in zip(ts, dirs)) for i, b in enumerate(base)))
    return pts


_KINDS = ("random", "planted", "planted twice", "low flat", "degenerate")


def _sectioned_point_set(rng, d, kind):
    """At most 9 distinct points in R^d in random order: random points
    ("random"), plus up to d + 2 points on each of one or two random
    hyperplanes ("planted", "planted twice") or on one flat of dimension at
    most d - 2 ("low flat"); or all points on one flat of dimension 1 to
    d - 1, a point in R^1 ("degenerate")."""
    if d == 0:
        return PointSet(0, ((),) * rng.randint(0, 1))
    if kind == "degenerate":
        pts = _points_on_flat(rng, d, rng.randint(1, d - 1) if d > 1 else 0, rng.randint(1, 9))
    else:
        flats = {"random": [], "planted": [d - 1], "planted twice": [d - 1, d - 1],
                 "low flat": [rng.randint(0, max(d - 2, 0))]}[kind]
        pts = [p for k in flats for p in _points_on_flat(rng, d, k, rng.randint(d, d + 2))]
        pts += random_point_set(rng, rng.randint(0, 5), d, span=2).points
    pts = list(dict.fromkeys(pts))[:9]
    rng.shuffle(pts)
    return PointSet(d, tuple(pts))


def test_from_point_set_matches_closure_oracle():
    rng = random.Random(4201)
    seen = set()
    for trial in range(250):
        d = trial % 5
        kind = _KINDS[trial // 5 % len(_KINDS)]
        ps = _sectioned_point_set(rng, d, kind)
        h = from_point_set(ps)
        assert h == plain_from_point_set(ps), (d, kind, ps.points)
        n = len(ps)
        if n > d and h.edges == (tuple(range(n)),):
            seen.add((d, ("whole", affine_rank(ps, range(n)) < d - 1)))
        else:
            seen.add((d, bool(h.edges)))
    # sets with and without sections, and sets wholly on a hyperplane, for
    # d = 2..4, or on a lower flat, for d = 3, 4 (in R^2 that is one point)
    assert {(d, tag) for d in (2, 3, 4) for tag in (True, False, ("whole", False))} <= seen
    assert {(3, ("whole", True)), (4, ("whole", True))} <= seen


def test_from_point_set_matches_closure_oracle_wherever_the_low_flat_lies():
    # one walk keys only groups of two or more points until it reports a
    # dependent set, so the oracle is run with the points of a planted flat
    # of dimension 1 to d - 2 (a line in R^2, a section there) first, last,
    # and shuffled among the others
    rng = random.Random(4231)
    seen = set()
    for trial in range(135):
        d, place = 2 + trial % 3, ("first", "last", "shuffled")[trial // 3 % 3]
        k = rng.randint(1, max(1, d - 2))
        flat = list(dict.fromkeys(_points_on_flat(rng, d, k, rng.randint(k + 2, k + 4))))
        others = random_point_set(rng, rng.randint(2, 10 - len(flat)), d, span=2).points
        others = [p for p in others if p not in flat]
        pts = others + flat if place == "last" else flat + others
        if place == "shuffled":
            rng.shuffle(pts)
        ps = PointSet(d, tuple(pts))
        h = from_point_set(ps)
        assert h == plain_from_point_set(ps), (d, place, ps.points)
        seen.add((d, place, check_small_flat_hypothesis(ps), bool(h.edges)))
    # in R^3 and R^4, sets that fail the hypothesis and still have sections,
    # with the flat in each place
    assert {(d, place, False, True) for d in (3, 4) for place in ("first", "last", "shuffled")} <= seen


def test_bridge_semi_simplexes_are_affine_simplexes():
    # under "no d points on a (d-2)-flat" the affine simplexes are exactly
    # the semi-simplexes E_{d+1} and E0_{d+2} of the hyperplane sections
    rng = random.Random(4211)
    for d in (2, 3):
        found = with_sections = 0
        while found < 20:
            ps = _sectioned_point_set(rng, d, rng.choice(_KINDS[:4]))
            if len(ps) <= d or not check_small_flat_hypothesis(ps):
                continue
            found += 1
            h = from_point_set(ps)
            with_sections += bool(h.edges)
            report = semi_simplexes(h, d + 1)
            simplexes = enumerate_affine_simplexes(ps)
            assert report.total == simplexes.total
            assert sorted(report.family) == list(simplexes.supports)
        assert with_sections >= 5


def test_bridge_reproduces_r3_classification():
    # |E_4| and |E0_5| of the hyperplane-section hypergraph must equal the
    # coplanar-quadruple / generic-quintuple split of the point set
    from minsimplex.geometry import classify_r3_semi_simplexes

    cases = [
        construct(ConstructionId("parallel-pairs"), 8),
        construct(ConstructionId("cone", d=3), 7),
    ]
    rng = random.Random(73)
    while len(cases) < 6:
        ps = random_point_set(rng, 7, 3, span=2)
        if check_small_flat_hypothesis(ps):
            cases.append(ps)
    for ps in cases:
        quads, quints = classify_r3_semi_simplexes(ps)
        report = semi_simplexes(from_point_set(ps), 4)
        assert len(report.sections) == quads
        assert len(report.empty_sections) == quints


def test_deficit_from_edge_sizes_matches_the_built_families():
    # semi_simplex_deficit reads only the edge sizes (the lemma of
    # linear_edge_counts); here it meets the families semi_simplexes builds,
    # on random (k-1)-linear hypergraphs and on hyperplane sections of point
    # sets in general position, which are d-linear at k = d + 1
    rng = random.Random(107)
    cases = []
    for _ in range(40):
        k = rng.choice((2, 3, 4))
        cases.append((random_linear_hypergraph(rng, rng.randint(k, 12), k), k))
    for d in (2, 3):
        while len(cases) < 40 + 10 * (d - 1):
            ps = _sectioned_point_set(rng, d, rng.choice(_KINDS[:4]))
            if len(ps) > d and check_small_flat_hypothesis(ps):
                cases.append((from_point_set(ps), d + 1))
    cases.append((from_point_set(construct(ConstructionId("parallel-pairs"), 14)), 4))
    for h, k in cases:
        total = semi_simplexes(h, k).total
        assert semi_simplex_deficit(h, k) == Fraction(comb(h.n, k) - total, h.n ** (k - 1)), (h, k)
    assert sum(len(h.edges) > 1 for h, _ in cases) >= 25


def test_hypergraph_validation():
    with pytest.raises(InvariantError):
        Hypergraph(3, ((0, 3),))
    with pytest.raises(InvariantError):
        Hypergraph(3, ((),))
    with pytest.raises(InvariantError):
        Hypergraph(3, ((0, 1), (1, 0)))


def test_json_round_trip():
    h = Hypergraph(5, ((0, 1, 2), (2, 3, 4)))
    assert Hypergraph.from_json_obj(h.to_json_obj()) == h
