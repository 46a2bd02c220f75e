from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from minsimplex.errors import InputError
from minsimplex.extremal import ConstructionId, construct, expected_count
from minsimplex.geometry import (
    PointSet,
    check_small_flat_hypothesis,
    enumerate_affine_simplexes,
)
from minsimplex.hypergraph import Hypergraph, semi_simplexes, yblm_sum

from support import oracle_small_flat_hypothesis


def total(ps: PointSet) -> int:
    return enumerate_affine_simplexes(ps).total


def test_construction_id_validation():
    with pytest.raises(InputError):
        ConstructionId("nonsense")
    with pytest.raises(InputError):
        ConstructionId("inplane-generic")  # missing d
    with pytest.raises(InputError):
        ConstructionId("two-lines", d=2)  # takes no parameter
    with pytest.raises(InputError):
        ConstructionId("two-disjoint-edges")  # missing k
    with pytest.raises(InputError, match="k >= 2"):
        ConstructionId("two-disjoint-edges", k=1)  # the closed form fails at k = 1
    with pytest.raises(InputError):
        ConstructionId("cone", d=3, k=2)  # stray k
    with pytest.raises(InputError):
        ConstructionId("two-disjoint-edges", d=3, k=2)  # stray d


def test_inplane_generic_counts():
    for d in (2, 3):
        cid = ConstructionId("inplane-generic", d=d)
        for n in (d + 1, d + 3, 8):
            ps = construct(cid, n)
            assert ps.dimension == d and len(ps) == n
            assert check_small_flat_hypothesis(ps)
            assert total(ps) == comb(n, d + 1) == expected_count(cid, n)


def test_cone_counts():
    cid = ConstructionId("cone", d=3)
    ps = construct(cid, 9)
    assert total(ps) == comb(8, 4) == 70 == expected_count(cid, 9)
    # no simplex touches the apex (the last point)
    apex = len(ps) - 1
    for members in enumerate_affine_simplexes(ps).supports:
        assert apex not in members


def test_parallel_pairs_counts_and_layout():
    cid = ConstructionId("parallel-pairs")
    for n in (6, 7, 9, 10):
        ps = construct(cid, n)
        assert len(ps) == n
        assert total(ps) == expected_count(cid, n)
        # apex pair is off-plane and parallel to the first in-plane pair
        a, b = ps.points[-2], ps.points[-1]
        assert a[2] != 0 and b[2] != 0
        pair_dir = tuple(x - y for x, y in zip(ps.points[1], ps.points[0]))
        apex_dir = tuple(x - y for x, y in zip(b, a))
        assert pair_dir[1] == pair_dir[2] == 0 and apex_dir[1] == apex_dir[2] == 0
    with pytest.raises(InputError):
        construct(cid, 5)


def test_parallel_pairs_plane_points_are_pairs_on_the_parabola():
    cid = ConstructionId("parallel-pairs")
    for n in range(6, 41):
        plane = [p[:2] for p in construct(cid, n).points[:-2]]
        want = [(x, i * i) for i in range(1, (n - 2) // 2 + 1) for x in (-i, i)]
        assert plane == want + [(0, 0)] * (n % 2), n
        # brute force: no three of them collinear
        for p, q, r in combinations(plane, 3):
            assert (q[0] - p[0]) * (r[1] - p[1]) != (q[1] - p[1]) * (r[0] - p[0]), (n, p, q, r)


def test_point_constructions_are_in_general_position():
    # the closed forms need no d points on a (d-2)-flat, which construct does
    # not check: brute force over every d-subset, sharing no code with the walk
    for d in range(2, 6):
        for kind, least in (("inplane-generic", 0), ("cone", 2)):
            cid = ConstructionId(kind, d=d)
            for n in range(least, 13):
                assert oracle_small_flat_hypothesis(construct(cid, n)), (kind, d, n)
    for n in range(6, 25):
        assert oracle_small_flat_hypothesis(construct(ConstructionId("parallel-pairs"), n)), n


def test_parallel_pairs_expected_values():
    cid = ConstructionId("parallel-pairs")
    assert expected_count(cid, 6) == 3
    assert expected_count(cid, 7) == comb(6, 4) - (4 * 2) // 2 == 11
    assert expected_count(cid, 10) == 106


def test_two_lines_counts():
    cid = ConstructionId("two-lines")
    for n in (6, 8, 11):
        ps = construct(cid, n)
        assert total(ps) == comb(n - 2, 3) + comb(n - 3, 2) + 1 == expected_count(cid, n)
    assert expected_count(cid, 8) == 31


def test_two_disjoint_edges():
    cid = ConstructionId("two-disjoint-edges", k=2)
    h = construct(cid, 3)
    assert isinstance(h, Hypergraph)
    assert h.edges == ((0, 1, 2), (3, 4, 5))
    direct = yblm_sum(semi_simplexes(h, 2).family, 6)
    assert direct == Fraction(2, 5) == expected_count(cid, 3)
    # cross-check the closed form against the direct sum for more sizes
    for k in (2, 3):
        ck = ConstructionId("two-disjoint-edges", k=k)
        for n in range(max(3, k), 7):
            hk = construct(ck, n)
            assert yblm_sum(semi_simplexes(hk, k).family, 2 * n) == expected_count(ck, n)


def test_expected_count_parameter_guards():
    with pytest.raises(InputError):
        expected_count(ConstructionId("parallel-pairs"), 5)
    with pytest.raises(InputError):
        expected_count(ConstructionId("two-lines"), 4)
    with pytest.raises(InputError):
        expected_count(ConstructionId("two-disjoint-edges", k=4), 3)
