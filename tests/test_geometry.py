import csv
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from minsimplex import hypergraph, matroid
from minsimplex.cli import main
from minsimplex.errors import InputError, InvariantError
from minsimplex.exactla import rank, vector_to_json
from minsimplex.extremal import ConstructionId, construct, expected_count
from minsimplex.hypergraph import from_point_set
from minsimplex.geometry import (
    PointSet,
    affine_rank,
    check_small_flat_hypothesis,
    classify_r3_semi_simplexes,
    count_affine_simplexes,
    enumerate_affine_simplexes,
    load_points,
    project_to_affine,
)
from minsimplex.matroid import VectorConfiguration, count_circuits, enumerate_circuits

from support import (
    oracle_affine_simplexes,
    oracle_small_flat_hypothesis,
    plain_from_point_set,
    random_admissible_configuration,
    random_point_set,
    random_rational,
)


def moment_in_plane(n, d):
    pts = tuple(
        tuple(Fraction(t) ** p for p in range(1, d)) + (Fraction(0),) for t in range(1, n + 1)
    )
    return PointSet(d, pts)


def test_affine_rank_examples():
    single = PointSet(2, ((0, 0),))
    assert affine_rank(single, (0,)) == 0
    collinear = PointSet(2, ((0, 0), (1, 1), (2, 2)))
    assert affine_rank(collinear, (0, 1, 2)) == 1
    rng = random.Random(3)
    ps = random_point_set(rng, 4, 3, span=5)
    r = affine_rank(ps, (0, 1, 2, 3))
    assert 1 <= r <= 3


def test_affine_rank_base_point_independent():
    rng = random.Random(17)
    for _ in range(20):
        ps = random_point_set(rng, rng.randint(2, 6), rng.randint(1, 4))
        idx = tuple(range(len(ps)))
        base_free = affine_rank(ps, idx)
        for b in range(len(ps)):
            rotated = (b,) + tuple(i for i in idx if i != b)
            base = ps.points[rotated[0]]
            diffs = [
                [x - y for x, y in zip(ps.points[i], base)] for i in rotated[1:]
            ]
            assert rank(diffs) == base_free


def test_is_affine_simplex_examples():
    # a set of points is an affine simplex exactly when the enumeration lists it;
    # no pair is one
    collinear = PointSet(2, ((0, 0), (1, 1), (2, 2)))
    assert enumerate_affine_simplexes(collinear).supports == ((0, 1, 2),)
    coplanar = PointSet(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 0)))
    assert enumerate_affine_simplexes(coplanar).supports == ((0, 1, 2, 3),)
    # the four coplanar points hold a collinear triple, the only simplex
    with_triple = PointSet(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)))
    assert enumerate_affine_simplexes(with_triple).supports == ((0, 1, 2),)


def test_is_affine_simplex_per_base_equivalence():
    # the difference-vector circuit test, required for EVERY choice of base
    # point, must agree with the flat-containment definition; a single base
    # does not suffice (a collinear triple plus an off-line base passes it)
    rng = random.Random(29)
    for _ in range(15):
        ps = random_point_set(rng, rng.randint(3, 6), rng.randint(2, 3))
        supports = set(enumerate_affine_simplexes(ps).supports)
        for size in range(3, len(ps) + 1):
            for members in combinations(range(len(ps)), size):
                direct = members in supports
                per_base = []
                for b_pos in range(size):
                    base = ps.points[members[b_pos]]
                    others = [members[i] for i in range(size) if i != b_pos]
                    diffs = [
                        tuple(x - y for x, y in zip(ps.points[i], base)) for i in others
                    ]
                    per_base.append(
                        rank(diffs) == size - 2
                        and all(
                            rank(diffs[:i] + diffs[i + 1 :])
                            == size - 2
                            for i in range(len(diffs))
                        )
                    )
                assert all(per_base) == direct


def test_enumerate_moment_curve_in_hyperplane():
    ps = moment_in_plane(8, 3)
    report = enumerate_affine_simplexes(ps)
    assert report.counts == {4: 70}
    assert report.total == 70


def test_enumerate_cone():
    base = moment_in_plane(7, 3)
    apex = (Fraction(0), Fraction(0), Fraction(1))
    ps = PointSet(3, base.points + (apex,))
    assert enumerate_affine_simplexes(ps).total == 35  # C(7, 4)


def test_enumerate_triangle_is_empty():
    ps = PointSet(2, ((0, 0), (1, 0), (0, 1)))
    assert enumerate_affine_simplexes(ps).total == 0


def test_enumerate_matches_oracle_random():
    rng = random.Random(41)
    for _ in range(10):
        ps = random_point_set(rng, rng.randint(3, 7), rng.randint(2, 4))
        got = enumerate_affine_simplexes(ps).supports
        assert sorted(got) == oracle_affine_simplexes(ps)


def _points_on_flat(rng, n, spans):
    """n distinct points of R^3 on a random flat spanned by `spans` random directions."""
    base = [random_rational(rng) for _ in range(3)]
    dirs = []
    while len(dirs) < spans:
        cand = [random_rational(rng) for _ in range(3)]
        if rank(dirs + [cand]) > len(dirs):
            dirs.append(cand)
    points = set()
    while len(points) < n:
        ts = [Fraction(rng.randint(-4, 4)) for _ in dirs]
        points.add(tuple(b + sum(t * u[i] for t, u in zip(ts, dirs)) for i, b in enumerate(base)))
    return sorted(points)


def test_enumerate_matches_oracle_in_low_dimensional_flats():
    # on a line or a plane the scan stops at rank(lift) + 1, below d + 2 = 5
    rng = random.Random(53)
    for trial in range(12):
        kind = ("line", "plane", "mixture")[trial % 3]
        if kind == "mixture":
            pts = _points_on_flat(rng, rng.randint(2, 4), 1) + _points_on_flat(rng, 4, 2)
            pts = list(dict.fromkeys(pts))
        else:
            pts = _points_on_flat(rng, rng.randint(3, 7), 1 if kind == "line" else 2)
        rng.shuffle(pts)
        ps = PointSet(3, tuple(pts))
        if kind != "mixture":
            assert affine_rank(ps, range(len(ps))) == (1 if kind == "line" else 2)
        got = list(enumerate_affine_simplexes(ps).supports)
        assert got == oracle_affine_simplexes(ps)


def test_check_small_flat_hypothesis():
    assert check_small_flat_hypothesis(moment_in_plane(8, 3))
    bad = PointSet(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1)))
    assert not check_small_flat_hypothesis(bad)
    tiny = PointSet(3, ((0, 0, 0), (1, 1, 1)))
    assert check_small_flat_hypothesis(tiny)
    # a collinear triple, but no 4 points at all in R^4
    line = PointSet(4, ((0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0)))
    assert check_small_flat_hypothesis(line)
    assert not check_small_flat_hypothesis(PointSet(4, line.points + ((0, 0, 0, 1),)))
    # in R^0 and R^1 the hypothesis is vacuous: no points on a (-2)- or (-1)-flat
    assert check_small_flat_hypothesis(PointSet(0, ((),)))
    assert check_small_flat_hypothesis(PointSet(1, ((0,), (1,), (2,))))


def _planted_point_set(rng, d):
    """Random points in R^d, often with a planted collinear triple or four
    points on a plane, in random order."""
    pts = list(random_point_set(rng, rng.randint(1, 7), d, span=3).points)
    base = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
    dirs = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(2)]
    planted = rng.choice([[], [(0, 1), (0, 2), (0, -1)], [(0, 0), (1, 0), (0, 1), (1, 2)]])
    for s, t in planted:
        pts.append(tuple(b + s * u + t * w for b, u, w in zip(base, *dirs)))
    pts = list(dict.fromkeys(pts))
    rng.shuffle(pts)
    return PointSet(d, tuple(pts))


def test_small_flat_hypothesis_matches_d_subset_oracle():
    rng = random.Random(47)
    seen = set()
    for _ in range(240):
        d = rng.randint(2, 4)
        ps = _planted_point_set(rng, d)
        holds = check_small_flat_hypothesis(ps)
        assert holds == oracle_small_flat_hypothesis(ps)
        assert holds == (ps.lift.dependent_set is None)
        seen.add((d, holds, len(ps) < d))
    # both outcomes in R^3 and R^4, and sets below d points
    assert {(3, True, False), (3, False, False), (4, True, False), (4, False, False)} <= seen
    assert any(small for _, _, small in seen)


def _points_on_planted_flats(rng, d):
    """Random points of R^d plus up to two planted flats of dimension 1 to
    d - 1 (a line when d = 1) with a few more points each, in random order."""
    pts = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)) for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(1, max(1, d - 1))
        base = [random_rational(rng) for _ in range(d)]
        dirs = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(k)]
        for _ in range(rng.randint(k + 1, k + 3)):
            ts = [Fraction(rng.randint(-4, 4)) for _ in range(k)]
            pts.append(tuple(b + sum(t * u[i] for t, u in zip(ts, dirs)) for i, b in enumerate(base)))
    pts = list(dict.fromkeys(pts))
    rng.shuffle(pts)
    return PointSet(d, tuple(pts))


def test_count_matches_scan_on_planted_flats():
    rng = random.Random(61)
    seen = set()
    for trial in range(200):
        ps = _points_on_planted_flats(rng, 1 + trial % 4)
        got, want = count_affine_simplexes(ps), enumerate_affine_simplexes(ps).counts
        assert list(got.items()) == list(want.items()), ps
        n, d = len(ps), ps.dimension
        walked = n >= d and ps.lift.hyperplane_sums is not None
        seen.add((d, walked, bool(from_point_set(ps).edges)))
    # every d counts from the walk, d = 2, 3, 4 with sections of more than d
    # points (in R^1 a hyperplane is one point), and d = 3, 4 also fall back to the scan
    assert {(1, True, False), (2, True, True), (3, True, True), (4, True, True)} <= seen
    assert {(3, False, True), (4, False, True)} <= seen


@pytest.mark.parametrize("points,dimension,counts", [
    ((), 0, {}),
    (((),), 0, {}),
    ((), 3, {}),
    # fewer than d points: a collinear triple in R^5 is a simplex the formulas cannot see
    (((0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (2, 2, 0, 0, 0)), 5, {3: 1}),
    # exactly d independent points
    (((0, 0, 0), (1, 0, 0), (0, 1, 0)), 3, {}),
    # a dependent d-subset: the collinear triple (0, 1, 2)
    (((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), 3, {3: 1, 5: 3}),
])
def test_count_at_the_edges(points, dimension, counts):
    ps = PointSet(dimension, points)
    assert enumerate_affine_simplexes(ps).counts == counts
    assert list(count_affine_simplexes(ps).items()) == list(counts.items())


def test_count_makes_no_scan_under_the_hypothesis(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("circuit scan called")

    rng = random.Random(67)
    sets = [moment_in_plane(9, 3), moment_in_plane(7, 4), PointSet(2, ((0, 0), (1, 0), (2, 0), (0, 1)))]
    sets += [construct(ConstructionId(kind, d=3), 12) for kind in ("cone", "inplane-generic")]
    sets.append(construct(ConstructionId("parallel-pairs"), 14))
    sets += [random_point_set(rng, 7, 3, span=9) for _ in range(3)]
    want = [enumerate_affine_simplexes(ps).counts for ps in sets]
    monkeypatch.setattr(matroid, "_scan", scan)
    for ps, counts in zip(sets, want):
        assert check_small_flat_hypothesis(ps)
        assert count_affine_simplexes(ps) == counts
    assert sum(count_affine_simplexes(sets[5]).values()) == expected_count(
        ConstructionId("parallel-pairs"), 14)


def test_walk_group_sums_are_the_section_sums():
    # the keyless (A, B) of the count walk against the keyed sections: under
    # the hypothesis, A = sum C(m, d+1) and B = sum C(m, d+2) over the
    # hyperplane sections, and hyperplanes of exactly d points add nothing
    rng = random.Random(73)
    seen = set()
    for trial in range(240):
        ps = _points_on_planted_flats(rng, 1 + trial % 4)
        n, d = len(ps), ps.dimension
        if n < d or not check_small_flat_hypothesis(ps):
            continue
        sizes = [len(edge) for edge in from_point_set(ps).edges]
        want = sum(comb(m, d + 1) for m in sizes), sum(comb(m, d + 2) for m in sizes)
        assert ps.lift.hyperplane_sums == want, ps
        seen.add((d, want[0] > 0, want[1] > 0))
    # sections of d + 1 and of more points, for d = 2, 3, 4
    assert {(d, True, True) for d in (2, 3, 4)} <= seen
    assert {(d, False, False) for d in (1, 2, 3, 4)} <= seen


def _walk_reports(ps):
    """(dependent sets, prefixes with groups) the keyed walk of the lift
    yields to a reader that reads it to its end."""
    dependent, grouped = [], []
    for prefix, groups, _ in matroid.hyperplane_walk(ps.lift.integer_rows, ps.dimension + 1, units=True):
        if groups is None:
            dependent.append(prefix)
        elif groups:
            grouped.append(prefix)
    return dependent, grouped


def test_hyperplane_sections_with_dependent_points():
    # 0, 1, 2 lie on the x-axis, so each plane through it and one more point
    # is spanned by three d-subsets, each of them missing one of 0, 1, 2;
    # the walk reports the triple and goes on past it
    ps = PointSet(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)))
    assert ps.lift.hyperplane_sums is None and ps.lift.dependent_set == (0, 1, 2)
    dependent, grouped = _walk_reports(ps)
    assert dependent == [(0, 1, 2)]
    assert grouped == list(combinations(range(5), 2))  # (0, 1) with its group of 3, 4, 5
    assert from_point_set(ps).edges == ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5))
    # every triple of a line is dependent, so no prefix has a group
    line = PointSet(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)))
    assert line.lift.hyperplane_sums is None
    assert _walk_reports(line) == (list(combinations(range(4), 3)), [])
    assert from_point_set(line).edges == ((0, 1, 2, 3),)


def _record_walks(monkeypatch):
    """(keyword arguments, the event its reader left it at, or None when
    it ran to its end) of every hyperplane walk, from the count (matroid)
    and from the sections (hypergraph)."""
    walks, walk = [], matroid.hyperplane_walk

    def recording(*args, **kwargs):
        i = len(walks)
        walks.append((kwargs, None))
        for event in walk(*args, **kwargs):
            walks[i] = (kwargs, event)
            yield event
        walks[i] = (kwargs, None)

    monkeypatch.setattr(matroid, "hyperplane_walk", recording)
    monkeypatch.setattr(hypergraph, "hyperplane_walk", recording)
    return walks


def test_a_dependent_set_takes_one_stopped_pass_before_the_scan(monkeypatch):
    walks, scans, scan = _record_walks(monkeypatch), [], matroid._scan

    def recording(*args, **kwargs):
        scans.append(kwargs)
        return scan(*args, **kwargs)

    monkeypatch.setattr(matroid, "_scan", recording)
    points = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    assert count_affine_simplexes(PointSet(3, points)) == {3: 1, 5: 3}
    left = ((0, 1, 2), None, None)  # the collinear triple, the first dependent set
    assert (walks, scans) == ([({}, left)], [{}])  # one count walk, left at the triple; the scan
    walks.clear(), scans.clear()
    with pytest.raises(InvariantError, match=r"collinear triple at indices \(0, 1, 2\)"):
        classify_r3_semi_simplexes(PointSet(3, points))
    assert (walks, scans) == ([({}, left)], [])  # one walk, which names the triple; no scan
    walks.clear()
    assert len(from_point_set(PointSet(3, points)).edges) == 3  # the planes through the x-axis
    assert walks == [({"units": True}, None)]  # one keyed walk, read to its end past the triple


_TRIPLE = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def test_a_count_and_a_listing_share_one_walk_in_any_order(monkeypatch):
    # a uniform set (the moment curve), one with A > 0, one with a dependent
    # set; whichever reader comes first takes the configuration's one walk,
    # to its end or to the first dependent set, and the others read it
    moment = tuple((t, t * t, t**3) for t in range(1, 9))
    pairs = construct(ConstructionId("parallel-pairs"), 10).points
    walks = _record_walks(monkeypatch)
    sets = (
        (moment, {5: 56}, True, None),
        (pairs, {4: 74, 5: 32}, True, None),
        (_TRIPLE, {3: 1, 5: 3}, False, ((0, 1, 2), None, None)),
    )
    readers = (
        count_affine_simplexes,
        lambda ps: enumerate_affine_simplexes(ps).supports,
        check_small_flat_hypothesis,
        lambda ps: tuple(matroid.circuit_supports(ps.lift)),
    )
    for points, counts, hypothesis, left in sets:
        for order in permutations(range(4)):
            walks.clear()
            ps = PointSet(3, points)
            results = [None] * 4
            for i in order:
                results[i] = readers[i](ps)
            want = tuple(oracle_affine_simplexes(ps))
            assert results == [counts, want, hypothesis, want], order
            assert walks == [({}, left)], order


def test_from_point_set_takes_one_walk_with_a_collinear_triple(monkeypatch):
    walks = _record_walks(monkeypatch)
    pairs = construct(ConstructionId("parallel-pairs"), 10).points
    triple = ((7, 0, 0), (7, 1, 0), (7, 2, 0))  # on a line of its own
    for points in (triple + pairs, pairs + triple, pairs[:5] + triple + pairs[5:]):
        walks.clear()
        ps = PointSet(3, points)
        assert from_point_set(ps) == plain_from_point_set(ps)
        assert walks == [({"units": True}, None)]
        assert ps.lift.dependent_set is not None


def test_count_readers_share_one_hyperplane_walk(monkeypatch):
    walks = _record_walks(monkeypatch)
    ps = construct(ConstructionId("parallel-pairs"), 10)
    assert check_small_flat_hypothesis(ps)
    assert count_affine_simplexes(ps) == {4: 74, 5: 32}  # 106 in all, the closed form
    assert classify_r3_semi_simplexes(ps) == (74, 32)
    assert ps.lift.hyperplane_sums is ps.lift.hyperplane_sums
    assert walks == [({}, None)]  # one count walk, with no keys, read to its end
    assert len(from_point_set(ps).edges) == 5
    assert walks == [({}, None), ({"units": True}, None)]  # and one keyed walk


def test_construct_takes_no_walk(monkeypatch):
    # every construction is a formula; only its count or its sections walk
    walks = _record_walks(monkeypatch)
    for cid, n in (
        (ConstructionId("parallel-pairs"), 30),
        (ConstructionId("inplane-generic", d=3), 12),
        (ConstructionId("cone", d=4), 12),
        (ConstructionId("two-lines"), 9),
    ):
        construct(cid, n)
    assert walks == []


def test_sections_of_a_construction_take_one_walk(monkeypatch):
    walks = _record_walks(monkeypatch)
    assert len(from_point_set(construct(ConstructionId("parallel-pairs"), 10)).edges) == 5
    assert walks == [({"units": True}, None)]  # the keyed walk alone, read to its end


def test_simplex_sizes_under_hypothesis():
    rng = random.Random(43)
    found = 0
    while found < 8:
        ps = random_point_set(rng, 6, 3, span=4)
        if not check_small_flat_hypothesis(ps):
            continue
        found += 1
        for members in enumerate_affine_simplexes(ps).supports:
            assert len(members) in (4, 5)


def test_classify_r3_parallel_pairs():
    from minsimplex.extremal import ConstructionId, construct

    ps = construct(ConstructionId("parallel-pairs"), 6)
    # one in-plane quadruple plus two pair+apex-pair quadruples, no quintuple
    assert classify_r3_semi_simplexes(ps) == (3, 0)


def test_classify_r3():
    ps = moment_in_plane(8, 3)
    assert classify_r3_semi_simplexes(ps) == (70, 0)
    generic5 = PointSet(
        3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))
    )
    assert classify_r3_semi_simplexes(generic5) == (0, 1)
    bad = PointSet(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1)))
    with pytest.raises(InvariantError, match="collinear triple"):
        classify_r3_semi_simplexes(bad)
    with pytest.raises(InvariantError):
        classify_r3_semi_simplexes(PointSet(2, ((0, 0), (1, 0), (0, 1))))
    # collinear triples (1, 3, 4) on the x-axis and (2, 4, 5); the first is reported
    two_lines = PointSet(3, ((0, 0, 1), (0, 0, 0), (5, 7, 11), (1, 0, 0), (2, 0, 0), (8, 14, 22)))
    with pytest.raises(InvariantError, match=r"^collinear triple at indices \(1, 3, 4\)$"):
        classify_r3_semi_simplexes(two_lines)


def test_project_three_vectors_to_line():
    cfg = VectorConfiguration(2, ((1, 0), (0, 1), (1, 1)))
    ps = project_to_affine(cfg)
    assert ps.dimension == 1
    assert ps.points == ((Fraction(0),), (Fraction(1),), (Fraction(1, 2),))
    report = enumerate_affine_simplexes(ps)
    assert report.supports == ((0, 1, 2),)


def test_project_single_vector():
    cfg = VectorConfiguration(3, ((1, 2, 3),))
    ps = project_to_affine(cfg)
    assert len(ps) == 1 and ps.dimension == 2


def test_project_rejects_zero_and_parallel():
    with pytest.raises(InvariantError, match="zero vector at index 1"):
        project_to_affine(VectorConfiguration(2, ((1, 0), (0, 0))))
    with pytest.raises(InvariantError, match="parallel vectors at indices 0 and 2"):
        project_to_affine(VectorConfiguration(2, ((1, 0), (0, 1), (2, 0))))
    for vectors in ((), ((),)):
        with pytest.raises(InvariantError, match=r"^a configuration in R\^0 cannot be projected$"):
            project_to_affine(VectorConfiguration(0, vectors))


def _refusal(fn, arg):
    """The InvariantError message of fn(arg), or None when it returns."""
    try:
        fn(arg)
    except InvariantError as exc:
        return str(exc)
    return None


def _vectors_with_small_circuits(rng, dim):
    """1 to 9 vectors of R^dim: random ones, zero vectors, repeats, and
    negative or fractional multiples of earlier ones."""
    vecs = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random() if vecs else 1.0
        if kind < 0.08:
            vecs.append((0,) * dim)
        elif kind < 0.25:
            f = random_rational(rng) or Fraction(-1)
            vecs.append(tuple(f * x for x in rng.choice(vecs)))
        else:
            vecs.append(tuple(random_rational(rng) for _ in range(dim)))
    return VectorConfiguration(dim, tuple(vecs))


def test_projection_refusal_matches_the_uncapped_scan():
    # the oracle reads the loops and parallel pairs off the whole circuit
    # list: the first loop, else the first circuit of size 2
    rng = random.Random(89)
    seen = Counter()
    for trial in range(400):
        cfg = _vectors_with_small_circuits(rng, 1 + trial % 4)
        small = [m for m in matroid.circuit_supports(cfg) if len(m) <= 2]
        loops = [m for m in small if len(m) == 1]
        if loops:
            want = f"zero vector at index {loops[0][0]} cannot be projected"
            seen["zero"] += 1
        elif small:
            i, j = small[0]
            want = f"parallel vectors at indices {i} and {j}"
            p = next(c for c, x in enumerate(cfg.vectors[i]) if x)
            ratio = cfg.vectors[j][p] / cfg.vectors[i][p]
            seen["antiparallel" if ratio < 0 else "parallel"] += 1
            seen["fractional multiple"] += ratio.denominator > 1
            seen["a later pair ends first"] += any(m[1] < j for m in small[1:])
        else:
            want = None
            seen["projected"] += 1
        assert _refusal(project_to_affine, cfg) == want, cfg
    kinds = ("zero", "antiparallel", "parallel", "fractional multiple",
             "a later pair ends first", "projected")
    assert all(seen[kind] > 0 for kind in kinds), seen


def _points_on_planted_lines(rng):
    """Random points of R^3 plus up to three planted lines of 3 or 4 points
    each, in random order."""
    pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(rng.randint(0, 5))]
    for _ in range(rng.randint(0, 3)):
        base = [random_rational(rng) for _ in range(3)]
        step = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        for t in rng.sample(range(-4, 5), rng.randint(3, 4)):
            pts.append(tuple(b + t * u for b, u in zip(base, step)))
    pts = list(dict.fromkeys(pts))
    rng.shuffle(pts)
    return PointSet(3, tuple(pts))


def test_classification_names_the_first_triple_of_the_uncapped_scan():
    rng = random.Random(97)
    seen = Counter()
    for _ in range(300):
        ps = _points_on_planted_lines(rng)
        triples = [m for m in matroid.circuit_supports(ps.lift) if len(m) == 3]
        want = f"collinear triple at indices {triples[0]}" if triples else None
        assert _refusal(classify_r3_semi_simplexes, ps) == want, ps
        seen["named" if triples else "classified"] += 1
        # a later triple in member order with a smaller last member
        seen["a later triple ends first"] += any(t[2] < triples[0][2] for t in triples[1:])
    kinds = ("named", "classified", "a later triple ends first")
    assert all(seen[kind] > 0 for kind in kinds), seen


def test_projection_preserves_circuits_random():
    rng = random.Random(47)
    for _ in range(8):
        n = rng.randint(2, 7)
        dim = rng.randint(2, 4)
        cfg = random_admissible_configuration(rng, n, dim)
        circuits = sorted(members for members, _ in enumerate_circuits(cfg))
        simplexes = sorted(enumerate_affine_simplexes(project_to_affine(cfg)).supports)
        assert circuits == simplexes


def test_rigid_motion_invariance():
    rng = random.Random(53)
    for _ in range(6):
        ps = random_point_set(rng, 6, 2, span=3)
        family = sorted(enumerate_affine_simplexes(ps).supports)
        while True:
            a = [[random_rational(rng) for _ in range(2)] for _ in range(2)]
            if rank(a) == 2:
                break
        shift = [random_rational(rng) for _ in range(2)]
        moved = tuple(
            tuple(
                sum(a[i][j] * p[j] for j in range(2)) + shift[i] for i in range(2)
            )
            for p in ps.points
        )
        moved_ps = PointSet(2, moved)
        moved_family = sorted(enumerate_affine_simplexes(moved_ps).supports)
        assert family == moved_family


def test_duplicate_points_rejected():
    with pytest.raises(InvariantError, match="duplicate points at indices 0 and 2"):
        PointSet(2, ((1, 1), (0, 0), (1, 1)))


def test_row_label_and_index_checks_name_points():
    with pytest.raises(InvariantError, match="^point 1 has length 3, expected 2$"):
        PointSet(2, ((1, 0), (0, 1, 2)))
    with pytest.raises(InvariantError, match="^points need a non-negative dimension, got -1$"):
        PointSet(-1, ())
    with pytest.raises(InputError, match="^point index 2 out of range 0..1$"):
        affine_rank(PointSet(1, ((1,), (2,))), (0, 2))


def test_lift_is_built_once():
    ps = PointSet(1, ((0,), (1,), (2,)))
    assert ps.lift is ps.lift
    assert ps.lift.vectors == ((1, 0), (1, 1), (1, 2))
    assert check_small_flat_hypothesis(ps)
    lift = ps.lift
    assert enumerate_affine_simplexes(ps).supports == ((0, 1, 2),)
    assert ps.lift is lift


def test_json_and_csv_round_trip(tmp_path):
    ps = PointSet(2, ((Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(5, 7))))
    jpath = tmp_path / "pts.json"
    jpath.write_text(json.dumps(ps.to_json_obj()))
    back = load_points(str(jpath))
    assert back == ps
    # JSON ints stay ints and "p/q" strings become Fractions
    assert [[type(x) for x in p] for p in back.points] == [[Fraction, int], [int, Fraction]]
    cpath = tmp_path / "pts.csv"
    with open(cpath, "w", newline="") as fh:
        csv.writer(fh).writerows(vector_to_json(p) for p in ps.points)
    back_csv = load_points(str(cpath))
    assert back_csv == ps
    # every CSV cell is a string, so every entry is a Fraction
    assert all(type(x) is Fraction for p in back_csv.points for x in p)


def test_json_rejects_floats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 1, "points": [[0.5]]}))
    with pytest.raises(InputError):
        load_points(str(path))


# Integral entries are kept as ints; the same values as Fractions must give the same results.


def _as_fractions(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _simplexes_json(capsys, path, rows, dimension, entry):
    path.write_text(json.dumps({"dimension": dimension, "points": [[entry(x) for x in p] for p in rows]}))
    assert main(["simplexes", "--points", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out


def test_int_and_fraction_point_sets_agree(tmp_path, capsys):
    rng = random.Random(71)
    seen = set()
    for trial in range(60):
        d = 1 + trial % 3
        rows = tuple(tuple(int(x) for x in p) for p in _planted_point_set(rng, d).points)
        ints, fracs = PointSet(d, rows), PointSet(d, _as_fractions(rows))
        assert {type(x) for p in ints.points + ints.lift.vectors for x in p} <= {int}
        assert {type(x) for p in fracs.points for x in p} <= {Fraction}
        assert ints == fracs
        counts = count_affine_simplexes(ints)
        assert list(counts.items()) == list(count_affine_simplexes(fracs).items())
        assert enumerate_affine_simplexes(ints) == enumerate_affine_simplexes(fracs)
        holds = check_small_flat_hypothesis(ints)
        assert holds == check_small_flat_hypothesis(fracs)
        assert from_point_set(ints) == from_point_set(fracs)
        if trial % 4 == 0:
            as_int = _simplexes_json(capsys, tmp_path / "int.json", rows, d, int)
            as_str = _simplexes_json(capsys, tmp_path / "str.json", rows, d, lambda x: f"{x}/1")
            assert as_int == as_str
        seen.add((d, holds, bool(counts)))
    # sets with and without simplexes in each dimension; distinct points always meet
    # the hypothesis in R^1 and R^2, and a planted collinear triple fails it in R^3
    assert seen == {(d, True, s) for d in (1, 2, 3) for s in (False, True)} | {(3, False, True)}


def _outcome(f, *args):
    """f(*args), or the message of the InvariantError it raises."""
    try:
        return f(*args)
    except InvariantError as exc:
        return str(exc)


def test_int_and_fraction_vector_configurations_agree():
    rng = random.Random(73)
    seen = set()
    for trial in range(80):
        dim = 1 + trial % 4
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * dim)
        if rng.random() < 0.4:
            scale = rng.choice([-2, -1, 2, 3])
            rows.insert(rng.randrange(len(rows) + 1), tuple(scale * x for x in rng.choice(rows)))
        ints, fracs = VectorConfiguration(dim, tuple(rows)), VectorConfiguration(dim, _as_fractions(rows))
        assert {type(x) for v in ints.vectors for x in v} <= {int}
        assert ints == fracs and ints.integer_rows == fracs.integer_rows
        assert list(count_circuits(ints).items()) == list(count_circuits(fracs).items())
        assert enumerate_circuits(ints) == enumerate_circuits(fracs)
        projected = _outcome(project_to_affine, ints)
        assert projected == _outcome(project_to_affine, fracs)
        if isinstance(projected, PointSet):  # never a float from int / int
            assert all(type(x) is Fraction or type(x) is int for p in projected.points for x in p)
        seen.add(type(projected))
    assert seen == {PointSet, str}


def test_refused_and_duplicate_entries_through_the_cli(tmp_path, capsys):
    path = tmp_path / "pts.json"
    for bad in ([[True, 0], [1, 2]], [[0.5, 0], [1, 2]], [[1, 0], [1, 2.0]]):
        path.write_text(json.dumps({"dimension": 2, "points": bad}))
        assert main(["simplexes", "--points", str(path)]) == 2, bad
        assert capsys.readouterr().err.startswith("input error: expected exact rational")
    # an int point equal to a Fraction point is still a duplicate
    path.write_text(json.dumps({"dimension": 2, "points": [[1, 2], [0, 0], ["2/2", "4/2"]]}))
    assert main(["simplexes", "--points", str(path)]) == 3
    assert capsys.readouterr().err == "invariant violation: duplicate points at indices 0 and 2\n"
