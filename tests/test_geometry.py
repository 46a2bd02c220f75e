import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from minsimplex.errors import InputError, InvariantError
from minsimplex.exactla import rank
from minsimplex.geometry import (
    PointSet,
    affine_rank,
    check_small_flat_hypothesis,
    classify_r3_semi_simplexes,
    enumerate_affine_simplexes,
    is_affine_simplex,
    load_points,
    project_to_affine,
    save_points,
)
from minsimplex.matroid import VectorConfiguration, enumerate_circuits

from support import (
    oracle_affine_simplexes,
    oracle_small_flat_hypothesis,
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
    collinear = PointSet(2, ((0, 0), (1, 1), (2, 2)))
    assert is_affine_simplex(collinear, (0, 1, 2))
    coplanar = PointSet(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 0)))
    assert is_affine_simplex(coplanar, (0, 1, 2, 3))
    with_triple = PointSet(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)))
    assert not is_affine_simplex(with_triple, (0, 1, 2, 3))
    with pytest.raises(InvariantError):
        is_affine_simplex(collinear, (0, 1))


def test_is_affine_simplex_per_base_equivalence():
    # the difference-vector circuit test, required for EVERY choice of base
    # point, must agree with the flat-containment definition; a single base
    # does not suffice (a collinear triple plus an off-line base passes it)
    rng = random.Random(29)
    for _ in range(15):
        ps = random_point_set(rng, rng.randint(3, 6), rng.randint(2, 3))
        for size in range(3, len(ps) + 1):
            for members in combinations(range(len(ps)), size):
                direct = is_affine_simplex(ps, members)
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
        seen.add((d, holds, len(ps) < d))
    # both outcomes in R^3 and R^4, and sets below d points
    assert {(3, True, False), (3, False, False), (4, True, False), (4, False, False)} <= seen
    assert any(small for _, _, small in seen)


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


def test_projection_preserves_circuits_random():
    rng = random.Random(47)
    for _ in range(8):
        n = rng.randint(2, 7)
        dim = rng.randint(2, 4)
        cfg = random_admissible_configuration(rng, n, dim)
        circuits = sorted(c.members for c in enumerate_circuits(cfg))
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
    with pytest.raises(InvariantError, match="^label count does not match point count$"):
        PointSet(1, ((1,), (2,)), labels=("a",))
    with pytest.raises(InvariantError, match="^labels must be unique$"):
        PointSet(1, ((1,), (2,)), labels=("a", "a"))
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
    ps = PointSet(
        2,
        ((Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(5, 7))),
        labels=("a", "b"),
    )
    jpath = str(tmp_path / "pts.json")
    save_points(ps, jpath)
    back = load_points(jpath)
    assert back == ps
    cpath = str(tmp_path / "pts.csv")
    save_points(ps, cpath)
    back_csv = load_points(cpath)
    assert back_csv.points == ps.points  # CSV carries no labels


def test_json_rejects_floats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 1, "points": [[0.5]]}))
    with pytest.raises(InputError):
        load_points(str(path))
