import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from minsimplex import geometry, matroid
from minsimplex.errors import InputError, InvariantError
from minsimplex.exactla import integer_row, primitive, rank
from minsimplex.extremal import ConstructionId, construct
from minsimplex.matroid import (
    VectorConfiguration,
    configuration_rank,
    enumerate_circuits,
    subset_rank,
)

from support import (
    circuit_coefficients_oracle,
    oracle_affine_simplexes,
    oracle_circuits,
    random_configuration,
    random_deficient_rows,
    random_point_set,
    random_rational,
    rref,
)


def moment_vectors(n, dim):
    return VectorConfiguration(
        dim, tuple(tuple(Fraction(t) ** p for p in range(dim)) for t in range(1, n + 1))
    )


def test_is_circuit_examples():
    # a set is a circuit exactly when the scan lists it
    assert matroid.circuit_supports(VectorConfiguration(2, ((1, 0), (0, 1), (1, 1)))) == [(0, 1, 2)]
    # (0, 1, 2) contains the dependent pair (0, 1), so only the pair is a circuit
    assert matroid.circuit_supports(VectorConfiguration(2, ((1, 0), (2, 0), (0, 1)))) == [(0, 1)]


def test_three_nonparallel_vectors_one_circuit():
    cfg = VectorConfiguration(2, ((1, 0), (0, 1), (1, 1)))
    assert [members for members, _ in enumerate_circuits(cfg)] == [(0, 1, 2)]


def test_parallel_pair_circuit_with_coefficients():
    cfg = VectorConfiguration(2, ((1, 0), (2, 0), (0, 1)))
    assert enumerate_circuits(cfg) == [((0, 1), (2, -1))]


def test_generic_vectors_all_top_circuits():
    # moment vectors: every 3 of them independent in R^3, every 4 dependent
    cfg = moment_vectors(6, 3)
    circuits = enumerate_circuits(cfg)
    assert len(circuits) == 15  # C(6, 4)
    assert all(len(members) == 4 for members, _ in circuits)
    assert [members for members, _ in circuits] == sorted(oracle_circuits(cfg))


def test_count_by_size_empty_configuration():
    cfg = VectorConfiguration(3, ())
    assert enumerate_circuits(cfg) == []


def test_count_by_size_parallel_example():
    cfg = VectorConfiguration(2, ((1, 0), (2, 0), (0, 1)))
    assert Counter(len(members) for members, _ in enumerate_circuits(cfg)) == {2: 1}


def test_count_by_size_matches_oracle_generic_r3():
    rng = random.Random(5)
    cfg = random_configuration(rng, 5, 3)
    counts = Counter(len(members) for members, _ in enumerate_circuits(cfg))
    oracle = oracle_circuits(cfg)
    expect = {}
    for members in oracle:
        expect[len(members)] = expect.get(len(members), 0) + 1
    assert counts == expect


def test_zero_vector_is_loop_and_excluded_from_larger():
    cfg = VectorConfiguration(2, ((0, 0), (1, 0), (0, 1)))
    assert enumerate_circuits(cfg) == [((0,), (1,))]


def test_circuit_witnesses_and_axioms_random():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 7)
        dim = rng.randint(1, 4)
        cfg = random_configuration(rng, n, dim)
        circuits = enumerate_circuits(cfg)
        members = [set(m) for m, _ in circuits]
        # no circuit properly contains another
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                assert i == j or not a < b
        top = configuration_rank(cfg) + 1
        for m, coefficients in circuits:
            assert len(m) <= top
            if len(m) > 1:
                assert all(x != 0 for x in coefficients)
                total = [Fraction(0)] * dim
                for i, coef in zip(m, coefficients):
                    for p in range(dim):
                        total[p] += coef * cfg.vectors[i][p]
                assert all(x == 0 for x in total)


def test_enumeration_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 7)
        dim = rng.randint(1, 4)
        cfg = random_configuration(rng, n, dim)
        got = [members for members, _ in enumerate_circuits(cfg)]
        assert got == oracle_circuits(cfg)


def test_subset_rank_transposition_free():
    cfg = VectorConfiguration(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert subset_rank(cfg, (0, 1, 2)) == 2


def test_row_and_index_checks_name_vectors():
    with pytest.raises(InvariantError, match="^vectors need a non-negative dimension, got -1$"):
        VectorConfiguration(-1, ())
    with pytest.raises(InvariantError, match="^vector 1 has length 3, expected 2$"):
        VectorConfiguration(2, ((1, 0), (0, 1, 2)))
    with pytest.raises(InputError, match="^vector index 2 out of range 0..1$"):
        subset_rank(VectorConfiguration(1, ((1,), (2,))), (0, 2))


def test_scan_matches_oracle_on_deficient_configurations():
    # Vectors from random_deficient_rows: copies and integer combinations of
    # earlier vectors (so parallel vectors and zero vectors), all-zero
    # coordinates, non-integer rationals, and in half the cases entries
    # around 10^30.
    rng = random.Random(47)
    seen = Counter()
    for trial in range(80):
        n = rng.randint(1, 8)
        dim = rng.randint(1, 4)
        rows = random_deficient_rows(rng, n, dim, span=10**30 if trial % 2 else 4)
        cfg = VectorConfiguration(dim, tuple(tuple(r) for r in rows))
        circuits = enumerate_circuits(cfg)
        assert [members for members, _ in circuits] == oracle_circuits(cfg)
        for members, coefficients in circuits:
            assert all(
                sum(coef * cfg.vectors[i][p] for i, coef in zip(members, coefficients)) == 0
                for p in range(dim)
            )
        seen.update(min(len(members), 3) for members, _ in circuits)
        seen["huge"] += any(abs(x) > 10**29 for v in cfg.vectors for x in v)
        seen["non-integer"] += any(x.denominator > 1 for v in cfg.vectors for x in v)
        for _ in range(5):
            subset = rng.sample(range(n), rng.randint(0, n))
            assert subset_rank(cfg, subset) == rank([cfg.vectors[i] for i in subset])
    # loops, parallel pairs, larger circuits and both entry kinds all occurred
    assert all(seen[kind] > 0 for kind in (1, 2, 3, "huge", "non-integer")), seen


def test_scan_supports_and_coefficients_match_oracles():
    # The depth-first scan against the brute-force oracles on the same kinds
    # of vectors as above: the supports against
    # oracle_circuits, and each circuit's coefficients against the primitive
    # kernel vector of its member columns.
    rng = random.Random(61)
    seen = Counter()
    for trial in range(60):
        n = rng.randint(1, 8)
        dim = rng.randint(1, 4)
        rows = random_deficient_rows(rng, n, dim, span=10**30 if trial % 2 else 4)
        cfg = VectorConfiguration(dim, tuple(tuple(r) for r in rows))
        oracle = oracle_circuits(cfg)
        seen.update(min(len(m), 3) for m in oracle)
        seen["huge"] += any(abs(x) > 10**29 for v in cfg.vectors for x in v)
        non_integer = any(x.denominator > 1 for v in cfg.vectors for x in v)
        seen["non-integer"] += non_integer
        # a row that is not integral enters the scan with its own coefficient above 1
        seen["integer with a circuit"] += not non_integer and bool(oracle)
        assert matroid.circuit_supports(cfg) == oracle
        circuits = enumerate_circuits(cfg)
        assert [members for members, _ in circuits] == oracle
        for members, coefficients in circuits:
            assert coefficients == circuit_coefficients_oracle(cfg, members)
    kinds = (1, 2, 3, "huge", "non-integer", "integer with a circuit")
    assert all(seen[kind] > 0 for kind in kinds), seen


def test_scan_coefficients_follow_a_rescaling_of_the_vectors():
    # Vector k times a rational lambda_k: the supports stay, and each circuit's
    # coefficients become the primitive form of c_k / lambda_k. Factors of
    # 10**20 give rows of large content, and denominators up to 97 an own
    # coefficient that starts above 1: there the scan's Bareiss entries are
    # not gcd-reduced, and its dependency must still come out over the input.
    rng = random.Random(1968)
    seen = Counter()
    for trial in range(80):
        n, dim = rng.randint(2, 8), rng.randint(1, 4)
        rows = random_deficient_rows(rng, n, dim, span=10**30 if trial % 3 == 0 else 4)
        cfg = VectorConfiguration(dim, tuple(tuple(r) for r in rows))
        common = 10**20 if trial % 2 else 1
        scales = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 12) * common, rng.randint(1, 97))
            for _ in rows
        ]
        scaled = VectorConfiguration(
            dim, tuple(tuple(f * x for x in row) for f, row in zip(scales, rows))
        )
        circuits = enumerate_circuits(cfg)
        supports = [members for members, _ in circuits]
        assert matroid.circuit_supports(scaled) == supports
        rescaled = enumerate_circuits(scaled)
        assert [members for members, _ in rescaled] == supports
        for (_, coefficients), (members, base) in zip(rescaled, circuits):
            want = [Fraction(x) / scales[i] for i, x in zip(members, base)]
            assert list(coefficients) == primitive(integer_row(want))
        seen["large content"] += common > 1 and any(len(m) > 1 for m in supports)
        seen["denominator"] += any(f.denominator > 1 for f in scales) and bool(circuits)
        seen["size 3+"] += any(len(m) > 2 for m in supports)
    assert all(seen[kind] > 0 for kind in ("large content", "denominator", "size 3+")), seen


def _full_rank_rows(rng, n, dim, span):
    """n rows of rank dim: random rows mixed with zero rows, repeats, scalar
    multiples and two-row combinations of earlier rows."""
    while True:
        rows = []
        for _ in range(n):
            kind = rng.random() if rows else 1.0
            if kind < 0.1:
                row = [Fraction(0)] * dim
            elif kind < 0.2:
                row = list(rng.choice(rows))
            elif kind < 0.3:
                f = random_rational(rng) or Fraction(-2)
                row = [f * x for x in rng.choice(rows)]
            elif kind < 0.4:
                u, w = rng.choice(rows), rng.choice(rows)
                row = [x + rng.randint(-2, 2) * y for x, y in zip(u, w)]
            else:
                row = [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(dim)]
            rows.append(row)
        if rank(rows) == dim:
            return rows


def test_scan_last_level_pairs_match_oracles():
    # Full-rank configurations, so the scan reaches independent sets of
    # dim - 1 members, which test their later pairs themselves: every circuit
    # of dim + 1 members comes from such a pair. A parallel or repeated pair
    # {j, k} after vectors of full rank is a pair that such a set tests and
    # rejects, with zero coefficients on the set's members.
    rng = random.Random(73)
    seen = Counter()
    for trial in range(40):
        dim = rng.randint(2, 5)
        n = rng.randint(dim + 1, 12 if trial % 4 == 0 else 9)
        rows = _full_rank_rows(rng, n, dim, span=10**30 if trial % 2 else 3)
        cfg = VectorConfiguration(dim, tuple(tuple(r) for r in rows))
        oracle = oracle_circuits(cfg)
        for m in oracle:
            if len(m) == 1:
                seen["zero"] += 1
            elif len(m) == 2:
                seen["repeated" if rows[m[0]] == rows[m[1]] else "parallel"] += 1
                seen["rejected pair"] += rank(rows[: m[0]]) == dim
            seen["last level"] += len(m) == dim + 1
        seen["huge" if trial % 2 else "small"] += 1
        assert matroid.circuit_supports(cfg) == oracle
        circuits = enumerate_circuits(cfg)
        assert [members for members, _ in circuits] == oracle
        for members, coefficients in circuits:
            assert coefficients == circuit_coefficients_oracle(cfg, members)
    kinds = ("zero", "repeated", "parallel", "rejected pair", "last level", "huge", "small")
    assert all(seen[kind] > 0 for kind in kinds), seen


def test_scan_of_lifted_points_matches_affine_simplex_oracle():
    # Affine simplexes are the circuits of the lift (1, p); small integer
    # spans give collinear triples and coplanar quadruples.
    rng = random.Random(67)
    for _ in range(30):
        dim = rng.randint(1, 3)
        ps = random_point_set(rng, rng.randint(1, min(8, 5**dim)), dim, span=2)
        lift = VectorConfiguration(dim + 1, tuple((1,) + p for p in ps.points))
        assert matroid.circuit_supports(lift) == oracle_affine_simplexes(ps)


def _record_scan_work(monkeypatch):
    """Lists that record every _visit and subset_rank call from here on."""
    visits, rank_tests = [], []
    visit, subset_rank_ = matroid._visit, matroid.subset_rank

    def counting_visit(members, *args):
        visits.append(members)
        return visit(members, *args)

    def counting_rank(config, subset):
        rank_tests.append(subset)
        return subset_rank_(config, subset)

    monkeypatch.setattr(matroid, "_visit", counting_visit)
    monkeypatch.setattr(matroid, "subset_rank", counting_rank)
    return visits, rank_tests


def _scanned_supports(cfg):
    """The supports the scan emits, in its order: circuit_supports lists a
    uniform configuration without it."""
    supports = []
    matroid._scan(cfg, lambda members, comb: supports.append(members))
    return supports


def _scan_work(monkeypatch, cfg):
    """(visits, rank tests, circuits) of the scan itself."""
    visits, rank_tests = _record_scan_work(monkeypatch)
    circuits = len(_scanned_supports(cfg))
    return len(visits), len(rank_tests), circuits


def test_scan_rank_test_counts_are_pinned(monkeypatch):
    # The scan makes one _visit call per independent set of fewer than D
    # members (D the dimension), root included: a set of D - 1 members tests
    # its later pairs itself and creates no child nodes. It makes no rank
    # test: every dependency shows up as a row reduced to zero. Both
    # configurations have every set of at most D - 1 vectors independent,
    # so the visits are 1 + 12 + 66 + 220 and 1 + 12 + 66 + 220 + 495.
    ps = construct(ConstructionId("parallel-pairs"), 12)
    lift = VectorConfiguration(4, tuple((1,) + p for p in ps.points))
    assert _scan_work(monkeypatch, lift) == (299, 0, 295)
    generic = random_configuration(random.Random(2024), 12, 5)
    assert _scan_work(monkeypatch, generic) == (794, 0, 924)


def test_only_a_uniform_listing_skips_the_scan(monkeypatch):
    # every 5 of the generic vectors are independent, so its 924 circuits
    # are the 6-subsets, listed with no visit; the lift of parallel pairs
    # has 4 points on a plane (A > 0), so its listing is the full scan
    visits, _ = _record_scan_work(monkeypatch)
    generic = random_configuration(random.Random(2024), 12, 5)
    assert matroid.circuit_supports(generic) == list(combinations(range(12), 6))
    assert visits == []
    ps = construct(ConstructionId("parallel-pairs"), 12)
    lift = VectorConfiguration(4, tuple((1,) + p for p in ps.points))
    assert len(matroid.circuit_supports(lift)) == 295
    assert len(visits) == 299


def _listing_cases(rng, dim):
    """(kind, vectors) pairs in R^dim, for n = dim - 1 .. dim + 4: random
    vectors with small entries, with denominators and with 10^30-size
    entries, nearly all uniform, and ones with a planted dependent dim-subset
    (A = 1), a dependent (dim - 1)-subset or a loop."""
    entries = {
        "small": lambda: rng.randint(-9, 9),
        "denominators": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        "huge": lambda: rng.randint(-10**30, 10**30),
    }
    for n in range(dim - 1, dim + 5):
        for kind, entry in entries.items():
            yield kind, [tuple(entry() for _ in range(dim)) for _ in range(n)]
        vecs = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(n)]
        for kind, size in (("hyperplane", dim - 1), ("flat", dim - 2)):
            if n > size:  # the last vector, a combination of the first `size` with no zero weight
                weights = [rng.choice((-2, -1, 1, 3)) for _ in range(size)]
                last = tuple(sum(w * v[i] for w, v in zip(weights, vecs)) for i in range(dim))
                yield kind, vecs[:-1] + [last]
        if n:
            yield "loop", vecs[:-1] + [(0,) * dim]


def test_uniform_listing_matches_the_scan_and_the_oracle():
    # the (D+1)-subsets, listed with no scan, are the circuits exactly when
    # every D vectors are independent; every other configuration is scanned
    # either with no walk cached or after a count has read the whole walk
    rng = random.Random(331)
    seen = set()
    for dim in (2, 3, 4, 5):
        for kind, vecs in _listing_cases(rng, dim):
            want = oracle_circuits(VectorConfiguration(dim, tuple(vecs)))
            for counted in (False, True):
                cfg = VectorConfiguration(dim, tuple(vecs))
                if counted:
                    matroid.count_circuits(cfg)
                got = matroid.circuit_supports(cfg)
                assert got == want == _scanned_supports(cfg), (kind, counted, cfg)
                assert cfg.uniform == (got == list(combinations(range(len(cfg)), dim + 1)))
                if kind == "hyperplane":
                    assert cfg.hyperplane_sums == (1, 0) and not cfg.uniform
                seen.add((dim, cfg.uniform))
    assert seen == {(dim, uniform) for dim in (2, 3, 4, 5) for uniform in (True, False)}


def test_general_position_point_sets_list_their_simplexes_from_the_walk():
    # d + 1 points of a set in general position are affinely independent, so
    # its lift is uniform; the moment curve (t, t^2, ..., t^d) is one
    rng = random.Random(97)
    for d in (1, 2, 3, 4):
        for n in range(d, d + 5):
            curve = tuple(tuple(t**p for p in range(1, d + 1)) for t in range(n))
            moment = geometry.PointSet(d, curve)
            for ps in (moment, random_point_set(rng, n, d, span=10**6)):
                assert ps.lift.uniform
                want = oracle_affine_simplexes(ps)
                assert list(geometry.enumerate_affine_simplexes(ps).supports) == want
                assert want == list(combinations(range(n), d + 2))


def _planted_vectors(rng, dim):
    """At most 9 vectors of R^dim in random order: a few random ones, plus
    up to two planted subspaces of dimension 1 to dim - 1 (a hyperplane at
    dim - 1) with a few vectors each, some with denominators, and perhaps a
    loop or a vector parallel to another."""
    vecs = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(0, 5))]
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(1, max(1, dim - 1))
        basis = [[random_rational(rng) for _ in range(dim)] for _ in range(k)]
        for _ in range(rng.randint(k + 1, k + 3)):
            ts = [rng.randint(-3, 3) for _ in range(k)]
            vecs.append(tuple(sum(t * b[i] for t, b in zip(ts, basis)) for i in range(dim)))
    if rng.random() < 0.15:
        vecs.append((0,) * dim)
    if vecs and rng.random() < 0.15:
        vecs.append(tuple(-2 * x for x in rng.choice(vecs)))
    rng.shuffle(vecs)
    return VectorConfiguration(dim, tuple(vecs[:9]))


def _walk_events(cfg, stop_at=None):
    """What hyperplane_walk yields to a reader: ("dependent", set) and
    ("groups", prefix, its groups by first member), in order, up to the
    first one of kind stop_at, where the reader leaves the walk; and
    whether it left before the walk's end."""
    events = []
    for prefix, groups, _ in matroid.hyperplane_walk(cfg.integer_rows, cfg.dimension):
        if groups is None:
            events.append(("dependent", prefix))
        else:
            events.append(("groups", prefix, sorted(groups.values())))
        if events[-1][0] == stop_at:
            return events, True
    return events, False


def test_walk_names_the_dependent_set_it_stops_at():
    # a zero row at the root, a parallel pair one level down, a dependent
    # triple at the last level, and no dependent set of at most D - 1 rows;
    # the count reads the first dependent set reported and stops there
    e = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    cases = [
        ((e[0], (0, 0, 0, 0), e[1]), (1,)),
        (((1, 2, 0, 0), e[1], (-2, -4, 0, 0), e[2]), (0, 2)),
        ((e[0], e[1], e[2], (1, 1, 0, 0)), (0, 1, 3)),
        (e, None),
    ]
    for rows, stop in cases:
        cfg = VectorConfiguration(4, rows)
        assert cfg.dependent_set == stop
        assert (cfg.hyperplane_sums is None) == (stop is not None)
        events, stopped = _walk_events(cfg, "dependent")
        assert stopped == (stop is not None)
        if stop is not None:
            assert events[-1] == ("dependent", stop)
        # a reader that never stops sees the same set first, and the walk completes
        events, stopped = _walk_events(cfg)
        assert not stopped
        assert next((e[1] for e in events if e[0] == "dependent"), None) == stop


def _fraction_rank(cfg, members):
    return len(rref([cfg.vectors[i] for i in members])[1])


def _reference_walk_events(cfg):
    """The walk's events from rank tests over Fractions, in its order: the
    prefixes in lexicographic order, each extended by a member that leaves
    room for the rest of the prefix and one later row; at each prefix P,
    every later row k with P + (k,) dependent is reported and dropped before
    P's extensions or groups; loops are reported at the root."""
    dim, events = cfg.dimension, []

    def independent(members):
        return _fraction_rank(cfg, members) == len(members)

    def groups(prefix, later):
        classes = []
        for k in later:
            for cls in classes:
                if not independent(prefix + (cls[0], k)):
                    cls.append(k)
                    break
            else:
                classes.append([k])
        return ("groups", prefix, classes)

    def node(prefix, later, left):
        for i in range(len(later) - left):
            head, rest = prefix + (later[i],), []
            for k in later[i + 1 :]:
                if independent(head + (k,)):
                    rest.append(k)
                else:
                    events.append(("dependent", head + (k,)))
            if left > 1:
                node(head, rest, left - 1)
            else:
                events.append(groups(head, rest))

    root = []
    for k in range(len(cfg)):
        if independent((k,)):
            root.append(k)
        else:
            events.append(("dependent", (k,)))
    if dim == 2:
        events.append(groups((), root))
    else:
        node((), root, dim - 2)
    return events


def test_a_reader_that_never_stops_receives_every_dependent_set_in_walk_order():
    rng = random.Random(89)
    seen = set()
    for trial in range(120):
        cfg = _planted_vectors(rng, 2 + trial % 4)
        if len(cfg) < cfg.dimension - 1:
            continue
        events, stopped = _walk_events(cfg)
        assert not stopped
        assert events == _reference_walk_events(cfg), cfg
        dependent = [members for kind, members, *_ in events if kind == "dependent"]
        for members in dependent:  # P + (k,) is dependent, P is independent
            assert _fraction_rank(cfg, members) == _fraction_rank(cfg, members[:-1]) == len(members) - 1
        assert cfg.dependent_set == (dependent[0] if dependent else None)
        seen.add((cfg.dimension, min(len(dependent), 2)))
    # no dependent set, one, and several, in R^2 to R^5
    assert {(dim, count) for dim in (2, 3, 4, 5) for count in (0, 1, 2)} <= seen


def test_count_circuits_matches_scan_on_planted_configurations():
    rng = random.Random(83)
    seen = set()
    for trial in range(400):
        cfg = _planted_vectors(rng, 1 + trial % 5)
        got = matroid.count_circuits(cfg)
        want = dict(sorted(Counter(map(len, _scanned_supports(cfg))).items()))
        assert list(got.items()) == list(want.items()), cfg
        n, dim = len(cfg), cfg.dimension
        if dim == 1:
            seen.add((dim, "no walk"))
        elif n < dim - 1:
            seen.add((dim, "too few"))
        elif cfg.hyperplane_sums is None:
            seen.add((dim, "dependent"))
        else:
            seen.add((dim, "walk", got.get(dim, 0) > 0))
    # the walk for D = 2..5, with and without D vectors on a hyperplane, and
    # each fallback: D = 1, fewer than D - 1 vectors, D - 1 dependent vectors
    assert {(dim, "walk", True) for dim in (2, 3, 4, 5)} <= seen
    assert {(dim, "walk", False) for dim in (2, 3, 4, 5)} <= seen
    assert {(1, "no walk"), (4, "too few"), (5, "too few")} <= seen
    assert {(dim, "dependent") for dim in (2, 3, 4, 5)} <= seen


def test_count_circuits_at_the_edges():
    # n = D - 1 independent vectors: no circuit, from the walk
    cfg = VectorConfiguration(3, ((1, 0, 0), (0, 1, 0)))
    assert (cfg.hyperplane_sums, matroid.count_circuits(cfg)) == ((0, 0), {})
    # a loop stops the walk, and the scan counts it
    cfg = VectorConfiguration(2, ((1, 2), (0, 0), (3, 1), (1, 1)))
    assert (cfg.hyperplane_sums, matroid.count_circuits(cfg)) == (None, {1: 1, 3: 1})
    # D = 2: parallel vectors are the groups of the empty prefix
    cfg = VectorConfiguration(2, ((1, 2), (-2, -4), (3, 1), (0, 1), (0, -5)))
    assert cfg.hyperplane_sums == (2, 0)
    assert matroid.count_circuits(cfg) == {2: 2, 3: 4}
