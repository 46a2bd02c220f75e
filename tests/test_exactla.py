import random
from fractions import Fraction
from math import gcd

import pytest

from minsimplex.errors import InputError, InvariantError
from minsimplex.exactla import (
    integer_row,
    kernel_int_rows,
    nullspace_basis,
    primitive,
    primitive_integer_vector,
    rank,
    rank_int_rows,
    rational_from_string,
)

from support import random_deficient_rows, random_rational, rref, rref_nullspace


def mat_vec(rows, v):
    """The product m v of the matrix m with these rows and the vector v."""
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows]


def test_rational_from_string():
    assert rational_from_string("3") == 3
    assert rational_from_string("-5/2") == Fraction(-5, 2)
    assert rational_from_string(" 7/14 ") == Fraction(1, 2)
    for bad in ("3.5", "1e3", "", "x", "1/0", "2/"):
        with pytest.raises(InputError):
            rational_from_string(bad)


def test_rank_identity():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_zero_matrix():
    assert rank([[0, 0], [0, 0]]) == 0


def test_rank_three_vectors_in_plane():
    # det of the first two rows is 2*2 - 0*0 = 4 != 0, so rank is at least 2;
    # three vectors in R^2 cannot exceed 2.
    m = [[2, 0], [0, 2], [2, 1]]
    assert rank(m) == 2


def test_rank_rational_entries():
    m = [["1/2", "1/3"], ["3/2", "1"]]
    assert rank(m) == 1


def test_nullspace_identity_empty():
    assert nullspace_basis([[1, 0], [0, 1]]) == []


def test_nullspace_one_dim():
    basis = nullspace_basis([[1, -1]])
    assert basis == [(Fraction(1), Fraction(1))]


def test_nullspace_composition_example():
    # columns H2=(2,0), O2=(0,2), H2O=(2,1) over the universe [H, O];
    # by hand: 2a + 2c = 0 and 2b + c = 0 give the direction (1, 1/2, -1).
    m = [[2, 0, 2], [0, 2, 1]]
    basis = nullspace_basis(m)
    assert len(basis) == 1
    v = basis[0]
    direction = (Fraction(1), Fraction(1, 2), Fraction(-1))
    # parallel check: cross-ratios vanish
    assert all(v[i] * direction[j] == v[j] * direction[i] for i in range(3) for j in range(3))
    assert all(x == 0 for x in mat_vec(m, v))


def test_primitive_integer_vector_examples():
    assert primitive_integer_vector([Fraction(1), Fraction(1, 2), Fraction(-1)]) == [2, 1, -2]
    assert primitive_integer_vector([3, 6]) == [1, 2]
    assert primitive_integer_vector([0, -5]) == [0, 1]


def test_primitive_integer_vector_zero_errors():
    with pytest.raises(InvariantError, match="zero vector has no primitive form"):
        primitive_integer_vector([0, 0, 0])


def test_primitive_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        v = [random_rational(rng) for _ in range(rng.randint(1, 5))]
        if all(x == 0 for x in v):
            continue
        p = primitive_integer_vector(v)
        assert primitive_integer_vector(p) == p


def test_rank_invariances_random():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
        r = rank(m)
        assert r == rank(list(zip(*m)))
        perm = list(range(rows))
        rng.shuffle(perm)
        shuffled = [m[i] for i in perm]
        assert r == rank(shuffled)


def test_rank_plus_nullity_and_exact_kernel():
    rng = random.Random(13)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace_basis(m)
        assert rank(m) + len(basis) == cols
        for b in basis:
            assert all(x == 0 for x in mat_vec(m, b))


def test_matrix_shape_validation():
    with pytest.raises(InvariantError):
        rank([[1, 2], [3]])
    with pytest.raises(InvariantError):
        rank([[1], [2, 3]])
    with pytest.raises(InvariantError):
        nullspace_basis([[1, 2], [3]])


def test_float_entries_refused():
    with pytest.raises(InputError):
        rank([[0.5, 1]])
    with pytest.raises(InputError):
        nullspace_basis([[1, 2], [3, 0.5]])


def test_empty_and_zero_width_rows():
    for rows in ([], [[]], [[], [], []]):
        assert rank(rows) == len(rref(rows)[1]) == 0
        assert nullspace_basis(rows) == []
    assert rank_int_rows([], 0) == 0


def test_rank_matches_rref_pivot_count():
    # Bareiss on denominator-cleared rows (column skips, exact //) against the
    # pivot count of the Fraction RREF, on inputs built to be rank-deficient.
    rng = random.Random(17)
    deficient = 0
    for span in (4, 10**30):
        for _ in range(150):
            nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
            m = random_deficient_rows(rng, nrows, ncols, span=span)
            r = rank(m)
            assert r == len(rref(m)[1])
            assert r == rank(list(zip(*m)))
            deficient += r < min(nrows, ncols)
    assert deficient >= 50



def test_nullspace_matches_rref_oracle():
    # Back-substitution on the Bareiss echelon form of denominator-cleared
    # rows against the basis read off the Fraction RREF: equal entry by entry.
    rng = random.Random(19)
    deficient = 0
    for span in (4, 10**30):
        for _ in range(150):
            nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
            m = random_deficient_rows(rng, nrows, ncols, span=span)
            basis = nullspace_basis(m)
            assert basis == rref_nullspace(m)
            assert all(isinstance(x, Fraction) for v in basis for x in v)
            deficient += rank(m) < min(nrows, ncols)
    assert deficient >= 50


def test_primitive_normal_form():
    rng = random.Random(23)
    for _ in range(100):
        v = [rng.randint(-6, 6) * rng.choice((1, 10**20)) for _ in range(rng.randint(1, 5))]
        if not any(v):
            continue
        p = primitive(v)
        assert gcd(*p) == 1
        assert next(x for x in p if x) > 0
        # parallel to v: every 2x2 minor of (v, p) vanishes
        assert all(vi * pj == vj * pi for vi, pi in zip(v, p) for vj, pj in zip(v, p))
        assert primitive(p) == p
        assert primitive([-x for x in v]) == p
    assert primitive([0, -4, 6]) == [0, 2, -3]
    with pytest.raises(InvariantError, match="zero vector has no primitive form"):
        primitive([0, 0])
    with pytest.raises(InvariantError, match="zero vector has no primitive form"):
        primitive([])


def test_kernel_int_rows_matches_rref_oracle():
    # The integer core against the Fraction RREF basis on denominator-cleared
    # rows: one primitive vector per free column, each annihilating the rows
    # and parallel to the oracle's vector for the same column.
    rng = random.Random(29)
    deficient = 0
    for span in (4, 10**30):
        for _ in range(150):
            nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
            m = [integer_row(row) for row in random_deficient_rows(rng, nrows, ncols, span=span)]
            kernel = kernel_int_rows(m, ncols)
            oracle = rref_nullspace(m) if m else [
                tuple(Fraction(int(i == f)) for i in range(ncols)) for f in range(ncols)
            ]
            assert len(kernel) == len(oracle)
            for v, w in zip(kernel, oracle):
                assert all(isinstance(x, int) for x in v)
                assert gcd(*v) == 1 and next(x for x in v if x) > 0
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
                assert v == primitive(integer_row(w))
            deficient += len(kernel) > max(ncols - nrows, 0)
    assert deficient >= 50
