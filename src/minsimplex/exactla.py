"""Exact rational linear algebra: rank, nullspace, integer normalization.

Everything downstream (circuit detection, collinearity tests, reaction
balancing) reduces to boundary rank tests, so all arithmetic here is exact.
Rationals are `fractions.Fraction` (always in lowest terms, positive
denominator, canonical zero), re-exported as `Rational`. A matrix is a
sequence of equal-length rows of exact entries (int, Fraction or "p/q"
string); `rank`, `rref` and `nullspace_basis` take the rows directly. Rank
runs on denominator-cleared integer rows via fraction-free Bareiss
elimination; nullspaces come from a reduced row echelon form over the
rationals with a deterministic first-nonzero pivot rule.

No floating point is accepted anywhere: external numeric input must be an
integer or a "p/q" string (see `rational_from_string`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InputError, InvariantError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rational_from_string(s: str) -> Fraction:
    """Parse "3", "-5/2" style exact rationals; reject anything else.

    Decimal or float notation is refused by design: collinearity and
    coplanarity are not decidable under rounding.
    """
    text = s.strip()
    if not _RATIONAL_RE.match(text):
        raise InputError(f"not an integer or p/q rational: {s!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise InputError(f"zero denominator in rational: {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def coerce_rational(value) -> Fraction:
    """Accept int, Fraction, or an exact string; refuse floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return rational_from_string(value)
    raise InputError(f"expected exact rational, got {type(value).__name__}: {value!r}")


def entry_from_json(x) -> Fraction:
    """JSON numeric entry to Fraction; floats are refused outright."""
    if isinstance(x, float):
        raise InputError(f"floating-point entry {x!r} refused; use integer or 'p/q' strings")
    return coerce_rational(x)


def vector_to_json(v: Sequence[Fraction]) -> list:
    """Fractions to JSON-friendly entries: plain ints where exact, else "p/q"."""
    return [int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}" for x in v]


def _fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """The rows as lists of Fractions; floats are refused and ragged rows raise."""
    out = [[coerce_rational(x) for x in row] for row in rows]
    if any(len(row) != len(out[0]) for row in out):
        raise InvariantError("ragged rows in matrix input")
    return out


def rank_int_rows(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination.

    Exact divisions keep intermediate entries at minor size instead of
    doubling digit counts per step; pivots are the first nonzero entry in
    row-major order, so the run is deterministic.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
        p = work[r][c]
        for i in range(r + 1, nrows):
            a = work[i][c]
            wi = work[i]
            wr = work[r]
            for j in range(c, ncols):
                wi[j] = (p * wi[j] - a * wr[j]) // prev
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row of Fractions times the lcm of its denominators, as ints.

    Row scaling never changes rank, so rows and their integer rows have the
    same rank, as do any subsets of them.
    """
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals."""
    int_rows = [integer_row(row) for row in _fraction_rows(rows)]
    return rank_int_rows(int_rows, len(int_rows[0]) if int_rows else 0)


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    work = _fraction_rows(rows)
    nrows, ncols = len(work), len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def nullspace_basis(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace {x : m x = 0} of the matrix m with these
    rows, one vector per free column.

    The basis is the standard one read off the reduced echelon form: free
    column f yields the vector with x_f = 1 and pivot coordinates filled so
    that m x = 0 exactly. Basis size is cols - rank(m).
    """
    work, pivots = rref(rows)
    ncols = len(work[0]) if work else 0
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -work[i][f]
        basis.append(tuple(vec))
    return basis


def primitive_integer_vector(v: Sequence) -> list[int]:
    """The unique parallel integer vector with entry gcd 1, first nonzero > 0."""
    vec = [coerce_rational(x) for x in v]
    if all(x == 0 for x in vec):
        raise InvariantError("zero vector has no primitive form")
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints
