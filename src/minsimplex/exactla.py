"""Exact rational linear algebra: rank, nullspace, integer normalization.

All arithmetic here is exact. Rationals are `fractions.Fraction` (always
in lowest terms, positive denominator, canonical zero). A matrix is a
sequence of equal-length rows of exact entries (int, Fraction or "p/q"
string); `rank` and `nullspace_basis` take the rows directly. Both clear
denominators row by row and run one fraction-free Bareiss elimination
(Math. Comp. 22, 1968) on the integer rows; the nullspace is read off the
integer echelon form by back-substitution. The hyperplane table of
`hypergraph.from_point_set` keys each hyperplane by the
`primitive_integer_vector` of a 1-dimensional `nullspace_basis`.

No floating point is accepted anywhere: external numeric input must be an
integer or a "p/q" string (see `rational_from_string`). `read_json` reads
the point, vector and hypergraph files, and `parse_json` gives species
files the same "invalid JSON" error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InputError, InvariantError

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
    """Accept int, Fraction, or an exact string; refuse floats and bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return rational_from_string(value)
    raise InputError(f"expected exact rational, got {type(value).__name__}: {value!r}")


def int_from_json(x, name: str) -> int:
    """A JSON integer; bools, floats and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{name} must be a JSON integer, got {x!r}")
    return x


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file; bytes that are not UTF-8 are an InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def parse_json(text: str, path: str):
    """`text`, read from `path`, parsed as JSON; malformed JSON is an InputError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def read_json(path: str):
    """The parsed contents of a JSON file; malformed JSON is an InputError."""
    return parse_json(read_text(path), path)


def vector_to_json(v: Sequence[Fraction]) -> list:
    """Fractions to JSON-friendly entries: plain ints where exact, else "p/q"."""
    return [int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}" for x in v]


def _echelon(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of an integer matrix by fraction-free Bareiss
    elimination; returns (rows, pivot columns).

    Row i of the result is a nonzero multiple of the i-th row of the Gaussian
    echelon form, so the row space, and with it the kernel, is unchanged.
    Exact divisions keep intermediate entries at minor size instead of
    doubling digit counts per step; pivots are the first nonzero entry in
    row-major order, so the run is deterministic.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots: list[int] = []
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
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def rank_int_rows(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of an integer matrix: its pivot count under `_echelon`."""
    return len(_echelon(rows, ncols)[1])


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row of Fractions times the lcm of its denominators, as ints.

    Row scaling never changes rank, so rows and their integer rows have the
    same rank, as do any subsets of them.
    """
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _integer_matrix(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The rows with denominators cleared row by row, and the column count;
    floats are refused and ragged rows raise."""
    out = [integer_row([coerce_rational(x) for x in row]) for row in rows]
    if any(len(row) != len(out[0]) for row in out):
        raise InvariantError("ragged rows in matrix input")
    return out, len(out[0]) if out else 0


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals."""
    return rank_int_rows(*_integer_matrix(rows))


def nullspace_basis(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace {x : m x = 0} of the matrix m with these
    rows, one vector per free column.

    The basis is the standard one: free column f yields the vector with
    x_f = 1, x = 0 on the other free columns, and pivot coordinates filled
    so that m x = 0 exactly. Basis size is cols - rank(m). Clearing the
    denominators of each row does not change the kernel, so the pivot
    coordinates come from back-substitution on the integer echelon form,
    kept as integer numerators over one common denominator.
    """
    int_rows, ncols = _integer_matrix(rows)
    echelon, pivots = _echelon(int_rows, ncols)
    pivot_rows = list(zip(pivots, echelon))[::-1]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        num = [0] * ncols
        num[f] = den = 1
        for c, row in pivot_rows:
            if c > f:
                continue
            s = sum(row[j] * num[j] for j in range(c + 1, f + 1))
            if s:
                g = gcd(s, row[c])
                scale = row[c] // g
                if scale != 1:
                    num = [x * scale for x in num]
                    den *= scale
                num[c] = -s // g
        basis.append(tuple(Fraction(x, den) for x in num))
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
