"""Exact rational linear algebra: rank, nullspace, integer normalization.

All arithmetic here is exact. The core works on integer rows: one
fraction-free Bareiss elimination (Math. Comp. 22, 1968) gives
`rank_int_rows` and `kernel_int_rows`, whose vectors are in `primitive`
form (entry gcd 1, first nonzero entry positive), the package's one
normal form for hyperplane normals and circuit coefficients. Rationals are
`fractions.Fraction` and appear only in the views `rank`, `nullspace_basis`
and `primitive_integer_vector`: they take rows of exact entries (int,
Fraction or "p/q" string), clear denominators row by row, which changes
neither rank nor kernel, and call the core.

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
    num, _, den = text.partition("/")
    try:  # int() refuses more digits than sys.get_int_max_str_digits(), as json does
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        raise InputError(f"rational {text[:20]}...: {exc}") from exc
    if den == 0:
        raise InputError(f"zero denominator in rational: {s!r}")
    return Fraction(num, den)


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


def primitive(ints: Sequence[int]) -> list[int]:
    """The integer vector divided by the gcd of its entries, signed so that
    the first nonzero entry is positive: the one primitive form."""
    g = gcd(*ints)
    if not g:
        raise InvariantError("zero vector has no primitive form")
    if (ints[0] or next(x for x in ints if x)) < 0:  # the first nonzero entry
        g = -g
    return [x // g for x in ints]


def kernel_int_rows(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Kernel {x : m x = 0} of the integer matrix m with these rows: per free
    column f, in ascending order, the `primitive` multiple of the vector with
    x_f = 1 and x = 0 on the other free columns, so x_f is its last nonzero
    entry. Back-substitution on the `_echelon` form scales x by just enough
    to keep each pivot coordinate an integer.
    """
    echelon, pivots = _echelon(rows, ncols)
    pivot_rows = list(zip(pivots, echelon))[::-1]
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = 1
        for c, row in pivot_rows:
            if c > f:
                continue
            s = sum(row[j] * x[j] for j in range(c + 1, f + 1))
            if s:
                g = gcd(s, row[c])
                scale = row[c] // g
                if scale != 1:
                    x = [v * scale for v in x]
                x[c] = -s // g
        kernel.append(primitive(x))
    return kernel


def nullspace_basis(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace {x : m x = 0} of the matrix m with these
    rows, one vector per free column.

    The basis is the standard one: free column f yields the vector with
    x_f = 1, x = 0 on the other free columns, and pivot coordinates filled
    so that m x = 0 exactly: `kernel_int_rows` of the denominator-cleared
    rows, each vector divided by its last nonzero entry x_f.
    """
    basis = []
    for v in kernel_int_rows(*_integer_matrix(rows)):
        x_f = next(x for x in reversed(v) if x)
        basis.append(tuple(Fraction(x, x_f) for x in v))
    return basis


def primitive_integer_vector(v: Sequence) -> list[int]:
    """The unique parallel integer vector with entry gcd 1, first nonzero > 0."""
    return primitive(integer_row([coerce_rational(x) for x in v]))
