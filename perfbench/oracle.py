"""Exact helpers the benchmark checks outputs against.

Nothing here calls into minsimplex: the rank, the closed forms and the
formula parser are written again so that a defect in the code under test
cannot hide itself by also corrupting the check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm


def frac_rank(rows) -> int:
    """Rank over the rationals: clear denominators per row, then eliminate with integers."""
    work = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row))
        work.append([int(x * scale) for x in row])
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            a = work[i][c]
            if a:
                work[i] = [p[c] * x - a * y for x, y in zip(work[i], p)]
        rank += 1
    return rank


def parallel_pairs_count(n: int) -> int:
    if n % 2 == 0:
        return comb(n - 1, 4) - (n - 2) * (n - 5) // 2
    return comb(n - 1, 4) - (n - 3) * (n - 5) // 2


def construction_count(kind: str, n: int, d: int | None = None, k: int | None = None):
    """Closed-form simplex count of a named construction (YBLM sum for two-disjoint-edges)."""
    if kind == "parallel-pairs":
        return parallel_pairs_count(n)
    if kind == "inplane-generic":
        return comb(n, d + 1)
    if kind == "cone":
        return comb(n - 1, d + 1)
    if kind == "two-lines":
        return comb(n - 2, 3) + comb(n - 3, 2) + 1
    if kind == "two-disjoint-edges":
        return 1 - Fraction(comb(n, k), comb(2 * n, k)) * Fraction(2 * n * k, 2 * n - k)
    raise ValueError(f"no closed form for {kind}")


def s2_exact(n: int) -> Fraction:
    """Minimum semi-simplex sum at k = 2: 1 - floor(n^2/4) / C(n, 2)."""
    return 1 - Fraction(n * n // 4, comb(n, 2))


def is_primitive(coeffs) -> bool:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g == 1


_ATOM_RE = re.compile(r"([A-Z][a-z]?)([0-9]*)")


def atom_counts(formula: str) -> dict[str, int]:
    """Element counts of a flat formula such as C2H5OH (no groups)."""
    counts: dict[str, int] = {}
    pos = 0
    for m in _ATOM_RE.finditer(formula):
        if m.start() != pos:
            raise ValueError(f"unparsed formula {formula!r}")
        counts[m.group(1)] = counts.get(m.group(1), 0) + int(m.group(2) or 1)
        pos = m.end()
    if pos != len(formula):
        raise ValueError(f"unparsed formula {formula!r}")
    return counts
