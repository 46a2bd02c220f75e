"""Workloads: seeded inputs, the command list of one pass, and output checks.

Each check reads only the command's stdout and the files it wrote, and
compares them with values derived here, independently of the code under
test: closed-form counts, exact annihilation of circuit coefficients,
reaction balance, and the pinned search minima.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable

import oracle

# Free searches always use two workers, never os.cpu_count(), so that runs
# on machines with different core counts do the same work.
SEARCH_WORKERS = 2


@dataclass
class Command:
    """One CLI call; check(stdout) returns None when the output is right, else why not."""

    argv: list[str]
    check: Callable[[str], str | None]
    outputs: list[str] = field(default_factory=list)  # files removed before each run


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _entry(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _expect_lines(want: list[str]) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = out.splitlines()
        return None if got == want else f"expected {want}, got {got[:4]}"
    return check


# ---------------------------------------------------------------------------
# enumerate: affine simplexes of point sets (pruning and exact rank)
# ---------------------------------------------------------------------------


def _collinear(p, q, r) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


def parallel_pairs_points(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """Random parallel-pairs configuration in R^3 for even n, in shuffled order.

    Rows y = 1 .. (n-2)/2 of the plane z = 0 each hold one pair of points,
    no three plane points collinear; an off-plane pair lies on a line
    parallel to the rows. Its affine simplex count depends only on these
    incidences, so the closed form holds for every seed.
    """
    if n % 2 or n < 6:
        raise ValueError("even n >= 6 expected")
    plane: list[tuple[int, int]] = []
    for y in range(1, (n - 2) // 2 + 1):
        while True:
            new = [(x, y) for x in rng.sample(range(4 * n), 2)]
            pts = plane + new
            if not any(
                _collinear(pts[i], pts[j], c)
                for c in new for i, j in combinations(range(len(pts)), 2)
                if pts[i] != c and pts[j] != c
            ):
                break
        plane.extend(new)
    u, v, w = rng.randint(-n, n), rng.randint(-n, n), rng.randint(1, n)
    points = [(x, y, 0) for x, y in plane] + [(u, v, 1), (u + w, v, 1)]
    rng.shuffle(points)
    return points


def _construct(workdir: str, kind: str, *params: int) -> Command:
    n = params[-1]
    d = params[0] if len(params) == 2 else None
    want = oracle.construction_count(kind, n, d=d)
    label = f"{kind}(d={d})" if d is not None else kind
    prefix = os.path.join(workdir, f"{kind}-{n}")
    sidecar = prefix + ".counts.json"
    check_stdout = _expect_lines([f"{label} n={n}: expected {want}, enumerated {want}",
                                  f"wrote {prefix}.json and {sidecar}"])

    def check(out: str) -> str | None:
        why = check_stdout(out)
        if why:
            return why
        with open(sidecar, encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj.get("agree") is not True or obj.get("enumerated") != str(want):
            return f"sidecar {obj}, want count {want}"
        return None

    argv = ["construct", kind, *map(str, params), "--out", prefix]
    return Command(argv, check, [prefix + ".json", sidecar])


def _check_points_json(n: int, d: int, want: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        obj = json.loads(out)
        if sorted(obj) != ["counts", "dimension", "point_count", "total"]:
            return f"keys {sorted(obj)}"
        if (obj["dimension"], obj["point_count"], obj["total"]) != (d, n, want):
            return f"header {obj['dimension']}, {obj['point_count']}, {obj['total']}; want total {want}"
        if sum(obj["counts"].values()) != want:
            return f"counts {obj['counts']} do not sum to {want}"
        return None
    return check


# Lines of `verify --suite constructions`: "PASS  cone d=3 n=7: 4 == 4".
_VERIFY_LINE = re.compile(r"PASS  ([a-z-]+)(?: d=(\d+)| k=(\d+))? n=(\d+): (\S+) == (\S+)")
VERIFY_CONSTRUCTIONS_CHECKS = 48


def _check_verify_constructions(out: str) -> str | None:
    lines = out.splitlines()
    total = VERIFY_CONSTRUCTIONS_CHECKS
    if len(lines) != total + 1 or lines[-1] != f"{total}/{total} checks passed":
        return f"{len(lines)} lines, last {lines[-1:]}"
    for line in lines[:-1]:
        m = _VERIFY_LINE.fullmatch(line)
        if not m:
            return f"unexpected line {line!r}"
        kind, d, k, n, got, want = m.groups()
        closed = oracle.construction_count(
            kind, int(n), d=d and int(d), k=k and int(k)
        )
        if got != str(closed) or want != str(closed):
            return f"{line!r}: closed form is {closed}"
    return None


def _enumerate(rng: random.Random, workdir: str) -> list[Command]:
    pp16 = os.path.join(workdir, "pp16.json")
    _write_json(pp16, {"dimension": 3, "points": [list(p) for p in parallel_pairs_points(rng, 16)]})
    return [
        _construct(workdir, "parallel-pairs", 18),
        _construct(workdir, "parallel-pairs", 16),
        _construct(workdir, "inplane-generic", 3, 16),
        _construct(workdir, "cone", 3, 16),
        Command(["simplexes", "--points", pp16, "--counts-only", "--format", "json"],
                _check_points_json(16, 3, oracle.parallel_pairs_count(16))),
        Command(["verify", "--suite", "constructions"], _check_verify_constructions),
    ]


# ---------------------------------------------------------------------------
# circuits: circuits with coefficients, projection, reactions
# ---------------------------------------------------------------------------


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def generic_vectors(rng: random.Random, n: int, dim: int) -> list[tuple[Fraction, ...]]:
    """Random small rationals, redrawn until every dim of them are independent.

    In a generic configuration the circuits are exactly the (dim+1)-subsets,
    which gives an exact count to check against.
    """
    vectors: list[tuple[Fraction, ...]] = []
    while len(vectors) < n:
        cand = tuple(random_rational(rng) for _ in range(dim))
        if all(
            oracle.frac_rank([*(vectors[i] for i in sub), cand]) == len(sub) + 1
            for sub in combinations(range(len(vectors)), min(dim - 1, len(vectors)))
        ):
            vectors.append(cand)
    return vectors


def _check_circuits_json(vectors, dim: int) -> Callable[[str], str | None]:
    n = len(vectors)
    want = comb(n, dim + 1)

    def check(out: str) -> str | None:
        obj = json.loads(out)
        head = (obj["dimension"], obj["vector_count"], obj["counts"], obj["total"])
        if head != (dim, n, {str(dim + 1): want}, want):
            return f"header {head}, want {want} circuits of size {dim + 1}"
        seen = set()
        for c in obj["circuits"]:
            members, coeffs = tuple(c["members"]), c["coefficients"]
            if len(members) != dim + 1 or len(set(members)) != dim + 1 or len(coeffs) != dim + 1:
                return f"circuit {members} has the wrong size"
            if 0 in coeffs or not oracle.is_primitive(coeffs):
                return f"coefficients {coeffs} of {members} are not primitive and nonzero"
            for axis in range(dim):
                if sum(a * vectors[i][axis] for a, i in zip(coeffs, members)) != 0:
                    return f"coefficients {coeffs} do not annihilate {members}"
            seen.add(members)
        return None if len(seen) == want else f"{len(seen)} distinct circuits, want {want}"
    return check


# Common C/H/O species; written to the species file in a seeded order.
SPECIES = (
    "CH4", "O2", "CO2", "H2O", "CO", "H2", "C2H6", "C2H4",
    "C2H2", "CH3OH", "C2H5OH", "CH2O", "HCOOH", "C3H8", "H2O2", "CH3COOH",
)
_ELEMENTS = ("C", "H", "O")


def _parse_side(side: str) -> list[tuple[str, int]]:
    terms = []
    for term in side.split(" + "):
        coeff, _, name = term.rpartition(" ")
        terms.append((name, int(coeff) if coeff else 1))
    return terms


def _check_react(species: list[str]) -> Callable[[str], str | None]:
    comps = {s: oracle.atom_counts(s) for s in species}
    vec = {s: [comps[s].get(e, 0) for e in _ELEMENTS] for s in species}
    r = oracle.frac_rank(list(vec.values()))
    report = f"species: {len(species)}, rank: {r}, benchmark C(n, r+1) = {comb(len(species), r + 1)}"

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) < 2 or lines[-1] != report:
            return f"report line {lines[-1:]}, want {report!r}"
        supports = set()
        for line in lines[:-1]:
            equation, _, note = line.partition("   # ")
            lhs, _, rhs = equation.partition(" -> ")
            terms = _parse_side(lhs) + [(s, -c) for s, c in _parse_side(rhs)]
            names = [s for s, _ in terms]
            if len(set(names)) != len(names) or not set(names) <= set(vec):
                return f"bad species in {line!r}"
            coeffs = [c for _, c in terms]
            if not oracle.is_primitive(coeffs) or any(c == 0 for c in coeffs):
                return f"coefficients of {line!r} are not primitive"
            if any(sum(c * vec[s][a] for s, c in terms) for a in range(len(_ELEMENTS))):
                return f"unbalanced: {line!r}"
            if oracle.frac_rank([vec[s] for s in names]) != len(names) - 1:
                return f"not minimal: {line!r}"
            if bool(note) != (len(names) == 2):
                return f"isomer note wrong on {line!r}"
            supports.add(frozenset(names))
        return None if len(supports) == len(lines) - 1 else "repeated reaction"
    return check


def _circuits(rng: random.Random, workdir: str) -> list[Command]:
    vectors14 = generic_vectors(rng, 14, 4)
    vectors12 = generic_vectors(rng, 12, 5)
    species = list(SPECIES)
    rng.shuffle(species)
    g14, g12 = os.path.join(workdir, "generic14.json"), os.path.join(workdir, "generic12.json")
    sp = os.path.join(workdir, "species.txt")
    _write_json(g14, {"dimension": 4, "vectors": [[_entry(x) for x in v] for v in vectors14]})
    _write_json(g12, {"dimension": 5, "vectors": [[_entry(x) for x in v] for v in vectors12]})
    with open(sp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(species) + "\n")
    c14, c12 = comb(14, 5), comb(12, 6)
    return [
        Command(["simplexes", "--vectors", g14], _expect_lines([f"size 5: {c14}", f"total: {c14}"])),
        Command(["simplexes", "--vectors", g14, "--format", "json"], _check_circuits_json(vectors14, 4)),
        Command(["simplexes", "--vectors", g12, "--project"],
                _expect_lines([f"circuits: {c12}", f"projected simplexes: {c12}", "match: yes"])),
        Command(["react", sp, "--report"], _check_react(species)),
    ]


# ---------------------------------------------------------------------------
# search: exhaustive s / s' minima
# ---------------------------------------------------------------------------


def _fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator} (~{float(x):.6f})"


def _check_search_json(n: int, k: int, linear: bool, minimum: Fraction):
    def check(out: str) -> str | None:
        from minsimplex.extremal import SearchResult, verify_witness
        from minsimplex.hypergraph import Hypergraph

        obj = json.loads(out)
        if (obj["n"], obj["k"], obj["linear_constrained"]) != (n, k, linear):
            return f"parameters {obj['n']}, {obj['k']}, {obj['linear_constrained']}"
        if Fraction(obj["minimum"]) != minimum:
            return f"minimum {obj['minimum']}, want {minimum}"
        witnesses = tuple(Hypergraph.from_json_obj(w) for w in obj["witnesses"])
        result = SearchResult(n, k, linear, minimum, witnesses, obj["search_space_size"])
        if not witnesses or not all(verify_witness(result, w) for w in witnesses):
            return f"{len(witnesses)} witnesses, not all valid"
        return None
    return check


_SEARCHED = re.compile(r"searched \d+ candidates; [1-9]\d* witness\(es\)")


def _check_search_text(n: int, k: int, linear: bool, minimum: Fraction):
    flavor = "s" if linear else "s'"
    head = f"{flavor}({n},{k}) = {_fraction_text(minimum)}"

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[:1] != [head] or not _SEARCHED.fullmatch(lines[1]):
            return f"got {lines[:2]}, want {head!r} and at least one witness"
        if k == 2 and not lines[-1].endswith("(agrees)"):
            return f"closed form line {lines[-1]!r}"
        return None
    return check


def _search(rng: random.Random, workdir: str) -> list[Command]:
    workers = ["--workers", str(SEARCH_WORKERS)]
    s7_2 = oracle.s2_exact(7)
    return [
        Command(["search", "7", "2", "--free", *workers, "--format", "json"],
                _check_search_json(7, 2, False, s7_2)),
        Command(["search", "6", "3", "--free", *workers],
                _check_search_text(6, 3, False, Fraction(3, 10))),
        Command(["search", "7", "3", "--linear", "--format", "json"],
                _check_search_json(7, 3, True, Fraction(2, 5))),
        Command(["search", "7", "2", "--linear"], _check_search_text(7, 2, True, s7_2)),
    ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {"enumerate": _enumerate, "circuits": _circuits, "search": _search}


def generate(name: str, seed: int, workdir: str) -> list[Command]:
    """Write the workload's inputs for this seed; return its commands in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    commands = WORKLOADS[name](rng, workdir)
    rng.shuffle(commands)
    return commands
