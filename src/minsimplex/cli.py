"""Command-line front door: enumeration, construction, search, reactions.

Exit codes are stable: 0 success, 1 stdout closed early (a failed check
of `verify` also exits 1), 2 input error, 3 invariant violation, 4 budget
exceeded. All numeric output is exact ("p/q"), with a decimal
approximation column where that helps a human reader.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction

from . import extremal, geometry, hypergraph, matroid, stoichiometry
from .errors import BudgetError, InputError, InvariantError


_json_text = functools.partial(json.dumps, indent=1, sort_keys=True)


def _ints_template(length: int, newline: str) -> str:
    """A list of `length` ints as json indents it at `newline`, with %d for each int."""
    inner = newline + " "
    return "[" + inner + ("," + inner).join(["%d"] * length) + newline + "]"


def _circuit_template(length: int, newline: str) -> str:
    """A circuit as json indents its dict at `newline`, with %d for each of
    its length // 2 coefficients, then for each member."""
    inner = newline + " "
    ints = _ints_template(length // 2, inner)
    return "{" + inner + '"coefficients": ' + ints + "," + inner + '"members": ' + ints + newline + "}"


def _listing_json(obj: dict, listings: dict[str, tuple]) -> str:
    """json.dumps(obj, indent=1, sort_keys=True), byte for byte, where obj
    holds the string "\\0" + name in place of listing `name`, a list of int
    tuples at any depth: listings[name] is (template, records).

    json.dumps writes the rest of the document. Each listing is one format
    string, joined from template(len(r), indent) per record r, one template
    per length, and filled with every record's ints at once. These
    ints are the scan's results, bounded by the size of the input, so the
    interpreter's limit on the digits of an int written as text is lifted
    for them, and only for them."""
    text = _json_text(obj)
    for name, (template, records) in listings.items():
        head, tail = text.split(json.dumps("\0" + name))
        line = head[head.rindex("\n") + 1 :]
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        inner = newline + " "
        lengths = list(map(len, records))
        templates = {length: template(length, inner) for length in set(lengths)}
        body = "[" + inner + ("," + inner).join(map(templates.__getitem__, lengths)) + newline + "]"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            body = body % tuple(itertools.chain.from_iterable(records)) if records else "[]"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        text = "".join((head, body, tail))
    return text


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _frac_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator} (~{float(x):.6f})"
    return str(x)


def _counts_lines(counts: dict[int, int], total) -> list[str]:
    lines = [f"size {size}: {count}" for size, count in sorted(counts.items())]
    lines.append(f"total: {total}")
    return lines


def _counts_csv(counts: dict[int, int]) -> str:
    rows = ["size,count"] + [f"{size},{count}" for size, count in sorted(counts.items())]
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# simplexes
# ---------------------------------------------------------------------------


def _counts_json(dimension: int, noun: str, n: int, counts: dict[int, int]) -> dict:
    """Counts by size of the circuits of n vectors, or of the affine simplexes
    of n points, in R^dimension: the head of every simplexes document."""
    return {
        "dimension": dimension,
        f"{noun}_count": n,
        "counts": {str(size): count for size, count in counts.items()},
        "total": sum(counts.values()),
    }


def _emit_counts(args, dimension: int, noun: str, n: int, counts: dict[int, int]) -> None:
    """Print counts by size in the requested format, as _counts_json in JSON."""
    if args.format == "json":
        _emit(_json_text(_counts_json(dimension, noun, n, counts)), args.out)
    elif args.format == "csv":
        _emit(_counts_csv(counts), args.out)
    else:
        _emit("\n".join(_counts_lines(counts, sum(counts.values()))), args.out)


def cmd_simplexes(args) -> int:
    # Only JSON without --counts-only lists the simplexes or circuits; the rest prints their counts.
    listed = args.format == "json" and not args.counts_only
    if args.points:
        if args.project:
            raise InputError("--project applies to --vectors only, not to --points")
        ps = geometry.load_points(args.points)
        if listed:
            report = geometry.enumerate_affine_simplexes(ps)
            obj = _counts_json(ps.dimension, "point", len(ps), report.counts)
            obj["simplexes"] = "\0simplexes"
            _emit(_listing_json(obj, {"simplexes": (_ints_template, report.supports)}), args.out)
            return 0
        counts = geometry.count_affine_simplexes(ps)
        _emit_counts(args, ps.dimension, "point", len(ps), counts)
        return 0

    if args.project and args.format == "csv":
        raise InputError("--project has no csv form; use --format text or json")
    cfg = matroid.load_vectors(args.vectors)
    if args.project:
        ps = geometry.project_to_affine(cfg)  # a refused configuration costs no scan
    elif not listed:
        counts = matroid.count_circuits(cfg)
        _emit_counts(args, cfg.dimension, "vector", len(cfg), counts)
        return 0
    # Coefficients are computed only when they are printed.
    listings = {}
    if listed:
        supports, rows = [], []
        for members, coefficients in matroid.enumerate_circuits(cfg):
            supports.append(members)
            rows.append(coefficients + members)
        listings["circuits"] = (_circuit_template, rows)
    else:
        supports = matroid.circuit_supports(cfg)
    circuits_obj = _counts_json(cfg.dimension, "vector", len(cfg), Counter(map(len, supports)))
    if listed:
        circuits_obj["circuits"] = "\0circuits"
    if not args.project:
        _emit(_listing_json(circuits_obj, listings), args.out)
        return 0

    report = geometry.enumerate_affine_simplexes(ps)
    match = supports == list(report.supports)
    if args.format == "json":
        projected = _counts_json(ps.dimension, "point", len(ps), report.counts)
        if listed:
            projected["simplexes"] = "\0simplexes"
            listings["simplexes"] = (_ints_template, report.supports)
        obj = {"circuits": circuits_obj, "projected": projected, "match": match}
        _emit(_listing_json(obj, listings), args.out)
    else:
        lines = [f"circuits: {len(supports)}", f"projected simplexes: {report.total}"]
        lines.append(f"match: {'yes' if match else 'NO'}")
        _emit("\n".join(lines), args.out)
    if not match:
        print("projection correspondence violated", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _construction_id(args) -> tuple[extremal.ConstructionId, int]:
    kind, params = args.kind, args.params
    if kind in ("inplane-generic", "cone"):
        if len(params) != 2:
            raise InputError(f"{kind} takes two integers: d n (e.g. '{kind} 3 9')")
        return extremal.ConstructionId(kind, d=params[0]), params[1]
    if kind == "two-disjoint-edges":
        if len(params) != 2:
            raise InputError(f"{kind} takes two integers: k n")
        return extremal.ConstructionId(kind, k=params[0]), params[1]
    if len(params) != 1:
        raise InputError(f"{kind} takes a single integer n")
    return extremal.ConstructionId(kind), params[0]


def _enumerated_count(cid: extremal.ConstructionId, built):
    """Simplex count of a point set, or the YBLM sum of a hypergraph's semi-simplexes."""
    if isinstance(built, hypergraph.Hypergraph):
        return hypergraph.semi_simplexes(built, cid.k).yblm_sum
    return sum(geometry.count_affine_simplexes(built).values())


def cmd_construct(args) -> int:
    cid, n = _construction_id(args)
    built = extremal.construct(cid, n)
    expected = extremal.expected_count(cid, n)
    enumerated = _enumerated_count(cid, built)
    agree = enumerated == expected
    prefix = args.out or f"{args.kind}-{n}"
    _emit(_json_text(built.to_json_obj()), f"{prefix}.json")
    sidecar = {
        "construction": str(cid),
        "n": n,
        "expected": str(expected),
        "enumerated": str(enumerated),
        "agree": agree,
    }
    _emit(_json_text(sidecar), f"{prefix}.counts.json")
    print(f"{cid} n={n}: expected {expected}, enumerated {enumerated}")
    print(f"wrote {prefix}.json and {prefix}.counts.json")
    if not agree:
        print("self-check failed: enumerated count disagrees with the formula", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    budget = args.budget if args.budget is not None else extremal.default_budget_bits()
    result = extremal.brute_force_s(args.n, args.k, args.linear, budget_bits=budget)
    if result.witnesses_truncated:
        print("note: witnesses truncated: not every minimizing family was kept", file=sys.stderr)
    if args.out or args.format == "json":
        text = _json_text(result.to_json_obj())
    if args.out:
        _emit(text, args.out)
    if args.format == "json":
        _emit(text, None)
        return 0
    if args.format == "csv":
        m = result.minimum
        print("n,k,flavor,minimum,approx")
        print(f"{args.n},{args.k},{'s' if args.linear else 's_prime'},"
              f"{m.numerator}/{m.denominator},{float(m):.6f}")
        return 0
    flavor = "s" if args.linear else "s'"
    print(f"{flavor}({args.n},{args.k}) = {_frac_str(result.minimum)}")
    print(f"searched {result.search_space_size} candidates; {len(result.witnesses)} witness(es)")
    ref = extremal.reference_bounds(args.k)
    print(f"reference: s_{args.k} <= {_frac_str(ref.upper_sk)}, "
          f"s'_{args.k} <= {_frac_str(ref.upper_s_prime_k)}, "
          f"s({args.k + 1},{args.k}) = {_frac_str(ref.lower_start)}")
    if args.k == 2:
        closed = extremal.s2_exact(args.n)
        tag = "agrees" if closed == result.minimum else "DISAGREES"
        print(f"closed form 1 - floor(n^2/4)/C(n,2) = {_frac_str(closed)} ({tag})")
    return 0


# ---------------------------------------------------------------------------
# react
# ---------------------------------------------------------------------------


def cmd_react(args) -> int:
    universe = None
    if args.universe:
        symbols = tuple(s.strip() for s in args.universe.split(","))
        if not all(symbols) or len(set(symbols)) != len(symbols):
            raise InputError(f"--universe needs distinct, non-empty atom symbols: {args.universe!r}")
        universe = stoichiometry.AtomUniverse(symbols)
    species = stoichiometry.load_species(args.species_file, universe)
    reactions = stoichiometry.minimal_reactions(species)
    if args.format == "json":
        obj = {"reactions": [r.to_json_obj() for r in reactions]}
        if args.report:
            obj["report"] = stoichiometry.reaction_count_report(species, reactions).to_json_obj()
        _emit(_json_text(obj), args.out)
        return 0
    lines = []
    for r in reactions:
        note = "   # isomer/multiple dose" if r.is_isomerization else ""
        lines.append(r.equation() + note)
    if args.report:
        rep = stoichiometry.reaction_count_report(species, reactions)
        lines.append(f"species: {rep.species_count}, rank: {rep.configuration_rank}, "
                     f"benchmark C(n, r+1) = {rep.benchmark}")
    _emit("\n".join(lines) if lines else "", args.out)
    return 0


# ---------------------------------------------------------------------------
# sperner
# ---------------------------------------------------------------------------


def cmd_sperner(args) -> int:
    if args.deficit and args.format == "csv":
        raise InputError("--deficit has no csv form; use --format text or json")
    h = hypergraph.load_hypergraph(args.hypergraph)
    if args.deficit:  # refuses a k out of range, then a non-linear h, before E0 is listed
        deficit = hypergraph.semi_simplex_deficit(h, args.k)
    report = hypergraph.semi_simplexes(h, args.k)
    total = report.yblm_sum
    if args.format == "json":
        obj = {
            "n": h.n,
            "k": args.k,
            "counts": {str(size): c for size, c in report.counts.items()},
            "total": report.total,
            "sperner": True,  # E_k and E0_{k+1} form a Sperner family by construction
            "yblm_sum": f"{total.numerator}/{total.denominator}",
        }
        if args.deficit:
            obj["deficit"] = f"{deficit.numerator}/{deficit.denominator}"
        listings = {}
        if not args.counts_only:
            for name in ("sections", "empty_sections"):
                obj[name] = "\0" + name
                listings[name] = (_ints_template, getattr(report, name))
        _emit(_listing_json(obj, listings), args.out)
        return 0
    if args.format == "csv":
        _emit(_counts_csv(report.counts), args.out)
        return 0
    lines = _counts_lines(report.counts, report.total)
    lines.append("sperner: yes")
    lines.append(f"yblm sum: {_frac_str(total)}")
    if args.deficit:
        lines.append(f"deficit: {_frac_str(deficit)}")
    _emit("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# (sizes n, constructions checked at each n), in print order
_SUITE_CONSTRUCTIONS = (
    (range(6, 13), (extremal.ConstructionId("parallel-pairs"),)),
    (range(4, 11), (extremal.ConstructionId("inplane-generic", d=2),
                    extremal.ConstructionId("cone", d=2))),
    (range(5, 11), (extremal.ConstructionId("inplane-generic", d=3),
                    extremal.ConstructionId("cone", d=3))),
    (range(6, 13), (extremal.ConstructionId("two-lines"),)),
    (range(3, 7), (extremal.ConstructionId("two-disjoint-edges", k=2),)),
    (range(3, 7), (extremal.ConstructionId("two-disjoint-edges", k=3),)),
)


def _suite_constructions() -> list[tuple[str, bool]]:
    checks = []
    for sizes, cids in _SUITE_CONSTRUCTIONS:
        for n in sizes:
            for cid in cids:
                param = f" d={cid.d}" if cid.d else f" k={cid.k}" if cid.k else ""
                got = _enumerated_count(cid, extremal.construct(cid, n))
                want = extremal.expected_count(cid, n)
                checks.append((f"{cid.kind}{param} n={n}: {got} == {want}", got == want))
    return checks


def _suite_sperner() -> list[tuple[str, bool]]:
    rng = random.Random(20531)
    checks = []
    for k in (3, 4):
        for trial in range(6):
            n = rng.randint(k + 2, 14)
            h = hypergraph.random_linear_hypergraph(rng, n, k)
            report = hypergraph.semi_simplexes(h, k)
            ok = hypergraph.is_sperner(report.family)
            total = report.yblm_sum
            checks.append(
                (f"random k={k} n={n} trial={trial}: sperner and sum {total} <= 1",
                 ok and total <= 1)
            )
    for n in (8, 10):
        ps = extremal.construct(extremal.ConstructionId("parallel-pairs"), n)
        h = hypergraph.from_point_set(ps)
        report = hypergraph.semi_simplexes(h, 4)
        ok = hypergraph.is_sperner(report.family)
        total = report.yblm_sum
        deficit = hypergraph.semi_simplex_deficit(h, 4)
        checks.append(
            (f"parallel-pairs n={n} as hypergraph: sperner, sum {total} <= 1, "
             f"deficit {deficit}", ok and total <= 1)
        )
    return checks


def _s_small_rows() -> list[tuple[int, int, Fraction, Fraction, Fraction]]:
    rows = []
    for n in range(3, 7):
        rows.append((
            n, 2,
            extremal.brute_force_s(n, 2, True).minimum,
            extremal.brute_force_s(n, 2, False).minimum,
            extremal.s2_exact(n),
        ))
    for k in (3, 4):
        rows.append((
            k + 1, k,
            extremal.brute_force_s(k + 1, k, True).minimum,
            extremal.brute_force_s(k + 1, k, False).minimum,
            Fraction(1, k + 1),
        ))
    return rows


def _suite_s_small() -> list[tuple[str, bool]]:
    checks = []
    for n, k, s_val, sp_val, closed in _s_small_rows():
        checks.append(
            (f"s({n},{k}) = {s_val}, s'({n},{k}) = {sp_val}, closed form {closed}",
             s_val == closed and sp_val == closed)
        )
    return checks


def cmd_verify(args) -> int:
    if args.format == "csv":
        if args.suite != "s-small":
            raise InputError(f"--format csv applies to --suite s-small only, not {args.suite}")
        # plot-ready table of searched minima against the closed forms
        print("n,k,s,s_prime,closed_form")
        failures = 0
        for n, k, s_val, sp_val, closed in _s_small_rows():
            print(f"{n},{k},{s_val},{sp_val},{closed}")
            failures += 0 if s_val == closed and sp_val == closed else 1
        return 0 if failures == 0 else 1
    if args.suite == "constructions":
        checks = _suite_constructions()
    elif args.suite == "sperner":
        checks = _suite_sperner()
    else:
        checks = _suite_s_small()
    failures = 0
    for message, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {message}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _simplexes_arguments(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="point set file (JSON or CSV)")
    src.add_argument("--vectors", help="vector configuration file (JSON)")
    p.add_argument("--project", action="store_true",
                   help="project vectors to points and compare circuit/simplex families "
                        "(text or json)")
    p.add_argument("--counts-only", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simplexes)


def _construct_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=extremal.KINDS)
    p.add_argument("params", type=int, nargs="+", metavar="N",
                   help="size n, preceded by d (inplane-generic, cone) or "
                        "k (two-disjoint-edges): e.g. 'cone 3 9'")
    p.add_argument("--out", help="output prefix (default KIND-N)")
    p.set_defaults(func=cmd_construct)


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    flavor = p.add_mutually_exclusive_group(required=True)
    flavor.add_argument("--linear", action="store_true", help="(k-1)-linear hypergraphs: s(n,k)")
    flavor.add_argument("--free", action="store_true", help="all hypergraphs: s'(n,k)")
    p.add_argument("--budget", type=int, default=None,
                   help="log2 of the candidate budget (default MINSIMPLEX_BUDGET_BITS or 25)")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: the free scan runs in-process")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", help="also write the JSON SearchResult here")
    p.set_defaults(func=cmd_search)


def _react_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("species_file")
    p.add_argument("--universe", help="comma-separated atom order, e.g. C,H,O")
    p.add_argument("--report", action="store_true", help="append the count report")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_react)


def _sperner_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hypergraph", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--deficit", action="store_true",
                   help="also report the normalized deficit (needs (k-1)-linearity; text or json)")
    p.add_argument("--counts-only", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sperner)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=("constructions", "sperner", "s-small"), required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text",
                   help="csv (s-small only) emits the plot-ready value table")
    p.set_defaults(func=cmd_verify)


# subcommand name -> (help line, function adding its arguments), in help order
_COMMANDS = {
    "simplexes": ("enumerate circuits or affine simplexes", _simplexes_arguments),
    "construct": ("build an extremal configuration and self-check it", _construct_arguments),
    "search": ("exhaustive minimum of the semi-simplex sum", _search_arguments),
    "react": ("enumerate minimal balanced reactions", _react_arguments),
    "sperner": ("semi-simplex families, Sperner check, YBLM sum", _sperner_arguments),
    "verify": ("run a verification suite", _verify_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `minsimplex` parser, with every subcommand, or with `command` only.

    A parser for one subcommand parses that subcommand's argument lists as
    the full one does, with the same output and exit codes. Its root usage
    still lists every subcommand, so a root-level error reads alike.
    """
    parser = argparse.ArgumentParser(
        prog="minsimplex",
        description="Exact minimal-dependency enumeration and extremal search",
    )
    # Either way the usage line lists every subcommand. The full parser derives
    # that list itself, and so still names a missing one "command" in its error.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    # before numpy loads: a second BLAS thread only spins beside the free scan's products
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else argv
    # a command's own parser is all it needs; help, no command or an unknown one get them all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): Python's EPIPE idiom, so that the
        # interpreter's last flush writes what is left to devnull, and no message
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
