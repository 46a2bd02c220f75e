"""Spans and counts recorded around minsimplex's layer boundaries.

The traced run replaces public functions, by name, in the namespace of the
module that calls them, and puts the originals back after each pass. A
span is (name, start, end, parent index); a layer's self time is the sum
of its spans' durations minus the durations of their direct children, so
the self times of all layers add up to the time of the root ("cli") spans.

Nothing that the free search sends to its process pool is wrapped: the
workers run `_scan_free_chunk`, which must stay picklable by name. The
free-scan time is the self time of the `brute_force_s` span, after its
`canonical_family` children are subtracted.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from math import comb
from time import perf_counter

import oracle

# span name -> per-layer self-time metric
SELF_TIME = {
    "cli": "cli.self_s",
    "constructions.build": "constructions.build_s",
    "geometry.enumerate": "geometry.enumerate_s",
    "geometry.project": "geometry.project_s",
    "matroid.enumerate": "matroid.enumerate_s",
    "matroid.configuration_rank": "matroid.enumerate_s",
    "exactla.rank": "exactla.rank_s",
    "exactla.nullspace": "exactla.nullspace_s",
    "stoichiometry.parse": "stoichiometry.parse_s",
    "stoichiometry.reactions": "stoichiometry.reactions_s",
    "stoichiometry.report": "stoichiometry.reactions_s",
    "search.canonical": "search.canonical_s",
    "search.free": "search.free_s",
    "search.linear": "search.linear_s",
}


class Tracer:
    """In-memory span and count recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls: list[tuple] = []  # (span name, args, kwargs, result), read after the pass
        self.rank_tests: Counter = Counter()  # enclosing span name -> rank tests made in it

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def span(self, name, fn, keep: bool = False):
        """Wrap fn in a span; name may be a function of (args, kwargs)."""
        def wrapper(*args, **kwargs):
            rec = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if keep:
                self.calls.append((rec[0], args, kwargs, result))
            return result
        return functools.wraps(fn)(wrapper)

    def rank_test(self, fn):
        """Count calls to fn against the innermost open span."""
        def wrapper(*args, **kwargs):
            self.rank_tests[self.spans[self.stack[-1]][0]] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)


def _search_flavor(args, kwargs) -> str:
    linear = args[2] if len(args) > 2 else kwargs["linear_constrained"]
    return "search.linear" if linear else "search.free"


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers in for the duration of the block."""
    from minsimplex import extremal, geometry, matroid, stoichiometry
    from minsimplex.extremal import search

    targets = [
        (extremal, "construct", tracer.span("constructions.build", extremal.construct)),
        (extremal, "brute_force_s", tracer.span(_search_flavor, extremal.brute_force_s, keep=True)),
        (search, "canonical_family", tracer.span("search.canonical", search.canonical_family)),
        (geometry, "enumerate_affine_simplexes",
         tracer.span("geometry.enumerate", geometry.enumerate_affine_simplexes, keep=True)),
        (geometry, "affine_rank", tracer.rank_test(geometry.affine_rank)),
        (geometry, "rank", tracer.span("exactla.rank", geometry.rank)),
        (geometry, "project_to_affine", tracer.span("geometry.project", geometry.project_to_affine)),
        (matroid, "enumerate_circuits",
         tracer.span("matroid.enumerate", matroid.enumerate_circuits, keep=True)),
        (matroid, "configuration_rank",
         tracer.span("matroid.configuration_rank", matroid.configuration_rank)),
        (matroid, "subset_rank", tracer.rank_test(matroid.subset_rank)),
        (matroid, "rank", tracer.span("exactla.rank", matroid.rank)),
        (matroid, "nullspace_basis", tracer.span("exactla.nullspace", matroid.nullspace_basis)),
        (stoichiometry, "enumerate_circuits",
         tracer.span("matroid.enumerate", stoichiometry.enumerate_circuits, keep=True)),
        (stoichiometry, "load_species", tracer.span("stoichiometry.parse", stoichiometry.load_species)),
        (stoichiometry, "minimal_reactions",
         tracer.span("stoichiometry.reactions", stoichiometry.minimal_reactions)),
        (stoichiometry, "reaction_count_report",
         tracer.span("stoichiometry.report", stoichiometry.reaction_count_report)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    for module, attr, wrapper in targets:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    spans = tracer.spans
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, float] = dict.fromkeys(SELF_TIME.values(), 0.0)
    for (name, start, end, _), inner in zip(spans, children):
        out[SELF_TIME[name]] += end - start - inner
    calls = Counter(rec[0] for rec in spans)

    geo_candidates = geo_simplexes = mat_candidates = mat_circuits = 0
    masks = families = witnesses = 0
    for name, args, kwargs, result in tracer.calls:
        if name == "geometry.enumerate":
            ps = args[0]
            n = len(ps.points)
            geo_candidates += sum(comb(n, s) for s in range(3, min(ps.dimension + 2, n) + 1))
            geo_simplexes += result.total
        elif name == "matroid.enumerate":
            cfg = args[0]
            top = oracle.frac_rank(cfg.vectors) + 1
            max_size = args[2] if len(args) > 2 else kwargs.get("max_size")
            if max_size is not None:
                top = min(top, max_size)
            mat_candidates += sum(comb(len(cfg.vectors), s) for s in range(1, top + 1))
            mat_circuits += len(result)
        else:
            witnesses += len(result.witnesses)
            if name == "search.free":
                masks += result.search_space_size
            else:
                families += result.search_space_size

    geo_tests = tracer.rank_tests["geometry.enumerate"]
    mat_tests = tracer.rank_tests["matroid.enumerate"]
    out.update({
        "geometry.candidates": geo_candidates,
        "geometry.rank_tests": geo_tests,
        "geometry.prune_ratio": 1 - _ratio(geo_tests, geo_candidates) if geo_candidates else 0.0,
        "geometry.simplexes": geo_simplexes,
        "geometry.hit_ratio": _ratio(geo_simplexes, geo_tests),
        "matroid.enumerate_calls": calls["matroid.enumerate"],
        "matroid.candidates": mat_candidates,
        "matroid.rank_tests": mat_tests,
        "matroid.prune_ratio": 1 - _ratio(mat_tests, mat_candidates) if mat_candidates else 0.0,
        "matroid.circuits": mat_circuits,
        "matroid.hit_ratio": _ratio(mat_circuits, mat_tests),
        "exactla.rank_calls": calls["exactla.rank"],
        "exactla.nullspace_calls": calls["exactla.nullspace"],
        "constructions.rank_tests": tracer.rank_tests["constructions.build"],
        "stoichiometry.reactions_calls": calls["stoichiometry.reactions"],
        "search.canonical_calls": calls["search.canonical"],
        "search.witnesses": witnesses,
        "search.dedup_ratio": _ratio(witnesses, calls["search.canonical"]),
        "search.families": families,
        "search.families_per_s": _ratio(families, out["search.linear_s"]),
        "search.masks": masks,
        "search.masks_per_s": _ratio(masks, out["search.free_s"]),
    })
    return out
