"""Extremal constructions, closed-form counts, and exhaustive minima."""

from .bounds import (
    ReferenceBounds,
    complement_graph,
    complete_bipartite,
    count_triangles,
    reference_bounds,
    s2_exact,
    triangle_bound_check,
    turan_k2,
)
from .constructions import KINDS, ConstructionId, construct, expected_count
from .search import (
    DEFAULT_BUDGET_BITS,
    SearchResult,
    brute_force_s,
    canonical_family,
    default_budget_bits,
    monotonicity_check,
    verify_witness,
)

__all__ = [
    "KINDS",
    "ConstructionId",
    "DEFAULT_BUDGET_BITS",
    "ReferenceBounds",
    "SearchResult",
    "brute_force_s",
    "canonical_family",
    "complement_graph",
    "complete_bipartite",
    "construct",
    "count_triangles",
    "default_budget_bits",
    "expected_count",
    "monotonicity_check",
    "reference_bounds",
    "s2_exact",
    "triangle_bound_check",
    "turan_k2",
    "verify_witness",
]
