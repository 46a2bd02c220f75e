"""Exact enumeration of minimal dependencies in vector and point sets,
semi-simplex counting in q-linear hypergraphs, Sperner-sum minima, and
minimal balanced reactions."""

from .errors import BudgetError, InputError, InvariantError
from .exactla import rational_from_string
from .geometry import (
    PointSet,
    affine_rank,
    check_small_flat_hypothesis,
    classify_r3_semi_simplexes,
    count_affine_simplexes,
    enumerate_affine_simplexes,
    project_to_affine,
)
from .hypergraph import (
    Hypergraph,
    from_point_set,
    is_q_linear,
    is_sperner,
    k_section,
    semi_simplexes,
    semi_simplex_deficit,
    yblm_sum,
)
from .matroid import VectorConfiguration, count_circuits, enumerate_circuits
from .stoichiometry import (
    AtomUniverse,
    Reaction,
    Species,
    minimal_reactions,
    parse_formula,
    reaction_count_report,
)

__version__ = "0.1.0"

__all__ = [
    "AtomUniverse",
    "BudgetError",
    "Hypergraph",
    "InputError",
    "InvariantError",
    "PointSet",
    "Reaction",
    "Species",
    "VectorConfiguration",
    "affine_rank",
    "check_small_flat_hypothesis",
    "classify_r3_semi_simplexes",
    "count_affine_simplexes",
    "count_circuits",
    "enumerate_affine_simplexes",
    "enumerate_circuits",
    "from_point_set",
    "is_q_linear",
    "is_sperner",
    "k_section",
    "minimal_reactions",
    "parse_formula",
    "project_to_affine",
    "rational_from_string",
    "reaction_count_report",
    "semi_simplexes",
    "semi_simplex_deficit",
    "yblm_sum",
]
