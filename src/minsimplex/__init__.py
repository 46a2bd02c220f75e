"""Exact enumeration of minimal dependencies in vector and point sets,
semi-simplex counting in q-linear hypergraphs, Sperner-sum minima, and
minimal balanced reactions."""

from .errors import BudgetError, InputError, InvariantError
from .exactla import (
    nullspace_basis,
    primitive_integer_vector,
    rank,
    rational_from_string,
)
from .geometry import (
    PointSet,
    affine_rank,
    check_small_flat_hypothesis,
    classify_r3_semi_simplexes,
    count_affine_simplexes,
    enumerate_affine_simplexes,
    is_affine_simplex,
    project_to_affine,
)
from .hypergraph import (
    Hypergraph,
    empty_section,
    from_point_set,
    is_q_linear,
    is_sperner,
    k_section,
    semi_simplexes,
    semi_simplex_deficit,
    yblm_sum,
)
from .matroid import (
    Circuit,
    VectorConfiguration,
    count_circuits,
    enumerate_circuits,
    is_circuit,
)
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
    "Circuit",
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
    "empty_section",
    "enumerate_affine_simplexes",
    "enumerate_circuits",
    "from_point_set",
    "is_affine_simplex",
    "is_circuit",
    "is_q_linear",
    "is_sperner",
    "k_section",
    "minimal_reactions",
    "nullspace_basis",
    "parse_formula",
    "primitive_integer_vector",
    "project_to_affine",
    "rank",
    "rational_from_string",
    "reaction_count_report",
    "semi_simplexes",
    "semi_simplex_deficit",
    "yblm_sum",
]
