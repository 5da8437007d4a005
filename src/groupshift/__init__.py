"""Colorings, local-lemma resampling and uniform-density configurations
on finitely generated groups, at finite window scale."""

from .groups import (
    Ball,
    DiscreteHeisenberg,
    FreeGroup,
    FreeProductZ2Z3,
    GroupModel,
    InputError,
    IntegerLattice,
    ResourceLimitError,
    parse_group_spec,
)
from .patterns import (
    CodingResult,
    Pattern,
    WindowConfig,
    coding_check,
    interior_and_boundary,
    make_pattern,
    pattern_density,
    pattern_occurrences,
)
from .lll import (
    BadEvent,
    LLLInstance,
    NonterminatingInstanceError,
    aperiodic_constant_scan,
    resample,
    squarefree_alphabet_bound,
    verify_condition,
)
from .aperiodic import (
    TSets,
    build_2coloring_instance,
    build_squarefree_instance,
    build_t_sets,
    enumerate_odd_paths,
    find_vertex_square,
    verify_distinct_neighborhood,
    witness_path,
)
from .density import (
    CoveringForest,
    Slope,
    build_forest,
    convex_enumeration,
    fill_density,
    forbidden_check,
    greedy_rnet,
    measure_density,
    sturmian,
    verify_condition1,
)

__version__ = "0.1.0"
