"""Alternating-direction solvers for graph and hypergraph matching.

The package factors a matching problem into sparse potential tensors
(:mod:`adgm.tensor`), matching-polytope constraints and projections
(:mod:`adgm.constraints`), the alternating-direction solver itself
(:mod:`adgm.solver`), exact discretization and brute-force oracles
(:mod:`adgm.discretize`), geometric energy models (:mod:`adgm.models`),
and a benchmark harness (:mod:`adgm.harness`) with a command-line
front end (:mod:`adgm.cli`).
"""

from .constraints import (
    ConstraintSpec,
    FeasibilityReport,
    SideMode,
    SimplexMode,
    assignment_index,
    as_matrix,
    as_vector,
    feasibility,
    project_colwise,
    project_rowwise,
    project_simplex,
)
from .errors import (
    AdgmError,
    ConfigurationError,
    OracleRefusalError,
    UnsupportedConstraintError,
)
from .discretize import BruteForceLimits, brute_force_optimum, hungarian
from .harness import (
    ExperimentConfig,
    Transform,
    TrialReport,
    accuracy,
    generate_synthetic,
    read_experiment_config,
    run_experiment,
)
from .models import (
    build_model,
    build_pairwise_a,
    build_pairwise_b,
    build_pairwise_c,
    build_third_order,
    delaunay_edges,
    pair_geometry,
)
from .solver import (
    MatchingInstance,
    Sense,
    SolverConfig,
    SolverResult,
    Variant,
    energy,
    solve,
    to_minimization,
)
from .tensor import (
    SparseTensor,
    mode_product,
    multilinear_form,
    partial_contraction,
    symmetrize,
)

__all__ = [
    "AdgmError",
    "BruteForceLimits",
    "ConfigurationError",
    "ConstraintSpec",
    "ExperimentConfig",
    "FeasibilityReport",
    "MatchingInstance",
    "OracleRefusalError",
    "Sense",
    "SideMode",
    "SimplexMode",
    "SolverConfig",
    "SolverResult",
    "SparseTensor",
    "Transform",
    "TrialReport",
    "UnsupportedConstraintError",
    "Variant",
    "accuracy",
    "as_matrix",
    "as_vector",
    "assignment_index",
    "brute_force_optimum",
    "build_model",
    "build_pairwise_a",
    "build_pairwise_b",
    "build_pairwise_c",
    "build_third_order",
    "delaunay_edges",
    "energy",
    "feasibility",
    "generate_synthetic",
    "hungarian",
    "mode_product",
    "multilinear_form",
    "pair_geometry",
    "partial_contraction",
    "project_colwise",
    "project_rowwise",
    "project_simplex",
    "read_experiment_config",
    "run_experiment",
    "solve",
    "symmetrize",
    "to_minimization",
]

__version__ = "0.1.0"
