"""Numerics for lattice spin systems with a finite spin space.

The package builds transition energy fields from pair potentials, checks
the algebraic identities those fields must satisfy, enumerates exact
finite-volume correlation functions, solves the correlation fixed-point
equation by contraction iteration, and quantifies how fast window
correlation values approach their large-volume limit.

The top-level namespace holds the core names only; the solver, the
convergence study and the bound and report types are imported from their
modules (``spincorr.solver``, ``spincorr.fields``, ``spincorr.exact``).
"""

from .errors import (
    BudgetExceededError,
    DomainError,
    EnvironmentConditionError,
    GateNotCertifiedError,
    ModelDefinitionError,
    ModelFileError,
    SolverDivergenceError,
    SpincorrError,
)
from .lattice import (
    Configuration,
    EMPTY_CONFIG,
    SpinSpace,
    ball,
    box,
    concat,
    distance_to_complement,
    enumerate_configs,
    interior,
)
from .fields import (
    PairField,
    PairPotential,
    PerturbedField,
    TripleInteractionField,
    ZeroField,
    decay_sums,
    delta_volume,
    field_bounds,
    norm_delta1,
    pair_potential_norm,
    remark1_sufficiency,
)
from .checks import (
    check_environment_condition,
    check_field_consistency,
    check_one_point_consistency,
)
from .exact import (
    gibbs_distribution,
    partition_function,
    read_table,
    rho_exact,
    rho_probe,
    verify_correlation_equation,
    write_table,
)
from .modelfile import Model, load_model, model_digest, parse_model

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Configuration",
    "DomainError",
    "EMPTY_CONFIG",
    "EnvironmentConditionError",
    "GateNotCertifiedError",
    "Model",
    "ModelDefinitionError",
    "ModelFileError",
    "PairField",
    "PairPotential",
    "PerturbedField",
    "SolverDivergenceError",
    "SpinSpace",
    "SpincorrError",
    "TripleInteractionField",
    "ZeroField",
    "ball",
    "box",
    "check_environment_condition",
    "check_field_consistency",
    "check_one_point_consistency",
    "concat",
    "decay_sums",
    "delta_volume",
    "distance_to_complement",
    "enumerate_configs",
    "field_bounds",
    "gibbs_distribution",
    "interior",
    "load_model",
    "model_digest",
    "norm_delta1",
    "pair_potential_norm",
    "parse_model",
    "partition_function",
    "read_table",
    "remark1_sufficiency",
    "rho_exact",
    "rho_probe",
    "verify_correlation_equation",
    "write_table",
]
