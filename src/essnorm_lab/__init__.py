"""Desk-scale laboratory for essential norms of multiplication operators
on weighted L_p spaces over discretized diffuse-plus-atomic measure spaces."""

from .essnorm import (
    EssNormProblem,
    LowerBoundCertificate,
    best_diagonal_rank_k,
    diagonal_compactification,
    essential_norm,
    pinching_lower_bound,
    qn_decay_profile,
    truncation_perturbation,
    verify_certificate,
    witness_lower_bound,
    witness_sets,
)
from .lattice import (
    RegularDecomposition,
    centre_decay_under_refinement,
    centre_project,
    join,
    meet,
    modulus,
    regular_norm,
)
from .lpspace import StepFunction, norm_p, normalized_indicator
from .measure import MeasureSpace, TailDescriptor, build_space
from .operators import (
    FunctionKernel,
    MatrixOperator,
    MultiplicationOperator,
    mult_op,
    opnorm_estimate,
    opnorm_p1,
    opnorm_upper_bound,
    pinch,
    rank_one_atomic_offdiag,
    rank_one_diffuse,
)

__version__ = "0.1.0"

__all__ = [
    "EssNormProblem",
    "FunctionKernel",
    "LowerBoundCertificate",
    "MatrixOperator",
    "MeasureSpace",
    "MultiplicationOperator",
    "RegularDecomposition",
    "StepFunction",
    "TailDescriptor",
    "best_diagonal_rank_k",
    "build_space",
    "centre_decay_under_refinement",
    "centre_project",
    "diagonal_compactification",
    "essential_norm",
    "join",
    "meet",
    "modulus",
    "mult_op",
    "norm_p",
    "normalized_indicator",
    "opnorm_estimate",
    "opnorm_p1",
    "opnorm_upper_bound",
    "pinch",
    "pinching_lower_bound",
    "qn_decay_profile",
    "rank_one_atomic_offdiag",
    "rank_one_diffuse",
    "regular_norm",
    "truncation_perturbation",
    "verify_certificate",
    "witness_lower_bound",
    "witness_sets",
]
