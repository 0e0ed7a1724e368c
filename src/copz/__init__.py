"""Discrete orthogonal polynomials on nonuniform lattices.

Zeros, Pearson-ratio weights, orthogonality checks, the zero-derivative
linear system behind parameter monotonicity, and support-extension
interlacing, for the classical families on linear, quadratic, q-linear and
q-quadratic lattices.
"""

from .errors import (
    CopzError,
    DomainError,
    EvaluationOverflowError,
    IllConditionedSystemError,
    SingularityError,
    SweepDiscontinuityError,
    TruncationError,
    UndefinedSeriesError,
    WeightMismatchError,
    WeightPositivityError,
    ZeroCountError,
)
from .families import (
    ALIAS_FAMILIES,
    CORE_FAMILIES,
    FINITE_FAMILIES,
    Claim,
    FamilySpec,
    ZeroProblem,
    catalog_kinds,
    eval_exact_at_support,
    family_info,
    make_family,
    sample_params,
)
from .grid import Grid
from .interlacing import InterlacingReport, connection_residual, interlace_check
from .qseries import (
    SeriesSpec,
    eval_terminating_series,
    identity_value,
    pochhammer,
    q_pochhammer,
)
from .stieltjes import (
    HypothesisReport,
    MonotonicityVerdict,
    StieltjesSystem,
    build_stieltjes_system,
    hypothesis_report,
    monotonicity_verdict,
    zero_derivatives_fd,
)
from .weights import (
    WeightTable,
    boundary_check,
    gram_offdiag_max,
    orthogonality_residual,
    pearson_residual_max,
    weight_table,
)
from .zeros import ZeroSet, eq1_consistency, find_zeros, separation_check

__version__ = "0.1.0"

__all__ = [
    "ALIAS_FAMILIES",
    "CORE_FAMILIES",
    "Claim",
    "CopzError",
    "DomainError",
    "EvaluationOverflowError",
    "FINITE_FAMILIES",
    "FamilySpec",
    "Grid",
    "HypothesisReport",
    "IllConditionedSystemError",
    "InterlacingReport",
    "MonotonicityVerdict",
    "SeriesSpec",
    "SingularityError",
    "StieltjesSystem",
    "SweepDiscontinuityError",
    "TruncationError",
    "UndefinedSeriesError",
    "WeightMismatchError",
    "WeightPositivityError",
    "WeightTable",
    "ZeroCountError",
    "ZeroProblem",
    "ZeroSet",
    "boundary_check",
    "build_stieltjes_system",
    "catalog_kinds",
    "connection_residual",
    "eq1_consistency",
    "eval_exact_at_support",
    "eval_terminating_series",
    "family_info",
    "find_zeros",
    "gram_offdiag_max",
    "hypothesis_report",
    "identity_value",
    "interlace_check",
    "make_family",
    "monotonicity_verdict",
    "orthogonality_residual",
    "pearson_residual_max",
    "pochhammer",
    "q_pochhammer",
    "sample_params",
    "separation_check",
    "weight_table",
    "zero_derivatives_fd",
]
