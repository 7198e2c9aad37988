"""Rigorous and first-order perturbation bounds for LU and QR factorizations."""

from .dense import (
    EXPLICIT_THRESHOLD,
    LuFactors,
    QrFactors,
    lu_factor,
    qr_factor,
    spectral_norm,
    triangular_inverse,
)
from .errors import (
    AbsOperatorTooLarge,
    BoundNotApplicable,
    DimensionMismatch,
    FperturbError,
    NoConvergence,
    NormOverflow,
    RankDeficient,
    SingularDiagonal,
    SingularLeadingMinor,
    ZeroVector,
)
from .lu_bounds import (
    LuComponentwiseReport,
    LuNormwiseReport,
    gaussian_elimination_epsilon,
    heuristic_scaling,
    lower_factor_operator,
    lu_componentwise_bounds,
    lu_componentwise_evaluator,
    lu_normwise_bounds,
    lu_normwise_evaluator,
    upper_factor_operator,
)
from .matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    graded_random,
    kahan,
    random_c_matrix,
    rng_stream,
    sample_perturbation,
)
from .qr_bounds import (
    QrComponentwiseReport,
    QrNormwiseReport,
    qr_componentwise_bounds,
    qr_componentwise_evaluator,
    qr_normwise_bounds,
    qr_normwise_evaluator,
    r_factor_operator,
    r_quadratic_operator,
    scaling_d_e,
    zeta,
)
from .structured import (
    StructuredOperator,
    operator_materialize,
    operator_spectral_norm,
    vec,
)
from .verify import VerificationReport, delta_halving, verify_bounds

__version__ = "0.1.0"
