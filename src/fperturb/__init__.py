"""Rigorous and first-order perturbation bounds for LU and QR factorizations."""

from .dense import LuFactors, QrFactors, lu_factor, qr_factor
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
    lu_componentwise_bounds,
    lu_componentwise_evaluator,
    lu_normwise_bounds,
    lu_normwise_evaluator,
)
from .matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    graded_random,
    kahan,
    random_c_matrix,
)
from .qr_bounds import (
    QrComponentwiseReport,
    QrNormwiseReport,
    qr_componentwise_bounds,
    qr_componentwise_evaluator,
    qr_normwise_bounds,
    qr_normwise_evaluator,
)
from .verify import VerificationReport, delta_halving, verify_bounds

__version__ = "0.1.0"
