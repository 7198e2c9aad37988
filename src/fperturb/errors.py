"""Exception types shared across the package, and the check of perturbation sizes."""

import math


def check_size(value: float, name: str) -> float:
    """Return ``value`` if it is a finite, nonnegative perturbation size."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


class FperturbError(Exception):
    """Base class for all package-specific errors."""


class SingularLeadingMinor(FperturbError):
    """A pivot of the pivot-free LU elimination is numerically zero."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"leading principal minor {k} is numerically singular")


class RankDeficient(FperturbError):
    """The matrix does not have full column rank."""


class SingularDiagonal(FperturbError):
    """A triangular matrix has a zero diagonal entry, or its inverse overflows."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"triangular matrix is numerically singular at diagonal entry {k}")


class NoConvergence(FperturbError):
    """The Krylov norm estimate did not converge within its step cap."""

    def __init__(self, steps: int):
        self.steps = steps
        super().__init__(f"Krylov norm estimate did not converge in {steps} steps")


class NormOverflow(FperturbError):
    """A norm estimate overflows: the map has a numerically singular factor."""


class DimensionMismatch(FperturbError):
    """Operands have incompatible shapes."""


class AbsOperatorTooLarge(FperturbError):
    """The entrywise absolute value of a factor map is too large to form.

    For the LU maps that is a dense materialization above
    ``EXPLICIT_THRESHOLD``; for the QR maps, stacks of more than its square
    entries.
    """


class ZeroVector(FperturbError):
    """A column or row selected for scaling has zero norm."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"selected column/row {k} has zero norm")


class BoundNotApplicable(FperturbError):
    """A rigorous bound was requested but its applicability condition fails."""


#: a matrix that does not factorize, or whose factors are numerically singular
FACTORIZATION_FAILURES = (SingularLeadingMinor, RankDeficient, SingularDiagonal,
                          NormOverflow, ZeroVector)
