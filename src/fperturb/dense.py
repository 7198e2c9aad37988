"""Dense matrix kernels: factorizations, norms, and triangular inverses.

Matrices are plain 2-D float64 ``numpy.ndarray`` values; only the LU
factorization also runs in longdouble, for extended-precision measurements.
Vectorized forms elsewhere in the package stack columns (Fortran order), so a
matrix and its ``vec`` agree on column-major semantics.

The LU factorization here is deliberately pivot-free: the perturbation theory
bounds the factors of ``A`` itself, and row exchanges would change the object
being bounded. The QR factorization normalizes the triangular factor to a
strictly positive diagonal, which makes it unique for full-column-rank input.

Every spectral norm in the package, of a dense matrix or of a matrix-free
factor map, comes from one Krylov estimator, a Golub-Kahan bidiagonalization
that needs only products with the map and its transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    RankDeficient,
    SingularDiagonal,
    SingularLeadingMinor,
)

# Tolerances, chosen with double-precision headroom over machine epsilon.
PIVOT_TOL = 1e-13          # relative pivot threshold for pivot-free LU
RANK_TOL = 1e-12           # relative smallest-singular-value threshold for QR
RECONSTRUCT_TOL = 1e-11    # relative reconstruction accuracy contract
SPECTRAL_TOL = 1e-12       # relative residual tolerance of the Krylov norm estimate
KRYLOV_MAX_STEPS = 1_000   # bidiagonalization steps before NoConvergence
KRYLOV_CHECK_STEPS = 8     # steps between convergence checks (an SVD of B_k each)
EXPLICIT_THRESHOLD = 4096  # largest vec-dimension that may be materialized


@dataclass(frozen=True)
class LuFactors:
    """Pivot-free LU factors: ``l`` unit lower triangular, ``u`` upper triangular.

    ``l_inv``, ``u_inv`` and ``u_lead_inv`` (of the leading (n-1)-square block
    of U) are computed on first use and kept, so each is inverted once.
    """

    l: np.ndarray
    u: np.ndarray

    @cached_property
    def l_inv(self) -> np.ndarray:
        return triangular_inverse(self.l, "lower")

    @cached_property
    def u_inv(self) -> np.ndarray:
        return triangular_inverse(self.u, "upper")

    @cached_property
    def u_lead_inv(self) -> np.ndarray:
        return triangular_inverse(self.u[:-1, :-1], "upper")


@dataclass(frozen=True)
class QrFactors:
    """QR factors: ``q`` with orthonormal columns, ``r`` upper triangular, diag(r) > 0.

    ``r_inv``, the inverse of R, is computed on first use and kept on the instance.
    """

    q: np.ndarray
    r: np.ndarray

    @cached_property
    def r_inv(self) -> np.ndarray:
        return triangular_inverse(self.r, "upper")


def _as_matrix(a, name: str = "matrix", dtype=float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def _as_square(a, name: str = "matrix", dtype=float) -> np.ndarray:
    a = _as_matrix(a, name, dtype)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def lu_factor(a) -> LuFactors:
    """Pivot-free Doolittle LU factorization of a square matrix.

    A longdouble input is factorized in longdouble, which is how trials are
    measured in extended precision; any other input is cast to float64.
    Raises :class:`SingularLeadingMinor` with the 1-based pivot index when a
    pivot used as a divisor falls below ``PIVOT_TOL * ||a||_F``. The trailing
    diagonal entry of ``u`` is never used as a divisor and is not gated; a
    singular last pivot surfaces later, when ``u`` has to be inverted.
    """
    a = np.asarray(a)
    a = _as_square(a, dtype=np.longdouble if a.dtype == np.longdouble else float)
    l, u, singular = lu_factor_stack(a[None])
    if singular[0]:
        raise SingularLeadingMinor(int(singular[0]))
    return LuFactors(l=l[0], u=u[0])


def lu_factor_stack(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot-free LU factorization of every slice of a (k, n, n) stack.

    The elimination of :func:`lu_factor`, run on all slices at once with the
    same floating-point operations, so each slice's factors are bit-identical
    to factorizing it alone. Returns ``(l, u, singular)``: ``singular[j]`` is
    0 when slice j factorized, and otherwise the 1-based index of its first
    pivot at or below ``PIVOT_TOL * ||a[j]||_F``. The elimination of such a
    slice stops there, and its factors are meaningless.
    """
    a = np.asarray(a)
    a = np.asarray(a, dtype=np.longdouble if a.dtype == np.longdouble else float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"stack must have shape (k, n, n), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("stack has non-finite entries")
    k, n, _ = a.shape
    # one norm call per slice, as for a single matrix, so that no gate moves
    tol = PIVOT_TOL * np.array([np.linalg.norm(s) for s in a], dtype=a.dtype)
    u = a.copy()
    l = np.broadcast_to(np.eye(n, dtype=a.dtype), a.shape).copy()
    singular = np.zeros(k, dtype=int)
    for c in range(n - 1):
        piv = u[:, c, c]
        small = (np.abs(piv) <= tol) & (singular == 0)
        if small.any():
            singular[small] = c + 1
            u[small] = 0.0
        if singular.any():
            # a stopped slice is all zeros; dividing it by one keeps it so
            piv = np.where(singular > 0, 1.0, piv)
        mults = u[:, c + 1 :, c] / piv[:, None]
        l[:, c + 1 :, c] = mults
        u[:, c + 1 :, c:] -= mults[:, :, None] * u[:, c, None, c:]
        u[:, c + 1 :, c] = 0.0
    return l, np.triu(u), singular


def qr_factor(a) -> QrFactors:
    """QR factorization with positive diagonal of the triangular factor.

    Householder QR followed by a column-wise sign fix so that diag(r) > 0,
    which pins down the unique factorization. A square input that is already
    upper triangular with positive diagonal is returned as (I, a) exactly;
    graded triangular test matrices rely on the orthonormal factor being the
    identity without rounding noise.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"qr_factor needs m >= n, got shape {a.shape}")
    if m == n and not np.tril(a, -1).any() and np.all(np.diag(a) > 0.0):
        return QrFactors(q=np.eye(n), r=a.copy())
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise RankDeficient(f"smallest singular value {s[-1]:.3e} below rank tolerance")
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return QrFactors(q=q * signs[None, :], r=r * signs[:, None])


def triangular_inverse(t, shape: str) -> np.ndarray:
    """Invert a triangular matrix by substitution; result keeps the shape.

    ``shape`` is ``"lower"`` or ``"upper"``. Raises :class:`SingularDiagonal`
    with the 1-based index of the first exactly-zero diagonal entry, or of the
    first row in substitution order that overflows, as a subnormal pivot does.
    """
    t = _as_square(t, "triangular matrix")
    if shape not in ("lower", "upper"):
        raise ValueError(f"shape must be 'lower' or 'upper', got {shape!r}")
    n = t.shape[0]
    zero = np.flatnonzero(np.diag(t) == 0.0)
    if zero.size:
        raise SingularDiagonal(int(zero[0]) + 1)
    upper = shape == "upper"
    x = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1) if upper else range(n):
            done = slice(i + 1, None) if upper else slice(None, i)
            x[i, :] = (x[i, :] - t[i, done] @ x[done, :]) / t[i, i]
            if not np.isfinite(x[i]).all():
                raise SingularDiagonal(i + 1)
    return np.triu(x) if upper else np.tril(x)


def _krylov_spectral_norm(matvec, rmatvec, dim_in: int) -> float:
    """Largest singular value of a linear map given by matvec/rmatvec.

    Golub-Kahan-Lanczos bidiagonalization from the normalized all-ones
    vector, without keeping the basis: after k steps A V_k = U_k B_k, with B_k
    upper bidiagonal (alphas on the diagonal, betas above it). The top triplet
    of B_k has the residual beta_k |p_k|, p_k the last entry of its left
    singular vector, and is returned once that is below ``SPECTRAL_TOL``
    times its value. A tiny alpha means the Krylov space is exhausted; the
    norm is then exactly that of the k-by-(k+1) bidiagonal [B_k, beta_k e_k].
    Both are norms of compressions of the map, so lower estimates.
    """
    if dim_in == 0:
        return 0.0
    v = np.full(dim_in, 1.0 / math.sqrt(dim_in))
    for restart in range(dim_in + 1):
        u = matvec(v)
        if u.size == 0:
            return 0.0
        alpha = float(np.linalg.norm(u))
        if alpha > 0.0:
            break
        # The start vector happens to lie in the null space; probe basis
        # directions deterministically before concluding the map is zero.
        if restart == dim_in:
            return 0.0
        v = np.zeros(dim_in)
        v[restart] = 1.0
    u /= alpha
    alphas, betas = [alpha], []
    scale = alpha                    # largest entry of B so far, a lower bound
    for k in range(1, KRYLOV_MAX_STEPS + 1):
        w = rmatvec(u)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        exhausted = beta <= SPECTRAL_TOL * scale
        if exhausted or k % KRYLOV_CHECK_STEPS == 0 or k == KRYLOV_MAX_STEPS:
            left, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
            if exhausted or beta * abs(left[-1, 0]) <= SPECTRAL_TOL * s[0]:
                return float(s[0])
        v = w / beta
        p = matvec(v)
        p -= beta * u
        alpha = float(np.linalg.norm(p))
        scale = max(scale, beta)
        if alpha <= SPECTRAL_TOL * scale:
            # the last row of the (k+1)-square bidiagonal is zero; drop it
            return float(np.linalg.norm((np.diag(alphas + [0.0]) + np.diag(betas, 1))[:-1], 2))
        alphas.append(alpha)
        scale = max(scale, alpha)
        u = p / alpha
    raise NoConvergence(KRYLOV_MAX_STEPS)


def spectral_norm(a) -> float:
    """Spectral norm of a dense matrix through the Krylov estimator."""
    a = _as_matrix(a)
    if a.size == 0:
        return 0.0
    return _krylov_spectral_norm(lambda v: a @ v, lambda u: a.T @ u, a.shape[1])


def kappa2_triangular(t, shape: str) -> float:
    """Spectral condition number of a nonsingular triangular matrix."""
    return spectral_norm(t) * spectral_norm(triangular_inverse(t, shape))
