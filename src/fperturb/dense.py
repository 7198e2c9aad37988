"""Dense matrix kernels: factorizations, norms, and triangular inverses.

Matrices are plain 2-D float64 ``numpy.ndarray`` values; only the LU
factorization and the stacked kernels also run in longdouble, for
extended-precision measurements.
Vectorized forms elsewhere in the package stack columns (Fortran order), so a
matrix and its ``vec`` agree on column-major semantics.

The LU factorization here is deliberately pivot-free: the perturbation theory
bounds the factors of ``A`` itself, and row exchanges would change the object
being bounded. The QR factorization normalizes the triangular factor to a
strictly positive diagonal, which makes it unique for full-column-rank input.

The stacked kernels refactorize many perturbed matrices at once, with the
floating-point operations of one factorization on every slice; the
longdouble elimination gets them through numpy's sequential matmul loop.

The spectral norm of a dense matrix whose smaller dimension is at most
``SVD_MAX_ORDER`` is the largest singular value from the LAPACK SVD. Every
other spectral norm, of a larger dense matrix or of a matrix-free factor
map, comes from one Krylov estimator, a Golub-Kahan bidiagonalization that
needs only products with the map and its transpose. Its vector norms go
through :func:`euclidean_norm`, which does not overflow or underflow on the
way to a representable result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NormOverflow,
    RankDeficient,
    SingularDiagonal,
    SingularLeadingMinor,
)

# Tolerances, chosen with double-precision headroom over machine epsilon.
PIVOT_TOL = 1e-13          # relative pivot threshold for pivot-free LU
RANK_TOL = 1e-12           # relative smallest-singular-value threshold for QR
SPECTRAL_TOL = 1e-12       # relative residual tolerance of the Krylov norm estimate
KRYLOV_MAX_STEPS = 1_000   # bidiagonalization steps before NoConvergence
KRYLOV_CHECK_STEPS = 8     # steps between convergence checks (an SVD of B_k each)
# Largest min(m, n) of a dense matrix whose spectral norm comes from the LAPACK
# SVD rather than the Krylov estimator. Both cost a multiple of m*n, the SVD
# about min(m, n) flops per entry. Measured with one OpenBLAS thread, Krylov /
# SVD in microseconds, over n-by-n LU factors and inverses and n-by-n and
# 4n-by-n Gaussian matrices: 200-2,040 / 180-390 at n = 48, 200-2,230 /
# 300-770 at 64, 200-2,380 / 450-1,320 at 80 and 220-3,450 / 710-2,100 at 96;
# on absolute LU maps, 670 / 244 at 45 x 100, 742 / 583 at 78 x 144 and
# 629 / 786 at 91 x 196. Up to 64 the estimator wins only where it stops at
# its first check (Kahan U, 8 steps).
SVD_MAX_ORDER = 64
EXPLICIT_THRESHOLD = 4096  # largest vec-dimension n^2 materialized, one column of X at a time
SQRT_TINY = math.sqrt(np.finfo(float).tiny)    # a norm at or below it may lose digits to underflow
# longdouble carries more digits than float64, as it does not on every platform
WIDE_LONGDOUBLE = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
# why qr_r_stack could not factorize a slice
ZERO_COLUMN, TINY_REFLECTOR = 1, 2


@dataclass(frozen=True)
class LuFactors:
    """Pivot-free LU factors: ``l`` unit lower triangular, ``u`` upper triangular.

    ``l_inv``, ``u_inv`` and ``u_lead_inv`` (of the leading (n-1)-square block
    of U) are computed on first use and kept, so each is inverted once; so is
    ``envelope``, the product |L| |U| that bounds componentwise perturbations.
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

    @cached_property
    def envelope(self) -> np.ndarray:
        return np.abs(self.l) @ np.abs(self.u)


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

    Each entry of U, and of L before its division by the pivot, is the
    entry of ``a`` minus the rounded products l_ik u_kj, subtracted one at a
    time in order of k. A longdouble stack (where longdouble is wider than
    float64) runs this in Doolittle order, one stacked ``np.matmul`` per row
    of U and per column of L, whose longdouble loop adds the rounded
    products in turn from zero (``tests/test_dense.py::TestMatmulPremise``
    checks it where longdouble is IEEE extended or quad precision).
    Other stacks keep the right-looking rank-1 updates: float64 matmul goes
    to BLAS, which sums in another order. Both orders give the same bits up
    to the sign of an exact zero; ROADMAP item 10 would drop the longdouble
    branch.
    """
    a = np.asarray(a)
    a = np.ascontiguousarray(a, dtype=np.longdouble if a.dtype == np.longdouble else float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"stack must have shape (k, n, n), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("stack has non-finite entries")
    tol = _pivot_tols(a)
    if a.dtype == np.longdouble and WIDE_LONGDOUBLE:
        return _doolittle(a, tol)
    return _right_looking(a, tol)


def _pivot_tols(a: np.ndarray) -> np.ndarray:
    """``PIVOT_TOL`` times the Frobenius norm of each slice of a C-contiguous stack."""
    # the norms of all slices at once, each bit for bit that of the C-ordered
    # slice alone, so that no gate moves
    with np.errstate(over="ignore"):
        return PIVOT_TOL * _retaken(frobenius_norms(a), a, (1, 2))


def _gate(piv: np.ndarray, tol: np.ndarray, singular: np.ndarray, step: int):
    """The slices whose pivot of this 0-based step is newly gated, or None.

    Each is flagged in ``singular`` with the 1-based index of the step.
    """
    small = np.abs(piv) <= tol
    if not small.any():
        return None
    small &= singular == 0
    singular[small] = step + 1
    return small


def _right_looking(a: np.ndarray, tol: np.ndarray):
    """:func:`lu_factor_stack` by rank-1 updates of the trailing block."""
    k, n, _ = a.shape
    u = a.copy()
    l = np.broadcast_to(np.eye(n, dtype=a.dtype), a.shape).copy()
    singular = np.zeros(k, dtype=int)
    for c in range(n - 1):
        piv = u[:, c, c]
        small = _gate(piv, tol, singular, c)
        if small is not None:
            u[small] = 0.0
        if singular.any():
            # a stopped slice is all zeros; dividing it by one keeps it so
            piv = np.where(singular > 0, 1.0, piv)
        mults = u[:, c + 1 :, c] / piv[:, None]
        l[:, c + 1 :, c] = mults
        u[:, c + 1 :, c:] -= mults[:, :, None] * u[:, c, None, c:]
        u[:, c + 1 :, c] = 0.0
    return l, np.triu(u), singular


def _doolittle(a: np.ndarray, tol: np.ndarray):
    """:func:`lu_factor_stack` in Doolittle order, by stacked sequential matmuls.

    Row 0 of ``ub`` and column 0 of ``nl`` are heads; rows 1.. of ``ub`` hold
    U and columns 1.. of ``nl`` hold -L. Row j of U is [1, -l_j0, ..,
    -l_j,j-1] times [a_j; u_0; ..; u_j-1], and the sum from zero takes
    a_j + (-l_j0 u_0) + .. in turn, which rounds as a_j - l_j0 u_0 - ..
    does. Column j of L is likewise [a_ij, -l_i0, ..] times [1; u_0j; ..],
    divided by the pivot. A gated slice has its L zeroed, and so are the
    heads it reads from ``a`` for L later, so its L stays zero and its later
    rows of U are those of ``a``: meaningless, but finite.
    """
    k, n, _ = a.shape
    ub = np.zeros((k, n + 1, n), dtype=a.dtype)
    nl = np.full((k, n, n + 1), -0.0, dtype=a.dtype)
    nl.reshape(k, -1)[:, 1 :: n + 2] = -1.0        # the unit diagonal of L
    singular = np.zeros(k, dtype=int)
    stopped = None
    for j in range(n):
        ub[:, 0, j:] = a[:, j, j:]
        nl[:, j, 0] = 1.0
        np.matmul(nl[:, j, None, : j + 1], ub[:, : j + 1, j:], out=ub[:, j + 1, None, j:])
        if j == n - 1:
            break
        piv = ub[:, j + 1, j]
        small = _gate(piv, tol, singular, j)
        if small is not None:
            nl[small] = 0.0
            stopped = singular > 0
        nl[:, j + 1 :, 0] = a[:, j + 1 :, j]
        if stopped is not None:
            nl[stopped, j + 1 :, 0] = 0.0
            piv = np.where(stopped, 1.0, piv)
        ub[:, 0, j] = 1.0
        col = nl[:, j + 1 :, j + 1, None]
        np.matmul(nl[:, j + 1 :, : j + 1], ub[:, : j + 1, j, None], out=col)
        np.divide(col, -piv[:, None, None], out=col)
    l = np.negative(nl[:, :, 1:])
    del nl      # so that the copy of U below takes its place
    return l, np.ascontiguousarray(ub[:, 1:]), singular


def qr_r_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder R factors (positive diagonal) of every slice of a (k, m, n) stack.

    Precision and per-slice operations as in :func:`lu_factor_stack`. Returns
    ``(r, failed)``: ``failed[j]`` is 0 when slice j factorized,
    ``ZERO_COLUMN`` when it met a zero column, and ``TINY_REFLECTOR`` when a
    reflection vector v had v.v so small that 2 / v.v overflows (a float64
    column below about 1e-154), unless it also met a zero column. A failed
    slice skips the reflection that failed; its factor is meaningless, but
    finite. A reflection updates the diagonal entry of its column and the
    columns to its right; the entries below the diagonal, which no later
    stage reads, are left as they are and dropped at the end.
    """
    a = np.asarray(a)
    r = np.array(a, dtype=np.longdouble if a.dtype == np.longdouble else float)
    if r.ndim != 3 or r.shape[1] < r.shape[2]:
        raise DimensionMismatch(f"stack must have shape (k, m, n) with m >= n, got {r.shape}")
    k, m, n = r.shape
    zero_column = np.zeros(k, dtype=bool)
    tiny = np.zeros(k, dtype=bool)
    for c in range(n):
        x = r[:, c:, c]
        nx = np.sqrt(np.sum(x * x, axis=1))
        zero_column |= ~x.any(axis=1)     # not nx = 0: the squares of a column may underflow
        v = x.copy()
        v[:, 0] += np.where(x[:, 0] >= 0.0, nx, -nx)
        s = np.sum(v * v, axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            coef = 2.0 / s
        # s = 0 (a zero column) or 2 / s overflowed: the slice is flagged, and
        # with coef = 0 its w = 0, so its update subtracts zeros
        skip = coef == math.inf
        if skip.any():
            tiny |= skip
            coef[skip] = 0.0
        w = np.matmul(r[:, c:, c:].transpose(0, 2, 1), v[:, :, None])[:, :, 0] * coef[:, None]
        r[:, c, c] -= v[:, 0] * w[:, 0]
        r[:, c:, c + 1 :] -= v[:, :, None] * w[:, None, 1:]
    r = np.triu(r[:, :n, :n])
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    failed = np.where(zero_column, ZERO_COLUMN, np.where(tiny, TINY_REFLECTOR, 0))
    return r * signs[:, :, None], failed.astype(np.int8)


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


def euclidean_norm(x, axis=None):
    """2-norm of an array, or of each slice along ``axis``, also where squares over- or underflow.

    ``np.linalg.norm(x, axis=axis)`` is kept where it lies in (sqrt(tiny), inf);
    any other is taken again from its slice, divided by its largest magnitude if
    its plain norm is out of range too. Without ``axis``, the first try is the
    square root of the dot product of ``x.ravel(order="K")`` with itself: the
    operations of ``np.linalg.norm`` on a real array, so its bits, without its
    argument handling. A non-finite entry gives a non-finite norm. The
    result keeps the precision of ``x``, a float for float64 without ``axis``.
    Callers run under ``np.errstate(over="ignore")`` for the first try.
    """
    x = np.asarray(x)
    if axis is not None and np.size(axis) < x.ndim:     # else all of x is one slice
        return _retaken(np.linalg.norm(x, axis=axis), x, axis)
    if x.dtype.kind != "f":
        x = x.astype(float)
    flat = x.ravel(order="K")
    square = flat.dot(flat)
    # math.sqrt rounds correctly, as np.sqrt does, and returns a float sooner;
    # a longdouble keeps its digits
    norm = math.sqrt(square) if type(square) is np.float64 else np.sqrt(square)
    if not SQRT_TINY < norm < math.inf:
        scale = np.max(np.abs(x), initial=0.0)
        norm = scale * np.linalg.norm(x / scale) if 0.0 < scale < math.inf else scale
    return float(norm) if type(norm) is np.float64 else norm


def _retaken(norms: np.ndarray, x: np.ndarray, axis) -> np.ndarray:
    """``norms`` of the slices of ``x`` along ``axis``; each out of (sqrt(tiny), inf) re-taken."""
    for j in zip(*np.nonzero(~((norms > SQRT_TINY) & (norms < math.inf)))):
        slices = np.moveaxis(x, axis, range(-np.size(axis), 0))     # only on a re-take
        norms[j] = euclidean_norm(slices[j])
    return norms


def frobenius_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every slice of a C-contiguous stack, bit for bit.

    One stacked product of each flattened slice with itself, which adds the
    squares in the order of numpy's ``dot`` that the plain norm uses, in the
    precision of ``x``. Squares overflow and underflow as there.
    """
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


@np.errstate(over="ignore", invalid="ignore")
def krylov_spectral_norm(matvec, rmatvec, dim_in: int) -> float:
    """Largest singular value of a linear map given by matvec/rmatvec.

    Golub-Kahan-Lanczos bidiagonalization from the normalized all-ones
    vector, without keeping the basis: after k steps A V_k = U_k B_k, with B_k
    upper bidiagonal (alphas on the diagonal, betas above it). The top triplet
    of B_k has the residual beta_k |p_k|, p_k the last entry of its left
    singular vector, and is returned once that is below ``SPECTRAL_TOL``
    times its value. A tiny alpha means the Krylov space is exhausted; the
    norm is then exactly that of the k-by-(k+1) bidiagonal [B_k, beta_k e_k].
    Both are norms of compressions of the map, so lower estimates. A map
    that overflows on a numerically singular factor gives a non-finite alpha
    or beta; the step that meets it raises :class:`NormOverflow`.
    """
    if dim_in == 0:
        return 0.0
    v = np.full(dim_in, 1.0 / math.sqrt(dim_in))
    for restart in range(dim_in + 1):
        u = matvec(v)
        if u.size == 0:
            return 0.0
        alpha = euclidean_norm(u)
        if alpha != 0.0:             # also a nan, which the first step rejects
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
        beta = euclidean_norm(w)
        if not math.isfinite(alpha + beta):
            raise NormOverflow("norm estimate overflows: a factor is numerically singular")
        betas.append(beta)
        exhausted = beta <= SPECTRAL_TOL * scale
        if exhausted or k % KRYLOV_CHECK_STEPS == 0 or k == KRYLOV_MAX_STEPS:
            left, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
            if exhausted or beta * abs(left[-1, 0]) <= SPECTRAL_TOL * s[0]:
                return float(s[0])
        v = w / beta
        p = matvec(v)
        p -= beta * u
        alpha = euclidean_norm(p)
        scale = max(scale, beta)
        if alpha <= SPECTRAL_TOL * scale:
            # the last row of the (k+1)-square bidiagonal is zero; drop it
            return float(np.linalg.norm((np.diag(alphas + [0.0]) + np.diag(betas, 1))[:-1], 2))
        alphas.append(alpha)
        scale = max(scale, alpha)
        u = p / alpha
    raise NoConvergence(KRYLOV_MAX_STEPS)


def spectral_norm(a) -> float:
    """Spectral norm of a dense matrix.

    The largest singular value from the LAPACK SVD when ``min(a.shape)`` is at
    most ``SVD_MAX_ORDER``, and the Krylov estimate above it. Either way a
    norm that overflows raises :class:`NormOverflow`, and an empty matrix has
    norm 0.
    """
    a = _as_matrix(a)
    if a.size == 0:
        return 0.0
    if min(a.shape) > SVD_MAX_ORDER:
        return krylov_spectral_norm(lambda v: a @ v, lambda u: a.T @ u, a.shape[1])
    norm = float(np.linalg.svd(a, compute_uv=False)[0])
    if not math.isfinite(norm):
        raise NormOverflow("spectral norm overflows")
    return norm
