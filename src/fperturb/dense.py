"""Dense matrix kernels: factorizations, norms, and triangular inverses.

Matrices are plain 2-D float64 ``numpy.ndarray`` values; only the LU
factorization and its stacked kernel also run in longdouble, for the
extended-precision measurement of LU trials.
Vectorized forms elsewhere in the package stack columns (Fortran order), so a
matrix and its ``vec`` agree on column-major semantics.

The LU factorization here is deliberately pivot-free: the perturbation theory
bounds the factors of ``A`` itself, and row exchanges would change the object
being bounded. The QR factorization normalizes the triangular factor to a
strictly positive diagonal, which makes it unique for full-column-rank input.

The two trial kernels measure the factor changes of many perturbed
matrices at once, with the floating-point operations of a stack of one on
every slice. :func:`lu_factor_stack` refactorizes A + dA, in longdouble
through numpy's sequential matmul loop. :func:`r_change` measures the
change of R in float64 by the difference form of Householder QR: the
reflections of A are formed once (:func:`householder_base`), and each slice
carries only the change of the trailing block through them, so dA is never
rounded into A.

The spectral norm of a dense matrix whose smaller dimension is at most
``SVD_MAX_ORDER`` is the largest singular value from the LAPACK SVD. Every
other spectral norm, of a larger dense matrix or of a matrix-free factor
map, comes from one Krylov estimator: Lanczos on the Gram map M M^T, which
a caller applies either fused (``StructuredOperator.gram2``) or as a
product with M after one with M^T (:func:`composed_gram`), from the all-ones
start and, if that Krylov space closes early, once more from a seeded Gaussian
one. It works on the map scaled by a power of two to norm near one, and stops
once the top Ritz value theta has converged: its residual r is at most
``SPECTRAL_TOL`` times theta, or r^2 <= u theta (theta - theta_2), u = 2^-53
and theta_2 the next Ritz value, the Kato-Temple estimate of its error held
at unit roundoff. Where the Ritz gap overstates the true one, the error still
stays below r, at most sqrt(u) theta. Vector norms go through
:func:`euclidean_norm`, and the norms of the slices of a stack through
:func:`frobenius_norms`; both guard their own range: no overflow, underflow
or warning on the way to a representable result.
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
SPECTRAL_TOL = 1e-12       # relative residual tolerance of the top Ritz pair; the Krylov
                           # estimate also stops on r^2 <= u theta (theta - theta_2), u = 2^-53,
                           # an error below r, at most sqrt(u) theta, where the Ritz gap is too wide
KRYLOV_MAX_STEPS = 1_000   # Lanczos steps before NoConvergence
KRYLOV_CHECK_STEPS = 8     # steps between convergence checks (an eigh of T_k each)
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
# why r_change could not measure a slice
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
    tol = PIVOT_TOL * frobenius_norms(a)
    if a.dtype == np.longdouble and WIDE_LONGDOUBLE:
        return _doolittle(a, tol)
    return _right_looking(a, tol)


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


@dataclass(frozen=True)
class HouseholderBase:
    """The Householder reflections of a matrix A, formed once, around which
    :func:`r_change` measures the change of R.

    ``a`` is A 2^-``exponent``, with its largest magnitude in [1/2, 1), so
    that the squares of its columns stay in range. ``reflections`` holds, for
    each column c, ``(u, y, s, norm, v_norm)`` of the trailing block B_c: x
    its first column, ``norm`` = ||x||, ``s`` the sign of x_0 (+1 at 0),
    v = x + s ||x|| e_1, ``v_norm`` = ||v||, u = v / ||v|| and y = 2 B_c^T u;
    the reflection takes B_c to B_c - u y^T. The norms are taken by
    :func:`euclidean_norm`, so every nonzero column has its reflection; a
    zero column has u = 0, no reflection.
    """

    a: np.ndarray
    exponent: int
    reflections: tuple


def householder_base(a) -> HouseholderBase:
    """The :class:`HouseholderBase` of an m-by-n matrix, m >= n, in float64."""
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"householder_base needs m >= n, got shape {a.shape}")
    exponent = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    b = scaled = np.ldexp(a, -exponent)
    reflections = []
    for c in range(n):
        x = b[:, 0]
        norm = euclidean_norm(x)
        s = 1.0 if x[0] >= 0.0 else -1.0
        v = x.copy()
        v[0] += s * norm
        v_norm = euclidean_norm(v)
        u = v / v_norm if v_norm else v
        y = 2.0 * (b.T @ u)
        reflections.append((u, y, s, norm, v_norm))
        b = b[1:, 1:] - np.outer(u[1:], y[1:])
    return HouseholderBase(a=scaled, exponent=exponent, reflections=tuple(reflections))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def r_change(base: HouseholderBase, da) -> tuple[np.ndarray, np.ndarray]:
    """R(A + dA) - R(A), R with positive diagonal, for each slice of a (k, m, n) stack dA.

    The difference form of Householder QR in float64: each slice carries
    only dB, the change of the trailing block B_c, through the reflections
    of ``base``, so dA is never rounded into A, and the error is about
    u ||dR|| rather than u ||A||. With x' = x + dx the first column of
    B_c + dB:

    * d||x|| = dx.(x + x') / (||x'|| + ||x||) is the change of R_cc;
    * v' = x' + s' ||x'|| e_1 keeps the base's sign s', = s, which is valid
      whatever the sign of x'_0, unless x'_0 has turned to -s and makes up
      most of ||x'||, where v'_0 would cancel: then s' = -s and that row of
      R(A + dA) has the other sign;
    * dv = v' - v = dx + (s' ||x'|| - s ||x||) e_1, and ||v'||^2 - ||v||^2
      from the norms (2 (dx.(x + x') + s (||x'|| dx_0 + d||x|| x_0)) where
      s' = s), so neither cancels;
    * du = u' - u = (dv - u d||v||) / ||v'||, which stays below 2 also where
      dA outgrows the column;
    * dy = 2 (B_c^T du + dB^T u'), y' = y + dy;
    * dB <- dB - du y'^T - u dy^T, one stacked rank-2 product.

    Every product is one stacked ``np.matmul``, which does the floating-point
    operations of a stack of one on every slice, so each slice's change is
    bit for bit its own. The work runs at the unit scale of ``base``, and dR
    is scaled back last.

    Returns ``(dr, failed)``: ``failed[j]`` is 0 when slice j was measured,
    ``ZERO_COLUMN`` when A + dA has a zero column or some x' is zero, and
    ``TINY_REFLECTOR`` when some v'.v' is so small that 2 / v'.v' overflows
    (an x' below about 1e-154 of the largest entry of A), unless it also met
    a zero column. A failed slice keeps the base's reflection where its own
    failed; its change is meaningless, but finite.
    """
    da = np.asarray(da, dtype=float)
    if da.ndim != 3 or da.shape[1:] != base.a.shape:
        raise DimensionMismatch(f"stack must have shape (k, {base.a.shape[0]}, "
                                f"{base.a.shape[1]}), got {da.shape}")
    k, m, n = da.shape
    db = np.ldexp(da, -base.exponent)
    dr = np.zeros((k, n, n))
    left = np.empty((k, m, 2))
    right = np.empty((k, 2, n))
    zero_column = ~(base.a + db).any(axis=1).all(axis=1)
    tiny = np.zeros(k, dtype=bool)
    b = base.a
    for c, (u, y, s, norm, v_norm) in enumerate(base.reflections):
        x, dx = b[:, 0], db[:, :, 0]
        xp = x + dx
        g = _dots(dx, x + xp)                       # ||x'||^2 - ||x||^2
        norm_p = np.sqrt(_dots(xp, xp))
        dnorm = g / (norm_p + norm)
        dr[:, c, c] = dnorm
        turned = s * xp[:, 0] < -0.5 * norm_p
        vv_p = 2.0 * norm_p * (norm_p + np.where(turned, -s, s) * xp[:, 0])
        skip = 2.0 / vv_p == math.inf      # a zero x' included
        failing = skip.any()
        if failing:
            zero_column |= skip & ~xp.any(axis=1)
            tiny |= skip
        if c == n - 1:
            break
        dv0 = s * dnorm
        dvv = g + s * (norm_p * dx[:, 0] + dnorm * x[0])       # (||v'||^2 - ||v||^2) / 2
        turning = turned.any()
        if turning:
            dv0[turned] = -s * (norm_p[turned] + norm)
            dvv[turned] = (g - s * (norm_p * xp[:, 0] + norm * x[0]))[turned]
        v_norm_p = np.sqrt(vv_p)
        dv = dx.copy()
        dv[:, 0] += dv0
        dv -= np.multiply.outer(2.0 * dvv / (v_norm_p + v_norm), u)
        du = np.divide(dv, v_norm_p[:, None], out=dv)
        if failing:
            du[skip] = 0.0
        up = u + du
        rest = db[:, :, 1:]
        dy = np.matmul(up[:, None, :], rest)[:, 0]
        dy += np.matmul(du[:, None, :], b[:, 1:])[:, 0]
        dy *= 2.0
        p, q = len(u), n - c - 1
        left[:, :p, 0] = du
        left[:, :p, 1] = u
        np.add(y[1:], dy, out=right[:, 0, :q])
        right[:, 1, :q] = dy
        rest -= np.matmul(left[:, :p], right[:, :, :q])
        np.multiply(rest[:, 0], -s, out=dr[:, c, c + 1 :])
        if turning:
            # R(A + dA) has the sign s in this row, and R(A) -s
            raw = b[0, 1:] - u[0] * y[1:]
            dr[turned, c, c + 1 :] = s * (rest[turned, 0] + 2.0 * raw)
        db = rest[:, 1:]
        b = b[1:, 1:] - np.outer(u[1:], y[1:])
    failed = np.where(zero_column, ZERO_COLUMN, np.where(tiny, TINY_REFLECTOR, 0))
    return np.ldexp(dr, base.exponent, out=dr), failed.astype(np.int8)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_j . y_j of the rows of two (k, p) arrays, one stacked product, so each row's on its own."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


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
    square root of ``np.vdot`` of ``x.ravel(order="K")`` with itself: the
    bits of the dot product that ``np.linalg.norm`` takes of a real array,
    without its argument handling, and with no floating-point status check,
    so a first try that overflows raises no warning. A non-finite entry
    gives a non-finite norm. The result keeps the precision of ``x``, a
    float for float64 without ``axis``.
    """
    x = np.asarray(x)
    if axis is not None and np.size(axis) < x.ndim:     # else all of x is one slice
        with np.errstate(over="ignore"):
            return _retaken(np.linalg.norm(x, axis=axis), x, axis)
    if x.dtype.kind != "f":
        x = x.astype(float)
    flat = x.ravel(order="K")
    square = np.vdot(flat, flat)
    # math.sqrt rounds correctly, as np.sqrt does, and returns a float sooner;
    # a longdouble keeps its digits
    norm = math.sqrt(square) if type(square) is np.float64 else np.sqrt(square)
    if not SQRT_TINY < norm < math.inf:
        scale = np.max(np.abs(x), initial=0.0)
        with np.errstate(over="ignore"):        # a norm past the float range is inf
            norm = scale * np.linalg.norm(x / scale) if 0.0 < scale < math.inf else scale
    return float(norm) if type(norm) is np.float64 else norm


def _retaken(norms: np.ndarray, x: np.ndarray, axis) -> np.ndarray:
    """``norms`` of the slices of ``x`` along ``axis``; each out of (sqrt(tiny), inf)
    re-taken, but for a slice of zeros, whose norm 0 is exact."""
    out = ~((norms > SQRT_TINY) & (norms < math.inf))
    if out.any():
        slices = np.moveaxis(x, axis, range(-np.size(axis), 0))
        out[out] = slices[out].reshape(np.count_nonzero(out), -1).any(axis=1)
        for j in zip(*np.nonzero(out)):
            norms[j] = euclidean_norm(slices[j])
    return norms


def frobenius_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice of a C-contiguous stack, also where squares over- or underflow.

    One stacked product of each flattened slice with itself, in the order of
    numpy's ``dot`` and the precision of ``x``: bit for bit ``np.linalg.norm``
    of the slice where that lies in (sqrt(tiny), inf), and re-taken from the
    slice by :func:`euclidean_norm` elsewhere, as its axis branch does.
    """
    flat = x.reshape(len(x), -1)
    with np.errstate(over="ignore"):
        return _retaken(np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0]), x, (1, 2))


def composed_gram(matvec, rmatvec):
    """The ``gram`` of :func:`krylov_spectral_norm` for a map M given by its
    products with M and M^T: u -> 2^-e M (2^-e M^T u), whose products stay
    in range wherever those of 2^-e M do."""
    def gram(u, e):
        return np.ldexp(matvec(np.ldexp(rmatvec(u), -e)), -e)
    return gram


@np.errstate(over="ignore", invalid="ignore")
def krylov_spectral_norm(matvec, gram, dim_in: int) -> float:
    """Largest singular value of a linear map M, by Lanczos on its Gram map M M^T.

    ``matvec`` applies M to a vector of length ``dim_in``, and ``gram(u, e)``
    returns 2^-2e M M^T u, with e the exponent of the first ||M v||: the
    Gram map of 2^-e M, of order one, so nothing squares out of range.
    Lanczos starts from u = M v / ||M v||, v the normalized all-ones vector,
    where Golub-Kahan bidiagonalization starts. It keeps no basis: after k
    steps it holds the tridiagonal T_k (alphas on the diagonal, betas beside
    it), whose top eigenpair (theta, s) has the residual r = beta_k |s_k|,
    and returns sqrt(theta) 2^e once theta has converged: once r is at most
    ``SPECTRAL_TOL`` times theta; once r^2 <= u theta (theta - theta_2),
    u = 2^-53 and theta_2 the next Ritz value, the Kato-Temple estimate of
    the error of theta held at unit roundoff (where the Ritz gap overstates
    the true one, the error still stays below r, at most sqrt(u) theta); or
    once theta_2 lies within ``SPECTRAL_TOL`` times theta of theta: without
    reorthogonalization, Lanczos repeats a converged value, and two such
    eigenvectors combine into one with zero last entry, whose residual is
    at most their spread. Without reorthogonalization the space need not
    be whole at k = min(dim_in, out_dim), which bounds the rank of M M^T,
    so Lanczos does not stop there unless beta is at most ``SPECTRAL_TOL``
    times the largest alpha (the space is exhausted) or the domain is
    one-dimensional. An estimate still unconverged at that k forms
    2^-2e M M^T instead, by ``gram`` on one identity column at a time, where
    out_dim is at most ``KRYLOV_MAX_STEPS`` (a matrix of at most 8 MB), and
    returns the root of the top eigenvalue of its symmetric part from
    ``np.linalg.eigvalsh``, times 2^e: the norm itself, up to rounding. A
    larger out_dim runs on to :class:`NoConvergence`. One closure rule covers a space that closes sooner (a
    tiny beta, or M v = 0), which may miss the top direction, as the
    all-ones start does on the upper LU map of a triangle of ones: the
    estimate runs once more from a seeded Gaussian start, in general
    position, and the larger value is returned. Either value is the norm of
    a compression of M, so a lower estimate. A map that overflows on a
    numerically singular factor raises :class:`NormOverflow`.
    """
    if dim_in == 0:
        return 0.0
    norm, closed = _lanczos(matvec, gram, np.full(dim_in, 1.0 / math.sqrt(dim_in)))
    if closed:
        v = np.random.default_rng(0).standard_normal(dim_in)
        norm = max(norm, _lanczos(matvec, gram, v / euclidean_norm(v))[0])
    return norm


def _lanczos(matvec, gram, v):
    """``(estimate, closed)`` of :func:`krylov_spectral_norm` from the unit start ``v``."""
    u = matvec(v)
    steps, norm = min(v.size, u.size), euclidean_norm(u)
    if norm == 0.0:                 # closed at once, unless M has no outputs
        return 0.0, steps > 0
    if not math.isfinite(norm):
        raise NormOverflow("norm estimate overflows: a factor is numerically singular")
    e = math.frexp(norm)[1]
    u /= norm
    unit_roundoff = np.finfo(float).eps / 2
    previous = np.empty_like(u)      # the vector before u, then the buffer for alpha u
    alphas, betas = [], []
    scale = 0.0                      # largest alpha so far, a lower bound on ||T||
    for k in range(1, KRYLOV_MAX_STEPS + 1):
        w = gram(u, e)
        if betas:
            previous *= betas[-1]
            w -= previous
        alpha = float(u @ w)
        w -= np.multiply(alpha, u, out=previous)
        beta = euclidean_norm(w)
        if not math.isfinite(alpha + beta):
            raise NormOverflow("norm estimate overflows: a factor is numerically singular")
        alphas.append(alpha)
        scale = max(scale, alpha)
        exhausted = beta <= SPECTRAL_TOL * scale
        if exhausted or k == steps or k % KRYLOV_CHECK_STEPS == 0 or k == KRYLOV_MAX_STEPS:
            theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))
            top = theta[-1]
            residual = beta * abs(s[-1, -1])
            if (exhausted or steps == 1 or residual <= SPECTRAL_TOL * top or k > 1 and (
                    theta[-2] >= top - SPECTRAL_TOL * top
                    or residual * residual <= unit_roundoff * top * (top - theta[-2]))):
                return _scaled_root(top, e), exhausted and k < steps
            if k == steps and u.size <= KRYLOV_MAX_STEPS:
                return _formed_gram_norm(gram, u.size, e), False
        betas.append(beta)
        w /= beta
        previous, u = u, w
    raise NoConvergence(KRYLOV_MAX_STEPS)


def _formed_gram_norm(gram, out_dim: int, e: int) -> float:
    """sqrt of the top eigenvalue of 2^-2e M M^T, formed by ``gram`` one column
    at a time and symmetrized, times 2^e."""
    g = np.empty((out_dim, out_dim))
    column = np.zeros(out_dim)
    for j in range(out_dim):
        column[j] = 1.0
        g[:, j] = gram(column, e)
        column[j] = 0.0
    if not np.isfinite(g).all():
        raise NormOverflow("norm estimate overflows: a factor is numerically singular")
    return _scaled_root(max(float(np.linalg.eigvalsh(0.5 * (g + g.T))[-1]), 0.0), e)


def _scaled_root(top: float, e: int) -> float:
    try:
        return math.ldexp(math.sqrt(top), e)
    except OverflowError:
        raise NormOverflow("norm estimate overflows") from None


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
        m = a if a.shape[0] <= a.shape[1] else a.T      # the Gram map on the smaller side
        return krylov_spectral_norm(m.__matmul__, composed_gram(m.__matmul__, m.T.__matmul__),
                                    m.shape[1])
    norm = float(np.linalg.svd(a, compute_uv=False)[0])
    if not math.isfinite(norm):
        raise NormOverflow("spectral norm overflows")
    return norm
