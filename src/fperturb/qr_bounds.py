"""Perturbation bounds for the triangular factor of the QR factorization.

Two masked-sandwich operators drive everything. The linear map sends
X = Q^T dA to uvec(dR) at first order,

    dR = up(X R^{-1} + R^{-T} X^T) R = up(Z + Z^T) R,  Z = X R^{-1},

with the sandwich (I, R^{-1}) symmetrized, the mask of ``up`` (the upper
triangle with the diagonal halved) and R on the right; the quadratic map
up(R^{-T} X R^{-1}) R, the sandwich (R^{-T}, R^{-1}) with the same mask and
outer factor, absorbs the second-order terms dA^T dA - dR^T dR. A fixed-point
argument then yields rigorous bounds whenever
||quad|| (||lin|| d2 + ||quad|| d2^2) < 1/4, where d2 = ||dA||_F: the root of
``lu_bounds.majorant`` at (||lin|| d1 + ||quad|| d2^2, 1, ||quad||), with
d1 = ||Q^T dA||_F <= d2. Each report has a public evaluator, which builds its
size-free part once per factorization, whose R^{-1} is cached, and returns
the report as a function of the size.

Componentwise perturbations |dA| <= eps C |A| route through the entrywise
absolute values of the two maps weighted by Kronecker factors of |R|.
Every coefficient of either map is one entry of an n-by-n block per output
row, or a product of such an entry with an entry of R^{-1} or R, so its
absolute value is taken entry by entry; :func:`absolute_r_maps` applies the
absolute maps matrix-free from two n^3 stacks of those blocks, at O(n^3)
per product with a map or its transpose. The scaled comparison bounds of
Chang and Stehle (SIMAX 2010) measure tightness at the two scalings of the
experiments: row 2-norms (``heuristic_scaling(r, "rows")``) and the recursive
equilibration built from row 1-norms, each a positive diagonal.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dense
from .dense import EXPLICIT_THRESHOLD, QrFactors
from .errors import AbsOperatorTooLarge, check_size
from .lu_bounds import heuristic_scaling, majorant
from .structured import StructuredOperator, operator_spectral_norm, vec

SQRT6_PLUS_SQRT3 = math.sqrt(6.0) + math.sqrt(3.0)
#: applicability gate of the comparison bounds
COMPARISON_GATE = math.sqrt(1.5) - 1.0


def _up_mask(n: int) -> np.ndarray:
    """Mask of ``up``: ones above the diagonal, halves on it."""
    return np.triu(np.ones((n, n)), 1) + 0.5 * np.eye(n)


def r_factor_operator(factors: QrFactors) -> StructuredOperator:
    """Map from vec(Q^T dA) to uvec(dR), the first-order change of R."""
    r, rinv = factors.r, factors.r_inv
    return StructuredOperator(weights=_up_mask(r.shape[0]), b=rinv, symmetric=True, right=r)


def r_quadratic_operator(factors: QrFactors) -> StructuredOperator:
    """Map absorbing the quadratic terms dA^T dA - dR^T dR into uvec(dR)."""
    r, rinv = factors.r, factors.r_inv
    return StructuredOperator(weights=_up_mask(r.shape[0]), a=rinv.T, b=rinv, right=r)


def zeta(d: np.ndarray) -> float:
    """max over i < j of d_j / d_i for the diagonal d; below 1 when it decreases."""
    if d.size < 2:
        return 0.0
    return float(np.max(d[1:] / np.minimum.accumulate(d)[:-1]))


def scaling_d_e(factors: QrFactors) -> np.ndarray:
    """Recursive equilibration scaling of R built from row 1-norms.

    With M = diag(row 1-norms) @ inv(R), the j-th diagonal entry is the
    reciprocal of the j-th column norm of M whenever those column norms are
    nondecreasing, and repeats the previous entry otherwise.
    """
    r = factors.r
    dc = np.sum(np.abs(r), axis=1)
    m = dc[:, None] * factors.r_inv
    col_norms = dense.euclidean_norm(m, axis=0)
    n = r.shape[0]
    out = np.empty(n)
    out[0] = 1.0 / col_norms[0]
    for j in range(1, n):
        out[j] = 1.0 / col_norms[j] if col_norms[j] >= col_norms[j - 1] else out[j - 1]
    return out


@dataclass(frozen=True)
class QrNormwiseReport:
    """Normwise QR bound report; delta1 = ||Q^T dA||_F, delta2 = ||dA||_F."""

    delta1: float
    delta2: float
    linear_op_norm: float
    quadratic_op_norm: float
    condition_value: float            # quad*(lin*d2 + quad*d2^2), gate < 1/4
    strengthened_condition_value: float  # quad*(1 + 2*lin)*d2, gate < 1/2
    applicable: bool
    rigorous_dr: float | None
    relaxed_dr: float | None
    simple_dr: float | None           # (1 + 2*lin) * d2
    first_order_dr: float             # lin * d1
    comparison_dr: float
    comparison_applicable: bool
    zeta_d: float


def qr_normwise_bounds(factors: QrFactors, delta1: float, delta2: float) -> QrNormwiseReport:
    """Evaluate the normwise bounds for the triangular factor.

    ``delta1`` may exceed ``delta2`` only by rounding noise; it is clamped,
    since ||Q^T dA||_F <= ||dA||_F holds exactly for orthonormal columns.
    """
    check_size(delta1, "delta1")
    check_size(delta2, "delta2")
    if delta1 > delta2 * (1.0 + 1e-12):
        raise ValueError("delta1 cannot exceed delta2")
    return qr_normwise_evaluator(factors)(min(delta1, delta2), delta2)


def qr_normwise_evaluator(factors: QrFactors):
    """Build the size-free part of the normwise QR report and return the
    function that evaluates the report at (delta1, delta2), delta1 <= delta2.
    ``delta1`` may be an array, such as the ||Q^T dA||_F of a block of
    trials: the fields that depend on it (``delta1``, ``rigorous_dr``,
    ``relaxed_dr`` and ``first_order_dr``) are then arrays with the bits of
    the report at each element, NaN for ``None`` (:func:`majorant`).

    The comparison bound is (sqrt6 + sqrt3) sqrt(1 + zeta^2) kappa2(D^-1 R)
    delta2, with D the row norms of R and (D^-1 R)^-1 = R^-1 D. Its gate is
    ||R^-1||_2 delta2 < sqrt(3/2) - 1.
    """
    lin = operator_spectral_norm(r_factor_operator(factors))
    quad = operator_spectral_norm(r_quadratic_operator(factors))
    d = heuristic_scaling(factors.r, "rows")
    zeta_d = zeta(d)
    kappa = (dense.spectral_norm(factors.r / d[:, None])
             * dense.spectral_norm(factors.r_inv * d[None, :]))
    comparison = SQRT6_PLUS_SQRT3 * math.sqrt(1.0 + zeta_d * zeta_d) * kappa
    rinv_norm = dense.spectral_norm(factors.r_inv)

    def report(delta1: float, delta2: float) -> QrNormwiseReport:
        condition = quad * (lin * delta2 + quad * delta2 * delta2)
        applicable = condition < 0.25
        # the gate at delta2 implies the majorant's own gate at delta1 <= delta2
        _, rigorous, relaxed = majorant(lin * delta1 + quad * delta2 * delta2, 1.0, quad)
        return QrNormwiseReport(
            delta1=delta1,
            delta2=delta2,
            linear_op_norm=lin,
            quadratic_op_norm=quad,
            condition_value=condition,
            strengthened_condition_value=quad * (1.0 + 2.0 * lin) * delta2,
            applicable=applicable,
            rigorous_dr=rigorous if applicable else None,
            relaxed_dr=relaxed if applicable else None,
            simple_dr=(1.0 + 2.0 * lin) * delta2 if applicable else None,
            first_order_dr=lin * delta1,
            comparison_dr=comparison * delta2,
            comparison_applicable=rinv_norm * delta2 < COMPARISON_GATE,
            zeta_d=zeta_d,
        )

    return report


@dataclass(frozen=True)
class QrComponentwiseReport:
    """Componentwise QR bound report for perturbations |dA| <= eps C |A|."""

    epsilon: float
    a_t: float            # ||abs(lin map) weighted by |R^T| kron I||_2 * || |Q^T| C |Q| ||_F
    b_t: float            # ||abs(quad map) weighted by |R^T| kron |R^T|||_2 * || |Q^T| C^T C |Q| ||_F
    c_t: float            # ||abs(quad map)||_2
    applicable: bool      # c_t (a_t eps + b_t eps^2) < 1/4
    strengthened_value: float  # gate < 1/2
    rigorous_dr: float | None
    relaxed_dr: float | None
    simple_dr: float | None
    first_order_dr: float      # a_t * eps
    comparison_dr_row: float   # at the row-norm scaling
    comparison_dr_eq: float    # at the equilibration scaling
    comparison_applicable: bool
    q_ratio: float
    gamma_r: float
    gamma_r_dr: float
    gamma_r_de: float
    eta_dr: float
    eta_de: float
    t_gamma: float
    t_gamma_dr: float
    t_gamma_de: float


def absolute_r_maps(factors: QrFactors) -> dict:
    """Entrywise absolute values of the two R maps, applied matrix-free.

    Returns ``{name: (matvec, rmatvec)}`` for ``"lin"`` = |lin|, ``"quad"`` =
    |quad| and the weighted ``"lin_weighted"`` = |lin| (|R^T| kron I) and
    ``"quad_weighted"`` = |quad| (|R^T| kron |R^T|). Each matvec takes vec(X)
    and returns uvec of the image; each rmatvec is its transpose.

    With S = R^{-1} and F_i = S[:, i:] R[i:, :], the coefficient of X[a, p]
    in the (i, j) entry of the linear map is F_i[p, j] for a = i (the halved
    diagonal of ``up`` and the transposed term merged exactly), S[p, i] R[a, j]
    for a > i and 0 for a < i. In the quadratic map it is S[a, i] G_i[p, j],
    with G_i = F_i - S[:, i] R[i, :] / 2. The stacks |F| and |G| are built
    once in O(n^3) from a backward sum of outer products, and each product
    with a map costs O(n^3). The weights act on X: |lin| (|R^T| kron I) is
    |lin| at X |R|, and |quad| (|R^T| kron |R^T|) is |quad| at |R|^T X |R|.
    Raises AbsOperatorTooLarge when n^3 exceeds ``EXPLICIT_THRESHOLD``^2,
    the largest dense block that materialization allows.
    """
    r = factors.r
    n = r.shape[0]
    if n ** 3 > EXPLICIT_THRESHOLD ** 2:
        raise AbsOperatorTooLarge(
            f"order {n} needs {n ** 3} stacked entries, above {EXPLICIT_THRESHOLD ** 2}")
    s = factors.r_inv
    abs_f = np.empty((n, n, n))
    abs_g = np.empty((n, n, n))
    f = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        outer = np.outer(s[:, i], r[i, :])
        f += outer
        np.abs(f, out=abs_f[i])
        np.abs(f - 0.5 * outer, out=abs_g[i])
    absr, abss = np.abs(r), np.abs(s)
    absrs = absr @ abss
    cols, rows = np.tril_indices(n)  # the (i, j) with i <= j, column by column

    def lin(x):
        return (np.matmul(x[:, None, :], abs_f)[:, 0, :]
                + np.tril(x @ abss, -1).T @ absr)

    def lin_t(y):
        return (np.matmul(abs_f, y[:, :, None])[:, :, 0]
                + np.tril(absr @ y.T, -1) @ abss.T)

    def quad(z):        # |quad| at X with z = |S|^T X
        return np.matmul(z[:, None, :], abs_g)[:, 0, :]

    def quad_t(y):      # |quad|^T with its factor |S| left off
        return np.matmul(abs_g, y[:, :, None])[:, :, 0]

    def on_vectors(apply, apply_t):
        def matvec(v):
            return apply(v.reshape((n, n), order="F"))[rows, cols]

        def rmatvec(u):
            y = np.zeros((n, n))
            y[rows, cols] = u
            return vec(apply_t(y))
        return matvec, rmatvec

    return {
        "lin": on_vectors(lin, lin_t),
        "quad": on_vectors(lambda x: quad(abss.T @ x), lambda y: abss @ quad_t(y)),
        "lin_weighted": on_vectors(lambda x: lin(x @ absr),
                                   lambda y: lin_t(y) @ absr.T),
        # |S|^T |R|^T X |R| = (|R| |S|)^T X |R|, whose first product is of
        # order one where |R|^T X alone may fall below the normal range
        "quad_weighted": on_vectors(lambda x: quad(absrs.T @ x @ absr),
                                    lambda y: absrs @ quad_t(y) @ absr.T),
    }


def componentwise_operator_norms(factors: QrFactors):
    """Weighted absolute-operator norms entering the componentwise bounds.

    Returns ``(abs_lin_weighted, abs_quad_weighted, abs_quad)``:
    || |lin| (|R^T| kron I) ||_2, || |quad| (|R^T| kron |R^T|) ||_2 and
    || |quad| ||_2, each from the Krylov estimator on the Gram map composed
    of the matrix-free maps of :func:`absolute_r_maps`, which raises
    AbsOperatorTooLarge for an order above 256.
    """
    maps = absolute_r_maps(factors)
    dim_in = factors.r.shape[0] ** 2
    return tuple(dense.krylov_spectral_norm(maps[name][0], dense.composed_gram(*maps[name]),
                                            dim_in)
                 for name in ("lin_weighted", "quad_weighted", "quad"))


def qr_componentwise_bounds(factors: QrFactors, c, epsilon: float) -> QrComponentwiseReport:
    """Evaluate the componentwise bounds for |dA| <= epsilon * C * |A|.

    ``c`` is the nonnegative envelope matrix with entries in [0, 1]. The
    comparison bounds are evaluated at the row-norm and the equilibration
    scalings of R.
    """
    check_size(epsilon, "epsilon")
    return qr_componentwise_evaluator(factors, c)(epsilon)


def qr_componentwise_evaluator(factors: QrFactors, c):
    """Build the epsilon-free part of the componentwise QR report for the
    envelope ``c`` and return the function that evaluates the report at one
    epsilon."""
    c = np.asarray(c, dtype=float)
    if np.any(c < 0.0) or np.any(c > 1.0):
        raise ValueError("envelope entries must lie in [0, 1]")
    q, r = factors.q, factors.r
    if c.shape != (q.shape[0], q.shape[0]):
        raise ValueError(f"envelope must be {q.shape[0]}x{q.shape[0]}, got {c.shape}")

    t0 = time.perf_counter()
    absq = np.abs(q)
    c_env_norm = dense.euclidean_norm(c @ absq)           # ||C|Q|||_F
    qcq_norm = dense.euclidean_norm(absq.T @ c @ absq)    # || |Q^T| C |Q| ||_F
    qccq_norm = dense.euclidean_norm(absq.T @ (c.T @ c) @ absq)
    lin_w, quad_w, quad_abs = componentwise_operator_norms(factors)
    a_t = lin_w * qcq_norm
    b_t = quad_w * qccq_norm
    c_t = quad_abs
    absr_norm = dense.spectral_norm(np.abs(r))
    r_norm = dense.spectral_norm(r)
    simple_per_eps = absr_norm * c_env_norm + 2.0 * a_t
    q_ratio = qcq_norm / c_env_norm if c_env_norm > 0.0 else 0.0
    t_gamma = time.perf_counter() - t0

    t1 = time.perf_counter()
    abs_r_rinv = np.abs(r) @ np.abs(factors.r_inv)
    comparison_gate = dense.spectral_norm(abs_r_rinv) * c_env_norm
    prod_row, eta_dr = _comparison_product(r, abs_r_rinv, heuristic_scaling(r, "rows"),
                                           c_env_norm)
    t_gamma_dr = time.perf_counter() - t1

    t2 = time.perf_counter()
    prod_eq, eta_de = _comparison_product(r, abs_r_rinv, scaling_d_e(factors), c_env_norm)
    t_gamma_de = time.perf_counter() - t2

    def report(epsilon: float) -> QrComponentwiseReport:
        applicable, rigorous, relaxed = majorant(a_t * epsilon + b_t * epsilon * epsilon,
                                                 1.0, c_t)
        return QrComponentwiseReport(
            epsilon=epsilon,
            a_t=a_t, b_t=b_t, c_t=c_t,
            applicable=applicable,
            strengthened_value=c_t * simple_per_eps * epsilon,
            rigorous_dr=rigorous,
            relaxed_dr=relaxed,
            simple_dr=simple_per_eps * epsilon if applicable else None,
            first_order_dr=a_t * epsilon,
            comparison_dr_row=prod_row * epsilon,
            comparison_dr_eq=prod_eq * epsilon,
            comparison_applicable=comparison_gate * epsilon < COMPARISON_GATE,
            q_ratio=q_ratio,
            gamma_r=simple_per_eps / r_norm,
            gamma_r_dr=prod_row / r_norm,
            gamma_r_de=prod_eq / r_norm,
            eta_dr=eta_dr,
            eta_de=eta_de,
            t_gamma=t_gamma,
            t_gamma_dr=t_gamma_dr,
            t_gamma_de=t_gamma_de,
        )

    return report


def _comparison_product(r, abs_r_rinv, d: np.ndarray, c_env_norm: float):
    """Componentwise comparison bound per unit epsilon at the diagonal ``d``, and eta.

    The product is (sqrt6 + sqrt3) sqrt(1 + zeta^2) ||D^-1 R||_2
    || |R||R^-1| D ||_2 ||C|Q|||_F, the componentwise bound of Chang and
    Stehle without its epsilon; eta is ||D^-1 |R|||_2 / ||D^-1 R||_2, at
    least 1 for any positive diagonal D. Each spectral norm is computed once.
    """
    z = zeta(d)
    scaled_norm = dense.spectral_norm(r / d[:, None])
    product = (SQRT6_PLUS_SQRT3 * math.sqrt(1.0 + z * z)
               * scaled_norm
               * dense.spectral_norm(abs_r_rinv * d[None, :])
               * c_env_norm)
    eta = dense.spectral_norm(np.abs(r) / d[:, None]) / scaled_norm
    return product, eta
