"""Perturbation bounds for the pivot-free LU factorization.

For A = LU with a normwise perturbation of Frobenius size delta, the
first-order changes of the factors are linear images of vec(dA), so the bound
machinery is built from two masked-sandwich operators:

* the lower map sends vec(dA) to slvec(dL), the strict lower triangle of
  L * slt(L^{-1} dA [U_{n-1}^{-1} 0; 0 0]): one term (L^{-1}, the padded
  U_{n-1}^{-1}), the strict-lower mask, and L on the left;
* the upper map sends vec(dA) to uvec(dU), the upper triangle of
  ut(L^{-1} dA U^{-1}) * U: one term (L^{-1}, U^{-1}), the upper mask, and U
  on the right.

A fixed-point argument turns the operator norms into rigorous bounds, each the
smaller root of a Lyapunov majorant that :func:`majorant` solves for the whole
package; the normwise ones hold while the product of the two norms times delta
stays below 1/4. Componentwise perturbations within the backward-error envelope
eps * |L~| |U~| of Gaussian elimination go through the entrywise absolute
values of the materialized maps. Each report is built once per factorization,
from the factors and their cached inverses, as a function of the size.
Comparison bounds in the style of Chang and Stehle, at the column-norm scaling
of L and the row-norm scaling of U, measure the tightness of the bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dense
from .dense import LuFactors
from .errors import ZeroVector, check_size
from .structured import (
    StructuredOperator,
    operator_materialize,
    operator_spectral_norm,
    vec,
)

#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0 ** -53


def gaussian_elimination_epsilon(n: int, u: float = UNIT_ROUNDOFF) -> float:
    """Backward-error constant n*u / (1 - n*u) of Gaussian elimination."""
    return n * u / (1.0 - n * u)


@dataclass(frozen=True)
class ScalingMatrix:
    """Positive diagonal scaling, stored as its diagonal."""

    diagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        if d.ndim != 1 or d.size == 0 or not np.all(d > 0.0):
            raise ValueError("scaling diagonal must be a 1-D positive vector")
        object.__setattr__(self, "diagonal", d)


def heuristic_scaling(m, mode: str) -> ScalingMatrix:
    """Diagonal of column (or row) 2-norms, the scaling used in the experiments."""
    m = np.asarray(m, dtype=float)
    if mode == "columns":
        norms = np.linalg.norm(m, axis=0)
    elif mode == "rows":
        norms = np.linalg.norm(m, axis=1)
    else:
        raise ValueError(f"mode must be 'columns' or 'rows', got {mode!r}")
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]) + 1)
    return ScalingMatrix(diagonal=norms)


def majorant(a: float, b: float, c: float):
    """Smaller root of the Lyapunov majorant c rho^2 - b rho + a = 0.

    Every rigorous bound is this root for its own size-dependent a, b, c.
    Returns ``(applicable, rigorous, relaxed)``: the fixed-point argument
    applies iff b > 0 and b^2 > 4ac; then ``rigorous`` is the root in the
    cancellation-free form 2a / (b + sqrt(b^2 - 4ac)) and ``relaxed`` is 2a / b.
    Both bounds are ``None`` otherwise.
    """
    four_ac = 4.0 * a * c
    if not (b > 0.0 and b * b > four_ac):
        return False, None, None
    return True, 2.0 * a / (b + math.sqrt(b * b - four_ac)), 2.0 * a / b


def lower_factor_operator(factors: LuFactors) -> StructuredOperator:
    """Map from vec(dA) to slvec(dL), the first-order change of the unit lower factor."""
    n = factors.l.shape[0]
    pad = np.zeros((n, n))
    pad[: n - 1, : n - 1] = factors.u_lead_inv
    return StructuredOperator(terms=((factors.l_inv, pad, False),),
                              weights=np.tril(np.ones((n, n)), -1), left=factors.l)


def upper_factor_operator(factors: LuFactors) -> StructuredOperator:
    """Map from vec(dA) to uvec(dU), the first-order change of the upper factor."""
    n = factors.l.shape[0]
    return StructuredOperator(terms=((factors.l_inv, factors.u_inv, False),),
                              weights=np.triu(np.ones((n, n))), right=factors.u)


@dataclass(frozen=True)
class LuNormwiseReport:
    """Normwise LU bound report.

    Rigorous and relaxed bounds are ``None`` when the applicability condition
    fails; a rigorous bound asserted outside its hypothesis would be a
    correctness bug. First-order values are present whenever the weaker
    first-order condition holds, flagged separately.
    """

    delta: float
    l_op_norm: float
    u_op_norm: float
    condition_value: float          # l_op_norm * u_op_norm * delta, gate < 1/4
    applicable: bool
    rigorous_dl: float | None
    rigorous_du: float | None
    relaxed_dl: float | None        # 2 * l_op_norm * delta
    relaxed_du: float | None
    fo_condition_value: float       # ||L^-1||_2 ||U^-1||_2 delta, gate < 1
    fo_applicable: bool
    first_order_dl: float | None    # l_op_norm * delta
    first_order_du: float | None
    comparison_dl: float            # scaled-condition-number bound for dL
    comparison_du: float
    comparison_applicable: bool     # fo_condition_value < 1/4


def chang_stehle_lu(factors: LuFactors, delta: float,
                    d_l: ScalingMatrix, d_u: ScalingMatrix):
    """Normwise comparison bounds built from scaled condition numbers.

    Returns ``(bound_dl, bound_du, applicable)`` where the bounds are
    2 * kappa2(L D_l^-1) * ||U_{n-1}^-1||_2 * delta and
    2 * kappa2(D_u^-1 U) * ||L^-1||_2 * delta, and the applicability gate is
    ||L^-1||_2 ||U^-1||_2 delta < 1/4. The infimum over all positive diagonal
    scalings is approximated by the supplied ones, as in the experiments.
    """
    dl_per_delta, du_per_delta, inverse_norms = _chang_stehle_lu_constants(factors, d_l, d_u)
    return dl_per_delta * delta, du_per_delta * delta, inverse_norms * delta < 0.25


def _chang_stehle_lu_constants(factors: LuFactors, d_l: ScalingMatrix, d_u: ScalingMatrix):
    """:func:`chang_stehle_lu` per unit delta, and ||L^-1||_2 ||U^-1||_2."""
    linv_norm = dense.spectral_norm(factors.l_inv)
    uinv_norm = dense.spectral_norm(factors.u_inv)
    un1_inv_norm = dense.spectral_norm(factors.u_lead_inv)
    kappa_l = dense.kappa2_triangular(factors.l / d_l.diagonal[None, :], "lower")
    kappa_u = dense.kappa2_triangular(factors.u / d_u.diagonal[:, None], "upper")
    return 2.0 * kappa_l * un1_inv_norm, 2.0 * kappa_u * linv_norm, linv_norm * uinv_norm


def lu_normwise_bounds(factors: LuFactors, delta: float) -> LuNormwiseReport:
    """Evaluate the normwise LU bounds for a perturbation of Frobenius size delta.

    The comparison bounds use the column-norm scaling of L and the row-norm
    scaling of U.
    """
    check_size(delta, "delta")
    return _lu_normwise_evaluator(factors)(delta)


def _lu_normwise_evaluator(factors: LuFactors):
    """Build the delta-free part of :func:`lu_normwise_bounds` and return the
    function that evaluates the report at one delta."""
    nl = operator_spectral_norm(lower_factor_operator(factors))
    nu = operator_spectral_norm(upper_factor_operator(factors))
    comparison_dl, comparison_du, inverse_norms = _chang_stehle_lu_constants(
        factors, heuristic_scaling(factors.l, "columns"), heuristic_scaling(factors.u, "rows"))

    def report(delta: float) -> LuNormwiseReport:
        condition = nl * nu * delta
        ok_l, rigorous_dl, relaxed_dl = majorant(nl * delta, 1.0, nu)
        ok_u, rigorous_du, relaxed_du = majorant(nu * delta, 1.0, nl)
        # the gate stays condition < 1/4, also where rounding lets the majorants pass
        applicable = condition < 0.25 and ok_l and ok_u
        fo_condition = inverse_norms * delta
        fo_applicable = fo_condition < 1.0
        return LuNormwiseReport(
            delta=delta,
            l_op_norm=nl,
            u_op_norm=nu,
            condition_value=condition,
            applicable=applicable,
            rigorous_dl=rigorous_dl if applicable else None,
            rigorous_du=rigorous_du if applicable else None,
            relaxed_dl=relaxed_dl if applicable else None,
            relaxed_du=relaxed_du if applicable else None,
            fo_condition_value=fo_condition,
            fo_applicable=fo_applicable,
            first_order_dl=nl * delta if fo_applicable else None,
            first_order_du=nu * delta if fo_applicable else None,
            comparison_dl=comparison_dl * delta,
            comparison_du=comparison_du * delta,
            comparison_applicable=fo_condition < 0.25,
        )

    return report


@dataclass(frozen=True)
class LuComponentwiseReport:
    """Componentwise LU bound report for perturbations |dA| <= eps |L~||U~|.

    ``a``, ``b`` are the Frobenius norms of the absolute operators applied to
    the backward-error envelope, ``c = b * ||abs lower op||_2 -
    a * ||abs upper op||_2``; ``c`` and ``tau = c * eps`` keep their sign and
    both sign cases flow through the bound formulas as written.
    """

    epsilon: float
    a: float
    b: float
    c: float
    abs_l_op_norm: float
    abs_u_op_norm: float
    applicable: bool                # |c| eps < 1 and 4 a ||abs upper|| eps < (1 - c eps)^2
    rigorous_dl: float | None
    rigorous_du: float | None
    relaxed_dl: float | None        # 2 a eps / (1 - c eps)
    relaxed_du: float | None        # 2 b eps / (1 + c eps)
    first_order_dl_f: float         # a * eps
    first_order_du_f: float         # b * eps
    first_order_dl_m: float
    first_order_du_m: float
    first_order_dl_s: float
    first_order_du_s: float
    gamma_l: float
    gamma_l_d: float
    gamma_u: float
    gamma_u_d: float
    eta_dl: float
    eta_du: float
    tau: float
    comparison_dl: float
    comparison_du: float
    comparison_applicable: bool
    t_gamma: float                  # seconds spent on the operator-norm quantities
    t_gamma_d: float                # seconds spent on the scaled comparison quantities


def lu_componentwise_bounds(tilde_factors: LuFactors, epsilon: float) -> LuComponentwiseReport:
    """Evaluate the componentwise LU bounds at the computed factors.

    ``tilde_factors`` are the factors of the perturbed matrix (for rounding
    analysis: the computed factors), and the perturbation model is
    |dA| <= epsilon * |L~| |U~|. Needs the absolute value of the two factor
    maps, hence dense materialization; raises AbsOperatorTooLarge above
    ``EXPLICIT_THRESHOLD``. The comparison quantities use the column-norm
    scaling of L~ and the row-norm scaling of U~.
    """
    check_size(epsilon, "epsilon")
    return _lu_componentwise_evaluator(tilde_factors)(epsilon)


def _lu_componentwise_evaluator(tilde_factors: LuFactors):
    """Build the epsilon-free part of :func:`lu_componentwise_bounds`: the
    materialized maps, their images of the envelope, and the comparison
    norms. Returns the function that evaluates the report at one epsilon."""
    lt, ut = tilde_factors.l, tilde_factors.u

    t0 = time.perf_counter()
    abs_lower = np.abs(operator_materialize(lower_factor_operator(tilde_factors)))
    abs_upper = np.abs(operator_materialize(upper_factor_operator(tilde_factors)))
    venv = vec(np.abs(lt) @ np.abs(ut))
    lower_image = abs_lower @ venv
    upper_image = abs_upper @ venv
    a = float(np.linalg.norm(lower_image))
    b = float(np.linalg.norm(upper_image))
    n_abs_l = dense.spectral_norm(abs_lower)
    n_abs_u = dense.spectral_norm(abs_upper)
    c = b * n_abs_l - a * n_abs_u
    max_l = float(np.max(lower_image)) if lower_image.size else 0.0
    max_u = float(np.max(upper_image)) if upper_image.size else 0.0
    sum_l = float(np.sum(lower_image))
    sum_u = float(np.sum(upper_image))
    lt_fro = float(np.linalg.norm(lt))
    ut_fro = float(np.linalg.norm(ut))
    t_gamma = time.perf_counter() - t0

    t1 = time.perf_counter()
    d_l = heuristic_scaling(lt, "columns")
    d_u = heuristic_scaling(ut, "rows")
    abs_linv_l = np.abs(tilde_factors.l_inv) @ np.abs(lt)
    abs_u_uinv = np.abs(ut) @ np.abs(tilde_factors.u_inv)
    abs_un1_fro = float(np.linalg.norm(np.abs(ut[:-1, :-1]) @ np.abs(tilde_factors.u_lead_inv)))

    l_scaled = lt / d_l.diagonal[None, :]
    u_scaled = ut / d_u.diagonal[:, None]
    l_scaled_norm = dense.spectral_norm(l_scaled)
    u_scaled_norm = dense.spectral_norm(u_scaled)
    gamma_l_d = (l_scaled_norm
                 * dense.spectral_norm(d_l.diagonal[:, None] * abs_linv_l)
                 * abs_un1_fro) / lt_fro
    gamma_u_d = (u_scaled_norm
                 * dense.spectral_norm(abs_u_uinv * d_u.diagonal[None, :])
                 * float(np.linalg.norm(abs_linv_l))) / ut_fro
    eta_dl = dense.spectral_norm(np.abs(lt) / d_l.diagonal[None, :]) / l_scaled_norm
    eta_du = dense.spectral_norm(np.abs(ut) / d_u.diagonal[:, None]) / u_scaled_norm
    comparison_norms = dense.spectral_norm(abs_linv_l) * dense.spectral_norm(abs_u_uinv)
    t_gamma_d = time.perf_counter() - t1

    def report(epsilon: float) -> LuComponentwiseReport:
        ce = c * epsilon
        ok_l, rigorous_dl, relaxed_dl = majorant(a * epsilon, 1.0 - ce, n_abs_u)
        ok_u, rigorous_du, relaxed_du = majorant(b * epsilon, 1.0 + ce, n_abs_l)
        applicable = ok_l and ok_u
        return LuComponentwiseReport(
            epsilon=epsilon,
            a=a, b=b, c=c,
            abs_l_op_norm=n_abs_l,
            abs_u_op_norm=n_abs_u,
            applicable=applicable,
            rigorous_dl=rigorous_dl if applicable else None,
            rigorous_du=rigorous_du if applicable else None,
            relaxed_dl=relaxed_dl if applicable else None,
            relaxed_du=relaxed_du if applicable else None,
            first_order_dl_f=a * epsilon,
            first_order_du_f=b * epsilon,
            first_order_dl_m=max_l * epsilon,
            first_order_du_m=max_u * epsilon,
            first_order_dl_s=sum_l * epsilon,
            first_order_du_s=sum_u * epsilon,
            gamma_l=(a / (1.0 - ce)) / lt_fro,
            gamma_l_d=gamma_l_d,
            gamma_u=(b / (1.0 + ce)) / ut_fro,
            gamma_u_d=gamma_u_d,
            eta_dl=eta_dl,
            eta_du=eta_du,
            tau=ce,
            comparison_dl=2.0 * epsilon * gamma_l_d * lt_fro,
            comparison_du=2.0 * epsilon * gamma_u_d * ut_fro,
            comparison_applicable=comparison_norms * epsilon < 0.25,
            t_gamma=t_gamma,
            t_gamma_d=t_gamma_d,
        )

    return report


def worst_case_m_norm_perturbation(tilde_factors: LuFactors, epsilon: float,
                                   target: str) -> np.ndarray:
    """Perturbation attaining the first-order max-entry bound for one factor.

    The extremal dA has vec(dA) = eps * sign(row_k) * vec(|L~||U~|) entrywise,
    where row_k is the row of the factor map whose absolute image of the
    envelope is largest. ``target`` is ``"L"`` or ``"U"``. The map is
    materialized, so this raises AbsOperatorTooLarge above
    ``EXPLICIT_THRESHOLD``.
    """
    check_size(epsilon, "epsilon")
    lt, ut = tilde_factors.l, tilde_factors.u
    n = lt.shape[0]
    if target == "L":
        op = lower_factor_operator(tilde_factors)
    elif target == "U":
        op = upper_factor_operator(tilde_factors)
    else:
        raise ValueError(f"target must be 'L' or 'U', got {target!r}")
    rows = operator_materialize(op)
    venv = vec(np.abs(lt) @ np.abs(ut))
    image = np.abs(rows) @ venv
    if rows.shape[0] == 0:
        return np.zeros((n, n))
    k = int(np.argmax(image))
    # Entries where the extremal row vanishes do not affect attainment; give
    # them sign +1 so the perturbation saturates the whole envelope.
    signs = np.where(rows[k] >= 0.0, 1.0, -1.0)
    delta_vec = epsilon * signs * venv
    return delta_vec.reshape((n, n), order="F")
