"""Perturbation bounds for the pivot-free LU factorization.

For A = LU with a normwise perturbation of Frobenius size delta, the
first-order changes of the factors are linear images of vec(dA), so the bound
machinery is built from two masked-sandwich operators:

* the lower map sends vec(dA) to slvec(dL), the strict lower triangle of
  L * slt(L^{-1} dA [U_{n-1}^{-1} 0; 0 0]): the sandwich (L^{-1}, the padded
  U_{n-1}^{-1}), the strict-lower mask, and L on the left;
* the upper map sends vec(dA) to uvec(dU), the upper triangle of
  ut(L^{-1} dA U^{-1}) * U: the sandwich (L^{-1}, U^{-1}), the upper mask, and
  U on the right.

A fixed-point argument turns the operator norms into rigorous bounds, each the
smaller root of a Lyapunov majorant that :func:`majorant` solves for the whole
package; the normwise ones hold while the product of the two norms times delta
stays below 1/4. Componentwise perturbations within the backward-error envelope
eps * |L~| |U~| of Gaussian elimination go through the entrywise absolute
values of the materialized maps. Each report's evaluator builds its size-free
part once per factorization, from the factors and their cached inverses, and
returns the report as a function of the size. Comparison bounds in the style
of Chang and Stehle (SIMAX 2010), at the column-norm scaling of L and the
row-norm scaling of U, measure the tightness of the bounds.
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


def gaussian_elimination_epsilon(n: int) -> float:
    """Backward-error constant n*u / (1 - n*u) of Gaussian elimination, u = ``UNIT_ROUNDOFF``."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def heuristic_scaling(m, mode: str) -> np.ndarray:
    """Column (or row) 2-norms, the positive diagonal scaling of the experiments.

    Taken by :func:`dense.euclidean_norm`, so a norm whose squares underflow
    or overflow is still right. Raises :class:`ZeroVector` with the 1-based
    index of a zero column (row).
    """
    if mode not in ("columns", "rows"):
        raise ValueError(f"mode must be 'columns' or 'rows', got {mode!r}")
    m = np.asarray(m, dtype=float)
    norms = dense.euclidean_norm(m, axis=0 if mode == "columns" else 1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(int(zero[0]) + 1)
    return norms


def majorant(a, b, c):
    """Smaller root of the Lyapunov majorant c rho^2 - b rho + a = 0.

    Every rigorous bound is this root for its own size-dependent a, b, c.
    Returns ``(applicable, rigorous, relaxed)``: the fixed-point argument
    applies iff b > 0 and b^2 > 4ac; then ``rigorous`` is the root in the
    cancellation-free form 2a / (b + sqrt(b^2 - 4ac)) and ``relaxed`` is 2a / b.
    Both bounds are ``None`` otherwise. Given arrays, it returns arrays of
    the same bits, element by element, with NaN for ``None``: numpy's float64
    operations and ``np.sqrt`` round as Python's floats and ``math.sqrt`` do.
    """
    if np.ndim(a) or np.ndim(b) or np.ndim(c):
        with np.errstate(all="ignore"):     # silent, as Python's floats are
            four_ac = 4.0 * a * c
            applicable = (b > 0.0) & (b * b > four_ac)
            rigorous = 2.0 * a / (b + np.sqrt(b * b - four_ac))
            relaxed = 2.0 * a / b
        return (applicable, np.where(applicable, rigorous, math.nan),
                np.where(applicable, relaxed, math.nan))
    four_ac = 4.0 * a * c
    if not (b > 0.0 and b * b > four_ac):
        return False, None, None
    return True, 2.0 * a / (b + math.sqrt(b * b - four_ac)), 2.0 * a / b


def lower_factor_operator(factors: LuFactors) -> StructuredOperator:
    """Map from vec(dA) to slvec(dL), the first-order change of the unit lower factor."""
    n = factors.l.shape[0]
    pad = np.pad(factors.u_lead_inv, (0, 1))         # [U_{n-1}^{-1} 0; 0 0]
    return StructuredOperator(weights=np.tril(np.ones((n, n)), -1), a=factors.l_inv, b=pad,
                              left=factors.l)


def upper_factor_operator(factors: LuFactors) -> StructuredOperator:
    """Map from vec(dA) to uvec(dU), the first-order change of the upper factor."""
    n = factors.l.shape[0]
    return StructuredOperator(weights=np.triu(np.ones((n, n))), a=factors.l_inv,
                              b=factors.u_inv, right=factors.u)


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


def lu_normwise_bounds(factors: LuFactors, delta: float) -> LuNormwiseReport:
    """Evaluate the normwise LU bounds for a perturbation of Frobenius size delta."""
    check_size(delta, "delta")
    return lu_normwise_evaluator(factors)(delta)


def lu_normwise_evaluator(factors: LuFactors):
    """Build the delta-free part of the normwise LU report and return the
    function that evaluates the report at one delta.

    The comparison bounds are 2 kappa2(L D_l^-1) ||U_{n-1}^-1||_2 delta and
    2 kappa2(D_u^-1 U) ||L^-1||_2 delta, with D_l the column norms of L and
    D_u the row norms of U; (L D_l^-1)^-1 = D_l L^-1 and (D_u^-1 U)^-1 =
    U^-1 D_u. Their gate is ||L^-1||_2 ||U^-1||_2 delta < 1/4.
    """
    nl = operator_spectral_norm(lower_factor_operator(factors))
    nu = operator_spectral_norm(upper_factor_operator(factors))
    d_l = heuristic_scaling(factors.l, "columns")
    d_u = heuristic_scaling(factors.u, "rows")
    linv_norm = dense.spectral_norm(factors.l_inv)
    inverse_norms = linv_norm * dense.spectral_norm(factors.u_inv)
    kappa_l = (dense.spectral_norm(factors.l / d_l[None, :])
               * dense.spectral_norm(d_l[:, None] * factors.l_inv))
    kappa_u = (dense.spectral_norm(factors.u / d_u[:, None])
               * dense.spectral_norm(factors.u_inv * d_u[None, :]))
    comparison_dl = 2.0 * kappa_l * dense.spectral_norm(factors.u_lead_inv)
    comparison_du = 2.0 * kappa_u * linv_norm

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
    gamma_l: float | None           # None where 1 - c eps is 0
    gamma_l_d: float
    gamma_u: float | None           # None where 1 + c eps is 0
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
    ``EXPLICIT_THRESHOLD``.
    """
    check_size(epsilon, "epsilon")
    return lu_componentwise_evaluator(tilde_factors)(epsilon)


def _absolute_image(op: StructuredOperator, venv: np.ndarray):
    """|M| venv and || |M| ||_2 for the map M of ``op``, materialized and made
    absolute in place; M is freed on return, so only one map is alive at a time."""
    abs_map = operator_materialize(op)
    np.abs(abs_map, out=abs_map)
    return abs_map @ venv, dense.spectral_norm(abs_map)


def lu_componentwise_evaluator(tilde_factors: LuFactors):
    """Build the epsilon-free part of the componentwise LU report: the
    materialized maps, their images of the envelope, and the comparison
    norms at the column-norm scaling of L~ and the row-norm scaling of U~.
    Returns the function that evaluates the report at one epsilon.

    One map is alive at a time: each is materialized, made absolute in
    place and reduced to its image of vec(|L~||U~|) and its spectral norm
    before the next is formed, so the peak memory is near the size of the
    larger map (the upper one, n (n+1)/2 by n^2) rather than four maps.
    """
    lt, ut = tilde_factors.l, tilde_factors.u

    t0 = time.perf_counter()
    venv = vec(tilde_factors.envelope)
    lower_image, n_abs_l = _absolute_image(lower_factor_operator(tilde_factors), venv)
    upper_image, n_abs_u = _absolute_image(upper_factor_operator(tilde_factors), venv)
    a = dense.euclidean_norm(lower_image)
    b = dense.euclidean_norm(upper_image)
    lt_fro = dense.euclidean_norm(lt)
    ut_fro = dense.euclidean_norm(ut)
    c = b * n_abs_l - a * n_abs_u
    max_l = float(np.max(lower_image)) if lower_image.size else 0.0
    max_u = float(np.max(upper_image)) if upper_image.size else 0.0
    sum_l = float(np.sum(lower_image))
    sum_u = float(np.sum(upper_image))
    t_gamma = time.perf_counter() - t0

    t1 = time.perf_counter()
    d_l = heuristic_scaling(lt, "columns")
    d_u = heuristic_scaling(ut, "rows")
    abs_linv_l = np.abs(tilde_factors.l_inv) @ np.abs(lt)
    abs_u_uinv = np.abs(ut) @ np.abs(tilde_factors.u_inv)
    abs_un1_fro = dense.euclidean_norm(np.abs(ut[:-1, :-1]) @ np.abs(tilde_factors.u_lead_inv))
    abs_linv_l_fro = dense.euclidean_norm(abs_linv_l)

    l_scaled_norm = dense.spectral_norm(lt / d_l[None, :])
    u_scaled_norm = dense.spectral_norm(ut / d_u[:, None])
    gamma_l_d = (l_scaled_norm
                 * dense.spectral_norm(d_l[:, None] * abs_linv_l)
                 * abs_un1_fro) / lt_fro
    gamma_u_d = (u_scaled_norm
                 * dense.spectral_norm(abs_u_uinv * d_u[None, :])
                 * abs_linv_l_fro) / ut_fro
    eta_dl = dense.spectral_norm(np.abs(lt) / d_l[None, :]) / l_scaled_norm
    eta_du = dense.spectral_norm(np.abs(ut) / d_u[:, None]) / u_scaled_norm
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
            gamma_l=(a / (1.0 - ce)) / lt_fro if 1.0 - ce != 0.0 else None,
            gamma_l_d=gamma_l_d,
            gamma_u=(b / (1.0 + ce)) / ut_fro if 1.0 + ce != 0.0 else None,
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
