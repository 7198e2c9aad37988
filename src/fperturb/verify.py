"""Monte Carlo verification of the rigorous and first-order bounds.

Each trial draws a perturbation from the configured model, refactorizes the
perturbed matrix, and compares the measured factor changes against the
reported bounds. Rigorous-bound violations are counted (a correct
implementation sees none when the applicability condition holds), and the
worst actual-to-bound ratios are recorded for both the rigorous and the
first-order bounds.

The bounds under test are computed by the library in double precision, but
the *measured* factor changes are obtained by refactorizing in extended
precision when the platform provides a longdouble wider than float64. The
theorems speak about exact factors; on hard graded matrices the applicability
window can sit only a few orders of magnitude above the double-precision
noise floor, and measuring there in double would compare rounding noise, not
factor sensitivity. Platforms without a wider longdouble fall back to double.

Trials are independent: each derives its own random stream from
(seed, trial_index), so results do not depend on execution order.

:data:`EXPERIMENTS` is the table of the four theorems under test. Each entry
names its perturbation model, the model field that holds the perturbation
size, and the runner that computes the bounds and measures one trial.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import dense, lu_bounds, qr_bounds
from .errors import BoundNotApplicable, FperturbError, RankDeficient
from .matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    sample_perturbation,
)

_MEASURE_DTYPE = (np.longdouble
                  if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
                  else np.float64)


def _qr_measure_r(a) -> np.ndarray:
    """Triangular QR factor (positive diagonal) in the measurement precision."""
    r = np.asarray(a, dtype=_MEASURE_DTYPE).copy()
    m, n = r.shape
    for k in range(n):
        x = r[k:, k]
        nx = np.sqrt(np.sum(x * x))
        if nx == 0.0:
            raise RankDeficient("zero column during refactorization")
        v = x.copy()
        v[0] += nx if x[0] >= 0.0 else -nx
        s = np.sum(v * v)
        if s == 0.0:
            continue
        w = (r[k:, k:].T @ v) * (2.0 / s)
        r[k:, k:] -= np.outer(v, w)
    r = np.triu(r[:n, :n])
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return r * signs[:, None]


@dataclass(frozen=True)
class VerificationReport:
    experiment: str
    trials: int
    violations: int
    skipped: tuple = ()                 # (trial_index, reason) pairs
    max_ratio_rigorous: float = 0.0
    max_ratio_first_order: float = 0.0
    timings: dict = field(default_factory=dict)
    bound_report: object = None


def _ratio(actual: float, bound: float) -> float:
    if bound == 0.0:
        return 0.0 if actual == 0.0 else float("inf")
    return actual / bound


def infer_experiment(spec: PerturbationSpec, experiment: str | None) -> str:
    """Resolve the experiment name and check that the spec's model fits it.

    Without a name, the experiment is the only one that takes the model; the
    normwise model serves two theorems and so needs the name.
    """
    if experiment is None:
        matches = [name for name, exp in EXPERIMENTS.items()
                   if isinstance(spec.model, exp.model)]
        if len(matches) != 1:
            raise ValueError(f"cannot infer the experiment of a {type(spec.model).__name__} "
                             f"spec; name one of {', '.join(matches or EXPERIMENTS)}")
        return matches[0]
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    model = EXPERIMENTS[experiment].model
    if not isinstance(spec.model, model):
        raise ValueError(f"{experiment} needs a {model.__name__} perturbation model")
    return experiment


def verify_bounds(a, spec: PerturbationSpec, trials: int,
                  seed: int | None = None,
                  experiment: str | None = None) -> VerificationReport:
    """Empirically check the bounds on ``trials`` perturbation draws.

    Raises :class:`BoundNotApplicable` when the applicability condition of
    the requested rigorous bound fails for the given matrix and model, and
    propagates factorization failures of the base matrix. Per-trial
    factorization failures are recorded as skipped trials, never silently
    dropped.
    """
    a = np.asarray(a, dtype=float)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    experiment = infer_experiment(spec, experiment)
    if seed is not None:
        spec = PerturbationSpec(model=spec.model, seed=seed)

    t0 = time.perf_counter()
    per_trial, report = EXPERIMENTS[experiment].runner(a, spec)
    t_bounds = time.perf_counter() - t0

    t1 = time.perf_counter()
    outcomes = [per_trial(i) for i in range(trials)]
    t_trials = time.perf_counter() - t1

    violations = 0
    skipped = []
    max_rig = 0.0
    max_fo = 0.0
    for idx, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            skipped.append((idx, outcome))
            continue
        rig, fo, violated = outcome
        violations += int(violated)
        max_rig = max(max_rig, rig)
        max_fo = max(max_fo, fo)

    return VerificationReport(
        experiment=experiment,
        trials=trials,
        violations=violations,
        skipped=tuple(skipped),
        max_ratio_rigorous=max_rig,
        max_ratio_first_order=max_fo,
        timings={"bounds_s": t_bounds, "trials_s": t_trials},
        bound_report=report,
    )


def _lu_normwise_runner(a, spec):
    model = spec.model
    report = lu_bounds.lu_normwise_bounds(dense.lu_factor(a), model.delta)
    if not report.applicable:
        raise BoundNotApplicable(
            f"condition value {report.condition_value:.3e} is not below 1/4")
    a_hp = a.astype(_MEASURE_DTYPE)
    base = dense.lu_factor(a_hp)

    def trial(i: int):
        da = sample_perturbation(spec, matrix=a, trial_index=i)
        try:
            pert = dense.lu_factor(a_hp + da)
        except FperturbError as exc:
            return f"factorization failed: {exc}"
        dl = float(np.linalg.norm(pert.l - base.l))
        du = float(np.linalg.norm(pert.u - base.u))
        rig = max(_ratio(dl, report.rigorous_dl), _ratio(du, report.rigorous_du))
        fo = 0.0
        if report.fo_applicable:
            fo = max(_ratio(dl, report.first_order_dl),
                     _ratio(du, report.first_order_du))
        return rig, fo, dl > report.rigorous_dl or du > report.rigorous_du

    return trial, report


def _lu_componentwise_runner(a, spec):
    model = spec.model
    tilde = dense.lu_factor(a)
    report = lu_bounds.lu_componentwise_bounds(tilde, model.epsilon)
    if not report.applicable:
        raise BoundNotApplicable("componentwise applicability condition fails")
    a_hp = a.astype(_MEASURE_DTYPE)
    tilde_hp = dense.lu_factor(a_hp)

    def trial(i: int):
        da = sample_perturbation(spec, lu=tilde, trial_index=i)
        try:
            pert = dense.lu_factor(a_hp - da)  # the perturbed matrix sits below A~
        except FperturbError as exc:
            return f"factorization failed: {exc}"
        dl = float(np.linalg.norm(tilde_hp.l - pert.l))
        du = float(np.linalg.norm(tilde_hp.u - pert.u))
        rig = max(_ratio(dl, report.rigorous_dl), _ratio(du, report.rigorous_du))
        fo = max(_ratio(dl, report.first_order_dl_f),
                 _ratio(du, report.first_order_du_f))
        return rig, fo, dl > report.rigorous_dl or du > report.rigorous_du

    return trial, report


def _qr_normwise_runner(a, spec):
    model = spec.model
    base = dense.qr_factor(a)
    report = qr_bounds.qr_normwise_bounds(base, model.delta, model.delta)
    if not report.applicable:
        raise BoundNotApplicable(
            f"condition value {report.condition_value:.3e} is not below 1/4")
    lin, quad = report.linear_op_norm, report.quadratic_op_norm
    a_hp = a.astype(_MEASURE_DTYPE)
    base_r = _qr_measure_r(a_hp)

    def trial(i: int):
        da = sample_perturbation(spec, matrix=a, trial_index=i)
        try:
            pert_r = _qr_measure_r(a_hp + da)
        except FperturbError as exc:
            return f"factorization failed: {exc}"
        dr = float(np.linalg.norm(pert_r - base_r))
        d2 = model.delta
        d1 = min(float(np.linalg.norm(base.q.T @ da)), d2)
        core = lin * d1 + quad * d2 * d2
        rigorous = 2.0 * core / (1.0 + math.sqrt(1.0 - 4.0 * quad * core))
        fo = lin * d1
        return _ratio(dr, rigorous), _ratio(dr, fo), dr > rigorous

    return trial, report


def _qr_componentwise_runner(a, spec):
    model = spec.model
    base = dense.qr_factor(a)
    report = qr_bounds.qr_componentwise_bounds(base, model.c, model.epsilon)
    if not report.applicable:
        raise BoundNotApplicable("componentwise applicability condition fails")
    a_hp = a.astype(_MEASURE_DTYPE)
    base_r = _qr_measure_r(a_hp)

    def trial(i: int):
        da = sample_perturbation(spec, matrix=a, trial_index=i)
        try:
            pert_r = _qr_measure_r(a_hp + da)
        except FperturbError as exc:
            return f"factorization failed: {exc}"
        dr = float(np.linalg.norm(pert_r - base_r))
        rig = _ratio(dr, report.rigorous_dr)
        fo = _ratio(dr, report.first_order_dr)
        return rig, fo, dr > report.rigorous_dr

    return trial, report


@dataclass(frozen=True)
class Experiment:
    """One theorem under test.

    ``model`` is the perturbation model class it takes, ``size`` the field of
    that model holding the perturbation size (``"delta"`` or ``"epsilon"``),
    and ``runner(a, spec)`` returns ``(trial, bound_report)``, where
    ``trial(i)`` measures trial ``i`` and returns its ratios, or the reason
    it was skipped.
    """

    model: type
    size: str
    runner: Callable


EXPERIMENTS = {
    "lu-normwise": Experiment(Normwise, "delta", _lu_normwise_runner),
    "lu-componentwise": Experiment(ComponentwiseLU, "epsilon", _lu_componentwise_runner),
    "qr-normwise": Experiment(Normwise, "delta", _qr_normwise_runner),
    "qr-componentwise": Experiment(ComponentwiseQR, "epsilon", _qr_componentwise_runner),
}


def delta_halving(a, spec: PerturbationSpec, trials: int, levels: int,
                  experiment: str | None = None) -> list[VerificationReport]:
    """Run the verification at the configured size and ``levels`` halvings.

    Per-trial streams are level-independent, so each level perturbs along the
    same directions at half the previous magnitude; the first-order ratio
    sequence then exposes the asymptotic behaviour without sampling noise.
    """
    experiment = infer_experiment(spec, experiment)
    size = EXPERIMENTS[experiment].size
    base = getattr(spec.model, size)
    reports = []
    for level in range(levels + 1):
        scaled = replace(spec.model, **{size: base * 0.5 ** level})
        level_spec = PerturbationSpec(model=scaled, seed=spec.seed)
        reports.append(verify_bounds(a, level_spec, trials, experiment=experiment))
    return reports
