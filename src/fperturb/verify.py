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
(seed, trial_index), so results do not depend on execution order. They run
in blocks: the draws of a block are stacked along a leading axis and
refactorized by one stacked elimination (or Householder QR), whose
floating-point operations on each slice are those of a single
factorization. The streams and the results are those of one trial at a
time, and a block's size is capped, so memory does not grow with the number
of trials.

:data:`EXPERIMENTS` is the table of the four theorems under test. Each entry
names its perturbation model, the model field that holds the perturbation
size, the factorizations and the evaluator of the library (run once per
matrix, also across the levels of :func:`delta_halving`), and the evaluation
that reads the bounds at one size and measures blocks of trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import dense, lu_bounds, qr_bounds
from .errors import BoundNotApplicable, RankDeficient, SingularLeadingMinor
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

#: entries of the perturbed matrices stacked in one block of trials; memory
#: stays flat in the number of trials
_BLOCK_ENTRIES = 1 << 16

_ZERO_COLUMN = "zero column during refactorization"


def _qr_measure_r_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder R factors (positive diagonal) of a (k, m, n) stack.

    Runs in the measurement precision, with the floating-point operations of
    a single factorization on every slice. Returns ``(r, zero_column)``;
    the factor of a slice flagged in ``zero_column`` met a zero column and is
    meaningless. A reflection whose vector vanishes is skipped.
    """
    r = np.array(a, dtype=_MEASURE_DTYPE)
    k, m, n = r.shape
    zero_column = np.zeros(k, dtype=bool)
    for c in range(n):
        x = r[:, c:, c]
        nx = np.sqrt(np.sum(x * x, axis=1))
        zero_column |= nx == 0.0
        v = x.copy()
        v[:, 0] += np.where(x[:, 0] >= 0.0, nx, -nx)
        s = np.sum(v * v, axis=1)
        reflect = s != 0.0
        coef = np.divide(2.0, s, out=np.zeros_like(s), where=reflect)
        w = np.matmul(r[:, c:, c:].transpose(0, 2, 1), v[:, :, None])[:, :, 0] * coef[:, None]
        np.subtract(r[:, c:, c:], v[:, :, None] * w[:, None, :], out=r[:, c:, c:],
                    where=reflect[:, None, None])
    r = np.triu(r[:, :n, :n])
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    return r * signs[:, :, None], zero_column


def _draws(spec: PerturbationSpec, indices, **source) -> np.ndarray:
    """The perturbations of trials ``indices``, each from its own stream, stacked."""
    return np.stack([sample_perturbation(spec, trial_index=i, **source) for i in indices])


def _lu_changes(base: dense.LuFactors, perturbed: np.ndarray) -> list:
    """(||dL||_F, ||dU||_F) of each refactorized slice, or why it failed."""
    l, u, singular = dense.lu_factor_stack(perturbed)
    return [f"factorization failed: {SingularLeadingMinor(int(pivot))}" if pivot else
            (float(np.linalg.norm(l[j] - base.l)), float(np.linalg.norm(u[j] - base.u)))
            for j, pivot in enumerate(singular)]


def _r_changes(base_r: np.ndarray, perturbed: np.ndarray) -> list:
    """||dR||_F of each refactorized slice, or why it failed."""
    r, zero_column = _qr_measure_r_stack(perturbed)
    return [f"factorization failed: {_ZERO_COLUMN}" if zero else
            float(np.linalg.norm(r[j] - base_r))
            for j, zero in enumerate(zero_column)]


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


class _SharedMatrix:
    """A matrix that prepares each experiment at most once.

    :func:`delta_halving` passes one to :func:`verify_bounds` for all its
    levels, which differ only in the size, so the factorizations and the
    size-free bound quantities are built once per matrix.
    """

    def __init__(self, a):
        self.matrix = np.asarray(a, dtype=float)
        self._bases = {}

    def base(self, experiment: str, model):
        if experiment not in self._bases:
            exp = EXPERIMENTS[experiment]
            factors, measured = exp.factor(self.matrix)
            envelope = [getattr(model, f.name) for f in fields(model) if f.name != exp.size]
            self._bases[experiment] = factors, exp.bounds(factors, *envelope), measured
        return self._bases[experiment]


def verify_bounds(a, spec: PerturbationSpec, trials: int,
                  seed: int | None = None,
                  experiment: str | None = None) -> VerificationReport:
    """Empirically check the bounds on ``trials`` perturbation draws.

    Raises :class:`BoundNotApplicable` when the applicability condition of
    the requested rigorous bound fails for the given matrix and model, and
    propagates factorization failures of the base matrix. Per-trial
    factorization failures are recorded as skipped trials, never silently
    dropped. The trials run in blocks of stacked matrices, each trial on its
    own (seed, trial_index) stream. ``a`` is the matrix, or the
    :class:`_SharedMatrix` through which :func:`delta_halving` shares the
    size-free work over its levels.
    """
    shared = a if isinstance(a, _SharedMatrix) else _SharedMatrix(a)
    a = shared.matrix
    if trials < 1:
        raise ValueError("trials must be at least 1")
    experiment = infer_experiment(spec, experiment)
    if seed is not None:
        spec = PerturbationSpec(model=spec.model, seed=seed)

    t0 = time.perf_counter()
    measure, report = EXPERIMENTS[experiment].evaluate(
        a, shared.base(experiment, spec.model), spec)
    t_bounds = time.perf_counter() - t0

    t1 = time.perf_counter()
    violations = 0
    skipped = []
    max_rig = 0.0
    max_fo = 0.0
    block = max(1, _BLOCK_ENTRIES // max(a.size, 1))
    for start in range(0, trials, block):
        indices = range(start, min(start + block, trials))
        for idx, outcome in zip(indices, measure(indices)):
            if isinstance(outcome, str):
                skipped.append((idx, outcome))
                continue
            rig, fo, violated = outcome
            violations += int(violated)
            max_rig = max(max_rig, rig)
            max_fo = max(max_fo, fo)
    t_trials = time.perf_counter() - t1

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


def _lu_factors(a):
    return dense.lu_factor(a), dense.lu_factor(a.astype(_MEASURE_DTYPE))


def _qr_factors(a):
    factors = dense.qr_factor(a)
    r, zero_column = _qr_measure_r_stack(a.astype(_MEASURE_DTYPE)[None])
    if zero_column[0]:
        raise RankDeficient(_ZERO_COLUMN)
    return factors, r[0]


def _lu_normwise(a, base, spec):
    _, bounds_at, base_hp = base
    report = bounds_at(spec.model.delta)
    if not report.applicable:
        raise BoundNotApplicable(
            f"condition value {report.condition_value:.3e} is not below 1/4")
    a_hp = a.astype(_MEASURE_DTYPE)

    def outcome(dl, du):
        rig = max(_ratio(dl, report.rigorous_dl), _ratio(du, report.rigorous_du))
        fo = 0.0
        if report.fo_applicable:
            fo = max(_ratio(dl, report.first_order_dl),
                     _ratio(du, report.first_order_du))
        return rig, fo, dl > report.rigorous_dl or du > report.rigorous_du

    def measure(indices):
        changes = _lu_changes(base_hp, a_hp + _draws(spec, indices, matrix=a))
        return [c if isinstance(c, str) else outcome(*c) for c in changes]

    return measure, report


def _lu_componentwise(a, base, spec):
    tilde, bounds_at, tilde_hp = base
    report = bounds_at(spec.model.epsilon)
    if not report.applicable:
        raise BoundNotApplicable("componentwise applicability condition fails")
    a_hp = a.astype(_MEASURE_DTYPE)

    def outcome(dl, du):
        rig = max(_ratio(dl, report.rigorous_dl), _ratio(du, report.rigorous_du))
        fo = max(_ratio(dl, report.first_order_dl_f),
                 _ratio(du, report.first_order_du_f))
        return rig, fo, dl > report.rigorous_dl or du > report.rigorous_du

    def measure(indices):
        # the perturbed matrix sits below A~
        changes = _lu_changes(tilde_hp, a_hp - _draws(spec, indices, lu=tilde))
        return [c if isinstance(c, str) else outcome(*c) for c in changes]

    return measure, report


def _qr_normwise(a, base, spec):
    factors, bounds_at, base_r = base
    d2 = spec.model.delta
    report = bounds_at(d2, d2)
    if not report.applicable:
        raise BoundNotApplicable(
            f"condition value {report.condition_value:.3e} is not below 1/4")
    a_hp = a.astype(_MEASURE_DTYPE)

    def outcome(dr, da):
        # the bounds at the trial's own ||Q^T dA||_F
        trial = bounds_at(min(float(np.linalg.norm(factors.q.T @ da)), d2), d2)
        return (_ratio(dr, trial.rigorous_dr), _ratio(dr, trial.first_order_dr),
                dr > trial.rigorous_dr)

    def measure(indices):
        da = _draws(spec, indices, matrix=a)
        changes = _r_changes(base_r, a_hp + da)
        return [c if isinstance(c, str) else outcome(c, d) for c, d in zip(changes, da)]

    return measure, report


def _qr_componentwise(a, base, spec):
    _, bounds_at, base_r = base
    report = bounds_at(spec.model.epsilon)
    if not report.applicable:
        raise BoundNotApplicable("componentwise applicability condition fails")
    a_hp = a.astype(_MEASURE_DTYPE)

    def outcome(dr):
        rig = _ratio(dr, report.rigorous_dr)
        fo = _ratio(dr, report.first_order_dr)
        return rig, fo, dr > report.rigorous_dr

    def measure(indices):
        changes = _r_changes(base_r, a_hp + _draws(spec, indices, matrix=a))
        return [c if isinstance(c, str) else outcome(c) for c in changes]

    return measure, report


@dataclass(frozen=True)
class Experiment:
    """One theorem under test.

    ``model`` is the perturbation model class it takes, and ``size`` the
    field of that model holding the perturbation size (``"delta"`` or
    ``"epsilon"``). Once per matrix, ``factor(a)`` returns the factors and
    the measurement base (refactorized in the measurement precision), and
    ``bounds``, the evaluator of the library, takes the factors and the
    model's fields other than the size and returns the report as a function
    of the size.
    ``evaluate(a, (factors, bounds_at, base), spec)`` returns ``(measure,
    bound_report)``, where ``measure(indices)`` refactorizes the trials
    ``indices`` as one stack and returns each trial's ratios, or the reason
    it was skipped.
    """

    model: type
    size: str
    factor: Callable
    evaluate: Callable
    bounds: Callable


EXPERIMENTS = {
    "lu-normwise": Experiment(Normwise, "delta", _lu_factors, _lu_normwise,
                              lu_bounds.lu_normwise_evaluator),
    "lu-componentwise": Experiment(ComponentwiseLU, "epsilon", _lu_factors, _lu_componentwise,
                                   lu_bounds.lu_componentwise_evaluator),
    "qr-normwise": Experiment(Normwise, "delta", _qr_factors, _qr_normwise,
                              qr_bounds.qr_normwise_evaluator),
    "qr-componentwise": Experiment(ComponentwiseQR, "epsilon", _qr_factors, _qr_componentwise,
                                   qr_bounds.qr_componentwise_evaluator),
}


def delta_halving(a, spec: PerturbationSpec, trials: int, levels: int,
                  experiment: str | None = None) -> list[VerificationReport]:
    """Run the verification at the configured size and ``levels`` halvings.

    Per-trial streams are level-independent, so each level perturbs along the
    same directions at half the previous magnitude; the first-order ratio
    sequence then exposes the asymptotic behaviour without sampling noise.
    The levels share the factorizations and the size-free bound quantities.
    Raises ``ValueError`` when ``levels`` is negative.
    """
    if levels < 0:
        raise ValueError(f"levels must be nonnegative, got {levels}")
    experiment = infer_experiment(spec, experiment)
    size = EXPERIMENTS[experiment].size
    base = getattr(spec.model, size)
    shared = _SharedMatrix(a)      # each level is one verify_bounds call on it
    reports = []
    for level in range(levels + 1):
        scaled = replace(spec.model, **{size: base * 0.5 ** level})
        level_spec = PerturbationSpec(model=scaled, seed=spec.seed)
        reports.append(verify_bounds(shared, level_spec, trials, experiment=experiment))
    return reports
