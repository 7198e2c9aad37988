"""Monte Carlo verification of the rigorous and first-order bounds.

:func:`verify_bounds` is the one trial loop for the four theorems of
:data:`EXPERIMENTS`, each an :class:`Experiment` that is data. Each trial
draws a perturbation from the configured model, refactorizes the perturbed
matrix, and compares each measured factor change with its rigorous and
first-order bound from the report. Violations of a rigorous bound are
counted (a correct implementation sees none while the applicability
condition holds), and the largest ratios to both bounds are kept.

The bounds are computed in double precision, but the changes are measured
by refactorizing in longdouble where it is wider than float64: near the
applicability window of a hard graded matrix, double precision would
measure rounding noise rather than factor sensitivity.

Each trial draws from its own (seed, trial_index) stream, in one call of
:func:`sample_perturbation` per trial; :mod:`matgen` derives the stream
states a chunk of trial indices at a time, and the draw envelope that the
experiment names is formed once per run. The draws of a block are
stacked and refactorized at once by a kernel of :mod:`dense` that does on
every slice the floating-point operations of a single factorization (the
LU kernel in Doolittle order through numpy's sequential longdouble matmul,
the Householder kernel by rank-1 updates), and the factor changes of the
block are normed at once, bit for bit as slice by slice. The block is then
held to its bounds at once: the changes and their bounds are (trials x
changes) arrays, from which numpy counts the violations and takes the
largest ratios, as a loop over the trials and changes would (the
``trial_loop_report`` oracle of the tests). The qr-normwise bounds at each
trial's own ||Q^T dA||_F take their d1 values from one stacked product and
come from one report at the array of d1, bit for bit the per-trial ones. So
results do not depend on the block size, and the capped block keeps memory
flat in the number of trials. A report's timings split the trials into
drawing (``draw_s``) and refactorizing with the change norms
(``refactor_s``).
"""

from __future__ import annotations

import math
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

_MEASURE_DTYPE = np.longdouble if dense.WIDE_LONGDOUBLE else np.float64

#: entries of the perturbed matrices stacked in one block of trials; memory
#: stays flat in the number of trials
_BLOCK_ENTRIES = 1 << 16

#: why dense.qr_r_stack failed on a slice, by its code
_QR_FAILURES = {dense.ZERO_COLUMN: "zero column during refactorization",
                dense.TINY_REFLECTOR: "reflection vector too small to normalize "
                                      "during refactorization"}


def _lu_changes(base: dense.LuFactors, perturbed: np.ndarray) -> tuple:
    """(||dL||_F, ||dU||_F) of each refactorized slice, and (slice, reason) of each that failed."""
    l, u, singular = dense.lu_factor_stack(perturbed)
    l -= base.l         # in place: the factors are not needed beyond their changes
    u -= base.u
    changes = np.stack([dense.frobenius_norms(l), dense.frobenius_norms(u)], axis=1)
    return changes.astype(float), [
        (j, f"factorization failed: {SingularLeadingMinor(int(singular[j]))}")
        for j in np.flatnonzero(singular).tolist()]


def _r_changes(base_r: np.ndarray, perturbed: np.ndarray) -> tuple:
    """(||dR||_F,) of each refactorized slice, and (slice, reason) of each that failed."""
    r, failed = dense.qr_r_stack(perturbed)
    r -= base_r
    return dense.frobenius_norms(r)[:, None].astype(float), [
        (j, f"factorization failed: {_QR_FAILURES[failed[j]]}")
        for j in np.flatnonzero(failed).tolist()]


@dataclass(frozen=True)
class VerificationReport:
    experiment: str
    trials: int
    violations: int
    skipped: tuple = ()                 # (trial_index, reason) pairs
    max_ratio_rigorous: float = 0.0
    max_ratio_first_order: float = 0.0
    # seconds: bounds_s, trials_s, and within trials_s draw_s (sampling and
    # stacking the draws) and refactor_s (refactorizing, norming the changes)
    timings: dict = field(default_factory=dict)
    bound_report: object = None


def _max_ratio(actual: np.ndarray, bound: np.ndarray) -> float:
    """The largest actual / bound over the trials (rows) and changes, and at least 0.

    A bound is NaN where a first-order bound does not apply (None), and its
    ratios then count as 0. A zero bound gives 0 for a zero change and inf
    for any other. NaN ratios, of a NaN change, are passed over.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.divide(actual, bound, out=np.where(actual == 0.0, 0.0, np.inf),
                           where=bound != 0.0)
    return float(np.fmax.reduce(ratios, axis=None, initial=0.0))


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
            others = [getattr(model, f.name) for f in fields(model) if f.name != exp.size]
            self._bases[experiment] = factors, exp.bounds(factors, *others), measured
        return self._bases[experiment]


def verify_bounds(a, spec: PerturbationSpec, trials: int,
                  experiment: str | None = None) -> VerificationReport:
    """Empirically check the bounds of ``experiment`` on ``trials`` perturbation draws.

    Raises :class:`BoundNotApplicable` when the applicability condition of
    the requested rigorous bound fails for the given matrix and model, and
    propagates factorization failures of the base matrix. Per-trial
    factorization failures are recorded as skipped trials, never silently
    dropped. The trials run in blocks of stacked matrices, trial i on the
    stream (``spec.seed``, i). ``a`` is the matrix, or the
    :class:`_SharedMatrix` through which :func:`delta_halving` shares the
    size-free work over its levels.
    """
    shared = a if isinstance(a, _SharedMatrix) else _SharedMatrix(a)
    a = shared.matrix
    if trials < 1:
        raise ValueError("trials must be at least 1")
    experiment = infer_experiment(spec, experiment)
    exp = EXPERIMENTS[experiment]
    size = getattr(spec.model, exp.size)

    t0 = time.perf_counter()
    factors, bounds_at, base = shared.base(experiment, spec.model)
    report = bounds_at(size, size) if exp.trial_d1 else bounds_at(size)
    if not report.applicable:
        raise BoundNotApplicable(exp.inapplicable.format(report))
    rigorous, first_order = exp.read_bounds(report)
    t_bounds = time.perf_counter() - t0

    t1 = time.perf_counter()
    a_hp = a.astype(_MEASURE_DTYPE)
    envelope = exp.envelope(spec.model, a, factors)    # formed once, not on every draw
    violations = 0
    skipped = []
    max_rig = max_fo = 0.0
    t_draw = t_refactor = 0.0
    block = max(1, _BLOCK_ENTRIES // max(a.size, 1))
    for start in range(0, trials, block):
        t2 = time.perf_counter()
        da = np.stack([sample_perturbation(spec, trial_index=i, matrix=a, envelope=envelope)
                       for i in range(start, min(start + block, trials))])
        t3 = time.perf_counter()
        changes, failures = exp.changes(base, a_hp - da if exp.subtract_draw else a_hp + da)
        t_draw += t3 - t2
        t_refactor += time.perf_counter() - t3
        done = np.ones(len(da), dtype=bool)
        for j, reason in failures:
            done[j] = False
            skipped.append((start + j, reason))
        changes = changes[done]
        if not len(changes):
            continue
        if exp.trial_d1:       # the bounds at each trial's own ||Q^T dA||_F, in one report
            d1 = dense.frobenius_norms(np.matmul(factors.q.T, da[done]))
            rigorous, first_order = exp.read_bounds(
                bounds_at(np.minimum(d1, size), size)).swapaxes(1, 2)
        violations += int(np.count_nonzero((changes > rigorous).any(axis=1)))
        max_rig = max(max_rig, _max_ratio(changes, rigorous))
        max_fo = max(max_fo, _max_ratio(changes, first_order))
    t_trials = time.perf_counter() - t1

    return VerificationReport(
        experiment=experiment,
        trials=trials,
        violations=violations,
        skipped=tuple(skipped),
        max_ratio_rigorous=max_rig,
        max_ratio_first_order=max_fo,
        timings={"bounds_s": t_bounds, "trials_s": t_trials,
                 "draw_s": t_draw, "refactor_s": t_refactor},
        bound_report=report,
    )


def _lu_factors(a):
    return dense.lu_factor(a), dense.lu_factor(a.astype(_MEASURE_DTYPE))


def _qr_factors(a):
    factors = dense.qr_factor(a)
    r, failed = dense.qr_r_stack(a.astype(_MEASURE_DTYPE)[None])
    if failed[0]:
        raise RankDeficient(_QR_FAILURES[failed[0]])
    return factors, r[0]


@dataclass(frozen=True)
class Experiment:
    """One theorem under test: the data that the trial loop of :func:`verify_bounds` runs.

    ``model`` is the perturbation model class it takes, and ``size`` the
    field of that model holding the perturbation size. Once per matrix,
    ``factor(a)`` returns the factors and the measurement base, and
    ``bounds``, the evaluator of the library, takes the factors and the
    model's fields other than the size and returns the report as a function
    of the size. Once per run, ``envelope(model, a, factors)`` forms the
    envelope E of the draws, |dA| <= epsilon E, or returns None for a
    normwise model. ``changes(base, stack)`` refactorizes a stack of perturbed
    matrices and returns the measured factor changes as a (slices, changes)
    float64 array, with the (slice, reason) pairs of the slices that failed
    and are skipped; ``bound_fields`` names per change the report
    fields of its (rigorous, first-order) bounds, and ``inapplicable`` formats
    the report into the :class:`BoundNotApplicable` message. With ``trial_d1``
    the evaluator takes (d1, d2) = (||Q^T dA||_F, ||dA||_F) and each trial is
    held to the bounds at its own d1; with ``subtract_draw`` each trial
    measures A - dA rather than A + dA.
    """

    model: type
    size: str
    factor: Callable
    bounds: Callable
    envelope: Callable
    changes: Callable
    bound_fields: tuple
    inapplicable: str
    trial_d1: bool = False
    subtract_draw: bool = False

    def read_bounds(self, report) -> np.ndarray:
        """The rigorous (row 0) and first-order (row 1) bound of each change, NaN for None.

        Of a report at an array of d1 (``trial_d1``), each bound is a row of
        the trials' bounds, so the result is (2, changes, trials).
        """
        return np.array([[math.nan if (bound := getattr(report, name)) is None else bound
                          for name in names] for names in zip(*self.bound_fields)], dtype=float)


def _no_envelope(model, a, factors):
    return None         # a normwise draw is scaled to its delta, not by an envelope


_NORMWISE_INAPPLICABLE = "condition value {0.condition_value:.3e} is not below 1/4"
_COMPONENTWISE_INAPPLICABLE = "componentwise applicability condition fails"

EXPERIMENTS = {
    "lu-normwise": Experiment(
        Normwise, "delta", _lu_factors, lu_bounds.lu_normwise_evaluator, _no_envelope,
        _lu_changes, (("rigorous_dl", "first_order_dl"), ("rigorous_du", "first_order_du")),
        _NORMWISE_INAPPLICABLE),
    "lu-componentwise": Experiment(
        ComponentwiseLU, "epsilon", _lu_factors, lu_bounds.lu_componentwise_evaluator,
        lambda model, a, factors: factors.envelope, _lu_changes,     # |L~| |U~|
        (("rigorous_dl", "first_order_dl_f"), ("rigorous_du", "first_order_du_f")),
        _COMPONENTWISE_INAPPLICABLE, subtract_draw=True),
    "qr-normwise": Experiment(
        Normwise, "delta", _qr_factors, qr_bounds.qr_normwise_evaluator, _no_envelope,
        _r_changes, (("rigorous_dr", "first_order_dr"),), _NORMWISE_INAPPLICABLE, trial_d1=True),
    "qr-componentwise": Experiment(
        ComponentwiseQR, "epsilon", _qr_factors, qr_bounds.qr_componentwise_evaluator,
        lambda model, a, factors: model.c @ np.abs(a), _r_changes,     # C |A|
        (("rigorous_dr", "first_order_dr"),), _COMPONENTWISE_INAPPLICABLE),
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
