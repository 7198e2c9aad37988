"""Monte Carlo verification harness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fperturb import dense, structured
from fperturb import verify as verify_mod
from fperturb.errors import BoundNotApplicable
from fperturb.matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    random_c_matrix,
    sample_perturbation,
)
from fperturb.qr_bounds import qr_normwise_bounds
from fperturb.verify import delta_halving, infer_experiment, verify_bounds

from conftest import count_calls, random_square, trial_loop_report


class TestInference:
    def test_componentwise_models_self_identify(self):
        assert infer_experiment(
            PerturbationSpec(ComponentwiseLU(1e-8)), None) == "lu-componentwise"
        c = random_c_matrix(3, 0)
        assert infer_experiment(
            PerturbationSpec(ComponentwiseQR(1e-8, c)), None) == "qr-componentwise"

    def test_normwise_needs_explicit_experiment(self):
        with pytest.raises(ValueError):
            infer_experiment(PerturbationSpec(Normwise(0.1)), None)

    def test_explicit_experiment_must_fit_the_model(self):
        assert infer_experiment(PerturbationSpec(Normwise(0.1)), "qr-normwise") == "qr-normwise"
        with pytest.raises(ValueError):
            infer_experiment(PerturbationSpec(ComponentwiseLU(1e-8)), "qr-componentwise")
        with pytest.raises(ValueError):
            infer_experiment(PerturbationSpec(Normwise(0.1)), "cholesky")


class TestVerifyBounds:
    def test_zero_perturbation_all_zero_ratios(self):
        rep = verify_bounds(np.eye(6), PerturbationSpec(Normwise(0.0), seed=1), 5,
                            experiment="qr-normwise")
        assert rep.violations == 0
        assert rep.max_ratio_rigorous == 0.0

    def test_identity_lu_normwise(self):
        rep = verify_bounds(np.eye(10), PerturbationSpec(Normwise(3.0 / 16.0), seed=2),
                            100, experiment="lu-normwise")
        assert rep.violations == 0
        # the closed-form bound at this size is exactly 1/4
        assert rep.max_ratio_rigorous <= 1.0

    def test_inapplicable_raises(self):
        with pytest.raises(BoundNotApplicable):
            verify_bounds(np.eye(4), PerturbationSpec(Normwise(0.3), seed=0), 5,
                          experiment="lu-normwise")

    def test_all_experiments_zero_violations(self):
        a = random_square(7, 3, shift=7.0)
        c = random_c_matrix(7, 5)
        cases = [
            (PerturbationSpec(Normwise(1e-3), seed=10), "lu-normwise"),
            (PerturbationSpec(ComponentwiseLU(1e-7), seed=11), None),
            (PerturbationSpec(Normwise(1e-3), seed=12), "qr-normwise"),
            (PerturbationSpec(ComponentwiseQR(1e-7, c), seed=13), None),
        ]
        for spec, experiment in cases:
            rep = verify_bounds(a, spec, 50, experiment=experiment)
            assert rep.violations == 0
            assert not rep.skipped
            assert 0.0 < rep.max_ratio_rigorous <= 1.0

    def test_qr_normwise_bounds_at_each_trials_own_d1(self, monkeypatch):
        # with m > n, Q^T dA drops part of dA, so d1 < d2 and each trial is
        # held to the bounds at its own d1; the oracle rebuilds that from the
        # public API, one trial at a time
        a = np.random.default_rng(17).standard_normal((9, 6))
        delta, trials = 1e-5, 12
        spec = PerturbationSpec(Normwise(delta), seed=4)
        f = dense.qr_factor(a)
        base = dense.householder_base(a)
        rig = fo = 0.0
        d1s = []
        for i in range(trials):
            da = sample_perturbation(spec, matrix=a, trial_index=i)
            dr = float(np.linalg.norm(dense.r_change(base, da[None])[0][0]))
            d1s.append(min(float(np.linalg.norm(f.q.T @ da)), delta))
            rep = qr_normwise_bounds(f, d1s[-1], delta)
            rig = max(rig, dr / rep.rigorous_dr)
            fo = max(fo, dr / rep.first_order_dr)
        assert max(d1s) < delta
        for per_block in (None, 5):
            if per_block:
                monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", per_block * a.size)
            rep = verify_bounds(a, spec, trials, experiment="qr-normwise")
            assert rep.violations == 0 and not rep.skipped
            assert (rep.max_ratio_rigorous, rep.max_ratio_first_order) == (rig, fo)

    def test_skipped_trials_are_reported(self, monkeypatch):
        # every fourth slice of a block of trials fails; the base matrix is
        # factorized as a stack of one and passes
        real = verify_mod.dense.lu_factor_stack

        def flaky(a):
            l, u, singular = real(a)
            singular[1::4] = 1
            return l, u, singular

        monkeypatch.setattr(verify_mod.dense, "lu_factor_stack", flaky)
        rep = verify_bounds(np.eye(6), PerturbationSpec(Normwise(0.1), seed=4), 12,
                            experiment="lu-normwise")
        assert rep.skipped
        assert all("singular" in reason for _, reason in rep.skipped)
        assert rep.trials == 12

    def test_reflector_too_small_is_skipped_with_its_reason(self, monkeypatch):
        # the slice whose reflector cannot be normalized, at a trailing entry
        # of 2^-530 in A + dA, is skipped and says why
        changes = verify_mod.EXPERIMENTS["qr-normwise"].changes
        base = dense.householder_base(np.diag([1.0, 2.0**-500]))
        da = np.zeros((2, 2, 2))
        da[0, 1, 1] = 2.0**-530 - 2.0**-500
        da[1, 0, 0] = 2.0
        values, failures = changes(base, da)
        assert values[1].tolist() == [2.0]
        assert failures == [(0, "factorization failed: reflection vector too small "
                                "to normalize during refactorization")]
        # and verify_bounds reports each such slice of its blocks
        real = verify_mod.dense.r_change

        def flaky(base, da):
            dr, failed = real(base, da)
            failed[1::4] = dense.TINY_REFLECTOR
            return dr, failed

        monkeypatch.setattr(verify_mod.dense, "r_change", flaky)
        rep = verify_bounds(np.eye(5), PerturbationSpec(Normwise(0.01), seed=4), 12,
                            experiment="qr-normwise")
        assert [i for i, _ in rep.skipped] == [1, 5, 9]
        assert all("too small to normalize" in reason for _, reason in rep.skipped)

    @pytest.mark.parametrize("experiment, breaks", [
        ("lu-normwise", lambda a: -a),                       # A + dA = 0
        ("qr-normwise", lambda a: -a * (np.arange(len(a)) == 2)),   # column 3 of A + dA = 0
    ])
    def test_failed_trial_is_skipped_and_others_unaffected(self, monkeypatch,
                                                           experiment, breaks):
        a = random_square(6, 2, shift=6.0)
        spec = PerturbationSpec(Normwise(1e-6), seed=8)
        real = verify_mod.sample_perturbation

        def run(replacement):
            def draw(spec, trial_index, **source):
                return replacement if trial_index == 3 else real(
                    spec, trial_index=trial_index, **source)
            monkeypatch.setattr(verify_mod, "sample_perturbation", draw)
            return verify_bounds(a, spec, 9, experiment=experiment)

        broken = run(breaks(a))
        # a zero draw has ratio 0, so the other trials decide the maxima
        quiet = run(np.zeros_like(a))
        reason = {"lu-normwise": "leading principal minor 1 is numerically singular",
                  "qr-normwise": "zero column during refactorization"}[experiment]
        assert broken.skipped == ((3, f"factorization failed: {reason}"),)
        assert not quiet.skipped
        assert broken.max_ratio_rigorous == quiet.max_ratio_rigorous > 0.0
        assert broken.max_ratio_first_order == quiet.max_ratio_first_order
        assert broken.violations == quiet.violations == 0


def _untimed(report):
    """A report's fields without its wall-clock timings, also those of its bound report."""
    fields = {k: v for k, v in vars(report).items() if k not in ("timings", "bound_report")}
    fields["bound_report"] = {k: v for k, v in vars(report.bound_report).items()
                              if not k.startswith("t_")}
    return fields


class TestBlocks:
    def test_block_size_does_not_change_the_report(self, monkeypatch):
        a = random_square(5, 4, shift=5.0)
        c = random_c_matrix(5, 1)
        cases = [
            (PerturbationSpec(Normwise(1e-4), seed=20), "lu-normwise"),
            (PerturbationSpec(ComponentwiseLU(1e-9), seed=21), "lu-componentwise"),
            (PerturbationSpec(Normwise(1e-4), seed=22), "qr-normwise"),
            (PerturbationSpec(ComponentwiseQR(1e-9, c), seed=23), "qr-componentwise"),
        ]
        for spec, experiment in cases:
            default = verify_bounds(a, spec, 7, experiment=experiment)
            for per_block in (1, 2):
                monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", per_block * a.size)
                small = verify_bounds(a, spec, 7, experiment=experiment)
                assert _untimed(small) == _untimed(default)
            monkeypatch.undo()

    def test_memory_does_not_grow_with_trials(self):
        a = random_square(10, 6, shift=10.0)
        spec = PerturbationSpec(Normwise(1e-6), seed=9)

        def peak(trials, experiment):
            tracemalloc.start()
            try:
                verify_bounds(a, spec, trials, experiment=experiment)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # LU blocks are refactorized in longdouble, QR blocks measured in float64
        for experiment, dtype in (("lu-normwise", verify_mod._MEASURE_DTYPE),
                                  ("qr-normwise", np.float64)):
            verify_bounds(a, spec, 1, experiment=experiment)     # first-call allocations
            block_bytes = verify_mod._BLOCK_ENTRIES * np.dtype(dtype).itemsize
            assert peak(20_000, experiment) - peak(1_000, experiment) < block_bytes


def _report_fields(report):
    return (report.violations, report.skipped,
            report.max_ratio_rigorous, report.max_ratio_first_order)


def _key(x):
    """A number from the low bits of each float; it picks the slices and trials
    to break whatever block they fall in."""
    return np.asarray(x, dtype=float).view(np.uint64) % 5


def _broken_changes(real):
    """The ``changes`` kernel ``real``, with some slices failed, some NaN and
    some with a zero first change."""
    def changes(base, stack):
        values, failures = real(base, stack)
        key = _key(values[:, 0])
        values[key == 0] = np.nan
        values[key == 1, 0] = 0.0
        injected = [(j, "factorization failed: injected") for j in np.flatnonzero(key == 2)]
        return values, sorted(failures + injected)
    return changes


def _broken_bounds(exp):
    """The evaluator of ``exp`` with a zero rigorous bound and a first-order bound of None.

    With ``trial_d1`` (the evaluator taken at each trial's own d1), the two
    are set on the trials that the bits of d1 pick; otherwise on the first
    and on the last change of every trial. The report at an array of d1
    carries, in each injected field, the value of the report at each element,
    NaN for None.
    """
    (rig_first, _), (_, fo_last) = exp.bound_fields[0], exp.bound_fields[-1]

    def bounds(factors, *envelope):
        at = exp.bounds(factors, *envelope)

        def report(size, *sizes):
            rep = at(size, *sizes)
            if np.ndim(size):
                each = [report(d, *sizes) for d in size.tolist()]
                return dataclasses.replace(rep, **{
                    name: np.array([np.nan if getattr(r, name) is None else getattr(r, name)
                                    for r in each]) for name in (rig_first, fo_last)})
            if sizes and size == sizes[0]:      # the report at d1 = d2, which gates the run
                return rep
            key = _key(size) if exp.trial_d1 else 3
            if key in (0, 3):
                rep = dataclasses.replace(rep, **{rig_first: 0.0})
            if key in (1, 3):
                rep = dataclasses.replace(rep, **{fo_last: None})
            return rep
        return report
    return bounds


class TestBlockAccounting:
    """The accounting of a block at once against the per-trial loop of the oracle."""

    CASES = [
        ("lu-normwise", lambda c: Normwise(1e-4)),
        ("lu-componentwise", lambda c: ComponentwiseLU(1e-9)),
        ("qr-normwise", lambda c: Normwise(1e-4)),
        ("qr-componentwise", lambda c: ComponentwiseQR(1e-9, c)),
    ]

    @pytest.mark.parametrize("experiment, model", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_trial_loop(self, experiment, model, monkeypatch):
        a = random_square(5, 4, shift=5.0)
        if experiment == "qr-normwise":     # m > n, so d1 < d2
            a = np.random.default_rng(17).standard_normal((9, 6))
        spec = PerturbationSpec(model(random_c_matrix(len(a), 2)), seed=8)
        for per_block in (None, 3):
            if per_block:
                monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", per_block * a.size)
            rep = verify_bounds(a, spec, 40, experiment=experiment)
            assert _report_fields(rep) == trial_loop_report(a, spec, 40, experiment)
            assert rep.violations == 0 and not rep.skipped and rep.max_ratio_rigorous > 0.0

    @pytest.mark.parametrize("experiment, model", CASES, ids=[c[0] for c in CASES])
    def test_skips_nans_and_zero_or_missing_bounds_as_the_loop(self, experiment, model,
                                                               monkeypatch):
        a = random_square(5, 4, shift=5.0)
        if experiment == "qr-normwise":
            a = np.random.default_rng(17).standard_normal((9, 6))
        exp = verify_mod.EXPERIMENTS[experiment]
        broken = dataclasses.replace(exp, changes=_broken_changes(exp.changes),
                                     bounds=_broken_bounds(exp))
        monkeypatch.setitem(verify_mod.EXPERIMENTS, experiment, broken)
        spec = PerturbationSpec(model(random_c_matrix(len(a), 2)), seed=9)
        want = trial_loop_report(a, spec, 60, experiment)
        violations, skipped, max_rig, max_fo = want
        # every injected case happened: failures, zero-bound violations with
        # an inf ratio, and trials with no first-order bound (qr-componentwise
        # has no first-order bound on any trial, so its ratio is 0)
        assert skipped and all(reason.endswith("injected") for _, reason in skipped)
        assert 0 < violations < 60 - len(skipped)
        assert max_rig == np.inf
        assert max_fo == 0.0 if experiment == "qr-componentwise" else 0.0 < max_fo < np.inf
        for per_block in (None, 1, 7):
            if per_block:
                monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", per_block * a.size)
            rep = verify_bounds(a, spec, 60, experiment=experiment)
            assert _report_fields(rep) == want
            assert type(rep.max_ratio_rigorous) is type(rep.max_ratio_first_order) is float

    def test_trial_d1_of_a_block_is_each_trials_own(self):
        # one stacked product and the stacked norms, bit for bit those of
        # each trial alone
        rng = np.random.default_rng(3)
        for m, n, k in ((9, 6, 40), (6, 6, 17), (40, 40, 3), (1, 1, 5)):
            q = dense.qr_factor(rng.standard_normal((m, n))).q
            da = 1e-7 * rng.standard_normal((k, m, n))
            d1 = dense.frobenius_norms(np.matmul(q.T, da))
            assert d1.tolist() == [float(np.linalg.norm(q.T @ slice_)) for slice_ in da]


class TestExperimentEnvelope:
    """Each experiment names the envelope E of its draws, |dA| <= epsilon E."""

    def test_lu_componentwise_envelope_is_the_cached_product(self):
        a = random_square(5, 3, shift=5.0)
        exp = verify_mod.EXPERIMENTS["lu-componentwise"]
        factors, _ = exp.factor(a)
        assert exp.envelope(ComponentwiseLU(0.01), a, factors) is factors.envelope

    def test_qr_componentwise_envelope_is_c_times_abs_a(self):
        a = random_square(5, 4)
        c = random_c_matrix(5, 6)
        exp = verify_mod.EXPERIMENTS["qr-componentwise"]
        envelope = exp.envelope(ComponentwiseQR(0.2, c), a, exp.factor(a)[0])
        assert np.array_equal(envelope, c @ np.abs(a))

    @pytest.mark.parametrize("experiment", ["lu-normwise", "qr-normwise"])
    def test_normwise_experiments_have_no_envelope(self, experiment):
        a = random_square(4, 2, shift=4.0)
        exp = verify_mod.EXPERIMENTS[experiment]
        assert exp.envelope(Normwise(1.0), a, exp.factor(a)[0]) is None


class TestDeltaHalving:
    def test_directions_fixed_across_levels(self):
        a = random_square(6, 5, shift=6.0)
        reps = delta_halving(a, PerturbationSpec(Normwise(1e-3), seed=6), 10, 3,
                             experiment="qr-normwise")
        assert len(reps) == 4
        ratios = [r.max_ratio_first_order for r in reps]
        # same directions at shrinking size: the ratio settles near its limit
        assert max(ratios) - min(ratios) < 0.05
        assert all(r.violations == 0 for r in reps)

    def test_levels_match_separate_runs(self):
        a = random_square(6, 7, shift=6.0)
        spec = PerturbationSpec(ComponentwiseLU(1e-8), seed=3)
        reps = delta_halving(a, spec, 10, 2)
        for level, rep in enumerate(reps):
            alone = verify_bounds(a, PerturbationSpec(ComponentwiseLU(1e-8 * 0.5 ** level),
                                                      seed=3), 10)
            assert _untimed(rep) == _untimed(alone)

    @pytest.mark.parametrize("experiment, model", [
        ("lu-normwise", Normwise(1e-8)),
        ("lu-componentwise", ComponentwiseLU(1e-10)),
        ("qr-normwise", Normwise(1e-8)),
        ("qr-componentwise", ComponentwiseQR(1e-10, random_c_matrix(6, 0))),
    ])
    def test_levels_share_every_norm_estimate(self, experiment, model, monkeypatch):
        a = random_square(6, 7, shift=6.0)
        counts = []
        for levels in (0, 3):
            # at order 6 the dense norms take the SVD route, so count them too
            calls = count_calls(monkeypatch, "krylov_spectral_norm", dense, structured)
            svd_calls = count_calls(monkeypatch, "spectral_norm", dense)
            delta_halving(a, PerturbationSpec(model, seed=3), 5, levels, experiment=experiment)
            counts.append(len(calls) + len(svd_calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("experiment, model", [
        ("lu-normwise", Normwise(1e-8)),
        ("lu-componentwise", ComponentwiseLU(1e-10)),
        ("qr-normwise", Normwise(1e-8)),
        ("qr-componentwise", ComponentwiseQR(1e-10, random_c_matrix(6, 0))),
    ])
    def test_no_halving_is_the_single_run(self, experiment, model):
        # the CLI runs every verification through delta_halving
        a = random_square(6, 7, shift=6.0)
        spec = PerturbationSpec(model, seed=3)
        alone = verify_bounds(a, spec, 20, experiment=experiment)
        (level0,) = delta_halving(a, spec, 20, 0, experiment=experiment)
        assert _untimed(level0) == _untimed(alone)
        assert level0.timings.keys() == alone.timings.keys()

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            delta_halving(np.eye(3), PerturbationSpec(Normwise(1e-3)), 5, -1,
                          experiment="lu-normwise")
