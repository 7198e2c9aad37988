"""Monte Carlo verification harness."""

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
)
from fperturb.verify import delta_halving, infer_experiment, verify_bounds

from conftest import count_calls, random_square


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

        def peak(trials):
            tracemalloc.start()
            try:
                verify_bounds(a, spec, trials, experiment="lu-normwise")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        verify_bounds(a, spec, 1, experiment="lu-normwise")     # first-call allocations
        block_bytes = verify_mod._BLOCK_ENTRIES * np.dtype(verify_mod._MEASURE_DTYPE).itemsize
        assert peak(20_000) - peak(1_000) < block_bytes


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
            calls = count_calls(monkeypatch, "_krylov_spectral_norm", dense, structured)
            delta_halving(a, PerturbationSpec(model, seed=3), 5, levels, experiment=experiment)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            delta_halving(np.eye(3), PerturbationSpec(Normwise(1e-3)), 5, -1,
                          experiment="lu-normwise")
