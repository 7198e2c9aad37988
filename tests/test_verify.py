"""Monte Carlo verification harness."""

import numpy as np
import pytest

from fperturb import verify as verify_mod
from fperturb.errors import BoundNotApplicable, SingularLeadingMinor
from fperturb.matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    random_c_matrix,
)
from fperturb.verify import delta_halving, infer_experiment, verify_bounds

from conftest import random_square


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
        # the first two calls factorize the base matrix, in double and in longdouble
        real = verify_mod.dense.lu_factor
        calls = {"n": 0}

        def flaky(a):
            calls["n"] += 1
            if calls["n"] % 4 == 0:
                raise SingularLeadingMinor(1)
            return real(a)

        monkeypatch.setattr(verify_mod.dense, "lu_factor", flaky)
        rep = verify_bounds(np.eye(6), PerturbationSpec(Normwise(0.1), seed=4), 12,
                            experiment="lu-normwise")
        assert rep.skipped
        assert all("singular" in reason for _, reason in rep.skipped)
        assert rep.trials == 12


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
