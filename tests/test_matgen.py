"""Test-matrix generators and perturbation sampling."""

import math

import numpy as np
import pytest

from fperturb.dense import euclidean_norm, lu_factor, qr_factor
from fperturb.matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    graded_random,
    kahan,
    random_c_matrix,
    rng_stream,
    sample_perturbation,
)


class TestKahan:
    def test_order_one(self):
        assert np.array_equal(kahan(1, 0.5), [[1.0]])

    def test_hand_values(self):
        a = kahan(2, math.pi / 3)
        assert a[0, 0] == 1.0
        assert a[0, 1] == pytest.approx(-0.5)
        assert a[1, 1] == pytest.approx(math.sqrt(3.0) / 2.0)
        assert a[1, 0] == 0.0

    def test_own_triangular_factor(self):
        a = kahan(5, math.pi / 8)
        f = qr_factor(a)
        assert np.array_equal(f.q, np.eye(5))
        assert np.array_equal(f.r, a)

    @pytest.mark.parametrize("theta", [0.1, math.pi / 8, 1.2])
    def test_lu_exists(self, theta):
        lu_factor(kahan(8, theta))  # all leading minors are products of positives

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kahan(3, 0.0)
        with pytest.raises(ValueError):
            kahan(0, 0.5)


class TestGradedRandom:
    def test_trivial_grading_is_plain_normal(self):
        a = graded_random(6, 1.0, 1.0, 42)
        b = graded_random(6, 1.0, 1.0, 42)
        assert np.array_equal(a, b)

    def test_grading_applied(self):
        a = graded_random(4, 0.5, 2.0, 3)
        b = graded_random(4, 1.0, 1.0, 3)
        scale = (0.5 ** np.arange(4))[:, None] * (2.0 ** np.arange(4))[None, :]
        assert np.allclose(a, b * scale)

    def test_seed_sensitivity(self):
        assert not np.array_equal(graded_random(5, 1, 1, 1), graded_random(5, 1, 1, 2))


class TestRandomC:
    def test_range_and_determinism(self):
        c = random_c_matrix(6, 9)
        assert np.all((0.0 <= c) & (c <= 1.0))
        assert np.array_equal(c, random_c_matrix(6, 9))

    def test_mean_sanity(self):
        c = random_c_matrix(50, 11)
        assert abs(c.mean() - 0.5) < 0.05


class TestSamplePerturbation:
    def test_normwise_exact_size(self):
        spec = PerturbationSpec(model=Normwise(delta=0.37), seed=5)
        da = sample_perturbation(spec, matrix=np.zeros((4, 4)), trial_index=0)
        assert np.linalg.norm(da) == pytest.approx(0.37, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_normwise_draws_never_exceed_delta(self, n):
        # a rescaled direction that rounds above delta is moved below it; one
        # that does not is left bit for bit as it was
        delta = 1e-8
        spec = PerturbationSpec(model=Normwise(delta=delta), seed=0)
        a = np.zeros((n, n))
        for i in range(2000):
            da = sample_perturbation(spec, matrix=a, trial_index=i)
            assert np.linalg.norm(da) <= delta
            g = rng_stream(0, i).standard_normal((n, n))
            plain = delta * g / np.linalg.norm(g)
            if np.linalg.norm(plain) <= delta:
                assert np.array_equal(da, plain)
            else:
                assert np.allclose(da, plain, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("delta", [1e-160, 1e-310])
    def test_tiny_normwise_draws_return_within_delta(self, n, delta):
        # the squares of these entries underflow, so only a scaled norm can
        # see the few ulps by which a draw overshoots delta
        spec = PerturbationSpec(model=Normwise(delta=delta), seed=0)
        for i in range(50):
            da = sample_perturbation(spec, matrix=np.zeros((n, n)), trial_index=i)
            assert 0.0 < euclidean_norm(da) <= delta

    def test_normwise_draw_that_overflows_returns(self):
        # delta * g overflows here; shrinking an infinite entry by one ulp at a
        # time would never bring the norm below delta
        spec = PerturbationSpec(model=Normwise(delta=1.7e308), seed=0)
        with np.errstate(over="ignore"):
            da = sample_perturbation(spec, matrix=np.zeros((3, 3)), trial_index=1)
        assert not np.isfinite(da).all()

    def test_normwise_zero(self):
        spec = PerturbationSpec(model=Normwise(delta=0.0), seed=5)
        assert not sample_perturbation(spec, matrix=np.zeros((3, 3))).any()

    def test_componentwise_lu_envelope(self):
        f = lu_factor(graded_random(5, 1, 1, 3) + 5 * np.eye(5))
        spec = PerturbationSpec(model=ComponentwiseLU(epsilon=0.01), seed=8)
        da = sample_perturbation(spec, lu=f, trial_index=4)
        env = 0.01 * np.abs(f.l) @ np.abs(f.u)
        assert np.all(np.abs(da) <= env)

    def test_componentwise_qr_envelope(self):
        a = graded_random(5, 1, 1, 4)
        c = random_c_matrix(5, 6)
        spec = PerturbationSpec(model=ComponentwiseQR(epsilon=0.2, c=c), seed=8)
        da = sample_perturbation(spec, matrix=a, trial_index=1)
        assert np.all(np.abs(da) <= 0.2 * c @ np.abs(a))

    def test_trial_streams_independent_and_stable(self):
        spec = PerturbationSpec(model=Normwise(delta=1.0), seed=77)
        a = np.zeros((3, 3))
        d0 = sample_perturbation(spec, matrix=a, trial_index=0)
        d1 = sample_perturbation(spec, matrix=a, trial_index=1)
        assert not np.array_equal(d0, d1)
        assert np.array_equal(d0, sample_perturbation(spec, matrix=a, trial_index=0))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            Normwise(delta=-1.0)
        with pytest.raises(ValueError):
            ComponentwiseQR(epsilon=0.1, c=np.full((2, 2), 1.5))

    @pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
    def test_non_finite_sizes_rejected(self, size):
        with pytest.raises(ValueError):
            Normwise(delta=size)
        with pytest.raises(ValueError):
            ComponentwiseLU(epsilon=size)
        with pytest.raises(ValueError):
            ComponentwiseQR(epsilon=size, c=np.full((2, 2), 0.5))
