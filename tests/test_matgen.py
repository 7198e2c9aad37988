"""Test-matrix generators and perturbation sampling."""

import math
import sys
import threading

import numpy as np
import pytest

from fperturb import matgen
from fperturb.dense import euclidean_norm, lu_factor, qr_factor
from fperturb.matgen import (
    STREAM_CHUNK,
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    componentwise_envelope,
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
        # delta * g overflows here, so the unit direction is scaled instead;
        # no overflow warning is raised on the way
        spec = PerturbationSpec(model=Normwise(delta=1.7e308), seed=0)
        da = sample_perturbation(spec, matrix=np.zeros((3, 3)), trial_index=1)
        assert np.isfinite(da).all()
        with np.errstate(over="ignore"):
            assert euclidean_norm(da) <= 1.7e308

    def test_normwise_zero(self):
        spec = PerturbationSpec(model=Normwise(delta=0.0), seed=5)
        assert not sample_perturbation(spec, matrix=np.zeros((3, 3))).any()

    def test_componentwise_lu_envelope(self):
        f = lu_factor(graded_random(5, 1, 1, 3) + 5 * np.eye(5))
        spec = PerturbationSpec(model=ComponentwiseLU(epsilon=0.01), seed=8)
        envelope = componentwise_envelope(spec.model, lu=f)
        da = sample_perturbation(spec, envelope=envelope, trial_index=4)
        env = 0.01 * np.abs(f.l) @ np.abs(f.u)
        assert np.all(np.abs(da) <= env)

    def test_componentwise_qr_envelope(self):
        a = graded_random(5, 1, 1, 4)
        c = random_c_matrix(5, 6)
        spec = PerturbationSpec(model=ComponentwiseQR(epsilon=0.2, c=c), seed=8)
        envelope = componentwise_envelope(spec.model, matrix=a)
        da = sample_perturbation(spec, envelope=envelope, trial_index=1)
        assert np.all(np.abs(da) <= 0.2 * c @ np.abs(a))

    def test_componentwise_draw_needs_the_envelope(self):
        a = graded_random(3, 1, 1, 4)
        for spec in (PerturbationSpec(ComponentwiseLU(0.01), seed=8),
                     PerturbationSpec(ComponentwiseQR(0.2, np.ones((3, 3))), seed=8)):
            for trial_index in (None, 2):
                with pytest.raises(ValueError, match="envelope"):
                    sample_perturbation(spec, matrix=a, trial_index=trial_index)

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


def _draws(rng):
    return (rng.standard_normal((3, 4)), rng.random(5), rng.integers(0, 2, size=7))


def _assert_same_draws(got, want):
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


class TestTrialStreams:
    """Trial stream (seed, i) is bit for bit that of np.random.default_rng([seed, i])."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5])
    # 2**32 - 1 and 2**32 split into one and two words, so a chunk must not mix them
    @pytest.mark.parametrize("index", [0, 1, 1023, 1024, 2**32 - 1, 2**32, 2**32 + 3])
    def test_streams_match_numpy_seeding(self, seed, index):
        oracle = np.random.default_rng([seed, index])
        _assert_same_draws(_draws(rng_stream(seed, index)), _draws(oracle))

    def test_draws_match_the_oracle_streams(self):
        # sample_perturbation draws on the reused generator of its thread
        a = np.ones((3, 3))
        spec = PerturbationSpec(ComponentwiseQR(0.5, np.ones((3, 3))), seed=2873465123)
        envelope = componentwise_envelope(spec.model, matrix=a)
        for i in (0, 5, 1023, 1024, 3000):
            da = sample_perturbation(spec, envelope=envelope, trial_index=i)
            oracle = np.random.default_rng([spec.seed, i])
            mags = oracle.random((3, 3))
            signs = oracle.integers(0, 2, size=(3, 3)) * 2.0 - 1.0
            assert np.array_equal(da, 0.5 * np.full((3, 3), 3.0) * (mags * signs))

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (7, 4), (40, 40)])
    def test_signs_are_those_of_integers(self, shape):
        # the componentwise signs come from the raw words of the stream, and
        # are those rng.integers(0, 2) draws after rng.random(shape)
        spec = PerturbationSpec(ComponentwiseLU(1.0), seed=11)
        envelope = np.ones(shape)
        for i in range(40):
            da = sample_perturbation(spec, envelope=envelope, trial_index=i)
            oracle = rng_stream(spec.seed, i)
            mags = oracle.random(shape)
            signs = oracle.integers(0, 2, size=shape)
            assert np.array_equal(np.signbit(da), signs == 0)
            assert np.array_equal(np.abs(da), mags)

    def test_interleaved_streams_each_match(self):
        a = np.zeros((4, 4))
        specs = [PerturbationSpec(Normwise(1.0), seed=s) for s in (3, 2**40)]
        for i in (0, 1, 2000, 1, 5000):
            for spec in specs:
                da = sample_perturbation(spec, matrix=a, trial_index=i)
                g = np.random.default_rng([spec.seed, i]).standard_normal((4, 4))
                assert np.allclose(da, g / np.linalg.norm(g), rtol=1e-15, atol=0.0)

    def test_threads_drawing_at_once_each_match(self):
        # each thread keeps its own generator and chunk of states; switching
        # threads often interleaves their draws, chunk by chunk
        threads_count = 4
        errors = []
        start = threading.Barrier(threads_count)

        def work(t):
            start.wait()
            spec = PerturbationSpec(Normwise(1.0), seed=t)
            for i in range(0, 3 * STREAM_CHUNK, 97):
                da = sample_perturbation(spec, matrix=np.zeros((2, 2)), trial_index=i)
                g = np.random.default_rng([t, i]).standard_normal((2, 2))
                if not np.allclose(da, g / np.linalg.norm(g), rtol=1e-15, atol=0.0):
                    errors.append((t, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

    def test_rng_stream_returns_independent_generators(self):
        first = rng_stream(9, 4)
        second = rng_stream(9, 4)
        assert second is not first and second.bit_generator is not first.bit_generator
        oracle = np.random.default_rng([9, 4]).standard_normal(6)
        assert np.array_equal(first.standard_normal(3), oracle[:3])
        # other streams and draws in between leave a held generator as it was
        sample_perturbation(PerturbationSpec(Normwise(1.0), seed=1), matrix=np.zeros((2, 2)),
                            trial_index=5000)
        rng_stream(9, 70000).standard_normal(8)
        assert np.array_equal(first.standard_normal(3), oracle[3:])
        assert np.array_equal(second.standard_normal(6), oracle)

    def test_negative_seed_or_index_is_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            PerturbationSpec(Normwise(1.0), seed=-1)
        with pytest.raises(ValueError, match="seed"):
            rng_stream(-1)
        with pytest.raises(ValueError, match="seed"):
            rng_stream(-1, 3)
        with pytest.raises(ValueError, match="trial_index"):
            rng_stream(1, -3)


class TestChunkCache:
    def test_alternating_draws_derive_each_chunk_once(self):
        # draws that alternate between two seeds, and between two chunks of a
        # seed, derive the states of each (seed, chunk) pair once
        matgen._chunk_seeds.cache_clear()
        pairs = set()
        for i in (0, 1, STREAM_CHUNK, 2, STREAM_CHUNK + 1, 3):
            for seed in (1, 2):
                sample_perturbation(PerturbationSpec(Normwise(1.0), seed=seed),
                                    matrix=np.zeros((3, 3)), trial_index=i)
                pairs.add((seed, i // STREAM_CHUNK))
        assert matgen._chunk_seeds.cache_info().misses == len(pairs) == 4


class TestEnvelope:
    def test_envelope_passed_once_gives_the_same_draws(self):
        a = graded_random(5, 1, 1, 4)
        f = lu_factor(a + 5 * np.eye(5))
        c = random_c_matrix(5, 6)
        assert componentwise_envelope(ComponentwiseLU(0.01), lu=f) is f.envelope
        assert np.array_equal(componentwise_envelope(ComponentwiseQR(0.2, c), matrix=a),
                              c @ np.abs(a))

    def test_normwise_model_has_no_envelope(self):
        with pytest.raises(TypeError):
            componentwise_envelope(Normwise(1.0), matrix=np.eye(2))
