"""Dense kernels: factorizations, norms, triangular inverses."""

import numpy as np
import pytest

from fperturb import dense
from fperturb.dense import lu_factor, qr_factor, triangular_inverse
from fperturb.errors import (
    DimensionMismatch,
    NoConvergence,
    RankDeficient,
    SingularDiagonal,
    SingularLeadingMinor,
)
from fperturb.lu_bounds import lower_factor_operator, upper_factor_operator
from fperturb.matgen import graded_random, kahan
from fperturb.qr_bounds import r_factor_operator, r_quadratic_operator
from fperturb.structured import operator_materialize, operator_spectral_norm
from fperturb.verify import _qr_measure_r, _qr_measure_r_stack

from conftest import (
    random_square,
    random_unit_lower,
    random_upper,
    seeded_rng,
    svd_spectral_norm,
)


class TestLuFactor:
    def test_identity(self):
        f = lu_factor(np.eye(3))
        assert np.array_equal(f.l, np.eye(3))
        assert np.array_equal(f.u, np.eye(3))

    def test_hand_elimination(self):
        f = lu_factor(np.array([[4.0, 3.0], [6.0, 3.0]]))
        assert np.allclose(f.l, [[1, 0], [1.5, 1]])
        assert np.allclose(f.u, [[4, 3], [0, -1.5]])
        assert np.allclose(f.l @ f.u, [[4, 3], [6, 3]])

    def test_zero_leading_pivot(self):
        with pytest.raises(SingularLeadingMinor) as exc:
            lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert exc.value.k == 1

    def test_structure_invariants(self):
        for seed in range(20):
            a = random_square(7, seed, shift=3.0)
            f = lu_factor(a)
            assert np.array_equal(np.diag(f.l), np.ones(7))
            assert not np.triu(f.l, 1).any()
            assert not np.tril(f.u, -1).any()
            err = np.linalg.norm(f.l @ f.u - a) / np.linalg.norm(a)
            assert err <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            lu_factor(np.ones((2, 3)))

    def test_longdouble_input_keeps_its_precision(self):
        a = random_square(6, 1, shift=3.0)
        wide = lu_factor(a.astype(np.longdouble))
        assert wide.l.dtype == wide.u.dtype == np.longdouble
        assert np.allclose(wide.l.astype(float), lu_factor(a).l, rtol=0, atol=1e-13)
        assert lu_factor(a.astype(np.float32)).u.dtype == np.float64


def _loop_lu(a):
    """The pivot-free elimination one matrix at a time; the oracle of the stack kernel.

    Returns ``(l, u)``, or the 1-based index of the first gated pivot.
    """
    n = a.shape[0]
    scale = np.linalg.norm(a)
    u = a.copy()
    l = np.eye(n, dtype=a.dtype)
    for k in range(n - 1):
        piv = u[k, k]
        if abs(piv) <= dense.PIVOT_TOL * scale:
            return k + 1
        mults = u[k + 1 :, k] / piv
        l[k + 1 :, k] = mults
        u[k + 1 :, k:] -= np.outer(mults, u[k, k:])
        u[k + 1 :, k] = 0.0
    return l, np.triu(u)


def _loop_householder_r(a):
    """Householder R (positive diagonal) one matrix at a time; None on a zero column."""
    r = a.copy()
    m, n = r.shape
    for k in range(n):
        x = r[k:, k]
        nx = np.sqrt(np.sum(x * x))
        if nx == 0.0:
            return None
        v = x.copy()
        v[0] += nx if x[0] >= 0.0 else -nx
        s = np.sum(v * v)
        if s == 0.0:
            continue
        w = (r[k:, k:].T @ v) * (2.0 / s)
        r[k:, k:] -= np.outer(v, w)
    r = np.triu(r[:n, :n])
    return r * np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None]


def _longdouble_stacks():
    """Perturbed stacks of random, graded and Kahan matrices, n = 1..12 and 40."""
    for n in [*range(1, 13), 40]:
        bases = (random_square(n, 0, shift=float(n)), graded_random(n, 0.9, 1.1, n),
                 kahan(n, 0.4))
        for family, base in enumerate(bases):
            rng = seeded_rng(11, n, family)
            stack = base.astype(np.longdouble) + 1e-9 * rng.standard_normal((6, n, n))
            yield n, stack


class TestStackedKernels:
    """Every slice of a stacked factorization is bit-identical to the loop."""

    def test_lu_stack_matches_the_loop_and_the_2d_routine(self):
        for n, stack in _longdouble_stacks():
            l, u, singular = dense.lu_factor_stack(stack)
            assert l.dtype == u.dtype == np.longdouble
            for j, a in enumerate(stack):
                ref = _loop_lu(a)
                if isinstance(ref, int):
                    assert singular[j] == ref
                    continue
                assert singular[j] == 0
                assert np.array_equal(l[j], ref[0]) and np.array_equal(u[j], ref[1])
                single = lu_factor(a)
                assert np.array_equal(l[j], single.l) and np.array_equal(u[j], single.u)

    def test_householder_stack_matches_the_loop_and_the_2d_routine(self):
        for n, stack in _longdouble_stacks():
            r, zero_column = _qr_measure_r_stack(stack)
            assert r.dtype == np.longdouble
            for j, a in enumerate(stack):
                ref = _loop_householder_r(a)
                assert zero_column[j] == (ref is None)
                if ref is not None:
                    assert np.array_equal(r[j], ref)
                    assert np.array_equal(r[j], _qr_measure_r(a))

    def test_failed_slices_leave_the_others_alone(self):
        a = random_square(5, 2, shift=5.0).astype(np.longdouble)
        singular_stack = np.stack([a, a.copy(), a])
        singular_stack[1, 1] = singular_stack[1, 0]     # leading minor 2 is singular
        l, u, singular = dense.lu_factor_stack(singular_stack)
        assert list(singular) == [0, 2, 0]
        alone = lu_factor(a)
        for j in (0, 2):
            assert np.array_equal(l[j], alone.l) and np.array_equal(u[j], alone.u)

        zero_stack = np.stack([a, a.copy(), a])
        zero_stack[1, :, 3] = 0.0
        r, zero_column = _qr_measure_r_stack(zero_stack)
        assert list(zero_column) == [False, True, False]
        for j in (0, 2):
            assert np.array_equal(r[j], _qr_measure_r(a))

    def test_bad_stack_rejected(self):
        with pytest.raises(DimensionMismatch):
            dense.lu_factor_stack(np.ones((2, 2, 3)))
        with pytest.raises(ValueError):
            dense.lu_factor_stack(np.full((1, 2, 2), np.inf))


class TestQrFactor:
    def test_identity(self):
        f = qr_factor(np.eye(3))
        assert np.array_equal(f.q, np.eye(3))
        assert np.array_equal(f.r, np.eye(3))

    def test_single_column(self):
        f = qr_factor(np.array([[3.0], [4.0]]))
        assert np.allclose(f.q, [[0.6], [0.8]])
        assert np.allclose(f.r, [[5.0]])

    def test_triangular_input_is_exact(self):
        a = kahan(5, np.pi / 8)
        f = qr_factor(a)
        assert np.array_equal(f.q, np.eye(5))
        assert np.array_equal(f.r, a)

    def test_orthogonality_and_positive_diagonal(self):
        for seed in range(20):
            a = seeded_rng(1, seed).standard_normal((9, 6))
            f = qr_factor(a)
            assert np.linalg.norm(f.q.T @ f.q - np.eye(6)) <= 1e-12
            assert np.min(np.diag(f.r)) > 0.0
            assert np.linalg.norm(f.q @ f.r - a) <= 1e-11 * np.linalg.norm(a)

    def test_rank_deficient(self):
        a = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            qr_factor(a)

    def test_wide_rejected(self):
        with pytest.raises(DimensionMismatch):
            qr_factor(np.ones((2, 3)))


class TestNorms:
    def test_spectral_matches_svd_oracle(self):
        for seed in range(100):
            n = int(seeded_rng(2, seed).integers(2, 21))
            a = seeded_rng(3, seed).standard_normal((n, n))
            ref = np.linalg.svd(a, compute_uv=False)[0]
            assert dense.spectral_norm(a) == pytest.approx(ref, rel=1e-10)

    def test_product_norm_inequality(self):
        for seed in range(10):
            rng = seeded_rng(5, seed)
            x, y, z = (rng.standard_normal((4, 4)) for _ in range(3))
            lhs = np.linalg.norm(x @ y @ z)
            rhs = svd_spectral_norm(x) * np.linalg.norm(y) * svd_spectral_norm(z)
            assert lhs <= rhs * (1 + 1e-12)

    def test_no_convergence_budget(self, monkeypatch):
        a = seeded_rng(6, 0).standard_normal((12, 12))
        monkeypatch.setattr(dense, "KRYLOV_MAX_STEPS", 1)
        with pytest.raises(NoConvergence):
            dense.spectral_norm(a)


def _factor_maps(a):
    f = lu_factor(a)
    fq = qr_factor(a)
    return (lower_factor_operator(f), upper_factor_operator(f),
            r_factor_operator(fq), r_quadratic_operator(fq))


class TestKrylovEstimator:
    """The Krylov estimate against the dense SVD of the same map."""

    def test_factor_maps_match_svd(self):
        # at n = 2 the lower LU map has one output, so the bidiagonalization
        # breaks down after one step
        for n in range(2, 9):
            a = random_square(n, 0, shift=0.5 * n)
            for op in _factor_maps(a):
                ref = svd_spectral_norm(operator_materialize(op))
                assert operator_spectral_norm(op) == pytest.approx(ref, rel=1e-11)

    def test_zero_map(self):
        assert dense.spectral_norm(np.zeros((3, 4))) == 0.0

    def test_start_vector_in_null_space_restarts(self):
        a = np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -2.0]])
        assert not (a @ np.ones(3)).any()
        assert dense.spectral_norm(a) == pytest.approx(svd_spectral_norm(a), rel=1e-11)

    def test_clustered_spectrum_within_matvec_budget(self):
        # clustered top singular values: stopping on a small per-step change
        # of the estimate would end 1e-11 to 5e-11 low after 232 to 979 matvecs
        for op in _factor_maps(graded_random(30, 1, 1, 0) + 30 * np.eye(30)):
            calls = []

            def matvec(v, op=op):
                calls.append(1)
                return op.apply(v)

            got = dense._krylov_spectral_norm(matvec, op.apply_transpose, op.in_dim)
            ref = svd_spectral_norm(operator_materialize(op))
            assert got == pytest.approx(ref, rel=1e-11)
            assert len(calls) <= 100


class TestSmallestSingularValue:
    def test_inverse_norm_oracle(self):
        # 1/sigma_min equals the spectral norm of the explicit inverse,
        # computed through the package's own Krylov estimator.
        for seed in range(10):
            a = random_square(5, seed, shift=4.0)
            smin = np.linalg.svd(a, compute_uv=False)[-1]
            ref = dense.spectral_norm(np.linalg.inv(a))
            assert 1.0 / smin == pytest.approx(ref, rel=1e-10)


class TestTriangularInverse:
    def test_identity(self):
        assert np.array_equal(triangular_inverse(np.eye(4), "upper"), np.eye(4))

    def test_diagonal(self):
        out = triangular_inverse(np.diag([2.0, 4.0]), "upper")
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_unit_lower(self):
        out = triangular_inverse(np.array([[1.0, 0.0], [3.0, 1.0]]), "lower")
        assert np.allclose(out, [[1.0, 0.0], [-3.0, 1.0]])

    @pytest.mark.parametrize("shape", ["lower", "upper"])
    def test_reconstruction_and_structure(self, shape):
        for seed in range(10):
            t = random_upper(6, seed) if shape == "upper" else random_unit_lower(6, seed)
            inv = triangular_inverse(t, shape)
            assert np.linalg.norm(t @ inv - np.eye(6)) <= 1e-11
            assert np.allclose(inv, np.triu(inv) if shape == "upper" else np.tril(inv))
            assert np.allclose(inv, np.linalg.inv(t), atol=1e-9)

    def test_singular_diagonal(self):
        t = np.triu(np.ones((3, 3)))
        t[1, 1] = 0.0
        with pytest.raises(SingularDiagonal) as exc:
            triangular_inverse(t, "upper")
        assert exc.value.k == 2

    @pytest.mark.parametrize("shape", ["lower", "upper"])
    def test_overflowing_inverse_is_singular(self, shape):
        # the reciprocal of a subnormal diagonal entry overflows; RuntimeWarnings
        # are errors in this suite, so none may escape either
        with pytest.raises(SingularDiagonal) as exc:
            triangular_inverse(np.diag([1.0, 1e-320, 1.0]), shape)
        assert exc.value.k == 2
        # no tiny reciprocal, but the substitution grows past the largest double
        t = np.array([[1e-200, 1.0], [0.0, 1e-200]])
        with pytest.raises(SingularDiagonal) as exc:
            triangular_inverse(t if shape == "upper" else t.T, shape)
        assert exc.value.k == (1 if shape == "upper" else 2)
