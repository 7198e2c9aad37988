"""Dense kernels: factorizations, norms, triangular inverses."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fperturb import dense
from fperturb.dense import lu_factor, qr_factor, triangular_inverse
from fperturb.errors import (
    DimensionMismatch,
    NoConvergence,
    NormOverflow,
    RankDeficient,
    SingularDiagonal,
    SingularLeadingMinor,
)
from fperturb.lu_bounds import lower_factor_operator, upper_factor_operator
from fperturb.matgen import graded_random, kahan
from fperturb.qr_bounds import r_factor_operator, r_quadratic_operator
from fperturb.structured import operator_materialize, operator_spectral_norm

from conftest import (
    count_calls,
    householder_r_stack,
    measure_r,
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

    def test_pivot_gate_where_the_squares_overflow_or_underflow(self):
        # ||A||_F squares entries near 1e160 to inf and entries near 1e-160 to
        # subnormals; the gate rescales such a slice instead of gating every pivot
        for a in (np.array([[1.0, 2.0], [3.0, 1.0]]), random_square(6, 2, shift=3.0)):
            base = lu_factor(a)
            for scale in (2.0 ** 530, 2.0 ** -530):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    f = lu_factor(scale * a)
                    _, _, singular = dense.lu_factor_stack(np.stack([a, scale * a]))
                assert np.array_equal(f.l, base.l)
                assert np.array_equal(f.u, scale * base.u)
                assert not singular.any()
        f = lu_factor(1e160 * np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert f.u[1, 1] == pytest.approx(-5e160, rel=1e-15)

    def test_envelope_is_the_cached_product(self):
        f = lu_factor(random_square(5, 3, shift=5.0))
        assert np.array_equal(f.envelope, np.abs(f.l) @ np.abs(f.u))
        assert f.envelope is f.envelope

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
            r, zero_column = dense.qr_r_stack(stack)
            assert r.dtype == np.longdouble
            for j, a in enumerate(stack):
                ref = _loop_householder_r(a)
                assert zero_column[j] == (ref is None)
                if ref is not None:
                    assert np.array_equal(r[j], ref)
                    assert np.array_equal(r[j], measure_r(a))

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
        r, zero_column = dense.qr_r_stack(zero_stack)
        assert list(zero_column) == [False, True, False]
        for j in (0, 2):
            assert np.array_equal(r[j], measure_r(a))

    def test_householder_flags_a_reflector_too_small_to_normalize(self):
        # at 2^-530, v.v = 2^-1058 is subnormal in float64 and 2 / v.v
        # overflows; no warning, a finite R, and the other slices alone
        tiny = 2.0**-530
        stack = np.array([[[1.5]], [[tiny]], [[-3.0]], [[-tiny]]])
        r, failed = dense.qr_r_stack(stack)
        assert failed.tolist() == [0, dense.TINY_REFLECTOR, 0, dense.TINY_REFLECTOR]
        assert np.isfinite(r).all()
        assert r[0, 0, 0] == 1.5 and r[2, 0, 0] == 3.0
        # longdouble has the range, and its bits are those of the oracle
        wide, wide_failed = dense.qr_r_stack(stack.astype(np.longdouble))
        ref, ref_failed = householder_r_stack(stack.astype(np.longdouble))
        if dense.WIDE_LONGDOUBLE:
            assert not wide_failed.any() and not ref_failed.any()
            assert np.array_equal(wide, ref) and wide[1, 0, 0] == tiny
        # a slice that also meets a zero column reports that
        both = np.array([[[tiny, 0.0], [0.0, 0.0]]])
        assert dense.qr_r_stack(both)[1].tolist() == [dense.ZERO_COLUMN]

    def test_householder_column_whose_squares_underflow_is_not_zero(self):
        # at 1e-170 every square underflows to 0 in float64, but the column
        # is not zero: its reflector is the one too small to normalize
        assert dense.qr_r_stack(np.array([[[1e-170]]]))[1].tolist() == [dense.TINY_REFLECTOR]
        stack = np.array([[[1e-170, 1.0], [-1e-170, 2.0]], [[0.0, 1.0], [0.0, 2.0]]])
        r, failed = dense.qr_r_stack(stack)
        assert failed.tolist() == [dense.TINY_REFLECTOR, dense.ZERO_COLUMN]
        assert np.isfinite(r).all()

    def test_householder_stack_keeps_the_lu_precision_rule(self):
        a = random_square(4, 1, shift=4.0)
        for given, kept in ((a, np.float64), (a.astype(np.float32), np.float64),
                            (a.astype(np.longdouble), np.longdouble)):
            r, zero_column = dense.qr_r_stack(given[None])
            assert r.dtype == kept and not zero_column[0]
        assert np.allclose(dense.qr_r_stack(a[None])[0][0], qr_factor(a).r, rtol=1e-12)

    def test_bad_stack_rejected(self):
        with pytest.raises(DimensionMismatch):
            dense.qr_r_stack(np.ones((2, 2, 3)))
        with pytest.raises(DimensionMismatch):
            dense.qr_r_stack(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            dense.lu_factor_stack(np.ones((2, 2, 3)))
        with pytest.raises(ValueError):
            dense.lu_factor_stack(np.full((1, 2, 2), np.inf))


#: fraction bits of longdouble: 63 in the x87 extended format, 112 in IEEE quad
_LONGDOUBLE_NMANT = np.finfo(np.longdouble).nmant


class TestMatmulPremise:
    """numpy's longdouble matmul starts from zero and adds each rounded product in turn.

    The Doolittle branch of ``dense.lu_factor_stack`` is bit for bit the
    right-looking elimination only while this holds. The constants assume a
    binary format that rounds to nearest, which a double-double is not.
    """

    pytestmark = pytest.mark.skipif(
        not dense.WIDE_LONGDOUBLE or _LONGDOUBLE_NMANT not in (63, 112),
        reason="longdouble is not IEEE extended or quad precision")

    def test_products_are_added_in_order(self):
        # half an ulp of 1 rounds away (to even) when added to it; any pairwise
        # or blocked order adds some of them first, up to 8 ulps
        half_ulp = np.finfo(np.longdouble).eps / 2
        row = np.array([1.0] + [half_ulp] * 16, dtype=np.longdouble)
        ones = np.ones_like(row)
        assert row[0] + row[1] * 16 != 1
        assert np.matmul(row[None, :], ones[:, None])[0, 0] == 1
        stacked = np.matmul(np.stack([row] * 3)[:, None, :], np.stack([ones] * 3)[:, :, None])
        assert (stacked == 1).all()

    def test_each_product_is_rounded_before_it_is_added(self):
        # h^2 = a + 2^-2q, at most half an ulp of a, rounds to a (to even at a
        # tie); a fused multiply-add keeps the 2^-2q
        q = _LONGDOUBLE_NMANT // 2 + 1
        h = np.longdouble(1) + np.longdouble(2) ** -q
        a = np.longdouble(1) + np.longdouble(2) ** (1 - q)
        assert a - h * h == 0
        assert np.matmul(np.array([[a, h]]), np.array([[1], [-h]], dtype=np.longdouble)) == 0


_SCALES = (1.0, 2.0**530, 2.0**-530, 1e160)


class TestKernelsAgainstOracles:
    """The stacked kernels against the right-looking and untrimmed oracles, bit for bit."""

    @pytest.mark.skipif(not dense.WIDE_LONGDOUBLE, reason="longdouble is not wider than float64")
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 64), n=st.integers(1, 45), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from(_SCALES), broken=st.integers(0, 3))
    def test_lu_stack(self, k, n, seed, scale, broken):
        # the Doolittle order against the right-looking one, which float64
        # stacks run and the other stack tests cover
        rng = seeded_rng(12, seed)
        a = scale * rng.standard_normal((k, n, n))
        if n > 1:       # slices whose leading minor of order p is singular
            for s in rng.choice(k, size=min(broken, k), replace=False):
                p = int(rng.integers(1, n))
                a[s, p - 1, :p] = 2.0 * a[s, 0, :p] if p > 1 else 0.0
        a = a.astype(np.longdouble)
        l, u, singular = dense.lu_factor_stack(a)
        ref_l, ref_u, ref_singular = dense._right_looking(a, dense._pivot_tols(a))
        assert l.dtype == u.dtype == np.longdouble
        assert u.flags.c_contiguous
        assert np.array_equal(singular, ref_singular)
        done = singular == 0
        assert np.array_equal(l[done], ref_l[done]) and np.array_equal(u[done], ref_u[done])

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 64), n=st.integers(1, 45), extra=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from(_SCALES),
           wide=st.booleans(), broken=st.integers(0, 3))
    def test_householder_stack(self, k, n, extra, seed, scale, wide, broken):
        assume(wide or scale == 1.0)    # float64 squares overflow or underflow at the others
        rng = seeded_rng(13, seed)
        a = scale * rng.standard_normal((k, n + extra, n))
        for s in rng.choice(k, size=min(broken, k), replace=False):
            a[s, :, rng.integers(n)] = 0.0
        a = a.astype(np.longdouble if wide else float)
        r, failed = dense.qr_r_stack(a)
        ref_r, ref_zero_column = householder_r_stack(a)
        assert r.dtype == a.dtype
        assert np.array_equal(failed, ref_zero_column * dense.ZERO_COLUMN)
        done = failed == 0
        assert np.array_equal(r[done], ref_r[done])


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


_K = dense.SVD_MAX_ORDER


def _abs_lu_map(n, upper):
    """|M| of an LU factor map: n(n+1)/2 (upper) or n(n-1)/2 (lower) by n^2."""
    f = lu_factor(random_square(n, 0, shift=float(n)))
    return np.abs(operator_materialize((upper_factor_operator if upper
                                        else lower_factor_operator)(f)))


class TestNorms:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: seeded_rng(12, 0).standard_normal((_K, _K)), id="square-svd"),
        pytest.param(lambda: seeded_rng(12, 1).standard_normal((_K + 1, _K + 1)),
                     id="square-krylov"),
        pytest.param(lambda: seeded_rng(12, 2).standard_normal((3 * _K, _K)), id="tall-svd"),
        pytest.param(lambda: seeded_rng(12, 3).standard_normal((3 * _K, _K + 1)),
                     id="tall-krylov"),
        pytest.param(lambda: seeded_rng(12, 4).standard_normal((_K, 3 * _K)), id="wide-svd"),
        pytest.param(lambda: seeded_rng(12, 5).standard_normal((_K + 1, 3 * _K)),
                     id="wide-krylov"),
        pytest.param(lambda: _abs_lu_map(10, upper=False), id="lu-lower-45x100-svd"),
        pytest.param(lambda: _abs_lu_map(10, upper=True), id="lu-upper-55x100-svd"),
        pytest.param(lambda: _abs_lu_map(12, upper=False), id="lu-lower-66x144-krylov"),
        pytest.param(lambda: _abs_lu_map(12, upper=True), id="lu-upper-78x144-krylov"),
        pytest.param(lambda: np.array([[-3.0]]), id="1x1"),
        pytest.param(lambda: np.zeros((3, 4)), id="zero"),
        pytest.param(lambda: np.zeros((0, 3)), id="empty"),
        pytest.param(lambda: np.full((2, 2), 1e200), id="squares-overflow-svd"),
        pytest.param(lambda: 1e200 * seeded_rng(12, 6).standard_normal((_K + 1, _K + 1)),
                     id="squares-overflow-krylov"),
    ])
    def test_spectral_norm_routes(self, make, monkeypatch):
        # the SVD route up to SVD_MAX_ORDER gives the oracle exactly; above it
        # the Krylov estimate is within its tolerance of the oracle
        a = make()
        krylov = count_calls(monkeypatch, "krylov_spectral_norm", dense)
        got = dense.spectral_norm(a)
        ref = svd_spectral_norm(a)
        if min(a.shape) <= _K:
            assert not krylov
            assert got == ref
        else:
            assert len(krylov) == 1
            assert got == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("a", [np.full((2, 2), 1e308), np.full((_K + 1, _K + 1), 1e307)],
                             ids=["svd", "krylov"])
    def test_overflowing_norm_is_typed_on_both_routes(self, a):
        with pytest.raises(NormOverflow):
            dense.spectral_norm(a)

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

    @pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 3, 3), (655, 10, 10), (40, 40, 40),
                                       (5, 2, 7), (3, 1, 5000)])
    def test_frobenius_norms_are_the_plain_norms(self, dtype, shape):
        # the change norms of a block of trials and the pivot gate of a stack
        # must equal, bit for bit, np.linalg.norm of each slice alone
        rng = seeded_rng(13, *shape)
        for scale in (1.0, 1e-10, 1e-170, 1e150):
            x = (scale * rng.standard_normal(shape)).astype(dtype)
            x += (1e-12 * scale * rng.standard_normal(shape)).astype(dtype)
            norms = dense.frobenius_norms(x)
            assert norms.dtype == dtype
            assert np.array_equal(norms, [np.linalg.norm(s) for s in x])

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_euclidean_norm_is_numpys_bit_for_bit(self, dtype):
        # its first try runs numpy's dot and sqrt without numpy's dispatch
        x = (seeded_rng(14).standard_normal((9, 8, 7)) * 1e-3).astype(dtype)
        views = {"c": x[0], "f": np.asfortranarray(x[1]), "strided": x[2, ::2, 1::3],
                 "transposed": x.transpose(2, 0, 1), "vector": x[3, 4], "stack": x,
                 "column": x[4, :, 2], "reversed": x[5, ::-1, ::-1]}
        for name, view in views.items():
            norm = dense.euclidean_norm(view)
            plain = np.linalg.norm(view)
            assert norm == plain, name
            assert type(norm) is (float if dtype == np.float64 else np.longdouble), name

    def test_euclidean_norm_outside_the_squaring_range(self):
        x = np.array([3.0, 4.0])
        assert dense.euclidean_norm(x) == np.linalg.norm(x)
        assert dense.euclidean_norm(np.zeros(3)) == 0.0
        assert dense.euclidean_norm(np.zeros(0)) == 0.0
        # the unscaled first try overflows, as the docstring says
        with np.errstate(over="ignore"):
            for scale in (1e-300, 1e-170, 1e200, 1e300):
                assert dense.euclidean_norm(scale * x) == pytest.approx(5.0 * scale, rel=1e-15)
            assert dense.euclidean_norm(np.full(2, 1.5e308)) == np.inf
            assert dense.euclidean_norm(np.array([1.0, np.inf])) == np.inf
            assert np.isnan(dense.euclidean_norm(np.array([1.0, np.nan])))

    def test_euclidean_norm_along_an_axis(self):
        # each norm along the axis is numpy's where squaring loses nothing,
        # and otherwise bit for bit the norm of its slice alone
        m = np.array([[3.0, 1e-300, 1e200, 0.0], [4.0, 0.0, 1e200, 0.0], [0.0, 1e-300, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            for axis in (0, 1):
                norms = dense.euclidean_norm(m, axis=axis)
                plain = np.linalg.norm(m, axis=axis)
                slices = np.moveaxis(m, axis, -1)
                assert [float(x) for x in norms] == [
                    float(p) if dense.SQRT_TINY < p < np.inf else dense.euclidean_norm(s)
                    for p, s in zip(plain, slices)]
            assert list(dense.euclidean_norm(m, axis=0)) == [
                5.0, 1e-300 * np.sqrt(2.0), 1e200 * np.sqrt(2.0), 0.0]
            stack = np.stack([m, 1e-10 * m]).astype(np.longdouble)
            norms = dense.euclidean_norm(stack, axis=1)
            assert norms.dtype == np.longdouble and norms.shape == (2, 4)
            assert np.array_equal(norms[0], [dense.euclidean_norm(s) for s in stack[0].T])
            # an axis that covers every dimension leaves one slice, all of x
            assert dense.euclidean_norm(np.array([3e200, 4e200]), axis=0) == pytest.approx(5e200)
            assert dense.euclidean_norm(m, axis=(0, 1)) == dense.euclidean_norm(m)

    def test_no_convergence_budget(self, monkeypatch):
        # above the SVD route, where the Krylov estimator takes the norm
        n = dense.SVD_MAX_ORDER + 1
        a = seeded_rng(6, 0).standard_normal((n, n))
        monkeypatch.setattr(dense, "KRYLOV_MAX_STEPS", 1)
        with pytest.raises(NoConvergence):
            dense.spectral_norm(a)


def _krylov(a):
    """The Krylov estimate of a dense matrix, which ``spectral_norm`` skips at small orders."""
    return dense.krylov_spectral_norm(lambda v: a @ v, lambda u: a.T @ u, a.shape[1])


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

    def test_map_without_outputs(self):
        # the lower LU map at n = 1 has one input and no output
        op = lower_factor_operator(lu_factor(np.array([[2.0]])))
        assert (op.in_dim, op.out_dim) == (1, 0)
        assert operator_spectral_norm(op) == 0.0

    def test_zero_map(self):
        assert dense.spectral_norm(np.zeros((3, 4))) == 0.0
        assert _krylov(np.zeros((3, 4))) == 0.0

    def test_start_vector_in_null_space_restarts(self):
        a = np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -2.0]])
        assert not (a @ np.ones(3)).any()
        assert dense.spectral_norm(a) == pytest.approx(svd_spectral_norm(a), rel=1e-11)
        assert _krylov(a) == pytest.approx(svd_spectral_norm(a), rel=1e-11)

    def test_clustered_spectrum_within_matvec_budget(self):
        # clustered top singular values: stopping on a small per-step change
        # of the estimate would end 1e-11 to 5e-11 low after 232 to 979 matvecs
        for op in _factor_maps(graded_random(30, 1, 1, 0) + 30 * np.eye(30)):
            calls = []

            def matvec(v, op=op):
                calls.append(1)
                return op.apply(v)

            got = dense.krylov_spectral_norm(matvec, op.apply_transpose, op.in_dim)
            ref = svd_spectral_norm(operator_materialize(op))
            assert got == pytest.approx(ref, rel=1e-11)
            assert len(calls) <= 100


    @pytest.mark.parametrize("a", [np.diag([1.0, 1e-300]),
                                   1e-170 * np.array([[1.0, 2.0], [3.0, 1.0]])])
    def test_overflowing_map_norm_is_typed(self, a):
        # R^-1 reaches 1e300 (1e170), so the quadratic map of R overflows; the
        # estimate stops there, before the SVD of a non-finite bidiagonal
        op = r_quadratic_operator(qr_factor(a))
        with pytest.raises(NormOverflow):
            operator_spectral_norm(op)
        # squaring 1e200 overflows, but the norm 2e200 is representable;
        # 2e308 is not
        assert dense.spectral_norm(np.full((2, 2), 1e200)) == pytest.approx(2e200, rel=1e-15)
        with pytest.raises(NormOverflow):
            dense.spectral_norm(np.full((2, 2), 1e308))


class TestSmallestSingularValue:
    def test_inverse_norm_oracle(self):
        # 1/sigma_min equals the spectral norm of the explicit inverse,
        # computed through the package's own spectral_norm.
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
