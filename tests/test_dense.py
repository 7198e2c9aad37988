"""Dense kernels: factorizations, norms, triangular inverses."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from fperturb.lu_bounds import (
    gaussian_elimination_epsilon,
    lower_factor_operator,
    lu_componentwise_bounds,
    upper_factor_operator,
)
from fperturb.matgen import graded_random, kahan
from fperturb.qr_bounds import (
    componentwise_operator_norms,
    r_factor_operator,
    r_quadratic_operator,
)
from fperturb.structured import operator_materialize, operator_spectral_norm

import oracle
from conftest import (
    acceptance_families,
    comparison_cases,
    count_calls,
    householder_r_stack,
    measure_r,
    random_square,
    random_unit_lower,
    random_upper,
    right_looking_lu,
    seeded_rng,
    substitution_inverse,
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
        # the refactorization oracle of r_change, and measure_r, its one-matrix form
        for n, stack in _longdouble_stacks():
            r, zero_column = householder_r_stack(stack)
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

        a = a.astype(float)
        base = dense.householder_base(a)
        da = 1e-9 * seeded_rng(14).standard_normal((3, 5, 5))
        da[1, :, 3] = -a[:, 3]          # column 4 of A + dA is zero
        dr, failed = dense.r_change(base, da)
        assert failed.tolist() == [0, dense.ZERO_COLUMN, 0]
        for j in (0, 2):
            assert np.array_equal(dr[j], dense.r_change(base, da[j : j + 1])[0][0])

    def test_householder_flags_a_reflector_too_small_to_normalize(self):
        # at 2^-530 in a column of A + dA, with 1 the largest entry of A, v'.v' is
        # about 2^-1060, subnormal, and 2 / v'.v' overflows: no warning, a
        # finite change, and the other slices alone
        tiny = 2.0**-530
        base = dense.householder_base(np.diag([2.0**-500, 1.0]))
        da = np.zeros((5, 2, 2))
        da[1, 0, 0] = tiny - 2.0**-500
        da[2, 1, 1] = 2.0
        da[3, 0, 0] = -tiny - 2.0**-500     # x'_0 also changes sign
        da[4, 0, 0] = tiny - 2.0**-500      # a slice that also meets a zero column reports that
        da[4, 1, 1] = -1.0
        dr, failed = dense.r_change(base, da)
        assert failed.tolist() == [0, dense.TINY_REFLECTOR, 0, dense.TINY_REFLECTOR,
                                   dense.ZERO_COLUMN]
        assert np.isfinite(dr).all()
        assert not dr[0].any() and dr[2].tolist() == [[0.0, 0.0], [0.0, 2.0]]

    def test_householder_column_whose_squares_underflow_is_not_zero(self):
        # at 2^-552 every square underflows to 0, but the column is not zero:
        # its reflector is the one too small to normalize
        base = dense.householder_base(np.diag([2.0**-500, 1.0]))
        da = np.zeros((2, 2, 2))
        da[0, 0, 0] = 2.0**-552 - 2.0**-500
        da[1, 0, 0] = -(2.0**-500)
        dr, failed = dense.r_change(base, da)
        assert failed.tolist() == [dense.TINY_REFLECTOR, dense.ZERO_COLUMN]
        assert np.isfinite(dr).all()

    def test_r_change_measures_any_real_draws_in_float64(self):
        a = random_square(4, 1, shift=4.0)
        da = 1e-3 * random_square(4, 2)
        base = dense.householder_base(a)
        for given in (da, da.astype(np.float32), da.astype(np.longdouble)):
            dr, failed = dense.r_change(base, given[None])
            assert dr.dtype == np.float64 and not failed[0]
        dr = dense.r_change(base, da[None])[0][0]
        assert np.allclose(qr_factor(a).r + dr, qr_factor(a + da).r, rtol=1e-12)

    def test_bad_stack_rejected(self):
        with pytest.raises(DimensionMismatch):
            dense.householder_base(np.ones((2, 3)))
        base = dense.householder_base(random_square(3, 1, shift=3.0)[:, :2])
        with pytest.raises(DimensionMismatch):
            dense.r_change(base, np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            dense.r_change(base, np.ones((2, 3, 3)))
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
#: Frobenius distance of r_change from the longdouble oracle in units of
#: kappa_2(A) ||dA||_F, at ||dA|| = 2^-20 ||A||, beside the oracle's own error
#: (at most 5.1e-13 over 300 Gaussian cases)
_R_CHANGE_TOL = 1e-10
#: unit roundoff of the oracle's refactorizations
_U_ORACLE = np.finfo(np.longdouble).eps / 2


def _r_oracle_error(a, da):
    """A bound on the error of the oracle's change R(A + dA) - R(A), for each slice of ``da``.

    Each of its two refactorizations is exactly the R of a matrix within
    (mn + 1) u ||A + dA||_F of A + dA (or of A): the rounding of the sum,
    and the backward error of Householder QR (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 19.4, with its
    constant taken as 1). To first order, R moves by at most
    sqrt(2) kappa_2(A) times that.
    """
    m, n = a.shape
    wide = np.asarray(a, dtype=np.longdouble) + da
    size = np.maximum(dense.frobenius_norms(wide).astype(float), np.linalg.norm(a))
    return 2.0 * math.sqrt(2.0) * np.linalg.cond(a) * (m * n + 1) * float(_U_ORACLE) * size


class TestKernelsAgainstOracles:
    """The stacked kernels against the right-looking and untrimmed oracles, bit for bit."""

    @pytest.mark.skipif(not dense.WIDE_LONGDOUBLE, reason="longdouble is not wider than float64")
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 64), n=st.integers(1, 45), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from(_SCALES), broken=st.integers(0, 3))
    def test_lu_stack(self, k, n, seed, scale, broken):
        # the Doolittle order against the right-looking oracle, which rounds
        # alike in longdouble
        rng = seeded_rng(12, seed)
        a = scale * rng.standard_normal((k, n, n))
        if n > 1:       # slices whose leading minor of order p is singular
            for s in rng.choice(k, size=min(broken, k), replace=False):
                p = int(rng.integers(1, n))
                a[s, p - 1, :p] = 2.0 * a[s, 0, :p] if p > 1 else 0.0
        a = a.astype(np.longdouble)
        l, u, singular = dense.lu_factor_stack(a)
        ref_l, ref_u, ref_singular = right_looking_lu(
            a, dense.PIVOT_TOL * dense.frobenius_norms(a))
        assert l.dtype == u.dtype == np.longdouble
        assert u.flags.c_contiguous
        assert np.array_equal(singular, ref_singular)
        done = singular == 0
        assert np.array_equal(l[done], ref_l[done]) and np.array_equal(u[done], ref_u[done])

    @pytest.mark.skipif(not dense.WIDE_LONGDOUBLE, reason="longdouble is not wider than float64")
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 64), n=st.integers(1, 45), extra=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from(_SCALES[:3]),
           broken=st.integers(0, 3))
    # a 1-by-1 A whose draw is so small that the oracle's rounding of A + dA,
    # u_ld |A|, is 7.9 times _R_CHANGE_TOL kappa_2(A) ||dA_j||_F
    @example(k=53, n=1, extra=0, seed=11, scale=1.0, broken=0)
    def test_householder_stack(self, k, n, extra, seed, scale, broken):
        # the difference form against the longdouble refactorization oracle:
        # the same failures, the same change within the kernel's tolerance
        # beside the oracle's own error, each slice bit for bit a stack of
        # one, and bit for bit at every power-of-two scale
        rng = seeded_rng(13, seed)
        a = rng.standard_normal((n + extra, n))
        da = 2.0**-20 * rng.standard_normal((k, n + extra, n))
        for s in rng.choice(k, size=min(broken, k), replace=False):
            column = rng.integers(n)
            da[s, :, column] = -a[:, column]
        dr, failed = dense.r_change(dense.householder_base(a), da)
        wide = a.astype(np.longdouble)
        ref_r, ref_zero_column = householder_r_stack(wide + da)
        assert np.array_equal(failed, ref_zero_column * dense.ZERO_COLUMN)
        done = failed == 0
        if done.any():
            ref = (ref_r[done] - measure_r(wide)).astype(float)
            bound = (_R_CHANGE_TOL * np.linalg.cond(a) * dense.frobenius_norms(da[done])
                     + _r_oracle_error(a, da[done]))
            assert (dense.frobenius_norms(dr[done] - ref) <= bound).all()
        j = int(rng.integers(k))
        assert np.array_equal(dr[j], dense.r_change(dense.householder_base(a), da[j : j + 1])[0][0])
        scaled, scaled_failed = dense.r_change(dense.householder_base(scale * a), scale * da)
        assert np.array_equal(scaled, scale * dr) and np.array_equal(scaled_failed, failed)


def _r_change_cases():
    """The acceptance families, kahan(8, 0.3927) and a 9-by-6 Gaussian."""
    return {**acceptance_families(), "kahan8": kahan(8, 0.3927),
            "gaussian9x6": seeded_rng(15).standard_normal((9, 6))}


class TestRChange:
    """The difference form against a 50-digit Householder QR of A and of A + dA."""

    @pytest.mark.parametrize("case", list(enumerate(_r_change_cases())), ids=lambda c: c[1])
    def test_matches_the_exact_change(self, case):
        index, name = case
        a = _r_change_cases()[name]
        base = dense.householder_base(a)
        rng = seeded_rng(16, index)
        for delta in (1e-14, 1e-10, 1e-6):
            g = rng.standard_normal((2, *a.shape))
            da = delta * np.linalg.norm(a) * g / dense.frobenius_norms(g)[:, None, None]
            dr, failed = dense.r_change(base, da)
            assert not failed.any()
            assert dense.frobenius_norms(dr) == pytest.approx(oracle.r_change_norms(a, da),
                                                              rel=1e-12)
            assert not dense.r_change(base, 0.0 * da)[0].any()

    def test_a_leading_entry_that_changes_sign(self):
        # x_0 = 1e-9 turns negative: by a little, where the reflector keeps its
        # sign, and to all of x', where it takes the other one
        a = seeded_rng(17).standard_normal((6, 6))
        a[0, 0] = 1e-9
        da = 1e-8 * seeded_rng(18).standard_normal((3, 6, 6))
        da[0, 0, 0] = -3e-9
        da[1, :, 0] = -a[:, 0]
        da[1, 0, 0] = -1.0
        dr, failed = dense.r_change(dense.householder_base(a), da)
        assert not failed.any()
        assert dense.frobenius_norms(dr) == pytest.approx(oracle.r_change_norms(a, da), rel=1e-12)


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
        # must equal, bit for bit, np.linalg.norm of each slice alone where
        # that lies in (sqrt(tiny), inf), and euclidean_norm of the slice
        # elsewhere; a slice of zeros, appended last, has norm exactly 0
        rng = seeded_rng(13, *shape)
        for scale in (1.0, 1e-10, 1e-170, 1e150):
            x = (scale * rng.standard_normal(shape)).astype(dtype)
            x += (1e-12 * scale * rng.standard_normal(shape)).astype(dtype)
            x = np.concatenate([x, np.zeros_like(x[:1])])
            norms = dense.frobenius_norms(x)
            assert norms.dtype == dtype
            with np.errstate(over="ignore"):
                plain = [np.linalg.norm(s) for s in x]
            assert np.array_equal(norms, [p if dense.SQRT_TINY < p < np.inf
                                          else dense.euclidean_norm(s) for p, s in zip(plain, x)])
            assert norms[-1] == 0.0

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
        for scale in (1e-300, 1e-170, 1e200, 1e300):
            assert dense.euclidean_norm(scale * x) == pytest.approx(5.0 * scale, rel=1e-15)
        assert dense.euclidean_norm(np.full(2, 1.5e308)) == np.inf
        assert dense.euclidean_norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(dense.euclidean_norm(np.array([1.0, np.nan])))

    def test_euclidean_norm_scales_bit_for_bit_across_the_squaring_range(self):
        # the re-take runs on x 2^-e, e the exponent of its largest entry, which
        # is exact, so a vector whose squares over- or underflow has the plain
        # norm of its in-range image, scaled back
        v = seeded_rng(16).standard_normal(7)
        m = seeded_rng(17).standard_normal((5, 3))
        for k in (-600, -520, 520, 600):
            assert dense.euclidean_norm(np.ldexp(v, k)) == math.ldexp(dense.euclidean_norm(v), k)
            assert np.array_equal(dense.euclidean_norm(np.ldexp(m, k), axis=0),
                                  np.ldexp(dense.euclidean_norm(m, axis=0), k))

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_euclidean_norm_owns_its_range(self, dtype):
        # no np.errstate here: a first try whose squares over- or underflow
        # must raise no warning, which this suite turns into an error
        for scale in (1e200, 1e-200):
            x = np.full(3, scale, dtype=dtype)
            want = math.sqrt(3.0) * scale
            assert float(dense.euclidean_norm(x)) == pytest.approx(want, rel=1e-15)
            norms = dense.euclidean_norm(np.stack([x, x], axis=1), axis=0)
            assert [float(norm) for norm in norms] == pytest.approx([want, want], rel=1e-15)
        # in range, the first try is the plain one, bit for bit
        scales = np.array([[1e-100], [1e-3], [1.0], [1e100]])
        for v in seeded_rng(15).standard_normal((4, 7)) * scales:
            assert dense.euclidean_norm(v) == math.sqrt(v.dot(v))

    def test_euclidean_norm_along_an_axis(self):
        # each norm along the axis is numpy's where squaring loses nothing,
        # and otherwise bit for bit the norm of its slice alone
        m = np.array([[3.0, 1e-300, 1e200, 0.0], [4.0, 0.0, 1e200, 0.0], [0.0, 1e-300, 0.0, 0.0]])
        for axis in (0, 1):
            norms = dense.euclidean_norm(m, axis=axis)
            with np.errstate(over="ignore"):
                plain = np.linalg.norm(m, axis=axis)
            slices = np.moveaxis(m, axis, -1)
            assert [float(x) for x in norms] == [
                float(p) if dense.SQRT_TINY < p < np.inf else dense.euclidean_norm(s)
                for p, s in zip(plain, slices)]
        # a slice out of range is taken at the scale 2^-e of its largest entry
        # f 2^e, so [x, x] has the norm sqrt(2 f^2) 2^e, which scales with x
        # bit for bit
        assert list(dense.euclidean_norm(m, axis=0)) == [
            5.0, _scaled_pair_norm(1e-300), _scaled_pair_norm(1e200), 0.0]
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


def _scaled_pair_norm(x):
    """||[x, x]||_2 taken at the scale of x's exponent e: sqrt(2 f^2) 2^e for x = f 2^e."""
    f, e = math.frexp(x)
    return math.ldexp(math.sqrt(2.0 * f * f), e)


def _krylov(a):
    """The Krylov estimate of a dense matrix, which ``spectral_norm`` skips at small orders."""
    return dense.krylov_spectral_norm(
        lambda v: a @ v, dense.composed_gram(lambda v: a @ v, lambda u: a.T @ u), a.shape[1])


def _factor_maps(a):
    f = lu_factor(a)
    fq = qr_factor(a)
    return (lower_factor_operator(f), upper_factor_operator(f),
            r_factor_operator(fq), r_quadratic_operator(fq))


class TestKrylovEstimator:
    """The Krylov estimate against the dense SVD of the same map."""

    def test_factor_maps_match_svd(self):
        # at n = 2 the lower LU map has one output, so its Gram map is 1-by-1
        # and Lanczos is exhausted after one step. The all-ones start spans an
        # invariant subspace of the upper LU map of a triangle of ones that
        # misses its top direction (29% to 55% low for n = 2..5), so the
        # estimate runs again from the second start. The acceptance families
        # and the normwise benchmark's graded, Kahan and clustered (shifted)
        # ones follow: the estimate stops on the error of the Ritz value, not
        # on its residual, and still lands within rounding of the SVD
        inputs = ([random_square(n, 0, shift=0.5 * n) for n in range(2, 9)]
                  + [np.triu(np.ones((n, n))) for n in range(2, 6)]
                  + list(acceptance_families().values()))
        for n in (8, 12, 30):
            inputs += [graded_random(n, 0.95, 0.95, 0), kahan(n, 1.2),
                       graded_random(n, 1.0, 1.0, 0) + n * np.eye(n)]
        for a in inputs:
            for op in _factor_maps(a):
                ref = svd_spectral_norm(operator_materialize(op))
                assert operator_spectral_norm(op) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n", [*range(5, 16), 18, 20])
    def test_unfinished_space_at_its_dimension_runs_on(self, n):
        # without reorthogonalization the Krylov space is not numerically
        # whole after min(dim_in, out_dim) steps: stopping there read the
        # upper LU map of a triangle of ones plus n I 7.6e-5 (n = 5) to
        # 6.4e-6 (n = 15) low; from n = 18 Lanczos is still unconverged there,
        # and ran on into NoConvergence, where the formed Gram matrix answers
        op = upper_factor_operator(lu_factor(np.tril(np.ones((n, n))) + n * np.eye(n)))
        ref = svd_spectral_norm(operator_materialize(op))
        assert operator_spectral_norm(op) == pytest.approx(ref, rel=1e-13)

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
        # of the estimate would end 1e-11 to 5e-11 low after 232 to 979
        # steps
        for op in _factor_maps(graded_random(30, 1, 1, 0) + 30 * np.eye(30)):
            calls = []

            def gram(u, e, op=op):
                calls.append(1)
                return op.gram2(u, e)

            got = dense.krylov_spectral_norm(op.apply, gram, op.in_dim)
            ref = svd_spectral_norm(operator_materialize(op))
            assert got == pytest.approx(ref, rel=1e-11)
            assert len(calls) <= 64

    def test_one_dimensional_domain_takes_one_step(self):
        # rounding can make a map and its transpose disagree beyond the
        # tolerance, which left beta above it on every step and ran 1,000
        # steps into NoConvergence; one dimension is exhausted at once
        calls = []

        def gram(u, e):
            # the Gram map of v -> (0.99999 v, 0), off rank one by 1e-6
            calls.append(1)
            return np.ldexp(np.array([[0.99999 ** 2, 1e-6], [1e-6, 0.0]]) @ u, -2 * e)

        assert dense.krylov_spectral_norm(lambda v: np.array([0.99999 * v[0], 0.0]),
                                          gram, 1) == 0.99999
        assert len(calls) == 1
        # the weighted quadratic map of R = 1e-160 forms no subnormal intermediate
        norms = componentwise_operator_norms(qr_factor(np.array([[1e-160]])))
        assert norms == pytest.approx((1e-160, 5e-161, 5e159), rel=1e-12)

    @pytest.mark.parametrize("k", [200, -200, 500, -500])
    def test_norms_scale_by_powers_of_two(self, k):
        # A 2^k scales U and R by 2^k exactly and leaves L and Q; the lower
        # LU map and the quadratic R map then scale by 2^-k, the other two
        # not at all. The Gram map is formed at unit scale, so each estimate
        # scales with them bit for bit, also where the Gram map of the scaled
        # map itself would leave the float range
        for a in (random_square(6, 0, shift=3.0), graded_random(8, 0.9, 1.1, 3)):
            for op, scaled, e in zip(_factor_maps(a), _factor_maps(np.ldexp(a, k)),
                                     (-1, 0, 0, -1)):
                assert operator_spectral_norm(scaled) == math.ldexp(operator_spectral_norm(op),
                                                                    e * k)
        b = seeded_rng(12, 1).standard_normal((_K + 1, _K + 1))
        assert dense.spectral_norm(np.ldexp(b, k)) == math.ldexp(dense.spectral_norm(b), k)

    @pytest.mark.parametrize("a, norm", [(np.diag([1.0, 1e-300]), 5e299),
                                         (1e-170 * np.array([[1.0, 2.0], [3.0, 1.0]]), 4.411e169),
                                         (np.array([[1.0, 1e10], [0.0, 1e-290]]), None)],
                             ids=["a0", "a1", "a2"])
    def test_overflowing_map_norm_is_typed(self, a, norm):
        # R^-1 reaches 1e300 (1e170), but the products of the quadratic map
        # of R run on unit-scaled R^-T and R^-1, so a representable norm is
        # reached; beside 1e10, R^-1 = 1e290 takes the norm to about 1e310,
        # which overflows, and the estimate stops there, before the SVD of a
        # non-finite bidiagonal
        op = r_quadratic_operator(qr_factor(a))
        if norm is None:
            with pytest.raises(NormOverflow):
                operator_spectral_norm(op)
            # the map's own products take it past the float range as inf,
            # with no warning
            assert np.isinf(operator_materialize(op)).any()
        else:
            assert operator_spectral_norm(op) == pytest.approx(norm, rel=1e-4)
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

    @pytest.mark.parametrize("shape", ["lower", "upper"])
    @pytest.mark.parametrize("i", [3, 33, 49, 50, 98])
    def test_singular_row_in_either_half(self, shape, i):
        # at n = 100, above TRIANGULAR_LEAF, each half is inverted on its own;
        # the kernel names the row that the substitution oracle stops at, and
        # lets no warning or LinAlgError escape
        n = 100
        zero, subnormal, growth = (random_upper(n, i) for _ in range(3))
        zero[i, i] = 0.0
        subnormal[i, i] = 1e-320
        growth[i, i] = growth[i + 1, i + 1] = 1e-200     # x_i,i+1 = -1e400
        growth[i, i + 1] = 1.0
        expected = {"zero": i + 1, "subnormal": i + 1,
                    "growth": i + 1 if shape == "upper" else i + 2}
        for name, t in (("zero", zero), ("subnormal", subnormal), ("growth", growth)):
            t = t if shape == "upper" else t.T
            with pytest.raises(SingularDiagonal) as exc:
                triangular_inverse(t, shape)
            with pytest.raises(SingularDiagonal) as ref:
                substitution_inverse(t, shape)
            assert exc.value.k == ref.value.k == expected[name], name


#: unit roundoff of float64
_U = np.finfo(float).eps / 2


def _triangles():
    """(name, T, shape) of lower and upper triangles: L, U and R of the comparison
    cases (the acceptance families and kahan(n, 1.2) up to n = 200), R^T, and
    random ones of orders that split at and above ``TRIANGULAR_LEAF``."""
    for name, a in comparison_cases().items():
        f, r = lu_factor(a), qr_factor(a).r
        yield from ((f"{name}-L", f.l, "lower"), (f"{name}-U", f.u, "upper"),
                    (f"{name}-R", r, "upper"), (f"{name}-RT", r.T, "lower"))
    for n in (dense.TRIANGULAR_LEAF + 1, 71, 150):
        yield f"random{n}-U", random_upper(n, 0), "upper"
        yield f"random{n}-L", random_unit_lower(n, 0), "lower"


def _within_inverse_error(x, ref, t):
    """|x - ref| <= n u |ref||T||ref| entrywise, the first-order error of a
    stable triangular inverse (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 14) with its constant taken as 1."""
    bound = len(t) * _U * (np.abs(ref) @ np.abs(t) @ np.abs(ref))
    return bool((np.abs(x - ref) <= bound).all())


class TestBlockTriangularInverse:
    def test_matches_substitution_within_its_error(self):
        # at most 0.11 of the bound was measured, on R of graded_1
        for name, t, shape in _triangles():
            x = triangular_inverse(t, shape)
            assert _within_inverse_error(x, substitution_inverse(t, shape), t), name
            assert np.array_equal(x, np.triu(x) if shape == "upper" else np.tril(x)), name
            assert x.flags.c_contiguous, name

    @pytest.mark.parametrize("k", [7, -7, 200, -200, 500, -500])
    def test_scales_bit_for_bit(self, k):
        for name, t, shape in _triangles():
            assert np.array_equal(triangular_inverse(np.ldexp(t, k), shape),
                                  np.ldexp(triangular_inverse(t, shape), -k)), name


class TestDoolittleInFloat64:
    @pytest.mark.parametrize("shape", [(655, 10, 10), (40, 40, 40), (9, 1, 1), (5, 70, 70)])
    def test_slices_are_their_own_stacks_of_one(self, shape):
        # each slice goes to BLAS alone, so it factorizes as it would alone;
        # a stack of one is copied so that it sits at its own address
        a = seeded_rng(19, *shape).standard_normal(shape) + shape[1] * np.eye(shape[1])
        if shape[1] > 2:
            a[1, 1, :2] = 2.0 * a[1, 0, :2]     # leading minor 2 is singular
        l, u, singular = dense.lu_factor_stack(a)
        assert l.dtype == u.dtype == np.float64
        assert singular[1] == (2 if shape[1] > 2 else 0)
        for j in range(len(a)):
            lj, uj, sj = dense.lu_factor_stack(a[j : j + 1].copy())
            assert sj[0] == singular[j]
            if not sj[0]:
                assert np.array_equal(l[j], lj[0]) and np.array_equal(u[j], uj[0])
                f = lu_factor(a[j].copy())
                assert np.array_equal(l[j], f.l) and np.array_equal(u[j], f.u)

    def test_backward_stable_with_the_oracle_gates(self):
        # BLAS sums in another order than the right-looking oracle, so the
        # factors differ by rounding, which ill-conditioned slices amplify;
        # both take the same pivot gates, and L U = A + dA with
        # |dA| <= gamma_n |L||U| (Higham, Thm 9.3), doubled for the rounding
        # of the residual where longdouble is no wider than float64
        for n, stack in _longdouble_stacks():
            a = stack.astype(float)
            if n > 1:       # the leading minor of order n - 1 of slice 0 is singular
                a[0, n - 2, : n - 1] = 2.0 * a[0, 0, : n - 1] if n > 2 else 0.0
            l, u, singular = dense.lu_factor_stack(a)
            ref_singular = right_looking_lu(a, dense.PIVOT_TOL * dense.frobenius_norms(a))[2]
            assert np.array_equal(singular, ref_singular)
            assert singular[0] == n - 1
            done = singular == 0
            wide = np.longdouble
            residual = np.matmul(l[done].astype(wide), u[done].astype(wide)) - a[done]
            bound = 2.0 * gaussian_elimination_epsilon(n) * np.matmul(np.abs(l[done]),
                                                                       np.abs(u[done]))
            assert (np.abs(residual) <= bound).all(), n

    @pytest.mark.parametrize("k", [7, -7, 200, -200, 500, -500])
    def test_scales_bit_for_bit(self, k):
        cases = {**acceptance_families(), "random60": random_square(60, 4, shift=6.0)}
        for name, a in cases.items():
            f, scaled = lu_factor(a), lu_factor(np.ldexp(a, k))
            assert np.array_equal(scaled.l, f.l), name
            assert np.array_equal(scaled.u, np.ldexp(f.u, k)), name


class TestAgainstFiftyDigits:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_lu_factors_and_inverses(self, n):
        # the computed factors are the exact ones of A + dA with
        # |dA| <= gamma_n |L~||U~| (Higham, Thm 9.3), so they lie within the
        # first-order componentwise bounds at epsilon = gamma_n, up to
        # second-order terms, for which the bound is doubled (at most 0.11 of
        # it was measured, as for the right-looking elimination)
        for name, a in acceptance_families(n).items():
            f = lu_factor(a)
            l, u = oracle.lu_factors(a)
            report = lu_componentwise_bounds(f, gaussian_elimination_epsilon(n))
            assert np.linalg.norm(f.l - l) <= 2.0 * report.first_order_dl_f, name
            assert np.linalg.norm(f.u - u) <= 2.0 * report.first_order_du_f, name
            for t, shape in ((f.l, "lower"), (f.u, "upper"), (f.u[:-1, :-1], "upper")):
                if len(t):
                    exact = oracle.triangular_inverse(t)
                    assert _within_inverse_error(triangular_inverse(t, shape), exact, t), name
