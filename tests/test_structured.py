"""Vectorization, the sandwich kernel, and the masked factor-map operator."""

import numpy as np
import pytest

from fperturb import dense
from fperturb.dense import LuFactors, lu_factor, qr_factor
from fperturb.errors import AbsOperatorTooLarge, DimensionMismatch
from fperturb.lu_bounds import (
    lower_factor_operator,
    upper_factor_operator,
    worst_case_m_norm_perturbation,
)
from fperturb.qr_bounds import (
    componentwise_operator_norms,
    r_factor_operator,
    r_quadratic_operator,
)
from fperturb.structured import (
    StructuredOperator,
    operator_materialize,
    operator_spectral_norm,
    sandwich,
    vec,
)

from conftest import (
    MASKS,
    SelectionKind,
    extract,
    mask,
    r_factors,
    random_unit_lower,
    random_upper,
    seeded_rng,
    selection_matrix,
    svd_spectral_norm,
    vec_permutation,
)


def identity(n):
    """The operator vec(X) -> vec(X) on n-by-n matrices."""
    return StructuredOperator(terms=((None, None, False),), weights=np.ones((n, n)))


def column(x):
    return np.asarray(x, dtype=float)[:, None]


#: an operator of order 65, whose input dimension 65^2 = 4225 exceeds EXPLICIT_THRESHOLD
TOO_LARGE = identity(65)


class TestStructuredExtract:
    def test_uvec_slvec_definitions(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(extract(a, SelectionKind.UVEC), [1, 2, 4])
        assert np.array_equal(extract(a, SelectionKind.SLVEC), [3])

    def test_up_halves_diagonal(self):
        a = np.array([[2.0, 5.0], [7.0, 8.0]])
        assert np.array_equal(extract(a, SelectionKind.UP), [[1, 5], [0, 4]])

    def test_slt_complements_ut(self):
        a = seeded_rng(10).standard_normal((5, 5))
        total = extract(a, SelectionKind.UT) + extract(a, SelectionKind.SLT)
        assert np.array_equal(total, a)


class TestSelectionMatrices:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", list(SelectionKind))
    def test_matches_direct_operator(self, kind, n):
        a = seeded_rng(11, n).standard_normal((n, n))
        ref = extract(a, kind)
        if kind in MASKS:
            ref = vec(ref)
        assert np.array_equal(selection_matrix(kind, n) @ vec(a), ref)
        # the package reads the masked matrix on the support of the mask
        w = mask(kind, n)
        op = StructuredOperator(terms=((None, None, False),), weights=w)
        assert np.array_equal(op.apply(vec(a)), vec(w * a)[vec(w) != 0])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_orthonormal_rows_and_masks(self, n):
        mu = selection_matrix(SelectionKind.UVEC, n)
        ms = selection_matrix(SelectionKind.SLVEC, n)
        assert np.array_equal(mu @ mu.T, np.eye(n * (n + 1) // 2))
        assert np.array_equal(ms @ ms.T, np.eye(n * (n - 1) // 2))
        assert np.array_equal(mu.T @ mu, selection_matrix(SelectionKind.UT, n))
        assert np.array_equal(ms.T @ ms, selection_matrix(SelectionKind.SLT, n))

    def test_uvec_order_two_layout(self):
        m = selection_matrix(SelectionKind.UVEC, 2)
        assert m.shape == (3, 4)
        # column-major vec positions (1,1), (1,2), (2,2)
        expected = np.zeros((3, 4))
        expected[0, 0] = expected[1, 2] = expected[2, 3] = 1.0
        assert np.array_equal(m, expected)

    def test_up_mask_entries(self):
        m = selection_matrix(SelectionKind.UP, 4)
        assert set(np.unique(m)) <= {0.0, 0.5, 1.0}
        sq = np.diag(m @ m)
        halved = np.diag(m) == 0.5
        assert np.all(sq[halved] == 0.25)
        assert np.all(np.isin(sq[~halved], (0.0, 1.0)))

    def test_up_mask_norm_is_one(self):
        for n in (2, 3, 6):
            op = StructuredOperator(terms=((None, None, False),),
                                    weights=mask(SelectionKind.UP, n))
            assert operator_spectral_norm(op) == pytest.approx(1.0, abs=1e-12)


class TestVecPermutation:
    def test_two_by_two(self):
        v = column([1.0, 3.0, 2.0, 4.0])
        assert np.array_equal(sandwich(None, None, v, transpose=True)[:, 0], [1, 2, 3, 4])

    def test_transpose_oracle(self):
        a = seeded_rng(13).standard_normal((4, 4))
        assert np.array_equal(sandwich(None, None, column(vec(a)), transpose=True)[:, 0],
                              vec(a.T))

    def test_orthogonality(self):
        x = seeded_rng(14).standard_normal((16, 3))
        y = sandwich(None, None, x, transpose=True)
        assert np.array_equal(sandwich(None, None, y, transpose=True), x)


class TestKronecker:
    def test_identity(self):
        x = seeded_rng(15).standard_normal((4, 1))
        assert np.array_equal(sandwich(np.eye(2), np.eye(2), x), x)

    def test_basis_column_against_dense(self):
        rng = seeded_rng(16)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        e1 = np.zeros((9, 1))
        e1[0] = 1.0
        assert np.allclose(sandwich(a, b, e1)[:, 0], np.kron(b.T, a)[:, 0])

    def test_vec_of_product_identity(self):
        rng = seeded_rng(17)
        a, x, b = (rng.standard_normal((4, 4)) for _ in range(3))
        lhs = np.kron(b.T, a) @ vec(x)
        assert np.allclose(lhs, vec(a @ x @ b), rtol=1e-12, atol=1e-13)
        assert np.allclose(sandwich(a, b, column(vec(x)))[:, 0], lhs, rtol=1e-12, atol=1e-13)
        assert np.allclose(sandwich(a, b, column(vec(x.T)), transpose=True)[:, 0], lhs,
                           rtol=1e-12, atol=1e-13)

    def test_inverse_factorizes(self):
        rng = seeded_rng(18)
        a = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        b = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        x = rng.standard_normal((4, 2))
        y = sandwich(np.linalg.inv(a), np.linalg.inv(b), sandwich(a, b, x))
        assert np.allclose(y, x, atol=1e-13)

    def test_dimension_mismatch(self):
        op = identity(2)
        with pytest.raises(DimensionMismatch):
            op.apply(np.ones(5))
        with pytest.raises(DimensionMismatch):
            op.apply_transpose(np.ones(5))


def _random_operator(n, seed):
    """Two terms, one of them transposed, a {0, 1/2, 1} mask and both outer factors."""
    rng = seeded_rng(19, n, seed)
    l = np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)
    u = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
    a = rng.standard_normal((n, n))
    return StructuredOperator(terms=((l, None, False), (u, a, True)),
                              weights=mask(SelectionKind.UP, n), left=a.T, right=u)


def _dense_oracle(op, n):
    """S kron(right^T, left) diag(vec W) sum_t kron(b_t^T, a_t) [Pi], from np.kron."""
    eye = np.eye(n)
    perm = vec_permutation(n)
    core = sum(np.kron(eye if b is None else b.T, eye if a is None else a)
               @ (perm if transpose else np.eye(n * n)) for a, b, transpose in op.terms)
    outer = np.kron(eye if op.right is None else op.right.T, eye if op.left is None else op.left)
    w = vec(op.weights)
    return (outer @ np.diag(w) @ core)[w != 0]


class TestStructuredOperator:
    def test_identity_norm(self):
        assert operator_spectral_norm(identity(2)) == pytest.approx(1.0)

    def test_materialize_identity(self):
        assert np.array_equal(operator_materialize(identity(3)), np.eye(9))

    def test_kron_stage_materializes_to_block_layout(self):
        rng = seeded_rng(20)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        op = StructuredOperator(terms=((a, b, False),), weights=np.ones((3, 3)))
        assert np.allclose(operator_materialize(op), np.kron(b.T, a))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_apply_matches_materialized(self, n):
        for seed in range(3):
            op = _random_operator(n, seed)
            m = operator_materialize(op)
            assert np.allclose(m, _dense_oracle(op, n), rtol=1e-12, atol=1e-12)
            x = seeded_rng(21, n, seed).standard_normal(op.in_dim)
            assert np.allclose(op.apply(x), m @ x, rtol=1e-12, atol=1e-12)
            y = seeded_rng(22, n, seed).standard_normal(op.out_dim)
            assert np.allclose(op.apply_transpose(y), m.T @ y, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_adjoint_identity(self, n):
        # <A x, y> = <x, A^T y>, for single vectors and for blocks
        for seed in range(3):
            op = _random_operator(n, seed)
            rng = seeded_rng(24, n, seed)
            x = rng.standard_normal((op.in_dim, 3))
            y = rng.standard_normal((op.out_dim, 3))
            lhs = np.sum(op.apply2(x) * y)
            assert lhs == pytest.approx(np.sum(x * op.applyt2(y)), rel=1e-12, abs=1e-12)
            assert op.apply(x[:, 0]) @ y[:, 0] == pytest.approx(
                x[:, 0] @ op.apply_transpose(y[:, 0]), rel=1e-12, abs=1e-12)

    def test_operator_norm_matches_dense_svd(self):
        for n in (2, 4, 6):
            op = _random_operator(n, 0)
            ref = svd_spectral_norm(operator_materialize(op))
            assert operator_spectral_norm(op) == pytest.approx(ref, rel=1e-10)

    def test_materialize_too_large(self):
        with pytest.raises(AbsOperatorTooLarge):
            operator_materialize(TOO_LARGE)

    def test_abs_operator_is_entrywise_abs_of_composition(self):
        # |composition| generally differs from the composition of absolute values
        a, b, c, left, right = seeded_rng(25).standard_normal((5, 3, 3))
        w = mask(SelectionKind.UP, 3)
        op = StructuredOperator(terms=((a, b, False), (c, None, True)), weights=w,
                                left=left, right=right)
        abs_factors = StructuredOperator(terms=((np.abs(a), np.abs(b), False),
                                                (np.abs(c), None, True)),
                                         weights=w, left=np.abs(left), right=np.abs(right))
        abs_m = np.abs(operator_materialize(op))
        composed = operator_materialize(abs_factors)
        assert np.all(abs_m <= composed * (1 + 1e-12))
        assert not np.allclose(abs_m, composed)

    def test_abs_operator_too_large(self):
        # the QR maps are gated at n^3 > EXPLICIT_THRESHOLD^2 (n > 256) before
        # their stacks are allocated; the LU maps materialize, with the same gate
        with pytest.raises(AbsOperatorTooLarge):
            componentwise_operator_norms(qr_factor(np.eye(300)))
        with pytest.raises(AbsOperatorTooLarge):
            worst_case_m_norm_perturbation(lu_factor(np.eye(65)), 1e-9, "L")


class TestTriangularProjectionIdentities:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_masked_kron_products(self, n):
        rng = seeded_rng(23, n)
        l = np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)
        u = np.triu(rng.standard_normal((n, n)))
        r = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
        mslt = selection_matrix(SelectionKind.SLT, n)
        mut = selection_matrix(SelectionKind.UT, n)
        mup = selection_matrix(SelectionKind.UP, n)
        k1 = np.kron(np.eye(n), l)
        assert np.allclose(mslt @ k1 @ mslt, k1 @ mslt, atol=1e-13)
        k2 = np.kron(u.T, np.eye(n))
        assert np.allclose(mut @ k2 @ mut, k2 @ mut, atol=1e-13)
        k3 = np.kron(r.T, np.eye(n))
        assert np.allclose(mut @ k3 @ mup, k3 @ mup, atol=1e-13)


class TestFactorMaps:
    def test_maps_match_kron_oracle(self):
        # S kron(...) diag(vec W) kron(...), with S the row selection of the support of W
        for n in range(2, 7):
            eye = np.eye(n)
            l = random_unit_lower(n, 0)
            u = random_upper(n, 0)
            r = random_upper(n, 1)
            linv = dense.triangular_inverse(l, "lower")
            uinv = dense.triangular_inverse(u, "upper")
            rinv = dense.triangular_inverse(r, "upper")
            pad = np.zeros((n, n))
            pad[: n - 1, : n - 1] = dense.triangular_inverse(u[: n - 1, : n - 1], "upper")
            perm = vec_permutation(n)
            sl, su = (selection_matrix(k, n) for k in (SelectionKind.SLVEC, SelectionKind.UVEC))
            mslt, mut, mup = (selection_matrix(k, n) for k in
                              (SelectionKind.SLT, SelectionKind.UT, SelectionKind.UP))
            oracles = (
                (lower_factor_operator(LuFactors(l=l, u=u)),
                 sl @ np.kron(eye, l) @ mslt @ np.kron(pad.T, linv)),
                (upper_factor_operator(LuFactors(l=l, u=u)),
                 su @ np.kron(u.T, eye) @ mut @ np.kron(uinv.T, linv)),
                (r_factor_operator(r_factors(r)),
                 su @ np.kron(r.T, eye) @ mup
                 @ (np.kron(rinv.T, eye) + np.kron(eye, rinv.T) @ perm)),
                (r_quadratic_operator(r_factors(r)),
                 su @ np.kron(r.T, eye) @ mup @ np.kron(rinv.T, rinv.T)),
            )
            for op, ref in oracles:
                assert np.abs(operator_materialize(op) - ref).max() <= 1e-13
