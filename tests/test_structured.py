"""Vectorization operators, selection matrices, and matrix-free compositions."""

import numpy as np
import pytest

from fperturb import dense
from fperturb.errors import AbsOperatorTooLarge, DimensionMismatch, TooLarge
from fperturb.structured import (
    DenseStage,
    KroneckerStage,
    SelectionKind,
    SelectionStage,
    StructuredOperator,
    SumStage,
    VecPermutationStage,
    abs_operator,
    operator_materialize,
    operator_spectral_norm,
    selection_matrix,
    structured_extract,
    vec,
)

from conftest import seeded_rng


def identity(dim):
    return StructuredOperator(stages=(DenseStage(np.eye(dim)),))


#: an operator of order 65, whose input dimension 65^2 = 4225 exceeds EXPLICIT_THRESHOLD
TOO_LARGE = StructuredOperator(stages=(KroneckerStage(np.eye(65), np.eye(65)),))


class TestStructuredExtract:
    def test_uvec_slvec_definitions(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(structured_extract(a, SelectionKind.UVEC), [1, 2, 4])
        assert np.array_equal(structured_extract(a, SelectionKind.SLVEC), [3])

    def test_up_halves_diagonal(self):
        a = np.array([[2.0, 5.0], [7.0, 8.0]])
        assert np.array_equal(structured_extract(a, SelectionKind.UP), [[1, 5], [0, 4]])

    def test_slt_complements_ut(self):
        a = seeded_rng(10).standard_normal((5, 5))
        total = (structured_extract(a, SelectionKind.UT)
                 + structured_extract(a, SelectionKind.SLT))
        assert np.array_equal(total, a)


class TestSelectionMatrices:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", list(SelectionKind))
    def test_matches_direct_operator(self, kind, n):
        a = seeded_rng(11, n).standard_normal((n, n))
        sel = selection_matrix(kind, n)
        out = sel.apply(vec(a))
        ref = structured_extract(a, kind)
        if kind in (SelectionKind.UP, SelectionKind.UT, SelectionKind.SLT):
            ref = vec(ref)
        assert np.array_equal(out, ref)
        assert np.array_equal(sel.materialize() @ vec(a), out)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_orthonormal_rows_and_masks(self, n):
        mu = selection_matrix(SelectionKind.UVEC, n).materialize()
        ms = selection_matrix(SelectionKind.SLVEC, n).materialize()
        assert np.array_equal(mu @ mu.T, np.eye(n * (n + 1) // 2))
        assert np.array_equal(ms @ ms.T, np.eye(n * (n - 1) // 2))
        assert np.array_equal(mu.T @ mu,
                              selection_matrix(SelectionKind.UT, n).materialize())
        assert np.array_equal(ms.T @ ms,
                              selection_matrix(SelectionKind.SLT, n).materialize())

    def test_uvec_order_two_layout(self):
        m = selection_matrix(SelectionKind.UVEC, 2).materialize()
        assert m.shape == (3, 4)
        # column-major vec positions (1,1), (1,2), (2,2)
        expected = np.zeros((3, 4))
        expected[0, 0] = expected[1, 2] = expected[2, 3] = 1.0
        assert np.array_equal(m, expected)

    def test_up_mask_entries(self):
        m = selection_matrix(SelectionKind.UP, 4).materialize()
        assert set(np.unique(m)) <= {0.0, 0.5, 1.0}
        sq = np.diag(m @ m)
        halved = np.diag(m) == 0.5
        assert np.all(sq[halved] == 0.25)
        assert np.all(np.isin(sq[~halved], (0.0, 1.0)))

    def test_up_mask_norm_is_one(self):
        for n in (2, 3, 6):
            op = StructuredOperator(stages=(SelectionStage(selection_matrix(SelectionKind.UP, n)),))
            assert operator_spectral_norm(op) == pytest.approx(1.0, abs=1e-12)


class TestVecPermutation:
    def test_two_by_two(self):
        assert np.array_equal(VecPermutationStage(2, 2).apply2(np.array([1.0, 3.0, 2.0, 4.0])),
                              [1, 2, 3, 4])

    def test_vector_shapes_are_identity(self):
        x = seeded_rng(12).standard_normal(5)
        assert np.array_equal(VecPermutationStage(1, 5).apply2(x), x)
        assert np.array_equal(VecPermutationStage(5, 1).apply2(x), x)

    def test_transpose_oracle(self):
        a = seeded_rng(13).standard_normal((3, 4))
        assert np.array_equal(VecPermutationStage(3, 4).apply2(vec(a)), vec(a.T))

    def test_orthogonality(self):
        x = seeded_rng(14).standard_normal(12)
        y = VecPermutationStage(3, 4).apply2(x)
        assert np.array_equal(VecPermutationStage(4, 3).apply2(y), x)


class TestKronecker:
    def test_identity(self):
        x = seeded_rng(15).standard_normal(4)
        assert np.array_equal(KroneckerStage(np.eye(2), np.eye(2)).apply2(x), x)

    def test_basis_column_against_dense(self):
        rng = seeded_rng(16)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((4, 3))
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert np.allclose(KroneckerStage(a, b).apply2(e1), np.kron(a, b)[:, 0])

    def test_vec_of_product_identity(self):
        rng = seeded_rng(17)
        a, x, b = (rng.standard_normal((4, 4)) for _ in range(3))
        lhs = np.kron(b.T, a) @ vec(x)
        assert np.allclose(lhs, vec(a @ x @ b), rtol=1e-12, atol=1e-13)

    def test_inverse_factorizes(self):
        rng = seeded_rng(18)
        a = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        b = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        x = rng.standard_normal(4)
        y = KroneckerStage(np.linalg.inv(a), np.linalg.inv(b)).apply2(
            KroneckerStage(a, b).apply2(x))
        assert np.allclose(y, x, atol=1e-13)

    def test_dimension_mismatch(self):
        op = StructuredOperator(stages=(KroneckerStage(np.eye(2), np.eye(2)),))
        with pytest.raises(DimensionMismatch):
            op.apply(np.ones(5))


def _random_operator(n, seed):
    rng = seeded_rng(19, n, seed)
    l = np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)
    u = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
    return StructuredOperator(stages=(
        SelectionStage(selection_matrix(SelectionKind.UVEC, n)),
        KroneckerStage(u.T, np.eye(n)),
        SelectionStage(selection_matrix(SelectionKind.UT, n)),
        SumStage(branches=(
            StructuredOperator(stages=(KroneckerStage(np.eye(n), l),)),
            StructuredOperator(stages=(KroneckerStage(u, np.eye(n)),
                                       VecPermutationStage(n, n))),
        )),
    ))


class TestStructuredOperator:
    def test_identity_norm(self):
        assert operator_spectral_norm(identity(4)) == pytest.approx(1.0)

    def test_materialize_identity(self):
        assert np.array_equal(operator_materialize(identity(3)), np.eye(3))

    def test_kron_stage_materializes_to_block_layout(self):
        rng = seeded_rng(20)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        op = StructuredOperator(stages=(KroneckerStage(a, b),))
        assert np.allclose(operator_materialize(op), np.kron(a, b))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_apply_matches_materialized(self, n):
        for seed in range(3):
            op = _random_operator(n, seed)
            m = operator_materialize(op)
            x = seeded_rng(21, n, seed).standard_normal(op.in_dim)
            assert np.allclose(op.apply(x), m @ x, rtol=1e-12, atol=1e-12)
            y = seeded_rng(22, n, seed).standard_normal(op.out_dim)
            assert np.allclose(op.apply_transpose(y), m.T @ y, rtol=1e-12, atol=1e-12)

    def test_operator_norm_matches_dense_svd(self):
        for n in (2, 4, 6):
            op = _random_operator(n, 0)
            ref = dense.svd_spectral_norm(operator_materialize(op))
            assert operator_spectral_norm(op) == pytest.approx(ref, rel=1e-10)

    def test_stage_chain_validated(self):
        with pytest.raises(DimensionMismatch):
            StructuredOperator(stages=(DenseStage(np.eye(3)), DenseStage(np.eye(4))))

    def test_materialize_too_large(self):
        with pytest.raises(TooLarge):
            operator_materialize(TOO_LARGE)

    def test_abs_operator_is_entrywise_abs_of_composition(self):
        op = _random_operator(3, 1)
        m = operator_materialize(op)
        aop = abs_operator(op)
        assert np.array_equal(operator_materialize(aop), np.abs(m))
        # |composition| generally differs from composing absolute stages
        assert not np.allclose(np.abs(m) @ np.ones(9), np.abs(m @ np.ones(9)))

    def test_abs_operator_too_large(self):
        with pytest.raises(AbsOperatorTooLarge):
            abs_operator(TOO_LARGE)


class TestTriangularProjectionIdentities:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_masked_kron_products(self, n):
        rng = seeded_rng(23, n)
        l = np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)
        u = np.triu(rng.standard_normal((n, n)))
        r = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
        mslt = selection_matrix(SelectionKind.SLT, n).materialize()
        mut = selection_matrix(SelectionKind.UT, n).materialize()
        mup = selection_matrix(SelectionKind.UP, n).materialize()
        k1 = np.kron(np.eye(n), l)
        assert np.allclose(mslt @ k1 @ mslt, k1 @ mslt, atol=1e-13)
        k2 = np.kron(u.T, np.eye(n))
        assert np.allclose(mut @ k2 @ mut, k2 @ mut, atol=1e-13)
        k3 = np.kron(r.T, np.eye(n))
        assert np.allclose(mut @ k3 @ mup, k3 @ mup, atol=1e-13)
