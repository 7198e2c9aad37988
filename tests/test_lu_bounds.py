"""LU perturbation bounds: operators, rigorous/first-order/comparison values."""

import numpy as np
import pytest

from fperturb import dense
from fperturb.dense import lu_factor
from fperturb.errors import AbsOperatorTooLarge, ZeroVector
from fperturb.lu_bounds import (
    ScalingMatrix,
    chang_stehle_lu,
    gaussian_elimination_epsilon,
    heuristic_scaling,
    lower_factor_operator,
    lu_componentwise_bounds,
    lu_normwise_bounds,
    upper_factor_operator,
    worst_case_m_norm_perturbation,
)
from fperturb.structured import (
    operator_materialize,
    operator_spectral_norm,
    vec,
)

from conftest import (
    SelectionKind,
    extract,
    random_square,
    seeded_rng,
    selection_matrix,
    svd_spectral_norm,
)


def factor(seed, n=5, shift=None):
    return lu_factor(random_square(n, seed, shift=n if shift is None else shift))


class TestFactorOperators:
    def test_identity_norms_are_one(self):
        f = lu_factor(np.eye(5))
        for op in (lower_factor_operator(f.l, f.u), upper_factor_operator(f.l, f.u)):
            m = operator_materialize(op)
            assert svd_spectral_norm(m) == pytest.approx(1.0, abs=1e-12)
            assert operator_spectral_norm(op) == pytest.approx(1.0, abs=1e-11)

    def test_direct_formula_oracle(self):
        # first-order factor changes written out with explicit triangular algebra
        f = factor(3, n=4)
        l, u = f.l, f.u
        n = 4
        linv = dense.triangular_inverse(l, "lower")
        uinv = dense.triangular_inverse(u, "upper")
        pad = np.zeros((n, n))
        pad[: n - 1, : n - 1] = dense.triangular_inverse(u[: n - 1, : n - 1], "upper")
        da = seeded_rng(30).standard_normal((n, n))
        ref_l = extract(l @ extract(linv @ da @ pad, SelectionKind.SLT), SelectionKind.SLVEC)
        ref_u = extract(extract(linv @ da @ uinv, SelectionKind.UT) @ u, SelectionKind.UVEC)
        assert np.allclose(lower_factor_operator(l, u).apply(vec(da)), ref_l, atol=1e-12)
        assert np.allclose(upper_factor_operator(l, u).apply(vec(da)), ref_u, atol=1e-12)

    def test_lower_bounds_on_operator_norms(self):
        for seed in range(50):
            f = factor(seed, n=int(seeded_rng(31, seed).integers(3, 7)))
            n = f.l.shape[0]
            nl = operator_spectral_norm(lower_factor_operator(f.l, f.u))
            nu = operator_spectral_norm(upper_factor_operator(f.l, f.u))
            un1 = svd_spectral_norm(
                dense.triangular_inverse(f.u[: n - 1, : n - 1], "upper"))
            li = svd_spectral_norm(dense.triangular_inverse(f.l, "lower"))
            assert nl >= un1 * (1 - 1e-10)
            assert nu >= li * (1 - 1e-10)

    def test_dropping_row_selection_keeps_norm(self):
        # the row-orthonormal front selection does not change the spectral norm
        f = factor(5, n=5)
        n = 5
        linv = dense.triangular_inverse(f.l, "lower")
        pad = np.zeros((n, n))
        pad[: n - 1, : n - 1] = dense.triangular_inverse(f.u[: n - 1, : n - 1], "upper")
        full = lower_factor_operator(f.l, f.u)
        bare = (np.kron(np.eye(n), f.l) @ selection_matrix(SelectionKind.SLT, n)
                @ np.kron(pad.T, linv))
        assert svd_spectral_norm(bare) == pytest.approx(
            operator_spectral_norm(full), rel=1e-10)


class TestNormwiseBounds:
    def test_zero_perturbation(self):
        rep = lu_normwise_bounds(lu_factor(np.eye(4)), 0.0)
        assert rep.applicable
        assert rep.rigorous_dl == 0.0 and rep.rigorous_du == 0.0

    def test_identity_closed_form(self):
        rep = lu_normwise_bounds(lu_factor(np.eye(6)), 3.0 / 16.0)
        assert rep.condition_value == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert rep.rigorous_dl == pytest.approx(0.25, abs=1e-12)
        assert rep.rigorous_du == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_close_top_singular_values(self, eps):
        # the top singular values of the lower map differ by about eps relative
        f = lu_factor(np.diag([1.0, 1.0 - eps, 1.0]))
        rep = lu_normwise_bounds(f, 1e-6)
        ref = svd_spectral_norm(operator_materialize(lower_factor_operator(f.l, f.u)))
        assert rep.l_op_norm == pytest.approx(ref, rel=1e-12)

    def test_inapplicable_reports_absent(self):
        rep = lu_normwise_bounds(lu_factor(np.eye(4)), 0.3)
        assert not rep.applicable
        assert rep.rigorous_dl is None and rep.relaxed_du is None

    def test_orderings_and_comparison(self):
        for seed in range(10):
            f = factor(seed)
            rep = lu_normwise_bounds(f, 1e-3)
            if not rep.applicable:
                continue
            assert rep.rigorous_dl <= rep.relaxed_dl * (1 + 1e-12)
            assert rep.rigorous_du <= rep.relaxed_du * (1 + 1e-12)
            assert rep.relaxed_dl == pytest.approx(2 * rep.l_op_norm * 1e-3)
            # operator-norm bounds never exceed the scaled-condition bounds
            assert rep.relaxed_dl <= rep.comparison_dl * (1 + 1e-10)
            assert rep.relaxed_du <= rep.comparison_du * (1 + 1e-10)

    def test_first_order_flagged_separately(self):
        f = factor(2)
        rep = lu_normwise_bounds(f, 1e-6)
        assert rep.fo_applicable
        assert rep.first_order_dl == pytest.approx(rep.l_op_norm * 1e-6)


class TestChangStehleLu:
    def test_identity_arithmetic(self):
        f = lu_factor(np.eye(3))
        d = ScalingMatrix(np.ones(3))
        bdl, bdu, ok = chang_stehle_lu(f, 0.1, d, d)
        assert ok
        assert bdl == pytest.approx(0.2, abs=1e-12)
        assert bdu == pytest.approx(0.2, abs=1e-12)

    def test_heuristic_scaling_values(self):
        assert np.allclose(heuristic_scaling(np.eye(4), "columns").diagonal, np.ones(4))
        out = heuristic_scaling(np.array([[1.0, 0.0], [1.0, 1.0]]), "columns")
        assert np.allclose(out.diagonal, [np.sqrt(2.0), 1.0])
        with pytest.raises(ZeroVector) as exc:
            heuristic_scaling(np.array([[3.0, 0.0], [4.0, 0.0]]), "columns")
        assert exc.value.k == 2


class TestComponentwiseBounds:
    def test_identity_lower_bound_vanishes(self):
        rep = lu_componentwise_bounds(lu_factor(np.eye(4)), 0.01)
        assert rep.a == 0.0
        assert rep.applicable
        assert rep.rigorous_dl == 0.0
        # the upper image of the identity envelope is the uvec of the identity
        assert rep.b == pytest.approx(2.0)

    def test_orderings(self):
        for seed in range(8):
            rep = lu_componentwise_bounds(factor(seed), 1e-8)
            assert rep.applicable
            assert rep.rigorous_dl <= rep.relaxed_dl * (1 + 1e-12)
            assert rep.rigorous_du <= rep.relaxed_du * (1 + 1e-12)

    def test_first_order_tighter_than_triple_product(self):
        # Frobenius chain bounding the envelope image by factor products
        eps = 1e-8
        for seed in range(8):
            f = factor(seed)
            n = f.l.shape[0]
            rep = lu_componentwise_bounds(f, eps)
            lt, ut = np.abs(f.l), np.abs(f.u)
            ltinv = np.abs(dense.triangular_inverse(f.l, "lower"))
            un1 = f.u[: n - 1, : n - 1]
            chain_l = (np.linalg.norm(lt @ ltinv @ lt)
                       * np.linalg.norm(np.abs(un1)
                                        @ np.abs(dense.triangular_inverse(un1, "upper"))))
            utinv = np.abs(dense.triangular_inverse(f.u, "upper"))
            chain_u = (np.linalg.norm(ut @ utinv @ ut)
                       * np.linalg.norm(ltinv @ lt))
            assert rep.first_order_dl_f <= chain_l * eps * (1 + 1e-10)
            assert rep.first_order_du_f <= chain_u * eps * (1 + 1e-10)

    def test_signed_condition_number_reported_raw(self):
        rep = lu_componentwise_bounds(factor(0), 1e-9)
        assert rep.tau == pytest.approx(rep.c * 1e-9)

    def test_abs_operator_threshold(self):
        # order 65: the factor maps have input dimension 65^2 = 4225 > 4096
        with pytest.raises(AbsOperatorTooLarge):
            lu_componentwise_bounds(factor(0, n=65), 1e-9)

    @pytest.mark.parametrize("size", [np.nan, np.inf, -1.0])
    def test_non_finite_sizes_rejected(self, size):
        f = factor(0, n=3)
        with pytest.raises(ValueError):
            lu_normwise_bounds(f, size)
        with pytest.raises(ValueError):
            lu_componentwise_bounds(f, size)

    def test_epsilon_preset(self):
        u = 2.0 ** -53
        assert gaussian_elimination_epsilon(8) == pytest.approx(8 * u / (1 - 8 * u))


class TestWorstCasePerturbation:
    def test_envelope_respected(self):
        f = factor(4)
        da = worst_case_m_norm_perturbation(f, 0.01, "L")
        env = 0.01 * np.abs(f.l) @ np.abs(f.u)
        assert np.all(np.abs(da) <= env * (1 + 1e-12))

    def test_diagonal_target(self):
        f = lu_factor(np.diag([2.0, 3.0]))
        da = worst_case_m_norm_perturbation(f, 0.1, "U")
        assert np.allclose(np.abs(da), 0.1 * np.diag([2.0, 3.0]))

    def test_max_entry_ratio_approaches_one(self):
        a = random_square(5, 7, shift=5.0)
        f = lu_factor(a)
        a_hp = a.astype(np.longdouble)
        base_l = lu_factor(a_hp).l
        ratios = []
        for eps in (1e-5, 5e-6, 2.5e-6):
            da = worst_case_m_norm_perturbation(f, eps, "L")
            pert_l = lu_factor(a_hp - da).l
            bound = lu_componentwise_bounds(f, eps).first_order_dl_m
            ratios.append(float(np.max(np.abs(base_l - pert_l))) / bound)
        assert ratios[-1] > 0.99
        assert abs(ratios[0] - 1.0) >= abs(ratios[-1] - 1.0) - 1e-12
