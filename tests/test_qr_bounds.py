"""QR triangular-factor bounds: operators, reports, scalings, comparisons."""

import math

import numpy as np
import pytest

from fperturb import dense
from fperturb.dense import QrFactors, qr_factor
from fperturb.errors import SingularDiagonal
from fperturb.lu_bounds import ScalingMatrix, heuristic_scaling
from fperturb.matgen import graded_random, kahan, random_c_matrix
from fperturb.qr_bounds import (
    SQRT6_PLUS_SQRT3,
    absolute_r_maps,
    chang_stehle_qr,
    componentwise_operator_norms,
    qr_componentwise_bounds,
    qr_normwise_bounds,
    r_factor_operator,
    r_quadratic_operator,
    scaling_d_e,
    zeta,
)
from fperturb.structured import (
    operator_materialize,
    operator_spectral_norm,
    sandwich,
    vec,
)

from conftest import (
    SelectionKind,
    chang_stehle_qr_componentwise,
    count_calls,
    extract,
    r_factors,
    random_upper,
    seeded_rng,
    svd_spectral_norm,
)


class TestROperators:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_identity_norms(self, n):
        lin = r_factor_operator(r_factors(np.eye(n)))
        quad = r_quadratic_operator(r_factors(np.eye(n)))
        assert svd_spectral_norm(operator_materialize(lin)) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)
        assert operator_spectral_norm(lin) == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert operator_spectral_norm(quad) == pytest.approx(1.0, abs=1e-10)

    def test_direct_formula_oracle(self):
        r = random_upper(5, 2)
        rinv = dense.triangular_inverse(r, "upper")
        x = seeded_rng(40).standard_normal((5, 5))
        up = lambda m: extract(m, SelectionKind.UP)
        ref_lin = extract(up(x @ rinv + rinv.T @ x.T) @ r, SelectionKind.UVEC)
        ref_quad = extract(up(rinv.T @ x @ rinv) @ r, SelectionKind.UVEC)
        assert np.allclose(r_factor_operator(r_factors(r)).apply(vec(x)), ref_lin, atol=1e-11)
        assert np.allclose(r_quadratic_operator(r_factors(r)).apply(vec(x)), ref_quad,
                           atol=1e-11)

    def test_norm_lower_bounds(self):
        for seed in range(50):
            r = random_upper(int(seeded_rng(41, seed).integers(2, 7)), seed)
            lin = operator_spectral_norm(r_factor_operator(r_factors(r)))
            quad = operator_spectral_norm(r_quadratic_operator(r_factors(r)))
            rinv_norm = svd_spectral_norm(dense.triangular_inverse(r, "upper"))
            assert lin >= 1.0 - 1e-10
            assert quad >= rinv_norm / 2.0 * (1 - 1e-10)

    def test_norm_sandwich_at_scalings(self):
        for seed in range(20):
            r = random_upper(5, seed)
            lin = operator_spectral_norm(r_factor_operator(r_factors(r)))
            for d in (heuristic_scaling(r, "rows"), scaling_d_e(r_factors(r)),
                      ScalingMatrix(np.ones(5))):
                z = zeta(d)
                upper = (math.sqrt(1 + z * z)
                         * dense.kappa2_triangular(r / d.diagonal[:, None], "upper"))
                assert lin <= upper * (1 + 1e-10)


def _abs_oracles(r):
    """The absolute R maps from dense materialization, weighted by Kronecker products."""
    absr = np.abs(r)
    lin = np.abs(operator_materialize(r_factor_operator(r_factors(r))))
    quad = np.abs(operator_materialize(r_quadratic_operator(r_factors(r))))
    # |M| (|R^T| kron B) = (kron(|R|, B^T) |M|^T)^T, without forming the Kronecker product
    return {"lin": lin, "quad": quad,
            "lin_weighted": sandwich(None, absr.T, lin.T).T,
            "quad_weighted": sandwich(absr, absr.T, quad.T).T}


def _abs_case_r(n, family):
    if family == "random":
        return random_upper(n, n)
    if family == "kahan":
        return qr_factor(kahan(n, 1.2)).r
    return qr_factor(graded_random(n, 0.8, 0.8, n)).r


ABS_CASES = ([(n, "random") for n in range(1, 13)]
             + [(12, "kahan"), (20, "kahan"), (20, "graded"), (35, "graded"), (55, "graded")])


class TestAbsoluteRMaps:
    @pytest.mark.parametrize("n, family", ABS_CASES)
    def test_matches_materialized_oracle(self, n, family):
        r = _abs_case_r(n, family)
        maps = absolute_r_maps(r_factors(r))
        oracles = _abs_oracles(r)
        rng = seeded_rng(45, n)
        for name, m in oracles.items():
            matvec, rmatvec = maps[name]
            x = rng.random(n * n)
            y = rng.random(m.shape[0])
            assert np.linalg.norm(matvec(x) - m @ x) <= 1e-13 * np.linalg.norm(m @ x)
            assert np.linalg.norm(rmatvec(y) - m.T @ y) <= 1e-13 * np.linalg.norm(m.T @ y)
        # above n = 35 each SVD takes seconds, so the estimate that the
        # materialized route used to make is the oracle there
        oracle_norm = svd_spectral_norm if n <= 35 else dense.spectral_norm
        norms = componentwise_operator_norms(r_factors(r))
        for name, value in zip(("lin_weighted", "quad_weighted", "quad"), norms):
            assert value == pytest.approx(oracle_norm(oracles[name]), rel=1e-11)

    @pytest.mark.parametrize("n, family", [(1, "random"), (7, "kahan"), (30, "graded")])
    def test_adjoint_identity(self, n, family):
        maps = absolute_r_maps(r_factors(_abs_case_r(n, family)))
        rng = seeded_rng(46, n)
        for matvec, rmatvec in maps.values():
            x = rng.standard_normal(n * n)
            y = rng.standard_normal(n * (n + 1) // 2)
            lhs, rhs = matvec(x) @ y, x @ rmatvec(y)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNormwiseReport:
    def test_zero_perturbation(self):
        rep = qr_normwise_bounds(qr_factor(np.eye(4)), 0.0, 0.0)
        assert rep.applicable
        assert rep.rigorous_dr == 0.0 and rep.relaxed_dr == 0.0 and rep.simple_dr == 0.0

    def test_identity_arithmetic(self):
        rep = qr_normwise_bounds(qr_factor(np.eye(5)), 0.05, 0.05)
        s2 = math.sqrt(2.0)
        assert rep.condition_value == pytest.approx(s2 * 0.05 + 0.0025, abs=1e-10)
        assert rep.applicable
        assert rep.relaxed_dr == pytest.approx(2 * (s2 * 0.05 + 0.0025), abs=1e-10)
        assert rep.simple_dr == pytest.approx((1 + 2 * s2) * 0.05, abs=1e-10)
        assert rep.rigorous_dr <= rep.relaxed_dr < rep.simple_dr

    def test_delta1_cannot_exceed_delta2(self):
        f = qr_factor(np.eye(3))
        with pytest.raises(ValueError):
            qr_normwise_bounds(f, 0.2, 0.1)

    def test_orderings_and_comparison(self):
        for seed in range(10):
            a = seeded_rng(42, seed).standard_normal((7, 5))
            f = qr_factor(a)
            rep = qr_normwise_bounds(f, 5e-4, 1e-3)
            if not rep.applicable:
                continue
            assert rep.rigorous_dr <= rep.relaxed_dr * (1 + 1e-12)
            assert rep.relaxed_dr < rep.simple_dr
            for d in (heuristic_scaling(f.r, "rows"), scaling_d_e(f)):
                comp, _ = chang_stehle_qr(f, 1e-3, d)
                assert rep.simple_dr <= comp * (1 + 1e-10)


class TestFactorContext:
    @pytest.mark.parametrize("report, inverses", [
        (lambda f: qr_normwise_bounds(f, 1e-8, 1e-8), 2),   # R, and D^-1 R in kappa2
        (lambda f: qr_componentwise_bounds(f, random_c_matrix(10, 0), 1e-12), 1),
    ], ids=["normwise", "componentwise"])
    def test_triangular_inverses_per_report(self, report, inverses, monkeypatch):
        f = qr_factor(seeded_rng(47).standard_normal((10, 10)))
        calls = count_calls(monkeypatch, "triangular_inverse", dense)
        report(f)
        assert len(calls) == inverses


class TestChangStehleQr:
    def test_identity_arithmetic(self):
        bound, ok = chang_stehle_qr(r_factors(np.eye(4)), 0.01, ScalingMatrix(np.ones(4)))
        assert ok
        assert bound == pytest.approx(SQRT6_PLUS_SQRT3 * math.sqrt(2.0) * 0.01, abs=1e-12)

    def test_zeta_examples(self):
        assert zeta(ScalingMatrix(np.array([1.0, 2.0, 4.0]))) == 4.0
        assert zeta(ScalingMatrix(np.array([4.0, 2.0, 1.0]))) == 0.5


class TestScalings:
    def test_identity(self):
        assert np.allclose(heuristic_scaling(np.eye(4), "rows").diagonal, np.ones(4))
        assert np.allclose(scaling_d_e(r_factors(np.eye(4))).diagonal, np.ones(4))

    def test_diagonal_example(self):
        r = np.diag([2.0, 8.0])
        assert np.allclose(heuristic_scaling(r, "rows").diagonal, [2.0, 8.0])
        # row 1-norm scaling makes the scaled inverse the identity, so the
        # recursion keeps every entry at one
        assert np.allclose(scaling_d_e(r_factors(r)).diagonal, [1.0, 1.0])

    def test_recursion_repeats_on_decrease(self):
        r = np.array([[1.0, 0.9], [0.0, 0.1]])
        dc = np.sum(np.abs(r), axis=1)
        m = dc[:, None] * dense.triangular_inverse(r, "upper")
        norms = np.linalg.norm(m, axis=0)
        de = scaling_d_e(r_factors(r)).diagonal
        assert de[0] == pytest.approx(1.0 / norms[0])
        expected = 1.0 / norms[1] if norms[1] >= norms[0] else de[0]
        assert de[1] == pytest.approx(expected)

    def test_singular_diagonal(self):
        with pytest.raises(SingularDiagonal):
            scaling_d_e(r_factors(np.array([[1.0, 1.0], [0.0, 0.0]])))

    def test_eta_at_least_one(self):
        for seed in range(10):
            r = random_upper(5, seed)
            rep = qr_componentwise_bounds(QrFactors(q=np.eye(5), r=r),
                                          random_c_matrix(5, seed), 1e-9)
            for eta, d in ((rep.eta_dr, heuristic_scaling(r, "rows")),
                           (rep.eta_de, scaling_d_e(r_factors(r)))):
                assert eta == (dense.spectral_norm(np.abs(r) / d.diagonal[:, None])
                               / dense.spectral_norm(r / d.diagonal[:, None]))
                assert eta >= 1.0 - 1e-12


class TestComponentwiseReport:
    def test_zero_envelope(self):
        f = qr_factor(np.eye(4))
        rep = qr_componentwise_bounds(f, np.zeros((4, 4)), 0.5)
        assert rep.applicable
        assert rep.a_t == 0.0 and rep.rigorous_dr == 0.0 and rep.simple_dr == 0.0

    def test_kahan_magnitudes(self):
        a = kahan(5, math.pi / 8)
        f = qr_factor(a)
        rep = qr_componentwise_bounds(f, random_c_matrix(5, 77), 1e-12)
        assert 4.1 <= rep.gamma_r <= 4.1e2
        assert 1.0 <= rep.eta_dr <= 1.5
        assert rep.q_ratio == pytest.approx(1.0)  # orthonormal factor is the identity

    def test_orderings(self):
        for seed in range(8):
            a = seeded_rng(43, seed).standard_normal((6, 6)) + 6 * np.eye(6)
            f = qr_factor(a)
            rep = qr_componentwise_bounds(f, random_c_matrix(6, seed), 1e-9)
            assert rep.applicable
            assert rep.rigorous_dr <= rep.relaxed_dr * (1 + 1e-12)
            assert rep.relaxed_dr < rep.simple_dr

    def test_weighted_abs_norm_chain(self):
        for seed in range(10):
            r = random_upper(5, seed)
            lin_w, _, _ = componentwise_operator_norms(r_factors(r))
            absr = np.abs(r)
            rinv = dense.triangular_inverse(r, "upper")
            assert dense.spectral_norm(absr) <= lin_w * (1 + 1e-10)
            for d in (heuristic_scaling(r, "rows"), scaling_d_e(r_factors(r))):
                z = zeta(d)
                upper = (math.sqrt(1 + z * z)
                         * dense.spectral_norm(absr / d.diagonal[:, None])
                         * dense.spectral_norm(absr @ np.abs(rinv) * d.diagonal[None, :]))
                assert lin_w <= upper * (1 + 1e-10)

    def test_comparison_matches_chang_stehle(self):
        # one product per scaling gives the comparison bound and gamma bit for bit
        for seed in range(6):
            a = seeded_rng(44, seed).standard_normal((6, 6)) + 6 * np.eye(6)
            f = qr_factor(a)
            c = random_c_matrix(6, seed)
            rep = qr_componentwise_bounds(f, c, 1e-9)
            r_norm = dense.spectral_norm(f.r)
            for d, comp, gamma in (
                    (heuristic_scaling(f.r, "rows"), rep.comparison_dr_row, rep.gamma_r_dr),
                    (scaling_d_e(f), rep.comparison_dr_eq, rep.gamma_r_de)):
                bound, ok = chang_stehle_qr_componentwise(f.r, 1e-9, d, c, f.q)
                assert comp == bound
                assert ok == rep.comparison_applicable
                assert gamma == pytest.approx(bound / 1e-9 / r_norm, rel=1e-12)

    @pytest.mark.parametrize("size", [np.nan, np.inf, -1.0])
    def test_non_finite_sizes_rejected(self, size):
        f = qr_factor(np.eye(3))
        with pytest.raises(ValueError):
            qr_normwise_bounds(f, size, size)
        with pytest.raises(ValueError):
            qr_componentwise_bounds(f, np.full((3, 3), 0.5), size)

    def test_envelope_validation(self):
        f = qr_factor(np.eye(3))
        with pytest.raises(ValueError):
            qr_componentwise_bounds(f, np.full((3, 3), 2.0), 0.1)
