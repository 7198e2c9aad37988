"""LU perturbation bounds: operators, rigorous/first-order/comparison values."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fperturb import dense
from fperturb.dense import lu_factor
from fperturb.errors import AbsOperatorTooLarge, ZeroVector
from fperturb.matgen import graded_random
from fperturb.lu_bounds import (
    gaussian_elimination_epsilon,
    heuristic_scaling,
    lower_factor_operator,
    lu_componentwise_bounds,
    lu_normwise_bounds,
    majorant,
    upper_factor_operator,
)
from fperturb.structured import (
    operator_materialize,
    operator_spectral_norm,
    vec,
)

import oracle
from conftest import (
    SelectionKind,
    acceptance_families,
    chang_stehle_lu,
    comparison_cases,
    count_calls,
    extract,
    random_square,
    seeded_rng,
    selection_matrix,
    svd_spectral_norm,
    worst_case_m_norm_perturbation,
)


def factor(seed, n=5, shift=None):
    return lu_factor(random_square(n, seed, shift=n if shift is None else shift))


class TestMajorant:
    @given(a=st.floats(0.0, 1e100), b=st.floats(0.0, 1e100, exclude_min=True),
           c=st.floats(0.0, 1e100))
    def test_root_lies_between_its_relaxations(self, a, b, c):
        applicable, rigorous, relaxed = majorant(a, b, c)
        assert applicable == (b * b > 4.0 * a * c)
        if not applicable:
            assert rigorous is None and relaxed is None
            return
        # the checks below ask for the precision of normal numbers: b^2 and the
        # root must not underflow
        assume(b * b >= sys.float_info.min and (a == 0.0 or a / b >= sys.float_info.min))
        assert a / b <= rigorous <= relaxed == 2.0 * a / b
        assert abs(c * rigorous * rigorous - b * rigorous + a) <= 1e-12 * (b * rigorous + a)

    def test_needs_positive_b(self):
        for b in (0.0, -1.0):
            assert majorant(0.1, b, 0.0) == (False, None, None)

    @given(st.lists(st.tuples(st.floats(-1e200, 1e200), st.floats(-1e200, 1e200),
                              st.floats(-1e200, 1e200)), min_size=1, max_size=8))
    def test_arrays_have_the_scalar_bits(self, abc):
        # element by element, with NaN for None and no warning where a
        # product overflows or the root's argument is negative
        applicable, rigorous, relaxed = majorant(*np.array(abc).T)
        for j, args in enumerate(abc):
            ok, root, half = majorant(*args)
            assert applicable[j] == ok
            for got, want in ((rigorous[j], root), (relaxed[j], half)):
                assert np.isnan(got) if want is None else \
                    np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_double_root_is_not_applicable(self):
        # rho^2 - 2 rho + 1 has its double root at 1; the argument needs b^2 > 4ac
        assert majorant(1.0, 2.0, 1.0) == (False, None, None)
        applicable, rigorous, relaxed = majorant(0.75, 2.0, 1.0)
        assert applicable and rigorous == 0.5 and relaxed == 0.75


class TestFactorContext:
    """A factorization inverts each factor once, whichever bounds it feeds."""

    @pytest.mark.parametrize("report, inverses", [
        (lambda f: lu_normwise_bounds(f, 1e-8), 3),   # L, U and U_{n-1}; kappa2 rescales them
        (lambda f: lu_componentwise_bounds(f, 1e-12), 3),
    ], ids=["normwise", "componentwise"])
    def test_triangular_inverses_per_report(self, report, inverses, monkeypatch):
        calls = count_calls(monkeypatch, "triangular_inverse", dense)
        report(factor(3, n=10))
        assert len(calls) == inverses

    def test_normwise_report_estimates_each_inverse_norm_once(self, monkeypatch):
        # ||L^-1||, ||U^-1||, ||U_{n-1}^-1|| and the two norms of each kappa2
        calls = count_calls(monkeypatch, "spectral_norm", dense)
        lu_normwise_bounds(factor(3, n=10), 1e-8)
        assert len(calls) == 7

    def test_inverses_are_kept_on_the_factors(self):
        f = factor(4, n=6)
        assert f.l_inv is f.l_inv and f.u_inv is f.u_inv
        assert np.allclose(f.l_inv @ f.l, np.eye(6))
        assert np.allclose(f.u_lead_inv @ f.u[:5, :5], np.eye(5))


class TestFactorOperators:
    def test_identity_norms_are_one(self):
        f = lu_factor(np.eye(5))
        for op in (lower_factor_operator(f), upper_factor_operator(f)):
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
        assert np.allclose(lower_factor_operator(f).apply(vec(da)), ref_l, atol=1e-12)
        assert np.allclose(upper_factor_operator(f).apply(vec(da)), ref_u, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_absolute_maps_match_the_exact_maps(self, n):
        # the exact maps of the float64 factors, at 50 digits; the maps are
        # built on the cached inverses, whose rounding is relative to
        # |X||T||X| rather than to each entry, so every entry is held to
        # 4 n u of its map's largest magnitude
        for name, a in acceptance_families(n).items():
            f = lu_factor(a)
            for op, exact in zip((lower_factor_operator(f), upper_factor_operator(f)),
                                 oracle.lu_factor_maps(f.l, f.u)):
                got, exact = np.abs(operator_materialize(op)), np.abs(exact)
                bound = 4 * n * 2.0**-53 * exact.max(initial=0.0)
                assert (np.abs(got - exact) <= bound).all(), name

    def test_lower_bounds_on_operator_norms(self):
        for seed in range(50):
            f = factor(seed, n=int(seeded_rng(31, seed).integers(3, 7)))
            n = f.l.shape[0]
            nl = operator_spectral_norm(lower_factor_operator(f))
            nu = operator_spectral_norm(upper_factor_operator(f))
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
        full = lower_factor_operator(f)
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
        ref = svd_spectral_norm(operator_materialize(lower_factor_operator(f)))
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
        d = np.ones(3)
        bdl, bdu, ok = chang_stehle_lu(f, 0.1, d, d)
        assert ok
        assert bdl == pytest.approx(0.2, abs=1e-12)
        assert bdu == pytest.approx(0.2, abs=1e-12)

    def test_heuristic_scaling_values(self):
        assert np.allclose(heuristic_scaling(np.eye(4), "columns"), np.ones(4))
        out = heuristic_scaling(np.array([[1.0, 0.0], [1.0, 1.0]]), "columns")
        assert np.allclose(out, [np.sqrt(2.0), 1.0])
        with pytest.raises(ZeroVector) as exc:
            heuristic_scaling(np.array([[3.0, 0.0], [4.0, 0.0]]), "columns")
        assert exc.value.k == 2

    def test_heuristic_scaling_outside_the_squaring_range(self):
        # squaring 1e-300 underflows and squaring 1e200 overflows; both norms
        # are representable, and the other entries keep the bits of numpy's
        m = np.array([[1.0, 0.0, 3.0], [0.0, 1e-300, 0.0], [1e200, 1e200, 0.0]])
        rows = heuristic_scaling(m, "rows")
        assert rows[0] == np.linalg.norm(m[:2], axis=1)[0]
        assert rows[1] == 1e-300
        assert rows[2] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert list(heuristic_scaling(m[:2], "columns")) == [1.0, 1e-300, 3.0]
        f = lu_factor(np.diag([1.0, 1e-300]))
        assert list(heuristic_scaling(f.u, "rows")) == [1.0, 1e-300]
        rep = lu_normwise_bounds(f, 1e-8)
        assert rep.rigorous_dl == rep.rigorous_du == 1.0000000100000004e-08

    @pytest.mark.parametrize("name", list(comparison_cases()))
    def test_report_matches_reinverting_oracle(self, name):
        # the report rescales the cached inverses; the oracle inverts the
        # scaled factors afresh
        f = lu_factor(comparison_cases()[name])
        rep = lu_normwise_bounds(f, 1e-9)
        dl, du, ok = chang_stehle_lu(f, 1e-9, heuristic_scaling(f.l, "columns"),
                                     heuristic_scaling(f.u, "rows"))
        assert rep.comparison_dl == pytest.approx(dl, rel=1e-12)
        assert rep.comparison_du == pytest.approx(du, rel=1e-12)
        assert rep.comparison_applicable == ok


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

    def test_entry_whose_square_underflows(self):
        # ||U~||_F of [[1e-300]] is 1e-300, not the 0 of its underflowing square
        rep = lu_componentwise_bounds(lu_factor(np.array([[1e-300]])), 1e-10)
        assert rep.applicable
        assert rep.b == pytest.approx(1e-300, rel=1e-15)
        assert rep.gamma_u == pytest.approx(1.0, rel=1e-15)
        assert rep.gamma_u_d == pytest.approx(1.0, rel=1e-15)

    def test_envelope_image_whose_squares_overflow(self):
        # scaling A by 2^496 scales b by 2^496 exactly, past the 1.3e154 where
        # the squares of its entries overflow
        a = graded_random(20, 1.0, 1.0, 4)
        rep = lu_componentwise_bounds(lu_factor(np.ldexp(a, 496)), 1e-9)
        assert rep.b == np.ldexp(lu_componentwise_bounds(lu_factor(a), 1e-9).b, 496)
        assert rep.b == pytest.approx(5.371112487938774e154, rel=1e-12)
        assert math.isfinite(rep.first_order_du_f) and math.isfinite(rep.tau)


class TestComponentwiseMemory:
    def test_one_map_alive_at_a_time(self):
        # the peak stays near the larger materialized map, the upper one of
        # n (n+1)/2 by n^2 entries; all four of the signed and absolute maps
        # at once peak near 3 times it
        n = 40
        f = lu_factor(graded_random(n, 1.0, 1.0, 1))
        f.l_inv, f.u_inv, f.u_lead_inv, f.envelope     # cached before the count
        tracemalloc.start()
        try:
            lu_componentwise_bounds(f, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (n * (n + 1) // 2) * n * n * np.dtype(float).itemsize


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
