"""Scale equivariance: the reports and the verification of A 2^k against those of A.

Scaling A by 2^k scales U and R by 2^k and leaves L and Q, so each report
field scales by a fixed power of 2^k: the bounds on dU and dR and the sizes
delta by 2^k, the norms of the lower LU map and of the quadratic R map by
2^-k, and the rest not at all. In floating point the scaling is exact
wherever nothing leaves the normal range, so the fields are bit for bit
ldexp(field, e k) there, and close to it beyond.
"""

import dataclasses
import math

import numpy as np
import pytest

from fperturb.dense import lu_factor, qr_factor
from fperturb.lu_bounds import lu_componentwise_bounds, lu_normwise_bounds
from fperturb.matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    graded_random,
    kahan,
)
from fperturb.qr_bounds import qr_componentwise_bounds, qr_normwise_bounds
from fperturb.verify import verify_bounds

from conftest import seeded_rng

#: e of each report field, which the report of A 2^k holds times 2^(e k)
EXPONENTS = {
    **dict.fromkeys((
        "delta", "delta1", "delta2", "b", "a_t", "b_t",
        "rigorous_du", "relaxed_du", "first_order_du", "comparison_du",
        "first_order_du_f", "first_order_du_m", "first_order_du_s",
        "rigorous_dr", "relaxed_dr", "simple_dr", "first_order_dr",
        "comparison_dr", "comparison_dr_row", "comparison_dr_eq"), 1),
    **dict.fromkeys(("l_op_norm", "abs_l_op_norm", "quadratic_op_norm", "c_t"), -1),
    **dict.fromkeys((
        "epsilon", "a", "c", "tau", "u_op_norm", "abs_u_op_norm", "linear_op_norm",
        "condition_value", "fo_condition_value", "strengthened_condition_value",
        "strengthened_value", "applicable", "fo_applicable", "comparison_applicable",
        "rigorous_dl", "relaxed_dl", "first_order_dl", "comparison_dl",
        "first_order_dl_f", "first_order_dl_m", "first_order_dl_s",
        "gamma_l", "gamma_l_d", "gamma_u", "gamma_u_d", "eta_dl", "eta_du",
        "gamma_r", "gamma_r_dr", "gamma_r_de", "eta_dr", "eta_de", "q_ratio",
        "zeta_d"), 0),
}
TIMINGS = ("t_gamma", "t_gamma_d", "t_gamma_dr", "t_gamma_de")

MATRICES = {
    "graded": graded_random(8, 0.9, 1.1, 3),
    "kahan": kahan(8, 0.39),
    "gaussian": seeded_rng(40).standard_normal((6, 6)),
    "graded-20": graded_random(20, 1.0, 1.0, 4),
}
SIZE = 1e-10


def _reports(a, k):
    """The four reports of A 2^k, the normwise ones at delta = 2^k SIZE."""
    a, delta = np.ldexp(a, k), math.ldexp(SIZE, k)
    lu, qr = lu_factor(a), qr_factor(a)
    return [lu_normwise_bounds(lu, delta), lu_componentwise_bounds(lu, SIZE),
            qr_normwise_bounds(qr, delta, delta),
            qr_componentwise_bounds(qr, np.ones(a.shape), SIZE)]


def _assert_scaled(report, scaled, k, rel=0.0):
    """Each non-timing field of ``scaled`` is that of ``report`` times 2^(e k)."""
    for field in dataclasses.fields(report):
        if field.name in TIMINGS:
            continue
        value, got = getattr(report, field.name), getattr(scaled, field.name)
        if value is None or isinstance(value, bool):
            assert got == value, field.name
            continue
        want = math.ldexp(value, EXPONENTS[field.name] * k)
        if rel:
            assert got == pytest.approx(want, rel=rel, abs=0.0), field.name
        else:
            assert got == want, field.name


@pytest.mark.parametrize("name", MATRICES)
def test_reports_scale_bit_for_bit(name):
    base = _reports(MATRICES[name], 0)
    for k in (7, -7, 200, -200):
        for report, scaled in zip(base, _reports(MATRICES[name], k)):
            _assert_scaled(report, scaled, k)


@pytest.mark.parametrize("name", MATRICES)
def test_reports_scale_near_the_range_ends(name):
    # the Gram products of the norm estimates run at unit scale, so the
    # norms stay representable where their squares would not be
    base = _reports(MATRICES[name], 0)
    for k in (400, -400, 480, -500):
        for report, scaled in zip(base, _reports(MATRICES[name], k)):
            _assert_scaled(report, scaled, k, rel=1e-12)


def _specs(a, k):
    """The spec of each experiment for A 2^k, with the normwise size 2^k 1e-9."""
    delta = math.ldexp(1e-9, k)
    return {"lu-normwise": Normwise(delta), "lu-componentwise": ComponentwiseLU(SIZE),
            "qr-normwise": Normwise(delta),
            "qr-componentwise": ComponentwiseQR(SIZE, np.ones(a.shape))}


@pytest.mark.parametrize("k", [200, -200])
def test_verification_is_bit_identical(k):
    a = MATRICES["graded"]
    for (experiment, model), scaled_model in zip(_specs(a, 0).items(), _specs(a, k).values()):
        report = verify_bounds(a, PerturbationSpec(model, seed=3), 50, experiment)
        scaled = verify_bounds(np.ldexp(a, k), PerturbationSpec(scaled_model, seed=3), 50,
                               experiment)
        for name in ("trials", "violations", "skipped", "max_ratio_rigorous",
                     "max_ratio_first_order"):
            assert getattr(scaled, name) == getattr(report, name), (experiment, name)
        _assert_scaled(report.bound_report, scaled.bound_report, k)


@pytest.mark.parametrize("name, trials, seed", [("graded-4", 20, 0), ("graded", 100, 5)],
                         ids=["graded-4", "graded"])
def test_qr_trials_hold_where_their_squares_underflow(name, trials, seed):
    # d1 = ||Q^T dA||_F of each trial, whose squares underflow below about
    # 2^-511, is re-taken at unit scale; squared as it stands, it read
    # smaller than it is and held trials to bounds below their changes
    a = graded_random(4, 0.9, 1.1, 3) if name == "graded-4" else MATRICES[name]
    spec = PerturbationSpec(Normwise(1e-9), seed=seed)
    report = verify_bounds(a, spec, trials, "qr-normwise")
    for k in (-498, -505, -508, -515):
        spec = PerturbationSpec(Normwise(math.ldexp(1e-9, k)), seed=seed)
        scaled = verify_bounds(np.ldexp(a, k), spec, trials, "qr-normwise")
        assert scaled.violations == report.violations == 0
        assert scaled.max_ratio_rigorous == pytest.approx(report.max_ratio_rigorous, rel=1e-12)
        assert scaled.max_ratio_first_order == pytest.approx(report.max_ratio_first_order,
                                                             rel=1e-12)


def test_quadratic_map_norm_of_a_huge_r():
    # at A 2^900 the quadratic map of R has norm near 2^-900, whose square
    # underflows; the report holds it, and the condition of A, not zeros
    a = MATRICES["graded"]
    report = qr_normwise_bounds(qr_factor(a), 1e-2, 1e-2)
    delta = math.ldexp(1e-2, 900)
    scaled = qr_normwise_bounds(qr_factor(np.ldexp(a, 900)), delta, delta)
    assert scaled.quadratic_op_norm == pytest.approx(
        math.ldexp(report.quadratic_op_norm, -900), rel=1e-12)
    assert scaled.condition_value == pytest.approx(report.condition_value, rel=1e-12)
    assert not scaled.applicable and scaled.rigorous_dr is None


def test_quadratic_map_norm_of_a_tiny_r():
    # at A 2^-503 the quadratic map of R has norm near 2^503, which is
    # representable: the report is that of A, not an overflow
    a = MATRICES["kahan"]
    delta = math.ldexp(1e-9, -503)
    report = qr_normwise_bounds(qr_factor(a), 1e-9, 1e-9)
    scaled = qr_normwise_bounds(qr_factor(np.ldexp(a, -503)), delta, delta)
    assert scaled.quadratic_op_norm == pytest.approx(
        math.ldexp(report.quadratic_op_norm, 503), rel=1e-12)
    assert scaled.condition_value == pytest.approx(0.0786, rel=1e-3)
    assert scaled.applicable
