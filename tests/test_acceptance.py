"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from fperturb import cli, dense, lu_bounds, qr_bounds
from fperturb.dense import lu_factor, qr_factor
from fperturb.lu_bounds import (
    ScalingMatrix,
    heuristic_scaling,
    lower_factor_operator,
    lu_componentwise_bounds,
    lu_normwise_bounds,
    upper_factor_operator,
    worst_case_m_norm_perturbation,
)
from fperturb.matgen import (
    ComponentwiseLU,
    ComponentwiseQR,
    Normwise,
    PerturbationSpec,
    graded_random,
    kahan,
    random_c_matrix,
)
from fperturb.qr_bounds import (
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
from fperturb.verify import _qr_measure_r, verify_bounds

from conftest import SelectionKind, selection_matrix, svd_spectral_norm


def _lu_measure(a):
    f = lu_factor(a)
    return f.l, f.u


def _report(criterion, detail, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.1f}s"
    print(f"PASS: criterion {criterion} ({detail}) in {elapsed:.1f}s")


def test_criterion_1_operator_identities():
    t0 = time.time()
    tol = 1e-13
    for n in range(2, 7):
        for seed in range(50):
            rng = np.random.default_rng([1000, n, seed])
            a = rng.standard_normal((n, n))
            x = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            # row selections have orthonormal rows; masks are their Gram matrices
            mu = selection_matrix(SelectionKind.UVEC, n)
            ms = selection_matrix(SelectionKind.SLVEC, n)
            assert np.abs(mu @ mu.T - np.eye(mu.shape[0])).max() <= tol
            assert np.abs(ms @ ms.T - np.eye(ms.shape[0])).max() <= tol
            mut = selection_matrix(SelectionKind.UT, n)
            mslt = selection_matrix(SelectionKind.SLT, n)
            assert np.abs(mu.T @ mu - mut).max() <= tol
            assert np.abs(ms.T @ ms - mslt).max() <= tol
            # vec of a triple product against the dense Kronecker route
            assert np.abs(np.kron(b.T, a) @ vec(x) - vec(a @ x @ b)).max() <= tol
            # vec permutation transposes
            transposed = sandwich(None, None, vec(a)[:, None], transpose=True)[:, 0]
            assert np.abs(transposed - vec(a.T)).max() <= tol
            # Kronecker inverse factorizes (well-conditioned factors, unit probe)
            a2 = a + 3.0 * np.eye(n)
            b2 = b + 3.0 * np.eye(n)
            probe = rng.standard_normal((n * n, 1))
            probe /= np.linalg.norm(probe)
            back = sandwich(b2, a2.T, sandwich(np.linalg.inv(b2), np.linalg.inv(a2).T, probe))
            assert np.abs(back - probe).max() <= tol
            # triangular projections absorb triangular Kronecker factors
            l = np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)
            u = np.triu(rng.standard_normal((n, n)))
            r = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
            mup = selection_matrix(SelectionKind.UP, n)
            k1 = np.kron(np.eye(n), l)
            assert np.abs(mslt @ k1 @ mslt - k1 @ mslt).max() <= tol
            k2 = np.kron(u.T, np.eye(n))
            assert np.abs(mut @ k2 @ mut - k2 @ mut).max() <= tol
            k3 = np.kron(r.T, np.eye(n))
            assert np.abs(mut @ k3 @ mup - k3 @ mup).max() <= tol
    _report(1, "operator identity suite, n=2..6, 50 seeds", t0, 10.0)


def test_criterion_2_matrix_free_matches_dense_oracle():
    t0 = time.time()
    for n in range(2, 9):
        for seed in range(8):
            rng = np.random.default_rng([2000, n, seed])
            a = rng.standard_normal((n, n)) + 0.5 * n * np.eye(n)
            fl = lu_factor(a)
            fq = qr_factor(rng.standard_normal((n + 1, n)))
            ops = (lower_factor_operator(fl),
                   upper_factor_operator(fl),
                   r_factor_operator(fq),
                   r_quadratic_operator(fq))
            for op in ops:
                ref = svd_spectral_norm(operator_materialize(op))
                got = operator_spectral_norm(op)
                assert got == pytest.approx(ref, rel=1e-8)
    _report(2, "matrix-free vs dense SVD operator norms, n<=8", t0, 30.0)


def test_criterion_3_paper_inequalities():
    t0 = time.time()
    rel = 1e-10
    for seed in range(50):
        rng = np.random.default_rng([3000, seed])
        n = int(rng.integers(3, 8))
        a = rng.standard_normal((n, n)) + 0.5 * n * np.eye(n)
        f = lu_factor(a)
        nl = operator_spectral_norm(lower_factor_operator(f))
        nu = operator_spectral_norm(upper_factor_operator(f))
        un1_inv = svd_spectral_norm(
            dense.triangular_inverse(f.u[: n - 1, : n - 1], "upper"))
        l_inv = svd_spectral_norm(dense.triangular_inverse(f.l, "lower"))
        assert nl >= un1_inv * (1 - rel)
        assert nu >= l_inv * (1 - rel)
        d_l = heuristic_scaling(f.l, "columns")
        d_u = heuristic_scaling(f.u, "rows")
        assert nl <= (dense.kappa2_triangular(f.l / d_l.diagonal[None, :], "lower")
                      * un1_inv) * (1 + rel)
        assert nu <= (dense.kappa2_triangular(f.u / d_u.diagonal[:, None], "upper")
                      * l_inv) * (1 + rel)

        b = rng.standard_normal((n, n)) + 0.5 * n * np.eye(n)
        fr = qr_factor(b)
        r = fr.r
        lin = operator_spectral_norm(r_factor_operator(fr))
        quad = operator_spectral_norm(r_quadratic_operator(fr))
        rinv = dense.triangular_inverse(r, "upper")
        assert lin >= 1.0 - rel
        assert quad >= svd_spectral_norm(rinv) / 2.0 * (1 - rel)
        absr = np.abs(r)
        lin_w, _, _ = componentwise_operator_norms(fr)
        assert dense.spectral_norm(absr) <= lin_w * (1 + rel)
        for d in (heuristic_scaling(r, "rows"), scaling_d_e(fr), ScalingMatrix(np.ones(n))):
            z = zeta(d)
            cap = math.sqrt(1 + z * z) * dense.kappa2_triangular(
                r / d.diagonal[:, None], "upper")
            assert lin <= cap * (1 + rel)
            if d.diagonal.size == n:
                cap_abs = (math.sqrt(1 + z * z)
                           * dense.spectral_norm(absr / d.diagonal[:, None])
                           * dense.spectral_norm(absr @ np.abs(rinv)
                                                 * d.diagonal[None, :]))
                assert lin_w <= cap_abs * (1 + rel)
    _report(3, "operator-norm inequality suite, 50 matrices", t0, 60.0)


def _families():
    return {
        "identity": np.eye(10),
        "kahan": kahan(10, math.pi / 8),
        "graded_0.2": graded_random(10, 0.2, 0.2, 2),
        "graded_1": graded_random(10, 1.0, 1.0, 1),
        "graded_2": graded_random(10, 2.0, 2.0, 8),
    }


def _lu_norm_delta(rep, target=0.1):
    return target / (rep.l_op_norm * rep.u_op_norm)


def _qr_norm_delta(rep, target=0.1):
    g, h = rep.linear_op_norm, rep.quadratic_op_norm
    return (-g + math.sqrt(g * g + 4.0 * target)) / (2.0 * h)


def _lu_comp_epsilon(rep, target=0.1):
    guards = []
    if rep.c != 0.0:
        guards.append(target / abs(rep.c))
    if rep.a * rep.abs_u_op_norm > 0.0:
        guards.append(target / (4.0 * rep.a * rep.abs_u_op_norm))
    return min(guards) if guards else 0.01


def _qr_comp_epsilon(rep, target=0.1):
    at, bt, ct = rep.a_t, rep.b_t, rep.c_t
    if ct == 0.0 or at == 0.0:
        return 0.01
    if bt > 0.0:
        return (-at + math.sqrt(at * at + 4.0 * target * bt / ct)) / (2.0 * bt)
    return target / (ct * at)


def test_criterion_4_rigorous_bounds_hold():
    t0 = time.time()
    trials = 250  # 5 families x 250 = 1250 trials per theorem
    for name, a in _families().items():
        fl = lu_factor(a)
        fq = qr_factor(a)
        d_lu = _lu_norm_delta(lu_normwise_bounds(fl, 0.0))
        rep = verify_bounds(a, PerturbationSpec(Normwise(d_lu), seed=101), trials,
                            experiment="lu-normwise")
        assert rep.violations == 0, f"{name}: lu-normwise"
        eps_lu = _lu_comp_epsilon(lu_componentwise_bounds(fl, 0.0))
        rep = verify_bounds(a, PerturbationSpec(ComponentwiseLU(eps_lu), seed=102),
                            trials)
        assert rep.violations == 0, f"{name}: lu-componentwise"
        d_qr = _qr_norm_delta(qr_normwise_bounds(fq, 0.0, 0.0))
        rep = verify_bounds(a, PerturbationSpec(Normwise(d_qr), seed=103), trials,
                            experiment="qr-normwise")
        assert rep.violations == 0, f"{name}: qr-normwise"
        c = random_c_matrix(10, 104)
        eps_qr = _qr_comp_epsilon(qr_componentwise_bounds(fq, c, 0.0))
        rep = verify_bounds(a, PerturbationSpec(ComponentwiseQR(eps_qr, c), seed=105),
                            trials)
        assert rep.violations == 0, f"{name}: qr-componentwise"
    _report(4, "zero rigorous-bound violations, 1250 trials x 4 theorems", t0, 300.0)


def test_criterion_5_first_order_asymptotics():
    t0 = time.time()
    a = graded_random(6, 1.0, 1.0, 3)
    a_hp = a.astype(np.longdouble)
    fl = lu_factor(a)
    fq = qr_factor(a)
    rng = np.random.default_rng([3, 9])
    direction = rng.standard_normal((6, 6))
    direction /= np.linalg.norm(direction)
    slack = 1e-6

    def check_sequence(ratios, sizes, label):
        for ratio, size in zip(ratios, sizes):
            assert ratio <= 1.0 + 50.0 * size, f"{label}: ratio {ratio} at {size}"
        for earlier, later in zip(ratios, ratios[1:]):
            assert later <= earlier * (1.0 + slack), f"{label}: ratio increased"

    # normwise LU, fixed direction, three halvings
    rep = lu_normwise_bounds(fl, 0.0)
    d0 = 0.05 / (rep.l_op_norm * rep.u_op_norm)
    base_l, base_u = _lu_measure(a_hp)
    sizes = [d0 / 2 ** k for k in range(4)]
    rl, ru = [], []
    for d in sizes:
        pl, pu = _lu_measure(a_hp + d * direction)
        rl.append(float(np.linalg.norm(pl - base_l)) / (rep.l_op_norm * d))
        ru.append(float(np.linalg.norm(pu - base_u)) / (rep.u_op_norm * d))
    check_sequence(rl, sizes, "lower factor, normwise")
    check_sequence(ru, sizes, "upper factor, normwise")

    # componentwise LU with a fixed signed-fraction pattern
    repc = lu_componentwise_bounds(fl, 0.0)
    e0 = 0.05 / (4.0 * repc.a * repc.abs_u_op_norm + abs(repc.c) + 1.0)
    env = np.abs(fl.l) @ np.abs(fl.u)
    fractions = rng.random((6, 6)) * (rng.integers(0, 2, (6, 6)) * 2 - 1)
    sizes_e = [e0 / 2 ** k for k in range(4)]
    rcl, rcu = [], []
    for e in sizes_e:
        pl, pu = _lu_measure(a_hp - e * env * fractions)
        rcl.append(float(np.linalg.norm(base_l - pl)) / (repc.a * e))
        rcu.append(float(np.linalg.norm(base_u - pu)) / (repc.b * e))
    check_sequence(rcl, sizes_e, "lower factor, componentwise")
    check_sequence(rcu, sizes_e, "upper factor, componentwise")

    # QR normwise
    repq = qr_normwise_bounds(fq, 0.0, 0.0)
    g, h = repq.linear_op_norm, repq.quadratic_op_norm
    dq0 = (-g + math.sqrt(g * g + 0.2)) / (2.0 * h)
    base_r = _qr_measure_r(a_hp)
    sizes_q = [dq0 / 2 ** k for k in range(4)]
    rq = []
    for d in sizes_q:
        pr = _qr_measure_r(a_hp + d * direction)
        d1 = float(np.linalg.norm(fq.q.T @ (d * direction)))
        rq.append(float(np.linalg.norm(pr - base_r)) / (g * d1))
    check_sequence(rq, sizes_q, "triangular factor, normwise")

    # QR componentwise
    c = random_c_matrix(6, 53)
    repqc = qr_componentwise_bounds(fq, c, 0.0)
    eq0 = _qr_comp_epsilon(repqc, target=0.05)
    env_q = c @ np.abs(a)
    sizes_qc = [eq0 / 2 ** k for k in range(4)]
    rqc = []
    for e in sizes_qc:
        pr = _qr_measure_r(a_hp + e * env_q * fractions)
        rqc.append(float(np.linalg.norm(pr - base_r)) / (repqc.a_t * e))
    check_sequence(rqc, sizes_qc, "triangular factor, componentwise")

    # extremal perturbation drives the max-entry ratio to one
    shifted = np.random.default_rng([5, 7]).standard_normal((5, 5)) + 5 * np.eye(5)
    fs = lu_factor(shifted)
    s_hp = shifted.astype(np.longdouble)
    base_sl, _ = _lu_measure(s_hp)
    eps_small = 1e-5 / 8.0
    da = worst_case_m_norm_perturbation(fs, eps_small, "L")
    pert_sl, _ = _lu_measure(s_hp - da)
    bound = lu_componentwise_bounds(fs, eps_small).first_order_dl_m
    assert float(np.max(np.abs(base_sl - pert_sl))) / bound > 0.9
    _report(5, "first-order ratio stays under 1+50*size and never grows", t0, 60.0)


def test_criterion_6_bound_orderings_and_tightness():
    t0 = time.time()
    for seed in range(12):
        rng = np.random.default_rng([6000, seed])
        n = int(rng.integers(3, 8))
        a = rng.standard_normal((n, n)) + 0.6 * n * np.eye(n)
        fl = lu_factor(a)
        rep = lu_normwise_bounds(fl, 1e-3)
        if rep.applicable:
            assert rep.rigorous_dl <= rep.relaxed_dl * (1 + 1e-12)
            assert rep.rigorous_du <= rep.relaxed_du * (1 + 1e-12)
            assert rep.relaxed_dl <= rep.comparison_dl * (1 + 1e-10)
            assert rep.relaxed_du <= rep.comparison_du * (1 + 1e-10)
        repc = lu_componentwise_bounds(fl, 1e-8)
        assert repc.applicable
        assert repc.rigorous_dl <= repc.relaxed_dl * (1 + 1e-12)
        assert repc.rigorous_du <= repc.relaxed_du * (1 + 1e-12)

        fq = qr_factor(a)
        repq = qr_normwise_bounds(fq, 1e-3, 1e-3)
        if repq.applicable:
            assert repq.rigorous_dr <= repq.relaxed_dr * (1 + 1e-12)
            assert repq.relaxed_dr < repq.simple_dr
            for d in (heuristic_scaling(fq.r, "rows"), scaling_d_e(fq)):
                comp, _ = chang_stehle_qr(fq, 1e-3, d)
                assert repq.simple_dr <= comp * (1 + 1e-10)
        c = random_c_matrix(n, seed)
        repqc = qr_componentwise_bounds(fq, c, 1e-9)
        assert repqc.applicable
        assert repqc.rigorous_dr <= repqc.relaxed_dr * (1 + 1e-12)
        assert repqc.relaxed_dr < repqc.simple_dr
    _report(6, "rigorous <= relaxed <= simple and tightness vs scaled bounds", t0, 60.0)


def test_criterion_7_table_reproduction(tmp_path, capsys):
    t0 = time.time()
    out2 = tmp_path / "table2.json"
    assert cli.main(["table2", "--seed", "0", "--seed-sweep", "5",
                     "--output", "json", "--no-timings", "--out", str(out2)]) == 0
    rows2 = json.loads(out2.read_text())["rows"]
    gamma_n5 = rows2[0]["gamma_R"]
    assert 4.1 <= gamma_n5 <= 4.1e2
    for row in rows2:
        assert row["gamma_R"] < row["gamma_R_Dr"] < float("inf")
        assert 1.0 <= row["eta_Dr"] <= 1.5
        assert 1.0 <= row["eta_De"] <= 1.5

    out1 = tmp_path / "table1.json"
    assert cli.main(["table1", "--seed", "0", "--seed-sweep", "5",
                     "--output", "json", "--no-timings", "--out", str(out1)]) == 0
    rows1 = json.loads(out1.read_text())["rows"]
    first = [r for r in rows1 if r["d1"] == 0.2 and r["d2"] == 0.2][0]
    assert first["gamma_L_DL"] / first["gamma_L"] >= 10.0
    for row in rows1:
        assert 1.0 <= row["eta_DL"] <= 1.5
        assert 1.0 <= row["eta_DU"] <= 1.5
    capsys.readouterr()
    _report(7, "table magnitudes and scaling ratios in range, 5-seed medians", t0, 120.0)


def test_criterion_8_closed_form_spot_values():
    t0 = time.time()
    rep = lu_normwise_bounds(lu_factor(np.eye(8)), 3.0 / 16.0)
    assert rep.rigorous_dl == pytest.approx(0.25, abs=1e-12)
    assert rep.rigorous_du == pytest.approx(0.25, abs=1e-12)
    for n in (2, 5):
        assert operator_spectral_norm(r_factor_operator(qr_factor(np.eye(n)))) == pytest.approx(
            math.sqrt(2.0), abs=1e-10)
        assert operator_spectral_norm(r_quadratic_operator(qr_factor(np.eye(n)))) == pytest.approx(
            1.0, abs=1e-10)
    _report(8, "identity closed forms: 0.25 bound, sqrt(2) and 1 norms", t0, 10.0)
