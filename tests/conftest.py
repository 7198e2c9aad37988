import math
from dataclasses import fields
from enum import Enum

import numpy as np
import pytest

from fperturb import dense, verify
from fperturb.dense import QrFactors
from fperturb.lu_bounds import lower_factor_operator, upper_factor_operator
from fperturb.matgen import graded_random, kahan, sample_perturbation
from fperturb.qr_bounds import COMPARISON_GATE, SQRT6_PLUS_SQRT3, zeta
from fperturb.structured import operator_materialize, vec


def seeded_rng(*key):
    return np.random.default_rng(list(key))


def svd_spectral_norm(a):
    """Spectral norm through a full dense SVD; the oracle of both spectral_norm routes."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def random_square(n, seed, shift=0.0):
    """Standard normal matrix, optionally diagonally shifted for conditioning."""
    return seeded_rng(7, n, seed).standard_normal((n, n)) + shift * np.eye(n)


def random_unit_lower(n, seed):
    rng = seeded_rng(8, n, seed)
    return np.tril(rng.standard_normal((n, n)), -1) + np.eye(n)


def random_upper(n, seed, shift=None):
    rng = seeded_rng(9, n, seed)
    t = np.triu(rng.standard_normal((n, n)))
    return t + (n if shift is None else shift) * np.eye(n)


def r_factors(r):
    """QR factors around a given triangular R, with Q = I.

    The R maps, the scalings of R and the normwise comparison bound depend on
    R alone.
    """
    r = np.asarray(r, dtype=float)
    return QrFactors(q=np.eye(r.shape[0]), r=r)


def acceptance_families(n=10):
    """The five matrix families that the acceptance suite runs on, at order n (10 there)."""
    return {
        "identity": np.eye(n),
        "kahan": kahan(n, math.pi / 8),
        "graded_0.2": graded_random(n, 0.2, 0.2, 2),
        "graded_1": graded_random(n, 1.0, 1.0, 1),
        "graded_2": graded_random(n, 2.0, 2.0, 8),
    }


def comparison_cases():
    """The acceptance families, and kahan(n, 1.2) up to n = 200, whose scaled
    triangles stay ill-conditioned (kappa2 near 1e18 at n = 200)."""
    return {**acceptance_families(),
            **{f"kahan{n}": kahan(n, 1.2) for n in (10, 50, 100, 200)}}


def measure_r(a):
    """R factor of one matrix, with positive diagonal, by :func:`householder_r_stack`
    in its own precision (longdouble stays longdouble, anything else is float64)."""
    r, zero_column = householder_r_stack(np.asarray(a)[None])
    assert not zero_column[0]
    return r[0]


def householder_r_stack(a):
    """Householder R (positive diagonal) of every slice of a (k, m, n) stack.

    The refactorization oracle of ``dense.r_change``, in longdouble for a
    longdouble stack: each reflection updates the whole trailing block, the
    column it zeroes included, and a slice whose reflection vector vanishes
    skips it. Returns ``(r, zero_column)``.
    """
    a = np.asarray(a)
    r = np.array(a, dtype=np.longdouble if a.dtype == np.longdouble else float)
    k, m, n = r.shape
    zero_column = np.zeros(k, dtype=bool)
    for c in range(n):
        x = r[:, c:, c]
        nx = np.sqrt(np.sum(x * x, axis=1))
        zero_column |= nx == 0.0
        v = x.copy()
        v[:, 0] += np.where(x[:, 0] >= 0.0, nx, -nx)
        s = np.sum(v * v, axis=1)
        reflect = s != 0.0
        coef = np.divide(2.0, s, out=np.zeros_like(s), where=reflect)
        w = np.matmul(r[:, c:, c:].transpose(0, 2, 1), v[:, :, None])[:, :, 0] * coef[:, None]
        np.subtract(r[:, c:, c:], v[:, :, None] * w[:, None, :], out=r[:, c:, c:],
                    where=reflect[:, None, None])
    r = np.triu(r[:, :n, :n])
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    return r * signs[:, :, None], zero_column


def ratio(actual, bound):
    """actual / bound; 0 for a first-order bound that does not apply (None)."""
    if bound is None:
        return 0.0
    if bound == 0.0:
        return 0.0 if actual == 0.0 else float("inf")
    return actual / bound


def trial_loop_report(a, spec, trials, experiment):
    """The accounting of ``verify.verify_bounds`` one trial and one value at a time.

    The oracle of its block accounting: each trial is drawn, measured as
    a stack of one by the experiment's ``changes`` kernel and, unless it
    failed, held to its bounds (with ``trial_d1``, those at its own
    ||Q^T dA||_F) one change at a time. Returns the report's
    ``(violations, skipped, max_ratio_rigorous, max_ratio_first_order)``.
    """
    exp = verify.EXPERIMENTS[experiment]
    a = np.asarray(a, dtype=float)
    size = getattr(spec.model, exp.size)
    factors, base = exp.factor(a)
    bounds_at = exp.bounds(factors, *[getattr(spec.model, f.name)
                                      for f in fields(spec.model) if f.name != exp.size])

    def read_bounds(report):
        return [(getattr(report, rigorous), getattr(report, first_order))
                for rigorous, first_order in exp.bound_fields]

    bounds = read_bounds(bounds_at(size, size) if exp.trial_d1 else bounds_at(size))
    envelope = exp.envelope(spec.model, a, factors)
    violations = 0
    skipped = []
    max_rig = max_fo = 0.0
    for i in range(trials):
        da = sample_perturbation(spec, trial_index=i, matrix=a, envelope=envelope)
        changes, failures = exp.changes(base, (-da if exp.subtract_draw else da)[None])
        if failures:
            skipped.append((i, failures[0][1]))
            continue
        if exp.trial_d1:
            d1 = float(np.linalg.norm(factors.q.T @ da))
            bounds = read_bounds(bounds_at(min(d1, size), size))
        violated = False
        for actual, (rigorous, first_order) in zip(changes[0].tolist(), bounds):
            if actual > rigorous:
                violated = True
            r = ratio(actual, rigorous)
            if r > max_rig:
                max_rig = r
            r = ratio(actual, first_order)
            if r > max_fo:
                max_fo = r
        violations += violated
    return violations, tuple(skipped), max_rig, max_fo


def kappa2_triangular(t, shape):
    """Spectral condition number of a triangular matrix, its inverse formed afresh.

    The oracle of the comparison bounds, which rescale the cached inverses of
    the factors instead.
    """
    return dense.spectral_norm(t) * dense.spectral_norm(dense.triangular_inverse(t, shape))


def chang_stehle_lu(factors, delta, d_l, d_u):
    """Normwise comparison bounds of Chang and Stehle for dL and dU.

    Returns ``(bound_dl, bound_du, applicable)``: the bounds are
    2 kappa2(L D_l^-1) ||U_{n-1}^-1||_2 delta and
    2 kappa2(D_u^-1 U) ||L^-1||_2 delta for the positive diagonals d_l and
    d_u, and the gate is ||L^-1||_2 ||U^-1||_2 delta < 1/4.
    """
    l, u = factors.l, factors.u
    linv_norm = dense.spectral_norm(dense.triangular_inverse(l, "lower"))
    uinv_norm = dense.spectral_norm(dense.triangular_inverse(u, "upper"))
    un1_inv_norm = dense.spectral_norm(dense.triangular_inverse(u[:-1, :-1], "upper"))
    kappa_l = kappa2_triangular(l / d_l[None, :], "lower")
    kappa_u = kappa2_triangular(u / d_u[:, None], "upper")
    return (2.0 * kappa_l * un1_inv_norm * delta, 2.0 * kappa_u * linv_norm * delta,
            linv_norm * uinv_norm * delta < 0.25)


def chang_stehle_qr(factors, delta, d):
    """Normwise comparison bound of Chang and Stehle for dR.

    Returns ``(bound, applicable)``: the bound is
    (sqrt6 + sqrt3) sqrt(1 + zeta^2) kappa2(D^-1 R) delta for the positive
    diagonal d, and the gate is ||R^-1||_2 delta < sqrt(3/2) - 1.
    """
    r = factors.r
    z = zeta(d)
    bound = SQRT6_PLUS_SQRT3 * math.sqrt(1.0 + z * z) * kappa2_triangular(
        r / d[:, None], "upper") * delta
    rinv_norm = dense.spectral_norm(dense.triangular_inverse(r, "upper"))
    return bound, rinv_norm * delta < COMPARISON_GATE


def worst_case_m_norm_perturbation(tilde_factors, epsilon, target):
    """Perturbation attaining the first-order max-entry bound for one LU factor.

    The extremal dA has vec(dA) = eps * sign(row_k) * vec(|L~||U~|) entrywise,
    where row_k is the row of the factor map whose absolute image of the
    envelope is largest. ``target`` is ``"L"`` or ``"U"``. The map is
    materialized, so this raises AbsOperatorTooLarge above
    ``EXPLICIT_THRESHOLD``.
    """
    lt, ut = tilde_factors.l, tilde_factors.u
    n = lt.shape[0]
    op = {"L": lower_factor_operator, "U": upper_factor_operator}[target](tilde_factors)
    rows = operator_materialize(op)
    venv = vec(np.abs(lt) @ np.abs(ut))
    if rows.shape[0] == 0:
        return np.zeros((n, n))
    k = int(np.argmax(np.abs(rows) @ venv))
    # Entries where the extremal row vanishes do not affect attainment; give
    # them sign +1 so the perturbation saturates the whole envelope.
    signs = np.where(rows[k] >= 0.0, 1.0, -1.0)
    return (epsilon * signs * venv).reshape((n, n), order="F")


def chang_stehle_qr_componentwise(r, eps, d, c, q):
    """Componentwise scaled-condition-number comparison bound for dR.

    Returns ``(bound, applicable)``: the bound is (sqrt6 + sqrt3)
    sqrt(1 + zeta^2) ||D^-1 R||_2 || |R||R^-1| D ||_2 ||C|Q|||_F eps, and the
    gate is || |R||R^-1| ||_2 ||C|Q|||_F eps < sqrt(3/2) - 1. The oracle of
    the comparison quantities of the componentwise QR report.
    """
    r = np.asarray(r, dtype=float)
    rinv = dense.triangular_inverse(r, "upper")
    z = zeta(d)
    factor = SQRT6_PLUS_SQRT3 * math.sqrt(1.0 + z * z)
    c_env_norm = float(np.linalg.norm(np.asarray(c, dtype=float) @ np.abs(q)))
    bound = (factor
             * dense.spectral_norm(r / d[:, None])
             * dense.spectral_norm(np.abs(r) @ np.abs(rinv) * d[None, :])
             * c_env_norm * eps)
    applicable = (dense.spectral_norm(np.abs(r) @ np.abs(rinv))
                  * c_env_norm * eps < COMPARISON_GATE)
    return bound, applicable


class SelectionKind(Enum):
    """Structural operators on square matrices, the oracles of the factor maps.

    ``uvec`` stacks the upper triangle and ``slvec`` the strict lower triangle
    column by column; ``up`` keeps the upper triangle with the diagonal
    halved, ``ut`` the upper triangle and ``slt`` the strict lower triangle.
    """

    UVEC = "uvec"
    SLVEC = "slvec"
    UP = "up"
    UT = "ut"
    SLT = "slt"


#: the three operators that return a matrix rather than a stacked vector
MASKS = (SelectionKind.UP, SelectionKind.UT, SelectionKind.SLT)


def mask(kind, n):
    """n-by-n weights of a structural operator; a row selection keeps their support."""
    ones = np.ones((n, n))
    if kind is SelectionKind.UP:
        return np.triu(ones, 1) + 0.5 * np.eye(n)
    if kind in (SelectionKind.UT, SelectionKind.UVEC):
        return np.triu(ones)
    return np.tril(ones, -1)


def extract(a, kind):
    """Apply a structural operator to a square matrix; uvec and slvec stack columns."""
    if kind is SelectionKind.UP:
        return np.triu(a, 1) + 0.5 * np.diag(np.diag(a))
    if kind is SelectionKind.UT:
        return np.triu(a)
    if kind is SelectionKind.SLT:
        return np.tril(a, -1)
    # row-major order of the transposes is column-major order of a
    return a.T[mask(kind, a.shape[0]).T != 0]


def selection_matrix(kind, n):
    """Dense vec-space matrix of a structural operator, built from its n-by-n mask.

    A mask becomes the diagonal matrix diag(vec W); a row selection keeps the
    rows of the identity on the support of W.
    """
    w = mask(kind, n).reshape(-1, order="F")
    return np.diag(w) if kind in MASKS else np.eye(n * n)[w != 0]


def vec_permutation(n):
    """Dense n^2-by-n^2 permutation with vec(X^T) = P vec(X) for n-by-n X."""
    return np.eye(n * n)[np.arange(n * n).reshape((n, n)).reshape(-1, order="F")]


def count_calls(monkeypatch, name, *modules):
    """Count the calls of the function ``name`` made through any of ``modules``.

    Every module's attribute becomes one counting wrapper around the first
    module's function. Returns the list that gains one entry per call.
    """
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng():
    return seeded_rng(0)
