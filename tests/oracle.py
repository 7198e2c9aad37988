"""Exact references at 50 digits, by mpmath.

The inputs are float64 arrays, taken exactly: at 50 digits the sum of a
matrix and its perturbation is exact, so each reference is the exact
quantity of the given float64 inputs, to far below float64 rounding.
"""

import mpmath
import numpy as np

DPS = 50


def _r(a):
    """R of an mpmath matrix, from Householder QR at the working precision, rows
    signed so that its diagonal is positive."""
    _, r = mpmath.qr(a)
    n = a.cols
    return mpmath.matrix([[r[i, j] if r[i, i] >= 0 else -r[i, j] for j in range(n)]
                          for i in range(n)])


def r_change_norms(a, da) -> np.ndarray:
    """||R(A + dA) - R(A)||_F of each slice dA of the (k, m, n) stack ``da``, R with
    positive diagonal."""
    with mpmath.workdps(DPS):
        a = mpmath.matrix(np.asarray(a, dtype=float).tolist())
        base = _r(a)
        norms = []
        for d in np.asarray(da, dtype=float):
            change = _r(a + mpmath.matrix(d.tolist())) - base
            norms.append(float(mpmath.mnorm(change, "f")))
    return np.array(norms)


def lu_factor_maps(l, u) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper LU factor maps of the factors ``l`` and ``u``, rounded to float64.

    Column (r, c), the image of the one-hot E_rc, is slvec(L slt(L^{-1} E_rc P))
    with P = [U_{n-1}^{-1} 0; 0 0] for the lower map, and uvec(ut(L^{-1} E_rc
    U^{-1}) U) for the upper one, each stacking its triangle column by column.
    Everything runs at 50 digits, so each entry is that of the exact maps of
    the given factors, to far below float64 rounding, rounded once.
    """
    n = len(l)
    with mpmath.workdps(DPS):
        lm, um = (mpmath.matrix(np.asarray(m, dtype=float).tolist()) for m in (l, u))
        linv, uinv = mpmath.inverse(lm), mpmath.inverse(um)
        pad = mpmath.zeros(n, n)
        if n > 1:
            pad[:n - 1, :n - 1] = mpmath.inverse(um[:n - 1, :n - 1])
        lower = [(i, j) for j in range(n) for i in range(j + 1, n)]
        upper = [(i, j) for j in range(n) for i in range(j + 1)]
        m_l = np.empty((len(lower), n * n))
        m_u = np.empty((len(upper), n * n))
        for c in range(n):
            for r in range(n):
                m_l[:, c * n + r] = [float(mpmath.fsum(lm[i, k] * linv[k, r] * pad[c, j]
                                                       for k in range(j + 1, n)))
                                     for i, j in lower]
                m_u[:, c * n + r] = [float(mpmath.fsum(linv[i, r] * uinv[c, k] * um[k, j]
                                                       for k in range(i, n)))
                                     for i, j in upper]
    return m_l, m_u


def _floats(m) -> np.ndarray:
    """An mpmath matrix rounded to float64."""
    return np.array([[float(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def lu_factors(a) -> tuple[np.ndarray, np.ndarray]:
    """The pivot-free LU factors (L unit lower triangular) of ``a``, rounded to float64."""
    n = len(a)
    with mpmath.workdps(DPS):
        u = mpmath.matrix(np.asarray(a, dtype=float).tolist())
        l = mpmath.eye(n)
        for k in range(n - 1):
            for i in range(k + 1, n):
                l[i, k] = u[i, k] / u[k, k]
                for j in range(k, n):
                    u[i, j] -= l[i, k] * u[k, j]
        return _floats(l), np.triu(_floats(u))


def triangular_inverse(t) -> np.ndarray:
    """The inverse of a triangular matrix, rounded to float64."""
    with mpmath.workdps(DPS):
        return _floats(mpmath.inverse(mpmath.matrix(np.asarray(t, dtype=float).tolist())))
