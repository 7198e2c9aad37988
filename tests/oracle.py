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
