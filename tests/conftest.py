import math
from enum import Enum

import numpy as np
import pytest

from fperturb import dense
from fperturb.dense import QrFactors
from fperturb.qr_bounds import COMPARISON_GATE, SQRT6_PLUS_SQRT3, zeta


def seeded_rng(*key):
    return np.random.default_rng(list(key))


def svd_spectral_norm(a):
    """Spectral norm through a full dense SVD; the oracle of the Krylov estimator."""
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
             * dense.spectral_norm(r / d.diagonal[:, None])
             * dense.spectral_norm(np.abs(r) @ np.abs(rinv) * d.diagonal[None, :])
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
