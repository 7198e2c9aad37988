from enum import Enum

import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return seeded_rng(0)
