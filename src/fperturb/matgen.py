"""Seedable generators for test matrices and perturbation draws.

All randomness flows through numpy's PCG64 generator (a permuted congruential
generator with documented constants). A draw is reproducible from its seed,
and independent per-trial streams derive from the pair (seed, trial_index),
so trials can run in any order or in parallel and still produce identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import LuFactors, euclidean_norm
from .errors import check_size


def rng_stream(seed: int, trial_index: int | None = None) -> np.random.Generator:
    """Deterministic generator for a seed, or for trial ``trial_index`` of a seed."""
    if trial_index is None:
        return np.random.default_rng(int(seed))
    return np.random.default_rng([int(seed), int(trial_index)])


@dataclass(frozen=True)
class Normwise:
    """Perturbation constrained through its Frobenius norm: ||dA||_F = delta."""

    delta: float

    def __post_init__(self):
        check_size(self.delta, "delta")


@dataclass(frozen=True)
class ComponentwiseLU:
    """Backward-error-shaped perturbation: |dA| <= epsilon |L~| |U~|."""

    epsilon: float

    def __post_init__(self):
        check_size(self.epsilon, "epsilon")


@dataclass(frozen=True)
class ComponentwiseQR:
    """Componentwise QR perturbation: |dA| <= epsilon C |A| with 0 <= C_ij <= 1."""

    epsilon: float
    c: np.ndarray

    def __post_init__(self):
        check_size(self.epsilon, "epsilon")
        c = np.asarray(self.c, dtype=float)
        if np.any(c < 0.0) or np.any(c > 1.0):
            raise ValueError("envelope entries must lie in [0, 1]")
        object.__setattr__(self, "c", c)


PerturbationModel = Normwise | ComponentwiseLU | ComponentwiseQR


@dataclass(frozen=True)
class PerturbationSpec:
    model: PerturbationModel
    seed: int = 0


def kahan(n: int, theta: float) -> np.ndarray:
    """Graded triangular test matrix with rows scaled by powers of sin(theta).

    Row i (0-based) is sin(theta)^i times the unit upper triangular row with
    -cos(theta) above the diagonal. All leading principal minors are positive,
    and the matrix is its own triangular QR factor.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must lie strictly between 0 and pi/2")
    c, s = math.cos(theta), math.sin(theta)
    a = np.triu(np.full((n, n), -c), 1) + np.eye(n)
    a *= (s ** np.arange(n))[:, None]
    return a


def graded_random(n: int, d1: float, d2: float, seed: int) -> np.ndarray:
    """diag(1, d1, ..., d1^(n-1)) @ B @ diag(1, d2, ..., d2^(n-1)) with B standard normal."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("grading factors must be positive")
    b = rng_stream(seed).standard_normal((n, n))
    return (d1 ** np.arange(n))[:, None] * b * (d2 ** np.arange(n))[None, :]


def random_c_matrix(m: int, seed: int) -> np.ndarray:
    """Uniform [0, 1] envelope matrix for the componentwise QR model."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return rng_stream(seed).random((m, m))


def _signed_fractions(rng: np.random.Generator, shape) -> np.ndarray:
    mags = rng.random(shape)
    signs = rng.integers(0, 2, size=shape) * 2.0 - 1.0
    return mags * signs


def _draw_norm(da: np.ndarray, delta: float) -> float:
    """||dA||_F of a normwise draw, whose sum of squares is delta^2 up to rounding.

    Always the scaled :func:`euclidean_norm`, because squares that underflow
    (delta below about 1e-154) would skew a plain norm by far more than the
    ulp that each shrink step removes.
    """
    if 2.0 * delta * delta < math.inf:  # its unscaled first try cannot overflow
        return euclidean_norm(da)
    with np.errstate(over="ignore"):
        return euclidean_norm(da)


def sample_perturbation(spec: PerturbationSpec, *,
                        matrix: np.ndarray | None = None,
                        lu: LuFactors | None = None,
                        trial_index: int | None = None) -> np.ndarray:
    """Draw one perturbation matrix for the given model.

    Normwise draws a standard normal direction and rescales it so that
    ||dA||_F equals delta up to rounding and never exceeds it. The
    componentwise models draw, per entry, a uniform magnitude in
    [0, envelope] and an independent sign, so the entrywise constraint holds
    exactly by construction. ``matrix`` supplies the target shape (and |A|
    for the QR model); ``lu`` supplies the computed factors whose product
    shapes the LU envelope.
    """
    rng = rng_stream(spec.seed, trial_index)
    model = spec.model
    if isinstance(model, Normwise):
        if matrix is None:
            raise ValueError("normwise model needs the target matrix")
        g = rng.standard_normal(matrix.shape)
        if model.delta == 0.0:
            return np.zeros(matrix.shape)
        da = model.delta * g / np.linalg.norm(g)
        # rounding can leave ||dA||_F a few ulps above delta; move every entry
        # one ulp toward zero until it is not (a draw that overflowed stays so)
        while model.delta < _draw_norm(da, model.delta) < math.inf:
            da = np.nextafter(da, 0.0)
        return da
    if isinstance(model, ComponentwiseLU):
        if lu is None:
            raise ValueError("componentwise LU model needs the factors")
        return model.epsilon * lu.envelope * _signed_fractions(rng, lu.envelope.shape)
    if isinstance(model, ComponentwiseQR):
        if matrix is None:
            raise ValueError("componentwise QR model needs the matrix")
        envelope = model.c @ np.abs(matrix)
        return model.epsilon * envelope * _signed_fractions(rng, envelope.shape)
    raise TypeError(f"unknown perturbation model {model!r}")
