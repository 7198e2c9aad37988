"""Seedable generators for test matrices and perturbation draws.

All randomness flows through numpy's PCG64 generator (a permuted congruential
generator with documented constants). A draw is reproducible from its seed,
and independent per-trial streams derive from the pair (seed, trial_index),
so trials can run in any order or in parallel and still produce identical
results.

Trial stream (seed, i) is the stream of ``np.random.default_rng([seed, i])``:
SeedSequence hashes the 32-bit words of the pair into four 64-bit words, and
PCG64 seeds its 128-bit state and increment from them. numpy keeps both
algorithms stable across releases (NEP 19), so draws do not depend on the
numpy version. Building that generator costs more than most draws, so the
trial states are derived here instead: the hash and mix of SeedSequence run
as vectorized 32-bit arithmetic over an aligned chunk of ``STREAM_CHUNK``
trial indices at once, PCG64's seeding finishes per index on Python ints,
and the last ``_CHUNK_CACHE`` chunks are kept, so draws that alternate
between a few seeds do not rebuild a chunk on every draw. A draw sets its
state on a generator that its thread reuses, and :func:`rng_stream` on a
fresh one, so the two share one derivation.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dense import LuFactors, euclidean_norm
from .errors import check_size

#: trial indices whose stream states are derived at once; it divides 2**32, so
#: every index of an aligned chunk splits into the same number of 32-bit words
STREAM_CHUNK = 1024

# constants of SeedSequence (pool of 4 words) and of PCG64's 128-bit LCG
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

#: chunks of stream states kept at once, shared by the threads
_CHUNK_CACHE = 4

#: per thread: the generator that draws reuse
_local = threading.local()


def _nonnegative(value, name: str) -> int:
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return value


def _words(x: int) -> list[int]:
    """The 32-bit words of x, least significant first, as SeedSequence splits it (0 is [0])."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


@functools.lru_cache(maxsize=_CHUNK_CACHE)
def _chunk_seeds(seed: int, start: int) -> np.ndarray:
    """Row j is ``SeedSequence([seed, start + j]).generate_state(4, np.uint64)``.

    ``start`` is a multiple of ``STREAM_CHUNK``, so the indices of the chunk
    share every word but the lowest, which runs over start's lowest word + j.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    def words(x):      # full rows: arithmetic on numpy integer scalars warns on wrap-around
        return [np.full(STREAM_CHUNK, w, dtype=np.uint32) for w in _words(x)]

    low, *high = words(start)
    entropy = words(seed) + [low + np.arange(STREAM_CHUNK, dtype=np.uint32)] + high
    entropy += words(0) * (_POOL_SIZE - len(entropy))
    pool = [hashmix(value) for value in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))

    hash_const = _INIT_B
    state = np.empty((STREAM_CHUNK, 2 * _POOL_SIZE), dtype=np.uint32)
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    return state.view(np.uint64)


def _stream_state(seed: int, trial_index: int) -> dict:
    """``bit_generator.state`` of ``np.random.default_rng([seed, trial_index])``."""
    seed = _nonnegative(seed, "seed")
    trial_index = _nonnegative(trial_index, "trial_index")
    chunk, offset = divmod(trial_index, STREAM_CHUNK)
    s0, s1, s2, s3 = _chunk_seeds(seed, chunk * STREAM_CHUNK)[offset].tolist()
    # PCG64 seeding: state 0, inc = 2 initseq + 1, step, add initstate, step
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _trial_generator(seed: int, trial_index: int) -> np.random.Generator:
    """This thread's reused generator, set to trial stream (seed, trial_index)."""
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = _stream_state(seed, trial_index)
    return rng


def rng_stream(seed: int, trial_index: int | None = None) -> np.random.Generator:
    """Deterministic generator for a seed, or for trial ``trial_index`` of a seed.

    Raises ``ValueError`` when the seed or the trial index is negative.
    """
    if trial_index is None:
        return np.random.default_rng(_nonnegative(seed, "seed"))
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = _stream_state(seed, trial_index)
    return rng


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

    def __post_init__(self):
        _nonnegative(self.seed, "seed")


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


def componentwise_envelope(model: ComponentwiseLU | ComponentwiseQR, *,
                           matrix: np.ndarray | None = None,
                           lu: LuFactors | None = None) -> np.ndarray:
    """The envelope E of a componentwise model, whose draws keep |dA| <= epsilon E.

    |L~| |U~| of the computed factors ``lu`` for :class:`ComponentwiseLU`, and
    C |A| of ``matrix`` for :class:`ComponentwiseQR`.
    """
    if isinstance(model, ComponentwiseLU):
        if lu is None:
            raise ValueError("componentwise LU model needs the factors")
        return lu.envelope
    if isinstance(model, ComponentwiseQR):
        if matrix is None:
            raise ValueError("componentwise QR model needs the matrix")
        return model.c @ np.abs(matrix)
    raise TypeError(f"unknown componentwise model {model!r}")


def sample_perturbation(spec: PerturbationSpec, *,
                        matrix: np.ndarray | None = None,
                        envelope: np.ndarray | None = None,
                        trial_index: int | None = None) -> np.ndarray:
    """Draw one perturbation matrix for the given model.

    Normwise draws a standard normal direction of the shape of ``matrix``
    and rescales it so that ||dA||_F equals delta up to rounding and never
    exceeds it; its norms are those of :func:`euclidean_norm`. The
    componentwise models draw, per entry, a uniform magnitude in
    [0, envelope] and an independent sign, so the entrywise constraint holds
    exactly by construction. The signs are those that
    ``rng.integers(0, 2)`` would draw next, read from the stream's raw
    32-bit words without its bounded-integer machinery. ``envelope`` is the
    model's :func:`componentwise_envelope`, which the caller forms once for
    all its draws; a componentwise draw without it raises ``ValueError``.
    """
    model = spec.model
    rng = (rng_stream(spec.seed) if trial_index is None
           else _trial_generator(spec.seed, trial_index))
    if isinstance(model, Normwise):
        if matrix is None:
            raise ValueError("normwise model needs the target matrix")
        g = rng.standard_normal(matrix.shape)
        if model.delta == 0.0:
            return np.zeros(matrix.shape)
        norm = euclidean_norm(g)
        # 2 delta ||g|| bounds every delta |g_ij| with room for its rounding
        if (2.0 * model.delta * norm < math.inf
                or model.delta * float(np.max(np.abs(g))) < math.inf):
            da = model.delta * g / norm
        else:           # delta * g would overflow; scale the unit direction
            da = model.delta * (g / norm)
        # rounding can leave ||dA||_F a few ulps above delta; move every entry
        # one ulp toward zero until it is not (a draw that overflowed stays so)
        while model.delta < _draw_norm(da, model.delta) < math.inf:
            da = np.nextafter(da, 0.0)
        return da
    if not isinstance(model, (ComponentwiseLU, ComponentwiseQR)):
        raise TypeError(f"unknown perturbation model {model!r}")
    if envelope is None:
        raise ValueError("componentwise model needs its envelope")
    mags = rng.random(envelope.shape)
    # the signs of rng.integers(0, 2, envelope.shape) * 2.0 - 1.0: numpy takes
    # each from the top bit of a 32-bit word (Lemire's method), two words to
    # an output of the stream, the low half first
    words = rng.bit_generator.random_raw((mags.size + 1) // 2)
    positive = words.astype("<u8", copy=False).view("<u4")[: mags.size] >= 1 << 31
    return model.epsilon * envelope * np.where(positive.reshape(mags.shape), mags, -mags)
