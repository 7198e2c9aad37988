"""Vectorization operators, selection matrices, and matrix-free Kronecker maps.

``vec`` stacks columns. On top of it live five structural operators on square
matrices:

* ``uvec``  - stack the first j entries of column j (the upper triangle),
* ``slvec`` - stack the last n-j entries of column j (the strict lower triangle),
* ``up``    - keep the upper triangle and halve the diagonal,
* ``ut``    - keep the upper triangle,
* ``slt``   - keep the strict lower triangle.

Each has a selection-matrix representation acting on vec-space: ``uvec`` and
``slvec`` become row-orthonormal 0/1 gather matrices, while ``up``/``ut``/``slt``
become diagonal masks with entries in {0, 1/2, 1}. The perturbation maps for
the factorization bounds are compositions of these selections with Kronecker
products and the vec-permutation; :class:`StructuredOperator` keeps such a
composition in matrix-free form, so applying an n^2-dimensional map costs a
few n-by-n matrix products instead of an n^2-by-n^2 one.

Dense materialization is available below ``EXPLICIT_THRESHOLD`` as an oracle
and as the only mathematically valid route to entrywise-absolute-value
operators (the absolute value of a composition is not the composition of
absolute values).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .dense import EXPLICIT_THRESHOLD, _as_square, _power_spectral_norm
from .errors import AbsOperatorTooLarge, DimensionMismatch, TooLarge


class SelectionKind(Enum):
    UVEC = "uvec"
    SLVEC = "slvec"
    UP = "up"
    UT = "ut"
    SLT = "slt"


def vec(a) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def unvec(x, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an m-by-n matrix."""
    x = np.asarray(x, dtype=float)
    if x.size != m * n:
        raise DimensionMismatch(f"cannot reshape length {x.size} into {m}x{n}")
    return x.reshape((m, n), order="F")


def structured_extract(a, kind: SelectionKind):
    """Apply one of the structural operators directly to a square matrix.

    UVEC and SLVEC return stacked vectors; UP, UT, SLT return matrices.
    """
    a = _as_square(a)
    n = a.shape[0]
    if kind is SelectionKind.UVEC:
        return np.concatenate([a[: j + 1, j] for j in range(n)]) if n else np.zeros(0)
    if kind is SelectionKind.SLVEC:
        parts = [a[j + 1 :, j] for j in range(n - 1)]
        return np.concatenate(parts) if parts else np.zeros(0)
    if kind is SelectionKind.UT:
        return np.triu(a)
    if kind is SelectionKind.SLT:
        return np.tril(a, -1)
    if kind is SelectionKind.UP:
        return np.triu(a, 1) + 0.5 * np.diag(np.diag(a))
    raise ValueError(f"unknown selection kind {kind!r}")


@lru_cache(maxsize=256)
def _selection_indices(kind: SelectionKind, n: int) -> np.ndarray:
    # position of entry (i, j) inside vec is j*n + i
    idx = []
    if kind is SelectionKind.UVEC:
        for j in range(n):
            idx.extend(j * n + i for i in range(j + 1))
    elif kind is SelectionKind.SLVEC:
        for j in range(n - 1):
            idx.extend(j * n + i for i in range(j + 1, n))
    else:
        raise ValueError(kind)
    return np.asarray(idx, dtype=np.intp)


@lru_cache(maxsize=256)
def _mask_weights(kind: SelectionKind, n: int) -> np.ndarray:
    i = np.tile(np.arange(n), n)          # row index of each vec position
    j = np.repeat(np.arange(n), n)        # column index
    if kind is SelectionKind.UT:
        return (i <= j).astype(float)
    if kind is SelectionKind.SLT:
        return (i > j).astype(float)
    if kind is SelectionKind.UP:
        return np.where(i < j, 1.0, np.where(i == j, 0.5, 0.0))
    raise ValueError(kind)


@dataclass(frozen=True)
class SelectionMatrix:
    """Selection-matrix representation of a structural operator on vec-space."""

    kind: SelectionKind
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        n2 = self.n * self.n
        if self.kind is SelectionKind.UVEC:
            return (self.n * (self.n + 1) // 2, n2)
        if self.kind is SelectionKind.SLVEC:
            return (self.n * (self.n - 1) // 2, n2)
        return (n2, n2)

    def _data(self) -> np.ndarray:
        if self.kind in (SelectionKind.UVEC, SelectionKind.SLVEC):
            return _selection_indices(self.kind, self.n)
        return _mask_weights(self.kind, self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply2(np.atleast_1d(x))

    def apply2(self, v: np.ndarray) -> np.ndarray:
        if self.kind in (SelectionKind.UVEC, SelectionKind.SLVEC):
            return v[self._data()]
        if v.ndim == 1:
            return self._data() * v
        return self._data()[:, None] * v

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        if self.kind in (SelectionKind.UVEC, SelectionKind.SLVEC):
            out_shape = (self.n * self.n,) + v.shape[1:]
            out = np.zeros(out_shape)
            out[self._data()] = v
            return out
        return self.apply2(v)  # diagonal masks are symmetric

    def materialize(self) -> np.ndarray:
        rows, cols = self.shape
        if self.kind in (SelectionKind.UVEC, SelectionKind.SLVEC):
            m = np.zeros((rows, cols))
            m[np.arange(rows), self._data()] = 1.0
            return m
        return np.diag(self._data())


def selection_matrix(kind: SelectionKind, n: int) -> SelectionMatrix:
    """Selection matrix of the given kind and order."""
    if n < 1:
        raise DimensionMismatch("selection matrices need n >= 1")
    return SelectionMatrix(kind=kind, n=n)


@lru_cache(maxsize=256)
def _vec_perm_indices(m: int, n: int) -> np.ndarray:
    return np.arange(m * n).reshape((m, n), order="F").T.reshape(-1, order="F")


@dataclass(frozen=True)
class KroneckerStage:
    """Stage representing (a kron b) applied in matrix-free form."""

    a: np.ndarray
    b: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.a.shape[0] * self.b.shape[0]

    @property
    def in_dim(self) -> int:
        return self.a.shape[1] * self.b.shape[1]

    def apply2(self, v: np.ndarray) -> np.ndarray:
        p, m = self.a.shape
        q, n = self.b.shape
        single = v.ndim == 1
        if single:
            v = v[:, None]
        k = v.shape[1]
        x = v.reshape((n, m, k), order="F")
        t = np.tensordot(self.b, x, axes=([1], [0]))         # (q, m, k)
        y = np.tensordot(t, self.a, axes=([1], [1]))         # (q, k, p)
        y = np.moveaxis(y, 2, 1).reshape((q * p, k), order="F")
        return y[:, 0] if single else y

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        return KroneckerStage(self.a.T, self.b.T).apply2(v)


@dataclass(frozen=True)
class SelectionStage:
    sel: SelectionMatrix

    @property
    def out_dim(self) -> int:
        return self.sel.shape[0]

    @property
    def in_dim(self) -> int:
        return self.sel.shape[1]

    def apply2(self, v: np.ndarray) -> np.ndarray:
        return self.sel.apply2(v)

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        return self.sel.applyt2(v)


@dataclass(frozen=True)
class VecPermutationStage:
    m: int
    n: int

    @property
    def out_dim(self) -> int:
        return self.m * self.n

    @property
    def in_dim(self) -> int:
        return self.m * self.n

    def apply2(self, v: np.ndarray) -> np.ndarray:
        return v[_vec_perm_indices(self.m, self.n)]

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        return v[_vec_perm_indices(self.n, self.m)]


@dataclass(frozen=True)
class DenseStage:
    matrix: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    def apply2(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        return self.matrix.T @ v


@dataclass(frozen=True)
class SumStage:
    """Pointwise sum of operators with identical shapes."""

    branches: tuple

    def __post_init__(self):
        dims = {(b.out_dim, b.in_dim) for b in self.branches}
        if len(dims) != 1:
            raise DimensionMismatch(f"sum branches disagree on shape: {dims}")

    @property
    def out_dim(self) -> int:
        return self.branches[0].out_dim

    @property
    def in_dim(self) -> int:
        return self.branches[0].in_dim

    def apply2(self, v: np.ndarray) -> np.ndarray:
        out = self.branches[0].apply2(v)
        for b in self.branches[1:]:
            out = out + b.apply2(v)
        return out

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        out = self.branches[0].applyt2(v)
        for b in self.branches[1:]:
            out = out + b.applyt2(v)
        return out


@dataclass(frozen=True)
class StructuredOperator:
    """Composition of stages, written left to right in product order.

    ``stages[0]`` is applied last, matching how the operator would be
    written as a matrix product. All stages are immutable; instances are safe
    to share across threads.
    """

    stages: tuple

    def __post_init__(self):
        for left, right in zip(self.stages, self.stages[1:]):
            if left.in_dim != right.out_dim:
                raise DimensionMismatch(
                    f"stage chain mismatch: {left.in_dim} != {right.out_dim}"
                )

    @property
    def out_dim(self) -> int:
        return self.stages[0].out_dim

    @property
    def in_dim(self) -> int:
        return self.stages[-1].in_dim

    def apply2(self, v: np.ndarray) -> np.ndarray:
        for stage in reversed(self.stages):
            v = stage.apply2(v)
        return v

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        for stage in self.stages:
            v = stage.applyt2(v)
        return v

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size != self.in_dim:
            raise DimensionMismatch(f"expected length {self.in_dim}, got {x.size}")
        return self.apply2(x)

    def apply_transpose(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.size != self.out_dim:
            raise DimensionMismatch(f"expected length {self.out_dim}, got {y.size}")
        return self.applyt2(y)


def operator_materialize(op: StructuredOperator) -> np.ndarray:
    """Dense matrix with the same action as ``op`` on every basis vector."""
    if op.in_dim > EXPLICIT_THRESHOLD:
        raise TooLarge(f"input dimension {op.in_dim} exceeds threshold {EXPLICIT_THRESHOLD}")
    return op.apply2(np.eye(op.in_dim))


def abs_operator(op: StructuredOperator) -> StructuredOperator:
    """Entrywise absolute value of the materialized composition.

    There is no matrix-free shortcut: |composition| differs from the
    composition of absolute values, so this requires the dense form.
    """
    if op.in_dim > EXPLICIT_THRESHOLD:
        raise AbsOperatorTooLarge(
            f"input dimension {op.in_dim} exceeds threshold {EXPLICIT_THRESHOLD}"
        )
    return StructuredOperator(stages=(DenseStage(np.abs(operator_materialize(op))),))


def operator_spectral_norm(op: StructuredOperator, **kwargs) -> float:
    """Largest singular value of a structured operator via power iteration."""
    if op.in_dim == 0 or op.out_dim == 0:
        return 0.0
    return _power_spectral_norm(op.apply, op.apply_transpose, op.in_dim, **kwargs)
