"""Matrix-free factor maps: a triangular mask placed between matrix products.

``vec`` stacks columns. The matrix-vector equation approach writes every
first-order factor change as a triangular mask between matrix products:

* dL = L slt(L^{-1} dA [U_{n-1}^{-1} 0; 0 0]),
* dU = ut(L^{-1} dA U^{-1}) U,
* dR = up(X R^{-1} + R^{-T} X^T) R with X = Q^T dA, and the quadratic R map
  up(R^{-T} X R^{-1}) R,

where ``slt`` keeps the strict lower triangle, ``ut`` the upper triangle and
``up`` the upper triangle with the diagonal halved. :class:`StructuredOperator`
holds one such map as a sum of sandwiches a X b (or a X^T b), an n-by-n mask W
with entries in {0, 1/2, 1} and two outer factors. Its output is the part of
the result on the support of W, read column by column, so the upper maps
return uvec(dU) and the lower map slvec(dL). :func:`sandwich` forms each
product through vec(a X b) = (b^T kron a) vec(X) without the Kronecker
product: an n^2-by-k block is viewed, without a copy, as the stack of the k
matrices X^T, and (a X b)^T = b^T X^T a^T is one batched ``np.matmul`` per
factor. Each matrix of a stack is multiplied on its own, so a column has the
same bits whether it is pushed alone or in a block.

Dense materialization is available up to ``EXPLICIT_THRESHOLD`` as an oracle
and as the route to the entrywise absolute values of the LU maps (the
absolute value of a composition is not the composition of absolute values).
It pushes the basis one column of X at a time into a preallocated result, so
its peak memory stays near the size of that result. The QR maps have a
matrix-free absolute form, ``qr_bounds.absolute_r_maps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import EXPLICIT_THRESHOLD, krylov_spectral_norm
from .errors import AbsOperatorTooLarge, DimensionMismatch


def vec(a) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def sandwich(a, b, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """vec(a X b) for every column vec(X) of the n^2-by-k block ``v``, as a new block.

    ``None`` stands for the identity; with ``transpose`` X^T takes the place
    of X.
    """
    n = math.isqrt(v.shape[0])
    y = v.T.reshape(v.shape[1], n, n)            # y[j] = X_j^T
    if transpose:
        y = y.swapaxes(1, 2)
    t = y if a is None else np.matmul(y, a.T)    # (a X)^T
    t = t if b is None else np.matmul(b.T, t)    # (a X b)^T
    # the identity alone returns a copy, so callers may update the block in place
    return (t.copy() if t is y else t).reshape(v.shape[1], n * n).T


def _transposed(m):
    return None if m is None else m.T


@dataclass(frozen=True)
class StructuredOperator:
    """vec(X) -> the entries of left (W * sum_t a_t op_t(X) b_t) right on the support of W.

    ``terms`` holds triples ``(a, b, transpose)``, where op_t is the transpose
    when the flag is set; ``weights`` is the n-by-n mask W with entries in
    {0, 1/2, 1}; ``None`` stands for the identity. The support of W is read
    column by column. Instances are immutable and safe to share.
    """

    terms: tuple
    weights: np.ndarray
    left: np.ndarray | None = None
    right: np.ndarray | None = None

    def __post_init__(self):
        w = vec(self.weights)
        object.__setattr__(self, "_w", w[:, None])
        object.__setattr__(self, "_support", np.flatnonzero(w))

    @property
    def out_dim(self) -> int:
        return self._support.size

    @property
    def in_dim(self) -> int:
        return self._w.shape[0]

    def apply2(self, v: np.ndarray) -> np.ndarray:
        single = v.ndim == 1
        # rebinding v lets the input block go before the outer product
        v = self._masked_terms(v.reshape(v.shape[0], -1))
        v = sandwich(self.left, self.right, v)[self._support]
        return v[:, 0] if single else v

    def _masked_terms(self, block: np.ndarray) -> np.ndarray:
        """W * sum_t a_t op_t(X) b_t for every column vec(X) of ``block``, in place."""
        (a, b, transpose), *rest = self.terms
        s = sandwich(a, b, block, transpose)
        for a, b, transpose in rest:
            s += sandwich(a, b, block, transpose)
        s *= self._w
        return s

    def applyt2(self, v: np.ndarray) -> np.ndarray:
        block = v.reshape(v.shape[0], -1)
        full = np.zeros((block.shape[1], self.in_dim)).T     # columns contiguous, a stack view
        full[self._support] = block
        s = sandwich(_transposed(self.left), _transposed(self.right), full)
        s *= self._w
        # the adjoint of X -> a X^T b is S -> b S^T a
        out = sum(sandwich(b, a, s, True) if transpose else
                  sandwich(_transposed(a), _transposed(b), s) for a, b, transpose in self.terms)
        return out[:, 0] if v.ndim == 1 else out

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
    """Dense matrix with the same action as ``op`` on every basis vector.

    Raises AbsOperatorTooLarge above ``EXPLICIT_THRESHOLD``: the entrywise
    absolute values of the LU maps, which the componentwise LU bounds need,
    are taken of this dense form. Column c of X goes in as one block of n basis
    vectors, so no n^2-square identity is formed.
    """
    if op.in_dim > EXPLICIT_THRESHOLD:
        raise AbsOperatorTooLarge(
            f"input dimension {op.in_dim} exceeds threshold {EXPLICIT_THRESHOLD}")
    n = math.isqrt(op.in_dim)
    out = np.empty((op.out_dim, op.in_dim))
    for c in range(n):
        stack = np.zeros((n, n, n))
        stack[range(n), c, range(n)] = 1.0               # stack[r] = E_rc^T
        out[:, c * n:(c + 1) * n] = op.apply2(stack.reshape(n, n * n).T)
    return out


def operator_spectral_norm(op: StructuredOperator) -> float:
    """Largest singular value of a structured operator via the Krylov estimator."""
    return krylov_spectral_norm(op.apply, op.apply_transpose, op.in_dim)
