"""Matrix-free factor maps: a triangular mask placed between matrix products.

``vec`` stacks columns. The matrix-vector equation approach writes every
first-order factor change as a triangular mask between matrix products:

* dL = L slt(L^{-1} dA [U_{n-1}^{-1} 0; 0 0]),
* dU = ut(L^{-1} dA U^{-1}) U,
* dR = up(Z + Z^T) R with Z = X R^{-1} and X = Q^T dA, and the quadratic R
  map up(R^{-T} X R^{-1}) R,

where ``slt`` keeps the strict lower triangle, ``ut`` the upper triangle and
``up`` the upper triangle with the diagonal halved. :class:`StructuredOperator`
holds one such map as one sandwich a X b, symmetrized to Z + Z^T where
flagged, an n-by-n mask W with entries in {0, 1/2, 1} and two outer factors.
Its output is the part of the result on the support of W, read column by
column, so the upper maps return uvec(dU) and the lower map slvec(dL).
:func:`sandwich` forms each product through vec(a X b) = (b^T kron a) vec(X)
without the Kronecker product: an n^2-by-k block is viewed, without a copy,
as the stack of the k matrices X^T, and (a X b)^T = b^T X^T a^T is one
batched ``np.matmul`` per factor. Each matrix of a stack is multiplied on
its own, so a column has the same bits whether it is pushed alone or in a
block.

The norm estimator runs on the Gram map M M^T of a map M, on its output
side, the smaller one. :meth:`StructuredOperator.gram2` applies it in one
pass, the adjoint stages followed by the forward ones, with the two middle
products fused into a a^T and b^T b: a step costs four products (three for
the linear R map, which has no a), where M and M^T apart cost six.

One scale rule holds for every product: a and b are scaled once by powers
of two to unit magnitude, M and M^T run on them and take the power of two
last, and the Gram map takes it on its middle product. In the normal range
that is exact, and a representable value comes without an intermediate
overflow; one past the range is inf.

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
from functools import cached_property

import numpy as np

from .dense import EXPLICIT_THRESHOLD, composed_gram, krylov_spectral_norm
from .errors import AbsOperatorTooLarge, DimensionMismatch


def vec(a) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def _stacked(a, b, y: np.ndarray) -> np.ndarray:
    """(a X b)^T for every X^T in the stack ``y``; ``None`` stands for the identity."""
    t = y if a is None else np.matmul(y, a.T)
    return t if b is None else np.matmul(b.T, t)


def sandwich(a, b, v: np.ndarray) -> np.ndarray:
    """vec(a X b) for every column vec(X) of the n^2-by-k block ``v``, as a new block.

    ``None`` stands for the identity.
    """
    n = math.isqrt(v.shape[0])
    y = v.T.reshape(v.shape[1], n, n)            # y[j] = X_j^T
    t = _stacked(a, b, y)
    # the identity alone returns a copy, so callers may update the block in place
    return (t.copy() if t is y else t).reshape(v.shape[1], n * n).T


def _transposed(m):
    return None if m is None else m.T


def _times_pow2(x: np.ndarray, e: int) -> np.ndarray:
    """``x`` times 2^e, in place; a product past the float range is inf."""
    if e:
        np.ldexp(x, e, out=x)
    return x


def _unit_scaled(m):
    """``m`` scaled by 2^-e to a largest magnitude in [1/2, 1), and e; ``None`` has e = 0."""
    if m is None:
        return None, 0
    e = math.frexp(float(np.max(np.abs(m), initial=0.0)))[1]
    return np.ldexp(m, -e), e


@dataclass(frozen=True)
class StructuredOperator:
    """vec(X) -> the entries of left (W * sym(a X b)) right on the support of W.

    sym(Z) is Z + Z^T where ``symmetric`` is set and Z otherwise; ``weights``
    is the n-by-n mask W with entries in {0, 1/2, 1}; ``None`` stands for the
    identity. The support of W is read column by column. Instances are
    immutable and safe to share.
    """

    weights: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    symmetric: bool = False
    left: np.ndarray | None = None
    right: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "_n", w.shape[0])
        object.__setattr__(self, "_wt", w.T.copy())         # W on a stack of transposes
        object.__setattr__(self, "_support", np.flatnonzero(vec(w)))
        (a, e_a), (b, e_b) = _unit_scaled(self.a), _unit_scaled(self.b)
        object.__setattr__(self, "_ab", (a, b))     # every product runs on these
        object.__setattr__(self, "_e", e_a + e_b)   # and takes 2^e last

    @property
    def out_dim(self) -> int:
        return self._support.size

    @property
    def in_dim(self) -> int:
        return self._n * self._n

    def _forward(self, t: np.ndarray) -> np.ndarray:
        """The output for the stack ``t`` of middle products (a X b)^T, which it may overwrite."""
        if self.symmetric:
            t = t + t.swapaxes(1, 2)
        t *= self._wt
        t = _stacked(self.left, self.right, t)
        return np.take(t.reshape(len(t), -1), self._support, axis=1).T

    def _adjoint(self, block: np.ndarray) -> np.ndarray:
        """sym(W * (left^T Y right^T)) for every Y read from the output block, as a stack."""
        full = np.zeros((block.shape[1], self.in_dim))
        full[:, self._support] = block.T
        t = _stacked(_transposed(self.left), _transposed(self.right),
                     full.reshape(-1, self._n, self._n))
        t *= self._wt
        return t + t.swapaxes(1, 2) if self.symmetric else t

    @np.errstate(over="ignore")         # a value past the float range is inf, not a warning
    def apply2(self, v: np.ndarray) -> np.ndarray:
        t = sandwich(*self._ab, v if v.ndim == 2 else v[:, None])   # views the stack
        out = _times_pow2(self._forward(t.T.reshape(-1, self._n, self._n)), self._e)
        return out[:, 0] if v.ndim == 1 else out

    @np.errstate(over="ignore")
    def applyt2(self, v: np.ndarray) -> np.ndarray:
        block = v if v.ndim == 2 else v[:, None]
        t = _stacked(*map(_transposed, self._ab), self._adjoint(block))
        out = _times_pow2(t.reshape(len(t), -1).T, self._e)
        return out[:, 0] if v.ndim == 1 else out

    @cached_property
    def _gram_factors(self):
        """a a^T and b^T b of the unit-scaled factors (``None`` for the identity), or
        ``None`` where a nonzero entry squares below the normal range, lost to them."""
        if any(np.any((m * m < np.finfo(float).tiny) & (m != 0.0))
               for m in self._ab if m is not None):
            return None
        a, b = self._ab
        return None if a is None else a @ a.T, None if b is None else b.T @ b

    def gram2(self, v: np.ndarray, e: int) -> np.ndarray:
        """2^-2e M M^T on a vector or block ``v`` of the output side, M this map.

        The adjoint stages, the middle products with the cached a a^T and
        b^T b times 2^(2 e_a + 2 e_b - 2e), at the magnitudes of the Gram map
        of 2^-e M, and the forward stages, under the estimator's errstate.
        Where :attr:`_gram_factors` is ``None``, M^T and M go apart.
        """
        factors = self._gram_factors
        if factors is None:
            return composed_gram(self.apply2, self.applyt2)(v, e)
        t = _stacked(*factors, self._adjoint(v if v.ndim == 2 else v[:, None]))
        out = self._forward(_times_pow2(t, 2 * (self._e - e)))
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
    """Largest singular value of a structured operator via the Krylov estimator
    on its fused Gram map."""
    return krylov_spectral_norm(op.apply, op.gram2, op.in_dim)
