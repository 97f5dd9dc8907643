"""Tables of products of integer powers of affine functions.

Every generator of the direct serendipity and mixed elements is one
product f_g(x) = prod_k a_k(x)**P[g, k] of affine functions a_k: edge
distance functions, pair lines, sums of two edge distances (power -1 gives
the one-sided edge ratio), edge coordinates, and frame coordinates.
Some powers are negative, so the fields are rational; a ``PowerTable``
holds all of them and evaluates values (G, M) and gradients (G, M, 2) on
(M, 2) point arrays in one vectorized pass.  The pass is factor-major:
each term keeps its F nonzero factors, and the F-step loops over the
product run on whole (G, M) slices.

Affine functions exist only as arrays: K of them are a (K, 2) gradient
and a (K,) offset array.  A table holds its terms only, and each
evaluation takes the affine arrays as arguments, so one table serves every
cell of a shape (N, r).  The affine arrays may carry a leading class axis,
(C, K, 2) and (C, K): then one pass evaluates C cells' fields, each at its
own points (C, M, 2), and one cell is the case without that axis.

Products of the evaluated tables with coefficient matrices are split so
that no one matrix product exceeds ``GEMM_BUDGET`` multiply-adds.
"""

from __future__ import annotations

import numpy as np

from .geometry import _as_points

__all__ = ["PowerTable"]

# Largest matrix product, in multiply-adds.  OpenBLAS runs products of up
# to 2**18 multiply-adds on one thread; above that a threaded product of
# these shapes costs more than the work: on a 2-core host, (60, 24) @
# (24, 768) took 16 ms threaded and 0.05 ms on one thread.
GEMM_BUDGET = 2**18


def _capped_matmul(a, b):
    """a @ b for (..., n, k) @ (..., k, m) stacks, in blocks of the columns
    of b such that each matrix product takes at most ``GEMM_BUDGET``
    multiply-adds."""
    n, k = a.shape[-2:]
    step = max(1, GEMM_BUDGET // (n * k))
    if b.shape[-1] <= step:
        return a @ b
    out = np.empty((*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), n, b.shape[-1]))
    for j in range(0, b.shape[-1], step):
        out[..., j:j + step] = a @ b[..., j:j + step]
    return out


class PowerTable:
    """G fields f_g(x) = prod_k a_k(x)**powers[g, k] over K affine functions
    a_k(x) = grads[k] . x + offsets[k], given to each evaluation.

    ``powers`` is (G, K); ``grads`` and ``offsets`` are (K, 2) and (K,), or
    (C, K, 2) and (C, K) for C cells.  Powers are integers and may be
    negative; the empty product is 1.  The gradient is assembled from
    leave-one-out products of the factors, so it stays exact on the zero
    lines of the factors.  The factors of all terms are stored
    factor-major: ``_index`` and ``_exps`` are (F, G), with F the largest
    number of nonzero factors of one term, and ``_pow`` marks the factors
    whose power is neither 0 nor 1.  The arrays are read-only.
    """

    __slots__ = ("powers", "_index", "_exps", "_pow")

    def __init__(self, powers):
        self.powers = np.array(powers, dtype=int)
        if self.powers.ndim != 2:
            raise ValueError(f"powers must have shape (G, K), got {self.powers.shape}")
        # Each term keeps only its nonzero factors, padded to a common count
        # F with the constant 1 (affine index K, power 0).
        G, K = self.powers.shape
        factors = [np.flatnonzero(row) for row in self.powers]
        index = np.full((max([1, *map(len, factors)]), G), K)
        for g, ks in enumerate(factors):
            index[: len(ks), g] = ks
        padded = np.hstack([self.powers, np.zeros((G, 1), dtype=int)])
        self._index = index
        self._exps = padded[np.arange(G), index].astype(float)
        self._pow = ((self._exps != 0.0) & (self._exps != 1.0))[:, :, None]
        for name in ("powers", "_index", "_exps", "_pow"):
            getattr(self, name).flags.writeable = False

    def __len__(self):
        return len(self.powers)

    @property
    def n_factors(self):
        """F, the largest number of nonzero factors of one term."""
        return len(self._index)

    def _factors(self, grads, offsets, pts):
        """Factors a**p (..., F, G, M) of every term at pts (..., M, 2), and
        a**(p - 1), which is 1 for p = 1 and for the padding (p = 0, a = 1)."""
        K = self.powers.shape[1]
        if grads.shape[-2:] != (K, 2) or offsets.shape != grads.shape[:-1]:
            raise ValueError(f"need (..., {K}, 2) gradients and (..., {K}) offsets, "
                             f"got {grads.shape} and {offsets.shape}")
        pts = _as_points(pts) if offsets.ndim == 1 else np.asarray(pts, dtype=float)
        affine = np.ones((*offsets.shape[:-1], K + 1, pts.shape[-2]))
        affine[..., :-1, :] = grads @ np.swapaxes(pts, -1, -2) + offsets[..., None]
        a = affine[..., self._index, :]
        lower = np.power(a, self._exps[:, :, None] - 1.0, out=np.ones_like(a), where=self._pow)
        return np.multiply(a, lower, out=a), lower

    def values(self, grads, offsets, pts):
        """Values (..., G, M) of every field at pts (..., M, 2) over the
        affines ``grads`` (..., K, 2) and ``offsets`` (..., K): those of
        ``value_grad``, bit for bit, without the gradients."""
        fac, _ = self._factors(grads, offsets, pts)
        vals = fac[..., 0, :, :]
        for f in range(1, fac.shape[-3]):
            vals = vals * fac[..., f, :, :]
        return vals

    def value_grad(self, grads, offsets, pts):
        """Values (..., G, M) and gradients (..., G, M, 2) of every field at
        pts (..., M, 2) over the affines ``grads`` (..., K, 2) and
        ``offsets`` (..., K)."""
        fac, lower = self._factors(grads, offsets, pts)
        # Products of the factors ahead of and behind factor f, written in
        # place: the passes over these arrays are most of the work.
        before = np.empty_like(fac)
        after = np.empty_like(fac)
        before[..., 0, :, :] = after[..., -1, :, :] = 1.0
        for f in range(1, fac.shape[-3]):
            np.multiply(before[..., f - 1, :, :], fac[..., f - 1, :, :], out=before[..., f, :, :])
            np.multiply(after[..., -f, :, :], fac[..., -f, :, :], out=after[..., -f - 1, :, :])
        vals = before[..., -1, :, :] * fac[..., -1, :, :]
        # The weight p a**(p - 1) times the other factors, in place of lower.
        weights = lower
        weights *= self._exps[:, :, None]
        weights *= before
        weights *= after
        # The gradient of each factor, (..., G, F, 2); the padding's is 0.
        zero = np.zeros((*offsets.shape[:-1], 1, 2))
        fgrads = np.concatenate([grads, zero], axis=-2)[..., self._index.T, :]
        return vals, np.matmul(np.moveaxis(weights, -3, -1), fgrads)
