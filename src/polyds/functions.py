"""Tables of products of integer powers of affine functions.

Every generator of the direct serendipity and mixed elements is one
product f_g(x) = prod_k a_k(x)**P[g, k] of affine functions a_k: edge
distance functions, pair lines, sums of two edge distances (power -1 gives
the one-sided edge ratio), edge coordinates, and frame coordinates.
Some powers are negative, so the fields are rational; a ``PowerTable``
holds all of them and evaluates values (G, M) and gradients (G, M, 2) on
(M, 2) point arrays in one vectorized pass.  The pass is factor-major:
each term keeps its F nonzero factors, and the F-step loops over the
product run on contiguous (G, M) slices.

Affine functions exist only as arrays: a table holds its K of them as a
(K, 2) gradient and a (K,) offset array.  The terms and the affine
functions are separate: ``with_affines`` gives the same terms over new
arrays, sharing the term arrays, so one table of terms serves every cell
of a shape (N, r).
"""

from __future__ import annotations

import numpy as np

from .geometry import _as_points

__all__ = ["PowerTable"]


class PowerTable:
    """G fields f_g(x) = prod_k a_k(x)**powers[g, k] over K affine functions
    a_k(x) = grads[k] . x + offsets[k].

    ``powers`` is (G, K), ``grads`` (K, 2) and ``offsets`` (K,); the table
    copies the affine arrays.  Powers are integers and may be negative;
    the empty product is 1.  The gradient is assembled from leave-one-out
    products of the factors, so it stays exact on the zero lines of the
    factors.  The factors of all
    terms are stored factor-major: ``_index`` and ``_exps`` are (F, G),
    with F the largest number of nonzero factors of one term, and
    ``_pow`` marks the factors whose power is neither 0 nor 1.  The arrays
    are read-only, so tables over other affine functions can share them.
    """

    __slots__ = ("grads", "offsets", "powers", "_index", "_exps", "_pow", "_fgrads")

    def __init__(self, powers, grads, offsets):
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
        self._set_affines(np.array(grads, dtype=float), np.array(offsets, dtype=float))

    def _set_affines(self, grads, offsets):
        K = self.powers.shape[1]
        if grads.shape != (K, 2) or offsets.shape != (K,):
            raise ValueError(f"need ({K}, 2) gradients and ({K},) offsets, "
                             f"got {grads.shape} and {offsets.shape}")
        padded = np.zeros((K + 1, 2))
        padded[:K] = grads
        self._fgrads = padded[self._index.T]  # (G, F, 2)
        self._fgrads.flags.writeable = False
        self.grads, self.offsets = grads, offsets
        grads.flags.writeable = False
        offsets.flags.writeable = False

    def with_affines(self, grads, offsets):
        """The same terms over new (K, 2) gradients and (K,) offsets, which
        the table copies.  The term arrays are shared."""
        out = object.__new__(PowerTable)
        for name in ("powers", "_index", "_exps", "_pow"):
            setattr(out, name, getattr(self, name))
        out._set_affines(np.array(grads, dtype=float), np.array(offsets, dtype=float))
        return out

    def __len__(self):
        return len(self.powers)

    def _factors(self, pts):
        """Factor values (F, G, M) of every term at pts."""
        pts = _as_points(pts)
        affine = np.ones((len(self.offsets) + 1, len(pts)))
        affine[:-1] = self.grads @ pts.T + self.offsets[:, None]
        return affine[self._index]

    def value_grad(self, pts):
        """Values (G, M) and gradients (G, M, 2) of every field at pts."""
        a = self._factors(pts)
        exps = self._exps[:, :, None]
        # a**(p - 1) is 1 for p = 1, and for the padding (p = 0, a = 1).
        lower = np.power(a, exps - 1.0, out=np.ones_like(a), where=self._pow)
        fac = lower * a
        # Products of the factors ahead of and behind factor f.
        before = np.ones_like(fac)
        after = np.ones_like(fac)
        for f in range(1, len(fac)):
            before[f] = before[f - 1] * fac[f - 1]
            after[-f - 1] = after[-f] * fac[-f]
        vals = before[-1] * fac[-1]
        weights = exps * lower * before * after
        grads = np.matmul(weights.transpose(1, 2, 0), self._fgrads)
        return vals, grads
