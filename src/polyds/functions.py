"""Composable scalar fields and radial vector fields with analytic derivatives.

Shape functions on polygons mix affine distance functions, rational
one-sided edge ratios, 1D edge polynomials, and bivariate polynomials.
Some factors are rational, so expansion into global polynomials is
impossible; everything stays in composite form and is evaluated on (M, 2)
point arrays.

Scalar fields implement ``value_grad(pts) -> (values (M,), grads (M, 2))``;
vector fields implement ``value_div(pts) -> (values (M, 2), divs (M,))``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import AffineScalar, _as_points

__all__ = [
    "Constant",
    "AffineProduct",
    "AffinePower",
    "OneSidedRatio",
    "Polynomial1D",
    "Polynomial2D",
    "ScalarProduct",
    "ScalarCombination",
    "RadialPoly",
    "gradient_fd",
    "divergence_fd",
]


class _Scalar:
    """Mixin supplying point-wise call syntax for scalar fields."""

    def __call__(self, pts):
        vals, _ = self.value_grad(_as_points(pts))
        return vals if np.ndim(pts) > 1 else vals[0]

    def gradient(self, pts):
        _, grads = self.value_grad(_as_points(pts))
        return grads if np.ndim(pts) > 1 else grads[0]


class Constant(_Scalar):
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = float(c)

    def value_grad(self, pts):
        m = len(pts)
        return np.full(m, self.c), np.zeros((m, 2))


class AffineProduct(_Scalar):
    """Product of affine functions; the empty product is 1.

    The gradient is assembled from prefix/suffix partial products, which
    avoids dividing by factors that vanish on their own zero lines.
    """

    __slots__ = ("affines",)

    def __init__(self, affines):
        self.affines = tuple(affines)

    def value_grad(self, pts):
        m = len(pts)
        k = len(self.affines)
        if k == 0:
            return np.ones(m), np.zeros((m, 2))
        vals = np.empty((k, m))
        for idx, a in enumerate(self.affines):
            vals[idx] = a(pts)
        prefix = np.ones((k + 1, m))
        suffix = np.ones((k + 1, m))
        for idx in range(k):
            prefix[idx + 1] = prefix[idx] * vals[idx]
            suffix[k - 1 - idx] = suffix[k - idx] * vals[k - 1 - idx]
        grads = np.zeros((m, 2))
        for idx, a in enumerate(self.affines):
            grads += (prefix[idx] * suffix[idx + 1])[:, None] * a.grad
        return prefix[k], grads


class AffinePower(_Scalar):
    """Integer power a(x)**k of an affine function, k >= 0."""

    __slots__ = ("affine", "k")

    def __init__(self, affine, k):
        if k < 0:
            raise ValueError("power must be nonnegative")
        self.affine = affine
        self.k = int(k)

    def value_grad(self, pts):
        m = len(pts)
        if self.k == 0:
            return np.ones(m), np.zeros((m, 2))
        a = self.affine(pts)
        vals = a**self.k
        grads = (self.k * a ** (self.k - 1))[:, None] * self.affine.grad
        return vals, grads


class OneSidedRatio(_Scalar):
    """Rational field b / (a + b): equals 1 where a vanishes, 0 where b does."""

    __slots__ = ("a", "b")

    def __init__(self, a: AffineScalar, b: AffineScalar):
        self.a = a
        self.b = b

    def value_grad(self, pts):
        av = self.a(pts)
        bv = self.b(pts)
        den = av + bv
        vals = bv / den
        grads = (
            bv[:, None] * self.a.grad * -1.0 + av[:, None] * self.b.grad
        ) / den[:, None] ** 2
        return vals, grads


class Polynomial1D(_Scalar):
    """Polynomial p(t) in the normalized coordinate t = (x - origin) . d / scale.

    Extends a 1D edge polynomial constantly in the direction normal to d.
    """

    __slots__ = ("origin", "direction", "scale", "coeffs", "dcoeffs")

    def __init__(self, origin, direction, scale, coeffs):
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.scale = float(scale)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.dcoeffs = npoly.polyder(self.coeffs) if len(self.coeffs) > 1 else np.zeros(1)

    def value_grad(self, pts):
        t = (pts - self.origin) @ self.direction / self.scale
        vals = npoly.polyval(t, self.coeffs)
        dvals = npoly.polyval(t, self.dcoeffs) / self.scale
        return vals, dvals[:, None] * self.direction


class Polynomial2D(_Scalar):
    """Bivariate polynomial in centered, scaled coordinates.

    ``coeffs[i, j]`` multiplies u**i v**j with u = (x - cx)/s, v = (y - cy)/s.
    """

    __slots__ = ("center", "scale", "coeffs", "cdx", "cdy")

    def __init__(self, center, scale, coeffs):
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.cdx = npoly.polyder(self.coeffs, axis=0) if self.coeffs.shape[0] > 1 else np.zeros((1, 1))
        self.cdy = npoly.polyder(self.coeffs, axis=1) if self.coeffs.shape[1] > 1 else np.zeros((1, 1))

    def value_grad(self, pts):
        u = (pts[:, 0] - self.center[0]) / self.scale
        v = (pts[:, 1] - self.center[1]) / self.scale
        vals = npoly.polyval2d(u, v, self.coeffs)
        gx = npoly.polyval2d(u, v, self.cdx) / self.scale
        gy = npoly.polyval2d(u, v, self.cdy) / self.scale
        return vals, np.column_stack([gx, gy])


class ScalarProduct(_Scalar):
    """Product of a small number of scalar fields (product rule gradient)."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)

    def value_grad(self, pts):
        m = len(pts)
        vals = np.ones(m)
        grads = np.zeros((m, 2))
        for f in self.factors:
            fv, fg = f.value_grad(pts)
            grads = grads * fv[:, None] + fg * vals[:, None]
            vals = vals * fv
        return vals, grads


class ScalarCombination(_Scalar):
    """Linear combination sum_k c_k f_k; zero coefficients are skipped."""

    __slots__ = ("coeffs", "fields")

    def __init__(self, coeffs, fields):
        coeffs = np.asarray(coeffs, dtype=float)
        keep = np.nonzero(coeffs)[0]
        self.coeffs = coeffs[keep]
        self.fields = tuple(fields[k] for k in keep)

    def value_grad(self, pts):
        m = len(pts)
        vals = np.zeros(m)
        grads = np.zeros((m, 2))
        for c, f in zip(self.coeffs, self.fields):
            fv, fg = f.value_grad(pts)
            vals += c * fv
            grads += c * fg
        return vals, grads


class _Vector:
    def __call__(self, pts):
        vals, _ = self.value_div(_as_points(pts))
        return vals if np.ndim(pts) > 1 else vals[0]

    def divergence(self, pts):
        _, divs = self.value_div(_as_points(pts))
        return divs if np.ndim(pts) > 1 else divs[0]


class RadialPoly(_Vector):
    """Vector field (x - origin) * p(x) for a scalar polynomial field p.

    Divergence is 2 p + (x - origin) . grad p.
    """

    __slots__ = ("origin", "p")

    def __init__(self, origin, p):
        self.origin = np.asarray(origin, dtype=float)
        self.p = p

    def value_div(self, pts):
        pv, pg = self.p.value_grad(pts)
        rel = pts - self.origin
        vals = rel * pv[:, None]
        divs = 2.0 * pv + np.einsum("ij,ij->i", rel, pg)
        return vals, divs


def gradient_fd(field, pts, h):
    """Central finite-difference gradient of a scalar field (test oracle)."""
    pts = _as_points(pts)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (field(pts + ex) - field(pts - ex)) / (2 * h)
    gy = (field(pts + ey) - field(pts - ey)) / (2 * h)
    return np.column_stack([gx, gy])


def divergence_fd(field, pts, h):
    """Central finite-difference divergence of a vector field (test oracle)."""
    pts = _as_points(pts)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    dx = (field(pts + ex)[:, 0] - field(pts - ex)[:, 0]) / (2 * h)
    dy = (field(pts + ey)[:, 1] - field(pts - ey)[:, 1]) / (2 * h)
    return dx + dy
