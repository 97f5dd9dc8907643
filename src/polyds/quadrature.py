"""Quadrature over convex polygons and their edges.

A quadrilateral takes a tensor Gauss-Legendre rule on the bilinear map of
the unit square onto it.  Every other polygon is fanned from its centroid
into triangles, each with a tensorized Gauss-Jacobi rule collapsed onto
it, which stays well conditioned at high degree.  The rules of C polygons
with N vertices each are mapped in one broadcast (``_polygon_rules``),
which assembly calls once per block of cells; ``polygon_rule`` is its case
C = 1.  The reference rules are cached per degree and read-only; their
Gauss points come from numpy's Gauss-Legendre rule and a Golub-Welsch
Gauss-Jacobi rule.  Rules are immutable and construction is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import GeometryError, Polygon

__all__ = ["QuadRule", "EdgeRule", "triangle_gauss", "polygon_rule", "edge_rule"]

MAX_DEGREE = 60


@dataclass(frozen=True)
class QuadRule:
    """Integration points (physical coordinates) and positive weights."""

    points: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class EdgeRule:
    """Gauss points mapped onto one polygon edge.

    ``t`` holds the normalized edge parameters in [0, 1]; weights include
    the edge length, so constant 1 integrates to |e|.
    """

    points: np.ndarray
    weights: np.ndarray
    t: np.ndarray
    length: float


@lru_cache(maxsize=None)
def triangle_gauss(degree: int):
    """Rule on the reference triangle (0,0), (1,0), (0,1), exact to ``degree``.

    Built as a collapsed tensor product: Gauss-Legendre in the second
    coordinate and Gauss-Jacobi with weight (1 - x) in the first, which
    absorbs the Jacobian of the collapse map exactly.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    m = (degree + 2) // 2  # 2m - 1 >= degree
    xj, wj = _gauss_jacobi_10(m)
    xl, wl = np.polynomial.legendre.leggauss(m)
    # Map both to [0, 1]; the Jacobi weight (1 - x) picks up a factor 1/2.
    u = 0.5 * (xj + 1.0)
    wu = 0.25 * wj
    s = 0.5 * (xl + 1.0)
    ws = 0.5 * wl
    U, S = np.meshgrid(u, s, indexing="ij")
    pts = np.column_stack([U.ravel(), (S * (1.0 - U)).ravel()])
    wts = np.outer(wu, ws).ravel()
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


def _gauss_jacobi_10(m: int):
    """Points and weights of the m-point Gauss rule on [-1, 1] for the weight
    1 - x (Jacobi alpha = 1, beta = 0), by Golub-Welsch: the points are the
    eigenvalues of the Jacobi matrix of the orthogonal polynomials, and the
    weights the squared first components of its unit eigenvectors times the
    weight's integral, 2."""
    n = np.arange(m)
    # Recurrence coefficients of the monic Jacobi(1, 0) polynomials.
    diag = -1.0 / ((2 * n + 1) * (2 * n + 3))
    off = np.sqrt(n[1:] * (n[1:] + 1.0)) / (2 * n[1:] + 1)
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * vecs[0] ** 2


@lru_cache(maxsize=None)
def _segment_gauss(degree: int):
    """Gauss-Legendre points t and weights w on [0, 1], exact for
    polynomials of ``degree``; read-only."""
    x, w = np.polynomial.legendre.leggauss(max(1, (degree + 2) // 2))
    t = 0.5 * (x + 1.0)
    w = 0.5 * w
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@lru_cache(maxsize=None)
def _square_gauss(degree: int):
    """Tensor Gauss-Legendre rule on [0, 1]^2, exact for polynomials of
    degree ``degree`` + 3 in each variable: the bilinear shape functions
    (M, 4) of the corners (0, 0), (1, 0), (1, 1), (0, 1) at its points, and
    its weights (M,); read-only."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    t, w = _segment_gauss(degree + 3)
    s, u = np.repeat(t, len(t)), np.tile(t, len(t))
    shape = np.column_stack([(1 - s) * (1 - u), s * (1 - u), s * u, (1 - s) * u])
    wts = np.outer(w, w).ravel()
    shape.flags.writeable = False
    wts.flags.writeable = False
    return shape, wts


def polygon_rule(polygon: Polygon, degree: int) -> QuadRule:
    """Rule over a convex polygon, exact for polynomials of ``degree``.

    A quadrilateral takes the tensor Gauss rule of the unit square mapped
    bilinearly onto it, (``degree`` + 5) // 2 points squared, exact to
    ``degree`` + 2.  Any other polygon is fanned into triangles (centroid,
    v_i, v_{i+1}), which convexity keeps valid, with ``triangle_gauss`` on
    each: N times ((``degree`` + 2) // 2) squared points.
    """
    pts, wts = _polygon_rules([polygon], degree)
    return QuadRule(points=pts[0], weights=wts[0])


def _polygon_rules(polygons, degree: int):
    """Points (C, M, 2) and weights (C, M) of ``polygon_rule`` on C polygons
    with N vertices each: M = ((degree + 5) // 2)**2 for quads, else N times
    the reference triangle's ((degree + 2) // 2)**2 points."""
    v = np.stack([E.vertices for E in polygons])
    if v.shape[1] == 4:
        # The bilinear map takes the square's corners to v_0..v_3.  Its
        # Jacobian is affine on the square, so the shape functions
        # interpolate it from its corner values, twice the areas of the
        # corner triangles: positive on a strictly convex quad.  A
        # polynomial of degree p pulls back, times the Jacobian, to degree
        # at most p + 1 in each variable: exact for p <= degree + 2.
        shape, ref_wts = _square_gauss(degree)
        e_next, e_prev = np.roll(v, -1, axis=1) - v, np.roll(v, 1, axis=1) - v
        jac = e_next[..., 0] * e_prev[..., 1] - e_next[..., 1] * e_prev[..., 0]
        # Sums over the corners, term by term, so that the rule of a polygon
        # does not depend on the others in the stack.
        pts = sum(shape[:, k, None] * v[:, None, k] for k in range(4))
        return pts, ref_wts * sum(shape[:, k] * jac[:, k, None] for k in range(4))
    ref_pts, ref_wts = triangle_gauss(degree)
    c = np.stack([E.centroid for E in polygons])[:, None]
    a = v - c
    b = np.concatenate([a[:, 1:], a[:, :1]], axis=1)
    jac = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]  # 2 * triangle areas, positive by CCW
    # (C, N, m, 2): reference point m of fan triangle i of polygon c.
    pts = c[:, None] + ref_pts[:, :1] * a[:, :, None] + ref_pts[:, 1:] * b[:, :, None]
    wts = ref_wts * jac[..., None]
    return pts.reshape(len(a), -1, 2), wts.reshape(len(a), -1)


def edge_rule(polygon: Polygon, i: int, degree: int) -> EdgeRule:
    """Gauss-Legendre rule along edge i, exact for polynomials of ``degree``."""
    if not 0 <= i < polygon.n_edges:
        raise GeometryError(f"edge index {i} out of range")
    t, w = _segment_gauss(degree)
    a = polygon.vertices[i]
    b = polygon.vertices[(i + 1) % polygon.n_edges]
    length = float(math.dist(a, b))
    pts = a + t[:, None] * (b - a)
    return EdgeRule(points=pts, weights=w * length, t=t, length=length)
