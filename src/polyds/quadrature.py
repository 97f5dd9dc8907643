"""Quadrature over convex polygons and their edges.

Polygon rules triangulate by fanning from the centroid and apply a
tensorized Gauss-Jacobi rule collapsed onto each triangle, which stays
well conditioned at high degree; all N fan triangles are mapped in one
broadcast.  The reference rules are cached per degree and read-only.
Rules are immutable and construction is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

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
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    xl, wl = roots_legendre(m)
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


@lru_cache(maxsize=None)
def _segment_gauss(degree: int):
    """Gauss-Legendre points t and weights w on [0, 1], exact for
    polynomials of ``degree``; read-only."""
    x, w = roots_legendre(max(1, (degree + 2) // 2))
    t = 0.5 * (x + 1.0)
    w = 0.5 * w
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def polygon_rule(polygon: Polygon, degree: int) -> QuadRule:
    """Composite rule over a convex polygon, exact for polynomials of ``degree``.

    The polygon is fanned into triangles (centroid, v_i, v_{i+1}); convexity
    guarantees every fan triangle is valid.
    """
    ref_pts, ref_wts = triangle_gauss(degree)
    c = polygon.centroid
    a = polygon.vertices - c
    b = np.concatenate([a[1:], a[:1]])
    jac = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]  # 2 * triangle areas, positive by CCW
    pts = c + ref_pts[:, :1] * a[:, None] + ref_pts[:, 1:] * b[:, None]  # (N, m, 2)
    wts = ref_wts * jac[:, None]
    return QuadRule(points=pts.reshape(-1, 2), weights=wts.ravel())


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
