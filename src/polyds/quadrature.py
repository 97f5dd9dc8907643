"""Quadrature over convex polygons and their edges.

Every polygon is integrated by one construction: a tensor Gauss-Legendre
rule on the bilinear map of the unit square onto a quadrilateral.  A
quadrilateral takes it whole; any other polygon is split into N quads
(centroid, midpoint of edge i-1, v_i, midpoint of edge i), each with the
same rule.  The rules of C polygons with N vertices each are mapped in one
broadcast (``_polygon_rules``), which assembly calls once per block of
cells; ``polygon_rule`` is its case C = 1.  The reference rules are cached
per point count and read-only; their Gauss points come from numpy's
Gauss-Legendre rule.  Rules are immutable and construction is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import GeometryError, Polygon, _frozen

__all__ = ["QuadRule", "EdgeRule", "polygon_rule", "edge_rule"]

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
def _square_gauss(m: int):
    """Tensor m-point Gauss-Legendre rule on [0, 1]^2, exact for polynomials
    of degree 2m - 1 in each variable: the bilinear shape functions (4, M)
    of the corners (0, 0), (1, 0), (1, 1), (0, 1) at its points, and its
    weights (M,); read-only."""
    t, w = _segment_gauss(2 * m - 1)
    s, u = np.repeat(t, m), np.tile(t, m)
    shape = np.stack([(1 - s) * (1 - u), s * (1 - u), s * u, (1 - s) * u])
    wts = np.outer(w, w).ravel()
    shape.flags.writeable = False
    wts.flags.writeable = False
    return shape, wts


def polygon_rule(polygon: Polygon, degree: int) -> QuadRule:
    """Rule over a convex polygon, exact for polynomials of ``degree``.

    A quadrilateral takes the tensor Gauss rule of the unit square mapped
    bilinearly onto it, ((``degree`` + 5) // 2)**2 points, exact to
    ``degree`` + 2.  Any other polygon is split into N quads (centroid,
    midpoint of edge i-1, v_i, midpoint of edge i), each with the same rule
    of ((``degree`` + 3) // 2)**2 points, exact to ``degree``.
    """
    pts, wts = _polygon_rules([polygon], degree)
    return QuadRule(points=_frozen(pts[0]), weights=_frozen(wts[0]))


def _polygon_rules(polygons, degree: int):
    """Points (C, M, 2) and weights (C, M) of ``polygon_rule`` on C polygons
    with N vertices each: M = ((degree + 5) // 2)**2 for quads, else
    N ((degree + 3) // 2)**2."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    v = np.stack([E.vertices for E in polygons])
    C, N = v.shape[:2]
    # quads (C, K, 4, 2): the polygon itself (K = 1) or its N pieces.
    if N == 4:
        quads, m = v[:, None], (degree + 5) // 2
    else:
        # Piece i cuts the corner triangle (mid_{i-1}, v_i, mid_i) off the
        # polygon along the line through the two midpoints.  That triangle
        # holds a quarter of the triangle v_{i-1} v_i v_{i+1}, so at most a
        # quarter of the polygon, while every half-plane bounded by a line
        # through the centroid holds at least 4/9 of it (Gruenbaum).  So the
        # centroid lies strictly beyond the midpoint line, and each piece is
        # a strictly convex quad, counterclockwise as the polygon is.
        mid = 0.5 * (v + np.roll(v, -1, axis=1))
        c = np.broadcast_to(np.stack([E.centroid for E in polygons])[:, None], v.shape)
        quads, m = np.stack([c, np.roll(mid, 1, axis=1), v, mid], axis=2), (degree + 3) // 2
    # The bilinear map takes the square's corners to the quad's.  Its
    # Jacobian is affine on the square, so the shape functions interpolate
    # it from its corner values, twice the areas of the corner triangles:
    # positive on a strictly convex quad.  A polynomial of degree p pulls
    # back, times the Jacobian, to degree at most p + 1 in each variable:
    # exact for p <= 2m - 2, so to degree + 2 on a quad and degree on a piece.
    shape, ref_wts = _square_gauss(m)
    e_next, e_prev = np.roll(quads, -1, axis=2) - quads, np.roll(quads, 1, axis=2) - quads
    jac = e_next[..., 0] * e_prev[..., 1] - e_next[..., 1] * e_prev[..., 0]
    # Sums over the corners, term by term, so that the rule of a polygon
    # does not depend on the others in the stack; the points are laid out
    # (C, K, 2, M), so that the inner loop runs over the points.
    pts = sum(quads[..., k, :, None] * shape[k] for k in range(4))
    wts = ref_wts * sum(shape[k] * jac[..., k, None] for k in range(4))
    return np.ascontiguousarray(pts.swapaxes(2, 3)).reshape(C, -1, 2), wts.reshape(C, -1)


def edge_rule(polygon: Polygon, i: int, degree: int) -> EdgeRule:
    """Gauss-Legendre rule along edge i, exact for polynomials of ``degree``."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    if not 0 <= i < polygon.n_edges:
        raise GeometryError(f"edge index {i} out of range")
    t, w = _segment_gauss(degree)
    a = polygon.vertices[i]
    b = polygon.vertices[(i + 1) % polygon.n_edges]
    length = float(math.dist(a, b))
    pts = _frozen(a + t[:, None] * (b - a))
    return EdgeRule(points=pts, weights=_frozen(w * length), t=t, length=length)
