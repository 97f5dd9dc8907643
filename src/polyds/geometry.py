"""Planar geometry for convex polygonal elements.

Provides signed affine distance functions to lines and edges, the convex
``Polygon`` type with derived edge data (outer normals, tangents, lengths),
pair lines between nonadjacent edges, and shape-regularity measurement.

All objects are immutable after construction and all operations are pure,
so they are safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "AffineScalar",
    "Polygon",
    "RegularityReport",
    "signed_distance_line",
]

# Consecutive-edge cross products below CONVEXITY_RTOL * h**2 mark a polygon
# as degenerate (collinear vertices or near-reversal).
CONVEXITY_RTOL = 1e-12


class GeometryError(ValueError):
    """Degenerate or invalid geometric input."""


def _as_points(pts):
    """Coerce to a float array of shape (M, 2); single points become (1, 2)."""
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != 2:
        raise GeometryError(f"expected points of shape (M, 2), got {a.shape}")
    return a


class AffineScalar:
    """Linear polynomial a(x) = grad . x + offset with a constant gradient."""

    __slots__ = ("grad", "offset")

    def __init__(self, grad, offset):
        self.grad = np.asarray(grad, dtype=float)
        self.offset = float(offset)
        if self.grad.shape != (2,) or not np.all(np.isfinite(self.grad)):
            raise GeometryError("affine gradient must be a finite 2-vector")
        if not math.isfinite(self.offset):
            raise GeometryError("affine offset must be finite")

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts @ self.grad + self.offset

    def value_grad(self, pts):
        """Values and (constant) gradients at points of shape (M, 2)."""
        pts = _as_points(pts)
        vals = pts @ self.grad + self.offset
        grads = np.broadcast_to(self.grad, (len(pts), 2))
        return vals, grads

    def __repr__(self):
        return f"AffineScalar(grad={self.grad.tolist()}, offset={self.offset})"


def signed_distance_line(y1, y2) -> AffineScalar:
    """Unit-gradient linear function vanishing on the line through y1 and y2.

    The sign convention puts negative values on the right of the travel
    direction y1 -> y2: with nu the unit normal pointing right of y2 - y1,
    the returned function is x -> -(x - y2) . nu.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    d = y2 - y1
    length = math.hypot(d[0], d[1])
    scale = max(abs(y1).max(), abs(y2).max(), 1.0)
    if length <= 1e-14 * scale:
        raise GeometryError(f"coincident points {y1} and {y2} define no line")
    nu = np.array([d[1], -d[0]]) / length
    return AffineScalar(-nu, float(y2 @ nu))


@dataclass(frozen=True)
class RegularityReport:
    """Shape-regularity measurement of a polygon.

    sigma = rho / h, where h is the polygon diameter and rho is twice the
    smallest incircle diameter over all triangles formed by polygon vertices.
    """

    h: float
    rho: float
    sigma: float


class Polygon:
    """Closed, strictly convex polygon with CCW vertex ordering.

    Derived per-edge data uses the convention that edge ``i`` runs from
    vertex ``i`` to vertex ``(i + 1) % N``; the shared vertex of edges
    ``i - 1`` and ``i`` is vertex ``i``.  Instances are immutable.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError("vertices must have shape (N, 2)")
        if len(v) < 3:
            raise GeometryError("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("vertices must be finite")

        self.vertices = v
        self.n_edges = len(v)
        self.diameter = float(
            np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)).max()
        )

        edges = np.roll(v, -1, axis=0) - v
        self.edge_lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(self.edge_lengths <= 1e-14 * self.diameter):
            raise GeometryError("repeated (or nearly repeated) vertices")
        self.tangents = edges / self.edge_lengths[:, None]
        # Outer normals of a CCW loop point to the right of each tangent.
        self.normals = np.column_stack([self.tangents[:, 1], -self.tangents[:, 0]])

        prev = np.roll(edges, 1, axis=0)
        cross = prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0]
        tol = CONVEXITY_RTOL * self.diameter**2
        if np.any(cross <= tol):
            bad = int(np.argmin(cross))
            if cross.sum() <= 0:
                raise GeometryError("vertex loop is not counterclockwise")
            raise GeometryError(
                f"polygon is not strictly convex at vertex {bad} "
                f"(cross product {cross[bad]:.3e} <= {tol:.3e})"
            )

        x, y = v[:, 0], v[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        piece = x * yn - xn * y
        self.area = float(piece.sum() / 2.0)
        self.centroid = np.array(
            [((x + xn) * piece).sum(), ((y + yn) * piece).sum()]
        ) / (6.0 * self.area)
        self._edge_fns = tuple(
            signed_distance_line(v[i], v[(i + 1) % self.n_edges])
            for i in range(self.n_edges)
        )

    def __repr__(self):
        return f"Polygon({self.n_edges} vertices, h={self.diameter:.3g})"

    def edge_distances(self):
        """All N edge distance functions (unit gradient, vanishing on their
        edge, positive inside), indexed like the edges."""
        return self._edge_fns

    def edge_midpoint(self, i):
        v = self.vertices
        return 0.5 * (v[i] + v[(i + 1) % self.n_edges])

    def edge_point(self, i, t):
        """Point at normalized arclength t in [0, 1] along edge i."""
        v = self.vertices
        return v[i] + np.multiply.outer(np.asarray(t, dtype=float), v[(i + 1) % self.n_edges] - v[i])

    def nonadjacent_pairs(self):
        """All index pairs (i, j), i < j, of nonadjacent edges."""
        n = self.n_edges
        return [
            (i, j)
            for i, j in itertools.combinations(range(n), 2)
            if 2 <= j - i <= n - 2
        ]

    def pair_line(self, i, j) -> AffineScalar:
        """Unit-gradient affine function vanishing on the line through the
        midpoints of the nonadjacent edges i and j.

        The zero line crosses both edges by construction, as the
        supplemental functions require.
        """
        n = self.n_edges
        sep = abs(i - j) % n
        if min(sep, n - sep) < 2:
            raise GeometryError(f"edges {i} and {j} are adjacent or equal")
        a, b = (i, j) if i < j else (j, i)
        return signed_distance_line(self.edge_midpoint(a), self.edge_midpoint(b))

    def shape_regularity(self) -> RegularityReport:
        """Measure sigma = rho / h from all vertex sub-triangles."""
        v = self.vertices
        best = math.inf
        for a, b, c in itertools.combinations(range(self.n_edges), 3):
            pa, pb, pc = v[a], v[b], v[c]
            u, w = pb - pa, pc - pa
            area2 = abs(u[0] * w[1] - u[1] * w[0])
            per = (
                math.dist(pa, pb) + math.dist(pb, pc) + math.dist(pc, pa)
            )
            # Incircle diameter: 2 * area / semiperimeter.
            best = min(best, 2.0 * area2 / per)
        rho = 2.0 * best
        return RegularityReport(h=self.diameter, rho=rho, sigma=rho / self.diameter)

    def contains(self, pts, tol=None):
        """Boolean mask of points inside the closed polygon (tolerance in h)."""
        pts = _as_points(pts)
        if tol is None:
            tol = 1e-12 * self.diameter
        inside = np.ones(len(pts), dtype=bool)
        for lam in self.edge_distances():
            inside &= lam(pts) >= -tol
        return inside

    def scaled(self, factor, about=None):
        """A copy scaled by ``factor`` about ``about`` (default: centroid)."""
        if about is None:
            about = self.centroid
        about = np.asarray(about, dtype=float)
        return Polygon(about + factor * (self.vertices - about))
