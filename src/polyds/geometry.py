"""Planar geometry for convex polygonal elements.

Provides signed affine distance functions to lines and edges, the convex
``Polygon`` type with derived edge data (outer normals, tangents, lengths),
pair lines between nonadjacent edges (one at a time or as arrays), and
shape-regularity measurement.

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
    "distance_lines",
    "nonadjacent_pairs",
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
        if self.grad.shape != (2,) or not all(map(math.isfinite, self.grad)):
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
    scale = max(abs(y1).max(), abs(y2).max(), 1.0)
    if math.hypot(d[0], d[1]) <= 1e-14 * scale:
        raise GeometryError(f"coincident points {y1} and {y2} define no line")
    grads, offsets = distance_lines(y1[None], y2[None])
    return AffineScalar(grads[0], offsets[0])


def distance_lines(y1, y2):
    """Gradients (P, 2) and offsets (P,) of ``signed_distance_line(y1[p],
    y2[p])`` for (P, 2) arrays of distinct points."""
    d = y2 - y1
    nu = d[:, ::-1] * (1.0, -1.0) / np.hypot(d[:, 0], d[:, 1])[:, None]
    return -nu, (y2 * nu).sum(axis=1)


def nonadjacent_pairs(n):
    """All index pairs (i, j), i < j, of nonadjacent edges of an n-gon."""
    return [(i, j) for i, j in itertools.combinations(range(n), 2) if 2 <= j - i <= n - 2]


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
        if not np.isfinite(v).all():
            raise GeometryError("vertices must be finite")

        self.vertices = v
        self.n_edges = len(v)
        d = v[:, None, :] - v[None, :, :]
        self.diameter = float(np.sqrt((d**2).sum(-1)).max())

        nxt = np.concatenate([v[1:], v[:1]])
        edges = nxt - v
        self.edge_lengths = np.hypot(edges[:, 0], edges[:, 1])
        if (self.edge_lengths <= 1e-14 * self.diameter).any():
            raise GeometryError("repeated (or nearly repeated) vertices")
        self.tangents = edges / self.edge_lengths[:, None]
        # Outer normals of a CCW loop point to the right of each tangent.
        self.normals = np.column_stack([self.tangents[:, 1], -self.tangents[:, 0]])

        prev = np.concatenate([edges[-1:], edges[:-1]])
        cross = prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0]
        tol = CONVEXITY_RTOL * self.diameter**2
        if (cross <= tol).any():
            bad = int(np.argmin(cross))
            if cross.sum() <= 0:
                raise GeometryError("vertex loop is not counterclockwise")
            raise GeometryError(
                f"polygon is not strictly convex at vertex {bad} "
                f"(cross product {cross[bad]:.3e} <= {tol:.3e})"
            )

        piece = v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]
        self.area = float(piece.sum() / 2.0)
        self.centroid = ((v + nxt) * piece[:, None]).sum(axis=0) / (6.0 * self.area)
        # Edge distance functions: lam_i(x) = edge_offsets[i] - normals[i] . x,
        # zero on edge i and positive inside.
        self.edge_offsets = (nxt * self.normals).sum(axis=1)
        self._edge_fns = tuple(map(AffineScalar, -self.normals, self.edge_offsets))

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
        return nonadjacent_pairs(self.n_edges)

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
        grads, offsets = self.pair_lines([a], [b])
        return AffineScalar(grads[0], offsets[0])

    def pair_lines(self, i, j):
        """Gradients (P, 2) and offsets (P,) of ``pair_line(i[p], j[p])``
        for index arrays of nonadjacent pairs, i[p] < j[p]."""
        return distance_lines(self.edge_midpoint(np.asarray(i)), self.edge_midpoint(np.asarray(j)))

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
