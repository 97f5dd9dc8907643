"""Planar geometry for convex polygonal elements.

Provides the convex ``Polygon`` type with derived edge data (outer
normals, tangents, lengths, and the edge offsets that with the normals
give the edge distance functions), built one at a time or as a stack of
polygons with equal vertex count (``polygon_stack``, one formula for
both), signed distance lines and the pair lines between nonadjacent edges
as (P, 2) gradient and (P,) offset arrays, and the shape-regularity and
corner-angle formulas that ``mesh`` runs over groups of cells.

Polygons are immutable after construction (their arrays are read-only)
and all operations are pure, so they are safe to share between threads.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "GeometryError",
    "AffineScalar",
    "Polygon",
    "polygon_stack",
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


def _frozen(a):
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


class AffineScalar:
    """Linear polynomial a(x) = grad . x + offset with a constant gradient.

    The library itself builds and evaluates affine functions only as
    (K, 2) gradient and (K,) offset arrays; this one-function form serves
    test oracles and instrumentation.
    """

    __slots__ = ("grad", "offset")

    def __init__(self, grad, offset):
        self.grad = np.asarray(grad, dtype=float)
        self.offset = float(offset)
        if self.grad.shape != (2,) or not all(map(math.isfinite, self.grad.tolist())):
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


def distance_lines(y1, y2):
    """Gradients (P, 2) and offsets (P,) of the unit-gradient affine
    functions vanishing on the lines through y1[p] and y2[p], for (P, 2)
    arrays of distinct points.

    The sign convention puts negative values on the right of the travel
    direction y1 -> y2: with nu the unit normal pointing right of y2 - y1,
    function p is x -> -(x - y2) . nu.
    """
    d = y2 - y1
    nu = d[:, ::-1] * (1.0, -1.0) / np.hypot(d[:, 0], d[:, 1])[:, None]
    return -nu, (y2 * nu).sum(axis=1)


def nonadjacent_pairs(n):
    """All index pairs (i, j), i < j, of nonadjacent edges of an n-gon."""
    return [(i, j) for i, j in itertools.combinations(range(n), 2) if 2 <= j - i <= n - 2]


def polygon_stack(vertices):
    """Polygons of C vertex loops of N vertices each, given as a (C, N, 2)
    array.

    Every formula and check of :class:`Polygon` runs once on the whole
    stack, and ``Polygon(vertices[c])`` is the case C = 1, so each polygon
    equals that one bit for bit.  Returns ``(polygons, None)``, or
    ``(None, (c, message))`` for the first loop c that is not a valid
    polygon, with the message of the ``GeometryError`` that ``Polygon``
    raises for it.
    """
    v = np.array(vertices, dtype=float)
    if v.ndim != 3 or v.shape[2] != 2:
        raise GeometryError("vertices must have shape (C, N, 2)")
    data, failure = _stacked_data(v)
    if failure is not None:
        return None, failure
    polygons = []
    for c in range(len(data["vertices"])):
        E = object.__new__(Polygon)
        E._take(data, c)
        polygons.append(E)
    return polygons, None


def _similar(E, c, h):
    """E mapped by x -> (x - c) / h, c its centroid, with its attributes set
    directly (no check runs again); its normals and tangents are E's own."""
    F = object.__new__(Polygon)
    F.vertices = _frozen((E.vertices - c) / h)
    F.n_edges, F.diameter, F.area = E.n_edges, E.diameter / h, E.area / h**2
    F.edge_lengths = _frozen(E.edge_lengths / h)
    F.tangents, F.normals = E.tangents, E.normals
    F.centroid = _frozen(np.zeros(2))
    F.edge_offsets = _frozen((E.edge_offsets - E.normals @ c) / h)
    return F


def _stacked_data(v):
    """Derived data of the loops v (C, N, 2) as stacked arrays, and the first
    failing loop as ``(c, message)`` or None."""
    if v.shape[1] < 3:
        return None, (0, "a polygon needs at least 3 vertices")
    # Loops with non-finite vertices fail the first check below; the
    # arithmetic on them may overflow or give NaN on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        d = v[:, :, None, :] - v[:, None, :, :]
        diameter = np.sqrt((d**2).sum(-1)).max(axis=(1, 2))
        nxt = np.concatenate([v[:, 1:], v[:, :1]], axis=1)
        edges = nxt - v
        edge_lengths = np.hypot(edges[..., 0], edges[..., 1])
        prev = np.concatenate([edges[:, -1:], edges[:, :-1]], axis=1)
        cross = prev[..., 0] * edges[..., 1] - prev[..., 1] * edges[..., 0]
        tol = CONVEXITY_RTOL * diameter**2
    # Checks in order of precedence; a loop is named by the first it fails.
    checks = (~np.isfinite(v).all(axis=(1, 2)),
              (edge_lengths <= 1e-14 * diameter[:, None]).any(axis=1),
              (cross <= tol[:, None]).any(axis=1))
    failed = np.logical_or.reduce(checks)
    if failed.any():
        c = int(np.argmax(failed))
        if checks[0][c]:
            return None, (c, "vertices must be finite")
        if checks[1][c]:
            return None, (c, "repeated (or nearly repeated) vertices")
        if cross[c].sum() <= 0:
            return None, (c, "vertex loop is not counterclockwise")
        bad = int(np.argmin(cross[c]))
        return None, (c, f"polygon is not strictly convex at vertex {bad} "
                         f"(cross product {cross[c, bad]:.3e} <= {tol[c]:.3e})")

    tangents = edges / edge_lengths[..., None]
    # Outer normals of a CCW loop point to the right of each tangent.
    normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
    piece = v[..., 0] * nxt[..., 1] - nxt[..., 0] * v[..., 1]
    area = piece.sum(axis=1) / 2.0
    # Edge distance functions: lam_i(x) = edge_offsets[i] - normals[i] . x,
    # zero on edge i and positive inside.
    edge_offsets = (nxt * normals).sum(axis=2)
    data = {
        "vertices": v,
        "diameter": diameter,
        "edge_lengths": edge_lengths,
        "tangents": tangents,
        "normals": normals,
        "area": area,
        "centroid": ((v + nxt) * piece[..., None]).sum(axis=1) / (6.0 * area[:, None]),
        "edge_offsets": edge_offsets,
    }
    for a in data.values():
        a.flags.writeable = False
    return data, None


class Polygon:
    """Closed, strictly convex polygon with CCW vertex ordering.

    Derived per-edge data uses the convention that edge ``i`` runs from
    vertex ``i`` to vertex ``(i + 1) % N``; the shared vertex of edges
    ``i - 1`` and ``i`` is vertex ``i``.  Instances are immutable: every
    array attribute is a read-only view.  Edge i's distance function
    (unit gradient, zero on the edge, positive inside) is
    ``edge_offsets[i] - normals[i] . x``.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError("vertices must have shape (N, 2)")
        data, failure = _stacked_data(v[None])
        if failure is not None:
            raise GeometryError(failure[1])
        self._take(data, 0)

    def _take(self, data, c):
        """Set the attributes from row c of the stacked data."""
        self.vertices = data["vertices"][c]
        self.n_edges = self.vertices.shape[0]
        self.diameter = float(data["diameter"][c])
        self.edge_lengths = data["edge_lengths"][c]
        self.tangents = data["tangents"][c]
        self.normals = data["normals"][c]
        self.area = float(data["area"][c])
        self.centroid = data["centroid"][c]
        self.edge_offsets = data["edge_offsets"][c]

    def __repr__(self):
        return f"Polygon({self.n_edges} vertices, h={self.diameter:.3g})"

    def edge_midpoint(self, i):
        v = self.vertices
        return 0.5 * (v[i] + v[(i + 1) % self.n_edges])

    def pair_lines(self, i, j):
        """Gradients (P, 2) and offsets (P,) of the pair lines of the
        nonadjacent edges i[p] < j[p], given as index arrays.

        Pair line p is the unit-gradient affine function vanishing on the
        line through the midpoints of edges i[p] and j[p] (in the sign
        convention of ``distance_lines``), so its zero line crosses both
        edges, as the supplemental functions require.
        """
        return distance_lines(self.edge_midpoint(np.asarray(i)), self.edge_midpoint(np.asarray(j)))


def _regularity_rho(v):
    """rho (C,) of the shape regularity sigma = rho / h for C loops v
    (C, N, 2), h the diameter: twice the smallest incircle diameter over
    the triangles of three vertices."""
    a, b, c = np.array(list(itertools.combinations(range(v.shape[1]), 3))).T
    pa, pb, pc = v[:, a], v[:, b], v[:, c]
    u, w = pb - pa, pc - pa
    area2 = np.abs(u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0])
    per = sum(np.hypot(d[..., 0], d[..., 1]) for d in (pb - pa, pc - pb, pa - pc))
    # Incircle diameter: 2 * area / semiperimeter.
    return 2.0 * (2.0 * area2 / per).min(axis=1)


def _corner_turns(v):
    """Turning angles (C, N) of C loops v (C, N, 2): at vertex k, from edge
    k - 1 to edge k, which leaves it; the interior angle is pi less."""
    z = (np.roll(v, -1, axis=1) - v).view(complex)[..., 0]  # edge k as x + iy
    return np.angle(z / np.roll(z, 1, axis=1))
