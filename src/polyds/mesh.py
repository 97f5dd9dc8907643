"""Polygonal meshes of the unit square: topology, generators, and repair.

A mesh is a list of vertices plus CCW cell loops; ``build_topology``
derives the shared-edge table and validates conformity and cell convexity.
Generators cover structured squares, congruent trapezoids, randomly
perturbed quadrilaterals, and the hexagon-dominant Voronoi mesh of a
staggered seed lattice.  ``collapse_short_edges`` removes sliver edges by
merging vertices.

Meshes are immutable after construction; generators are deterministic
given their arguments (and seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import GeometryError, Polygon

__all__ = [
    "MeshError",
    "Mesh",
    "MeshStats",
    "build_topology",
    "gen_square_mesh",
    "gen_trapezoid_mesh",
    "gen_perturbed_quad_mesh",
    "gen_hex_dominant_mesh",
    "voronoi_cell",
    "collapse_short_edges",
    "import_mesh",
    "export_mesh",
    "mesh_stats",
]


class MeshError(ValueError):
    """Nonconforming, inverted, or degenerate mesh input."""


@dataclass(frozen=True)
class Edge:
    """One mesh edge: vertex pair (a, b), owning cells, boundary flag.

    ``a < b`` never holds in general; the stored direction a -> b is the
    traversal direction of the ``left`` cell.  ``right`` is None on the
    boundary.
    """

    a: int
    b: int
    left: int
    right: int | None

    @property
    def boundary(self):
        return self.right is None


class Mesh:
    """Conforming polygonal mesh (use :func:`build_topology` to create)."""

    def __init__(self, vertices, cells, edges, cell_edges, polygons):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = [list(map(int, loop)) for loop in cells]
        self.edges = edges
        self.cell_edges = cell_edges  # per cell: edge indices in loop order
        self._polygons = tuple(polygons)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def polygon(self, c) -> Polygon:
        return self._polygons[c]

    def polygons(self):
        return list(self._polygons)

    @property
    def h_max(self):
        return max(p.diameter for p in self.polygons())

    @property
    def area(self):
        return sum(p.area for p in self.polygons())

    def edge_length(self, i):
        e = self.edges[i]
        return float(math.dist(self.vertices[e.a], self.vertices[e.b]))


@dataclass(frozen=True)
class MeshStats:
    n_cells: int
    n_edges: int
    n_vertices: int
    h_max: float
    sigma_min: float
    sigma_max: float
    sigma_avg: float


def build_topology(vertices, cells) -> Mesh:
    """Derive and validate the edge table of a polygonal mesh.

    Every interior edge must be shared by exactly two cells traversing it
    in opposite directions; cells must be valid CCW convex polygons.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError(f"vertices must have shape (M, 2), got {vertices.shape}")
    if len(cells) == 0:
        raise MeshError("mesh has no cells")
    nv = len(vertices)
    polygons = []
    for ci, loop in enumerate(cells):
        if len(set(loop)) != len(loop):
            raise MeshError(f"degenerate cell {ci}: repeated vertex in loop {loop}")
        if any(not 0 <= v < nv for v in loop):
            raise MeshError(f"cell {ci} references an unknown vertex")
        try:
            # Polygon rejects clockwise (inverted) loops too.
            polygons.append(Polygon(vertices[list(loop)]))
        except GeometryError as exc:
            raise MeshError(f"degenerate cell {ci}: {exc}") from None

    directed = {}
    for ci, loop in enumerate(cells):
        for k in range(len(loop)):
            key = (loop[k], loop[(k + 1) % len(loop)])
            if key in directed:
                raise MeshError(
                    f"nonconforming mesh: edge {key} traversed twice in the "
                    f"same direction (cells {directed[key]} and {ci})"
                )
            directed[key] = ci

    edges = []
    edge_ids = {}
    for (a, b), ci in directed.items():
        if (a, b) in edge_ids or (b, a) in edge_ids:
            continue
        mate = directed.get((b, a))
        edges.append(Edge(a=a, b=b, left=ci, right=mate))
        edge_ids[(a, b)] = len(edges) - 1

    cell_edges = []
    for loop in cells:
        local = []
        for k in range(len(loop)):
            a, b = loop[k], loop[(k + 1) % len(loop)]
            local.append(edge_ids[(a, b)] if (a, b) in edge_ids else edge_ids[(b, a)])
        cell_edges.append(local)

    mesh = Mesh(vertices, cells, edges, cell_edges, polygons)

    # Cells must tile the region enclosed by the boundary loop.
    boundary_area = 0.0
    for e in mesh.edges:
        if e.boundary:
            pa, pb = vertices[e.a], vertices[e.b]
            boundary_area += 0.5 * (pa[0] * pb[1] - pb[0] * pa[1])
    total = mesh.area
    if abs(total - boundary_area) > 1e-10 * abs(total):
        raise MeshError(
            f"cells do not tile the domain: cell area {total!r} vs "
            f"boundary area {boundary_area!r}"
        )
    return mesh


def mesh_stats(mesh: Mesh) -> MeshStats:
    sigmas = np.array([p.shape_regularity().sigma for p in mesh.polygons()])
    return MeshStats(
        n_cells=mesh.n_cells,
        n_edges=mesh.n_edges,
        n_vertices=mesh.n_vertices,
        h_max=mesh.h_max,
        sigma_min=float(sigmas.min()),
        sigma_max=float(sigmas.max()),
        sigma_avg=float(sigmas.mean()),
    )


def _grid_mesh(n, ycoord):
    """Quad mesh of [0,1]^2 with vertex heights from ``ycoord(i, j)``."""
    vid = {}
    verts = []
    for j in range(n + 1):
        for i in range(n + 1):
            vid[(i, j)] = len(verts)
            verts.append((i / n, ycoord(i, j)))
    cells = []
    for j in range(n):
        for i in range(n):
            cells.append(
                [vid[(i, j)], vid[(i + 1, j)], vid[(i + 1, j + 1)], vid[(i, j + 1)]]
            )
    return np.asarray(verts), cells


def gen_square_mesh(n: int) -> Mesh:
    """n x n uniform squares tiling the unit square."""
    if n < 2:
        raise ValueError("n must be >= 2")
    verts, cells = _grid_mesh(n, lambda i, j: j / n)
    return build_topology(verts, cells)


def gen_trapezoid_mesh(n: int, slope=0.25) -> Mesh:
    """n x n congruent trapezoids (n even): interior horizontal lines zigzag.

    Every cell is congruent to the trapezoid with parallel vertical sides
    of lengths (1 - 2*slope)/n and (1 + 2*slope)/n, so the shape-regularity
    ratio is the same at every refinement level.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")

    def ycoord(i, j):
        amp = slope if j % 2 else 0.0
        return (j + amp * (1 if (i + j) % 2 else -1)) / n

    verts, cells = _grid_mesh(n, ycoord)
    return build_topology(verts, cells)


def gen_perturbed_quad_mesh(n: int, noise: float, seed=0) -> Mesh:
    """Square mesh with interior vertices shifted by uniform noise.

    ``noise`` is the maximal shift per coordinate as a fraction of the grid
    spacing; below 0.25 the cells provably stay convex.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= noise < 0.5:
        raise ValueError("noise must be in [0, 0.5)")
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-noise / n, noise / n, size=(n + 1, n + 1, 2))

    def ycoord(i, j):
        if 0 < i < n and 0 < j < n:
            return j / n + shifts[i, j, 1]
        return j / n

    verts, cells = _grid_mesh(n, ycoord)
    verts = verts.copy()
    for j in range(1, n):
        for i in range(1, n):
            verts[j * (n + 1) + i, 0] += shifts[i, j, 0]
    return build_topology(verts, cells)


def _clip_halfplane(pts, anchor, normal, tol):
    """Sutherland-Hodgman clip of a convex loop against (x-anchor).n <= 0.

    The loops have a handful of vertices, so the walk runs on Python
    floats: for these sizes that is faster than masked array work.
    """
    dist = ((pts - anchor) @ normal).tolist()
    loop = pts.tolist()
    out = []
    m = len(loop)
    for k in range(m):
        da, db = dist[k], dist[k + 1 - m]
        if da <= tol:
            out.append(loop[k])
        if (da < -tol and db > tol) or (da > tol and db < -tol):
            t = da / (da - db)
            (xa, ya), (xb, yb) = loop[k], loop[k + 1 - m]
            out.append((xa + t * (xb - xa), ya + t * (yb - ya)))
    return np.array(out, dtype=float).reshape(-1, 2)


def _clean_loop(pts, scale):
    """Drop duplicate and collinear consecutive vertices from a convex loop."""
    if len(pts) == 0:
        return pts
    keep = [pts[0]]
    for p in pts[1:]:
        if math.dist(p, keep[-1]) > 1e-9 * scale:
            keep.append(p)
    if len(keep) > 1 and math.dist(keep[0], keep[-1]) <= 1e-9 * scale:
        keep.pop()
    pts = np.asarray(keep)
    if len(pts) < 3:
        return pts
    good = []
    m = len(pts)
    for k in range(m):
        u = pts[k] - pts[(k - 1) % m]
        v = pts[(k + 1) % m] - pts[k]
        if abs(u[0] * v[1] - u[1] * v[0]) > 1e-12 * scale**2:
            good.append(k)
    return pts[good]


def voronoi_cell(seed, all_seeds, bounding_square=((0.0, 0.0), (1.0, 1.0))) -> Polygon:
    """Voronoi cell of ``seed``, clipped to an axis-aligned bounding square.

    The square is clipped successively against the perpendicular-bisector
    half-plane toward the other seeds, nearest first, until the next seed
    is too far away for its bisector to cut the cell.  The result is convex
    by construction.
    """
    return Polygon(_voronoi_loop(seed, all_seeds, bounding_square))


def _voronoi_loop(seed, all_seeds, bounding_square=((0.0, 0.0), (1.0, 1.0))):
    """CCW vertex loop (K, 2) of the cell :func:`voronoi_cell` returns."""
    seed = np.asarray(seed, dtype=float)
    all_seeds = np.asarray(all_seeds, dtype=float)
    (x0, y0), (x1, y1) = bounding_square
    pts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    scale = max(x1 - x0, y1 - y0)
    others = all_seeds[np.hypot(*(all_seeds - seed).T) > 1e-14 * scale]
    if len(others) != len(all_seeds) - 1:
        raise MeshError("seeds must be pairwise distinct and contain `seed`")
    dist = np.hypot(*(others - seed).T)
    for k in np.argsort(dist, kind="stable"):
        # The bisector toward a seed farther than twice the farthest cell
        # vertex misses the cell, and so do those of all later seeds.
        if dist[k] > 2.0 * np.hypot(*(pts - seed).T).max():
            break
        mid = 0.5 * (seed + others[k])
        normal = others[k] - seed
        pts = _clip_halfplane(pts, mid, normal, 1e-14 * scale)
        if len(pts) == 0:
            raise MeshError(f"empty Voronoi cell for seed {seed}")
    pts = _clean_loop(pts, scale)
    if len(pts) < 3:
        raise MeshError(f"degenerate Voronoi cell for seed {seed}")
    return pts


def hex_lattice_seeds(n: int):
    """Staggered n x n seed lattice: columns shifted up/down alternately by
    a quarter of the spacing."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    x = (i + 0.5) / n
    y = (j + 0.5) / n + np.where(i % 2 == 0, -0.25, 0.25) / n
    return np.column_stack([x.ravel(), y.ravel()])


def gen_hex_dominant_mesh(n: int) -> Mesh:
    """Voronoi mesh of the staggered lattice: hexagons inside, quads and
    pentagons along the boundary."""
    if n < 2:
        raise ValueError("n must be >= 2")
    seeds = hex_lattice_seeds(n)
    loops = [_voronoi_loop(s, seeds) for s in seeds]
    return _assemble_conforming(loops, merge_tol=1e-7 / n)


def _assemble_conforming(loops, merge_tol):
    """Merge per-cell vertex loops into one conforming mesh by fusing
    vertices that coincide within tolerance."""
    allpts = np.vstack(loops)
    tree = cKDTree(allpts)
    group = np.arange(len(allpts))
    for a, b in sorted(tree.query_pairs(merge_tol)):
        ra, rb = group[a], group[b]
        if ra != rb:
            group[group == max(ra, rb)] = min(ra, rb)
    reps = {}
    verts = []
    index = np.empty(len(allpts), dtype=int)
    for k, g in enumerate(group):
        if g not in reps:
            reps[g] = len(verts)
            verts.append(allpts[g])
        index[k] = reps[g]
    cells = []
    at = 0
    for loop in loops:
        m = len(loop)
        cells.append([int(index[at + k]) for k in range(m)])
        at += m
    return build_topology(np.asarray(verts), cells)


def collapse_short_edges(mesh: Mesh, rel_tol: float) -> Mesh:
    """Remove every edge shorter than rel_tol * h_max by merging one of its
    endpoints into the other, repeatedly until none remain.

    The kept endpoint is the one incident to more cells (ties: lower
    index), which disturbs the least topology.  Raises if a merge would
    break convexity of a neighboring cell.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    current = mesh
    for _ in range(mesh.n_edges):
        threshold = rel_tol * current.h_max
        short = [
            (current.edge_length(i), i)
            for i in range(current.n_edges)
            if current.edge_length(i) < threshold
        ]
        if not short:
            return current
        short.sort()
        incidence = np.zeros(current.n_vertices, dtype=int)
        for loop in current.cells:
            incidence[loop] += 1
        touched = set()
        mapping = np.arange(current.n_vertices)
        for _, ei in short:
            e = current.edges[ei]
            if e.a in touched or e.b in touched:
                continue
            keep, drop = (e.a, e.b) if (incidence[e.a], -e.a) >= (incidence[e.b], -e.b) else (e.b, e.a)
            mapping[drop] = keep
            touched.update((e.a, e.b))
        new_cells = []
        for ci, loop in enumerate(current.cells):
            new = []
            for v in loop:
                m = int(mapping[v])
                if not new or new[-1] != m:
                    new.append(m)
            if new[0] == new[-1]:
                new.pop()
            if len(new) < 3:
                raise MeshError(f"collapse would eliminate cell {ci}")
            new_cells.append(new)
        used = sorted({v for loop in new_cells for v in loop})
        renumber = {v: k for k, v in enumerate(used)}
        verts = current.vertices[used]
        cells = [[renumber[v] for v in loop] for loop in new_cells]
        try:
            current = build_topology(verts, cells)
        except MeshError as exc:
            raise MeshError(f"short-edge collapse broke the mesh: {exc}") from None
    return current


def export_mesh(mesh: Mesh, path):
    """Write vertices and cell loops as JSON with exact decimal round-trip."""
    rows = ",\n  ".join(
        f"[{x:.17g}, {y:.17g}]" for x, y in mesh.vertices
    )
    cells = ",\n  ".join(json.dumps(loop) for loop in mesh.cells)
    with open(path, "w") as fh:
        fh.write('{"vertices": [\n  %s\n], "cells": [\n  %s\n]}\n' % (rows, cells))


def import_mesh(path) -> Mesh:
    """Read a mesh written by :func:`export_mesh` (or compatible JSON)."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshError(f"cannot parse {path}: {exc}") from None
    try:
        vertices = np.asarray(payload["vertices"], dtype=float)
        cells = [list(map(int, loop)) for loop in payload["cells"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"bad mesh file {path}: {exc}") from None
    return build_topology(vertices, cells)
