"""Polygonal meshes of the unit square: topology, generators, and repair.

A mesh is a list of vertices plus CCW cell loops; ``build_topology``
validates conformity, convexity and winding and derives the topology as
read-only integer arrays: the edges (a, b), their (left, right) cells,
and per vertex count N the (C, N) vertex loops and edge ids of the cells
with N vertices, the form in which assembly numbers its dofs.
Generators cover structured squares, congruent trapezoids, randomly
perturbed quadrilaterals, and the hexagon-dominant Voronoi mesh of a
staggered seed lattice.  ``collapse_short_edges`` removes sliver edges by
merging vertices.

Generation is array work over all cells at once: the Voronoi cells are
clipped together, one bisector per cell and step; coinciding loop
vertices are fused by label propagation; both neighbour searches, for the
seeds near each cell and for the coinciding vertices, use a uniform grid
of buckets; the edge table comes from
integer keys of the directed edges; and the cell polygons are built per
group of equal vertex count (``geometry.polygon_stack``).  The tests hold
each step to the bits of a cell-by-cell construction.

Meshes are immutable after construction (their arrays are read-only);
generators are deterministic given their arguments (and seed).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .geometry import Polygon, _corner_turns, _frozen, _regularity_rho, polygon_stack

__all__ = [
    "MeshError",
    "Mesh",
    "MeshStats",
    "build_topology",
    "gen_square_mesh",
    "gen_trapezoid_mesh",
    "gen_perturbed_quad_mesh",
    "gen_hex_dominant_mesh",
    "collapse_short_edges",
    "import_mesh",
    "export_mesh",
    "mesh_stats",
]


class MeshError(ValueError):
    """Nonconforming, inverted, or degenerate mesh input."""


class Mesh:
    """Conforming polygonal mesh (use :func:`build_topology` to create).

    ``cells[c]`` is the CCW vertex loop of cell c, a new list of ints on
    each access.  The topology is read-only integer arrays:

    - ``edges`` (E, 2): the vertices (a, b) of each edge, in the traversal
      direction of its left cell;
    - ``edge_cells`` (E, 2): the (left, right) cells of each edge, right
      -1 on the boundary;
    - ``groups``, read-only: for each vertex count N, ascending, ``(cells,
      loops, edge_ids)`` of shapes (C,), (C, N) and (C, N): the cells with
      N vertices, ascending, their vertex loops and their edges in loop
      order (edge k runs from ``loops[i, k]`` to ``loops[i, k + 1]``).
    """

    def __init__(self, vertices, cells, edges, edge_cells, groups, polygons):
        self.vertices = vertices
        self._loops = tuple(map(tuple, cells))
        self.edges = edges
        self.edge_cells = edge_cells
        self.groups = MappingProxyType(groups)
        self._polygons = tuple(polygons)

    @property
    def cells(self):
        """The cell loops, as new lists on each access."""
        return [list(loop) for loop in self._loops]

    @property
    def n_cells(self):
        return len(self._loops)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def polygon(self, c) -> Polygon:
        return self._polygons[c]

    @property
    def h_max(self):
        return max(p.diameter for p in self._polygons)


@dataclass(frozen=True)
class MeshStats:
    n_cells: int
    n_edges: int
    n_vertices: int
    h_max: float
    sigma_min: float
    sigma_max: float
    sigma_avg: float
    edge_ratio_min: float  # the smallest ratio of a cell's shortest edge to its diameter
    angle_max: float  # the flattest interior angle, in degrees (180: a flat vertex)


def build_topology(vertices, cells) -> Mesh:
    """Derive and validate the edge table of a polygonal mesh.

    Every interior edge must be shared by exactly two cells traversing it
    in opposite directions; cells must be valid CCW convex polygons; every
    vertex must belong to a cell; the cells' angles at a vertex must sum to
    at most 2 pi, and so to 2 pi at an interior vertex.  Not caught: an
    overlap of cells that share no vertex, such as two overlapping
    components or a strip of cells wound twice around a hole.  Errors name
    the lowest-numbered offending cell or vertex.
    """
    # A read-only copy: the mesh's polygons were built from these values.
    vertices = np.array(vertices, dtype=float)
    vertices.flags.writeable = False
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError(f"vertices must have shape (M, 2), got {vertices.shape}")
    if len(cells) == 0:
        raise MeshError("mesh has no cells")
    nv = len(vertices)
    sizes = np.array([len(loop) for loop in cells])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    flat = np.fromiter(itertools.chain.from_iterable(cells), dtype=np.int64,
                       count=int(ends[-1]))

    # Cell checks and polygons, one stack per loop length.
    polygons = [None] * len(cells)
    failures = []  # (cell, message): the first bad cell of each check
    spans = {}  # N: cells, their loops and the positions of these in flat
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        ids = np.flatnonzero(sizes == n)
        at = starts[ids, None] + np.arange(n)
        loops = flat[at]
        spans[n] = (ids, loops, at)
        repeated = (loops[:, :, None] == loops[:, None, :]).sum(axis=(1, 2)) > n
        unknown = ((loops < 0) | (loops >= nv)).any(axis=1)
        if (repeated | unknown).any():
            k = int(np.argmax(repeated | unknown))
            ci = int(ids[k])
            failures.append((ci, f"degenerate cell {ci}: repeated vertex in loop {cells[ci]}"
                             if repeated[k] else f"cell {ci} references an unknown vertex"))
        ok = ~(repeated | unknown)
        if not ok.any():
            continue
        stack, failure = polygon_stack(vertices[loops[ok]])
        if failure is not None:
            ci = int(ids[ok][failure[0]])
            failures.append((ci, f"degenerate cell {ci}: {failure[1]}"))
        else:
            for ci, E in zip(ids[ok].tolist(), stack):
                polygons[ci] = E
    if failures:
        raise MeshError(min(failures)[1])
    # A vertex outside every cell would carry a dof that no cell touches.
    unused = np.flatnonzero(np.bincount(flat, minlength=nv) == 0)
    if len(unused):
        raise MeshError(f"vertex {unused[0]} is used by no cell")

    # Directed edges a -> b of every loop, in cell and loop order.
    cell_of = np.repeat(np.arange(len(cells)), sizes)
    nxt = np.arange(1, len(flat) + 1)
    nxt[ends - 1] = starts
    a, b = flat, flat[nxt]
    _, first, where = np.unique(a * nv + b, return_index=True, return_inverse=True)
    again = np.flatnonzero(first[where] != np.arange(len(flat)))
    if len(again):
        p = again[0]
        raise MeshError(
            f"nonconforming mesh: edge {(int(a[p]), int(b[p]))} traversed twice in the "
            f"same direction (cells {cell_of[first[where[p]]]} and {cell_of[p]})"
        )

    # Cells wind once around each vertex: their angles there sum to at most
    # 2 pi, up to rounding.  At an interior vertex they close around it, to
    # a multiple of 2 pi, so only 2 pi passes.
    angles = np.zeros(nv)
    for _, loops, _ in spans.values():
        np.add.at(angles, loops, np.pi - _corner_turns(vertices[loops]))
    over = np.flatnonzero(angles > 2.0 * np.pi + 1e-9)
    if len(over):
        raise MeshError(f"cells overlap at vertex {over[0]}: their angles there sum to "
                        f"{angles[over[0]] / np.pi:.6g} pi, more than 2 pi")

    # One edge per vertex pair, in order of first traversal, stored in the
    # direction of that traversal.  A second traversal of the pair runs the
    # other way (the check above), and its cell is the right one.
    pair = np.minimum(a, b) * nv + np.maximum(a, b)
    _, ufirst, uwhere = np.unique(pair, return_index=True, return_inverse=True)
    ulast = len(pair) - 1 - np.unique(pair[::-1], return_index=True)[1]
    is_first = np.zeros(len(pair), dtype=bool)
    is_first[ufirst] = True
    pos = np.flatnonzero(is_first)  # the first traversal of each edge
    rank = (np.cumsum(is_first) - 1)[ufirst]  # edge number of each pair
    mate = np.empty_like(ulast)
    mate[rank] = ulast
    right = np.where(mate != pos, cell_of[mate], -1)
    edge_of = rank[uwhere]  # the edge id of each directed edge a -> b
    loop_ids = flat.tolist()
    return Mesh(vertices, [loop_ids[s:e] for s, e in zip(starts.tolist(), ends.tolist())],
                _frozen(np.column_stack([a[pos], b[pos]])),
                _frozen(np.column_stack([cell_of[pos], right])),
                {n: (_frozen(ids), _frozen(loops), _frozen(edge_of[at]))
                 for n, (ids, loops, at) in spans.items()},
                polygons)


def mesh_stats(mesh: Mesh) -> MeshStats:
    """Counts, h_max, the spread of the cells' shape regularity sigma, their
    shortest edge ratio and flattest angle, computed for each group of cells
    with equal vertex count at once."""
    sigmas, ratios, angles = np.empty((3, mesh.n_cells))
    for cells, loops, _ in mesh.groups.values():
        v = mesh.vertices[loops]
        h = np.array([mesh.polygon(c).diameter for c in cells.tolist()])
        sigmas[cells] = _regularity_rho(v) / h
        z = (np.roll(v, -1, axis=1) - v) @ np.array([1.0, 1.0j])  # edge k leaves vertex k
        ratios[cells] = np.abs(z).min(axis=1) / h
        # An interior angle is 180 degrees less the turn at its corner.
        angles[cells] = 180.0 - np.degrees(_corner_turns(v)).min(axis=1)
    return MeshStats(
        n_cells=mesh.n_cells,
        n_edges=mesh.n_edges,
        n_vertices=mesh.n_vertices,
        h_max=mesh.h_max,
        sigma_min=float(sigmas.min()),
        sigma_max=float(sigmas.max()),
        sigma_avg=float(sigmas.mean()),
        edge_ratio_min=float(ratios.min()),
        angle_max=float(angles.max()),
    )


def _grid_indices(n):
    """Column and row index arrays i[j, i], j[j, i] of the (n+1)^2 grid."""
    return np.meshgrid(np.arange(n + 1), np.arange(n + 1))


def _grid_mesh(x, y):
    """Quad mesh of the vertex grid with coordinates (x[j, i], y[j, i]);
    vertex (i, j) gets the number j*(n+1) + i."""
    n = len(x) - 1
    corner = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = corner[:, None] + [0, 1, n + 2, n + 1]
    return build_topology(np.column_stack([x.ravel(), y.ravel()]), cells.tolist())


def gen_square_mesh(n: int) -> Mesh:
    """n x n uniform squares tiling the unit square."""
    if n < 2:
        raise ValueError("n must be >= 2")
    i, j = _grid_indices(n)
    return _grid_mesh(i / n, j / n)


# Zigzag amplitude of the interior horizontal lines of the trapezoid mesh,
# as a fraction of the grid spacing.
TRAPEZOID_SLOPE = 0.25


def gen_trapezoid_mesh(n: int) -> Mesh:
    """n x n congruent trapezoids (n even): interior horizontal lines zigzag.

    Every cell is congruent to the trapezoid with parallel vertical sides
    of lengths (1 - 2*s)/n and (1 + 2*s)/n, s = ``TRAPEZOID_SLOPE``, so the
    shape-regularity ratio is the same at every refinement level.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    i, j = _grid_indices(n)
    amp = np.where(j % 2 == 1, TRAPEZOID_SLOPE, 0.0)
    return _grid_mesh(i / n, (j + amp * np.where((i + j) % 2 == 1, 1, -1)) / n)


def gen_perturbed_quad_mesh(n: int, noise: float, seed=0) -> Mesh:
    """Square mesh with interior vertices shifted by uniform noise.

    ``noise`` is the maximal shift per coordinate as a fraction of the grid
    spacing; below 0.25 the cells provably stay convex.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= noise < 0.5:
        raise ValueError("noise must be in [0, 0.5)")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-noise / n, noise / n, size=(n + 1, n + 1, 2))  # [i, j]
    i, j = _grid_indices(n)
    x, y = i / n, j / n
    x[1:n, 1:n] += shifts[1:n, 1:n, 0].T
    y[1:n, 1:n] += shifts[1:n, 1:n, 1].T
    return _grid_mesh(x, y)


def _compact(pts, keep):
    """The entries of each row of ``pts`` (C, V, 2) where ``keep`` (C, V),
    in order: padded rows (C, V', 2) and their counts (C,)."""
    counts = keep.sum(axis=1)
    out = np.zeros((len(pts), counts.max(initial=0), 2))
    rows, cols = np.nonzero(keep)
    out[rows, (np.cumsum(keep, axis=1) - 1)[rows, cols]] = pts[rows, cols]
    return out, counts


def _cyclic(counts, width, step):
    """Index (C, width) of the loop neighbour ``step`` (+1 or -1) places on."""
    k = np.arange(width)
    if step > 0:
        return np.where(k + 1 < counts[:, None], k + 1, 0)
    return np.where(k > 0, k - 1, counts[:, None] - 1)


def _clip_halfplanes(pts, counts, anchor, normal, tol):
    """Sutherland-Hodgman clip of each convex loop pts[c] (padded, with
    counts[c] vertices) against (x - anchor[c]) . normal[c] <= 0."""
    # A stacked matmul runs one BLAS product per loop, which gives the bits
    # of ``(pts[c] - anchor[c]) @ normal[c]``; a multiply-add written out
    # elementwise differs in the last bit where BLAS fuses the two.
    d = np.matmul(pts - anchor[:, None], normal[:, :, None])[..., 0]
    nxt = _cyclic(counts, pts.shape[1], +1)
    db = np.take_along_axis(d, nxt, axis=1)
    valid = np.arange(pts.shape[1]) < counts[:, None]
    inside = valid & (d <= tol)
    cross = valid & (((d < -tol) & (db > tol)) | ((d > tol) & (db < -tol)))
    t = np.divide(d, d - db, out=np.zeros_like(d), where=cross)
    hit = pts + t[..., None] * (np.take_along_axis(pts, nxt[..., None], axis=1) - pts)
    # Each vertex contributes itself if inside, then the crossing on its edge.
    C, V = counts.shape[0], pts.shape[1]
    return _compact(np.stack([pts, hit], axis=2).reshape(C, 2 * V, 2),
                    np.stack([inside, cross], axis=2).reshape(C, 2 * V))


def _clean_loops(pts, counts, scale):
    """Drop duplicate and collinear consecutive vertices from convex loops
    (padded (C, V, 2), with counts)."""
    V = pts.shape[1]
    near = 1e-9 * scale
    # A vertex is a duplicate when it is near the last vertex kept.
    keep = np.zeros(pts.shape[:2], dtype=bool)
    keep[:, 0] = counts > 0
    last = pts[:, 0].copy()
    for k in range(1, V):
        gap = pts[:, k] - last
        far = (k < counts) & (np.hypot(gap[:, 0], gap[:, 1]) > near)
        keep[:, k] = far
        last[far] = pts[far, k]
    gap = pts[:, 0] - last
    closing = (keep.sum(axis=1) > 1) & (np.hypot(gap[:, 0], gap[:, 1]) <= near)
    keep[closing, V - 1 - np.argmax(keep[closing, ::-1], axis=1)] = False
    pts, counts = _compact(pts, keep)

    u = pts - np.take_along_axis(pts, _cyclic(counts, pts.shape[1], -1)[..., None], axis=1)
    v = np.take_along_axis(pts, _cyclic(counts, pts.shape[1], +1)[..., None], axis=1) - pts
    turns = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]) > 1e-12 * scale**2
    valid = np.arange(pts.shape[1]) < counts[:, None]
    return _compact(pts, valid & (turns | (counts[:, None] < 3)))


# The square, ((x0, y0), (x1, y1)), that every Voronoi cell is clipped to.
BOUNDING_SQUARE = ((0.0, 0.0), (1.0, 1.0))


def _bucket_keys(cells):
    """Integer bucket coordinates (P, 2), as floats, as the complex keys
    column + 1j * row.  Numpy sorts complex numbers lexicographically, so
    sorted keys run column by column, and row by row within a column."""
    return cells[:, 0] + 1j * cells[:, 1]


def _spread(lo, hi):
    """Every index of the ranges [lo, hi) (R,): the range of each, and it."""
    n = hi - lo
    return np.repeat(np.arange(len(n)), n), np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


# Half-width, in buckets, of the square window of seeds each Voronoi cell
# is first clipped against, and the number of seeds that window holds on
# average, which sets the bucket side.  A cell that needs more seeds is
# clipped again with a window twice as wide.
_WINDOW = 2
_NEIGHBOURS = 16


class _SeedGrid:
    """Seeds binned into a uniform grid of square buckets, to find the
    seeds near each Voronoi site (the cell method: Bentley, Stanat &
    Williams, Inf. Process. Lett. 6, 1977)."""

    def __init__(self, seeds, min_side):
        n = len(seeds)
        # Padded with a seed at infinity, the window's filler.
        self.seeds = np.concatenate([seeds, [[np.inf, np.inf]]])
        self.origin = seeds.min(axis=0) if n else np.zeros(2)
        extent = float(np.ptp(seeds, axis=0).max()) if n else 0.0
        self.side = max(extent * np.sqrt(_NEIGHBOURS / max(n, 1)) / (2 * _WINDOW + 1), min_side)
        keys = _bucket_keys(self._cells(seeds))
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        # Per axis, the seed coordinates in ascending order, padded with
        # -inf and inf, and the bucket line of each: the line is a monotone
        # function of the coordinate, so the seeds below a line are a
        # prefix of that order.
        self.lines = []
        for a in range(2):
            coords = np.sort(seeds[:, a])
            self.lines.append((np.concatenate([[-np.inf], coords, [np.inf]]),
                               np.floor((coords - self.origin[a]) / self.side)))

    def _cells(self, pts):
        return np.floor((pts - self.origin) / self.side)

    def window(self, sites, w):
        """The seeds in the (2w + 1)^2 buckets around each site, nearest
        first by ``np.hypot`` distance, ties by seed index, padded with the
        seed at infinity: indices and distances (T, K); and a lower bound
        (T,) of the distance from each site to every seed outside its
        window."""
        cells = self._cells(sites)
        cols = cells[:, :1] + np.arange(-w, w + 1)
        lo = np.searchsorted(self.keys, cols + 1j * (cells[:, 1:] - w), "left")
        hi = np.searchsorted(self.keys, cols + 1j * (cells[:, 1:] + w), "right")
        count = (hi - lo).sum(axis=1)
        row, col = _spread(np.zeros_like(count), count)
        idx = np.full((len(sites), max(count.max(initial=0), 1)), len(self.order))
        idx[row, col] = self.order[_spread(lo.ravel(), hi.ravel())[1]]
        gap = self.seeds[idx] - sites[:, None]
        dist = np.hypot(gap[..., 0], gap[..., 1])
        order = np.lexsort((idx, dist), axis=-1)
        # A seed outside the window lies beyond one of its four edges, and
        # the nearest seed coordinate beyond an edge bounds its distance:
        # rounding is monotone, so fl(site - edge) <= |fl(seed - site)|,
        # and hypot(dx, dy) >= |dx|.
        bound = np.full(len(sites), np.inf)
        for a, (coords, line) in enumerate(self.lines):
            below = coords[np.searchsorted(line, cells[:, a] - w, "left")]
            above = coords[np.searchsorted(line, cells[:, a] + w, "right") + 1]
            bound = np.minimum(bound, np.minimum(sites[:, a] - below, above - sites[:, a]))
        return np.take_along_axis(idx, order, axis=1), np.take_along_axis(dist, order, axis=1), bound


def _voronoi_loops(sites, seeds):
    """CCW vertex loops of the Voronoi cells of ``sites`` among ``seeds``,
    clipped to ``BOUNDING_SQUARE``: padded (C, V, 2) and counts.

    All cells are clipped together, one bisector per cell and step.  The
    seeds are taken nearest first by their ``np.hypot`` distance, ties by
    seed index.  A cell stops when the next seed is farther than twice its
    farthest vertex: that bisector, and those of all later seeds, miss it.
    """
    sites = np.asarray(sites, dtype=float)
    seeds = np.asarray(seeds, dtype=float).reshape(len(seeds), 2)
    (x0, y0), (x1, y1) = BOUNDING_SQUARE
    square = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    scale = max(x1 - x0, y1 - y0)
    tol = 1e-14 * scale
    # Buckets far wider than tol: seeds within tol of a site share its window.
    grid = _SeedGrid(seeds, 1e-9 * scale)
    # 1: seed not unique; 2: empty cell; 3: degenerate cell.
    status = np.zeros(len(sites), dtype=int)
    done = []
    todo = np.arange(len(sites))
    w = _WINDOW
    while len(todo):
        site = sites[todo]
        idx, dist, bound = grid.window(site, w)
        k = idx.shape[1]
        status[todo[(dist <= tol).sum(axis=1) != 1]] = 1
        # The first ``known`` candidates are the nearest seeds in clip order:
        # every seed left out is at least ``bound`` away.  ``reach[:, j]`` is
        # the distance of the seed after j clips, or at j = known that lower
        # bound; a cell that cannot stop there retries.
        known = (dist[:, 1:] < bound[:, None]).sum(axis=1)
        reach = np.where(np.arange(k) < known[:, None],
                         np.column_stack([dist[:, 1:], bound]), bound[:, None])
        pts = np.broadcast_to(square, (len(todo), 4, 2)).copy()
        counts = np.full(len(todo), 4)
        live = np.flatnonzero(status[todo] == 0)
        retry = np.zeros(len(todo), dtype=bool)
        for j in range(k):
            q = pts[live]
            gap = q - site[live, None]
            far = np.where(np.arange(q.shape[1]) < counts[live, None],
                           np.hypot(gap[..., 0], gap[..., 1]), 0.0).max(axis=1)
            stop = reach[live, j] > 2.0 * far
            retry[live[~stop & (j >= known[live])]] = True
            live = live[~stop & (j < known[live])]
            if not len(live):
                break
            other = seeds[idx[live, j + 1]]
            q, m = _clip_halfplanes(pts[live], counts[live], 0.5 * (site[live] + other),
                                    other - site[live], tol)
            if q.shape[1] > pts.shape[1]:
                pts = np.concatenate(
                    [pts, np.zeros((len(todo), q.shape[1] - pts.shape[1], 2))], axis=1)
            pts[live, :q.shape[1]] = q
            counts[live] = m
            status[todo[live[m == 0]]] = 2
            live = live[m > 0]
        done.append((todo[~retry], pts[~retry], counts[~retry]))
        todo = todo[retry]
        w *= 2

    width = max(p.shape[1] for _, p, _ in done)
    pts = np.zeros((len(sites), width, 2))
    counts = np.zeros(len(sites), dtype=int)
    for cells, p, m in done:
        pts[cells, :p.shape[1]] = p
        counts[cells] = m
    counts[status != 0] = 0
    pts, counts = _clean_loops(pts, counts, scale)
    status[(status == 0) & (counts < 3)] = 3
    if status.any():
        c = int(np.argmax(status != 0))
        seed = sites[c]
        raise MeshError({1: "seeds must be pairwise distinct and contain `seed`",
                         2: f"empty Voronoi cell for seed {seed}",
                         3: f"degenerate Voronoi cell for seed {seed}"}[status[c]])
    return pts, counts


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
    return _assemble_conforming(*_voronoi_loops(seeds, seeds), merge_tol=1e-7 / n)


def _assemble_conforming(pts, counts, merge_tol):
    """Merge padded cell loops (C, V, 2) with counts into one conforming mesh
    by fusing vertices that coincide within tolerance."""
    verts, index = _fuse(pts[np.arange(pts.shape[1]) < counts[:, None]], merge_tol)
    flat = index.tolist()
    ends = np.cumsum(counts).tolist()
    return build_topology(verts, [flat[e - m:e] for m, e in zip(counts.tolist(), ends)])


def _fuse(points, merge_tol):
    """Fused vertices of ``points`` (P, 2), and the vertex of each point.

    Points within ``merge_tol`` of each other, directly or through a chain
    of such points, become one vertex: the point of lowest index among
    them.  Vertices keep the order of those points.
    """
    # Buckets of side 2 merge_tol, so that a pair within merge_tol, rounding
    # included, lies in one bucket or in two adjacent ones.  Each point is
    # compared with the points after it in its column's sorted order up to
    # the bucket above its own, and with the three buckets of the next
    # column: every adjacent pair of buckets once.
    cells = np.floor(points / (2 * merge_tol))
    keys = _bucket_keys(cells)
    order = np.argsort(keys, kind="stable")
    keys, (col, row) = keys[order], cells[order].T
    lo = np.concatenate([np.arange(1, len(points) + 1),
                         np.searchsorted(keys, col + 1 + 1j * (row - 1), "left")])
    hi = np.concatenate([np.searchsorted(keys, col + 1j * (row + 1), "right"),
                         np.searchsorted(keys, col + 1 + 1j * (row + 1), "right")])
    first, second = _spread(lo, hi)
    first, second = order[first % len(points)], order[second]
    gap = points[first] - points[second]
    near = gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1] <= merge_tol * merge_tol
    first, second = first[near], second[near]
    # Propagate labels to a fixed point, where each point is labelled with
    # the lowest index of its cluster.
    label = np.arange(len(points))
    while True:
        low = np.minimum(label[first], label[second])
        new = label.copy()
        np.minimum.at(new, first, low)
        np.minimum.at(new, second, low)
        if np.array_equal(new, label):
            break
        label = new
    fused = label == np.arange(len(points))
    return points[fused], (np.cumsum(fused) - 1)[label]


def collapse_short_edges(mesh: Mesh, rel_tol: float) -> Mesh:
    """Remove every edge shorter than rel_tol * h_max by merging one of its
    endpoints into the other, repeatedly until none remain.

    The kept endpoint is the one incident to more cells (ties: lower
    index), which disturbs the least topology.  Raises if a merge would
    break convexity of a neighboring cell.
    """
    if not rel_tol > 0:  # also rejects NaN
        raise ValueError("rel_tol must be positive")
    current = mesh
    for _ in range(mesh.n_edges):
        ends = current.edges
        gap = current.vertices[ends[:, 0]] - current.vertices[ends[:, 1]]
        lengths = np.hypot(gap[:, 0], gap[:, 1])
        short = np.flatnonzero(lengths < rel_tol * current.h_max)
        if not len(short):
            return current
        # Shortest first, ties by edge index.
        short = short[np.argsort(lengths[short], kind="stable")]
        incidence = np.bincount(np.concatenate(current.cells), minlength=current.n_vertices)
        touched = set()
        mapping = np.arange(current.n_vertices)
        for a, b in ends[short].tolist():
            if a in touched or b in touched:
                continue
            keep, drop = (a, b) if (incidence[a], -a) >= (incidence[b], -b) else (b, a)
            mapping[drop] = keep
            touched.update((a, b))
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
        cells = [list(loop) for loop in payload["cells"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshError(f"bad mesh file {path}: {exc}") from None
    for index in (i for loop in cells for i in loop):
        if type(index) is not int:  # also rejects floats and booleans
            raise MeshError(f"bad mesh file {path}: vertex index {index!r} is not an integer")
    return build_topology(vertices, cells)
