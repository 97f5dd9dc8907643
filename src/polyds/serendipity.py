"""Nodal bases for direct serendipity spaces on convex polygons.

For an N-gon and index r >= N-2 the local space is the polynomials of
degree r plus one supplemental (rational) function per pair of nonadjacent
edges; the nodal basis is a coefficient matrix over one ``PowerTable`` of
products of integer powers of affine functions (edge distance functions,
pair lines, one-sided edge ratios, edge and frame coordinates); the
pair line of two edges is the line through their midpoints.  For
1 <= r < N-2 the space is carved out of the space of index s = N-2 by
restricting edge traces to degree r.

Each element is built on its cell's frame x^ = (x - c) / h, with c the
centroid and h the diameter, a similarity that leaves the space as it
is: the frame is a ``Polygon``, the cell moved there by ``_frame``, the
one place that chooses c and h; ``_frame_points`` and ``_build_nodal`` map
points with that c and h.  The element's polygon and nodes stay physical:
``eval_all`` maps the points once and divides the frame gradients by h.

Every decision of the construction that depends only on (N, r) is one
cached read-only table: the terms (``_term_layout``), the nodes as
weights over the polygon's vertices (``_node_weights``), and the map that
carves index r out of a background index s (``_carving_matrix``, per
(N, r, s); the mixed element's vertex ramps are its index-1 case).  Per
cell, ``_build_nodal`` computes the K affine functions as (K, 2) gradient
and (K,) offset arrays and the nodes from the frame's arrays, and the
nodal basis is the dual of the nodes: one inverse of the matrix of
generator values at the nodes.  Elements of one (N, r) share their terms,
so ``_eval_stacked`` evaluates many of them in one stacked pass over their
frames and affines, for their bases or for the curl rows of mixed elements
(``mixed._eval_mixed``); ``eval_all`` is its case of one element.

Element construction is pure (the cached layouts are read-only) and a
built element is immutable, so distinct elements can be constructed and
evaluated concurrently.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .functions import PowerTable, _capped_matmul
from .geometry import Polygon, _as_points, _frozen, _similar, nonadjacent_pairs

__all__ = [
    "ElementError",
    "DSElement",
    "ds_dimension",
    "build_low_order",
    "build_ds_element",
    "interpolate",
    "evaluate",
]

# Warn when the built basis misses nodal duality by more than this, read at
# the physical nodes as ``eval_all`` reads them.  Regular cells reach about
# 1e-12; on sliver cells the rounding of the frame map is amplified by the
# large coefficients, though the inverse is exact at the frame nodes.
DUALITY_WARN = 1e-8


class ElementError(ValueError):
    """Element construction failed (degenerate input or singular system)."""


def ds_dimension(N: int, r: int) -> int:
    """Dimension of the degree-r direct serendipity space on an N-gon."""
    if N < 3 or r < 1:
        raise ValueError(f"need N >= 3 and r >= 1, got N={N}, r={r}")
    if r >= N - 2:
        return N * r + (r - N + 2) * (r - N + 1) // 2
    return N * r


def _edge_parameters(r: int):
    """The parameters j / r, j = 0..r, of the index-r nodes along any edge."""
    return np.arange(r + 1) / r


def _frame(E: Polygon) -> Polygon:
    """E moved to its frame: c its centroid, h its diameter."""
    return _similar(E, E.centroid, E.diameter)


def _frame_points(polygons, pts):
    """Points pts (C, M, 2) of C polygons moved to their frames, x^ = (x - c)
    / h with c and h as in ``_frame``; and h (C, 1, 1)."""
    h = np.array([E.diameter for E in polygons])[:, None, None]
    return (pts - np.array([E.centroid for E in polygons])[:, None]) / h, h


def _lagrange_1d(points):
    """Coefficient arrays of the 1D Lagrange basis on the given points."""
    points = np.asarray(points, dtype=float)
    out = []
    for j, tj in enumerate(points):
        roots = np.delete(points, j)
        den = np.prod(tj - roots)
        out.append(npoly.polyfromroots(roots) / den)
    return out


def _monomials(p):
    """Exponents (a, b) of u**a v**b, total degree at most p."""
    return [(a, b) for a in range(p + 1) for b in range(p + 1 - a)]


class _TermLayout(NamedTuple):
    """What the index-r construction on an N-gon shares across cells."""

    table: PowerTable  # the terms; see _term_layout
    pairs: np.ndarray  # (2, P): the nonadjacent edge pairs i < j


@lru_cache(maxsize=None)
def _term_layout(N: int, r: int) -> _TermLayout:
    """Generator terms of the index-r space on an N-gon, r >= N-2.

    The table's affine columns are, in order, the N edge distances lam_k,
    the P pair sums lam_i + lam_j, then (if r > N-2) the P pair lines and
    the N edge coordinates, then (if r >= N) the frame coordinates u
    and v.  A cell evaluates the table over its own affines (``_affines``).

    With base_k the product of the edge distances of all edges but k, the
    terms are, in node order: per vertex k, the product of the N-2 edge
    distances of edges not meeting it; per edge k, base_k t_k**l for
    l < r-N+2 (t_k the edge coordinate) and base_k pair**(r-N+2) /
    (lam_k + lam_q) per edge q not adjacent to k; per interior node,
    bubble u**a v**b.  All arrays are read-only.
    """
    power = r - N + 2
    pairs = np.array(nonadjacent_pairs(N), dtype=int).reshape(-1, 2)
    P = len(pairs)
    pair_of = {}
    for p, (i, j) in enumerate(pairs.tolist()):
        pair_of[i, j] = pair_of[j, i] = p
    lines, coords = N + P, N + 2 * P
    K = N + P + (P + N if power > 0 else 0) + (2 if r >= N else 0)

    rows = []
    for k in range(N):
        row = np.zeros(K, dtype=int)
        row[:N] = 1
        row[[(k - 1) % N, k]] = 0
        rows.append(row)
    for k in range(N):
        base = np.zeros(K, dtype=int)
        base[:N] = 1
        base[k] = 0
        for ell in range(power):
            rows.append(base.copy())
            rows[-1][coords + k] = ell
        for q in range(N):
            if (k, q) in pair_of:
                rows.append(base.copy())
                rows[-1][N + pair_of[k, q]] = -1
                if power > 0:
                    rows[-1][lines + pair_of[k, q]] = power
    for a, b in _monomials(r - N) if r >= N else ():
        rows.append(np.zeros(K, dtype=int))
        rows[-1][:N] = 1
        rows[-1][K - 2:] = a, b
    return _TermLayout(PowerTable(np.array(rows).reshape(-1, K)), _frozen(pairs.T.copy()))


@lru_cache(maxsize=None)
def _node_weights(N: int, r: int):
    """Read-only (D, N) weights of the index-r nodes of an N-gon over its
    vertices, in node order: the vertices, per edge k its r-1 points
    (1 - t) v_k + t v_k+1, t = j / r, then (r >= N) the order-(r-N) Lagrange
    lattice of the triangle on half of vertices 0, N//3 and 2N//3 (its
    barycenter at r = N), inside the polygon when the centroid is 0."""
    t = _edge_parameters(r)[1:-1]
    k = np.arange(N)[:, None]
    edges = np.zeros((N, r - 1, N))
    edges[k, np.arange(r - 1), k] = 1.0 - t
    edges[k, np.arange(r - 1), (k + 1) % N] = t
    p = r - N
    lattice = (np.array([(i, j, p - i - j) for i, j in _monomials(p)]) / p
               if p > 0 else np.full((int(p == 0), 3), 1 / 3))
    interior = np.zeros((len(lattice), N))
    interior[:, [0, N // 3, 2 * N // 3]] = 0.5 * lattice
    return _frozen(np.concatenate([np.eye(N), edges.reshape(-1, N), interior]))


def _affines(F: Polygon, r: int, pairs):
    """Gradients (K, 2) and offsets (K,) on the frame F of the affines of
    the term layout of index r with nonadjacent pairs ``pairs`` (2, P)."""
    N = F.n_edges
    i, j = pairs
    grads = [-F.normals, -(F.normals[i] + F.normals[j])]
    offsets = [F.edge_offsets, F.edge_offsets[i] + F.edge_offsets[j]]
    if r > N - 2:
        line_grads, line_offsets = F.pair_lines(i, j)
        tau = F.tangents / F.edge_lengths[:, None]
        grads += [line_grads, tau]
        offsets += [line_offsets, -(F.vertices * tau).sum(axis=1)]
    if r >= N:
        grads.append(np.eye(2))
        offsets.append(np.zeros(2))
    return np.concatenate(grads), np.concatenate(offsets)


def _build_nodal(E: Polygon, r: int) -> DSElement:
    """The nodal basis of index r >= N-2 on E.

    Every generator is one term of the ``PowerTable`` of ``_term_layout(N,
    r)`` over the affines of E's frame, ordered to match the nodes.  The
    basis is the coefficient matrix C = V^-1 over the table, with V[g, j]
    the value of generator g at frame node j.  The physical nodes are the
    frame nodes mapped back, except the vertices, which stay E's own.
    """
    N, F = E.n_edges, _frame(E)
    layout = _term_layout(N, r)
    affines = _affines(F, r, layout.pairs)
    frame_nodes = _node_weights(N, r) @ F.vertices
    points = E.centroid + E.diameter * frame_nodes
    points[:N] = E.vertices
    D = len(points)
    # One evaluation at the frame nodes, which give V, and at the physical
    # nodes mapped as ``_frame_points`` maps them, where duality is read.
    moved = (points - E.centroid) / E.diameter
    vals = layout.table.values(*affines, np.concatenate([frame_nodes, moved]))
    tvals = vals[:, :D]
    # Each generator (row) is scaled by its largest value at the nodes; one
    # that vanishes at every node keeps scale 1 and leaves V singular.
    s = np.abs(tvals).max(axis=1)
    s[s == 0] = 1.0
    try:
        C = np.linalg.inv(tvals / s[:, None]) / s
    except np.linalg.LinAlgError as exc:
        raise ElementError(f"singular nodal system: {exc}; check the polygon shape") from None
    residual = C @ vals[:, D:]
    residual.flat[:: D + 1] -= 1.0
    duality = np.abs(residual).max()
    if not duality <= DUALITY_WARN:
        warnings.warn(
            f"nodal duality residual {duality:.2e} exceeds {DUALITY_WARN:g}; "
            "element may be badly shaped",
            stacklevel=2,
        )
    return DSElement(E, r, points, layout.table, affines, C, F)


class DSElement:
    """A direct serendipity element: its nodes and complete nodal basis.

    ``nodes`` is the (D, 2) array of physical nodes in node order: the N
    vertices, then each edge's r-1 points in CCW order, then the interior
    points.  The basis is stored as a coefficient matrix over the terms of
    the ``PowerTable`` ``table``, which every element of its (N, r)
    shares, evaluated over ``affines``: the (K, 2) gradients and (K,)
    offsets of the polygon's affine functions on its ``frame``.  Rows are
    ordered like the nodes.  Instances are immutable after construction;
    ``nodes``, ``affines`` and ``coeffs`` are read-only.
    """

    def __init__(self, polygon, r, nodes, table, affines, coeffs, frame):
        self.polygon = polygon
        self.frame = frame
        self.r = r
        self.nodes = _frozen(nodes)
        self.table = table
        self.affines = tuple(map(_frozen, affines))
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.coeffs.flags.writeable = False

    @property
    def dim(self):
        return len(self.coeffs)

    @property
    def n_generators(self):
        return len(self.table)

    def eval_all(self, pts):
        """Values and gradients of every basis function.

        Returns ``(vals, grads)`` with shapes (dim, M) and (dim, M, 2).
        """
        vals, grads = _eval_stacked([self], _as_points(pts)[None], self.coeffs[None])
        return vals[0], grads[0]


# Largest factor array, in doubles (classes x F x G x M), of one pass of a
# stacked evaluation; each temporary of the pass has that size, 128 KB.
# A class whose own F x G x M is larger runs alone in its pass, and that
# pass's temporaries are larger: on the hex-dominant mesh at r=4 every
# class is, and hexagons have 6 x 24 x 294 = 42,336 doubles (331 KB) with
# the assembly rule and 6 x 24 x 384 = 55,296 (432 KB) with the error
# rule.  A larger pass shares numpy's per-call overhead among more classes,
# but each class costs more.  Quads at r=2 have 4 x 8 x 36 = 1,152 doubles
# with the assembly rule (14 classes a pass) and 4 x 8 x 49 = 1,568 with the
# error rule (10).  Evaluating all 1024 classes of the perturbed-quad n=32
# mesh (2-core host, best of 9, 3 processes) took 20-28 ms at 2**13, 21-26
# ms at 2**14 and 22-30 ms at 2**15 with the assembly rule, and 32-41, 26-33
# and 26-33 ms with the error rule; 2**12 and 2**16 were slower for both.
# The budget, not ``assembly.CHUNK_CELLS``, bounds memory at high r on
# meshes whose cells are all distinct: with one pass per block, primal r=6
# on the perturbed-quad n=16 mesh peaked at 131.7 MB instead of 84.6 MB.
EVAL_BUDGET = 2**14


def _eval_stacked(elems, pts, coeffs):
    """Values (C, D, M) and gradients (C, D, M, 2) of the combinations
    ``coeffs`` (C, D, G) of the generators of C elements with one term table
    (equal N and r), each at its own physical points ``pts[c]`` (C, M, 2):
    their bases, or the curl rows of mixed elements (``mixed._eval_mixed``).

    Their frames and affines are stacked once, and the table is evaluated
    over slices of the stacks in passes of at most ``EVAL_BUDGET`` factor
    entries.
    """
    C, M = pts.shape[:2]
    table, D = elems[0].table, coeffs.shape[1]
    x, scale = _frame_points([e.polygon for e in elems], pts)
    affine_grads, affine_offsets = (np.stack(a) for a in zip(*(e.affines for e in elems)))
    step = max(1, EVAL_BUDGET // (table.n_factors * len(table) * max(M, 1)))
    vals, grads = np.empty((C, D, M)), np.empty((C, D, M, 2))
    for i in range(0, C, step):
        part = slice(i, i + step)
        gv, gg = table.value_grad(affine_grads[part], affine_offsets[part], x[part])
        vals[part] = _capped_matmul(coeffs[part], gv)
        grads[part] = _capped_matmul(coeffs[part] / scale[part], gg.reshape(*gv.shape[:2], -1)
                                     ).reshape(len(gv), D, M, 2)
    return vals, grads


def build_ds_element(E: Polygon, r: int) -> DSElement:
    """Complete nodal basis of the degree-r space on E (either index range)."""
    if r < 1:
        raise ElementError(f"polynomial index must be >= 1, got {r}")
    if r >= E.n_edges - 2:
        return _build_nodal(E, r)
    return build_low_order(E, r)


def build_low_order(E: Polygon, r: int) -> DSElement:
    """Element of index r < N-2 carved from the background element of
    index s = N-2.

    Edge traces of the result are polynomials of degree at most r even
    though the background functions have degree-s traces.
    """
    N = E.n_edges
    s = N - 2
    if not 1 <= r < s:
        raise ElementError(f"need 1 <= r < N-2, got r={r}, N={N}")
    base = _build_nodal(E, s)
    return DSElement(E, r, _node_weights(N, r) @ E.vertices, base.table, base.affines,
                     _carving_matrix(N, r, s) @ base.coeffs, base.frame)


@lru_cache(maxsize=None)
def _carving_matrix(N: int, r: int, s: int):
    """Read-only (N r, dim) map from the index-s nodal basis on an N-gon
    to the vertex and edge functions of the index-r one, r <= s: each new
    function is the background combination with the degree-r Lagrange
    trace on its edges (the columns of the interior functions are zero)."""
    # Values of the degree-r equispaced Lagrange basis at the degree-s nodes.
    lag = _lagrange_1d(_edge_parameters(r))
    P = np.array([npoly.polyval(_edge_parameters(s)[1:-1], c) for c in lag])  # (r+1, s-1)

    T = np.zeros((N * r, ds_dimension(N, s)))
    erow = lambda a, ell: N + a * (s - 1) + (ell - 1)
    for k in range(N):
        T[k, k] = 1.0
        for ell in range(1, s):
            T[k, erow((k - 1) % N, ell)] += P[r, ell - 1]
            T[k, erow(k, ell)] += P[0, ell - 1]
    for a in range(N):
        for j in range(1, r):
            row = N + a * (r - 1) + (j - 1)
            for ell in range(1, s):
                T[row, erow(a, ell)] = P[j, ell - 1]
    return _frozen(T)


def interpolate(elem: DSElement, f):
    """Nodal interpolation coefficients: f evaluated at the element nodes,
    (D, 2) -> (D,)."""
    vals = np.asarray(f(elem.nodes), dtype=float)
    if vals.shape != (elem.dim,):
        raise ValueError(f"f must map the {elem.dim} nodes to shape ({elem.dim},), "
                         f"got shape {vals.shape}")
    return vals


def evaluate(elem: DSElement, coeffs, pts):
    """Value and gradient of the coefficient-weighted basis combination."""
    pts2 = _as_points(pts)
    vals, grads = elem.eval_all(pts2)
    coeffs = np.asarray(coeffs, dtype=float)
    v = coeffs @ vals
    g = np.einsum("d,dmk->mk", coeffs, grads)
    if np.ndim(pts) == 1:
        return v[0], g[0]
    return v, g
