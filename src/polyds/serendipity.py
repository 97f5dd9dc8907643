"""Nodal bases for direct serendipity spaces on convex polygons.

For an N-gon and index r >= N-2 the local space is the polynomials of
degree r plus one supplemental (rational) function per pair of nonadjacent
edges; the nodal basis is assembled from products of edge distance
functions, powers of pair-line functions, edge ratios, and 1D polynomials
along edges.  For 1 <= r < N-2 the space is carved out of a higher-order
space of background index s (default N-2) by restricting edge traces to
degree r.

Element construction is pure and a built element is immutable, so distinct
elements can be constructed and evaluated concurrently.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .functions import (
    AffinePower,
    AffineProduct,
    Constant,
    OneSidedRatio,
    Polynomial1D,
    Polynomial2D,
    ScalarCombination,
    ScalarProduct,
)
from .geometry import Polygon, _as_points, signed_distance_line

__all__ = [
    "ElementError",
    "NodeSet",
    "DSElement",
    "ds_dimension",
    "build_low_order",
    "build_low_order_supplement",
    "build_ds_element",
    "interpolate",
    "evaluate",
]

# Warn when the per-edge coefficient solve looks this ill conditioned;
# usually a symptom of a badly shaped element (small sigma).
CONDITION_WARN = 1e12


class ElementError(ValueError):
    """Element construction failed (degenerate input or singular system)."""


def ds_dimension(N: int, r: int) -> int:
    """Dimension of the degree-r direct serendipity space on an N-gon."""
    if N < 3 or r < 1:
        raise ValueError(f"need N >= 3 and r >= 1, got N={N}, r={r}")
    if r >= N - 2:
        return N * r + (r - N + 2) * (r - N + 1) // 2
    return N * r


def _interior_dim(N, r):
    return (r - N + 2) * (r - N + 1) // 2 if r >= N else 0


@dataclass(frozen=True)
class NodeSet:
    """Nodal points of one element, grouped and globally ordered.

    Ordering: the N vertices, then for each edge its r-1 interior points in
    CCW order, then the interior (cell) points.
    """

    vertices: np.ndarray
    edges: tuple
    interior: np.ndarray

    def all_points(self):
        parts = [self.vertices, *self.edges]
        if len(self.interior):
            parts.append(self.interior)
        return np.vstack(parts)

    @property
    def n_vertex(self):
        return len(self.vertices)

    @property
    def n_per_edge(self):
        return len(self.edges[0]) if self.edges else 0

    @property
    def n_interior(self):
        return len(self.interior)

    def __len__(self):
        return self.n_vertex + self.n_vertex * self.n_per_edge + self.n_interior


def _make_nodes(E: Polygon, r: int, interior):
    edge_nodes = tuple(
        E.edge_point(i, np.arange(1, r) / r).reshape(-1, 2)
        for i in range(E.n_edges)
    )
    return NodeSet(
        vertices=E.vertices.copy(),
        edges=edge_nodes,
        interior=np.asarray(interior, dtype=float).reshape(-1, 2),
    )


def _lagrange_1d(points):
    """Coefficient arrays of the 1D Lagrange basis on the given points."""
    points = np.asarray(points, dtype=float)
    out = []
    for j, tj in enumerate(points):
        roots = np.delete(points, j)
        den = np.prod(tj - roots)
        out.append(npoly.polyfromroots(roots) / den)
    return out


def _interior_triangle(E: Polygon):
    """A spread-out triangle strictly inside E for the cell Lagrange nodes."""
    N = E.n_edges
    c = E.centroid
    picks = [(m * N) // 3 for m in range(3)]
    return np.array([c + 0.5 * (E.vertices[k] - c) for k in picks])


def _triangle_lattice(tri, p):
    """Lagrange nodes of order p on a triangle (barycenter when p == 0)."""
    if p == 0:
        return tri.mean(axis=0).reshape(1, 2)
    pts = []
    for i in range(p + 1):
        for j in range(p + 1 - i):
            k = p - i - j
            pts.append((i * tri[0] + j * tri[1] + k * tri[2]) / p)
    return np.array(pts)


def _lagrange_2d(nodes, p, center, scale):
    """Nodal polynomial basis of total degree p on the given 2D nodes."""
    monos = [(a, b) for a in range(p + 1) for b in range(p + 1 - a)]
    u = (nodes[:, 0] - center[0]) / scale
    v = (nodes[:, 1] - center[1]) / scale
    V = np.column_stack([u**a * v**b for a, b in monos])
    try:
        inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise ElementError(f"interior Lagrange nodes are degenerate: {exc}") from None
    fns = []
    for col in inv.T:
        coeffs = np.zeros((p + 1, p + 1))
        for (a, b), c in zip(monos, col):
            coeffs[a, b] = c
        fns.append(Polynomial2D(center, scale, coeffs))
    return fns


class _HighOrderBuilder:
    """Stages of the nodal-basis construction for r >= N-2.

    Generators are ordered to match the node ordering: one per vertex (the
    product of the N-2 distance functions of edges not meeting the vertex),
    one per edge node (solved edge function), one per interior node
    (normalized bubble).  The nodal basis is a coefficient matrix over
    these generators.
    """

    def __init__(self, E: Polygon, r: int, pair_kind="midpoint"):
        N = E.n_edges
        if r < max(1, N - 2):
            raise ElementError(f"high-order path requires r >= N-2 (r={r}, N={N})")
        self.E = E
        self.r = r
        self.pair_kind = pair_kind
        self.N = N
        self.lam = E.edge_distances()
        self.power = r - N + 2
        self._pair_cache = {}
        self.nodes = _make_nodes(
            E, r, _triangle_lattice(_interior_triangle(E), r - N) if r >= N else np.empty((0, 2))
        )

    def pair_line(self, i, j):
        key = (min(i, j), max(i, j))
        if key not in self._pair_cache:
            self._pair_cache[key] = self.E.pair_line(*key, kind=self.pair_kind)
        return self._pair_cache[key]

    def one_sided(self, k, q):
        """Product factor that is 1 on edge k, vanishes on edge q."""
        factors = [
            AffineProduct([self.lam[m] for m in range(self.N) if m not in (k, q)])
        ]
        if self.power > 0:
            factors.append(AffinePower(self.pair_line(k, q), self.power))
        factors.append(OneSidedRatio(self.lam[k], self.lam[q]))
        return ScalarProduct(factors)

    def cell_generators(self):
        """Interior nodal functions: bubble times nodal polynomial, unit at node."""
        if self.r < self.N:
            return []
        pts = self.nodes.interior
        bubble = AffineProduct(self.lam)
        lag = _lagrange_2d(pts, self.r - self.N, self.E.centroid, self.E.diameter)
        fns = []
        for i, (pt, poly) in enumerate(zip(pts, lag)):
            raw = ScalarProduct([bubble, poly])
            fns.append(ScalarCombination([1.0 / raw(pt)], [raw]))
        return fns

    def edge_generators(self, k):
        """Solved edge functions for edge k: unit at their own node, zero at
        the other nodes of edge k, and vanishing on every other edge."""
        r, N, E = self.r, self.N, self.E
        if r < 2:
            return []
        lam = self.lam
        tnodes = np.arange(1, r) / r
        pts = E.edge_point(k, tnodes).reshape(-1, 2)
        adj = {(k - 1) % N, (k + 1) % N}
        far = [q for q in range(N) if q != k and q not in adj]

        base = AffineProduct([lam[m] for m in range(N) if m != k])
        pair_fns = [self.one_sided(k, q) for q in far]
        n_alpha = r - N + 2

        # Rows are scaled by the two adjacent distance functions, which are
        # positive at the edge's interior nodes.
        row_scale = 1.0 / (lam[(k - 1) % N](pts) * lam[(k + 1) % N](pts))
        cols = []
        base_vals = base(pts)
        for ell in range(n_alpha):
            cols.append(base_vals * tnodes**ell)
        for fn in pair_fns:
            cols.append(fn(pts))
        A = np.column_stack(cols) * row_scale[:, None]
        rhs = np.diag(row_scale)

        col_scale = np.abs(A).max(axis=0)
        col_scale[col_scale == 0] = 1.0
        try:
            sol = np.linalg.solve(A / col_scale, rhs) / col_scale[:, None]
        except np.linalg.LinAlgError as exc:
            raise ElementError(
                f"singular edge system on edge {k}: {exc}; "
                "check the pair-line choice and polygon shape"
            ) from None
        cond = np.linalg.cond(A / col_scale)
        if not np.isfinite(cond) or cond > CONDITION_WARN:
            warnings.warn(
                f"edge system on edge {k} has condition estimate {cond:.2e}; "
                "element may be badly shaped",
                stacklevel=2,
            )

        origin = E.vertices[k]
        tau = E.tangents[k]
        scale = E.edge_lengths[k]
        fns = []
        for j in range(r - 1):
            alphas = sol[:n_alpha, j]
            betas = sol[n_alpha:, j]
            parts = [ScalarProduct([base, Polynomial1D(origin, tau, scale, alphas)])] if n_alpha else []
            coeffs = [1.0] * len(parts) + list(betas)
            fns.append(ScalarCombination(coeffs, parts + pair_fns))
        return fns

    def vertex_generator(self, k):
        """Product of the N-2 distance functions of edges not meeting vertex k."""
        skip = {(k - 1) % self.N, k}
        return AffineProduct([self.lam[m] for m in range(self.N) if m not in skip])

    def build(self):
        N, r = self.N, self.r
        nodes = self.nodes
        gens = (
            [self.vertex_generator(k) for k in range(N)]
            + [fn for k in range(N) for fn in self.edge_generators(k)]
            + self.cell_generators()
        )
        D = len(nodes)
        if len(gens) != D:
            raise ElementError(f"generator count {len(gens)} != dimension {D}")

        gvals, _ = _generator_values(gens, nodes.all_points())

        n_e = r - 1
        o_edge = N
        o_cell = N + N * n_e
        C = np.zeros((D, D))
        C[o_cell:, o_cell:] = np.eye(nodes.n_interior)
        # Edge rows: remove interior-node values with the cell functions.
        for row in range(o_edge, o_cell):
            C[row, row] = 1.0
            C[row, o_cell:] -= gvals[row, o_cell:]
        # Vertex rows: remove edge-node values along the two incident edges,
        # then interior values, then normalize at the vertex itself.
        for k in range(N):
            row = np.zeros(D)
            row[k] = 1.0
            for a in ((k - 1) % N, k):
                for j in range(n_e):
                    col = o_edge + a * n_e + j
                    row -= gvals[k, col] * C[col]
            vals = row @ gvals
            row -= vals[o_cell:] @ C[o_cell:]
            C[k] = row / (row @ gvals[:, k])
        return DSElement(self.E, r, nodes, gens, C, pair_kind=self.pair_kind)


def _generator_values(generators, pts):
    """Values (G, M) and gradients (G, M, 2) of the generator fields at pts."""
    gv = np.empty((len(generators), len(pts)))
    gg = np.empty((len(generators), len(pts), 2))
    for g, fn in enumerate(generators):
        gv[g], gg[g] = fn.value_grad(pts)
    return gv, gg


class DSElement:
    """A direct serendipity element: node set plus complete nodal basis.

    The basis is stored as a coefficient matrix over shared generator
    fields, ordered like the nodes (vertex, edge, interior).  Instances are
    immutable after construction.
    """

    def __init__(self, polygon, r, nodes, generators, coeffs, *, pair_kind="midpoint",
                 background=None):
        self.polygon = polygon
        self.r = r
        self.nodes = nodes
        self.generators = list(generators)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.pair_kind = pair_kind
        self.background = background  # underlying element for the low-order path

    @property
    def dim(self):
        return len(self.coeffs)

    @property
    def n_generators(self):
        return len(self.generators)

    @property
    def background_order(self):
        return self.background.r if self.background is not None else None

    def eval_all(self, pts):
        """Values and gradients of every basis function.

        Returns ``(vals, grads)`` with shapes (dim, M) and (dim, M, 2).
        """
        pts = _as_points(pts)
        gv, gg = _generator_values(self.generators, pts)
        vals = self.coeffs @ gv
        grads = np.einsum("dg,gmk->dmk", self.coeffs, gg)
        return vals, grads

    def duality_matrix(self):
        vals, _ = self.eval_all(self.nodes.all_points())
        return vals

    def duality_residual(self):
        d = self.duality_matrix()
        return float(np.abs(d - np.eye(self.dim)).max())

    def debug_dump(self, path):
        """Write node coordinates and the duality residual as JSON."""
        payload = {
            "r": self.r,
            "dim": self.dim,
            "nodes": self.nodes.all_points().tolist(),
            "duality_residual": self.duality_residual(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def build_ds_element(E: Polygon, r: int, pair_kind="midpoint") -> DSElement:
    """Complete nodal basis of the degree-r space on E (either index range)."""
    if r < 1:
        raise ElementError(f"polynomial index must be >= 1, got {r}")
    if r >= E.n_edges - 2:
        return _HighOrderBuilder(E, r, pair_kind).build()
    return build_low_order(E, r, pair_kind=pair_kind)


def build_low_order(E: Polygon, r: int, s=None, pair_kind="midpoint") -> DSElement:
    """Element of index r < N-2 carved from a background element of index s.

    Edge traces of the result are polynomials of degree at most r even
    though the background functions have degree-s traces.
    """
    N = E.n_edges
    if s is None:
        s = N - 2
    if not 1 <= r < s < N:
        raise ElementError(f"need 1 <= r < s < N, got r={r}, s={s}, N={N}")
    if s < N - 2:
        raise ElementError(f"background index s={s} must be at least N-2={N - 2}")
    base = _HighOrderBuilder(E, s, pair_kind).build()

    # Values of the degree-r equispaced Lagrange basis at the degree-s nodes.
    lag = _lagrange_1d(np.arange(r + 1) / r)
    ts = np.arange(1, s) / s
    P = np.array([npoly.polyval(ts, c) for c in lag])  # (r+1, s-1)

    n_low = N * r
    T = np.zeros((n_low, base.dim))
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

    nodes = _make_nodes(E, r, np.empty((0, 2)))
    return DSElement(
        E, r, nodes, base.generators, T @ base.coeffs,
        pair_kind=pair_kind, background=base,
    )


@dataclass(frozen=True)
class LowOrderSupplement:
    """Node partition and explicit supplement for the low-order space.

    ``poly_nodes`` lists the nodes whose basis functions are completed from
    plain degree-r polynomials; ``supp_nodes`` lists the rest, carried by
    the supplemental (non-polynomial) functions.  Nodes are (edge, j) pairs
    with j in [1, r]; j == r means the end vertex of the edge.
    """

    poly_nodes: tuple
    supp_nodes: tuple
    completion: tuple
    supplement: tuple
    coords: np.ndarray
    batches: tuple  # (edge, node keys) per selection batch, sizes r+1 .. 1

    def all_functions(self):
        fns = dict(zip(self.poly_nodes, self.completion))
        fns.update(zip(self.supp_nodes, self.supplement))
        order = sorted(fns)
        return order, [fns[key] for key in order]


def _node_coord(E, r, key):
    a, j = key
    if j == r:
        return E.vertices[(a + 1) % E.n_edges]
    return E.edge_point(a, j / r)


def build_low_order_supplement(E: Polygon, r: int, s=None, pair_kind="midpoint"):
    """Split the low-order nodes into a polynomial set and a supplement set.

    The polynomial set is picked edge by edge in descending batch size
    (r+1, r, ..., 1 nodes); a vertex node is never taken from an edge
    chosen in an earlier batch.  The supplement functions are the nodal
    functions of the remaining nodes; the completion functions are plain
    degree-r polynomials corrected to be nodal on the full node set.
    """
    N = E.n_edges
    if not 1 <= r < N - 2:
        raise ElementError(f"low-order supplement needs 1 <= r < N-2, got r={r}, N={N}")
    elem = build_low_order(E, r, s, pair_kind=pair_kind)

    def canonical(a, j):
        # (a, 0) is the start vertex of edge a, i.e. the end vertex of a-1.
        return ((a - 1) % N, r) if j == 0 else (a, j)

    stages = []  # stage k: (edge, [node keys]) with k nodes, k = r+1 .. 1
    stages.append((r % N, [canonical(r % N, j) for j in range(r + 1)]))
    stages.append(((r - 1) % N, [canonical((r - 1) % N, j) for j in range(r)]))
    for k in range(r - 1, 0, -1):
        a = (k - 1) % N
        stages.append((a, [canonical(a, j) for j in range(1, k + 1)]))

    poly_nodes = [key for _, keys in stages for key in keys]
    if len(set(poly_nodes)) != (r + 2) * (r + 1) // 2:
        raise ElementError("polynomial node selection is infeasible")
    all_keys = [(a, j) for a in range(N) for j in range(1, r + 1)]
    supp_nodes = [key for key in all_keys if key not in set(poly_nodes)]

    # Nodal functions (from the background construction) for the supplement.
    def nodal_fn(key):
        a, j = key
        if j == r:
            row = (a + 1) % N
        else:
            row = N + a * (r - 1) + (j - 1)
        return ScalarCombination(elem.coeffs[row], elem.generators)

    supplement = [nodal_fn(key) for key in supp_nodes]
    supp_coords = np.array([_node_coord(E, r, key) for key in supp_nodes]).reshape(-1, 2)

    lam = E.edge_distances()
    stage_edges = [a for a, _ in stages]
    stage_coords = [
        np.array([_node_coord(E, r, key) for key in keys]) for _, keys in stages
    ]
    anchor = stage_coords[-1][0]  # the single node of the last (k=1) stage

    completion = {}
    built_rows = []  # (key, fn) in build order for cross-corrections
    # Build in ascending batch size: k = 1 first.
    for k in range(1, r + 2):
        stage = len(stages) - k  # stages list is descending in k
        _, keys = stages[stage]
        coords = stage_coords[stage]
        new_fns = []
        for ell, key in enumerate(keys):
            # Lines through the anchor and the other same-batch nodes kill
            # those nodes (and the anchor); the remaining larger batches are
            # killed by their edge distance functions.
            factors = []
            for m in range(len(keys)):
                if m == ell:
                    continue
                line = signed_distance_line(anchor, coords[m])
                factors.append(
                    ScalarCombination([1.0 / line(coords[ell])], [AffinePower(line, 1)])
                )
            for later in range(k + 1, r + 2):
                lam_m = lam[stage_edges[len(stages) - later]]
                factors.append(
                    ScalarCombination([1.0 / lam_m(coords[ell])], [AffinePower(lam_m, 1)])
                )
            phi = ScalarProduct(factors) if factors else Constant(1.0)
            corr_fns = [phi]
            corr_coeffs = [1.0]
            if len(supp_nodes):
                vals = phi(supp_coords)
                corr_fns.extend(supplement)
                corr_coeffs.extend(-vals)
            for prev_key, prev_fn in built_rows:
                corr_fns.append(prev_fn)
                corr_coeffs.append(-float(phi(_node_coord(E, r, prev_key)[None, :])[0]))
            fn = ScalarCombination(corr_coeffs, corr_fns)
            completion[key] = fn
            new_fns.append((key, fn))
        built_rows.extend(new_fns)

    return LowOrderSupplement(
        poly_nodes=tuple(poly_nodes),
        supp_nodes=tuple(supp_nodes),
        completion=tuple(completion[key] for key in poly_nodes),
        supplement=tuple(supplement),
        coords=np.array(
            [_node_coord(E, r, key) for key in [*poly_nodes, *supp_nodes]]
        ),
        batches=tuple((a, tuple(keys)) for a, keys in stages),
    )


def interpolate(elem: DSElement, f):
    """Nodal interpolation coefficients: f evaluated at the element nodes."""
    pts = elem.nodes.all_points()
    return np.asarray(f(pts), dtype=float)


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
