"""Shared test utilities: random convex polygons, crafted meshes and oracles."""

import json
import math
import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import legendre as nleg
from numpy.polynomial import polynomial as npoly
from scipy.spatial import cKDTree
from scipy.special import roots_jacobi, roots_legendre

import polyds
from polyds.assembly import _local_inverses
from polyds.functions import PowerTable
from polyds.geometry import (AffineScalar, GeometryError, Polygon, _regularity_rho,
                             nonadjacent_pairs)
from polyds.mesh import MeshError, _voronoi_loops, build_topology
from polyds.mixed import _fan_areas, _pressure_terms, build_mixed_element, mixed_dimension
from polyds.quadrature import QuadRule, edge_rule, polygon_rule
from polyds.serendipity import ElementError, build_ds_element, ds_dimension

# Subprocesses import polyds from the same source tree as the tests do.
SOURCE_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(polyds.__file__).parents[1]), os.environ.get("PYTHONPATH")])
))

# The array attributes of a Polygon.
POLYGON_ARRAYS = ("vertices", "edge_lengths", "tangents", "normals", "centroid", "edge_offsets")


def shape_regularity(E):
    """Shape regularity sigma = rho / h of one polygon, from the stacked
    formula that ``mesh_stats`` runs over groups of cells."""
    return float(_regularity_rho(E.vertices[None])[0]) / E.diameter


def random_convex_polygon(n, rng, min_sigma=0.15, max_tries=5000):
    """Strictly convex N-gon with shape regularity at least ``min_sigma``.

    Vertices sit at jittered equispaced angles with random radii, which
    keeps rejection rates low for every N.  Note the attainable sigma
    shrinks with N (a regular octagon has sigma ~ 0.28).
    """
    # Jitter shrinks with n: distortion costs much more regularity on
    # many-edged polygons (a regular octagon only has sigma ~ 0.28).
    spread, rlo = {3: (0.3, 0.4), 4: (0.3, 0.5), 5: (0.3, 0.55),
                   6: (0.2, 0.7)}.get(n, (0.15, 0.8))
    for _ in range(max_tries):
        ang = 2.0 * np.pi * (np.arange(n) + rng.uniform(0.5 - spread, 0.5 + spread, n)) / n
        rad = rng.uniform(rlo, 1.0, n)
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        try:
            poly = Polygon(pts)
        except GeometryError:
            continue
        if shape_regularity(poly) >= min_sigma:
            return poly
    raise RuntimeError(f"no {n}-gon with sigma >= {min_sigma} in {max_tries} tries")


def near_regular_polygon(n, rng, jitter=0.05):
    """Mild random distortion of the regular N-gon."""
    while True:
        ang = 2.0 * np.pi * (np.arange(n) + rng.uniform(-jitter, jitter, n)) / n
        rad = rng.uniform(1 - jitter, 1 + jitter, n)
        try:
            return Polygon(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))
        except GeometryError:
            continue


def edge_point(poly, i, t):
    """Point at normalized arclength t in [0, 1] along edge i."""
    v = poly.vertices
    return v[i] + np.multiply.outer(np.asarray(t, dtype=float), v[(i + 1) % poly.n_edges] - v[i])


def frame_polygon(poly):
    """The polygon moved and scaled to its own frame x^ = (x - c) / h, as a
    new ``Polygon`` (oracle geometry for the frame arrays of the builders)."""
    return Polygon((poly.vertices - poly.centroid) / poly.diameter)


def frame_arrays(poly):
    """Vertices, edge lengths and edge offsets of the frame of ``poly``,
    each by its own formula from the polygon's arrays (oracle for the
    frame polygon of ``polyds.serendipity._frame``, bit for bit)."""
    c, h = poly.centroid, poly.diameter
    return ((poly.vertices - c) / h, poly.edge_lengths / h,
            (poly.edge_offsets - poly.normals @ c) / h)


def node_points(vertices, r):
    """The index-r nodes of a polygon with these vertices, frame or physical,
    formula by formula (oracle for ``polyds.serendipity._node_weights``):
    the vertices, per edge v + t (w - v) for t = j / r, j = 1..r-1, then
    (r >= N) the order-(r-N) Lagrange lattice of the triangle on half of
    vertices 0, N//3 and 2N//3, or its barycenter when r = N."""
    v = np.asarray(vertices, dtype=float)
    N, p = len(v), r - len(v)
    t = np.arange(1, r) / r
    edges = v[:, None] + t[:, None] * (np.roll(v, -1, axis=0) - v)[:, None]
    tri = 0.5 * v[[(m * N) // 3 for m in range(3)]]
    if p > 0:
        interior = np.array([(i * tri[0] + j * tri[1] + (p - i - j) * tri[2]) / p
                             for i in range(p + 1) for j in range(p + 1 - i)])
    elif p == 0:
        interior = tri.mean(axis=0)[None]
    else:
        interior = np.empty((0, 2))
    return np.concatenate([v, edges.reshape(-1, 2), interior])


def vertex_ramp_weights(N, order):
    """(N, dim) weights over the index-``order`` nodal basis of an N-gon of
    the vertex ramps: the trace of ramp k runs linearly 0 -> 1 along edge
    k-1 and 1 -> 0 along edge k, and vanishes on every other edge; node j
    of edge k is basis function N + k (order-1) + j-1 (oracle for the
    index-1 carving that the mixed element's constant fluxes read)."""
    k = np.arange(N)
    w = np.arange(1, order) / order
    weights = np.zeros((N, ds_dimension(N, order)))
    weights[k, k] = 1.0
    edge_node = N + (order - 1) * k[:, None] + np.arange(order - 1)
    weights[k[:, None], edge_node[k - 1]] = w
    weights[k[:, None], edge_node] = 1.0 - w
    return weights


def pressure_monomials(poly, s, pts):
    """Values (P, M) and gradients (P, M, 2) at physical points pts (M, 2) of
    the pressures of degree s: the monomials u**a v**b of u = (x - c_x) / h
    and v = (y - c_y) / h, ordered by degree (the first is the constant)."""
    h = poly.diameter
    return _pressure_terms(s).value_grad(np.eye(2) / h, -poly.centroid / h, pts)


def duality_residual(elem):
    """Largest deviation of a scalar element's basis from nodal duality."""
    vals, _ = elem.eval_all(elem.nodes)
    return float(np.abs(vals - np.eye(elem.dim)).max())


def dof_layout(N, r, s):
    """Descriptors of the index-(r, s) mixed basis on an N-gon, in basis
    order: per edge k (CCW) ("edge", k, 0) for its constant-flux function
    and ("edge", k, j), j = 1..r, for its moment functions, then ("div", i)
    per nonconstant pressure, then ("bubble", i) per interior function of
    the scalar space of index r+1."""
    n_div = (s + 2) * (s + 1) // 2 - 1
    n_bubble = ds_dimension(N, r + 1) - N * (r + 1)
    return ([("edge", k, j) for k in range(N) for j in range(r + 1)]
            + [("div", i) for i in range(n_div)]
            + [("bubble", i) for i in range(n_bubble)])


def element_layout(elem):
    """``dof_layout`` of a mixed element."""
    return dof_layout(elem.polygon.n_edges, elem.r, elem.s)


def layout_index(elem, key):
    """Index of the basis function of a mixed element with this layout key."""
    return element_layout(elem).index(key)


def contains(poly, pts, tol=None):
    """Boolean mask of points inside the closed polygon (tolerance in h)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if tol is None:
        tol = 1e-12 * poly.diameter
    return (poly.edge_offsets - pts @ poly.normals.T >= -tol).all(axis=1)


def scaled(poly, factor, about=None):
    """A copy of the polygon scaled by ``factor`` about ``about`` (default:
    centroid)."""
    if about is None:
        about = poly.centroid
    about = np.asarray(about, dtype=float)
    return Polygon(about + factor * (poly.vertices - about))


def integrate(rule, f):
    """Integral by a polygon or edge rule of ``f``, given as a callable on
    (M, 2) points or as values."""
    vals = f(rule.points) if callable(f) else np.asarray(f)
    return float(rule.weights @ vals)


def fan_rule(poly, degree):
    """Centroid-fan rule on any convex polygon, exact to ``degree``: on each
    triangle (centroid, v_i, v_i+1) a collapsed tensor rule, Gauss-Legendre
    along the edge and Gauss-Jacobi with weight (1 - x) towards it, which
    absorbs the Jacobian of the collapse exactly."""
    m = (degree + 2) // 2
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    xl, wl = roots_legendre(m)
    # On [0, 1] the Jacobi weight (1 - x) picks up a factor 1/2.
    u, s = np.meshgrid(0.5 * (xj + 1.0), 0.5 * (xl + 1.0), indexing="ij")
    ref_pts = np.column_stack([u.ravel(), (s * (1.0 - u)).ravel()])
    ref_wts = np.outer(0.25 * wj, 0.5 * wl).ravel()
    c = poly.centroid
    a = poly.vertices - c
    b = np.roll(a, -1, axis=0)
    jac = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    pts = c + ref_pts[:, :1] * a[:, None] + ref_pts[:, 1:] * b[:, None]
    return QuadRule(points=pts.reshape(-1, 2), weights=(ref_wts * jac[:, None]).ravel())


def gradient_fd(field, pts, h):
    """Central finite-difference gradient of a scalar field."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (field(pts + ex) - field(pts - ex)) / (2 * h)
    gy = (field(pts + ey) - field(pts - ey)) / (2 * h)
    return np.column_stack([gx, gy])


def divergence_fd(field, pts, h):
    """Central finite-difference divergence of a vector field."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    dx = (field(pts + ex)[:, 0] - field(pts - ex)[:, 0]) / (2 * h)
    dy = (field(pts + ey)[:, 1] - field(pts - ey)[:, 1]) / (2 * h)
    return dx + dy


def interior_points(poly, rng, count):
    """Random points strictly inside the polygon (rejection sampling)."""
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    out = []
    while len(out) < count:
        cand = rng.uniform(lo, hi, size=(4 * count, 2))
        cand = cand[contains(poly, cand, tol=-1e-9 * poly.diameter)]
        out.extend(cand.tolist())
    return np.asarray(out[:count])


def shared_edge_pair(rng):
    """Two convex polygons sharing the edge from (1,0) to (1,1)."""
    left = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    x = rng.uniform(1.6, 2.2)
    right = Polygon([(1, 0), (x, rng.uniform(-0.2, 0.2)),
                     (x + 0.2, rng.uniform(0.9, 1.3)), (1, 1)])
    return left, right


def sliver_mesh(eps_rel=1e-3):
    """2x2 quad mesh with the center vertex split into a short diagonal edge.

    The short edge has length ``eps_rel`` times the largest cell diameter;
    two cells become pentagons containing the sliver.
    """
    h = 0.5 * 2**0.5
    eps = eps_rel * h
    d = eps / (2.0 * 2**0.5)
    v1 = (0.5 - d, 0.5 - d)
    v2 = (0.5 + d, 0.5 + d)
    verts = [(0, 0), (0.5, 0), (1, 0), (1, 0.5), (1, 1),
             (0.5, 1), (0, 1), (0, 0.5), v1, v2]
    cells = [[0, 1, 8, 7], [1, 2, 3, 9, 8], [7, 8, 9, 5, 6], [9, 3, 4, 5]]
    return build_topology(verts, cells)


def truncated_hexagon(eps=1e-6):
    """Single-cell mesh: a pentagon with one corner cut into a tiny edge."""
    base = np.array([(0, 0), (1, 0), (1.5, 0.9), (0.9, 1.7), (0.0, 1.6)])
    d2 = base[2] - base[3]
    d4 = base[4] - base[3]
    d2 /= np.linalg.norm(d2)
    d4 /= np.linalg.norm(d4)
    verts = np.vstack([base[:3], base[3] + eps * d2, base[3] + eps * d4, base[4:]])
    return build_topology(verts, [[0, 1, 2, 3, 4, 5]])


def write_with_stray_vertex(mesh, path):
    """Write ``mesh`` as mesh JSON with one more vertex, at (0.5, 0.501),
    that no cell uses (``build_topology`` rejects such a file)."""
    payload = {"vertices": mesh.vertices.tolist() + [[0.5, 0.501]], "cells": mesh.cells}
    Path(path).write_text(json.dumps(payload))


def edge_distances(E):
    """The N edge distance functions of E as AffineScalar objects, read
    from the polygon's ``normals`` and ``edge_offsets``."""
    return [AffineScalar(g, o) for g, o in zip(-E.normals, E.edge_offsets)]


def line_through(y1, y2):
    """Unit-gradient AffineScalar vanishing on the line through y1 and y2,
    negative on the right of the travel direction y1 -> y2, written out
    component by component (oracle for ``polyds.geometry.distance_lines``)."""
    (x1, z1), (x2, z2) = y1, y2
    length = math.hypot(x2 - x1, z2 - z1)
    nu = ((z2 - z1) / length, -(x2 - x1) / length)  # unit normal, right of travel
    return AffineScalar((-nu[0], -nu[1]), x2 * nu[0] + z2 * nu[1])


def constant_flux_coefficients(E):
    """Cancellation constants (N, N-2) of the constant-flux functions:
    the fan areas of ``polyds.mixed._fan_areas``, row k, entry m, over the
    length of edge k+3+m (mod N)."""
    N = E.n_edges
    edge = (np.arange(N)[:, None] + np.arange(3, N + 1)) % N
    return _fan_areas(E) / E.edge_lengths[edge]


def constant_flux_coefficients_per_edge(E, k):
    """Cancellation constants of the constant-flux function of edge k, by
    the edge-by-edge recurrence with scalar loops (oracle for row k of
    ``constant_flux_coefficients``): entry m is the distance of vertex
    k+2 to edge k+3+m plus the length ratio of edges k+2+m and k+3+m times
    entry m-1."""
    N = E.n_edges
    lam = edge_distances(E)
    lengths = E.edge_lengths
    anchor = E.vertices[(k + 2) % N]
    out = []
    prev = 0.0
    for m in range(k + 3, k + N + 1):
        em = m % N
        prev = float(lam[em](anchor)) + (lengths[(m - 1) % N] / lengths[em]) * prev
        out.append(prev)
    return np.asarray(out)


def mixed_rows_per_edge(E, r, s):
    """Rows of the index-(r, s) mixed element on E, built edge by edge and
    row by row with scalar loops on the frame polygon of E (oracle for the
    stacked rows of ``polyds.mixed.build_mixed_element``)."""
    N = E.n_edges
    ds = build_ds_element(E, r + 1)
    E = frame_polygon(E)
    G = ds.n_generators
    n_rad = len(_pressure_terms(s))
    width = G + n_rad + 2
    node = lambda k, j: N + k * r + (j - 1)  # scalar node j of edge k
    ramps = np.zeros((N, G))
    for k in range(N):
        ramps[k] += ds.coeffs[k]
        for j in range(1, r + 1):
            w = j / (r + 1)
            ramps[k] += w * ds.coeffs[node((k - 1) % N, j)]
            ramps[k] += (1.0 - w) * ds.coeffs[node(k, j)]
    edge_row = {}
    for k in range(N):
        c = constant_flux_coefficients_per_edge(E, k)
        scale = 1.0 / (c[-1] * E.edge_lengths[k])
        row = np.zeros(width)
        for m, cm in zip(range(k + 3, k + N), c):
            row[:G] -= cm * E.edge_lengths[m % N] * ramps[(m + 1) % N]
        row[:G] *= scale
        row[G] = scale
        row[G + n_rad:] = (E.centroid - E.vertices[(k + 2) % N]) * scale
        edge_row[k, 0] = row
        for j in range(1, r + 1):
            edge_row[k, j] = np.zeros(width)
            edge_row[k, j][:G] = ds.coeffs[node(k, j)]
    rows = [edge_row[k, j] for k in range(N) for j in range(r + 1)]
    alphas = np.array([edge_flux_expansion_fit(E, k, r, s) for k in range(N)])
    for i in range(1, n_rad):
        row = np.zeros(width)
        row[G + i] = 1.0
        for k in range(N):
            for j in range(r + 1):
                row -= alphas[k, i, j] * edge_row[k, j]
        rows.append(row)
    for i in range(ds.dim - N * (r + 1)):
        rows.append(np.zeros(width))
        rows[-1][:G] = ds.coeffs[N + N * r + i]
    return np.array(rows)


def edge_flux_expansion_fit(E, k, r, s):
    """Flux-expansion coefficients (P, r+1) of edge k for the pressures of
    degree s by a polynomial fit (oracle for
    ``polyds.mixed._edge_flux_expansion``).

    The normal flux density |e| c_k p(x(t)) of each pressure p is fitted
    exactly at s+1 equispaced edge points, integrated symbolically and
    evaluated at the Lagrange points.
    """
    c_k = float((E.vertices[k] - E.centroid) @ E.normals[k])
    length = E.edge_lengths[k]
    tfit = np.linspace(0.0, 1.0, s + 1)
    pts = edge_point(E, k, tfit).reshape(-1, 2)
    gcoef = npoly.polyfit(tfit, length * c_k * pressure_monomials(E, s, pts)[0].T, s)
    big = npoly.polyint(gcoef)
    t_lag = np.arange(1, r + 2) / (r + 1)
    big_vals = npoly.polyval(t_lag, big)  # (P, r+1)
    alphas = np.empty((len(big_vals), r + 1))
    alphas[:, 0] = big_vals[:, -1]
    alphas[:, 1:] = big_vals[:, :-1] - big_vals[:, -1:] * t_lag[:-1]
    return alphas


def _dof_functionals(elem, quad_degree=None):
    """Unisolvent DoFs: edge flux moments against Legendre polynomials,
    interior moments against pressure gradients, and bubble moments."""
    E = elem.polygon
    r, s = elem.r, elem.s
    if quad_degree is None:
        quad_degree = 2 * (r + 1) + 4
    dofs = []
    for k in range(E.n_edges):
        rule = edge_rule(E, k, quad_degree)
        for m in range(r + 1):
            leg = nleg.leg2poly([0.0] * m + [1.0])
            w = rule.weights * npoly.polyval(2.0 * rule.t - 1.0, leg)
            dofs.append(("edge", rule.points, w, E.normals[k]))
    rule = polygon_rule(E, quad_degree)
    # Frame gradients: h times the physical ones, a scale the moments ignore.
    _, pgrads = elem.pressure.value_grad(np.eye(2), np.zeros(2),
                                         (rule.points - E.centroid) / E.diameter)
    for grad in pgrads[1:]:
        dofs.append(("moment", rule.points, rule.weights, grad))
    bubbles = [i for i, lay in enumerate(element_layout(elem)) if lay[0] == "bubble"]
    if bubbles:
        vals = elem.eval_all(rule.points)[0]
        for i in bubbles:
            dofs.append(("moment", rule.points, rule.weights, vals[i]))
    return dofs


def mixed_interpolant(elem, v_exact, quad_degree=None):
    """Coefficients of the local interpolant of ``v_exact``.

    Matches the edge flux moments against polynomials of degree r, the
    interior moments against gradients of nonconstant pressures, and the
    curl-bubble moments; this is exactly the DoF set of the space, so
    members are reproduced and the divergence of the interpolant is the
    pressure-space projection of the divergence of ``v_exact``.
    """
    dofs = _dof_functionals(elem, quad_degree)
    A = np.empty((elem.dim, elem.dim))
    b = np.empty(elem.dim)
    cache = {}
    for d, (kind, pts, w, extra) in enumerate(dofs):
        if id(pts) not in cache:
            cache[id(pts)] = (elem.eval_all(pts)[0], np.asarray(v_exact(pts)))
        vals, target = cache[id(pts)]
        if kind == "edge":
            A[d] = np.einsum("imk,k,m->i", vals, extra, w)
            b[d] = w @ (target @ extra)
        else:
            A[d] = np.einsum("imk,mk,m->i", vals, extra, w)
            b[d] = w @ np.einsum("mk,mk->m", target, extra)
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ElementError(f"singular interpolation system: {exc}") from None


def _clip_halfplane(pts, anchor, normal, tol):
    """Sutherland-Hodgman clip of one convex loop against (x-anchor).n <= 0,
    walked vertex by vertex."""
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


def voronoi_loop_per_seed(seed, all_seeds):
    """CCW loop of the Voronoi cell of ``seed`` in the unit square, clipped
    seed by seed, nearest first, with the same early stop (oracle for the
    batched clip of ``polyds.mesh``)."""
    seed = np.asarray(seed, dtype=float)
    all_seeds = np.asarray(all_seeds, dtype=float)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    others = all_seeds[np.hypot(*(all_seeds - seed).T) > 1e-14]
    if len(others) != len(all_seeds) - 1:
        raise MeshError("seeds must be pairwise distinct and contain `seed`")
    dist = np.hypot(*(others - seed).T)
    for k in np.argsort(dist, kind="stable"):
        if dist[k] > 2.0 * np.hypot(*(pts - seed).T).max():
            break
        pts = _clip_halfplane(pts, 0.5 * (seed + others[k]), others[k] - seed, 1e-14)
        if len(pts) == 0:
            raise MeshError(f"empty Voronoi cell for seed {seed}")
    pts = _clean_loop(pts, 1.0)
    if len(pts) < 3:
        raise MeshError(f"degenerate Voronoi cell for seed {seed}")
    return pts


def voronoi_cell(seed, all_seeds):
    """Voronoi cell of ``seed`` among ``all_seeds``, clipped to
    ``polyds.mesh.BOUNDING_SQUARE``: the one-site case of
    ``polyds.mesh._voronoi_loops``, as a ``Polygon``."""
    pts, counts = _voronoi_loops(np.asarray(seed, dtype=float)[None], all_seeds)
    return Polygon(pts[0, :counts[0]])


def voronoi_cell_full_clip(seed, all_seeds):
    """Voronoi cell of ``seed`` in the unit square, clipped against the
    bisector toward every other seed in index order (oracle for
    ``voronoi_cell``, which stops early)."""
    seed = np.asarray(seed, dtype=float)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for other in np.asarray(all_seeds, dtype=float):
        if np.hypot(*(other - seed)) > 1e-14:
            pts = _clip_halfplane(pts, 0.5 * (seed + other), other - seed, 1e-14)
    return Polygon(_clean_loop(pts, 1.0))


def fuse_loops(loops, merge_tol):
    """Vertices and cells of per-cell loops with coinciding points fused,
    pair by pair, into the lowest index of each cluster (oracle for the
    label propagation of ``polyds.mesh``)."""
    allpts = np.vstack(loops)
    group = np.arange(len(allpts))
    for a, b in sorted(cKDTree(allpts).query_pairs(merge_tol)):
        ra, rb = group[a], group[b]
        if ra != rb:
            group[group == max(ra, rb)] = min(ra, rb)
    reps = {}
    verts = []
    index = []
    for g in group.tolist():
        if g not in reps:
            reps[g] = len(verts)
            verts.append(allpts[g])
        index.append(reps[g])
    ends = np.cumsum([len(loop) for loop in loops]).tolist()
    return np.asarray(verts), [index[e - len(loop):e] for loop, e in zip(loops, ends)]


def loop_grid(n, ycoord, xshift=None):
    """Vertices and cells of the (n+1) x (n+1) grid built vertex by vertex:
    vertex (i, j) is (i/n + xshift(i, j), ycoord(i, j)) (oracle for the
    array-built grids of ``polyds.mesh``)."""
    verts = []
    for j in range(n + 1):
        for i in range(n + 1):
            x = i / n
            if xshift is not None:
                x += xshift(i, j)
            verts.append((x, ycoord(i, j)))
    cells = []
    for j in range(n):
        for i in range(n):
            v = j * (n + 1) + i
            cells.append([v, v + 1, v + n + 2, v + n + 1])
    return np.asarray(verts), cells


def dict_topology(cells):
    """Edges as (a, b, left, right) tuples and per-cell edge indices, from a
    dict of directed edges (oracle for ``polyds.mesh.build_topology``)."""
    directed = {}
    for ci, loop in enumerate(cells):
        for k in range(len(loop)):
            directed.setdefault((loop[k], loop[(k + 1) % len(loop)]), ci)
    edges = []
    edge_ids = {}
    for (a, b), ci in directed.items():
        if (a, b) in edge_ids or (b, a) in edge_ids:
            continue
        edges.append((a, b, ci, directed.get((b, a))))
        edge_ids[(a, b)] = len(edges) - 1
    cell_edges = []
    for loop in cells:
        pairs = [(loop[k], loop[(k + 1) % len(loop)]) for k in range(len(loop))]
        cell_edges.append([edge_ids[p] if p in edge_ids else edge_ids[p[::-1]]
                           for p in pairs])
    return edges, cell_edges


def dict_built_table(E, r):
    """Generator table of the index-r element on E, r >= N-2, and the
    gradients (K, 2) and offsets (K,) of its affines, built term by term as
    {affine column: power} dicts over AffineScalar objects made from the
    vertices (oracle for the array-built table and affines of
    ``polyds.serendipity``).  Terms come in node order; the affine columns
    are in order of first use."""
    N = E.n_edges
    v = E.vertices
    lam = [line_through(v[i], v[(i + 1) % N]) for i in range(N)]
    mid = [0.5 * (v[i] + v[(i + 1) % N]) for i in range(N)]
    power = r - N + 2
    affines = list(lam)

    def column(affine):
        affines.append(affine)
        return len(affines) - 1

    pair_factors = {}
    for i, j in nonadjacent_pairs(N):
        fac = {column(AffineScalar(lam[i].grad + lam[j].grad, lam[i].offset + lam[j].offset)): -1}
        if power > 0:
            fac[column(line_through(mid[i], mid[j]))] = power
        pair_factors[i, j] = pair_factors[j, i] = fac

    terms = [{m: 1 for m in range(N) if m not in ((k - 1) % N, k)} for k in range(N)]
    for k in range(N):
        base = {m: 1 for m in range(N) if m != k}
        tau = (v[(k + 1) % N] - v[k]) / math.dist(v[(k + 1) % N], v[k]) ** 2
        t = column(AffineScalar(tau, -(v[k] @ tau)))
        terms.extend({**base, t: ell} for ell in range(power))
        terms.extend({**base, **pair_factors[k, q]} for q in range(N) if (k, q) in pair_factors)
    if r >= N:
        c, h = E.centroid, E.diameter
        u = column(AffineScalar((1.0 / h, 0.0), -c[0] / h))
        w = column(AffineScalar((0.0, 1.0 / h), -c[1] / h))
        bubble = {m: 1 for m in range(N)}
        terms.extend({**bubble, u: a, w: b}
                     for a in range(r - N + 1) for b in range(r - N + 1 - a))

    powers = np.zeros((len(terms), len(affines)), dtype=int)
    for g, term in enumerate(terms):
        for col, p in term.items():
            powers[g, col] = p
    return (PowerTable(powers), np.array([a.grad for a in affines]),
            np.array([a.offset for a in affines]))


def _coo(rows, cols, vals, shape):
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape).tocsr()


def scalar_dofs_per_cell(mesh, r):
    """Each cell's global dof ids in its element's node order, and the dof
    count, numbered cell by cell (oracle for the scalar ``DofMap``, which
    numbers groups of cells with equal N as arrays)."""
    per_edge = r - 1
    edge_offset = mesh.n_vertices
    edges, cell_edges = dict_topology(mesh.cells)
    at = edge_offset + len(edges) * per_edge
    out = []
    for c, loop in enumerate(mesh.cells):
        ids = list(loop)
        for k, ei in enumerate(cell_edges[c]):
            va, vb = loop[k], loop[(k + 1) % len(loop)]
            base = edge_offset + ei * per_edge
            if va < vb:
                ids.extend(base + j for j in range(per_edge))
            else:
                ids.extend(base + (per_edge - 1 - j) for j in range(per_edge))
        count = ds_dimension(len(loop), r) - len(loop) * r
        ids.extend(range(at, at + count))
        at += count
        out.append(np.asarray(ids, dtype=int))
    return out, at


def scalar_boundary_per_edge(mesh, r):
    """Boundary dof ids, interior dof ids, and the coordinates of every dof
    (zero for cell dofs), edge by edge (oracle for ``boundary`` and
    ``interior`` of the scalar ``DofMap``, and for
    ``polyds.assembly._dof_points``)."""
    per_edge = r - 1
    edge_offset = mesh.n_vertices
    edges, _ = dict_topology(mesh.cells)
    _, n = scalar_dofs_per_cell(mesh, r)
    pts = np.zeros((n, 2))
    pts[:edge_offset] = mesh.vertices
    boundary = set()
    for ei, (a, b, _, right) in enumerate(edges):
        base = edge_offset + ei * per_edge
        lo, hi = mesh.vertices[min(a, b)], mesh.vertices[max(a, b)]
        for j in range(1, r):
            pts[base + j - 1] = lo + (j / r) * (hi - lo)
        if right is None:
            boundary.update((a, b, *range(base, base + per_edge)))
    interior = sorted(set(range(n)) - boundary)
    return np.array(sorted(boundary), dtype=int), np.array(interior, dtype=int), pts


def flux_dofs_per_cell(mesh, r, s):
    """Each cell's (global flux ids, signs) aligned with the ``dof_layout``
    of its element, and the flux count, numbered cell by cell (oracle for
    the flux ``DofMap``)."""
    per_edge = r + 1
    n_div = (s + 2) * (s + 1) // 2 - 1
    edges, cell_edges = dict_topology(mesh.cells)
    at = len(edges) * per_edge
    out = []
    for c, loop in enumerate(mesh.cells):
        layout = dof_layout(len(loop), r, s)
        ids = np.empty(len(layout), dtype=int)
        signs = np.ones(len(layout))
        for i, lay in enumerate(layout):
            if lay[0] == "edge":
                k, j = lay[1], lay[2]
                ei = cell_edges[c][k]
                va, vb = loop[k], loop[(k + 1) % len(loop)]
                base = ei * per_edge
                if va < vb:
                    ids[i] = base + j
                else:
                    ids[i] = base + (0 if j == 0 else per_edge - j)
                    if j == 0:
                        signs[i] = -1.0
            elif lay[0] == "div":
                ids[i] = at + lay[1]
            else:  # bubble
                ids[i] = at + n_div + lay[1]
        at += mixed_dimension(len(loop), r, s) - len(loop) * per_edge
        out.append((ids, signs))
    return out, at


def flux_boundary_per_edge(mesh, r, s):
    """Boundary and interior flux ids, edge by edge (oracle for ``boundary``
    and ``interior`` of the flux ``DofMap``)."""
    per_edge = r + 1
    edges, _ = dict_topology(mesh.cells)
    _, n = flux_dofs_per_cell(mesh, r, s)
    boundary = [ei * per_edge + j for ei, (_, _, _, right) in enumerate(edges)
                if right is None for j in range(per_edge)]
    interior = sorted(set(range(n)) - set(boundary))
    return np.array(boundary, dtype=int), np.array(interior, dtype=int)


def _cell_row(dof, c):
    """Vertex count N of cell c, its row in the group ``mesh.groups[N]``
    and its broken slots before its pressures, from ``starts``."""
    N = len(dof.mesh.cells[c])
    end = dof.starts[c + 1] if c + 1 < dof.mesh.n_cells else dof.n_broken
    return N, np.searchsorted(dof.mesh.groups[N][0], c), np.arange(dof.starts[c],
                                                                  end - dof.p_per_cell)


def cell_dofs(dof, c):
    """(global ids, signs) of cell c from a ``DofMap``, read from ``col``
    and ``sign`` at its broken slots, in its element's basis order: node
    order (vertex, edge, cell) for the scalar space, the dof layout for the
    flux space."""
    _, _, at = _cell_row(dof, c)
    return dof.col[at], dof.sign[at]


def errors_per_cell(system, report, exact):
    """Error norms and (cell, centroid, L2 error) rows integrated cell by
    cell on each cell's own rule, where the class element is read at the
    points moved back by the cell's shift (oracle for ``compute_errors``,
    which integrates blocks of cells as arrays)."""
    mesh = system.mesh
    elements = [system.elements[rep] for rep in system.reps.tolist()]
    degree = system.quad_degree + 2
    if system.kind == "primal":
        dofs, _ = scalar_dofs_per_cell(mesh, system.dof_map.r)
        names = ("L2_p", "H1_semi_p")
    else:
        dofs, _ = flux_dofs_per_cell(mesh, system.dof_map.r, system.dof_map.s)
        names = ("L2_p", "L2_u", "L2_div_u")
    totals, rows = np.zeros(len(names)), []
    for c in range(mesh.n_cells):
        E, elem = mesh.polygon(c), elements[c]
        rule = polygon_rule(E, degree)
        pts, w = rule.points, rule.weights
        moved = pts - system.shifts[c]
        if system.kind == "primal":
            coeffs = report.solution[dofs[c]]
            vals, grads = elem.eval_all(moved)
            gh = np.einsum("d,dmk->mk", coeffs, grads)
            p, grad_p = exact.p(pts)
            sq = [w @ (coeffs @ vals - p) ** 2, w @ ((gh - grad_p) ** 2).sum(1)]
        else:
            ids, signs = dofs[c]
            ucoef = signs * report.solution[ids]
            v, d, q = elem.eval_all(moved)
            P, nu = system.dof_map.p_per_cell, system.dof_map.n_dofs
            ph = report.solution[nu + c * P:nu + (c + 1) * P] @ q
            uh = np.einsum("d,dmk->mk", ucoef, v)
            p, grad_p = exact.p(pts)
            # u = -grad p and div u = f.
            sq = [w @ (ph - p) ** 2, w @ ((uh + grad_p) ** 2).sum(1),
                  w @ (ucoef @ d - exact.f(pts)) ** 2]
        totals += sq
        rows.append((c, *E.centroid, math.sqrt(max(sq[0], 0.0))))
    return dict(zip(names, np.sqrt(totals).tolist())), rows


def assemble_per_cell(mesh, r, s, f, g):
    """Global matrix and right-hand side with a fresh element built on every
    cell (oracle for ``polyds.assembly``, which builds once per translation
    class).  ``s is None`` gives the primal system with Dirichlet data g,
    otherwise the mixed system [[M, -B^T], [-B, 0]] on (u, p) with
    pressure boundary data g; quadrature degrees are the assembly defaults.
    """
    if s is None:
        dofs, n = scalar_dofs_per_cell(mesh, r)
        boundary, interior, points = scalar_boundary_per_edge(mesh, r)
        rows, cols, vals, rhs = [], [], [], np.zeros(n)
        for c in range(mesh.n_cells):
            E = mesh.polygon(c)
            rule = polygon_rule(E, 2 * r + 4)
            v, grads = build_ds_element(E, r).eval_all(rule.points)
            ids = dofs[c]
            rows.append(np.repeat(ids, len(ids)))
            cols.append(np.tile(ids, len(ids)))
            vals.append(np.einsum("imk,jmk,m->ij", grads, grads, rule.weights).ravel())
            np.add.at(rhs, ids, v @ (rule.weights * f(rule.points)))
        A = _coo(rows, cols, vals, (n, n))
        gvals = g(points[boundary])
        return A[interior][:, interior].tocsr(), rhs[interior] - A[interior][:, boundary] @ gvals

    P = (s + 2) * (s + 1) // 2
    elems = [build_mixed_element(mesh.polygon(c), r, s) for c in range(mesh.n_cells)]
    dofs, n_flux = flux_dofs_per_cell(mesh, r, s)
    n_pressure = mesh.n_cells * P
    edges, cell_edges = dict_topology(mesh.cells)
    mrows, mcols, mvals, brows, bcols, bvals = [], [], [], [], [], []
    rhs_u, rhs_p = np.zeros(n_flux), np.zeros(n_pressure)
    for c, elem in enumerate(elems):
        E = mesh.polygon(c)
        rule = polygon_rule(E, 2 * r + 6)
        v, d, w = elem.eval_all(rule.points)
        ids, signs = dofs[c]
        pids = np.arange(c * P, (c + 1) * P)
        v, d = signs[:, None, None] * v, signs[:, None] * d
        mrows.append(np.repeat(ids, len(ids)))
        mcols.append(np.tile(ids, len(ids)))
        mvals.append(np.einsum("imk,jmk,m->ij", v, v, rule.weights).ravel())
        brows.append(np.repeat(pids, len(ids)))
        bcols.append(np.tile(ids, len(pids)))
        bvals.append(np.einsum("pm,im,m->pi", w, d, rule.weights).ravel())
        np.add.at(rhs_p, pids, w @ (rule.weights * f(rule.points)))
        for k, ei in enumerate(cell_edges[c]):
            if edges[ei][3] is None:
                er = edge_rule(E, k, 2 * r + 6)
                ev = signs[:, None, None] * elem.eval_all(er.points)[0]
                np.add.at(rhs_u, ids, -(ev @ E.normals[k]) @ (er.weights * g(er.points)))
    M = _coo(mrows, mcols, mvals, (n_flux, n_flux))
    B = _coo(brows, bcols, bvals, (n_pressure, n_flux))
    return sp.bmat([[M, -B.T], [-B, None]], format="csr"), np.concatenate([rhs_u, -rhs_p])


def translation_classes_by_bytes(mesh):
    """Representative (C,) and shift (C, 2) of each cell's translation
    class, keyed cell by cell on the bytes of its polygon's vertices
    relative to the first one (oracle for
    ``polyds.assembly._translation_classes``, which compares these loops
    as float rows, one ``np.unique`` per group of cells)."""
    first, polygons = {}, [mesh.polygon(c) for c in range(mesh.n_cells)]
    reps = np.array([first.setdefault((E.vertices - E.vertices[0]).tobytes(), c)
                     for c, E in enumerate(polygons)])
    starts = np.array([E.vertices[0] for E in polygons])
    return reps, starts - starts[reps]


def saddle_solve(system):
    """(u, p) of an assembled mixed system from one sparse LU of the whole
    saddle-point matrix, COLAMD-ordered with partial pivoting (oracle for
    ``polyds.assembly.solve``, which condenses the system cell by cell)."""
    x = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    nu = system.dof_map.n_dofs
    return x[:nu], x[nu:]


def multiplier_matrix_per_cell(system):
    """The multiplier matrix of the hybridized mixed solve, summed cell by
    cell in cell order: cell K adds c_i (A_K^-1)_ij c_j for its flux slots
    i, j of interior edges, where A_K^-1 is the inverse of its class's
    local saddle block and c is +1 in the left cell of the edge and -1 in
    the right cell, times the edge sign (oracle for
    ``polyds.assembly._Hybridized``, which forms tie inverse tie^T)."""
    mesh, dof = system.mesh, system.dof_map
    per_edge = dof.cell_offset // mesh.n_edges
    inner = dof.interior[dof.interior < dof.cell_offset]
    lam_of = dict(zip(inner.tolist(), range(len(inner))))
    inverses = {}
    rows, cols, vals = [], [], []
    for c in range(mesh.n_cells):
        N, row, _ = _cell_row(dof, c)
        rep = int(system.reps[c])
        if rep not in inverses:
            block = system.class_blocks[rep]
            inverses[rep] = _local_inverses(block[None], dof.p_per_cell, [rep])[0]
        ids, signs = cell_dofs(dof, c)
        left = mesh.edge_cells[mesh.groups[N][2][row], 0] == c
        slots = [i for i in range(N * per_edge) if int(ids[i]) in lam_of]
        coef = np.array([(1.0 if left[i // per_edge] else -1.0) * signs[i] for i in slots])
        mult = [lam_of[int(ids[i])] for i in slots]
        rows.append(np.repeat(mult, len(mult)))
        cols.append(np.tile(mult, len(mult)))
        vals.append((coef[:, None] * inverses[rep][np.ix_(slots, slots)] * coef[None, :]).ravel())
    return _coo(rows, cols, vals, (len(inner), len(inner)))


def matrix_per_cell(system):
    """The assembled matrix as a dense sum, with ``np.add.at`` in cell
    order, of each cell's signed class block sign_i block_ij sign_j over its
    slots; the block is ``class_blocks[reps[c]]``, in the mixed form the
    saddle block [[M, -B^T], [-B, 0]] over the cell's flux slots and then its
    pressures (sign +1).  The primal sum is restricted to the interior
    slots (oracle for the Q^T B Q products of ``polyds.assembly``)."""
    dof = system.dof_map
    P = dof.p_per_cell
    n = dof.n_dofs + dof.n_pressure
    out = np.zeros((n, n))
    for c in range(system.mesh.n_cells):
        ids, signs = cell_dofs(dof, c)
        block = system.class_blocks[int(system.reps[c])]
        if system.kind == "mixed":
            ids = np.concatenate([ids, dof.n_dofs + c * P + np.arange(P)])
            signs = np.concatenate([signs, np.ones(P)])
        np.add.at(out, (ids[:, None], ids), signs[:, None] * block * signs)
    if system.kind == "primal":
        out = out[np.ix_(dof.interior, dof.interior)]
    return out


def pressure_supercloseness(system, report, exact):
    """||P_s p - p_h|| of a solved mixed system: P_s p is the L2 projection
    of the exact pressure onto each cell's own pressure basis, the class
    element's read at the points moved back by the cell's shift, and the
    norm is integrated on each cell's rule at the error degree of
    ``compute_errors``."""
    mesh = system.mesh
    degree = min(system.quad_degree + 2, polyds.quadrature.MAX_DEGREE)
    ph = report.solution[system.dof_map.n_dofs:].reshape(mesh.n_cells, -1)
    classes, total = {}, 0.0
    for c, rep in enumerate(system.reps.tolist()):
        if rep not in classes:
            rule = polygon_rule(mesh.polygon(rep), degree)
            q = system.elements[rep].eval_all(rule.points)[2]  # (P, M)
            classes[rep] = rule, q * rule.weights, q @ (q * rule.weights).T
        rule, wq, gram = classes[rep]
        p, _ = exact.p(rule.points + system.shifts[c])
        gap = np.linalg.solve(gram, wq @ p) - ph[c]
        total += gap @ gram @ gap
    return math.sqrt(total)
