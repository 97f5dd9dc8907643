"""H(div)-conforming direct mixed elements on convex polygons.

The flux space of index r (divergence index s = r-1 reduced, s = r full)
is generated from the scalar space of index r+1: curls of its edge and
interior functions give divergence-free basis functions, while radial
fields x^ p(x^) carry the divergence.  The basis comes in four families:

* one constant-flux function per edge: unit integrated flux across its
  own edge, zero across the others, constant divergence;
* r flux-moment functions per edge (curls of edge functions): zero
  average flux, zero divergence;
* interior divergence functions, one per nonconstant pressure mode,
  with zero normal trace on the whole boundary;
* interior curl bubbles (zero normal trace, zero divergence), which
  exist only when r >= N-1.

Construction is pure per element and built elements are immutable.  Like
the scalar element, the element is built on its cell's frame x^: a frame
field u^ is the field u = u^ / h, with div u = div^ u^ / h**2.  The
pressures are the monomials of the frame coordinates, one read-only table
per s (``_pressure_terms``) that every cell reads as it is.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as nleg
from numpy.polynomial import polynomial as npoly

from .functions import PowerTable, _capped_matmul
from .geometry import Polygon, _as_points
from .quadrature import _segment_gauss, edge_rule, polygon_rule
from .serendipity import (
    DSElement,
    ElementError,
    _edge_parameters,
    _Frame,
    _lagrange_1d,
    build_ds_element,
)

__all__ = [
    "MixedElement",
    "mixed_dimension",
    "constant_flux_coefficients",
    "build_mixed_element",
    "edge_normal_traces",
    "mixed_interpolant",
]


def mixed_dimension(N: int, r: int, s: int) -> int:
    """Dimension of the index-(r, s) mixed space on an N-gon."""
    _check_rs(r, s)
    bubbles = (r - N + 3) * (r - N + 2) // 2 if r >= N - 1 else 0
    return N * (r + 1) - 1 + (s + 2) * (s + 1) // 2 + bubbles


def _check_rs(r, s):
    if r < 0:
        raise ValueError(f"flux index must be >= 0, got r={r}")
    if s not in (r - 1, r) or s < 0:
        raise ValueError(f"divergence index s={s} must be r-1 or r and >= 0")


@lru_cache(maxsize=None)
def _pressure_terms(s: int) -> PowerTable:
    """The pressure basis of degree s: monomials u**a v**b of the frame
    coordinates up to total degree s, ordered by degree (the first is the
    constant); read-only, shared by every cell."""
    powers = [(a, deg - a) for deg in range(s + 1) for a in range(deg + 1)]
    return PowerTable(powers, np.eye(2), np.zeros(2))


def constant_flux_coefficients(E: Polygon):
    """Cancellation constants (N, N-2) of the constant-flux functions.

    Row k belongs to the constant-flux function of edge k: entry m belongs
    to edge k+3+m (mod N), and the last entry to edge k itself, which
    normalizes the flux.  With anchor vertex k+2, entry m is the anchor's
    distance to edge k+3+m plus the length ratio of edges k+2+m and k+3+m
    times entry m-1; the recurrence runs on all rows at once.  All entries
    are strictly positive on a strictly convex polygon.
    """
    N = E.n_edges
    k = np.arange(N)
    edge = (k[:, None] + np.arange(3, N + 1)) % N  # (N, N-2): edge of each entry
    anchor = E.vertices[(k + 2) % N]
    # Distances of the anchor vertex to the lines of the entries' edges.
    dist = E.edge_offsets[edge] - (E.normals[edge] * anchor[:, None]).sum(axis=2)
    ratio = E.edge_lengths[(edge - 1) % N] / E.edge_lengths[edge]
    out = np.empty((N, N - 2))
    prev = np.zeros(N)
    for m in range(N - 2):
        prev = out[:, m] = dist[:, m] + ratio[:, m] * prev
    return out


def _vertex_ramp_rows(ds: DSElement):
    """Coefficient rows (N, generators) of functions whose trace ramps
    linearly 0 -> 1 along edge k-1 and 1 -> 0 along edge k for each vertex
    k, and vanishes on every other edge: one (N, dim) weight matrix on the
    nodal basis, whose node j of edge k is basis function N + k (r-1) + j-1
    (r the scalar index)."""
    N, order = ds.polygon.n_edges, ds.r
    k = np.arange(N)
    w = _edge_parameters(order)[1:-1]
    weights = np.zeros((N, ds.dim))
    weights[k, k] = 1.0
    edge_node = N + (order - 1) * k[:, None] + np.arange(order - 1)  # (N, r-1)
    weights[k[:, None], edge_node[k - 1]] = w
    weights[k[:, None], edge_node] = 1.0 - w
    return weights @ ds.coeffs


def _constant_flux_data(ds: DSElement):
    """Data for the constant-flux functions of all N edges on ``ds.frame``:
    curl coefficient rows (N, generators) over the scalar generators,
    coefficients (N,) of the radial field x^, and constant parts (N, 2).

    Row k of the curl rows combines the ramp of vertex m+1 with weight
    -c[k, m-k-3] |e_m| for the edges m = k+3, ..., k+N-1 (mod N), all
    scaled by 1 / (c[k, -1] |e_k|), with c the cancellation constants."""
    F = ds.frame
    N = F.n_edges
    lengths = F.edge_lengths
    coeffs = constant_flux_coefficients(F)
    scale = 1.0 / (coeffs[:, -1] * lengths)
    k = np.arange(N)
    m = (k[:, None] + np.arange(3, N)) % N  # (N, N-3)
    weights = np.zeros((N, N))
    weights[k[:, None], (m + 1) % N] = -coeffs[:, :-1] * lengths[m] * scale[:, None]
    const = -F.vertices[(k + 2) % N] * scale[:, None]
    return weights @ _vertex_ramp_rows(ds), scale, const


def edge_normal_traces(r: int, t):
    """Normal traces, times the edge length |e|, of the r+1 flux functions
    of an edge at edge parameters t (M,) running from its first to its
    second vertex: (r+1, M).

    The other functions of the element have no normal trace on the edge.
    The constant-flux function's trace is 1/|e|; moment function j's is
    L_j'(t)/|e|, with L_j the Lagrange polynomial of the points i/(r+1),
    i = 0..r+1, that is 1 at j/(r+1).  They depend on r alone.
    """
    lagrange = _lagrange_1d(_edge_parameters(r + 1))
    out = np.ones((r + 1, len(t)))
    for j in range(1, r + 1):
        out[j] = npoly.polyval(t, npoly.polyder(lagrange[j]))
    return out


def _edge_flux_expansion(F: _Frame, r: int, pressure: PowerTable):
    """Coefficients alpha[k, p, 0..r] expanding the normal flux of x^ p on
    edge k of the frame polygon F in the edge flux basis (constant 1/|e|
    plus Lagrange-derivative moments), for every edge k and pressure p,
    found by matching antiderivatives at the Lagrange points j / (r+1).

    On edge k, x^ . n_k is the edge offset c_k, so the antiderivatives are
    |e_k| c_k times integrals of p along the edge.  A Gauss rule exact for
    the pressure degree on each Lagrange subinterval, summed cumulatively,
    gives them exactly.
    """
    v = F.vertices
    deg = int(pressure.powers.sum(axis=1).max())
    t, w = _segment_gauss(deg)
    t_lag = _edge_parameters(r + 1)[1:]
    tq = (np.arange(r + 1)[:, None] + t).ravel() / (r + 1)
    pts = v[:, None] + tq[:, None] * (np.roll(v, -1, axis=0) - v)[:, None]
    pvals = pressure.values(pts.reshape(-1, 2))
    scale = F.edge_lengths * F.edge_offsets / (r + 1)
    parts = pvals.reshape(len(pressure), len(v), r + 1, len(t)) @ w
    big = np.cumsum(parts * scale[:, None], axis=2)  # (P, N, r+1) at t_lag
    alphas = np.empty_like(big)
    alphas[..., 0] = big[..., -1]
    alphas[..., 1:] = big[..., :-1] - big[..., -1:] * t_lag[:-1]
    return alphas.transpose(1, 0, 2)


class MixedElement:
    """Mixed element: ordered vector basis over a shared generator set.

    The generators are frame fields: the curls of the scalar element's
    table terms, the radial fields x^ p for the pressures p of
    ``_pressure_terms(s)``, and the two constant fields; ``rows`` holds the
    coefficients of each basis function.
    Basis ordering: per edge (CCW) the constant-flux function followed by
    the r moment functions, then the interior divergence functions, then
    the curl bubbles.  ``dof_layout`` holds matching descriptors
    ``("edge", k, j)``, ``("div", i)``, and ``("bubble", i)``.
    """

    def __init__(self, polygon, r, s, ds, rows, dof_layout):
        self.polygon = polygon
        self.r = r
        self.s = s
        self.ds = ds
        self.rows = np.asarray(rows, dtype=float)
        self.rows.flags.writeable = False
        self.pressure = _pressure_terms(s)
        self.dof_layout = tuple(dof_layout)

    @property
    def dim(self):
        return len(self.rows)

    def eval_all(self, pts):
        """Values and divergences of all basis functions and values of the
        pressures at pts: (D, M, 2), (D, M) and (P, M)."""
        pts = _as_points(pts)
        m = len(pts)
        x, h = self.ds.frame.points(pts), self.ds.frame.scale
        nc = self.ds.n_generators
        nr = len(self.pressure)
        gvals = np.empty((nc + nr + 2, m, 2))
        gdivs = np.zeros((nc + nr + 2, m))
        _, grads = self.ds.table.value_grad(x)
        gvals[:nc, :, 0] = grads[:, :, 1]
        gvals[:nc, :, 1] = -grads[:, :, 0]
        # A radial field x^ p, p homogeneous of degree d, has divergence (d + 2) p.
        pv = self.pressure.values(x)
        gvals[nc:nc + nr] = x * pv[:, :, None]
        gdivs[nc:nc + nr] = (self.pressure.powers.sum(axis=1) + 2.0)[:, None] * pv
        gvals[nc + nr] = [1.0, 0.0]
        gvals[nc + nr + 1] = [0.0, 1.0]
        vals = _capped_matmul(self.rows / h, gvals.reshape(len(gvals), -1)).reshape(self.dim, m, 2)
        divs = _capped_matmul(self.rows / h**2, gdivs)
        return vals, divs, pv


def build_mixed_element(E: Polygon, r: int, s: int) -> MixedElement:
    """Assemble the four basis families for the index-(r, s) mixed space.

    The rows over the generators (curls, radial fields, constants) stack
    as: the edge rows (N, r+1), per edge the constant-flux function and
    the curls of the r scalar functions of its interior nodes; the
    divergence rows, each a radial field minus its flux expansion in the
    edge rows; and the curls of the scalar interior functions.
    """
    _check_rs(r, s)
    N = E.n_edges
    ds = build_ds_element(E, r + 1)
    G = ds.n_generators
    pressure = _pressure_terms(s)
    n_rad = len(pressure)
    width = G + n_rad + 2

    # The scalar element of index r+1 has N vertex and N r edge functions,
    # as many as the mixed element has edge rows, then its interior ones.
    n_edge = N * (r + 1)
    edge = np.zeros((N, r + 1, width))
    edge[:, 0, :G], edge[:, 0, G], edge[:, 0, G + n_rad:] = _constant_flux_data(ds)
    edge[:, 1:, :G] = ds.coeffs[N:n_edge].reshape(N, r, G)
    alphas = _edge_flux_expansion(ds.frame, r, pressure)[:, 1:]  # (N, n_rad-1, r+1)
    # Explicit sizes: with s = 0 there are no divergence rows, and a -1
    # cannot be resolved for an empty array.
    div = -alphas.transpose(1, 0, 2).reshape(n_rad - 1, n_edge) @ edge.reshape(n_edge, width)
    div[:, G + 1:G + n_rad] += np.eye(n_rad - 1)
    # Interior functions exist only for r+1 >= N, where their curls are bubbles.
    bubble = np.zeros((ds.dim - n_edge, width))
    bubble[:, :G] = ds.coeffs[n_edge:]

    layout = ([("edge", k, j) for k in range(N) for j in range(r + 1)]
              + [("div", i) for i in range(n_rad - 1)]
              + [("bubble", i) for i in range(len(bubble))])
    expected = mixed_dimension(N, r, s)
    if len(layout) != expected:
        raise ElementError(f"assembled {len(layout)} functions, expected {expected}")
    rows = np.concatenate([edge.reshape(-1, width), div, bubble])
    return MixedElement(E, r, s, ds, rows, layout)


def _dof_functionals(elem: MixedElement, quad_degree=None):
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
    _, pgrads = elem.pressure.value_grad(elem.ds.frame.points(rule.points))
    for grad in pgrads[1:]:
        dofs.append(("moment", rule.points, rule.weights, grad))
    bubbles = [i for i, lay in enumerate(elem.dof_layout) if lay[0] == "bubble"]
    if bubbles:
        vals = elem.eval_all(rule.points)[0]
        for i in bubbles:
            dofs.append(("moment", rule.points, rule.weights, vals[i]))
    return dofs


def mixed_interpolant(elem: MixedElement, v_exact, quad_degree=None):
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
