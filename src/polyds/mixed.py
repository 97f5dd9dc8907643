"""H(div)-conforming direct mixed elements on convex polygons.

The flux space of index r (divergence index s = r-1 reduced, s = r full)
is generated from the scalar space of index r+1: curls of its edge and
interior functions give divergence-free basis functions, while radial
fields (x - c) p(x) carry the divergence.  The basis comes in four
families:

* one constant-flux function per edge: unit integrated flux across its
  own edge, zero across the others, constant divergence;
* r flux-moment functions per edge (curls of edge functions): zero
  average flux, zero divergence;
* interior divergence functions, one per nonconstant pressure mode,
  with zero normal trace on the whole boundary;
* interior curl bubbles (zero normal trace, zero divergence), which
  exist only when r >= N-1.

Construction is pure per element and built elements are immutable.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as nleg
from numpy.polynomial import polynomial as npoly

from .functions import PowerTable
from .geometry import Polygon, _as_points
from .quadrature import _segment_gauss, edge_rule, polygon_rule
from .serendipity import DSElement, ElementError, _centered_coordinates, build_ds_element

__all__ = [
    "MixedElement",
    "mixed_dimension",
    "constant_flux_coefficients",
    "build_mixed_element",
    "mixed_interpolant",
    "pressure_monomials",
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


def pressure_monomials(E: Polygon, s: int) -> PowerTable:
    """Centered, scaled monomials u**a v**b up to total degree s on E,
    ordered by degree; the first is the constant."""
    powers = [(a, deg - a) for deg in range(s + 1) for a in range(deg + 1)]
    return PowerTable(_centered_coordinates(E), powers)


def constant_flux_coefficients(E: Polygon, k: int):
    """Cancellation constants for the constant-flux function of edge k.

    Entry m (0-based) belongs to edge k+3+m (mod N); the last entry belongs
    to edge k itself and normalizes the flux.  All entries are strictly
    positive on a strictly convex polygon.
    """
    N = E.n_edges
    lam = E.edge_distances()
    lengths = E.edge_lengths
    anchor = E.vertices[(k + 2) % N]
    out = []
    prev = 0.0
    for m in range(k + 3, k + N + 1):
        em = m % N
        dist = lam[em](anchor)  # distance of the anchor vertex to edge line em
        prev = dist + (lengths[(m - 1) % N] / lengths[em]) * prev
        out.append(prev)
    return np.asarray(out)


def _scalar_row_index(ds: DSElement, kind, k, j=0):
    N = ds.polygon.n_edges
    per_edge = ds.r - 1
    if kind == "vertex":
        return k
    if kind == "edge":
        return N + k * per_edge + (j - 1)
    if kind == "interior":
        return N + N * per_edge + k
    raise KeyError(kind)


def _vertex_ramp_rows(ds: DSElement):
    """Coefficient rows (over the scalar generators) of functions whose
    trace ramps linearly 0 -> 1 along edge k-1 and 1 -> 0 along edge k for
    each vertex k, and vanishes on every other edge."""
    N = ds.polygon.n_edges
    order = ds.r  # the scalar element has index r+1
    rows = np.zeros((N, ds.n_generators))
    for k in range(N):
        rows[k] += ds.coeffs[_scalar_row_index(ds, "vertex", k)]
        for j in range(1, order):
            w = j / order
            rows[k] += w * ds.coeffs[_scalar_row_index(ds, "edge", (k - 1) % N, j)]
            rows[k] += (1.0 - w) * ds.coeffs[_scalar_row_index(ds, "edge", k, j)]
    return rows


def _constant_flux_data(ds: DSElement):
    """Per-edge data for the constant-flux functions: a curl coefficient
    row over the scalar generators, a coefficient for the radial field
    x - c, and a constant vector part."""
    E = ds.polygon
    N = E.n_edges
    lengths = E.edge_lengths
    ramps = _vertex_ramp_rows(ds)
    curl_rows = np.zeros((N, ds.n_generators))
    radial = np.empty(N)
    const = np.empty((N, 2))
    for k in range(N):
        coeffs = constant_flux_coefficients(E, k)
        scale = 1.0 / (coeffs[-1] * lengths[k])
        row = np.zeros(ds.n_generators)
        for m, cm in zip(range(k + 3, k + N), coeffs):
            row -= cm * lengths[m % N] * ramps[(m + 1) % N]
        curl_rows[k] = row * scale
        radial[k] = scale
        const[k] = (E.centroid - E.vertices[(k + 2) % N]) * scale
    return curl_rows, radial, const


def _edge_flux_expansion(E: Polygon, r: int, pressure: PowerTable):
    """Coefficients alpha[k, p, 0..r] expanding the normal flux of (x - c) p
    on edge k in the edge flux basis (constant 1/|e| plus
    Lagrange-derivative moments), for every edge k and pressure p, found
    by matching antiderivatives at the Lagrange points j / (r+1).

    On edge k, (x - c) . n_k is a constant c_k, so the antiderivatives are
    |e_k| c_k times integrals of p along the edge.  A Gauss rule exact for
    the pressure degree on each Lagrange subinterval, summed cumulatively,
    gives them exactly.
    """
    v = E.vertices
    deg = int(pressure.powers.sum(axis=1).max())
    t, w = _segment_gauss(deg // 2 + 1)
    t_lag = np.arange(1, r + 2) / (r + 1)
    tq = (np.arange(r + 1)[:, None] + t).ravel() / (r + 1)
    pts = v[:, None] + tq[:, None] * (np.roll(v, -1, axis=0) - v)[:, None]
    pvals = pressure.value_grad(pts.reshape(-1, 2))[0]
    scale = E.edge_lengths * ((v - E.centroid) * E.normals).sum(axis=1) / (r + 1)
    parts = pvals.reshape(len(pressure), len(v), r + 1, len(t)) @ w
    big = np.cumsum(parts * scale[:, None], axis=2)  # (P, N, r+1) at t_lag
    alphas = np.empty_like(big)
    alphas[..., 0] = big[..., -1]
    alphas[..., 1:] = big[..., :-1] - big[..., -1:] * t_lag[:-1]
    return alphas.transpose(1, 0, 2)


class MixedElement:
    """Mixed element: ordered vector basis over a shared generator set.

    The generators are the curls of the scalar element's table terms, the
    radial fields (x - c) p for the pressure monomials p, and the two
    constant fields; ``rows`` holds the coefficients of each basis function.
    Basis ordering: per edge (CCW) the constant-flux function followed by
    the r moment functions, then the interior divergence functions, then
    the curl bubbles.  ``dof_layout`` holds matching descriptors
    ``("edge", k, j)``, ``("div", i)``, and ``("bubble", i)``.
    """

    def __init__(self, polygon, r, s, ds, rows, pressure, dof_layout):
        self.polygon = polygon
        self.r = r
        self.s = s
        self.ds = ds
        self.rows = np.asarray(rows, dtype=float)
        self.rows.flags.writeable = False
        self.pressure = pressure
        self.dof_layout = tuple(dof_layout)

    def translated(self, polygon, shift):
        """This element moved by ``shift`` onto ``polygon``, the translate of
        its own polygon; ``rows`` is shared."""
        return MixedElement(polygon, self.r, self.s, self.ds.translated(polygon, shift),
                            self.rows, self.pressure.translated(shift), self.dof_layout)

    @property
    def dim(self):
        return len(self.rows)

    def layout_index(self, key):
        return self.dof_layout.index(key)

    def eval_all(self, pts):
        """Values and divergences of all basis functions: (D, M, 2), (D, M)."""
        pts = _as_points(pts)
        m = len(pts)
        nc = self.ds.n_generators
        nr = len(self.pressure)
        gvals = np.empty((nc + nr + 2, m, 2))
        gdivs = np.zeros((nc + nr + 2, m))
        _, grads = self.ds.table.value_grad(pts)
        gvals[:nc, :, 0] = grads[:, :, 1]
        gvals[:nc, :, 1] = -grads[:, :, 0]
        # Radial fields (x - c) p have divergence 2 p + (x - c) . grad p.
        pv, pg = self.pressure.value_grad(pts)
        rel = pts - self.polygon.centroid
        gvals[nc:nc + nr] = rel * pv[:, :, None]
        gdivs[nc:nc + nr] = 2.0 * pv + np.einsum("mk,gmk->gm", rel, pg)
        gvals[nc + nr] = [1.0, 0.0]
        gvals[nc + nr + 1] = [0.0, 1.0]
        vals = (self.rows @ gvals.reshape(len(gvals), -1)).reshape(self.dim, m, 2)
        divs = self.rows @ gdivs
        return vals, divs


def build_mixed_element(E: Polygon, r: int, s: int) -> MixedElement:
    """Assemble the four basis families for the index-(r, s) mixed space."""
    _check_rs(r, s)
    N = E.n_edges
    ds = build_ds_element(E, r + 1)
    G = ds.n_generators
    pressure = pressure_monomials(E, s)
    n_rad = len(pressure)
    width = G + n_rad + 2

    curl_rows, radial_c, const_c = _constant_flux_data(ds)
    rows = []
    layout = []
    for k in range(N):
        row = np.zeros(width)
        row[:G] = curl_rows[k]
        row[G] = radial_c[k]
        row[G + n_rad:] = const_c[k]
        rows.append(row)
        layout.append(("edge", k, 0))
        for j in range(1, r + 1):
            row = np.zeros(width)
            row[:G] = ds.coeffs[_scalar_row_index(ds, "edge", k, j)]
            rows.append(row)
            layout.append(("edge", k, j))

    edge_row = {lay[1:]: rows[i] for i, lay in enumerate(layout)}
    alphas = _edge_flux_expansion(E, r, pressure)
    for i in range(1, n_rad):
        row = np.zeros(width)
        row[G + i] = 1.0
        for k in range(N):
            for j in range(r + 1):
                row = row - alphas[k, i, j] * edge_row[(k, j)]
        rows.append(row)
        layout.append(("div", i - 1))

    if r >= N - 1:
        for i in range(ds.nodes.n_interior):
            row = np.zeros(width)
            row[:G] = ds.coeffs[_scalar_row_index(ds, "interior", i)]
            rows.append(row)
            layout.append(("bubble", i))

    expected = mixed_dimension(N, r, s)
    if len(rows) != expected:
        raise ElementError(f"assembled {len(rows)} functions, expected {expected}")
    return MixedElement(E, r, s, ds, np.array(rows), pressure, layout)


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
    _, pgrads = elem.pressure.value_grad(rule.points)
    for grad in pgrads[1:]:
        dofs.append(("moment", rule.points, rule.weights, grad))
    bubbles = [i for i, lay in enumerate(elem.dof_layout) if lay[0] == "bubble"]
    if bubbles:
        vals, _ = elem.eval_all(rule.points)
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
