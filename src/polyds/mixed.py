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
per s (``_pressure_terms``) that every cell reads as it is.  The
constant-flux functions combine vertex ramps, the index-1 functions
carved from the scalar basis (``serendipity._carving_matrix``), with
fan areas from one cumulative sum (``_fan_areas``) as weights.
Elements of one (N, r, s) are evaluated together (``_eval_mixed``),
their curls in the scalar elements' stacked pass; ``eval_all`` is its
case of one element.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .functions import PowerTable, _capped_matmul
from .geometry import Polygon, _as_points
# perfbench wraps ``polygon_rule`` and ``edge_rule`` here, though mixed calls neither.
from .quadrature import _segment_gauss, edge_rule, polygon_rule
from .serendipity import (
    DSElement,
    _carving_matrix,
    _edge_parameters,
    _eval_stacked,
    _frame_points,
    _lagrange_1d,
    build_ds_element,
)

__all__ = [
    "MixedElement",
    "mixed_dimension",
    "build_mixed_element",
    "edge_normal_traces",
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
    constant); read-only, shared by every cell.  Its affines are u and v:
    gradients ``np.eye(2)`` and offsets ``np.zeros(2)``."""
    powers = [(a, deg - a) for deg in range(s + 1) for a in range(deg + 1)]
    return PowerTable(powers)


def _fan_areas(E: Polygon):
    """Twice the fan areas (N, N-2) that weight the constant-flux functions.

    Row k belongs to edge k's function; its fan's apex is vertex k+2, and
    entry m covers the fan's triangles on edges k+3, ..., k+3+m (mod N):
    the cumulative sum of the apex's distance to each edge's line times
    the edge's length.  The last entry is 2|E|.  Entry m over the length
    of edge k+3+m is the paper's cancellation constant, positive on a
    strictly convex polygon.
    """
    N = E.n_edges
    k = np.arange(N)
    edge = (k[:, None] + np.arange(3, N + 1)) % N  # (N, N-2): edge of each entry
    apex = E.vertices[(k + 2) % N]
    dist = E.edge_offsets[edge] - (E.normals[edge] * apex[:, None]).sum(axis=2)
    return np.cumsum(dist * E.edge_lengths[edge], axis=1)


def _constant_flux_data(ds: DSElement):
    """Data for the constant-flux functions of all N edges on ``ds.frame``:
    curl coefficient rows (N, generators) over the scalar generators,
    coefficients (N,) of the radial field x^, and constant parts (N, 2).

    With A the fan areas (``_fan_areas``), row k of the curl rows combines
    the ramp of vertex m+1 with weight -A[k, m-k-3] for the edges m = k+3,
    ..., k+N-1 (mod N), all scaled by 1 / A[k, -1].  The ramp of vertex k
    is the index-1 function carved from ``ds``: its trace runs linearly
    0 -> 1 along edge k-1 and 1 -> 0 along edge k, and vanishes on every
    other edge."""
    F = ds.frame
    N = F.n_edges
    A = _fan_areas(F)
    scale = 1.0 / A[:, -1]
    k = np.arange(N)
    weights = np.zeros((N, N))
    weights[k[:, None], (k[:, None] + np.arange(4, N + 1)) % N] = -A[:, :-1] * scale[:, None]
    const = -F.vertices[(k + 2) % N] * scale[:, None]
    return weights @ (_carving_matrix(N, 1, ds.r) @ ds.coeffs), scale, const


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


def _edge_flux_expansion(F: Polygon, r: int, pressure: PowerTable):
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
    pvals = pressure.values(np.eye(2), np.zeros(2), pts.reshape(-1, 2))
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
    the curl bubbles.
    """

    def __init__(self, polygon, r, s, ds, rows):
        self.polygon = polygon
        self.r = r
        self.s = s
        self.ds = ds
        self.rows = np.asarray(rows, dtype=float)
        self.rows.flags.writeable = False
        self.pressure = _pressure_terms(s)

    @property
    def dim(self):
        return len(self.rows)

    def eval_all(self, pts):
        """Values (D, M, 2) and divergences (D, M) of the basis, and pressures (P, M), at pts."""
        vals, divs, pvals = _eval_mixed([self], _as_points(pts)[None])
        return vals[0], divs[0], pvals[0]


def _eval_mixed(elems, pts):
    """Values (C, D, M, 2) and divergences (C, D, M) of the bases of C mixed
    elements of one (N, r, s), and their pressures (C, P, M), each at its own
    physical points ``pts[c]`` (C, M, 2).  The curls are the rotated
    gradients of the scalar combinations ``rows[:, :G]`` (``_eval_stacked``);
    a radial field x^ p, p homogeneous of degree d, has divergence (d + 2) p."""
    ds, pressure = [e.ds for e in elems], elems[0].pressure
    (C, M), G, P = pts.shape[:2], ds[0].n_generators, len(pressure)
    rows = np.stack([e.rows for e in elems])
    x, h = _frame_points([e.polygon for e in elems], pts)
    _, grads = _eval_stacked(ds, pts, rows[:, :, :G])
    pvals = pressure.values(np.eye(2), np.zeros(2), x.reshape(-1, 2))
    pvals = pvals.reshape(P, C, M).swapaxes(0, 1)
    fields = np.empty((C, P + 2, M, 2))  # the radial fields, then the two constant ones
    fields[:, :P], fields[:, P:] = x[:, None] * pvals[..., None], np.eye(2)[:, None]
    vals = _capped_matmul(rows[:, :, G:] / h, fields.reshape(C, P + 2, -1)).reshape(grads.shape)
    vals[..., 0] += grads[..., 1]
    vals[..., 1] -= grads[..., 0]
    divs = _capped_matmul(rows[:, :, G:-2] * (pressure.powers.sum(axis=1) + 2.0) / h**2, pvals)
    return vals, divs, pvals


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
    rows = np.concatenate([edge.reshape(-1, width), div, bubble])
    return MixedElement(E, r, s, ds, rows)
