"""Global assembly and solution of Poisson problems on polygonal meshes.

Primal form: continuous scalar space of index r, Dirichlet data imposed by
eliminating boundary rows/columns (the reduced matrix stays SPD).  Mixed
form: H(div) flux space of index r with discontinuous per-cell pressures
of degree s; pressure boundary data is natural and enters the right-hand
side.

Element construction, quadrature, basis evaluation and local matrices
are computed once per translation class of cells and reused, moved, on
every cell of the class; loads and error integrands are evaluated per
cell.  Contributions are merged in deterministic cell order, so assembled
systems are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .mixed import build_mixed_element, mixed_dimension
from .quadrature import edge_rule, polygon_rule
from .serendipity import build_ds_element, ds_dimension

__all__ = [
    "AssemblyError",
    "SolveError",
    "DofMap",
    "MixedDofMap",
    "SparseSystem",
    "SolveReport",
    "Exact",
    "manufactured_solution",
    "assemble_primal",
    "assemble_mixed",
    "solve",
    "compute_errors",
    "convergence_rate",
    "dump_element_errors",
]


class AssemblyError(RuntimeError):
    pass


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class Exact:
    """Manufactured solution bundle: scalar p, flux u = -grad p, data f."""

    p: object
    grad_p: object
    u: object
    div_u: object
    f: object


def manufactured_solution(kind="one-hump") -> Exact:
    """The sine product test problems on the unit square."""
    if kind == "one-hump":
        w = math.pi
    elif kind == "four-hump":
        w = 2.0 * math.pi
    else:
        raise ValueError(f"unknown exact solution {kind!r}")

    def p(x):
        return np.sin(w * x[:, 0]) * np.sin(w * x[:, 1])

    def grad_p(x):
        return np.column_stack(
            [
                w * np.cos(w * x[:, 0]) * np.sin(w * x[:, 1]),
                w * np.sin(w * x[:, 0]) * np.cos(w * x[:, 1]),
            ]
        )

    return Exact(
        p=p,
        grad_p=grad_p,
        u=lambda x: -grad_p(x),
        div_u=lambda x: 2.0 * w**2 * p(x),
        f=lambda x: 2.0 * w**2 * p(x),
    )


class DofMap:
    """Global numbering for the continuous scalar space of index r.

    Ordering: mesh vertices, then r-1 slots per mesh edge (ordered from the
    lower- to the higher-numbered vertex), then per-cell interior blocks.
    """

    def __init__(self, mesh: Mesh, r: int):
        self.mesh = mesh
        self.r = r
        nv, ne = mesh.n_vertices, mesh.n_edges
        per_edge = r - 1
        self.edge_offset = nv
        self.cell_offset = nv + ne * per_edge
        self.cell_interior = []
        at = self.cell_offset
        for c in range(mesh.n_cells):
            N = len(mesh.cells[c])
            k = ds_dimension(N, r) - N * r
            self.cell_interior.append((at, k))
            at += k
        self.n_dofs = at

        boundary = set()
        for ei, e in enumerate(mesh.edges):
            if e.boundary:
                boundary.add(e.a)
                boundary.add(e.b)
                base = self.edge_offset + ei * per_edge
                boundary.update(range(base, base + per_edge))
        self.boundary = np.array(sorted(boundary), dtype=int)
        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[self.boundary] = True
        self.interior = np.nonzero(~mask)[0]

    def cell_dofs(self, c):
        """Global dof ids in the element's node order (vertex, edge, cell)."""
        mesh, r = self.mesh, self.r
        loop = mesh.cells[c]
        ids = list(loop)
        per_edge = r - 1
        for k, ei in enumerate(mesh.cell_edges[c]):
            va, vb = loop[k], loop[(k + 1) % len(loop)]
            base = self.edge_offset + ei * per_edge
            if va < vb:
                ids.extend(base + j for j in range(per_edge))
            else:
                ids.extend(base + (per_edge - 1 - j) for j in range(per_edge))
        start, count = self.cell_interior[c]
        ids.extend(range(start, start + count))
        return np.asarray(ids, dtype=int)

    def dof_points(self):
        """Coordinates of vertex and edge dofs (used for boundary data)."""
        mesh, r = self.mesh, self.r
        pts = np.zeros((self.n_dofs, 2))
        pts[: mesh.n_vertices] = mesh.vertices
        per_edge = r - 1
        for ei, e in enumerate(mesh.edges):
            lo, hi = (e.a, e.b) if e.a < e.b else (e.b, e.a)
            a, b = mesh.vertices[lo], mesh.vertices[hi]
            base = self.edge_offset + ei * per_edge
            for j in range(1, r):
                pts[base + j - 1] = a + (j / r) * (b - a)
        return pts


class MixedDofMap:
    """Global numbering for the H(div) space and the pressure space.

    Flux ordering: r+1 slots per mesh edge (constant flux first), then
    per-cell divergence and bubble blocks.  An interior edge is owned by
    the direction from its lower- to higher-numbered vertex; the cell
    whose CCW traversal opposes that direction takes the moment relabeling
    j <-> r+1-j and a sign flip on the constant-flux slot.
    """

    def __init__(self, mesh: Mesh, r: int, s: int):
        self.mesh = mesh
        self.r = r
        self.s = s
        per_edge = r + 1
        self.cell_offset = mesh.n_edges * per_edge
        self.p_per_cell = (s + 2) * (s + 1) // 2
        n_div = self.p_per_cell - 1
        self.cell_blocks = []
        at = self.cell_offset
        for c in range(mesh.n_cells):
            N = len(mesh.cells[c])
            n_bub = mixed_dimension(N, r, s) - N * (r + 1) - n_div
            self.cell_blocks.append((at, n_div, n_bub))
            at += n_div + n_bub
        self.n_flux = at
        self.n_pressure = mesh.n_cells * self.p_per_cell

    def cell_flux_dofs(self, c, layout):
        """(global ids, signs) aligned with a MixedElement dof layout."""
        mesh, r = self.mesh, self.r
        loop = mesh.cells[c]
        per_edge = r + 1
        start, n_div, n_bub = self.cell_blocks[c]
        ids = np.empty(len(layout), dtype=int)
        signs = np.ones(len(layout))
        for i, lay in enumerate(layout):
            if lay[0] == "edge":
                k, j = lay[1], lay[2]
                ei = mesh.cell_edges[c][k]
                va, vb = loop[k], loop[(k + 1) % len(loop)]
                base = ei * per_edge
                if va < vb:
                    ids[i] = base + j
                else:
                    ids[i] = base + (0 if j == 0 else per_edge - j)
                    if j == 0:
                        signs[i] = -1.0
            elif lay[0] == "div":
                ids[i] = start + lay[1]
            else:  # bubble
                ids[i] = start + n_div + lay[1]
        return ids, signs

    def cell_pressure_dofs(self, c):
        return np.arange(c * self.p_per_cell, (c + 1) * self.p_per_cell)


@dataclass
class SparseSystem:
    """Assembled linear system plus the data needed to interpret solutions."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    r: int
    kind: str  # "primal" | "mixed"
    quad_degree: int
    elements: list
    s: int | None = None
    blocks: tuple | None = None  # (n_flux, n_pressure) for mixed
    dof_map: object = None
    boundary_values: np.ndarray | None = None

    @property
    def n(self):
        return self.matrix.shape[0]


@dataclass
class SolveReport:
    """Solution plus solver diagnostics; ``residual`` is relative."""

    solution: np.ndarray
    iterations: int  # always 0: the solve is direct
    residual: float
    solution_u: np.ndarray | None = None
    solution_p: np.ndarray | None = None


def assemble_primal(mesh: Mesh, r: int, f, quad_degree=None,
                    dirichlet=None) -> SparseSystem:
    """Stiffness matrix and load vector of the primal Poisson problem.

    ``dirichlet`` is the boundary data (callable on points); omitted means
    homogeneous.  Boundary dofs are eliminated symmetrically.
    """
    if r < 1:
        raise AssemblyError("primal form needs r >= 1")
    if quad_degree is None:
        quad_degree = 2 * r + 4
    dof = DofMap(mesh, r)
    rows, cols, vals = [], [], []
    rhs = np.zeros(dof.n_dofs)
    elements = []

    def setup(c):
        E = mesh.polygon(c)
        try:
            elem = build_ds_element(E, r)
        except Exception as exc:
            raise AssemblyError(f"element construction failed on cell {c}: {exc}") from exc
        rule = polygon_rule(E, quad_degree)
        bvals, bgrads = elem.eval_all(rule.points)
        return elem, rule, bvals, _gram(bgrads, rule.weights).ravel()

    for c, shift, (elem, rule, bvals, local) in _by_translation_class(mesh, setup):
        elements.append(elem.translated(mesh.polygon(c), shift) if shift.any() else elem)
        load = bvals @ (rule.weights * np.asarray(f(rule.points + shift)))
        gids = dof.cell_dofs(c)
        rows.append(np.repeat(gids, len(gids)))
        cols.append(np.tile(gids, len(gids)))
        vals.append(local)
        np.add.at(rhs, gids, load)
    n = dof.n_dofs
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()

    gvals = np.zeros(n)
    if dirichlet is not None and len(dof.boundary):
        gvals[dof.boundary] = np.asarray(dirichlet(dof.dof_points()[dof.boundary]))
    keep = dof.interior
    rows_kept = A[keep]
    reduced = rows_kept[:, keep].tocsr()
    reduced_rhs = rhs[keep] - rows_kept[:, dof.boundary] @ gvals[dof.boundary]
    return SparseSystem(
        matrix=reduced,
        rhs=reduced_rhs,
        mesh=mesh,
        r=r,
        kind="primal",
        quad_degree=quad_degree,
        elements=elements,
        dof_map=dof,
        boundary_values=gvals,
    )


def assemble_mixed(mesh: Mesh, r: int, s: int, f, quad_degree=None,
                   dirichlet_p=None) -> SparseSystem:
    """Saddle-point system of the mixed Poisson problem.

    Layout: ``[[M, B^T], [B, 0]]`` acting on (u, -p); pressure boundary
    data is natural and only contributes to the flux right-hand side.
    """
    if quad_degree is None:
        quad_degree = 2 * r + 6
    dof = MixedDofMap(mesh, r, s)
    rows, cols, vals = [], [], []
    brows, bcols, bvals_ = [], [], []
    rhs_u = np.zeros(dof.n_flux)
    rhs_p = np.zeros(dof.n_pressure)
    elements = []

    def setup(c):
        E = mesh.polygon(c)
        try:
            elem = build_mixed_element(E, r, s)
        except Exception as exc:
            raise AssemblyError(f"element construction failed on cell {c}: {exc}") from exc
        rule = polygon_rule(E, quad_degree)
        v, d = elem.eval_all(rule.points)
        wvals, _ = elem.pressure.value_grad(rule.points)
        # Mass and divergence (n_w, n_u) blocks before the edge signs.
        return elem, rule, wvals, _gram(v, rule.weights), wvals * rule.weights @ d.T

    for c, shift, (elem, rule, wvals, massloc, divloc) in _by_translation_class(mesh, setup):
        E = mesh.polygon(c)
        if shift.any():
            elem = elem.translated(E, shift)
        elements.append(elem)
        gids, signs = dof.cell_flux_dofs(c, elem.dof_layout)
        pids = dof.cell_pressure_dofs(c)
        massloc = signs[:, None] * massloc * signs[None, :]
        divloc = divloc * signs[None, :]
        rows.append(np.repeat(gids, len(gids)))
        cols.append(np.tile(gids, len(gids)))
        vals.append(massloc.ravel())
        brows.append(np.repeat(pids, len(gids)))
        bcols.append(np.tile(gids, len(pids)))
        bvals_.append(divloc.ravel())
        np.add.at(rhs_p, pids, wvals @ (rule.weights * np.asarray(f(rule.points + shift))))
        if dirichlet_p is not None:
            load = _pressure_boundary_load(E, elem, mesh, c, dirichlet_p, quad_degree)
            np.add.at(rhs_u, gids, -signs * load)
    nu, npr = dof.n_flux, dof.n_pressure
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nu, nu),
    ).tocsr()
    B = sp.coo_matrix(
        (np.concatenate(bvals_), (np.concatenate(brows), np.concatenate(bcols))),
        shape=(npr, nu),
    ).tocsr()
    K = sp.bmat([[M, B.T], [B, None]], format="csr")
    return SparseSystem(
        matrix=K,
        rhs=np.concatenate([rhs_u, rhs_p]),
        mesh=mesh,
        r=r,
        s=s,
        kind="mixed",
        quad_degree=quad_degree,
        elements=elements,
        blocks=(nu, npr),
        dof_map=dof,
    )


def _by_translation_class(mesh, setup):
    """Yield ``(c, shift, data)`` for every cell c, in cell order.

    ``data = setup(rep)`` is computed once per translation class, on its
    lowest-numbered cell rep, and released after the last cell of the
    class; ``shift`` moves rep onto c (zero for rep itself).
    """
    reps = _translation_representatives(mesh)
    last = dict(zip(reps, range(len(reps))))
    starts = np.array([E.vertices[0] for E in mesh.polygons()])
    shifts = starts - starts[reps]
    held = {}
    for c, rep in enumerate(reps):
        if rep == c:
            held[rep] = setup(c)
        yield c, shifts[c], held.pop(rep) if last[rep] == c else held[rep]


def _translation_representatives(mesh):
    """Lowest-numbered cell of the translation class of each cell.

    Cells form one class when their vertex loops agree exactly relative to
    their first vertex.  The key is not rounded: cells that are only nearly
    translates of each other get elements of their own.
    """
    first = {}
    return [first.setdefault((E.vertices - E.vertices[0]).tobytes(), c)
            for c, E in enumerate(mesh.polygons())]


def _gram(fields, weights):
    """Weighted Gram matrix sum_m w_m f_i(x_m) . f_j(x_m) of (D, M, 2) vector
    values, as one product of the sqrt(w)-scaled rows (weights are positive)."""
    S = (fields * np.sqrt(weights)[:, None]).reshape(len(fields), -1)
    return S @ S.T


def _pressure_boundary_load(E, elem, mesh, c, g, quad_degree):
    """Integrals of g times each basis normal trace over boundary edges."""
    load = np.zeros(elem.dim)
    for k, ei in enumerate(mesh.cell_edges[c]):
        if not mesh.edges[ei].boundary:
            continue
        rule = edge_rule(E, k, quad_degree)
        v, _ = elem.eval_all(rule.points)
        gv = np.asarray(g(rule.points))
        load += np.einsum("imk,k,m->i", v, E.normals[k], rule.weights * gv)
    return load


# Bound on the relative residual of an accepted solve.  Well-shaped meshes
# solve to about 1e-12 or better; a mesh with a sliver edge of 1e-3 h
# (a numerically singular system at r=4) still solves to about 4e-11.
RESIDUAL_MAX = 1e-8


def solve(system: SparseSystem) -> SolveReport:
    """Solve an assembled system by sparse LU and verify the residual.

    Primal (SPD) and mixed (saddle-point) systems take the same path:
    SuperLU with its default COLAMD ordering, then the relative residual
    ``||Ax - b|| / ||b||`` computed by multiplication.  A zero right-hand
    side gives the zero solution with residual 0.  Raises ``SolveError``
    when the factorization fails or the residual is non-finite or above
    ``RESIDUAL_MAX``.
    """
    A, b = system.matrix, system.rhs
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        x, res = np.zeros(system.n), 0.0
    else:
        try:
            x = spla.splu(A.tocsc()).solve(b)
        except RuntimeError as exc:
            raise SolveError(f"sparse factorization failed: {exc}") from None
        res = float(np.linalg.norm(A @ x - b) / bnorm)
        if not np.isfinite(res) or res > RESIDUAL_MAX:
            raise SolveError(f"solve residual {res:.3e} exceeds {RESIDUAL_MAX:g}")
    if system.kind == "primal":
        full = system.boundary_values.copy()
        full[system.dof_map.interior] = x
        return SolveReport(solution=full, iterations=0, residual=res)
    nu, _ = system.blocks
    return SolveReport(solution=x, iterations=0, residual=res,
                       solution_u=x[:nu], solution_p=-x[nu:])


def compute_errors(system: SparseSystem, report: SolveReport, exact: Exact,
                   per_element=None):
    """Global L2 / H1 (primal) or L2 flux, pressure, divergence (mixed)
    errors, integrated at the assembly degree plus 2.

    ``per_element`` collects (cell, centroid, scalar L2 error) rows.
    """
    quad_increment = 2
    degree = system.quad_degree + quad_increment
    mesh = system.mesh
    if system.kind == "primal":
        def setup(c):
            rule = polygon_rule(mesh.polygon(c), degree)
            return (rule, *system.elements[c].eval_all(rule.points))

        total_l2 = total_h1 = 0.0
        for c, shift, (rule, vals, grads) in _by_translation_class(mesh, setup):
            pts = rule.points + shift
            coeffs = report.solution[system.dof_map.cell_dofs(c)]
            ph = coeffs @ vals
            gh = np.einsum("d,dmk->mk", coeffs, grads)
            dl2 = rule.weights @ (ph - exact.p(pts)) ** 2
            dh1 = rule.weights @ ((gh - exact.grad_p(pts)) ** 2).sum(1)
            total_l2 += dl2
            total_h1 += dh1
            if per_element is not None:
                per_element.append((c, *mesh.polygon(c).centroid, math.sqrt(max(dl2, 0.0))))
        return {"L2_p": math.sqrt(total_l2), "H1_semi_p": math.sqrt(total_h1)}

    def setup(c):
        elem = system.elements[c]
        rule = polygon_rule(mesh.polygon(c), degree)
        return (elem, rule, *elem.eval_all(rule.points), elem.pressure.value_grad(rule.points)[0])

    dof = system.dof_map
    tot_p = tot_u = tot_d = 0.0
    for c, shift, (elem, rule, v, d, wvals) in _by_translation_class(mesh, setup):
        pts = rule.points + shift
        gids, signs = dof.cell_flux_dofs(c, elem.dof_layout)
        ucoef = signs * report.solution_u[gids]
        uh = np.einsum("d,dmk->mk", ucoef, v)
        dh = ucoef @ d
        pcoef = report.solution_p[dof.cell_pressure_dofs(c)]
        ph = pcoef @ wvals
        dp = rule.weights @ (ph - exact.p(pts)) ** 2
        du = rule.weights @ ((uh - exact.u(pts)) ** 2).sum(1)
        dd = rule.weights @ (dh - exact.div_u(pts)) ** 2
        tot_p += dp
        tot_u += du
        tot_d += dd
        if per_element is not None:
            per_element.append((c, *mesh.polygon(c).centroid, math.sqrt(max(dp, 0.0))))
    return {
        "L2_p": math.sqrt(tot_p),
        "L2_u": math.sqrt(tot_u),
        "L2_div_u": math.sqrt(tot_d),
    }


def convergence_rate(errors, h_values):
    """Pairwise log-ratio convergence rates between consecutive levels."""
    errors = np.asarray(errors, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if len(errors) != len(h) or len(errors) < 2:
        raise ValueError("need matching error/h sequences of length >= 2")
    return np.log(errors[:-1] / errors[1:]) / np.log(h[:-1] / h[1:])


def dump_element_errors(rows, path):
    """CSV dump: cell_id, centroid_x, centroid_y, L2_error."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "centroid_x", "centroid_y", "L2_error"])
        for cid, cx, cy, err in rows:
            writer.writerow([cid, f"{cx:.17g}", f"{cy:.17g}", f"{err:.17g}"])
