"""Global assembly and solution of Poisson problems on polygonal meshes.

Primal form: continuous scalar space of index r, Dirichlet data imposed by
eliminating boundary rows/columns (the reduced matrix stays SPD).  Mixed
form: H(div) flux space of index r with discontinuous per-cell pressures
of degree s; pressure boundary data is natural and enters the right-hand
side.  Both are assembled on the broken space of their ``DofMap``, each
cell its own copy of its slots: with Q the signed selection in which each
copy reads its global slot and B the block diagonal of the cells' class
blocks (stiffness, or saddle block [[M, -B^T], [-B, 0]]), the matrix is
Q^T B Q and the right-hand side Q^T of the cells' own loads.  The primal
form keeps Q's interior columns, and its boundary values enter the loads
as -B g.  The mixed system is hybridized on the same broken space
(``_Hybridized``).  Both forms are factored with the same symmetric sparse
LU.

Cells that are exact translates of each other form a translation class,
and this module is the only one that knows about them.  Element
construction, quadrature, basis evaluation and local matrices are computed
once per class, on its lowest-numbered cell: the element of a cell c is
the class element read at x - ``shifts[c]``.  The rest is array work over
blocks of consecutive cells with equal vertex count N, in the groups of
``Mesh.groups``.  One ``DofMap`` numbers the scalar space, or the flux
space and its pressures, and lays out the broken space.  Loads and error
integrands are evaluated once per block on the stacked moved points.
Every entry of Q^T B Q and of Q^T loads is summed over the cells that hold
it in cell order, so assembled systems are reproducible bit for bit.

Both forms and their error integration run one block pipeline, ``_blocks``:
it makes the rules of the classes that a block meets first in one
broadcast over their polygons, and moves them onto the block's cells.
Both forms assemble through ``_local_system``: each form's ``local`` builds
a block's new classes one by one, evaluates their bases in one stacked pass
(``serendipity._eval_stacked``, or ``mixed._eval_mixed`` on top of it) and
forms their (w, w) class blocks in one batched Gram product.  Error
integration evaluates the exact p and its gradient in one call per block,
and reads u = -grad p and div u = f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .functions import GEMM_BUDGET, _capped_matmul
from .geometry import _frozen
from .mesh import Mesh
from .mixed import _eval_mixed, build_mixed_element, edge_normal_traces, mixed_dimension
# perfbench wraps ``polygon_rule`` and ``edge_rule`` here, though assembly calls neither.
from .quadrature import MAX_DEGREE, _polygon_rules, _segment_gauss, edge_rule, polygon_rule
from .serendipity import _edge_parameters, _eval_stacked, build_ds_element, ds_dimension

__all__ = [
    "AssemblyError",
    "SolveError",
    "DofMap",
    "SparseSystem",
    "SolveReport",
    "Exact",
    "manufactured_solution",
    "assemble_primal",
    "assemble_mixed",
    "solve",
    "compute_errors",
    "convergence_rate",
]


class AssemblyError(RuntimeError):
    pass


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class Exact:
    """Manufactured solution of -div grad p = f, as two callables on
    points x (M, 2): ``p(x)`` returns the values (M,) and the gradients
    (M, 2) of p, as ``PowerTable.value_grad`` does, and ``f(x)`` the data
    (M,), or one value (one gradient) for all.  u = -grad p, div u = f."""

    p: object
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
        sx, sy = np.sin(w * x[:, 0]), np.sin(w * x[:, 1])
        cx, cy = np.cos(w * x[:, 0]), np.cos(w * x[:, 1])
        return sx * sy, np.column_stack([w * cx * sy, w * sx * cy])

    def f(x):
        return 2.0 * w**2 * (np.sin(w * x[:, 0]) * np.sin(w * x[:, 1]))

    return Exact(p=p, f=f)


# Cells per block of array work in assembly and error integration.  A
# block's stacked points and values, and the class data it holds, grow with
# it; 64 cells amortize the per-block numpy calls and keep memory flat.
CHUNK_CELLS = 64


def _forward(loops):
    """Whether edge k of each (C, N) vertex loop runs from the lower- to
    the higher-numbered vertex."""
    return loops < np.roll(loops, -1, axis=1)


def _cell_starts(mesh, widths, offset=0):
    """Start of each cell's block when the cells with N vertices take
    ``widths[N]`` consecutive slots each, in cell order after ``offset``;
    and the end."""
    width = np.empty(mesh.n_cells, dtype=int)
    for N, (cells, _, _) in mesh.groups.items():
        width[cells] = widths[N]
    ends = offset + np.cumsum(width)
    return ends - width, int(ends[-1])


class DofMap:
    """Global numbering of the continuous scalar space of index r, or, given
    s, of the H(div) flux space of index (r, s) and its pressures.

    Ordering: the mesh vertices (scalar space only), then per mesh edge its
    slots, r-1 for the scalar space and r+1 for the flux space with the
    constant flux first, then per-cell interior blocks in cell order.  An
    edge's slots run from its lower- to its higher-numbered vertex; a cell
    whose CCW traversal opposes that direction reads them in reverse,
    except the constant-flux slot, which it reads in place with sign -1.
    ``boundary`` holds the slots of the boundary edges and both their ends,
    ``interior`` the rest; ``n_dofs`` counts the scalar or flux slots.
    Pressures, ``p_per_cell`` per cell (none for the scalar space), are
    numbered cell by cell after them.

    The broken space gives each cell its own copy of its slots, in the
    element's basis order (vertex, edge, cell), then of its pressures,
    numbered cell by cell from ``starts[c]`` (``n_broken`` in all).  Copy i
    reads global slot ``col[i]`` times ``sign[i]``, which is +1 in the
    scalar space and for pressures; ``own[i]`` marks the copy in the
    lowest-numbered cell that holds the slot (an edge's left cell).
    ``indptr`` and ``indices`` are the CSR arrays of one dense block per
    cell over its copies (``_block_diagonal``).
    """

    def __init__(self, mesh: Mesh, r: int, s: int | None = None):
        self.mesh, self.r, self.s = mesh, r, s
        flux = s is not None
        per_edge, fixed = (r + 1, 1) if flux else (r - 1, 0)
        self.edge_offset = 0 if flux else mesh.n_vertices
        self.cell_offset = self.edge_offset + mesh.n_edges * per_edge
        P = self.p_per_cell = (s + 2) * (s + 1) // 2 if flux else 0
        self.n_pressure = mesh.n_cells * P
        dims = {N: mixed_dimension(N, r, s) if flux else ds_dimension(N, r) for N in mesh.groups}
        n_inner = {N: D - N * per_edge - (0 if flux else N) for N, D in dims.items()}
        starts, self.n_dofs = _cell_starts(mesh, n_inner, self.cell_offset)
        widths = {N: D + P for N, D in dims.items()}
        self.starts, self.n_broken = _cell_starts(mesh, widths)
        firsts, nnz = _cell_starts(mesh, {N: w * w for N, w in widths.items()})
        self.col, self.sign = np.empty(self.n_broken, dtype=int), np.empty(self.n_broken)
        self.indptr, self.indices = np.full(self.n_broken + 1, nnz), np.empty(nnz, dtype=int)
        # An opposing cell reads the first ``fixed`` slots of an edge (the
        # constant flux) in place with sign -1, and the rest reversed.
        j = np.arange(per_edge)
        reverse = np.where(j < fixed, j, fixed + per_edge - 1 - j)
        flip = np.where(j < fixed, -1.0, 1.0)
        for N, (cells, loops, edge_ids) in mesh.groups.items():
            C, w, forward = len(cells), widths[N], _forward(loops)[..., None]
            vertices = loops[:, :0 if flux else N]  # the flux space has no vertex slots
            slots = np.where(forward, j, reverse)
            edge_dofs = self.edge_offset + edge_ids[..., None] * per_edge + slots
            at = self.starts[cells, None] + np.arange(w)
            self.col[at] = np.hstack([vertices, edge_dofs.reshape(C, -1),
                                      starts[cells, None] + np.arange(n_inner[N]),
                                      self.n_dofs + cells[:, None] * P + np.arange(P)])
            self.sign[at] = np.hstack([np.ones(vertices.shape),
                                       np.where(forward, 1.0, flip).reshape(C, -1),
                                       np.ones((C, n_inner[N] + P))])
            block = firsts[cells, None] + np.arange(w * w)  # row-major (w, w)
            self.indptr[at] = block[:, ::w]
            self.indices[block] = np.tile(at, w)
        self.own = np.zeros(self.n_broken, dtype=bool)
        self.own[np.unique(self.col, return_index=True)[1]] = True

        # The slots of the boundary edges and, in the scalar space, both ends.
        edges = np.flatnonzero(mesh.edge_cells[:, 1] < 0)
        ends = mesh.edges[edges, :0 if flux else 2]
        self.boundary = np.union1d(ends, self.edge_offset + edges[:, None] * per_edge + j)
        self.interior = np.setdiff1d(np.arange(self.n_dofs), self.boundary)


@dataclass
class SparseSystem:
    """Assembled linear system plus the data needed to interpret solutions.

    ``elements`` maps the representative of each translation class, its
    lowest-numbered cell, to the element built on that cell's polygon.
    ``reps`` (C,) and ``shifts`` (C, 2) are read-only: cell c is
    ``mesh.polygon(reps[c])`` moved by ``shifts[c]``, so its basis at
    points x is ``elements[reps[c]]`` at x - ``shifts[c]``.  The indices
    and counts are those of ``dof_map``, one ``DofMap`` for both forms:
    ``r`` (and ``s``), ``n_dofs`` scalar or flux slots and, for the mixed
    form, ``n_pressure`` pressures after them.

    ``class_blocks`` maps each class representative to its read-only (w, w)
    local block before the edge signs: the stiffness (D, D) for the primal
    form, and for the mixed form the saddle block [[M, -B^T], [-B, 0]] of
    the mass M (D, D) and the divergence B (P, D).  With Q and B of the
    broken space (module docstring), the primal ``matrix`` is Q^T B Q
    restricted to the ``interior`` slots, and the mixed ``matrix`` is the
    symmetric saddle-point matrix Q^T B Q acting on (u, p), which ``solve``
    checks its solution against and condenses from the mixed
    ``class_blocks``.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    kind: str  # "primal" | "mixed"
    quad_degree: int
    elements: dict  # class representative -> its element
    reps: np.ndarray  # (C,) class representative of each cell
    shifts: np.ndarray  # (C, 2) move from the representative onto each cell
    dof_map: object = None
    boundary_values: np.ndarray | None = None
    class_blocks: dict | None = None  # representative -> its local block

    @property
    def n(self):
        return self.matrix.shape[0]


@dataclass
class SolveReport:
    """Solution plus solver diagnostics; ``residual`` is relative.

    ``solution`` holds the primal values of all ``n_dofs`` slots, boundary
    values included, or the mixed (u, p): the ``n_dofs`` flux slots, then
    the ``n_pressure`` pressures."""

    solution: np.ndarray
    iterations: int  # refinement steps after the direct solve: 0 or 1
    residual: float


def _default_degree(r, mixed):
    """The degree of the assembly rules when none is given: 2r+4 for the
    primal form and 2r+6 for the mixed forms, whose fluxes come from the
    scalar space of index r+1."""
    return 2 * r + (6 if mixed else 4)


def _point_data(name, vals, shape, width=()):
    """``vals``, returned by the user data ``name`` at M = prod(shape) points,
    as ``shape`` + ``width``: one value (of shape ``width``) is constant data."""
    vals, M, k = np.asarray(vals, dtype=float), math.prod(shape), math.prod(width)
    if vals.size not in (k, M * k) or vals.shape[vals.ndim - len(width):] != width:
        one = f" of shape {width}" if width else ""
        raise ValueError(f"{name} returned shape {vals.shape} at {M} points; "
                         f"expected a single value{one} or shape {(M, *width)}")
    return np.broadcast_to(vals.reshape(-1, *width), (M, *width)).reshape(*shape, *width)


def _dof_points(dof):
    """Coordinates of the vertex and edge slots of a scalar ``DofMap``, where
    the Dirichlet data is read; the cell slots stay at 0."""
    mesh = dof.mesh
    pts = np.zeros((dof.n_dofs, 2))
    pts[:dof.edge_offset] = mesh.vertices
    a = mesh.vertices[mesh.edges.min(axis=1), None]
    b = mesh.vertices[mesh.edges.max(axis=1), None]
    t = _edge_parameters(dof.r)[1:-1, None]
    pts[dof.edge_offset:dof.cell_offset] = (a + t * (b - a)).reshape(-1, 2)
    return pts


def assemble_primal(mesh: Mesh, r: int, f, quad_degree=None,
                    dirichlet=None) -> SparseSystem:
    """Stiffness matrix and load vector of the primal Poisson problem.

    ``dirichlet`` is the boundary data (callable on points); omitted means
    homogeneous.  Boundary dofs are eliminated symmetrically.
    """
    if r < 1:
        raise AssemblyError("primal form needs r >= 1")
    if quad_degree is None:
        quad_degree = _default_degree(r, mixed=False)
    dof, elements = DofMap(mesh, r), {}

    def local(new, pts, weights):
        elems = _build(mesh, new, elements, build_ds_element, r)
        bvals, bgrads = _eval_stacked(elems, pts, np.stack([e.coeffs for e in elems]))
        return _gram(bgrads, weights), bvals

    reps, shifts, class_blocks, loads, B = _local_system(mesh, dof, quad_degree, f, local)
    gvals = np.zeros(dof.n_dofs)
    if dirichlet is not None and len(dof.boundary):
        points = _dof_points(dof)[dof.boundary]
        gvals[dof.boundary] = _point_data("dirichlet", dirichlet(points), (len(points),))
    # Q restricted to the interior slots: the boundary values move to the right.
    interior = _selection(dof, dof.interior, dof.sign)
    return SparseSystem(
        matrix=_galerkin(interior, B), rhs=interior.T @ (loads - B @ (dof.sign * gvals[dof.col])),
        mesh=mesh, kind="primal", quad_degree=quad_degree, elements=elements, reps=reps,
        shifts=shifts, dof_map=dof, boundary_values=gvals, class_blocks=class_blocks)


def assemble_mixed(mesh: Mesh, r: int, s: int, f, quad_degree=None,
                   dirichlet_p=None) -> SparseSystem:
    """Saddle-point system of the mixed Poisson problem.

    Layout: ``[[M, -B^T], [-B, 0]]`` acting on (u, p), with right-hand
    side (-<g, v.n>, -(f, q)); pressure boundary data g is natural and only
    contributes to the flux right-hand side.
    """
    if quad_degree is None:
        quad_degree = _default_degree(r, mixed=True)
    dof, elements = DofMap(mesh, r, s), {}
    P = dof.p_per_cell

    def local(new, pts, weights):
        elems = _build(mesh, new, elements, build_mixed_element, r, s)
        vals, divs, wvals = _eval_mixed(elems, pts)
        # Saddle blocks [[M, -B^T], [-B, 0]] of the mass M and the divergence
        # B (P, D), before the edge signs: the pressures are tested by -q.
        D, tests = vals.shape[1], -wvals
        block = np.zeros((len(new), D + P, D + P))
        block[:, :D, :D] = _gram(vals, weights)
        block[:, D:, :D] = tests * weights[:, None] @ divs.transpose(0, 2, 1)
        block[:, :D, D:] = block[:, D:, :D].transpose(0, 2, 1)
        return block, tests

    # Each cell's own loads: its pressure loads after its flux slots.
    reps, shifts, class_blocks, loads, B = _local_system(mesh, dof, quad_degree, f, local)
    if dirichlet_p is not None:
        # Only the r+1 flux functions of an edge have a normal trace on it.
        t, w = _segment_gauss(quad_degree)
        traces = w * edge_normal_traces(r, t)
        for N, (cells, loops, edge_ids) in mesh.groups.items():
            row, k = np.nonzero(mesh.edge_cells[edge_ids, 1] < 0)
            if not len(row):  # a group of interior cells only
                continue
            a, b = mesh.vertices[loops[row, k]], mesh.vertices[loops[row, (k + 1) % N]]
            pts = a[:, None] + t[:, None] * (b - a)[:, None]  # (B, M, 2)
            g = _point_data("dirichlet_p", dirichlet_p(pts.reshape(-1, 2)), (len(row), len(t)))
            loads[dof.starts[cells[row], None] + k[:, None] * (r + 1) + np.arange(r + 1)] = \
                -(g @ traces.T)
    Q = _selection(dof, np.arange(dof.n_dofs + dof.n_pressure), dof.sign)
    return SparseSystem(
        matrix=_galerkin(Q, B), rhs=Q.T @ loads, mesh=mesh, kind="mixed",
        quad_degree=quad_degree, elements=elements, reps=reps, shifts=shifts, dof_map=dof,
        class_blocks=class_blocks)


def _local_system(mesh, dof, degree, f, local):
    """The translation classes ``reps, shifts`` of ``mesh``, the read-only
    (w, w) block of each class, the cells' own loads on the broken space of
    ``dof`` and the block diagonal B of the blocks.  ``local(new, pts,
    weights)`` returns the (K, w, w) blocks and the (K, T, M) test values of
    the classes ``new`` at their rules of ``degree``; a cell's loads, f
    against its class's test functions, fill the last T of its w slots."""
    reps, shifts = _translation_classes(mesh)
    class_blocks = {}

    def setup(new, pts, weights):
        blocks, tests = local(new, pts, weights)
        class_blocks.update(zip(new, map(_frozen, blocks)))
        return (tests.transpose(0, 2, 1),)

    loads = np.zeros(dof.n_broken)
    ends = np.append(dof.starts[1:], dof.n_broken)
    for cells, pts, weights, (tests,), cls in _blocks(mesh, reps, shifts, degree, setup):
        fw = weights * _point_data("f", f(pts), weights.shape)
        loads[ends[cells, None] + np.arange(-tests[0].shape[1], 0)] = _per_class(fw, tests, cls)
    B = _block_diagonal(dof, reps, lambda keys: np.stack([class_blocks[k] for k in keys]))
    return reps, shifts, class_blocks, loads, B


def _blocks(mesh, reps, shifts, degree, setup):
    """Yield ``(cells, pts, weights, terms, cls)`` for each block of at most
    ``CHUNK_CELLS`` consecutive cells of each group of ``Mesh.groups``:
    ``pts`` (C * M, 2) and ``weights`` (C, M) are each cell's class rule of
    ``degree`` moved by ``shifts[c]``, and ``cls`` (C,) indexes the classes
    present in each entry of ``terms``.

    The classes that a block meets first, ascending and named by their
    lowest-numbered cells ``reps[c]``, get their rules from one
    ``_polygon_rules`` call, then one ``setup(new, pts, weights)`` call,
    which returns a tuple of arrays stacked over them.  A class's rule and
    data are released after the block that holds the last cell of the class.
    """
    last = dict(zip(reps.tolist(), range(len(reps))))
    held = {}
    for cells, _, _ in mesh.groups.values():
        for start in range(0, len(cells), CHUNK_CELLS):
            block = cells[start:start + CHUNK_CELLS]
            keys, cls = np.unique(reps[block], return_inverse=True)
            keys = keys.tolist()
            new = [rep for rep in keys if rep not in held]
            if new:
                rules = _polygon_rules([mesh.polygon(c) for c in new], degree)
                held.update(zip(new, zip(*rules, *setup(new, *rules))))
            pts, weights, *terms = zip(*(held[rep] for rep in keys))
            pts = np.stack(pts)[cls] + shifts[block, None]
            yield block, pts.reshape(-1, 2), np.stack(weights)[cls], terms, cls
            for rep in keys:
                if last[rep] <= block[-1]:
                    del held[rep]


def _build(mesh, new, elements, build, *index):
    """Build each class of ``new`` into ``elements`` as ``build(polygon, *index)``
    and return those elements; a failure names the class's cell."""
    for c in new:
        try:
            elements[c] = build(mesh.polygon(c), *index)
        except Exception as exc:
            raise AssemblyError(f"element construction failed on cell {c}: {exc}") from exc
    return [elements[c] for c in new]


def _per_class(x, mats, cls):
    """Rows x[i] @ mats[cls[i]]: the rows that are alone in their class in
    one batched product, and the rows of each other class in products of at
    most ``GEMM_BUDGET`` multiply-adds."""
    out = np.empty((len(x), mats[0].shape[1]))
    counts = np.bincount(cls)
    alone = np.flatnonzero(counts[cls] == 1)
    if len(alone):
        out[alone] = (x[alone, None] @ np.stack([mats[k] for k in cls[alone]]))[:, 0]
        if len(alone) == len(x):
            return out
    step = max(1, GEMM_BUDGET // mats[0].size)
    order = np.argsort(cls, kind="stable")
    for k, sel in enumerate(np.split(order, np.cumsum(counts)[:-1])):
        if len(sel) > 1:
            for i in range(0, len(sel), step):
                rows = sel[i:i + step]
                out[rows] = x[rows] @ mats[k]
    return out


def _translation_classes(mesh):
    """Read-only (C,) representative of each cell's translation class, its
    lowest-numbered cell, and (C, 2) shift that moves it onto the cell.

    Cells form one class when their vertex loops agree exactly relative to
    their first vertex: one ``np.unique`` over the rows of these relative
    loops per group of ``Mesh.groups``.  The key is not rounded: cells that
    are only nearly translates of each other get elements of their own.  It
    compares floats, so -0.0 and 0.0 are equal; two loops that differ only
    in such signs are exact translates.
    """
    reps = np.empty(mesh.n_cells, dtype=int)
    starts = np.empty((mesh.n_cells, 2))
    for cells, loops, _ in mesh.groups.values():
        v = mesh.vertices[loops]
        rel = (v - v[:, :1]).reshape(len(cells), -1)
        _, first, inverse = np.unique(rel, axis=0, return_index=True, return_inverse=True)
        reps[cells] = cells[first[inverse]]
        starts[cells] = v[:, 0]
    return _frozen(reps), _frozen(starts - starts[reps])


def _gram(fields, weights):
    """Weighted Gram matrices sum_m w_m f_i(x_m) . f_j(x_m) of (..., D, M, 2)
    vector values and (..., M) weights, as one capped product of the
    sqrt(w)-scaled rows (weights are positive)."""
    S = (fields * np.sqrt(weights)[..., None, :, None]).reshape(*fields.shape[:-2], -1)
    return _capped_matmul(S, np.swapaxes(S, -1, -2))


# Bound on the relative residual of an accepted solve.  Well-shaped meshes
# solve to about 1e-12 or better; a mesh with a sliver edge of 1e-3 h
# (a numerically singular system at r=4) still solves to about 4e-11.
RESIDUAL_MAX = 1e-8


def solve(system: SparseSystem) -> SolveReport:
    """Solve an assembled system and verify the residual.

    The reduced primal matrix is SPD and is factored directly.  The mixed
    saddle-point system is hybridized (``_Hybridized``): its multiplier
    matrix tie inverse tie^T is SPD and is factored instead, where ``tie``
    ties the cells' own copies of the interior edge slots and ``inverse``
    is the block diagonal of the inverse local saddle blocks.  Both are
    factored by a sparse LU ordered symmetrically (minimum degree on
    A + A^T) with the pivots on the diagonal.  The relative residual
    ``||Ax - b|| / ||b||`` of the assembled ``matrix`` and ``rhs`` is then
    computed by multiplication; above ``RESIDUAL_MAX``, one step of
    iterative refinement with the same factors follows (``iterations`` 1).
    A zero right-hand side gives the zero solution with residual 0.
    Raises ``SolveError`` when a local block or the factorization fails, or
    the final residual is non-finite or above ``RESIDUAL_MAX``.
    """
    A, b = system.matrix, system.rhs
    bnorm = float(np.linalg.norm(b))
    x, res, steps = np.zeros(system.n), 0.0, 0
    if bnorm != 0.0:
        solver = _spd_factor(A).solve if system.kind == "primal" else _Hybridized(system)
        x = solver(b)
        res = float(np.linalg.norm(A @ x - b) / bnorm)
        if not res <= RESIDUAL_MAX:
            # One step of iterative refinement.  The hybridized solve of
            # high-order elements (hex r=5) loses accuracy to the scale of
            # their basis functions; one step restores about 1e-12.
            x = x + solver(b - A @ x)
            res, steps = float(np.linalg.norm(A @ x - b) / bnorm), 1
        if not np.isfinite(res) or res > RESIDUAL_MAX:
            raise SolveError(f"solve residual {res:.3e} exceeds {RESIDUAL_MAX:g}")
    if system.kind == "primal":
        full = system.boundary_values.copy()
        full[system.dof_map.interior] = x
        x = full
    return SolveReport(solution=x, iterations=steps, residual=res)


def _spd_factor(A):
    """Sparse LU of an SPD matrix, ordered symmetrically (minimum degree on
    A + A^T) with the pivots on the diagonal."""
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolveError(f"sparse factorization failed: {exc}") from None


def _local_inverses(block, P, cells):
    """Inverses of K stacked local saddle blocks [[M, -B^T], [-B, 0]]
    (K, w, w) of P pressures each, symmetrized.  The mass M (D, D) and the
    divergence -B (P, D) are read as views of the blocks.

    The basis functions of one element differ in mass by up to 4e12
    (hex-dominant cells at r=5, at every mesh size), so each block is
    inverted after a symmetric diagonal scaling that gives the rows of M
    and of B unit size.  Raises ``SolveError`` naming the cell ``cells[k]``
    of the first block k that cannot be inverted.
    """
    D = block.shape[1] - P
    mass, div = block[:, :D, :D], block[:, D:, :D]

    def check(ok, reason):
        if not ok.all():
            raise SolveError(f"local saddle block of cell {cells[np.argmin(ok)]}: {reason}")

    check(np.isfinite(block).all(axis=(1, 2)), "not finite")
    diag = np.diagonal(mass, axis1=1, axis2=2)
    check((diag > 0).all(axis=1), "mass diagonal entry <= 0")
    rows = np.linalg.norm(div / np.sqrt(diag)[:, None], axis=2)
    check(rows.all(axis=1), "zero divergence row")
    scale = np.concatenate([1.0 / np.sqrt(diag), 1.0 / rows], axis=1)[:, :, None]
    scaled = scale * block * scale.transpose(0, 2, 1)
    # Numerical rank, from the eigenvalues of the symmetric scaled block: a
    # block with two equal rows need not meet an exact zero pivot in ``inv``.
    check(np.linalg.matrix_rank(scaled, hermitian=True) == len(scale[0]), "singular")
    inv = scale * np.linalg.inv(scaled) * scale.transpose(0, 2, 1)
    check(np.isfinite(inv).all(axis=(1, 2)), "non-finite inverse")
    return 0.5 * (inv + inv.transpose(0, 2, 1))


class _Hybridized:
    """The mixed saddle-point system, hybridized: called with a right-hand
    side b, it returns the solution (u, p).

    Three operators on the broken space of the ``DofMap``: ``gather`` is Q
    at the owning copies (broken x n); ``tie`` (multipliers x broken) ties
    the two copies of each flux slot of an interior edge, with coefficient
    +1 in the left cell and -1 in the right cell, times the edge sign; and
    the block-diagonal ``inverse`` holds each cell's inverse local saddle
    block, computed once per translation class.  With z = inverse gather b,
    the multipliers solve the SPD system (tie inverse tie^T) lam = tie z,
    and the copies are z - inverse tie^T lam.
    """

    def __init__(self, system: SparseSystem):
        dof = system.dof_map
        everything, own = np.arange(dof.n_dofs + dof.n_pressure), dof.own
        # One multiplier per flux slot of an interior edge, in global order.
        inner = dof.interior[dof.interior < dof.cell_offset]
        tie_t = _selection(dof, inner, np.where(own, dof.sign, -dof.sign))
        self.gather, self.tie = _selection(dof, everything, own * dof.sign), tie_t.T.tocsr()
        self.inverse = _block_diagonal(dof, system.reps, lambda keys: _local_inverses(
            np.stack([system.class_blocks[k] for k in keys]), dof.p_per_cell, keys))
        self.lu = _spd_factor(self.tie @ self.inverse @ tie_t) if len(inner) else None

    def __call__(self, b):
        z = self.inverse @ (self.gather @ b)
        if self.lu is not None:
            z -= self.inverse @ (self.tie.T @ self.lu.solve(self.tie @ z))
        return self.gather.T @ z


def _selection(dof, slots, vals):
    """CSR matrix from the broken space of ``dof`` to the ascending global
    ``slots``: row i holds vals[i] in the column of the slot ``dof.col[i]``,
    and is empty where that slot is none of them or vals[i] is 0."""
    to = np.full(dof.n_dofs + dof.n_pressure, -1)
    to[slots] = np.arange(len(slots))
    cols = to[dof.col]
    keep = (cols >= 0) & (vals != 0)
    indptr = np.concatenate([[0], np.cumsum(keep)])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(len(keep), len(slots)))


def _block_diagonal(dof, reps, blocks):
    """The broken x broken CSR matrix of ``dof`` that holds each cell's
    class block: ``blocks(keys)`` returns the stacked (K, w, w) blocks of a
    group's classes, named by their ascending representatives ``keys``."""
    data = np.empty(len(dof.indices))
    for cells, _, _ in dof.mesh.groups.values():
        keys, cls = np.unique(reps[cells], return_inverse=True)
        local = blocks(keys.tolist())[cls].reshape(len(cells), -1)
        data[dof.indptr[dof.starts[cells], None] + np.arange(local.shape[1])] = local
    return sp.csr_matrix((data, dof.indices, dof.indptr), shape=(dof.n_broken, dof.n_broken))


def _galerkin(Q, B):
    """Q^T B Q, with sorted indices.  Row g of Q^T lists the copies of slot
    g in cell order, and a sparse product sums each entry over them in that
    order, so the result equals each cell's signed block summed cell by
    cell.  The product does not store exact zeros."""
    A = Q.T.tocsr() @ (B @ Q)
    A.sort_indices()
    return A


def compute_errors(system: SparseSystem, report: SolveReport, exact: Exact,
                   per_element=None):
    """Global L2 / H1 (primal) or L2 flux, pressure, divergence (mixed)
    errors, integrated at the assembly degree plus 2, capped at the highest
    degree of the rules, ``quadrature.MAX_DEGREE``.

    ``per_element`` collects (cell, centroid, scalar L2 error) rows, in
    cell order.
    """
    degree = min(system.quad_degree + 2, MAX_DEGREE)
    mesh, dof, elements = system.mesh, system.dof_map, system.elements
    primal = system.kind == "primal"

    def setup(new, pts, weights):
        # Values with gradients (primal), or values, divergences and
        # pressures (mixed), flattened to (D, M) or (D, 2 M) per class.
        elems = [elements[c] for c in new]
        terms = (_eval_stacked(elems, pts, np.stack([e.coeffs for e in elems])) if primal
                 else _eval_mixed(elems, pts))
        return tuple(t.reshape(*t.shape[:2], -1) for t in terms)

    # Each broken slot's coefficient: its global slot's value times its sign.
    coef = dof.sign * report.solution[dof.col]
    # Squared errors of every cell, one row per norm.
    sq = np.empty((2 if primal else 3, mesh.n_cells))
    blocks = _blocks(mesh, system.reps, system.shifts, degree, setup)
    for cells, flat, weights, terms, cls in blocks:
        C, M = weights.shape
        D = terms[0][0].shape[0]
        rows = coef[dof.starts[cells, None] + np.arange(D + dof.p_per_cell)]
        p, grad_p = exact.p(flat)
        p, grad_p = _point_data("exact.p", p, (C, M)), _point_data("exact.p", grad_p, (C, M), (2,))
        if primal:
            ph, gh = (_per_class(rows, t, cls) for t in terms)
            gaps = [(ph - p) ** 2, ((gh.reshape(C, M, 2) - grad_p) ** 2).sum(2)]
        else:
            uh, dh = (_per_class(rows[:, :D], t, cls) for t in terms[:2])
            ph = _per_class(rows[:, D:], terms[2], cls)
            # u = -grad p and div u = f.
            gaps = [(ph - p) ** 2, ((uh.reshape(C, M, 2) + grad_p) ** 2).sum(2),
                    (dh - _point_data("exact.f", exact.f(flat), (C, M))) ** 2]
        for row, gap in zip(sq, gaps):
            row[cells] = np.einsum("cm,cm->c", weights, gap)
    if per_element is not None:
        errs = np.sqrt(np.maximum(sq[0], 0.0)).tolist()
        per_element.extend((c, *mesh.polygon(c).centroid.tolist(), errs[c])
                           for c in range(mesh.n_cells))
    names = ("L2_p", "H1_semi_p") if primal else ("L2_p", "L2_u", "L2_div_u")
    return dict(zip(names, np.sqrt(sq.sum(axis=1)).tolist()))


def convergence_rate(errors, h_values):
    """Pairwise log-ratio convergence rates between consecutive levels."""
    errors = np.asarray(errors, dtype=float)
    h = np.asarray(h_values, dtype=float)
    if len(errors) != len(h) or len(errors) < 2:
        raise ValueError("need matching error/h sequences of length >= 2")
    return np.log(errors[:-1] / errors[1:]) / np.log(h[:-1] / h[1:])
