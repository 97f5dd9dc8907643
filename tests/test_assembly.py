import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from polyds import assembly, functions, serendipity
from polyds.assembly import (
    Exact,
    SolveError,
    assemble_mixed,
    assemble_primal,
    compute_errors,
    convergence_rate,
    manufactured_solution,
    solve,
)
from polyds.cli import make_mesh
from polyds.geometry import Polygon
from polyds.mesh import (
    build_topology,
    collapse_short_edges,
    gen_hex_dominant_mesh,
    gen_perturbed_quad_mesh,
    gen_square_mesh,
    gen_trapezoid_mesh,
)
from polyds.mixed import build_mixed_element, mixed_dimension
from polyds.quadrature import _polygon_rules, polygon_rule
from polyds.serendipity import build_ds_element

from fingerprints import CASES
from helpers import (
    assemble_per_cell,
    cell_dofs,
    errors_per_cell,
    flux_boundary_per_edge,
    flux_dofs_per_cell,
    matrix_per_cell,
    mixed_interpolant,
    multiplier_matrix_per_cell,
    pressure_monomials,
    pressure_supercloseness,
    random_convex_polygon,
    saddle_solve,
    scalar_boundary_per_edge,
    scalar_dofs_per_cell,
    sliver_mesh,
    translation_classes_by_bytes,
)

ZERO = lambda x: np.zeros(len(x))


def above(A, tol):
    """A copy of the sparse matrix A without its entries of size <= tol."""
    A = A.copy()
    A.data[np.abs(A.data) <= tol] = 0.0
    A.eliminate_zeros()
    return A


def poly_exact(coeffs):
    """Exact bundle for p = sum c_ab x^a y^b given as {(a, b): c}."""
    def p(x):
        return sum(c * x[:, 0]**a * x[:, 1]**b for (a, b), c in coeffs.items())

    def grad_p(x):
        gx = sum(a * c * x[:, 0]**(a - 1) * x[:, 1]**b
                 for (a, b), c in coeffs.items() if a)
        gy = sum(b * c * x[:, 0]**a * x[:, 1]**(b - 1)
                 for (a, b), c in coeffs.items() if b)
        out = np.zeros((len(x), 2))
        out[:, 0] = gx
        out[:, 1] = gy
        return out

    def lap(x):
        out = np.zeros(len(x))
        for (a, b), c in coeffs.items():
            if a >= 2:
                out += a * (a - 1) * c * x[:, 0]**(a - 2) * x[:, 1]**b
            if b >= 2:
                out += b * (b - 1) * c * x[:, 0]**a * x[:, 1]**(b - 2)
        return out

    return Exact(p=lambda x: (p(x), grad_p(x)), f=lambda x: -lap(x))


class TestPrimal:
    def test_single_cell_all_boundary(self):
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        mesh = build_topology(verts, [[0, 1, 2, 3]])
        system = assemble_primal(mesh, 1, ZERO)
        assert system.n == 0
        report = solve(system)
        assert report.residual == 0.0
        assert len(report.solution) == 4

    def test_symmetry_and_constant_nullspace(self):
        mesh = gen_hex_dominant_mesh(3)
        system = assemble_primal(mesh, 2, manufactured_solution().f)
        A = system.matrix
        assert abs(A - A.T).max() < 1e-12
        for c in range(mesh.n_cells):
            elem = system.elements[system.reps[c]]
            rule = polygon_rule(mesh.polygon(c), system.quad_degree)
            _, grads = elem.eval_all(rule.points - system.shifts[c])
            local = np.einsum("imk,jmk,m->ij", grads, grads, rule.weights)
            assert np.abs(local @ np.ones(elem.dim)).max() < 1e-11

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_patch_reproduction(self, r):
        mesh = gen_hex_dominant_mesh(3)
        coeffs = {(a, b): 0.3 + a - 0.7 * b for a in range(r + 1)
                  for b in range(r + 1 - a)}
        ex = poly_exact(coeffs)
        system = assemble_primal(mesh, r, ex.f, quad_degree=2 * (2 * r + 4),
                                 dirichlet=lambda x: ex.p(x)[0])
        report = solve(system)
        errs = compute_errors(system, report, ex)
        assert errs["L2_p"] < 1e-9
        assert errs["H1_semi_p"] < 1e-8

    def test_galerkin_orthogonality(self):
        mesh = gen_square_mesh(4)
        ex = manufactured_solution()
        system = assemble_primal(mesh, 2, ex.f)
        report = solve(system)
        x = report.solution[system.dof_map.interior]
        residual = system.matrix @ x - system.rhs
        rng = np.random.default_rng(0)
        scale = np.linalg.norm(system.rhs)
        for _ in range(20):
            w = rng.standard_normal(len(residual))
            assert abs(residual @ w) < 1e-9 * scale * np.linalg.norm(w)

    def test_global_dof_count(self):
        mesh = gen_hex_dominant_mesh(4)
        for r in (1, 2, 3):
            system = assemble_primal(mesh, r, ZERO)
            want = mesh.n_vertices + mesh.n_edges * (r - 1)
            for loop in mesh.cells:
                N = len(loop)
                want += (r - N + 2) * (r - N + 1) // 2 if r >= N else 0
            assert system.dof_map.n_dofs == want

    def test_zero_load_gives_zero_solution(self):
        mesh = gen_square_mesh(3)
        system = assemble_primal(mesh, 2, ZERO)
        report = solve(system)
        assert np.abs(report.solution).max() == 0.0

    def test_solver_failure_reported(self):
        mesh = gen_square_mesh(3)
        system = assemble_primal(mesh, 2, manufactured_solution().f)
        # poison the matrix so the solve cannot reach the tolerance
        system.matrix = sp.csr_matrix(np.diag([1.0, np.nan])[:: 1])
        system.rhs = np.ones(2)
        system.dof_map.interior = np.arange(2)
        system.boundary_values = np.zeros(2)
        with pytest.raises(SolveError):
            solve(system)


class TestMixed:
    def test_divergence_block_full_rank(self):
        mesh = gen_square_mesh(2)
        system = assemble_mixed(mesh, 1, 0, ZERO)
        nu, npr = system.dof_map.n_dofs, system.dof_map.n_pressure
        B = system.matrix[nu:, :nu].toarray()
        assert B.shape[0] == npr
        assert np.linalg.matrix_rank(B, tol=1e-12) == npr

    def test_mass_block_spd(self):
        mesh = gen_square_mesh(2)
        system = assemble_mixed(mesh, 1, 1, ZERO)
        nu = system.dof_map.n_dofs
        M = system.matrix[:nu, :nu].toarray()
        assert np.abs(M - M.T).max() < 1e-13
        np.linalg.cholesky(M)

    @pytest.mark.parametrize("r,s", [(0, 0), (1, 0), (1, 1), (2, 2), (3, 3)])
    def test_patch_reproduction(self, r, s):
        mesh = gen_hex_dominant_mesh(3)
        coeffs = {(a, b): 0.5 - 0.2 * a + 0.4 * b for a in range(s + 1)
                  for b in range(s + 1 - a)}
        ex = poly_exact(coeffs)
        system = assemble_mixed(mesh, r, s, ex.f, quad_degree=2 * (2 * r + 6),
                                dirichlet_p=lambda x: ex.p(x)[0])
        report = solve(system)
        errs = compute_errors(system, report, ex)
        assert errs["L2_p"] < 1e-9
        assert errs["L2_u"] < 1e-8
        assert errs["L2_div_u"] < 1e-8

    def test_local_conservation(self):
        mesh = gen_hex_dominant_mesh(3)
        ex = manufactured_solution()
        system = assemble_mixed(mesh, 1, 0, ex.f)
        report = solve(system)
        dof = system.dof_map
        for c in range(mesh.n_cells):
            E = mesh.polygon(c)
            elem = system.elements[system.reps[c]]
            rule = polygon_rule(E, system.quad_degree)
            gids, signs = cell_dofs(dof, c)
            ucoef = signs * report.solution[gids]
            _, divs, _ = elem.eval_all(rule.points - system.shifts[c])
            lhs = rule.weights @ (ucoef @ divs)
            rhs = rule.weights @ ex.f(rule.points)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_divergence_consistency_with_interpolant(self):
        # B applied to interpolant coefficients equals the pressure moments
        # of the divergence (global form of the commuting property).
        mesh = gen_square_mesh(2)
        r = s = 1
        ex = manufactured_solution()
        system = assemble_mixed(mesh, r, s, ex.f, quad_degree=2 * r + 10)
        dof = system.dof_map
        u = np.zeros(dof.n_dofs)
        for c in range(mesh.n_cells):
            elem, shift = system.elements[system.reps[c]], system.shifts[c]
            co = mixed_interpolant(elem, lambda x: -ex.p(x + shift)[1],
                                   quad_degree=system.quad_degree)
            gids, signs = cell_dofs(dof, c)
            u[gids] = signs * co
        nu, npr = system.dof_map.n_dofs, system.dof_map.n_pressure
        B = -system.matrix[nu:, :nu]  # the pressure rows hold -B
        got = B @ u
        want = np.zeros(npr)
        for c in range(mesh.n_cells):
            E = mesh.polygon(c)
            rule = polygon_rule(E, system.quad_degree)
            qs, _ = pressure_monomials(E, s, rule.points)
            for k, q in enumerate(qs):
                want[c * dof.p_per_cell + k] = rule.weights @ (
                    ex.f(rule.points) * q
                )
        assert np.abs(got - want).max() < 1e-9 * (np.abs(want).max() + 1)

    def test_matches_dense_solve(self):
        mesh = gen_square_mesh(2)
        ex = manufactured_solution()
        system = assemble_mixed(mesh, 1, 0, ex.f)
        a = solve(system)
        x = np.linalg.solve(system.matrix.toarray(), system.rhs)
        assert np.abs(a.solution - x).max() < 1e-8


class TestHybridSolve:
    # solve condenses the mixed system onto edge multipliers; the oracle
    # factors the whole saddle-point matrix.
    MESHES = {"square4": lambda: gen_square_mesh(4),
              "trapezoid4": lambda: gen_trapezoid_mesh(4),
              "pquad4": lambda: gen_perturbed_quad_mesh(4, 0.2, 1),
              "hex8": lambda: gen_hex_dominant_mesh(8)}
    BOUNDARY = staticmethod(lambda x: 1.0 + x[:, 0] - 2.0 * x[:, 1] ** 2)

    @staticmethod
    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    @pytest.mark.parametrize("mesh_name", list(MESHES))
    @pytest.mark.parametrize("r, s", [(0, 0), (1, 1), (2, 2), (3, 3), (1, 0), (2, 1), (3, 2)])
    @pytest.mark.parametrize("with_data", [False, True])
    def test_matches_saddle_point_oracle(self, mesh_name, r, s, with_data):
        mesh = self.MESHES[mesh_name]()
        g = self.BOUNDARY if with_data else None
        system = assemble_mixed(mesh, r, s, manufactured_solution().f, dirichlet_p=g)
        report = solve(system)
        u, p = saddle_solve(system)
        nu = system.dof_map.n_dofs
        assert self.rel(report.solution[:nu], u) <= 1e-8
        assert self.rel(report.solution[nu:], p) <= 1e-8
        x, b = report.solution, system.rhs
        assert np.linalg.norm(system.matrix @ x - b) <= assembly.RESIDUAL_MAX * np.linalg.norm(b)

    @staticmethod
    def one_cell_mesh():
        verts = [(0, 0), (1, 0), (1.2, 0.7), (0.4, 1.1), (-0.1, 0.6)]
        return build_topology(verts, [[0, 1, 2, 3, 4]])

    def test_one_cell_mesh_has_no_multipliers(self):
        mesh = self.one_cell_mesh()
        system = assemble_mixed(mesh, 2, 2, manufactured_solution().f,
                                dirichlet_p=self.BOUNDARY)
        report = solve(system)
        u, p = saddle_solve(system)
        nu = system.dof_map.n_dofs
        assert self.rel(report.solution[:nu], u) <= 1e-10
        assert self.rel(report.solution[nu:], p) <= 1e-10

    @pytest.mark.parametrize("case", [c for c in sorted(CASES) if CASES[c][3] == "mixed"])
    def test_multiplier_matrix_matches_per_cell_oracle(self, monkeypatch, case):
        # The factored matrix tie inverse tie^T equals, bit for bit, the sum
        # of each cell's signed local block in cell order: every entry sums
        # at most two cells' terms, and a + b = b + a.
        family, n, seed, _, r, s = CASES[case]
        system = assemble_mixed(make_mesh(family, n, seed), r, s, manufactured_solution().f)
        factor, factored = assembly._spd_factor, []
        monkeypatch.setattr(assembly, "_spd_factor", lambda A: factored.append(A) or factor(A))
        solve(system)
        (got,) = factored
        assert np.array_equal(got.toarray(), multiplier_matrix_per_cell(system).toarray())
        assert np.array_equal(got.toarray(), got.T.toarray())

    @pytest.mark.parametrize("mesh_name, r, s", [("hex4", 1, 1), ("hex4", 3, 2),
                                                 ("pquad4", 2, 1), ("one-cell", 2, 2)])
    def test_gather_owns_each_slot_once(self, mesh_name, r, s):
        # gather^T gather = I: each global slot has exactly one owning copy,
        # with sign +-1; each multiplier ties two copies.
        mesh = {"hex4": lambda: make_mesh("hex-dominant", 4, 0),
                "pquad4": lambda: make_mesh("perturbed-quad", 4, 1),
                "one-cell": self.one_cell_mesh}[mesh_name]()
        system = assemble_mixed(mesh, r, s, manufactured_solution().f)
        hybrid = assembly._Hybridized(system)
        gather, tie = hybrid.gather, hybrid.tie
        assert np.array_equal((gather.T @ gather).toarray(), np.eye(system.n))
        assert np.array_equal(np.abs(gather.data), np.ones(gather.nnz))
        dof = system.dof_map
        n_lam = np.count_nonzero(dof.interior < dof.cell_offset)
        assert tie.shape == (n_lam, gather.shape[0]) and (n_lam == 0) == (mesh_name == "one-cell")
        assert np.array_equal(np.diff(tie.indptr), np.full(n_lam, 2))
        assert np.array_equal(np.abs(tie.data), np.ones(tie.nnz))

    def test_edited_matrix_fails_the_residual_check(self):
        system = assemble_mixed(gen_hex_dominant_mesh(4), 1, 1, manufactured_solution().f)
        K = system.matrix.tolil()
        K[0, 0] *= 1.5
        system.matrix = K.tocsr()
        with pytest.raises(SolveError, match="residual"):
            solve(system)

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda m, b: (m, np.zeros_like(b)), "zero divergence row"),
        (lambda m, b: (m, np.vstack([b[:1], b[:1], b[2:]])), "singular"),
        (lambda m, b: (np.where(np.eye(len(m)) > 0, np.nan, m), b), "not finite"),
        (lambda m, b: (-m, b), "mass diagonal entry <= 0"),
    ])
    def test_bad_class_block_names_the_cell(self, corrupt, reason):
        system = assemble_mixed(gen_hex_dominant_mesh(4), 1, 1, manufactured_solution().f)
        rep = sorted(system.class_blocks)[-1]
        block, P = system.class_blocks[rep], system.dof_map.p_per_cell
        D = len(block) - P
        # The mass and the divergence are corrupted, B and B^T together.
        m, b = corrupt(block[:D, :D], block[D:, :D])
        system.class_blocks[rep] = np.block([[m, b.T], [b, np.zeros((P, P))]])
        with pytest.raises(SolveError, match=f"cell {rep}: {reason}"):
            solve(system)

    def test_refinement_step_restores_the_residual(self, monkeypatch):
        # A first solve that misses the residual bound gets one step of
        # iterative refinement with the same factors.
        system = assemble_mixed(gen_hex_dominant_mesh(4), 1, 1, manufactured_solution().f)
        call = assembly._Hybridized.__call__
        calls = []

        def perturbed(self, b):
            calls.append(b)
            x = call(self, b)
            return x * (1 + 1e-6) if len(calls) == 1 else x

        monkeypatch.setattr(assembly._Hybridized, "__call__", perturbed)
        report = solve(system)
        assert len(calls) == 2 and report.iterations == 1
        assert report.residual <= 1e-12

    @pytest.mark.parametrize("n, r", [(8, 4), (4, 5)])
    def test_high_order_hex_solves(self, n, r):
        # The mass of the basis functions of one hex-dominant cell spans
        # about 1e11 at r=5.  With the scaled local inverses r=4 needs no
        # refinement (residual about 1e-10, against 1.4e-8 unscaled).
        system = assemble_mixed(gen_hex_dominant_mesh(n), r, r, manufactured_solution().f,
                                dirichlet_p=self.BOUNDARY)
        report = solve(system)
        assert report.residual <= assembly.RESIDUAL_MAX
        if r == 4:
            assert report.iterations == 0 and report.residual <= 1e-9
        _, p = saddle_solve(system)
        assert self.rel(report.solution[system.dof_map.n_dofs:], p) <= 1e-6


@pytest.mark.parametrize("case", sorted(CASES))
def test_matrix_matches_cell_order_sum(case):
    # Q^T B Q sums every entry over the cells that hold it in cell order,
    # bit for bit as np.add.at does.
    family, n, seed, method, r, s = CASES[case]
    mesh, f = make_mesh(family, n, seed), manufactured_solution().f
    system = assemble_primal(mesh, r, f) if s is None else assemble_mixed(mesh, r, s, f)
    assert np.array_equal(system.matrix.toarray(), matrix_per_cell(system))


@pytest.mark.parametrize("mesh_name", ["hex4", "pquad4"])
@pytest.mark.parametrize("r, s", [(1, 1), (2, 1), (1, 0)])
def test_mixed_class_blocks_are_saddle_blocks(mesh_name, r, s):
    # Each mixed class block is one read-only array [[M, -B^T], [-B, 0]]
    # over the flux slots and then the pressures of its class.
    mesh = FAMILIES[mesh_name]()
    system = assemble_mixed(mesh, r, s, manufactured_solution().f)
    P = system.dof_map.p_per_cell
    assert system.class_blocks.keys() == set(system.reps.tolist())
    for rep, block in system.class_blocks.items():
        D = mixed_dimension(len(mesh.cells[rep]), r, s)
        assert isinstance(block, np.ndarray) and block.shape == (D + P, D + P)
        assert np.array_equal(block[D:, D:], np.zeros((P, P)))
        assert np.array_equal(block[D:, :D], block[:D, D:].T)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0


@pytest.mark.parametrize("kind", ["primal", "mixed"])
def test_reported_residual_is_true_residual(kind):
    mesh = gen_hex_dominant_mesh(4)
    f = manufactured_solution().f
    if kind == "primal":
        system = assemble_primal(mesh, 4, f)
        report = solve(system)
        x = report.solution[system.dof_map.interior]
    else:
        system = assemble_mixed(mesh, 1, 1, f)
        report = solve(system)
        x = report.solution
    b = system.rhs
    want = np.linalg.norm(system.matrix @ x - b) / np.linalg.norm(b)
    assert report.residual == pytest.approx(want, rel=1e-6, abs=0.0)


class TestPointData:
    # Every place that reads user data on points takes a single value as
    # constant data, or one value per point in any shape.
    @staticmethod
    def outputs(site, data):
        """The arrays that the data of ``site`` enters, on a 2x2 square mesh."""
        mesh, ex = gen_square_mesh(2), manufactured_solution()
        if site == "f-primal":
            return (assemble_primal(mesh, 1, data).rhs,)
        if site == "f-mixed":
            return (assemble_mixed(mesh, 1, 0, data).rhs,)
        if site == "dirichlet":
            system = assemble_primal(mesh, 2, ZERO, dirichlet=data)
            return system.rhs, system.boundary_values
        if site == "dirichlet_p":
            return (assemble_mixed(mesh, 1, 1, ZERO, dirichlet_p=data).rhs,)
        system = assemble_mixed(mesh, 1, 0, ex.f)
        errors = compute_errors(system, solve(system), Exact(ex.p, data))
        return (np.array(list(errors.values())),)

    SITES = {"f-primal": "f", "f-mixed": "f", "dirichlet": "dirichlet",
             "dirichlet_p": "dirichlet_p", "exact.f": "exact.f"}

    @pytest.mark.parametrize("site", list(SITES))
    @pytest.mark.parametrize("constant", [lambda x: 1.5, lambda x: np.array([1.5]),
                                          lambda x: np.full((len(x), 1), 1.5)],
                             ids=["float", "one-value", "column"])
    def test_constant_equals_full_array(self, site, constant):
        got = self.outputs(site, constant)
        want = self.outputs(site, lambda x: np.full(len(x), 1.5))
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    @pytest.mark.parametrize("site", list(SITES))
    def test_wrong_shape_names_the_argument(self, site):
        with pytest.raises(ValueError, match=rf"^{self.SITES[site]} returned shape "
                                             r"\((\d+), 2\) at \1 points; .* shape \(\1,\)"):
            self.outputs(site, lambda x: np.ones((len(x), 2)))


class TestExactP:
    # compute_errors reads Exact.p as it reads f: a single value of p, or
    # one gradient 2-vector, is constant.
    @staticmethod
    def errors(kind, p):
        mesh, ex = gen_square_mesh(2), manufactured_solution()
        system = (assemble_primal(mesh, 1, ex.f) if kind == "primal"
                  else assemble_mixed(mesh, 1, 0, ex.f))
        return compute_errors(system, solve(system), Exact(p, ex.f))

    @pytest.mark.parametrize("kind", ["primal", "mixed"])
    @pytest.mark.parametrize("constant", [lambda x: (0.5, [1.0, -2.0]),
                                          lambda x: (np.array([0.5]), np.array([[1.0, -2.0]])),
                                          lambda x: (0.5, np.tile([1.0, -2.0], (len(x), 1)))],
                             ids=["floats", "one-row", "constant-p"])
    def test_constant_equals_full_arrays(self, kind, constant):
        full = lambda x: (np.full(len(x), 0.5), np.tile([1.0, -2.0], (len(x), 1)))
        assert self.errors(kind, constant) == self.errors(kind, full)

    @pytest.mark.parametrize("p, message", [
        (lambda x: (np.ones((len(x), 2)), np.zeros((len(x), 2))),
         r"\((\d+), 2\) at \1 points; expected a single value or shape \(\1,\)"),
        (lambda x: (np.ones(len(x)), np.zeros((len(x) + 1, 2))),
         r"\(\d+, 2\) at (\d+) points; .* of shape \(2,\) or shape \(\1, 2\)"),
        (lambda x: (np.ones(len(x)), np.zeros((len(x), 3))),
         r"\((\d+), 3\) at \1 points; .* of shape \(2,\) or shape \(\1, 2\)"),
    ], ids=["values", "gradient-count", "gradient-width"])
    def test_wrong_shape_names_exact_p(self, p, message):
        with pytest.raises(ValueError, match=rf"^exact\.p returned shape {message}$"):
            self.errors("mixed", p)


class TestTranslationInvariance:
    # Local matrices depend only on the shape of a cell, not on where it
    # sits; reusing them across congruent cells relies on this.
    SHIFT = np.array([3.7, -1.3])

    def pair(self, N, seed):
        E = random_convex_polygon(N, np.random.default_rng(seed))
        return E, Polygon(E.vertices + self.SHIFT)

    @staticmethod
    def rel_diff(a, b):
        return np.abs(a - b).max() / np.abs(a).max()

    @pytest.mark.parametrize("N, r", [(3, 1), (4, 1), (5, 2), (6, 2), (6, 3),
                                      (4, 4), (7, 5)])
    def test_primal_stiffness(self, N, r):
        local = []
        for E in self.pair(N, 100 + 10 * N + r):
            rule = polygon_rule(E, 2 * r + 4)
            _, grads = build_ds_element(E, r).eval_all(rule.points)
            local.append(np.einsum("imk,jmk,m->ij", grads, grads, rule.weights))
        assert self.rel_diff(*local) <= 1e-10

    @pytest.mark.parametrize("N, r", [(4, 1), (5, 1), (5, 2), (6, 2)])
    def test_mixed_mass(self, N, r):
        local = []
        for E in self.pair(N, 200 + 10 * N + r):
            rule = polygon_rule(E, 2 * r + 6)
            vals, _, _ = build_mixed_element(E, r, r).eval_all(rule.points)
            local.append(np.einsum("imk,jmk,m->ij", vals, vals, rule.weights))
        assert self.rel_diff(*local) <= 1e-10


class TestTranslationClasses:
    # Assembly builds, evaluates and integrates once per class of cells
    # that are translates of each other; a cell reads its class element at
    # points moved back by its shift.
    MESHES = {"square4": lambda: gen_square_mesh(4),
              "hex4": lambda: gen_hex_dominant_mesh(4),
              "hex8": lambda: gen_hex_dominant_mesh(8),
              "trapezoid4": lambda: gen_trapezoid_mesh(4),
              "split3": lambda: TestTranslationClasses.split_centre_grid()}
    BOUNDARY = staticmethod(lambda x: 1.0 + x[:, 0] - 2.0 * x[:, 1] ** 2)

    @staticmethod
    def split_centre_grid():
        # A 3x3 grid of squares with the centre square cut into two
        # triangles: the triangle group has no boundary edge.
        verts = [(i / 3, j / 3) for j in range(4) for i in range(4)]
        v = lambda i, j: 4 * j + i
        cells = [[v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)]
                 for j in range(3) for i in range(3) if (i, j) != (1, 1)]
        cells += [[v(1, 1), v(2, 1), v(2, 2)], [v(1, 1), v(2, 2), v(1, 2)]]
        return build_topology(verts, cells)

    @pytest.mark.parametrize("mesh_name", ["hex4", "trapezoid4", "split3"])
    @pytest.mark.parametrize("r, s", [(2, None), (4, None), (1, 1), (0, 0), (3, 2)])
    def test_reuse_matches_per_cell_oracle(self, mesh_name, r, s):
        mesh = self.MESHES[mesh_name]()
        f = manufactured_solution().f
        if s is None:
            system = assemble_primal(mesh, r, f, dirichlet=self.BOUNDARY)
        else:
            system = assemble_mixed(mesh, r, s, f, dirichlet_p=self.BOUNDARY)
        A, b = assemble_per_cell(mesh, r, s, f, self.BOUNDARY)
        K, tol = system.matrix, 1e-13 * np.abs(A.data).max()
        if s is not None:
            # The mixed matrix stores no exact zeros (the curls are
            # divergence-free), and the oracle computes its blocks in
            # another order: an entry at round-off (at most 1.2e-16 here)
            # can be zero in one of the two only.  Compare the entries
            # above the tolerance of the values.
            K, A = (above(M, tol) for M in (K, A))
        assert np.array_equal(K.indptr, A.indptr)
        assert np.array_equal(K.indices, A.indices)
        assert np.abs(K.data - A.data).max() <= tol
        assert np.abs(system.rhs - b).max() <= 1e-13 * np.abs(b).max()

    @pytest.mark.parametrize("gen, n, classes", [
        (gen_hex_dominant_mesh, 4, 11), (gen_hex_dominant_mesh, 8, 11),
        (gen_hex_dominant_mesh, 16, 11), (gen_hex_dominant_mesh, 32, 11),
        (gen_square_mesh, 16, 1), (gen_trapezoid_mesh, 16, 4),
    ])
    def test_class_count(self, gen, n, classes):
        # The classes rest on exact vertex bytes, so a generator that moves a
        # vertex by one bit in one cell splits its class.
        reps, _ = assembly._translation_classes(gen(n))
        assert len(set(reps.tolist())) == classes

    @pytest.mark.parametrize("make", [
        lambda: gen_hex_dominant_mesh(16), lambda: gen_hex_dominant_mesh(64),
        lambda: gen_perturbed_quad_mesh(32, 0.2, 1), lambda: gen_trapezoid_mesh(8),
        lambda: gen_square_mesh(8),
        lambda: collapse_short_edges(gen_hex_dominant_mesh(6), 0.05),
    ], ids=["hex16", "hex64", "pquad32", "trapezoid8", "square8", "hex6-collapsed"])
    def test_matches_byte_key_loop(self, make):
        # One np.unique per group of cells gives the classes and shifts of
        # the loop that keys each cell's polygon on its relative vertex bytes.
        mesh = make()
        reps, shifts = assembly._translation_classes(mesh)
        want_reps, want_shifts = translation_classes_by_bytes(mesh)
        assert np.array_equal(reps, want_reps)
        assert shifts.tobytes() == want_shifts.tobytes()

    @pytest.mark.parametrize("mesh_name, classes", [("square4", 1), ("hex8", 11)])
    @pytest.mark.parametrize("kind", ["primal", "mixed"])
    def test_one_build_per_class(self, monkeypatch, mesh_name, classes, kind):
        calls = []
        for name in ("build_ds_element", "build_mixed_element"):
            build = getattr(assembly, name)
            monkeypatch.setattr(assembly, name,
                                lambda *args, build=build: calls.append(args) or build(*args))
        mesh = self.MESHES[mesh_name]()
        if kind == "primal":
            system = assemble_primal(mesh, 2, ZERO)
            direct = lambda E: build_ds_element(E, 2)
        else:
            system = assemble_mixed(mesh, 1, 1, ZERO)
            direct = lambda E: build_mixed_element(E, 1, 1)
        assert len(calls) == classes
        assert system.elements.keys() == set(system.reps.tolist())
        for c in range(mesh.n_cells):
            E, rep = mesh.polygon(c), system.reps[c]
            elem = system.elements[rep]
            assert elem.polygon is mesh.polygon(rep)
            pts = polygon_rule(E, 8).points
            got_all = elem.eval_all(pts - system.shifts[c])
            for got, want in zip(got_all, direct(E).eval_all(pts)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def is_group_run(mesh, cells):
        """Whether ``cells`` are consecutive cells of one group."""
        group = mesh.groups[len(mesh.cells[cells[0]])][0]
        start = np.searchsorted(group, cells[0])
        return np.array_equal(cells, group[start:start + len(cells)])

    def test_blocks_release_class_data(self, monkeypatch):
        # Class data lives from its class's first block to its last, so
        # memory stays flat however many classes a mesh has.
        monkeypatch.setattr(assembly, "CHUNK_CELLS", 5)
        mesh = gen_hex_dominant_mesh(8)
        reps, shifts = assembly._translation_classes(mesh)
        refs = {}

        class Data:
            pass

        def setup(new, pts, weights):
            # One call per block, with the classes that the block meets
            # first and their rules.
            assert new == sorted(new) and not refs.keys() & set(new)
            assert len(pts) == len(weights) == len(new)
            out = np.array([Data() for _ in new])
            refs.update((rep, weakref.ref(data)) for rep, data in zip(new, out))
            return (out,)

        seen = []
        blocks = assembly._blocks(mesh, reps, shifts, 2, setup)
        for cells, pts, weights, terms, cls in blocks:
            for rep, ref in refs.items():
                done = set(np.flatnonzero(reps == rep).tolist()) <= set(seen)
                assert (ref() is None) == done
            assert self.is_group_run(mesh, cells) and len(cells) <= 5
            keys = np.unique(reps[cells])
            (data,) = terms
            assert all(d is refs[rep]() for d, rep in zip(data, keys.tolist(), strict=True))
            assert np.array_equal(keys[cls], reps[cells])
            seen.extend(cells.tolist())
            del terms, data
        assert sorted(seen) == list(range(mesh.n_cells))
        assert refs.keys() == set(reps.tolist())
        assert all(ref() is None for ref in refs.values())

    @pytest.mark.parametrize("mesh_name", ["hex8", "pquad4"])
    def test_blocks_move_each_class_rule(self, monkeypatch, mesh_name):
        # Every cell's rule is its class's rule moved by its shift, bit for
        # bit, and agrees with the rule on the cell's own polygon to
        # round-off.
        monkeypatch.setattr(assembly, "CHUNK_CELLS", 5)
        mesh = (gen_hex_dominant_mesh(8) if mesh_name == "hex8"
                else gen_perturbed_quad_mesh(4, 0.2, 1))
        reps, shifts = assembly._translation_classes(mesh)
        degree, seen = 6, []
        blocks = assembly._blocks(mesh, reps, shifts, degree, lambda *args: ())
        for cells, pts, weights, terms, cls in blocks:
            assert terms == [] and pts.shape == (weights.size, 2)
            assert self.is_group_run(mesh, cells) and len(cells) <= 5
            for c, x, w in zip(cells.tolist(), pts.reshape(*weights.shape, 2), weights):
                points, wts = _polygon_rules([mesh.polygon(reps[c])], degree)
                assert np.array_equal(x, points[0] + shifts[c]) and np.array_equal(w, wts[0])
                own = polygon_rule(mesh.polygon(c), degree)
                assert np.abs(x - own.points).max() <= 1e-14 * np.abs(own.points).max()
                assert np.abs(w - own.weights).max() <= 1e-14 * own.weights.max()
            seen.extend(cells.tolist())
        assert sorted(seen) == list(range(mesh.n_cells))

    def test_shared_arrays_read_only(self):
        mesh = gen_square_mesh(4)
        primal = assemble_primal(mesh, 2, ZERO)
        system = assemble_mixed(mesh, 1, 1, ZERO)
        elem = primal.elements[primal.reps[1]]
        mixed = system.elements[system.reps[1]]
        for shared in (elem.coeffs, elem.table.powers, *elem.affines, mixed.rows,
                       mixed.pressure.powers, primal.reps, primal.shifts, system.reps,
                       system.shifts):
            with pytest.raises(ValueError):
                shared[0] = 1.0


class TestStackedBlocks:
    # Both forms' assembly and error integration build a block's new classes
    # one by one, then take their rules, basis values and Gram matrices in
    # stacked array work.
    def test_assembly_bytes_do_not_depend_on_the_evaluation_budget(self, monkeypatch):
        pquad, hexes = gen_perturbed_quad_mesh(8, 0.2, 1), gen_hex_dominant_mesh(4)
        f = manufactured_solution().f
        for assemble in (lambda: assemble_primal(pquad, 2, f),
                         lambda: assemble_mixed(pquad, 2, 1, f),
                         lambda: assemble_mixed(hexes, 3, 3, f)):
            out = []
            for budget in (1, 10**12, 1, 10**12):  # one class per pass, all classes
                monkeypatch.setattr(serendipity, "EVAL_BUDGET", budget)
                system = assemble()
                out.append((system.matrix.data.tobytes(), system.rhs.tobytes()))
            assert out[0] == out[1] == out[2] == out[3]

    @pytest.mark.parametrize("shape", [(20, 200, 2), (4, 12, 150, 2)])
    def test_capped_gram_over_the_budget_equals_one_product(self, monkeypatch, shape):
        rng = np.random.default_rng(6)
        fields = rng.standard_normal(shape)
        weights = rng.uniform(0.1, 1.0, shape[:-3] + shape[-2:-1])
        want = assembly._gram(fields, weights)
        S = (fields * np.sqrt(weights)[..., None, :, None]).reshape(*shape[:-2], -1)
        assert np.array_equal(want, S @ np.swapaxes(S, -1, -2))
        monkeypatch.setattr(functions, "GEMM_BUDGET", 5000)
        got = assembly._gram(fields, weights)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("budget", [functions.GEMM_BUDGET, 50])
    def test_per_class_equals_per_row_products(self, monkeypatch, budget):
        # Classes of one row go through one batched product, the others
        # through capped products of their rows; with a small budget each
        # capped product holds one row.
        monkeypatch.setattr(assembly, "GEMM_BUDGET", budget)
        rng = np.random.default_rng(4)
        cls = np.array([3, 0, 3, 1, 4, 3, 2, 0, 5, 3, 6])  # classes of 4, 2 and 1 rows
        mats = tuple(rng.standard_normal((12, 7)) for _ in range(7))
        x = rng.standard_normal((len(cls), 12))
        want = np.array([x[i] @ mats[k] for i, k in enumerate(cls)])
        for m in (mats, np.stack(mats)):
            got = assembly._per_class(x, m, cls)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        # Every row alone in its class: only the batched product.
        want = np.array([x[i] @ mats[i] for i in range(5)])
        got = assembly._per_class(x[:5], mats, np.arange(5))
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


FAMILIES = {"square4": lambda: gen_square_mesh(4),
            "trapezoid4": lambda: gen_trapezoid_mesh(4),
            "pquad4": lambda: gen_perturbed_quad_mesh(4, 0.2, 1),
            "hex4": lambda: gen_hex_dominant_mesh(4)}


class TestDofMaps:
    # The maps number groups of cells with equal N as arrays; the oracles
    # number cell by cell.
    @pytest.mark.parametrize("mesh_name", list(FAMILIES))
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_scalar_ids_match_per_cell_oracle(self, mesh_name, r):
        mesh = FAMILIES[mesh_name]()
        dof = assembly.DofMap(mesh, r)
        want, n_dofs = scalar_dofs_per_cell(mesh, r)
        assert dof.n_dofs == n_dofs
        for c in range(mesh.n_cells):
            ids, signs = cell_dofs(dof, c)
            assert np.array_equal(ids, want[c])
            assert np.array_equal(signs, np.ones(len(ids)))

    @pytest.mark.parametrize("mesh_name", list(FAMILIES))
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_boundary_and_dof_points_match_per_edge_oracle(self, mesh_name, r):
        mesh = FAMILIES[mesh_name]()
        dof = assembly.DofMap(mesh, r)
        boundary, interior, points = scalar_boundary_per_edge(mesh, r)
        assert np.array_equal(dof.boundary, boundary)
        assert np.array_equal(dof.interior, interior)
        assert np.array_equal(assembly._dof_points(dof), points)

    @pytest.mark.parametrize("mesh_name", list(FAMILIES))
    @pytest.mark.parametrize("r, s", [(1, 1), (2, 2)])
    def test_flux_ids_and_signs_match_per_cell_oracle(self, mesh_name, r, s):
        mesh = FAMILIES[mesh_name]()
        dof = assembly.DofMap(mesh, r, s)
        want, n_flux = flux_dofs_per_cell(mesh, r, s)
        assert dof.n_dofs == n_flux
        for c in range(mesh.n_cells):
            ids, signs = cell_dofs(dof, c)
            assert np.array_equal(ids, want[c][0])
            assert np.array_equal(signs, want[c][1])

    @pytest.mark.parametrize("mesh_name", list(FAMILIES))
    @pytest.mark.parametrize("r, s", [(0, 0), (1, 1), (2, 1)])
    def test_flux_boundary_matches_per_edge_oracle(self, mesh_name, r, s):
        mesh = FAMILIES[mesh_name]()
        dof = assembly.DofMap(mesh, r, s)
        boundary, interior = flux_boundary_per_edge(mesh, r, s)
        assert np.array_equal(dof.boundary, boundary)
        assert np.array_equal(dof.interior, interior)

    @pytest.mark.parametrize("mesh_name", ["hex4", "pquad4", "trapezoid4"])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_flux_moments_take_the_scalar_edge_slots(self, mesh_name, r):
        # The de Rham numbering: on every edge of every cell, the r moment
        # slots of the flux space of index r are the r edge slots of the
        # scalar space of index r+1, moved up by one per edge for the
        # constant-flux slot, and carry sign +1.
        mesh = FAMILIES[mesh_name]()
        scalar, flux = assembly.DofMap(mesh, r + 1), assembly.DofMap(mesh, r, r)
        for N, (cells, _, edge_ids) in mesh.groups.items():
            C = len(cells)
            at = scalar.starts[cells, None] + N + np.arange(N * r)
            edge = scalar.col[at].reshape(C, N, r) - scalar.edge_offset
            at = flux.starts[cells, None] + np.arange(N * (r + 1))
            ids, signs = (a[at].reshape(C, N, r + 1)[:, :, 1:] for a in (flux.col, flux.sign))
            assert np.array_equal(ids, edge + edge_ids[..., None] + 1)
            assert np.array_equal(signs, np.ones_like(signs))


class TestDeRhamComplex:
    # curl maps the global scalar space S_{r+1,h} into the global flux
    # space V_h, and div V_h onto W_h: the dof maps must give both cells of
    # an edge the same curl coefficients on its flux dofs.
    @pytest.mark.parametrize("mesh_name", list(FAMILIES))
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_global_curl_matrix(self, mesh_name, r):
        mesh = FAMILIES[mesh_name]()
        scalar, flux = assembly.DofMap(mesh, r + 1), assembly.DofMap(mesh, r, r)
        ns, nu = scalar.n_dofs, flux.n_dofs
        # Row I of copy k: the curl coefficients on flux dof I given by the
        # k-th cell that has I.
        copies, count = np.zeros((2, nu, ns)), np.zeros(nu, dtype=int)
        for c in range(mesh.n_cells):
            E = mesh.polygon(c)
            pts = polygon_rule(E, 2 * r + 8).points
            _, grads = build_ds_element(E, r + 1).eval_all(pts)
            curls = np.stack([grads[..., 1], -grads[..., 0]], axis=-1).reshape(len(grads), -1)
            vals, _, _ = build_mixed_element(E, r, r).eval_all(pts)
            local = np.linalg.lstsq(vals.reshape(len(vals), -1).T, curls.T, rcond=None)[0]
            (ids, signs), (scalar_ids, _) = cell_dofs(flux, c), cell_dofs(scalar, c)
            copies[count[ids][:, None], ids[:, None], scalar_ids] = signs[:, None] * local
            count[ids] += 1
        inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
        shared = (inner[:, None] * (r + 1) + np.arange(r + 1)).ravel()
        assert np.array_equal(np.flatnonzero(count == 2), np.sort(shared))
        assert count.min() == 1
        gap = np.abs(copies[0, shared] - copies[1, shared]).max(axis=1)
        assert np.all(gap <= 1e-12 * np.abs(copies[:, shared]).max(axis=(0, 2)))

        curl = copies[0]
        B = assemble_mixed(mesh, r, r, ZERO).matrix[nu:, :nu]
        assert np.abs(B @ curl).max() <= 1e-12 * (abs(B) @ np.abs(curl)).max()
        # Only the constants have zero curl.  Their singular value is the
        # round-off of the scalar basis's partition of unity (up to 3e-13
        # relative on hex4, r=2), above numpy's default rank tolerance.
        assert np.linalg.matrix_rank(curl, tol=1e-10 * np.linalg.norm(curl, 2)) == ns - 1


class TestErrorsAndRates:
    def test_identity_system_returns_rhs(self):
        rhs = np.array([1.0, -2.0, 3.0])
        mesh = gen_square_mesh(2)
        system = assemble_primal(mesh, 1, ZERO)
        system.matrix = sp.identity(3, format="csr")
        system.rhs = rhs
        system.dof_map.interior = np.arange(3)
        system.boundary_values = np.zeros(3)
        report = solve(system)
        assert np.allclose(report.solution[:3], rhs)

    def test_interpolant_error_positive_and_decreasing(self):
        ex = manufactured_solution()
        prev = None
        for n in (2, 4, 8):
            mesh = gen_square_mesh(n)
            system = assemble_primal(mesh, 2, ex.f)
            report = solve(system)
            errs = compute_errors(system, report, ex)
            assert errs["L2_p"] > 0
            if prev is not None:
                assert errs["L2_p"] < prev
            prev = errs["L2_p"]

    def test_zero_exact_zero_errors(self):
        mesh = gen_square_mesh(2)
        system = assemble_primal(mesh, 1, ZERO)
        report = solve(system)
        ex = Exact(p=lambda x: (np.zeros(len(x)), np.zeros((len(x), 2))), f=ZERO)
        errs = compute_errors(system, report, ex)
        assert errs["L2_p"] == 0.0
        assert errs["H1_semi_p"] == 0.0

    def test_rate_arithmetic(self):
        assert convergence_rate([1.0, 1 / 8], [1.0, 0.5])[0] == pytest.approx(3.0)
        assert convergence_rate([0.5, 0.5], [1.0, 0.5])[0] == pytest.approx(0.0)
        rate = convergence_rate([1.991e-04, 6.960e-05], [1 / 10, 1 / 14])[0]
        assert rate == pytest.approx(3.12, abs=0.01)
        with pytest.raises(ValueError):
            convergence_rate([1.0], [1.0])

    def test_hex_r2_rates(self):
        ex = manufactured_solution()
        errs_l2, errs_h1, hs = [], [], []
        for n in (4, 8, 16):
            mesh = gen_hex_dominant_mesh(n)
            system = assemble_primal(mesh, 2, ex.f)
            report = solve(system)
            errs = compute_errors(system, report, ex)
            errs_l2.append(errs["L2_p"])
            errs_h1.append(errs["H1_semi_p"])
            hs.append(mesh.h_max)
        assert convergence_rate(errs_l2, hs)[-1] == pytest.approx(3.0, abs=0.25)
        assert convergence_rate(errs_h1, hs)[-1] == pytest.approx(2.0, abs=0.25)

    @pytest.mark.parametrize("kind,r", [("primal", 2), ("primal", 3), ("mixed", 1), ("mixed", 2)])
    def test_perturbed_quad_rates(self, kind, r):
        # Every cell its own shape; primal r and mixed-full (r, r) at the
        # default degree.  The finest-pair rates are within 0.3 of optimal:
        # r + 1 for L2_p and r for H1_semi_p (primal), r + 1 for all three
        # mixed norms.
        ex = manufactured_solution()
        errs, hs = [], []
        for n in (8, 16, 32):
            mesh = gen_perturbed_quad_mesh(n, 0.2, 1)
            system = assemble_primal(mesh, r, ex.f) if kind == "primal" else \
                assemble_mixed(mesh, r, r, ex.f)
            errs.append(compute_errors(system, solve(system), ex))
            hs.append(mesh.h_max)
        for name in errs[0]:
            optimal = r if name == "H1_semi_p" else r + 1
            rate = convergence_rate([e[name] for e in errs], hs)[-1]
            assert rate >= optimal - 0.3, (name, rate)

    @pytest.mark.parametrize("family", ["hex-dominant", "perturbed-quad"])
    @pytest.mark.parametrize("r, s", [(1, 1), (2, 1), (2, 2)])
    def test_pressure_supercloseness_rate(self, family, r, s):
        # p_h is superclose to the L2 projection P_s p of the exact pressure
        # onto each cell's pressure basis: ||P_s p - p_h|| falls like
        # h^(s+2), one order faster than L2_p.  It rests on the commuting
        # projection of the flux space, so it sees flux errors that the
        # L2_p rate does not.  Finest-pair rates (h = h_max): 3.74, 4.06,
        # 4.39 (hex) and 3.83, 4.23, 4.06 (pquad, seed 1).
        ex = manufactured_solution()
        errs, hs = [], []
        for n in (4, 8, 16):
            mesh = make_mesh(family, n, 1)
            system = assemble_mixed(mesh, r, s, ex.f)
            errs.append(pressure_supercloseness(system, solve(system), ex))
            hs.append(mesh.h_max)
        assert convergence_rate(errs, hs)[-1] >= s + 1.8

    def test_hex_mixed_r4_flux_rate_at_default_degree(self):
        # Hex-dominant mixed-full (4, 4) at the default degree 2r + 6 = 14,
        # where the quadrature error of the pentagons and hexagons must stay
        # below the discretization error: the finest-pair L2_u rate against
        # h_max is within 0.3 of the optimal 5.
        ex = manufactured_solution()
        errs, hs = [], []
        for n in (8, 16, 32):
            mesh = gen_hex_dominant_mesh(n)
            system = assemble_mixed(mesh, 4, 4, ex.f)
            errs.append(compute_errors(system, solve(system), ex)["L2_u"])
            hs.append(mesh.h_max)
        rate = convergence_rate(errs, hs)[-1]
        assert rate >= 4.7, (errs, rate)


    # Primal r=3 and mixed (2, 1) have two moment slots per edge, which an
    # opposing cell reads reversed; a mixed cell also reads the constant
    # flux of such an edge with sign -1.
    @pytest.mark.parametrize("mesh_name", ["hex4", "trapezoid4", "pquad4"])
    @pytest.mark.parametrize("kind", ["primal", "mixed", "primal-r3", "mixed-r2-s1"])
    def test_errors_match_per_cell_oracle(self, mesh_name, kind):
        ex = manufactured_solution()
        mesh = FAMILIES[mesh_name]()
        assemble = {"primal": lambda: assemble_primal(mesh, 2, ex.f),
                    "mixed": lambda: assemble_mixed(mesh, 1, 1, ex.f),
                    "primal-r3": lambda: assemble_primal(mesh, 3, ex.f),
                    "mixed-r2-s1": lambda: assemble_mixed(mesh, 2, 1, ex.f)}
        system = assemble[kind]()
        report = solve(system)
        rows = []
        errs = compute_errors(system, report, ex, per_element=rows)
        want, want_rows = errors_per_cell(system, report, ex)
        assert errs.keys() == want.keys()
        for name, value in want.items():
            assert abs(errs[name] - value) <= 1e-12 * value
        assert [row[0] for row in rows] == list(range(mesh.n_cells))
        got, ref = np.array(rows)[:, 1:], np.array(want_rows)[:, 1:]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


class TestSliverRobustness:
    def test_fallback_solver_and_collapse_improvement(self):
        import warnings

        from polyds.mesh import collapse_short_edges, mesh_stats

        ex = manufactured_solution()
        mesh = sliver_mesh(1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = assemble_primal(mesh, 4, ex.f)
            report = solve(system)
        assert report.residual < 1e-8
        bad = compute_errors(system, report, ex)
        collapsed = collapse_short_edges(mesh, 0.01)
        assert mesh_stats(collapsed).sigma_min > mesh_stats(mesh).sigma_min
        system2 = assemble_primal(collapsed, 4, ex.f)
        report2 = solve(system2)
        good = compute_errors(system2, report2, ex)
        assert good["L2_p"] < bad["L2_p"]
