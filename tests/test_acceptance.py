"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
import warnings

import numpy as np

from polyds.assembly import (
    assemble_mixed,
    assemble_primal,
    compute_errors,
    convergence_rate,
    manufactured_solution,
    solve,
)
from polyds.mesh import collapse_short_edges, gen_hex_dominant_mesh, mesh_stats
from polyds.mixed import build_mixed_element, mixed_dimension
from polyds.quadrature import edge_rule, polygon_rule
from polyds.serendipity import build_ds_element, ds_dimension

from helpers import (
    constant_flux_coefficients,
    dof_layout,
    duality_residual,
    edge_point,
    interior_points,
    mixed_interpolant,
    pressure_monomials,
    random_convex_polygon,
    sliver_mesh,
)
from test_assembly import poly_exact

N_RANGE = (3, 4, 5, 6, 7, 8)
R_RANGE = (1, 2, 3, 4, 5, 6)
POLYGONS_PER_CASE = 20
MIN_SIGMA = 0.15

_sweep_cache = {}


def scalar_sweep():
    """All (N, r) elements over shared random polygons (built once)."""
    if "elements" not in _sweep_cache:
        rng = np.random.default_rng(20240901)
        polys = {
            N: [random_convex_polygon(N, rng, MIN_SIGMA)
                for _ in range(POLYGONS_PER_CASE)]
            for N in N_RANGE
        }
        t0 = time.perf_counter()
        elements = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for N in N_RANGE:
                for r in R_RANGE:
                    elements[(N, r)] = [build_ds_element(E, r) for E in polys[N]]
        _sweep_cache["build_seconds"] = time.perf_counter() - t0
        _sweep_cache["polys"] = polys
        _sweep_cache["elements"] = elements
    return _sweep_cache


def report(num, ok, text):
    print(f"\nacceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_unisolvence():
    sweep = scalar_sweep()
    t0 = time.perf_counter()
    worst = 0.0
    for (N, r), elems in sweep["elements"].items():
        for elem in elems:
            assert elem.dim == ds_dimension(N, r)
            worst = max(worst, duality_residual(elem))
    elapsed = time.perf_counter() - t0 + sweep["build_seconds"]
    ok = worst < 1e-9 and elapsed < 120.0
    report(1, ok, f"duality residual {worst:.2e} over "
                  f"{sum(len(v) for v in sweep['elements'].values())} elements "
                  f"(tol 1e-9), runtime {elapsed:.1f}s < 120s")


def test_criterion_2_polynomial_reproduction():
    sweep = scalar_sweep()
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for (N, r), elems in sweep["elements"].items():
        for elem in elems:
            E = elem.polygon
            pts = interior_points(E, rng, 200)
            vals, _ = elem.eval_all(pts)
            nodes = elem.nodes
            for a in range(r + 1):
                for b in range(r + 1 - a):
                    coeffs = nodes[:, 0] ** a * nodes[:, 1] ** b
                    got = coeffs @ vals
                    want = pts[:, 0] ** a * pts[:, 1] ** b
                    scale = max(np.abs(want).max(), 1.0)
                    worst = max(worst, np.abs(got - want).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 120.0
    report(2, ok, f"monomial reproduction residual {worst:.2e} (tol 1e-8), "
                  f"runtime {elapsed:.1f}s")


def test_criterion_3_dimension_formulas():
    sweep = scalar_sweep()
    ok = ds_dimension(5, 3) == 15 and ds_dimension(6, 2) == 12
    ok &= mixed_dimension(5, 1, 0) == 10
    for (N, r), elems in sweep["elements"].items():
        ok &= all(e.dim == ds_dimension(N, r) for e in elems)
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for N in N_RANGE:
            E = random_convex_polygon(N, rng, MIN_SIGMA)
            for r in range(0, 6):
                for s in {max(r - 1, 0), r}:
                    elem = build_mixed_element(E, r, s)
                    ok &= elem.dim == mixed_dimension(N, r, s)
    report(3, ok, "scalar and mixed dimensions match constructed basis counts "
                  "(incl. D_{5,3}=15, D_{6,2}=12, dim V_1^0(E_5)=10)")


def test_criterion_4_mixed_structure():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst_div = worst_kron = worst_trace = 0.0
    rank_ok = True
    cases = [(3, 1, 1), (4, 1, 0), (5, 2, 2), (6, 2, 1), (7, 1, 1), (8, 2, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for (N, r, s) in cases:
            E = random_convex_polygon(N, rng, MIN_SIGMA)
            elem = build_mixed_element(E, r, s)
            layout = dof_layout(N, r, s)
            pts = interior_points(E, rng, 50)
            _, divs, _ = elem.eval_all(pts)
            for i, lay in enumerate(layout):
                if lay[0] == "bubble" or (lay[0] == "edge" and lay[2] > 0):
                    worst_div = max(worst_div, np.abs(divs[i]).max())
            flux = np.zeros((elem.dim, N))
            t_samp = np.linspace(0, 1, 14)
            for k in range(N):
                rule = edge_rule(E, k, 2 * r + 8)
                vals, _, _ = elem.eval_all(rule.points)
                flux[:, k] = np.einsum("imk,k,m->i", vals, E.normals[k], rule.weights)
                pe = edge_point(E, k, t_samp).reshape(-1, 2)
                vv, _, _ = elem.eval_all(pe)
                for i, lay in enumerate(layout):
                    if lay[0] == "div":
                        worst_trace = max(worst_trace,
                                          np.abs(vv[i] @ E.normals[k]).max())
            for i, lay in enumerate(layout):
                if lay[0] == "edge" and lay[2] == 0:
                    want = np.zeros(N)
                    want[lay[1]] = 1.0
                    worst_kron = max(worst_kron, np.abs(flux[i] - want).max())
            rule = polygon_rule(E, 2 * r + 8)
            _, dq, _ = elem.eval_all(rule.points)
            qs, _ = pressure_monomials(E, s, rule.points)
            mom = np.array([[rule.weights @ (dq[i] * q) for q in qs]
                            for i in range(elem.dim)])
            rank_ok &= np.linalg.matrix_rank(mom, tol=1e-10) == len(qs)
        c_ok = True
        for _ in range(100):
            n = int(rng.integers(3, 9))
            E = random_convex_polygon(n, rng, MIN_SIGMA)
            c_ok &= bool(np.all(constant_flux_coefficients(E) > 0))
    elapsed = time.perf_counter() - t0
    ok = (worst_div < 1e-12 and worst_kron < 1e-10 and worst_trace < 1e-10
          and rank_ok and c_ok and elapsed < 120.0)
    report(4, ok, f"curl-family div {worst_div:.1e} (<1e-12), flux Kronecker "
                  f"{worst_kron:.1e} (<1e-10), divergence-fn trace {worst_trace:.1e} "
                  f"(<1e-10), div rank ok={rank_ok}, c>0 on 100 polygons={c_ok}, "
                  f"runtime {elapsed:.1f}s")


def test_criterion_5_commuting_projection():
    rng = np.random.default_rng(13)
    grad = lambda q: np.column_stack([
        np.pi * np.cos(np.pi * q[:, 0]) * np.sin(np.pi * q[:, 1]),
        np.pi * np.sin(np.pi * q[:, 0]) * np.cos(np.pi * q[:, 1]),
    ])
    div = lambda q: -2 * np.pi**2 * np.sin(np.pi * q[:, 0]) * np.sin(np.pi * q[:, 1])
    combos = [(1, 0), (1, 1), (2, 1), (2, 2)]
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(20):
            N = int(rng.integers(3, 9))
            r, s = combos[trial % len(combos)]
            E = random_convex_polygon(N, rng, MIN_SIGMA)
            elem = build_mixed_element(E, r, s)
            # rational integrands converge slowest on many-edged polygons
            qd = 2 * r + 12 + 2 * N
            co = mixed_interpolant(elem, grad, quad_degree=qd)
            rule = polygon_rule(E, qd)
            _, divs, _ = elem.eval_all(rule.points)
            dh = co @ divs
            for q in pressure_monomials(E, s, rule.points)[0]:
                resid = rule.weights @ ((dh - div(rule.points)) * q)
                worst = max(worst, abs(resid))
    ok = worst < 1e-9
    report(5, ok, f"commuting residual {worst:.2e} over 20 random polygons (tol 1e-9)")


def test_criterion_6_primal_convergence():
    ex = manufactured_solution()
    t0 = time.perf_counter()
    lines = []
    ok = True
    for r in (2, 3):
        errs_l2, errs_h1, hs = [], [], []
        for n in (4, 8, 16):
            mesh = gen_hex_dominant_mesh(n)
            system = assemble_primal(mesh, r, ex.f)
            rep = solve(system)
            errs = compute_errors(system, rep, ex)
            errs_l2.append(errs["L2_p"])
            errs_h1.append(errs["H1_semi_p"])
            hs.append(mesh.h_max)
        rate_l2 = convergence_rate(errs_l2, hs)[-1]
        rate_h1 = convergence_rate(errs_h1, hs)[-1]
        ok &= rate_l2 >= r + 1 - 0.3 and rate_h1 >= r - 0.3
        lines.append(f"r={r}: L2 rate {rate_l2:.2f} (>= {r + 0.7}), "
                     f"H1 rate {rate_h1:.2f} (>= {r - 0.3})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(6, ok, "; ".join(lines) + f"; runtime {elapsed:.0f}s < 300s")


def test_criterion_7_mixed_convergence():
    ex = manufactured_solution()
    t0 = time.perf_counter()
    targets = [
        ("r=0 full", 0, 0, (0.7, 0.7, 0.7)),
        ("r=1 reduced", 1, 0, (1.7, 0.7, 0.7)),
        ("r=1 full", 1, 1, (1.7, 1.7, 1.7)),
    ]
    lines = []
    ok = True
    for label, r, s, (tu, tp, td) in targets:
        errs = {"L2_u": [], "L2_p": [], "L2_div_u": []}
        hs = []
        for n in (4, 8, 16):
            mesh = gen_hex_dominant_mesh(n)
            system = assemble_mixed(mesh, r, s, ex.f)
            rep = solve(system)
            e = compute_errors(system, rep, ex)
            for key in errs:
                errs[key].append(e[key])
            hs.append(mesh.h_max)
        ru = convergence_rate(errs["L2_u"], hs)[-1]
        rp = convergence_rate(errs["L2_p"], hs)[-1]
        rd = convergence_rate(errs["L2_div_u"], hs)[-1]
        ok &= ru >= tu and rp >= tp and rd >= td
        lines.append(f"{label}: u {ru:.2f}>={tu}, p {rp:.2f}>={tp}, div {rd:.2f}>={td}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(7, ok, "; ".join(lines) + f"; runtime {elapsed:.0f}s < 300s")


def test_criterion_8_patch_tests():
    mesh = gen_hex_dominant_mesh(3)  # 3x3 cells mixing quads/pentagons/hexagons
    assert {len(c) for c in mesh.cells} == {4, 5, 6}
    worst_primal = worst_mixed = 0.0
    for r in (1, 2, 3):
        coeffs = {(a, b): 0.3 + a - 0.7 * b
                  for a in range(r + 1) for b in range(r + 1 - a)}
        ex = poly_exact(coeffs)
        system = assemble_primal(mesh, r, ex.f, quad_degree=2 * (2 * r + 4),
                                 dirichlet=lambda x: ex.p(x)[0])
        errs = compute_errors(system, solve(system), ex)
        worst_primal = max(worst_primal, errs["L2_p"])
    for (r, s) in [(1, 0), (1, 1), (2, 2), (3, 3)]:
        coeffs = {(a, b): 0.5 - 0.2 * a + 0.4 * b
                  for a in range(s + 1) for b in range(s + 1 - a)}
        ex = poly_exact(coeffs)
        system = assemble_mixed(mesh, r, s, ex.f, quad_degree=2 * (2 * r + 6),
                                dirichlet_p=lambda x: ex.p(x)[0])
        errs = compute_errors(system, solve(system), ex)
        worst_mixed = max(worst_mixed, errs["L2_p"], errs["L2_u"], errs["L2_div_u"])
    ok = worst_primal < 1e-9 and worst_mixed < 1e-9
    report(8, ok, f"primal residual {worst_primal:.2e}, mixed residual "
                  f"{worst_mixed:.2e} (tol 1e-9), r <= 3 on the 3x3 mixed-polygon mesh")


def test_criterion_9_short_edge_robustness():
    ex = manufactured_solution()
    mesh = sliver_mesh(1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble_primal(mesh, 4, ex.f)
        bad = compute_errors(system, solve(system), ex)
    collapsed = collapse_short_edges(mesh, 0.01)
    sig_before = mesh_stats(mesh).sigma_min
    sig_after = mesh_stats(collapsed).sigma_min
    system2 = assemble_primal(collapsed, 4, ex.f)
    good = compute_errors(system2, solve(system2), ex)
    ok = sig_after > sig_before and good["L2_p"] < bad["L2_p"]
    report(9, ok, f"sigma_min {sig_before:.4f} -> {sig_after:.4f}; r=4 L2 error "
                  f"{bad['L2_p']:.2e} -> {good['L2_p']:.2e} after collapse")
