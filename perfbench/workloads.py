"""Workloads, the pipeline pass, the correctness gate and the traced layers.

One pass makes the same public calls, in the same order, as
``polyds solve``: ``make_mesh`` -> ``assemble_primal``/``assemble_mixed``
-> ``solve`` -> ``compute_errors``.  Calls go through module attributes,
so a ``Tracer`` that patches those attributes sees every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from polyds import assembly, cli, functions, geometry, mixed, serendipity

from spans import ROOT, Tracer

# The solve must satisfy its own system to this relative residual.
RESIDUAL_MAX = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    method: str  # "primal" | "mixed-full"
    r: int
    # Error norms of one pass.  A pass may exceed each by at most ``rtol``
    # (relative); below half of it, the pass solved a different problem.
    # The perturbed mesh depends on the seed: seeds move L2_p by about 1%,
    # one refinement level moves it by 8x.
    reference: dict
    rtol: float = 1e-3
    noise: float = 0.2

    @property
    def s(self):
        return self.r if self.method == "mixed-full" else None


# Why each workload was chosen: README.md, "Workloads".
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hex-primal-r4", "hex-dominant", 16, "primal", 4,
            reference={"L2_p": 1.4642526875042262e-08,
                       "H1_semi_p": 2.6154713468325116e-06},
        ),
        Workload(
            "hex-mixed-r1", "hex-dominant", 16, "mixed-full", 1,
            reference={"L2_p": 0.0016648595306207638,
                       "L2_u": 0.001784752592209811,
                       "L2_div_u": 0.03286265514918314},
        ),
        Workload(
            "pquad-primal-r2", "perturbed-quad", 32, "primal", 2,
            reference={"L2_p": 5.04e-06, "H1_semi_p": 9.96e-04},
            rtol=0.1,
        ),
    )
}


def run_pass(w: Workload, seed, exact, n=None):
    """One solve through the public pipeline; returns (mesh, system, report, errors)."""
    mesh = cli.make_mesh(w.family, n or w.n, seed, w.noise)
    if w.method == "primal":
        system = assembly.assemble_primal(mesh, w.r, exact.f)
    else:
        system = assembly.assemble_mixed(mesh, w.r, w.s, exact.f)
    report = assembly.solve(system)
    errors = assembly.compute_errors(system, report, exact)
    return mesh, system, report, errors


def check_pass(w: Workload, system, report, errors):
    """Problems found in one pass's outputs; an empty list means correct."""
    problems = []
    if system.kind == "primal":
        x = report.solution[system.dof_map.interior]
    else:
        x = report.solution
    b = system.rhs
    residual = float(np.linalg.norm(system.matrix @ x - b) / np.linalg.norm(b))
    if not residual <= RESIDUAL_MAX:
        problems.append(f"relative residual {residual:.3e} > {RESIDUAL_MAX:g}")
    if set(errors) != set(w.reference):
        problems.append(f"error norms {sorted(errors)} != {sorted(w.reference)}")
    for name, ref in w.reference.items():
        value = errors.get(name, math.nan)
        if not 0.5 * ref <= value <= ref * (1 + w.rtol):
            problems.append(f"{name} = {value:.6e} outside [{0.5 * ref:.6e}, "
                            f"{ref * (1 + w.rtol):.6e}]")
    return problems


def shape_classes(mesh, rel_tol=1e-6):
    """Cells that differ only by a translation, counted once.

    The key is each cell's vertices relative to its first vertex, rounded
    to ``rel_tol`` times the mesh size h.
    """
    unit = rel_tol * mesh.h_max
    keys = set()
    for loop in mesh.cells:
        v = mesh.vertices[list(loop)]
        keys.add(tuple(np.rint((v - v[0]) / unit).astype(np.int64).ravel()))
    return len(keys)


# -- traced run -------------------------------------------------------------


def _on_mesh(counts, args, mesh):
    counts["mesh.n_cells"] = mesh.n_cells


def _on_assemble(counts, args, system):
    counts["assembly.n_dofs"] = system.n
    counts["assembly.nnz"] = system.matrix.nnz


def _on_solve(counts, args, report):
    counts["assembly.solve_iterations"] = report.iterations
    counts["assembly.solve_residual"] = report.residual


def _on_rule(counts, args, rule):
    counts["quadrature.rule_calls"] += 1
    counts["quadrature.points"] += len(rule.points)


def _on_build(counts, args, elem):
    counts["serendipity.build_calls"] += 1


def _on_mixed_build(counts, args, elem):
    counts["mixed.build_calls"] += 1


def _on_ds_eval(counts, args, result):
    elem, pts = args
    counts["serendipity.eval_calls"] += 1
    counts["functions.generator_points"] += elem.n_generators * len(pts)


def _on_mixed_eval(counts, args, result):
    elem, pts = args
    counts["mixed.eval_calls"] += 1
    # One column of ``rows`` per vector generator (curls, radial, constants).
    counts["functions.generator_points"] += elem.rows.shape[1] * len(pts)


def instrument(tr: Tracer):
    """Wrap every public entry point of the pipeline's layers."""
    sp = tr.spanned
    tr.patch(cli, "make_mesh", lambda f: sp("mesh.gen", f, _on_mesh))
    for name in ("assemble_primal", "assemble_mixed"):
        tr.patch(assembly, name, lambda f: sp("assembly.assemble", f, _on_assemble))
    tr.patch(assembly, "solve", lambda f: sp("assembly.solve", f, _on_solve))
    tr.patch(assembly, "compute_errors", lambda f: sp("assembly.errors", f))
    for module in (assembly, mixed):
        tr.patch(module, "build_ds_element",
                 lambda f: sp("serendipity.build", f, _on_build))
        tr.patch(module, "polygon_rule", lambda f: sp("quadrature.rule", f, _on_rule))
        tr.patch(module, "edge_rule", lambda f: sp("quadrature.rule", f, _on_rule))
    tr.patch(assembly, "build_mixed_element",
             lambda f: sp("mixed.build", f, _on_mixed_build))
    tr.patch(serendipity, "build_low_order",
             lambda f: tr.counted("serendipity.low_order_calls", f))
    tr.patch(serendipity.DSElement, "eval_all",
             lambda f: sp("serendipity.eval", f, _on_ds_eval))
    tr.patch(mixed.MixedElement, "eval_all",
             lambda f: sp("mixed.eval", f, _on_mixed_eval))
    for cls in vars(functions).values():
        if isinstance(cls, type) and cls.__module__ == functions.__name__:
            for method in ("value_grad", "value_div"):
                if method in vars(cls):
                    tr.patch(cls, method,
                             lambda f: tr.counted("functions.field_evals", f))
    for method in ("__call__", "value_grad"):
        tr.patch(geometry.AffineScalar, method,
                 lambda f: tr.counted("geometry.affine_evals", f))


def traced_pass(w: Workload, seed, exact):
    """A pass under a fresh tracer; returns (tracer, pass outputs)."""
    with Tracer() as tr:
        instrument(tr)
        tr.open(ROOT)
        try:
            out = run_pass(w, seed, exact)
        finally:
            tr.close()
    return tr, out


def layer_metrics(tr: Tracer, mesh):
    """Per-layer values of one traced pass (see README.md for the table)."""
    t = tr.times()
    c = tr.counts

    def total(name):
        return t.get(name, (0.0, 0.0))[0]

    def own(name):
        return t.get(name, (0.0, 0.0))[1]

    builds = c["serendipity.build_calls"]
    classes = shape_classes(mesh)
    return {
        "functions.field_evals": c["functions.field_evals"],
        "functions.generator_points": c["functions.generator_points"],
        "geometry.affine_evals": c["geometry.affine_evals"],
        "serendipity.build_s": total("serendipity.build"),
        "serendipity.build_calls": builds,
        "serendipity.low_order_calls": c["serendipity.low_order_calls"],
        "serendipity.build_reuse_ratio": classes / builds if builds else 0.0,
        "serendipity.eval_s": total("serendipity.eval"),
        "serendipity.eval_calls": c["serendipity.eval_calls"],
        "mixed.build_s": own("mixed.build"),
        "mixed.build_calls": c["mixed.build_calls"],
        "mixed.eval_s": total("mixed.eval"),
        "mixed.eval_calls": c["mixed.eval_calls"],
        "assembly.assemble_s": total("assembly.assemble"),
        "assembly.assemble_self_s": own("assembly.assemble"),
        "assembly.solve_s": total("assembly.solve"),
        "assembly.solve_iterations": c["assembly.solve_iterations"],
        "assembly.solve_residual": c["assembly.solve_residual"],
        "assembly.n_dofs": c["assembly.n_dofs"],
        "assembly.nnz": c["assembly.nnz"],
        "assembly.errors_s": total("assembly.errors"),
        "assembly.errors_self_s": own("assembly.errors"),
        "quadrature.rule_s": total("quadrature.rule"),
        "quadrature.rule_calls": c["quadrature.rule_calls"],
        "quadrature.points": c["quadrature.points"],
        "mesh.gen_s": total("mesh.gen"),
        "mesh.n_cells": c["mesh.n_cells"],
        "mesh.shape_classes": classes,
        "trace.pass_s": total(ROOT),
        # Time inside the pass but outside every layer's span.
        "trace.other_s": own(ROOT),
    }
