"""Command-line harness: mesh generation/audit, single solves, and
convergence studies with error/rate tables.

solve runs one level of what convergence runs on a mesh ladder, by the
same code; both check their arguments before they build any mesh, and
convergence checks that h decreases before it solves any level.

Exit codes: 0 success, 2 configuration or file error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

from .assembly import (
    AssemblyError,
    SolveError,
    _default_degree,
    assemble_mixed,
    assemble_primal,
    compute_errors,
    convergence_rate,
    manufactured_solution,
    solve,
)
from .geometry import GeometryError
from .mesh import (
    MeshError,
    collapse_short_edges,
    export_mesh,
    gen_hex_dominant_mesh,
    gen_perturbed_quad_mesh,
    gen_square_mesh,
    gen_trapezoid_mesh,
    import_mesh,
    mesh_stats,
)
from .quadrature import MAX_DEGREE
from .serendipity import ElementError

METHODS = ("primal", "mixed-reduced", "mixed-full")

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def make_mesh(family, n, seed=0, noise=0.2):
    if family == "hex-dominant":
        return gen_hex_dominant_mesh(n)
    if family == "square":
        return gen_square_mesh(n)
    if family == "trapezoid":
        return gen_trapezoid_mesh(n)
    if family == "perturbed-quad":
        return gen_perturbed_quad_mesh(n, noise, seed)
    raise ConfigError(f"unknown mesh family {family!r}")


def _check_args(args):
    """The checks that ``solve`` and ``convergence`` share: the index range
    of the method, the quadrature degree (given, or the default of the
    method and index), and a mesh source."""
    if args.method == "primal" and args.r < 1:
        raise ConfigError("primal form needs r >= 1")
    if args.method == "mixed-full" and args.r < 0:
        raise ConfigError("mixed form needs r >= 0")
    if args.method == "mixed-reduced" and args.r < 1:
        raise ConfigError("reduced mixed form needs r >= 1 (s = r-1 >= 0)")
    if args.quad_degree is not None and not 1 <= args.quad_degree <= MAX_DEGREE:
        raise ConfigError(f"--quad-degree must be in [1, {MAX_DEGREE}], got {args.quad_degree}")
    default = _default_degree(args.r, args.method != "primal")
    if args.quad_degree is None and default > MAX_DEGREE:
        raise ConfigError(f"--r {args.r} needs the default quadrature degree {default}, "
                          f"above the highest, {MAX_DEGREE}")
    if not args.mesh and args.family is None:
        raise ConfigError("give --family or --mesh")


def _solve_level(args, mesh, exact, per_element=None):
    """Assemble and solve the problem of ``args`` on one mesh: its error
    norms and its number of unknowns."""
    if args.method == "primal":
        system = assemble_primal(mesh, args.r, exact.f, quad_degree=args.quad_degree)
    else:
        s = args.r - 1 if args.method == "mixed-reduced" else args.r
        system = assemble_mixed(mesh, args.r, s, exact.f, quad_degree=args.quad_degree)
    report = solve(system)
    return compute_errors(system, report, exact, per_element=per_element), system.n


def study_csv_rows(rows, norms, rates):
    header = ["level", "h", "n_dofs"]
    for norm in norms:
        header += [norm, f"rate_{norm}"]
    out = [header]
    for i, row in enumerate(rows):
        line = [row["level"], f"{row['h']:.17g}", row["n_dofs"]]
        for norm in norms:
            line.append(f"{row[norm]:.17g}")
            line.append("" if i == 0 else f"{rates[norm][i - 1]:.6f}")
        out.append(line)
    return out


def study_markdown(rows, norms, rates):
    cells = [["level", "h"] + [x for n in norms for x in (n, "rate")]]
    for i, row in enumerate(rows):
        line = [str(row["level"]), f"{row['h']:.4g}"]
        for norm in norms:
            line.append(f"{row[norm]:.4e}")
            line.append("--" if i == 0 else f"{rates[norm][i - 1]:.2f}")
        cells.append(line)
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    lines = []
    for k, row in enumerate(cells):
        lines.append("| " + " | ".join(v.rjust(w) for v, w in zip(row, widths)) + " |")
        if k == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines)


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def cmd_mesh(args):
    if args.action == "gen":
        mesh = make_mesh(args.family, args.n, args.seed, args.noise)
        export_mesh(mesh, args.out)
        st = mesh_stats(mesh)
        print(f"wrote {args.out}: {st.n_cells} cells, {st.n_vertices} vertices, "
              f"h_max={st.h_max:.4g}")
        return 0
    mesh = import_mesh(args.mesh)
    if args.action == "audit":
        st = mesh_stats(mesh)
        print(f"cells={st.n_cells} edges={st.n_edges} vertices={st.n_vertices}")
        print(f"h_max={st.h_max:.6g}")
        print(f"sigma: min={st.sigma_min:.4f} max={st.sigma_max:.4f} "
              f"avg={st.sigma_avg:.4f}")
        print(f"shortest edge / diameter: min={st.edge_ratio_min:.4g}")
        print(f"flattest interior angle: max={st.angle_max:.2f} deg")
        return 0
    before = mesh_stats(mesh)
    collapsed = collapse_short_edges(mesh, args.rel_tol)
    after = mesh_stats(collapsed)
    export_mesh(collapsed, args.out)
    print(f"sigma_min: {before.sigma_min:.4f} -> {after.sigma_min:.4f}")
    print(f"edge_ratio_min: {before.edge_ratio_min:.4g} -> {after.edge_ratio_min:.4g}")
    print(f"vertices: {before.n_vertices} -> {after.n_vertices}")
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args):
    _check_args(args)
    if args.mesh and len(args.mesh) > 1:
        raise ConfigError("solve takes one --mesh; use convergence for several")
    if args.mesh:
        mesh = import_mesh(args.mesh[0])
    elif args.n is None:
        raise ConfigError("give --n or --mesh")
    else:
        mesh = make_mesh(args.family, args.n, args.seed, args.noise)
    per_element = [] if args.dump_element_errors else None
    errors, n_dofs = _solve_level(args, mesh, manufactured_solution(args.exact), per_element)
    if per_element is not None:
        _write_csv(args.dump_element_errors, [("cell_id", "centroid_x", "centroid_y", "L2_error")]
                   + [(c, f"{x:.17g}", f"{y:.17g}", f"{e:.17g}") for c, x, y, e in per_element])
    for k, v in errors.items():
        print(f"{k} = {v:.10e}")
    print(f"n_dofs = {n_dofs}")
    if args.out:
        _write_csv(args.out, [list(errors.keys()), [f"{v:.17g}" for v in errors.values()]])
    return 0


def cmd_convergence(args):
    # With --mesh, the levels are the meshes and --levels is not read.
    levels = [] if args.mesh else _parse_levels(args.levels)
    labels = args.mesh or levels
    if len(labels) < 2:
        raise ConfigError("convergence needs at least two levels (--levels or --mesh)")
    _check_args(args)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be strictly increasing")
    exact = manufactured_solution(args.exact)
    meshes = ([import_mesh(path) for path in args.mesh] if args.mesh
              else [make_mesh(args.family, n, args.seed, args.noise) for n in levels])
    # Rates divide by log(h_i / h_i+1), so h must decrease strictly.
    hs = [mesh.h_max for mesh in meshes]
    for i in range(1, len(hs)):
        if not hs[i] < hs[i - 1]:
            raise ConfigError(f"levels {i} ({labels[i - 1]}) and {i + 1} ({labels[i]}) have "
                              f"h = {hs[i - 1]:.6g} and {hs[i]:.6g}; "
                              "h must decrease strictly from level to level")
    rows, footer = [], []
    for label, mesh, h in zip(labels, meshes, hs):
        t0 = time.perf_counter()
        errors, n_dofs = _solve_level(args, mesh, exact)
        seconds = time.perf_counter() - t0
        rows.append({"level": label, "h": h, "n_dofs": n_dofs, **errors})
        st = mesh_stats(mesh)
        footer.append(f"# cells={st.n_cells} sigma=[{st.sigma_min:.3f},{st.sigma_max:.3f}] "
                      f"wall={seconds:.2f}s")
    norms = list(errors)
    rates = {norm: convergence_rate([row[norm] for row in rows], hs) for norm in norms}
    print(study_markdown(rows, norms, rates))
    print("\n".join(footer))
    if args.out:
        _write_csv(args.out, study_csv_rows(rows, norms, rates))
        print(f"# wrote {args.out}")
    return 0


def _parse_levels(text):
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bad levels {text!r}") from None


def build_parser():
    top = argparse.ArgumentParser(prog="polyds", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="generate, audit, or repair meshes")
    pm.add_argument("action", choices=("gen", "audit", "collapse"))
    pm.add_argument("--family", default="hex-dominant",
                    help="square | trapezoid | perturbed-quad | hex-dominant")
    pm.add_argument("--n", type=int, default=6)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--noise", type=float, default=0.2)
    pm.add_argument("--rel-tol", type=float, default=0.05)
    pm.add_argument("--mesh", help="input mesh path (audit/collapse)")
    pm.add_argument("--out", help="output mesh path (gen/collapse)")
    pm.set_defaults(func=cmd_mesh)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--method", choices=METHODS, default="primal")
    common.add_argument("--r", type=int, default=2)
    common.add_argument("--family", default=None,
                        help="square | trapezoid | perturbed-quad | hex-dominant")
    common.add_argument("--mesh", action="append",
                        help="imported mesh path (repeat for several levels)")
    common.add_argument("--quad-degree", type=int, default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--noise", type=float, default=0.2)
    common.add_argument("--exact", choices=("one-hump", "four-hump"),
                        default="one-hump")
    common.add_argument("--out", help="output CSV path")

    ps = sub.add_parser("solve", parents=[common], help="solve one level")
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--dump-element-errors", metavar="PATH",
                    help="write per-element L2 errors as CSV")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("convergence", parents=[common],
                        help="run a mesh ladder and report error rates")
    pc.add_argument("--levels", default="4,8,16", help="comma-separated n values")
    pc.set_defaults(func=cmd_convergence)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mesh":
        if args.action == "gen" and not args.out:
            parser.error("mesh gen needs --out")
        if args.action in ("audit", "collapse") and not args.mesh:
            parser.error(f"mesh {args.action} needs --mesh")
        if args.action == "collapse" and not args.out:
            parser.error("mesh collapse needs --out")
    try:
        return args.func(args)
    except (AssemblyError, SolveError, MeshError, GeometryError, ElementError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
