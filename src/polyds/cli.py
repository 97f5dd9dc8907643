"""Command-line harness: mesh generation/audit, single solves, and
convergence studies with error/rate tables.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, field

from .assembly import (
    AssemblyError,
    SolveError,
    assemble_mixed,
    assemble_primal,
    compute_errors,
    convergence_rate,
    dump_element_errors,
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
from .serendipity import ElementError

FAMILIES = ("square", "trapezoid", "perturbed-quad", "hex-dominant")
METHODS = ("primal", "mixed-reduced", "mixed-full")

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


@dataclass
class StudyConfig:
    method: str
    r: int
    family: str | None
    levels: list
    mesh_paths: list = field(default_factory=list)
    quad_degree: int | None = None
    seed: int = 0
    noise: float = 0.2
    exact: str = "one-hump"
    out: str | None = None
    dump_element_errors: str | None = None

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method == "primal" and self.r < 1:
            raise ConfigError("primal form needs r >= 1")
        if self.method == "mixed-full" and self.r < 0:
            raise ConfigError("mixed form needs r >= 0")
        if self.method == "mixed-reduced" and self.r < 1:
            raise ConfigError("reduced mixed form needs r >= 1 (s = r-1 >= 0)")
        if not self.mesh_paths:
            if self.family is None:
                raise ConfigError("give --family or --mesh")
            if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
                raise ConfigError("levels must be strictly increasing")

    @property
    def s(self):
        return None if self.method == "primal" else (
            self.r - 1 if self.method == "mixed-reduced" else self.r
        )


@dataclass
class StudyResult:
    norms: list
    rows: list          # per level: dict with n, h, n_dofs, errors
    rates: dict         # norm -> list of per-pair rates
    stats: list         # per level MeshStats
    seconds: list       # wall clock per level


def make_mesh(family, n, seed=0, noise=0.2):
    if family in ("hex", "hex-dominant"):
        return gen_hex_dominant_mesh(n)
    if family == "square":
        return gen_square_mesh(n)
    if family == "trapezoid":
        return gen_trapezoid_mesh(n)
    if family == "perturbed-quad":
        return gen_perturbed_quad_mesh(n, noise, seed)
    raise ConfigError(f"unknown mesh family {family!r}")


def _run_level(config: StudyConfig, mesh, exact, per_element=None):
    if config.method == "primal":
        system = assemble_primal(mesh, config.r, exact.f, quad_degree=config.quad_degree)
    else:
        system = assemble_mixed(
            mesh, config.r, config.s, exact.f, quad_degree=config.quad_degree
        )
    report = solve(system)
    errors = compute_errors(system, report, exact, per_element=per_element)
    n_dofs = system.n
    return errors, n_dofs


def run_study(config: StudyConfig) -> StudyResult:
    config.validate()
    exact = manufactured_solution(config.exact)
    meshes = []
    if config.mesh_paths:
        for path in config.mesh_paths:
            meshes.append((path, import_mesh(path)))
    else:
        for n in config.levels:
            meshes.append((n, make_mesh(config.family, n, config.seed, config.noise)))
    rows = []
    stats = []
    seconds = []
    for label, mesh in meshes:
        t0 = time.perf_counter()
        errors, n_dofs = _run_level(config, mesh, exact)
        seconds.append(time.perf_counter() - t0)
        rows.append({"level": label, "h": mesh.h_max, "n_dofs": n_dofs, **errors})
        stats.append(mesh_stats(mesh))
    norms = [k for k in rows[0] if k not in ("level", "h", "n_dofs")]
    hs = [row["h"] for row in rows]
    rates = {
        norm: list(convergence_rate([row[norm] for row in rows], hs))
        for norm in norms
    } if len(rows) >= 2 else {norm: [] for norm in norms}
    return StudyResult(norms=norms, rows=rows, rates=rates, stats=stats, seconds=seconds)


def study_csv_rows(result: StudyResult):
    header = ["level", "h", "n_dofs"]
    for norm in result.norms:
        header += [norm, f"rate_{norm}"]
    out = [header]
    for i, row in enumerate(result.rows):
        line = [row["level"], f"{row['h']:.17g}", row["n_dofs"]]
        for norm in result.norms:
            line.append(f"{row[norm]:.17g}")
            line.append("" if i == 0 else f"{result.rates[norm][i - 1]:.6f}")
        out.append(line)
    return out


def study_markdown(result: StudyResult):
    cells = [["level", "h"] + [x for n in result.norms for x in (n, "rate")]]
    for i, row in enumerate(result.rows):
        line = [str(row["level"]), f"{row['h']:.4g}"]
        for norm in result.norms:
            line.append(f"{row[norm]:.4e}")
            line.append("--" if i == 0 else f"{result.rates[norm][i - 1]:.2f}")
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
        return 0
    if args.action == "collapse":
        before = mesh_stats(mesh)
        collapsed = collapse_short_edges(mesh, args.rel_tol)
        after = mesh_stats(collapsed)
        export_mesh(collapsed, args.out)
        print(f"sigma_min: {before.sigma_min:.4f} -> {after.sigma_min:.4f}")
        print(f"vertices: {before.n_vertices} -> {after.n_vertices}")
        print(f"wrote {args.out}")
        return 0
    raise ConfigError(f"unknown mesh action {args.action!r}")


def _config_from_args(args, levels):
    return StudyConfig(
        method=args.method,
        r=args.r,
        family=args.family,
        levels=levels,
        mesh_paths=list(args.mesh or []),
        quad_degree=args.quad_degree,
        seed=args.seed,
        noise=args.noise,
        exact=args.exact,
        out=args.out,
        dump_element_errors=getattr(args, "dump_element_errors", None),
    )


def cmd_solve(args):
    config = _config_from_args(args, [args.n] if args.n else [])
    config.validate()
    exact = manufactured_solution(config.exact)
    if len(config.mesh_paths) > 1:
        raise ConfigError("solve takes one --mesh; use convergence for several")
    if config.mesh_paths:
        mesh = import_mesh(config.mesh_paths[0])
    else:
        if not args.n:
            raise ConfigError("give --n or --mesh")
        mesh = make_mesh(config.family, args.n, config.seed, config.noise)
    per_element = [] if config.dump_element_errors else None
    errors, n_dofs = _run_level(config, mesh, exact, per_element)
    if config.dump_element_errors:
        dump_element_errors(per_element, config.dump_element_errors)
    for k, v in errors.items():
        print(f"{k} = {v:.10e}")
    print(f"n_dofs = {n_dofs}")
    if config.out:
        _write_csv(config.out, [list(errors.keys()), [f"{v:.17g}" for v in errors.values()]])
    return 0


def cmd_convergence(args):
    levels = _parse_levels(args.levels)
    # With --mesh, the levels are the meshes and --levels is not read.
    if len(args.mesh or levels) < 2:
        raise ConfigError("convergence needs at least two levels (--levels or --mesh)")
    config = _config_from_args(args, levels)
    result = run_study(config)
    print(study_markdown(result))
    for st, sec in zip(result.stats, result.seconds):
        print(f"# cells={st.n_cells} sigma=[{st.sigma_min:.3f},{st.sigma_max:.3f}] "
              f"wall={sec:.2f}s")
    if config.out:
        _write_csv(config.out, study_csv_rows(result))
        print(f"# wrote {config.out}")
    return 0


def _parse_levels(text):
    if not text:
        return []
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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
