import subprocess
import sys

import numpy as np
import pytest

from polyds import cli
from polyds.cli import main
from polyds.mesh import export_mesh, gen_square_mesh, import_mesh
from polyds.quadrature import MAX_DEGREE

from helpers import SOURCE_ENV, sliver_mesh, write_with_stray_vertex


# The two commands that solve, each with the arguments of a small mesh.
SIZES = {"solve": ["--n", "4"], "convergence": ["--levels", "2,4"]}


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeshCommands:
    def test_gen_hex(self, tmp_path, capsys):
        path = tmp_path / "hex.json"
        code, out, _ = run(["mesh", "gen", "--family", "hex-dominant", "--n", "6",
                            "--out", str(path)], capsys)
        assert code == 0
        mesh = import_mesh(path)
        assert mesh.n_cells == 36

    def test_audit(self, tmp_path, capsys):
        path = tmp_path / "hex.json"
        run(["mesh", "gen", "--n", "4", "--out", str(path)], capsys)
        code, out, _ = run(["mesh", "audit", "--mesh", str(path)], capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("sigma")][0]
        stats = dict(tok.split("=") for tok in line.split(": ")[1].split())
        assert 0.0 < float(stats["min"]) <= float(stats["max"]) < 1.0

    def test_audit_reports_short_edges_and_flat_vertices(self, tmp_path, capsys):
        path = tmp_path / "sliver.json"
        export_mesh(sliver_mesh(1e-3), path)
        code, out, _ = run(["mesh", "audit", "--mesh", str(path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "shortest edge / diameter: min=0.001"
        assert lines[4] == "flattest interior angle: max=134.97 deg"

    def test_collapse_reports_improvement(self, tmp_path, capsys):
        src = tmp_path / "sliver.json"
        dst = tmp_path / "fixed.json"
        export_mesh(sliver_mesh(1e-3), src)
        code, out, _ = run(["mesh", "collapse", "--mesh", str(src),
                            "--rel-tol", "0.05", "--out", str(dst)], capsys)
        assert code == 0
        before, after = out.splitlines()[0].split(": ")[1].split(" -> ")
        assert float(after) > float(before)
        assert import_mesh(dst).n_vertices == 9

    def test_collapse_nan_tolerance_is_config_error(self, tmp_path, capsys):
        src = tmp_path / "sliver.json"
        dst = tmp_path / "fixed.json"
        export_mesh(sliver_mesh(1e-3), src)
        code, _, err = run(["mesh", "collapse", "--mesh", str(src),
                            "--rel-tol", "nan", "--out", str(dst)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "rel_tol" in err
        assert not dst.exists()

    def test_bad_file_is_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]], "cells": [[0,3,2,1]]}')
        code, _, err = run(["mesh", "audit", "--mesh", str(path)], capsys)
        assert code == 3
        assert "cell 0" in err

    def test_unused_vertex_is_numerical_failure(self, tmp_path, capsys):
        # Named by the mesh check, not by a singular primal factorization.
        path = tmp_path / "stray.json"
        write_with_stray_vertex(gen_square_mesh(4), path)
        for args in (["mesh", "audit"], ["solve", "--method", "primal", "--r", "1"],
                     ["solve", "--method", "mixed-full", "--r", "1"]):
            code, out, err = run([*args, "--mesh", str(path)], capsys)
            assert code == 3
            assert err == "numerical failure: vertex 25 is used by no cell\n"
            assert out == ""

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code, out, err = run(["mesh", "audit", "--mesh", str(tmp_path / "missing.json")], capsys)
        assert code == 2
        assert err.startswith("error: ") and "missing.json" in err
        assert out == ""

    @pytest.mark.parametrize("payload", ['{"vertices": [0, 1, 2], "cells": [[0, 1, 2]]}',
                                         '{"vertices": [], "cells": []}'])
    def test_malformed_arrays_are_numerical_failure(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, _, err = run(["mesh", "audit", "--mesh", str(path)], capsys)
        assert code == 3
        assert "vertices must have shape (M, 2)" in err


class TestSolveCommand:
    def test_primal_hex_n10_matches_reference_magnitude(self, capsys):
        code, out, _ = run(["solve", "--method", "primal", "--r", "2",
                            "--family", "hex-dominant", "--n", "10"], capsys)
        assert code == 0
        val = float([l for l in out.splitlines() if l.startswith("L2_p")][0].split("=")[1])
        # reference magnitude from comparable mostly-hexagon meshes
        assert 1.991e-04 / 3 < val < 1.991e-04 * 3

    def test_mixed_full_r1_p_and_div_errors_close(self, capsys):
        code, out, _ = run(["solve", "--method", "mixed-full", "--r", "1",
                            "--family", "hex-dominant", "--n", "10"], capsys)
        assert code == 0
        vals = {l.split(" = ")[0]: float(l.split(" = ")[1])
                for l in out.splitlines() if " = " in l}
        # relative to the exact-field norms (||p|| = 1/2, ||div u|| = pi^2)
        # the scalar and divergence errors nearly coincide
        rel_p = vals["L2_p"] / 0.5
        rel_div = vals["L2_div_u"] / np.pi**2
        assert rel_p == pytest.approx(rel_div, rel=0.05)

    def test_four_hump_option(self, capsys):
        code, out, _ = run(["solve", "--method", "primal", "--r", "2",
                            "--family", "square", "--n", "6",
                            "--exact", "four-hump"], capsys)
        assert code == 0

    def test_element_error_dump(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        code, _, _ = run(["solve", "--method", "primal", "--r", "1",
                          "--family", "square", "--n", "3",
                          "--dump-element-errors", str(path)], capsys)
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cell_id,centroid_x,centroid_y,L2_error"
        assert len(lines) == 10
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(9))

    def test_highest_quad_degree_solves(self, capsys):
        # The error rule's degree, the assembly degree plus 2, is capped there.
        code, out, err = run(["solve", "--method", "primal", "--r", "1", "--family", "square",
                              "--n", "2", "--quad-degree", str(MAX_DEGREE)], capsys)
        assert code == 0, err
        norms = [float(l.split(" = ")[1]) for l in out.splitlines()
                 if l.startswith(("L2_p", "H1_semi_p"))]
        assert len(norms) == 2 and np.all(np.isfinite(norms))

    def test_missing_mesh_file_is_config_error(self, tmp_path, capsys):
        code, out, err = run(["solve", "--mesh", str(tmp_path / "missing.json")], capsys)
        assert code == 2
        assert err.startswith("error: ") and "missing.json" in err
        assert out == ""

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        code, _, err = run(["solve", "--family", "square", "--n", "2",
                            "--out", str(tmp_path / "no-such-dir" / "e.csv")], capsys)
        assert code == 2
        assert err.startswith("error: ") and "no-such-dir" in err

    def test_solve_from_mesh_file(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.json"
        run(["mesh", "gen", "--family", "square", "--n", "4",
             "--out", str(mesh_path)], capsys)
        code, out, _ = run(["solve", "--method", "primal", "--r", "2",
                            "--mesh", str(mesh_path)], capsys)
        assert code == 0

    def test_missing_size_is_config_error(self, capsys):
        code, _, err = run(["solve", "--method", "primal", "--r", "2",
                            "--family", "square"], capsys)
        assert code == 2

    def test_size_zero_is_named_by_the_generator(self, capsys):
        code, out, err = run(["solve", "--family", "square", "--n", "0"], capsys)
        assert code == 2
        assert err == "error: n must be >= 2\n"
        assert out == ""

    def test_two_meshes_is_config_error(self, tmp_path, capsys):
        paths = []
        for n in (2, 4):
            p = tmp_path / f"m{n}.json"
            run(["mesh", "gen", "--family", "square", "--n", str(n),
                 "--out", str(p)], capsys)
            paths.append(str(p))
        code, out, err = run(["solve", "--method", "primal", "--r", "1",
                              "--mesh", paths[0], "--mesh", paths[1]], capsys)
        assert code == 2
        assert "one --mesh" in err
        assert "L2_p" not in out

    def test_reduced_r0_is_config_error(self, capsys):
        # Each method's lowest index less one, in both solving commands.
        cases = [("primal", "0", "primal form needs r >= 1"),
                 ("mixed-full", "-1", "mixed form needs r >= 0"),
                 ("mixed-reduced", "0", "reduced mixed form needs r >= 1 (s = r-1 >= 0)")]
        for command, size in SIZES.items():
            for method, r, message in cases:
                code, out, err = run([command, "--method", method, "--r", r,
                                      "--family", "square", *size], capsys)
                assert code == 2
                assert err == f"error: {message}\n"
                assert out == ""


class TestConvergenceCommand:
    def test_two_levels_table(self, tmp_path, capsys):
        out_csv = tmp_path / "study.csv"
        code, out, _ = run(["convergence", "--method", "primal", "--r", "2",
                            "--family", "square", "--levels", "4,8",
                            "--out", str(out_csv)], capsys)
        assert code == 0
        assert "| level |" in out
        rows = out_csv.read_text().splitlines()
        assert rows[0].startswith("level,h,n_dofs,L2_p,rate_L2_p")
        assert len(rows) == 3

    def test_single_level_is_config_error(self, capsys):
        code, _, err = run(["convergence", "--method", "primal", "--r", "2",
                            "--family", "square", "--levels", "4"], capsys)
        assert code == 2
        assert "two levels" in err

    def test_decreasing_levels_is_config_error(self, capsys):
        code, out, err = run(["convergence", "--method", "primal", "--r", "1",
                              "--family", "square", "--levels", "8,4"], capsys)
        assert code == 2
        assert err == "error: levels must be strictly increasing\n"
        assert out == ""

    def test_single_mesh_is_config_error(self, tmp_path, capsys):
        # The default --levels has three entries, but with --mesh the
        # meshes are the levels.
        path = tmp_path / "m.json"
        run(["mesh", "gen", "--family", "square", "--n", "4", "--out", str(path)], capsys)
        code, out, err = run(["convergence", "--method", "primal", "--r", "1",
                              "--mesh", str(path)], capsys)
        assert code == 2
        assert "two levels" in err
        assert "| level |" not in out

    def test_equal_h_levels_is_config_error(self, tmp_path, monkeypatch, capsys):
        # Rejected once the meshes are built, before any solve: the rate
        # between levels of equal h would be 0 / 0.
        path = str(tmp_path / "sq4.json")
        run(["mesh", "gen", "--family", "square", "--n", "4", "--out", path], capsys)

        def no_solve(*args):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(cli, "_solve_level", no_solve)
        code, out, err = run(["convergence", "--method", "primal", "--r", "1",
                              "--mesh", path, "--mesh", path], capsys)
        assert code == 2
        assert err == (f"error: levels 1 ({path}) and 2 ({path}) have h = 0.353553 and "
                       "0.353553; h must decrease strictly from level to level\n")
        assert out == ""

    def test_missing_mesh_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        run(["mesh", "gen", "--family", "square", "--n", "2", "--out", str(path)], capsys)
        code, out, err = run(["convergence", "--mesh", str(path),
                              "--mesh", str(tmp_path / "missing.json")], capsys)
        assert code == 2
        assert err.startswith("error: ") and "missing.json" in err
        assert out == ""

    def test_determinism_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["convergence", "--method", "mixed-full", "--r", "0",
                "--family", "perturbed-quad", "--levels", "2,4", "--seed", "11"]
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_cells_finite(self, tmp_path, capsys):
        out_csv = tmp_path / "study.csv"
        code, _, _ = run(["convergence", "--method", "mixed-reduced", "--r", "1",
                          "--family", "trapezoid", "--levels", "2,4",
                          "--out", str(out_csv)], capsys)
        assert code == 0
        for line in out_csv.read_text().splitlines()[1:]:
            for tok in line.split(","):
                if tok:
                    assert np.isfinite(float(tok))

    def test_imported_mesh_ladder(self, tmp_path, capsys):
        paths = []
        for n in (2, 4):
            p = tmp_path / f"m{n}.json"
            run(["mesh", "gen", "--family", "square", "--n", str(n),
                 "--out", str(p)], capsys)
            paths.append(str(p))
        code, out, _ = run(["convergence", "--method", "primal", "--r", "1",
                            "--mesh", paths[0], "--mesh", paths[1]], capsys)
        assert code == 0
        assert "| " in out


@pytest.mark.parametrize("command", SIZES)
def test_missing_family_and_mesh_is_config_error(capsys, command):
    code, out, err = run([command, "--method", "primal", "--r", "1", *SIZES[command]], capsys)
    assert code == 2
    assert err == "error: give --family or --mesh\n"
    assert out == ""


@pytest.mark.parametrize("degree", [0, MAX_DEGREE + 1])
@pytest.mark.parametrize("command", SIZES)
def test_quad_degree_out_of_range_is_config_error(monkeypatch, capsys, degree, command):
    # Rejected before any mesh is built.
    def no_mesh(*args):
        raise AssertionError("make_mesh was called")

    monkeypatch.setattr(cli, "make_mesh", no_mesh)
    code, out, err = run([command, "--method", "primal", "--r", "1", "--family", "square",
                          *SIZES[command], "--quad-degree", str(degree)], capsys)
    assert code == 2
    assert err == f"error: --quad-degree must be in [1, {MAX_DEGREE}], got {degree}\n"
    assert out == ""


@pytest.mark.parametrize("method, r", [("primal", 29), ("mixed-full", 28), ("mixed-reduced", 28)])
@pytest.mark.parametrize("command", SIZES)
def test_default_quad_degree_above_highest_is_config_error(monkeypatch, capsys, method, r,
                                                           command):
    # The default degree (2r+4 primal, 2r+6 mixed) is 62 here; rejected
    # before any mesh is built.
    def no_mesh(*args):
        raise AssertionError("make_mesh was called")

    monkeypatch.setattr(cli, "make_mesh", no_mesh)
    code, out, err = run([command, "--method", method, "--r", str(r), "--family", "square",
                          *SIZES[command]], capsys)
    assert code == 2
    assert err == (f"error: --r {r} needs the default quadrature degree 62, "
                   f"above the highest, {MAX_DEGREE}\n")
    assert out == ""


def test_given_quad_degree_lifts_the_default_degree_check():
    args = cli.build_parser().parse_args(["solve", "--r", "29", "--family", "square", "--n", "2",
                                          "--quad-degree", str(MAX_DEGREE)])
    cli._check_args(args)
    args = cli.build_parser().parse_args(["solve", "--r", "28", "--family", "square", "--n", "2"])
    cli._check_args(args)


@pytest.mark.parametrize("args", [["solve", "--n", "4"], ["convergence", "--levels", "2,4"],
                                  ["mesh", "gen", "--n", "4", "--out", "unwritten.json"]])
def test_negative_seed_is_config_error(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    code, out, err = run([*args, "--family", "perturbed-quad", "--seed", "-1"], capsys)
    assert code == 2
    assert err == "error: seed must be >= 0, got -1\n"
    assert out == ""
    assert not (tmp_path / "unwritten.json").exists()


@pytest.mark.parametrize("family", ["bogus", "hex"])
@pytest.mark.parametrize("command", SIZES)
def test_unknown_family_is_config_error(capsys, family, command):
    # "hex" is no spelling of "hex-dominant".
    code, out, err = run([command, "--method", "primal", "--r", "1",
                          "--family", family, *SIZES[command]], capsys)
    assert code == 2
    assert err == f"error: unknown mesh family {family!r}\n"
    assert out == ""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polyds.cli", "solve", "--method", "primal",
         "--r", "1", "--family", "square", "--n", "3"],
        capture_output=True, text=True, timeout=120, env=SOURCE_ENV,
    )
    assert proc.returncode == 0
    assert "L2_p" in proc.stdout


def test_unknown_method_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "polyds.cli", "solve", "--method", "bogus",
         "--family", "square", "--n", "3"],
        capture_output=True, text=True, timeout=60, env=SOURCE_ENV,
    )
    assert proc.returncode == 2
