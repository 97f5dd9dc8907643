import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

import polyds.mesh
from polyds.geometry import Polygon, polygon_stack
from polyds.mesh import (
    MeshError,
    _clean_loops,
    _fuse,
    _voronoi_loops,
    build_topology,
    collapse_short_edges,
    export_mesh,
    gen_hex_dominant_mesh,
    gen_perturbed_quad_mesh,
    gen_square_mesh,
    gen_trapezoid_mesh,
    hex_lattice_seeds,
    import_mesh,
    mesh_stats,
)

from helpers import (
    POLYGON_ARRAYS,
    SOURCE_ENV,
    _clean_loop,
    dict_topology,
    double_cover,
    fan,
    fuse_loops,
    loop_grid,
    shape_regularity,
    sliver_mesh,
    truncated_hexagon,
    voronoi_cell,
    voronoi_cell_full_clip,
    voronoi_loop_per_seed,
    write_double_cover,
    write_with_stray_vertex,
)


def total_area(mesh):
    return sum(mesh.polygon(c).area for c in range(mesh.n_cells))


def assert_dict_topology(mesh):
    """The topology arrays of ``mesh`` are those the dict-built topology
    gives its cells."""
    edges, cell_edges = dict_topology(mesh.cells)
    assert mesh.edges.tolist() == [[a, b] for a, b, _, _ in edges]
    assert mesh.edge_cells.tolist() == [[left, -1 if right is None else right]
                                        for _, _, left, right in edges]
    assert list(mesh.groups) == sorted({len(loop) for loop in mesh.cells})
    for N, (cells, loops, edge_ids) in mesh.groups.items():
        want = [c for c, loop in enumerate(mesh.cells) if len(loop) == N]
        assert cells.tolist() == want
        assert loops.tolist() == [mesh.cells[c] for c in want]
        assert edge_ids.tolist() == [cell_edges[c] for c in want]


def assert_same_mesh(mesh, verts, cells):
    """``mesh`` has exactly these vertices and cells, and the topology the
    dict-built topology gives them."""
    assert np.array_equal(mesh.vertices, verts)
    assert mesh.cells == cells
    assert_dict_topology(mesh)


class TestTopology:
    def test_square_2x2_counts(self):
        m = gen_square_mesh(2)
        assert m.n_cells == 4
        assert m.n_edges == 12
        assert (m.edge_cells[:, 1] >= 0).sum() == 4
        assert m.n_vertices == 9
        assert_dict_topology(m)

    def test_single_pentagon(self):
        ang = 2 * np.pi * np.arange(5) / 5
        verts = np.column_stack([np.cos(ang), np.sin(ang)])
        m = build_topology(verts, [[0, 1, 2, 3, 4]])
        assert m.n_edges == 5
        assert (m.edge_cells[:, 1] < 0).all()
        assert_dict_topology(m)

    def test_clockwise_cell_rejected(self):
        verts = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]
        cells = [[0, 1, 4, 5], [1, 2, 3, 4][::-1]]
        with pytest.raises(MeshError, match="[Ii]nverted|clockwise"):
            build_topology(verts, cells)

    def test_nonconforming_rejected(self):
        # overlapping cells traverse shared edges in the same direction
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        cells = [[0, 1, 2, 3], [0, 1, 2, 3]]
        with pytest.raises(MeshError, match="nonconforming"):
            build_topology(verts, cells)

    def test_double_cover_rejected(self):
        # Conforming, with convex cells, yet the cells wind twice around
        # vertex 0: summed, their areas equal the boundary's, 9.5.
        verts, cells = double_cover()
        assert sum(Polygon([verts[i] for i in loop]).area for loop in cells) == 9.5
        with pytest.raises(MeshError, match=r"^cells overlap at vertex 0: their angles there "
                                            r"sum to 4 pi, more than 2 pi$"):
            build_topology(verts, cells)

    def test_fan_around_a_boundary_vertex(self):
        # Vertex 0 is on the boundary: three quarter turns around it pass,
        # and six, which wrap 1.5 turns, do not.
        assert build_topology(*fan([1, 1, 1, 1])).n_cells == 3
        with pytest.raises(MeshError, match=r"^cells overlap at vertex 0: their angles there "
                                            r"sum to 3 pi, more than 2 pi$"):
            build_topology(*fan([1, 1, 1, 1, 2, 2, 2]))

    def test_lowest_overlap_vertex_named(self):
        # Two double covers, 10 apart: the first one's centre is renumbered
        # to vertex 8, the second one's is vertex 9.
        verts, cells = double_cover()
        both = verts[1:] + verts[:1] + [(x + 10, y) for x, y in verts]
        cells = [[(i - 1) % 9 for i in loop] for loop in cells] + [
            [9 + i for i in loop] for loop in cells]
        with pytest.raises(MeshError, match=r"^cells overlap at vertex 8: "):
            build_topology(both, cells)

    def test_duplicate_vertex_in_loop(self):
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        with pytest.raises(MeshError, match="degenerate cell 0"):
            build_topology(verts, [[0, 1, 1, 2, 3]])

    def test_lowest_unused_vertex_named(self):
        # Vertices 1 and 5 belong to no cell; an unused vertex would carry a
        # primal dof whose matrix row is empty.
        verts = [(0, 0), (0.5, 0.5), (1, 0), (1, 1), (0, 1), (2, 2)]
        with pytest.raises(MeshError, match=r"^vertex 1 is used by no cell$"):
            build_topology(verts, [[0, 2, 3, 4]])

    @pytest.mark.parametrize("gen", [gen_square_mesh, gen_hex_dominant_mesh])
    def test_each_cell_polygon_built_once(self, monkeypatch, gen):
        built = []
        init = Polygon.__init__

        def counting_stack(vertices):
            polygons, failure = polygon_stack(vertices)
            built.extend(polygons)
            return polygons, failure

        def counting_init(self, vertices):
            built.append(self)
            init(self, vertices)

        monkeypatch.setattr(polyds.mesh, "polygon_stack", counting_stack)
        monkeypatch.setattr(Polygon, "__init__", counting_init)
        m = gen(4)
        assert len(built) == 16
        cells = [m.vertices[loop] for loop in m.cells]
        h = max(np.linalg.norm(v[:, None] - v[None], axis=-1).max() for v in cells)
        assert m.h_max == pytest.approx(h)
        if gen is gen_square_mesh:
            assert h == pytest.approx(np.sqrt(2) / 4)
        assert len(built) == 16

    @pytest.mark.parametrize("mesh", [gen_square_mesh(4), gen_trapezoid_mesh(4),
                                      gen_perturbed_quad_mesh(6, 0.2, 1),
                                      gen_hex_dominant_mesh(6)],
                             ids=["square", "trapezoid", "pquad", "hex"])
    def test_cell_polygons_equal_single_polygons(self, mesh):
        for c, loop in enumerate(mesh.cells):
            got, want = mesh.polygon(c), Polygon(mesh.vertices[loop])
            for name in POLYGON_ARRAYS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.diameter == want.diameter
            assert got.area == want.area

    @pytest.mark.parametrize("bad_loop", [[1, 2, 2, 5, 4], [1, 2, 2, 4]],
                             ids=["other-length", "same-length"])
    def test_lowest_bad_cell_named(self, bad_loop):
        # Cell 3 is clockwise, cell 1 repeats a vertex: cell 1 is named.
        verts = gen_square_mesh(2).vertices
        cells = [[0, 1, 4, 3], bad_loop, [3, 4, 7, 6], [4, 7, 8, 5]]
        with pytest.raises(MeshError) as info:
            build_topology(verts, cells)
        assert str(info.value) == f"degenerate cell 1: repeated vertex in loop {bad_loop}"
        cells[1] = [1, 2, 5, 4]
        with pytest.raises(MeshError, match="^degenerate cell 3: vertex loop is not counterclockwise$"):
            build_topology(verts, cells)

    def test_vertices_read_only(self):
        verts = gen_square_mesh(2).vertices.copy()
        m = build_topology(verts, [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]])
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.polygon(0).vertices[0, 0] = 5.0
        arrays = [m.edges, m.edge_cells, *(a for group in m.groups.values() for a in group)]
        assert len(arrays) == 5
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0
        # The caller's array is copied, not frozen.
        verts[0, 0] = 5.0
        assert m.vertices[0, 0] == 0.0

    def test_cells_and_groups_cannot_change_the_mesh(self, tmp_path):
        m = gen_square_mesh(2)
        cells = m.cells
        export_mesh(m, tmp_path / "before.json")
        m.cells[0].reverse()
        cells[1].clear()
        with pytest.raises(TypeError):
            m.groups[7] = None
        with pytest.raises(TypeError):
            del m.groups[4]
        assert m.cells == [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]]
        assert list(m.groups) == [4] and m.groups[4][1].tolist() == m.cells
        assert m.n_cells == 4
        export_mesh(m, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_text() == (tmp_path / "before.json").read_text()
        assert import_mesh(tmp_path / "after.json").cells == m.cells

    def test_interior_edge_orientations(self):
        m = gen_square_mesh(3)
        left, right = m.edge_cells[m.edge_cells[:, 1] >= 0].T
        assert (left != right).all()
        # The edge runs the other way round the right cell.
        for (a, b), c in zip(m.edges[m.edge_cells[:, 1] >= 0].tolist(), right.tolist()):
            loop = m.cells[c]
            assert loop[(loop.index(b) + 1) % len(loop)] == a
        assert_dict_topology(m)


class TestGenerators:
    def test_square_sigma(self):
        st = mesh_stats(gen_square_mesh(2))
        want = 2 * (2 - np.sqrt(2)) / np.sqrt(2)
        assert st.sigma_min == pytest.approx(want, abs=1e-12)
        assert st.sigma_max == pytest.approx(want, abs=1e-12)
        assert st.sigma_min <= st.sigma_avg <= st.sigma_max

    @pytest.mark.parametrize("make", [lambda: gen_hex_dominant_mesh(8),
                                      lambda: gen_perturbed_quad_mesh(8, 0.2, 1),
                                      lambda: collapse_short_edges(gen_hex_dominant_mesh(6), 0.05)])
    def test_sigma_matches_the_vertex_triangle_loop(self, make):
        # Oracle: each polygon's sigma from a Python loop over its vertex
        # triangles (math.dist, where the library takes np.hypot).
        mesh = make()
        want = []
        polygons = [mesh.polygon(c) for c in range(mesh.n_cells)]
        for E in polygons:
            v, best = E.vertices, np.inf
            for a, b, c in itertools.combinations(range(E.n_edges), 3):
                u, w = v[b] - v[a], v[c] - v[a]
                per = math.dist(v[a], v[b]) + math.dist(v[b], v[c]) + math.dist(v[c], v[a])
                best = min(best, 2.0 * abs(u[0] * w[1] - u[1] * w[0]) / per)
            want.append(2.0 * best / E.diameter)
        got = np.array([shape_regularity(E) for E in polygons])
        assert np.abs(got - want).max() <= 1e-15 * max(want)
        # The stats are the per-polygon values, reduced in cell order.
        st = mesh_stats(mesh)
        assert (st.sigma_min, st.sigma_max, st.sigma_avg) == (got.min(), got.max(), got.mean())

    def test_trapezoid_constant_sigma_across_levels(self):
        st2 = mesh_stats(gen_trapezoid_mesh(2))
        st4 = mesh_stats(gen_trapezoid_mesh(4))
        assert st2.sigma_min == pytest.approx(st2.sigma_max, rel=1e-12)
        assert st4.sigma_min == pytest.approx(st2.sigma_min, rel=1e-12)
        assert st4.sigma_max == pytest.approx(st2.sigma_max, rel=1e-12)

    def test_trapezoid_odd_n_rejected(self):
        with pytest.raises(ValueError):
            gen_trapezoid_mesh(3)

    def test_perturbed_zero_noise_is_square(self):
        a = gen_perturbed_quad_mesh(4, 0.0, seed=123)
        b = gen_square_mesh(4)
        assert np.array_equal(a.vertices, b.vertices)
        assert a.cells == b.cells

    def test_perturbed_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            gen_perturbed_quad_mesh(4, 0.2, seed=-1)

    def test_perturbed_deterministic_and_valid(self):
        a = gen_perturbed_quad_mesh(5, 0.2, seed=7)
        b = gen_perturbed_quad_mesh(5, 0.2, seed=7)
        assert np.array_equal(a.vertices, b.vertices)
        c = gen_perturbed_quad_mesh(5, 0.2, seed=8)
        assert not np.array_equal(a.vertices, c.vertices)
        assert total_area(a) == pytest.approx(1.0, rel=1e-12)

    def test_h_scaling(self):
        for gen in (gen_square_mesh, gen_trapezoid_mesh):
            ref = gen(2).h_max * 2
            for n in (4, 8):
                assert gen(n).h_max * n == pytest.approx(ref, rel=1e-12)
        ref = gen_hex_dominant_mesh(2).h_max * 2
        for n in (4, 8):
            assert gen_hex_dominant_mesh(n).h_max * n == pytest.approx(ref, rel=0.1)

    def test_hex_census_and_area(self):
        m = gen_hex_dominant_mesh(6)
        assert m.n_cells == 36
        assert {len(c) for c in m.cells} == {4, 5, 6}
        assert total_area(m) == pytest.approx(1.0, rel=1e-12)

    def test_hex_sigma_matches_staggered_construction(self):
        # Constant stats across levels; magnitudes from the quarter-spacing
        # staggered lattice.
        for n in (6, 10):
            st = mesh_stats(gen_hex_dominant_mesh(n))
            assert st.sigma_max == pytest.approx(0.568, abs=5e-3)
            assert st.sigma_min == pytest.approx(0.355, abs=5e-3)
            assert 0.35 <= st.sigma_avg <= 0.45

    def test_hex_sigma_floor_regression(self):
        for n in (2, 3, 5, 9, 17, 32):
            assert mesh_stats(gen_hex_dominant_mesh(n)).sigma_min >= 0.2

    @pytest.mark.parametrize("n", [*range(2, 18), 32])
    def test_hex_matches_per_seed_construction(self, n):
        seeds = hex_lattice_seeds(n)
        verts, cells = fuse_loops([voronoi_loop_per_seed(s, seeds) for s in seeds], 1e-7 / n)
        assert_same_mesh(gen_hex_dominant_mesh(n), verts, cells)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_perturbed_matches_loop_construction(self, seed):
        n = 32
        shifts = np.random.default_rng(seed).uniform(-0.2 / n, 0.2 / n, size=(n + 1, n + 1, 2))

        def inner(i, j):
            return 0 < i < n and 0 < j < n

        verts, cells = loop_grid(n, lambda i, j: j / n + shifts[i, j, 1] if inner(i, j) else j / n,
                                 lambda i, j: shifts[i, j, 0] if inner(i, j) else 0.0)
        assert_same_mesh(gen_perturbed_quad_mesh(n, 0.2, seed), verts, cells)

    def test_square_and_trapezoid_match_loop_construction(self):
        n = 8
        verts, cells = loop_grid(n, lambda i, j: j / n)
        assert_same_mesh(gen_square_mesh(n), verts, cells)
        verts, cells = loop_grid(
            n, lambda i, j: (j + (0.25 if j % 2 else 0.0) * (1 if (i + j) % 2 else -1)) / n)
        assert_same_mesh(gen_trapezoid_mesh(n), verts, cells)

    def test_fusion_matches_pairwise_relabelling(self):
        tol = 1.5e-3
        rng = np.random.default_rng(3)
        # Clusters of random size and shape, chains included, in random order.
        centers = rng.random((60, 2))
        clusters = np.vstack([c + rng.uniform(-2e-3, 2e-3, (rng.integers(1, 6), 2))
                              for c in centers])
        # Points on bucket boundaries (multiples of the tolerance, at least
        # three apart), each with a partner on either side of the boundary;
        # and pairs that straddle those points, diagonally too.
        corners = 3 * tol * rng.integers(0, 200, (40, 2))
        boundary = np.vstack([corners, corners + rng.uniform(-0.4, 0.4, corners.shape) * tol])
        offsets = rng.uniform(0.1, 0.3, corners.shape) * rng.choice([-1, 1], corners.shape) * tol
        straddling = np.vstack([corners + offsets, corners - offsets])
        # A chain of steps below the tolerance across several buckets.
        chain = 0.5 + np.arange(12)[:, None] * np.array([0.9, 0.2]) * tol
        for pts in (clusters, boundary, straddling, np.vstack([chain, boundary])):
            pts = pts[rng.permutation(len(pts))]
            verts, cells = fuse_loops([pts], tol)
            got, index = _fuse(pts, tol)
            assert np.array_equal(got, verts)
            assert index.tolist() == cells[0]
        assert len(_fuse(chain, tol)[0]) == 1

    def test_generation_leaves_scipy_spatial_unloaded(self):
        # In a fresh interpreter: the tests' own oracles import scipy.spatial.
        code = ("import sys, polyds; polyds.gen_hex_dominant_mesh(4); "
                "print(sorted(m for m in ('scipy.spatial', 'scipy.special', 'scipy.constants') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=SOURCE_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
    def test_every_family_passes_the_checks(self, n):
        meshes = [gen_square_mesh(n), gen_hex_dominant_mesh(n),
                  *(gen_perturbed_quad_mesh(n, 0.2, seed) for seed in range(4))]
        if n % 2 == 0:
            meshes.append(gen_trapezoid_mesh(n))
        for m in meshes:
            assert total_area(m) == pytest.approx(1.0, rel=1e-12)

    def test_generated_meshes_revalidate(self):
        for m in (gen_square_mesh(3), gen_trapezoid_mesh(4),
                  gen_perturbed_quad_mesh(4, 0.2, 1), gen_hex_dominant_mesh(5)):
            rebuilt = build_topology(m.vertices, m.cells)
            assert rebuilt.n_edges == m.n_edges


def cluster_and_lone_seeds():
    """A tight cluster far from a few lone seeds: the lone cells reach past
    their first window of buckets and are clipped again with a wider one."""
    rng = np.random.default_rng(5)
    return np.vstack([0.85 + 0.1 * rng.random((40, 2)), rng.random((6, 2)) * 0.5])


class TestVoronoiCell:
    def test_two_seed_halves(self):
        cell = voronoi_cell((0.25, 0.5), [(0.25, 0.5), (0.75, 0.5)])
        assert cell.area == pytest.approx(0.5, rel=1e-12)
        assert cell.vertices[:, 0].max() == pytest.approx(0.5, abs=1e-12)

    def test_lattice_center_cell(self):
        seeds = [((i + 0.5) / 3, (j + 0.5) / 3) for i in range(3) for j in range(3)]
        cell = voronoi_cell((0.5, 0.5), seeds)
        assert cell.n_edges == 4
        assert cell.area == pytest.approx(1 / 9, rel=1e-12)

    def test_cells_partition_square(self):
        seeds = hex_lattice_seeds(4)
        total = sum(voronoi_cell(s, seeds).area for s in seeds)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_cutoff_matches_full_clip(self):
        n = 5
        seeds = hex_lattice_seeds(n)
        for s in seeds:
            full = voronoi_cell_full_clip(s, seeds)
            cut = voronoi_cell(s, seeds)
            assert full.n_edges == cut.n_edges
            assert np.allclose(np.sort(full.vertices, axis=0),
                               np.sort(cut.vertices, axis=0), atol=1e-12)

    @pytest.mark.parametrize("seeds", [
        # Lattices, whose many equal distances order their seeds by index.
        hex_lattice_seeds(2),
        hex_lattice_seeds(3),
        hex_lattice_seeds(16),
        # Seeds in and around the square; some cells miss it.
        np.random.default_rng(7).uniform(-0.5, 1.5, (60, 2)),
        np.array([[0.3, 0.6]]),
        cluster_and_lone_seeds(),
    ], ids=["hex-2", "hex-3", "hex-16", "around", "single", "cluster"])
    def test_batched_clip_matches_per_seed_clip(self, seeds):
        loops = {}
        for c, s in enumerate(seeds):
            try:
                loops[c] = voronoi_loop_per_seed(s, seeds)
            except MeshError:
                continue
        assert loops
        pts, counts = _voronoi_loops(seeds[list(loops)], seeds)
        for (c, loop), p, m in zip(loops.items(), pts, counts):
            assert np.array_equal(p[:m], loop)
            assert np.array_equal(voronoi_cell(seeds[c], seeds).vertices, loop)

    def test_batched_clean_matches_per_loop_clean(self):
        # Near-duplicate runs (chains closer than the tolerance step by
        # step but not end to end), a last vertex near the first, and
        # collinear midpoints.
        rng = np.random.default_rng(11)
        loops = []
        for _ in range(200):
            ang = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(3, 7)))
            loop = [np.array([np.cos(a), np.sin(a)]) for a in ang]
            out = []
            for k, p in enumerate(loop):
                out.append(p)
                kind = rng.integers(4)
                if kind == 1:
                    out.extend(p + 6e-10 * np.arange(1, rng.integers(2, 5))[:, None] * (1, 0))
                elif kind == 2:
                    out.append(0.5 * (p + loop[(k + 1) % len(loop)]))
            if rng.random() < 0.3:
                out.append(out[0] + (4e-10, -3e-10))
            loops.append(np.array(out))
        width = max(map(len, loops))
        pts = np.zeros((len(loops), width, 2))
        for c, loop in enumerate(loops):
            pts[c, :len(loop)] = loop
        got, counts = _clean_loops(pts, np.array([len(loop) for loop in loops]), 1.0)
        for c, loop in enumerate(loops):
            assert np.array_equal(got[c, :counts[c]], _clean_loop(loop, 1.0))

    def test_seed_validation(self):
        with pytest.raises(MeshError):
            voronoi_cell((0.4, 0.4), [(0.25, 0.5), (0.75, 0.5)])
        with pytest.raises(MeshError, match="pairwise distinct and contain `seed`"):
            voronoi_cell((0.5, 0.5), [])


class TestCollapse:
    def test_fixed_point(self):
        m = gen_square_mesh(3)
        assert collapse_short_edges(m, 0.01) is m

    def test_hexagon_becomes_pentagon(self):
        m = truncated_hexagon(1e-6)
        assert len(m.cells[0]) == 6
        out = collapse_short_edges(m, 1e-4)
        assert len(out.cells[0]) == 5
        assert out.n_vertices == m.n_vertices - 1

    def test_sigma_min_increases_on_sliver(self):
        m = sliver_mesh(1e-3)
        before = mesh_stats(m)
        out = collapse_short_edges(m, 0.01)
        after = mesh_stats(out)
        assert after.sigma_min > before.sigma_min
        assert after.n_vertices == before.n_vertices - 1
        assert_dict_topology(out)

    def test_audit_measures_on_sliver_and_flat_vertex(self):
        # The sliver edge is 1e-3 of the largest diameter, and the two
        # pentagons that hold it (about 0.707 across) have angles of 135
        # degrees at its ends; collapsing it leaves four near-squares.
        st = mesh_stats(sliver_mesh(1e-3))
        assert st.edge_ratio_min == pytest.approx(1e-3, rel=1e-3)
        assert st.angle_max == pytest.approx(135.0, abs=0.05)
        after = mesh_stats(collapse_short_edges(sliver_mesh(1e-3), 0.01))
        assert after.edge_ratio_min > 0.7
        assert after.angle_max == pytest.approx(90.0, abs=0.1)
        # A unit square with a fifth vertex raised 1e-3 above its top edge.
        flat = mesh_stats(build_topology([(0, 0), (1, 0), (1, 1), (0.5, 1.001), (0, 1)],
                                         [[0, 1, 2, 3, 4]]))
        assert flat.angle_max == pytest.approx(180.0 - 2.0 * math.degrees(math.atan(2e-3)),
                                               abs=1e-9)
        assert flat.edge_ratio_min == pytest.approx(math.hypot(0.5, 0.001) / math.sqrt(2))

    def test_idempotent(self):
        m = sliver_mesh(1e-3)
        once = collapse_short_edges(m, 0.01)
        assert collapse_short_edges(once, 0.01) is once

    def test_rejects_bad_tolerance(self):
        for rel_tol in (0.0, float("nan")):
            with pytest.raises(ValueError):
                collapse_short_edges(gen_square_mesh(2), rel_tol)

    # The unit square with a roof of two short edges E1-E2-E3 (0.014 long)
    # in its middle: vertices A B C D E1 E2 E3 F, F the midpoint of the top.
    ROOF = [(0, 0), (1, 0), (1, 1), (0, 1), (0.49, 0.5), (0.5, 0.51), (0.51, 0.5), (0.5, 1)]

    def test_edge_of_a_merged_vertex_waits_for_the_next_round(self, monkeypatch):
        # Both roof edges are short, but they share E2: the first merge
        # touches E2, so the second edge is skipped and merged in round 2.
        mesh = build_topology(self.ROOF, [[0, 1, 6, 5, 4], [0, 4, 3], [1, 2, 6],
                                          [3, 4, 5, 7], [5, 6, 2, 7]])
        rounds = []
        real = polyds.mesh.build_topology
        monkeypatch.setattr(polyds.mesh, "build_topology",
                            lambda *args: rounds.append(1) or real(*args))
        out = collapse_short_edges(mesh, 0.05)
        assert len(rounds) == 2
        assert out.n_vertices == 6
        assert out.cells == [[0, 1, 4], [0, 4, 3], [1, 2, 4], [3, 4, 5], [4, 2, 5]]

    def test_merge_of_a_loops_last_and_first_vertex(self):
        # The loop of the cell D E1 E2 F starts at E2, so the short edge
        # E1-E2 closes it: its merged ends are its last and first vertex.
        out = collapse_short_edges(build_topology(self.ROOF, [
            [0, 1, 6, 5, 4], [0, 4, 3], [1, 2, 6], [5, 7, 3, 4], [5, 6, 2, 7]]), 0.05)
        assert out.n_vertices == 6
        assert out.cells == [[0, 1, 4], [0, 4, 3], [1, 2, 4], [4, 5, 3], [4, 2, 5]]

    def test_collapse_that_eliminates_a_cell(self):
        # The triangle E1 E3 E2 has only short edges.
        mesh = build_topology(self.ROOF, [[0, 1, 6, 4], [4, 6, 5], [0, 4, 3], [1, 2, 6],
                                          [3, 4, 5, 7], [5, 6, 2, 7]])
        with pytest.raises(MeshError) as info:
            collapse_short_edges(mesh, 0.05)
        assert info.type is MeshError
        assert str(info.value) == "collapse would eliminate cell 1"

    def test_collapse_that_breaks_the_mesh(self):
        # The short edge K-X (0.03 long) keeps K, the lower-numbered of two
        # ends in two cells each.  X moves onto K, and the cell T P X R S,
        # whose angle at P is 177.7 degrees, turns concave there.
        vertices = [(0, 0), (0, -1), (0.5, -1), (1, -1), (1.001, -0.03), (1, 0), (1, 1),
                    (0, 1), (0.5, -0.01)]  # T U V Y K X R S P
        mesh = build_topology(vertices, [[0, 8, 5, 6, 7], [0, 1, 2, 8], [8, 2, 4, 5],
                                         [2, 3, 4]])
        with pytest.raises(MeshError) as info:
            collapse_short_edges(mesh, 0.05)
        assert info.type is MeshError
        assert str(info.value).startswith("short-edge collapse broke the mesh: degenerate "
                                           "cell 0: polygon is not strictly convex at vertex 1")


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        m = gen_hex_dominant_mesh(6)
        path = tmp_path / "m.json"
        export_mesh(m, path)
        back = import_mesh(path)
        assert np.array_equal(m.vertices, back.vertices)
        assert m.cells == back.cells
        assert_dict_topology(back)

    def test_clockwise_cell_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]], "cells": [[0,3,2,1]]}')
        with pytest.raises(MeshError, match="cell 0"):
            import_mesh(path)

    def test_unused_vertex_named(self, tmp_path):
        path = tmp_path / "stray.json"
        write_with_stray_vertex(gen_square_mesh(4), path)
        with pytest.raises(MeshError, match=r"^vertex 25 is used by no cell$"):
            import_mesh(path)

    def test_double_cover_named(self, tmp_path):
        path = tmp_path / "overlap.json"
        write_double_cover(path)
        with pytest.raises(MeshError, match=r"^cells overlap at vertex 0: "):
            import_mesh(path)

    def test_duplicate_vertex_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,1]], "cells": [[0,1,1,2,3]]}')
        with pytest.raises(MeshError, match="degenerate cell 0"):
            import_mesh(path)

    @pytest.mark.parametrize("payload, match", [
        ('{"vertices": [0, 1, 2], "cells": [[0, 1, 2]]}', "shape"),
        ('{"vertices": [], "cells": []}', "shape"),
        ('{"vertices": [[0, 0], [1, 0], [0, 1]], "cells": []}', "no cells"),
        ('{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1.9, 2, 3]]}',
         "vertex index 1.9 is not an integer"),
        ('{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, true, 2, 3]]}',
         "vertex index True is not an integer"),
    ])
    def test_malformed_arrays(self, tmp_path, payload, match):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(MeshError, match=match):
            import_mesh(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(MeshError, match="parse"):
            import_mesh(path)


class TestStats:
    def test_single_cell_min_max_avg(self):
        ang = 2 * np.pi * np.arange(5) / 5
        verts = np.column_stack([np.cos(ang), np.sin(ang)])
        st = mesh_stats(build_topology(verts, [[0, 1, 2, 3, 4]]))
        assert st.sigma_min == st.sigma_max == st.sigma_avg
        assert st.n_cells == 1 and st.n_edges == 5 and st.n_vertices == 5
