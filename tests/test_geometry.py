import math

import numpy as np
import pytest

from polyds.geometry import (
    AffineScalar,
    GeometryError,
    Polygon,
    _regularity_rho,
    distance_lines,
    nonadjacent_pairs,
    polygon_stack,
)

from helpers import (
    POLYGON_ARRAYS,
    edge_distances,
    interior_points,
    random_convex_polygon,
    shape_regularity,
)

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def regular_polygon(n, rot=0.0):
    ang = 2 * np.pi * np.arange(n) / n + rot
    return Polygon(np.column_stack([np.cos(ang), np.sin(ang)]))


def distance_line(y1, y2):
    """Row 0 of ``distance_lines`` for one pair of points."""
    grads, offsets = distance_lines(np.array([y1], dtype=float), np.array([y2], dtype=float))
    return AffineScalar(grads[0], offsets[0])


def pair_line(E, i, j):
    """Row 0 of ``E.pair_lines`` for one pair i < j."""
    grads, offsets = E.pair_lines([i], [j])
    return AffineScalar(grads[0], offsets[0])


class TestSignedDistanceLine:
    def test_x_axis_gives_y_component(self):
        lam = distance_line((0, 0), (1, 0))
        assert lam((0.3, 0.7)) == pytest.approx(0.7, abs=1e-15)
        assert lam((5.0, -2.0)) == pytest.approx(-2.0, abs=1e-15)

    def test_zero_at_both_defining_points(self):
        lam = distance_line((0.2, -1.0), (3.0, 0.4))
        assert lam((0.2, -1.0)) == pytest.approx(0.0, abs=1e-15)
        assert lam((3.0, 0.4)) == pytest.approx(0.0, abs=1e-15)

    def test_unit_gradient(self):
        lam = distance_line((0.1, 0.3), (-2.0, 1.7))
        assert np.hypot(*lam.grad) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_value(self):
        # Explicit dot product with the unit right normal (1/sqrt2, -1/sqrt2).
        lam = distance_line((0, 0), (1, 1))
        assert lam((1.0, 0.0)) == pytest.approx(-math.sqrt(2) / 2, abs=1e-14)

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y1, y2 = rng.uniform(-2, 2, (2, 2))
            if np.allclose(y1, y2):
                continue
            a = distance_line(y1, y2)
            b = distance_line(y2, y1)
            x = rng.uniform(-3, 3, (10, 2))
            scale = np.abs(a(x)).max() + 1e-30
            assert np.abs(a(x) + b(x)).max() <= 1e-14 * max(scale, 1.0)


class TestEdgeDistances:
    def test_unit_square_bottom(self):
        lam = edge_distances(UNIT_SQUARE)[0]
        assert lam((0.5, 0.3)) == pytest.approx(0.3, abs=1e-15)

    def test_zero_at_edge_endpoints(self):
        E = random_convex_polygon(6, np.random.default_rng(0))
        for i, lam in enumerate(edge_distances(E)):
            assert abs(lam(E.vertices[i])) < 1e-14 * E.diameter
            assert abs(lam(E.vertices[(i + 1) % 6])) < 1e-14 * E.diameter

    def test_regular_pentagon_apothem_at_centroid(self):
        E = regular_polygon(5)
        apothem = math.cos(math.pi / 5)
        for lam in edge_distances(E):
            assert lam(E.centroid) == pytest.approx(apothem, abs=1e-13)

    def test_positive_inside_and_at_far_vertices(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 5, 6, 7, 8):
            E = random_convex_polygon(n, rng)
            pts = interior_points(E, rng, 200)
            for i, lam in enumerate(edge_distances(E)):
                assert np.all(lam(pts) > 0)
                for k in range(n):
                    if k not in (i, (i + 1) % n):
                        assert lam(E.vertices[k]) > 0

    def test_match_signed_distance_line(self):
        # Polygon builds all N functions from its normals in one pass.
        rng = np.random.default_rng(12)
        for n in (3, 4, 5, 6, 7, 8):
            E = random_convex_polygon(n, rng)
            for i, lam in enumerate(edge_distances(E)):
                ref = distance_line(E.vertices[i], E.vertices[(i + 1) % n])
                assert np.abs(lam.grad - ref.grad).max() <= 4e-16
                assert abs(lam.offset - ref.offset) <= 4e-16 * max(1.0, abs(ref.offset))
                assert lam.offset == E.edge_offsets[i]
                assert np.array_equal(lam.grad, -E.normals[i])


class TestLambdaPair:
    def test_square_opposite_edges_midline(self):
        # The zero line passes through both edge midpoints (x = 1/2 for the
        # bottom/top pair of the unit square) and so crosses both edges.
        lam = pair_line(UNIT_SQUARE, 0, 2)
        assert abs(lam((0.5, 0.0))) < 1e-15
        assert abs(lam((0.5, 1.0))) < 1e-15
        assert abs(abs(lam((0.0, 0.3))) - 0.5) < 1e-15

    def test_zero_at_both_midpoints(self):
        rng = np.random.default_rng(4)
        for n in (4, 5, 6, 7):
            E = random_convex_polygon(n, rng)
            for i, j in nonadjacent_pairs(n):
                lam = pair_line(E, i, j)
                assert abs(lam(E.edge_midpoint(i))) < 1e-13 * E.diameter
                assert abs(lam(E.edge_midpoint(j))) < 1e-13 * E.diameter

    def test_zero_line_crosses_both_edges(self):
        rng = np.random.default_rng(5)
        for n in (4, 5, 6, 8):
            E = random_convex_polygon(n, rng)
            for i, j in nonadjacent_pairs(n):
                lam = pair_line(E, i, j)
                for k in (i, j):
                    va = lam(E.vertices[k])
                    vb = lam(E.vertices[(k + 1) % n])
                    assert va * vb <= 1e-12 * E.diameter**2

    def test_pentagon_nonparallel_pair(self):
        E = regular_polygon(5, rot=0.3)
        lam = pair_line(E, 0, 3)
        assert abs(lam(E.edge_midpoint(0))) < 1e-14
        assert abs(lam(E.edge_midpoint(3))) < 1e-14
        assert np.hypot(*lam.grad) == pytest.approx(1.0, abs=1e-14)


class TestShapeRegularity:
    def test_unit_square_exact(self):
        assert UNIT_SQUARE.diameter == pytest.approx(math.sqrt(2), abs=1e-14)
        rho = _regularity_rho(UNIT_SQUARE.vertices[None])[0]
        assert rho == pytest.approx(2 * (2 - math.sqrt(2)), abs=1e-14)
        sigma = shape_regularity(UNIT_SQUARE)
        assert sigma == pytest.approx(2 * (2 - math.sqrt(2)) / math.sqrt(2), abs=1e-14)

    def test_rigid_motion_and_scaling_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            E = random_convex_polygon(6, rng)
            s0 = shape_regularity(E)
            th = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            shift = rng.uniform(-5, 5, 2)
            c = rng.uniform(0.1, 10.0)
            moved = Polygon(c * (E.vertices @ R.T) + shift)
            assert shape_regularity(moved) == pytest.approx(s0, rel=1e-12)

    def test_needle_triangle_degenerates(self):
        for eps in (1e-2, 1e-4, 1e-6):
            tri = Polygon([(0, 0), (1, 0), (0.5, eps)])
            assert shape_regularity(tri) < 3 * eps

    def test_sigma_positive(self):
        rng = np.random.default_rng(21)
        for n in (3, 5, 8):
            sigma = shape_regularity(random_convex_polygon(n, rng))
            assert 0 < sigma < 1.2


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(GeometryError, match="counterclockwise"):
            Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_collinear_vertex_rejected(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (0.5, 0), (1, 0), (0.5, 1)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0)])

    def test_nonconvex_rejected(self):
        with pytest.raises(GeometryError, match="convex"):
            Polygon([(0, 0), (2, 0), (1, 0.2), (1, 2)])

    def test_edge_frames(self):
        E = random_convex_polygon(7, np.random.default_rng(2))
        for i in range(7):
            assert abs(E.normals[i] @ E.tangents[i]) < 1e-14
            assert np.hypot(*E.normals[i]) == pytest.approx(1.0, abs=1e-14)
            assert np.hypot(*E.tangents[i]) == pytest.approx(1.0, abs=1e-14)
            # outer normal: positive distance decreases along it
            lam = edge_distances(E)[i]
            assert lam.grad @ E.normals[i] == pytest.approx(-1.0, abs=1e-13)


class TestReadOnly:
    def test_polygon_arrays_reject_writes(self):
        rng = np.random.default_rng(31)
        loops = np.array([random_convex_polygon(5, rng).vertices for _ in range(3)])
        stacked, failure = polygon_stack(loops)
        assert failure is None
        for E in (Polygon(loops[0]), *stacked):
            for name in POLYGON_ARRAYS:
                with pytest.raises(ValueError):
                    getattr(E, name)[0] = 5.0
        # The caller's vertices are copied, not frozen.
        first = stacked[0].vertices.copy()
        loops[0, 0, 0] = 5.0
        assert np.array_equal(stacked[0].vertices, first)
