import math

import numpy as np
import pytest

from polyds.assembly import _translation_classes
from polyds.geometry import Polygon, nonadjacent_pairs
from polyds.mesh import gen_hex_dominant_mesh, gen_perturbed_quad_mesh
from polyds.mixed import MixedElement, build_mixed_element
from polyds.quadrature import _polygon_rules, _segment_gauss, edge_rule, polygon_rule
from polyds.serendipity import build_ds_element

from helpers import contains, edge_distances, fan_rule, integrate, random_convex_polygon


def edge_ratio(a, b):
    """Rational field (a - b) / (a + b) of two edge distance functions."""
    return lambda p: (a(p) - b(p)) / (a(p) + b(p))


def ref_triangle_monomial(a, b):
    # Closed form for x^a y^b over the reference triangle.
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def boundary_monomial(E, a, b):
    """Integral of x^a y^b over E by the divergence theorem: the boundary
    integral of x^(a+1) y^b / (a+1) n_x, which Gauss rules along the edges
    give exactly."""
    return sum(integrate(edge_rule(E, i, a + b + 1),
                         lambda p: p[:, 0] ** (a + 1) * p[:, 1] ** b / (a + 1)) * E.normals[i, 0]
               for i in range(E.n_edges))


# The reference triangle (0,0), (1,0), (0,1), which the rule splits into
# three quads.
REF_TRIANGLE = Polygon([(0, 0), (1, 0), (0, 1)])


class TestTriangleGauss:
    def test_constant(self):
        w = polygon_rule(REF_TRIANGLE, 1).weights
        assert w.sum() == pytest.approx(0.5, abs=1e-15)

    def test_xy(self):
        rule = polygon_rule(REF_TRIANGLE, 2)
        assert integrate(rule, lambda p: p[:, 0] * p[:, 1]) == pytest.approx(1 / 24, rel=1e-14)

    def test_degree10_x4y6(self):
        rule = polygon_rule(REF_TRIANGLE, 10)
        val = integrate(rule, lambda p: p[:, 0] ** 4 * p[:, 1] ** 6)
        assert val == pytest.approx(ref_triangle_monomial(4, 6), rel=1e-14)

    @pytest.mark.parametrize("degree", [1, 3, 7, 12, 20, 30])
    def test_monomial_exactness(self, degree):
        rule = polygon_rule(REF_TRIANGLE, degree)
        assert np.all(rule.weights > 0)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = integrate(rule, lambda p: p[:, 0] ** a * p[:, 1] ** b)
                assert val == pytest.approx(ref_triangle_monomial(a, b), rel=1e-12)

    @pytest.mark.parametrize("m", range(1, 32))
    def test_gauss_rules_match_scipy(self, m):
        # numpy's Gauss-Legendre rule against scipy's, up to m = 31 points
        # (degree 60), and the segment rule's point count.
        special = pytest.importorskip("scipy.special")
        for g, w in zip(np.polynomial.legendre.leggauss(m), special.roots_legendre(m)):
            assert np.abs(g - w).max() <= 1.3e-14
        t, w = _segment_gauss(2 * m - 1)
        assert len(t) == m and np.abs(w.sum() - 1.0) <= 1e-14

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            polygon_rule(REF_TRIANGLE, 0)
        with pytest.raises(ValueError):
            polygon_rule(REF_TRIANGLE, 61)


class TestPolygonRule:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("degree", [1, 8, 13])
    def test_stacked_rules_equal_per_polygon_bit_for_bit(self, n, degree):
        rng = np.random.default_rng(n)
        polygons = [random_convex_polygon(n, rng) for _ in range(5)]
        pts, wts = _polygon_rules(polygons, degree)
        for E, p, w in zip(polygons, pts, wts, strict=True):
            rule = polygon_rule(E, degree)
            assert np.array_equal(p, rule.points) and np.array_equal(w, rule.weights)

    def test_weights_sum_to_area(self):
        rng = np.random.default_rng(0)
        for n in (3, 5, 8):
            E = random_convex_polygon(n, rng)
            rule = polygon_rule(E, 6)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(E.area, rel=1e-13)

    def test_unit_square_xy(self):
        E = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        rule = polygon_rule(E, 3)
        assert integrate(rule, lambda p: p[:, 0] * p[:, 1]) == pytest.approx(0.25, rel=1e-14)

    def test_pentagon_against_degree_doubling(self):
        E = random_convex_polygon(5, np.random.default_rng(1))
        lo = integrate(polygon_rule(E, 4), lambda p: p[:, 0] ** 2)
        hi = integrate(polygon_rule(E, 8), lambda p: p[:, 0] ** 2)
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_monomial_exactness_sweep(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            E = random_convex_polygon(n, rng)
            degree = int(rng.integers(1, 9))
            rule = polygon_rule(E, degree)
            ref = polygon_rule(E, degree + 6)
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    f = lambda p: p[:, 0] ** a * p[:, 1] ** b
                    val, want = integrate(rule, f), integrate(ref, f)
                    scale = max(abs(want), 1e-3 * E.area)
                    assert abs(val - want) <= 1e-12 * scale

    @pytest.mark.parametrize("degree", [1, 4, 9])
    def test_exact_for_monomials_on_random_hexagon(self, degree):
        E = random_convex_polygon(6, np.random.default_rng(degree))
        rule = polygon_rule(E, degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                want = boundary_monomial(E, a, b)
                got = integrate(rule, lambda p: p[:, 0] ** a * p[:, 1] ** b)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (a, b)

    @pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (6, 5)])
    def test_rational_integrand_settles_at_default_degree(self, n, r):
        # The supplemental factors are rational; at the default assembly
        # degree 2r+4 their squared integrals are converged to ~1e-10 on
        # mildly distorted N-gons (more edges need a higher index r).
        rng = np.random.default_rng(7)
        from helpers import near_regular_polygon

        q = 2 * r + 4
        for _ in range(5):
            E = near_regular_polygon(n, rng)
            lam = edge_distances(E)
            lo_rule = polygon_rule(E, q)
            hi_rule = polygon_rule(E, q + 4)
            for (i, j) in nonadjacent_pairs(n):
                R = edge_ratio(lam[i], lam[j])
                lo = integrate(lo_rule, lambda p: R(p) ** 2)
                hi = integrate(hi_rule, lambda p: R(p) ** 2)
                assert abs(lo - hi) < 1e-10

    def test_rational_integrand_error_decays_with_degree(self):
        from helpers import near_regular_polygon

        rng = np.random.default_rng(17)
        E = near_regular_polygon(8, rng)
        lam = edge_distances(E)
        R = edge_ratio(lam[0], lam[3])
        diffs = []
        for q in (8, 16, 24, 32):
            lo = integrate(polygon_rule(E, q), lambda p: R(p) ** 2)
            hi = integrate(polygon_rule(E, q + 4), lambda p: R(p) ** 2)
            diffs.append(abs(lo - hi) + 1e-18)
        assert diffs[-1] < 1e-3 * diffs[0]
        assert diffs[-1] < 1e-12


def local_matrices(elem, rule):
    """Local matrices of an element under a rule: stiffness and mass of a
    scalar element, mass and divergence of a mixed one."""
    w = rule.weights
    if isinstance(elem, MixedElement):
        vals, divs, pvals = elem.eval_all(rule.points)
        return np.einsum("imk,m,jmk->ij", vals, w, vals), (pvals * w) @ divs.T
    vals, grads = elem.eval_all(rule.points)
    return np.einsum("imk,m,jmk->ij", grads, w, grads), (vals * w) @ vals.T


class TestQuadrilateralRule:
    # Quads take a tensor Gauss rule on the bilinear map of the unit square.
    @pytest.mark.parametrize("degree", [1, 2, 5, 8, 13])
    def test_exact_for_monomials_to_degree_plus_two(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(4):
            E = random_convex_polygon(4, rng)
            rule = polygon_rule(E, degree)
            assert len(rule.weights) == ((degree + 5) // 2) ** 2
            assert np.all(rule.weights > 0)
            for a in range(degree + 3):
                for b in range(degree + 3 - a):
                    want = boundary_monomial(E, a, b)
                    got = integrate(rule, lambda p: p[:, 0] ** a * p[:, 1] ** b)
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (a, b)

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(-1, 0), (0, -1e-3), (4, 0), (0, 1e-3)],  # a thin kite
        [(0, 0), (2, 0), (1 + 1e-6, 1 + 1e-6), (0, 2)],  # a corner of nearly 180 degrees
    ])
    def test_weights_positive_and_sum_to_area(self, vertices):
        E = Polygon(vertices)
        for degree in (1, 8, 60):
            rule = polygon_rule(E, degree)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - E.area) <= 1e-14 * E.area
            assert np.all(contains(E, rule.points))

    @pytest.mark.parametrize("degree", [0, 61])
    def test_degree_bounds(self, degree):
        E = random_convex_polygon(4, np.random.default_rng(0))
        for rule in (lambda: polygon_rule(E, degree), lambda: _polygon_rules([E, E], degree)):
            with pytest.raises(ValueError, match=r"degree must be in \[1, 60\]"):
                rule()

    def test_local_matrices_no_less_accurate_than_the_fan(self):
        # Against a fan of the assembly degree + 24, the local matrices are
        # within the fan's error, or at round-off: the primal (r = 1, 2, 4;
        # degree 2r + 4) and mixed-full (r = 1, 2; degree 2r + 6) ones on
        # every cell of a perturbed-quad mesh and on random quads, and the
        # primal r = 2, 4 and mixed (1, 1) ones on the classes of a
        # hex-dominant mesh with N != 4 and on random N = 5..8.
        rng = np.random.default_rng(11)
        quads = gen_perturbed_quad_mesh(8, 0.2, 1).polygons()
        quads += [random_convex_polygon(4, rng) for _ in range(20)]
        hexes = gen_hex_dominant_mesh(16)
        others = [hexes.polygon(c) for c in np.unique(_translation_classes(hexes)[0])]
        others = [E for E in others if E.n_edges != 4]
        others += [random_convex_polygon(n, rng) for n in (5, 6, 7, 8) for _ in range(5)]

        def primal(r):
            return lambda E: build_ds_element(E, r), 2 * r + 4

        def mixed(r):
            return lambda E: build_mixed_element(E, r, r), 2 * r + 6

        for cells, cases in ((quads, [primal(1), primal(2), primal(4), mixed(1), mixed(2)]),
                             (others, [primal(2), primal(4), mixed(1)])):
            for build, degree in cases:
                for E in cells:
                    elem = build(E)
                    ref = local_matrices(elem, fan_rule(E, degree + 24))
                    fan, tensor = ([np.abs(g - w).max() / np.abs(w).max()
                                    for g, w in zip(local_matrices(elem, rule), ref)]
                                   for rule in (fan_rule(E, degree), polygon_rule(E, degree)))
                    assert all(t <= max(f, 1e-13) for t, f in zip(tensor, fan)), \
                        (E.n_edges, degree, tensor, fan)


class TestSplitRule:
    # Every polygon other than a quad is split into N quads (centroid,
    # midpoint of edge i-1, v_i, midpoint of edge i), each with the tensor
    # rule of (degree + 3) // 2 points per direction, exact to degree.
    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_other_polygons_are_split_into_quads(self, n):
        # Piece i takes, bit for bit, the rule of the quad on its corners
        # at degree - 2, which has the same points per direction.
        rng = np.random.default_rng(n)
        for E in [random_convex_polygon(n, rng) for _ in range(3)]:
            v = E.vertices
            mid = 0.5 * (v + np.roll(v, -1, axis=0))
            pieces = [Polygon([E.centroid, mid[i - 1], v[i], mid[i]]) for i in range(n)]
            for degree in (3, 8, 13, 60):
                rule = polygon_rule(E, degree)
                want = [polygon_rule(Q, degree - 2) for Q in pieces]
                assert np.array_equal(rule.points, np.concatenate([w.points for w in want]))
                assert np.array_equal(rule.weights, np.concatenate([w.weights for w in want]))

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    @pytest.mark.parametrize("degree", [1, 2, 7, 8, 13])
    def test_exact_for_monomials_to_degree(self, n, degree):
        rng = np.random.default_rng(10 * n + degree)
        for _ in range(2):
            E = random_convex_polygon(n, rng)
            rule = polygon_rule(E, degree)
            assert len(rule.weights) == n * ((degree + 3) // 2) ** 2
            assert np.all(rule.weights > 0)
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    want = boundary_monomial(E, a, b)
                    got = integrate(rule, lambda p: p[:, 0] ** a * p[:, 1] ** b)
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (a, b)

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 0), (0.5, 1e-3)],  # a thin triangle
        [(-1, 0), (0, -1e-3), (4, 0), (1, 1e-3), (0, 1e-3)],  # a thin pentagon
        [(0, -1e-3), (3, -1e-3), (4, 0), (3, 1e-3), (0, 1e-3)],  # a thin pentagon, blunt
        [(0, 0), (2, 0), (2, 2), (1, 2 + 1e-6), (0, 2)],  # a corner of nearly 180 degrees
        [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1e-6, 1)],  # a hexagon, the same
    ])
    def test_weights_positive_and_sum_to_area(self, vertices):
        E = Polygon(vertices)
        for degree in (1, 8, 60):
            rule = polygon_rule(E, degree)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - E.area) <= 1e-14 * E.area
            assert np.all(contains(E, rule.points))

    def test_weights_positive_on_irregular_polygons(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 6, 7, 8):
            for _ in range(10):
                E = random_convex_polygon(n, rng, min_sigma=0.01)
                for degree in (1, 60):
                    w = polygon_rule(E, degree).weights
                    assert np.all(w > 0) and abs(w.sum() - E.area) <= 1e-13 * E.area


class TestEdgeRule:
    @pytest.mark.parametrize("degree", [-3, 0, 61])
    def test_degree_bounds(self, degree):
        E = random_convex_polygon(5, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"degree must be in \[1, 60\]"):
            edge_rule(E, 0, degree)

    def test_rules_are_read_only(self):
        E = random_convex_polygon(6, np.random.default_rng(2))
        rule, edge = polygon_rule(E, 8), edge_rule(E, 1, 8)
        for a in (rule.points, rule.weights, edge.points, edge.weights, edge.t):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_weights_sum_to_length(self):
        E = random_convex_polygon(6, np.random.default_rng(3))
        for i in range(6):
            rule = edge_rule(E, i, 5)
            assert rule.weights.sum() == pytest.approx(E.edge_lengths[i], rel=1e-14)

    def test_unit_square_bottom_x2(self):
        E = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        rule = edge_rule(E, 0, 4)
        assert integrate(rule, lambda p: p[:, 0] ** 2) == pytest.approx(1 / 3, rel=1e-14)

    def test_lagrange_basis_integrals(self):
        # 1D analytic integration of an equispaced Lagrange basis polynomial.
        from numpy.polynomial import polynomial as npoly

        from polyds.serendipity import _lagrange_1d

        E = random_convex_polygon(5, np.random.default_rng(8))
        k, deg = 2, 4
        rule = edge_rule(E, k, 2 * deg)
        for coeffs in _lagrange_1d(np.arange(deg + 1) / deg):
            want = E.edge_lengths[k] * npoly.polyval(1.0, npoly.polyint(coeffs))
            got = rule.weights @ npoly.polyval(rule.t, coeffs)
            assert got == pytest.approx(want, rel=1e-13)
