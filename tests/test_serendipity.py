import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from polyds import serendipity
from polyds.assembly import AssemblyError, assemble_primal
from polyds.geometry import Polygon
from polyds.mesh import build_topology, gen_hex_dominant_mesh, gen_perturbed_quad_mesh
from polyds.mixed import _eval_mixed, build_mixed_element
from polyds.quadrature import _polygon_rules
from polyds.serendipity import (
    ElementError,
    _carving_matrix,
    _eval_stacked,
    _frame,
    _node_weights,
    _term_layout,
    build_ds_element,
    build_low_order,
    ds_dimension,
    evaluate,
    interpolate,
)

from helpers import (
    POLYGON_ARRAYS,
    dict_built_table,
    duality_residual,
    edge_distances,
    edge_point,
    frame_arrays,
    frame_polygon,
    gradient_fd,
    interior_points,
    node_points,
    random_convex_polygon,
    scaled,
    sliver_mesh,
    vertex_ramp_weights,
)

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def regular_polygon(n, rot=0.0):
    ang = 2 * np.pi * np.arange(n) / n + rot
    return Polygon(np.column_stack([np.cos(ang), np.sin(ang)]))


def monomials(r):
    return [(a, b) for a in range(r + 1) for b in range(r + 1 - a)]


def frame_nodes(elem):
    """The frame nodes at which the build inverts the generator values."""
    return _node_weights(elem.polygon.n_edges, elem.r) @ elem.frame.vertices


class TestTermLayout:
    @pytest.mark.parametrize("N", range(3, 9))
    def test_table_matches_dict_built_oracle(self, N):
        rng = np.random.default_rng(N)
        for r in range(max(1, N - 2), N + 3):
            E = random_convex_polygon(N, rng)
            # The element's affines are the frame's: the oracle is built on
            # the frame polygon and both are read at frame points.
            pts = (interior_points(E, rng, 25) - E.centroid) / E.diameter
            layout = _term_layout(N, r)
            affines = serendipity._affines(_frame(E), r, layout.pairs)
            got = layout.table.value_grad(*affines, pts)
            table, *affines = dict_built_table(frame_polygon(E), r)
            want = table.value_grad(*affines, pts)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                scale = np.abs(w).reshape(len(w), -1).max(axis=1)
                err = np.abs(g - w).reshape(len(w), -1).max(axis=1)
                assert np.all(err <= 1e-13 * scale), (N, r, (err / scale).max())

    def test_cell_tables_share_the_cached_layout(self):
        rng = np.random.default_rng(2)
        a, b = (build_ds_element(random_convex_polygon(5, rng), 4) for _ in range(2))
        template = _term_layout(5, 4).table
        assert _term_layout(5, 4) is _term_layout(5, 4)
        assert a.table is template and b.table is template
        assert not np.array_equal(a.affines[1], b.affines[1])

    @pytest.mark.parametrize("N, r", [(3, 1), (4, 2), (5, 3), (6, 7)])
    def test_layout_arrays_read_only(self, N, r):
        layout = _term_layout(N, r)
        t = layout.table
        arrays = [t.powers, t._index, t._exps, t._pow,
                  layout.pairs, _carving_matrix(6, 2, 4), _carving_matrix(8, 5, 6),
                  _node_weights(N, r), _node_weights(N, r + N)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1

    @pytest.mark.parametrize("N", range(3, 9))
    def test_node_weights_match_node_formulas(self, N):
        E = random_convex_polygon(N, np.random.default_rng(N))
        for r in range(1, 11):
            for v in (E.vertices, frame_polygon(E).vertices):
                want = node_points(v, r)
                got = _node_weights(N, r) @ v
                assert got.shape == want.shape == (ds_dimension(N, r), 2)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(v).max(), (N, r)

    @pytest.mark.parametrize("N, r", [(N, r) for N in range(3, 9) for r in range(1, 9)])
    def test_element_nodes_are_the_frame_nodes_mapped_back(self, N, r):
        # Carved (r < N-2) and nodal elements alike: one read-only (D, 2)
        # array in node order, whose vertices stay exact.
        E = random_convex_polygon(N, np.random.default_rng(N + r))
        nodes = build_ds_element(E, r).nodes
        want = E.centroid + E.diameter * node_points(frame_polygon(E).vertices, r)
        assert nodes.shape == (ds_dimension(N, r), 2)
        assert not nodes.flags.writeable
        assert np.array_equal(nodes[:N], E.vertices)
        assert np.abs(nodes - want).max() <= 1e-14

    def test_index_one_carving_is_the_vertex_ramps(self):
        for N in range(3, 9):
            for s in range(1, 8):
                assert np.array_equal(_carving_matrix(N, 1, s), vertex_ramp_weights(N, s)), (N, s)

    def test_singular_nodal_system(self, monkeypatch):
        # With edge 0's distance function zeroed, every generator that has
        # it as a factor vanishes at every node: the generator-at-node
        # matrix is singular, and those rows keep scale 1 (no 0 / 0).
        affines = serendipity._affines

        def degenerate(F, r, pairs):
            grads, offsets = affines(F, r, pairs)
            grads[0], offsets[0] = 0.0, 0.0
            return grads, offsets

        monkeypatch.setattr(serendipity, "_affines", degenerate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ElementError, match="singular nodal system"):
                build_ds_element(UNIT_SQUARE, 3)
        mesh = build_topology(UNIT_SQUARE.vertices, [[0, 1, 2, 3]])
        with pytest.raises(AssemblyError, match="on cell 0: singular nodal system"):
            assemble_primal(mesh, 3, lambda x: np.ones(len(x)))


class TestDimension:
    def test_known_values(self):
        assert ds_dimension(5, 3) == 15
        assert ds_dimension(6, 2) == 12
        for r in range(1, 8):
            assert ds_dimension(3, r) == (r + 1) * (r + 2) // 2

    def test_high_order_formula(self):
        for N in range(3, 9):
            for r in range(N - 2, N + 4):
                if r < 1:
                    continue
                want = N + N * (r - 1) + (r - N + 2) * (r - N + 1) // 2
                assert ds_dimension(N, r) == want

    def test_invalid(self):
        with pytest.raises(ValueError):
            ds_dimension(2, 1)
        with pytest.raises(ValueError):
            ds_dimension(4, 0)


class TestSupplement:
    def test_count_and_edge_vanishing(self):
        elem = build_ds_element(UNIT_SQUARE, 2)
        assert elem.dim - 6 == 2  # N(N-3)/2 functions beyond dim P_2
        t = np.linspace(0, 1, 9)
        # The nodal functions of the edge-0 and edge-2 midpoints (rows 4
        # and 6) vanish on edges 1 and 3.
        for k in (1, 3):
            pts = edge_point(UNIT_SQUARE, k, t).reshape(-1, 2)
            vals, _ = elem.eval_all(pts)
            assert np.abs(vals[[4, 6]]).max() < 1e-14

    def test_requires_high_index(self):
        # Below r = N-2 there is no direct supplement: the element is cut
        # out of the background element of index N-2.
        elem = build_ds_element(regular_polygon(6), 2)
        assert elem.n_generators == ds_dimension(6, 4)
        assert elem.dim == 6 * 2


class TestCellBasis:
    def test_empty_below_n(self):
        assert len(build_ds_element(UNIT_SQUARE, 3).nodes[4 * 3:]) == 0
        assert len(build_ds_element(regular_polygon(5), 4).nodes[5 * 4:]) == 0

    def test_square_r4_single_bubble(self):
        elem = build_ds_element(UNIT_SQUARE, 4)
        assert len(elem.nodes[4 * 4:]) == 1
        lam = edge_distances(UNIT_SQUARE)
        node = elem.nodes[4 * 4]
        want = np.prod([l(node) for l in lam])
        probe = np.array([[0.3, 0.7]])
        got = elem.eval_all(probe)[0][-1, 0]
        ref = np.prod([l(probe)[0] for l in lam]) / want
        assert got == pytest.approx(ref, rel=1e-13)

    def test_square_r6_nodal(self):
        elem = build_ds_element(UNIT_SQUARE, 6)
        nodes = elem.nodes[4 * 6:]
        assert len(nodes) == 6  # dim P_2
        vals, _ = elem.eval_all(nodes)
        assert np.abs(vals[-6:] - np.eye(6)).max() < 1e-12


def edge_row(N, r, k, j):
    """Row of the nodal function at the j-th interior node (1-based) of edge k."""
    return N + k * (r - 1) + (j - 1)


class TestEdgeBasis:
    def test_duality_at_nodes(self):
        rng = np.random.default_rng(2)
        E = random_convex_polygon(5, rng)
        r = 4
        elem = build_ds_element(E, r)
        nodes = elem.nodes
        row = edge_row(5, r, 2, 1)
        vals = elem.eval_all(nodes)[0][row]
        want = np.zeros(len(nodes))
        want[row] = 1.0
        assert np.abs(vals - want).max() < 1e-10

    def test_vanishes_on_other_edges(self):
        rng = np.random.default_rng(3)
        E = random_convex_polygon(6, rng)
        elem = build_ds_element(E, 5)
        t = np.linspace(0, 1, 20)
        for m in range(1, 6):
            pts = edge_point(E, m, t).reshape(-1, 2)
            assert np.abs(elem.eval_all(pts)[0][edge_row(6, 5, 0, 2)]).max() < 1e-11

    def test_pentagon_trace_is_cubic(self):
        E = regular_polygon(5, rot=0.1)
        r = 3
        elem = build_ds_element(E, r)
        t = np.linspace(0, 1, 25)
        pts = edge_point(E, 1, t).reshape(-1, 2)
        vals = elem.eval_all(pts)[0][edge_row(5, r, 1, 2)]
        coeffs = npoly.polyfit(t, vals, r)
        assert np.abs(npoly.polyval(t, coeffs) - vals).max() < 1e-10


class TestVertexBasis:
    def test_kronecker_at_vertices(self):
        rng = np.random.default_rng(4)
        E = random_convex_polygon(6, rng)
        vals = build_ds_element(E, 4).eval_all(E.vertices)[0][2]
        want = np.zeros(6)
        want[2] = 1.0
        assert np.abs(vals - want).max() < 1e-10

    def test_vanishes_on_far_edges(self):
        rng = np.random.default_rng(5)
        E = random_convex_polygon(5, rng)
        elem = build_ds_element(E, 3)
        t = np.linspace(0, 1, 20)
        # vertex 0 sits on edges N-1 and 0; all other edges see zero trace
        for m in (1, 2, 3):
            pts = edge_point(E, m, t).reshape(-1, 2)
            assert np.abs(elem.eval_all(pts)[0][0]).max() < 1e-11

    def test_constant_reproduction(self):
        E = regular_polygon(7)
        elem = build_ds_element(E, 1)
        coeffs = interpolate(elem, lambda p: np.ones(len(p)))
        assert np.allclose(coeffs, 1.0)
        pts = interior_points(E, np.random.default_rng(0), 40)
        vals, grads = evaluate(elem, coeffs, pts)
        assert np.abs(vals - 1.0).max() < 1e-12
        assert np.abs(grads).max() < 1e-11


class TestLowOrder:
    def test_hexagon_r1_linear_traces(self):
        rng = np.random.default_rng(6)
        E = random_convex_polygon(6, rng)
        elem = build_low_order(E, 1)
        assert elem.dim == 6
        assert elem.n_generators == ds_dimension(6, 4)
        t = np.linspace(0, 1, 12)
        for k in range(6):
            pts = edge_point(E, k, t).reshape(-1, 2)
            vals, _ = elem.eval_all(pts)
            for i in range(6):
                coeffs = npoly.polyfit(t, vals[i], 1)
                assert np.abs(npoly.polyval(t, coeffs) - vals[i]).max() < 1e-11

    def test_duality_at_own_nodes(self):
        rng = np.random.default_rng(7)
        for (N, r) in [(5, 1), (5, 2), (6, 2), (7, 3), (8, 4)]:
            E = random_convex_polygon(N, rng)
            elem = build_low_order(E, r)
            assert elem.dim == N * r
            assert duality_residual(elem) < 1e-9

    def test_pentagon_r2_s3_interpolates_quadratics(self):
        rng = np.random.default_rng(8)
        E = random_convex_polygon(5, rng)
        elem = build_low_order(E, 2)
        assert elem.dim == 10
        pts = interior_points(E, rng, 100)
        coef = rng.standard_normal(6)
        def p(q):
            return (coef[0] + coef[1]*q[:, 0] + coef[2]*q[:, 1]
                    + coef[3]*q[:, 0]**2 + coef[4]*q[:, 0]*q[:, 1] + coef[5]*q[:, 1]**2)
        vals, _ = evaluate(elem, interpolate(elem, p), pts)
        assert np.abs(vals - p(pts)).max() < 1e-10

    def test_index_validation(self):
        E = regular_polygon(6)
        with pytest.raises(ElementError):
            build_low_order(E, 4)          # r >= N-2 has no background window
        with pytest.raises(ElementError):
            build_low_order(E, 0)          # r must be at least 1


class TestFrame:
    @pytest.mark.parametrize("N", range(3, 9))
    def test_frame_is_the_read_only_polygon_of_the_frame_formulas(self, N):
        rng = np.random.default_rng(60 + N)
        for E in [random_convex_polygon(N, rng) for _ in range(3)]:
            F = _frame(E)
            assert type(F) is Polygon and F.n_edges == N
            for got, want in zip((F.vertices, F.edge_lengths, F.edge_offsets),
                                 frame_arrays(E), strict=True):
                assert np.array_equal(got, want)
            assert F.normals is E.normals and F.tangents is E.tangents
            assert F.centroid.tolist() == [0.0, 0.0] and F.diameter == 1.0
            assert F.area == E.area / E.diameter**2
            for name in POLYGON_ARRAYS:
                with pytest.raises(ValueError):
                    getattr(F, name)[0] = 5.0
            # It is the polygon of its own vertices, to round-off.
            P = Polygon(F.vertices)
            for name in POLYGON_ARRAYS:
                assert np.abs(getattr(F, name) - getattr(P, name)).max() <= 1e-14, name
            assert abs(F.area - P.area) <= 1e-14 and abs(F.diameter - P.diameter) <= 1e-14


class TestElement:
    def test_duality_heptagon_r5(self):
        rng = np.random.default_rng(11)
        E = random_convex_polygon(7, rng)
        elem = build_ds_element(E, 5)
        assert duality_residual(elem) < 1e-9

    def test_pentagon_r6_dimensions(self):
        E = regular_polygon(5, rot=0.2)
        elem = build_ds_element(E, 6)
        assert elem.dim == 33
        assert len(elem.nodes[5 * 6:]) == 3

    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(12)
        for (N, r) in [(3, 3), (4, 2), (5, 4), (6, 2), (7, 3), (8, 1)]:
            E = random_convex_polygon(N, rng)
            elem = build_ds_element(E, r)
            pts = interior_points(E, rng, 100)
            for a, b in monomials(r):
                f = lambda q: q[:, 0] ** a * q[:, 1] ** b
                vals, _ = evaluate(elem, interpolate(elem, f), pts)
                scale = np.abs(f(pts)).max() + 1e-12
                assert np.abs(vals - f(pts)).max() < 1e-8 * max(scale, 1.0)

    def test_edge_traces_degree_r_and_locality(self):
        rng = np.random.default_rng(13)
        for (N, r) in [(5, 3), (6, 2), (4, 4)]:
            E = random_convex_polygon(N, rng)
            elem = build_ds_element(E, r)
            t = np.linspace(0, 1, 3 * r + 10)
            for k in range(N):
                pts = edge_point(E, k, t).reshape(-1, 2)
                vals, _ = elem.eval_all(pts)
                on_edge = {k, (k + 1) % N}  # vertices of edge k
                for i in range(elem.dim):
                    coeffs = npoly.polyfit(t, vals[i], r)
                    resid = np.abs(npoly.polyval(t, coeffs) - vals[i]).max()
                    scale = np.abs(vals[i]).max() + 1e-12
                    assert resid < 1e-9 * max(scale, 1.0)
                    is_on_edge = (
                        (i < N and i in on_edge)
                        or (N <= i < N + N * (r - 1) and (i - N) // (r - 1) == k)
                    )
                    if not is_on_edge:
                        assert np.abs(vals[i]).max() < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        for (N, r) in [(4, 3), (6, 2), (5, 5)]:
            E = random_convex_polygon(N, rng)
            elem = build_ds_element(E, r)
            pts = interior_points(E, rng, 50)
            _, grads = elem.eval_all(pts)
            h = 1e-6 * E.diameter
            for i in range(elem.dim):
                fd = gradient_fd(lambda p: elem.eval_all(p)[0][i], pts, h)
                scale = np.abs(grads[i]).max() + 1.0
                assert np.abs(fd - grads[i]).max() < 1e-5 * scale

    def test_conformity_across_shared_edge(self):
        # Matching nodal functions on two elements sharing an edge have
        # identical traces: both interpolate the same data with degree <= r.
        rng = np.random.default_rng(15)
        from helpers import shared_edge_pair

        for r in (1, 2, 4):
            left, right = shared_edge_pair(rng)
            el, er = build_ds_element(left, r), build_ds_element(right, r)
            t = np.linspace(0, 1, 20)
            pts = np.array([(1.0, tt) for tt in t])
            # shared edge: left edge 1 runs (1,0)->(1,1); right edge 3 runs
            # (1,1)->(1,0).  Vertex pairs: left v1 = right v0, left v2 = right v3.
            vl, _ = el.eval_all(pts)
            vr, _ = er.eval_all(pts)
            pairs = [(1, 0), (2, 3)]
            for j in range(1, r):  # interior edge nodes, opposite order
                pairs.append((4 + (r - 1) + (j - 1), 4 + 3 * (r - 1) + (r - 1 - j)))
            for i, k in pairs:
                assert np.abs(vl[i] - vr[k]).max() < 1e-10

    def test_interpolation_rate_order_r_plus_1(self):
        rng = np.random.default_rng(17)
        r = 3
        base = random_convex_polygon(5, rng)
        f = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        errs = []
        hs = []
        for scale in (0.5, 0.25, 0.125):
            E = scaled(base, scale / base.diameter, about=(0.4, 0.6))
            elem = build_ds_element(E, r)
            pts = interior_points(E, np.random.default_rng(1), 300)
            vals, _ = evaluate(elem, interpolate(elem, f), pts)
            errs.append(np.abs(vals - f(pts)).max())
            hs.append(E.diameter)
        rates = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(np.array(hs[:-1]) / hs[1:])
        assert rates.min() > r + 1 - 0.5

    def test_duality_warning_on_sliver_only(self):
        sliver = sliver_mesh(1e-3).polygon(1)
        assert sliver.n_edges == 5
        with pytest.warns(UserWarning, match="duality"):
            build_ds_element(sliver, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_ds_element(regular_polygon(6), 4)

    def test_nodal_inverse_exact_at_frame_nodes_of_sliver(self):
        # The sliver warns (previous test) because duality is read at the
        # physical nodes; at the frame nodes the basis is the exact inverse.
        with pytest.warns(UserWarning, match="duality"):
            elem = build_ds_element(sliver_mesh(1e-3).polygon(1), 4)
        V, _ = elem.table.value_grad(*elem.affines, frame_nodes(elem))
        assert np.abs(elem.coeffs @ V - np.eye(elem.dim)).max() <= 1e-10


class TestStackedEvaluation:
    # Assembly evaluates the elements of a block's new classes in one stacked
    # evaluation: scalar elements (s None) directly, mixed ones through the
    # scalar pass; ``eval_all`` is the same evaluation of one element.
    CASES = {"pquad": (lambda: gen_perturbed_quad_mesh(4, 0.2, 1), 4, 2, None),
             "hexagon": (lambda: gen_hex_dominant_mesh(4), 6, 4, None),
             "sliver": (lambda: sliver_mesh(1e-3), 5, 4, None),
             "carved-hexagon": (lambda: gen_hex_dominant_mesh(4), 6, 2, None),
             "mixed-pquad": (lambda: gen_perturbed_quad_mesh(4, 0.2, 1), 4, 2, 1),
             "mixed-carved-hexagon": (lambda: gen_hex_dominant_mesh(4), 6, 1, 1),
             "mixed-hexagon": (lambda: gen_hex_dominant_mesh(4), 6, 3, 2)}

    @pytest.mark.parametrize("budget", [serendipity.EVAL_BUDGET, 10**9])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_one_element_eval_all(self, monkeypatch, case, budget):
        make, N, r, s = self.CASES[case]
        mesh = make()
        polygons = [mesh.polygon(c) for c in mesh.groups[N][0]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sliver cells warn on duality
            if s is None:
                elems = [build_ds_element(E, r) for E in polygons]
            else:
                elems = [build_mixed_element(E, r, s) for E in polygons]
        assert len(elems) >= 2
        monkeypatch.setattr(serendipity, "EVAL_BUDGET", budget)
        pts, _ = _polygon_rules(polygons, 2 * r + 6)
        if s is None:
            stacked = _eval_stacked(elems, pts, np.stack([e.coeffs for e in elems]))
        else:
            stacked = _eval_mixed(elems, pts)
        for elem, p, *terms in zip(elems, pts, *stacked, strict=True):
            for got, want in zip(terms, elem.eval_all(p), strict=True):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_points_give_empty_arrays(self):
        E, none = regular_polygon(6), np.empty((0, 2))
        scalar, mixed = build_ds_element(E, 2), build_mixed_element(E, 1, 1)
        D, Dm = scalar.dim, mixed.dim
        got = [*scalar.eval_all(none), *evaluate(scalar, np.ones(D), none), *mixed.eval_all(none)]
        assert [a.shape for a in got] == [(D, 0), (D, 0, 2), (0,), (0, 2),
                                          (Dm, 0, 2), (Dm, 0), (3, 0)]

    @pytest.mark.parametrize("N, r", [(3, 1), (4, 2), (5, 4), (6, 4), (6, 7), (8, 9)])
    def test_values_only_build_matches_gradient_pass_build(self, N, r):
        # Oracle: the nodal inverse from ``value_grad`` at the frame nodes alone.
        E = random_convex_polygon(N, np.random.default_rng(N + r))
        elem = build_ds_element(E, r)
        V, _ = elem.table.value_grad(*elem.affines, frame_nodes(elem))
        s = np.abs(V).max(axis=1)
        s[s == 0] = 1.0
        want = np.linalg.inv(V / s[:, None]) / s
        got = elem.coeffs
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestInterpolateEvaluate:
    def test_constant_and_linear(self):
        E = regular_polygon(6)
        elem = build_ds_element(E, 2)
        ones = interpolate(elem, lambda p: np.ones(len(p)))
        assert np.allclose(ones, 1.0)
        lin = interpolate(elem, lambda p: p[:, 0])
        pts = interior_points(E, np.random.default_rng(2), 30)
        vals, grads = evaluate(elem, lin, pts)
        assert np.abs(vals - pts[:, 0]).max() < 1e-11
        assert np.abs(grads - [1.0, 0.0]).max() < 1e-10

    def test_single_point_evaluation(self):
        E = regular_polygon(4)
        elem = build_ds_element(E, 2)
        coeffs = interpolate(elem, lambda p: p[:, 0] + p[:, 1])
        v, g = evaluate(elem, coeffs, np.array([0.1, 0.2]))
        assert v == pytest.approx(0.3, abs=1e-12)
        assert np.allclose(g, [1.0, 1.0], atol=1e-11)

    def test_callable_of_the_wrong_shape_rejected(self):
        # f maps the (D, 2) nodes to (D,) values: a scalar, a column or one
        # value per coordinate is refused.
        elem = build_ds_element(UNIT_SQUARE, 2)
        for f in (lambda p: 1.0, lambda p: p[:, :1], lambda p: p, lambda p: p[:-1, 0]):
            with pytest.raises(ValueError, match=r"f must map the 8 nodes to shape \(8,\)"):
                interpolate(elem, f)
