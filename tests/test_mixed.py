import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from polyds.functions import PowerTable
from polyds.geometry import Polygon
from polyds.mesh import gen_hex_dominant_mesh, gen_perturbed_quad_mesh
from polyds.mixed import (
    _edge_flux_expansion,
    _fan_areas,
    _pressure_terms,
    build_mixed_element,
    mixed_dimension,
)
from polyds.quadrature import edge_rule, polygon_rule
from polyds.serendipity import _frame, _lagrange_1d, build_ds_element

from helpers import (
    constant_flux_coefficients,
    constant_flux_coefficients_per_edge,
    divergence_fd,
    dof_layout,
    edge_flux_expansion_fit,
    edge_point,
    element_layout,
    frame_polygon,
    interior_points,
    layout_index,
    mixed_interpolant,
    mixed_rows_per_edge,
    pressure_monomials,
    random_convex_polygon,
    shape_regularity,
    scaled,
)

UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def edge_flux_integrals(elem, degree=12):
    """Integrated normal flux of every basis function across every edge."""
    E = elem.polygon
    out = np.empty((elem.dim, E.n_edges))
    for k in range(E.n_edges):
        rule = edge_rule(E, k, degree)
        vals, _, _ = elem.eval_all(rule.points)
        out[:, k] = (vals @ E.normals[k]) @ rule.weights
    return out


def rows_of(elem, kind):
    """Basis indices whose layout entry has this kind."""
    return [i for i, lay in enumerate(element_layout(elem)) if lay[0] == kind]


def moment_rows(elem):
    """Indices of the flux-moment functions ("edge", k, j) with j >= 1."""
    return [i for i, lay in enumerate(element_layout(elem))
            if lay[0] == "edge" and lay[2] > 0]


class TestDimension:
    def test_known_values(self):
        assert mixed_dimension(5, 1, 0) == 10
        assert mixed_dimension(5, 2, 2) == 20
        # direct formula: N(r+1)-1 + (s+2)(s+1)/2 + one bubble
        assert mixed_dimension(4, 3, 3) == 16 - 1 + 10 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_dimension(4, -1, 0)
        with pytest.raises(ValueError):
            mixed_dimension(4, 2, 0)
        with pytest.raises(ValueError):
            mixed_dimension(4, 0, -1)

    def test_dof_layout_pinned(self):
        # helpers.dof_layout, the descriptors of the basis order.
        assert dof_layout(4, 1, 1) == [
            ("edge", 0, 0), ("edge", 0, 1), ("edge", 1, 0), ("edge", 1, 1),
            ("edge", 2, 0), ("edge", 2, 1), ("edge", 3, 0), ("edge", 3, 1),
            ("div", 0), ("div", 1)]
        assert dof_layout(6, 2, 1) == [
            ("edge", 0, 0), ("edge", 0, 1), ("edge", 0, 2),
            ("edge", 1, 0), ("edge", 1, 1), ("edge", 1, 2),
            ("edge", 2, 0), ("edge", 2, 1), ("edge", 2, 2),
            ("edge", 3, 0), ("edge", 3, 1), ("edge", 3, 2),
            ("edge", 4, 0), ("edge", 4, 1), ("edge", 4, 2),
            ("edge", 5, 0), ("edge", 5, 1), ("edge", 5, 2),
            ("div", 0), ("div", 1)]
        assert dof_layout(4, 3, 3)[-10:] == [("div", i) for i in range(9)] + [("bubble", 0)]
        for N in range(3, 9):
            for r in range(0, 5):
                for s in sorted({max(r - 1, 0), r}):
                    assert len(dof_layout(N, r, s)) == mixed_dimension(N, r, s)

    def test_matches_basis_count(self):
        rng = np.random.default_rng(0)
        for N in range(3, 9):
            for r in range(0, 5):
                E = random_convex_polygon(N, rng)
                for s in sorted({max(r - 1, 0), r}):
                    elem = build_mixed_element(E, r, s)
                    assert elem.dim == mixed_dimension(N, r, s)


class TestCurl:
    def test_normal_trace_is_tangential_derivative(self):
        rng = np.random.default_rng(1)
        E = random_convex_polygon(5, rng)
        elem = build_mixed_element(E, 2, 2)
        ds = elem.ds  # index 3: two nodes per edge
        for k in range(5):
            rule = edge_rule(E, k, 8)
            vals, _, _ = elem.eval_all(rule.points)
            _, grads = ds.eval_all(rule.points)
            for i in moment_rows(elem):
                _, e, j = element_layout(elem)[i]
                lhs = vals[i] @ E.normals[k]
                rhs = grads[5 + e * (ds.r - 1) + (j - 1)] @ E.tangents[k]
                assert np.abs(lhs - rhs).max() < 1e-12 * (np.abs(rhs).max() + 1)


class TestBubbles:
    def test_empty_below_threshold(self):
        rng = np.random.default_rng(2)
        E = random_convex_polygon(5, rng)
        assert rows_of(build_mixed_element(E, 3, 3), "bubble") == []

    def test_count_and_zero_flux_moments(self):
        rng = np.random.default_rng(3)
        E = random_convex_polygon(4, rng)
        r = 4
        elem = build_mixed_element(E, r, r)
        bubbles = rows_of(elem, "bubble")
        assert len(bubbles) == (r + 3 - 4) * (r + 2 - 4) // 2
        for k in range(4):
            rule = edge_rule(E, k, 2 * r + 4)
            vals, _, _ = elem.eval_all(rule.points)
            for b in bubbles:
                flux = vals[b] @ E.normals[k]
                for m in range(r + 1):
                    mom = rule.weights @ (flux * rule.t**m)
                    assert abs(mom) < 1e-11
        _, divs, _ = elem.eval_all(interior_points(E, rng, 30))
        assert np.abs(divs[bubbles]).max() == 0.0


class TestEdgeMoments:
    def test_zero_average_flux_and_locality(self):
        rng = np.random.default_rng(4)
        E = random_convex_polygon(6, rng)
        elem = build_mixed_element(E, 2, 2)
        fluxes = edge_flux_integrals(elem)
        t = np.linspace(0.05, 0.95, 12)
        for k in range(6):
            fam = [i for i in moment_rows(elem) if element_layout(elem)[i][1] == k]
            assert len(fam) == 2
            assert np.abs(fluxes[fam]).max() < 1e-11  # average flux vanishes
            for m in range(6):
                if m == k:
                    continue
                pts = edge_point(E, m, t).reshape(-1, 2)
                vals, _, _ = elem.eval_all(pts)
                assert np.abs(vals[fam] @ E.normals[m]).max() < 1e-11

    def test_trace_is_lagrange_derivative(self):
        rng = np.random.default_rng(5)
        E = random_convex_polygon(5, rng)
        r = 2
        elem = build_mixed_element(E, r, r)
        lag = _lagrange_1d(np.arange(r + 2) / (r + 1))
        t = np.linspace(0, 1, 15)
        for k in range(5):
            pts = edge_point(E, k, t).reshape(-1, 2)
            vals, _, _ = elem.eval_all(pts)
            for j in range(1, r + 1):
                got = vals[layout_index(elem, ("edge", k, j))] @ E.normals[k]
                want = npoly.polyval(t, npoly.polyder(lag[j])) / E.edge_lengths[k]
                assert np.abs(got - want).max() < 1e-11 * (np.abs(want).max() + 1)


class TestConstantFlux:
    def test_kronecker_fluxes(self):
        rng = np.random.default_rng(6)
        for E in (UNIT_SQUARE, random_convex_polygon(5, rng)):
            elem = build_mixed_element(E, 1, 0)
            fluxes = edge_flux_integrals(elem)
            for i in range(E.n_edges):
                want = np.zeros(E.n_edges)
                want[i] = 1.0
                row = layout_index(elem, ("edge", i, 0))
                assert np.abs(fluxes[row] - want).max() < 1e-12

    def test_cancellation_constants_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            E = random_convex_polygon(n, rng)
            assert np.all(constant_flux_coefficients(E) > 0)

    @pytest.mark.parametrize("N", range(3, 9))
    def test_rows_match_per_edge_recurrence(self, N):
        rng = np.random.default_rng(40 + N)
        for _ in range(5):
            E = random_convex_polygon(N, rng)
            got = constant_flux_coefficients(E)
            assert got.shape == (N, N - 2)
            for k in range(N):
                want = constant_flux_coefficients_per_edge(E, k)
                assert np.abs(got[k] - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("N", range(3, 9))
    def test_fan_areas_positive_and_end_at_twice_the_area(self, N):
        rng = np.random.default_rng(80 + N)
        for E in [random_convex_polygon(N, rng) for _ in range(5)]:
            A = _fan_areas(E)
            assert A.shape == (N, N - 2) and np.all(A > 0)
            assert np.abs(A[:, -1] - 2 * E.area).max() <= 1e-14 * 2 * E.area

    @pytest.mark.parametrize("mesh", [gen_hex_dominant_mesh(8),
                                      gen_perturbed_quad_mesh(8, 0.2, 1)],
                             ids=["hex", "pquad"])
    def test_fan_areas_of_cell_frames(self, mesh):
        for c in range(mesh.n_cells):
            F = _frame(mesh.polygon(c))
            A = _fan_areas(F)
            assert np.all(A > 0)
            assert np.abs(A[:, -1] - 2 * F.area).max() <= 1e-14 * 2 * F.area, c

    def test_divergence_spatially_constant(self):
        rng = np.random.default_rng(8)
        E = random_convex_polygon(6, rng)
        elem = build_mixed_element(E, 2, 1)
        pts = interior_points(E, rng, 40)
        _, divs, _ = elem.eval_all(pts)
        for k in range(6):
            i = layout_index(elem, ("edge", k, 0))
            assert np.var(divs[i]) < 1e-20 * (1 + divs[i].mean() ** 2)


class TestPressureMonomials:
    @pytest.mark.parametrize("s", [0, 1, 3])
    def test_cells_share_the_cached_terms(self, s):
        rng = np.random.default_rng(50 + s)
        E, F = random_convex_polygon(5, rng), random_convex_polygon(4, rng)
        a, b = build_mixed_element(E, s, s), build_mixed_element(F, s, s)
        template = _pressure_terms(s)
        assert _pressure_terms(s) is template
        assert a.pressure is template and b.pressure is template
        # Bit for bit the frame monomials that a fresh table gives.
        powers = [(i, deg - i) for deg in range(s + 1) for i in range(deg + 1)]
        uv = np.eye(2), np.zeros(2)
        pts = interior_points(E, rng, 7)
        frame_pts = (pts - E.centroid) / E.diameter
        for got, want in zip(template.value_grad(*uv, frame_pts),
                             PowerTable(powers).value_grad(*uv, frame_pts)):
            assert np.array_equal(got, want)
        # The element returns them at physical points with its other values.
        want = pressure_monomials(E, s, pts)[0]
        assert np.abs(a.eval_all(pts)[2] - want).max() <= 1e-14


class TestEdgeFluxExpansion:
    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
    def test_matches_polynomial_fit(self, N):
        rng = np.random.default_rng(40 + N)
        for r in range(4):
            for s in sorted({max(r - 1, 0), r}):
                E = random_convex_polygon(N, rng)
                alphas = _edge_flux_expansion(_frame(E), r, _pressure_terms(s))
                F = frame_polygon(E)
                assert alphas.shape == (N, len(_pressure_terms(s)), r + 1)
                for k in range(N):
                    want = edge_flux_expansion_fit(F, k, r, s)
                    scale = np.abs(want).max()
                    assert np.abs(alphas[k] - want).max() <= 1e-12 * scale


class TestDivergenceFns:
    def test_empty_for_constant_pressure(self):
        rng = np.random.default_rng(9)
        E = random_convex_polygon(4, rng)
        assert rows_of(build_mixed_element(E, 0, 0), "div") == []

    def test_zero_normal_trace(self):
        rng = np.random.default_rng(10)
        E = random_convex_polygon(6, rng)
        elem = build_mixed_element(E, 2, 2)
        divs = rows_of(elem, "div")
        assert len(divs) == 5
        t = np.linspace(0, 1, 12)
        for k in range(6):
            pts = edge_point(E, k, t).reshape(-1, 2)
            vals, _, _ = elem.eval_all(pts)
            assert np.abs(vals[divs] @ E.normals[k]).max() < 1e-10

    def test_divergence_matches_radial_term_up_to_constant(self):
        # div psi_d equals div((x - c) p / h**2), the radial field x^ p of
        # the frame read physically, minus the unique constant that makes
        # the total divergence integral vanish (zero normal trace).
        rng = np.random.default_rng(11)
        E = random_convex_polygon(5, rng)
        elem = build_mixed_element(E, 1, 1)
        rows = rows_of(elem, "div")
        assert len(rows) == len(_pressure_terms(1)) - 1
        pts = interior_points(E, rng, 50)
        rule = polygon_rule(E, 8)
        _, divs, _ = elem.eval_all(pts)
        _, rule_divs, _ = elem.eval_all(rule.points)
        pvals, pgrads = pressure_monomials(E, 1, pts)
        # The first pressure is the constant; each div function carries one
        # nonconstant pressure.
        for i, pv, pg in zip(rows, pvals[1:], pgrads[1:]):
            radial_div = (2 * pv + np.einsum("mk,mk->m", pts - E.centroid, pg)) / E.diameter**2
            assert np.var(divs[i] - radial_div) < 1e-24
            assert abs(rule.weights @ rule_divs[i]) < 1e-12

    def test_divergence_fd_consistency(self):
        rng = np.random.default_rng(12)
        E = random_convex_polygon(5, rng)
        elem = build_mixed_element(E, 1, 1)
        pts = interior_points(E, rng, 25)
        _, divs, _ = elem.eval_all(pts)
        for i in rows_of(elem, "div"):
            fd = divergence_fd(lambda p: elem.eval_all(p)[0][i], pts, 1e-6 * E.diameter)
            assert np.abs(fd - divs[i]).max() < 1e-5 * (np.abs(divs[i]).max() + 1)


class TestMixedElement:
    @pytest.mark.parametrize("N,r,s", [(4, 1, 0), (5, 2, 2), (3, 2, 1), (6, 1, 1)])
    def test_polynomial_containment(self, N, r, s):
        rng = np.random.default_rng(13)
        E = random_convex_polygon(N, rng)
        elem = build_mixed_element(E, r, s)
        pts = interior_points(E, rng, 40)
        vals_all, _, _ = elem.eval_all(pts)
        for a in range(r + 1):
            for b in range(r + 1 - a):
                for comp in (0, 1):
                    def v(q, a=a, b=b, comp=comp):
                        out = np.zeros((len(q), 2))
                        out[:, comp] = q[:, 0] ** a * q[:, 1] ** b
                        return out
                    co = mixed_interpolant(elem, v)
                    got = np.einsum("d,dmk->mk", co, vals_all)
                    assert np.abs(got - v(pts)).max() < 1e-8

    def test_radial_top_degree_containment_full(self):
        rng = np.random.default_rng(14)
        E = random_convex_polygon(5, rng)
        r = s = 2
        elem = build_mixed_element(E, r, s)
        pts = interior_points(E, rng, 40)
        vals_all, _, _ = elem.eval_all(pts)
        for a in range(r + 1):
            b = r - a
            def v(q, a=a, b=b):
                return q * (q[:, 0] ** a * q[:, 1] ** b)[:, None]
            co = mixed_interpolant(elem, v)
            got = np.einsum("d,dmk->mk", co, vals_all)
            scale = np.abs(v(pts)).max()
            assert np.abs(got - v(pts)).max() < 1e-8 * max(scale, 1.0)

    def test_divergence_image_spans_pressures(self):
        rng = np.random.default_rng(15)
        for (N, r, s) in [(4, 1, 0), (5, 2, 1), (6, 2, 2)]:
            E = random_convex_polygon(N, rng)
            elem = build_mixed_element(E, r, s)
            rule = polygon_rule(E, 2 * r + 6)
            _, divs, _ = elem.eval_all(rule.points)
            qs, _ = pressure_monomials(E, s, rule.points)
            mom = np.array(
                [[rule.weights @ (divs[i] * q) for q in qs]
                 for i in range(elem.dim)]
            )
            assert np.linalg.matrix_rank(mom, tol=1e-10) == len(qs)

    def test_curl_family_divergence_free_pointwise(self):
        rng = np.random.default_rng(16)
        E = random_convex_polygon(6, rng)
        elem = build_mixed_element(E, 2, 1)
        pts = interior_points(E, rng, 50)
        _, divs, _ = elem.eval_all(pts)
        for i, lay in enumerate(element_layout(elem)):
            if lay[0] == "bubble" or (lay[0] == "edge" and lay[2] > 0):
                assert np.abs(divs[i]).max() < 1e-12

    def test_normal_trace_degree(self):
        rng = np.random.default_rng(17)
        E = random_convex_polygon(5, rng)
        r = 2
        elem = build_mixed_element(E, r, r)
        t = np.linspace(0, 1, 18)
        for k in range(5):
            pts = edge_point(E, k, t).reshape(-1, 2)
            vals, _, _ = elem.eval_all(pts)
            for i in range(elem.dim):
                tr = vals[i] @ E.normals[k]
                coeffs = npoly.polyfit(t, tr, r)
                resid = np.abs(npoly.polyval(t, coeffs) - tr).max()
                assert resid < 1e-9 * (np.abs(tr).max() + 1)

    def test_interface_traces_cancel_under_flip(self):
        # Two cells meeting at an edge traverse it in opposite directions.
        # The moment relabeling j <-> r+1-j (with a sign flip on the
        # constant-flux slot) makes the outward fluxes cancel pointwise,
        # which is exactly H(div) conformity of the merged function.
        rng = np.random.default_rng(18)
        from helpers import shared_edge_pair

        r = 2
        left, right = shared_edge_pair(rng)
        el = build_mixed_element(left, r, r)
        er = build_mixed_element(right, r, r)
        t = np.linspace(0, 1, 13)
        pts_l = edge_point(left, 1, t).reshape(-1, 2)       # (1,0) -> (1,1)
        vl, _, _ = el.eval_all(pts_l)
        vr, _, _ = er.eval_all(pts_l)
        nu_l, nu_r = left.normals[1], right.normals[3]
        # j = 0 pairs with j = 0 and a sign flip
        i_l = layout_index(el, ("edge", 1, 0))
        i_r = layout_index(er, ("edge", 3, 0))
        total = vl[i_l] @ nu_l + (-1.0) * (vr[i_r] @ nu_r)
        assert np.abs(total).max() < 1e-10
        for j in range(1, r + 1):
            i_l = layout_index(el, ("edge", 1, j))
            i_r = layout_index(er, ("edge", 3, r + 1 - j))
            total = vl[i_l] @ nu_l + vr[i_r] @ nu_r
            assert np.abs(total).max() < 1e-10


class TestInterpolant:
    def test_member_reproduction(self):
        rng = np.random.default_rng(19)
        E = random_convex_polygon(5, rng)
        elem = build_mixed_element(E, 2, 1)
        x = rng.standard_normal(elem.dim)
        v = lambda pts: np.einsum("d,dmk->mk", x, elem.eval_all(pts)[0])
        co = mixed_interpolant(elem, v)
        assert np.abs(co - x).max() < 1e-9 * (np.abs(x).max() + 1)

    def test_commuting_property(self):
        rng = np.random.default_rng(20)
        E = random_convex_polygon(6, rng)
        r = s = 1
        elem = build_mixed_element(E, r, s)
        grad = lambda q: np.column_stack([
            np.pi * np.cos(np.pi * q[:, 0]) * np.sin(np.pi * q[:, 1]),
            np.pi * np.sin(np.pi * q[:, 0]) * np.cos(np.pi * q[:, 1]),
        ])
        div = lambda q: -2 * np.pi**2 * np.sin(np.pi * q[:, 0]) * np.sin(np.pi * q[:, 1])
        qd = 2 * r + 10
        co = mixed_interpolant(elem, grad, quad_degree=qd)
        rule = polygon_rule(E, qd)
        _, divs, _ = elem.eval_all(rule.points)
        dh = co @ divs
        for q in pressure_monomials(E, s, rule.points)[0]:
            resid = rule.weights @ ((dh - div(rule.points)) * q)
            assert abs(resid) < 1e-9

    def test_interpolation_rate(self):
        rng = np.random.default_rng(21)
        r = 1
        base = random_convex_polygon(5, rng)
        grad = lambda q: np.column_stack([
            np.pi * np.cos(np.pi * q[:, 0]) * np.sin(np.pi * q[:, 1]),
            np.pi * np.sin(np.pi * q[:, 0]) * np.cos(np.pi * q[:, 1]),
        ])
        errs, hs = [], []
        for scale in (0.5, 0.25, 0.125):
            E = scaled(base, scale / base.diameter, about=(0.35, 0.55))
            elem = build_mixed_element(E, r, r)
            co = mixed_interpolant(elem, grad)
            rule = polygon_rule(E, 2 * r + 8)
            vals, _, _ = elem.eval_all(rule.points)
            vh = np.einsum("d,dmk->mk", co, vals)
            err2 = rule.weights @ ((vh - grad(rule.points)) ** 2).sum(1)
            errs.append(np.sqrt(err2))
            hs.append(E.diameter)
        rates = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(np.array(hs[:-1]) / hs[1:])
        assert rates.min() > r + 1 - 0.5


class TestRows:
    @pytest.mark.parametrize("N", range(3, 8))
    def test_rows_match_per_edge_oracle(self, N):
        rng = np.random.default_rng(60 + N)
        E = random_convex_polygon(N, rng)
        for r in range(4):
            for s in {max(r - 1, 0), r}:
                got = build_mixed_element(E, r, s).rows
                want = mixed_rows_per_edge(E, r, s)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (r, s)


class TestLocalExactness:
    @pytest.mark.parametrize("N", range(3, 8))
    def test_curls_of_scalar_space_lie_in_flux_space(self, N):
        # The local complex: curl maps the scalar space of index r+1 into
        # the flux space of index r for both s.  Covers the empty
        # divergence block (s = 0), r = 0 (no edge moments) and r >= N-1
        # (bubbles).
        rng = np.random.default_rng(50 + N)
        E = random_convex_polygon(N, rng)
        pts = interior_points(E, rng, 40)
        for r in range(4):
            _, grads = build_ds_element(E, r + 1).eval_all(pts)
            curls = np.stack([grads[..., 1], -grads[..., 0]], axis=-1).reshape(len(grads), -1)
            for s in {max(r - 1, 0), r}:
                vals, _, _ = build_mixed_element(E, r, s).eval_all(pts)
                basis = vals.reshape(len(vals), -1)
                coef = np.linalg.lstsq(basis.T, curls.T, rcond=None)[0]
                residual = np.linalg.norm(coef.T @ basis - curls, axis=1)
                assert np.all(residual <= 1e-12 * np.linalg.norm(curls, axis=1)), (r, s)


class TestImmutability:
    def test_queries_leave_objects_unchanged(self):
        # Evaluation and interpolation cache nothing on the objects they read.
        rng = np.random.default_rng(23)
        E = random_convex_polygon(5, rng)
        ds = build_ds_element(random_convex_polygon(5, rng), 3)
        elem = build_mixed_element(random_convex_polygon(4, rng), 3, 3)
        objects = (E, ds, elem)
        before = [dict(vars(obj)) for obj in objects]
        arrays = [{k: v.copy() for k, v in snap.items() if isinstance(v, np.ndarray)}
                  for snap in before]
        pts = np.array([[0.0, 0.0], [0.1, -0.2]])
        shape_regularity(E)
        E.pair_lines([0], [2])
        ds.eval_all(pts)
        elem.eval_all(pts)
        mixed_interpolant(elem, lambda q: q)
        for obj, snap, arrs in zip(objects, before, arrays):
            now = vars(obj)
            assert now.keys() == snap.keys()
            assert all(now[k] is snap[k] for k in snap)
            assert all(np.array_equal(now[k], a) for k, a in arrs.items())


class TestFrameInvariance:
    # Elements are built on their own frame, so moving and scaling a cell
    # leaves every local matrix as it is.
    @pytest.mark.parametrize("N", [3, 4, 6])
    def test_local_matrices_unchanged_by_similarity(self, N):
        rng = np.random.default_rng(70 + N)
        E = random_convex_polygon(N, rng)
        F = Polygon(0.37 * E.vertices + (3.1, -2.2))

        def local_matrices(P, r):
            """Primal stiffness, mixed mass and mixed divergence blocks."""
            rule = polygon_rule(P, 2 * r + 6)
            w = rule.weights
            _, grads = build_ds_element(P, r).eval_all(rule.points)
            vals, divs, pressures = build_mixed_element(P, r, r).eval_all(rule.points)
            return (np.einsum("imk,jmk,m->ij", grads, grads, w),
                    np.einsum("imk,jmk,m->ij", vals, vals, w), pressures * w @ divs.T)

        for r in (1, 3):
            for a, b in zip(local_matrices(E, r), local_matrices(F, r), strict=True):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), r
