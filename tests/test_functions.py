import numpy as np
import pytest

from polyds import functions
from polyds.functions import PowerTable, _capped_matmul
from polyds.geometry import AffineScalar
from polyds.mixed import MixedElement, build_mixed_element

from helpers import (
    divergence_fd,
    edge_distances,
    edge_point,
    element_layout,
    gradient_fd,
    interior_points,
    random_convex_polygon,
)


def arrays_of(affines):
    """Gradients (K, 2) and offsets (K,) of AffineScalar objects."""
    return np.reshape([a.grad for a in affines], (-1, 2)), np.array([a.offset for a in affines])


def table_of(affines, powers):
    """``value_grad`` of the PowerTable of ``powers`` over the arrays of
    AffineScalar objects, as a function of the points."""
    table = PowerTable(powers)
    return lambda pts: table.value_grad(*arrays_of(affines), pts)


def check_gradient(table, pts, h=1e-6, tol=2e-8):
    _, grads = table(pts)
    for g in range(len(grads)):
        fd = gradient_fd(lambda p: table(p)[0][g], pts, h)
        scale = np.abs(grads[g]).max() + 1.0
        assert np.abs(grads[g] - fd).max() <= tol * scale


def test_affine_product_gradient_at_zeros():
    # The product-rule form must stay exact where factors vanish.
    a = AffineScalar([1.0, 0.0], 0.0)   # x
    b = AffineScalar([0.0, 1.0], 0.0)   # y
    f = table_of([a, b], [[1, 1]])
    pts = np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0], [1.0, 1.0]])
    vals, grads = f(pts)
    assert np.allclose(vals[0], [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(grads[0], [[0, 0], [2, 0], [0, 3], [1, 1]])


def explicit_value_grad(affines, powers, pts):
    """Values prod_k a_k**p_k and gradients
    sum_k p_k a_k**(p_k - 1) grad a_k prod_(j != k) a_j**p_j, term by term."""
    A = np.array([a(pts) for a in affines])
    vals, grads = [], []
    for row in powers:
        ks = np.flatnonzero(row)
        vals.append(np.prod([A[k] ** row[k] for k in ks] or [np.ones(len(pts))], axis=0))
        g = np.zeros((len(pts), 2))
        for k in ks:
            rest = np.prod([A[j] ** row[j] for j in ks if j != k] or [np.ones(len(pts))], axis=0)
            g += (row[k] * A[k] ** (row[k] - 1) * rest)[:, None] * affines[k].grad
        grads.append(g)
    return np.array(vals), np.array(grads)


def test_value_grad_matches_explicit_formulas():
    # Terms with 0 to 6 nonzero factors (so most are padded) and powers in
    # -2..3.  Factor 0 is x - 1/4 and never has a negative power; the points
    # on its zero line x = 1/4 make it exactly 0 inside multi-factor terms.
    rng = np.random.default_rng(5)
    affines = [AffineScalar([1.0, 0.0], -0.25)]
    affines += [AffineScalar(rng.uniform(-1, 1, 2), rng.uniform(2.5, 4.0)) for _ in range(7)]
    powers = np.zeros((60, len(affines)), dtype=int)
    for g, row in enumerate(powers):
        ks = rng.choice(len(affines), size=g % 7, replace=False)
        row[ks] = rng.choice([-2, -1, 1, 2, 3], size=len(ks))
        if 0 in ks:
            row[0] = 1 if g % 2 else rng.integers(1, 4)
    assert any(row[0] == 1 and np.count_nonzero(row) > 1 for row in powers)
    table = table_of(affines, powers)
    pts = np.vstack([rng.uniform(-1, 1, (30, 2)),
                     np.column_stack([np.full(10, 0.25), rng.uniform(-1, 1, 10)])])
    vals, grads = table(pts)
    want_vals, want_grads = explicit_value_grad(affines, powers, pts)
    assert np.all(vals[powers[:, 0] > 0, 30:] == 0.0)
    for g in range(len(powers)):
        for got, want in ((vals[g], want_vals[g]), (grads[g], want_grads[g])):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_one_table_reads_the_affine_arrays_it_is_given():
    # One table over two sets of affine arrays is the table of each set; an
    # evaluation keeps nothing of the arrays and leaves them writable.
    rng = np.random.default_rng(9)
    powers = [[1, -1, 0], [2, 0, 1], [0, 1, 3]]
    old = [AffineScalar(rng.uniform(-1, 1, 2), rng.uniform(2, 3)) for _ in range(3)]
    new = [AffineScalar(rng.uniform(-1, 1, 2), rng.uniform(2, 3)) for _ in range(3)]
    grads, offsets = arrays_of(new)
    table = PowerTable(powers)
    pts = rng.uniform(-1, 1, (10, 2))
    table.value_grad(*arrays_of(old), pts)
    for got, want in zip(table.value_grad(grads, offsets, pts), table_of(new, powers)(pts)):
        assert np.array_equal(got, want)
    # The caller's arrays stay its own: writable, and read afresh each time
    # (every affine is now the constant 1).
    grads[:] = 0.0
    offsets[:] = 1.0
    assert np.array_equal(table.values(grads, offsets, pts), np.ones((3, 10)))
    with pytest.raises(ValueError):
        table.value_grad(np.zeros((2, 2)), np.zeros(2), pts)
    with pytest.raises(ValueError):
        table.values(grads, np.zeros(2), pts)


def test_stacked_tables_match_one_table_per_class():
    # A (C, K, 2) table at (C, M, 2) points is C one-cell tables, each at its
    # own points; ``values`` gives value_grad's values bit for bit.
    rng = np.random.default_rng(11)
    powers = [[1, -1, 0, 2], [0, 0, 0, 0], [2, 1, 1, -2], [0, 3, 0, 1]]
    grads = rng.uniform(-1, 1, (5, 4, 2))
    offsets = rng.uniform(2, 3, (5, 4))
    pts = rng.uniform(-1, 1, (5, 7, 2))
    table = PowerTable(powers)
    vals, grads_all = table.value_grad(grads, offsets, pts)
    assert vals.shape == (5, 4, 7) and grads_all.shape == (5, 4, 7, 2)
    assert np.array_equal(table.values(grads, offsets, pts), vals)
    for c in range(5):
        one = grads[c], offsets[c], pts[c]
        for got, want in zip((vals[c], grads_all[c]), table.value_grad(*one)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(table.values(*one), table.value_grad(*one)[0])


@pytest.mark.parametrize("shapes", [((24, 60), (60, 700)), ((3, 8, 10), (3, 10, 301))])
def test_capped_product_over_the_budget_equals_one_product(monkeypatch, shapes):
    rng = np.random.default_rng(4)
    a, b = (rng.standard_normal(shape) for shape in shapes)
    want = a @ b
    monkeypatch.setattr(functions, "GEMM_BUDGET", 1000)
    got = _capped_matmul(a, b)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_empty_product_is_one():
    for powers, affines in ((np.zeros((1, 0)), (np.zeros((0, 2)), np.zeros(0))),
                            ([[0]], (np.array([[1.0, 2.0]]), np.array([3.0])))):
        vals, grads = PowerTable(powers).value_grad(*affines, np.zeros((3, 2)))
        assert np.allclose(vals, 1.0)
        assert np.allclose(grads, 0.0)


def test_one_sided_ratio():
    # lam_4 / (lam_1 + lam_4) is one term with powers (1, -1).
    rng = np.random.default_rng(1)
    E = random_convex_polygon(6, rng)
    lam = edge_distances(E)
    total = AffineScalar(lam[1].grad + lam[4].grad, lam[1].offset + lam[4].offset)
    S = table_of([lam[4], total], [[1, -1]])
    t = np.linspace(0, 1, 7)
    assert np.allclose(S(edge_point(E, 1, t).reshape(-1, 2))[0], 1.0, atol=1e-13)
    assert np.allclose(S(edge_point(E, 4, t).reshape(-1, 2))[0], 0.0, atol=1e-13)
    check_gradient(S, interior_points(E, rng, 50))


def test_polynomial_fields_and_combinations():
    # Powers of an edge coordinate t, of centered u, v and of a random
    # affine, and products of them.
    rng = np.random.default_rng(2)
    tau = np.array([1.0, 1.0]) / np.sqrt(2) / 2.0
    t = AffineScalar(tau, -np.array([0.5, 0.0]) @ tau)
    u = AffineScalar([1 / 1.5, 0.0], -0.2 / 1.5)
    v = AffineScalar([0.0, 1 / 1.5], 0.1 / 1.5)
    a = AffineScalar(rng.standard_normal(2), 0.3)
    powers = [[ell, 0, 0, 0] for ell in range(4)]
    powers += [[0, i, j, 0] for i in range(3) for j in range(3)]
    powers += [[0, 0, 0, 3], [2, 1, 1, 0], [1, 2, 0, 2]]
    table = table_of([t, u, v, a], powers)
    pts = rng.uniform(-1, 1, (40, 2))
    vals, _ = table(pts)
    tv, uv, vv, av = (f(pts) for f in (t, u, v, a))
    for g, (pt, pu, pv, pa) in enumerate(powers):
        want = tv**pt * uv**pu * vv**pv * av**pa
        assert np.allclose(vals[g], want, rtol=1e-13, atol=1e-13)
    check_gradient(table, pts)


def test_curl_is_divergence_free_and_fd_consistent():
    # The curl rows of a mixed element: edge moments and interior bubbles.
    rng = np.random.default_rng(3)
    E = random_convex_polygon(4, rng)
    elem = build_mixed_element(E, 3, 3)
    pts = interior_points(E, rng, 30)
    vals, divs, _ = elem.eval_all(pts)
    layout = element_layout(elem)
    curls = [i for i, lay in enumerate(layout)
             if lay[0] == "bubble" or (lay[0] == "edge" and lay[2] > 0)]
    assert any(layout[i][0] == "bubble" for i in curls)
    for i in curls:
        assert np.all(divs[i] == 0.0)
        fd = divergence_fd(lambda p: elem.eval_all(p)[0][i], pts, 1e-5)
        assert np.abs(fd).max() < 1e-5 * (np.abs(vals[i]).max() + 1)


def test_radial_poly_divergence():
    # The radial columns x^ p of a mixed element, read through unit rows:
    # the frame fields are (x - c) p / h**2 physically.  For
    # p = u = (x - c_x) / h the divergence is 3u / h**2.
    rng = np.random.default_rng(4)
    E = random_convex_polygon(5, rng)
    elem = build_mixed_element(E, 1, 1)
    nc = elem.ds.n_generators
    width = elem.rows.shape[1]
    radial = MixedElement(E, 1, 1, elem.ds, np.eye(width)[nc:nc + 3])
    pts = rng.uniform(-2, 2, (25, 2))
    vals, divs, _ = radial.eval_all(pts)
    rel = pts - E.centroid
    u = rel[:, 0] / E.diameter
    h2 = E.diameter**2
    # pressures in order 1, v, u
    assert np.allclose(divs[0], 2.0 / h2, atol=1e-13)
    assert np.allclose(divs[2], 3 * u / h2, atol=1e-13)
    assert np.allclose(vals[2], rel * u[:, None] / h2, atol=1e-13)
    for i in range(3):
        fd = divergence_fd(lambda p: radial.eval_all(p)[0][i], pts, 1e-6)
        assert np.abs(fd - divs[i]).max() < 1e-7
