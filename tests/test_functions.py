import numpy as np

from polyds.functions import (
    AffinePower,
    AffineProduct,
    Constant,
    OneSidedRatio,
    Polynomial1D,
    Polynomial2D,
    RadialPoly,
    ScalarCombination,
    ScalarProduct,
    divergence_fd,
    gradient_fd,
)
from polyds.geometry import AffineScalar
from polyds.mixed import build_mixed_element

from helpers import interior_points, random_convex_polygon


def check_gradient(field, pts, h=1e-6, tol=2e-8):
    _, grads = field.value_grad(pts)
    fd = gradient_fd(field, pts, h)
    scale = np.abs(grads).max() + 1.0
    assert np.abs(grads - fd).max() <= tol * scale


def test_affine_product_gradient_at_zeros():
    # The product-rule form must stay exact where factors vanish.
    a = AffineScalar([1.0, 0.0], 0.0)   # x
    b = AffineScalar([0.0, 1.0], 0.0)   # y
    f = AffineProduct([a, b])
    pts = np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 0.0], [1.0, 1.0]])
    vals, grads = f.value_grad(pts)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(grads, [[0, 0], [2, 0], [0, 3], [1, 1]])


def test_empty_product_is_one():
    f = AffineProduct([])
    vals, grads = f.value_grad(np.zeros((3, 2)))
    assert np.allclose(vals, 1.0)
    assert np.allclose(grads, 0.0)


def test_one_sided_ratio():
    rng = np.random.default_rng(1)
    E = random_convex_polygon(6, rng)
    lam = E.edge_distances()
    S = OneSidedRatio(lam[1], lam[4])
    t = np.linspace(0, 1, 7)
    assert np.allclose(S(E.edge_point(1, t).reshape(-1, 2)), 1.0, atol=1e-13)
    assert np.allclose(S(E.edge_point(4, t).reshape(-1, 2)), 0.0, atol=1e-13)
    check_gradient(S, interior_points(E, rng, 50))


def test_polynomial_fields_and_combinations():
    rng = np.random.default_rng(2)
    p1 = Polynomial1D([0.5, 0.0], [1.0, 1.0] / np.sqrt(2), 2.0, [1.0, -2.0, 3.0])
    p2 = Polynomial2D([0.2, -0.1], 1.5, rng.standard_normal((3, 3)))
    a = AffineScalar(rng.standard_normal(2), 0.3)
    combo = ScalarCombination([2.0, -1.0, 0.5], [p1, p2, AffinePower(a, 3)])
    prod = ScalarProduct([p1, p2])
    pts = rng.uniform(-1, 1, (40, 2))
    check_gradient(p1, pts)
    check_gradient(p2, pts)
    check_gradient(combo, pts)
    check_gradient(prod, pts)


def test_combination_drops_zero_coefficients():
    f = ScalarCombination([0.0, 1.0], [None, Constant(2.0)])
    assert f(np.zeros((1, 2)))[0] == 2.0


def test_curl_is_divergence_free_and_fd_consistent():
    # The curl rows of a mixed element: edge moments and interior bubbles.
    rng = np.random.default_rng(3)
    E = random_convex_polygon(4, rng)
    elem = build_mixed_element(E, 3, 3)
    pts = interior_points(E, rng, 30)
    vals, divs = elem.eval_all(pts)
    curls = [i for i, lay in enumerate(elem.dof_layout)
             if lay[0] == "bubble" or (lay[0] == "edge" and lay[2] > 0)]
    assert any(elem.dof_layout[i][0] == "bubble" for i in curls)
    for i in curls:
        assert np.all(divs[i] == 0.0)
        fd = divergence_fd(lambda p: elem.eval_all(p)[0][i], pts, 1e-5)
        assert np.abs(fd).max() < 1e-5 * (np.abs(vals[i]).max() + 1)


def test_radial_poly_divergence():
    # (x p, y p) with p = x: divergence is 3x.
    p = Polynomial2D([0.0, 0.0], 1.0, np.array([[0.0], [1.0]]))
    f = RadialPoly([0.0, 0.0], p)
    pts = np.random.default_rng(4).uniform(-2, 2, (25, 2))
    vals, divs = f.value_div(pts)
    assert np.allclose(divs, 3 * pts[:, 0], atol=1e-13)
    assert np.allclose(vals, pts * pts[:, :1], atol=1e-13)
    fd = divergence_fd(f, pts, 1e-6)
    assert np.abs(fd - divs).max() < 1e-7
