"""Sphere rule exactness, antipodal closure, and radial panel quadrature."""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from spinlab.quadrature import (
    _gauss_gegenbauer,
    panel_nodes,
    shell_edges,
    sphere_area,
    sphere_rule,
)


def monomial_integral(exponents):
    """Closed form for int_{S^{m-1}} prod u_i^{a_i} dS, zero for odd factors."""
    a = np.asarray(exponents)
    if np.any(a % 2):
        return 0.0
    num = 2.0 * np.prod([math.gamma((ai + 1) / 2.0) for ai in a])
    return num / math.gamma(float((a + 1).sum()) / 2.0)


# -- angular rule ------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_area_and_unit_radius(m):
    rule = sphere_rule(m)
    assert rule.weights.sum() == pytest.approx(sphere_area(m), rel=1e-13)
    r = np.linalg.norm(rule.points, axis=1)
    assert np.abs(r - 1.0).max() < 1e-14


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_even_monomials_exact_to_degree_eight(m):
    rule = sphere_rule(m)
    rng = np.random.default_rng(m)
    for _ in range(20):
        deg = rng.integers(0, 5)
        a = rng.multinomial(2 * deg, np.ones(m) / m)
        a = 2 * (a // 2)
        vals = np.prod(rule.points ** a, axis=1)
        exact = monomial_integral(a)
        scale = max(abs(exact), 1.0)
        assert abs(rule.integrate(vals) - exact) < 1e-13 * scale


@pytest.mark.parametrize("m", [3, 5, 8])
def test_odd_monomials_vanish(m):
    rule = sphere_rule(m, 3)
    vals = rule.points[:, 0] * np.prod(rule.points ** 2, axis=1)
    assert abs(rule.integrate(vals)) < 1e-13


def test_antipodal_closure():
    rule = sphere_rule(4, 3)
    pts, wts = rule.points, rule.weights
    # every node's negative is a node with the same weight
    dist = np.linalg.norm(pts[:, None, :] + pts[None, :, :], axis=2)
    partner = dist.argmin(axis=1)
    assert dist[np.arange(len(pts)), partner].max() < 1e-12
    assert np.abs(wts - wts[partner]).max() < 1e-13 * wts.max()


@pytest.mark.parametrize("m", [3, 4, 6])
@pytest.mark.parametrize("n_polar", [1, 2, 3, 4, 5])
def test_circle_is_two_n_polar(m, n_polar):
    # 2 n_polar nodes on the final circle: 2 n_polar^(m-1) in all, and
    # every node's negative is a node with the same weight
    rule = sphere_rule(m, n_polar)
    pts, wts = rule.points, rule.weights
    assert pts.shape == (2 * n_polar ** (m - 1), m)
    # the partner of a unit node is the node of least inner product with it
    partner = np.concatenate([(pts[i:i + 512] @ pts.T).argmin(axis=1)
                              for i in range(0, len(pts), 512)])
    assert np.abs(pts + pts[partner]).max() < 1e-12
    assert np.abs(wts - wts[partner]).max() < 1e-13 * wts.max()


def test_rejects_low_dimension():
    with pytest.raises(ValueError):
        sphere_rule(1)


@pytest.mark.parametrize("args", [
    (2.5,), (True,),
    (4, 0), (4, True), (4, 2.0),
    ("4",), (np.int64(1),), (4, np.float64(3.0)), (4, None),
])
def test_rejects_bad_sizes(args):
    with pytest.raises(ValueError, match="need an integer"):
        sphere_rule(*args)


def test_rejects_rules_over_the_node_budget():
    # a rule has 2 n_polar^(m-1) nodes: 2 * 3^12 is over 2^20
    with pytest.raises(ValueError, match=r"2\^20 nodes"):
        sphere_rule(13, 3)


# -- polar rule ----------------------------------------------------------------

_RULES = [(n, 0.5 * k) for n in range(1, 9) for k in range(8)]


def test_gegenbauer_rule_matches_scipy():
    for n, alpha in _RULES:
        t, w = _gauss_gegenbauer(n, alpha)
        t_ref, w_ref = roots_jacobi(n, alpha, alpha)
        assert np.abs(t - t_ref).max() <= 1e-15, (n, alpha)
        assert np.abs(w / w_ref - 1.0).max() <= 1e-13, (n, alpha)


def test_gegenbauer_rule_moments_and_symmetry():
    for n, alpha in _RULES:
        t, w = _gauss_gegenbauer(n, alpha)
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        for k in range(n):
            # int t^{2k} (1 - t^2)^alpha dt = B(k + 1/2, alpha + 1), 2k <= 2n - 1
            exact = math.gamma(k + 0.5) * math.gamma(alpha + 1.0) \
                / math.gamma(k + alpha + 1.5)
            assert w @ t ** (2 * k) == pytest.approx(exact, rel=1e-13), (n, alpha, k)


# -- radial panels -----------------------------------------------------------

def test_panel_nodes_integrate_polynomials():
    edges = np.array([0.0, 0.3, 1.0, 2.0])
    nodes, weights = panel_nodes(edges, n_leg=8)
    for k in range(0, 12):
        got = (nodes ** k) @ weights
        assert got == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=1e-13)


def test_panel_nodes_require_increasing_edges():
    with pytest.raises(ValueError):
        panel_nodes(np.array([0.0, 1.0, 1.0]))


def test_shell_edges_cover_support():
    eps, delta = 1e-3, 1.0
    edges = shell_edges(eps, delta)
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(2.0 * delta)
    assert delta in edges
    # geometric refinement toward the origin resolves the eps scale
    assert edges[1] <= eps
    assert np.all(np.diff(edges) > 0)


def test_shell_edges_validate():
    with pytest.raises(ValueError):
        shell_edges(-1.0, 1.0)
    with pytest.raises(ValueError):
        shell_edges(1e-2, 0.0)
