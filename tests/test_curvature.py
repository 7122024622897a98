"""Riemann draws, metric square-root jets, Dirac corrections, flatness data."""

import numpy as np
import pytest

from spinlab.asymptotics import MomentTable, audit_inputs, moment_table
from spinlab.curvature import (
    CurvatureJets,
    RiemannTensor,
    _ricci_target_to_riemann,
    b_coefficient_tensors,
    b_jets,
    cnc_condition3_residual,
    det_expansion_check,
    j6_leading,
    make_cnc_jets,
    metric_jet,
    random_riemann,
    ricci,
    riemann_project,
    theta_lambda,
    weyl,
)
from spinlab.jets import jet_space, jmat_identity, jmat_mul, tensor_to_jets
from test_jets import jets_to_tensor


def symmetry_residual(R):
    """Max violation of the two antisymmetries, pair symmetry and Bianchi."""
    c = R.components
    r = max(
        np.abs(c + c.transpose(1, 0, 2, 3)).max(),
        np.abs(c + c.transpose(0, 1, 3, 2)).max(),
        np.abs(c - c.transpose(2, 3, 0, 1)).max(),
        np.abs(c + c.transpose(0, 2, 3, 1) + c.transpose(0, 3, 1, 2)).max(),
    )
    return float(r)


def random_jets(m, seed):
    """Derivative jets with the Riemann symmetries in the leading slots."""
    rng = np.random.default_rng(seed)
    first = riemann_project(rng.standard_normal((m,) * 5))
    second = riemann_project(rng.standard_normal((m,) * 6))
    second = 0.5 * (second + second.swapaxes(4, 5))
    return CurvatureJets(m, first, second)


def constant_curvature(m, kappa):
    d = np.eye(m)
    c = kappa * (np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d))
    return RiemannTensor(m, c)


# -- symmetries and trace parts ---------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_random_draw_has_exact_symmetries(m):
    R = random_riemann(m, seed=m)
    assert symmetry_residual(R) < 1e-13
    assert R.frobenius() == pytest.approx(1.0, rel=1e-13)


def test_projection_is_idempotent():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((5,) * 4)
    once = riemann_project(raw)
    assert np.allclose(riemann_project(once), once, atol=1e-14)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_weyl_is_trace_free_and_idempotent(m):
    R = random_riemann(m, seed=m, weyl_only=True)
    assert np.abs(ricci(R)).max() < 1e-13
    W = weyl(R)
    assert np.abs(W.components - R.components).max() < 1e-13


def test_weyl_vanishes_in_dimension_three():
    R = random_riemann(3, seed=11)
    assert np.abs(weyl(R).components).max() < 1e-13


def test_constant_curvature_traces():
    m, kappa = 5, 0.7
    R = constant_curvature(m, kappa)
    assert symmetry_residual(R) < 1e-14
    assert np.allclose(ricci(R), kappa * (m - 1) * np.eye(m), atol=1e-13)
    assert np.trace(ricci(R)) == pytest.approx(kappa * m * (m - 1), rel=1e-13)
    assert np.abs(weyl(R).components).max() < 1e-13


# -- metric square root ------------------------------------------------------

@pytest.mark.parametrize("m", [4, 5, 6])
def test_b_squared_times_metric_is_identity(m):
    space = jet_space(m, 4)
    for seed in range(3):
        R = random_riemann(m, seed=seed)
        jets = random_jets(m, seed + 100)
        G = metric_jet(R, jets)
        B, Binv = b_jets(R, jets)
        I = jmat_identity(space, m)
        bbg = jmat_mul(space, jmat_mul(space, B, B), G)
        assert np.abs(bbg - I).max() < 1e-12
        assert np.abs(jmat_mul(space, B, Binv) - I).max() < 1e-12


def test_b_tensors_flat_input_vanish():
    m = 4
    R = RiemannTensor(m, np.zeros((m,) * 4))
    Bt, Ct = b_coefficient_tensors(R, CurvatureJets(m))
    for d in (2, 3, 4):
        assert np.abs(Bt[d]).max() == 0.0
        assert np.abs(Ct[d]).max() == 0.0


@pytest.mark.parametrize("m", [4, 5, 6])
def test_det_expansion_matches_laplace(m):
    for seed in range(3):
        R = random_riemann(m, seed=seed)
        jets = random_jets(m, seed + 50)
        assert det_expansion_check(R, jets) < 1e-12


def test_quadratic_b_trace_is_ricci():
    # tr B2(x, x) = (1/6) Ric(x, x); zero for a trace-free draw
    m = 5
    R = random_riemann(m, seed=2)
    Bt, _ = b_coefficient_tensors(R, CurvatureJets(m))
    tr = np.einsum("iiab->ab", Bt[2])
    assert np.allclose(tr, np.einsum("ab->ab", ricci(R)) / 6.0, atol=1e-13)
    W = random_riemann(m, seed=2, weyl_only=True)
    BtW, _ = b_coefficient_tensors(W, CurvatureJets(m))
    assert np.abs(np.einsum("iiab->ab", BtW[2])).max() < 1e-13


# -- Dirac corrections -------------------------------------------------------

def test_theta_vanishes_for_flat_tensor():
    m = 4
    R = RiemannTensor(m, np.zeros((m,) * 4))
    theta, lam = theta_lambda(R, random_jets(m, 7))
    assert np.abs(theta).max() == 0.0


def test_theta_supported_on_distinct_triples():
    m = 5
    R = random_riemann(m, seed=9)
    theta, _ = theta_lambda(R, CurvatureJets(m))
    for i in range(m):
        assert np.abs(theta[i, i]).max() == 0.0
        assert np.abs(theta[:, i, i]).max() == 0.0
        assert np.abs(theta[i, :, i]).max() == 0.0


def test_lambda_zero_for_flat_data():
    m = 4
    R = random_riemann(m, seed=1, weyl_only=True)
    _, lam = theta_lambda(R, CurvatureJets(m))
    assert max(np.abs(t).max() for t in lam) < 1e-13


def test_lambda_linear_part_carries_ricci():
    m = 4
    R = random_riemann(m, seed=5)
    ric = ricci(R)
    _, (lin, _) = theta_lambda(R, CurvatureJets(m))
    for k in range(m):
        for a in range(m):
            got = lin[k, a]
            assert got == pytest.approx(-0.25 * ric[a, k], abs=1e-13)


@pytest.mark.parametrize("m", range(4, 10))
def test_lambda_quadratic_part_is_the_symmetrized_derivative(m):
    # quad is bitwise the symmetric tensor that the jet round trip of
    # -Ric_ka,b / 6 gives
    inputs = audit_inputs(m)
    _, (_, quad) = theta_lambda(inputs.riemann, inputs.jets)
    q = -np.einsum("iaikb->kab", inputs.jets.first) / 6.0
    space = jet_space(m, 2)
    assert np.array_equal(quad, quad.swapaxes(1, 2))
    assert np.array_equal(
        quad, jets_to_tensor(space, tensor_to_jets(space, q, 2), 2))


# -- flatness-condition jets ---------------------------------------------------

def test_make_cnc_jets_requires_trace_free():
    R = random_riemann(4, seed=0)
    if np.abs(ricci(R)).max() > 1e-8:
        with pytest.raises(ValueError):
            make_cnc_jets(R)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_cnc_third_condition_holds(m):
    R = random_riemann(m, seed=m, weyl_only=True)
    jets = make_cnc_jets(R, seed=m, first_scale=5.0)
    assert cnc_condition3_residual(R, jets) < 1e-12


def test_cnc_second_condition_and_scale():
    m = 6
    R = random_riemann(m, seed=0, weyl_only=True)
    jets = make_cnc_jets(R, seed=0, first_scale=10.0)
    assert np.sqrt((jets.first ** 2).sum()) == pytest.approx(10.0, rel=1e-12)
    ric_d = np.einsum("iaikb->akb", jets.first)
    cyc = ric_d + ric_d.transpose(1, 2, 0) + ric_d.transpose(2, 0, 1)
    assert np.abs(cyc).max() < 1e-12
    # the Ricci derivative itself stays generic
    assert np.abs(ric_d).max() > 1e-3


@pytest.mark.parametrize("m", range(4, 10))
def test_ricci_target_broadcasts_over_trailing_axes(m):
    # make_cnc_jets solves all targets in one call: each trailing index
    # must come out bitwise as if its target were solved alone
    rng = np.random.default_rng(m)
    V = rng.standard_normal((m,) * 4)
    V = V + V.swapaxes(0, 1)
    T = _ricci_target_to_riemann(V)
    T3 = _ricci_target_to_riemann(V[..., 0])
    for k in range(m):
        assert np.array_equal(T3[..., k],
                              _ricci_target_to_riemann(V[:, :, k, 0]))
        for l in range(m):
            assert np.array_equal(T[..., k, l],
                                  _ricci_target_to_riemann(V[:, :, k, l]))


def test_cubic_b_trace_vanishes_with_cnc_jets():
    # tr B3(x,x,x) is proportional to the symmetrised Ricci derivative
    m = 5
    R = random_riemann(m, seed=3, weyl_only=True)
    jets = make_cnc_jets(R, seed=3, first_scale=8.0)
    Bt, _ = b_coefficient_tensors(R, jets)
    tr = np.einsum("iiabc->abc", Bt[3])
    sym = (tr + tr.transpose(1, 2, 0) + tr.transpose(2, 0, 1)
           + tr.transpose(0, 2, 1) + tr.transpose(1, 0, 2) + tr.transpose(2, 1, 0))
    assert np.abs(sym).max() < 1e-12


# -- quartic energy coefficient ------------------------------------------------

def test_j6_leading_closed_form():
    # with an exactly isotropic table the coefficient is -M22 |R|^2 / 16
    m = 6
    R = random_riemann(m, seed=4, weyl_only=True)
    mom = MomentTable(m, np.inf, M22=0.37, M4=3 * 0.37)
    val = j6_leading(R, mom)
    assert val == pytest.approx(-0.37 * R.frobenius() ** 2 / 16.0, rel=1e-12)


@pytest.mark.parametrize("m", [5, 6])
def test_j6_leading_negative_for_weyl_draws(m):
    mom = moment_table(m)
    for seed in range(5):
        R = random_riemann(m, seed=seed, weyl_only=True)
        assert j6_leading(R, mom) < 0.0


def test_j6_leading_rejects_trace():
    R = random_riemann(5, seed=8)
    if np.abs(ricci(R)).max() > 1e-8:
        with pytest.raises(ValueError):
            j6_leading(R, moment_table(5))
