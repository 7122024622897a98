"""Oracles for the concentration asymptotics.

Closed-form constants (Gamma/Beta identities), hand-integrated moment
tables, synthetic slope fits, and a from-scratch mirror of the shell
engine built directly out of the field-level routines.  The mirror is
the load-bearing test: every audited quantity is recomputed from
pointwise spinor fields on the same quadrature nodes and compared.
"""

import copy
import dataclasses
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

import spinlab.asymptotics as asymptotics
import spinlab.quadrature as quadrature
from spinlab.asymptotics import (
    A_TERMS,
    J_TERMS,
    _ROW,
    _VOL_COEFF,
    AuditInputs,
    MomentTable,
    _angular_slots,
    _AuditEngine,
    _radial_moment,
    audit_inputs,
    critical_energy,
    default_eps_grid,
    energy_audit,
    moment_table,
    order_fit,
    radial_I,
    rayleigh_audit,
    rayleigh_eps_grid,
    residual_audit,
    residual_exponents,
    sphere_volume,
    theta_pairing_coefficients,
)
from spinlab.clifford import build_rep
from spinlab.curvature import (
    CurvatureJets,
    RiemannTensor,
    b_coefficient_tensors,
    make_cnc_jets,
    random_riemann,
    ricci,
    theta_lambda,
)
from spinlab.quadrature import panel_nodes, shell_edges, sphere_area, sphere_rule
from spinlab.spinor_fields import (
    eta,
    eta_d1,
    grad_psi_all,
    make_params,
    phi_eps,
    psi0_functional,
    psi_eps,
    psi_norm,
)


# ---------------------------------------------------------------------------
# closed-form constants

def test_sphere_volume_known_values():
    assert sphere_volume(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_volume(3) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)
    assert sphere_volume(5) == pytest.approx(math.pi ** 3, rel=1e-14)
    # S^k is the unit sphere of R^(k+1): one formula for both
    for k in range(1, 13):
        assert sphere_volume(k) == sphere_area(k + 1)


def test_critical_energy_surface_case():
    # (1/4) vol(S^2) = pi, the threshold the torus solver compares against
    assert critical_energy(2) == pytest.approx(math.pi, rel=1e-14)


def test_radial_I_closed_form():
    # int_0^inf r^{m-1}(1+r^2)^{-m} dr = Gamma(m/2)^2 / (2 Gamma(m))
    for m in range(1, 10):
        exact = math.gamma(m / 2.0) ** 2 / (2.0 * math.gamma(m))
        assert radial_I(m) == pytest.approx(exact, rel=1e-11)


def test_radial_I_finite_upper():
    # m = 2 has antiderivative -1/(2(1+r^2)); m = 1 is arctan
    assert radial_I(2, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert radial_I(1, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_radial_I_validates():
    with pytest.raises(ValueError):
        radial_I(0)
    # Gamma(m) overflows a double from m = 172 on
    assert math.isfinite(radial_I(171))
    with pytest.raises(ValueError, match="m <= 171"):
        radial_I(172)
    for m in (2.5, True, 5.0):
        with pytest.raises(ValueError, match="integer m"):
            radial_I(m)
    for upper in (math.nan, -1.0, 0.0, -math.inf):
        with pytest.raises(ValueError, match="upper radius"):
            radial_I(5, upper)


def _adaptive(a, b, upper):
    val, _ = integrate.quad(lambda r: r ** a / (1.0 + r * r) ** b, 0.0, upper,
                            epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def test_radial_constants_match_adaptive_quadrature():
    # the finite limits the tests use, and the Beta closed forms at infinity
    for m, upper in ((1, 1.0), (2, 1.0)):
        assert radial_I(m, upper) == pytest.approx(
            _adaptive(m - 1, m, upper), rel=1e-13, abs=0.0)
    for m, rho in ((2, 2.5), (3, 2.5), (4, 2.5), (4, 3.0), (4, 10.0)):
        assert _radial_moment(m, 4, rho) == pytest.approx(
            _adaptive(m + 3, m, rho), rel=1e-13, abs=0.0)
    for m in range(5, 10):
        assert radial_I(m) == pytest.approx(
            _adaptive(m - 1, m, math.inf), rel=1e-13, abs=0.0)
        assert _radial_moment(m, 4, math.inf) == pytest.approx(
            _adaptive(m + 3, m, math.inf), rel=1e-13, abs=0.0)


def test_critical_energy_validates():
    # (m/2)^m overflows a double from m = 162 on
    assert math.isfinite(critical_energy(161))
    for m in (0, 162, 2.0, True):
        with pytest.raises(ValueError, match="1 <= m <= 161"):
            critical_energy(m)


def test_volume_doubling_identity():
    # vol(S^m) = 2^m area(S^{m-1}) I(m) for every audited dimension
    for m in range(2, 10):
        composite = 2.0 ** m * sphere_area(m) * radial_I(m)
        assert abs(composite - sphere_volume(m)) <= 1e-10 * sphere_volume(m)


def test_critical_energy_assembles_from_radial_integral():
    for m in range(2, 10):
        composite = (0.5 / m) * (0.5 * m) ** m * 2.0 ** m \
            * sphere_area(m) * radial_I(m)
        assert composite == pytest.approx(critical_energy(m), rel=1e-10)


# ---------------------------------------------------------------------------
# moment tables

def _radial_moment_exact(m: int) -> float:
    # int_0^inf r^{m+3}(1+r^2)^{-m} dr = B((m+4)/2, (m-4)/2) / 2
    return 0.5 * math.gamma((m + 4) / 2.0) * math.gamma((m - 4) / 2.0) \
        / math.gamma(m)


def _angular_pair_exact(m: int) -> float:
    # int_{S^{m-1}} u1^2 u2^2 via the Gamma formula for monomial moments
    return 2.0 * math.gamma(1.5) ** 2 * math.gamma(0.5) ** (m - 2) \
        / math.gamma((m + 4) / 2.0)


def _angular_quartic_exact(m: int) -> float:
    return 2.0 * math.gamma(2.5) * math.gamma(0.5) ** (m - 1) \
        / math.gamma((m + 4) / 2.0)


def test_moment_table_closed_forms():
    for m in (5, 6, 7):
        tab = moment_table(m)
        rad = _radial_moment_exact(m)
        assert tab.M22 == pytest.approx(rad * _angular_pair_exact(m), rel=1e-11)
        assert tab.M4 == pytest.approx(rad * _angular_quartic_exact(m), rel=1e-11)


def test_moment_ratio_is_three():
    # isotropy forces M4 = 3 M22 at any radius; m <= 4 needs a finite one
    for m in (2, 3, 4):
        tab = moment_table(m, rho=2.5)
        assert tab.M4 / tab.M22 == pytest.approx(3.0, abs=1e-8)
    for m in (5, 6, 7, 8, 9):
        tab = moment_table(m)
        assert tab.M4 / tab.M22 == pytest.approx(3.0, abs=1e-8)


def test_moment_table_finite_radius_closed_form():
    # m = 4: substitute t = r^2, integrand t^3 (1+t)^{-4} / 2; the far
    # radius puts nearly all the mass next to the pole of the angle rule
    def anti(u):
        return math.log(1.0 + u) + 3.0 / (1.0 + u) \
            - 1.5 / (1.0 + u) ** 2 + 1.0 / (3.0 * (1.0 + u) ** 3)

    for rho in (3.0, 1e12):
        radial = 0.5 * (anti(rho * rho) - anti(0.0))
        tab = moment_table(4, rho=rho)
        assert tab.M22 == pytest.approx(radial * math.pi ** 2 / 12.0, rel=1e-10)
        assert tab.M4 == pytest.approx(radial * math.pi ** 2 / 4.0, rel=1e-10)


def test_moment_table_validations(monkeypatch):
    with pytest.raises(ValueError):
        moment_table(4)
    with pytest.raises(ValueError):
        moment_table(1, rho=2.0)
    for m in (5.5, True):
        with pytest.raises(ValueError, match="integer m"):
            moment_table(m)
    for rho in (math.nan, -2.0):
        with pytest.raises(ValueError, match="upper radius"):
            moment_table(5, rho=rho)
    # past m = 12 the rule of 3 polar nodes has over 2^20 nodes, and from
    # m = 172 on the closed form overflows: both refused before the rule
    # is built
    monkeypatch.setattr(quadrature, "_gauss_gegenbauer", _unreachable)
    for m in (13, 160):
        with pytest.raises(ValueError, match=r"2\^20 nodes"):
            moment_table(m)
    with pytest.raises(ValueError, match="m <= 171"):
        moment_table(172)


def test_moment_tensor_entries():
    tab = MomentTable(6, math.inf, 0.1, 0.37)
    t = tab.tensor()
    assert t.shape == (6, 6, 6, 6)
    assert t[0, 0, 0, 0] == pytest.approx(0.37)
    assert t[0, 0, 1, 1] == pytest.approx(0.1)
    assert t[0, 1, 0, 1] == pytest.approx(0.1)
    assert t[0, 1, 1, 0] == pytest.approx(0.1)
    assert t[0, 1, 2, 3] == 0.0
    assert t[0, 1, 1, 2] == 0.0
    np.testing.assert_allclose(t, t.transpose(1, 0, 2, 3), atol=0)
    np.testing.assert_allclose(t, t.transpose(2, 3, 0, 1), atol=0)
    m, M4, M22 = 6, 0.37, 0.1
    assert np.einsum("aabb->", t) == pytest.approx(m * M4 + m * (m - 1) * M22)


def test_moment_table_requires_ordering():
    with pytest.raises(ValueError):
        MomentTable(5, math.inf, 0.2, 0.2)
    with pytest.raises(ValueError):
        MomentTable(5, math.inf, -0.1, 0.3)


# ---------------------------------------------------------------------------
# slope fitting and grids

def test_order_fit_exact_power():
    eps = default_eps_grid()
    fit = order_fit(eps, 7.0 * eps ** 3)
    assert fit.slope == pytest.approx(3.0, abs=1e-10)
    assert fit.residual <= 1e-12
    np.testing.assert_allclose(fit.eps, eps)


def test_order_fit_mixture_stays_near_leading_order():
    eps = default_eps_grid()
    fit = order_fit(eps, 5.0 * eps ** 4 + eps ** 6)
    assert fit.slope == pytest.approx(4.0, abs=0.02)


def test_order_fit_validation():
    eps = default_eps_grid()
    with pytest.raises(ValueError):
        order_fit(eps[:3], eps[:3] ** 2)
    with pytest.raises(ValueError):
        order_fit(eps[::-1], eps ** 2)
    bad = eps ** 2
    bad = np.where(bad < 1e-5, 0.0, bad)
    with pytest.raises(ValueError):
        order_fit(eps, bad)


def test_eps_grids():
    eps = default_eps_grid()
    assert eps.size == 8
    assert eps[0] == pytest.approx(1e-1)
    assert eps[-1] == pytest.approx(1e-3)
    assert np.all(np.diff(eps) < 0)
    ray = rayleigh_eps_grid()
    assert np.all(np.diff(ray) < 0)
    assert ray[-2] == pytest.approx(1e-2)
    assert ray[-1] == pytest.approx(5e-3)


# ---------------------------------------------------------------------------
# pairing coefficients and audit inputs

def test_theta_pairing_coefficients_by_hand():
    m = 4
    theta = np.zeros((m,) * 6)
    # only the first monomial pair (slots 4, 5) matches: lands on index 1
    theta[0, 1, 2, 3, 3, 1] = 2.0
    # all three pairings match: triple weight on index 2
    theta[1, 0, 0, 2, 2, 2] = 1.0
    coeff = theta_pairing_coefficients(theta)
    assert coeff.shape == (m,) * 4
    assert coeff[0, 1, 2, 1] == pytest.approx(2.0)
    assert coeff[1, 0, 0, 2] == pytest.approx(3.0)
    assert np.sum(np.abs(coeff)) == pytest.approx(5.0)


def test_clifford_pairing_has_no_real_part():
    # Re <gamma(v) s, s> = 0: the identity behind the vanishing J terms
    for m in (4, 5):
        rep = build_rep(m)
        rng = np.random.default_rng(m)
        s = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        v = rng.standard_normal(m)
        gv = sum(v[i] * rep.gammas[i] for i in range(m))
        val = np.vdot(s, gv @ s).real
        assert abs(val) <= 1e-14 * np.vdot(s, s).real


def test_audit_inputs_wiring():
    data = audit_inputs(5, seed=3)
    assert isinstance(data, AuditInputs)
    assert data.m == 5
    assert data.params.delta == 1.0
    assert np.linalg.norm(data.params.psi0) == pytest.approx(1.0, rel=1e-12)
    # trace-free draw, derivative jets normalised to the requested scale
    assert np.abs(ricci(data.riemann)).max() <= 1e-10
    assert np.linalg.norm(data.jets.first) == pytest.approx(10.0, rel=1e-12)
    theta, _ = theta_lambda(data.riemann, data.jets)
    coeff = theta_pairing_coefficients(theta)
    assert abs(psi0_functional(data.params.rep, coeff, data.params.psi0)) <= 1e-10


# ---------------------------------------------------------------------------
# the engine against a from-scratch field evaluation

@pytest.fixture(scope="module")
def m5_inputs():
    return audit_inputs(5, seed=2, first_scale=10.0)


def test_engine_matches_direct_field_evaluation(m5_inputs):
    m, eps, delta = 5, 0.05, 0.7
    R, jets = m5_inputs.riemann, m5_inputs.jets
    psi0 = m5_inputs.params.psi0
    params = make_params(m, 1.0, delta, psi0)
    rule = sphere_rule(m, 2)
    engine = _AuditEngine(AuditInputs(R, jets, params), rule=rule, n_leg=8)
    out = engine.terms(eps)

    # flatten the product quadrature into one list of points
    nodes, wr = panel_nodes(shell_edges(eps, delta), 8)
    U, WA = rule.points, rule.weights
    X = (nodes[:, None, None] * U[None, :, :]).reshape(-1, m)
    r = np.repeat(nodes, U.shape[0])
    w_full = ((wr * nodes ** (m - 1) * (1.0 + 0.1 * nodes ** 5))[:, None]
              * WA[None, :]).ravel()

    pe = make_params(m, eps, delta, psi0)
    rep = pe.rep
    G = np.stack(rep.gammas)
    psib = psi_eps(pe, X)
    phib = phi_eps(pe, X)
    nrm = eps ** (-(m - 1) / 2.0) * psi_norm(m, X / eps)
    uhat = X / r[:, None]
    ev, ep = eta(r, delta), eta_d1(r, delta)
    two_star = 2.0 * m / (m - 1.0)
    q = 2.0 * m / (m + 1.0)

    crit = ((ev * nrm) ** (two_star - 2.0))[:, None] * phib
    A1 = ep[:, None] * np.einsum("pi,irs,ps->pr", uhat, G, psib)
    A2 = ((ev - ev ** (two_star - 1.0)) * nrm ** (two_star - 2.0))[:, None] * psib

    theta, (lin, quad) = theta_lambda(R, jets)
    C3 = np.einsum("ijkabc,pa,pb,pc->pijk", theta, X, X, X, optimize=True)
    Y1 = np.einsum("krs,ps->pkr", G, psib)
    Y2 = np.einsum("jrs,pks->pjkr", G, Y1)
    Y3 = np.einsum("irs,pjks->pijkr", G, Y2)
    A3 = ev[:, None] * np.einsum("pijk,pijkr->pr", C3, Y3, optimize=True)

    lamv = X @ lin.T + np.einsum("kab,pa,pb->pk", quad, X, X)
    A4 = ev[:, None] * np.einsum("pk,krs,ps->pr", lamv, G, psib)

    Bt, _ = b_coefficient_tensors(R, jets)
    bdx = (np.einsum("ijab,pa,pb->pij", Bt[2], X, X, optimize=True)
           + np.einsum("ijabc,pa,pb,pc->pij", Bt[3], X, X, X, optimize=True)
           + np.einsum("ijabcd,pa,pb,pc,pd->pij", Bt[4], X, X, X, X,
                       optimize=True))
    grads = eps ** (-(m + 1) / 2.0) * grad_psi_all(params, X / eps)
    A5 = ev[:, None] * np.einsum("pij,irs,pjs->pr", bdx, G, grads, optimize=True)
    A6 = ep[:, None] * np.einsum("pij,pj,irs,ps->pr", bdx, uhat, G, psib,
                                 optimize=True)

    def pair_int(A, B):
        return float(w_full @ np.einsum("pn,pn->p", np.conj(A), B).real)

    def norm_int(A):
        dens = np.einsum("pn,pn->p", np.conj(A), A).real
        return float(w_full @ dens ** (q / 2.0)) ** (1.0 / q)

    resid = A1 + A2 + A3 + A4 + A5 + A6
    direct = {
        "J1": pair_int(A1, phib), "J2": pair_int(crit, phib),
        "J3": pair_int(A2, phib), "J4": pair_int(A3, phib),
        "J5": pair_int(A4, phib), "J6": pair_int(A5, phib),
        "J7": pair_int(A6, phib),
        "A1": norm_int(A1), "A2": norm_int(A2), "A3": norm_int(A3),
        "A4": norm_int(A4), "A5": norm_int(A5), "A6": norm_int(A6),
        "total": norm_int(resid),
        "num": norm_int(crit + resid) ** 2,
    }
    direct["den"] = sum(direct[k] for k in
                        ("J1", "J2", "J3", "J4", "J5", "J6", "J7"))

    scale = abs(out["J2"])
    for key, want in direct.items():
        assert math.isclose(out[key], want, rel_tol=1e-8,
                            abs_tol=1e-10 * scale), key
    assert out["J4_pre"] == 0.0


def test_engine_radial_oracles(m5_inputs):
    # J2, J3 and the first two residual norms reduce to 1d integrals
    m, eps = 5, 1e-2
    engine = _AuditEngine(m5_inputs)
    out = engine.terms(eps)
    area = sphere_area(m)
    two_star = 2.0 * m / (m - 1.0)
    q = 2.0 * m / (m + 1.0)
    delta = m5_inputs.params.delta

    def nrm(r):
        return eps ** (-(m - 1) / 2.0) * (m / (1.0 + (r / eps) ** 2)) \
            ** ((m - 1) / 2.0)

    def vol(r):
        return r ** (m - 1) * (1.0 + 0.1 * r ** 5)

    def quad(f, lo, hi, pts=None):
        val, _ = integrate.quad(f, lo, hi, points=pts, epsabs=0.0,
                                epsrel=1e-12, limit=400)
        return val

    j2 = area * quad(lambda r: eta(r, delta) ** two_star * nrm(r) ** two_star
                     * vol(r), 0.0, 2.0 * delta, pts=[eps, 10 * eps, delta])
    assert out["J2"] == pytest.approx(j2, rel=1e-8)

    def ramp(r):
        e = eta(r, delta)
        return (e - e ** (two_star - 1.0))

    j3 = area * quad(lambda r: ramp(r) * eta(r, delta) * nrm(r) ** two_star
                     * vol(r), delta, 2.0 * delta)
    assert out["J3"] == pytest.approx(j3, rel=1e-8)

    a1 = (area * quad(lambda r: abs(eta_d1(r, delta)) ** q * nrm(r) ** q
                      * vol(r), delta, 2.0 * delta)) ** (1.0 / q)
    assert out["A1"] == pytest.approx(a1, rel=1e-8)

    a2 = (area * quad(lambda r: (ramp(r) * nrm(r) ** (two_star - 1.0)) ** q
                      * vol(r), delta, 2.0 * delta)) ** (1.0 / q)
    assert out["A2"] == pytest.approx(a2, rel=1e-8)


def test_engine_rejects_mismatched_params(m5_inputs):
    # the engine takes one bundle, which refuses parts of two dimensions
    with pytest.raises(ValueError, match="disagree on m"):
        AuditInputs(m5_inputs.riemann, m5_inputs.jets, make_params(4))


def test_audit_inputs_reject_jets_of_another_m(m5_inputs):
    data4 = audit_inputs(4, seed=0)
    with pytest.raises(ValueError, match="disagree on m"):
        AuditInputs(data4.riemann, m5_inputs.jets, data4.params)


def test_quadrature_self_consistency(m5_inputs):
    coarse = _AuditEngine(m5_inputs)
    fine = _AuditEngine(m5_inputs, rule=sphere_rule(5, 6), n_leg=24)
    a, b = coarse.terms(1e-2), fine.terms(1e-2)
    for key in ("J2", "J3", "J6", "den", "num"):
        assert a[key] == pytest.approx(b[key], rel=1e-8), key
    # the q-norm integrands are not polynomial on the sphere, so the two
    # rules only agree to the rules' own convergence level
    for key in ("A1", "A2", "A3", "A4", "A5", "A6", "total"):
        assert a[key] == pytest.approx(b[key], rel=5e-3), key


def test_engine_terms_returns_requested_keys(m5_inputs):
    generic = np.ones(m5_inputs.params.rep.N, dtype=complex) / 2.0
    engine = _AuditEngine(m5_inputs, rule=sphere_rule(5, 2), n_leg=8,
                          generic_psi0=generic)
    full = engine.terms(0.02)
    assert set(full) == set(J_TERMS + A_TERMS) | {"total", "num", "J4_abs",
                                                  "J4_pre", "den"}
    for keys in (A_TERMS + ("total",), J_TERMS + ("J4_abs", "J4_pre"),
                 ("num", "den"), ("A5",), ("J4_pre",), ("den", "A2")):
        out = engine.terms(0.02, keys)
        assert list(out) == list(keys)
        for key in keys:
            assert out[key] == pytest.approx(full[key], rel=1e-13), key


def _pointwise_terms(engine, eps):
    """Every field evaluated at every quadrature point, then integrated.

    The fields are the engine's own coefficient rows times its tables,
    paired and normed point by point: a check of the Gram pairings, the
    |J4| products and the pointwise-Gram q-norms, not of the tables.
    """
    m, q, WA = engine.m, engine.q, engine.WA
    r, w = panel_nodes(shell_edges(eps, engine.delta), engine.n_leg)
    meas = w * r ** (m - 1) * (1.0 + _VOL_COEFF * r ** engine.vol_degree)
    fields = {k: np.einsum("tk,kpn->tpn", c, engine.tables)
              for k, c in engine._coefficients(eps, r).items()}

    def density(a, b):
        return np.einsum("tpn,tpn->tp", np.conj(fields[a]), fields[b])

    def integral(values):
        return float(meas @ values @ WA)

    paired = ("A1", "crit", "A2", "A3", "A4", "A5", "A6")
    out = {j: integral(density(a, "phib").real)
           for j, a in zip(J_TERMS, paired)}
    out["J4_abs"] = integral(np.abs(density("A3", "phib")))
    out["J4_pre"] = integral(density("A3g", "psg").real)
    out["den"] = sum(out[j] for j in J_TERMS)
    for name in A_TERMS + ("total", "num"):
        power = (m + 1.0) / m if name == "num" else 1.0 / q
        out[name] = integral(density(name, name).real ** (q / 2.0)) ** power
    return out


def test_engine_factored_contractions_at_m8():
    m = 8
    R = random_riemann(m, 3, weyl_only=True)
    jets = make_cnc_jets(R, seed=3, first_scale=10.0)
    params = make_params(m)
    assert params.rep.N == 16
    rng = np.random.default_rng(3)
    generic = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    generic /= np.linalg.norm(generic)
    engine = _AuditEngine(AuditInputs(R, jets, params),
                          rule=sphere_rule(m, 2), n_leg=4,
                          generic_psi0=generic)
    for eps in (0.05, 2e-3):
        out = engine.terms(eps)
        want = _pointwise_terms(engine, eps)
        scale = abs(want["J2"])
        for key, value in want.items():
            assert math.isclose(out[key], value, rel_tol=1e-12,
                                abs_tol=1e-14 * scale), key
        assert out["J4_abs"] > 0.0 and out["J4_pre"] != 0.0


# residual norms on the audit-m6 grid geomspace(1e-2, 1e-3, 4) at the
# default rule, recorded from the table-GEMM q-norms that the pointwise
# Gram replaced; A6 is rounding dust (B_d(u) u = 0), so its entries also
# pin the arithmetic of the Q/Z tables and the bits of the sphere nodes
# (its row is recorded from the Golub-Welsch nodes)
_AUDIT_M6 = {
    "A1": (0.004646270608569246, 0.0006820432815879128,
           0.00010011228764636129, 1.4694538277384681e-05),
    "A2": (7.200093130094259e-06, 4.906008818050233e-07,
           3.342519210679047e-08, 2.277245672372261e-09),
    "A3": (1.8558808776213237e-06, 2.724961257886471e-07,
           3.9999915308813254e-08, 5.871280214830184e-09),
    "A4": (0.006230227726782643, 0.0009242343323942221,
           0.00013639929294717668, 2.0076863237291316e-05),
    "A5": (9.967090708883174e-06, 1.4635465124519243e-06,
           2.1483823050233087e-07, 3.1534554554392e-08),
    "A6": (6.171589380696176e-19, 9.059405666373929e-20,
           1.3297626599961234e-20, 1.951832172076917e-21),
    "total": (0.008041917728177861, 0.0011885761068894827,
              0.00017507924373436144, 2.5745181389727923e-05),
    "num": (129590.60567484115, 129590.60433862716,
            129590.60428772887, 129590.60428579366),
}


def _columns(report):
    """The report's table as term -> values over the scales."""
    out = {}
    for name, _, value in report.rows():
        out.setdefault(name, []).append(value)
    return out


def test_qnorms_match_recorded_audit_m6():
    eps = np.geomspace(1e-2, 1e-3, 4)
    got = _columns(residual_audit(6, eps_grid=eps))
    got["num"] = _columns(rayleigh_audit(6, eps_grid=eps))["num"]
    for name, want in _AUDIT_M6.items():
        for g, w in zip(got[name], want):
            assert math.isclose(g, w, rel_tol=1e-13, abs_tol=0.0), name
    # whatever the node bits, A6 stays rounding dust beside A5
    assert np.all(np.asarray(got["A6"]) <= 1e-12 * np.asarray(got["A5"]))


def test_qnorms_of_hand_built_fields(m5_inputs):
    engine = _AuditEngine(m5_inputs, rule=sphere_rule(5, 2), n_leg=8)
    r, w = panel_nodes(shell_edges(0.02, engine.delta), engine.n_leg)
    meas = w * r ** 4
    n, K = r.size, engine.tables.shape[0]
    rng = np.random.default_rng(1)
    block = rng.standard_normal((n, K))
    block[n // 3: 2 * n // 3] = 0.0
    block[-1, :-1] = 0.0  # a live row with a single table
    single = np.zeros((n, K))
    single[:, _ROW["TH1"]] = rng.standard_normal(n)
    c = {"A1": np.zeros((n, K)), "A2": block, "A3": single}
    out = engine._qnorms(c, meas, ("A1", "A2", "A3"))
    assert out["A1"] == 0.0
    for name in ("A2", "A3"):
        F = np.einsum("tk,kpn->tpn", c[name], engine.tables)
        dens = np.einsum("tpn,tpn->tp", F.conj(), F).real
        want = (meas @ dens ** (engine.q / 2.0) @ engine.WA) ** (1.0 / engine.q)
        assert math.isclose(out[name], want, rel_tol=1e-13), name


def test_pointwise_gram_waits_for_a_qnorm(m5_inputs):
    engine = _AuditEngine(m5_inputs, rule=sphere_rule(5, 2), n_leg=8)
    derived = {"gram", "th_s", "point_gram"}
    assert not derived & vars(engine).keys()
    engine.terms(0.02, ("J2",))
    assert "point_gram" not in vars(engine)
    engine.terms(0.02, ("A1",))
    H, row = engine.point_gram
    K, P, _ = engine.tables.shape
    assert H.shape == (K * (K + 1) // 2, P)
    k, l = _ROW["S1"], _ROW["P3"]
    want = np.einsum("pn,pn->p", engine.tables[k].conj(),
                     engine.tables[l]).real
    assert np.allclose(H[row[k, l]], want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("audit, built", [
    (residual_audit, {"point_gram"}),
    (energy_audit, {"gram", "th_s"}),
])
def test_audit_sweeps_build_only_what_they_read(audit, built, monkeypatch):
    # the residual audit reads only q-norms, the energy audit only pairings
    made = []

    class Recorded(_AuditEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(asymptotics, "_AuditEngine", Recorded)
    audit(5, eps_grid=np.geomspace(1e-2, 1e-3, 4), rule=sphere_rule(5, 2))
    (engine,) = made
    assert {"gram", "th_s", "point_gram"} & vars(engine).keys() == built


def _einsum_oracle(spec, *operands):
    """``np.einsum(spec, *operands)`` and the largest sum of the absolute
    summands of one entry, the scale its rounding is measured against."""
    want = np.einsum(spec, *operands, optimize=True)
    scale = np.einsum(spec, *map(np.abs, operands), optimize=True).max()
    return want, scale


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
def test_engine_tables_match_einsum(m):
    # the cubic tables contract theta against the Clifford words before the
    # angles, and each partner table sum_k L_k gamma_k gamma(u) psi0 is one
    # GEMM of L (x) u; both against the einsum forms they replace.  The Q
    # and Z tables are rounding dust, so each table is measured against
    # the size of its summands rather than its own.
    inputs = audit_inputs(m, seed=1)
    rule = sphere_rule(m, 2)
    rng = np.random.default_rng(m)
    generic = [1.0, 1j] @ rng.standard_normal((2, inputs.params.rep.N))
    engine = _AuditEngine(inputs, rule=rule, generic_psi0=generic)
    U = rule.points
    UU = (U[:, :, None] * U[:, None, :]).reshape(-1, m * m)
    G = np.stack(inputs.params.rep.gammas)
    psi0 = inputs.params.psi0
    theta, (lin, quad) = inputs.theta_lambda
    partner = "pk,krs,pa,ast,t->pr"
    cases = {"L1S1": (partner, U @ lin.T, G, U, G, psi0),
             "L2S1": (partner, UU @ quad.reshape(m, m * m).T, G, U, G, psi0)}
    Bt, _ = b_coefficient_tensors(inputs.riemann, inputs.jets)
    for d in (2, 3, 4):
        bh = _angular_slots(Bt[d], U, UU)
        w = (bh @ U[:, :, None])[..., 0]
        cases[f"Z{d}"] = (partner, w, G, U, G, psi0)
        cases[f"P{d}"] = ("pij,irs,jst,t->pr", bh, G, G, psi0)
    cubic = "ijkabc,pa,pb,pc,irs,jst,ktu"
    for tag, psi in (("", psi0), ("g", generic)):
        cases["TH0" + tag] = (cubic + ",u->pr", theta, U, U, U, G, G, G, psi)
        cases["TH1" + tag] = (cubic + ",pd,duv,v->pr", theta, U, U, U,
                              G, G, G, U, G, psi)
    for name, (spec, *operands) in cases.items():
        want, scale = _einsum_oracle(spec, *operands)
        got = engine.tables[_ROW[name]]
        assert np.abs(got - want).max() <= 1e-13 * scale, name


# the traced peaks of building the m = 6 engine and the Grams its audit
# reads were 70.9 MB (residual) and 84.5 MB (energy) when set-up stacked a
# list of tables and formed the cubic form at every angle, and 36.1 MB and
# 34.8 MB once the tables were written in place.  With the pointwise Gram
# filled one block of angles at a time they are 28.0 MB and 34.8 MB (the
# energy peak is the weighted copy inside ``gram``); each bound is its
# peak plus 10 %
_SETUP_PEAK = {"residual": 30.9e6, "energy": 38.3e6}


@pytest.mark.parametrize("audit, grams", [
    ("residual", ("point_gram",)),
    ("energy", ("gram", "th_s")),
])
def test_engine_setup_peak_memory_m6(audit, grams):
    inputs = audit_inputs(6, seed=0)
    generic = None
    if audit == "energy":
        coeff = theta_pairing_coefficients(inputs.theta_lambda[0])
        generic = asymptotics._generic_spinor(inputs.params.rep, coeff)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        engine = _AuditEngine(inputs, generic_psi0=generic)
        for name in grams:
            getattr(engine, name)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= _SETUP_PEAK[audit], peak


# the whole audit on the audit-m6 grid (draw, set-up, Grams and the sweep
# over four scales) peaked at 50.6 MB (residual) and 54.9 MB (energy) when
# the sweep formed (nodes, angles) arrays; in blocks it peaks at 34.9 MB and
# 36.0 MB
@pytest.mark.parametrize("audit", [residual_audit, energy_audit])
def test_audit_peak_memory_m6(audit):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        audit(6, eps_grid=np.geomspace(1e-2, 1e-3, 4))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 38e6, peak


@pytest.mark.parametrize("m", [5, 6])
def test_blocks_change_no_result(m, monkeypatch):
    # one row a block against one block for everything: a slice that drops
    # or shifts a row at a block edge fails this.  The slot blocks of set-up
    # move the tables by rounding (a one-row GEMM is a GEMV), so the sweeps
    # run on one set of tables, where blocking changes no bit of H
    inputs = audit_inputs(m, seed=0)
    coeff = theta_pairing_coefficients(inputs.theta_lambda[0])
    generic = asymptotics._generic_spinor(inputs.params.rep, coeff)
    engines, sweeps = {}, {}
    for budget in (1, 1 << 30):
        monkeypatch.setattr(asymptotics, "_BLOCK_BYTES", budget)
        engines[budget] = _AuditEngine(inputs, rule=sphere_rule(m, 2),
                                       generic_psi0=generic)
    one, whole = engines.values()
    assert np.abs(one.tables - whole.tables).max() \
        <= 1e-15 * np.abs(whole.tables).max()
    for budget in (1, 1 << 30):
        monkeypatch.setattr(asymptotics, "_BLOCK_BYTES", budget)
        engine = copy.copy(whole)  # no derived array is built yet
        sweeps[budget] = (engine.point_gram[0],
                          [engine.terms(eps) for eps in (1e-2, 1e-3)])
    (H_one, got), (H_whole, want) = sweeps.values()
    assert np.array_equal(H_one, H_whole)
    for g, w in zip(got, want):
        for key in asymptotics._KEYS:
            assert math.isclose(g[key], w[key], rel_tol=1e-15), key


def test_angular_slots_match_einsum(monkeypatch):
    # m = 8 with 700 angles runs the degree-4 product in 6 blocks, one
    # angle a block at a 1-byte budget, and in one block at 1 GB
    m = 8
    rng = np.random.default_rng(5)
    U = rng.standard_normal((700, m))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    UU = (U[:, :, None] * U[:, None, :]).reshape(-1, m * m)
    specs = {2: "ijab,pa,pb->pij", 3: "ijabc,pa,pb,pc->pij",
             4: "ijabcd,pa,pb,pc,pd->pij"}
    for d, spec in specs.items():
        T = rng.standard_normal((m,) * (d + 2))
        want = np.einsum(spec, T, *([U] * d), optimize=True)
        for budget in (asymptotics._BLOCK_BYTES, 1, 1 << 30):
            monkeypatch.setattr(asymptotics, "_BLOCK_BYTES", budget)
            got = _angular_slots(T, U, UU)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
                (d, budget)


# ---------------------------------------------------------------------------
# degenerate curvature

def test_flat_curvature_zeroes_the_curved_terms():
    m = 5
    flat = AuditInputs(RiemannTensor(m, np.zeros((m,) * 4)), CurvatureJets(m),
                       make_params(m))
    engine = _AuditEngine(flat, rule=sphere_rule(m, 2), n_leg=8)
    out = engine.terms(0.02)
    for key in ("A3", "A4", "A5", "A6", "J4", "J5", "J6", "J7"):
        assert out[key] == 0.0, key
    assert out["A1"] > 0.0 and out["A2"] > 0.0
    assert abs(out["J1"]) <= 1e-10 * out["J2"]

    report = residual_audit(m, inputs=flat, rule=sphere_rule(m, 2),
                            n_leg=8)
    summary = report.summary()
    terms = summary["terms"]
    for key in ("A3", "A4", "A5", "A6"):
        assert terms[key]["slope"] == math.inf
        assert terms[key]["within_tolerance"] is None
    assert terms["A1"]["slope"] == pytest.approx(2.0, abs=0.15)
    assert terms["A2"]["slope"] == pytest.approx(3.0, abs=0.15)
    assert terms["total"]["slope"] == pytest.approx(2.0, abs=0.15)
    assert summary["total_floor_ok"]

    with pytest.raises(ValueError):
        energy_audit(m, inputs=flat)


# ---------------------------------------------------------------------------
# audit drivers at m = 5 with a light rule

@pytest.fixture(scope="module")
def m5_rule():
    return sphere_rule(5, 4)


@pytest.fixture(scope="module")
def residual_m5(m5_inputs, m5_rule):
    return residual_audit(5, inputs=m5_inputs, rule=m5_rule, n_leg=12)


@pytest.fixture(scope="module")
def energy_m5(m5_inputs, m5_rule):
    # a degree-4 volume factor keeps the truncation order min(m, 4) = 4
    # clean; at degree m the two error sources tie and pick up a logarithm
    return energy_audit(5, inputs=m5_inputs, rule=m5_rule, n_leg=12,
                        vol_degree=4)


@pytest.fixture(scope="module")
def rayleigh_m5(m5_inputs, m5_rule):
    return rayleigh_audit(5, inputs=m5_inputs, rule=m5_rule, n_leg=12)


def test_energy_audit_computes_theta_lambda_once(m5_rule, monkeypatch):
    # audit_inputs needs the cubic term for the spinor search; the bundle
    # keeps it, and the energy audit and its engine read it from there
    calls = []
    original = asymptotics.theta_lambda

    def counted(R, jets):
        calls.append(1)
        return original(R, jets)

    monkeypatch.setattr(asymptotics, "theta_lambda", counted)
    inputs = asymptotics.audit_inputs(5, seed=2, first_scale=10.0)
    energy_audit(5, eps_grid=[0.08, 0.06, 0.04, 0.02], inputs=inputs,
                 rule=m5_rule, n_leg=12, vol_degree=4)
    assert len(calls) == 1
    assert inputs.theta_lambda is inputs.theta_lambda


def test_residual_audit_recovers_exponents(residual_m5):
    report = residual_m5
    expected = residual_exponents(5)
    summary = report.summary()
    for name, exp in expected.items():
        slope = summary["terms"][name]["slope"]
        assert slope == pytest.approx(exp, abs=0.15), name
    assert all(term["within_tolerance"] for term in summary["terms"].values())
    assert summary["total_floor_ok"]
    assert summary["log_factor_terms"] == []
    rows = list(report.rows())
    assert len(rows) == 7 * len(summary["eps"])
    assert all(v > 0.0 for _, _, v in rows)


def test_residual_exponent_table():
    with pytest.raises(ValueError):
        residual_exponents(3)
    with pytest.raises(ValueError):
        residual_exponents(9)
    t6 = residual_exponents(6)
    assert t6 == {"A1": 2.5, "A2": 3.5, "A3": 2.5, "A4": 2.5,
                  "A5": 2.5, "A6": 2.5, "total": 2.5}
    t7 = residual_exponents(7)
    assert t7["A4"] is None
    assert t7["total"] == 3.0
    t8 = residual_exponents(8)
    assert t8["A4"] == 3.0
    assert t8["A5"] == 3.5
    assert t8["total"] == 3.0


def test_energy_audit_structure(energy_m5):
    report = energy_m5
    summary = report.summary()
    j2, j4, j6 = summary["J2"], summary["J4"], summary["J6"]
    limit = 5 ** 5 * sphere_area(5) * radial_I(5)
    assert j2["limit"] == pytest.approx(limit, rel=1e-13)
    assert j2["rel_err"] <= 1e-6
    assert j2["expected_order"] == 4.0
    assert j2["error_slope"] == pytest.approx(4.0, abs=0.3)
    assert summary["J3"]["slope"] == pytest.approx(5.0, abs=0.2)
    # the three pairings that vanish pointwise
    zero = summary["pointwise_zero_max"]
    assert zero["J1"] <= 1e-11 * limit
    assert zero["J5"] <= 1e-11 * limit
    assert zero["J7"] <= 1e-16 * limit
    # matched spinor kills the cubic pairing, generic one restores it
    assert j4["cancelled"] is True
    assert j4["post_slope"] == math.inf
    assert j4["pre_slope"] == pytest.approx(4.0, abs=0.1)
    # coefficient truncation decays like eps/delta at m = 5, so half a
    # percent is the honest agreement level on this grid
    assert j4["pre_coeff"] == pytest.approx(j4["pre_predicted"], rel=5e-3)
    # quartic term: exact order, predicted coefficient, definite sign
    assert j6["slope"] == pytest.approx(4.0, abs=0.1)
    assert j6["predicted"] < 0.0
    assert j6["negative"] is True
    assert j6["rel_err"] <= 5e-3
    rows = list(report.rows())
    assert len(rows) == 9 * len(summary["eps"])


def test_rayleigh_audit_limits(rayleigh_m5):
    report = rayleigh_m5
    summary = report.summary()
    om = sphere_volume(5)
    assert summary["den_limit"] == pytest.approx(2.5 ** 5 * om, rel=1e-13)
    assert summary["num_limit"] == pytest.approx(
        summary["threshold"] * summary["den_limit"], rel=1e-12)
    assert summary["threshold"] == pytest.approx(2.5 * om ** 0.2, rel=1e-13)
    assert summary["num_rel_err"] <= 1e-6
    assert summary["den_rel_err"] <= 1e-6
    assert len(summary["excess"]) == len(summary["eps"])
    assert np.all(np.isfinite(summary["excess"]))
    assert isinstance(summary["excess_positive_smallest_two"], bool)
    rows = list(report.rows())
    assert len(rows) == 3 * len(summary["eps"])


# ---------------------------------------------------------------------------
# each audit's verdict: one payload entry past its threshold flips ``ok``

def _with(report, entries):
    """``report`` with payload entries replaced; a key "a/b" names the
    nested entry payload["a"]["b"]."""
    payload = copy.deepcopy(report.payload)
    for key, value in entries.items():
        *path, last = key.split("/")
        node = payload
        for step in path:
            node = node[step]
        node[last] = value
    return dataclasses.replace(report, payload=payload)


def test_light_audits_pass(residual_m5, energy_m5, rayleigh_m5):
    for report in (residual_m5, energy_m5, rayleigh_m5):
        assert report.summary()["ok"] is True


# case -> (payload entry, failing value)
ENERGY_FAILS = {"j1_max": ("pointwise_zero_max/J1", 2e-12),
                "j5_max": ("pointwise_zero_max/J5", 2e-12),
                "j7_max": ("pointwise_zero_max/J7", 2e-12),
                "j2_rel_err": ("J2/rel_err", 2e-6),
                "j6_slope": ("J6/slope", 4.2),
                "j6_rel_err": ("J6/rel_err", 0.06),
                "j6_negative": ("J6/negative", False)}


@pytest.mark.parametrize("case", list(ENERGY_FAILS))
def test_energy_verdict_rules(energy_m5, case):
    key, value = ENERGY_FAILS[case]
    bad = _with(energy_m5, {key: value})
    assert bad.summary()["ok"] is False


@pytest.mark.parametrize("field", ["num_rel_err", "den_rel_err", "excess"])
def test_rayleigh_verdict_rules(rayleigh_m5, field):
    value = (rayleigh_m5.payload["excess"][:-1] + [-1e-3]
             if field == "excess" else 0.02)
    bad = _with(rayleigh_m5, {field: value})
    assert bad.summary()["ok"] is False


def test_residual_verdict_rules(residual_m5):
    report = residual_m5
    total = report.payload["terms"]["total"]["slope"]
    below_floor = _with(report, {"total_floor": total + 0.01})
    assert below_floor.summary()["total_floor_ok"] is False
    assert below_floor.summary()["ok"] is False
    off = _with(report, {"terms/A2/slope": 3.2})
    assert off.summary()["terms"]["A2"]["within_tolerance"] is False
    assert off.summary()["ok"] is False
    # a term with a logarithm has no predicted order and cannot fail
    unpredicted = _with(report, {"terms/A4/slope": 9.0,
                                 "terms/A4/expected": None})
    assert unpredicted.summary()["terms"]["A4"]["within_tolerance"] is None
    assert unpredicted.summary()["ok"] is True


def test_summary_is_independent(residual_m5, energy_m5, rayleigh_m5):
    for report in (residual_m5, energy_m5, rayleigh_m5):
        want = report.summary()
        got = report.summary()
        got["ok"] = not got["ok"]
        got["eps"].append(1.0)
        for value in got.values():
            if isinstance(value, dict):
                value.clear()
        assert report.summary() == want
    changed = residual_m5.summary()
    changed["terms"]["A2"]["slope"] = 9.0
    changed["log_factor_terms"].append("A2")
    assert residual_m5.summary()["terms"]["A2"]["slope"] != 9.0
    assert residual_m5.summary()["log_factor_terms"] == []


def test_residual_and_rayleigh_audits_leave_scipy_integrate_unloaded():
    code = ("import sys\n"
            "import numpy as np\n"
            "from spinlab.asymptotics import rayleigh_audit, residual_audit\n"
            "from spinlab.quadrature import sphere_rule\n"
            "kw = dict(eps_grid=np.geomspace(1e-1, 1e-2, 4),\n"
            "          rule=sphere_rule(5, 2), n_leg=4)\n"
            "residual_audit(5, **kw)\n"
            "rayleigh_audit(5, **kw)\n"
            "print('scipy.integrate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class _WorkStarted(Exception):
    pass


def _unreachable(*args, **kwargs):
    raise _WorkStarted


def _forbid_audit_work(monkeypatch):
    monkeypatch.setattr(asymptotics, "audit_inputs", _unreachable)
    monkeypatch.setattr(asymptotics, "_AuditEngine", _unreachable)


@pytest.mark.parametrize("audit", [residual_audit, energy_audit,
                                   rayleigh_audit])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
def test_audits_reject_bad_eps_before_any_work(audit, bad, monkeypatch):
    _forbid_audit_work(monkeypatch)
    # each bad entry sits where the grid still decreases strictly
    grid = [bad, 1e-2, 5e-3, 1e-3] if bad == math.inf else [1e-2, 5e-3,
                                                             1e-3, bad]
    with pytest.raises(ValueError, match="positive and finite"):
        audit(6, eps_grid=grid)


def test_audits_reject_short_eps_grid_before_any_work(monkeypatch):
    # the residual and energy audits fit slopes on at least four scales;
    # the Rayleigh audit fits none and takes the short grid on to work
    _forbid_audit_work(monkeypatch)
    short = [1e-2, 5e-3, 1e-3]
    for audit in (residual_audit, energy_audit):
        with pytest.raises(ValueError, match="at least 4 points"):
            audit(6, eps_grid=short)
    with pytest.raises(_WorkStarted):
        rayleigh_audit(6, eps_grid=short)


def test_rayleigh_audit_rejects_single_scale_before_any_work(monkeypatch):
    # its verdict reads the excess at the two smallest scales
    _forbid_audit_work(monkeypatch)
    for grid in ([1e-2], []):
        with pytest.raises(ValueError, match="at least 2 points"):
            rayleigh_audit(5, eps_grid=grid)
    with pytest.raises(_WorkStarted):
        rayleigh_audit(5, eps_grid=[1e-2, 5e-3])


@pytest.mark.parametrize("audit", ["residual", "energy", "rayleigh"])
def test_audits_reject_m_outside_range_before_any_work(audit, monkeypatch):
    _forbid_audit_work(monkeypatch)
    lo, hi = asymptotics.AUDIT_M_RANGE[audit]
    run_audit = getattr(asymptotics, f"{audit}_audit")
    for m in (lo - 1, hi + 1, 40):
        with pytest.raises(ValueError, match="audit needs"):
            run_audit(m)


@pytest.mark.parametrize("audit", ["residual", "energy", "rayleigh"])
def test_audits_reject_first_scale_past_the_cap_before_any_work(
        audit, monkeypatch):
    _forbid_audit_work(monkeypatch)
    cap = asymptotics.AUDIT_MAX_FIRST_SCALE
    run_audit = getattr(asymptotics, f"{audit}_audit")
    for bad in (np.nextafter(cap, math.inf), 1e300, math.inf, math.nan,
                -1e-3):
        with pytest.raises(ValueError, match="first_scale must lie in"):
            run_audit(6, first_scale=bad)
    with pytest.raises(_WorkStarted):
        run_audit(6, first_scale=cap)


def test_check_audit_args_reports_the_first_fault():
    # m, then the first scale, then the grid; None is the default grid
    check = asymptotics.check_audit_args
    with pytest.raises(ValueError, match="residual audit needs"):
        check("residual", 3, 1e300, [1e-3])
    with pytest.raises(ValueError, match="first_scale must lie in"):
        check("residual", 6, 1e300, [1e-3])
    with pytest.raises(ValueError, match="at least 4 points"):
        check("residual", 6, 100.0, [1e-3])
    assert np.array_equal(check("energy", 6, 10.0, None), default_eps_grid())
    assert np.array_equal(check("rayleigh", 6, 100.0, None),
                          rayleigh_eps_grid())


@pytest.mark.parametrize("m", [5, 9])
def test_tables_and_grams_stay_finite_at_the_first_scale_cap(m):
    inputs = audit_inputs(m, first_scale=asymptotics.AUDIT_MAX_FIRST_SCALE)
    coeff = theta_pairing_coefficients(inputs.theta_lambda[0])
    generic = asymptotics._generic_spinor(inputs.params.rep, coeff)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine = _AuditEngine(inputs, rule=sphere_rule(m, 2),
                              generic_psi0=generic)
        for built in (engine.tables, engine.gram, engine.th_s,
                      engine.point_gram[0]):
            assert np.all(np.isfinite(built))
        # and every audit runs to its verdict on the cap's draw
        for run_audit in (residual_audit, energy_audit, rayleigh_audit):
            run_audit(m, inputs=inputs, rule=sphere_rule(m, 2)).summary()


def test_audit_validation():
    with pytest.raises(ValueError):
        residual_audit(3)
    with pytest.raises(ValueError):
        energy_audit(4)
    with pytest.raises(ValueError):
        rayleigh_audit(4)
    data = audit_inputs(4, seed=0)
    with pytest.raises(ValueError):
        residual_audit(4, inputs=data,
                       eps_grid=np.array([1e-1, 1e-1, 1e-2, 1e-3]))
    with pytest.raises(ValueError, match="audit inputs have m = 4"):
        residual_audit(5, inputs=data)
