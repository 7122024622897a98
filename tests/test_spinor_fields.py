"""Test spinor profile, cutoff, Psi_0 search, and the pointwise identity."""

import subprocess
import sys

import numpy as np
import pytest

from spinlab import spinor_fields
from spinlab.clifford import (
    build_rep,
    gamma_word,
    volume_projectors,
)
from spinlab.curvature import RiemannTensor, random_riemann
from spinlab.spinor_fields import (
    dirac_residual,
    eta,
    eta_d1,
    find_psi0,
    grad_psi_all,
    lemma1_identity,
    make_params,
    phi_eps,
    psi,
    psi0_functional,
    psi_eps,
    psi_norm,
)


def eta_d2(r, delta: float):
    """Second derivative of the cutoff ``eta`` in r."""
    r = np.asarray(r, dtype=float)
    s = (r - delta) / delta
    inside = (s > 0.0) & (s < 1.0)
    s = np.where(inside, s, 0.0)
    return np.where(inside, -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / delta ** 2, 0.0)


def params_for(m, **kw):
    return make_params(m, **kw)


# -- profile ---------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 9))
def test_value_at_origin(m):
    p = params_for(m)
    v = psi(p, np.zeros(m))
    amp = m ** ((m - 1) / 2)
    assert np.allclose(v, amp * p.psi0, atol=1e-12 * amp)
    assert np.linalg.norm(v) == pytest.approx(amp, rel=1e-13)


def test_origin_norm_m2():
    # m^{(m-1)/2} at m = 2 is sqrt(2)
    p = params_for(2)
    assert np.linalg.norm(psi(p, np.zeros(2))) == pytest.approx(np.sqrt(2.0), rel=1e-14)


@pytest.mark.parametrize("m", [2, 4, 7])
def test_pointwise_norm_formula(m):
    p = params_for(m)
    rng = np.random.default_rng(m)
    pts = rng.standard_normal((50, m)) * 2.0
    vals = psi(p, pts)
    assert np.allclose(np.linalg.norm(vals, axis=1), psi_norm(m, pts), rtol=1e-12)


@pytest.mark.parametrize("m", [3, 5])
def test_far_field_decay(m):
    p = params_for(m)
    x = np.zeros(m)
    x[0] = 1e3
    tail = np.linalg.norm(psi(p, x)) * 1e3 ** (m - 1)
    assert tail == pytest.approx(m ** ((m - 1) / 2), rel=1e-5)


# -- derivatives -----------------------------------------------------------

@pytest.mark.parametrize("m", [2, 4, 6])
def test_gradient_at_origin(m):
    p = params_for(m)
    rep = p.rep
    amp = m ** ((m - 1) / 2)
    for j in range(m):
        expect = -amp * (rep.gamma(j) @ p.psi0)
        assert np.allclose(grad_psi_all(p, np.zeros(m))[j], expect,
                           atol=1e-12 * amp)


@pytest.mark.parametrize("m", [3, 5])
def test_gradient_finite_difference_slope(m):
    p = params_for(m)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(m) * 0.7
    j = 1
    exact = grad_psi_all(p, x)[j]
    hs = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for h in hs:
        e = np.zeros(m)
        e[j] = h
        fd = (psi(p, x + e) - psi(p, x - e)) / (2 * h)
        errs.append(np.linalg.norm(fd - exact))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


@pytest.mark.parametrize("m", range(2, 9))
def test_dirac_residual_everywhere(m):
    p = params_for(m)
    rng = np.random.default_rng(m * 11)
    pts = rng.standard_normal((1000, m)) * 1.5
    res = dirac_residual(p, pts)
    assert res.max() <= 1e-10
    assert dirac_residual(p, np.zeros(m)) <= 1e-10


def test_dirac_everywhere_finite_difference_route():
    # independent finite-difference Dirac application, second order in h
    m = 3
    p = params_for(m)
    rep = p.rep
    rng = np.random.default_rng(2)
    x = rng.standard_normal(m) * 0.4
    hs = [1e-2, 1e-3]
    errs = []
    for h in hs:
        d = np.zeros(rep.N, dtype=complex)
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            d += rep.gamma(j) @ (psi(p, x + e) - psi(p, x - e)) / (2 * h)
        rhs = psi_norm(m, x) ** (2.0 / (m - 1)) * psi(p, x)
        errs.append(np.linalg.norm(d - rhs))
    assert errs[1] <= errs[0] * 1e-2 * 1.5


# -- cutoff ----------------------------------------------------------------

def test_cutoff_plateau_support_and_smoothness():
    delta = 0.8
    r = np.linspace(0, 3 * delta, 400)
    v = eta(r, delta)
    assert np.all(v[r <= delta] == 1.0)
    assert np.all(v[r >= 2 * delta] == 0.0)
    assert np.all(np.diff(v) <= 1e-15)
    # C^2: derivative values vanish at both ramp ends
    for f in (eta_d1, eta_d2):
        assert abs(f(delta, delta)) <= 1e-14
        assert abs(f(2 * delta, delta)) <= 1e-14
    # derivative consistency against finite differences mid-ramp
    rr = 1.37 * delta
    h = 1e-6
    fd1 = (eta(rr + h, delta) - eta(rr - h, delta)) / (2 * h)
    fd2 = (eta(rr + h, delta) - 2 * eta(rr, delta) + eta(rr - h, delta)) / h**2
    assert fd1 == pytest.approx(float(eta_d1(rr, delta)), rel=1e-7)
    assert fd2 == pytest.approx(float(eta_d2(rr, delta)), rel=1e-4)


@pytest.mark.parametrize("m", [3, 4])
def test_phi_eps_inside_and_outside(m):
    p = params_for(m, eps=0.3, delta=0.9)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    inside = 0.5 * p.delta * u
    outside = 2.5 * p.delta * u
    assert np.allclose(phi_eps(p, inside), psi_eps(p, inside))
    assert np.allclose(phi_eps(p, outside), 0.0)


def test_psi_eps_scaling_relation():
    m = 4
    p1 = params_for(m, eps=0.25)
    p0 = params_for(m, eps=1.0)
    x = np.array([0.3, -0.1, 0.2, 0.05])
    lhs = psi_eps(p1, x)
    rhs = p1.eps ** (-(m - 1) / 2) * psi(p0, x / p1.eps)
    assert np.allclose(lhs, rhs, rtol=1e-13)


# -- Psi_0 construction ----------------------------------------------------

def permutation_class_coeff(m):
    import itertools

    A = np.zeros((m,) * 4)
    for perm in itertools.permutations(range(4)):
        A[perm] = 1.0
    return A


def test_find_psi0_m3_any_spinor_kills_form():
    m = 3
    rep = build_rep(m)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((m,) * 4)
    for _ in range(10):
        v = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        v /= np.linalg.norm(v)
        assert abs(psi0_functional(rep, A, v)) <= 1e-12
    out = find_psi0(rep, A)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-13)


def test_find_psi0_m4_balances_projectors():
    m = 4
    rep = build_rep(m)
    A = permutation_class_coeff(m)
    out = find_psi0(rep, A)
    assert abs(psi0_functional(rep, A, out)) <= 1e-10
    wp, wm = volume_projectors(rep)
    assert np.linalg.norm(wp @ out) == pytest.approx(
        np.linalg.norm(wm @ out), abs=1e-10
    )


@pytest.mark.parametrize("m", [5, 6])
def test_find_psi0_random_coefficients(m):
    rep = build_rep(m)
    rng = np.random.default_rng(m * 101)
    for _ in range(100):
        A = rng.standard_normal((m,) * 4)
        out = find_psi0(rep, A)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        assert abs(psi0_functional(rep, A, out)) <= 1e-10


@pytest.mark.parametrize("m", [5, 6])
def test_sign_flip_on_touching_terms(m):
    # terms that touch the last direction flip sign under Y -> g_d Y
    rep = build_rep(m)
    rng = np.random.default_rng(m)
    A = rng.standard_normal((m,) * 4)
    d = m - 1
    for _ in range(5):
        v = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        v /= np.linalg.norm(v)
        fv = psi0_functional(rep, A, v, must_touch=d)
        fgv = psi0_functional(rep, A, rep.gamma(d) @ v, must_touch=d)
        assert fgv == pytest.approx(-fv, abs=1e-12 * (1 + abs(fv)))


def test_great_circle_stays_unit():
    rep = build_rep(5)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
    v /= np.linalg.norm(v)
    g = rep.gamma(4)
    assert abs(np.real(np.vdot(v, g @ v))) <= 1e-14
    for t in np.linspace(0, np.pi / 2, 7):
        w = np.cos(t) * v + np.sin(t) * (g @ v)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-13)


def word_sum_form_matrix(rep, A, bound, must_touch):
    # the form's matrix as the explicit sum of Clifford words
    M = np.zeros((rep.N, rep.N), dtype=complex)
    for i in range(bound):
        for j in range(bound):
            for k in range(bound):
                if i == j or j == k or i == k:
                    continue
                for l in range(bound):
                    if must_touch is not None and must_touch not in (i, j, k, l):
                        continue
                    M += A[i, j, k, l] * gamma_word(rep, (i, j, k, l))
    return 0.5 * (M + M.conj().T)


@pytest.mark.parametrize("m", range(5, 10))
def test_form_matrix_matches_word_sum(m):
    rep = build_rep(m)
    A = np.random.default_rng(m + 40).standard_normal((m,) * 4)
    for bound, touch in ((None, None), (m - 1, None), (None, 2),
                         (m - 1, m - 2)):
        H = spinor_fields._form_matrix(rep, A, index_bound=bound,
                                       must_touch=touch)
        ref = word_sum_form_matrix(rep, A, m if bound is None else bound,
                                   touch)
        assert np.abs(H - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_find_psi0_closed_form_zero(m):
    rep = build_rep(m)
    rng = np.random.default_rng(m + 500)
    for _ in range(50):
        A = rng.standard_normal((m,) * 4)
        out = find_psi0(rep, A)
        scale = np.abs(spinor_fields._masked(A, m)).sum()
        assert abs(psi0_functional(rep, A, out)) <= 1e-13 * scale


@pytest.mark.parametrize("m", range(2, 10))
def test_make_params_default_is_the_zero_form_search(m):
    # the default psi0 is what the search returns for the zero form,
    # bit for bit; below m = 3 the search is undefined and the default
    # is the first basis spinor
    rep = build_rep(m)
    if m >= 3:
        expected = find_psi0(rep, np.zeros((m,) * 4))
    else:
        expected = np.eye(rep.N, dtype=complex)[0]
    assert np.array_equal(make_params(m).psi0, expected)


def test_find_psi0_same_sign_endpoints_raise(monkeypatch):
    # a definite form has no zero on any great circle
    monkeypatch.setattr(spinor_fields, "_form_matrix",
                        lambda rep, coeff, **sub: np.eye(rep.N))
    rep = build_rep(5)
    A = np.random.default_rng(3).standard_normal((5,) * 4)
    with pytest.raises(ArithmeticError, match="could not bracket"):
        find_psi0(rep, A)


def test_import_leaves_scipy_unloaded():
    code = ("import sys, spinlab.spinor_fields; "
            "print(any(k.split('.')[0] == 'scipy' for k in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# -- pointwise vanishing identity -------------------------------------------

@pytest.mark.parametrize("m", [4, 5, 6])
def test_lemma1_identity_vanishes(m):
    p = params_for(m)
    rep = p.rep
    R = random_riemann(m, seed=m, weyl_only=True)
    rng = np.random.default_rng(m + 1)
    pts = rng.standard_normal((100, m))
    rel = lemma1_identity(rep, R, p, pts, relative=True)
    assert np.max(rel) <= 1e-10


def test_lemma1_zero_tensor():
    m = 4
    p = params_for(m)
    R = RiemannTensor(m, np.zeros((m,) * 4))
    assert lemma1_identity(p.rep, R, p, np.ones(m)) == 0.0


def test_lemma1_rejects_non_ricci_flat():
    m = 4
    p = params_for(m)
    R = random_riemann(m, seed=3)  # generic, not Ricci-flat
    with pytest.raises(ValueError):
        lemma1_identity(p.rep, R, p, np.ones(m))
