"""Torus Dirac tests.

Oracles: brute-force mode recount, raw Pauli-matrix eigensystems,
single-mode closed forms for the functional (a plane-wave spinor has
constant density a^2 / (4 pi^2)), finite differences for gradients and
Hessians, and a refined grid search over the kernel 4-ball for the
best-approximation operator.
"""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from spinlab.asymptotics import critical_energy
from spinlab.dirac_torus import (
    SpinStructure,
    T_project,
    _kernel_gram,
    _kernel_pairings,
    _quartic_part,
    build_dirac,
    ground_state_problem,
    phi_functional,
    refine_ground_state,
    solve_ground_state,
    tilde_phi,
)
from spinlab import dirac_torus, reduction
from spinlab.reduction import check_hypotheses

PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)

TWO_PI = 2.0 * math.pi


def random_spinor(basis, rng, scale=1.0):
    """Coefficient vector [plus, minus, kernel] of complex Gaussians, drawn
    in the order plus, kernel, minus."""
    def draw(size):
        return scale * (rng.standard_normal(size)
                        + 1j * rng.standard_normal(size))

    plus, kernel, minus = (draw(basis.n_modes), draw(basis.kernel_dim),
                           draw(basis.n_modes))
    return np.concatenate((plus, minus, kernel))


def blocks(basis, c):
    """The plus, minus and kernel blocks of a coefficient vector."""
    M = basis.n_modes
    return c[:M], c[M:2 * M], c[2 * M:]


def h_inner(basis, a, b):
    """H^(1/2) pairing: |lambda|-weighted on the plus and minus blocks,
    L2 on the kernel block."""
    w = np.concatenate((basis.lam, basis.lam, np.ones(basis.kernel_dim)))
    return float(np.sum(w * np.real(np.conj(a) * b)))


def quartic(basis, c):
    """int |psi|^4 from the solver's quartic pass."""
    return _quartic_part(basis, c)[2]


# ---------------------------------------------------------------------------
# spin structures and spectral data

def test_spin_structure():
    assert SpinStructure(0.0, 0.0).has_kernel
    assert not SpinStructure(0.5, 0.0).has_kernel
    assert not SpinStructure(0.0, 0.5).has_kernel
    assert not SpinStructure(0.5, 0.5).has_kernel
    assert SpinStructure.from_text("0,0").astuple() == (0.0, 0.0)
    assert SpinStructure.from_text("1/2,0.5").astuple() == (0.5, 0.5)
    with pytest.raises(ValueError):
        SpinStructure.from_text("0.3,0")
    with pytest.raises(ValueError):
        SpinStructure(0.25, 0.0)


def test_build_dirac_mode_inventory():
    basis = build_dirac(2.0, (0.5, 0.5))
    # smallest positive eigenvalue at the antiperiodic structure
    assert math.isclose(basis.lam.min(), math.sqrt(2.0) / 2.0,
                        rel_tol=1e-14)
    assert basis.kernel_dim == 0
    # brute-force recount over a generous index square
    count = 0
    for k1 in range(-5, 6):
        for k2 in range(-5, 6):
            t = math.hypot(k1 + 0.5, k2 + 0.5)
            if 0.0 < t <= 2.0:
                count += 1
    assert basis.n_modes == count
    assert np.all(basis.lam > 0.0)
    assert np.all(basis.lam <= 2.0 + 1e-12)

    trivial = build_dirac(2.0, (0.0, 0.0))
    assert trivial.kernel_dim == 2
    assert math.isclose(trivial.lam.min(), 1.0, rel_tol=1e-14)

    with pytest.raises(ValueError):
        build_dirac(0.5)
    # the box of labels -2..1 has width 4, so the exact grid has 7 points
    assert basis.n_g == 7
    assert build_dirac(2.0, (0.5, 0.5), n_g=7).n_g == 7
    with pytest.raises(ValueError, match="aliases"):
        build_dirac(2.0, (0.5, 0.5), n_g=6)


@pytest.mark.parametrize("n_g", [30.5, math.inf, True, 31.0, "31"])
def test_build_dirac_rejects_non_integer_grid(n_g):
    with pytest.raises(ValueError, match="grid size must be an integer"):
        build_dirac(2.0, (0.5, 0.5), n_g=n_g)


@pytest.mark.parametrize("lam_max", [math.inf, -math.inf, math.nan])
def test_nonfinite_cutoff_is_rejected(lam_max):
    with pytest.raises(ValueError, match="mode cutoff"):
        build_dirac(lam_max)
    with pytest.raises(ValueError, match="mode cutoff"):
        solve_ground_state(lam_max)


def test_gamma_crit_is_the_sphere_threshold():
    # the solver stores pi; asymptotics assembles it from vol(S^2) / 4
    assert critical_energy(2) == math.pi


def test_import_leaves_scipy_unloaded():
    code = ("import sys, spinlab.dirac_torus; "
            "print(any(k.split('.')[0] == 'scipy' for k in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_symbol_eigensystem():
    basis = build_dirac(3.0, (0.5, 0.0))
    for j in (0, 3, basis.n_modes - 1):
        t1, t2 = basis.theta[j]
        symbol = -(t1 * PAULI_1 + t2 * PAULI_2)
        lam = basis.lam[j]
        ep, em = basis.e_plus[j], basis.e_minus[j]
        assert np.linalg.norm(symbol @ ep - lam * ep) <= 1e-13
        assert np.linalg.norm(symbol @ em + lam * em) <= 1e-13
        assert abs(np.vdot(ep, ep) - 1.0) <= 1e-14
        assert abs(np.vdot(em, em) - 1.0) <= 1e-14
        assert abs(np.vdot(ep, em)) <= 1e-14
        eigs = np.linalg.eigvalsh(symbol)
        assert np.allclose(eigs, [-lam, lam], atol=1e-13)


def test_grid_roundtrip_and_parseval():
    for delta in ((0.5, 0.5), (0.0, 0.0), (0.0, 0.5)):
        basis = build_dirac(2.0, delta)
        rng = np.random.default_rng(7)
        sp = random_spinor(basis, rng)
        grid = basis.to_grid(sp)
        assert np.abs(basis.from_grid(grid) - sp).max() <= 1e-12
        # Parseval: coefficient L2 mass equals the grid integral
        l2_coeff = np.sum(np.abs(sp) ** 2)
        l2_grid = basis.quad_weight * np.sum(np.abs(grid) ** 2)
        assert math.isclose(l2_coeff, l2_grid, rel_tol=1e-12)
        # H^(1/2) norm weights the nonkernel blocks by |lambda|
        plus, minus, kernel = blocks(basis, sp)
        manual = (np.sum(basis.lam * np.abs(plus) ** 2)
                  + np.sum(np.abs(kernel) ** 2)
                  + np.sum(basis.lam * np.abs(minus) ** 2))
        assert math.isclose(basis.h_norm_sq(sp), manual, rel_tol=1e-13)


SPIN_STRUCTURES = [(0.5, 0.5), (0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]


def test_to_grid_matches_mode_sum():
    # psi(x) = sum_k w_k exp(i (k + delta) . x) / (2 pi), kernel included,
    # at every grid point, on all four spin structures; also two odd,
    # non-default grid sizes
    cases = [(lam_max, None) for lam_max in (1.5, 3.0, 6.0)]
    cases += [(2.0, 23), (2.0, 21)]
    for delta in SPIN_STRUCTURES:
        for lam_max, n_g in cases:
            basis = build_dirac(lam_max, delta, n_g)
            rng = np.random.default_rng(53)
            sp = random_spinor(basis, rng)
            grid = basis.to_grid(sp)
            assert grid.shape == (2, basis.n_g, basis.n_g)
            plus, minus, kernel = blocks(basis, sp)
            w = (plus[:, None] * basis.e_plus
                 + minus[:, None] * basis.e_minus)
            x = TWO_PI * np.arange(basis.n_g) / basis.n_g
            points = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
            waves = np.exp(1j * (points @ basis.theta.T)) / TWO_PI
            expected = np.moveaxis(waves @ w, -1, 0)
            if basis.kernel_dim:
                expected = expected + (kernel / TWO_PI)[:, None, None]
            assert np.abs(grid - expected).max() <= 1e-12
            if n_g is not None:
                continue
            # the exact grid loses nothing on the way back
            back = basis.from_grid(grid)
            assert back.shape == (basis.size,)
            assert np.abs(back - sp).max() <= 1e-13


def test_from_grid_matches_fft_projection():
    # a random grid is not band-limited: every box mode must still be
    # its discrete Fourier coefficient, as the FFT with the spin phase
    # removed gives it
    for delta, n_g in (((0.5, 0.5), None), ((0.0, 0.0), 23),
                       ((0.5, 0.0), None)):
        basis = build_dirac(2.0, delta, n_g)
        n = basis.n_g
        rng = np.random.default_rng(59)
        grid = (rng.standard_normal((2, n, n))
                + 1j * rng.standard_normal((2, n, n)))
        x = TWO_PI * np.arange(n) / n
        phase = np.exp(1j * (delta[0] * x[:, None] + delta[1] * x[None, :]))
        w_all = np.fft.fft2(grid * np.conj(phase)[None, :, :],
                            axes=(1, 2)) * (TWO_PI / n ** 2)
        i1, i2 = basis.modes[:, 0] % n, basis.modes[:, 1] % n
        w = np.stack([w_all[0, i1, i2], w_all[1, i1, i2]], axis=1)
        got_plus, got_minus, got_kernel = blocks(basis,
                                                 basis.from_grid(grid))
        plus = np.sum(np.conj(basis.e_plus) * w, axis=1)
        minus = np.sum(np.conj(basis.e_minus) * w, axis=1)
        assert np.abs(got_plus - plus).max() <= 1e-12
        assert np.abs(got_minus - minus).max() <= 1e-12
        if basis.kernel_dim:
            assert np.abs(got_kernel - w_all[:, 0, 0]).max() <= 1e-12
        else:
            assert got_kernel.shape == (0,)


def rel_diff(a, b):
    """Largest entry difference relative to the largest entry of b."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("lam_max", [2.0, 3.5])
@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0), (0.5, 0.0),
                                   (0.0, 0.5)])
def test_default_grid_is_exact_and_sharp(lam_max, delta):
    # every grid quantity at n_g = 2 nk - 1 equals its value on a grid
    # four times finer; one point fewer aliases the quartic
    basis = build_dirac(lam_max, delta)
    nk = int(basis.modes.max() - basis.modes.min()) + 1
    assert basis.n_g == 2 * nk - 1
    fine = build_dirac(lam_max, delta, 4 * basis.n_g)
    rng = np.random.default_rng(67)
    sp = random_spinor(basis, rng)

    assert rel_diff(quartic(basis, sp), quartic(fine, sp)) <= 1e-13
    value, grad, _ = phi_functional(basis, sp)
    value_f, grad_f, _ = phi_functional(fine, sp)
    assert rel_diff(value, value_f) <= 1e-13
    assert rel_diff(grad, grad_f) <= 1e-13
    if basis.kernel_dim:
        assert rel_diff(T_project(basis, sp), T_project(fine, sp)) <= 1e-13

    problem, _, _ = ground_state_problem(basis)
    problem_f, _, _ = ground_state_problem(fine)
    u = rng.standard_normal(problem.n)
    v = rng.standard_normal(problem.n)
    assert rel_diff(problem.grad_psi(u), problem_f.grad_psi(u)) <= 1e-13
    assert rel_diff(problem.hess_psi(u, v),
                    problem_f.hess_psi(u, v)) <= 1e-13

    # build_dirac refuses the aliasing grid, so shrink the basis directly
    coarse = dataclasses.replace(basis, n_g=basis.n_g - 1)
    assert rel_diff(quartic(coarse, sp), quartic(fine, sp)) > 1e-8


# ---------------------------------------------------------------------------
# the functional

def test_phi_zero():
    basis = build_dirac(2.0, (0.5, 0.5))
    value, grad, quartic_mass = phi_functional(basis, np.zeros(basis.size))
    assert value == 0.0
    assert quartic_mass == 0.0
    assert np.abs(grad).max() == 0.0


def test_phi_single_mode_closed_form():
    # a single plus mode with amplitude a has constant density
    # a^2/(4 pi^2), so the quartic integral is a^4/(4 pi^2)
    basis = build_dirac(2.0, (0.5, 0.5))
    j, a = 0, 1.3
    M = basis.n_modes
    lam = basis.lam[j]
    c = np.zeros(basis.size, dtype=complex)
    c[j] = a
    value, grad, _ = phi_functional(basis, c)
    expected = 0.5 * lam * a * a - a ** 4 / (16.0 * math.pi ** 2)
    assert math.isclose(value, expected, rel_tol=1e-12)
    gj = a - a ** 3 / (4.0 * math.pi ** 2 * lam)
    assert math.isclose(grad[j].real, gj, rel_tol=1e-12)
    assert abs(grad[j].imag) <= 1e-13
    mask = np.ones(M, dtype=bool)
    mask[j] = False
    assert np.abs(grad[:M][mask]).max() <= 1e-13
    assert np.abs(grad[M:]).max() <= 1e-13

    c = np.zeros(basis.size, dtype=complex)
    c[M + j] = a
    value_m, grad_m, _ = phi_functional(basis, c)
    expected_m = -0.5 * lam * a * a - a ** 4 / (16.0 * math.pi ** 2)
    assert math.isclose(value_m, expected_m, rel_tol=1e-12)
    gm = -a - a ** 3 / (4.0 * math.pi ** 2 * lam)
    assert math.isclose(grad_m[M + j].real, gm, rel_tol=1e-12)


def test_phi_gradient_fd():
    basis = build_dirac(2.0, (0.0, 0.0))
    rng = np.random.default_rng(11)
    sp = random_spinor(basis, rng, scale=0.6)
    d = random_spinor(basis, rng, scale=1.0)
    _, grad, _ = phi_functional(basis, sp)
    exact = h_inner(basis, grad, d)
    errs = []
    hs = (1e-2, 1e-3)
    for h in hs:
        vp = phi_functional(basis, sp + h * d)[0]
        vm = phi_functional(basis, sp - h * d)[0]
        errs.append(abs((vp - vm) / (2.0 * h) - exact))
    slope = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
    assert abs(slope - 2.0) <= 0.3


def test_phi_gradient_pairing_identity():
    basis = build_dirac(2.0, (0.5, 0.5))
    rng = np.random.default_rng(13)
    sp = random_spinor(basis, rng, scale=0.8)
    value, grad, quartic_mass = phi_functional(basis, sp)
    assert quartic_mass == quartic(basis, sp)
    pairing = h_inner(basis, grad, sp)
    plus, minus, _ = blocks(basis, sp)
    qplus = float(np.sum(basis.lam * np.abs(plus) ** 2))
    qminus = float(np.sum(basis.lam * np.abs(minus) ** 2))
    expected = qplus - qminus - quartic(basis, sp)
    assert math.isclose(pairing, expected, rel_tol=1e-10)
    # and the value assembles from the same pieces
    assert math.isclose(value, 0.5 * (qplus - qminus)
                        - 0.25 * quartic(basis, sp), rel_tol=1e-12)


def bad_coefficients(basis, case):
    c = random_spinor(basis, np.random.default_rng(83))
    c[2 * basis.n_modes:] = 0.0
    if case == "nan":
        c[0] = np.nan
    elif case == "inf":
        c[-1] = np.inf
    return {"short": c[:-1], "column": c[:, None]}.get(case, c)


@pytest.mark.parametrize("case", ["short", "column", "nan", "inf"])
@pytest.mark.parametrize("entry", [phi_functional, tilde_phi, T_project])
def test_entry_points_refuse_bad_coefficients(entry, case, monkeypatch):
    # refused before any transform; a NaN used to stall T_project's line
    # search and make phi_functional return nan
    basis = build_dirac(1.5, (0.0, 0.0))
    bad = bad_coefficients(basis, case)

    def refuse(*args):
        raise AssertionError("to_grid ran on a refused vector")

    monkeypatch.setattr(dirac_torus.SpectralBasis, "to_grid", refuse)
    message = ("must be finite" if case in ("nan", "inf")
               else rf"must have shape \({basis.size},\)")
    with pytest.raises(ValueError, match=f"spinor coefficients c {message}"):
        entry(basis, bad)


# ---------------------------------------------------------------------------
# kernel best approximation

def test_T_kernel_identity():
    basis = build_dirac(2.0, (0.0, 0.0))
    kernel = np.array([0.7 - 0.2j, 1.1 + 0.4j])
    sp = np.concatenate((np.zeros(2 * basis.n_modes), kernel))
    tc = T_project(basis, sp)
    assert np.abs(tc - kernel).max() <= 1e-12


def test_T_no_kernel():
    basis = build_dirac(2.0, (0.5, 0.0))
    rng = np.random.default_rng(17)
    tc = T_project(basis, random_spinor(basis, rng))
    assert tc.shape == (0,)


def test_kernel_gram_condition_bound():
    # T_project solves with this Gram system unguarded: its condition
    # number stays at most 3 whenever the density is not identically zero,
    # at any amplitude and however concentrated the field
    basis = build_dirac(4.0, (0.0, 0.0))
    rng = np.random.default_rng(31)
    worst = 0.0
    for k in range(200):
        z = basis.to_grid(random_spinor(basis, rng)) \
            * 10.0 ** rng.uniform(-100.0, 100.0)
        dens = np.abs(z[0]) ** 2 + np.abs(z[1]) ** 2
        if k % 2:
            top = dens >= np.quantile(dens, 0.99)
            z, dens = z * top, dens * top
        H = _kernel_gram(_kernel_pairings(z), dens)
        worst = max(worst, float(np.linalg.cond(H)))
    assert worst <= 3.0


def test_T_optimality_residual():
    basis = build_dirac(2.0, (0.0, 0.0))
    rng = np.random.default_rng(19)
    sp = random_spinor(basis, rng, scale=0.9)
    tc = T_project(basis, sp, tol=1e-12)
    z = basis.to_grid(sp) - (tc / TWO_PI)[:, None, None]
    dens = np.abs(z[0]) ** 2 + np.abs(z[1]) ** 2
    for d in np.array([[1.0, 0.0], [1j, 0.0], [0.0, 1.0], [0.0, 1j]],
                      dtype=complex) / TWO_PI:
        resid = basis.quad_weight * float(np.sum(
            dens * np.real(z[0] * np.conj(d[0]) + z[1] * np.conj(d[1]))))
        assert abs(resid) <= 1e-12


def test_T_homogeneity_and_translation():
    basis = build_dirac(2.0, (0.0, 0.0))
    rng = np.random.default_rng(23)
    sp = random_spinor(basis, rng, scale=0.8)
    tc = T_project(basis, sp)
    for t in (2.3, -1.7):
        assert np.abs(T_project(basis, t * sp) - t * tc).max() <= 1e-10
    shift = np.array([0.4 + 0.9j, -0.3 + 0.2j])
    shifted = sp.copy()
    shifted[2 * basis.n_modes:] += shift
    assert np.abs(T_project(basis, shifted) - (tc + shift)).max() <= 1e-10


@pytest.mark.parametrize("lam_max", [1.0, 2.0, 8.0])
def test_T_homogeneity_at_large_amplitude(lam_max):
    # the gradient's rounding floor grows as s^3 and passes the absolute
    # tolerance 1e-12 here; the line search used to stall at s = 100
    basis = build_dirac(lam_max, (0.0, 0.0))
    sp = random_spinor(basis, np.random.default_rng(29))
    tc = T_project(basis, sp)
    for s in (100.0, 1000.0):
        assert rel_diff(T_project(basis, s * sp), s * tc) <= 1e-12


def test_T_grid_search_oracle():
    basis = build_dirac(2.0, (0.0, 0.0))
    rng = np.random.default_rng(29)
    sp = random_spinor(basis, rng, scale=0.7)
    tc = T_project(basis, sp, tol=1e-13)

    grid = basis.to_grid(sp)
    dens = (np.abs(grid[0]) ** 2 + np.abs(grid[1]) ** 2).ravel()
    re0, im0 = grid[0].real.ravel(), grid[0].imag.ravel()
    re1, im1 = grid[1].real.ravel(), grid[1].imag.ravel()
    w = basis.quad_weight

    def batch_values(cands):
        # |psi - gamma|^2 expands around the spinor density; gamma is
        # the constant field c / (2 pi)
        g = cands / TWO_PI
        lin = (g[:, 0, None] * re0 + g[:, 1, None] * im0
               + g[:, 2, None] * re1 + g[:, 3, None] * im1)
        gsq = np.sum(g * g, axis=1)
        s = dens[None, :] - 2.0 * lin + gsq[:, None]
        return w * np.sum(s * s, axis=1)

    center = np.zeros(4)
    half = 3.0
    for _ in range(45):
        axes = [np.linspace(center[i] - half, center[i] + half, 7)
                for i in range(4)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        cands = mesh.reshape(-1, 4)
        best = cands[int(np.argmin(batch_values(cands)))]
        step = axes[0][1] - axes[0][0]
        center, half = best, 2.0 * step
    oracle = np.array([center[0] + 1j * center[1],
                       center[2] + 1j * center[3]])
    assert np.abs(oracle - tc).max() <= 1e-6


def test_T_degenerate_at_zero():
    # the zero spinor is fixed immediately and needs no Hessian solve
    basis = build_dirac(2.0, (0.0, 0.0))
    tc = T_project(basis, np.zeros(basis.size))
    assert np.abs(tc).max() == 0.0


# ---------------------------------------------------------------------------
# the kernel-reduced functional

def test_tilde_phi_inequality_and_kernel_gradient():
    basis = build_dirac(2.0, (0.0, 0.0))
    rng = np.random.default_rng(31)
    M = basis.n_modes
    for _ in range(5):
        sp = random_spinor(basis, rng, scale=0.8)
        sp[2 * M:] = 0.0
        phi_val = phi_functional(basis, sp)[0]
        tilde_val, tilde_grad, _ = tilde_phi(basis, sp)
        assert phi_val <= tilde_val + 1e-12
        assert np.abs(tilde_grad[2 * M:]).max() <= 1e-10
    with pytest.raises(ValueError, match="kernel block"):
        tilde_phi(basis, random_spinor(basis, rng))


def test_tilde_phi_without_kernel_is_phi():
    basis = build_dirac(2.0, (0.5, 0.5))
    rng = np.random.default_rng(37)
    sp = random_spinor(basis, rng)
    v1, g1, q1 = phi_functional(basis, sp)
    v2, g2, q2 = tilde_phi(basis, sp)
    assert (v1, q1) == (v2, q2)
    assert np.array_equal(g1, g2)


def test_tilde_phi_gradient_fd():
    # validates the envelope rule: the inner minimizer is re-solved at
    # each evaluation yet the gradient treats it as frozen
    basis = build_dirac(2.0, (0.0, 0.0))
    rng = np.random.default_rng(41)
    M = basis.n_modes
    sp = random_spinor(basis, rng, scale=0.7)
    sp[2 * M:] = 0.0
    d = random_spinor(basis, rng)
    d[2 * M:] = 0.0
    _, grad, _ = tilde_phi(basis, sp)
    exact = h_inner(basis, grad, d)
    errs = []
    hs = (1e-2, 1e-3)
    for h in hs:
        vp = tilde_phi(basis, sp + h * d)[0]
        vm = tilde_phi(basis, sp - h * d)[0]
        errs.append(abs((vp - vm) / (2.0 * h) - exact))
    slope = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
    assert abs(slope - 2.0) <= 0.3


# ---------------------------------------------------------------------------
# the solver-facing problem

def test_problem_coordinates_and_energy():
    for delta in ((0.5, 0.5), (0.0, 0.0)):
        basis = build_dirac(2.0, delta)
        problem, to_coords, from_coords = ground_state_problem(basis)
        assert problem.n == 4 * basis.n_modes
        rng = np.random.default_rng(43)
        u = rng.standard_normal(problem.n) * 0.5
        sp = from_coords(u)
        assert sp.shape == (basis.size,)
        assert np.all(sp[2 * basis.n_modes:] == 0.0)
        assert np.abs(to_coords(sp) - u).max() <= 1e-12
        if basis.kernel_dim:
            expected, egrad, _ = tilde_phi(basis, sp)
        else:
            expected, egrad, _ = phi_functional(basis, sp)
        assert math.isclose(problem.energy(u), expected, rel_tol=1e-10)
        grad_coords = problem.energy_gradient(u)
        assert np.abs(grad_coords - to_coords(egrad)).max() <= 1e-10


def test_problem_hessian_fd():
    for delta in ((0.5, 0.5), (0.0, 0.0)):
        basis = build_dirac(2.0, delta)
        problem, _, _ = ground_state_problem(basis)
        rng = np.random.default_rng(47)
        u = rng.standard_normal(problem.n) * 0.6
        v = rng.standard_normal(problem.n)
        exact = problem.hess_psi(u, v)
        errs = []
        hs = (1e-2, 1e-3)
        for h in hs:
            fd = (problem.grad_psi(u + h * v)
                  - problem.grad_psi(u - h * v)) / (2.0 * h)
            errs.append(np.linalg.norm(fd - exact))
        slope = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
        assert abs(slope - 2.0) <= 0.3


@pytest.mark.parametrize("lam_max, delta", [(1.0, (0.0, 0.0)),
                                            (2.0, (0.5, 0.5))])
def test_grad_psi_reuses_the_cached_cubic(lam_max, delta, monkeypatch):
    # the cache holds the coefficients of |psi|^2 psi, so the gradient at
    # a point whose value is known runs no transform back to the basis
    problem, _, _ = ground_state_problem(build_dirac(lam_max, delta))
    u = np.random.default_rng(49).standard_normal(problem.n)
    problem.psi(u)
    calls = []
    from_grid = dirac_torus.SpectralBasis.from_grid

    def counted(self, grid):
        calls.append(1)
        return from_grid(self, grid)

    monkeypatch.setattr(dirac_torus.SpectralBasis, "from_grid", counted)
    problem.grad_psi(u)
    assert calls == []


@pytest.mark.parametrize("lam_max", [1.5, 3.0])
@pytest.mark.parametrize("delta", SPIN_STRUCTURES)
def test_hess_psi_matches_central_differences(delta, lam_max):
    basis = build_dirac(lam_max, delta)
    problem, _, _ = ground_state_problem(basis)
    rng = np.random.default_rng(73)
    u = rng.standard_normal(problem.n) * 0.6
    v = rng.standard_normal(problem.n)
    exact = problem.hess_psi(u, v)
    scale = np.abs(exact).max()

    def central(h):
        return (problem.grad_psi(u + h * v)
                - problem.grad_psi(u - h * v)) / (2.0 * h)

    if basis.kernel_dim:
        # T makes grad Psi smooth but not polynomial: the difference
        # converges to the product at second order
        errs = [np.abs(central(h) - exact).max() / scale
                for h in (1e-3, 1e-4)]
        assert abs(math.log10(errs[0] / errs[1]) - 2.0) <= 0.05
        assert errs[1] <= 1e-7
    else:
        # grad Psi is a cubic form G, so the central difference is
        # exactly DG(u) v + h^2 G(v)
        h = 1e-2
        fd = central(h) - h * h * problem.grad_psi(v)
        assert np.abs(fd - exact).max() <= 1e-12 * scale


@pytest.mark.parametrize("delta", [(0.5, 0.5), (0.0, 0.0)])
def test_hess_psi_runs_one_transform_pair(delta, monkeypatch):
    # at a resolved point a Hessian product transforms its direction to
    # the grid and the product back, once each; the gradient there runs
    # no transform at all
    problem, _, _ = ground_state_problem(build_dirac(3.0, delta))
    rng = np.random.default_rng(79)
    u, v = rng.standard_normal((2, problem.n))
    problem.psi(u)
    calls = []
    for name in ("to_grid", "from_grid"):
        method = getattr(dirac_torus.SpectralBasis, name)

        def counted(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(dirac_torus.SpectralBasis, name, counted)
    problem.grad_psi(u)
    assert calls == []
    problem.hess_psi(u, v)
    assert calls == ["to_grid", "from_grid"]


def test_hess_psi_kernel_gram_matches_loop_solve():
    # the cached Gram step against a solve that assembles the 4x4
    # system entry by entry from grid sums
    basis = build_dirac(2.0, (0.0, 0.0))
    problem, _, from_coords = ground_state_problem(basis)
    rng = np.random.default_rng(61)
    u = rng.standard_normal(problem.n) * 0.6
    v = rng.standard_normal(problem.n)

    M = basis.n_modes
    sp = from_coords(u)
    sp[2 * M:] = -T_project(basis, sp)
    z = basis.to_grid(sp)
    dens = np.abs(z[0]) ** 2 + np.abs(z[1]) ** 2
    chi = basis.to_grid(from_coords(v))
    dirs = np.array([[1.0, 0.0], [1j, 0.0], [0.0, 1.0], [0.0, 1j]],
                    dtype=complex) / TWO_PI
    proj = np.array([np.real(z[0] * np.conj(d[0]) + z[1] * np.conj(d[1]))
                     for d in dirs])
    chi_pair = np.real(z[0] * np.conj(chi[0]) + z[1] * np.conj(chi[1]))
    H = np.empty((4, 4))
    rhs = np.empty(4)
    for j in range(4):
        cross_j = np.real(chi[0] * np.conj(dirs[j][0])
                          + chi[1] * np.conj(dirs[j][1]))
        rhs[j] = float(np.sum(2.0 * proj[j] * chi_pair + dens * cross_j))
        for l in range(j, 4):
            cc = float(np.real(dirs[j] @ np.conj(dirs[l])))
            H[j, l] = H[l, j] = float(
                np.sum(2.0 * proj[j] * proj[l] + dens * cc))
    r = np.linalg.solve(H, rhs)
    chi = chi - (r @ dirs)[:, None, None]
    chi_pair = chi_pair - np.tensordot(r, proj, axes=1)
    cubic = basis.from_grid(2.0 * chi_pair[None, :, :] * z
                            + dens[None, :, :] * chi)
    plus, minus = cubic[:M], cubic[M:2 * M]
    sq = np.sqrt(basis.lam)
    expected = np.concatenate([plus.real / sq, plus.imag / sq,
                               minus.real / sq, minus.imag / sq])
    got = problem.hess_psi(u, v)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_problem_hypotheses():
    basis = build_dirac(1.0, (0.0, 0.0))
    problem, _, _ = ground_state_problem(basis)
    report = check_hypotheses(problem, n_samples=150, seed=3)
    assert report.ok
    assert abs(report.margins["H2"]) <= 1e-12
    assert report.margins["H5"] >= -1e-12


GROWTH_BASES = [(1.0, (0.5, 0.5)), (2.0, (0.5, 0.5)), (1.0, (0.0, 0.0)),
                (1.5, (0.0, 0.0)), (2.0, (0.0, 0.0)), (2.0, (0.0, 0.5))]


@pytest.mark.parametrize("lam_max, delta", GROWTH_BASES)
def test_growth_constant_bounds_adversarial_fields(lam_max, delta):
    # |grad Psi(u)| <= K <grad Psi(u), u>^(3/4) on fields built to
    # concentrate: every plus mode in phase, plus and minus combs (a+ =
    # a- aligns every frequency's C^2 coefficient), the lowest mode alone
    # and random draws.  The largest ratio to K per basis measured
    # 0.32-0.61 here, so K is also not vacuous: within a factor 4 of it.
    basis = build_dirac(lam_max, delta)
    problem, _, _ = ground_state_problem(basis)
    M = basis.n_modes
    sq = np.sqrt(basis.lam)
    plus, minus = np.zeros((2, 4 * M))
    plus[:M] = sq
    minus[2 * M:3 * M] = sq
    lowest = np.zeros(4 * M)
    lowest[0] = 1.0
    rng = np.random.default_rng(71)
    fields = [plus, plus + minus, plus - minus, lowest,
              *rng.standard_normal((4, 4 * M))]
    ratios = []
    for u in fields:
        g = problem.grad_psi(u)
        ratios.append(np.linalg.norm(g) / float(g @ u) ** 0.75 / problem.K)
    assert max(ratios) <= 1.0
    assert max(ratios) >= 0.25


@pytest.mark.parametrize("lam_max, delta", GROWTH_BASES)
def test_growth_constant_sup_step_is_sharp(lam_max, delta):
    # the proof's one step that counts frequencies, sup |psi|^2 <= n_freq
    # |psi|_2^2 / (4 pi^2), holds with equality at x = 0 for the field
    # whose n_freq coefficients are all (sqrt 2, 0): a+ = a- = 1 on
    # every mode, and the kernel too when there is one.  K^2 2 pi
    # lambda_min must give back exactly that count.
    basis = build_dirac(lam_max, delta)
    problem, _, _ = ground_state_problem(basis)
    sp = np.ones(basis.size, dtype=complex)
    sp[2 * basis.n_modes:] = [math.sqrt(2.0), 0.0][:basis.kernel_dim]
    grid = basis.to_grid(sp)
    dens = np.abs(grid[0]) ** 2 + np.abs(grid[1]) ** 2
    l2_sq = float(np.sum(np.abs(sp) ** 2))
    sharp = float(dens.max()) * TWO_PI ** 2 / l2_sq
    assert math.isclose(sharp, basis.n_modes + basis.kernel_dim // 2,
                        rel_tol=1e-12)
    assert math.isclose(problem.K ** 2 * TWO_PI * float(basis.lam.min()),
                        sharp, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# ground states

def test_solve_ground_state_antiperiodic():
    state = solve_ground_state(2.0, (0.5, 0.5), tol=1e-8, seed=0, starts=2)
    assert state.grad_norm <= 1e-8
    assert state.energy > 0.0
    assert abs(state.energy - 0.25 * state.quartic_mass) \
        <= 1e-6 * state.energy
    assert math.isclose(state.gamma_crit, critical_energy(2), rel_tol=1e-14)
    assert math.isclose(state.gamma_crit, math.pi, rel_tol=1e-12)
    summary = state.summary()
    assert sorted(summary) == ["energy", "gamma_crit", "grad_norm",
                               "kernel_dim", "modes", "quartic_mass"]
    assert summary["kernel_dim"] == 0
    rows = state.rows()
    assert len(rows) == 2 * state.basis.n_modes
    assert all(len(r) == 4 for r in rows)
    assert state.psi.shape == (state.basis.size,)

    again = solve_ground_state(2.0, (0.5, 0.5), tol=1e-8, seed=0, starts=2)
    assert again.energy == state.energy


def test_solve_ground_state_with_kernel():
    state = solve_ground_state(2.0, (0.0, 0.0), tol=1e-8, seed=1, starts=2)
    # the mapped point carries its kernel correction and is critical
    # for the full functional, kernel block included
    assert state.grad_norm <= 1e-8
    assert state.energy > 0.0
    assert abs(state.energy - 0.25 * state.quartic_mass) \
        <= 1e-6 * state.energy
    assert state.summary()["kernel_dim"] == 2
    # rows run plus, kernel, minus; the vector holds plus, minus, kernel
    M = state.basis.n_modes
    values = [complex(re, im) for _, _, re, im in state.rows()]
    assert len(values) == 2 * M + 2
    assert np.array_equal(values, np.concatenate(
        (state.psi[:M], state.psi[2 * M:], state.psi[M:2 * M])))


# ground levels found by the descent whose start projections were solved
# to 1e-6 and 1e-7 and whose later ones to gn / 100 and gn / 1000: a
# change to the inner tolerances must leave them at the rounding level
RECORDED_LEVELS = {
    ((0.5, 0.5), 2.0, 0): 3.5809619777045616,
    ((0.5, 0.5), 2.0, 1): 3.5809619777045607,
    ((0.5, 0.5), 4.0, 0): 3.301250020392632,
    ((0.5, 0.5), 4.0, 1): 3.301250020392633,
    ((0.0, 0.0), 2.0, 0): 7.402058517802449,
    ((0.0, 0.0), 2.0, 1): 7.4020585178024465,
    ((0.0, 0.0), 4.0, 0): 6.0158361920335635,
    ((0.0, 0.0), 4.0, 1): 6.015836192033561,
}


@pytest.mark.parametrize("case", sorted(RECORDED_LEVELS))
def test_ground_levels_match_the_recorded_ones(case):
    delta, lam_max, seed = case
    state = solve_ground_state(lam_max, delta, tol=1e-8, seed=seed, starts=1)
    assert math.isclose(state.energy, RECORDED_LEVELS[case], rel_tol=1e-12)


@pytest.mark.parametrize("delta", SPIN_STRUCTURES)
def test_finer_basis_starts_with_the_coarse_modes(delta):
    # refine_ground_state embeds the coarse plus block by position: the
    # modes of a coarser cutoff are the first ones of a finer basis
    for coarse, fine in ((1.0, 1.5), (2.0, 3.5), (3.0, 6.0), (8.0, 16.0)):
        small, large = build_dirac(coarse, delta), build_dirac(fine, delta)
        assert np.array_equal(large.modes[:small.n_modes], small.modes)


def _count_solve_and_refine(monkeypatch):
    """Layer call counts of the solve at cutoff 3 refined to 6, and the
    two solves' outer steps."""
    calls = {"beta": 0, "cg": 0, "hess_psi": 0, "brentq": 0, "slope": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_problem(basis):
        problem, to_coords, from_coords = ground_state_problem(basis)
        hess = counted("hess_psi", problem.hess_psi)
        return (dataclasses.replace(problem, hess_psi=hess), to_coords,
                from_coords)

    monkeypatch.setattr(reduction, "beta", counted("beta", reduction.beta))
    monkeypatch.setattr(reduction, "cg", counted("cg", reduction.cg))
    monkeypatch.setattr(reduction, "brentq",
                        counted("brentq", reduction.brentq))
    monkeypatch.setattr(reduction, "_nehari_slope",
                        counted("slope", reduction._nehari_slope))
    monkeypatch.setattr(dirac_torus, "ground_state_problem", counted_problem)
    coarse = solve_ground_state(3.0, (0.5, 0.5), tol=1e-8, seed=0, starts=2)
    fine = refine_ground_state(coarse, 6.0, tol=1e-8)
    return calls, (coarse.iterations, fine.iterations)


def test_fiber_solves_per_descent_step(monkeypatch):
    # the Nehari projection solves few fibers per descent step and hands
    # the reduced value and gradient at its root to the descent, which
    # solves no fiber of its own; the projection's first fiber starts
    # from the descent's fiber and each fiber velocity solve from the
    # last velocity, each projection starts at the predicted scale, and
    # its scale and fibers are solved to gn / 10 and gn / 100 of the
    # reduced gradient norm where it starts (a start's first too), the
    # velocities to max(1e-6, min(1e-2, tol)), and a Newton step whose
    # chord correction is within tol ends it with no confirming slope;
    # counted on the solve at cutoff 3 refined to 6
    # (without the hand-over: 12.9 CG solves per step; with cold first
    # fibers and velocities: 10.8 CG solves and 57.3 Hessian products;
    # with projections from the last scale and inner tolerances capped
    # at 1e-8 and 1e-6: 3.97 fiber solves, 8.55 CG solves and 44.8
    # Hessian products; with fibers to tol / 1000, velocities to 1e-6
    # and a confirming slope: 4.83 CG solves, 24.3 Hessian products and
    # 1.99 slopes; with a fiber solve of the descent's own at each
    # projected point: 3.01 fiber solves; with a start's first projection
    # at 1e-6 and 1e-7 and later ones at gn / 100 and gn / 1000, over
    # (45, 24) steps: 2.01 fiber solves, 2.93 CG solves, 12.6 Hessian
    # products and 1.13 slopes; measured here: 1.60, 2.19, 8.07 and 1.01)
    calls, iterations = _count_solve_and_refine(monkeypatch)
    assert iterations == (47, 26)
    steps = sum(iterations)
    assert calls["beta"] <= 1.8 * steps
    assert calls["cg"] <= 2.5 * steps
    assert calls["hess_psi"] <= 9.5 * steps
    assert calls["slope"] <= 1.1 * steps


def test_predicted_scales_leave_no_bracketed_projection(monkeypatch):
    # from the predicted scales every Newton step of the projections is
    # accepted, so the fallback (brentq) never runs
    calls, _ = _count_solve_and_refine(monkeypatch)
    assert calls["brentq"] == 0


def test_nehari_result_fiber_solves_the_fiber_equation(monkeypatch):
    # the result's fiber is beta(minimizer) to min(1e-2 tol, 1e-12), so
    # a solve to 1e-12 from it takes at most one Newton step (one CG
    # solve); from zero it takes five
    problem, _, _ = ground_state_problem(build_dirac(3.0, (0.5, 0.5)))
    result = reduction.minimize_nehari(problem, starts=2, tol=1e-8, seed=0,
                                       max_iter=400)
    cold = reduction.beta(problem, result.minimizer, tol=1e-12)
    solves = []
    cg = reduction.cg

    def counted(*args, **kwargs):
        solves.append(1)
        return cg(*args, **kwargs)

    monkeypatch.setattr(reduction, "cg", counted)
    warm = reduction.beta(problem, result.minimizer, tol=1e-12,
                          w0=result.fiber)
    assert len(solves) <= 1
    assert np.linalg.norm(warm - cold) <= 1e-11 * np.linalg.norm(cold)
    assert np.linalg.norm(result.fiber - cold) <= 1e-11 * np.linalg.norm(cold)
