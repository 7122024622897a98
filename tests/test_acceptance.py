"""Acceptance gate: one test per shipped guarantee.

Every test here drives a full route through the public API with pinned
tolerances and sample counts; together they are the contract the
package promises to keep.  They are heavier than the unit suites and
meant for a complete run rather than a quick edit loop, so each test
name carries a stable two-digit index to keep the report ordered.
"""

import json
import math
import time

import numpy as np
import pytest

from spinlab import cli
from spinlab.asymptotics import (
    critical_energy,
    energy_audit,
    j6_leading,
    moment_table,
    radial_I,
    rayleigh_audit,
    residual_audit,
    residual_exponents,
    sphere_volume,
)
from spinlab.clifford import build_rep
from spinlab.curvature import (
    CurvatureJets,
    b_jets,
    det_expansion_check,
    metric_jet,
    random_riemann,
    riemann_project,
)
from spinlab.dirac_torus import (
    T_project,
    build_dirac,
    ground_state_problem,
    refine_ground_state,
    solve_ground_state,
    tilde_phi,
)
from spinlab.jets import jet_space, jmat_identity, jmat_mul
from spinlab.reduction import (
    beta,
    check_hypotheses,
    energy_bound_audit,
    minimize_nehari,
    reduced,
    toy_problem,
)
from spinlab import spinor_fields as sf

TWO_PI = 2.0 * math.pi


# -- 01 ----------------------------------------------------------------------

def test_01_clifford_relations_through_dim_nine():
    """Anticommutators and anti-Hermiticity at 1e-12 for m = 2..9, < 5 s."""
    start = time.perf_counter()
    worst_anti = 0.0
    worst_herm = 0.0
    for m in range(2, 10):
        rep = build_rep(m)
        eye = np.eye(rep.N)
        for i in range(m):
            gi = rep.gamma(i)
            worst_herm = max(worst_herm, float(np.abs(gi + gi.conj().T).max()))
            for j in range(i, m):
                gj = rep.gamma(j)
                res = gi @ gj + gj @ gi + 2.0 * (i == j) * eye
                worst_anti = max(worst_anti, float(np.abs(res).max()))
    elapsed = time.perf_counter() - start
    assert worst_anti <= 1e-12
    assert worst_herm <= 1e-12
    assert elapsed < 5.0


# -- 02 ----------------------------------------------------------------------

def fd_dirac_error(params, x, h):
    """Centered-difference Dirac application minus the exact right side."""
    rep = params.rep
    rhs = sf.psi_norm(params.m, x) ** (2.0 / (params.m - 1)) * sf.psi(params, x)
    d = np.zeros(rep.N, dtype=complex)
    for j in range(params.m):
        e = np.zeros(params.m)
        e[j] = h
        d += rep.gamma(j) @ (sf.psi(params, x + e) - sf.psi(params, x - e)) / (2.0 * h)
    return float(np.linalg.norm(d - rhs))


def test_02_flat_model_spinor_solves_field_equation():
    """Analytic residual at 1e-10 on 1000 points and second-order FD check."""
    for m in range(2, 9):
        params = sf.make_params(m)
        rng = np.random.default_rng(m)
        pts = 1.5 * rng.standard_normal((1000, m))
        worst = float(np.max(sf.dirac_residual(params, pts)))
        assert worst <= 1e-10, f"m={m}: analytic residual {worst:.3e}"

        x = 0.4 * rng.standard_normal(m)
        errs = [fd_dirac_error(params, x, h) for h in (1e-2, 1e-3)]
        slope = math.log(errs[0] / errs[1]) / math.log(10.0)
        assert abs(slope - 2.0) <= 0.2, f"m={m}: FD slope {slope:.3f}"


# -- 03 ----------------------------------------------------------------------

def test_03_quartic_form_zero_spinor_search():
    """A unit zero of the quartic form for 100 random coefficient sets."""
    for m in (4, 5, 6):
        rep = build_rep(m)
        rng = np.random.default_rng(m * 101)
        for _ in range(100):
            A = rng.standard_normal((m,) * 4)
            v = sf.find_psi0(rep, A)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            val = abs(sf.psi0_functional(rep, A, v))
            assert val <= 1e-10, f"m={m}: form value {val:.3e}"

    # in three dimensions the form vanishes identically
    rep = build_rep(3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.standard_normal((3,) * 4)
        v = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        v /= np.linalg.norm(v)
        assert abs(sf.psi0_functional(rep, A, v)) <= 1e-12


# -- 04 ----------------------------------------------------------------------

def test_04_curvature_spinor_identity_on_weyl_tensors():
    """Pointwise curvature identity on 100 trace-free tensors x 100 points."""
    for m in (4, 5, 6):
        params = sf.make_params(m)
        rep = params.rep
        rng = np.random.default_rng(m * 7)
        for _ in range(100):
            R = random_riemann(m, seed=rng, weyl_only=True)
            pts = rng.standard_normal((100, m))
            res = sf.lemma1_identity(rep, R, params, pts, relative=True)
            worst = float(np.max(res))
            assert worst <= 1e-10, f"m={m}: identity residual {worst:.3e}"


# -- 05 ----------------------------------------------------------------------

def random_jets(m, rng):
    first = riemann_project(rng.standard_normal((m,) * 5))
    second = riemann_project(rng.standard_normal((m,) * 6))
    second = 0.5 * (second + second.swapaxes(4, 5))
    return CurvatureJets(m, first, second)


def test_05_metric_square_root_jets():
    """B^2 G = I, B B^{-1} = I and the determinant identity at 1e-12."""
    for m in (4, 5, 6):
        space = jet_space(m, 4)
        eye = jmat_identity(space, m)
        rng = np.random.default_rng(m * 13)
        for _ in range(50):
            R = random_riemann(m, seed=rng)
            jets = random_jets(m, rng)
            G = metric_jet(R, jets)
            B, Binv = b_jets(R, jets)
            bbg = jmat_mul(space, jmat_mul(space, B, B), G)
            assert np.abs(bbg - eye).max() <= 1e-12
            assert np.abs(jmat_mul(space, B, Binv) - eye).max() <= 1e-12
            assert det_expansion_check(R, jets) <= 1e-12


# -- 06 ----------------------------------------------------------------------

def test_06_sphere_volume_recursion_and_moments():
    """Volume recursion at 1e-10 for m = 2..9 and the 3:1 moment ratio."""
    for m in range(2, 10):
        lhs = sphere_volume(m)
        rhs = 2.0 ** m * sphere_volume(m - 1) * radial_I(m)
        assert abs(lhs - rhs) / lhs <= 1e-10, f"m={m}"

    for m, rho in ((4, 10.0), (6, math.inf)):
        table = moment_table(m, rho=rho)
        assert table.M4 / table.M22 == pytest.approx(3.0, abs=1e-8)


# -- 07 ----------------------------------------------------------------------

def test_07_residual_scaling_audits():
    """Fitted residual orders within 0.15 at m = 6 and 8, log flag at m = 7."""
    start = time.perf_counter()
    for m in (6, 8):
        report = residual_audit(m)
        summary = report.summary()
        for name, term in summary["terms"].items():
            if term["expected"] is None:
                continue
            assert term["within_tolerance"], (
                f"m={m} {name}: slope {term['slope']:.3f} "
                f"vs expected {term['expected']:.2f}"
            )
            assert abs(term["slope"] - term["expected"]) <= 0.15
        assert summary["total_floor_ok"]

    # the borderline dimension carries a logarithm in one term
    exps = residual_exponents(7)
    assert exps["A4"] is None
    assert time.perf_counter() - start < 600.0


# -- 08 ----------------------------------------------------------------------

def test_08_energy_expansion_audit():
    """Term-by-term energy expansion at m = 6 on a trace-free second jet."""
    summary = energy_audit(6).summary()

    # odd and cross terms vanish pointwise up to quadrature roundoff
    zero = summary["pointwise_zero_max"]
    assert zero["J1"] <= 1e-12
    assert zero["J5"] <= 1e-12
    assert zero["J7"] <= 1e-12

    # the quadratic term reaches the closed-form limit, and its truncation
    # error decays at the order set by the volume-factor degree
    m = 6
    closed = m ** m * sphere_volume(m - 1) * radial_I(m)
    j2 = summary["J2"]
    assert j2["limit"] == pytest.approx(closed, rel=1e-12)
    assert j2["rel_err"] <= 1e-6
    assert j2["expected_order"] == 5.0
    assert abs(j2["error_slope"] - j2["expected_order"]) <= 0.3

    # the quartic curvature term scales at fourth order with the
    # predicted negative coefficient
    j6 = summary["J6"]
    assert abs(j6["slope"] - 4.0) <= 0.1
    assert j6["negative"]
    assert j6["rel_err"] <= 0.05
    assert j6["coeff"] == pytest.approx(j6["predicted"], rel=0.05)


# -- 09 ----------------------------------------------------------------------

def test_09_rayleigh_quotient_limits():
    """Rayleigh numerator and denominator limits within 1 percent at m = 6."""
    m = 6
    summary = rayleigh_audit(m).summary()
    om = sphere_volume(m)
    num_closed = (m / 2.0) ** (m + 1) * om ** ((m + 1.0) / m)
    den_closed = (m / 2.0) ** m * om
    assert abs(summary["num_limit"] - num_closed) / num_closed <= 0.01
    assert abs(summary["den_limit"] - den_closed) / den_closed <= 0.01
    assert summary["num_rel_err"] <= 0.01
    assert summary["den_rel_err"] <= 0.01
    # strict excess over the threshold survives at the two smallest scales
    assert summary["excess"][-1] > 0.0
    assert summary["excess"][-2] > 0.0
    assert summary["excess_positive_smallest_two"]


# -- 10 ----------------------------------------------------------------------

def five_point_derivative(f, h=1e-3):
    """f'(1) by the five-point rule, exact through quartics."""
    return (8.0 * (f(1.0 + h) - f(1.0 - h))
            - (f(1.0 + 2.0 * h) - f(1.0 - 2.0 * h))) / (12.0 * h)


def test_10_toy_reduction_ground_level_and_hypotheses():
    """Closed-form ground level, fiber uniqueness and sampled estimates."""
    problem = toy_problem()

    result = minimize_nehari(problem, tol=1e-10, seed=0)
    assert abs(result.gamma - 0.25) <= 1e-8

    # the fiber maximizer does not depend on where the solve starts
    rng = np.random.default_rng(42)
    for _ in range(5):
        phi = problem.project(rng.standard_normal(problem.n))
        sols = [beta(problem, phi, tol=1e-12,
                     w0=2.0 * rng.standard_normal(problem.n))
                for _ in range(20)]
        spread = max(float(np.linalg.norm(a - b))
                     for a in sols for b in sols)
        assert spread <= 1e-8

    # sampled Nehari-derivative estimate; closed form (4/3) x^4 on the axis
    kappa = problem.kappa
    assert kappa == pytest.approx(5.0 / 3.0, abs=1e-15)
    rng = np.random.default_rng(0)
    worst_margin = math.inf
    for i in range(10000):
        scale = 10.0 ** rng.uniform(-1.0, 0.7)
        phi = problem.project(scale * rng.standard_normal(problem.n))
        if not np.linalg.norm(phi) > 0.0:
            continue
        k_val = reduced(problem, phi, tol=1e-12)[2]
        dk = five_point_derivative(
            lambda t: reduced(problem, t * phi, tol=1e-12)[2])
        z = phi + beta(problem, phi, tol=1e-12)
        ip = float(problem.grad_psi(z) @ z)
        margin = 2.0 * k_val - (kappa - 1.0) * ip - dk
        worst_margin = min(worst_margin, margin)
        if i < 100:
            x4 = float(phi @ phi) ** 2
            assert margin == pytest.approx(4.0 / 3.0 * x4,
                                           abs=1e-8 * (1.0 + x4))
    assert worst_margin >= -1e-10, f"worst margin {worst_margin:.3e}"

    report = check_hypotheses(problem, n_samples=10000, seed=0)
    assert report.violations["H5"] == 0
    assert report.ok


# -- 11 ----------------------------------------------------------------------

def test_11_energy_envelope_bound():
    """Level bound by the squared gradient with a finite constant."""
    # closed-form model
    problem = toy_problem()
    result = minimize_nehari(problem, tol=1e-10, seed=0)
    z = result.minimizer + beta(problem, result.minimizer, tol=1e-12)
    audit = energy_bound_audit(problem, z, result=result)
    assert audit.bound_ok
    assert math.isfinite(audit.C)
    assert audit.s_grid.min() == pytest.approx(1e-3, rel=1e-12)
    assert audit.s_grid.max() == pytest.approx(1e-1, rel=1e-12)

    # truncated torus functional
    basis = build_dirac(2.0)
    problem, to_coords, from_coords = ground_state_problem(basis)
    result = minimize_nehari(problem, starts=2, tol=1e-8, seed=0)
    z = result.minimizer + beta(problem, result.minimizer, tol=1e-10)
    audit = energy_bound_audit(problem, z, result=result)
    assert audit.bound_ok
    assert math.isfinite(audit.C)
    assert audit.s_grid.min() == pytest.approx(1e-3, rel=1e-12)
    assert audit.s_grid.max() == pytest.approx(1e-1, rel=1e-12)


# -- 12 ----------------------------------------------------------------------

def kernel_oracle(basis, sp):
    """Best constant section by pure grid search, no gradients involved."""
    grid = basis.to_grid(sp)
    dens = (np.abs(grid[0]) ** 2 + np.abs(grid[1]) ** 2).ravel()
    re0, im0 = grid[0].real.ravel(), grid[0].imag.ravel()
    re1, im1 = grid[1].real.ravel(), grid[1].imag.ravel()
    w = basis.quad_weight

    def batch_values(cands):
        g = cands / TWO_PI
        lin = (g[:, 0, None] * re0 + g[:, 1, None] * im0
               + g[:, 2, None] * re1 + g[:, 3, None] * im1)
        gsq = np.sum(g * g, axis=1)
        s = dens[None, :] - 2.0 * lin + gsq[:, None]
        return w * np.sum(s * s, axis=1)

    center, half = np.zeros(4), 3.0
    for _ in range(45):
        axes = [np.linspace(center[i] - half, center[i] + half, 7)
                for i in range(4)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        cands = mesh.reshape(-1, 4)
        center = cands[int(np.argmin(batch_values(cands)))]
        half = 2.0 * (axes[0][1] - axes[0][0])
    return np.array([center[0] + 1j * center[1], center[2] + 1j * center[3]])


def test_12_torus_ground_state_and_kernel_reduction():
    """Truncated ground state, kernel reduction suite, refinement drift."""
    # kernel reduction suite on the spin structure with harmonic spinors
    basis0 = build_dirac(2.0, (0.0, 0.0))
    M = basis0.n_modes
    rng = np.random.default_rng(29)

    def draw(size):
        return 0.7 * (rng.standard_normal(size)
                      + 1j * rng.standard_normal(size))

    # the coefficient vector [plus, minus, kernel], drawn plus, kernel, minus
    plus, kernel, minus = draw(M), draw(2), draw(M)
    sp = np.concatenate((plus, minus, kernel))
    tc = T_project(basis0, sp, tol=1e-13)

    for t in (2.3, -1.7):
        assert np.abs(T_project(basis0, t * sp, tol=1e-13) - t * tc).max() <= 1e-10

    shift = np.array([0.4 - 0.2j, -0.3 + 0.6j])
    moved = np.concatenate((plus, minus, kernel + shift))
    assert np.abs(T_project(basis0, moved, tol=1e-13) - (tc + shift)).max() <= 1e-10

    assert np.abs(kernel_oracle(basis0, sp) - tc).max() <= 1e-6

    # the reduced functional has no gradient along the kernel
    zeroed = np.concatenate((plus, minus, np.zeros(2)))
    _, grad, _ = tilde_phi(basis0, zeroed)
    assert np.linalg.norm(grad[2 * M:]) <= 1e-10

    # ground state at the reference cutoff
    state8 = solve_ground_state(8.0, delta=(0.5, 0.5), tol=1e-8,
                                seed=0, starts=2)
    assert state8.grad_norm <= 1e-8
    assert state8.energy == pytest.approx(0.25 * state8.quartic_mass,
                                          rel=1e-6)
    assert state8.gamma_crit == pytest.approx(critical_energy(2), rel=1e-14)
    assert state8.energy > state8.gamma_crit

    # refinement stability under one mode doubling
    state16 = refine_ground_state(state8, 16.0, tol=1e-8)
    assert state16.grad_norm <= 1e-8
    assert state16.energy == pytest.approx(0.25 * state16.quartic_mass,
                                           rel=1e-6)
    drift = abs(state16.energy - state8.energy) / state8.energy
    assert drift <= 1e-3, (
        "ground level drifts under mode doubling: "
        f"E(8) = {state8.energy:.9f}, E(16) = {state16.energy:.9f}, "
        f"relative drift {drift:.3e} > 1e-3.  The level decreases "
        f"monotonically toward the one-bubble threshold pi = "
        f"{state8.gamma_crit:.9f} (geometric extrapolation of the cutoff "
        "ladder lands within 0.1 percent of it) while the minimizer "
        "density sharpens at every doubling, so no fixed cutoff pair "
        "can meet the bound; the infimum is not attained."
    )


# -- 13 ----------------------------------------------------------------------

def run_twice(argv, capsys):
    codes, outs = [], []
    for _ in range(2):
        codes.append(cli.run(argv))
        outs.append(capsys.readouterr().out)
    return codes, outs


def test_13_cli_runs_are_deterministic(capsys):
    """Identical seeds give byte-identical structured output."""
    for argv in (
        ["verify", "clifford", "--m-max", "5"],
        ["solve", "toy", "--seed", "11"],
        ["solve", "torus", "--spin", "0,0", "--modes", "8", "--seed", "7"],
    ):
        codes, outs = run_twice(argv, capsys)
        assert codes[0] == 0 and codes[1] == 0
        assert outs[0] == outs[1], f"output differs for {argv}"
        json.loads(outs[0])
