"""Reduction-solver tests.

Oracles, in order of appearance: closed forms on the toy split (X the
first axis, quartic nonlinearity), the exact sharp-curvature direction
w = -(2/3) z of the quartic, scipy trust-region maximization of the
fiber functional on a random ten-dimensional quartic, hand formulas for
the separable diagonal instance, a brute-force grid min-max for a
coupled three-dimensional instance, and for the Newton projection
inside its sign bracket a scipy ``brentq`` root and central
differences of K.  The module's own ``cg`` is checked bit for bit
against the scipy routine it ports.
"""

import ast
import dataclasses
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq, minimize
from scipy.sparse.linalg import LinearOperator, cg as scipy_cg

from spinlab import reduction
from spinlab.dirac_torus import (
    build_dirac,
    ground_state_problem,
    solve_ground_state,
)
from spinlab.reduction import (
    EnvelopeAudit,
    IndefiniteProblem,
    NehariResult,
    beta,
    check_hypotheses,
    diagonal_quartic_problem,
    energy_bound_audit,
    minimize_nehari,
    nehari_project,
    reduced,
    toy_problem,
)


def zero_problem(n=2):
    """Psi identically zero: every hypothesis holds except nonvanishing."""
    return IndefiniteProblem(
        n=n, n_x=1,
        psi=lambda z: 0.0,
        grad_psi=lambda z: np.zeros(n),
        hess_psi=lambda z, v: np.zeros(n),
        p=4.0, K=1.0, mu=0.75, kappa=1.5,
    )


def y_only_problem():
    """Psi = y^4 / 4 vanishes along X, so every X-ray is degenerate."""
    return IndefiniteProblem(
        n=2, n_x=1,
        psi=lambda z: 0.25 * z[1] ** 4,
        grad_psi=lambda z: np.array([0.0, z[1] ** 3]),
        hess_psi=lambda z, v: np.array([0.0, 3.0 * z[1] ** 2 * v[1]]),
        p=4.0, K=1.0, mu=0.75, kappa=1.5,
    )


def coupled_quartic_problem(n, k, seed):
    """Psi = (z' A z)^2 / 4 with a random well-conditioned SPD matrix.

    Equivalent to the isotropic quartic under z -> A^(1/2) z, so the
    curvature constant 5/3 carries over; the growth constant follows
    from the eigenvalue range of A.
    """
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = np.eye(n) + 0.3 * (B + B.T) / math.sqrt(n)
    lam = np.linalg.eigvalsh(A)
    assert lam[0] > 0.05

    def psi(z):
        return 0.25 * float(z @ A @ z) ** 2

    def grad(z):
        return float(z @ A @ z) * (A @ z)

    def hess(z, v):
        Az = A @ z
        return 2.0 * float(Az @ v) * Az + float(z @ A @ z) * (A @ v)

    return IndefiniteProblem(
        n=n, n_x=k, psi=psi, grad_psi=grad, hess_psi=hess,
        p=4.0, K=float(lam[-1] / math.sqrt(lam[0])), mu=0.75,
        kappa=5.0 / 3.0,
    ), A


# ---------------------------------------------------------------------------
# problem construction and validation

# the valid fields of the two-dimensional quartic problem
GOOD = dict(
    n=2, n_x=1,
    psi=lambda z: 0.25 * float(z @ z) ** 2,
    grad_psi=lambda z: float(z @ z) * z,
    hess_psi=lambda z, v: float(z @ z) * v + 2.0 * float(z @ v) * z,
    p=4.0, K=1.0, mu=0.75, kappa=5.0 / 3.0,
)


def test_problem_validation():
    assert IndefiniteProblem(**GOOD).n == 2
    for bad in (dict(p=2.0), dict(K=0.0), dict(mu=0.5), dict(mu=1.0),
                dict(kappa=1.0)):
        with pytest.raises(ValueError):
            IndefiniteProblem(**{**GOOD, **bad})
    # X is the first n_x of n >= 2 coordinates; Y may be empty
    assert IndefiniteProblem(**{**GOOD, "n_x": 2}).complement(
        np.ones(2)).tolist() == [0.0, 0.0]
    for n, n_x in ((1, 1), (2, 3)):
        with pytest.raises(ValueError, match="1 <= n_x <= n"):
            IndefiniteProblem(**{**GOOD, "n": n, "n_x": n_x})

    # integer dimensions and an E^0 inside Y, refused before any callback
    # runs; n_x = 1.5 used to construct and then fail with TypeError
    # inside minimize_nehari
    def refuse(z):
        raise AssertionError("a callback ran on refused dimensions")

    for bad, match in ((dict(n=3, n_x=1.5), "must be integers"),
                       (dict(n_0=-1), "0 <= n_0 <= n - n_x"),
                       (dict(n=3, n_0=3), "0 <= n_0 <= n - n_x")):
        with pytest.raises(ValueError, match=match):
            IndefiniteProblem(**{**GOOD, "psi": refuse, **bad})
    with pytest.raises(ValueError):
        IndefiniteProblem(**{**GOOD, "psi": lambda z: 1.0 + float(z @ z)})
    with pytest.raises(ValueError):
        IndefiniteProblem(**{**GOOD, "grad_psi": lambda z: z + 1.0})


def test_problem_refuses_an_empty_x():
    # with X empty every random start projects to zero, and
    # minimize_nehari drew start directions forever
    with pytest.raises(ValueError, match="1 <= n_x <= n"):
        IndefiniteProblem(**{**GOOD, "n_x": 0})


def test_null_block_is_solved_by_the_fiber():
    # the last n_0 coordinates carry no quadratic weight, and the fiber
    # solves for them: Psi is stationary along E^0 at phi + beta(phi),
    # hence minimal there, and the minimizer plus its fiber is critical
    base, _ = coupled_quartic_problem(n=6, k=2, seed=31)
    problem = dataclasses.replace(base, n_0=2)
    z = np.random.default_rng(5).standard_normal(6)
    assert problem.energy(z) == pytest.approx(
        0.5 * (z[:2] @ z[:2] - z[2:4] @ z[2:4]) - problem.psi(z), rel=1e-14)
    assert np.array_equal(problem.energy_gradient(z)[4:],
                          -problem.grad_psi(z)[4:])
    assert problem.negative(z).tolist() == [0.0, 0.0, z[2], z[3], 0.0, 0.0]

    phi = np.array([0.8, -0.5, 0.0, 0.0, 0.0, 0.0])
    w = beta(problem, phi, tol=1e-13)
    g = problem.grad_psi(phi + w)
    assert np.abs(w[2:4] + g[2:4]).max() <= 1e-13
    assert np.abs(g[4:]).max() <= 1e-13
    for e in np.eye(6)[4:]:
        for s in (1e-3, -1e-3):
            assert problem.psi(phi + w + s * e) > problem.psi(phi + w)

    result = minimize_nehari(problem, starts=2, tol=1e-10, seed=0)
    crit = result.minimizer + result.fiber
    assert result.gamma > 0.0
    assert np.linalg.norm(problem.energy_gradient(crit)) <= 1e-9


@pytest.mark.parametrize("bad, match", [
    (dict(psi=lambda z: math.nan), "Psi must vanish"),
    (dict(grad_psi=lambda z: np.full(z.shape, math.nan)), "grad Psi"),
    (dict(p=math.inf), "superquadraticity"),
    (dict(K=math.inf), "growth constant"),
    (dict(kappa=math.inf), "curvature constant"),
])
def test_problem_rejects_nan_and_infinite_constants(bad, match):
    # NaN compares False both ways, so "> tol" checks let it through
    with pytest.raises(ValueError, match=match):
        IndefiniteProblem(**{**GOOD, **bad})


@pytest.mark.parametrize("spectrum", [
    [1.0, -1.0, math.nan], [1.0, -math.inf], [1.0, -1.0, math.inf],
    [math.inf, -1.0],
])
def test_diagonal_problem_rejects_nonfinite_spectrum(spectrum):
    with pytest.raises(ValueError, match="spectrum entries must be finite"):
        diagonal_quartic_problem(spectrum)


def test_toy_callbacks_are_the_plain_quartic():
    # the toy is the diagonal problem of (1, -1, -1), whose scaling is
    # the identity: its callbacks are the unscaled quartic, bit for bit
    prob = toy_problem(3)
    assert (prob.n, prob.n_x) == (3, 1)
    assert (prob.p, prob.K, prob.mu, prob.kappa) == (4.0, 1.0, 0.75, 5.0 / 3.0)
    rng = np.random.default_rng(81)
    for _ in range(5):
        z, v = rng.standard_normal((2, 3))
        zz = float(z @ z)
        assert prob.psi(z) == 0.25 * zz ** 2
        assert np.array_equal(prob.grad_psi(z), zz * z)
        assert np.array_equal(prob.hess_psi(z, v),
                              zz * v + 2.0 * float(z @ v) * z)


def test_energy_closed_form():
    prob = toy_problem()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = rng.standard_normal(2)
        z = np.array([x, y])
        expected = 0.5 * (x * x - y * y) - 0.25 * (x * x + y * y) ** 2
        assert math.isclose(prob.energy(z), expected, rel_tol=1e-14,
                            abs_tol=1e-14)
        gexp = np.array([x - (x * x + y * y) * x, -y - (x * x + y * y) * y])
        assert np.linalg.norm(prob.energy_gradient(z) - gexp) <= 1e-13


# ---------------------------------------------------------------------------
# hypothesis checking

def test_hypotheses_quartic():
    report = check_hypotheses(toy_problem(n=3), n_samples=2000, seed=1)
    assert report.ok
    assert report.failures == ()
    assert report.psi_nonzero
    # the quartic satisfies the scaling identity with equality
    assert abs(report.margins["H2"]) <= 1e-12
    # curvature constant 5/3 is sharp, so margins are nonnegative but
    # can come close to zero
    assert report.margins["H5"] >= -1e-12
    assert report.margins["H3"] >= -1e-12
    assert report.margins["H4"] > 0.0
    assert report.margins["positivity"] >= 0.0
    assert all(v == 0 for v in report.violations.values())
    summary = report.summary()
    assert summary["ok"] is True
    assert summary["failures"] == []


def test_h5_sharp_direction():
    # for Psi = |z|^4 / 4 the curvature inequality with kappa = 5/3
    # degenerates exactly at w = -(2/3) z
    prob = toy_problem(n=4)
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.standard_normal(4) * rng.uniform(0.3, 3.0)
        w = -(2.0 / 3.0) * z
        lhs = float(prob.hess_psi(z, z + w) @ (z + w)) \
            - 2.0 * float(prob.grad_psi(z) @ w)
        rhs = prob.kappa * float(prob.grad_psi(z) @ z)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_hypotheses_zero_nonlinearity():
    report = check_hypotheses(zero_problem(), n_samples=100, seed=2)
    assert not report.psi_nonzero
    assert "H3" in report.failures
    assert not report.ok


def test_hypotheses_violation_named():
    # a quadratic nonlinearity breaks superquadraticity at p = 4
    prob = IndefiniteProblem(
        n=2, n_x=1,
        psi=lambda z: 0.5 * float(z @ z),
        grad_psi=lambda z: np.array(z, dtype=float),
        hess_psi=lambda z, v: np.array(v, dtype=float),
        p=4.0, K=1.0, mu=0.75, kappa=1.5,
    )
    report = check_hypotheses(prob, n_samples=200, seed=3)
    assert "H2" in report.failures
    assert report.margins["H2"] < -1e-12
    assert report.violations["H2"] > 0
    assert not report.ok


def test_check_hypotheses_validation():
    with pytest.raises(ValueError):
        check_hypotheses(toy_problem(), n_samples=0)


# ---------------------------------------------------------------------------
# the inner maximizer

def test_beta_vanishes_on_x_axis():
    # along X the quartic gradient stays on X, so the fiber maximizer
    # sits at the origin of Y
    prob = toy_problem(n=3)
    for x in (0.3, 1.0, 2.5):
        w = beta(prob, np.array([x, 0.0, 0.0]))
        assert np.linalg.norm(w) <= 1e-12


def test_beta_zero_nonlinearity():
    w = beta(zero_problem(), np.array([1.0, 0.0]))
    assert np.all(w == 0.0)


def test_beta_random_quartic_vs_scipy():
    # ten ambient dimensions, three positive; oracle maximizes the
    # fiber functional over Y with a dense trust-region method
    prob, _ = coupled_quartic_problem(n=10, k=3, seed=11)
    rng = np.random.default_rng(12)
    phi = prob.project(rng.standard_normal(10)) * 0.8

    w = beta(prob, phi, tol=1e-12, max_iter=30)
    res = w + prob.complement(prob.grad_psi(phi + w))
    assert np.linalg.norm(res) <= 1e-12

    idx = np.arange(3, 10)

    def embed(y):
        full = np.zeros(10)
        full[idx] = y
        return full

    def f(y):
        return 0.5 * float(y @ y) + prob.psi(phi + embed(y))

    def jac(y):
        return y + prob.grad_psi(phi + embed(y))[idx]

    def hess(y):
        cols = [prob.hess_psi(phi + embed(y), embed(e))[idx]
                for e in np.eye(7)]
        return np.eye(7) + np.array(cols).T

    sols = []
    for _ in range(20):
        y0 = 2.0 * rng.standard_normal(7)
        out = minimize(f, y0, jac=jac, hess=hess, method="trust-exact",
                       options={"gtol": 1e-12})
        # the trust region can stall at float precision before gtol;
        # accept by gradient norm instead of the success flag
        assert np.linalg.norm(jac(out.x)) <= 1e-8
        sols.append(out.x)
    sols = np.array(sols)
    assert np.abs(sols - sols[0]).max() <= 1e-8
    assert np.linalg.norm(w[idx] - sols[0]) <= 1e-6


def test_beta_uniqueness_across_starts():
    prob, _ = coupled_quartic_problem(n=10, k=3, seed=21)
    rng = np.random.default_rng(22)
    phi = prob.project(rng.standard_normal(10))
    ws = [beta(prob, phi, tol=1e-12, w0=3.0 * rng.standard_normal(10))
          for _ in range(20)]
    ws = np.array(ws)
    assert np.abs(ws - ws[0]).max() <= 1e-8


def standing_input():
    """The cutoff-6 (1/2, 1/2) problem and a direction phi of it with
    |phi| = 15.3, on which ``nehari_project`` once failed."""
    rng = np.random.default_rng(5)
    for lam in (3.0, 6.0):
        basis = build_dirac(lam, (0.5, 0.5))
        c = rng.standard_normal(basis.size) \
            + 1j * rng.standard_normal(basis.size)
        prob, to_coords, _ = ground_state_problem(basis)
        z = to_coords(c)
        rng.standard_normal(prob.n)
    phi = 0.5 * prob.project(z)
    assert math.isclose(np.linalg.norm(phi), 15.28, rel_tol=1e-3)
    return prob, phi


def test_beta_stops_at_its_rounding_floor(monkeypatch):
    # inside nehari_project, the fiber at 13.5 phi falls from a residual
    # of 699 to 5.8e-12 in six Newton steps, then rounding holds it there,
    # above the absolute 1e-12, so beta raised "did not converge in 50
    # steps" and the projection failed at its default tolerance; a
    # residual within 1e-15 |grad Psi(phi + w)| (2.26e4 there) is accepted,
    # as it is for the next two Newton steps' fibers, at 10.1 phi and
    # 7.6 phi, from residuals of 1.2 and 0.88
    prob, phi = standing_input()
    ends = []
    fiber = reduction.beta

    def residual(x, w):
        return np.linalg.norm(w + prob.complement(prob.grad_psi(x + w)))

    def recorded(problem, x, tol=1e-12, max_iter=50, w0=None):
        w = fiber(problem, x, tol=tol, max_iter=max_iter, w0=w0)
        first = residual(x, np.zeros(prob.n) if w0 is None else w0)
        floor = 1e-15 * np.linalg.norm(prob.grad_psi(x + w))
        ends.append((tol, first, residual(x, w), floor))
        return w

    monkeypatch.setattr(reduction, "beta", recorded)
    t = nehari_project(prob, phi, t0=1.0)[0]
    assert math.isclose(t, 1.40165314, rel_tol=1e-8)
    assert all(end <= max(tol, floor) for tol, _, end, floor in ends)
    assert [round(first) for tol, first, end, _ in ends if end > tol] \
        == [699, 1, 1]
    _, _, k, _ = reduced(prob, t * phi)
    assert abs(k) <= 1e-12 * float((t * phi) @ (t * phi))


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-6])
def test_beta_floor_does_not_depend_on_the_warm_start(scale):
    # at 13.5 phi of the standing input rounding holds the residual near
    # 3e-12; with the floor at 1e-14 of the first residual, a warm start
    # at the solved fiber raised "did not converge in 50 steps" and one
    # scaled by 1 + 1e-6 "Armijo stalled": the floor now comes from
    # |grad Psi(phi + w)|, whatever the start
    prob, phi = standing_input()
    x = 13.5 * phi
    w = beta(prob, x)
    again = beta(prob, x, w0=scale * w)
    g = prob.grad_psi(x + again)
    assert np.linalg.norm(again + prob.complement(g)) \
        <= 1e-15 * np.linalg.norm(g)
    assert np.linalg.norm(again - w) <= 1e-12 * np.linalg.norm(w)


def test_beta_drops_the_x_part_of_a_warm_start():
    # at 13.5 phi of the standing input, a start at the solved fiber plus
    # 1e-6 of a standard normal over every coordinate raised "Armijo
    # stalled at residual 5.651e-06": the Newton operator leaves out the
    # Y-X block, so a damped step that shrinks the X part ignores what it
    # does to the Y residual; beta starts from the Y part alone
    prob, phi = standing_input()
    x = 13.5 * phi
    w = beta(prob, x)
    start = w + 1e-6 * np.random.default_rng(0).standard_normal(prob.n)
    again = beta(prob, x, w0=start)
    assert np.array_equal(again, beta(prob, x, w0=prob.complement(start)))
    assert np.linalg.norm(again - w) <= 1e-12 * np.linalg.norm(w)


def test_beta_bound_invariant():
    prob, _ = coupled_quartic_problem(n=6, k=2, seed=31)
    rng = np.random.default_rng(32)
    for _ in range(10):
        phi = prob.project(rng.standard_normal(6)) * rng.uniform(0.2, 2.0)
        w = beta(prob, phi, tol=1e-12)
        assert float(w @ w) <= 2.0 * prob.psi(phi) + 1e-10


def test_beta_iteration_cap():
    prob, _ = coupled_quartic_problem(n=6, k=2, seed=41)
    phi = prob.project(np.full(6, 1.0))
    with pytest.raises(RuntimeError, match="did not converge"):
        beta(prob, phi, tol=1e-12, max_iter=1)


def test_beta_validation():
    with pytest.raises(ValueError):
        beta(toy_problem(), np.array([1.0, 0.0]), tol=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_beta_rejects_nonfinite_direction(bad):
    # without the check the CG stopping test max(0, rtol |b|) is NaN and
    # the inner solve ran out its iterations ("inner CG stalled")
    with pytest.raises(ValueError, match="must be finite"):
        beta(toy_problem(), np.array([bad, 0.0]))


@pytest.mark.parametrize("w0", [[math.nan, 0.0], [0.0, math.inf],
                                np.zeros(3), np.zeros((2, 1))])
def test_beta_rejects_bad_warm_start(monkeypatch, w0):
    # before the check a NaN start ran a full CG and raised "inner CG
    # stalled", and a start of the wrong size failed inside numpy
    def no_solve(*args, **kwargs):
        raise AssertionError("a fiber solve ran")

    monkeypatch.setattr(reduction, "cg", no_solve)
    with pytest.raises(ValueError, match="w0 must be finite, of shape"):
        beta(toy_problem(), np.array([1.0, 0.0]), w0=np.array(w0))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_beta_rejects_bad_tolerance(monkeypatch, tol):
    # before the check tol = inf returned the warm start unsolved: the
    # zero fiber on diagonal_quartic_problem([1, 0.7, -0.4])
    def no_solve(*args, **kwargs):
        raise AssertionError("a fiber solve ran")

    monkeypatch.setattr(reduction, "cg", no_solve)
    with pytest.raises(ValueError, match="tolerance must be finite and "
                                         "positive"):
        beta(diagonal_quartic_problem([1.0, 0.7, -0.4]),
             np.array([0.6, 0.8, 0.0]), tol=tol)


# each vector input of the solver: its name and a call on toy_problem(3)
VECTOR_INPUTS = {
    "beta-phi": ("phi", lambda prob, v: beta(prob, v)),
    "beta-w0": ("w0", lambda prob, v: beta(prob, np.array([1.0, 0.0, 0.0]),
                                            w0=v)),
    "nehari_project-phi": ("phi", lambda prob, v: nehari_project(prob, v)),
    "minimize_nehari-initial": (
        "initial", lambda prob, v: minimize_nehari(prob, initial=v)),
    "energy_bound_audit-z": ("z", lambda prob, v: energy_bound_audit(prob, v)),
}
BAD_VECTORS = {"short": np.ones(2), "long": np.ones(4), "one": np.ones(1),
               "column": np.ones((3, 1)),
               "nan": np.array([1.0, math.nan, 0.0])}


@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
@pytest.mark.parametrize("entry", sorted(VECTOR_INPUTS))
def test_vector_inputs_are_refused_by_name(monkeypatch, entry, bad):
    # slices read any length, so each input is checked against (n,);
    # numpy broadcasting once let beta's phi and minimize_nehari's
    # initial of shape (1,) through, to a fiber and to gamma = 0.25
    def no_solve(*args, **kwargs):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(reduction, "cg", no_solve)
    name, call = VECTOR_INPUTS[entry]
    with pytest.raises(ValueError, match=rf"\b{name}\b.*\(3,\)"):
        call(toy_problem(3), BAD_VECTORS[bad])


# ---------------------------------------------------------------------------
# the reduced functional

def test_reduced_toy_closed_form():
    prob = toy_problem()
    for x in (0.2, 0.7, 1.0, 1.6):
        value, grad, k, _ = reduced(prob, np.array([x, 0.0]))
        assert math.isclose(value, 0.5 * x * x - 0.25 * x ** 4,
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(grad[0], x - x ** 3, rel_tol=1e-12,
                            abs_tol=1e-12)
        assert abs(grad[1]) <= 1e-12
        assert math.isclose(k, x * x - x ** 4, rel_tol=1e-12, abs_tol=1e-12)


def test_reduced_returns_its_fiber():
    # the fiber is beta's from the same warm start, and K = <grad J, phi>
    prob, _ = coupled_quartic_problem(n=8, k=3, seed=53)
    rng = np.random.default_rng(54)
    phi = prob.project(rng.standard_normal(8))
    w0 = prob.complement(rng.standard_normal(8))
    for start in (None, w0):
        _, grad, k, w = reduced(prob, phi, tol=1e-11, w0=start)
        assert np.array_equal(w, beta(prob, phi, tol=1e-11, w0=start))
        assert k == float(grad @ phi)


def test_reduced_gradient_norm_identity():
    # the Y-part of grad L at the fiber maximizer is the solver residual,
    # so both gradient norms agree to the inner tolerance
    prob, _ = coupled_quartic_problem(n=8, k=3, seed=51)
    rng = np.random.default_rng(52)
    for _ in range(5):
        phi = prob.project(rng.standard_normal(8)) * rng.uniform(0.3, 1.5)
        value, grad, _, _ = reduced(prob, phi, tol=1e-13)
        w = beta(prob, phi, tol=1e-13)
        full = prob.energy_gradient(phi + w)
        assert abs(np.linalg.norm(grad) - np.linalg.norm(full)) <= 1e-10
        assert math.isclose(value, prob.energy(phi + w), rel_tol=1e-13)


def test_reduced_fd_gradient_order():
    prob, _ = coupled_quartic_problem(n=6, k=2, seed=61)
    rng = np.random.default_rng(62)
    phi = prob.project(rng.standard_normal(6)) * 0.9
    d = prob.project(rng.standard_normal(6))
    d /= np.linalg.norm(d)
    _, grad, _, _ = reduced(prob, phi, tol=1e-13)
    exact = float(grad @ d)

    errs = []
    hs = (1e-2, 1e-3)
    for h in hs:
        jp, _, _, _ = reduced(prob, phi + h * d, tol=1e-13)
        jm, _, _, _ = reduced(prob, phi - h * d, tol=1e-13)
        errs.append(abs((jp - jm) / (2.0 * h) - exact))
    slope = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
    assert abs(slope - 2.0) <= 0.3


def test_hessian_callback_matches_fd():
    prob, _ = coupled_quartic_problem(n=6, k=2, seed=71)
    rng = np.random.default_rng(72)
    z = rng.standard_normal(6)
    v = rng.standard_normal(6)
    exact = prob.hess_psi(z, v)
    errs = []
    hs = (1e-2, 1e-3)
    for h in hs:
        fd = (prob.grad_psi(z + h * v) - prob.grad_psi(z - h * v)) / (2.0 * h)
        errs.append(np.linalg.norm(fd - exact))
    slope = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
    assert abs(slope - 2.0) <= 0.3


def test_fiber_data_at_point():
    # the fiber residual, reduced value, K and Nehari scale at one point
    # of the toy split, as the solver reads them
    prob = toy_problem()
    phi = np.array([0.7, 0.0])
    w = beta(prob, phi, tol=1e-12)
    residual = w + prob.complement(prob.grad_psi(phi + w))
    assert np.linalg.norm(residual) <= 1e-12
    assert float(w @ w) <= 2.0 * prob.psi(phi) + 1e-10
    value, _, k, _ = reduced(prob, phi, tol=1e-12)
    assert math.isclose(value, 0.5 * 0.49 - 0.25 * 0.7 ** 4, rel_tol=1e-12)
    assert math.isclose(k, 0.49 - 0.7 ** 4, rel_tol=1e-12)
    assert math.isclose(nehari_project(prob, phi)[0], 1.0 / 0.7, rel_tol=1e-9)
    # along X the Y-only nonlinearity vanishes: no Nehari scale exists
    with pytest.raises(ValueError, match="ray degenerate"):
        nehari_project(y_only_problem(), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Nehari projection

def test_nehari_project_toy():
    prob = toy_problem()
    t = nehari_project(prob, np.array([1.0, 0.0]))[0]
    assert math.isclose(t, 1.0, rel_tol=0.0, abs_tol=1e-12)
    # K(t x e1) = (tx)^2 - (tx)^4 has its root at t = 1/x
    for x in (0.25, 0.6, 3.0):
        t = nehari_project(prob, np.array([x, 0.0]))[0]
        assert math.isclose(t, 1.0 / x, rel_tol=1e-10)


def test_nehari_scaling_invariance():
    prob, _ = coupled_quartic_problem(n=6, k=2, seed=81)
    rng = np.random.default_rng(82)
    phi = prob.project(rng.standard_normal(6))
    t1 = nehari_project(prob, phi)[0]
    for c in (0.37, 2.9):
        tc = nehari_project(prob, c * phi)[0]
        assert math.isclose(tc, t1 / c, rel_tol=1e-9)


def test_nehari_degenerate_ray():
    with pytest.raises(ValueError, match="ray degenerate"):
        nehari_project(y_only_problem(), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        nehari_project(toy_problem(), np.zeros(2))


def test_nehari_newton_from_far_starts():
    # K(t x e1) = (tx)^2 - (tx)^4: Newton in t, or a safeguarded step of
    # its bracket where K' >= 0 (t < 1 / (sqrt(2) x)), reaches t = 1/x from
    # either side
    prob = toy_problem()
    for x in (0.6, 1.0, 3.0):
        for t0 in (1e-3, 0.5, 2.0, 1e3):
            t = nehari_project(prob, np.array([x, 0.0]), t0=t0)[0]
            assert math.isclose(t, 1.0 / x, rel_tol=1e-10)


def k_along(prob, phi):
    return lambda t: reduced(prob, t * phi, tol=1e-13)[2]


def scipy_root(prob, phi):
    """The root of K along phi by scipy's brentq, bracketed by doubling
    and halving t from 1."""
    k_of = k_along(prob, phi)
    hi = 1.0
    while k_of(hi) > 0.0:
        hi *= 2.0
    lo = hi
    while k_of(lo) <= 0.0:
        lo *= 0.5
    return brentq(k_of, lo, hi, xtol=1e-14)


def test_nehari_newton_matches_bracket_root():
    prob = diagonal_quartic_problem([1.0, 0.7, 2.5, -0.4, -1.3])
    rng = np.random.default_rng(111)
    for _ in range(5):
        phi = prob.project(rng.standard_normal(5))
        oracle = scipy_root(prob, phi)
        for t0 in (0.3, 1.0, 4.0):
            t = nehari_project(prob, phi, t0=t0)[0]
            assert math.isclose(t, oracle, rel_tol=1e-10)


def test_nehari_degenerate_ray_falls_back():
    # along X the Y-only nonlinearity vanishes: K = t^2 and K' = 2t > 0
    # reject the Newton step, and the safeguarded doublings report the ray
    for t0 in (1e-3, 1.0, 1e3):
        with pytest.raises(ValueError, match="ray degenerate"):
            nehari_project(y_only_problem(), np.array([1.0, 0.0]), t0=t0)


def test_nehari_y_ray_is_degenerate():
    # on a ray of Y, K = t^2 |phi|^2 > 0 although the fiber is nonzero
    for t0 in (1e-3, 1.0, 1e3):
        with pytest.raises(ValueError, match="ray degenerate"):
            nehari_project(toy_problem(), np.array([0.0, 1.0]), t0=t0)


@pytest.mark.parametrize("t0", [-1.0, 0.0, math.nan, math.inf])
def test_nehari_rejects_bad_initial_scale(monkeypatch, t0):
    # before the check t0 = -1 solved and then failed the slope check,
    # and t0 = nan was reported as a non-finite fiber direction
    def no_solve(*args, **kwargs):
        raise AssertionError("a fiber solve ran")

    monkeypatch.setattr(reduction, "beta", no_solve)
    with pytest.raises(ValueError, match="t0 must be finite and positive"):
        nehari_project(toy_problem(), np.array([1.0, 0.0]), t0=t0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_nehari_rejects_bad_tolerance(monkeypatch, tol):
    # before the check tol = inf returned t0 = 1, which is not a root
    def no_solve(*args, **kwargs):
        raise AssertionError("a fiber solve ran")

    monkeypatch.setattr(reduction, "beta", no_solve)
    with pytest.raises(ValueError, match="tolerance must be finite and "
                                         "positive"):
        nehari_project(diagonal_quartic_problem([1.0, 0.7, -0.4]),
                       np.array([0.6, 0.8, 0.0]), tol=tol)


def test_nehari_rejects_direction_with_y_part():
    # the Nehari set is met along rays of X; a direction with a Y part
    # has no scale on it (t = 1.342 on (1, 1) had K(t phi_X) = -1.44)
    for phi in ([1.0, 1.0], [1.0, -1e-300]):
        with pytest.raises(ValueError, match="Y part") as info:
            nehari_project(toy_problem(), np.array(phi))
        assert not isinstance(info.value, reduction.DegenerateRay)


def test_nehari_bracket_root_checks_exact_slope(monkeypatch):
    # the projection stops with the slope it computed at its last scale,
    # the root, with no slope solve after it, and a slope there that is
    # not negative is refused; with the slope held at 0 it takes no
    # Newton step, and along 0.3 e1 of the toy the root is 10/3, reached
    # by doubling to 4 and bisecting
    prob = toy_problem()
    calls = []
    slope = reduction._nehari_slope

    def nonnegative(problem, phi, t, *args, **kwargs):
        calls.append(t)
        return 0.0, slope(problem, phi, t, *args, **kwargs)[1]

    assert math.isclose(nehari_project(prob, np.array([0.3, 0.0]), t0=1.0)[0],
                        10.0 / 3.0, rel_tol=1e-10)
    monkeypatch.setattr(reduction, "_nehari_slope", nonnegative)
    with pytest.raises(RuntimeError, match="K slope at the Nehari point"):
        nehari_project(prob, np.array([0.3, 0.0]), t0=1.0)
    assert abs(calls[-1] - 10.0 / 3.0) <= 1e-12
    assert len(calls) == len(set(calls)) > 40


def test_brentq_zero_at_an_endpoint(monkeypatch):
    # the projection returns a scale where K is exactly zero: along 0.5 e1
    # of the toy, K(t) = t^2 / 4 - t^4 / 16 has K' > 0 at t = 1, so the
    # safeguarded step doubles t and lands on the root t = 2
    fibers = []
    fiber = reduction.beta

    def counted(*args, **kwargs):
        fibers.append(1)
        return fiber(*args, **kwargs)

    steps = capture_fallback(monkeypatch)
    monkeypatch.setattr(reduction, "beta", counted)
    t, _, _ = nehari_project(toy_problem(), np.array([0.5, 0.0]), t0=1.0)
    assert t == 2.0
    assert len(fibers) == 2
    assert steps == [2.0]


def capture_fallback(monkeypatch):
    """Every safeguarded step the projection takes, in order."""
    steps = []
    step = reduction.brentq

    def captured(lo, hi):
        steps.append(step(lo, hi))
        return steps[-1]

    monkeypatch.setattr(reduction, "brentq", captured)
    return steps


def capture_slopes(monkeypatch):
    """Every (t, dK/dt) the projection computes, in order."""
    found = []
    slope = reduction._nehari_slope

    def captured(problem, phi, t, *args, **kwargs):
        out = slope(problem, phi, t, *args, **kwargs)
        found.append((t, out[0]))
        return out

    monkeypatch.setattr(reduction, "_nehari_slope", captured)
    return found


def test_fallback_roots_match_scipy_on_random_quartics(monkeypatch):
    # from scales 1e-2 to 1e2 away the projection brackets the root, with
    # safeguarded steps on some rays; it stops with |K| <= tol |K'| at its
    # last slope, and its root matches scipy's brentq on K
    steps = capture_fallback(monkeypatch)
    slopes = capture_slopes(monkeypatch)
    rng = np.random.default_rng(2027)
    tol = 1e-12
    rays_with_steps = 0
    for _ in range(12):
        n = int(rng.integers(3, 8))
        signs = np.where(np.arange(n) < rng.integers(1, n), 1.0, -1.0)
        prob = diagonal_quartic_problem(signs * 10.0 ** rng.uniform(-1, 1, n))
        phi = prob.project(rng.standard_normal(n))
        before = len(steps)
        t, point, _ = nehari_project(
            prob, phi, tol=tol, t0=10.0 ** rng.uniform(-2.0, 2.0),
            fiber_tol=1e-13)
        rays_with_steps += len(steps) > before
        slope = slopes[-1][1]
        assert slope < 0.0
        assert abs(point[2]) <= tol * abs(slope)
        assert math.isclose(t, scipy_root(prob, phi), rel_tol=1e-10)
    assert rays_with_steps > 0


def test_standing_projection_keeps_newton_in_its_bracket(monkeypatch):
    # Newton's first step from t = 1 lands at 13.5, where |K| grows from
    # 114 to 3.8e6; K < 0 there closes the bracket (1, 13.5) and Newton
    # goes on from 13.5 inside it, so no safeguarded step is taken and no
    # fiber is solved twice at one scale (a fresh geometric bracket took
    # 15 solves, three at scales already solved), and it stops at its
    # tolerance with K' < 0
    prob, phi = standing_input()
    steps = capture_fallback(monkeypatch)
    slopes = capture_slopes(monkeypatch)
    scales = []
    fiber = reduction.beta

    def recorded(problem, x, *args, **kwargs):
        scales.append(x.tobytes())
        return fiber(problem, x, *args, **kwargs)

    monkeypatch.setattr(reduction, "beta", recorded)
    t, point, _ = nehari_project(prob, phi, tol=1e-12, t0=1.0,
                                 fiber_tol=1e-12)
    assert steps == []
    slope = slopes[-1][1]
    assert slope < 0.0
    assert abs(point[2]) <= 1e-12 * abs(slope)
    assert len(scales) == len(set(scales)) <= 15


def test_standing_projection_takes_one_slope_per_scale(monkeypatch):
    # one slope at each scale: a step whose |K| grows is kept inside the
    # bracket rather than refused, so the slope at the scale it left is
    # not computed again (a hand-over to a separate fallback loop took
    # 14 slopes at 13 scales, two at t = 1)
    prob, phi = standing_input()
    slopes = capture_slopes(monkeypatch)
    nehari_project(prob, phi, t0=1.0)
    scales = [t for t, _ in slopes]
    assert len(scales) == len(set(scales)) == 14


def test_standing_projection_starts_at_the_predicted_scale(monkeypatch):
    # by default the projection starts at the predicted scale s(u) / |phi|
    # = 1.3677, where Psi is p-homogeneous along u = phi / |phi|, and takes
    # 5 fiber solves; from t0 = 1 Newton's first step lands at 13.5 and it
    # takes 15; the two roots agree to rounding
    prob, phi = standing_input()
    norm = float(np.linalg.norm(phi))
    predicted = reduction._nehari_scale(prob, phi / norm) / norm
    assert math.isclose(predicted, 1.3677, rel_tol=1e-4)
    scales = []
    fiber = reduction.beta

    def recorded(problem, x, *args, **kwargs):
        scales.append(float(x @ phi) / norm ** 2)
        return fiber(problem, x, *args, **kwargs)

    monkeypatch.setattr(reduction, "beta", recorded)
    t = nehari_project(prob, phi)[0]
    assert scales[0] == pytest.approx(predicted, rel=1e-15)
    assert len(scales) <= 5
    del scales[:]
    assert math.isclose(t, nehari_project(prob, phi, t0=1.0)[0], rel_tol=1e-12)
    assert len(scales) == 15


def test_fallback_reports_a_ray_with_no_positive_k(monkeypatch):
    # K > 0 near t = 0 on every ray of X; where a stub keeps K < 0 at
    # every scale, the fallback halves t with no lower end to its bracket
    def negative(problem, phi, tol=1e-12, w0=None):
        return 0.0, np.zeros(problem.n), -1.0, np.zeros(problem.n)

    monkeypatch.setattr(reduction, "reduced", negative)
    with pytest.raises(RuntimeError,
                       match="no positive bracket found near t = 0"):
        nehari_project(toy_problem(), np.array([1.0, 0.0]))


def assert_slope_matches_fd(prob, phi, t):
    k_of = k_along(prob, phi)
    h = 1e-4 * t
    fd = (k_of(t + h) - k_of(t - h)) / (2.0 * h)
    w = beta(prob, t * phi, tol=1e-13)
    slope, dw = reduction._nehari_slope(prob, phi, t, w)
    assert math.isclose(slope, fd, rel_tol=1e-6)
    # dw is the fiber's velocity along the ray
    fd_w = (beta(prob, (t + h) * phi, tol=1e-13)
            - beta(prob, (t - h) * phi, tol=1e-13)) / (2.0 * h)
    assert np.linalg.norm(dw - fd_w) <= 1e-6 * (1.0 + np.linalg.norm(dw))


def test_nehari_slope_matches_central_difference():
    prob = diagonal_quartic_problem([1.0, 0.7, 2.5, -0.4, -1.3])
    rng = np.random.default_rng(121)
    for t in (0.4, 1.1, 2.7):
        phi = prob.project(rng.standard_normal(5))
        assert_slope_matches_fd(prob, phi, t)

    basis = build_dirac(2.0, (0.5, 0.5))
    prob, _, _ = ground_state_problem(basis)
    phi = prob.project(np.random.default_rng(122).standard_normal(prob.n))
    phi /= np.linalg.norm(phi)
    root = nehari_project(prob, phi, tol=1e-10)[0]
    for t in (0.8 * root, root, 1.3 * root):
        assert_slope_matches_fd(prob, phi, t)


def test_converged_newton_step_needs_no_confirming_slope(monkeypatch):
    # K(t x e1) = (tx)^2 - (tx)^4: from 1e-5 off the root one Newton step
    # lands within 1e-10 of it, and the chord step with the slope already
    # at hand stops there; confirming it with a second slope took two
    scales = []
    slope = reduction._nehari_slope

    def counted(problem, phi, t, *args, **kwargs):
        scales.append(t)
        return slope(problem, phi, t, *args, **kwargs)

    monkeypatch.setattr(reduction, "_nehari_slope", counted)
    x = 0.6
    t = nehari_project(toy_problem(), np.array([x, 0.0]), tol=1e-8,
                       t0=(1.0 + 1e-5) / x)[0]
    assert math.isclose(t, 1.0 / x, rel_tol=1e-9)
    assert scales == [(1.0 + 1e-5) / x]


def torus_problem_and_direction():
    prob, _, _ = ground_state_problem(build_dirac(3.0, (0.5, 0.5)))
    phi = prob.project(np.random.default_rng(131).standard_normal(prob.n))
    return prob, phi / np.linalg.norm(phi)


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_projection_stops_within_its_tolerance(tol):
    # the loose fibers (tol / 10), loose velocity solves and the chord
    # stop still place the scale within tol of the root: its Newton
    # correction, from a fiber to 1e-13 and a velocity solve to 1e-12,
    # is at most 2 tol
    diagonal = diagonal_quartic_problem([1.0, 0.7, 2.5, -0.4, -1.3])
    rng = np.random.default_rng(132)
    cases = [(diagonal, diagonal.project(rng.standard_normal(5)), t0)
             for t0 in (0.3, 1.0, 4.0)]
    torus, phi = torus_problem_and_direction()
    cases += [(torus, phi, t0) for t0 in (1.0, 3.0)]
    for prob, phi, t0 in cases:
        t = nehari_project(prob, phi, tol=tol, t0=t0)[0]
        _, _, k, w = reduced(prob, t * phi, tol=1e-13)
        dk, _ = reduction._nehari_slope(prob, phi, t, w, rtol=1e-12)
        assert abs(k / dk) <= 2.0 * tol


def test_psi_positive_and_rays_bounded_away():
    # on the Nehari set the nonlinearity is active and the points stay
    # away from the origin
    prob, _ = coupled_quartic_problem(n=6, k=2, seed=91)
    rng = np.random.default_rng(92)
    norms = []
    for _ in range(10):
        u = prob.project(rng.standard_normal(6))
        u /= np.linalg.norm(u)
        t = nehari_project(prob, u)[0]
        point = t * u
        assert prob.psi(point) > 0.0
        assert prob.psi(point + beta(prob, point)) > 0.0
        norms.append(np.linalg.norm(point))
    assert min(norms) >= 1e-2


def test_k_inequality_along_rays():
    # <grad K(phi), phi> <= 2 K(phi) - (kappa - 1) <grad Psi(z), z>;
    # on the toy ray K(c x e1) is a degree-4 polynomial in c, so the
    # five-point derivative rule is exact and the margin is (4/3) x^4
    prob = toy_problem()
    h = 1e-3
    for x in (0.4, 0.9, 1.3):
        phi = np.array([x, 0.0])

        def k_at(c):
            return reduced(prob, c * phi, tol=1e-13)[2]

        dk = (8.0 * (k_at(1 + h) - k_at(1 - h))
              - (k_at(1 + 2 * h) - k_at(1 - 2 * h))) / (12.0 * h)
        w = beta(prob, phi, tol=1e-13)
        z = phi + w
        ip = float(prob.grad_psi(z) @ z)
        margin = 2.0 * k_at(1.0) - (prob.kappa - 1.0) * ip - dk
        assert margin >= -1e-10
        assert math.isclose(margin, (4.0 / 3.0) * x ** 4, rel_tol=1e-7)

    prob, _ = coupled_quartic_problem(n=6, k=2, seed=101)
    rng = np.random.default_rng(102)
    h = 3e-3
    for _ in range(20):
        phi = prob.project(rng.standard_normal(6)) * rng.uniform(0.3, 1.5)

        def k_at(c):
            return reduced(prob, c * phi, tol=1e-13)[2]

        dk = (8.0 * (k_at(1 + h) - k_at(1 - h))
              - (k_at(1 + 2 * h) - k_at(1 - 2 * h))) / (12.0 * h)
        w = beta(prob, phi, tol=1e-13)
        z = phi + w
        ip = float(prob.grad_psi(z) @ z)
        k0 = k_at(1.0)
        scale = 1.0 + abs(dk) + 2.0 * abs(k0) + abs(ip)
        margin = 2.0 * k0 - (prob.kappa - 1.0) * ip - dk
        assert margin / scale >= -1e-9


# ---------------------------------------------------------------------------
# minimization

def test_minimize_nehari_toy():
    result = minimize_nehari(toy_problem(), starts=4, tol=1e-10, seed=0)
    assert math.isclose(result.gamma, 0.25, rel_tol=0.0, abs_tol=1e-8)
    assert result.grad_norm <= 1e-10
    assert math.isclose(abs(result.minimizer[0]), 1.0, abs_tol=1e-7)
    assert abs(result.minimizer[1]) <= 1e-10
    assert math.isclose(result.nehari_scale, 1.0, abs_tol=1e-7)
    assert result.converged_starts == 4
    assert result.iterations >= 4
    summary = result.summary()
    assert sorted(summary) == ["gamma", "grad_norm", "iterations",
                               "nehari_scale"]


def test_minimize_nehari_diagonal_closed_form():
    # separable quartic: the fiber maximizer vanishes, the level along
    # a direction with X-weight a is 1/(4 a^2), and the slowest positive
    # eigenvalue wins, so gamma = min(d+)^2 / 4, reached by every start
    for spectrum, seed in (([2.0, 0.7, -1.3], 1), ([1.0, -1.0], 0),
                           ([1.0, 0.7, -0.4], 0),
                           ([3.0, 1.5, 0.9, -0.2, -4.0], 0)):
        prob = diagonal_quartic_problem(spectrum)
        result = minimize_nehari(prob, starts=6, tol=1e-10, seed=seed)
        least = min(d for d in spectrum if d > 0.0)
        assert math.isclose(result.gamma, least ** 2 / 4.0, rel_tol=1e-12)
        assert math.isclose(result.nehari_scale, least, rel_tol=1e-6)
        direction = result.minimizer / np.linalg.norm(result.minimizer)
        assert abs(abs(direction[spectrum.index(least)]) - 1.0) <= 1e-5
        assert (result.converged_starts, result.degenerate_starts) == (6, 0)


def test_non_descent_direction_clears_the_memory(monkeypatch):
    # where -H G does not descend (forced here at the third L-BFGS step by
    # returning +G) the step follows the first-step rule and the memory
    # is cleared, so the next direction sees only the pair that step made
    sizes = []
    direction = reduction._lbfgs_direction

    def forced(pairs, grad):
        sizes.append(len(pairs))
        return grad if len(sizes) == 3 else direction(pairs, grad)

    monkeypatch.setattr(reduction, "_lbfgs_direction", forced)
    prob = diagonal_quartic_problem([1.0, 0.7, 2.5, -0.4, -1.3])
    result = minimize_nehari(prob, starts=1, tol=1e-10, seed=0)
    assert sizes[:4] == [1, 2, 3, 1]
    assert math.isclose(result.gamma, 0.7 ** 2 / 4.0, rel_tol=1e-12)


def recorded_projections(monkeypatch, refused=lambda n: False):
    """Every projection of the descent as (u, t0, w0, dw0, tol, fiber_tol,
    point); the level of the n-th (from 1) reads +inf where ``refused(n)``
    holds, so that the descent refuses that trial."""
    calls = []
    root = reduction.nehari_project

    def recorded(problem, phi, tol=1e-12, t0=None, fiber_tol=None, w0=None,
                 dw0=None):
        out = root(problem, phi, tol, t0, fiber_tol=fiber_tol, w0=w0,
                   dw0=dw0)
        calls.append((phi, t0, w0, dw0, tol, fiber_tol, out[1]))
        if refused(len(calls)):
            return out[0], (math.inf,) + out[1][1:], out[2]
        return out

    monkeypatch.setattr(reduction, "nehari_project", recorded)
    return calls


def test_backtracking_trials_start_from_the_accepted_point(monkeypatch):
    # the fourth and fifth projections, the first two trials of the third
    # step, are refused, so that step is accepted at alpha = 1/4; every
    # trial of a step warm starts from the accepted point's fiber and
    # velocity and takes its tolerances from that point's gradient norm,
    # not from the trial it refused, and lies on its step's great circle
    calls = recorded_projections(monkeypatch, lambda n: n in (4, 5))
    prob = diagonal_quartic_problem([1.0, 0.7, 2.5, -0.4, -1.3])
    result = minimize_nehari(prob, starts=1, tol=1e-10, seed=0)
    assert math.isclose(result.gamma, 0.7 ** 2 / 4.0, rel_tol=1e-12)
    inner = min(1e-2 * 1e-10, 1e-12)
    for u, t0, w0, dw0, tol, fiber_tol, _ in calls[1:]:
        accepted = next(c for c in calls if c[6][3] is w0)
        assert all(c[3] is dw0 for c in calls if c[2] is w0)
        gn = float(np.linalg.norm(accepted[6][1]))
        assert tol == max(1e-12, 1e-1 * gn)
        assert fiber_tol == max(inner, 1e-2 * gn)
    # the third step's trials (u + alpha d) / |u + alpha d|, alpha = 1,
    # 1/2 and 1/4, all start from the third point
    base = calls[2][0]
    trials = [c for c in calls if c[2] is calls[2][6][3]]
    assert len(trials) == 3
    d = trials[0][0] * (1.0 / float(trials[0][0] @ base)) - base
    for k, trial in enumerate(trials):
        v = base + 0.5 ** k * d
        assert np.allclose(trial[0], v / np.linalg.norm(v), rtol=0.0,
                           atol=1e-14)


@pytest.mark.parametrize("accepted, refused", [(1, 3), (4, 6)])
def test_halving_cap_retries_the_first_step_once(monkeypatch, accepted,
                                                 refused):
    # with every trial refused after the start's first ``accepted``
    # points, an L-BFGS direction is halved _HALVINGS times, the first-step
    # rule -g / (1 + |g|) is then tried _HALVINGS times with the memory
    # cleared, and the start ends unconverged with its last accepted
    # point in the history; with an empty memory (accepted = 1) the
    # first-step rule is the direction, so it is not tried twice
    monkeypatch.setattr(reduction, "_HALVINGS", 3)
    calls = recorded_projections(monkeypatch, lambda n: n > accepted)
    prob = diagonal_quartic_problem([1.0, 0.7, 2.5, -0.4, -1.3])
    with pytest.raises(RuntimeError, match="no start converged") as err:
        minimize_nehari(prob, starts=1, tol=1e-10, seed=0)
    assert len(calls) == accepted + refused
    u, *_, (value, g, _, _) = calls[accepted - 1]
    gn = float(np.linalg.norm(g))
    assert ast.literal_eval(str(err.value).split("history ", 1)[1]) \
        == [(value, gn)]
    first = -(1.0 / (1.0 + gn)) * g
    first = u + first - float(first @ u) * u
    retry = calls[accepted + refused - 3][0]
    assert np.allclose(retry, first / np.linalg.norm(first), rtol=0.0,
                       atol=1e-15)


def test_first_projection_starts_at_the_predicted_scale(monkeypatch):
    # along e1 of the spectrum (4, -1) the fiber vanishes and the Nehari
    # scale is exactly (4 Psi(e1))^(-1/2) = 4, so the start's first
    # projection solves one fiber; from t = 1, where K' > 0 refuses
    # Newton, it solves three, at t = 1, 2 and 4
    fibers = []
    per_projection = []
    fiber, root = reduction.beta, reduction.nehari_project

    def counted_fiber(*args, **kwargs):
        fibers.append(1)
        return fiber(*args, **kwargs)

    def counted_root(*args, **kwargs):
        before = len(fibers)
        out = root(*args, **kwargs)
        per_projection.append(len(fibers) - before)
        return out

    monkeypatch.setattr(reduction, "beta", counted_fiber)
    monkeypatch.setattr(reduction, "nehari_project", counted_root)
    result = minimize_nehari(diagonal_quartic_problem([4.0, -1.0]),
                             starts=1, initial=np.array([1.0, 0.0]))
    assert per_projection == [1]
    assert result.nehari_scale == 4.0
    assert result.gamma == 4.0


@pytest.mark.parametrize("p", [2.01, 3.0])
def test_loose_p_keeps_the_plain_start(p):
    # p = 2.01 and 3 are valid H2 constants of the quartic, which is not
    # p-homogeneous: (p Psi(u))^(-1/(p-2)) would start the projections far
    # from the root (at p = 2.01 and u = e1, near 1e30, past any bracket),
    # so they start at 1 and at the last scale, as without the prediction
    prob = dataclasses.replace(diagonal_quartic_problem([1.0, 0.7, -0.4]),
                               p=p)
    assert check_hypotheses(prob, n_samples=200).ok
    assert reduction._nehari_scale(prob, np.array([0.6, 0.8, 0.0])) is None
    result = minimize_nehari(prob, starts=8, tol=1e-10, seed=0)
    assert math.isclose(result.gamma, 0.7 ** 2 / 4.0, rel_tol=1e-12)


def test_descent_fiber_solves_reuse_the_projected_fiber(monkeypatch):
    # the projection solves its fibers to the descent's own tolerance and
    # hands over the reduced value and gradient at its root, so outside
    # the projection the descent runs no CG and only one fiber solve, the
    # winning fiber's to min(1e-2 tol, 1e-12); at tol 1e-12 the descent
    # used to re-solve each handed-over fiber, with 7 CG solves
    solves = {"projection": 0, "descent": 0}
    inside = []
    fibers = []
    root, cg, fiber = reduction.nehari_project, reduction.cg, reduction.beta

    def marked_root(*args, **kwargs):
        inside.append(1)
        try:
            return root(*args, **kwargs)
        finally:
            inside.pop()

    def counted_cg(*args, **kwargs):
        solves["projection" if inside else "descent"] += 1
        return cg(*args, **kwargs)

    def counted_fiber(*args, **kwargs):
        fibers[-1] += not inside
        return fiber(*args, **kwargs)

    monkeypatch.setattr(reduction, "nehari_project", marked_root)
    monkeypatch.setattr(reduction, "cg", counted_cg)
    monkeypatch.setattr(reduction, "beta", counted_fiber)
    torus, _ = torus_problem_and_direction()
    coupled = coupled_quartic_problem(n=6, k=2, seed=41)[0]
    for problem, kwargs in ((torus, dict(starts=2, tol=1e-8)),
                            (torus, dict(starts=2, tol=1e-12)),
                            (coupled, dict(starts=4))):
        fibers.append(0)
        minimize_nehari(problem, seed=0, **kwargs)
    assert solves["projection"] > 0
    assert solves["descent"] == 0
    assert fibers == [1, 1, 1]


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_every_projection_takes_its_tolerances_from_one_rule(tol,
                                                             monkeypatch):
    # inexact Newton: each projection of the descent solves the scale to
    # max(1e-12, gn / 10) and the fibers to max(inner, gn / 100), inner =
    # min(1e-2 tol, 1e-12), gn the reduced gradient norm at the point it
    # starts from; that is the accepted point's, whose fiber is the warm
    # start (every backtracking trial from it too, not the last rejected
    # root's), and for a start's first projection the zero fiber's at its
    # starting scale (which used to take the fixed 1e-6 and 1e-7)
    calls = []
    root = reduction.nehari_project

    def recorded(problem, phi, tol=1e-12, t0=None, fiber_tol=None, w0=None,
                 dw0=None):
        out = root(problem, phi, tol, t0, fiber_tol=fiber_tol, w0=w0,
                   dw0=dw0)
        calls.append((phi, t0, w0, tol, fiber_tol, out[1]))
        return out

    monkeypatch.setattr(reduction, "nehari_project", recorded)
    problem, _ = torus_problem_and_direction()
    minimize_nehari(problem, starts=2, tol=tol, seed=0)
    inner = min(1e-2 * tol, 1e-12)
    for phi, t0, w0, scale_tol, fiber_tol, _ in calls:
        if w0 is None:
            grad = t0 * phi - problem.project(problem.grad_psi(t0 * phi))
        else:
            grad = next(point[1] for *_, point in calls if point[3] is w0)
        gn = float(np.linalg.norm(grad))
        assert math.isclose(scale_tol, max(1e-12, 1e-1 * gn), rel_tol=1e-12)
        assert math.isclose(fiber_tol, max(inner, 1e-2 * gn), rel_tol=1e-12)
    assert sum(w0 is None for _, _, w0, *_ in calls) == 2
    assert len(calls) > 20
    # at 1e-12 the step is halved 3 times: trials that share a warm start
    starts = [id(w0) for _, _, w0, *_ in calls if w0 is not None]
    assert tol > 1e-12 or len(starts) > len(set(starts))


def grid_min_max(prob, A, n_theta=600):
    """Brute-force min over X-directions of max over the (t, w) fiber.

    The coupled three-dimensional quartic makes L closed-form on each
    fiber: with q(t, w) = t^2 a + 2 t w b + w^2 c quadratic in (t, w),
    L = t^2/2 - w^2/2 - q^2/4.  Three grid refinements per direction
    reach fiber maxima to about 1e-8; a parabolic fit in theta polishes
    the outer minimum.
    """
    e3 = np.array([0.0, 0.0, 1.0])

    def fiber_max(theta):
        phi = np.array([math.cos(theta), math.sin(theta), 0.0])
        a = float(phi @ A @ phi)
        b = float(phi @ A @ e3)
        c = float(e3 @ A @ e3)
        tlo, thi, wlo, whi = 1e-4, 4.0, -2.5, 2.5
        for _ in range(3):
            t = np.linspace(tlo, thi, 81)
            w = np.linspace(wlo, whi, 81)
            T, W = np.meshgrid(t, w, indexing="ij")
            q = a * T * T + 2.0 * b * T * W + c * W * W
            val = 0.5 * T * T - 0.5 * W * W - 0.25 * q * q
            i, j = np.unravel_index(np.argmax(val), val.shape)
            dt, dw = t[1] - t[0], w[1] - w[0]
            tlo, thi = max(t[i] - 2 * dt, 1e-6), t[i] + 2 * dt
            wlo, whi = w[j] - 2 * dw, w[j] + 2 * dw
        return float(val[i, j])

    thetas = np.linspace(0.0, math.pi, n_theta, endpoint=False)
    levels = np.array([fiber_max(th) for th in thetas])
    i = int(np.argmin(levels))
    # parabolic refinement through the three neighbors of the grid min
    left = levels[(i - 1) % n_theta]
    right = levels[(i + 1) % n_theta]
    denom = left - 2.0 * levels[i] + right
    if denom > 0.0:
        shift = 0.5 * (left - right) / denom
        return float(levels[i] - 0.25 * (left - right) * shift)
    return float(levels[i])


def test_minimize_nehari_grid_oracle():
    prob, A = coupled_quartic_problem(n=3, k=2, seed=111)
    result = minimize_nehari(prob, starts=6, tol=1e-10, seed=2)
    oracle = grid_min_max(prob, A)
    assert abs(result.gamma - oracle) <= 1e-4
    assert result.grad_norm <= 1e-10
    assert prob.psi(result.minimizer) > 0.0


def test_minimize_nehari_all_degenerate():
    with pytest.raises(RuntimeError, match="degenerate"):
        minimize_nehari(y_only_problem(), starts=3, seed=0)


def test_minimize_nehari_counts_degenerate_starts():
    # X = span(e1, e2) and Psi = (z1^2 + z3^2)^2 / 4 vanishes along e2:
    # the initial direction e2 is a degenerate ray, the random start is not
    s = np.array([1.0, 0.0, 1.0])
    prob = IndefiniteProblem(
        n=3, n_x=2,
        psi=lambda z: 0.25 * float((s * z) @ z) ** 2,
        grad_psi=lambda z: float((s * z) @ z) * s * z,
        hess_psi=lambda z, v: (float((s * z) @ z) * s * v
                               + 2.0 * float((s * z) @ v) * s * z),
        p=4.0, K=1.0, mu=0.75, kappa=5.0 / 3.0,
    )
    result = minimize_nehari(prob, starts=2, seed=3,
                             initial=np.array([0.0, 1.0, 0.0]))
    assert result.degenerate_starts == 1
    assert result.converged_starts == 1
    assert math.isclose(result.gamma, 0.25, rel_tol=1e-8)


def test_minimize_nehari_propagates_callback_value_error():
    # a ValueError from the problem's own callback is not a degenerate ray
    base = toy_problem()

    def psi(z):
        if np.any(z != 0.0):
            raise ValueError("callback failed")
        return base.psi(z)

    prob = IndefiniteProblem(
        n=base.n, n_x=base.n_x, psi=psi, grad_psi=base.grad_psi,
        hess_psi=base.hess_psi, p=4.0, K=1.0, mu=0.75, kappa=5.0 / 3.0)
    with pytest.raises(ValueError, match="callback failed"):
        minimize_nehari(prob, starts=3, seed=0)


def test_multistart_keeps_earliest_of_equal_levels():
    # the starts reach one level up to its last bits (3.580961977704561
    # and ...5603 on the torus); the earliest of them wins, so adding
    # starts leaves the state as a single start finds it
    one = solve_ground_state(2.0, starts=1)
    two = solve_ground_state(2.0, starts=2)
    assert one.psi.tobytes() == two.psi.tobytes()
    assert one.nehari_scale == two.nehari_scale
    prob = diagonal_quartic_problem([1.0, 0.7, -0.4])
    one = minimize_nehari(prob, starts=1)
    eight = minimize_nehari(prob, starts=8)
    assert eight.converged_starts == 8
    assert one.minimizer.tobytes() == eight.minimizer.tobytes()
    assert one.gamma == eight.gamma


def test_minimize_nehari_validation():
    with pytest.raises(ValueError):
        minimize_nehari(toy_problem(), starts=0)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
def test_minimize_nehari_rejects_bad_tolerance(tol):
    # tol = 0 used to end in "Armijo stalled" deep inside the descent
    with pytest.raises(ValueError, match="tolerance"):
        minimize_nehari(toy_problem(), tol=tol)


def test_minimize_nehari_rejects_nonfinite_initial():
    with pytest.raises(ValueError, match="initial direction"):
        minimize_nehari(toy_problem(), initial=np.array([math.nan, 0.0]))


@pytest.mark.parametrize("max_iter", [0, -1])
def test_minimize_nehari_rejects_no_iterations(max_iter):
    # max_iter = 0 used to report "no start converged" with (inf, inf)
    with pytest.raises(ValueError, match="iteration"):
        minimize_nehari(toy_problem(), max_iter=max_iter)


def test_minimize_nehari_history_holds_plain_floats():
    # the failure message reaches stderr, where np.float64(...) reprs
    # depended on the numpy version; each entry pairs a start's last
    # level with the gradient norm at that same iterate
    prob = diagonal_quartic_problem([1.0, 0.7, -0.4])
    for max_iter, history in (
            (1, [(0.16663122287003615, 0.14265225990031857),
                 (0.1252603686267706, 0.04049790354387913)]),
            (2, [(0.15326514456660018, 0.125586298686756),
                 (0.12425883241866884, 0.0323856902272616)])):
        with pytest.raises(RuntimeError, match="no start converged") as err:
            minimize_nehari(prob, starts=2, max_iter=max_iter)
        assert "np.float64" not in str(err.value)
        np.testing.assert_allclose(
            ast.literal_eval(str(err.value).split("history ", 1)[1]),
            history, rtol=1e-12)
    result = minimize_nehari(prob, starts=2)
    assert result.history
    for entry in result.history:
        assert all(type(x) is float for x in entry)


# ---------------------------------------------------------------------------
# energy envelope

def test_energy_bound_exact_critical_point():
    # z = e1 is an exact critical point of L at the ground level
    prob = toy_problem()
    z = np.array([1.0, 0.0])
    audit = energy_bound_audit(prob, z, seed=4)
    assert audit.bound_ok
    assert audit.gamma <= prob.energy(z) + 1e-10
    assert math.isfinite(audit.C)
    assert audit.grad_norm_at_z <= 1e-12
    assert math.isclose(audit.energy_at_z, 0.25, rel_tol=1e-14)
    assert audit.deficits.shape == audit.grad_sq.shape
    summary = audit.summary()
    assert sorted(summary) == ["C", "bound_ok", "energy_at_z", "gamma",
                               "grad_norm_at_z"]


def test_energy_bound_perturbed_point():
    # slightly off the critical point the deficit must stay dominated by
    # the squared gradient with a finite constant
    prob = toy_problem()
    z = np.array([1.02, 0.01])
    audit = energy_bound_audit(prob, z, seed=5)
    assert audit.bound_ok
    assert math.isfinite(audit.C)
    worst = np.max(audit.deficits - audit.C * audit.grad_sq)
    assert worst <= 1e-10


def test_energy_bound_validation():
    prob = toy_problem()
    with pytest.raises(ValueError, match="positive energy"):
        energy_bound_audit(prob, np.array([0.0, 1.0]))


@pytest.mark.parametrize("s_grid", [[math.nan], [], [1e-2, math.inf],
                                    [1e-2, 0.0], [-1e-2], [[1e-2, 1e-1]]])
def test_energy_bound_rejects_bad_s_grid_before_solving(s_grid, monkeypatch):
    # these grids used to report bound_ok with C = 0.0, 0.0 and 0.254
    def unreachable(*args, **kwargs):
        raise AssertionError("minimize_nehari ran before the grid check")

    monkeypatch.setattr(reduction, "minimize_nehari", unreachable)
    with pytest.raises(ValueError, match="s_grid"):
        energy_bound_audit(toy_problem(), np.array([1.02, 0.01]),
                           s_grid=s_grid)


# ---------------------------------------------------------------------------
# the in-house CG against scipy

def spd_system(rng, n, spread):
    """Random symmetric positive definite matrix, eigenvalues in
    [1, 10^spread], and a right-hand side."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * np.logspace(0.0, spread, n)) @ q.T
    return 0.5 * (A + A.T), rng.standard_normal(n)


@pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-12])
def test_cg_matches_scipy_bitwise(rtol):
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        A, b = spd_system(rng, n, rng.uniform(0.0, 4.0))
        for maxiter in (None, 3):
            want = scipy_cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter)
            got = reduction.cg(lambda v: A @ v, b, rtol=rtol,
                               maxiter=maxiter)
            assert got[1] == want[1]
            assert np.array_equal(got[0], want[0])


def test_cg_stops_at_maxiter_like_scipy():
    rng = np.random.default_rng(5)
    A, b = spd_system(rng, 30, 4.0)
    x, info = reduction.cg(lambda v: A @ v, b, rtol=1e-12, maxiter=3)
    want = scipy_cg(A, b, rtol=1e-12, maxiter=3)
    assert info == want[1] == 3
    assert np.array_equal(x, want[0])


def test_cg_edge_cases_match_scipy():
    # a zero right-hand side returns at once; at rtol = 1 the first
    # residual equals the threshold, and the strict test takes one step
    A = np.diag([1.0, 2.0, 3.0])
    for b, rtol in ((np.zeros(3), 1e-5), (np.array([1.0, 0.0, 0.0]), 1.0)):
        x, info = reduction.cg(lambda v: A @ v, b, rtol=rtol)
        want = scipy_cg(A, b, rtol=rtol)
        assert info == want[1] == 0
        assert np.array_equal(x, want[0])
    assert x[0] == 1.0


@pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-12])
def test_cg_warm_start_matches_scipy_bitwise(rtol):
    # from a zero, a random and the exact start, with scipy's count of
    # products: an all-zero start takes none for its first residual; the
    # start itself is never updated in place
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        A, b = spd_system(rng, n, rng.uniform(0.0, 4.0))
        for x0 in (np.zeros(n), rng.standard_normal(n),
                   np.linalg.solve(A, b)):
            kept = x0.copy()
            for maxiter in (None, 3):
                products = {"scipy": 0, "port": 0}

                def counted(key):
                    def apply(v):
                        products[key] += 1
                        return A @ v
                    return apply

                op = LinearOperator(A.shape, matvec=counted("scipy"),
                                    dtype=float)
                want = scipy_cg(op, b, x0=x0, rtol=rtol, atol=0.0,
                                maxiter=maxiter)
                got = reduction.cg(counted("port"), b, rtol=rtol,
                                   maxiter=maxiter, x0=x0)
                assert got[1] == want[1]
                assert np.array_equal(got[0], want[0])
                assert products["port"] == products["scipy"]
            assert np.array_equal(x0, kept)


def test_solver_kernels_stay_private():
    # the benchmark's tracer wraps cg and brentq once each by name
    # (brentq is the Nehari projection's safeguarded step, under the name
    # the tracer binds); a public name would be wrapped a second time
    assert callable(reduction.cg) and callable(reduction.brentq)
    assert "cg" not in reduction.__all__
    assert "brentq" not in reduction.__all__
    # it also binds by name the basis transforms, the audit engine's
    # methods and the problem callbacks of ground_state_problem's 3-tuple:
    # installing it and building a kernel problem fails on any rename, and
    # calling the callbacks must record a span for every layer the torus
    # workloads report, so a cache that bypasses one fails too; a descent
    # on that problem must record fiber and CG spans, with no fiber solve
    # inside another, and the outer-step count the solver reports
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root / "bench")]
    code = ("import sys\n"
            f"sys.path[:0] = {paths!r}\n"
            "import tracer\n"
            "import numpy as np\n"
            "tr = tracer.Tracer()\n"
            "tracer.install(tr)\n"
            "from spinlab import dirac_torus as dt\n"
            "basis = dt.build_dirac(1.0, (0, 0))\n"
            "prob, _, _ = dt.ground_state_problem(basis)\n"
            "u = np.linspace(0.5, 1.5, prob.n)\n"
            "prob.psi(u), prob.grad_psi(u), prob.hess_psi(u, u[::-1].copy())\n"
            "seen = {span[0] for span in tr.spans}\n"
            "names = ['dirac_torus.' + s for s in ('psi', 'grad_psi', "
            "'hess_psi', 'to_grid', 'from_grid')]\n"
            "missing = [n for n in names if n not in seen]\n"
            "assert not missing, missing\n"
            "from spinlab import reduction\n"
            "reduction.minimize_nehari(prob, starts=1, tol=1e-8, seed=0)\n"
            "seen = {span[0] for span in tr.spans}\n"
            "assert {'reduction.beta', 'reduction.cg'} <= seen, seen\n"
            "assert tr.counters.get('reduction.outer_iterations', 0) > 0\n"
            "for name, _, _, parent in tr.spans:\n"
            "    while name == 'reduction.beta' and parent >= 0:\n"
            "        assert tr.spans[parent][0] != name, 'nested fiber'\n"
            "        parent = tr.spans[parent][3]\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr


def test_audit_layers_record_their_spans():
    # the audit workload reports the two drivers and the engine's set-up
    # and per-scale sweep; with the tracer installed, a light m = 5
    # residual and energy audit must record a span for each of them
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), str(root / "bench")]
    code = ("import sys\n"
            f"sys.path[:0] = {paths!r}\n"
            "import tracer\n"
            "import numpy as np\n"
            "tr = tracer.Tracer()\n"
            "tracer.install(tr)\n"
            "from spinlab import asymptotics\n"
            "from spinlab.quadrature import sphere_rule\n"
            "kw = dict(eps_grid=np.geomspace(1e-1, 1e-2, 4),\n"
            "          rule=sphere_rule(5, 2), n_leg=4)\n"
            "asymptotics.residual_audit(5, **kw)\n"
            "asymptotics.energy_audit(5, **kw)\n"
            "seen = {span[0] for span in tr.spans}\n"
            "names = ['asymptotics.' + s for s in ('residual_audit', "
            "'energy_audit', 'engine_init', 'terms')]\n"
            "missing = [n for n in names if n not in seen]\n"
            "assert not missing, missing\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr


def test_import_leaves_scipy_unloaded():
    code = ("import sys, spinlab.reduction; "
            "print(any(k.split('.')[0] == 'scipy' for k in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
