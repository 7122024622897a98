"""Ground states of strongly indefinite functionals by reduction.

The object of study is

    L(z) = (|Pz|^2 - |(I - P)z|^2) / 2 - Psi(z)

on R^n, where the positive subspace X is spanned by a set of coordinate
axes and the negative subspace Y by the others, P is the orthogonal
projection onto X, and Psi is a convex superquadratic nonlinearity
supplied through callbacks.  Because L is strictly concave along Y,
each X-component phi owns a unique fiber maximizer beta(phi);
eliminating Y this way leaves a reduced functional J on X whose
critical points are exactly those of L.  Ground states are then found
by minimizing J over its Nehari set {K = <grad J, phi> = 0}.  Along a
ray t phi of X, K has a simple root with dK/dt < 0 (Szulkin and Weth,
"The method of Nehari manifold", 2010), so the projection onto the set
is Newton's method in t kept inside a sign bracket of K (rtsafe,
Numerical Recipes, 3rd ed., sec. 9.4), whose slope differentiates the
fiber through one linear solve, held to the step's accuracy (inexact
Newton: Dembo, Eisenstat and Steihaug, 1982).

The module exposes the hypothesis checker for the structural conditions
the reduction needs (labelled H1 to H5 throughout), the inner maximizer,
the reduced functional, Nehari projection and minimization, and an audit
of the quadratic energy envelope gamma <= L(z) + C |grad L(z)|^2 that
approximate critical points must satisfy.

All constants (p, K, mu, kappa) are part of the problem statement and
are validated, never inferred.

The module runs on numpy alone.  Its linear solver ``cg`` is the
unpreconditioned conjugate gradient method (Hestenes and Stiefel, J. Res.
NBS 49, 1952), written out to take exactly the steps
``scipy.sparse.linalg.cg`` takes from a given x0, so results are
bit-identical to a solver built on scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import math
from typing import Callable

import numpy as np

__all__ = [
    "IndefiniteProblem",
    "DegenerateRay",
    "HypothesisReport",
    "NehariResult",
    "EnvelopeAudit",
    "toy_problem",
    "diagonal_quartic_problem",
    "check_hypotheses",
    "beta",
    "reduced",
    "nehari_project",
    "minimize_nehari",
    "energy_bound_audit",
]

HYPOTHESES = ("H1", "H2", "H3", "H4", "H5", "positivity")


@dataclass(frozen=True)
class IndefiniteProblem:
    """Splitting, nonlinearity callbacks and structural constants.

    X is spanned by the coordinate axes where ``x_mask`` is true and Y
    by the rest, so ``project`` zeroes the Y coordinates; ``n`` is the
    mask's size.  ``hess_psi(z, v)`` applies the Hessian of Psi at z to
    v; the solver never needs the dense matrix.
    """

    x_mask: np.ndarray
    psi: Callable[[np.ndarray], float]
    grad_psi: Callable[[np.ndarray], np.ndarray]
    hess_psi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p: float
    K: float
    mu: float
    kappa: float

    def __post_init__(self):
        mask = np.asarray(self.x_mask)
        if mask.dtype != bool or mask.ndim != 1 or mask.size < 2:
            raise ValueError("x_mask must be a 1-d boolean array, size >= 2")
        object.__setattr__(self, "x_mask", mask)
        if not 2.0 < self.p < math.inf:
            raise ValueError("superquadraticity needs finite p > 2")
        if not 0.0 < self.K < math.inf:
            raise ValueError("growth constant K must be finite and positive")
        if not 0.5 < self.mu < 1.0:
            raise ValueError("growth exponent mu must lie in (1/2, 1)")
        if not 1.0 < self.kappa < math.inf:
            raise ValueError("curvature constant kappa must be finite, > 1")
        # "not <=" so that a NaN fails too
        zero = np.zeros(self.n)
        if not abs(self.psi(zero)) <= 1e-12:
            raise ValueError("Psi must vanish at the origin")
        if not np.linalg.norm(self.grad_psi(zero)) <= 1e-12:
            raise ValueError("grad Psi must vanish at the origin")

    # -- splitting helpers ------------------------------------------------

    @property
    def n(self) -> int:
        return self.x_mask.size

    def project(self, z: np.ndarray) -> np.ndarray:
        return np.where(self.x_mask, z, 0.0)

    def complement(self, z: np.ndarray) -> np.ndarray:
        return np.where(self.x_mask, 0.0, z)

    def energy(self, z: np.ndarray) -> float:
        zx = self.project(z)
        zy = z - zx
        return 0.5 * (zx @ zx - zy @ zy) - self.psi(z)

    def energy_gradient(self, z: np.ndarray) -> np.ndarray:
        zx = self.project(z)
        return zx - (z - zx) - self.grad_psi(z)


def toy_problem(n: int = 2) -> IndefiniteProblem:
    """X = span(e1), Y its complement, Psi = |z|^4 / 4.

    The diagonal problem of (1, -1, ..., -1), with identity scaling.  Its
    reduced functional along X is x^2/2 - x^4/4, with ground level 1/4
    at x = +-1.  The curvature constant 5/3 is sharp for this quartic.
    """
    return diagonal_quartic_problem([1.0] + [-1.0] * (n - 1))


def diagonal_quartic_problem(spectrum) -> IndefiniteProblem:
    """Quartic problem whose quadratic part has the given diagonal.

    A quadratic form sum d_i z_i^2 / 2 with nonzero entries rescales to
    the unit indefinite form by z_i -> z_i / sqrt(|d_i|); the |z|^4 / 4
    nonlinearity becomes |S z|^4 / 4 with S the scaling.  The curvature
    constant is unchanged by the linear substitution; the growth constant
    picks up the largest scaling factor.  Entries must be finite: an
    infinite one would drop its coordinate out of Psi.
    """
    d = np.asarray(spectrum, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("spectrum must be a vector of length >= 2")
    if not np.isfinite(d).all():
        raise ValueError("spectrum entries must be finite")
    if np.any(d == 0.0):
        raise ValueError("spectrum entries must be nonzero")
    if not (np.any(d > 0.0) and np.any(d < 0.0)):
        raise ValueError("spectrum must be indefinite (both signs)")
    s = 1.0 / np.sqrt(np.abs(d))
    s2 = s * s

    def psi(z):
        w = s * z
        return 0.25 * float(w @ w) ** 2

    def grad(z):
        w2 = float((s * z) @ (s * z))
        return w2 * s2 * z

    def hess(z, v):
        w2 = float((s * z) @ (s * z))
        return w2 * s2 * v + 2.0 * float((s2 * z) @ v) * s2 * z

    return IndefiniteProblem(
        x_mask=d > 0.0, psi=psi, grad_psi=grad, hess_psi=hess,
        p=4.0, K=max(1.0, float(s.max())), mu=0.75, kappa=5.0 / 3.0,
    )


class DegenerateRay(ValueError):
    """K(t) stays positive along the ray, so it never meets the Nehari set."""

    def __init__(self, msg="ray degenerate: K stays positive along the ray"):
        super().__init__(msg)


# ---------------------------------------------------------------------------
# hypothesis checking

@dataclass(frozen=True)
class HypothesisReport:
    """Worst normalized margins per hypothesis; negative means violated."""

    n_samples: int
    margins: dict
    violations: dict
    psi_nonzero: bool
    failures: tuple
    ok: bool

    def summary(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "margins": {k: float(v) for k, v in self.margins.items()},
            "violations": {k: int(v) for k, v in self.violations.items()},
            "psi_nonzero": self.psi_nonzero,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def check_hypotheses(problem: IndefiniteProblem, n_samples: int = 1000,
                     seed: int = 0) -> HypothesisReport:
    """Sample the structural conditions and report worst margins.

    Margins are normalized by the magnitude of the quantities involved,
    so a margin below -1e-12 is a genuine violation rather than float
    noise.  The nonvanishing part of H3 is reported as an H3 failure
    when every sampled value of Psi is zero.
    API only, backed by ``test_hypotheses_quartic``.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = problem.n
    worst = {k: math.inf for k in HYPOTHESES}
    counts = {k: 0 for k in HYPOTHESES}
    psi_max = 0.0

    def record(name, margin):
        worst[name] = min(worst[name], margin)
        if not margin >= -1e-12:
            counts[name] += 1

    for _ in range(n_samples):
        scale = 10.0 ** rng.uniform(-1.0, 0.7)
        z = scale * rng.standard_normal(n)
        w = 10.0 ** rng.uniform(-1.0, 0.7) * rng.standard_normal(n)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)

        psi_z = float(problem.psi(z))
        psi_w = float(problem.psi(w))
        g = problem.grad_psi(z)
        ip = float(g @ z)
        psi_max = max(psi_max, abs(psi_z), abs(psi_w))

        hv = problem.hess_psi(z, v)
        record("H1", 0.0 if np.all(np.isfinite(hv)) else -math.inf)

        record("H2", (ip - problem.p * psi_z)
               / (1.0 + abs(ip) + problem.p * abs(psi_z)))

        mid = float(problem.psi(0.5 * (z + w)))
        avg = 0.5 * (psi_z + psi_w)
        record("H3", (avg - mid) / (1.0 + abs(avg) + abs(mid)))

        bound = problem.K * max(ip, 0.0) ** problem.mu \
            + problem.mu * float(np.linalg.norm(z))
        gn = float(np.linalg.norm(g))
        record("H4", (bound - gn) / (1.0 + bound + gn))

        hz = problem.hess_psi(z, z + w)
        quad = float(hz @ (z + w))
        cross = 2.0 * float(g @ w)
        lhs = quad - cross
        rhs = problem.kappa * ip
        record("H5", (lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))

        record("positivity", psi_z / (1.0 + abs(psi_z)))

    failures = [k for k in HYPOTHESES if counts[k] > 0]
    if psi_max == 0.0 and "H3" not in failures:
        failures.append("H3")
    failures = tuple(failures)
    return HypothesisReport(n_samples, worst, counts, psi_max > 0.0,
                            failures, not failures)


# ---------------------------------------------------------------------------
# the linear solver

def cg(A, b, rtol=1e-5, maxiter=None, x0=None):
    """Solve A x = b by conjugate gradients from ``x0``, A given by its action.

    A must be symmetric positive definite.  The start ``x0`` defaults to
    zero, and an all-zero start takes no product for its residual.  The
    loop stops once |r| < rtol |b| and returns (x, 0), or after
    ``maxiter`` steps (default 10 n) and returns (x, maxiter); these are
    the steps of ``scipy.sparse.linalg.cg`` with ``atol=0`` and no
    preconditioner.
    """
    b = np.asarray(b, dtype=float)
    bnrm2 = np.linalg.norm(b)
    atol = float(rtol) * float(bnrm2)
    if bnrm2 == 0:
        return b, 0
    if maxiter is None:
        maxiter = 10 * len(b)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A(x) if x.any() else b.copy()
    p = rho_prev = None
    for _ in range(maxiter):
        # numpy's norm of a 1-d array is sqrt(r . r): the same float
        rho = np.dot(r, r)
        if math.sqrt(rho) < atol:
            return x, 0
        p = r.copy() if p is None else p * (rho / rho_prev) + r
        q = A(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


# ---------------------------------------------------------------------------
# the inner maximizer

def _fiber_operator(problem: IndefiniteProblem, z: np.ndarray):
    """v -> v + Q H(z) Q v with Q = I - P and H the Hessian of Psi.

    The Jacobian of the fiber equation at z: ``beta`` steps with it and
    the Nehari slope differentiates the fiber through it.
    """
    def apply(v):
        q = problem.complement
        return v + q(problem.hess_psi(z, q(v)))

    return apply


def beta(problem: IndefiniteProblem, phi: np.ndarray, tol: float = 1e-12,
         max_iter: int = 50, w0: np.ndarray = None) -> np.ndarray:
    """Unique fiber maximizer: solve w + (I - P) grad Psi(phi + w) = 0.

    Damped Newton with Armijo backtracking on the residual norm, from the
    Y part of the warm start ``w0`` (zero by default; finite and of shape
    (n,), checked before any solve), until the residual is within ``tol``
    or within 1e-15 |grad Psi(phi + w)|, the rounding floor of its terms,
    whatever the start.  The Newton operator v -> v + (I - P) hess Psi
    (I - P) v dominates the identity, so each step is a well-conditioned
    CG solve; it leaves out the Y-X block of the Hessian, so damped steps
    that shrink an X part of the start would stall.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tolerance must be finite and positive")
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("fiber direction phi must be finite")
    w = np.zeros(problem.n) if w0 is None else np.array(w0, dtype=float)
    if w.shape != (problem.n,) or not np.isfinite(w).all():
        raise ValueError(f"warm start w0 must be finite, of shape "
                         f"({problem.n},)")
    w = problem.complement(w)
    history = []

    def residual(wv):
        g = problem.grad_psi(phi + wv)
        # and the rounding floor of the sum
        return wv + problem.complement(g), 1e-15 * float(np.linalg.norm(g))

    F, floor = residual(w)
    nrm = float(np.linalg.norm(F))
    for _ in range(max_iter):
        history.append(nrm)
        if nrm <= max(tol, floor):
            break
        forcing = min(1e-2, math.sqrt(nrm))
        step, info = cg(_fiber_operator(problem, phi + w), -F,
                        rtol=max(forcing, 1e-12))
        if info != 0:
            raise RuntimeError(f"inner CG stalled (info={info}); "
                               f"residual history {history}")
        lam = 1.0
        while lam > 2.0 ** -30:
            cand = w + lam * step
            Fc, floor_c = residual(cand)
            nc = float(np.linalg.norm(Fc))
            if nc <= (1.0 - 1e-4 * lam) * nrm:
                w, F, nrm, floor = cand, Fc, nc, floor_c
                break
            lam *= 0.5
        else:
            raise RuntimeError(f"Armijo stalled at residual {nrm:.3e}; "
                               f"history {history}")
    else:
        raise RuntimeError(f"inner maximizer did not converge in {max_iter} "
                           f"steps; residual history {history}")

    bound = 2.0 * float(problem.psi(phi)) + tol
    if float(w @ w) > bound + 1e-9 * (1.0 + float(w @ w)):
        raise RuntimeError("maximizer bound |w|^2 <= 2 Psi(phi) violated")
    return w


def reduced(problem: IndefiniteProblem, phi: np.ndarray, tol: float = 1e-12,
            w0: np.ndarray = None):
    """Value, gradient and Nehari functional of the reduced problem.

    J(phi) = L(phi + beta(phi)), grad J(phi) = phi - P grad Psi, and
    K(phi) = <grad J(phi), phi>.  The fiber w = beta(phi) is solved to
    ``tol`` from the warm start ``w0`` (zero by default) and returned as
    well: (value, grad, K, w).
    """
    phi = np.asarray(phi, dtype=float)
    w = beta(problem, phi, tol=tol, w0=w0)
    z = phi + w
    value = problem.energy(z)
    grad = phi - problem.project(problem.grad_psi(z))
    return value, grad, float(grad @ phi), w


# ---------------------------------------------------------------------------
# Nehari projection and minimization

# steps of the Nehari projection before it gives up
_NEHARI_STEPS = 100
# the descent's L-BFGS pairs, Armijo window and halvings per direction
_MEMORY, _WINDOW, _HALVINGS = 8, 5, 30


def _nehari_slope(problem: IndefiniteProblem, phi: np.ndarray, t: float,
                  w: np.ndarray, dw0: np.ndarray = None, rtol: float = 1e-6):
    """dK/dt along the ray t phi of X, and the fiber's velocity.

    With w = beta(t phi), z = t phi + w, g = grad Psi(z) and H =
    hess Psi(z), K(t) = t^2 |phi|^2 - t <g, phi>.  Differentiating the
    fiber equation w + Q g = 0 gives (I + Q H Q) w' = -Q H phi, one CG
    solve to ``rtol`` with the operator ``beta`` steps with, started from
    ``dw0`` (zero by default), and then

        dK/dt = 2 t |phi|^2 - <g, phi> - t (<H phi, phi> + <w', H phi>).

    Returns (dK/dt, w').
    """
    z = t * phi + w
    g = problem.grad_psi(z)
    h_phi = problem.hess_psi(z, phi)
    dw, info = cg(_fiber_operator(problem, z), -problem.complement(h_phi),
                  rtol=rtol, x0=dw0)
    if info != 0:
        raise RuntimeError(f"fiber derivative CG stalled (info={info})")
    slope = 2.0 * t * (phi @ phi) - g @ phi - t * (h_phi @ phi + dw @ h_phi)
    return float(slope), dw


def brentq(lo, hi):
    """The safeguarded step of ``nehari_project`` inside the sign bracket
    (lo, hi) of K: 2 lo while hi is infinite, the midpoint once it is not.
    This is not Brent's method: the name is the one the benchmark's tracer
    binds, so its call count is the number of safeguarded steps."""
    return 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)


def nehari_project(problem: IndefiniteProblem, phi: np.ndarray,
                   tol: float = 1e-12, t0: float = None,
                   fiber_tol: float = None, w0: np.ndarray = None,
                   dw0: np.ndarray = None):
    """Scale t > 0 placing t phi on the Nehari set K = 0, for phi in X.

    Returns (t, (value, grad, K, w), w'): ``reduced``'s output at t phi
    and the last fiber velocity.  Along a ray of X, K(t) = K(t phi) has a
    simple root with K' < 0, found by rtsafe from ``t0`` (``t0`` and
    ``tol`` finite and positive, ValueError otherwise, before any solve;
    by default the predicted scale s(u) / |phi| of ``minimize_nehari``, u
    = phi / |phi|, or 1): Newton's method in t with the slope of
    ``_nehari_slope``, kept inside the sign bracket (lo, hi) of every K
    computed, lo the largest scale with K > 0 and hi the smallest with K
    < 0, from (0, inf).  At each scale one slope is computed; the Newton
    step is taken where the slope is negative and the step lands strictly
    inside the bracket, and otherwise the safeguarded step (``brentq``)
    doubles lo while hi is infinite and bisects once it is not.  Fibers
    are solved to ``fiber_tol``, by default max(min(tol, 1e-12), tol /
    10), which is 1e-12 at the default tol, and tangents to CG rtol
    max(1e-6, min(1e-2, tol)).  The first fiber and tangent solves start
    from ``w0`` and ``dw0`` (zero by default), each later fiber from the
    previous one moved along its tangent, and each tangent from the
    previous tangent.  The iteration stops once the Newton correction
    with the last computed slope, K(t) / K'(t_prev) after a Newton step,
    is within ``tol``, or K is exactly 0, or hi - lo with lo > 0 is
    within ``tol``; no second slope confirms it.  The last computed slope
    must be negative (RuntimeError otherwise).  K(t phi) is positive near
    t = 0; a ray along which the nonlinearity vanishes keeps K = t^2
    |phi|^2 > 0 forever and raises ``DegenerateRay`` once
    ``_NEHARI_STEPS`` steps find no K < 0, and every ray of Y raises it
    at once.  The zero direction and a direction with both an X and a
    nonzero Y part raise ValueError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tolerance must be finite and positive")
    if t0 is not None and not (math.isfinite(t0) and t0 > 0.0):
        raise ValueError("initial scale t0 must be finite and positive")
    phi = np.asarray(phi, dtype=float)
    if float(phi @ phi) == 0.0:
        raise ValueError("cannot project the zero direction")
    if not problem.project(phi).any():
        # P grad Psi is orthogonal to Y, so K = t^2 |phi|^2 on a ray of Y
        raise DegenerateRay()
    if problem.complement(phi).any():
        raise ValueError("direction must lie in X: its Y part is nonzero")
    if fiber_tol is None:
        fiber_tol = max(min(tol, 1e-12), tol / 10)
    rtol = max(1e-6, min(1e-2, tol))  # for the velocity solves
    lo, hi = 0.0, math.inf  # the sign bracket: K(lo) > 0 > K(hi)

    def k_of(s, start):
        nonlocal lo, hi
        point = reduced(problem, s * phi, tol=fiber_tol, w0=start)
        if point[2] > 0.0:
            lo = s
        elif point[2] < 0.0:
            hi = s
        return point

    if t0 is None:  # the predicted scale s(u) / |phi|, or 1
        norm = math.sqrt(float(phi @ phi))
        t0 = (_nehari_scale(problem, phi / norm) or norm) / norm
    t = float(t0)
    point = k_of(t, w0)
    dw = dw0
    for _ in range(_NEHARI_STEPS):
        k = point[2]
        dk, dw = _nehari_slope(problem, phi, t, point[3], dw, rtol=rtol)
        t_new = t - k / dk if dk < 0.0 else math.nan
        if k == 0.0 or abs(t_new - t) <= tol or 0.0 < lo and hi - lo <= tol:
            break
        newton = lo < t_new < hi
        if not newton:
            t_new = brentq(lo, hi)
            if not lo < t_new < hi:  # lo and hi are adjacent floats
                break
        # the fiber's tangent predicts the next fiber
        t, point = t_new, k_of(t_new, point[3] + (t_new - t) * dw)
        if newton and abs(point[2] / dk) <= tol:  # the chord step
            break
    else:
        if hi == math.inf:
            raise DegenerateRay()
        if lo == 0.0:
            raise RuntimeError("no positive bracket found near t = 0")
        raise RuntimeError(f"no Nehari root in {_NEHARI_STEPS} steps")
    if not dk < 0.0:
        raise RuntimeError(f"K slope at the Nehari point is {dk:.3e}, "
                           "expected negative")
    return t, point, dw


def _nehari_scale(problem: IndefiniteProblem, u: np.ndarray):
    """(p Psi(u))^(-1/(p-2)) for a unit u; None unless p Psi(u) is finite,
    positive and matches <grad Psi(u), u> to 1e-8 relative (p-homogeneity)."""
    q = problem.p * float(problem.psi(u))
    ok = (0.0 < q < math.inf
          and abs(float(problem.grad_psi(u) @ u) - q) <= 1e-8 * q)
    return q ** (-1.0 / (problem.p - 2.0)) if ok else None


def _tangent(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """v projected onto the tangent space of the unit sphere at u."""
    return v - float(v @ u) * u


def _lbfgs_direction(pairs, grad):
    """-H grad by the two-loop recursion over the (s, y, s.y) ``pairs``,
    oldest first, with H0 = (s.y / y.y) I from the newest (Nocedal and
    Wright, Numerical Optimization, 2006, alg. 7.4)."""
    q, alphas = grad.copy(), []
    for s, y, sy in reversed(pairs):
        alphas.append(float(s @ q) / sy)
        q -= alphas[-1] * y
    _, y, sy = pairs[-1]
    q *= sy / float(y @ y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += (a - float(y @ q) / sy) * s
    return -q


@dataclass(frozen=True)
class NehariResult:
    """Ground-state search outcome.

    ``fiber`` is beta(minimizer) solved to min(1e-2 tol, 1e-12), so
    ``minimizer + fiber`` is the critical point of the full functional.
    """

    gamma: float
    minimizer: np.ndarray
    fiber: np.ndarray = field(repr=False)
    grad_norm: float
    nehari_scale: float
    iterations: int
    converged_starts: int
    degenerate_starts: int
    history: tuple = field(repr=False, default=())

    def summary(self) -> dict:
        return {
            "gamma": float(self.gamma),
            "grad_norm": float(self.grad_norm),
            "nehari_scale": float(self.nehari_scale),
            "iterations": int(self.iterations),
        }


def minimize_nehari(problem: IndefiniteProblem, starts: int = 8,
                    tol: float = 1e-10, seed: int = 0,
                    max_iter: int = 300,
                    initial: np.ndarray = None) -> NehariResult:
    """Minimize the reduced functional over the Nehari set.

    L-BFGS on the unit sphere of X, projecting every iterate onto the
    Nehari set, where g = grad J(t u) is orthogonal to u: the level m(u)
    = J(t(u) u) has the gradient G = t g on the sphere.  The direction is
    -H G from the last ``_MEMORY`` tangent-projected pairs (s, y) with
    s.y > 0; a start's first step, and one where -H G does not descend,
    is -g / (1 + |g|), and clears the memory.  Trials (u + alpha d) / |u
    + alpha d|, alpha = 1, 1/2, ..., are projected until a level is within
    the largest of the last ``_WINDOW`` accepted levels plus 1e-4 alpha
    G.d (nonmonotone Armijo: Grippo, Lampariello and Lucidi, 1986); after
    ``_HALVINGS`` halvings the first step is tried once more, and then
    the start ends unconverged.  Runs from several random directions
    and keeps the earliest converged start whose level is within 1e-12
    relative of the lowest, so that starts that tie up to rounding do not
    trade places on the last bit.  ``initial`` replaces the first random
    direction, so a coarse solution can warm start a finer one.  Every
    projection is a ``nehari_project`` call that solves the scale to
    max(1e-12, gn / 10) and, through its ``fiber_tol``, the fibers to
    max(inner, gn / 100), inner = min(1e-2 tol, 1e-12), gn the reduced
    gradient norm at the accepted point (inexact Newton), at the zero
    fiber for a start's first.  It starts at a predicted scale: a start's
    first at s(u) = (p Psi(u))^(-1/(p-2)), the root of K when the fiber
    vanishes and Psi is p-homogeneous, each trial at t s(u) / s(u_prev),
    t and u_prev the accepted point's, or at 1 or that t where Psi is
    not p-homogeneous along u (p may be a loose H2 constant); its fiber
    and velocity solves start from the accepted point's.  ``iterations``
    counts each start's first point and accepted steps.  The winning
    start's fiber is solved once more, to inner, as ``fiber``.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tolerance must be finite and positive")
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    if initial is not None and not np.isfinite(initial).all():
        raise ValueError("initial direction must be finite")
    rng = np.random.default_rng(seed)
    inner = min(tol * 1e-2, 1e-12)
    found = []
    total = 0
    degenerate = 0
    history = []

    def project(u, t, gn, **warm):
        return nehari_project(problem, u, tol=max(1e-12, 1e-1 * gn), t0=t,
                              fiber_tol=max(inner, 1e-2 * gn), **warm)
    for start_idx in range(starts):
        if start_idx == 0 and initial is not None:
            u = problem.project(np.asarray(initial, dtype=float))
        else:
            u = problem.project(rng.standard_normal(problem.n))
        nu = np.linalg.norm(u)
        while nu < 1e-8:
            u = problem.project(rng.standard_normal(problem.n))
            nu = np.linalg.norm(u)
        u = u / nu
        s = _nehari_scale(problem, u)
        t = s or 1.0
        try:
            t, point, dw = project(u, t, float(np.linalg.norm(
                t * u - problem.project(problem.grad_psi(t * u)))))
        except DegenerateRay:
            degenerate += 1
            continue

        levels, pairs = [], []
        for _ in range(max_iter):
            total += 1
            value, g, _, w = point
            gn = float(np.linalg.norm(g))
            if gn <= tol:
                break
            grad = t * g  # of the level J(t(u) u) on the sphere
            levels = levels[1 - _WINDOW:] + [value]
            first = _tangent(-(1.0 / (1.0 + gn)) * g, u)
            d = _tangent(_lbfgs_direction(pairs, grad), u) if pairs else first
            tries = [first] if d is first or not grad @ d < 0.0 else [d, first]
            for d, k in itertools.product(tries, range(_HALVINGS)):
                v = u + 0.5 ** k * d
                v = v / np.linalg.norm(v)
                sv = _nehari_scale(problem, v)
                tv, trial, dwv = project(v, t * (sv / s) if s and sv else t,
                                         gn, w0=w, dw0=dw)
                if trial[0] <= max(levels) + 1e-4 * 0.5 ** k * (grad @ d):
                    break
            else:  # the halvings ran out on every direction
                break
            pairs = [] if d is first else pairs
            ds, dg = _tangent(v - u, v), _tangent(tv * trial[1] - grad, v)
            sy = float(ds @ dg)
            if sy > 0.0:
                pairs = pairs[1 - _MEMORY:] + [(ds, dg, sy)]
            u, s, t, point, dw = v, sv, tv, trial, dwv

        history.append((float(value), gn))
        if gn <= tol:
            found.append((value, t * u, w, gn, t))

    if degenerate == starts:
        raise RuntimeError("all starts hit degenerate rays")
    if not found:
        raise RuntimeError(f"no start converged to tolerance {tol}; "
                           f"history {history}")
    lowest = min(level for level, *_ in found)
    gamma, phi_star, fiber, gn, t = next(
        f for f in found if f[0] - lowest <= 1e-12 * abs(lowest))
    if not gamma > 0.0:
        raise RuntimeError(f"ground level {gamma} is not positive")
    if not problem.psi(phi_star) > 0.0:
        raise RuntimeError("nonlinearity vanishes at the reported minimizer")
    fiber = beta(problem, phi_star, tol=inner, w0=fiber)
    return NehariResult(float(gamma), phi_star, fiber, gn, float(t), total,
                        len(found), degenerate, tuple(history))


# ---------------------------------------------------------------------------
# quadratic envelope audit

@dataclass(frozen=True)
class EnvelopeAudit:
    """gamma <= L(z) + C |grad L(z)|^2 over a perturbation family."""

    gamma: float
    bound_ok: bool
    C: float
    s_grid: np.ndarray
    deficits: np.ndarray
    grad_sq: np.ndarray
    energy_at_z: float
    grad_norm_at_z: float

    def summary(self) -> dict:
        return {
            "gamma": float(self.gamma),
            "bound_ok": self.bound_ok,
            "C": float(self.C),
            "energy_at_z": float(self.energy_at_z),
            "grad_norm_at_z": float(self.grad_norm_at_z),
        }


def energy_bound_audit(problem: IndefiniteProblem, z: np.ndarray,
                       s_grid=None, seed: int = 0,
                       result: NehariResult = None) -> EnvelopeAudit:
    """Fit the envelope constant over perturbations z + s * noise.

    Each scale s of ``s_grid`` (1-d, non-empty, positive and finite,
    checked before any solve) perturbs z along four random unit
    directions.  The minimal admissible C is the largest
    ratio of the level deficit gamma - L to the squared gradient across
    the family, over the deficits above 1e-10; the envelope holds when
    that ratio stays finite (a positive deficit with a zero gradient
    would break it).
    API only, backed by ``test_energy_bound_exact_critical_point``.
    """
    z = np.asarray(z, dtype=float)
    base = problem.energy(z)
    if not base > 0.0:
        raise ValueError("audit point must carry positive energy")
    s_grid = np.asarray(np.geomspace(1e-3, 1e-1, 7) if s_grid is None
                        else s_grid, dtype=float)
    if (s_grid.ndim != 1 or s_grid.size == 0
            or not np.all(np.isfinite(s_grid) & (s_grid > 0.0))):
        raise ValueError("s_grid must be 1-d, non-empty, positive and finite")
    if result is None:
        result = minimize_nehari(problem, seed=seed)
    gamma = result.gamma

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((4, z.size))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    points = [z] + [z + s * d for s in s_grid for d in dirs]
    deficits = np.array([gamma - problem.energy(q) for q in points])
    grad_sq = np.array([float(np.linalg.norm(problem.energy_gradient(q)) ** 2)
                        for q in points])

    C = 0.0
    ok = True
    for d, g2 in zip(deficits, grad_sq):
        if d <= 1e-10:
            continue
        if g2 == 0.0:
            C = math.inf
            ok = False
            break
        C = max(C, d / g2)
    return EnvelopeAudit(float(gamma), ok and math.isfinite(C), float(C),
                         s_grid, deficits, grad_sq, float(base),
                         float(math.sqrt(grad_sq[0])))
