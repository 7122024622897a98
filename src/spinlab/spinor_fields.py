"""The Euclidean test spinor, its cutoff rescalings, and the Psi_0 search.

The base profile is

    psi(x) = m^{(m-1)/2} (1 + |x|^2)^{-m/2} (1 - x) . Psi_0

where the scalar 1 acts as the identity and the vector x acts by Clifford
multiplication.  Its pointwise norm is (m / (1 + |x|^2))^{(m-1)/2} and it
solves  D psi = |psi|^{2/(m-1)} psi  exactly, which is what dirac_residual
measures.  phi_eps glues a C^2 radial cutoff onto the concentrated
rescaling psi_eps(x) = eps^{-(m-1)/2} psi(x / eps).

find_psi0 constructs a unit spinor annihilating the quartic Clifford form

    F(Y) = sum A_ijkl Re< g_i g_j g_k g_l Y, Y >        (i, j, k distinct)

by projector balancing in the first four directions and then, for each
further direction, the zero of the form along a unit-sphere great circle.
On that circle the form is a sinusoid in twice the angle, so the zero
has a closed form.  The form's matrix is linear in the coefficients:
the generators are contracted into the masked coefficient tensor from
the right, one index and one GEMM at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordRep, build_rep, distinct_mask, volume_projectors

__all__ = [
    "TestSpinorParams",
    "make_params",
    "psi",
    "psi_norm",
    "grad_psi_all",
    "dirac_residual",
    "psi_eps",
    "eta",
    "eta_d1",
    "phi_eps",
    "psi0_functional",
    "find_psi0",
    "lemma1_identity",
]


@dataclass(frozen=True)
class TestSpinorParams:
    """Scalar knobs of the test spinor family.

    ``psi0`` is the constant unit spinor the profile is built on, ``eps``
    the concentration scale and ``delta`` the inner cutoff radius (the
    cutoff ramps down to zero on [delta, 2 delta]).
    """

    m: int
    psi0: np.ndarray
    eps: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need m >= 2")
        if not (self.eps > 0 and self.delta > 0):
            raise ValueError("eps and delta must be positive")
        p = np.asarray(self.psi0, dtype=complex).copy()
        if abs(np.linalg.norm(p) - 1.0) > 1e-14:
            raise ValueError("psi0 must be a unit spinor")
        p.setflags(write=False)
        object.__setattr__(self, "psi0", p)

    @property
    def rep(self) -> CliffordRep:
        return build_rep(self.m)


def make_params(m: int, eps: float = 1.0, delta: float = 1.0,
                psi0: np.ndarray = None) -> TestSpinorParams:
    """Build params, defaulting psi0 to the canonical balanced spinor
    (the first basis spinor for m < 4): what ``find_psi0`` returns for
    the zero form, without the search."""
    if psi0 is None:
        rep = build_rep(m)
        psi0 = _balanced_spinor(rep) if m >= 4 else _basis_spinor(rep)
    return TestSpinorParams(m, psi0, eps, delta)


# ---------------------------------------------------------------------------
# profile and derivatives

def _as_points(x, m):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != m:
        raise ValueError("points must have m components")
    return pts, single


def _one_minus_x(rep: CliffordRep, pts: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(1 - x) . s for a batch of points, one constant spinor s."""
    G = np.stack(rep.gammas)
    return s[None, :] - np.einsum("pj,jab,b->pa", pts, G, s)


def psi(params: TestSpinorParams, x) -> np.ndarray:
    """Base test-spinor profile (the eps = 1 member of the family)."""
    rep = params.rep
    pts, single = _as_points(x, params.m)
    r2 = (pts ** 2).sum(axis=1)
    amp = float(params.m) ** ((params.m - 1) / 2.0)
    vals = amp * (1.0 + r2)[:, None] ** (-params.m / 2.0) * _one_minus_x(rep, pts, params.psi0)
    return vals[0] if single else vals


def psi_norm(m: int, x) -> np.ndarray:
    """Closed-form pointwise norm (m / (1 + |x|^2))^{(m-1)/2}."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    r2 = (pts ** 2).sum(axis=1)
    out = (m / (1.0 + r2)) ** ((m - 1) / 2.0)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def grad_psi_all(params: TestSpinorParams, x) -> np.ndarray:
    """All m partial derivatives of the base profile, closed form.

    d_j psi = -m c x_j (1+r^2)^{-m/2-1} (1-x).Psi0 - c (1+r^2)^{-m/2} g_j Psi0
    with c the amplitude m^{(m-1)/2}.  Shape (m, N), or (P, m, N) in batch.
    """
    m = params.m
    rep = params.rep
    pts, single = _as_points(x, m)
    r2 = (pts ** 2).sum(axis=1)
    c = float(m) ** ((m - 1) / 2.0)
    G = np.stack(rep.gammas)
    core = _one_minus_x(rep, pts, params.psi0)
    gpsi0 = np.einsum("jab,b->ja", G, params.psi0)
    w1 = -m * c * (1.0 + r2) ** (-m / 2.0 - 1.0)
    w2 = -c * (1.0 + r2) ** (-m / 2.0)
    out = w1[:, None, None] * pts[:, :, None] * core[:, None, :] \
        + w2[:, None, None] * gpsi0[None, :, :]
    return out[0] if single else out


def dirac_residual(params: TestSpinorParams, x) -> float:
    """|D psi(x) - |psi(x)|^{2*-2} psi(x)| via the analytic derivatives."""
    m = params.m
    pts, single = _as_points(x, m)
    G = np.stack(params.rep.gammas)
    grads = grad_psi_all(params, pts)
    dpsi = np.einsum("jab,pjb->pa", G, grads)
    vals = psi(params, pts)
    pw = psi_norm(m, pts) ** (2.0 / (m - 1))
    res = np.linalg.norm(dpsi - pw[:, None] * vals, axis=1)
    return float(res[0]) if single else res


def psi_eps(params: TestSpinorParams, x) -> np.ndarray:
    """Concentrated rescaling eps^{-(m-1)/2} psi(x / eps).
    API only, backed by ``test_psi_eps_scaling_relation``."""
    pts, single = _as_points(x, params.m)
    scale = params.eps ** (-(params.m - 1) / 2.0)
    vals = scale * psi(params, pts / params.eps)
    return vals[0] if single else vals


# ---------------------------------------------------------------------------
# cutoff

def eta(r, delta: float):
    """C^2 radial cutoff: 1 on [0, delta], quintic ramp to 0 at 2 delta."""
    r = np.asarray(r, dtype=float)
    s = np.clip((r - delta) / delta, 0.0, 1.0)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def eta_d1(r, delta: float):
    r = np.asarray(r, dtype=float)
    s = (r - delta) / delta
    inside = (s > 0.0) & (s < 1.0)
    s = np.where(inside, s, 0.0)
    return np.where(inside, -30.0 * s ** 2 * (1.0 - s) ** 2 / delta, 0.0)


def phi_eps(params: TestSpinorParams, x) -> np.ndarray:
    """Cutoff test spinor eta(|x|) psi_eps(x), supported in |x| <= 2 delta.
    API only, backed by ``test_phi_eps_inside_and_outside``."""
    pts, single = _as_points(x, params.m)
    r = np.sqrt((pts ** 2).sum(axis=1))
    vals = eta(r, params.delta)[:, None] * psi_eps(params, pts)
    return vals[0] if single else vals


# ---------------------------------------------------------------------------
# the quartic Clifford form and the Psi_0 construction

def _masked(coeff, m):
    A = np.asarray(coeff, dtype=float)
    if A.shape != (m,) * 4:
        raise ValueError("coefficient array must have shape (m,)*4")
    return A * distinct_mask(m)[:, :, :, None]


def _form_matrix(rep: CliffordRep, coeff, index_bound: int = None,
                 must_touch: int = None) -> np.ndarray:
    """Hermitian matrix H with F(v) = v^H H v for the (sub-)sum of the form.

    ``index_bound`` restricts every index to < bound; ``must_touch``
    keeps only the terms in which that index occurs.  Words whose real
    pairing vanishes identically drop out via the Hermitian projection.
    """
    bound = rep.m if index_bound is None else index_bound
    A = _masked(coeff, rep.m)[:bound, :bound, :bound, :bound]
    if must_touch is not None:
        i, j, k, l = np.ogrid[:bound, :bound, :bound, :bound]
        A = A * ((i == must_touch) | (j == must_touch)
                 | (k == must_touch) | (l == must_touch))
    N = rep.N
    G = np.stack(rep.gammas[:bound])
    # sum A_ijkl g_i (g_j (g_k g_l)), one GEMM per generator from the
    # right; Gr[a, (k, b)] = g_k[a, b] contracts an index and a row
    Gr = G.transpose(1, 0, 2).reshape(N, bound * N)
    M = (A.reshape(-1, bound) @ G.reshape(bound, -1)).reshape(
        bound * bound, bound * N, N)                 # [(i, j)][(k, b)][c]
    M = (Gr @ M).reshape(bound, bound * N, N)        # [i][(j, a)][c]
    M = (Gr @ M).reshape(bound * N, N)               # [(i, a)][c]
    M = Gr @ M
    return 0.5 * (M + M.conj().T)


def psi0_functional(rep: CliffordRep, coeff, v: np.ndarray, **sub) -> float:
    """Value of the quartic form F at the spinor v."""
    H = _form_matrix(rep, coeff, **sub)
    return float(np.real(np.vdot(v, H @ v)))


def _basis_spinor(rep: CliffordRep) -> np.ndarray:
    e = np.zeros(rep.N, dtype=complex)
    e[0] = 1.0
    return e


def _balanced_spinor(rep: CliffordRep) -> np.ndarray:
    """Unit spinor with equal-norm components in both volume eigenspaces."""
    wp, wm = volume_projectors(rep)
    u = wp[:, int(np.argmax(np.linalg.norm(wp, axis=0)))]
    v = wm[:, int(np.argmax(np.linalg.norm(wm, axis=0)))]
    return (u / np.linalg.norm(u) + v / np.linalg.norm(v)) / np.sqrt(2.0)


def find_psi0(rep: CliffordRep, coeff, f_tol: float = 1e-10) -> np.ndarray:
    """Unit spinor annihilating the quartic form of the given coefficients.

    m = 3: every unit spinor works (all contributing words pair to pure
    imaginary numbers), so the first basis spinor is returned.  m = 4: all
    surviving words are signed copies of the volume element, killed by
    balancing its two eigenspaces.  m >= 5: one direction at a time; if
    Psi_1 kills the sub-form over directions < d, the terms touching
    direction d flip sign under Y -> g_d Y while the rest are fixed, so
    the full sub-form over directions <= d changes sign along the great
    circle  cos(t) Psi_1 + sin(t) g_d Psi_1  (unit for every t).  There
    the form is  a cos^2 t + 2c sin t cos t + b sin^2 t
    = (a+b)/2 + rho cos(2t - phi),  whose one zero in (0, pi/2) is the
    positive root x = tan t of  b x^2 + 2c x + a = 0  (a b < 0).
    """
    m = rep.m
    if m < 3:
        raise ValueError("construction needs m >= 3")
    if m == 3:
        return _basis_spinor(rep)

    A = _masked(coeff, m)
    scale = float(np.abs(A).sum()) or 1.0
    cur = _balanced_spinor(rep)
    for d in range(4, m):
        H = _form_matrix(rep, A, index_bound=d + 1)
        gcur = rep.gamma(d) @ cur
        a = float(np.real(np.vdot(cur, H @ cur)))
        if abs(a) <= f_tol * scale:
            continue
        b = float(np.real(np.vdot(gcur, H @ gcur)))
        if a * b >= 0.0:
            raise ArithmeticError(
                "could not bracket a zero extending to direction "
                f"{d}: endpoint values {a:.3e}, {b:.3e}"
            )
        c = float(np.real(np.vdot(cur, H @ gcur)))
        # the two roots have opposite signs; take the positive one in the
        # form that adds quantities of one sign
        sb = np.copysign(1.0, b)
        root = np.sqrt(c * c - a * b)
        x = (sb * root - c) / b if sb * c <= 0.0 else a / (-c - sb * root)
        t0 = np.arctan(x)
        cur = np.cos(t0) * cur + np.sin(t0) * gcur
        cur = cur / np.linalg.norm(cur)

    val = psi0_functional(rep, A, cur)
    if abs(val) > f_tol * scale:
        raise ArithmeticError(f"residual form value {val:.3e} exceeds tolerance")
    return cur


# ---------------------------------------------------------------------------
# the pointwise vanishing identity

def lemma1_identity(rep: CliffordRep, R, params: TestSpinorParams, x,
                    relative: bool = False) -> float:
    """Norm of  sum_ij R_iabj x^a x^b  g_i . d_j psi(x),  which vanishes.

    The x_j-proportional part of the derivative dies against the first
    Bianchi identity (three symmetrised slots hit the antisymmetric pair),
    the g_j part contracts the symmetric coefficient with g_i g_j leaving
    the Ricci trace, so the whole sum is zero exactly when R is
    Ricci-flat.  Requires m >= 4.  With ``relative`` the norm is divided
    by the sum of the norms of the individual (i, j) terms.
    API only, backed by ``test_lemma1_identity_vanishes``.
    """
    from .curvature import ricci

    m = params.m
    if m < 4:
        raise ValueError("identity is stated for m >= 4")
    if np.abs(ricci(R)).max() > 1e-12 * max(R.frobenius(), 1.0):
        raise ValueError("tensor must be Ricci-flat")

    pts, single = _as_points(x, m)
    G = np.stack(rep.gammas)
    S = np.einsum("iabj,pa,pb->pij", R.components, pts, pts)
    grads = grad_psi_all(params, pts)
    terms = np.einsum("pij,iab,pjb->pija", S, G, grads)
    total = np.linalg.norm(terms.sum(axis=(1, 2)), axis=1)
    if relative:
        per_term = np.linalg.norm(terms, axis=3).sum(axis=(1, 2))
        total = total / np.where(per_term > 0, per_term, 1.0)
    return float(total[0]) if single else total
