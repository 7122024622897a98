"""Radial integrals, moment tables and the concentration-scale audits.

Three audits drive this module.  The residual audit integrates the
L^{2m/(m+1)} norms of the six correction fields left over when the flat
Dirac image of the cutoff test spinor is subtracted from its curved
image, and fits their decay orders in the concentration scale.  The
energy audit decomposes the pairing of that curved image against the
spinor itself into seven terms, checks the ones that vanish pointwise,
and pins the slope and coefficient of the quartic term.  The Rayleigh
audit assembles the full quotient from the same quadratures.  Each
audit returns one ``AuditReport``: its JSON payload, its CSV table, and
a verdict rule that is one function per audit.

All integrals run over the ball |x| <= 2 delta with the volume element
modelled as (1 + 0.1 |x|^vol_degree) dx, a stand-in for the
determinant normalisation the coordinates are constructed to satisfy.
The quadrature is the product of one shared angular rule (see
``quadrature``) and per-epsilon radial panels.

Every audited field is a sum of real radial coefficients times fixed
angular spinor tables (see ``_AuditEngine``): a pairing reduces to the
tables' angular Gram matrix, a q-norm to their pointwise Gram products.
Each audit builds only the Gram it reads and computes only the outputs
it reads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
import functools
import math
import numbers

import numpy as np

from .clifford import build_rep
from .curvature import (
    CurvatureJets,
    RiemannTensor,
    b_coefficient_tensors,
    j6_leading,
    make_cnc_jets,
    random_riemann,
    theta_lambda,
)
from .quadrature import panel_nodes, shell_edges, sphere_area, sphere_rule
from .spinor_fields import (
    TestSpinorParams,
    eta,
    eta_d1,
    find_psi0,
    make_params,
    psi0_functional,
)

__all__ = [
    "AUDIT_M_RANGE",
    "AUDIT_MAX_FIRST_SCALE",
    "check_audit_m",
    "check_first_scale",
    "check_eps_grid",
    "MomentTable",
    "OrderFit",
    "AuditInputs",
    "AuditReport",
    "sphere_volume",
    "critical_energy",
    "radial_I",
    "moment_table",
    "order_fit",
    "default_eps_grid",
    "rayleigh_eps_grid",
    "theta_pairing_coefficients",
    "audit_inputs",
    "residual_exponents",
    "residual_audit",
    "energy_audit",
    "rayleigh_audit",
]

A_TERMS = ("A1", "A2", "A3", "A4", "A5", "A6")
J_TERMS = ("J1", "J2", "J3", "J4", "J5", "J6", "J7")

# (min, max) m of each audit: the floors are the residual orders and the
# finite quartic moments; the cap is memory, as at m = 10 the default
# sphere rule has 10 * 5^8 points and the pair products U (x) U take 3.1 GB
AUDIT_M_RANGE = {"residual": (4, 9), "energy": (5, 9), "rayleigh": (5, 9)}
# the cap on an audit's first_scale: tables grow linearly in it and Grams
# quadratically, so at the cap they stay below 1e200 (overflow from ~1e150)
AUDIT_MAX_FIRST_SCALE = 1e100


# ---------------------------------------------------------------------------
# closed-form constants and radial integrals

def sphere_volume(k: int) -> float:
    """Riemannian volume of the unit k-sphere (the round S^k)."""
    return sphere_area(k + 1)


def critical_energy(m: int) -> float:
    """Compactness threshold (1/2m)(m/2)^m vol(S^m) of the critical term,
    for 1 <= m <= 161 (from m = 162 on, (m/2)^m overflows a double).
    API only, backed by ``test_critical_energy_surface_case``."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) \
            or not 1 <= m <= 161:
        raise ValueError(f"need an integer m with 1 <= m <= 161, got {m!r}")
    return (0.5 / m) * (0.5 * m) ** m * sphere_volume(m)


def _radial_moment(m: int, k: int, upper) -> float:
    """int_0^upper r^(m-1+k) (1+r^2)^(-m) dr: (1/2) B((m+k)/2, (m-k)/2) at
    infinity, else Gauss-Legendre on r = tan(theta), where the integrand is
    sin^(m-1+k) cos^(m-1-k), on panels cut at r = s/2, s, 2s, ..., upper/2
    (s < 2): theta itself up to s, then pi/2 - theta = arctan(1/r), exact to
    rounding near the pole at pi/2, each panel as long as its distance to it."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"need an integer m >= 1, got {m!r}")
    if not upper > 0.0:
        raise ValueError(f"upper radius must be positive, got {upper!r}")
    if math.isinf(upper):
        if m <= k:
            raise ValueError(f"moment diverges at infinite radius for m <= {k}")
        if m > 171:  # where math.gamma(m) overflows a double
            raise ValueError(f"closed form at infinite radius needs m <= 171, got {m}")
        return 0.5 * math.gamma((m + k) / 2) * math.gamma((m - k) / 2) / math.gamma(m)
    cuts = upper / 2.0 ** np.arange(max(math.floor(math.log2(upper)), 0), -1, -1)
    theta, w = panel_nodes(np.arctan([0.0, cuts[0] / 2, cuts[0]]))
    total = w @ (np.sin(theta) ** (m - 1 + k) * np.cos(theta) ** (m - 1 - k))
    if cuts.size > 1:
        phi, w = panel_nodes(np.arctan(1.0 / cuts[::-1]))
        total += w @ (np.sin(phi) ** (m - 1 - k) * np.cos(phi) ** (m - 1 + k))
    return float(total)


def radial_I(m: int, r_upper: float = math.inf) -> float:
    """int_0^R r^{m-1} (1+r^2)^{-m} dr: Gamma(m/2)^2 / (2 Gamma(m)) at
    R = inf, theta-substituted Gauss-Legendre below."""
    return _radial_moment(m, 0, r_upper)


# ---------------------------------------------------------------------------
# quartic moments of the concentration profile

@dataclass(frozen=True)
class MomentTable:
    """Fourth moments of x against (1+|x|^2)^{-m} over the ball |x| <= rho.

    Rotation invariance leaves two independent entries: the pure fourth
    moment M4 of one coordinate and the mixed moment M22 of a distinct
    pair.  Every index pattern that does not pair up integrates to zero.
    """

    m: int
    rho: float
    M22: float
    M4: float

    def __post_init__(self):
        if not (self.M4 > self.M22 > 0.0):
            raise ValueError("moments must satisfy M4 > M22 > 0")

    def tensor(self) -> np.ndarray:
        """Dense (m,m,m,m) moment tensor."""
        d = np.eye(self.m)
        t = self.M22 * (
            np.einsum("ab,kl->abkl", d, d)
            + np.einsum("ak,bl->abkl", d, d)
            + np.einsum("al,bk->abkl", d, d)
        )
        t[np.diag_indices(self.m, 4)] += self.M4 - 3.0 * self.M22
        return t


def moment_table(m: int, rho: float = math.inf) -> MomentTable:
    """Quartic moments; the radius must be finite when m <= 4.

    The radial factor int_0^rho r^{m+3} (1+r^2)^{-m} dr only converges at
    infinity for m >= 5, where it is a Beta function; a finite rho (needed
    for the borderline dimensions) takes theta-substituted Gauss-Legendre.
    The angular factors come from the product rule of 3 polar nodes, so
    the ratio M4 = 3 M22 is a live check of that rule rather than an input.
    """
    radial = _radial_moment(m, 4, rho)
    rule = sphere_rule(m, 3)
    u = rule.points
    a4 = float(rule.integrate(u[:, 0] ** 4))
    a22 = float(rule.integrate(u[:, 0] ** 2 * u[:, 1] ** 2))
    return MomentTable(m, float(rho), radial * a22, radial * a4)


# ---------------------------------------------------------------------------
# slope fitting

# how far a fitted residual order may miss its predicted exponent
_ORDER_TOL = 0.15


@dataclass(frozen=True)
class OrderFit:
    """Log-log least-squares fit of samples over a decreasing grid."""

    eps: np.ndarray
    values: np.ndarray
    slope: float
    residual: float


def order_fit(eps, values) -> OrderFit:
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    if eps.size < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("grid must be strictly decreasing")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("values must be positive and finite")
    le, lv = np.log(eps), np.log(values)
    slope, intercept = np.polyfit(le, lv, 1)
    resid = float(np.sqrt(np.mean((lv - slope * le - intercept) ** 2)))
    return OrderFit(eps, values, float(slope), resid)


def default_eps_grid() -> np.ndarray:
    """Eight geometric points from 1e-1 down to 1e-3."""
    return np.geomspace(1e-1, 1e-3, 8)


def rayleigh_eps_grid() -> np.ndarray:
    """Quotient grid; the two smallest points sit at 1e-2 and 5e-3."""
    return np.append(np.geomspace(1e-1, 1e-2, 7), 5e-3)


def _window(eps: np.ndarray, lower: bool) -> slice:
    n = max(4, eps.size // 2)
    return slice(eps.size - n, eps.size) if lower else slice(0, n)


def _slope(eps: np.ndarray, values: np.ndarray) -> float:
    """Fitted order of ``values``; an identically zero term decays faster
    than any power."""
    if np.abs(values).max() == 0.0:
        return math.inf
    return order_fit(eps, values).slope


def _window_slope(eps: np.ndarray, values: np.ndarray, lower=True) -> float:
    w = _window(eps, lower)
    return _slope(eps[w], values[w])


# ---------------------------------------------------------------------------
# audit data

@dataclass(frozen=True)
class AuditInputs:
    """Curvature draw, its derivative jets and the spinor parameters.

    An audit runs on one such bundle, whole, by default on
    ``audit_inputs(m, seed, first_scale)``.  Its three parts must share
    one dimension m, which construction checks.
    """

    riemann: RiemannTensor
    jets: CurvatureJets
    params: TestSpinorParams

    def __post_init__(self):
        if not self.riemann.m == self.jets.m == self.params.m:
            raise ValueError("tensor, jets and params disagree on m")

    @property
    def m(self) -> int:
        return self.riemann.m

    @functools.cached_property
    def theta_lambda(self):
        """``theta_lambda`` of the bundle's curvature, computed once."""
        return theta_lambda(self.riemann, self.jets)


def theta_pairing_coefficients(theta: np.ndarray) -> np.ndarray:
    """Quartic pairing coefficients induced by the cubic Clifford term.

    Contracting the three monomial slots of ``theta`` against the
    isotropic part of the fourth-moment tensor leaves a four-index word
    coefficient; the constant-spinor search zeroes exactly this form.
    """
    return (
        np.einsum("ijkaal->ijkl", theta)
        + np.einsum("ijkala->ijkl", theta)
        + np.einsum("ijklaa->ijkl", theta)
    )


def audit_inputs(m: int, seed: int = 0,
                 first_scale: float = 10.0) -> AuditInputs:
    """Trace-free curvature draw with consistent jets and matched spinor.

    The constant spinor is chosen to zero the quartic pairing form of the
    cubic correction, which is what makes the quartic energy term carry
    the curvature-square coefficient alone.  The spinor has unit
    concentration scale and unit inner cutoff radius.
    """
    R = random_riemann(m, seed, weyl_only=True)
    jets = make_cnc_jets(R, seed=seed, first_scale=first_scale)
    rep = build_rep(m)
    corrections = theta_lambda(R, jets)
    psi0 = find_psi0(rep, theta_pairing_coefficients(corrections[0]))
    inputs = AuditInputs(R, jets, make_params(m, psi0=psi0))
    # cached_property keeps its value in the instance dict: the audits
    # read the tensors the spinor search used instead of recomputing them
    vars(inputs)["theta_lambda"] = corrections
    return inputs


def _generic_spinor(rep, coeff, seed: int = 0) -> np.ndarray:
    """Unit spinor with a deliberately large value of the pairing form."""
    rng = np.random.default_rng(seed)
    best, best_val = None, -1.0
    for _ in range(8):
        v = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        v /= np.linalg.norm(v)
        val = abs(psi0_functional(rep, coeff, v))
        if val > best_val:
            best, best_val = v, val
    return best


# ---------------------------------------------------------------------------
# the shell engine

# the volume element's perturbation is _VOL_COEFF |x|^vol_degree
_VOL_COEFF = 0.1

_POLAR = {7: 4, 8: 3, 9: 3}

# the angular tables in stacking order; the last four exist only when the
# engine carries a generic spinor
_TABLES = ("S0", "S1", "TH0", "TH1", "L1S0", "L1S1", "L2S0", "L2S1",
           "Q2", "Q3", "Q4", "Z2", "Z3", "Z4", "P2", "P3", "P4",
           "S0g", "S1g", "TH0g", "TH1g")
_ROW = {name: k for k, name in enumerate(_TABLES)}

# the field each energy term pairs against the cut-off spinor phib
_PAIRED = {"J1": "A1", "J2": "crit", "J3": "A2", "J4": "A3", "J5": "A4",
           "J6": "A5", "J7": "A6"}
_PAIR_KEYS = J_TERMS + ("J4_abs", "J4_pre", "den")
_NORM_KEYS = A_TERMS + ("total", "num")
_KEYS = J_TERMS + A_TERMS + ("total", "num", "J4_abs", "J4_pre", "den")

# the one byte budget of a block: ``_angular_slots``, ``point_gram``, J4_abs
# and ``_qnorms`` hold at most this much of their intermediates at a time,
# so no (nodes, angles) or (angles, K, K) array is ever formed; at 1 MB the
# blocks get so few rows that each GEMM streams its fixed operand too often
_BLOCK_BYTES = 1 << 22


def _default_rule(m: int):
    return sphere_rule(m, _POLAR.get(m, 5))


def _blocks(n: int, row_bytes: int):
    """Slices cutting range(n) into blocks of rows of ``row_bytes`` each,
    every block within ``_BLOCK_BYTES`` or one row long."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _angular_slots(T, U, UU):
    """``T[i, j, a1..ad]`` with its d = 2, 3, 4 slots at U[p]: (P, I, J).

    One GEMM against the pair products UU = U (x) U eats the last two
    slots; a batched product with U or UU eats what is left.  The angles
    run in blocks of ``_blocks``.
    """
    P, m = U.shape
    rows = T.reshape(-1, m * m)
    rest = {2: None, 3: U, 4: UU}[T.ndim - 2]
    out = np.empty((P, T.shape[0] * T.shape[1]))
    for blk in _blocks(P, 8 * rows.shape[0]):
        Y = UU[blk] @ rows.T
        if rest is not None:
            Y = (Y.reshape(Y.shape[0], out.shape[1], -1)
                 @ rest[blk, :, None])[..., 0]
        out[blk] = Y
    return out.reshape(P, *T.shape[:2])


def _theta_tables(theta, G, U, UU, psi):
    """Angular images of the cubic Clifford term on the spinor psi.

    Returns (TH0, TH1): at angle p, theta[ijk, abc] u_a u_b u_c gamma_i
    gamma_j gamma_k applied to psi and to its partner gamma(u) psi.  theta
    meets the Clifford words first and ``_angular_slots`` eats the u slots,
    so the (P, m^3) cubic form at the angles is never built.
    """
    P, m = U.shape
    out = []
    for X in (psi, np.einsum("irs,s->ir", G, psi)):
        for _ in range(3):
            X = np.einsum("irs,...s->i...r", G, X)
        Y = theta.reshape(m ** 3, -1).T @ X.reshape(m ** 3, -1).view(float)
        T = np.moveaxis(Y.reshape(X.shape + (2,)), (-2, -1), (0, 1))
        out.append(_angular_slots(T, U, UU).reshape(P, -1).view(complex))
    return out


class _AuditEngine:
    """Angular tables, their Gram matrices, and a per-epsilon radial sweep.

    Every audited field is a sum of real radial coefficients times fixed
    angular spinor tables T_k(p), each written into its row of one complex
    (K, P, N) array: S0, S1 (the profile spinor and its angular partner),
    TH0, TH1 (cubic Clifford term), L1S0..L2S1 (vector term), Q2..Q4,
    Z2..Z4 and P2..P4 (the B-jet terms by degree), plus S0g, S1g, TH0g,
    TH1g for a generic spinor.  Set-up builds the tables and nothing else.

    ``terms`` maps the radial nodes of one epsilon to a coefficient
    matrix c (nodes, K) per field.  A pairing is then sum_t meas_t
    a(t)^T G b(t) with the Gram matrix G = ``gram``, and |J4| needs one
    (nodes, P) array of the pointwise products ``th_s``.  A q-norm needs
    |A|^2 at every node and angle, which is sum_{k<=l} (2 - delta_kl)
    c_tk c_tl H_kl(p) with the pointwise Gram H = ``point_gram``.  Each
    field uses only its support (the tables with a nonzero coefficient)
    and its live nodes (the rows that are not all zero), so |A|^2 is one
    GEMM of the support's pair products against their entries of H.
    G, ``th_s`` and H are each built on first use: the residual audit
    builds only H, the energy audit only G and ``th_s``.  Every loop over
    angles or nodes runs in ``_blocks``, so no (nodes, P) array is formed.
    """

    def __init__(self, inputs: AuditInputs, rule=None, n_leg: int = 16,
                 vol_degree: int = 5, generic_psi0=None):
        m, params = inputs.m, inputs.params
        self.m = m
        self.N = N = params.rep.N
        self.q = 2.0 * m / (m + 1.0)
        self.two_star = 2.0 * m / (m - 1.0)
        self.cm = float(m) ** ((m - 1) / 2.0)
        self.delta = params.delta
        self.n_leg = n_leg
        self.vol_degree = vol_degree
        self.rule = rule if rule is not None else _default_rule(m)
        self.generic = generic_psi0 is not None

        U = self.rule.points
        self.WA = self.rule.weights
        P = U.shape[0]
        UU = (U[:, :, None] * U[:, None, :]).reshape(P, m * m)
        G = np.stack(params.rep.gammas)
        theta, (lin, quad) = inputs.theta_lambda
        Bt, _ = b_coefficient_tensors(inputs.riemann, inputs.jets)
        bh = [_angular_slots(Bt[d], U, UU) for d in (2, 3, 4)]
        wh = [(b @ U[:, :, None])[..., 0] for b in bh]

        spinors = {tag: np.asarray(psi, dtype=complex) for tag, psi in
                   (("", params.psi0), ("g", generic_psi0)) if psi is not None}
        # all slot blocks run before the tables exist, so their peaks never add
        cubic = {tag: _theta_tables(theta, G, U, UU, psi)
                 for tag, psi in spinors.items()}

        K = len(_TABLES) - (0 if self.generic else 4)
        self.tables = T = np.empty((K, P, N), dtype=complex)
        for tag, psi in spinors.items():
            T[_ROW["S0" + tag]] = psi
            T[_ROW["S1" + tag]] = U @ np.einsum("irs,s->ir", G, psi)
            T[_ROW["TH0" + tag]], T[_ROW["TH1" + tag]] = cubic[tag]

        GPsi = np.einsum("irs,s->ir", G, params.psi0)
        GG = np.einsum("irs,as->iar", G, GPsi).reshape(m * m, N).view(float)

        def words(A):  # sum_ij A[p, i, j] gamma_i gamma_j psi0: a real GEMM
            return (A.reshape(P, m * m) @ GG).view(complex)

        # the partner of a vector field L is sum_k L_k gamma_k gamma(u) psi0
        fields = {"L1": U @ lin.T, "L2": UU @ quad.reshape(m, m * m).T}
        for name, L in fields.items():
            T[_ROW[name + "S0"]] = L @ GPsi
            T[_ROW[name + "S1"]] = words(L[:, :, None] * U[:, None, :])
        for d, b, w in zip((2, 3, 4), bh, wh):
            T[_ROW[f"Q{d}"]] = w @ GPsi
            T[_ROW[f"Z{d}"]] = words(w[:, :, None] * U[:, None, :])
            T[_ROW[f"P{d}"]] = words(b)

    @functools.cached_property
    def gram(self):
        """G_kl = sum_p WA_p Re<T_k(p), T_l(p)>: one GEMM."""
        flat = self.tables.view(float).reshape(self.tables.shape[0], -1)
        return (flat * np.repeat(self.WA, 2 * self.N)) @ flat.T

    @functools.cached_property
    def th_s(self):
        """<TH_a(p), S_b(p)> for a, b in {0, 1}, as row 2a + b of (4, P)."""
        TH = self.tables[[_ROW["TH0"], _ROW["TH1"]]]
        S = self.tables[[_ROW["S0"], _ROW["S1"]]]
        return np.einsum("apn,bpn->abp", TH.conj(), S).reshape(4, -1)

    @functools.cached_property
    def point_gram(self):
        """(H, row): H[row[k, l]] = Re<T_k(p), T_l(p)> over p, for k <= l,
        cut from a batched GEMM over each block of angles."""
        K, P, _ = self.tables.shape
        F = self.tables.view(float).transpose(1, 0, 2)
        i, j = np.triu_indices(K)
        row = np.zeros((K, K), dtype=int)
        row[i, j] = np.arange(i.size)
        H = np.empty((i.size, P))
        for blk in _blocks(P, 8 * K * K):
            H[:, blk] = (F[blk] @ F[blk].transpose(0, 2, 1))[:, i, j].T
        return H, row

    def _coefficients(self, eps: float, r: np.ndarray) -> dict:
        """Coefficient rows (nodes, K) of every field at the radii r.

        Row t of a field F holds the radial factors of the tables, so that
        F(r_t u_p) = sum_k F[t, k] T_k(p).
        """
        m, two_star = self.m, self.two_star
        rho = r / eps
        W = 1.0 + rho * rho
        amp = eps ** (-(m - 1) / 2.0)
        gamp = eps ** (-(m + 1) / 2.0) * self.cm
        rad = amp * self.cm * W ** (-m / 2.0)
        norm_psi = amp * (m / W) ** ((m - 1) / 2.0)
        ev, ep = eta(r, self.delta), eta_d1(r, self.delta)
        K = self.tables.shape[0]

        def rows(**entries):
            out = np.zeros((r.size, K))
            for name, v in entries.items():
                out[:, _ROW[name]] = v
            return out

        psib = rows(S0=rad, S1=-rad * rho)
        s1, s2, s3 = ev * rad * r, ev * rad * r ** 2, ev * rad * r ** 3
        pw = {d: r ** d for d in (2, 3, 4)}
        bqz = rows(**{f"Q{d}": v for d, v in pw.items()},
                   **{f"Z{d}": -rho * v for d, v in pw.items()})
        bp = rows(**{f"P{d}": v for d, v in pw.items()})

        c = {"phib": ev[:, None] * psib}
        c["crit"] = ((ev * norm_psi) ** (two_star - 2.0))[:, None] * c["phib"]
        c["A1"] = rows(S0=ep * rad * rho, S1=ep * rad)
        c["A2"] = ((ev - ev ** (two_star - 1.0))
                   * norm_psi ** (two_star - 2.0))[:, None] * psib
        c["A3"] = rows(TH0=s3, TH1=-s3 * rho)
        c["A4"] = rows(L1S0=s1, L1S1=-s1 * rho, L2S0=s2, L2S1=-s2 * rho)
        c["A5"] = (
            (-m * ev * gamp * rho * W ** (-m / 2.0 - 1.0))[:, None] * bqz
            - (ev * gamp * W ** (-m / 2.0))[:, None] * bp)
        c["A6"] = (ep * rad)[:, None] * bqz
        c["total"] = sum(c[name] for name in A_TERMS)
        c["num"] = c["crit"] + c["total"]
        if self.generic:
            c["psg"] = rows(S0g=ev * rad, S1g=-ev * rad * rho)
            c["A3g"] = rows(TH0g=s3, TH1g=-s3 * rho)
        return c

    def _pairings(self, c: dict, meas: np.ndarray) -> dict:
        def pair(a, b):
            return float(meas @ np.einsum("tk,tk->t", a, b @ self.gram))

        out = {j: pair(c[field], c["phib"]) for j, field in _PAIRED.items()}
        out["J4_pre"] = pair(c["A3g"], c["psg"]) if self.generic else 0.0
        th = c["A3"][:, [_ROW["TH0"], _ROW["TH1"]]]
        s = c["phib"][:, [_ROW["S0"], _ROW["S1"]]]
        ts = (th[:, :, None] * s[:, None, :]).reshape(-1, 4)
        per = np.empty(ts.shape[0])
        for blk in _blocks(ts.shape[0], self.th_s.itemsize * self.WA.size):
            per[blk] = np.abs(ts[blk] @ self.th_s) @ self.WA
        out["J4_abs"] = float(meas @ per)
        out["den"] = float(sum(out[k] for k in J_TERMS))
        return out

    def _qnorms(self, c: dict, meas: np.ndarray, names) -> dict:
        H, row = self.point_gram
        out = {}
        for name in names:
            coef = c[name]
            s = np.flatnonzero(coef.any(axis=0))
            live = np.flatnonzero(coef[:, s].any(axis=1))
            acc = 0.0
            if live.size:
                a = coef[np.ix_(live, s)]
                i, j = np.triu_indices(s.size)
                pairs = a[:, i] * a[:, j]
                pairs[:, i != j] *= 2.0
                # on the full support row[s[i], s[j]] is arange: H itself
                Hs = H if s.size == row.shape[0] else H[row[s[i], s[j]]]
                per = np.empty(live.size)
                for blk in _blocks(live.size, H.itemsize * H.shape[1]):
                    dens = pairs[blk] @ Hs
                    per[blk] = np.power(dens, self.q / 2.0, out=dens) @ self.WA
                acc = meas[live] @ per
            power = (self.m + 1.0) / self.m if name == "num" else 1.0 / self.q
            out[name] = float(acc ** power)
        return out

    def terms(self, eps: float, keys=None) -> dict:
        """Audited quantities at one concentration scale.

        ``keys`` names the quantities wanted, all of them by default.  The
        pairings run only for a J-term, J4_abs, J4_pre or den, the q-norms
        only for an A-term, total or num.
        """
        keys = _KEYS if keys is None else tuple(keys)
        r, w = panel_nodes(shell_edges(eps, self.delta), self.n_leg)
        vol = 1.0 + _VOL_COEFF * r ** self.vol_degree
        meas = w * r ** (self.m - 1) * vol
        c = self._coefficients(eps, r)
        out = {}
        if any(k in _PAIR_KEYS for k in keys):
            out.update(self._pairings(c, meas))
        norms = [k for k in _NORM_KEYS if k in keys]
        if norms:
            out.update(self._qnorms(c, meas, norms))
        return {k: out[k] for k in keys}


# ---------------------------------------------------------------------------
# reports and their verdicts

def residual_exponents(m: int) -> dict:
    """Decay exponents of the six residual norms for 4 <= m <= 8.

    Derived by scaling each integrand: terms whose rescaled integral
    converges keep the naive power, divergent ones pick up the cutoff
    radius instead, and the borderline case carries a logarithm (entered
    as None; at m = 7 that happens to the vector-correction term).
    """
    if not 4 <= m <= 8:
        raise ValueError("exponent table covers 4 <= m <= 8")
    half = (m - 1) / 2.0
    exps = {"A1": half, "A2": half + 1.0, "A3": half,
            "A4": half if m < 7 else (None if m == 7 else 3.0),
            "A5": half, "A6": half}
    exps["total"] = min(half, 3.0)
    return exps


@dataclass(frozen=True)
class AuditReport:
    """One audit's evidence: its JSON payload and its CSV table.

    ``payload`` is the audit's document without its verdict, ``table``
    its (term, eps, value) rows.  ``summary`` applies the audit's pass
    rules, ``_VERDICTS[payload["audit"]]``, to a deep copy of the payload.
    """

    payload: dict
    table: tuple

    def rows(self):
        return list(self.table)

    def summary(self) -> dict:
        doc = copy.deepcopy(self.payload)
        _VERDICTS[doc["audit"]](doc)
        return doc


def _residual_verdict(doc):
    terms = doc["terms"]
    for term in terms.values():
        exp, slope = term["expected"], term["slope"]
        term["within_tolerance"] = (None if exp is None or not math.isfinite(slope)
                                    else bool(abs(slope - exp) <= _ORDER_TOL))
    doc["total_floor_ok"] = bool(terms["total"]["slope"] >= doc["total_floor"])
    # a term without a predicted order (None) passes
    doc["ok"] = doc["total_floor_ok"] and all(
        t["within_tolerance"] is not False for t in terms.values())


def _energy_verdict(doc):
    j6 = doc["J6"]
    doc["ok"] = bool(all(v <= 1e-12 for v in doc["pointwise_zero_max"].values())
                     and doc["J2"]["rel_err"] <= 1e-6
                     and abs(j6["slope"] - 4.0) <= 0.1
                     and j6["rel_err"] <= 0.05 and j6["negative"])


def _rayleigh_verdict(doc):
    above = all(x > 0.0 for x in doc["excess"][-2:])
    doc["excess_positive_smallest_two"] = above
    doc["ok"] = bool(doc["num_rel_err"] <= 0.01 and doc["den_rel_err"] <= 0.01
                     and above)


_VERDICTS = {"residual": _residual_verdict, "energy": _energy_verdict,
             "rayleigh": _rayleigh_verdict}


# ---------------------------------------------------------------------------
# audit drivers

def check_audit_m(audit: str, m: int, error=ValueError) -> None:
    """Raise ``error`` unless m lies in ``AUDIT_M_RANGE[audit]``."""
    lo, hi = AUDIT_M_RANGE[audit]
    if not lo <= m <= hi:
        raise error(f"{audit} audit needs {lo} <= m <= {hi}, got {m}")


def check_first_scale(first_scale: float, error=ValueError) -> None:
    """Raise ``error`` unless 0 <= first_scale <= AUDIT_MAX_FIRST_SCALE."""
    if not 0.0 <= first_scale <= AUDIT_MAX_FIRST_SCALE:
        raise error(f"first_scale must lie in [0, {AUDIT_MAX_FIRST_SCALE:g}]"
                    f", got {first_scale!r}")


def check_eps_grid(audit: str, eps, error=ValueError) -> np.ndarray:
    """``eps`` as a float array; raise ``error`` unless its scales are
    finite, positive, strictly decreasing and at least four (two for the
    Rayleigh audit, which fits no slope but reads the two smallest)."""
    min_points = 2 if audit == "rayleigh" else 4
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1 or eps.size < min_points:
        raise error(f"eps grid must be a 1-d sequence of at least "
                    f"{min_points} points")
    if not np.all(np.isfinite(eps)) or np.any(eps <= 0.0):
        raise error("eps grid entries must be positive and finite")
    if np.any(np.diff(eps) >= 0):
        raise error("eps grid must be strictly decreasing")
    return eps


def _preamble(audit, m, eps_grid, inputs, seed, first_scale):
    """What every audit checks before any work: ``check_audit_m``,
    ``check_first_scale`` and ``check_eps_grid``.  Returns the scales, by
    default the audit's default grid, and the bundle: ``inputs``, or else
    the seeded draw."""
    check_audit_m(audit, m)
    check_first_scale(first_scale)
    if eps_grid is None:
        eps_grid = (rayleigh_eps_grid() if audit == "rayleigh"
                    else default_eps_grid())
    eps = check_eps_grid(audit, eps_grid)
    if inputs is None:
        inputs = audit_inputs(m, seed=seed, first_scale=first_scale)
    elif inputs.m != m:
        raise ValueError(f"audit inputs have m = {inputs.m}, not {m}")
    return eps, inputs


def _sweep(engine, eps, keys):
    rows = [engine.terms(e, keys) for e in eps]
    return {k: np.array([r[k] for r in rows]) for k in keys}


def _table(eps, vals, names):
    """(term, eps, value) rows, term by term."""
    return tuple((name, float(e), float(v))
                 for name in names for e, v in zip(eps, vals[name]))


def residual_audit(m: int, eps_grid=None, *, inputs: AuditInputs = None,
                   rule=None, n_leg: int = 16, vol_degree: int = 5,
                   seed: int = 0, first_scale: float = 100.0) -> AuditReport:
    """Fit the decay orders of the six residual norms and their sum, on
    the ``AuditInputs`` bundle ``inputs``."""
    eps, inputs = _preamble("residual", m, eps_grid, inputs, seed, first_scale)
    engine = _AuditEngine(inputs, rule=rule, n_leg=n_leg,
                          vol_degree=vol_degree)
    names = A_TERMS + ("total",)
    vals = _sweep(engine, eps, names)
    expected = residual_exponents(m) if m <= 8 else dict.fromkeys(names)
    payload = {
        "audit": "residual",
        "m": m,
        "eps": [float(e) for e in eps],
        "terms": {k: {"slope": _window_slope(eps, vals[k], lower=True),
                      "slope_full_grid": _slope(eps, vals[k]),
                      "expected": expected[k]} for k in names},
        "total_floor": min((m - 1) / 2.0, 3.0) - _ORDER_TOL,
        "log_factor_terms": [k for k, v in expected.items() if v is None],
    }
    return AuditReport(payload, _table(eps, vals, names))


def energy_audit(m: int, eps_grid=None, *, inputs: AuditInputs = None,
                 rule=None, n_leg: int = 16, vol_degree: int = 5,
                 seed: int = 0, first_scale: float = 10.0) -> AuditReport:
    """Decompose the curved pairing of ``inputs`` (an ``AuditInputs``
    bundle with nonzero curvature) and audit each term's behaviour.

    ``seed`` also draws the generic spinor that J4_pre pairs against.
    """
    eps, inputs = _preamble("energy", m, eps_grid, inputs, seed, first_scale)
    if inputs.riemann.frobenius() == 0.0:
        raise ValueError("energy audit needs a nonzero curvature tensor")
    rep = inputs.params.rep
    coeff = theta_pairing_coefficients(inputs.theta_lambda[0])
    generic = _generic_spinor(rep, coeff, seed=seed)
    engine = _AuditEngine(inputs, rule=rule, n_leg=n_leg,
                          vol_degree=vol_degree, generic_psi0=generic)
    names = J_TERMS + ("J4_abs", "J4_pre")
    vals = _sweep(engine, eps, names)

    j2_limit = m ** m * sphere_area(m) * radial_I(m)
    cancelled = bool(np.all(np.abs(vals["J4"]) <= 1e-12 * vals["J4_abs"]))
    mom = moment_table(m)
    f_gen = psi0_functional(rep, coeff, generic)
    j6_coeff = float(vals["J6"][-1] / eps[-1] ** 4)
    j6_pred = m ** (m - 1) * j6_leading(inputs.riemann, mom)
    payload = {
        "audit": "energy",
        "m": m,
        "eps": [float(e) for e in eps],
        "pointwise_zero_max": {k: float(np.abs(vals[k]).max())
                               for k in ("J1", "J5", "J7")},
        "J2": {"limit": float(j2_limit),
               "rel_err": float(abs(vals["J2"][-1] - j2_limit) / j2_limit),
               "error_slope": _window_slope(eps, np.abs(vals["J2"] - j2_limit),
                                            lower=False),
               "expected_order": float(min(m, vol_degree))},
        "J3": {"slope": _window_slope(eps, vals["J3"], lower=True)},
        "J4": {"cancelled": cancelled,
               "noise_floor": 1e-12 * float(vals["J4_abs"].max()),
               "post_slope": math.inf if cancelled else _window_slope(
                   eps, np.abs(vals["J4"]), lower=True),
               "pre_slope": _window_slope(eps, np.abs(vals["J4_pre"]),
                                          lower=True),
               "pre_coeff": float(vals["J4_pre"][-1] / eps[-1] ** 4),
               "pre_predicted": float(-2.0 * m ** (m - 1) * mom.M22 * f_gen)},
        "J6": {"slope": _window_slope(eps, np.abs(vals["J6"]), lower=True),
               "coeff": j6_coeff,
               "predicted": float(j6_pred),
               "rel_err": float(abs(j6_coeff - j6_pred) / abs(j6_pred)),
               "negative": bool(np.all(vals["J6"][_window(eps, True)] < 0.0))},
    }
    return AuditReport(payload, _table(eps, vals, names))


def rayleigh_audit(m: int, eps_grid=None, *, inputs: AuditInputs = None,
                   rule=None, n_leg: int = 16, vol_degree: int = 5,
                   seed: int = 0, first_scale: float = 100.0) -> AuditReport:
    """Assemble the quotient and compare it against its flat-model limit.

    The numerator is the L^{2m/(m+1)} integral of the curved image raised
    to (m+1)/m, the denominator the pairing decomposition; both use the
    same quadrature tables.  The report records the limits and whether
    the quotient sits above the critical threshold at the smallest two
    grid points.  ``inputs`` is the ``AuditInputs`` bundle audited.
    """
    eps, inputs = _preamble("rayleigh", m, eps_grid, inputs, seed, first_scale)
    engine = _AuditEngine(inputs, rule=rule, n_leg=n_leg,
                          vol_degree=vol_degree)
    vals = _sweep(engine, eps, ("num", "den"))
    num, den = vals["num"], vals["den"]
    om = sphere_volume(m)
    num_limit = (0.5 * m) ** (m + 1) * om ** ((m + 1.0) / m)
    den_limit = (0.5 * m) ** m * om
    threshold = 0.5 * m * om ** (1.0 / m)
    vals["excess"] = num / den - threshold
    payload = {
        "audit": "rayleigh",
        "m": m,
        "eps": [float(e) for e in eps],
        "num_limit": float(num_limit),
        "den_limit": float(den_limit),
        "num_rel_err": float(abs(num[-1] - num_limit) / num_limit),
        "den_rel_err": float(abs(den[-1] - den_limit) / den_limit),
        "threshold": float(threshold),
        "excess": [float(x) for x in vals["excess"]],
    }
    # scale by scale: num, den and excess at each eps
    return AuditReport(payload, tuple(
        (name, float(e), float(vals[name][i]))
        for i, e in enumerate(eps) for name in ("num", "den", "excess")))
