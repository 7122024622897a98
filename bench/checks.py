"""Output checks that do not reuse the program's own arithmetic.

Every check rests on a closed form, an independent recomputation or a
property of the method; none compares against a stored copy of an
earlier output.  Each function returns a list of failure messages, empty
when the output passes.

Torus states are rebuilt from their coefficient rows with this file's
own lattice enumeration, its own eigenvectors of the Dirac symbol and
its own separable mode sums on a grid finer than the solver's.  The
conventions are the documented ones of ``spinlab.dirac_torus``: the
torus is [0, 2 pi)^2, a mode k carries the plane wave
exp(i (k + delta) . x) / (2 pi) times a unit eigenvector of the symbol
-(theta_1 sigma_1 + theta_2 sigma_2) whose first component is real and
positive, and a kernel coefficient c_j is the constant c_j / (2 pi) in
component j.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# torus ground states

def lattice_modes(lam_max, delta):
    """Integer labels k with 0 < |k + delta| <= lam_max."""
    span = int(math.floor(lam_max)) + 1
    out = []
    for k1 in range(-span, span + 1):
        for k2 in range(-span, span + 1):
            r = math.hypot(k1 + delta[0], k2 + delta[1])
            if 0.0 < r <= lam_max + 1e-12:
                out.append((k1, k2))
    return out


def symbol_eigenvectors(theta):
    """Unit eigenvectors for +|theta| and -|theta| of the Dirac symbol.

    Computed by a Hermitian eigensolve per mode, then fixed in phase so
    the first component is real and positive.
    """
    e_plus = np.empty((len(theta), 2), dtype=complex)
    e_minus = np.empty((len(theta), 2), dtype=complex)
    for j, (t1, t2) in enumerate(theta):
        sym = -np.array([[0.0, t1 - 1j * t2], [t1 + 1j * t2, 0.0]])
        vals, vecs = np.linalg.eigh(sym)
        for col, target in ((1, e_plus), (0, e_minus)):
            v = vecs[:, col]
            v = v * (abs(v[0]) / v[0])
            target[j] = v
    return e_plus, e_minus


def parse_rows(rows):
    """(mode, block, re, im) rows -> dict block -> {(k1, k2): coeff}."""
    blocks = {"plus": {}, "minus": {}, "kernel": []}
    for mode, block, re, im in rows:
        value = complex(float(re), float(im))
        if block == "kernel":
            blocks["kernel"].append(value)
            continue
        k1, k2 = (int(v) for v in str(mode).split())
        if (k1, k2) in blocks[block]:
            raise ValueError(f"mode {k1} {k2} listed twice in {block}")
        blocks[block][(k1, k2)] = value
    return blocks


class TorusField:
    """A truncated spinor rebuilt from its coefficients."""

    def __init__(self, blocks, lam_max, delta):
        self.delta = tuple(float(d) for d in delta)
        self.modes = lattice_modes(lam_max, self.delta)
        self.kernel = np.array(blocks["kernel"], dtype=complex)
        self.plus = np.array([blocks["plus"].get(k, 0.0) for k in self.modes],
                             dtype=complex)
        self.minus = np.array([blocks["minus"].get(k, 0.0)
                               for k in self.modes], dtype=complex)
        self.theta = np.array(self.modes, dtype=float) + np.array(self.delta)
        self.lam = np.hypot(self.theta[:, 0], self.theta[:, 1])
        self.e_plus, self.e_minus = symbol_eigenvectors(self.theta)
        self.n = 5 * (2 * int(math.ceil(lam_max)) + 1)
        x = TWO_PI * np.arange(self.n) / self.n
        self.k1 = sorted({k[0] for k in self.modes})
        self.k2 = sorted({k[1] for k in self.modes})
        self.E1 = np.exp(1j * np.outer(x, np.array(self.k1) + self.delta[0]))
        self.E2 = np.exp(1j * np.outer(x, np.array(self.k2) + self.delta[1]))
        self.index = [(self.k1.index(a), self.k2.index(b))
                      for a, b in self.modes]
        self.weight = (TWO_PI / self.n) ** 2

    def values(self):
        """Field on the n x n grid, shape (2, n, n)."""
        coeff = np.zeros((2, len(self.k1), len(self.k2)), dtype=complex)
        vec = (self.plus[:, None] * self.e_plus
               + self.minus[:, None] * self.e_minus)
        for j, (a, b) in enumerate(self.index):
            coeff[:, a, b] = vec[j]
        field = np.einsum("xa,cab,yb->cxy", self.E1, coeff, self.E2) / TWO_PI
        if self.kernel.size:
            field += (self.kernel / TWO_PI)[:, None, None]
        return field

    def analyze(self):
        """Energy, quartic mass, H^(1/2) gradient norm, kernel moment."""
        psi = self.values()
        dens = np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2
        quartic = self.weight * float(np.sum(dens * dens))
        qplus = float(np.sum(self.lam * np.abs(self.plus) ** 2))
        qminus = float(np.sum(self.lam * np.abs(self.minus) ** 2))
        energy = 0.5 * (qplus - qminus) - 0.25 * quartic

        cubic = dens[None] * psi
        # L2 coefficients of |psi|^2 psi against each plane wave
        proj = self.weight * np.einsum("xa,cxy,yb->cab", np.conj(self.E1),
                                       cubic, np.conj(self.E2)) / TWO_PI
        vec = np.array([proj[:, a, b] for a, b in self.index])
        c_plus = np.sum(np.conj(self.e_plus) * vec, axis=1)
        c_minus = np.sum(np.conj(self.e_minus) * vec, axis=1)
        g_plus = self.plus - c_plus / self.lam
        g_minus = -self.minus - c_minus / self.lam
        grad_sq = float(np.sum(self.lam * np.abs(g_plus) ** 2)
                        + np.sum(self.lam * np.abs(g_minus) ** 2))
        moment = self.weight * cubic.sum(axis=(1, 2))
        if self.kernel.size:
            grad_sq += float(np.sum(np.abs(moment / TWO_PI) ** 2))
        return {"energy": energy, "quartic": quartic,
                "grad_norm": math.sqrt(grad_sq), "kernel_moment": moment}


def check_torus(rows, summary, lam_max, delta, tol, kernel):
    """Checks on one ground state given as CSV rows plus its payload."""
    fails = []
    try:
        blocks = parse_rows(rows)
    except ValueError as exc:
        return [str(exc)]
    field = TorusField(blocks, lam_max, delta)
    own = set(field.modes)
    for block in ("plus", "minus"):
        if set(blocks[block]) != own:
            fails.append(f"{block} modes differ from the lattice count "
                         f"{len(own)} (got {len(blocks[block])})")
    if int(summary.get("modes", -1)) != len(own):
        fails.append(f"reported modes {summary.get('modes')} != {len(own)}")
    want_kernel = 2 if kernel else 0
    if field.kernel.size != want_kernel:
        fails.append(f"kernel block has {field.kernel.size} entries, "
                     f"expected {want_kernel}")
        return fails

    res = field.analyze()
    e = res["energy"]
    if not res["grad_norm"] <= 10.0 * tol:
        fails.append(f"gradient norm {res['grad_norm']:.3e} > {10 * tol:.1e}")
    if not abs(e - 0.25 * res["quartic"]) <= 1e-6 * abs(e):
        fails.append(f"energy {e!r} != quartic/4 {0.25 * res['quartic']!r}")
    if not e > math.pi:
        fails.append(f"energy {e!r} not above the one-bubble level pi")
    reported = float(summary.get("energy", math.nan))
    if not abs(reported - e) <= 1e-9 * abs(e):
        fails.append(f"reported energy {reported!r} != rebuilt {e!r}")
    if kernel:
        moment = float(np.max(np.abs(res["kernel_moment"])))
        if not moment <= TWO_PI * 10.0 * tol:
            fails.append(f"kernel moment |int |psi|^2 psi| = {moment:.3e}")
    return fails


# ---------------------------------------------------------------------------
# scaling audits at m = 6

def read_terms(rows):
    """term, eps, value rows -> term -> (eps decreasing, values)."""
    table = {}
    for term, eps, value in rows:
        table.setdefault(term, []).append((float(eps), float(value)))
    out = {}
    for term, pairs in table.items():
        pairs.sort(key=lambda p: -p[0])
        out[term] = (np.array([p[0] for p in pairs]),
                     np.array([p[1] for p in pairs]))
    return out


def lower_slope(eps, values):
    """Least-squares log-log slope on the lower half of the grid."""
    n = max(4, eps.size // 2)
    le = np.log(eps[-n:])
    lv = np.log(np.abs(values[-n:]))
    le0 = le - le.mean()
    return float(np.sum(le0 * (lv - lv.mean())) / np.sum(le0 * le0))


def check_residual(rows, m=6):
    fails = []
    table = read_terms(rows)
    half = (m - 1) / 2.0
    expected = {"A1": half, "A2": half + 1.0, "A3": half, "A4": half,
                "A5": half, "A6": half, "total": half}
    for term, exp in expected.items():
        if term not in table:
            fails.append(f"residual term {term} missing")
            continue
        eps, vals = table[term]
        if eps.size < 4 or not np.all(vals > 0.0):
            fails.append(f"residual term {term} has unusable values")
            continue
        slope = lower_slope(eps, vals)
        if not abs(slope - exp) <= 0.15:
            fails.append(f"{term} slope {slope:.3f} vs {exp}")
    return fails


def j2_closed_form(m):
    """m^m |S^{m-1}| Gamma(m/2)^2 / (2 Gamma(m))."""
    area = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    return m ** m * area * math.gamma(m / 2.0) ** 2 / (2.0 * math.gamma(m))


def check_energy(rows, m=6):
    fails = []
    table = read_terms(rows)
    for term in ("J1", "J2", "J5", "J6", "J7"):
        if term not in table:
            return [f"energy term {term} missing"]
    for term in ("J1", "J5", "J7"):
        worst = float(np.max(np.abs(table[term][1])))
        if not worst <= 1e-12:
            fails.append(f"{term} max {worst:.3e} > 1e-12")
    eps, j2 = table["J2"]
    closed = j2_closed_form(m)
    rel = abs(j2[-1] - closed) / closed
    if not rel <= 1e-6:
        fails.append(f"J2 at eps={eps[-1]:.3g} off closed form by {rel:.3e}")
    eps, j6 = table["J6"]
    if not np.all(j6 != 0.0):
        fails.append("J6 vanishes on the grid")
        return fails
    slope = lower_slope(eps, j6)
    if not abs(slope - 4.0) <= 0.1:
        fails.append(f"J6 slope {slope:.3f} vs 4")
    n = max(4, eps.size // 2)
    if not np.all(j6[-n:] < 0.0):
        fails.append("J6 not negative on the lower window")
    return fails


# ---------------------------------------------------------------------------
# quick CLI runs

VERIFY_TOLERANCES = {
    "clifford": {"anticommutation": 1e-12, "antihermiticity": 1e-12},
    "spinor": {"max_residual": 1e-10},
    "curvature": {"bbg_residual": 1e-12, "binv_residual": 1e-12,
                  "det_residual": 1e-12},
}


def check_verify(payload, check):
    fails = []
    results = payload.get("results") or []
    if not results:
        return [f"verify {check}: no results"]
    for entry in results:
        for key, limit in VERIFY_TOLERANCES[check].items():
            value = float(entry.get(key, math.inf))
            if not value <= limit:
                fails.append(f"verify {check} m={entry.get('m')}: "
                             f"{key} {value:.3e} > {limit:.0e}")
        if check == "spinor":
            slope = float(entry.get("fd_slope", math.nan))
            if not abs(slope - 2.0) <= 0.2:
                fails.append(f"verify spinor m={entry.get('m')}: "
                             f"difference order {slope:.3f} vs 2")
    return fails


def check_psi0(payload):
    worst = float(payload.get("worst_functional", math.inf))
    if not worst <= 1e-10:
        return [f"psi0 worst functional {worst:.3e} > 1e-10"]
    return []


def check_gamma(payload, spectrum=None):
    """The ground level is min over positive entries d of d^2 / 4.

    The toy problem is the unit case d = 1.
    """
    positive = [d for d in (spectrum or (1.0,)) if d > 0.0]
    want = min(d * d for d in positive) / 4.0
    got = float(payload.get("gamma", math.nan))
    if not abs(got - want) <= 1e-8:
        return [f"gamma {got!r} vs closed form {want!r}"]
    return []
