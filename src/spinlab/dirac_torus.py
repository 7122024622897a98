"""Spectrally truncated Dirac dynamics on the flat square torus.

The torus is R^2 modulo 2 pi Z^2.  Spinors are C^2-valued fields whose
Fourier frequencies sit on Z^2 + delta for a spin-structure offset
delta in {0, 1/2}^2; the Dirac operator acts mode by mode through the
Hermitian symbol -(theta_1 sigma_1 + theta_2 sigma_2) with eigenvalues
+-|theta|.  Keeping frequencies up to a cutoff turns the critical
functional

    Phi(psi) = (|psi^+|^2 - |psi^-|^2) / 2 - (1/4) int |psi|^4

into a finite-dimensional strongly indefinite problem matching the
reduction solver's contract, with the H^(1/2) norm |psi|^2 = sum of
|lambda| |a|^2 over eigenmodes and plain L^2 on the kernel block.  For
the trivial offset the operator kernel consists of the constant
spinors; the quartic term is then replaced by the kernel-reduced
|psi - T(psi)|^4 with T the best L^4 approximation in the kernel, whose
critical points map back to those of Phi via psi -> psi - T(psi).

Fields are evaluated on a uniform n_g x n_g grid by a separable partial
DFT over the square box of integer mode labels: two small matrices per
basis, exp(i (k + delta_j) x) for the labels k of the box and the grid
points x, carry the spin-structure phase.  A spinor is its coefficient
vector, laid out as [plus, minus, kernel] (``SpectralBasis``), and a
transform is one GEMM over both spinor components along one axis and
one batched product along the other.

The grid is exact at n_g >= 2 nk - 1, where nk = modes.max() -
modes.min() + 1 is the width of the box, and that threshold is the
grid.  Proof: on each axis a field is sum_k a_k exp(i (k + delta) x)
with nk consecutive labels k, so conj(psi) psi' has integer frequencies
k' - k of modulus <= nk - 1 and the spin phase cancels.  The integrand
|psi|^4, and the integrand |psi|^2 psi exp(-i (k + delta) x) of every
box coefficient of |psi|^2 psi, are then trigonometric polynomials of
degree <= 2 (nk - 1) per axis; so are the Hessian products 2 Re<psi, chi>
psi + |psi|^2 chi and the kernel Gram sums, since the constant spinors
lie in the box.  The n-point trapezoidal rule integrates exp(i m x)
exactly unless m is a nonzero multiple of n, hence exactly for every
|m| <= 2 (nk - 1) once n >= 2 nk - 1 (Trefethen and Weideman, SIAM
Review 56, 2014; Orszag, J. Atmos. Sci. 28, 1971, on dealiasing
products).  At n = 2 nk - 2 the top frequency m = n aliases onto the
mean, and the quartic of a generic field is wrong.

The surface is 2-dimensional, so the critical exponent is 4 and the
solver exercises the desk-scale instance of the general machinery;
nothing here claims the high-dimensional results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .reduction import IndefiniteProblem, minimize_nehari

__all__ = [
    "SpinStructure",
    "SpectralBasis",
    "GroundState",
    "build_dirac",
    "phi_functional",
    "T_project",
    "tilde_phi",
    "ground_state_problem",
    "solve_ground_state",
    "refine_ground_state",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpinStructure:
    """Fourier-mode offset per axis, each component 0 or 1/2."""

    delta1: float
    delta2: float

    def __post_init__(self):
        for d in (self.delta1, self.delta2):
            if d not in (0.0, 0.5):
                raise ValueError("spin offsets must be 0 or 1/2")

    @classmethod
    def from_text(cls, text: str) -> "SpinStructure":
        names = {"0": 0.0, "0.0": 0.0, "0.5": 0.5, "1/2": 0.5}
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2 or any(p not in names for p in parts):
            raise ValueError(f"cannot parse spin structure {text!r}")
        return cls(names[parts[0]], names[parts[1]])

    @property
    def has_kernel(self) -> bool:
        return self.delta1 == 0.0 and self.delta2 == 0.0

    def astuple(self):
        return (self.delta1, self.delta2)


@dataclass(frozen=True)
class SpectralBasis:
    """All mode data for one cutoff and spin structure.

    A spinor is its complex coefficient vector c of length ``size`` =
    2 n_modes + kernel_dim, laid out as [plus, minus, kernel]: one
    coefficient per nonzero mode in the plus block and one in the minus
    block, then the coefficients of the constant spinors e_1/(2 pi),
    e_2/(2 pi) when the spin structure is trivial.  Every nonzero mode
    carries an orthonormal pair of symbol eigenvectors for the
    eigenvalues +-|theta|.

    Grid transforms run over the box of labels kk = modes.min() ..
    modes.max() on both axes, which holds every mode and the kernel mode
    (0, 0).  ``__post_init__`` builds E1[x, k] = exp(i (k + delta_1) x)
    and E2t[k, x] = exp(i (k + delta_2) x) over the grid points
    x = 2 pi j / n_g and their conjugate transposes, the symbol
    eigenvector components of both blocks as one (block, component,
    mode) array with 1/(2 pi) folded in, their conjugates with
    2 pi / n_g^2 folded in, and the flat box index of every mode and of
    the kernel mode.  ``to_grid`` fills the (component, box) array from
    the rows c[:2 n_modes].reshape(2, n_modes), a view, and the kernel
    block, then runs one GEMM (2 nk, nk) @ E2t over both components and
    one batched product with E1; ``from_grid`` runs the same products
    backwards with E2t^H and E1^H.  Every mode gets the discrete Fourier
    coefficient an FFT of the grid with the spin phase removed would
    give it.
    """

    lam_max: float
    delta: SpinStructure
    n_g: int
    modes: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    _e1: np.ndarray = field(init=False, repr=False, compare=False)
    _e2t: np.ndarray = field(init=False, repr=False, compare=False)
    _e1h: np.ndarray = field(init=False, repr=False, compare=False)
    _e2c: np.ndarray = field(init=False, repr=False, compare=False)
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _wc: np.ndarray = field(init=False, repr=False, compare=False)
    _flat: np.ndarray = field(init=False, repr=False, compare=False)
    _flat0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = int(self.modes.min())
        kk = np.arange(lo, int(self.modes.max()) + 1)
        j = np.arange(self.n_g)

        def dft(delta):
            # exp(i (k + delta) x_j) with the argument reduced exactly in
            # integers: (k + delta) x_j = pi ((2k + 2 delta) j mod 2 n_g) / n_g
            turns = np.outer(j, 2 * kk + round(2 * delta)) % (2 * self.n_g)
            return np.exp((1j * math.pi / self.n_g) * turns)

        e1 = dft(self.delta.delta1)
        e2t = np.ascontiguousarray(dft(self.delta.delta2).T)
        nk = kk.size
        # (block, component, mode)
        weights = np.stack((self.e_plus.T, self.e_minus.T))
        put = object.__setattr__
        put(self, "_e1", e1)
        put(self, "_e2t", e2t)
        put(self, "_e1h", np.ascontiguousarray(e1.conj().T))
        put(self, "_e2c", np.ascontiguousarray(e2t.conj().T))
        put(self, "_w", weights / TWO_PI)
        put(self, "_wc", np.conj(weights) * (TWO_PI / self.n_g ** 2))
        # indices into the raveled (component, box) array
        flat = (self.modes[:, 0] - lo) * nk + (self.modes[:, 1] - lo)
        put(self, "_flat", np.concatenate((flat, flat + nk * nk)))
        # the kernel mode (0, 0) of both components, if there is a kernel
        put(self, "_flat0", (np.array([0, nk * nk]) - lo * nk - lo)
            if self.delta.has_kernel else np.zeros(0, dtype=int))

    @property
    def n_modes(self) -> int:
        return self.lam.size

    @property
    def kernel_dim(self) -> int:
        """Complex dimension of the Dirac kernel."""
        return 2 if self.delta.has_kernel else 0

    @property
    def quad_weight(self) -> float:
        return (TWO_PI / self.n_g) ** 2

    @property
    def size(self) -> int:
        """Length of a coefficient vector: 2 n_modes + kernel_dim."""
        return 2 * self.n_modes + self.kernel_dim

    def to_grid(self, c: np.ndarray) -> np.ndarray:
        """Evaluate the field with coefficient vector ``c`` on the uniform
        grid; shape (2, n_g, n_g) complex."""
        nk, n_g = self._e2t.shape
        M = self.n_modes
        box = np.zeros(2 * nk * nk, dtype=complex)
        terms = self._w * c[:2 * M].reshape(2, 1, M)
        box[self._flat] = (terms[0] + terms[1]).ravel()
        if self._flat0.size:
            box[self._flat0] = c[2 * M:] / TWO_PI
        half = (box.reshape(2 * nk, nk) @ self._e2t).reshape(2, nk, n_g)
        return self._e1 @ half

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """Project a grid field onto the basis (its box Fourier modes):
        the coefficient vector."""
        nk, n_g = self._e2t.shape
        half = (grid.reshape(2 * n_g, n_g) @ self._e2c).reshape(2, n_g, nk)
        box = (self._e1h @ half).reshape(2 * nk * nk)
        terms = self._wc * box[self._flat].reshape(2, -1)
        c = (terms[:, 0] + terms[:, 1]).ravel()
        if self._flat0.size:
            c = np.concatenate((c, box[self._flat0] * (TWO_PI / n_g ** 2)))
        return c

    def h_norm_sq(self, c: np.ndarray) -> float:
        """H^(1/2) norm squared: the plus and minus blocks weighted by
        |lambda|, the kernel block in L2."""
        M = self.n_modes
        return sum(float(np.sum(w * np.real(np.conj(b) * b))) for w, b in
                   ((self.lam, c[:M]), (self.lam, c[M:2 * M]),
                    (1.0, c[2 * M:])))


def build_dirac(lam_max: float, delta=(0.5, 0.5)) -> SpectralBasis:
    """Enumerate the modes below the cutoff and diagonalize the symbol.

    The grid resolution ``n_g`` is the exact threshold 2 nk - 1, with
    nk = modes.max() - modes.min() + 1 the width of the transform box;
    the module docstring proves it exact and sharp.
    """
    if not lam_max >= 1.0:
        raise ValueError("mode cutoff must be at least 1")
    if not math.isfinite(lam_max):
        raise ValueError("mode cutoff must be finite")
    if not isinstance(delta, SpinStructure):
        d1, d2 = delta
        delta = SpinStructure(float(d1), float(d2))

    span = int(math.ceil(lam_max)) + 1
    ks = np.arange(-span, span + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    modes = np.stack([k1.ravel(), k2.ravel()], axis=1)
    theta = modes + np.array(delta.astuple())
    lam = np.hypot(theta[:, 0], theta[:, 1])
    keep = (lam > 0.0) & (lam <= lam_max + 1e-12)
    modes, theta, lam = modes[keep], theta[keep], lam[keep]
    order = np.lexsort((modes[:, 1], modes[:, 0], lam))
    modes, theta, lam = modes[order], theta[order], lam[order]

    n_g = 2 * (int(modes.max()) - int(modes.min()) + 1) - 1

    # symbol -(theta . sigma) has eigenvector (1, -c/|theta|) for +|theta|
    # and (1, c/|theta|) for -|theta|, with c = theta_1 + i theta_2
    c = theta[:, 0] + 1j * theta[:, 1]
    unit = c / lam
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    e_plus = np.stack([np.full(lam.size, inv_sqrt2 + 0j),
                       -unit * inv_sqrt2], axis=1)
    e_minus = np.stack([np.full(lam.size, inv_sqrt2 + 0j),
                        unit * inv_sqrt2], axis=1)
    return SpectralBasis(float(lam_max), delta, n_g, modes,
                         theta, lam, e_plus, e_minus)


# ---------------------------------------------------------------------------
# the functional

def _pairing(z: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Pointwise Re<z, chi> = sum of Re z Re chi + Im z Im chi over both
    components of two C-contiguous grid fields, from their real views;
    the density |z|^2 is Re<z, z>, with no square root taken."""
    prod = z.view(float) * chi.view(float)
    parts = prod[..., 0::2] + prod[..., 1::2]
    return parts[0] + parts[1]


def _quartic_part(basis: SpectralBasis, c: np.ndarray):
    """Grid field z, density |z|^2, int |psi|^4 and the coefficient vector
    of |psi|^2 psi at the spinor ``c``, all exact on the exact grid."""
    z = basis.to_grid(c)
    dens = _pairing(z, z)
    quartic = basis.quad_weight * float(np.sum(dens * dens))
    return z, dens, quartic, basis.from_grid(dens * z)


def _checked(basis: SpectralBasis, c) -> np.ndarray:
    """``c`` as a contiguous complex array, refused unless it is a finite
    vector of shape (basis.size,)."""
    c = np.ascontiguousarray(c, dtype=complex)
    if c.shape != (basis.size,):
        raise ValueError(f"spinor coefficients c must have shape "
                         f"({basis.size},), got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("spinor coefficients c must be finite")
    return c


def phi_functional(basis: SpectralBasis, c: np.ndarray):
    """Phi, its H^(1/2) gradient and int |psi|^4 at the coefficient
    vector ``c``, from one quartic pass."""
    c = _checked(basis, c)
    _, _, quartic, cubic = _quartic_part(basis, c)
    M = basis.n_modes
    plus, minus = c[:M], c[M:2 * M]
    qplus = float(np.sum(basis.lam * np.abs(plus) ** 2))
    qminus = float(np.sum(basis.lam * np.abs(minus) ** 2))
    value = 0.5 * (qplus - qminus) - 0.25 * quartic
    grad = -cubic
    grad[:M] = plus - cubic[:M] / basis.lam
    grad[M:2 * M] = -minus - cubic[M:2 * M] / basis.lam
    return value, grad, quartic


# ---------------------------------------------------------------------------
# kernel best approximation

def _kernel_pairings(z: np.ndarray) -> np.ndarray:
    """Real pairings Re<z, d_j> with the L2-normalized constant spinors
    d = (1, 0), (i, 0), (0, 1), (0, i) over 2 pi, pointwise on the grid;
    shape (4, n_g^2)."""
    # (component, point, part) read as (component, part, point)
    parts = z.view(float).reshape(2, -1, 2).transpose(0, 2, 1)
    return np.divide(parts, TWO_PI, order="C").reshape(4, -1)


def _kernel_gram(P: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Unweighted 4x4 Gram system 2 P P^T + (sum dens / 4 pi^2) I of the
    quartic second form against the constant spinors.

    Since trace(P P^T) = sum dens / 4 pi^2, its condition number is at
    most 3 unless the density vanishes identically.
    """
    H = 2.0 * (P @ P.T)
    H[np.diag_indices(4)] += float(np.sum(dens)) / TWO_PI ** 2
    return H


def _kernel_coeffs(r: np.ndarray) -> np.ndarray:
    """Four real kernel coordinates -> two complex coefficients."""
    return np.array([r[0] + 1j * r[1], r[2] + 1j * r[3]])


def T_project(basis: SpectralBasis, c: np.ndarray,
              tol: float = 1e-12) -> np.ndarray:
    """Best approximation of the spinor in the Dirac kernel.

    Minimizes the quartic distance over the kernel by at most 50 damped
    Newton steps on four real coordinates, starting from the L2 kernel
    projection, until the gradient norm is at most ``tol`` or, where the
    line search stalls, at its rounding floor 4 eps w sum |z|^3 / (2 pi).
    Returns the kernel coefficients; empty when the kernel is trivial.
    """
    c = _checked(basis, c)
    if basis.kernel_dim == 0:
        return np.zeros(0, dtype=complex)
    grid = basis.to_grid(c)
    w = basis.quad_weight

    def grad_at(r):
        z = grid - (_kernel_coeffs(r) / TWO_PI)[:, None, None]
        dens = _pairing(z, z)
        P = _kernel_pairings(z)
        return -w * (P @ dens.ravel()), P, dens

    r = c[2 * basis.n_modes:].view(float)   # the real kernel coordinates
    g, P, dens = grad_at(r)
    gn = float(np.linalg.norm(g))
    for _ in range(50):
        if gn <= tol:
            break
        # gn > tol >= 0 makes g = -w P dens nonzero, so dens is not identically
        # zero and H has condition number at most 3 (``_kernel_gram``)
        H = w * _kernel_gram(P, dens)
        step = np.linalg.solve(H, -g)
        lam_step = 1.0
        while lam_step > 2.0 ** -30:
            g_new, P_new, dens_new = grad_at(r + lam_step * step)
            gn_new = float(np.linalg.norm(g_new))
            if gn_new <= (1.0 - 1e-4 * lam_step) * gn:
                r = r + lam_step * step
                g, P, dens, gn = g_new, P_new, dens_new, gn_new
                break
            lam_step *= 0.5
        else:
            # 2^-50 = 4 eps; the floor grows as the amplitude cubed
            floor = 2.0 ** -50 * w * float(np.sum(dens ** 1.5)) / TWO_PI
            if not gn <= floor:
                raise RuntimeError("kernel projection line search stalled")
            break
    else:
        raise RuntimeError(f"kernel projection did not converge; "
                           f"gradient norm {gn:.3e}")
    return _kernel_coeffs(r)


def _kernel_reduced(basis: SpectralBasis, c: np.ndarray) -> np.ndarray:
    """psi - T(psi) for psi with a zero kernel block; psi if no kernel."""
    if basis.kernel_dim == 0:
        return c
    # 0 - T(psi) has the bits of -T(psi), except that a zero stays +0.0
    return np.concatenate((c[:2 * basis.n_modes], 0.0 - T_project(basis, c)))


def tilde_phi(basis: SpectralBasis, c: np.ndarray):
    """Kernel-reduced functional and gradient on the plus/minus blocks.

    The quartic term is evaluated at psi - T(psi); by stationarity of
    the inner minimum the gradient takes the same form as for Phi with
    the shifted argument, and its kernel component vanishes.  Returns
    ``phi_functional`` at psi - T(psi), which is psi without a kernel.
    API only, backed by ``test_tilde_phi_inequality_and_kernel_gradient``.
    """
    c = _checked(basis, c)
    if np.any(c[2 * basis.n_modes:] != 0.0):
        raise ValueError("kernel block must be zero here")
    return phi_functional(basis, _kernel_reduced(basis, c))


# ---------------------------------------------------------------------------
# the indefinite problem in solver coordinates

def ground_state_problem(basis: SpectralBasis):
    """Wrap the truncated functional as an IndefiniteProblem.

    Real coordinates are sqrt(lambda)-scaled coefficient parts, so the
    H^(1/2) norm is Euclidean and the quadratic part of the energy is
    exactly (|u+|^2 - |u-|^2)/2.  X is the plus block, the first 2M
    coordinates.  Returns (problem, to_coords, from_coords); from_coords
    gives the coefficient vector with a zero kernel block.  The
    curvature constant 5/3 and the superquadraticity exponent 4 are
    exact for the quartic (kernel-reduced or not).

    The callbacks share a cache, keyed by the bytes of u, of the
    ``_quartic_part`` of the (kernel-reduced) field and, with a kernel,
    the pairings and inverse Gram matrix: Psi and grad Psi run no
    transform at a cached point.

    The growth constant K = sqrt(n_freq / (2 pi lambda_min)), with
    n_freq = n_modes + 1 with a kernel and n_modes without, gives
    |grad Psi(u)| <= K <grad Psi(u), u>^(3/4) for every u.  Proof, with
    psi the field of u (minus T(psi) with a kernel) on the torus of area
    4 pi^2:

    - grad Psi(u) holds <|psi|^2 psi, phi_j> / sqrt(lambda_j) over the
      L2-orthonormal modes phi_j, exact on the exact grid, so by Bessel
      |grad Psi|^2 <= int |psi|^6 / lambda_min;
    - int |psi|^6 <= sup |psi|^2 int |psi|^4;
    - psi has n_freq frequencies, each of modulus |c| / (2 pi) for its
      C^2 coefficient c, so sup |psi|^2 <= n_freq |psi|_2^2 / (4 pi^2);
    - by Cauchy-Schwarz |psi|_2^2 <= 2 pi (int |psi|^4)^(1/2);
    - <grad Psi(u), u> = int |psi|^4 by 4-homogeneity, with a kernel
      too, since T(s psi) = s T(psi) and T is stationary.
    """
    M, size = basis.n_modes, basis.size
    n = 4 * M
    sq = np.sqrt(basis.lam)
    inv_sq = 1.0 / sq

    # Coordinates are [Re plus, Im plus, Re minus, Im minus] (M each),
    # read as (block, part, mode) against the (plus, minus) rows
    # c[:2M].reshape(2, M) of a coefficient vector.
    def from_coords(u):
        """The coefficient vector with rows (u_re + i u_im) / sqrt(lambda)
        and a zero kernel block; numpy divides by a real-valued complex as
        x * (1 / sqrt(lambda)), so two products give the same values."""
        parts = u.reshape(2, 2, M)
        c = np.zeros(size, dtype=complex)
        rows = c[:2 * M].reshape(2, M)
        np.multiply(parts[:, 0], inv_sq, out=rows.real)
        np.multiply(parts[:, 1], inv_sq, out=rows.imag)
        return c

    def coords(c, scale):
        """The real and imaginary parts of the rows of ``c``, each mode
        scaled by sqrt(lambda) through ``scale``: np.multiply gives a
        spinor's coordinates, np.divide a gradient's."""
        rows = c[:2 * M].reshape(2, M)
        out = np.empty((2, 2, M))
        out[:, 0] = rows.real
        out[:, 1] = rows.imag
        return scale(out, sq, out=out).reshape(n)

    def to_coords(c):
        return coords(c, np.multiply)

    cache = {}

    def resolve(u):
        """The cache entry at u: (z, dens, quartic, cubic, gram)."""
        key = u.tobytes()
        hit = cache.get(key)
        if hit is None:
            z, dens, quartic, cubic = _quartic_part(
                basis, _kernel_reduced(basis, from_coords(u)))
            gram = None
            if basis.kernel_dim and np.any(dens != 0.0):
                P = _kernel_pairings(z)
                # the Gram matrix is well conditioned (cond <= 3), so its
                # inverse is the cheapest factorization to reuse
                gram = (P, np.linalg.inv(_kernel_gram(P, dens)))
            if len(cache) > 8:
                cache.clear()
            hit = (z, dens, quartic, cubic, gram)
            cache[key] = hit
        return hit

    def psi(u):
        return 0.25 * resolve(u)[2]

    def grad_psi(u):
        return coords(resolve(u)[3], np.divide)

    def hess_psi(u, v):
        z, dens, _, _, gram = resolve(u)
        chi = basis.to_grid(from_coords(v))
        chi_pair = _pairing(z, chi)
        if gram is not None:
            # subtract the kernel-tangent motion of the best
            # approximation: r solves the Gram system of the quartic
            # second form against the constant spinors
            P, H_inv = gram
            rhs = (2.0 * (P @ chi_pair.ravel())
                   + _kernel_pairings(chi) @ dens.ravel())
            r = H_inv @ rhs
            chi = chi - (_kernel_coeffs(r) / TWO_PI)[:, None, None]
            chi_pair = chi_pair - (r @ P).reshape(chi_pair.shape)
        G = 2.0 * chi_pair * z + dens * chi
        return coords(basis.from_grid(G), np.divide)

    n_freq = M + (1 if basis.kernel_dim else 0)
    problem = IndefiniteProblem(
        x_mask=np.arange(n) < 2 * M, psi=psi, grad_psi=grad_psi,
        hess_psi=hess_psi, p=4.0, mu=0.75, kappa=5.0 / 3.0,
        K=math.sqrt(n_freq / (TWO_PI * float(basis.lam.min()))))
    return problem, to_coords, from_coords


@dataclass(frozen=True)
class GroundState:
    """Solver output: the critical spinor's coefficient vector ``psi``
    and its audit quantities."""

    # the sphere threshold critical_energy(2) = vol(S^2) / 4 of
    # ``asymptotics``, bitwise equal to pi
    gamma_crit = math.pi

    basis: SpectralBasis
    psi: np.ndarray
    energy: float
    quartic_mass: float
    grad_norm: float
    nehari_scale: float
    iterations: int
    seed: int
    converged_starts: int
    degenerate_starts: int

    def summary(self) -> dict:
        return {
            "energy": float(self.energy),
            "quartic_mass": float(self.quartic_mass),
            "grad_norm": float(self.grad_norm),
            "gamma_crit": float(self.gamma_crit),
            "kernel_dim": int(self.basis.kernel_dim),
            "modes": int(self.basis.n_modes),
        }

    def rows(self):
        """CSV rows (mode, block, re, im): the plus block, the kernel
        block, then the minus block, modes in basis order."""
        M = self.basis.n_modes
        labels = [f"{k1} {k2}" for k1, k2 in self.basis.modes.tolist()]
        blocks = (("plus", labels, self.psi[:M]),
                  ("kernel", ["0 0"] * self.basis.kernel_dim,
                   self.psi[2 * M:]),
                  ("minus", labels, self.psi[M:2 * M]))
        return [(label, name, float(a.real), float(a.imag))
                for name, names, values in blocks
                for label, a in zip(names, values)]


def solve_ground_state(lam_max: float, delta=(0.5, 0.5), tol: float = 1e-8,
                       seed: int = 0, starts: int = 2) -> GroundState:
    """Ground state of the truncated functional through the reduction.

    The positive spectral subspace is X, the negative one Y, and the
    (kernel-reduced) quartic is Psi.  After minimizing over the Nehari
    set the critical point is mapped back by subtracting the kernel
    best approximation; the full gradient of Phi is then checked, and
    the critical-value identity Phi = (1/4) int |psi|^4 must hold.
    """
    basis = build_dirac(lam_max, delta)
    return _solve_on_basis(basis, tol=tol, seed=seed, starts=starts)


def _solve_on_basis(basis: SpectralBasis, tol: float, seed: int, starts: int,
                    initial: np.ndarray = None) -> GroundState:
    """Nehari minimizer on ``basis`` (warm started from ``initial``),
    mapped to psi + beta - T and checked as ``solve_ground_state`` says."""
    problem, to_coords, from_coords = ground_state_problem(basis)
    if initial is not None:
        initial = to_coords(initial)
    result = minimize_nehari(problem, starts=starts, tol=tol, seed=seed,
                             max_iter=400, initial=initial)
    # the Nehari minimizer lives in the positive block; the critical
    # point of the full functional adds the fiber maximizer over the
    # negative block
    psi = _kernel_reduced(basis, from_coords(result.minimizer + result.fiber))
    energy, grad, quartic = phi_functional(basis, psi)
    grad_norm = math.sqrt(basis.h_norm_sq(grad))

    if grad_norm > 10.0 * tol:
        raise RuntimeError(f"mapped critical point has gradient norm "
                           f"{grad_norm:.3e}, expected <= {tol:.1e}")
    if not energy > 0.0:
        raise RuntimeError(f"ground level {energy} is not positive")
    if abs(energy - 0.25 * quartic) > 1e-4 * max(1.0, abs(energy)):
        raise RuntimeError("critical-value identity failed: "
                           f"{energy} vs {0.25 * quartic}")
    return GroundState(basis, psi, float(energy), float(quartic),
                       float(grad_norm), float(result.nehari_scale),
                       int(result.iterations), int(seed),
                       result.converged_starts, result.degenerate_starts)


def refine_ground_state(state: GroundState, lam_max: float,
                        tol: float = 1e-8) -> GroundState:
    """Re-solve on a finer mode cutoff, warm started from a coarse state.

    The coarse positive-block coefficients seed the first descent
    direction in the finer basis, whose first modes are the coarse ones
    in the same order (both sort by (lambda, k1, k2)); the solve then
    runs to the same convergence and consistency checks as a cold start.
    API only, backed by ``test_finer_basis_starts_with_the_coarse_modes``.
    """
    coarse = state.basis
    if lam_max <= coarse.lam_max:
        raise ValueError("refinement needs a strictly larger mode cutoff")
    basis = build_dirac(lam_max, coarse.delta)
    initial = np.zeros(basis.size, dtype=complex)
    initial[:coarse.n_modes] = state.psi[:coarse.n_modes]
    return _solve_on_basis(basis, tol=tol, seed=state.seed, starts=1,
                           initial=initial)
