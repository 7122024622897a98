"""Curvature tensors and their normal-coordinate jet expansions.

Conventions, fixed once for the whole package:

* Riemann components R[i,j,k,l] are antisymmetric in (i,j) and (k,l),
  symmetric under pair exchange, and satisfy the first Bianchi identity.
* Ricci is the (1,3) contraction ricci[i,j] = sum_k R[k,i,k,j]; the scalar
  is its trace against the flat metric.
* Around the expansion point the metric reads, with x the normal
  coordinates and summation over repeated Greek slots,

      g_ij = delta_ij + (1/3) R[i,a,b,j] x^a x^b
           + (1/6) D1[i,a,b,j,k] x^a x^b x^k
           + ( (1/20) D2[i,a,b,j,k,l]
              + (2/45) sum_d R[i,a,b,d] R[j,k,l,d] ) x^a x^b x^k x^l + O(r^5)

  where D1 and D2 are the covariant derivative jets of the Riemann tensor
  at the point.  All higher bookkeeping (the symmetric square root B of
  G^{-1}, its inverse, the cubic Clifford correction and the vector
  correction of the Dirac operator) is derived from that expansion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .clifford import distinct_mask
from .jets import jet_space, jmat_det, jmat_identity, tensor_to_jets

__all__ = [
    "RiemannTensor",
    "CurvatureJets",
    "riemann_project",
    "random_riemann",
    "ricci",
    "weyl",
    "metric_jet",
    "b_coefficient_tensors",
    "b_jets",
    "theta_lambda",
    "det_expansion_check",
    "cnc_condition3_residual",
    "make_cnc_jets",
    "j6_leading",
]


# ---------------------------------------------------------------------------
# tensors

@dataclass(frozen=True)
class RiemannTensor:
    """Riemann components at a point, flat-metric index conventions."""

    m: int
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != (self.m,) * 4:
            raise ValueError("component array has wrong shape")
        object.__setattr__(self, "components", c)

    def frobenius(self) -> float:
        return float(np.sqrt((self.components ** 2).sum()))


@dataclass(frozen=True)
class CurvatureJets:
    """First and second covariant derivative jets of the Riemann tensor.

    ``first`` has shape (m,)*5 with the Riemann symmetries in its leading
    four slots, ``second`` has shape (m,)*6, symmetric additionally in the
    trailing derivative pair.  Zero arrays model the constant-curvature
    truncation and are the default.
    """

    m: int
    first: np.ndarray = None
    second: np.ndarray = None

    def __post_init__(self):
        m = self.m
        first = self.first if self.first is not None else np.zeros((m,) * 5)
        second = self.second if self.second is not None else np.zeros((m,) * 6)
        first = np.asarray(first, dtype=float)
        second = np.asarray(second, dtype=float)
        if first.shape != (m,) * 5 or second.shape != (m,) * 6:
            raise ValueError("derivative jets have wrong shape")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


def riemann_project(arr: np.ndarray) -> np.ndarray:
    """Project a 4-slot array onto the Riemann symmetry class.

    Antisymmetrise both pairs, symmetrise pair exchange, then remove the
    totally antisymmetric cyclic part so the first Bianchi identity holds
    exactly.  Extra trailing axes ride along untouched, which is how the
    derivative jets are symmetrised slot-wise.
    """
    a = np.asarray(arr, dtype=float)
    a = 0.5 * (a - a.swapaxes(0, 1))
    a = 0.5 * (a - np.swapaxes(a, 2, 3))
    a = 0.5 * (a + np.moveaxis(a, (0, 1, 2, 3), (2, 3, 0, 1)))
    cyc = a + np.moveaxis(a, (1, 2, 3), (2, 3, 1)) + np.moveaxis(a, (1, 2, 3), (3, 1, 2))
    return a - cyc / 3.0


def random_riemann(m: int, seed, weyl_only: bool = False) -> RiemannTensor:
    """Random tensor with exact Riemann symmetries, optionally trace free,
    of unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    comp = riemann_project(rng.standard_normal((m,) * 4))
    R = RiemannTensor(m, comp)
    if weyl_only:
        R = weyl(R)
    nrm = R.frobenius()
    if nrm == 0.0:
        raise ValueError("degenerate random draw")
    return RiemannTensor(m, R.components * (1.0 / nrm))


def ricci(R: RiemannTensor) -> np.ndarray:
    return np.einsum("kikj->ij", R.components)


def weyl(R: RiemannTensor) -> RiemannTensor:
    """Weyl (fully trace-free) part of R against the flat metric."""
    m = R.m
    if m < 3:
        raise ValueError("Weyl decomposition needs m >= 3")
    ric = ricci(R)
    s = np.trace(ric)
    d = np.eye(m)
    ric_term = (
        np.einsum("ik,jl->ijkl", ric, d)
        - np.einsum("il,jk->ijkl", ric, d)
        + np.einsum("jl,ik->ijkl", ric, d)
        - np.einsum("jk,il->ijkl", ric, d)
    ) / (m - 2)
    s_term = s / ((m - 1) * (m - 2)) * (
        np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d)
    )
    return RiemannTensor(m, R.components - ric_term + s_term)


# ---------------------------------------------------------------------------
# metric expansion and its square root

def _metric_coefficient_tensors(R: RiemannTensor, jets: CurvatureJets):
    """(G2, G3, G4) index tensors of the metric jet, before x contraction."""
    c = R.components
    G2 = np.einsum("iabj->ijab", c) / 3.0
    G3 = np.einsum("iabjk->ijabk", jets.first) / 6.0
    rr = np.einsum("iabd,jkld->ijabkl", c, c)
    G4 = np.einsum("iabjkl->ijabkl", jets.second) / 20.0 + (2.0 / 45.0) * rr
    return G2, G3, G4


def metric_jet(R: RiemannTensor, jets: CurvatureJets):
    """Normal-coordinate metric as an (m, m) matrix of degree-4 jets."""
    m = R.m
    space = jet_space(m, 4)
    G2, G3, G4 = _metric_coefficient_tensors(R, jets)
    G = jmat_identity(space, m)
    for d, t in ((2, G2), (3, G3), (4, G4)):
        G += tensor_to_jets(space, t, d)
    return G


def b_coefficient_tensors(R: RiemannTensor, jets: CurvatureJets):
    """Index tensors of B = G^{-1/2} and of B^{-1}, through degree 4.

    Solved from B B G = I order by order:  B2 = -G2/2, B3 = -G3/2,
    B4 = -(2 B2 G2 + B2^2 + G4)/2.  The inverse follows from the Neumann
    series of I + (B - I).  Returned as a pair of dicts keyed by degree.
    """
    G2, G3, G4 = _metric_coefficient_tensors(R, jets)
    B2 = -0.5 * G2
    B3 = -0.5 * G3
    # matrix products contract the first index pair; the polynomial slots
    # concatenate (quadratic times quadratic gives the quartic slots)
    B2G2 = np.einsum("ikab,kjcd->ijabcd", B2, G2)
    B2B2 = np.einsum("ikab,kjcd->ijabcd", B2, B2)
    B4 = -0.5 * (2.0 * B2G2 + B2B2 + G4)
    C2 = -B2
    C3 = -B3
    C4 = -B4 + B2B2
    return {2: B2, 3: B3, 4: B4}, {2: C2, 3: C3, 4: C4}


def b_jets(R: RiemannTensor, jets: CurvatureJets):
    """(B, B^{-1}) as jet matrices; B is the inverse square root of the metric."""
    m = R.m
    space = jet_space(m, 4)
    Bt, Ct = b_coefficient_tensors(R, jets)
    B = jmat_identity(space, m)
    Binv = jmat_identity(space, m)
    for d in Bt:
        B += tensor_to_jets(space, Bt[d], d)
        Binv += tensor_to_jets(space, Ct[d], d)
    return B, Binv


def theta_lambda(R: RiemannTensor, jets: CurvatureJets):
    """Cubic Clifford correction and vector correction of the Dirac operator.

    Returns ``(theta, (lin, quad))``:

    * ``theta[i,j,k,a,b,g]`` multiplies x^a x^b x^g gamma_i gamma_j gamma_k
      and is nonzero only for pairwise distinct i, j, k,
    * the vector field's component k is  lin[k,a] x^a + quad[k,a,b] x^a x^b:
      ``lin`` carries the Ricci tensor, ``quad`` (symmetric in a, b) its
      first derivatives.
    """
    m = R.m
    c = R.components
    t1 = np.einsum("lbgk,jial->ijkabg", c, c)
    t2 = np.einsum("lbgk,jlai->ijkabg", c, c)
    theta = -(t1 + t2) / 144.0 * distinct_mask(m)[:, :, :, None, None, None]

    ric = ricci(R)
    q = -np.einsum("iaikb->kab", jets.first) / 6.0
    return theta, (-0.25 * ric.T, 0.5 * (q + q.swapaxes(1, 2)))


def det_expansion_check(R: RiemannTensor, jets: CurvatureJets) -> float:
    """Max coefficient gap between det(metric jet) and its closed form.

    The closed form is the exponential-trace expansion of the metric
    determinant:

        det g = 1 - (1/3) Ric_ab x^a x^b - (1/6) Ric_ab,k x^a x^b x^k
              - ( (1/20) Ric_ab,kl + (1/90) sum_{i,d} R_iabd R_ikld
                 - (1/18) Ric_ab Ric_kl ) x^a x^b x^k x^l + O(r^5),

    while the left side is evaluated by Laplace expansion of the jet
    matrix, an independent arithmetic route.  Writing the metric as
    exp(A), the determinant is exp of the plain matrix trace of A; the
    quartic curvature-square coefficient that drops out is 1/90 (the
    round sphere pins it: det g = (sin r / r)^2 = 1 - r^2/3 + 2r^4/45
    forces -1/90 + 1/18 = 2/45).
    """
    m = R.m
    space = jet_space(m, 4)
    det = jmat_det(space, metric_jet(R, jets))

    ric = ricci(R)
    ric_d1 = np.einsum("iaikb->akb", jets.first)
    ric_d2 = np.einsum("iaikbc->akbc", jets.second)
    rr = np.einsum("iabd,ikld->abkl", R.components, R.components)
    ricric = np.einsum("ab,kl->abkl", ric, ric)

    closed = (tensor_to_jets(space, -ric / 3.0, 2)
              + tensor_to_jets(space, -ric_d1 / 6.0, 3)
              + tensor_to_jets(space, -(ric_d2 / 20.0 + rr / 90.0
                                        - ricric / 18.0), 4))
    closed[0] = 1.0
    return float(np.abs(det - closed).max())


# ---------------------------------------------------------------------------
# conformal-normal-coordinate data

def _sym4(t: np.ndarray) -> np.ndarray:
    """Full symmetrisation over four slots."""
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(4)):
        out += t.transpose(perm)
    return out / 24.0


def _ricci_target_to_riemann(V_ab):
    """Riemann-symmetric 4-tensor whose Ricci contraction equals V_ab.

    Kulkarni-Nomizu style ansatz with the flat metric: for symmetric h,

        T[i,a,b,j] = d_ib h_aj + d_aj h_ib - d_ij h_ab - d_ab h_ij

    contracts to (m-2) h + tr(h) delta, which is solved for h.  Trailing
    axes of V_ab (shape (m, m, ...)) carry over to T as independent targets.
    """
    m = V_ab.shape[0]
    if m < 3:
        raise ValueError("ansatz needs m >= 3")
    # the diagonal summed as its own contiguous row, as np.trace sums it
    tr = np.ascontiguousarray(np.diagonal(V_ab, 0, 0, 1)).sum(-1)
    d = np.eye(m)
    h = (V_ab - np.multiply.outer(d, tr / (2 * m - 2))) / (m - 2)
    T = (
        np.einsum("ib,aj...->iabj...", d, h)
        + np.einsum("aj,ib...->iabj...", d, h)
        - np.einsum("ij,ab...->iabj...", d, h)
        - np.einsum("ab,ij...->iabj...", d, h)
    )
    return T


def cnc_condition3_residual(R: RiemannTensor, jets: CurvatureJets) -> float:
    """Sampled sup over unit x of the quartic form of the third flatness condition.

    The form is (Ric_ab,kl + (22/9) sum_{i,d} R_iabd R_ikld) x^a x^b x^k x^l;
    only its full symmetrisation matters, and the sup is estimated on 2048
    unit vectors drawn from seed 0 (zero iff the symmetrised tensor is).
    API only, backed by ``test_cnc_third_condition_holds``.
    """
    m = R.m
    ric_d2 = np.einsum("iaikbc->akbc", jets.second)
    rr = np.einsum("iabd,ikld->abkl", R.components, R.components)
    S = _sym4(ric_d2 + (22.0 / 9.0) * rr)
    u = np.random.default_rng(0).standard_normal((2048, m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vals = np.einsum("abkl,pa,pb,pk,pl->p", S, u, u, u, u)
    return float(np.abs(vals).max())


def make_cnc_jets(R: RiemannTensor, seed=None, first_scale: float = 0.0) -> CurvatureJets:
    """Derivative jets realising the conformal-normal-coordinate conditions.

    Requires Ricci-flat R.  The second-derivative jets are solved so the
    symmetrised quartic condition holds exactly; the remaining freedom is
    left at zero.  With ``first_scale > 0`` random first-derivative jets
    are added, projected so the cyclic sum of Ricci derivatives vanishes
    (the second flatness condition) while the Ricci derivatives themselves
    stay generically nonzero.
    """
    m = R.m
    if np.abs(ricci(R)).max() > 1e-10:
        raise ValueError("conformal normal coordinates require a Ricci-flat tensor")

    rr = np.einsum("iabd,ikld->abkl", R.components, R.components)
    second = _ricci_target_to_riemann(-(22.0 / 9.0) * _sym4(rr))

    first = np.zeros((m,) * 5)
    if first_scale > 0.0:
        rng = np.random.default_rng(seed)
        raw = riemann_project(rng.standard_normal((m,) * 5))
        F = np.einsum("iaikb->akb", raw)          # Ricci derivative of the draw
        cyc = (F + F.transpose(1, 2, 0) + F.transpose(2, 0, 1)) / 3.0
        first = raw - _ricci_target_to_riemann(cyc)
        nrm = np.sqrt((first ** 2).sum())
        if nrm > 0:
            first *= first_scale / nrm
    return CurvatureJets(m, first, second)


def j6_leading(R: RiemannTensor, moments) -> float:
    """Leading quartic energy coefficient -(1/24) sum R_iabd R_ikld M_abkl.

    ``moments`` is a MomentTable (see asymptotics); strictly negative
    whenever the Weyl-projected tensor is nonzero, which is the sign the
    whole construction turns on.
    """
    if np.abs(ricci(R)).max() > 1e-10:
        raise ValueError("leading coefficient formula assumes Ricci-flat input")
    rr = np.einsum("iabd,ikld->abkl", R.components, R.components)
    M = moments.tensor()
    return float(-np.einsum("abkl,abkl", rr, M) / 24.0)
