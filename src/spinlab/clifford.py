"""Complex Clifford algebra in its standard matrix representation.

Generators gamma_1 .. gamma_m act on C^N with N = 2^floor(m/2) and obey

    gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij I,     gamma_i^* = -gamma_i.

The construction is the usual Pauli ladder: Hermitian anticommuting
matrices e_k built from tensor products of sigma_1, sigma_2, sigma_3,
multiplied by i to flip the sign convention.  Everything downstream is
written against the two invariants above plus anti-Hermiticity, never
against this particular basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CliffordRep",
    "build_rep",
    "gamma_word",
    "distinct_mask",
    "volume_projectors",
]

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class CliffordRep:
    """Dimension m, spinor dimension N and the m generator matrices."""

    m: int
    N: int
    gammas: tuple

    def gamma(self, i):
        return self.gammas[i]


def _kron_chain(mats):
    out = mats[0]
    for a in mats[1:]:
        out = np.kron(out, a)
    return out


@lru_cache(maxsize=None)
def build_rep(m: int) -> CliffordRep:
    """Anti-Hermitian generators for the complex Clifford algebra Cl(m)."""
    if m < 1:
        raise ValueError("need at least one generator")
    n = m // 2
    N = 2 ** n
    herm = []
    for j in range(1, n + 1):
        pre = [_SIGMA3] * (j - 1)
        post = [np.eye(2, dtype=complex)] * (n - j)
        herm.append(_kron_chain(pre + [_SIGMA1] + post))
        herm.append(_kron_chain(pre + [_SIGMA2] + post))
    if m % 2 == 1:
        if n == 0:
            herm.append(np.array([[1.0 + 0.0j]]))
        else:
            herm.append(_kron_chain([_SIGMA3] * n))
    gammas = tuple(1.0j * h for h in herm[:m])
    for g in gammas:
        g.setflags(write=False)
    return CliffordRep(m, N, gammas)


def gamma_word(rep: CliffordRep, indices):
    """Ordered product gamma_{i_1} gamma_{i_2} ... as an N x N matrix."""
    out = np.eye(rep.N, dtype=complex)
    for i in indices:
        out = out @ rep.gammas[i]
    return out


def distinct_mask(m: int) -> np.ndarray:
    """Boolean (m, m, m) mask of the index triples i, j, k pairwise distinct."""
    i, j, k = np.ogrid[:m, :m, :m]
    return (i != j) & (j != k) & (i != k)


def volume_projectors(rep: CliffordRep):
    """Spectral projectors of gamma_1 gamma_2 gamma_3 gamma_4.

    The ordered product of four distinct generators is Hermitian with
    square the identity, so w_pm = (I pm P)/2 are complementary orthogonal
    projectors; they split Re<P s, s> = |w_plus s|^2 - |w_minus s|^2.
    """
    if rep.m < 4:
        raise ValueError("volume projectors need at least four generators")
    P = gamma_word(rep, (0, 1, 2, 3))
    I = np.eye(rep.N)
    return (I + P) / 2.0, (I - P) / 2.0
