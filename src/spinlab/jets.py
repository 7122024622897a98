"""Truncated multivariate polynomial arithmetic ("jets").

A jet is a polynomial in x_0 .. x_{m-1} kept only up to a fixed total
degree.  Products silently drop every coefficient whose total degree
exceeds the truncation order, which is exactly the O(r^{N+1}) arithmetic
the local curvature expansions need.  In code a jet is its coefficient
vector, a flat numpy array over the canonical monomial list
``jet_space(m, degree).monomials``.

A product forms only the coefficient pairs whose degrees fit under the
cap (the space's product table) and scatters them onto their monomials,
for single jets and for matrices of jets alike.  Index tensors and jets
meet through one cached 0/1 symmetrizer per (m, degree, d): row
(a_1, .., a_d) marks the monomial x^a_1 .. x^a_d, so ``tensor_to_jets``
is one GEMM against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "JetSpace",
    "jet_space",
    "jmat_identity",
    "jmat_mul",
    "jmat_det",
    "tensor_to_jets",
]


@dataclass(frozen=True)
class JetSpace:
    """Monomial bookkeeping for jets in ``m`` variables up to ``degree``.

    monomials are canonical tuples of variable indices, sorted, so x0^2*x3
    is (0, 0, 3).  ``product_table`` holds every coefficient triple
    (i, j, k) with monomial_i * monomial_j = monomial_k inside the degree
    cap; multiplication is one fused multiply plus np.add.at.
    """

    m: int
    degree: int
    monomials: tuple
    exponents: np.ndarray          # (n_monomials, m) integer exponent rows
    product_table: tuple           # (ii, jj, kk) index arrays

    @property
    def n(self):
        return len(self.monomials)

    def degree_slice(self, d):
        """Index array of the monomials of exact total degree d."""
        return np.flatnonzero(self.exponents.sum(axis=1) == d)


@lru_cache(maxsize=None)
def jet_space(m: int, degree: int) -> JetSpace:
    monos = []
    for d in range(degree + 1):
        monos.extend(sorted(itertools.combinations_with_replacement(range(m), d)))
    monos = tuple(monos)
    index = {mono: k for k, mono in enumerate(monos)}
    expo = np.zeros((len(monos), m), dtype=np.int64)
    for k, mono in enumerate(monos):
        for v in mono:
            expo[k, v] += 1
    ii, jj, kk = [], [], []
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            if len(a) + len(b) <= degree:
                ii.append(i)
                jj.append(j)
                kk.append(index[tuple(sorted(a + b))])
    table = (np.asarray(ii), np.asarray(jj), np.asarray(kk))
    return JetSpace(m, degree, monos, expo, table)


# -- matrices of jets ----------------------------------------------------
# A jet matrix is an (n, n, n_monomials) array: entry (i, j) is the
# coefficient vector of one jet.

def _coeffs_mul(space, a, b):
    """Truncated product of two jets."""
    ii, jj, kk = space.product_table
    out = np.zeros(space.n)
    np.add.at(out, kk, a[ii] * b[jj])
    return out


def jmat_identity(space, n):
    """The n x n identity matrix of jets: constant 1 on the diagonal."""
    out = np.zeros((n, n, space.n))
    for i in range(n):
        out[i, i, 0] = 1.0
    return out


def jmat_mul(space, A, B):
    """Matrix product of two jet matrices under truncation."""
    n = A.shape[0]
    ii, jj, kk = space.product_table
    contrib = np.einsum("ikp,kjp->ijp", A[:, :, ii], B[:, :, jj])
    out = np.zeros((n, n, space.n))
    np.add.at(out, (slice(None), slice(None), kk), contrib)
    return out


def jmat_det(space, A):
    """Determinant of a jet matrix by Laplace expansion with memoised minors.

    Returns the determinant's coefficient vector.  Exact under truncation
    and independent of any closed-form expansion, so it can serve as an
    oracle against displayed determinant formulas.
    """
    n = A.shape[0]
    full = (1 << n) - 1

    memo = {}

    def minor(rows_mask, col):
        # determinant of the submatrix with the rows in rows_mask and the
        # first (popcount) columns starting at column index col
        key = rows_mask
        if key in memo:
            return memo[key]
        rows = [r for r in range(n) if rows_mask & (1 << r)]
        if len(rows) == 1:
            memo[key] = A[rows[0], col].copy()
            return memo[key]
        acc = np.zeros(space.n)
        sign = 1.0
        for r in rows:
            sub = minor(rows_mask & ~(1 << r), col + 1)
            acc += sign * _coeffs_mul(space, A[r, col], sub)
            sign = -sign
        memo[key] = acc
        return acc

    return minor(full, 0)


# -- index tensors ---------------------------------------------------------

@lru_cache(maxsize=None)
def _symmetrizer(m: int, degree: int, d: int):
    """(S, sel): S[(a_1..a_d), c] = 1 iff x^a_1 .. x^a_d is monomial sel[c].

    ``sel`` indexes the degree-d monomials of ``jet_space(m, degree)``; S
    has one row per index tuple in C order, so a tensor's trailing d axes
    flatten onto its rows.
    """
    space = jet_space(m, degree)
    sel = space.degree_slice(d)
    col = {space.monomials[k]: c for c, k in enumerate(sel)}
    tuples = itertools.product(range(m), repeat=d)
    S = np.zeros((m ** d, sel.size))
    S[np.arange(m ** d), [col[tuple(sorted(t))] for t in tuples]] = 1.0
    S.setflags(write=False)        # shared by every caller of the cache
    sel.setflags(write=False)
    return S, sel


def tensor_to_jets(space, T, d):
    """Jets of  sum T[..., a_1, .., a_d] x^a_1 .. x^a_d  over the trailing axes.

    Leading axes of ``T`` are kept; the result has them plus one
    coefficient axis of length ``space.n``.
    """
    m = space.m
    S, sel = _symmetrizer(m, space.degree, d)
    T = np.asarray(T, dtype=float)
    lead = T.shape[:T.ndim - d]
    out = np.zeros(lead + (space.n,))
    out[..., sel] = T.reshape(lead + (m ** d,)) @ S
    return out
