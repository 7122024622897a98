"""Truncated polynomial arithmetic against direct evaluation oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.jets import (
    _coeffs_mul,
    _symmetrizer,
    jet_space,
    jmat_det,
    jmat_identity,
    jmat_mul,
    tensor_to_jets,
)


def jets_to_tensor(space, coeffs, d):
    """Symmetric index tensor of the degree-d part of jet coefficients.

    The transpose of ``tensor_to_jets``, each monomial's coefficient split
    evenly over its index tuples, so ``jets_to_tensor(tensor_to_jets(T))``
    is the symmetrization of T over its trailing d axes.
    """
    m = space.m
    S, sel = _symmetrizer(m, space.degree, d)
    coeffs = np.asarray(coeffs, dtype=float)
    lead = coeffs.shape[:-1]
    flat = coeffs[..., sel] @ (S / S.sum(axis=0)).T
    return flat.reshape(lead + (m,) * d)


def evaluate(space, c, x):
    """Value of the jet with coefficients c at the rows of x."""
    x = np.atleast_2d(x)
    return np.prod(x[:, None, :] ** space.exponents, axis=2) @ c


def monomial(space, *mono):
    """Coefficients of x^mono_1 .. x^mono_d; no indices gives 1."""
    c = np.zeros(space.n)
    c[space.monomials.index(tuple(sorted(mono)))] = 1.0
    return c


def test_monomial_count_m3_deg4():
    # sum over d <= 4 of C(3 + d - 1, d) = 1 + 3 + 6 + 10 + 15
    assert jet_space(3, 4).n == 35


def test_product_matches_pointwise_evaluation_below_truncation():
    # degree 1 times degree 1 stays below the truncation, so the jet
    # product must agree with the pointwise product exactly
    space = jet_space(2, 4)
    rng = np.random.default_rng(7)
    a = 0.5 * monomial(space) + 2.0 * monomial(space, 0)
    b = monomial(space, 1) - 0.25 * monomial(space, 0)
    x = rng.standard_normal(2)
    ab = evaluate(space, _coeffs_mul(space, a, b), x)
    assert ab == pytest.approx(evaluate(space, a, x) * evaluate(space, b, x),
                               rel=1e-14)


def test_truncation_drops_high_degree():
    space = jet_space(2, 2)
    x0 = monomial(space, 0)
    cube = _coeffs_mul(space, _coeffs_mul(space, x0, x0), x0)
    assert np.abs(cube).max() == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 4))
def test_ring_laws(seed, m, degree):
    space = jet_space(m, degree)
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, space.n))

    def mul(x, y):
        return _coeffs_mul(space, x, y)

    assert np.allclose(mul(a + b, c), mul(a, c) + mul(b, c), atol=1e-12)
    assert np.allclose(mul(a, b), mul(b, a), atol=1e-13)
    assert np.allclose(mul(mul(a, b), c), mul(a, mul(b, c)), atol=1e-12)


def test_matrix_determinant_against_numpy_on_numbers():
    # constant jets reduce the determinant to the plain numeric one
    space = jet_space(2, 3)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    J = np.zeros((3, 3, space.n))
    J[:, :, 0] = A
    det = jmat_det(space, J)
    assert det[0] == pytest.approx(np.linalg.det(A), rel=1e-12)
    assert abs(det[1:]).max() == 0.0


def unipotent(space, n, rng, amp=0.3):
    A = jmat_identity(space, n)
    A[:, :, 1:] += rng.standard_normal((n, n, space.n - 1)) * amp
    return A


def test_det_multiplicative_up_to_truncation():
    space = jet_space(2, 3)
    rng = np.random.default_rng(13)
    A = unipotent(space, 2, rng, amp=0.2)
    B = unipotent(space, 2, rng, amp=0.2)
    lhs = jmat_det(space, jmat_mul(space, A, B))
    rhs = _coeffs_mul(space, jmat_det(space, A), jmat_det(space, B))
    assert np.allclose(lhs, rhs, atol=1e-12)


# -- index tensors and jet matrices ----------------------------------------

@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tensor_to_jets_evaluates_the_contraction(m, d):
    space = jet_space(m, 4)
    rng = np.random.default_rng(10 * m + d)
    T = rng.standard_normal((2,) + (m,) * d)
    coeffs = tensor_to_jets(space, T, d)
    assert coeffs.shape == (2, space.n)
    x = rng.standard_normal((7, m))
    # x (x) .. (x) x, flattened in the order of T's trailing axes
    xd = x
    for _ in range(d - 1):
        xd = (xd[:, :, None] * x[:, None, :]).reshape(len(x), -1)
    direct = T.reshape(2, -1) @ xd.T
    for r in range(2):
        assert np.allclose(evaluate(space, coeffs[r], x), direct[r],
                           rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_jets_to_tensor_inverts_up_to_symmetrization(m, d):
    space = jet_space(m, 4)
    T = np.random.default_rng(d).standard_normal((3,) + (m,) * d)
    back = jets_to_tensor(space, tensor_to_jets(space, T, d), d)
    perms = list(itertools.permutations(range(1, d + 1)))
    sym = sum(T.transpose((0,) + p) for p in perms) / len(perms)
    assert np.allclose(back, sym, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("m", [4, 6])
def test_jmat_mul_equals_all_pairs_product(m):
    space = jet_space(m, 4)
    rng = np.random.default_rng(m)
    A, B = rng.standard_normal((2, m, m, space.n))
    ii, jj, kk = space.product_table
    contrib = np.einsum("ikp,kjq->ijpq", A, B)
    ref = np.zeros((m, m, space.n))
    np.add.at(ref, (slice(None), slice(None), kk), contrib[:, :, ii, jj])
    assert np.array_equal(jmat_mul(space, A, B), ref)
