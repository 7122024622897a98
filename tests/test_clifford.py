"""Clifford representation invariants across dimensions."""

import numpy as np
import pytest

from spinlab.clifford import build_rep, gamma_word, volume_projectors

DIMS = range(2, 10)


def vec_mul(rep, v, s):
    """Clifford action of the real vector v on the spinor s: (sum v_i gamma_i) s."""
    v = np.asarray(v, dtype=float)
    if v.shape != (rep.m,):
        raise ValueError("vector has wrong dimension")
    out = np.zeros(rep.N, dtype=complex)
    for i in range(rep.m):
        if v[i] != 0.0:
            out += v[i] * (rep.gammas[i] @ s)
    return out


@pytest.mark.parametrize("m", DIMS)
def test_dimension(m):
    rep = build_rep(m)
    assert rep.N == 2 ** (m // 2)


@pytest.mark.parametrize("m", DIMS)
def test_anticommutation(m):
    rep = build_rep(m)
    eye = np.eye(rep.N)
    worst = 0.0
    for i in range(m):
        for j in range(m):
            g = rep.gamma(i) @ rep.gamma(j) + rep.gamma(j) @ rep.gamma(i)
            worst = max(worst, np.abs(g + 2.0 * (i == j) * eye).max())
    assert worst <= 1e-14


@pytest.mark.parametrize("m", DIMS)
def test_antihermitian(m):
    rep = build_rep(m)
    worst = max(
        np.abs(rep.gamma(i) + rep.gamma(i).conj().T).max() for i in range(m)
    )
    assert worst <= 1e-14


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_vector_multiplication_is_isometric(m):
    rep = build_rep(m)
    rng = np.random.default_rng(m)
    for _ in range(20):
        v = rng.standard_normal(m)
        s = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        out = vec_mul(rep, v, s)
        assert np.linalg.norm(out) == pytest.approx(
            np.linalg.norm(v) * np.linalg.norm(s), rel=1e-12
        )
        # v . (v . s) = -|v|^2 s
        twice = vec_mul(rep, v, out)
        assert np.allclose(twice, -(v @ v) * s, atol=1e-12 * (1 + np.abs(s).max()))


@pytest.mark.parametrize("m", [4, 5, 6, 8])
def test_volume_projectors(m):
    rep = build_rep(m)
    wp, wm = volume_projectors(rep)
    eye = np.eye(rep.N)
    assert np.allclose(wp + wm, eye, atol=1e-14)
    assert np.allclose(wp @ wp, wp, atol=1e-13)
    assert np.allclose(wm @ wm, wm, atol=1e-13)
    assert np.allclose(wp @ wm, 0.0 * eye, atol=1e-13)
    assert np.trace(wp) == pytest.approx(rep.N / 2, abs=1e-12)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_distinct_three_words_hermitian(m):
    rep = build_rep(m)
    W = gamma_word(rep, (0, 1, 2))
    assert np.abs(W - W.conj().T).max() <= 1e-14


@pytest.mark.parametrize("m", [4, 5, 6])
def test_four_word_with_repeat_pairs_imaginary(m):
    # words like g_i g_j g_k g_j with a repeated index reduce to two-words,
    # whose diagonal pairings are pure imaginary
    rep = build_rep(m)
    rng = np.random.default_rng(1)
    W = gamma_word(rep, (0, 1, 2, 1))
    for _ in range(10):
        v = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        assert abs(np.real(np.vdot(W @ v, v))) \
            <= 1e-12 * np.linalg.norm(v) ** 2


def test_gamma_word_empty_is_identity():
    rep = build_rep(4)
    assert np.allclose(gamma_word(rep, ()), np.eye(rep.N))


def test_reproducible_and_write_protected():
    rep = build_rep(5)
    with pytest.raises((ValueError, RuntimeError)):
        rep.gamma(0)[0, 0] = 1.0
