"""Product quadrature on spheres and pinned-edge radial panels.

The angular rule tensors Gauss-Jacobi nodes in the polar cosines, taken
from the Golub-Welsch eigenproblem (Math. Comp. 23, 1969), with a
uniform rule of 2 ``n_polar`` nodes on the final circle.  With
``n_polar`` nodes per polar axis it integrates polynomials of total
degree <= 2 n_polar - 1 exactly against the surface measure, and the
node set is closed under the antipodal map with matched weights, so odd
integrands cancel to rounding dust instead of leaving a quadrature
error.

The radial side is plain Gauss-Legendre stitched over panels whose edges
are pinned to the break radii of the integrand (the cutoff is only C^2
at its two knees, and the concentration scale shrinks with epsilon), so
every panel sees a smooth function.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

import numpy as np

__all__ = [
    "SphereRule",
    "sphere_area",
    "sphere_rule",
    "panel_nodes",
    "shell_edges",
]


def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere S^{m-1} inside R^m."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class SphereRule:
    """Nodes and weights for the surface measure of S^{m-1}."""

    m: int
    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray):
        """Contract the trailing axis of ``values`` with the weights."""
        return np.asarray(values) @ self.weights


def _gauss_gegenbauer(n: int, alpha: float):
    """Golub-Welsch rule for the weight (1 - t^2)^alpha on [-1, 1], weights
    B(1/2, alpha + 1) v_0^2, made exactly antipodal: -t is a node of t's weight."""
    k = np.arange(1.0, n)
    off = np.sqrt(k * (k + 2.0 * alpha) / (4.0 * (k + alpha) ** 2 - 1.0))
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = math.sqrt(math.pi) * math.gamma(alpha + 1) / math.gamma(alpha + 1.5) * v[0] ** 2
    return 0.5 * (t - t[::-1]), 0.5 * (w + w[::-1])


def sphere_rule(m: int, n_polar: int = 5) -> SphereRule:
    """Product rule on S^{m-1}, exact through total degree 2*n_polar - 1.

    The final circle carries 2*n_polar uniform nodes: an even count, so
    the rule keeps its antipodal symmetry, and exact through the same
    degree, so that angle is never the accuracy bottleneck.  The rule has
    2 n_polar^(m-1) nodes, at most 2^20 (100 MB of coordinates at m = 12).
    """
    for name, value, low in (("m", m, 2), ("n_polar", n_polar, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < low:
            raise ValueError(f"need an integer {name} >= {low}, got {value!r}")
    n_circle = 2 * n_polar
    # in Python integers, which cannot overflow
    if 2 * int(n_polar) ** (int(m) - 1) > 1 << 20:
        raise ValueError(f"need 2 n_polar^(m-1) <= 2^20 nodes, got "
                         f"m = {m}, n_polar = {n_polar}")

    phi = 2.0 * math.pi * np.arange(n_circle) / n_circle
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    wts = np.full(n_circle, 2.0 * math.pi / n_circle)

    # prepend polar axes innermost-last so axis j carries weight
    # (1 - t^2)^((m - 2 - j)/2), j = 1 .. m-2
    for j in range(m - 2, 0, -1):
        t, w = _gauss_gegenbauer(n_polar, 0.5 * (m - 2 - j))
        s = np.sqrt(1.0 - t ** 2)
        pts = np.concatenate([np.repeat(t, len(pts))[:, None],
                              (s[:, None, None] * pts).reshape(-1, pts.shape[1])],
                             axis=1)
        wts = np.kron(w, wts)

    return SphereRule(m, pts, wts)


def panel_nodes(edges, n_leg: int = 16):
    """Gauss-Legendre nodes and weights over consecutive panels.

    ``edges`` is an increasing sequence of panel boundaries; the result
    concatenates an ``n_leg``-point rule mapped onto each panel.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing")
    t, w = np.polynomial.legendre.leggauss(n_leg)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * t).ravel()
    weights = (half * w).ravel()
    return nodes, weights


def shell_edges(eps: float, delta: float) -> np.ndarray:
    """Panel edges on [0, 2 delta] resolving both the eps and delta scales.

    Edges double geometrically from the concentration scale up to the
    cutoff radius; delta and 2 delta are always edges because the cutoff
    profile is only piecewise smooth there.
    """
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    inner = [0.0]
    r = min(eps, delta)
    while r < delta * (1.0 - 1e-12):
        inner.append(r)
        r *= 2.0
    inner.append(delta)
    outer = np.linspace(delta, 2.0 * delta, 5)[1:]
    return np.concatenate([np.asarray(inner), outer])
