"""Quadrature over the Brillouin zone [-pi, pi).

The package integrates on uniform grids only: they integrate
trigonometric polynomials exactly (discrete orthogonality), which is
what the finite-time engine and the exact zone integrals of
:mod:`qwfisher.qfim` rely on (:func:`uniform_k_grid`, with the node
count of :func:`qwfisher.walk.k_grid_size`).

Gauss-Legendre panels with node doubling (:func:`gauss_k_grid`,
:func:`adaptive_mean_over_bz`) are called by no pipeline code.  They
stay as the independent reference the tests check the exact zone
integrals against, and the benchmark tracer wraps
``adaptive_mean_over_bz`` by name.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

TWO_PI = 2.0 * np.pi


def uniform_k_grid(n: int) -> np.ndarray:
    """Uniform momentum nodes k_j = -pi + 2 pi j / n, j = 0 .. n - 1.

    The weights are all 2 pi / n, so a zone mean is the node average.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return -np.pi + TWO_PI * np.arange(n) / n


PANEL_ORDER = 64


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return np.pi * x, np.pi * w


def gauss_k_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-pi, pi].

    Up to 256 nodes this is the global rule.  Beyond that a composite
    rule of 64-point panels is used instead (n rounds up to a multiple
    of 64): node generation for the global rule scales badly with n,
    while panels come from one small cached rule and keep spectral
    accuracy per panel.
    """
    n = int(n)
    if n <= 256:
        nodes, weights = _leggauss(n)
        return nodes.copy(), weights.copy()
    panels = -(-n // PANEL_ORDER)
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    edges = np.linspace(-np.pi, np.pi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w, (panels, PANEL_ORDER)).ravel()
    return nodes, weights.copy()


def mean_over_bz(f, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(1/2pi) * integral of f over the zone on a fixed grid.

    ``f`` maps an array of momenta (n,) to values of shape (n,) or (n, d);
    the leading axis is contracted against the weights.
    """
    vals = np.asarray(f(nodes))
    return np.tensordot(weights, vals, axes=(0, 0)) / TWO_PI


def adaptive_mean_over_bz(f, rel_tol: float = 1e-9, n0: int = 64,
                          max_nodes: int = 1 << 17):
    """Node-doubling Gauss-Legendre estimate of (1/2pi) * integral f dk.

    Doubles the node count until successive estimates agree to ``rel_tol``
    (relative to the largest component magnitude, with an absolute floor
    so integrals that are genuinely zero converge too).  Returns
    ``(value, n_used)``.  Raises QuadratureError if the budget runs out.
    """
    n = int(n0)
    prev = None
    err = None
    while n <= max_nodes:
        cur = mean_over_bz(f, *gauss_k_grid(n))
        if prev is not None:
            scale = max(np.max(np.abs(cur)), 1e-300)
            err = np.max(np.abs(cur - prev))
            if err <= rel_tol * scale or err <= 1e-15:
                return cur, n
        prev = cur
        n *= 2
    if err is None:
        raise QuadratureError(
            f"a budget of {max_nodes} nodes from n0={n0} allows no second "
            "estimate to check convergence against")
    raise QuadratureError(
        f"no convergence to rel_tol={rel_tol} within {max_nodes} nodes "
        f"(last change {err:.3e})")
