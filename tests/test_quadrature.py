"""Brillouin-zone quadrature helpers."""
import math

import numpy as np
import pytest

from qwfisher.errors import QuadratureError
from qwfisher.quadrature import (adaptive_mean_over_bz, gauss_k_grid,
                                 mean_over_bz, uniform_k_grid)
from qwfisher.walk import k_grid_size


def test_uniform_grid_integrates_trig_polynomials_exactly():
    nodes = uniform_k_grid(16)
    assert np.allclose(np.diff(nodes), 2 * math.pi / 16, atol=1e-15)
    assert nodes[0] == -math.pi
    weights = np.full(16, 2 * math.pi / 16)
    # e^{ink} averages to delta_{n0} exactly for |n| < grid size
    for n in range(-7, 8):
        val = mean_over_bz(lambda k: np.exp(1j * n * k), nodes, weights)
        assert abs(val - (1.0 if n == 0 else 0.0)) <= 1e-14


def test_gauss_grid_matches_uniform_on_smooth_integrand():
    f = lambda k: 1.0 / (1.0 - 0.5 * np.cos(k) ** 2)
    gn, gw = gauss_k_grid(64)
    un = uniform_k_grid(256)
    uw = np.full(256, 2 * math.pi / 256)
    a = mean_over_bz(f, gn, gw)
    b = mean_over_bz(f, un, uw)
    # closed form: mean of 1/(1 - c cos^2) over the zone is 1/sqrt(1-c)
    assert a == pytest.approx(1.0 / math.sqrt(0.5), rel=1e-12)
    assert b == pytest.approx(a, rel=1e-12)


def test_adaptive_mean_reports_node_count():
    f = lambda k: np.cos(k) ** 2
    val, n_used = adaptive_mean_over_bz(f, rel_tol=1e-12)
    assert val == pytest.approx(0.5, abs=1e-13)
    assert n_used >= 64


def test_adaptive_mean_raises_when_budget_exhausted():
    # a spike much narrower than the node budget can resolve
    f = lambda k: 1.0 / (1e-12 + (k - 0.123) ** 2)
    with pytest.raises(QuadratureError):
        adaptive_mean_over_bz(f, rel_tol=1e-12, n0=8, max_nodes=64)


def test_dft_exact_nodes_covers_degree():
    # a window of w sites needs the smallest power of two above degree 2w
    assert k_grid_size(3) == 8
    assert k_grid_size(4) == 16
    assert k_grid_size(50) == 128


@pytest.mark.parametrize("max_nodes", [64, 100])
def test_adaptive_mean_single_evaluation_budget_raises(max_nodes):
    # room for the n0 estimate only: nothing to compare it against
    with pytest.raises(QuadratureError):
        adaptive_mean_over_bz(lambda k: np.cos(k) ** 2, n0=64,
                              max_nodes=max_nodes)
