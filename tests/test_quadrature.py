"""Brillouin-zone quadrature helpers."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwfisher import qfim
from qwfisher.errors import QuadratureError
from qwfisher.quadrature import (adaptive_mean_over_bz, gauss_k_grid,
                                 mean_over_bz)
from qwfisher.walk import (MAX_STEPS, CoinParams, initial_entangled,
                           initial_localized, k_grid_size, uniform_k_grid)

from oracles import even_smooth_sizes, least_size_at_least


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


def test_dft_exact_nodes_covers_degree(monkeypatch):
    # the smallest even 5-smooth count >= n_min
    assert [k_grid_size(n) for n in (1, 2, 3, 4, 5, 13, 50, 128, 129)] \
        == [1, 2, 4, 4, 6, 16, 50, 128, 144]
    rng = np.random.default_rng(7)
    # a window of w sites needs n >= w: the inverse DFT returns every
    # amplitude and the node mean of conj(a) b is the site sum
    for w in (1, 3, 4, 5, 13):
        k = uniform_k_grid(k_grid_size(w))
        a, b = rng.normal(size=(2, w)) + 1j * rng.normal(size=(2, w))
        phases = np.exp(-1j * np.outer(k, np.arange(w)))
        back = phases.conj().T @ (phases @ a) / k.size
        assert np.abs(back - a).max() <= 1e-14
        mean = np.vdot(phases @ a, phases @ b) / k.size
        assert abs(mean - np.vdot(a, b)) <= 1e-13
    # the coefficients of a real degree-d polynomial, read by rfft, need
    # n > 2d
    for d in (1, 3, 4):
        n = k_grid_size(2 * d + 1)
        c = rng.normal(size=d + 1)
        x = 2 * math.pi * np.arange(n) / n
        samples = np.cos(np.outer(x, np.arange(d + 1))) @ c
        coef = np.fft.rfft(samples).real * (2.0 / n)
        coef[0] /= 2.0
        assert np.abs(coef[:d + 1] - c).max() <= 1e-14
    # the zone means read a numerator of degree 1 + n_sites on 8 nodes
    # for one input site and 10 for two
    sizes = []

    def spy(n_min):
        sizes.append(k_grid_size(n_min))
        return sizes[-1]

    monkeypatch.setattr(qfim, "k_grid_size", spy)
    p = CoinParams(0.7, 0.3, -0.2)
    for init in (initial_localized(), initial_entangled(0, 1)):
        qfim.qfim_theorem1(p, init, 1)
    assert sizes == [8, 10]


def test_grid_size_is_the_least_even_smooth_count_for_small_sizes():
    sizes = even_smooth_sizes(2 * 10 ** 4)
    for n_min in range(-3, 10 ** 4 + 1):
        assert k_grid_size(n_min) == least_size_at_least(n_min, sizes)


LARGE_SIZES = even_smooth_sizes(4 * MAX_STEPS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n_min=st.integers(10 ** 4, 2 * MAX_STEPS))
@example(n_min=2 * MAX_STEPS)
@example(n_min=2 * MAX_STEPS - 1)
def test_grid_size_is_the_least_even_smooth_count(n_min):
    # up to the widest window: MAX_STEPS steps either way
    assert k_grid_size(n_min) == least_size_at_least(n_min, LARGE_SIZES)
    assert k_grid_size(np.int64(n_min)) == k_grid_size(n_min)


@pytest.mark.parametrize("max_nodes", [64, 100])
def test_adaptive_mean_single_evaluation_budget_raises(max_nodes):
    # room for the n0 estimate only: nothing to compare it against
    with pytest.raises(QuadratureError):
        adaptive_mean_over_bz(lambda k: np.cos(k) ** 2, n0=64,
                              max_nodes=max_nodes)
