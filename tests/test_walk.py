"""Walk core: coin algebra, stepping, initial states, k-space picture."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwfisher import (CoinBlochState, CoinParams, DegenerateWalk, WalkerState,
                      evolve, initial_entangled, initial_gamma,
                      initial_localized)
from qwfisher.walk import (SiteWindow, SU2Powers, quasi_energy_axis,
                           spinors_at, theta_jet, uniform_k_grid)

from oracles import PAULI, coin_dense, dense_amps_at, dense_evolve, evolve_steps

angles = st.floats(-10.0, 10.0, allow_nan=False)
mixing = st.floats(0.05, math.pi - 0.05)


# ---------------------------------------------------------------------------
# coin


def test_raw_coin_at_zero_is_identity():
    assert np.allclose(coin_dense(0.0, 0.0, 0.0), np.eye(2), atol=1e-15)


def test_raw_coin_at_half_pi_is_pure_swap():
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(coin_dense(math.pi / 2, 0.0, 0.0), expected, atol=1e-15)


def test_coin_unitarity_bulk():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        th = rng.uniform(-math.pi, math.pi)
        if abs(math.sin(th)) < 1e-3:
            continue
        p = CoinParams(th, rng.uniform(-9, 9), rng.uniform(-9, 9))
        c = coin_dense(p.theta, p.alpha, p.beta)
        assert np.abs(c @ c.conj().T - np.eye(2)).max() <= 1e-14


@given(theta=mixing, alpha=angles, beta=angles)
def test_coin_unitary_and_special(theta, alpha, beta):
    p = CoinParams(theta, alpha, beta)
    c = coin_dense(p.theta, p.alpha, p.beta)
    assert np.abs(c @ c.conj().T - np.eye(2)).max() <= 1e-14
    assert abs(np.linalg.det(c) - 1.0) <= 1e-13


@given(theta=mixing, alpha=angles, beta=angles)
def test_param_canonicalization_is_idempotent(theta, alpha, beta):
    p = CoinParams(theta, alpha, beta)
    q = CoinParams(p.theta, p.alpha, p.beta)
    assert (p.theta, p.alpha, p.beta) == (q.theta, q.alpha, q.beta)
    for v in (p.theta, p.alpha, p.beta):
        assert -math.pi <= v < math.pi


@given(theta=mixing, alpha=angles, beta=angles,
       na=st.integers(-3, 3), nb=st.integers(-3, 3))
def test_phase_wrapping_leaves_coin_unchanged(theta, alpha, beta, na, nb):
    p = CoinParams(theta, alpha, beta)
    q = CoinParams(theta, alpha + 2 * math.pi * na, beta + 2 * math.pi * nb)
    assert np.allclose(coin_dense(p.theta, p.alpha, p.beta),
                       coin_dense(q.theta, q.alpha, q.beta), atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi, -math.pi, 2 * math.pi])
def test_degenerate_mixing_angle_rejected(theta):
    with pytest.raises(DegenerateWalk):
        CoinParams(theta, 0.1, 0.2)


def test_replace_rebuilds_with_validation():
    p = CoinParams(0.5, 0.1, 0.2)
    q = p.replace(alpha=1.0)
    assert q.alpha == 1.0 and q.theta == p.theta
    with pytest.raises(DegenerateWalk):
        p.replace(theta=0.0)


# ---------------------------------------------------------------------------
# stepping


def test_one_step_amplitudes_from_coin_zero_start():
    p = CoinParams(0.9, 0.3, -1.1)
    s = evolve(initial_localized(0), p, 1)
    # coin 0 output lands on x=1, coin 1 output on x=-1
    idx = {x: i for i, x in enumerate(s.sites)}
    assert s.amps[idx[1], 0] == pytest.approx(np.exp(0.3j) * math.cos(0.9))
    assert s.amps[idx[-1], 1] == pytest.approx(-np.exp(1.1j) * math.sin(0.9))
    assert abs(s.amps[idx[1], 1]) == 0.0
    assert abs(s.amps[idx[-1], 0]) == 0.0


def test_two_steps_match_dense_product():
    p = CoinParams(math.pi / 4, 0.0, 0.0)
    s = evolve(initial_localized(0), p, 2)
    sites, dense = dense_evolve(0, [[1.0, 0.0]], math.pi / 4, 0.0, 0.0, 2)
    assert np.abs(s.amps - dense_amps_at(sites, dense, s.sites)).max() <= 1e-14


@settings(max_examples=30, deadline=None)
@given(theta=mixing, alpha=angles, beta=angles, t=st.integers(0, 12))
def test_evolution_matches_dense_oracle(theta, alpha, beta, t):
    p = CoinParams(theta, alpha, beta)
    s = evolve(initial_gamma(0.7), p, t)
    sites, dense = dense_evolve(0, initial_gamma(0.7).amps, theta, alpha,
                                beta, t)
    assert np.abs(s.amps - dense_amps_at(sites, dense, s.sites)).max() <= 1e-12


def test_norm_preserved_after_thousand_steps():
    p = CoinParams(1.1, 0.5, -0.3)
    s = evolve(initial_entangled(0, 1), p, 1000)
    assert abs(s.norm - 1.0) <= 1e-14 * 1000


def test_evolve_zero_steps_is_identity():
    s0 = initial_gamma(0.3)
    s = evolve(s0, CoinParams(0.4, 0.0, 0.0), 0)
    assert s is s0 or np.array_equal(s.amps, s0.amps)


def test_light_cone_is_exact():
    t = 37
    s = evolve(initial_localized(5), CoinParams(0.8, 0.0, 0.0), t)
    assert s.sites[0] == 5 - t and s.sites[-1] == 5 + t
    # the extreme corner amplitudes are the pure cos^t / sin^t paths
    assert abs(s.amps[-1, 0]) == pytest.approx(math.cos(0.8) ** t)
    assert abs(s.amps[0, 1]) == pytest.approx(math.sin(0.8) * math.cos(0.8) ** (t - 1))


@pytest.mark.parametrize("init,t", [
    (initial_localized(0), 1000),
    (WalkerState(origin=-3, amps=np.array(
        [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8j]])), 15),
], ids=["localized-t1000", "two-odd-sites-t15"])
def test_unreachable_parity_is_exact_zero(init, t):
    p = CoinParams(0.9, 0.35, -1.2)
    a = evolve_steps(init, p, t)
    b = evolve(init, p, t)
    reachable = (b.sites - init.origin - t) % 2 == 0
    assert np.all(b.amps[~reachable] == 0.0)
    assert np.abs(b.amps - a.amps).max() <= 1e-12


def test_mixed_parity_input_fills_both_parities():
    p = CoinParams(0.9, 0.35, -1.2)
    a = evolve_steps(initial_entangled(0, 1), p, 40)
    b = evolve(initial_entangled(0, 1), p, 40)
    mass = np.sum(np.abs(b.amps) ** 2, axis=1)
    assert mass[b.sites % 2 == 0].sum() > 0.1
    assert mass[b.sites % 2 == 1].sum() > 0.1
    assert np.abs(b.amps - a.amps).max() <= 1e-12


def test_symmetric_distribution_for_unbiased_coin_start():
    # coin (|0> + i|1>)/sqrt(2) gives a left-right symmetric walk at theta=pi/4
    init = initial_localized(0, spinor=np.array([1.0, 1.0j]) / math.sqrt(2))
    s = evolve(init, CoinParams(math.pi / 4, 0.0, 0.0), 50)
    probs = np.abs(s.amps) ** 2
    p_x = probs.sum(axis=1)
    assert np.abs(p_x - p_x[::-1]).max() <= 1e-12


# ---------------------------------------------------------------------------
# initial states


def test_entangled_pair_state_layout():
    s = initial_entangled(0, 1)
    assert s.origin == 0 and s.n_sites == 2
    root_half = 1.0 / math.sqrt(2.0)
    assert s.amps[0, 0] == pytest.approx(root_half)
    assert s.amps[1, 1] == pytest.approx(root_half)
    assert s.amps[0, 1] == 0.0 and s.amps[1, 0] == 0.0


def test_entangled_even_separation_warns():
    with pytest.warns(UserWarning):
        initial_entangled(0, 2)
    with pytest.raises(ValueError):
        initial_entangled(3, 3)


def test_gamma_state_bloch_vector():
    g = 0.77
    chi = initial_gamma(g).amps[0]
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    r = [np.real(chi.conj() @ m @ chi) for m in (sx, sy, sz)]
    assert np.allclose(r, [math.cos(g), math.sin(g), 0.0], atol=1e-14)


@pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
def test_gamma_state_rejects_non_finite_gamma(g):
    # named before e^{i gamma} is formed, so numpy never warns
    with pytest.raises(ValueError, match="gamma must be finite"):
        initial_gamma(g)


def test_localized_spinor_validation():
    with pytest.raises(ValueError):
        initial_localized(0, spinor=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        initial_localized(0, spinor=np.array([1.0, 0.0]),
                          bloch=CoinBlochState(np.array([0.0, 0.0, 1.0])))
    s = initial_localized(3, bloch=CoinBlochState(np.array([1.0, 0, 0])))
    assert s.origin == 3
    assert np.allclose(np.abs(s.amps[0]), [1 / math.sqrt(2)] * 2)


def test_state_json_round_trip():
    s = evolve(initial_entangled(0, 1), CoinParams(0.6, 0.2, -0.4), 7)
    back = WalkerState.from_json_dict(s.to_json_dict())
    assert back.origin == s.origin
    assert back.steps_elapsed == s.steps_elapsed
    assert np.array_equal(back.amps, s.amps)


# ---------------------------------------------------------------------------
# momentum picture


def test_uk_defining_relation():
    # cos(om) - i w.sigma is the one-step unitary diag(e^{-ik}, e^{ik}) C
    p = CoinParams(math.pi / 4, 0.1, 0.9)
    for k in (math.pi / 3, 0.0):
        c, w = quasi_energy_axis(p.theta, p.alpha, p.beta, k)
        u = c * np.eye(2) - 1j * np.einsum("i,iab->ab", w, PAULI[1:])
        expected = np.diag([np.exp(-1j * k), np.exp(1j * k)]) \
            @ coin_dense(p.theta, p.alpha, p.beta)
        assert np.allclose(u, expected, atol=1e-15)


@given(theta=mixing, k=st.floats(-math.pi, math.pi))
def test_uk_unitary_unit_determinant(theta, k):
    # for real cos(om) and w, u u^dag = det u = cos^2(om) + |w|^2
    c, w = quasi_energy_axis(theta, 0.3, 0.3, k)
    assert abs(c ** 2 + w @ w - 1.0) <= 1e-14


def test_axis_theta_array_matches_scalar_calls():
    # the likelihood table runs a column of thetas, theta = 0 included,
    # against the momentum nodes in one call
    thetas = np.array([0.0, 0.3, math.pi / 2])
    k = np.linspace(-math.pi, math.pi, 9)
    c, w = quasi_energy_axis(thetas[:, None], 0.0, 0.0, k)
    assert c.shape == (3, 9) and w.shape == (3, 9, 3)
    for i, theta in enumerate(thetas):
        c_i, w_i = quasi_energy_axis(theta, 0.0, 0.0, k)
        assert np.abs(c[i] - c_i).max() <= 1e-15
        assert np.abs(w[i] - w_i).max() <= 1e-15


def test_localized_k_spinor_phase():
    x0 = 4
    s = initial_localized(x0, spinor=np.array([0.6, 0.8]))
    k = np.linspace(-3, 3, 11)
    sp = spinors_at(s, k)
    expected = np.exp(-1j * k[:, None] * x0) * np.array([0.6, 0.8])
    assert np.abs(sp - expected).max() <= 1e-14


def test_entangled_k_spinor_closed_form():
    s = initial_entangled(0, 1)
    k = np.linspace(-math.pi, math.pi, 17)
    sp = spinors_at(s, k)
    expected = np.stack([np.ones_like(k), np.exp(-1j * k)], axis=1) / math.sqrt(2)
    assert np.abs(sp - expected).max() <= 1e-14
    # unit norm at every k, so the zone average is exactly 1
    assert np.abs((np.abs(sp) ** 2).sum(axis=1) - 1.0).max() <= 1e-14


def test_k_space_evolution_equals_position_evolution():
    p = CoinParams(1.2, 0.7, -0.9)
    for t in (1, 7, 64):
        a = evolve_steps(initial_entangled(0, 1), p, t)
        b = evolve(initial_entangled(0, 1), p, t)
        assert b.origin == a.origin
        assert np.abs(b.amps - a.amps).max() <= 1e-10


def test_site_window_grows_by_t_and_returns_spinors_to_sites():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    init = WalkerState(origin=-3, amps=amps / np.linalg.norm(amps))
    window = SiteWindow.after(init, 4)
    assert (window.origin, window.width) == (-7, 13)
    assert np.array_equal(window.sites, np.arange(-7, 6))
    assert window.nodes.size == 32         # smallest power of two above 26
    # the input's own k-spinors come back as the input, zero-padded by t
    back = window.to_sites(spinors_at(init, window.nodes))
    assert np.abs(back[4:9] - init.amps).max() <= 1e-14
    assert np.abs(back[[0, 1, 2, 3, 9, 10, 11, 12]]).max() <= 1e-14


def test_theta_jet_against_powers_and_differences():
    rng = np.random.default_rng(12)
    nodes = uniform_k_grid(64)
    chi = rng.normal(size=(3, 64, 2)) + 1j * rng.normal(size=(3, 64, 2))
    theta, t, h = 0.7, 9, 1e-4

    def power(th):
        axis = quasi_energy_axis(th, 0.0, 0.0, nodes)
        return SU2Powers.of(*axis).apply_power(chi, t)

    jet = theta_jet(theta, nodes, chi, t, order=2)
    assert jet.shape == (3, 3, 64, 2)
    assert np.array_equal(theta_jet(theta, nodes, chi, t)[0], power(theta))
    assert np.array_equal(theta_jet(theta, nodes, chi, t, order=1), jet[:2])
    assert np.abs(jet[0] - power(theta)).max() <= 1e-13
    lo, mid, hi = power(theta - h), power(theta), power(theta + h)
    d1 = (hi - lo) / (2 * h)
    d2 = (hi - 2 * mid + lo) / h ** 2
    assert np.abs(jet[1] - d1).max() <= 1e-6 * np.abs(d1).max()
    assert np.abs(jet[2] - d2).max() <= 1e-4 * np.abs(d2).max()
    with pytest.raises(ValueError):
        theta_jet(theta, nodes, chi, t, order=3)


def test_walker_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        WalkerState(origin=0, amps=np.array([[0.5 + 0j, 0.0]]))
