"""Walk core: coin algebra, stepping, initial states, k-space picture."""
import dataclasses
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwfisher import (CoinBlochState, CoinParams, DegenerateWalk,
                      DiracParams, GridSpec, MagneticField, MeasurementRecord,
                      QFIMatrix, WalkerState, classical_fi, derivative_state,
                      dirac_first_order, evolve, g_of_theta,
                      holevo_compatible, initial_entangled, initial_gamma,
                      initial_localized, make_likelihood_table,
                      position_distribution, qfim_exact, qfim_localized,
                      qfim_theorem1, sample, single_param_qfi, sweep_fig1,
                      sweep_fig2, uhlmann_analytic, uhlmann_exact)
from qwfisher import qfim, walk
from qwfisher.estimation import _engine_inputs
from qwfisher.oracle import exact_matrices
from qwfisher.walk import (MAX_STEPS, PARAM_NAMES, SiteWindow, ThetaFamily,
                           as_int, as_real, generator_spatial, reduced_axis,
                           spinors_at, step_count, uniform_k_grid)

from oracles import (PAULI, coin_dense, dd_power_and_generator_sums,
                     dense_amps_at, dense_evolve, dense_powers, evolve_steps,
                     light_cone, on_doubled_nodes, prob_derivatives,
                     qfim_max_diag, spinors_dense, theta_jet)

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
    q = dataclasses.replace(p, alpha=1.0)
    assert q.alpha == 1.0 and q.theta == p.theta
    assert dataclasses.replace(p, alpha=4.0).alpha == 4.0 - 2.0 * math.pi
    with pytest.raises(DegenerateWalk):
        dataclasses.replace(p, theta=0.0)


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


@st.composite
def gapped_inputs(draw):
    """Inputs whose nonzero rows leave gaps and sit on both parities,
    some with one coin component zero."""
    rows = draw(st.lists(st.integers(0, 30), min_size=2, max_size=6,
                         unique=True).filter(
        lambda r: len({x % 2 for x in r}) == 2
        and max(r) - min(r) >= len(r)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = min(rows)
    amps = np.zeros((max(rows) - lo + 1, 2), dtype=complex)
    for r in rows:
        amps[r - lo] = rng.uniform(0.5, 1.0, 2) * np.exp(
            2j * np.pi * rng.random(2))
        amps[r - lo, rng.integers(2)] *= rng.integers(2)
    return WalkerState(origin=draw(st.integers(-20, 20)),
                       amps=amps / np.linalg.norm(amps))


@settings(max_examples=40, deadline=None)
@given(init=gapped_inputs(), t=st.integers(0, 40),
       theta=st.floats(0.2, math.pi / 2 - 0.2), alpha=angles, beta=angles)
@example(init=initial_entangled(0, 3), t=5, theta=0.7, alpha=0.3, beta=-0.2)
def test_cells_outside_the_light_cone_are_exact_zeros(init, t, theta, alpha,
                                                      beta):
    # a generic coin leaves no reachable cell at zero, so the step loop's
    # exact zeros are the cells the walk cannot reach
    p = CoinParams(theta, alpha, beta)
    dark = evolve_steps(init, p, t).amps == 0.0
    amps = evolve(init, p, t).amps
    assert np.array_equal(amps == 0.0, dark)
    assert not np.any(np.signbit(amps[dark].real))      # +0.0, not -0.0
    for mu in PARAM_NAMES:
        assert np.all(derivative_state(init, p, t, mu).amps[dark] == 0.0)
    empty = dark.all(axis=1)
    _, probs, dprobs, d2probs = prob_derivatives(p, init, t)
    assert np.all(probs[empty] == 0.0)
    assert np.all(dprobs[:, empty] == 0.0)
    assert np.all(d2probs[:, empty] == 0.0)


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
    with pytest.warns(UserWarning, match="separation 2 is even"):
        initial_entangled(0, 2)
    with pytest.warns(UserWarning, match="separation 2 is even"):
        initial_entangled(2, 0)
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
    # cos(om) - i w.sigma at x = k - alpha is the one-step unitary
    # diag(e^{-ik}, e^{ik}) C in the coin's reduced frame:
    # D(a2) u(k) D(-a2), a2 = (alpha - beta)/2
    p = CoinParams(math.pi / 4, 0.1, 0.9)
    d = np.diag(np.exp(0.5j * (p.alpha - p.beta) * np.array([1.0, -1.0])))
    for k in (math.pi / 3, 0.0):
        c, w = qfim._axis(p.theta, k - p.alpha)
        u = c * np.eye(2) - 1j * np.einsum("i,iab->ab", w, PAULI[1:])
        expected = d @ np.diag([np.exp(-1j * k), np.exp(1j * k)]) \
            @ coin_dense(p.theta, p.alpha, p.beta) @ d.conj()
        assert np.allclose(u, expected, atol=1e-15)


@given(theta=mixing, k=st.floats(-math.pi, math.pi))
def test_uk_unitary_unit_determinant(theta, k):
    # for real cos(om) and w, u u^dag = det u = cos^2(om) + |w|^2
    c, w = qfim._axis(theta, k - 0.3)
    assert abs(c ** 2 + w @ w - 1.0) <= 1e-14


def test_axis_theta_array_matches_scalar_calls():
    # the likelihood table runs a column of thetas, theta = 0 included,
    # against the momentum nodes in one call
    thetas = np.array([0.0, 0.3, math.pi / 2])
    k = np.linspace(-math.pi, math.pi, 9)
    c, w = reduced_axis(np.cos(thetas[:, None]), np.sin(thetas[:, None]),
                        np.cos(k), np.sin(k))
    assert c.shape == (3, 9) and [wi.shape for wi in w] == [(3, 9)] * 3
    for i, theta in enumerate(thetas):
        c_i, w_i = qfim._axis(theta, k)
        assert np.abs(c[i] - c_i).max() <= 1e-15
        assert np.abs(np.stack([wi[i] for wi in w], axis=-1) - w_i).max() <= 1e-15


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), span=st.integers(1, 2000),
       inner=st.integers(0, 4), origin=st.integers(-10_000, 8_000))
def test_spinors_at_matches_the_dense_sum(seed, span, inner, origin):
    # a sparse input: its two end rows and a few inside, each with one or
    # both coin components
    rng = np.random.default_rng(seed)
    rows = np.unique(np.r_[0, span - 1, rng.integers(0, span, inner)])
    amps = np.zeros((span, 2), dtype=complex)
    amps[rows] = (rng.normal(size=(rows.size, 2))
                  + 1j * rng.normal(size=(rows.size, 2)))
    amps[rows, rng.integers(0, 2, rows.size)] *= rng.integers(0, 2, rows.size)
    init = WalkerState(origin=origin, amps=amps / np.linalg.norm(amps))
    assert np.array_equal(init.support,
                          np.flatnonzero(np.abs(init.amps).sum(axis=1)))
    k = rng.uniform(-math.pi, math.pi, 64)
    assert np.abs(spinors_at(init, k) - spinors_dense(init, k)).max() <= 1e-14


def test_spinors_at_memory_is_sized_by_the_support():
    # the dense (nodes x sites) phase matrix of this input traced 128 MiB
    init = initial_entangled(0, 1023)
    nodes = SiteWindow.after(init, 1).nodes
    tracemalloc.start()
    try:
        spinors_at(init, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


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
    assert window.nodes.size == 16         # smallest even 5-smooth >= 13
    # the input's own k-spinors come back as the input, zero-padded by t
    back = window.to_sites(spinors_at(init, window.nodes).T).T
    assert np.abs(back[4:9] - init.amps).max() <= 1e-14
    assert np.abs(back[[0, 1, 2, 3, 9, 10, 11, 12]]).max() <= 1e-14


@st.composite
def sparse_windows(draw):
    """(init, t) whose window is 2^p - 1, 2^p or 2^p + 1 sites wide."""
    width = 2 ** draw(st.integers(1, 7)) + draw(st.sampled_from((-1, 0, 1)))
    t = draw(st.integers(0, (width - 1) // 2))
    n0 = width - 2 * t
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=(n0, 2)) + 1j * rng.normal(size=(n0, 2))
    amps *= rng.random((n0, 2)) < 0.3
    amps[rng.integers(n0), rng.integers(2)] = 1.0
    return (WalkerState(origin=draw(st.integers(-20, 20)),
                        amps=amps / np.linalg.norm(amps)), t)


def assert_close(a, ref, scale=1.0):
    """Within 1e-12 of the reference's own scale or ``scale``, whichever
    is larger (a derivative of p can vanish, as at t = 0)."""
    assert np.abs(a - ref).max() <= 1e-12 * max(scale, np.abs(ref).max())


@settings(max_examples=60, deadline=None)
@given(case=sparse_windows(), theta=st.floats(0.2, math.pi - 0.2),
       alpha=angles, beta=angles)
@example(case=(initial_entangled(0, 127), 0), theta=0.7, alpha=0.3,
         beta=-0.2)
@example(case=(initial_localized(5), 0), theta=0.7, alpha=0.3, beta=-0.2)
def test_window_nodes_are_exact_on_sparse_inputs(case, theta, alpha, beta):
    # n >= width sites: the inverse DFT returns each site once and the
    # node-mean inner product is the site one, so every engine result
    # is the one on twice the nodes
    init, t = case
    p = CoinParams(theta, alpha, beta)
    window = SiteWindow.after(init, t)
    assert window.width <= window.nodes.size < 2 * window.width
    chi = spinors_at(init, window.nodes)
    phi = dense_powers(p.theta, p.alpha, p.beta, window.nodes, chi, t)
    padded = np.zeros((window.width, 2), dtype=complex)
    padded[t:t + init.n_sites] = init.amps
    # the bare inverse DFT returns the input on every cell; to_sites
    # keeps it on the cells t steps can reach and zeroes the rest
    x = window.sites
    bare = np.fft.ifft(chi, axis=0)[x % window.nodes.size] \
        * np.where(x % 2, -1.0, 1.0)[:, None]
    assert np.abs(bare - padded).max() <= 1e-14
    reach = light_cone(init, t)
    back = window.to_sites(chi.T).T
    assert np.abs(back[reach] - padded[reach]).max(initial=0.0) <= 1e-14
    assert np.all(back[~reach] == 0.0)
    assert abs(np.vdot(chi, phi) / window.nodes.size
               - np.vdot(padded, window.to_sites(phi.T).T)) <= 1e-14

    ours, ref = evolve(init, p, t), on_doubled_nodes(evolve, init, p, t)
    assert ours.origin == ref.origin
    assert_close(ours.amps, ref.amps)
    # each derivative of p brings down a factor of at most t (theta) or
    # the largest site frequency (alpha)
    reach = 1 + t + np.abs(window.sites).max()
    for order, (a, b) in enumerate(zip(
            prob_derivatives(p, init, t)[1:],
            on_doubled_nodes(prob_derivatives, p, init, t)[1:])):
        assert_close(a, b, float(reach) ** order)
    if t:
        # the information matrix and the curvature as the one Gram
        gram, ref = (info.entries + 1j * curv.entries for info, curv in (
            exact_matrices(init, p, t),
            on_doubled_nodes(exact_matrices, init, p, t)))
        assert_close(gram, ref)


def test_theta_jet_against_powers_and_differences():
    rng = np.random.default_rng(12)
    nodes = uniform_k_grid(64)
    chi = rng.normal(size=(3, 64, 2)) + 1j * rng.normal(size=(3, 64, 2))
    theta, t, h = 0.7, 9, 1e-4

    def power(th):
        return dense_powers(th, 0.0, 0.0, nodes, chi, t)

    jet = theta_jet(theta, nodes, chi, t, order=2)
    assert jet.shape == (3, 3, 64, 2)
    assert np.array_equal(theta_jet(theta, nodes, chi, t), jet[:1])
    assert np.array_equal(theta_jet(theta, nodes, chi, t, order=1), jet[:2])
    assert np.abs(jet[0] - power(theta)).max() <= 1e-13
    lo, mid, hi = power(theta - h), power(theta), power(theta + h)
    d1 = (hi - lo) / (2 * h)
    d2 = (hi - 2 * mid + lo) / h ** 2
    assert np.abs(jet[1] - d1).max() <= 1e-6 * np.abs(d1).max()
    assert np.abs(jet[2] - d2).max() <= 1e-4 * np.abs(d2).max()
    with pytest.raises(ValueError):
        theta_jet(theta, nodes, chi, t, order=3)


# the default grid box's theta range, and theta within 1e-3 of its ends
BOX = (GridSpec.theta_min, GridSpec.theta_max)
box_thetas = st.one_of(st.floats(*BOX),
                       *(st.floats(end - 1e-3, end + 1e-3) for end in BOX))


@settings(max_examples=80, deadline=None)
@given(theta=box_thetas, alpha=st.floats(-math.pi, math.pi),
       t=st.integers(1, 300), order=st.integers(0, 2),
       n_sites=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@example(theta=BOX[0] - 1e-3, alpha=-math.pi, t=300, order=2, n_sites=5,
         seed=0)
@example(theta=BOX[1] + 1e-3, alpha=math.pi, t=299, order=2, n_sites=1,
         seed=1)
def test_theta_family_matches_the_reference_jet(theta, alpha, t, order,
                                                n_sites, seed):
    # inputs of 1-6 frequency groups with the alpha weights of the fits
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    amps[rng.random(amps.shape) < 0.3] = 0.0
    amps.flat[rng.integers(amps.size)] = 1.0
    init = WalkerState(origin=int(rng.integers(-3, 4)),
                       amps=amps / np.linalg.norm(amps))
    family, freqs = _engine_inputs(init, float(rng.uniform(-1.0, 1.0)), t)
    assert 1 <= freqs.size <= 6
    phase = np.exp(-1j * alpha * freqs)
    weights = np.array([phase, -1j * freqs * phase, -(freqs ** 2) * phase])
    jet = family.run(theta, order, weights)
    assert jet.shape == (order + 1, 3, 2, family.window.nodes.size)
    # the reference runs on the weighted sums of chi, coin axis last
    chi = family.factors.reshape(freqs.size, 3, 2, -1)[:, 0]
    ref = theta_jet(theta, family.window.nodes,
                    np.tensordot(weights, chi.swapaxes(-1, -2), 1), t, order)
    for j in range(order + 1):
        scale = np.abs(ref[j]).max()
        assert np.abs(jet[j] - ref[j].swapaxes(-1, -2)).max() <= 1e-13 * scale


# the kernel's error budget at large t: every output within KERNEL_C t eps
# of the exact walk at the same double theta and nodes; over 160 random
# (theta, t) cases the largest error was 1.15 t eps, for u^t chi and for
# the generator sums alike
KERNEL_C = 2.0


@pytest.mark.parametrize("t", [10, 10 ** 3, 10 ** 5, 10 ** 6])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(theta=st.floats(0.01, math.pi - 0.01),
       sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(theta=math.pi / 2 - 1e-9, sign=1.0, seed=0)
@example(theta=0.01, sign=-1.0, seed=1)
def test_kernel_is_within_t_eps_of_the_double_double_walk(t, theta, sign,
                                                          seed):
    # 32 nodes drawn from the window's own grid; a phase error of one ulp
    # in each step's quasi-energy adds up to t ulps after t steps, so no
    # double kernel can do better than about t eps
    theta = sign * theta
    rng = np.random.default_rng(seed)
    window = SiteWindow.after(initial_localized(), t)
    nodes = window.nodes[rng.integers(window.nodes.size, size=32)]
    chi = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    w = generator_spatial(theta)
    family = ThetaFamily.on(dataclasses.replace(window, nodes=nodes),
                            chi.T[None])
    phi, dphi = family.generator_sums(theta, w)
    ref_phi, ref_dphi = dd_power_and_generator_sums(theta, nodes, chi, w, t)
    budget = KERNEL_C * t * np.finfo(float).eps
    for ours in (phi[0], family.run(theta)[0, 0]):
        assert np.linalg.norm(ours.T - ref_phi, axis=-1).max() <= budget
    # the sums grow like t: each node's error against max(1, |G u^t chi|)
    err = np.linalg.norm(dphi[:, 0].swapaxes(-1, -2) - ref_dphi, axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(ref_dphi, axis=-1))
    assert (err / scale).max() <= budget


@pytest.mark.parametrize("steps,message", [
    (2.5, "steps_elapsed must be an integer, got 2.5"),
    (2.0, "steps_elapsed must be an integer, got 2.0"),
    (True, "steps_elapsed must be an integer, got True"),
    (-1, "steps_elapsed must be >= 0, got -1")])
def test_walker_state_reads_steps_elapsed_by_the_step_rule(steps, message):
    amps = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WalkerState(origin=0, amps=amps, steps_elapsed=steps)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WalkerState.from_json_dict({"origin": 0, "steps_elapsed": steps,
                                    "amps": [[1.0, 0.0], [0.0, 0.0]]})
    s = WalkerState(origin=0, amps=amps, steps_elapsed=np.int64(3))
    assert type(s.steps_elapsed) is int and s.steps_elapsed == 3
    assert s.to_json_dict()["steps_elapsed"] == 3


def test_walker_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        WalkerState(origin=0, amps=np.array([[0.5 + 0j, 0.0]]))


# ---------------------------------------------------------------------------
# the one step-count rule


def test_step_count_takes_integers_in_range_only():
    assert step_count(0) == 0 and type(step_count(np.int64(7))) is int
    assert step_count(np.uint8(3), 1) == 3
    assert step_count(MAX_STEPS) == MAX_STEPS == 2 ** 53
    for bad in (2.5, 2.0, np.float64(3.0), True, np.True_, "3", None):
        with pytest.raises(ValueError, match="must be an integer"):
            step_count(bad)
    with pytest.raises(ValueError, match=r"^--t must be >= 1, got 0$"):
        step_count(0, 1, "--t")
    with pytest.raises(ValueError, match=r"^step count 9007199254740993 is "
                       r"beyond MAX_STEPS = 2\*\*53, above which a step "
                       r"count is not exact as a float$"):
        step_count(2 ** 53 + 1)


_P = CoinParams(0.7, 0.3, 0.1)
_PAIR = initial_entangled(0, 1)

# every entry point that takes a step count: (its least t, a call at t)
STEP_ENTRY_POINTS = {
    "evolve": (0, lambda t: evolve(_PAIR, _P, t)),
    "exact_matrices": (1, lambda t: exact_matrices(_PAIR, _P, t)),
    "qfim_exact": (1, lambda t: qfim_exact(_PAIR, _P, t)),
    "uhlmann_exact": (1, lambda t: uhlmann_exact(_PAIR, _P, t)),
    "derivative_state": (0, lambda t: derivative_state(_PAIR, _P, t, "alpha")),
    "qfim_theorem1": (1, lambda t: qfim_theorem1(_P, _PAIR, t)),
    "uhlmann_analytic": (1, lambda t: uhlmann_analytic(_P, _PAIR, t)),
    "qfim_localized": (1, lambda t: qfim_localized(0.7, 0.2, [0.6, 0, 0.8], t)),
    # a test reference, which still reads t through the rule
    "qfim_max_diag": (1, lambda t: qfim_max_diag(0.7, t)),
    "single_param_qfi": (1, lambda t: single_param_qfi(0.7, 0.3, t)),
    "classical_fi": (0, lambda t: classical_fi(_P, _PAIR, t)),
    "make_likelihood_table": (0, lambda t: make_likelihood_table(
        _PAIR, _P, t, GridSpec(n_theta=3, n_alpha=4))),
    "MeasurementRecord": (0, lambda t: MeasurementRecord(
        t=t, shots=3, counts={0: 3}, seed=1)),
    "QFIMatrix": (1, lambda t: QFIMatrix(np.diag([8.0, 2.0]),
                                         ("theta", "alpha"), t)),
    "sweep_fig1": (1, lambda t: sweep_fig1(0.7, t)),
    "sweep_fig2": (1, lambda t: sweep_fig2([0.7, 1.1], t)),
}


def _bitwise_same(a, b) -> bool:
    """a and b of the same types throughout, arrays byte for byte."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_bitwise_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_bitwise_same(a[k], b[k])
                                            for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_bitwise_same, a, b))
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, float):        # -0.0 is not 0.0, and NaN is NaN
        return a.hex() == b.hex()
    return a == b


@pytest.mark.parametrize("name", list(STEP_ENTRY_POINTS))
def test_every_entry_point_reads_t_through_the_rule(name):
    minimum, call = STEP_ENTRY_POINTS[name]
    refused = [2.5, 2.0, True, -1, 2 ** 53 + 1] + [0] * (minimum == 1)
    for t in refused:
        with pytest.raises(ValueError):
            call(t)
    if minimum == 0:
        call(0)
    assert _bitwise_same(call(np.int64(3)), call(3))


def test_a_non_integer_t_no_longer_runs_the_truncated_count():
    # a fractional t once ran int(t) steps with t^2 from t itself: the
    # matrix said t = 2 and carried 2.5^2
    with pytest.raises(ValueError, match="must be an integer, got 2.5"):
        qfim_theorem1(_P, _PAIR, 2.5)
    with pytest.raises(ValueError, match="must be an integer, got 2.5"):
        qfim_localized(0.7, 0.2, [0.6, 0.0, 0.8], 2.5)
    window = SiteWindow.after(_PAIR, np.int64(4))
    assert window.t == 4 and type(window.t) is int


# ---------------------------------------------------------------------------
# the two number rules


def test_the_integer_rule():
    assert as_int(np.int32(-4), "n") == -4
    assert type(as_int(np.uint8(3), "n")) is int
    assert as_int(0, "n", 0) == 0 and as_int(2 ** 80, "n") == 2 ** 80
    for bad in (2.0, 2.5, np.float64(2.0), True, np.True_, "2", None, 2j):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"n must be an integer, got {bad!r}") + "$"):
            as_int(bad, "n")
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        as_int(np.int64(0), "n", 1)


def test_the_real_number_rule():
    assert as_real(3, "x") == 3.0 and as_real(np.int64(-2), "x") == -2.0
    assert type(as_real(np.float32(0.5), "x")) is float
    assert as_real(-0.0, "x").hex() == "-0x0.0p+0"
    for bad in (True, np.True_, "0.7", None, 0.7j, np.complex128(1), [0.7],
                np.array(0.7)):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"x must be a real number, got {bad!r}") + "$"):
            as_real(bad, "x")
    # each refusal prints a plain float, numpy scalars and huge ints too
    for bad, shown in ((math.nan, "nan"), (np.float64(-math.inf), "-inf"),
                       (np.float32(math.inf), "inf"), (10 ** 400, "inf")):
        with pytest.raises(ValueError,
                           match=f"^x must be finite, got {shown}$"):
            as_real(bad, "x")


def _entangled(x1, x2):
    with warnings.catch_warnings():     # even separations warn
        warnings.simplefilter("ignore")
        return initial_entangled(x1, x2)


_ONE_SITE = position_distribution(initial_localized(0))
_F = QFIMatrix(np.diag([8.0, 2.0]), ("theta", "alpha"), 3)

# every scalar entry that reads a number: (the name its refusal gives,
# "int" or "real", a call at the value, the (lo, hi) of its valid values)
NUMBER_ENTRIES = {
    "CoinParams.theta": ("theta", "real", lambda v: CoinParams(v, 0.3, 0.1),
                         (0.2, 3.0)),
    "CoinParams.alpha": ("alpha", "real", lambda v: CoinParams(0.7, v, 0.1),
                         (-9.0, 9.0)),
    "CoinParams.beta": ("beta", "real", lambda v: CoinParams(0.7, 0.3, v),
                        (-9.0, 9.0)),
    "initial_gamma": ("gamma", "real", initial_gamma, (-9.0, 9.0)),
    "WalkerState.origin": ("origin", "int", lambda v: WalkerState(
        origin=v, amps=np.array([[0.6, 0.8j]])), (-10 ** 4, 10 ** 4)),
    "initial_localized": ("x0", "int", initial_localized, (-10 ** 4, 10 ** 4)),
    "initial_entangled.x1": ("x1", "int", lambda v: _entangled(v, 101),
                             (-100, 100)),
    "initial_entangled.x2": ("x2", "int", lambda v: _entangled(-101, v),
                             (-100, 100)),
    "step_count": ("step count", "int", step_count, (0, 10 ** 6)),
    "sample.shots": ("shots", "int", lambda v: sample(_ONE_SITE, v, 0),
                     (1, 10 ** 6)),
    "sample.seed": ("seed", "int", lambda v: sample(_ONE_SITE, 5, v),
                    (0, 2 ** 31 - 1)),
    "MeasurementRecord.count": ("count at site 0", "int",
                                lambda v: MeasurementRecord(
                                    t=1, shots=4, counts={0: v, 1: 2}, seed=0),
                                (2, 2)),
    "MeasurementRecord.site": ("site", "int", lambda v: MeasurementRecord(
        t=1, shots=2, counts={v: 2}, seed=0), (-50, 50)),
    "GridSpec.theta_min": ("grid edge theta_min", "real",
                           lambda v: GridSpec(theta_min=v), (-3.0, 1.4)),
    "GridSpec.theta_max": ("grid edge theta_max", "real",
                           lambda v: GridSpec(theta_max=v), (0.2, 3.0)),
    "GridSpec.alpha_min": ("grid edge alpha_min", "real",
                           lambda v: GridSpec(alpha_min=v), (-3.0, 1.4)),
    "GridSpec.alpha_max": ("grid edge alpha_max", "real",
                           lambda v: GridSpec(alpha_max=v), (-1.4, 3.0)),
    "GridSpec.n_theta": ("n_theta", "int", lambda v: GridSpec(n_theta=v),
                         (2, 500)),
    "GridSpec.n_alpha": ("n_alpha", "int", lambda v: GridSpec(n_alpha=v),
                         (2, 500)),
    "MagneticField.b2": ("b2", "real", lambda v: MagneticField(v, 0.2),
                         (-1.0, 1.0)),
    "MagneticField.b3": ("b3", "real", lambda v: MagneticField(0.2, v),
                         (-1.0, 1.0)),
    "DiracParams.m": ("m", "real", lambda v: DiracParams(v, 1.0, 1.0, 0.01),
                      (-100.0, 100.0)),
    "DiracParams.q": ("q", "real", lambda v: DiracParams(1.0, v, 1.0, 0.01),
                      (-100.0, 100.0)),
    "DiracParams.a_x": ("a_x", "real",
                        lambda v: DiracParams(1.0, 1.0, v, 0.01), (1.0, 100.0)),
    "DiracParams.eps": ("eps", "real", lambda v: DiracParams(1.0, 1.0, 1.0, v),
                        (0.001, 1.0)),
    "dirac_first_order.a_x": ("a_x", "real", lambda v: dirac_first_order(
        _P, v, 0.01), (1.0, 100.0)),
    "dirac_first_order.eps": ("eps", "real", lambda v: dirac_first_order(
        _P, 1.0, v), (0.001, 1.0)),
    "holevo_compatible.eps": ("compatibility threshold", "real",
                              lambda v: holevo_compatible(_F, eps=v),
                              (0.0, 5.0)),
    "g_of_theta": ("theta", "real", g_of_theta, (0.2, 3.0)),
    "qfim_localized.phi": ("phi", "real", lambda v: qfim_localized(
        0.7, v, [0.6, 0.0, 0.8], 3), (-9.0, 9.0)),
    "single_param_qfi.r_y": ("r_y", "real", lambda v: single_param_qfi(
        0.7, v, 3), (-1.0, 1.0)),
    "sweep_fig2.theta_list": ("theta", "real",
                              lambda v: sweep_fig2([0.7, v], 3), (0.2, 3.0)),
}
# what no entry takes, and for an integer, a float even when whole
NOT_A_NUMBER = [True, False, np.True_, "0.7", None, 0.7j, math.nan, math.inf,
                -math.inf, np.float64(math.nan)]
NOT_AN_INTEGER = NOT_A_NUMBER + [2.0, 2.7, np.float64(2.0), np.float32(3.0)]


@pytest.mark.parametrize("entry", list(NUMBER_ENTRIES))
def test_every_number_is_read_by_one_of_the_two_rules(entry):
    name, kind, call, _ = NUMBER_ENTRIES[entry]
    for bad in NOT_AN_INTEGER if kind == "int" else NOT_A_NUMBER:
        # a ValueError that names the argument: never a TypeError or an
        # IndexError, and never a run at a truncated value
        with pytest.raises(ValueError) as refusal:
            call(bad)
        assert type(refusal.value) is ValueError
        assert str(refusal.value).startswith(f"{name} must be "), bad


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("entry", list(NUMBER_ENTRIES))
def test_numpy_scalars_read_as_their_python_values(entry, data):
    _, kind, call, (lo, hi) = NUMBER_ENTRIES[entry]
    ints = st.integers(math.ceil(lo), math.floor(hi))
    v = data.draw(ints if kind == "int" else ints | st.floats(lo, hi))
    pairs = [(np.int32(v), v), (np.int64(v), v)] if type(v) is int else []
    if kind == "real":
        pairs += [(np.float64(v), float(v)),
                  (np.float32(v), float(np.float32(v)))]
    for scalar, value in pairs:
        assert _bitwise_same(call(scalar), call(value)), (scalar, value)


# ---------------------------------------------------------------------------
# the one parameter-name rule

NAME_ROUTES = {
    "qfim_theorem1": lambda names: qfim_theorem1(_P, _PAIR, 3, params=names),
    "uhlmann_analytic": lambda names: uhlmann_analytic(_P, _PAIR, 3,
                                                       params=names),
    "exact_matrices": lambda names: exact_matrices(_PAIR, _P, 3, params=names),
    "qfim_exact": lambda names: qfim_exact(_PAIR, _P, 3, params=names),
    "uhlmann_exact": lambda names: uhlmann_exact(_PAIR, _P, 3, params=names),
    "derivative_state": lambda names: derivative_state(_PAIR, _P, 3, *names),
}
BAD_NAMES = [("theta", "gamma"), ("theta", "theta"), ()]


@pytest.mark.parametrize("route", list(NAME_ROUTES))
def test_every_route_refuses_bad_names_before_its_engine(route, monkeypatch):
    # one message from walk.generator_spatial, and no engine run: neither
    # the oracle's family nor the input transform every route starts with
    runs = []
    of_walk, transform = ThetaFamily.of_walk, walk.spinors_at
    monkeypatch.setattr(ThetaFamily, "of_walk",
                        lambda *a: runs.append("of_walk") or of_walk(*a))
    monkeypatch.setattr(walk, "spinors_at",
                        lambda *a: runs.append("spinors_at") or transform(*a))
    bad = ([("gamma",), ("",)] if route == "derivative_state"
           else BAD_NAMES)
    for names in bad:
        with pytest.raises(ValueError, match="^" + re.escape(
                f"params must be distinct names from {PARAM_NAMES}, at "
                f"least one, got {names}") + "$"):
            NAME_ROUTES[route](names)
    assert runs == []
    NAME_ROUTES[route](("alpha",))
    assert runs or route == "uhlmann_analytic"


# entries whose sequence argument is read once, so an iterator serves
ONE_READ_ENTRIES = {
    "qfim_theorem1": lambda seq: qfim_theorem1(_P, _PAIR, 3, params=seq),
    "uhlmann_analytic": lambda seq: uhlmann_analytic(_P, _PAIR, 3,
                                                     params=seq),
    "QFIMatrix.block": lambda seq: QFIMatrix(
        np.diag([8.0, 2.0, 0.5]), PARAM_NAMES, 3).block(seq),
    "sweep_fig2": lambda seq: sweep_fig2(seq, 30),
}


@pytest.mark.parametrize("name", list(ONE_READ_ENTRIES))
def test_every_sequence_argument_is_read_once(name):
    seq = (0.7, 1.1) if name == "sweep_fig2" else ("alpha", "theta")
    call = ONE_READ_ENTRIES[name]
    assert _bitwise_same(call(iter(seq)), call(seq))


def test_named_generator_rows_are_the_triple_rows():
    for theta in (0.7, -2.0, 1e-6, math.pi / 2):
        full = generator_spatial(theta)
        for m in (1, 2, 3):
            for names in itertools.permutations(PARAM_NAMES, m):
                rows = full[[PARAM_NAMES.index(n) for n in names]]
                for given_as in (names, list(names)):
                    w = generator_spatial(theta, given_as)
                    assert w.shape == rows.shape and w.dtype == rows.dtype
                    assert w.tobytes() == rows.tobytes()
