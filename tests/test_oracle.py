"""Finite-time ground truth: derivative states and the exact information matrix."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qwfisher import (CoinParams, WalkerState, derivative_state,
                      initial_entangled, initial_gamma, initial_localized,
                      qfim_exact, uhlmann_exact)
from qwfisher.oracle import exact_matrices
from qwfisher.qfim import _zone_means
from qwfisher.walk import PARAM_NAMES, SiteWindow, evolve, generator_spatial

from oracles import (asymptotic_linear_term, dense_amps_at, dense_evolve,
                     random_spinor, spinor_gram_matrices)


def fd_state(init, p, t, mu, h):
    """Central-difference derivative of the dense evolution (test-local)."""
    up = {mu: getattr(p, mu) + h}
    dn = {mu: getattr(p, mu) - h}
    sp, ap = dense_evolve(init.origin, init.amps, **{**coin_dict(p), **up}, t=t)
    sm, am = dense_evolve(init.origin, init.amps, **{**coin_dict(p), **dn}, t=t)
    assert np.array_equal(sp, sm)
    return sp, (ap - am) / (2 * h)


def coin_dict(p):
    return {"theta": p.theta, "alpha": p.alpha, "beta": p.beta}


def test_one_step_theta_derivative_by_hand():
    # d/dtheta of the single step: only the coin depends on theta
    th, al, be = 0.7, 0.2, -0.9
    p = CoinParams(th, al, be)
    d = derivative_state(initial_localized(0), p, 1, "theta")
    sites = SiteWindow.after(initial_localized(0), 1).sites
    dc = np.array([
        [-np.exp(1j * al) * math.sin(th), np.exp(1j * be) * math.cos(th)],
        [-np.exp(-1j * be) * math.cos(th), -np.exp(-1j * al) * math.sin(th)],
    ])
    chi = np.array([1.0, 0.0])
    rotated = dc @ chi
    idx = {x: i for i, x in enumerate(sites)}
    assert d[idx[1], 0] == pytest.approx(rotated[0], abs=1e-12)
    assert d[idx[-1], 1] == pytest.approx(rotated[1], abs=1e-12)


@pytest.mark.parametrize("mu", ["theta", "alpha", "beta"])
def test_sum_method_agrees_with_finite_difference(mu):
    p = CoinParams(1.05, 0.6, -0.35)
    init = initial_gamma(0.9)
    t = 20
    d = derivative_state(init, p, t, mu)
    sites, dense = fd_state(init, p, t, mu, 1e-5)
    window = SiteWindow.after(init, t).sites
    assert np.abs(d - dense_amps_at(sites, dense, window)).max() <= 1e-6


def test_sum_method_against_dense_differentiation():
    p = CoinParams(0.85, 0.3, 0.5)
    init = initial_entangled(0, 1)
    t = 9
    window = SiteWindow.after(init, t).sites
    for mu in ("theta", "alpha"):
        d = derivative_state(init, p, t, mu)
        sites, dense = fd_state(init, p, t, mu, 1e-6)
        assert np.abs(d - dense_amps_at(sites, dense, window)).max() <= 1e-7


def test_state_derivative_overlap_is_imaginary():
    # differentiating <psi|psi> = 1 kills the real part
    p = CoinParams(0.9, -0.2, 0.7)
    init = initial_gamma(1.7)
    t = 15
    final, window = evolve(init, p, t), SiteWindow.after(init, t)
    for mu in ("theta", "alpha", "beta"):
        d = derivative_state(init, p, t, mu)
        assert (final.origin, final.amps.shape) == (window.origin, d.shape)
        assert abs(np.vdot(final.amps, d).real) <= 1e-12


def test_qfim_exact_matches_dense_finite_difference():
    p = CoinParams(0.75, 0.45, -0.6)
    init = initial_localized(0, spinor=np.array([0.6, 0.8j]))
    t = 6
    f = qfim_exact(init, p, t, params=("theta", "alpha"))
    assert f.labels == ("theta", "alpha")

    h = 1e-5
    final_sites, final_dense = dense_evolve(0, init.amps, p.theta, p.alpha,
                                            p.beta, t)
    ds = {}
    for mu in ("theta", "alpha"):
        ds[mu] = fd_state(init, p, t, mu, h)[1]
    expected = np.zeros((2, 2))
    for i, mu in enumerate(("theta", "alpha")):
        for j, nu in enumerate(("theta", "alpha")):
            gram = np.vdot(ds[mu], ds[nu])
            vm = np.vdot(final_dense, ds[mu])
            vn = np.vdot(final_dense, ds[nu])
            expected[i, j] = 4 * (gram - np.conj(vm) * vn).real
    assert np.abs(f.entries - expected).max() <= 1e-3 * np.abs(expected).max()


def test_exact_beta_entries_shrink_with_time():
    p = CoinParams(0.8, 0.1, -0.4)
    init = initial_gamma(0.5)
    resid = []
    for t in (8, 32, 128):
        f = qfim_exact(init, p, t)
        assert f.labels == ("theta", "alpha", "beta")
        resid.append(np.abs(f.per_t2[2, :]).max())
    assert resid[2] < resid[1] < resid[0]


def test_uhlmann_exact_antisymmetric_and_small_for_fixture():
    p = CoinParams(math.pi / 4, 0.0, 0.0)
    init = initial_entangled(0, 1)
    d = uhlmann_exact(init, p, 50, params=("theta", "alpha"))
    assert d.antisymmetric
    assert np.abs(d.entries + d.entries.T).max() == 0.0
    f = qfim_exact(init, p, 50, params=("theta", "alpha"))
    assert np.abs(d.entries[0, 1]) <= 1e-9 * f.entries[0, 0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(theta=st.floats(0.05, 1.55), sign=st.sampled_from([1.0, -1.0]),
       alpha=st.floats(-math.pi, math.pi), beta=st.floats(-math.pi, math.pi),
       input_seed=st.integers(0, 2 ** 32 - 1), n_sites=st.integers(1, 4),
       t=st.integers(1, 300))
def test_exact_curvature_is_exactly_antisymmetric(theta, sign, alpha, beta,
                                                  input_seed, n_sites, t):
    # D = -D^T bit for bit, with a zero diagonal, on any coin and input:
    # the Gram is Hermitian by construction, not by its rounding
    rng = np.random.default_rng(input_seed)
    amps = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    init = WalkerState(origin=int(rng.integers(-3, 4)),
                       amps=amps / np.linalg.norm(amps))
    f, d = exact_matrices(init, CoinParams(sign * theta, alpha, beta), t)
    assert np.array_equal(d.entries, -d.entries.T)
    assert not np.diagonal(d.entries).any()
    assert np.array_equal(f.entries, f.entries.T)


# every ordered list of distinct parameter names
NAME_LISTS = [names for m in (1, 2, 3)
              for names in itertools.permutations(PARAM_NAMES, m)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=st.one_of(st.floats(0.01, math.pi - 0.01),
                       st.sampled_from([1e-6, math.pi / 2 - 1e-9])),
       sign=st.sampled_from([1.0, -1.0]),
       alpha=st.floats(-math.pi, math.pi), beta=st.floats(-math.pi, math.pi),
       input_seed=st.integers(0, 2 ** 32 - 1), n_sites=st.integers(1, 4),
       names=st.sampled_from(NAME_LISTS),
       t=st.one_of(st.integers(1, 5), st.integers(1, 100_000)))
@example(theta=math.pi / 2 - 1e-9, sign=-1.0, alpha=0.3, beta=-2.0,
         input_seed=1, n_sites=2, names=("alpha",), t=1)
@example(theta=1e-6, sign=1.0, alpha=-1.0, beta=0.5, input_seed=2,
         n_sites=4, names=("theta", "alpha", "beta"), t=100_000)
def test_bloch_fields_give_the_spinor_gram(theta, sign, alpha, beta,
                                           input_seed, n_sites, names, t):
    # the oracle's node means of real Bloch fields against the complex
    # Gram of the derivative spinors on the same nodes: the same exact
    # node means, rounded apart by at most c t eps in units of the
    # t^2 max |v_a|^2 the entries grow as, c = 32 (over 4,500 random
    # cases the largest was 20.8, at t = 1)
    rng = np.random.default_rng(input_seed)
    amps = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    init = WalkerState(origin=int(rng.integers(-3, 4)),
                       amps=amps / np.linalg.norm(amps))
    p = CoinParams(sign * theta, alpha, beta)
    f, d = exact_matrices(init, p, t, names)
    ref_f, ref_d = spinor_gram_matrices(init, p, t, names)
    v = 0.5 * generator_spatial(p.theta, names)
    bound = 32 * t * np.finfo(float).eps * t * t * (v * v).sum(axis=1).max()
    assert f.labels == d.labels == names
    assert np.abs(f.entries - ref_f).max() <= bound
    assert np.abs(d.entries - ref_d).max() <= bound


def test_oracle_accepts_random_spinors_and_stays_psd():
    rng = np.random.default_rng(21)
    for _ in range(5):
        p = CoinParams(rng.uniform(0.3, 1.3), rng.uniform(-2, 2),
                       rng.uniform(-2, 2))
        init = initial_localized(0, spinor=random_spinor(rng))
        f = qfim_exact(init, p, 12)
        evals = np.linalg.eigvalsh(f.per_t2)
        assert evals.min() >= -1e-9


# ---------------------------------------------------------------------------
# the t-linear term of the asymptotic matrix


def _residuals(p, init, params, t, f2, f1):
    """The largest of |F - t^2 F2 - t F1| / |F| and of |F - t^2 F2| / |F|
    over t .. t + 3, F the oracle matrix and |.| the largest entry: the
    few steps keep an oscillating remainder from passing near zero."""
    with_f1 = without = 0.0
    for s in range(t, t + 4):
        f = qfim_exact(init, p, s, params=params).entries
        scale = np.abs(f).max()
        with_f1 = max(with_f1, np.abs(f - s * s * f2 - s * f1).max() / scale)
        without = max(without, np.abs(f - s * s * f2).max() / scale)
    return with_f1, without


def test_linear_term_at_the_measured_gamma_point():
    # gamma(0.6) at (0.7, 0.3, 0.1): 1.30e-5 with t F1 against 3.08e-4
    # without at t = 1000, and 7.2e-8 against 2.0e-5 at t = 16000
    p, init, params = CoinParams(0.7, 0.3, 0.1), initial_gamma(0.6), \
        ("theta", "alpha")
    first, y1 = _zone_means(p, init, params)
    f2, f1 = first - np.outer(y1, y1), asymptotic_linear_term(p, init, params)
    for t, bound, bound_without in ((1000, 1.4e-5, 3.2e-4),
                                    (16000, 8e-8, 2.1e-5)):
        f = qfim_exact(init, p, t, params=params).entries
        scale = np.abs(f).max()
        assert np.abs(f - t * t * f2 - t * f1).max() / scale <= bound
        assert np.abs(f - t * t * f2).max() / scale <= bound_without


@settings(max_examples=20, deadline=None, derandomize=True)
@given(theta=st.floats(0.1, 1.5), sign=st.sampled_from([1.0, -1.0]),
       alpha=st.floats(-math.pi, math.pi), beta=st.floats(-math.pi, math.pi),
       input_seed=st.integers(0, 2 ** 32 - 1), gamma_input=st.booleans(),
       triple=st.booleans())
@example(theta=0.7, sign=1.0, alpha=0.3, beta=0.1, input_seed=0,
         gamma_input=True, triple=True)
def test_linear_term_makes_the_residual_fall_faster_than_one_over_t(
        theta, sign, alpha, beta, input_seed, gamma_input, triple):
    # without t F1 the residual falls as 1/t, so by 16 from t to 16 t;
    # with it the remainder is O(t^1/2) against t^2, by 64
    p = CoinParams(sign * theta, alpha, beta)
    rng = np.random.default_rng(input_seed)
    if gamma_input:
        init = initial_gamma(rng.uniform(-math.pi, math.pi))
    else:                                        # both coin components
        init = initial_localized(int(rng.integers(-3, 4)),
                                 spinor=random_spinor(rng))
    params = ("theta", "alpha", "beta") if triple else ("theta", "alpha")
    first, y1 = _zone_means(p, init, params)
    assume(np.abs(y1).max() > 0.05)              # y1 = 0 has no t F1
    f2, f1 = first - np.outer(y1, y1), asymptotic_linear_term(p, init, params)
    early, early_without = _residuals(p, init, params, 250, f2, f1)
    late, late_without = _residuals(p, init, params, 4000, f2, f1)
    assert early < early_without and late < late_without
    assert early > 16.0 * late
