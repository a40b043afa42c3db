"""Closed-form momentum engine against the step-by-step recurrence."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwfisher import (CoinParams, evolve, initial_entangled, initial_gamma,
                      initial_localized)
from qwfisher.walk import (SU2Powers, generator_spatial, quasi_energy_axis,
                           spinors_at)

from oracles import (evolve_steps, random_spinor,
                     recurrence_powers_and_generators)

THETA_MIN, THETA_MAX = 1e-6, math.pi / 2 - 1e-9
thetas = st.one_of(st.sampled_from([THETA_MIN, THETA_MAX]),
                   st.floats(THETA_MIN, THETA_MAX))
phases = st.floats(-math.pi, math.pi)


def _initial(kind, rng):
    if kind == "entangled":
        return initial_entangled(0, 1)
    if kind == "gamma":
        return initial_gamma(rng.uniform(-math.pi, math.pi))
    return initial_localized(0, spinor=random_spinor(rng))


@settings(max_examples=60, deadline=None)
@given(theta=thetas, alpha=phases, beta=phases,
       t=st.sampled_from([1, 2, 7, 50, 256]),
       kind=st.sampled_from(["entangled", "gamma", "random"]),
       seed=st.integers(0, 2**32 - 1))
@example(theta=THETA_MIN, alpha=0.4, beta=-1.1, t=256, kind="entangled",
         seed=0)
@example(theta=THETA_MAX, alpha=-2.0, beta=0.3, t=256, kind="random", seed=1)
def test_closed_form_matches_recurrence(theta, alpha, beta, t, kind, seed):
    p = CoinParams(theta, alpha, beta)
    # k - alpha = 0 and +-pi are where sin(omega) bottoms out at sin(theta)
    k = p.alpha + np.linspace(-math.pi, math.pi, 33)
    phi0 = spinors_at(_initial(kind, np.random.default_rng(seed)), k)
    phi_ref, g_ref = recurrence_powers_and_generators(
        p.theta, p.alpha, p.beta, k, phi0, t)
    powers = SU2Powers.of(*quasi_energy_axis(p.theta, p.alpha, p.beta, k))
    phi = powers.apply_power(phi0, t)
    g = powers.generator_sums(0.5j * generator_spatial(p), t)
    assert np.abs(phi - phi_ref).max() <= 1e-11 * np.abs(phi_ref).max()
    assert np.abs(g - g_ref).max() <= 1e-11 * np.abs(g_ref).max()


def test_evolve_k_matches_evolve_at_large_t():
    p = CoinParams(0.9, 0.35, -1.2)
    init = initial_gamma(0.6)
    a = evolve_steps(init, p, 4096)
    b = evolve(init, p, 4096)
    assert b.origin == a.origin and b.amps.shape == a.amps.shape
    assert np.abs(b.amps - a.amps).max() <= 1e-10


@pytest.mark.parametrize("t", [0, 1, 5, 33])
def test_evolve_k_odd_width_negative_origin(t):
    # width 6 from origin -3: pins the x mod n rows and the e^{-i pi x} sign
    init = initial_entangled(-3, 2)
    p = CoinParams(1.1, -0.7, 0.25)
    a = evolve_steps(init, p, t)
    b = evolve(init, p, t)
    assert b.origin == a.origin == -3 - t
    assert np.abs(b.amps - a.amps).max() <= 1e-12
