"""The one finite-t kernel against the step-by-step recurrence and the
dense one-step matrices."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwfisher import (CoinParams, evolve, initial_entangled, initial_gamma,
                      initial_localized)
from qwfisher.walk import ThetaFamily, generator_spatial, spinors_at

from oracles import (PAULI, dense_powers, evolve_steps, on_nodes,
                     pauli_conjugation_dense, random_spinor,
                     recurrence_powers_and_generators, u_dense)
from oracles import generator_spatial as lab_generators

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


def _d_a2(p):
    """D(a2) = diag(e^{i a2}, e^{-i a2}), a2 = (alpha - beta)/2, as a
    column on the coin axis."""
    return np.exp(0.5j * (p.alpha - p.beta) * np.array([[1.0], [-1.0]]))


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
    init = _initial(kind, np.random.default_rng(seed))
    phi_ref, g_ref = recurrence_powers_and_generators(
        p.theta, p.alpha, p.beta, k, spinors_at(init, k), t)
    w = generator_spatial(p.theta)

    def kernel(s):
        """(u^t chi, G(t) u^t chi) of the input s on the momenta k, back
        in the walk's own frame and coin last."""
        family = on_nodes(lambda n: k, ThetaFamily.of_walk, s, p, t)
        back = _d_a2(p).conj()
        phi, g_phi = family.generator_sums(p.theta, w)
        return (back * phi[0]).T, (back * g_phi[:, 0]).swapaxes(-1, -2)

    phi, g_phi = kernel(init)
    # G(t) = [G u^t e_0, G u^t e_1] (u^t)^dag from the unit spinors
    units = [kernel(initial_localized(0, spinor=e)) for e in np.eye(2)]
    u_t = np.stack([u[0] for u in units], axis=-1)
    g = np.stack([u[1] for u in units], axis=-1) @ u_t.conj().swapaxes(-1, -2)
    assert np.abs(phi - phi_ref).max() <= 1e-11 * np.abs(phi_ref).max()
    assert np.abs(g - g_ref).max() <= 1e-11 * np.abs(g_ref).max()
    g_phi_ref = np.einsum("mnab,nb->mna", g_ref, phi_ref)
    assert np.abs(g_phi - g_phi_ref).max() <= 1e-11 * np.abs(g_phi_ref).max()


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.05, math.pi - 0.05), alpha=phases, beta=phases,
       t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_the_family_frame_is_the_walks_own(theta, alpha, beta, t, seed):
    # u(k; theta, alpha, beta) = D(-a2) u(k - alpha; theta, 0, 0) D(a2),
    # and D(a2) O D(-a2) turns the Pauli vector of O about z by
    # beta - alpha: the family's u^t chi and G(t) u^t chi are D(a2)
    # times the walk's, from the dense steps and conjugation map
    p = CoinParams(theta, alpha, beta)
    rng = np.random.default_rng(seed)
    init = initial_localized(int(rng.integers(-3, 4)),
                             spinor=random_spinor(rng))
    family = ThetaFamily.of_walk(init, p, t)
    k, d = family.window.nodes, _d_a2(p)[:, 0]
    u = u_dense(p.theta, p.alpha, p.beta, k)
    reduced = u_dense(p.theta, 0.0, 0.0, k - p.alpha)
    assert np.abs(u - d.conj()[:, None] * reduced * d).max() <= 1e-14
    chi = spinors_at(init, k)
    phi_ref = dense_powers(p.theta, p.alpha, p.beta, k, chi, t)
    # the Pauli vectors of G(t) = sum_m u^m O u^-m: sum_m M^m v
    conj_map = pauli_conjugation_dense(p.theta, p.alpha, p.beta, k)[:, 1:, 1:]
    v = lab_generators(p)
    g, m_v = np.zeros((k.size, 3, 3)), np.broadcast_to(v, (k.size, 3, 3))
    for _ in range(t):
        m_v = np.einsum("nij,nmj->nmi", conj_map, m_v)
        g += m_v
    g_phi_ref = np.einsum("nmi,iab,nb->mna", 0.5j * g, PAULI[1:], phi_ref)
    phi, g_phi = family.generator_sums(p.theta, generator_spatial(p.theta))
    assert np.abs(phi[0].T - d * phi_ref).max() <= 1e-13
    assert np.abs(g_phi[:, 0].swapaxes(-1, -2) - d * g_phi_ref).max() \
        <= 1e-13 * np.abs(g_phi_ref).max()


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
