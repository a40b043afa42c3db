"""The one-step conjugation superoperator: quasi-energy axis and projector.

The reference is the dense Pauli conjugation map
M_ij = (1/2) Tr(sigma_i u sigma_j u^dag) from tests/oracles.py, turned
into the coin's reduced frame; the code under test is the reduced-frame
quasi-energy axis in qwfisher.walk and the projector built from it in
qwfisher.qfim.
"""
import math

import numpy as np
import pytest

from qwfisher import CoinParams
from qwfisher import qfim
from qwfisher.qfim import a1_grid

from oracles import pauli_conjugation_dense, z_turn


def dense_map(p, k):
    """The dense lab map conjugated by the z-turn by beta - alpha: the
    map of u(k - alpha; theta, 0, 0) in the coin's reduced frame."""
    r = z_turn(p.beta - p.alpha)
    return r @ pauli_conjugation_dense(p.theta, p.alpha, p.beta, k) @ r.T


def cos_omega(p, k):
    return qfim._axis(p.theta, k - p.alpha)[0]


def invariant_vector(p, k):
    return qfim._axis(p.theta, k - p.alpha)[1]


def random_point(rng):
    p = CoinParams(rng.uniform(0.2, 1.4), rng.uniform(-3, 3),
                   rng.uniform(-3, 3))
    return p, rng.uniform(-math.pi, math.pi)


def test_half_pi_mixing_is_in_plane():
    # cos(theta) = 0: the invariant axis is purely equatorial and the
    # z-direction flips sign every step
    p = CoinParams(math.pi / 2, 0.4, -0.7)
    k = 0.9
    s = dense_map(p, k)[0, 1:, 1:]
    u = invariant_vector(p, k)
    assert abs(u[2]) <= 1e-15
    assert np.abs(s @ u - u).max() <= 1e-12
    assert s[2, 2] == pytest.approx(-1.0)
    assert abs(cos_omega(p, k)) <= 1e-15


def test_spectral_eigenvalues_and_vectors():
    # eigenvalues (1, 1, e^{+-2iw}) with cos w from the axis; the fixed
    # eigenvectors are the trace direction and (0, u / |u|)
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, k = random_point(rng)
        m = dense_map(p, k)[0]
        omega = math.acos(cos_omega(p, k))
        evs = np.sort_complex(np.linalg.eigvals(m))
        expected = np.sort_complex(np.array(
            [1.0, 1.0, np.exp(2j * omega), np.exp(-2j * omega)]))
        assert np.abs(evs - expected).max() <= 1e-10
        u = invariant_vector(p, k)
        assert np.linalg.norm(u) == pytest.approx(math.sin(omega), abs=1e-12)
        lam1 = np.array([1.0, 0.0, 0.0, 0.0])
        lam2 = np.concatenate([[0.0], u / np.linalg.norm(u)])
        for lam in (lam1, lam2):
            assert np.abs(m @ lam - lam).max() <= 1e-12


def test_omega_at_half_pi_mixing():
    # theta = pi/2 gives w = pi/2 at every momentum: the rotating pair
    # of eigenvalues sits at e^{+-i pi} = -1
    p = CoinParams(math.pi / 2, 0.0, 0.0)
    ks = np.linspace(-3, 3, 7)
    omega = np.arccos(cos_omega(p, ks))
    assert np.abs(omega - math.pi / 2).max() <= 1e-12
    for m in dense_map(p, ks):
        evs = np.sort(np.linalg.eigvals(m).real)
        assert np.abs(evs - [-1.0, -1.0, 1.0, 1.0]).max() <= 1e-10


def test_projector_properties_on_grid():
    p = CoinParams(0.9, 0.3, -1.1)
    ks = np.linspace(-math.pi, math.pi, 512, endpoint=False)[::31]
    a1 = a1_grid(p, ks)
    at = dense_map(p, ks)
    assert np.abs(a1 @ a1 - a1).max() <= 1e-12
    assert np.abs(at @ a1 - a1).max() <= 1e-12
    assert np.abs(a1 @ at - a1).max() <= 1e-12
    assert np.abs(np.einsum("nii->n", a1) - 2.0).max() <= 1e-12


def test_projector_equals_eigenvector_sum():
    # the right singular vectors of M - 1 with zero singular value are an
    # orthonormal basis of the eigenvalue-1 space; a1_grid is the sum of
    # their outer products, the orthogonal projector onto ker(M - 1)
    rng = np.random.default_rng(5)
    for _ in range(30):
        p, k = random_point(rng)
        m = dense_map(p, k)[0]
        _, sv, vh = np.linalg.svd(m - np.eye(4))
        assert sv[2] <= 1e-12 < sv[1]
        kernel = vh[2:].T
        assert np.abs(m @ kernel - kernel).max() <= 1e-12
        assert np.abs(a1_grid(p, k) - kernel @ kernel.T).max() <= 1e-10


def test_projector_annihilates_rotating_eigenvectors():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p, k = random_point(rng)
        m = dense_map(p, k)[0]
        a1 = a1_grid(p, k)
        evals, evecs = np.linalg.eig(m)
        rotating = np.abs(evals - 1.0) > 1e-6
        assert rotating.sum() == 2
        residual = np.abs(a1 @ evecs[:, rotating]).max()
        assert residual <= 1e-10
