"""Exact finite-time information matrices from derivative states.

This route never touches the asymptotic formulas: parameter derivatives
of the evolved state come from the generator sums in momentum space,

    d_mu |psi_t> = G_mu(t) |psi_t>,   G_mu(t) = sum_{m=1..t} u^m O_mu u^{-m},

with O_mu = C^dag d_mu C = (i/2) w_mu.sigma (w_mu real, from
:func:`walk.generator_spatial`).  :func:`walk.evolve_spinors` gives the
evolved k-spinors on their window's nodes and the closed-form powers
whose generator sums act on them; this module adds which generators and
the Gram matrix of the derivative states.  Zone integrals are node
averages, exact on that grid, and the position-space derivative state
is the window's inverse FFT away.  The cost is O(n log n) in the node
count n >= n0 + 2t of an n0-site input, with no loop over t; the route
is the independent finite-t check of the asymptotic module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qfim import QFIMatrix
from .walk import (PARAM_NAMES, CoinParams, WalkerState, evolve_spinors,
                   generator_spatial)


@dataclass(frozen=True)
class AmplitudeWindow:
    """Dense amplitude window without a norm constraint (derivative states)."""

    origin: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=complex)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"amps must have shape (n, 2), got {a.shape}")
        object.__setattr__(self, "amps", a)

    @property
    def sites(self) -> np.ndarray:
        return self.origin + np.arange(self.amps.shape[0])


def _evolve_with_generators(init: WalkerState, p: CoinParams, t: int, idx):
    """(window, phi_t (n, 2), dphi (len(idx), n, 2)) on the window's
    nodes, dphi[i] = G_mu(t) phi_t for mu = PARAM_NAMES[idx[i]]."""
    window, powers, phi = evolve_spinors(init, p, t)
    return window, phi, powers.generator_sums(
        0.5j * generator_spatial(p)[idx], window.t, phi)


def derivative_state(init: WalkerState, p: CoinParams, t: int,
                     mu: str) -> AmplitudeWindow:
    """Position-space d_mu |psi_t> from the closed-form generator sum."""
    if mu not in PARAM_NAMES:
        raise ValueError(f"unknown parameter {mu!r}; choose from {PARAM_NAMES}")
    window, _, dphi = _evolve_with_generators(init, p, t,
                                              [PARAM_NAMES.index(mu)])
    return AmplitudeWindow(origin=window.origin,
                           amps=window.to_sites(dphi[0]))


def _gram(init: WalkerState, p: CoinParams, t: int, params) -> np.ndarray:
    """4 (<d_u psi|d_v psi> - <d_u psi|psi><psi|d_v psi>) as a complex matrix.

    Its real part is the information matrix and its imaginary part the
    mixed-derivative curvature.
    """
    idx = [PARAM_NAMES.index(l) for l in params]
    _, phi, dphi = _evolve_with_generators(init, p, t, idx)
    n = phi.shape[0]
    m = len(idx)
    gram = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(a, m):
            gram[a, b] = np.vdot(dphi[a], dphi[b]) / n
            if b != a:
                gram[b, a] = np.conj(gram[a, b])
    overlap = np.einsum("na,mna->m", phi.conj(), dphi) / n
    return 4.0 * (gram - np.outer(np.conj(overlap), overlap))


def exact_matrices(init: WalkerState, p: CoinParams, t: int,
                   params=PARAM_NAMES):
    """(information matrix, curvature) from the real and imaginary parts
    of one complex Gram, so one engine run serves both."""
    gram = _gram(init, p, t, params)
    labels = tuple(params)
    return (QFIMatrix(gram.real, labels, t),
            QFIMatrix(gram.imag, labels, t, antisymmetric=True))


def qfim_exact(init: WalkerState, p: CoinParams, t: int,
               params=PARAM_NAMES) -> QFIMatrix:
    """Finite-t information matrix 4 Re(<d_u|d_v> - <d_u|psi><psi|d_v>)."""
    return exact_matrices(init, p, t, params)[0]


def uhlmann_exact(init: WalkerState, p: CoinParams, t: int,
                  params=PARAM_NAMES) -> QFIMatrix:
    """Finite-t mixed-derivative curvature 4 Im(<d_u|d_v> - <d_u|psi><psi|d_v>).

    Decays like 1/t on the walk models here; the asymptotic route
    reports an exact zero instead.
    """
    return exact_matrices(init, p, t, params)[1]
