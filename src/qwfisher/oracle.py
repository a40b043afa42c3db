"""Exact finite-time information matrices from derivative states.

This route never touches the asymptotic formulas: parameter derivatives
of the evolved state come from the generator sums in momentum space,

    d_mu |psi_t> = G_mu(t) |psi_t>,   G_mu(t) = sum_{m=1..t} u^m O_mu u^{-m},

with O_mu = C^dag d_mu C = (i/2) w_mu.sigma.  One call of the walk's
kernel, :meth:`walk.ThetaFamily.generator_sums`, gives the evolved
k-spinors and their generator sums in the coin's reduced frame u(k;
theta, alpha, beta) = D(-a2) u(k - alpha; theta, 0, 0) D(a2), a2 =
(alpha - beta)/2, from that frame's :func:`walk.generator_spatial`, the
one rule from parameter names to generators.  The common D(-a2) leaves
the Gram matrix of the derivative states as it is: it is formed there.
Zone integrals are node averages, exact on that grid.  The cost is
O(n log n) in the node count n >= n0 + 2t of an n0-site input, with no
loop over t: the independent finite-t check of the asymptotic route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qfim import QFIMatrix
from .walk import (PARAM_NAMES, CoinParams, ThetaFamily, WalkerState,
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


def _evolve_with_generators(init: WalkerState, p: CoinParams, t: int, names):
    """(family, phi_t (2, n), dphi (m, 2, n)) in the family's frame with
    dphi[i] = G_mu(t) phi_t, mu the i-th of the m ``names``, which
    :func:`walk.generator_spatial` checks before the engine runs."""
    w = generator_spatial(p.theta, names)
    family = ThetaFamily.of_walk(init, p, t)
    phi, dphi = family.generator_sums(p.theta, w)
    return family, phi[0], dphi[:, 0]


def derivative_state(init: WalkerState, p: CoinParams, t: int,
                     mu: str) -> AmplitudeWindow:
    """Position-space d_mu |psi_t> from the closed-form generator sum."""
    family, _, dphi = _evolve_with_generators(init, p, t, (mu,))
    return AmplitudeWindow(origin=family.window.origin,
                           amps=family.to_sites(dphi[0]))


def exact_matrices(init: WalkerState, p: CoinParams, t: int,
                   params=PARAM_NAMES):
    """(information matrix, curvature): the real and imaginary parts of
    the complex Gram 4 (<d_u psi|d_v psi> - <d_u psi|psi><psi|d_v psi>),
    so one engine run serves both.  The Gram is Hermitian by
    construction, formed on and above the diagonal and mirrored below it
    with a real diagonal, so the curvature is exactly antisymmetric."""
    labels = tuple(params)
    _, phi, dphi = _evolve_with_generators(init, p, t, labels)
    n = phi.shape[-1]
    m = len(labels)
    gram = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(a, m):
            gram[a, b] = np.vdot(dphi[a], dphi[b]) / n
    overlap = np.einsum("an,man->m", phi.conj(), dphi) / n
    gram = 4.0 * (gram - np.outer(np.conj(overlap), overlap))
    diagonal = gram.diagonal().real
    gram = np.triu(gram, 1)
    gram += gram.conj().T
    np.fill_diagonal(gram, diagonal)
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
