"""Exact finite-time information matrices from derivative states.

This route never touches the asymptotic formulas: parameter derivatives
of the evolved state come from the generator sums in momentum space,

    d_mu |psi_t> = G_mu(t) |psi_t>,   G_mu(t) = sum_{m=1..t} u^m O_mu u^{-m},

with O_mu = C^dag d_mu C = (i/2) w_mu.sigma (w_mu real, from
:func:`walk.generator_spatial`).  Conjugation by u(k) = cos w - i sin w
n.sigma, whose cos w and sin w n come from
:func:`walk.quasi_energy_axis` (the axis the asymptotic route's
projector also reads), turns Pauli vectors by 2w about n, so with
O_mu = v.sigma, v = (i/2) w_mu, the sum is a geometric series with the
closed form

    g(t) = t (n.v) n + [sin tw cos (t+1)w / sin w] v_perp
                     + [sin tw sin (t+1)w / sin w] n x v,

and u^t follows from the Chebyshev identity (see :class:`SU2Powers`).
G_mu(t) |psi_t> is formed from the components of g(t) and the spinor
directly, with no 2 x 2 matrix per node.
Zone integrals become plain node averages on a uniform grid that is
fine enough for the discrete orthogonality to make them exact (every
integrand is a trigonometric polynomial of bounded degree), and the
position-space derivative state is one inverse FFT away.

The cost is O(n log n) in the node count n > 4t, with no loop over t;
the route is the independent check of the analytic module and the
exact-score engine for estimation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qfim import QFIMatrix
from .quadrature import uniform_k_grid
from .walk import (PARAM_NAMES, CoinParams, SU2Powers, WalkerState,
                   generator_spatial, k_grid_size, quasi_energy_axis,
                   spinors_at, window_from_uniform)


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
    """Evolved k-spinors and their derivatives on a uniform grid.

    Returns (phi_t, dphi) with phi_t of shape (n, 2) and dphi of shape
    (len(idx), n, 2), dphi[i] = G_mu(t) phi_t for mu = PARAM_NAMES[idx[i]].
    """
    t = int(t)
    nodes, _ = uniform_k_grid(k_grid_size(init.n_sites + 2 * t))
    powers = SU2Powers.of(
        *quasi_energy_axis(p.theta, p.alpha, p.beta, nodes))
    phi = powers.apply_power(spinors_at(init, nodes), t)
    return phi, powers.generator_sums(0.5j * generator_spatial(p)[idx], t,
                                      phi)


def derivative_state(init: WalkerState, p: CoinParams, t: int,
                     mu: str) -> AmplitudeWindow:
    """Position-space d_mu |psi_t> from the closed-form generator sum."""
    if mu not in PARAM_NAMES:
        raise ValueError(f"unknown parameter {mu!r}; choose from {PARAM_NAMES}")
    _, dphi = _evolve_with_generators(init, p, t, [PARAM_NAMES.index(mu)])
    origin = init.origin - int(t)
    amps = window_from_uniform(dphi[0], origin, init.n_sites + 2 * int(t))
    return AmplitudeWindow(origin=origin, amps=amps)


def _gram(init: WalkerState, p: CoinParams, t: int, params) -> np.ndarray:
    """4 (<d_u psi|d_v psi> - <d_u psi|psi><psi|d_v psi>) as a complex matrix.

    Its real part is the information matrix and its imaginary part the
    mixed-derivative curvature.
    """
    idx = [PARAM_NAMES.index(l) for l in params]
    phi, dphi = _evolve_with_generators(init, p, t, idx)
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


def _exact_matrices(init: WalkerState, p: CoinParams, t: int,
                    params=PARAM_NAMES):
    """(information matrix, curvature) from the real and imaginary parts
    of one complex Gram, so one engine run serves both."""
    gram = _gram(init, p, t, params)
    labels = tuple(params)
    return (QFIMatrix(entries=gram.real, labels=labels, t=int(t),
                      asymptotic=False),
            QFIMatrix(entries=gram.imag, labels=labels, t=int(t),
                      antisymmetric=True, asymptotic=False))


def qfim_exact(init: WalkerState, p: CoinParams, t: int,
               params=PARAM_NAMES) -> QFIMatrix:
    """Finite-t information matrix 4 Re(<d_u|d_v> - <d_u|psi><psi|d_v>)."""
    return _exact_matrices(init, p, t, params)[0]


def uhlmann_exact(init: WalkerState, p: CoinParams, t: int,
                  params=PARAM_NAMES) -> QFIMatrix:
    """Finite-t mixed-derivative curvature 4 Im(<d_u|d_v> - <d_u|psi><psi|d_v>).

    Decays like 1/t on the walk models here; the asymptotic route
    reports an exact zero instead.
    """
    return _exact_matrices(init, p, t, params)[1]
