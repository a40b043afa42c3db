"""Exact finite-time information matrix and curvature from real node fields.

This route never touches the asymptotic formulas.  Parameter derivatives
of the evolved state come from the generator sums in momentum space,

    d_mu |psi_t> = G_mu(t) |psi_t>,   G_mu(t) = sum_{m=1..t} u^m O_mu u^{-m},

with O_mu = C^dag d_mu C = i v_mu.sigma, v_mu = w_mu / 2 from
:func:`walk.generator_spatial` (the one rule from parameter names to
generators), in the coin's reduced frame u(k; theta, alpha, beta) =
D(-a2) u(k - alpha; theta, 0, 0) D(a2), a2 = (alpha - beta)/2, whose
common D(-a2) leaves every inner product below as it is.  On each node
the step folds (:func:`walk.folded_angle`) to u = sign (cos(om) - i
sin(om) n.sigma), and the kernel's closed form
(:meth:`walk.ThetaFamily.generator_sums`) is G_mu(t) = i g_mu.sigma with

    g_mu = t alpha_mu n + a_t R_{(t+1) om} v_mu_perp,

a_t = sin(t om) / sin(om), R_phi the turn by phi about n and alpha_mu =
n.v_mu.  The evolved spinor's Bloch vector is r_t = R_{2 t om} r0, with
(o, r0) the Bloch 4-vector of the input's reduced k-spinor, so

    <d_a psi|d_b psi> = <o g_a.g_b + i (g_a x g_b).r_t>,
    <psi|d_b psi> = i <g_b.r_t>,

<.> the node mean, which is the zone integral exactly on the window's
grid.  Both collapse to node means of real fields.  With nu = n.r0,
P_a = v_a.r0 - alpha_a nu, Q_a = v_a.(r0 x n) and (P', Q') the pair
(P, Q) turned by (t - 1) om, P' = cos P - sin Q and Q' = sin P + cos Q,

    Y_a  = <t alpha_a nu + a_t P'_a>,
    F_ab = 4 <o [(t^2 - a_t^2) alpha_a alpha_b + a_t^2 v_a.v_b]> - 4 Y_a Y_b,
    D_ab = 4 <t a_t (alpha_a Q'_b - alpha_b Q'_a)>
           + 4 (v_a x v_b).<a_t^2 nu n>.

Each mean is a 3 x 3 (or 3-vector) mean of fields in n, r0 and their
turns, contracted with the v's afterwards, so the work is a few real
arrays per node whatever the number of parameters: no derivative
spinor, no Gram of complex vectors and no loop over t.  This is the
independent finite-t check of the asymptotic route: the t^2 terms,
4 <o alpha_a alpha_b> - 4 <alpha_a nu> <alpha_b nu> as zone means, are
that route's coefficient (:mod:`qfim`, with u.w_a / sin(om) = 2
alpha_a).  :func:`derivative_state` returns the derivative states
themselves, on the sites of :meth:`walk.SiteWindow.after`.
"""
from __future__ import annotations

import math

import numpy as np

from .qfim import QFIMatrix, rho_bloch
from .walk import (PARAM_NAMES, CoinParams, SiteWindow, ThetaFamily,
                   WalkerState, folded_angle, generator_spatial,
                   reduced_axis, reduced_spinors)


def derivative_state(init: WalkerState, p: CoinParams, t: int,
                     mu: str) -> np.ndarray:
    """Position-space d_mu |psi_t>, (width, 2) on the sites of
    :meth:`walk.SiteWindow.after`, from the closed-form generator sum
    G_mu(t) u^t chi of :meth:`walk.ThetaFamily.generator_sums`, the name
    checked by :func:`walk.generator_spatial` before the engine runs."""
    w = generator_spatial(p.theta, (mu,))
    family = ThetaFamily.of_walk(init, p, t)
    _, dphi = family.generator_sums(p.theta, w)
    return family.to_sites(dphi[0, 0])


def exact_matrices(init: WalkerState, p: CoinParams, t: int,
                   params=PARAM_NAMES):
    """(information matrix, curvature) from the node means of the module
    docstring on the nodes of :meth:`walk.SiteWindow.after`, formed as
    F = 2 (G + G^T) - 4 Y Y^T and D = 4 (d - d^T), so that F is exactly
    symmetric and D exactly antisymmetric."""
    labels = tuple(params)
    v = 0.5 * generator_spatial(p.theta, labels)         # (m, 3)
    window = SiteWindow.after(init, t)
    t, n = window.t, window.nodes.size
    rho = rho_bloch(reduced_spinors(init, p, window.nodes).T)
    o, r0 = rho[:, 0], rho[:, 1:].T                      # (n,), (3, n)
    x = window.nodes - p.alpha
    cos_omega, w = reduced_axis(math.cos(p.theta), math.sin(p.theta),
                                np.cos(x), np.sin(x))
    sign, c, s, om = folded_angle(cos_omega, w)
    axis = np.array(w) * (sign / s)                      # folded n (3, n)
    nu = (axis * r0).sum(axis=0)
    r_perp = r0 - nu * axis
    n_x_r = np.empty_like(r_perp)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(axis[j], r0[k], out=n_x_r[i])
        n_x_r[i] -= axis[k] * r0[j]
    # the turn by (t - 1) om, and a_t = sin(t om) / sin(om) from it
    turn = (t - 1) * om
    cos_turn, sin_turn = np.cos(turn), np.sin(turn)
    a_t = (sin_turn * c + cos_turn * s) / s
    a_t2 = a_t * a_t
    r_turned = cos_turn * r_perp + sin_turn * n_x_r      # R r_perp
    q_turned = sin_turn * r_perp - cos_turn * n_x_r      # R (r0 x n)
    y = v @ ((axis * (t * nu) + a_t * r_turned).sum(axis=1) / n)
    g = (axis * (o * (t * t - a_t2))) @ axis.T / n
    g.flat[::4] += o @ a_t2 / n                          # + <o a_t^2> I
    mx, my, mz = axis @ (a_t2 * nu) / (2 * n)
    d = (axis * (t * a_t)) @ q_turned.T / n
    # (v_a x v_b).m / 2 = v_a.(v_b x m) / 2
    d += np.array([[0.0, mz, -my], [-mz, 0.0, mx], [my, -mx, 0.0]])
    g, d = v @ g @ v.T, v @ d @ v.T
    return (QFIMatrix(2.0 * (g + g.T) - 4.0 * np.outer(y, y), labels, t),
            QFIMatrix(4.0 * (d - d.T), labels, t, antisymmetric=True))


def qfim_exact(init: WalkerState, p: CoinParams, t: int,
               params=PARAM_NAMES) -> QFIMatrix:
    """Finite-t information matrix 4 Re(<d_u|d_v> - <d_u|psi><psi|d_v>)."""
    return exact_matrices(init, p, t, params)[0]


def uhlmann_exact(init: WalkerState, p: CoinParams, t: int,
                  params=PARAM_NAMES) -> QFIMatrix:
    """Finite-t mixed-derivative curvature 4 Im(<d_u|d_v> - <d_u|psi><psi|d_v>).

    Its entries grow like t on the walk models here, while F grows like
    t^2: only D relative to F decays like 1/t, and D / t^2 -> 0.  The
    asymptotic route reports an exact zero instead.
    """
    return exact_matrices(init, p, t, params)[1]
