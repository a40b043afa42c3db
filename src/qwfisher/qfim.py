"""Asymptotic quantum Fisher information of the walk, per step squared.

For large step counts the information matrix grows as t^2 with a
coefficient given by zone integrals of the coin generators sandwiched
between stationary projectors:

    F_uv / t^2 = (1/2pi) Int dk o0(k) (O_u | A1_k | O_v)
               - [(1/2pi) Int dk (O_u | A1_k | rho0(k))]
               * [(1/2pi) Int dk (rho0(k) | A1_k | O_v)]

with O_u = C^dag dC/du = (i/2) w_u.sigma and rho0(k) = (o0, r) the
unnormalised Pauli 4-vector of the initial k-spinor (:func:`rho_bloch`),
whose norm o0(k) is constant (=1) for the usual single-site and
odd-separation inputs.  A1, the stationary projector, is the identity
on the trace component plus u u^T / sin^2 w on the spatial block, u
the quasi-energy axis, so only its closed form is used here (the 4 x 4
matrices are a test reference), in :func:`beta_null_check` too.  The
brackets are dot products, taken in the coin's reduced frame of
:mod:`qwfisher.walk` at x = k - alpha, so every integrand is
N(x) / sin^2 w with

    N_uv = (u.w_u)(u.w_v) o0,    N_u = (u.w_u)(u.r),
    sin^2 w = 1 - cos^2 theta cos^2 x.

N is a trigonometric polynomial of degree at most 1 + (input width),
and the zone mean of e^{ijx} / sin^2 w (x = k - alpha) is
rho^{|j|/2} / s for even j and 0 for odd j, with s = |sin theta| and
rho = cos^2 theta / (1 + s)^2.  So node weights L on a small grid of
:func:`walk.uniform_k_grid` (one inverse FFT of the partial sums of
rho^i) give each mean as sum_i L_i N(x_i), exact up to roundoff at
every mixing angle, with no tolerance and no node count.  The
mixed-derivative (Uhlmann) curvature vanishes identically in this limit.

A single-site input's matrix has one closed form in theta, its coin
Bloch vector and phi = alpha - beta (:func:`_localized_per_t2`), which
:func:`qfim_localized` and :func:`single_param_qfi` read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import (CoinBlochState, CoinParams, WalkerState, as_real,
                   generator_spatial, k_grid_size, reduced_axis,
                   reduced_spinors, step_count, uniform_k_grid)

SYM_TOL = 1e-12
PSD_TOL = 1e-9


def rho_bloch(phi: np.ndarray) -> np.ndarray:
    """Unnormalised Pauli 4-vector phi^dag sigma_i phi of spinors (..., 2)."""
    a, b = phi[..., 0], phi[..., 1]
    aa, bb = np.abs(a) ** 2, np.abs(b) ** 2
    out = np.empty(phi.shape[:-1] + (4,))
    out[..., 0] = aa + bb
    cross = a * np.conj(b)
    out[..., 1] = 2.0 * cross.real
    out[..., 2] = -2.0 * cross.imag
    out[..., 3] = aa - bb
    return out


def _ldl_pivots_positive(a: list, m: int, shift: float) -> bool:
    """Whether the symmetric m x m matrix ``a`` (row-major; its lower
    triangle is read, and overwritten) plus shift I factors as L D L^T
    without pivoting with every pivot > 0 (a NaN pivot is not).  Each
    pivot's column, L_ik d_k below it, updates the trailing block."""
    for k in range(m):
        d = a[k * m + k] + shift
        if not d > 0.0:
            return False
        for i in range(k + 1, m):
            l = a[i * m + k] / d             # L_ik
            for j in range(k + 1, i + 1):
                a[i * m + j] -= l * a[j * m + k]
    return True


@dataclass(frozen=True)
class QFIMatrix:
    """Information matrix with parameter labels and the step count it refers to.

    ``labels`` are distinct and at least one; ``entries`` holds the
    finite matrix itself (including any t^2 growth) and ``t`` the int
    :func:`walk.step_count` reads (>= 1).  The gates run on the
    per-step-squared scale, so they do not depend on t, and on Python
    floats, as the matrices are 2x2 or 3x3 and numpy's per-call overhead
    would be their whole cost.  Finiteness, the scale max(1, max |s_ij|)
    and the (anti)symmetry defect max |s_ij -+ s_ji|, diagonal included,
    come from the scaled entries s.  Positive semidefiniteness is first
    certified: with S the symmetric part and tau = PSD_TOL * scale, an
    L D L^T factorisation of S + tau/2 I with every pivot > 0 is
    backward stable, so lambda_min(S) > -tau/2 - O(m eps |S|) > -tau and
    ``eigvalsh`` would accept S too.  Any matrix the certificate does
    not accept goes to ``eigvalsh``, whose smallest eigenvalue decides
    and is the one a refusal reports.  ``entries`` is a read-only copy
    of the input, so nothing changes it after the gates have run and
    :mod:`bounds` reads it unchecked.
    """

    entries: np.ndarray
    labels: tuple
    t: int = 1
    antisymmetric: bool = False

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        e.setflags(write=False)
        labels = tuple(self.labels)
        m = len(labels)
        if not m or len(set(labels)) < m:
            raise ValueError(f"labels must be distinct and at least one, got {labels}")
        if e.shape != (m, m):
            raise ValueError(f"entries shape {e.shape} does not match labels {self.labels}")
        t = step_count(self.t, 1)
        tt = float(t) ** 2
        s = [x / tt for x in e.ravel().tolist()]          # s_ij, row-major
        if not all(map(math.isfinite, s)):
            raise ValueError("entries must be finite")
        scale = max(1.0, *map(abs, s))
        st = [x for j in range(m) for x in s[j::m]]        # s_ji
        if self.antisymmetric:
            defect = max([abs(x + y) for x, y in zip(s, st)])
            if not defect <= SYM_TOL * scale:
                raise ValueError(f"antisymmetry defect {defect:.3e} beyond tolerance")
        else:
            defect = max([abs(x - y) for x, y in zip(s, st)])
            if not defect <= SYM_TOL * scale:
                raise ValueError(f"symmetry defect {defect:.3e} beyond tolerance")
            if not _ldl_pivots_positive([0.5 * (x + y) for x, y in zip(s, st)],
                                        m, 0.5 * PSD_TOL * scale):
                scaled = e / tt
                lo = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[0]   # ascending
                if not lo >= -PSD_TOL * scale:
                    raise ValueError(f"matrix not positive semidefinite: min eig {lo:.3e}")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "t", t)

    @property
    def per_t2(self) -> np.ndarray:
        return self.entries / float(self.t) ** 2

    def block(self, labels) -> "QFIMatrix":
        """Submatrix over a subset of the labels, order as given."""
        labels = tuple(labels)
        unknown = [l for l in labels if l not in self.labels]
        if unknown:
            raise ValueError(f"labels {unknown} are not among {self.labels}")
        idx = [self.labels.index(l) for l in labels]
        return QFIMatrix(entries=self.entries.take(idx, 0).take(idx, 1),
                         labels=labels, t=self.t,
                         antisymmetric=self.antisymmetric)

    def identifiable_block(self) -> "QFIMatrix":
        """Restriction to (theta, alpha) when a beta row is present."""
        if "beta" in self.labels:
            return self.block(("theta", "alpha"))
        return self


# ---------------------------------------------------------------------------
# stationary projector


def _axis(theta: float, x):
    """(cos w, u) of :func:`walk.reduced_axis` at x, u on a trailing axis."""
    c, w = reduced_axis(math.cos(theta), math.sin(theta), np.cos(x), np.sin(x))
    u = np.empty(c.shape + (3,))
    u[..., 0], u[..., 1], u[..., 2] = w
    return c, u


def beta_null_check(p: CoinParams) -> float:
    """max_k || A1_k |O_beta) || on a 512-node uniform grid; zero in theory.

    A1 is the identity on the trace and u u^T / sin^2 w on the spatial
    block, so the norm is |u.w_beta| / |u|.  The spatial direction u(k)
    is orthogonal to w_beta at every momentum, so this is a pure
    roundoff diagnostic.
    """
    _, u = _axis(p.theta, uniform_k_grid(512) - p.alpha)
    w_beta = generator_spatial(p.theta, ("beta",))[0]
    return float(np.max(np.abs(u @ w_beta) / np.linalg.norm(u, axis=-1)))


# ---------------------------------------------------------------------------
# the zone integrals


def _node_weights(n: int, theta: float) -> np.ndarray:
    """Weights L with sum_i L_i N(x_i) = <N(x) / (1 - cos^2 theta cos^2 x)>
    for every trigonometric polynomial N of degree below n/2, x_i = 2 pi i / n.

    With P_m = sum_{i<m} rho^i, rho^m = 1 - (1 - rho) P_m and sum_{even j}
    c_j = [N(0) + N(pi)] / 2 turn sum_{even j} c_j rho^{|j|/2} / s into

        [N(0) + N(pi)] / (2 s) - (2 / (1 + s)) sum_{even j != 0} c_j P_{|j|/2}.

    Only nodes 0 and n/2 carry the 1/(2s) part, so no two terms of size
    1/s cancel as s -> 0; the rest is one inverse real FFT of P.
    """
    s = abs(math.sin(theta))
    rho = math.cos(theta) ** 2 / (1.0 + s) ** 2
    partial = np.zeros(n // 2 + 1)
    partial[2:n // 2:2] = (rho ** np.arange((n // 2 - 1) // 2)).cumsum()
    weights = np.fft.irfft(partial, n) * (-2.0 / (1.0 + s))
    weights[::n // 2] += 0.5 / s                 # nodes 0 and n/2
    return weights


def _zone_means(p: CoinParams, init: WalkerState, params):
    """Zone means of N / sin^2 w for the selected parameters, per step squared.

    Returns the state-independent matrix a^T diag(L o0) a of the N_uv
    means, exactly symmetric, and the vector a^T (L u.r) of the N_u
    means, with a = u w^T and L the node weights of :func:`_node_weights`.
    """
    w = generator_spatial(p.theta, params)
    # N has degree <= 1 + n_sites and the weights, pi-periodic and exact
    # below n/2, hold on the walk's grid at x = k - alpha: it takes more
    # than twice 2 + n_sites nodes, one degree to spare
    n = k_grid_size(2 * (2 + init.n_sites) + 1)
    x = uniform_k_grid(n)
    _, u = _axis(p.theta, x)
    rho = rho_bloch(reduced_spinors(init, p, x + p.alpha).T)
    weights = _node_weights(n, p.theta)
    a = u @ w.T
    first = a.T @ (a * (weights * rho[:, 0])[:, None])
    y = a.T @ (weights * (u * rho[:, 1:]).sum(axis=1))
    return 0.5 * (first + first.T), y


def qfim_theorem1(p: CoinParams, init: WalkerState, t: int,
                  params=("theta", "alpha")) -> QFIMatrix:
    """Asymptotic information matrix at step count t from the zone integrals.

    params are names for :func:`walk.generator_spatial`, the one name
    rule; a beta row comes out at machine zero because the stationary
    projector annihilates O_beta.  The integrals are exact (see the
    module docstring), so there is nothing to tune.
    """
    t, params = step_count(t, 1), tuple(params)
    first, y = _zone_means(p, init, params)
    per_t2 = first - y[:, None] * y
    return QFIMatrix(entries=per_t2 * float(t) ** 2, labels=params, t=t)


def uhlmann_analytic(p: CoinParams, init: WalkerState, t: int,
                     params=("theta", "alpha")) -> QFIMatrix:
    """Mixed-derivative curvature in the long-time limit: identically zero.

    Every bracket entering the asymptotic formulas is real (the
    projector is a real matrix and the generator components are purely
    imaginary), so no imaginary part survives.
    """
    params = tuple(params)
    m = len(generator_spatial(p.theta, params))
    return QFIMatrix(entries=np.zeros((m, m)), labels=params,
                     t=step_count(t, 1), antisymmetric=True)


# ---------------------------------------------------------------------------
# closed forms for distinguished inputs


def _localized_per_t2(theta: float, phi: float, r) -> np.ndarray:
    """The (theta, phi) matrix per step squared of a single-site input
    with coin Bloch vector r at the phase difference phi = alpha - beta.

    With n = (sin th cos phi, sin th sin phi, cos th) and s = |sin th|:

        F_tt / t^2 = (4/(1+s)) [ s - (n x r)_z^2 / (1+s) ]
        F_pp / t^2 = 4 (1-s) [ 1 - (n.r)^2 / (1+s) ]
        F_tp / t^2 = -4 sign(sin th) cos th (n.r) (n x r)_z / (1+s)^2

    The cross term is written in its everywhere-regular form; it equals
    the -4 (1-s) (n.r)(n x r)_z / (cos th (1+s)) variant away from
    theta = pi/2 since (1-s)/cos th = cos th/(1+s).  F_pp likewise takes
    1 - s as cos^2 th / (1+s), which does not cancel near theta = pi/2.
    """
    CoinParams(theta, phi := as_real(phi, "phi"), 0.0)  # the coin gates theta
    s = abs(float(np.sin(theta)))
    r = CoinBlochState(r).r
    ct, st = np.cos(theta), np.sin(theta)
    n = np.array([st * np.cos(phi), st * np.sin(phi), ct])
    ndotr = float(n @ r)
    ncross = float(n[0] * r[1] - n[1] * r[0])
    f_tt = 4.0 / (1.0 + s) * (s - ncross ** 2 / (1.0 + s))
    f_pp = 4.0 * ct ** 2 / (1.0 + s) * (1.0 - ndotr ** 2 / (1.0 + s))
    f_tp = -np.copysign(4.0, st) * ct * ndotr * ncross / (1.0 + s) ** 2
    return np.array([[f_tt, f_tp], [f_tp, f_pp]])


def qfim_localized(theta: float, phi: float, r, t: int) -> QFIMatrix:
    """Information matrix over (theta, phi = alpha - beta) of a single-site
    input with coin Bloch vector ``r``: t^2 :func:`_localized_per_t2`.
    ``r`` is read by :class:`walk.CoinBlochState`, which takes a pure
    state's vector to unit length, so the Bloch vector of any coin spinor
    the walk takes serves as it is."""
    t = step_count(t, 1)
    return QFIMatrix(entries=float(t) ** 2 * _localized_per_t2(theta, phi, r),
                     labels=("theta", "phi"), t=t)


def single_param_qfi(theta: float, r_y: float, t: int) -> float:
    """Theta information for a single-site input with coin component r_y,
    the theta entry of :func:`qfim_localized` at phi = 0, r = (0, r_y, 0):
    4 t^2 s [1 + s (1 - r_y^2)] / (1+s)^2, maximal on the equatorial
    circle r_y = 0 and minimal at the poles r_y = +-1, with ratio 1 + s.
    """
    tt, r = float(step_count(t, 1)) ** 2, (0.0, as_real(r_y, "r_y"), 0.0)
    return float(tt * _localized_per_t2(theta, 0.0, r)[0, 0])
