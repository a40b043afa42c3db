"""Asymptotic quantum Fisher information of the walk, per step squared.

For large step counts the information matrix grows as t^2 with a
coefficient given by zone integrals of the coin generators sandwiched
between stationary projectors:

    F_uv / t^2 = (1/2pi) Int dk o0(k) (O_u | A1_k | O_v)
               - [(1/2pi) Int dk (O_u | A1_k | rho0(k))]
               * [(1/2pi) Int dk (rho0(k) | A1_k | O_v)]

with O_u = C^dag dC/du = (i/2) w_u.sigma (momentum independent, w_u
from :func:`walk.generator_spatial`) and rho0(k) = (o0, r) the
unnormalised Pauli 4-vector of the initial k-spinor, whose norm o0(k)
is constant (=1) for the usual single-site and odd-separation inputs.
A1 is rank 2 with spatial part u u^T / sin^2 w, u(k) the quasi-energy
axis of :func:`walk.quasi_energy_axis` (the axis the finite-t engine
reads too), so every integrand is N(k) / sin^2 w with

    N_uv = (u.w_u)(u.w_v) o0(k),    N_u = (u.w_u)(u.r(k)),
    sin^2 w = 1 - cos^2 theta cos^2(k - alpha).

N is a trigonometric polynomial of degree at most 1 + (input width),
so its Fourier coefficients c_j come exactly from one FFT on a small
uniform grid, and the zone mean of e^{ijx} / sin^2 w (x = k - alpha)
is rho^{|j|/2} / s for even j and 0 for odd j, with s = |sin theta|
and rho = cos^2 theta / (1 + s)^2.  The zone integrals are therefore
exact up to roundoff at every mixing angle, with no tolerance and no
node count.  The mixed-derivative (Uhlmann) curvature vanishes
identically in this limit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import TWO_PI, uniform_k_grid
from .walk import (PARAM_NAMES, CoinParams, WalkerState, generator_spatial,
                   initial_localized, k_grid_size, quasi_energy_axis,
                   spinors_at)

SYM_TOL = 1e-12
PSD_TOL = 1e-9


@dataclass(frozen=True)
class QFIMatrix:
    """Information matrix with parameter labels and the step count it refers to.

    ``entries`` holds the matrix itself (including any t^2 growth);
    symmetry (or antisymmetry, for mixed-derivative curvature matrices)
    and positive semidefiniteness are validated on the per-step-squared
    scale so the gates do not depend on t.  ``asymptotic`` records
    whether the entries came from the long-time formulas or from an
    exact finite-t computation.
    """

    entries: np.ndarray
    labels: tuple
    t: int = 1
    antisymmetric: bool = False
    asymptotic: bool = False

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        m = len(self.labels)
        if e.shape != (m, m):
            raise ValueError(f"entries shape {e.shape} does not match labels {self.labels}")
        if self.t < 1:
            raise ValueError(f"step count must be >= 1, got {self.t}")
        scaled = e / float(self.t) ** 2
        scale = max(1.0, float(np.max(np.abs(scaled))) if e.size else 1.0)
        if self.antisymmetric:
            defect = np.max(np.abs(scaled + scaled.T))
            if not defect <= SYM_TOL * scale:       # NaN fails too
                raise ValueError(f"antisymmetry defect {defect:.3e} beyond tolerance")
        else:
            defect = np.max(np.abs(scaled - scaled.T))
            if not defect <= SYM_TOL * scale:
                raise ValueError(f"symmetry defect {defect:.3e} beyond tolerance")
            lo = float(np.min(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))))
            if not lo >= -PSD_TOL * scale:
                raise ValueError(f"matrix not positive semidefinite: min eig {lo:.3e}")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def per_t2(self) -> np.ndarray:
        return self.entries / float(self.t) ** 2

    def block(self, labels) -> "QFIMatrix":
        """Submatrix over a subset of the labels, order as given."""
        idx = [self.labels.index(l) for l in labels]
        return QFIMatrix(entries=self.entries[np.ix_(idx, idx)],
                         labels=tuple(labels), t=self.t,
                         antisymmetric=self.antisymmetric,
                         asymptotic=self.asymptotic)

    def identifiable_block(self) -> "QFIMatrix":
        """Restriction to (theta, alpha) when a beta row is present."""
        if "beta" in self.labels:
            return self.block(("theta", "alpha"))
        return self


# ---------------------------------------------------------------------------
# stationary projector
#
# Conjugation by u(k) acts on Pauli 4-vectors o_i = Tr(O sigma_i),
# sigma = (1, sx, sy, sz), as a rotation of the spatial part by 2w about
# the quasi-energy axis u(k) / sin w of :func:`walk.quasi_energy_axis`.
# Its unit-eigenvalue subspace carries everything that survives long
# times.


def a1_grid(p: CoinParams, k: np.ndarray) -> np.ndarray:
    """Stationary projectors over momenta, shape k + (4, 4).

    Closed form: identity on the trace component plus u u^T / sin^2 w on
    the spatial block; rank 2, trace 2, well defined at every momentum
    once sin theta != 0.
    """
    c, u = quasi_energy_axis(p.theta, p.alpha, p.beta, k)
    m = np.zeros(c.shape + (4, 4))
    m[..., 0, 0] = 1.0
    m[..., 1:, 1:] = (u[..., :, None] * u[..., None, :]
                      / (1.0 - c ** 2)[..., None, None])
    return m


def beta_null_check(p: CoinParams) -> float:
    """max_k || A1_k |O_beta) || on a 512-node uniform grid; zero in theory.

    The spatial direction u(k) is orthogonal to w_beta at every momentum,
    so this is a pure roundoff diagnostic.
    """
    nodes = uniform_k_grid(512)
    a1 = a1_grid(p, nodes)
    ob = np.concatenate(([0.0], generator_spatial(p)[2]))
    return float(np.max(np.linalg.norm(a1 @ ob, axis=-1)))


# ---------------------------------------------------------------------------
# the zone integrals


def _rho_bloch(phi: np.ndarray) -> np.ndarray:
    """Unnormalised Pauli 4-vector phi^dag sigma_i phi of spinors (..., 2)."""
    a, b = phi[..., 0], phi[..., 1]
    out = np.empty(phi.shape[:-1] + (4,))
    out[..., 0] = np.abs(a) ** 2 + np.abs(b) ** 2
    cross = a * np.conj(b)
    out[..., 1] = 2.0 * cross.real
    out[..., 2] = -2.0 * cross.imag
    out[..., 3] = np.abs(a) ** 2 - np.abs(b) ** 2
    return out


def _mean_over_sin2(num: np.ndarray, theta: float) -> np.ndarray:
    """Zone means of N(x) / (1 - cos^2 theta cos^2 x) from samples of N.

    ``num`` holds N at x_j = 2 pi j / n along axis 0, n even and more
    than twice the degree of N.  The mean sum_{even j} c_j rho^{|j|/2} / s
    is taken as

        [N(0) + N(pi)] / (2 s) - (2 / (1 + s)) sum_{even j} c_j sum_{i<|j|/2} rho^i,

    using rho^m = 1 - (1 - rho) sum_{i<m} rho^i and
    sum_{even j} c_j = [N(0) + N(pi)] / 2, so no two terms of size 1/s
    cancel as s -> 0.
    """
    n = num.shape[0]
    s = abs(np.sin(theta))
    rho = np.cos(theta) ** 2 / (1.0 + s) ** 2
    # c_j + c_-j for j = 2, 4, ... below the Nyquist index (N is real)
    c = np.fft.rfft(num, axis=0)[2:n // 2:2].real * (2.0 / n)
    partial = np.cumsum(rho ** np.arange(c.shape[0]))
    return ((num[0] + num[n // 2]) / (2.0 * s)
            - (2.0 / (1.0 + s)) * (partial @ c))


def _zone_means(p: CoinParams, init: WalkerState, params):
    """Zone means of N / sin^2 w for the selected parameters, per step squared.

    Returns the symmetric state-independent matrix (the N_uv means) and
    the vector of state-dependent scalars (the N_u means).
    """
    w = generator_spatial(p)[[PARAM_NAMES.index(l) for l in params]]
    m = len(params)
    iu = np.triu_indices(m)
    # N has degree <= 1 + n_sites, and the grid needs more than twice
    # that many nodes; it starts at x = k - alpha = 0
    n = k_grid_size(2 + init.n_sites)
    k = p.alpha + TWO_PI * np.arange(n) / n
    _, u = quasi_energy_axis(p.theta, p.alpha, p.beta, k)
    rho = _rho_bloch(spinors_at(init, k))
    a = u @ w.T
    num = np.concatenate(
        [a[:, iu[0]] * a[:, iu[1]] * rho[:, :1],
         a * np.einsum("ni,ni->n", u, rho[:, 1:])[:, None]], axis=1)
    vals = _mean_over_sin2(num, p.theta)
    first = np.zeros((m, m))
    first[iu] = vals[:iu[0].size]
    return first + first.T - np.diag(np.diag(first)), vals[iu[0].size:]


def qfim_theorem1(p: CoinParams, init: WalkerState, t: int,
                  params=("theta", "alpha")) -> QFIMatrix:
    """Asymptotic information matrix at step count t from the zone integrals.

    params may be ("theta", "alpha") or the full triple; the beta row of
    the full matrix comes out at machine zero because the stationary
    projector annihilates O_beta.  The integrals are exact (see the
    module docstring), so there is nothing to tune.
    """
    first, y = _zone_means(p, init, params)
    per_t2 = first - np.outer(y, y)
    return QFIMatrix(entries=per_t2 * float(t) ** 2, labels=tuple(params),
                     t=int(t), asymptotic=True)


def qfim_first_term(p: CoinParams, params=("theta", "alpha")) -> np.ndarray:
    """State-independent part of the asymptotic matrix, per step squared.

    Equals the full coefficient whenever the state-dependent integrals
    vanish; its diagonal is what the optimal-input closed forms quote.
    """
    # coin |0> at the origin has the k-spinor (1, 0): o0 = 1 at every node
    return _zone_means(p, initial_localized(), params)[0]


def uhlmann_analytic(p: CoinParams, init: WalkerState, t: int,
                     params=("theta", "alpha")) -> QFIMatrix:
    """Mixed-derivative curvature in the long-time limit: identically zero.

    Every bracket entering the asymptotic formulas is real (the
    projector is a real matrix and the generator components are purely
    imaginary), so no imaginary part survives.
    """
    m = len(params)
    return QFIMatrix(entries=np.zeros((m, m)), labels=tuple(params),
                     t=int(t), antisymmetric=True, asymptotic=True)


# ---------------------------------------------------------------------------
# closed forms for distinguished inputs


def _require_positive_sin(theta: float) -> float:
    s = np.sin(theta)
    if not s > 0.0:
        raise ValueError(f"closed form needs sin(theta) > 0, got theta={theta!r}")
    return float(s)


def qfim_max_diag(theta: float, t: int) -> tuple[float, float]:
    """Optimal-input diagonal (F_theta, F_alpha) = 4 t^2 (s/(1+s), 1-s).

    The theta optimum is reached by equatorial coin states orthogonal to
    the coin plane and the alpha optimum by the complementary family;
    cross terms vanish at the optima.  1 - s is taken as
    cos^2 th / (1+s), which does not cancel near theta = pi/2.
    """
    s = _require_positive_sin(theta)
    tt = float(t) ** 2
    c2 = float(np.cos(theta)) ** 2
    return 4.0 * tt * s / (1.0 + s), 4.0 * tt * c2 / (1.0 + s)


def qfim_localized(theta: float, phi: float, r, t: int) -> QFIMatrix:
    """Information matrix over (theta, phi) for a single-site input.

    ``phi`` is the phase difference alpha - beta and ``r`` the coin Bloch
    vector of the input.  With n = (sin th cos phi, sin th sin phi, cos th):

        F_tt = (4 t^2/(1+s)) [ s - (n x r)_z^2 / (1+s) ]
        F_pp = 4 t^2 (1-s) [ 1 - (n.r)^2 / (1+s) ]
        F_tp = -4 t^2 cos th (n.r) (n x r)_z / (1+s)^2

    The cross term is written in its everywhere-regular form; it equals
    the -4 t^2 (1-s) (n.r)(n x r)_z / (cos th (1+s)) variant away from
    theta = pi/2 since (1-s)/cos th = cos th/(1+s).  F_pp likewise takes
    1 - s as cos^2 th / (1+s), which does not cancel near theta = pi/2.
    """
    s = _require_positive_sin(theta)
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"coin Bloch vector must have shape (3,), got {r.shape}")
    if not np.linalg.norm(r) <= 1.0 + 1e-12:     # NaN fails too
        raise ValueError("coin Bloch vector length exceeds 1")
    ct = np.cos(theta)
    n = np.array([s * np.cos(phi), s * np.sin(phi), ct])
    ndotr = float(n @ r)
    ncross = float(n[0] * r[1] - n[1] * r[0])
    tt = float(t) ** 2
    f_tt = 4.0 * tt / (1.0 + s) * (s - ncross ** 2 / (1.0 + s))
    f_pp = 4.0 * tt * ct ** 2 / (1.0 + s) * (1.0 - ndotr ** 2 / (1.0 + s))
    f_tp = -4.0 * tt * ct * ndotr * ncross / (1.0 + s) ** 2
    return QFIMatrix(entries=np.array([[f_tt, f_tp], [f_tp, f_pp]]),
                     labels=("theta", "phi"), t=int(t), asymptotic=True)


def single_param_qfi(theta: float, r_y: float, t: int) -> float:
    """Theta information for a single-site input with coin component r_y.

    4 t^2 s [1 + s (1 - r_y^2)] / (1+s)^2: maximal on the equatorial
    circle r_y = 0 and minimal at the poles r_y = +-1, with ratio 1 + s.
    """
    s = _require_positive_sin(theta)
    if not abs(r_y) <= 1.0 + 1e-12:              # NaN fails too
        raise ValueError(f"|r_y| must not exceed 1, got {r_y!r}")
    return float(4.0 * float(t) ** 2 * s * (1.0 + s * (1.0 - r_y ** 2))
                 / (1.0 + s) ** 2)
