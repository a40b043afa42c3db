"""Coined discrete-time walk on the integer line.

A step applies a U(2) coin to the internal qubit and then shifts coin
component 0 to x+1 and component 1 to x-1.  States are stored densely on
the light cone: an (n, 2) complex amplitude array whose row i is the
spinor at site ``origin + i``.

Momentum-space picture: with spinor(k) = sum_x c_x e^{-ikx}, one step is
multiplication by u(k) = diag(e^{-ik}, e^{ik}) @ C, so evolution
factorises over k.  u(k) is in SU(2): u(k) = cos(om) - i w.sigma, and
:func:`quasi_energy_axis` is the one place that computes cos(om) and
w = sin(om) n.  The finite-t engine (:class:`SU2Powers`) applies
u(k)^t and the generator sums G_mu(t) = sum_{m=1..t} u^m O_mu u^-m
behind every parameter derivative to spinors in closed form, and the
asymptotic route in :mod:`qwfisher.qfim` reads the same axis for its
stationary projector.  The coin generators O_mu = C^dag d_mu C =
(i/2) w_mu.sigma come as the real Pauli vectors w_mu of
:func:`generator_spatial`.  :func:`evolve` runs on that engine: the
input goes to momentum space, takes u(k)^t and comes back with one
inverse FFT, with no loop over steps.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWalk
from .quadrature import TWO_PI, uniform_k_grid

NORM_TOL = 1e-12


def _wrap_angle(a: float) -> float:
    """Map an angle to [-pi, pi)."""
    a = math.remainder(float(a), TWO_PI)
    if a >= np.pi:          # remainder returns (-pi, pi], fold the endpoint
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class CoinParams:
    """Coin angles (theta, alpha, beta), canonicalised to [-pi, pi).

    sin(theta) = 0 is rejected: the walk then never mixes the coin
    components and every construction downstream (projector norms,
    Fisher blocks) degenerates.  Use :func:`coin_matrix` directly if you
    need the raw matrix at such a point.
    """

    theta: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("theta", "alpha", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, _wrap_angle(v))
        if abs(math.sin(self.theta)) < 1e-12:
            raise DegenerateWalk(
                f"sin(theta) = 0 at theta={self.theta!r}: coin does not mix "
                "the internal components")

    def replace(self, **kw) -> "CoinParams":
        d = {"theta": self.theta, "alpha": self.alpha, "beta": self.beta}
        d.update(kw)
        return CoinParams(**d)


PARAM_NAMES = ("theta", "alpha", "beta")


def coin_matrix(theta: float, alpha: float, beta: float) -> np.ndarray:
    """Raw coin matrix; no domain validation.

    [[ e^{i alpha} cos(theta),  e^{i beta} sin(theta)],
     [-e^{-i beta} sin(theta),  e^{-i alpha} cos(theta)]]
    """
    ct, st = np.cos(theta), np.sin(theta)
    ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
    return np.array([[ea * ct, eb * st],
                     [-st / eb, ct / ea]], dtype=complex)


def generator_spatial(p: CoinParams) -> np.ndarray:
    """Pauli vectors w_mu of the coin generators, rows (theta, alpha, beta).

    O_mu = C^dag dC/dmu = (i/2) w_mu.sigma, momentum independent since
    the shift phases commute out of u^dag d_mu u.  With phi = alpha - beta:
        w_theta = 2 (-sin phi, cos phi, 0)
        w_alpha = (cos phi sin 2th, sin phi sin 2th,  2 cos^2 th)
        w_beta  = (cos phi sin 2th, sin phi sin 2th, -2 sin^2 th)
    """
    phi = p.alpha - p.beta
    sp, cp = np.sin(phi), np.cos(phi)
    s2t = np.sin(2 * p.theta)
    return np.array([
        [-2.0 * sp, 2.0 * cp, 0.0],
        [cp * s2t, sp * s2t, 2.0 * np.cos(p.theta) ** 2],
        [cp * s2t, sp * s2t, -2.0 * np.sin(p.theta) ** 2],
    ])


def quasi_energy_axis(theta, alpha, beta, k):
    """Quasi-energy axis of the one-step unitary u(k) = diag(e^{-ik}, e^{ik}) C.

    u(k) = cos(om) - i w.sigma with

        cos(om) = cos(k - alpha) cos(theta),
        w = (sin(k - beta) sin(theta), -cos(k - beta) sin(theta),
             sin(k - alpha) cos(theta)),

    |w| = sin(om) >= |sin(theta)|.  Raw angles with no domain
    validation; theta and alpha broadcast against k, and beta must fit
    the shape they give together.  Returns (cos(om), w), w with a
    trailing axis of 3.
    """
    k = np.asarray(k, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    cos_omega = np.cos(k - alpha) * ct
    w = np.empty(cos_omega.shape + (3,))
    w[..., 0] = np.sin(k - beta) * st
    w[..., 1] = -np.cos(k - beta) * st
    w[..., 2] = np.sin(k - alpha) * ct
    return cos_omega, w


# ---------------------------------------------------------------------------
# position-space states


@dataclass(frozen=True)
class WalkerState:
    """Dense amplitude window on the line.

    amps[i, c] is the amplitude of coin state c at site origin + i.  The
    norm must be 1 within 1e-12; construction enforces it.
    """

    origin: int
    amps: np.ndarray
    steps_elapsed: int = 0

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=complex)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"amps must have shape (n, 2), got {a.shape}")
        object.__setattr__(self, "amps", a)
        nrm = np.linalg.norm(a)
        if not abs(nrm - 1.0) <= NORM_TOL:          # NaN fails too
            raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_TOL}")

    @property
    def n_sites(self) -> int:
        return self.amps.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return self.origin + np.arange(self.n_sites)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def to_json_dict(self) -> dict:
        """JSON layout: origin, steps_elapsed, amps as [re, im] pairs.

        Pairs run site-major with the coin index inner, i.e.
        [site0 coin0, site0 coin1, site1 coin0, ...].
        """
        flat = self.amps.reshape(-1)
        return {
            "origin": int(self.origin),
            "steps_elapsed": int(self.steps_elapsed),
            "amps": [[float(z.real), float(z.imag)] for z in flat],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "WalkerState":
        pairs = np.asarray(d["amps"], dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] % 2:
            raise ValueError("amps must be an even-length list of [re, im] pairs")
        flat = pairs[:, 0] + 1j * pairs[:, 1]
        return WalkerState(origin=int(d["origin"]),
                           amps=flat.reshape(-1, 2),
                           steps_elapsed=int(d["steps_elapsed"]))


# ---------------------------------------------------------------------------
# initial states


@dataclass(frozen=True)
class CoinBlochState:
    """Internal qubit state given by a Bloch vector, ||r|| <= 1."""

    r: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (3,):
            raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
        if not np.linalg.norm(r) <= 1.0 + 1e-12:     # NaN fails too
            raise ValueError(f"Bloch vector length {np.linalg.norm(r)} exceeds 1")
        object.__setattr__(self, "r", r)

    @property
    def purity_defect(self) -> float:
        return abs(1.0 - float(np.linalg.norm(self.r)))

    def spinor(self) -> np.ndarray:
        """Spinor of a pure state (up to global phase); rejects mixed input."""
        if self.purity_defect > 1e-10:
            raise ValueError(
                f"Bloch vector has length {np.linalg.norm(self.r)}; only pure "
                "states have a spinor")
        x, y, z = self.r / np.linalg.norm(self.r)
        th = math.acos(np.clip(z, -1.0, 1.0))
        ph = math.atan2(y, x)
        return np.array([math.cos(th / 2.0),
                         np.exp(1j * ph) * math.sin(th / 2.0)], dtype=complex)


def initial_localized(x0: int = 0, spinor=None, bloch: CoinBlochState | None = None
                      ) -> WalkerState:
    """Walker at a single site with the given internal state.

    Exactly one of ``spinor`` (complex 2-vector, normalised) or ``bloch``
    may be supplied; the default internal state is coin |0>.
    """
    if spinor is not None and bloch is not None:
        raise ValueError("give either spinor or bloch, not both")
    if bloch is not None:
        chi = bloch.spinor()
    elif spinor is not None:
        chi = np.asarray(spinor, dtype=complex)
        if chi.shape != (2,):
            raise ValueError(f"spinor must have shape (2,), got {chi.shape}")
        nrm = np.linalg.norm(chi)
        if not abs(nrm - 1.0) <= NORM_TOL:          # NaN fails too
            raise ValueError(f"spinor norm {nrm!r} deviates from 1")
    else:
        chi = np.array([1.0, 0.0], dtype=complex)
    return WalkerState(origin=int(x0), amps=chi[None, :].copy())


def initial_gamma(gamma: float) -> WalkerState:
    """Walker at the origin with spinor (|0> + e^{i gamma} |1>)/sqrt(2).

    Coin Bloch vector (cos gamma, sin gamma, 0): the equatorial family
    used throughout the localized-input closed forms.
    """
    chi = np.array([1.0, np.exp(1j * float(gamma))]) / np.sqrt(2.0)
    return WalkerState(origin=0, amps=chi[None, :])


def initial_entangled(x1: int = 0, x2: int = 1) -> WalkerState:
    """Position-coin entangled input (|x1, 0> + |x2, 1>)/sqrt(2).

    Odd separations |x1 - x2| keep the k-spinor norm constant over the
    zone; even separations are accepted with a warning since the
    asymptotic information then picks up a k-dependent weight.
    """
    x1, x2 = int(x1), int(x2)
    if x1 == x2:
        raise ValueError("entangled input needs two distinct sites")
    if (x1 - x2) % 2 == 0:
        warnings.warn(
            f"separation {x1 - x2} is even: the k-spinor norm varies over "
            "the zone and the asymptotic formulas apply in their weighted form",
            stacklevel=2)
    lo, hi = min(x1, x2), max(x1, x2)
    amps = np.zeros((hi - lo + 1, 2), dtype=complex)
    amps[x1 - lo, 0] = 1.0 / np.sqrt(2.0)
    amps[x2 - lo, 1] = 1.0 / np.sqrt(2.0)
    return WalkerState(origin=lo, amps=amps)


# ---------------------------------------------------------------------------
# momentum-space picture


def spinors_at(s: WalkerState, k_nodes: np.ndarray) -> np.ndarray:
    """Evaluate spinor(k) = sum_x c_x e^{-ikx} at arbitrary momenta, (n, 2)."""
    k = np.asarray(k_nodes, dtype=float)
    phases = np.exp(-1j * np.outer(k, s.sites))
    return phases @ s.amps


def k_grid_size(width: int) -> int:
    """Uniform-grid node count for a window of ``width`` sites.

    Products of two such spinors are trigonometric polynomials of degree
    up to 2 * width; the smallest power of two above that integrates
    them exactly.
    """
    n = 1
    while n <= 2 * width:
        n *= 2
    return n


def window_from_uniform(spinors: np.ndarray, origin: int,
                        width: int) -> np.ndarray:
    """Site amplitudes origin .. origin + width - 1 from uniform-grid spinors.

    On the nodes k_j = -pi + 2 pi j / n the zone integral is

        c_x = (1/n) sum_j spinor(k_j) e^{i k_j x}
            = e^{-i pi x} ifft(spinor)[x mod n],

    one FFT along the node axis (axis -2) for any leading batch shape.
    """
    n = spinors.shape[-2]
    x = origin + np.arange(width)
    sign = np.where(x % 2, -1.0, 1.0)[:, None]
    return np.fft.ifft(spinors, axis=-2)[..., x % n, :] * sign


@dataclass(frozen=True)
class SU2Powers:
    """Closed forms in t for a stack of SU(2) matrices u(k).

    Write u = cos(om) - i sin(om) n.sigma.  Then

        u^t = [sin(t om) / sin(om)] u - [sin((t-1) om) / sin(om)] 1,

    and conjugation by u turns the Pauli vector of a traceless matrix by
    2 om about n, so for O = v.sigma the generator sum
    G(t) = sum_{m=1..t} u^m O u^{-m} is g(t).sigma with

        g(t) = t (n.v) n + [sin(t om) cos((t+1) om) / sin(om)] v_perp
                         + [sin(t om) sin((t+1) om) / sin(om)] n x v.

    Both cost O(1) per matrix whatever t is, and both act on spinors
    straight from these coefficients, with no 2 x 2 matrix formed
    (:meth:`apply_power`, :meth:`generator_sums`).  For a walk coin
    sin(om) >= |sin theta| at every momentum.  At u = +-1 (w = 0) |w| is
    raised to the smallest normal float, so the ratios take their limits
    sin(m om) / sin(om) -> m there and G(t) = t O.

    The angle is kept folded into [0, pi/2]: u = sign * (cos(om) - i
    w.sigma) with cos(om) >= 0, w = sin(om) n, om = atan2(|w|, cos(om))
    and sign = +-1.  Near om = pi an unfolded angle carries an absolute
    rounding error that is large against sin(om); the folded one stays
    accurate to relative rounding.  Conjugation does not see the sign,
    and u^t picks up sign^t.
    """

    sign: np.ndarray        # (...,), +-1, the sign of cos(om) of u
    cos_omega: np.ndarray   # (...,), cos(om) of sign * u, >= 0
    w: np.ndarray           # (..., 3), sin(om) n of sign * u
    sin_omega: np.ndarray   # (...,), |w|, at least the smallest normal
    omega: np.ndarray       # (...,), folded angle om in [0, pi/2]

    @classmethod
    def of(cls, cos_omega, w) -> "SU2Powers":
        """Fold u = cos(om) - i w.sigma, as :func:`quasi_energy_axis` gives it."""
        c = np.asarray(cos_omega, dtype=float)
        sign = np.where(c < 0.0, -1.0, 1.0)
        w = w * sign[..., None]
        s = np.maximum(np.sqrt(np.einsum("...i,...i->...", w, w)),
                       np.finfo(float).tiny)
        c = np.abs(c)
        # atan2 keeps small angles accurate; arccos of cos(om) would
        # lose half the digits there
        return cls(sign=sign, cos_omega=c, w=w, sin_omega=s,
                   omega=np.arctan2(s, c))

    def apply_power(self, phi: np.ndarray, t: int) -> np.ndarray:
        """u^t phi for spinors phi (..., 2) broadcasting against the stack."""
        t = int(t)
        # u^t = sign^t (sign u)^t with sign u = cos(om) - i w.sigma
        sign_t = self.sign if t % 2 else 1.0
        a = sign_t * np.sin(t * self.omega) / self.sin_omega
        b = sign_t * np.sin((t - 1) * self.omega) / self.sin_omega
        c, w = self.cos_omega, self.w
        p0, p1 = phi[..., 0], phi[..., 1]
        out = np.empty(np.broadcast_shapes(a.shape, p0.shape) + (2,),
                       dtype=complex)
        out[..., 0] = a * ((c - 1j * w[..., 2]) * p0
                           - (w[..., 1] + 1j * w[..., 0]) * p1) - b * p0
        out[..., 1] = a * ((w[..., 1] - 1j * w[..., 0]) * p0
                           + (c + 1j * w[..., 2]) * p1) - b * p1
        return out

    def generator_sums(self, v: np.ndarray, t: int,
                       phi: np.ndarray) -> np.ndarray:
        """G(t) phi for generators O = v.sigma given by Pauli vectors v (m, 3).

        phi (..., 2) broadcasts against the stack like in
        :meth:`apply_power`; the result has shape (m, ..., 2).  The
        components of g(t) act on phi directly, G phi =
        (g_z phi_0 + (g_x - i g_y) phi_1, (g_x + i g_y) phi_0 - g_z phi_1),
        so no 2 x 2 matrix is formed.
        """
        t = int(t)
        v = np.asarray(v)
        v = v.reshape(v.shape[:1] + (1,) * (self.w.ndim - 1) + (3,))
        vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
        n_hat = self.w / self.sin_omega[..., None]
        nx, ny, nz = n_hat[..., 0], n_hat[..., 1], n_hat[..., 2]
        st = np.sin(t * self.omega) / self.sin_omega
        c_perp = st * np.cos((t + 1) * self.omega)
        c_cross = st * np.sin((t + 1) * self.omega)
        along = (t - c_perp) * (nx * vx + ny * vy + nz * vz)
        gx = c_perp * vx + along * nx + c_cross * (ny * vz - nz * vy)
        gy = c_perp * vy + along * ny + c_cross * (nz * vx - nx * vz)
        gz = c_perp * vz + along * nz + c_cross * (nx * vy - ny * vx)
        p0, p1 = phi[..., 0], phi[..., 1]
        out = np.empty(np.broadcast_shapes(gz.shape, p0.shape) + (2,),
                       dtype=complex)
        out[..., 0] = gz * p0 + (gx - 1j * gy) * p1
        out[..., 1] = (gx + 1j * gy) * p0 - gz * p1
        return out


def evolve(s: WalkerState, p: CoinParams, t: int) -> WalkerState:
    """t steps of the walk, through the momentum picture.

    u(k)^t comes in closed form from :class:`SU2Powers` and one inverse
    FFT returns to sites, so the cost is O(n log n) in the node count
    n = :func:`k_grid_size` of the final window (width + 2t sites), with
    no loop over t.
    """
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    t = int(t)
    width = s.n_sites + 2 * t
    nodes = uniform_k_grid(k_grid_size(width))
    axis = quasi_energy_axis(p.theta, p.alpha, p.beta, nodes)
    phi = SU2Powers.of(*axis).apply_power(spinors_at(s, nodes), t)
    origin = s.origin - t
    amps = window_from_uniform(phi, origin, width)
    if t:
        # the last shift leaves coin 0 off the two leftmost sites and
        # coin 1 off the two rightmost: exact zeros, not FFT rounding
        amps[:2, 0] = 0.0
        amps[-2:, 1] = 0.0
        # a step moves every site by +-1 and grows the window by one site
        # at each end, so amplitude stays on rows of its input row's
        # parity: an input on one parity leaves the other exactly empty
        rows = np.flatnonzero(np.any(s.amps != 0.0, axis=1))
        if np.all(rows % 2 == rows[0] % 2):
            amps[1 - rows[0] % 2::2] = 0.0
    return WalkerState(origin=origin, amps=amps,
                       steps_elapsed=s.steps_elapsed + t)


# old name of the engine path; perfbench routes-ladder is its only caller
evolve_k = evolve
