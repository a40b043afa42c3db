"""Coined discrete-time walk on the integer line, and its one engine.

A step applies a U(2) coin to the internal qubit and then shifts coin
component 0 to x+1 and component 1 to x-1.  States are stored densely on
the light cone: an (n, 2) complex amplitude array whose row i is the
spinor at site ``origin + i``.

Momentum-space picture: with spinor(k) = sum_x c_x e^{-ikx}, one step is
multiplication by u(k) = diag(e^{-ik}, e^{ik}) @ C = cos(om) - i w.sigma
in SU(2), and :func:`quasi_energy_axis` is the one place that computes
cos(om) and w = sin(om) n; the asymptotic route in :mod:`qwfisher.qfim`
reads it too.  Every rule of the finite-t engine lives here, and the
oracle and the estimator ask for evolved spinors instead of re-deriving
them: the uniform grid and its size (:func:`uniform_k_grid`,
:func:`k_grid_size`), the site window t steps from an input with its
inverse FFT (:class:`SiteWindow`), and the SU(2) closed forms for u^t
and the generator sums G_mu(t) = sum_{m=1..t} u^m O_mu u^-m
(:class:`SU2Powers`, run on an input by :func:`evolve_spinors`; u^t and
its theta derivatives for the estimator's family by :func:`theta_jet`).
The coin generators O_mu = C^dag d_mu C = (i/2) w_mu.sigma come as the
real Pauli vectors w_mu of :func:`generator_spatial`.  :func:`evolve`
takes u(k)^t and one inverse FFT, with no loop over steps.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWalk

NORM_TOL = 1e-12
TWO_PI = 2.0 * np.pi


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
    Fisher blocks) degenerates.
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
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    chi = np.array([1.0, np.exp(1j * gamma)]) / np.sqrt(2.0)
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


def rho_bloch(phi: np.ndarray) -> np.ndarray:
    """Unnormalised Pauli 4-vector phi^dag sigma_i phi of spinors (..., 2)."""
    a, b = phi[..., 0], phi[..., 1]
    out = np.empty(phi.shape[:-1] + (4,))
    out[..., 0] = np.abs(a) ** 2 + np.abs(b) ** 2
    cross = a * np.conj(b)
    out[..., 1] = 2.0 * cross.real
    out[..., 2] = -2.0 * cross.imag
    out[..., 3] = np.abs(a) ** 2 - np.abs(b) ** 2
    return out


def uniform_k_grid(n: int) -> np.ndarray:
    """Uniform momentum nodes k_j = -pi + 2 pi j / n, j = 0 .. n - 1.

    The weights are all 2 pi / n, so a zone mean is the node average.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return -np.pi + TWO_PI * np.arange(n) / n


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


@dataclass(frozen=True)
class SiteWindow:
    """The site window t steps from an input and the nodes resolving it.

    :meth:`after` is the one rule: a step moves amplitude one site either
    way, so the input's window grows by t sites at each end.
    """

    origin: int
    width: int
    nodes: np.ndarray

    @classmethod
    def after(cls, init: WalkerState, t: int) -> "SiteWindow":
        t = int(t)
        width = init.n_sites + 2 * t
        return cls(origin=init.origin - t, width=width,
                   nodes=uniform_k_grid(k_grid_size(width)))

    @property
    def sites(self) -> np.ndarray:
        return self.origin + np.arange(self.width)

    def to_sites(self, spinors: np.ndarray) -> np.ndarray:
        """Site amplitudes on the window from spinors on its nodes.

        On the nodes k_j = -pi + 2 pi j / n the zone integral is

            c_x = (1/n) sum_j spinor(k_j) e^{i k_j x}
                = e^{-i pi x} ifft(spinor)[x mod n],

        one FFT along the node axis (axis -2) for any leading batch shape.
        """
        x = self.sites
        sign = np.where(x % 2, -1.0, 1.0)[:, None]
        return np.fft.ifft(spinors, axis=-2)[..., x % self.nodes.size, :] \
            * sign


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


def parity_empty_rows(init: WalkerState) -> slice:
    """Rows of the window :meth:`SiteWindow.after` ``init`` that the walk
    leaves exactly empty, at any t.

    A step moves every site by +-1 and grows the window by one site at
    each end, so amplitude stays on rows of its input row's parity: an
    input on one parity leaves the other exactly empty.
    """
    rows = np.flatnonzero(np.any(init.amps != 0.0, axis=1))
    if np.all(rows % 2 == rows[0] % 2):
        return slice(1 - rows[0] % 2, None, 2)
    return slice(0)


def evolve_spinors(init: WalkerState, p: CoinParams, t: int):
    """(window, powers, phi): :meth:`SiteWindow.after`, the
    :class:`SU2Powers` of u(k) on its nodes and the evolved k-spinors
    phi = u(k)^t spinor(k), (n_nodes, 2)."""
    window = SiteWindow.after(init, t)
    nodes = window.nodes
    powers = SU2Powers.of(*quasi_energy_axis(p.theta, p.alpha, p.beta, nodes))
    return window, powers, powers.apply_power(spinors_at(init, nodes), t)


def _pauli_step(cos_omega, w, phi) -> np.ndarray:
    """(cos(om) - i w.sigma) phi for spinors phi (..., 2), no 2 x 2 matrix."""
    p0, p1 = phi[..., 0], phi[..., 1]
    return np.stack([(cos_omega - 1j * w[..., 2]) * p0
                     - (w[..., 1] + 1j * w[..., 0]) * p1,
                     (w[..., 1] - 1j * w[..., 0]) * p0
                     + (cos_omega + 1j * w[..., 2]) * p1], axis=-1)


def theta_jet(theta, nodes: np.ndarray, chi: np.ndarray, t: int,
              order: int = 0) -> np.ndarray:
    """d^j/dtheta^j [u(k)^t chi] for j = 0 .. order, u(k) = S(k) R(theta).

    S(k) R(theta) is the walk's u(k) at alpha = beta = 0; ``theta``
    broadcasts against ``nodes`` and that against the spinors ``chi``
    (..., n_nodes, 2), and the derivatives stack on a new leading axis.
    Order 0 is :meth:`SU2Powers.apply_power`.  Orders 1 and 2
    differentiate u^t = a_t u - a_{t-1}, a_n = sin(n om) / sin(om), on
    the folded angle and clamped |w| of :class:`SU2Powers`: d_theta u is
    u at theta + pi/2, d2_theta u = -u, d_om a_n = (n cos(n om) - cos(om)
    a_n) / sin(om), d2_om a_n = (1 - n^2) a_n - 2 cos(om) d_om a_n /
    sin(om), d_theta om = -d_theta cos(om) / sin(om) and d2_theta om =
    cos(om) (1 - (d_theta om)^2) / sin(om).  As theta -> 0 their
    relative rounding grows like eps / sin(theta)^order.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    t = int(t)
    powers = SU2Powers.of(*quasi_energy_axis(theta, 0.0, 0.0, nodes))
    if order == 0:
        return powers.apply_power(chi, t)[None]
    sign, c, s, om = (powers.sign, powers.cos_omega, powers.sin_omega,
                      powers.omega)
    dc, dw = quasi_energy_axis(theta + 0.5 * np.pi, 0.0, 0.0, nodes)
    dc, dw = sign * dc, sign[..., None] * dw     # in the folded frame
    om_1 = -dc / s
    om_2 = c * (1.0 - om_1 ** 2) / s
    sign_t = sign if t % 2 else 1.0
    coef = []
    for n in (t, t - 1):
        a = np.sin(n * om) / s
        a_om = (n * np.cos(n * om) - c * a) / s
        a_omom = (1.0 - n * n) * a - 2.0 * c * a_om / s
        coef.append((sign_t * np.array(
            [a, a_om * om_1, a_omom * om_1 ** 2 + a_om * om_2]))[..., None])
    (a, a1, a2), (b, b1, b2) = coef
    u_chi = _pauli_step(c, powers.w, chi)
    du_chi = _pauli_step(dc, dw, chi)
    jet = [a * u_chi - b * chi, a1 * u_chi + a * du_chi - b1 * chi,
           (a2 - a) * u_chi + 2.0 * a1 * du_chi - b2 * chi]
    return np.stack(jet[:order + 1])


def evolve(s: WalkerState, p: CoinParams, t: int) -> WalkerState:
    """t steps of the walk, through the momentum picture.

    u(k)^t comes in closed form from :class:`SU2Powers` and one inverse
    FFT returns to sites, so the cost is O(n log n) in the node count
    n of :meth:`SiteWindow.after` (width + 2t sites), with no loop over
    t.
    """
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    t = int(t)
    window, _, phi = evolve_spinors(s, p, t)
    amps = window.to_sites(phi)
    if t:
        # the last shift leaves coin 0 off the two leftmost sites and
        # coin 1 off the two rightmost: exact zeros, not FFT rounding
        amps[:2, 0] = 0.0
        amps[-2:, 1] = 0.0
        amps[parity_empty_rows(s)] = 0.0
    return WalkerState(origin=window.origin, amps=amps,
                       steps_elapsed=s.steps_elapsed + t)


# old name of the engine path; perfbench routes-ladder is its only caller
evolve_k = evolve
