"""Coined discrete-time walk on the integer line, and its one engine.

A step applies a U(2) coin to the internal qubit and then shifts coin
component 0 to x+1 and component 1 to x-1.  States are stored densely on
the light cone: an (n, 2) complex amplitude array whose row i is the
spinor at site ``origin + i``.

Momentum-space picture: with spinor(k) = sum_x c_x e^{-ikx}, one step is
multiplication by u(k) = diag(e^{-ik}, e^{ik}) @ C in SU(2), which every
route reads in the coin's reduced frame,

    u(k; theta, alpha, beta) = D(-a2) u(k - alpha; theta, 0, 0) D(a2),

D(a) = diag(e^{ia}, e^{-ia}), a2 = (alpha - beta)/2: the axis
(:func:`reduced_axis`) and the generators' Pauli vectors
(:func:`generator_spatial`) depend on theta alone, and the input enters
as :func:`reduced_spinors`.  The package's two number rules live here,
:func:`as_int` for every integer it takes and :func:`as_real` for every
real, and so does every rule of the finite-t engine: the step count
(:func:`step_count`), the uniform grid and its size (:func:`uniform_k_grid`,
:func:`k_grid_size`), the input's phases e^{-ikx} (:func:`plane_waves`),
the coin phase D(a) (:func:`times_d`), the site window t steps from an
input with its light cone and inverse FFT (:class:`SiteWindow`), and the
one kernel, :class:`ThetaFamily`: u^t, its theta derivatives and the
generator sums G_mu(t) = sum_{m=1..t} u^m O_mu u^-m in closed form.
:func:`evolve` takes u(k)^t and one inverse FFT, with no loop over steps.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateWalk

NORM_TOL = 1e-12
# the coin mixes only where |sin theta| >= this; float pi lands at
# sin ~ 1.2e-16, not 0, so the gate is a floor, not an equality
MIN_SIN_THETA = 1e-12
TWO_PI = 2.0 * np.pi
# Largest step count the package takes.  Every route reads t as a float (the
# t^2 growth, the sweep's t grid), and above 2**53 a float no longer holds
# each integer: t^2 overflows near 1.3e154 and the grid's int64 near 9.2e18.
MAX_STEPS = 2 ** 53


def as_int(n, name: str, minimum: int | None = None) -> int:
    """The integer rule: an int or numpy integer (not a bool, nor a float
    even when whole) >= ``minimum``, as an int; else ValueError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if minimum is not None and n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return int(n)


def as_real(x, name: str) -> float:
    """The real-number rule: a finite int, float or numpy real (not a
    bool), as a Python float; else ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer,
                                                 np.floating)):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        x = float(x)
    except OverflowError:           # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def step_count(t, minimum: int = 0, name: str = "step count") -> int:
    """t by :func:`as_int` with ``minimum``, at most MAX_STEPS."""
    t = as_int(t, name, minimum)
    if t > MAX_STEPS:
        raise ValueError(f"{name} {t} is beyond MAX_STEPS = 2**53, above "
                         "which a step count is not exact as a float")
    return t


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
            a = math.remainder(as_real(getattr(self, name), name), TWO_PI)
            # remainder returns (-pi, pi], fold the endpoint
            object.__setattr__(self, name, a - TWO_PI if a >= np.pi else a)
        if abs(math.sin(self.theta)) < MIN_SIN_THETA:
            raise DegenerateWalk(
                f"sin(theta) = 0 at theta={self.theta!r}: coin does not mix "
                "the internal components")


PARAM_NAMES = ("theta", "alpha", "beta")


def generator_spatial(theta: float, params=PARAM_NAMES) -> np.ndarray:
    """Pauli vectors w_mu of O_mu = C^dag dC/dmu = (i/2) w_mu.sigma in the
    reduced frame (the lab frame's turned about z by beta - alpha), a row
    per name of ``params`` in its order: w_theta = (0, 2, 0), w_alpha =
    (sin 2th, 0, 2 cos^2 th), w_beta = (sin 2th, 0, -2 sin^2 th).  The one
    rule from names to rows, which refuses an empty or repeated list and
    an unknown name before any row is formed."""
    names = tuple(params)
    if not names or any(n not in PARAM_NAMES or names.count(n) > 1
                        for n in names):
        raise ValueError(f"params must be distinct names from {PARAM_NAMES}, "
                         f"at least one, got {names}")
    s2t = np.sin(2 * theta)
    rows = {"theta": (0.0, 2.0, 0.0),
            "alpha": (s2t, 0.0, 2.0 * np.cos(theta) ** 2),
            "beta": (s2t, 0.0, -2.0 * np.sin(theta) ** 2)}
    return np.array([rows[n] for n in names])


def reduced_axis(ct, st, cos_x, sin_x):
    """The reduced frame's one step u = cos(om) - i w.sigma at x = k - alpha
    from cos theta, sin theta, cos x and sin x, which broadcast: (cos(om),
    (w_x, w_y, w_z)) with cos(om) = cos x cos theta and |w| = sin(om),
        w = (sin x sin theta, -cos x sin theta, sin x cos theta)."""
    return ct * cos_x, (st * sin_x, -st * cos_x, ct * sin_x)


# ---------------------------------------------------------------------------
# position-space states


@dataclass(frozen=True)
class WalkerState:
    """Dense amplitude window on the line.

    amps[i, c] is the amplitude of coin state c at site origin + i.  The
    package's one normalisation rule, enforced here: |norm - 1| <= NORM_TOL.
    """

    origin: int
    amps: np.ndarray
    steps_elapsed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "origin", as_int(self.origin, "origin"))
        object.__setattr__(self, "steps_elapsed", step_count(
            self.steps_elapsed, name="steps_elapsed"))
        a = np.ascontiguousarray(self.amps, dtype=complex)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"amps must have shape (n, 2), got {a.shape}")
        object.__setattr__(self, "amps", a)
        nrm = np.linalg.norm(a)
        if not abs(nrm - 1.0) <= NORM_TOL:          # NaN fails too
            raise ValueError(f"state norm {float(nrm)} deviates from 1 beyond {NORM_TOL}")

    @property
    def n_sites(self) -> int:
        return self.amps.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return self.origin + np.arange(self.n_sites)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    @cached_property
    def support(self) -> np.ndarray:
        """Rows of ``amps`` with a nonzero amplitude, ascending."""
        return np.flatnonzero(np.any(self.amps != 0.0, axis=1))

    def to_json_dict(self) -> dict:
        """JSON layout: origin, steps_elapsed, amps as [re, im] pairs.

        Pairs run site-major with the coin index inner, i.e.
        [site0 coin0, site0 coin1, site1 coin0, ...].
        """
        flat = self.amps.reshape(-1)
        return {
            "origin": int(self.origin),
            "steps_elapsed": self.steps_elapsed,
            "amps": [[float(z.real), float(z.imag)] for z in flat],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "WalkerState":
        pairs = np.asarray(d["amps"], dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] % 2:
            raise ValueError("amps must be an even-length list of [re, im] pairs")
        flat = pairs[:, 0] + 1j * pairs[:, 1]
        return WalkerState(origin=d["origin"], amps=flat.reshape(-1, 2),
                           steps_elapsed=d["steps_elapsed"])


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

    Exactly one of ``spinor`` (complex 2-vector, its norm judged by
    :class:`WalkerState`) or ``bloch`` may be supplied; default coin |0>.
    """
    if spinor is not None and bloch is not None:
        raise ValueError("give either spinor or bloch, not both")
    if bloch is not None:
        chi = bloch.spinor()
    elif spinor is not None:
        chi = np.asarray(spinor, dtype=complex)
        if chi.shape != (2,):
            raise ValueError(f"spinor must have shape (2,), got {chi.shape}")
    else:
        chi = np.array([1.0, 0.0], dtype=complex)
    return WalkerState(origin=as_int(x0, "x0"), amps=chi[None, :].copy())


def initial_gamma(gamma: float) -> WalkerState:
    """Walker at the origin with spinor (|0> + e^{i gamma} |1>)/sqrt(2).

    Coin Bloch vector (cos gamma, sin gamma, 0): the equatorial family
    used throughout the localized-input closed forms.
    """
    gamma = as_real(gamma, "gamma")
    chi = np.array([1.0, np.exp(1j * gamma)]) / np.sqrt(2.0)
    return WalkerState(origin=0, amps=chi[None, :])


def initial_entangled(x1: int = 0, x2: int = 1) -> WalkerState:
    """Position-coin entangled input (|x1, 0> + |x2, 1>)/sqrt(2).

    Odd separations |x1 - x2| keep the k-spinor norm constant over the
    zone; even separations are accepted with a warning since the
    asymptotic information then picks up a k-dependent weight.
    """
    x1, x2 = as_int(x1, "x1"), as_int(x2, "x2")
    if x1 == x2:
        raise ValueError("entangled input needs two distinct sites")
    if (x1 - x2) % 2 == 0:
        warnings.warn(
            f"separation {abs(x1 - x2)} is even: the k-spinor norm varies over "
            "the zone and the asymptotic formulas apply in their weighted form",
            stacklevel=2)
    lo, hi = min(x1, x2), max(x1, x2)
    amps = np.zeros((hi - lo + 1, 2), dtype=complex)
    amps[x1 - lo, 0] = 1.0 / np.sqrt(2.0)
    amps[x2 - lo, 1] = 1.0 / np.sqrt(2.0)
    return WalkerState(origin=lo, amps=amps)


# ---------------------------------------------------------------------------
# momentum-space picture


def plane_waves(k, x) -> np.ndarray:
    """e^{-ikx} on every pair of momenta k and sites x, shaped k.shape +
    x.shape: the one statement of the input transform's phases."""
    return np.exp(-1j * np.multiply.outer(k, x))


def spinors_at(s: WalkerState, k_nodes: np.ndarray) -> np.ndarray:
    """spinor(k) = sum_x c_x e^{-ikx} at momenta k (n,), (n, 2), summed
    over the nonzero rows (:attr:`WalkerState.support`) alone, O(n) per
    row whatever the span."""
    rows = s.support
    return plane_waves(k_nodes, s.origin + rows) @ s.amps[rows]


def uniform_k_grid(n: int) -> np.ndarray:
    """Uniform momentum nodes k_j = -pi + 2 pi j / n, j = 0 .. n - 1.

    The weights are all 2 pi / n, so a zone mean is the node average.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return -np.pi + TWO_PI * np.arange(n) / n


@lru_cache(maxsize=1024)
def k_grid_size(n_min: int) -> int:
    """The smallest even 5-smooth n = 2^a 3^b 5^c >= ``n_min`` (a >= 1),
    or 1 for n_min <= 1: a uniform-grid node count at one of the FFT's
    fast sizes, at most the power of two >= n_min.

    Each caller states its exactness condition.  A window of w sites
    needs n >= w: the residues x mod n are then distinct, the inverse
    DFT returns each c_x and the node mean of conj(a(k)) b(k) is the
    site sum of conj(a_x) b_x (every lag |y - x| < w <= n).  The
    ``rfft`` coefficients of a trigonometric polynomial of degree d
    need n > 2d, and the zone means' node weights an even n.  Each odd
    part m = 3^b 5^c below n_min takes the least power of two that
    lifts it to n_min, in integer arithmetic; a run asks for the same
    few sizes over and over, so the answers are kept.
    """
    n_min = as_int(n_min, "n_min")
    if n_min <= 1:
        return 1
    sizes = []
    five = 1
    while five < n_min:
        m = five
        while m < n_min:
            sizes.append(m << (-(-n_min // m) - 1).bit_length())
            m *= 3
        five *= 5
    return min(sizes)


@dataclass(frozen=True)
class SiteWindow:
    """The site window t steps from an input and the nodes resolving it.

    :meth:`after` is the one rule: it keeps t, read by :func:`step_count`,
    for every engine run on the window; a step moves amplitude one site
    either way, so the input's window grows by t sites at each end, and
    its nodes are the :func:`k_grid_size` of the window width (the
    smallest even 5-smooth count >= width), where the inverse DFT and
    node-mean inner products are exact.  It keeps its input for the one
    light-cone rule, :attr:`_unreachable`.
    """

    origin: int
    width: int
    nodes: np.ndarray
    t: int
    _source: WalkerState = field(repr=False)

    @classmethod
    def after(cls, init: WalkerState, t: int) -> "SiteWindow":
        t = step_count(t)
        width = init.n_sites + 2 * t
        return cls(origin=init.origin - t, width=width, t=t, _source=init,
                   nodes=uniform_k_grid(k_grid_size(width)))

    @property
    def sites(self) -> np.ndarray:
        return self.origin + np.arange(self.width)

    @cached_property
    def _unreachable(self) -> tuple:
        """(rows, coins) of the cells the walk cannot reach from the input:
        its zero cells at t = 0.  After t >= 1 steps a nonzero input row r
        reaches coin 1 on window rows r, r + 2, .., r + 2t - 2 and coin 0
        on rows r + 2, .., r + 2t, whatever the coin.  The runs are +-1
        edges summed along each parity, O(width), formed on first use."""
        src = self._source
        if not self.t:
            return np.nonzero(src.amps == 0.0)
        edge = np.zeros(2 * (self.width // 2 + 2), dtype=int)
        edge[src.support + 2] = 1
        edge[src.support + 2 + 2 * self.t] -= 1     # another run may start there
        # row y is reached on coin 0 if runs[y] > 0, coin 1 if runs[y + 2] > 0
        runs = edge.reshape(-1, 2).cumsum(axis=0).reshape(-1)
        return np.nonzero(np.stack([runs[:self.width],
                                    runs[2:self.width + 2]], axis=1) == 0)

    def to_sites(self, spinors: np.ndarray) -> np.ndarray:
        """Site amplitudes (..., 2, width) on the window from spinors
        (..., 2, n) on its nodes, coin-major with the node axis last.

        On the nodes k_j = -pi + 2 pi j / n the zone integral is

            c_x = (1/n) sum_j spinor(k_j) e^{i k_j x}
                = e^{-i pi x} ifft(spinor)[x mod n],

        one FFT along the node axis for any leading batch shape.
        Unreachable cells are assigned +0.0; a 0/1 mask would leave -0.0.
        """
        x, (rows, coins) = self.sites, self._unreachable
        amps = np.fft.ifft(spinors)[..., x % self.nodes.size]
        amps *= np.where(x % 2, -1.0, 1.0)
        amps[..., coins, rows] = 0.0
        return amps


def times_d(spinors: np.ndarray, a: float) -> None:
    """spinors (..., 2, n) times D(a) = diag(e^{ia}, e^{-ia}), in place."""
    d = complex(math.cos(a), math.sin(a))
    spinors[..., 0, :] *= d
    spinors[..., 1, :] *= d.conjugate()


def reduced_spinors(init: WalkerState, p: CoinParams, k) -> np.ndarray:
    """The input's k-spinors D(a2) chi(k) in the reduced frame, (2, n)."""
    chi = spinors_at(init, k).T
    times_d(chi, 0.5 * (p.alpha - p.beta))
    return chi


@dataclass(frozen=True)
class ThetaFamily:
    """The one finite-t kernel: u(k) = S(k) R(theta), the walk's u(k) at
    alpha = beta = 0, on a window's nodes and spinors chi (F, 2, n),
    node axis last, with u^t and the generator sums in closed form.

    C(theta, alpha, beta) = D(a1) R(theta) D(a2), a1 = (alpha + beta)/2,
    and S(k) = D(-k) commutes with D, which gives the module's reduced
    frame: the walk is the family on the nodes shifted by alpha, run on
    :func:`reduced_spinors` and read back through D(-a2) (:meth:`of_walk`,
    :meth:`to_sites`).

    The family keeps what does not depend on theta: cos k, sin k, chi,
    P = S chi and Q = S (chi_1, -chi_0), so u chi = cos theta P + sin
    theta Q and d_theta u = u(theta + pi/2).  With u = cos(om) - i
    w.sigma, (cos(om), w) from :func:`reduced_axis` on the family's nodes,

        u^t = a_t u - a_{t-1},   a_n = sin(n om) / sin(om),

    and conjugation by u turns the Pauli vector of a traceless matrix by
    2 om about n = w / |w|, so for O = v.sigma the generator sum
    G(t) = sum_{m=1..t} u^m O u^{-m} is g(t).sigma with

        g(t) = t (n.v) n + [sin(t om) cos((t+1) om) / sin(om)] v_perp
                         + [sin(t om) sin((t+1) om) / sin(om)] n x v.

    The angle is kept folded into [0, pi/2]: u = sign (cos(om) - i
    w.sigma) with cos(om) >= 0 and om = atan2(|w|, cos(om)); near
    om = pi an unfolded angle's absolute rounding is large against
    sin(om).  Conjugation does not see the sign, and u^t picks up
    sign^t.  At w = 0, |w| is raised to the smallest normal float, so
    sin(m om) / sin(om) -> m and G(t) = t O.  A run costs O(1) per node
    and spinor whatever t is."""

    window: SiteWindow
    cos_k: np.ndarray       # (n,), at the shifted nodes
    sin_k: np.ndarray       # (n,)
    factors: np.ndarray     # (F, 3 * 2 * n): chi, P, Q of each spinor
    coin_phase: float = 0.0     # a2: the family runs on D(a2) chi

    @classmethod
    def on(cls, window: SiteWindow, spinors: np.ndarray,
           shift: float = 0.0) -> "ThetaFamily":
        """The family on ``spinors`` (F, 2, n) at the nodes k - shift."""
        k, chi = window.nodes - shift, np.asarray(spinors, dtype=complex)
        cos_k, sin_k = np.cos(k), np.sin(k)
        e = np.empty(k.shape, dtype=complex)    # S = diag(e, conj(e))
        e.real, e.imag = cos_k, -sin_k          # e^{-ik} from cos k, sin k
        f = np.empty((len(chi), 3) + chi.shape[1:], dtype=complex)
        f[:, 0] = chi
        np.multiply(e, chi[:, 0], out=f[:, 1, 0])
        np.multiply(e.conj(), chi[:, 1], out=f[:, 1, 1])
        np.multiply(e, chi[:, 1], out=f[:, 2, 0])
        np.multiply(-e.conj(), chi[:, 0], out=f[:, 2, 1])
        return cls(window=window, cos_k=cos_k, sin_k=sin_k,
                   factors=f.reshape(len(chi), -1))

    @classmethod
    def of_walk(cls, init: WalkerState, p: CoinParams,
                t: int) -> "ThetaFamily":
        """The walk of ``init`` under ``p`` t steps on, in the coin's
        reduced frame: the family on the nodes of :meth:`SiteWindow.after`
        shifted by alpha, run on :func:`reduced_spinors` (F = 1)."""
        window = SiteWindow.after(init, t)
        family = cls.on(window, reduced_spinors(init, p, window.nodes)[None],
                        p.alpha)
        return replace(family, coin_phase=0.5 * (p.alpha - p.beta))

    def to_sites(self, spinors: np.ndarray) -> np.ndarray:
        """Site amplitudes (..., width, 2) of the walk from spinors (..., 2,
        n) of the family's frame, turned by D(-a2) in place first."""
        times_d(spinors, -self.coin_phase)
        return self.window.to_sites(spinors).swapaxes(-1, -2)

    def _fold(self, theta):
        """(cos theta, sin theta, sign, cos(om), sin(om), om), (..., 1, 1, n)."""
        th = np.asarray(theta, dtype=float)[..., None, None, None]
        ct, st = np.cos(th), np.sin(th)
        cos_omega, (wx, wy, wz) = reduced_axis(ct, st, self.cos_k, self.sin_k)
        sin_omega = np.sqrt(wx ** 2 + wz ** 2 + wy ** 2)
        sign = np.where(cos_omega < 0.0, -1.0, 1.0)
        s, c = np.maximum(sin_omega, np.finfo(float).tiny), np.abs(cos_omega)
        # atan2 keeps small angles accurate; arccos of cos(om) would
        # lose half the digits there
        return ct, st, sign, c, s, np.arctan2(s, c)

    def run(self, theta, order: int = 0, weights=None) -> np.ndarray:
        """d^j/dtheta^j [u^t chi], j = 0 .. order (at most 2), shaped
        (order + 1,) + theta.shape + (F, 2, n), or with ``weights`` (m, F)
        of the m sums weights @ chi.  Orders 1 and 2 take d_om a_n =
        (n cos(n om) - cos(om) a_n) / sin(om), d2_om a_n = (1 - n^2) a_n
        - 2 cos(om) d_om a_n / sin(om), d_theta om = -d_theta cos(om) /
        sin(om) and d2_theta om = cos(om) (1 - (d_theta om)^2) / sin(om);
        their relative rounding grows like eps / sin(theta)^order."""
        # the angle arrays go before the products, which peak in memory
        return self._combine(*self._jet(self._fold(theta), order), weights)

    def _jet(self, fold, order: int):
        """The coefficients of chi and (P, Q) in d^j (u^t chi), j <= order."""
        ct, st, sign, c, s, om = fold
        t = self.window.t
        n = np.array([t, t - 1.0]).reshape((2,) + (1,) * om.ndim)
        a_n = n * om
        np.sin(a_n, out=a_n)
        a_n /= s
        jet = [a_n]                         # d^j a_n for n = t, t - 1
        # u^t = sign^t (a_t v - a_{t-1}) with v = sign u folded, and
        # d^j (a_t v chi) is sign e^{i theta} pq_j on (P, Q) as (Re, Im)
        pq = [jet[0][0] + 0j]
        if order:
            om_1 = sign * (st * self.cos_k) / s
            a_om = (n * np.cos(n * om) - c * jet[0]) / s
            jet.append(a_om * om_1)
            pq.append(jet[1][0] + 1j * jet[0][0])
            if order == 2:
                jet.append(((1.0 - n * n) * jet[0] - 2.0 * c * a_om / s)
                           * om_1 ** 2 + a_om * c * (1.0 - om_1 ** 2) / s)
                pq.append(jet[2][0] - jet[0][0] + 2j * jet[1][0])
        sign_t = sign if t % 2 else 1.0
        return (-sign_t * np.array([d[1] for d in jet]) + 0j,
                np.array(pq) * (sign_t * sign * (ct + 1j * st)))

    def _combine(self, c_chi, pq, weights=None) -> np.ndarray:
        """c_chi chi + Re(pq) P + Im(pq) Q on the factors (or weights @ them)."""
        f = (self.factors if weights is None else weights @ self.factors
             ).reshape(-1, 3, 2, self.cos_k.size)
        # complex times complex is faster than real times complex
        out = c_chi * f[:, 0]
        for cf, f_i in ((pq.real, f[:, 1]), (pq.imag, f[:, 2])):
            out += (cf + 0j) * f_i
        return out

    def generator_sums(self, theta: float, w: np.ndarray):
        """(u^t chi (F, 2, n), G(t) u^t chi (m, F, 2, n)) in the family's
        frame on one folded angle, for O = (i/2) w.sigma with the real w
        (m, 3) of :func:`generator_spatial`: G phi = i (g_z phi_0 + (g_x -
        i g_y) phi_1, (g_x + i g_y) phi_0 - g_z phi_1) for g(t) of w / 2."""
        fold = self._fold(theta)
        ct, st, sign, _, s, om = fold
        phi = self._combine(*self._jet(fold, 0))[0]
        # v = w / 2 and the folded axis n = sign w / sin(om) of u
        vx, vy, vz = 0.5 * np.asarray(w, dtype=float).T[:, :, None, None]
        nx, ny, nz = (sign / s) * reduced_axis(ct, st, self.cos_k,
                                               self.sin_k)[1]
        t = self.window.t
        a_t = np.sin(t * om) / s
        c_perp = a_t * np.cos((t + 1) * om)
        c_cross = a_t * np.sin((t + 1) * om)
        along = (t - c_perp) * (nx * vx + ny * vy + nz * vz)
        gx = c_perp * vx + along * nx + c_cross * (ny * vz - nz * vy)
        gy = c_perp * vy + along * ny + c_cross * (nz * vx - nx * vz)
        igz = 1j * (c_perp * vz + along * nz + c_cross * (nx * vy - ny * vx))
        igx, p0, p1 = 1j * gx, phi[:, 0], phi[:, 1]
        out = np.empty(igz.shape[:1] + phi.shape, dtype=complex)
        out[:, :, 0] = igz * p0 + (gy + igx) * p1
        out[:, :, 1] = (igx - gy) * p0 - igz * p1
        return phi, out


def evolve(s: WalkerState, p: CoinParams, t: int) -> WalkerState:
    """t steps of the walk, through the momentum picture.

    u(k)^t comes in closed form from :meth:`ThetaFamily.of_walk` and one
    inverse FFT returns to sites, so the cost is O(n log n) in the node
    count n of :meth:`SiteWindow.after`, the :func:`k_grid_size` of the
    n0 + 2t sites t steps reach from an input of n0 sites (the smallest
    even 5-smooth n >= n0 + 2t), with no loop over t.  Cells off the
    input's light cone are exact zeros (:meth:`SiteWindow.to_sites`).
    """
    family = ThetaFamily.of_walk(s, p, t)
    return WalkerState(origin=family.window.origin,
                       amps=family.to_sites(family.run(p.theta)[0, 0]),
                       steps_elapsed=s.steps_elapsed + family.window.t)


# old name of the engine path; perfbench routes-ladder is its only caller
evolve_k = evolve
