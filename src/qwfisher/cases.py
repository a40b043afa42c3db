"""Physical case studies: coin encodings of external parameters.

Both cases are one map.  A transverse magnetic field (0, b2, b3) acting
for unit time on the coin gives the coin exp(-i (b2 sigma_y + b3 sigma_z)):

    sin theta = -(sin B / B) b2,  tan alpha = -(tan B / B) b3,  beta = 0,

with B = |b| < pi/2.  One Trotter step of the 1D Dirac equation with
mass m, charge q and vector potential A_x at step eps is
exp(-i eps (m sigma_x + q A_x sigma_z)): the field coin at
(b2, b3) = eps (m, q A_x), turned from sigma_y to sigma_x by
beta = pi/2, inside the window eps W < pi/2, W = sqrt(m^2 + q^2 A_x^2).
So the Dirac angles, Jacobian and inverse are the field ones with the
field rescaled by (eps, eps A_x).  The inverse is closed form, as the
coin's trace fixes the field size: cos B = cos theta cos alpha.  The
analytic Jacobians feed the pullback of the coin-space information
matrix onto the physical parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import DataTable
from .bounds import g_of_theta
from .errors import (ChargeUnidentifiable, DegenerateWalk, NoConvergence,
                     OutOfWindow, SingularJacobian)
from .qfim import QFIMatrix, single_param_qfi
from .walk import CoinParams, as_real, step_count

WINDOW = math.pi / 2
ROUND_TRIP_TOL = 1e-13


def _sinc(x: float) -> float:
    """sin(x)/x, continuous at 0."""
    return 1.0 if x == 0.0 else math.sin(x) / x


def _tanc(x: float) -> float:
    """tan(x)/x, continuous at 0."""
    return 1.0 if x == 0.0 else math.tan(x) / x


# Taylor coefficients in x^2 of the two slope kernels below; the series
# have no cancellation, and these term counts truncate below rounding
# for |x| <= pi/2, the windows of both case maps.
_W_SINC_SERIES = tuple((-1) ** n * 2 * n / math.factorial(2 * n + 1)
                       for n in range(1, 12))
_W_TANC_SERIES = tuple((-1) ** (n + 1) * 2 ** (2 * n + 1)
                       / math.factorial(2 * n + 1) for n in range(1, 15))


def _even_series(coeffs, x: float) -> float:
    """sum_n coeffs[n] x^(2n) by Horner's rule in x^2."""
    x2, acc = x * x, 0.0
    for c in reversed(coeffs):
        acc = acc * x2 + c
    return acc


def _w_sinc(x: float) -> float:
    """(x cos x - sin x)/x^3: the sinc slope kernel, by its series."""
    return _even_series(_W_SINC_SERIES, x)


def _w_tanc(x: float) -> float:
    """(x sec^2 x - tan x)/x^3 = (2x - sin 2x)/(2 x^3 cos^2 x), the
    numerator by its series."""
    return _even_series(_W_TANC_SERIES, x) / (2.0 * math.cos(x) ** 2)


# ---------------------------------------------------------------------------
# magnetic field


@dataclass(frozen=True)
class MagneticField:
    """Transverse field components (0, b2, b3); window B < pi/2."""

    b2: float
    b3: float

    def __post_init__(self):
        for name in ("b2", "b3"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        if self.B >= WINDOW:
            raise OutOfWindow(
                f"|B| = {self.B!r} >= pi/2: coin encoding not invertible")

    @property
    def B(self) -> float:
        return math.hypot(self.b2, self.b3)


def _magnetic_angles(b2: float, b3: float) -> tuple[float, float]:
    B = math.hypot(b2, b3)
    u = _sinc(B)
    # cos theta = hypot(cos B, b3 sinc B) does not cancel as theta -> pi/2
    theta = math.atan2(-u * b2, math.hypot(math.cos(B), u * b3))
    alpha = math.atan(-_tanc(B) * b3)
    return theta, alpha


def coin_from_magnetic(f: MagneticField) -> CoinParams:
    """Coin parameters encoding the field; beta = 0 exactly.

    The mapped coin reproduces exp(-i B Bhat.sigma) with
    Bhat = (0, b2, b3)/B exactly inside the window.
    """
    if f.b2 == 0.0:
        raise DegenerateWalk(
            "b2 = 0 gives sin(theta) = 0: the walk cannot sense this field "
            "configuration (coin never mixes)")
    theta, alpha = _magnetic_angles(f.b2, f.b3)
    return CoinParams(theta=theta, alpha=alpha, beta=0.0)


def _magnetic_jacobian_raw(b2: float, b3: float) -> np.ndarray:
    B = math.hypot(b2, b3)
    u, v = _sinc(B), _tanc(B)
    wu, wv = _w_sinc(B), _w_tanc(B)
    den_t = math.hypot(math.cos(B), u * b3)         # cos theta
    den_a = 1.0 + (v * b3) ** 2
    return np.array([
        [-(u + b2 * b2 * wu) / den_t, -(b2 * b3 * wu) / den_t],
        [-(b2 * b3 * wv) / den_a, -(v + b3 * b3 * wv) / den_a],
    ])


def magnetic_jacobian(f: MagneticField) -> np.ndarray:
    """d(theta, alpha)/d(b2, b3), rows coin angles and columns field components.

    At zero field it reduces to -identity, matching the first-order
    mapping theta ~ -b2, alpha ~ -b3.
    """
    return _magnetic_jacobian_raw(f.b2, f.b3)


def _field_from_angles(theta: float, alpha: float,
                       col_scale=(1.0, 1.0)) -> tuple[np.ndarray, dict]:
    """Closed-form inverse of the field map on the principal branch.

    cos B = cos theta cos alpha, so (b2, b3) = -(B / sin B) (sin theta,
    cos theta sin alpha).  The info dict holds ``residual``, the angle
    miss of the field run back through the forward map (over
    ``ROUND_TRIP_TOL`` raises :class:`NoConvergence`), ``iterations`` = 0
    and the condition number of the Jacobian with its columns scaled by
    ``col_scale``: that of a case whose parameters are the field divided
    by those factors.
    """
    if not (abs(theta) < WINDOW and abs(alpha) < WINDOW):
        raise OutOfWindow("principal branch needs |theta|, |alpha| < pi/2")
    cos_t = math.cos(theta)
    sines = np.array([math.sin(theta), cos_t * math.sin(alpha)])
    sin_b = math.hypot(*sines)
    B = math.atan2(sin_b, cos_t * math.cos(alpha))
    x = -(B / sin_b if sin_b else 1.0) * sines
    th, al = _magnetic_angles(*x)
    residual = max(abs(th - theta), abs(al - alpha))
    if not residual <= ROUND_TRIP_TOL:
        raise NoConvergence(f"round trip misses the coin angles by "
                            f"{residual:.3e}", residual=residual)
    jac = _magnetic_jacobian_raw(*x) * col_scale
    return x, {"iterations": 0, "residual": residual,
               "jacobian_cond": float(np.linalg.cond(jac))}


def magnetic_from_coin(p: CoinParams, full_output: bool = False):
    """Invert the field encoding; requires beta = 0 and principal-branch angles.

    Closed form through cos B = cos theta cos alpha; ``full_output`` adds
    an info dict with the round-trip residual, ``iterations`` = 0 and the
    Jacobian condition number (which blows up toward the window boundary).
    """
    if abs(p.beta) > 1e-12:
        raise OutOfWindow(f"beta = {p.beta!r} is not in the image of the "
                          "field encoding (needs beta = 0)")
    x, info = _field_from_angles(p.theta, p.alpha)
    f = MagneticField(b2=float(x[0]), b3=float(x[1]))
    return (f, info) if full_output else f


# ---------------------------------------------------------------------------
# Dirac walk


@dataclass(frozen=True)
class DiracParams:
    """Mass, charge, vector potential and Trotter step of the 1D Dirac walk."""

    m: float
    q: float
    a_x: float
    eps: float

    def __post_init__(self):
        for name in ("m", "q", "a_x", "eps"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        _dirac_scale(self.a_x, self.eps)
        if self.eps * self.omega >= WINDOW:
            raise OutOfWindow(
                f"eps * Omega = {self.eps * self.omega!r} >= pi/2: coin "
                "encoding not invertible")

    @property
    def omega(self) -> float:
        return math.hypot(self.m, self.q * self.a_x)


def coin_from_dirac(d: DiracParams) -> CoinParams:
    """Coin parameters of one Trotter step; beta = pi/2 exactly.

    The massless point is refused: sin(theta) = 0 there and the walk
    degenerates to pure phase accumulation with alpha = -atan(tan(eps W))
    * sign(q A_x); estimation of (m, q) needs the mass to mix the coin.
    """
    if d.omega == 0.0:
        raise DegenerateWalk("m = q = 0 gives the identity coin")
    if d.m == 0.0:
        alpha = math.atan(-math.copysign(math.tan(d.eps * d.omega),
                                         d.q * d.a_x))
        raise DegenerateWalk(
            f"m = 0 gives sin(theta) = 0 (degenerate walk); the phase "
            f"alpha = {alpha!r} still encodes the charge exactly")
    theta, alpha = _magnetic_angles(d.eps * d.m, d.eps * d.q * d.a_x)
    return CoinParams(theta=theta, alpha=alpha, beta=math.pi / 2)


def dirac_jacobian(d: DiracParams) -> np.ndarray:
    """d(theta, alpha)/d(m, q) at the given point."""
    jac = _magnetic_jacobian_raw(d.eps * d.m, d.eps * d.q * d.a_x)
    return jac * (d.eps, d.eps * d.a_x)


def _dirac_scale(a_x: float, eps: float) -> tuple[float, float]:
    """(eps, eps A_x), the field per unit (m, q), after the gates that
    :class:`DiracParams` and both Dirac inverses share."""
    a_x, eps = as_real(a_x, "a_x"), as_real(eps, "eps")
    if a_x == 0.0:
        raise ChargeUnidentifiable(
            "A_x = 0: the charge never enters the coin and cannot be estimated")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not 0.0 < abs(eps * a_x) < math.inf:
        raise ValueError(f"eps * A_x = {eps * a_x!r} leaves the float range")
    return eps, eps * a_x


def dirac_first_order(p: CoinParams, a_x: float, eps: float) -> tuple[float, float]:
    """Small-eps linearized inverse (m, q) ~ (-sin theta/eps, -tan alpha/(A_x eps))."""
    scale = _dirac_scale(a_x, eps)
    return -math.sin(p.theta) / scale[0], -math.tan(p.alpha) / scale[1]


def dirac_from_coin(p: CoinParams, a_x: float, eps: float,
                    full_output: bool = False):
    """Inverse of the Dirac encoding at fixed (A_x, eps) -> (m, q).

    Inverts the field map (closed form) and divides by (eps, eps A_x).
    """
    scale = _dirac_scale(a_x, eps)
    if abs(p.beta - math.pi / 2) > 1e-12:
        raise OutOfWindow(f"beta = {p.beta!r} is not in the image of the "
                          "Dirac encoding (needs beta = pi/2)")
    x, info = _field_from_angles(p.theta, p.alpha, col_scale=scale)
    mq = (float(x[0] / scale[0]), float(x[1] / scale[1]))
    return (mq, info) if full_output else mq


# ---------------------------------------------------------------------------
# pullback and sweep drivers


def pullback_qfim(f_coin: QFIMatrix, jacobian, labels) -> QFIMatrix:
    """Reparametrize the coin-space matrix: F_phys = J^T F_coin J.

    ``jacobian`` holds d(theta, alpha)/d(physical), matching the
    convention of :func:`magnetic_jacobian` and :func:`dirac_jacobian`.
    """
    block = f_coin.identifiable_block() if isinstance(f_coin, QFIMatrix) else None
    if block is None or block.labels != ("theta", "alpha"):
        raise ValueError("pullback needs a QFIMatrix over (theta, alpha)")
    j = np.asarray(jacobian, dtype=float)
    if j.shape != (2, 2):
        raise ValueError(f"Jacobian must be 2x2, got {j.shape}")
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    if abs(det) <= 1e-12 * max(1.0, float(np.max(np.abs(j))) ** 2):
        raise SingularJacobian(f"Jacobian is singular (det = {det!r})")
    return QFIMatrix(entries=j.T @ block.entries @ j, labels=tuple(labels),
                     t=block.t)


def _t_grid(t_max: int):
    """(t_max by the step-count rule, the sweep's step counts up to it)."""
    t_max = step_count(t_max, 1, "t_max")
    if t_max <= 256:
        return t_max, np.arange(1, t_max + 1)
    # rounding a geometric sequence keeps it non-decreasing, so the
    # repeats sit next to each other
    ts = np.round(np.geomspace(1, t_max, 256)).astype(int)
    return t_max, ts[np.concatenate(([True], ts[1:] != ts[:-1]))]


def sweep_fig1(theta: float, t_max: int) -> dict:
    """Single-parameter information growth for the extremal coin inputs.

    Returns {"curves": t series for r_y = 0 and r_y = 1 with their
    ratio, "inset": prefactor curves f_r(theta) over the open interval
    (0, pi/2)}.
    """
    t_max, ts = _t_grid(t_max)
    # t^2 times the t = 1 value is the product single_param_qfi forms
    c0, c1 = single_param_qfi(theta, 0.0, 1), single_param_qfi(theta, 1.0, 1)
    f0 = np.array([float(t) ** 2 * c0 for t in ts])
    f1 = np.array([float(t) ** 2 * c1 for t in ts])
    curves = DataTable(
        columns={"t": ts, "qfi_ry0": f0, "qfi_ry1": f1, "ratio": f0 / f1},
        meta={"theta": theta, "t_max": t_max})
    thetas = np.linspace(0.0, math.pi / 2, 66)[1:-1]
    inset = DataTable(
        columns={"theta": thetas,
                 "prefactor_ry0": [single_param_qfi(th, 0.0, 1) for th in thetas],
                 "prefactor_ry1": [single_param_qfi(th, 1.0, 1) for th in thetas]},
        meta={"t_max": t_max})
    return {"curves": curves, "inset": inset}


def sweep_fig2(theta_list, t_max: int) -> dict:
    """Holevo-bound decay C^H = g(theta)/t^2 for each theta, plus g(theta) inset."""
    t_max, ts = _t_grid(t_max)
    theta_list = [as_real(th, "theta") for th in theta_list]
    th_col, ch_col = [], []
    for th in theta_list:
        CoinParams(th, 0.0, 0.0)  # the coin's sin = 0 gate
        g = g_of_theta(th)
        th_col += [th] * ts.size
        ch_col += [g / float(t) ** 2 for t in ts]
    curves = DataTable(
        columns={"theta": th_col, "t": np.tile(ts, len(theta_list)),
                 "c_h": ch_col},
        meta={"theta_list": theta_list, "t_max": t_max})
    thetas = np.linspace(0.0, math.pi / 2, 66)[1:-1]
    inset = DataTable(
        columns={"theta": thetas, "g": [g_of_theta(th) for th in thetas]},
        meta={"t_max": t_max})
    return {"curves": curves, "inset": inset}
