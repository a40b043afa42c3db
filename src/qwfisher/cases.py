"""Physical case studies: coin encodings of external parameters.

Both cases are one map.  A transverse magnetic field (0, b2, b3) acting
for unit time on the coin gives the coin exp(-i (b2 sigma_y + b3 sigma_z)):

    sin theta = -(sin B / B) b2,  tan alpha = -(tan B / B) b3,  beta = 0,

with B = |b| < pi/2.  One Trotter step of the 1D Dirac equation with
mass m, charge q and vector potential A_x at step eps is
exp(-i eps (m sigma_x + q A_x sigma_z)): the field coin at
(b2, b3) = eps (m, q A_x), turned from sigma_y to sigma_x by
beta = pi/2, inside the window eps W < pi/2, W = sqrt(m^2 + q^2 A_x^2).
So the Dirac angles, Jacobian and Newton inverse are the field ones
with the field rescaled by (eps, eps A_x), and the analytic Jacobians
feed the pullback of the coin-space information matrix onto the
physical parameters.
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
from .walk import CoinParams

WINDOW = math.pi / 2
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 100


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
        if not (np.isfinite(self.b2) and np.isfinite(self.b3)):
            raise ValueError("field components must be finite")
        if self.B >= WINDOW:
            raise OutOfWindow(
                f"|B| = {self.B!r} >= pi/2: coin encoding not invertible")

    @property
    def B(self) -> float:
        return math.hypot(self.b2, self.b3)


def _magnetic_angles(b2: float, b3: float) -> tuple[float, float]:
    B = math.hypot(b2, b3)
    sin_theta = -_sinc(B) * b2
    theta = math.asin(max(-1.0, min(1.0, sin_theta)))
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
    den_t = math.sqrt(max(1e-300, 1.0 - (u * b2) ** 2))
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


def _window_scale_root(sin_t: float, tan_a: float) -> float:
    """Root of sin_t^2/sin^2 x + tan_a^2/tan^2 x = 1 on (0, pi/2).

    The field map reduces to this scalar equation for B: the left side
    is strictly decreasing, so bisection is unconditional.  Requires
    sin_t != 0.
    """
    h = math.hypot(sin_t, tan_a)
    lo, hi = min(0.5 * h, math.pi / 4), math.pi / 2 - 1e-15

    def g(x):
        return (sin_t / math.sin(x)) ** 2 + (tan_a / math.tan(x)) ** 2 - 1.0

    if g(lo) <= 0.0:       # guess already past the root; widen downward
        lo = 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def _field_from_angles(theta: float, alpha: float,
                       col_scale=(1.0, 1.0)) -> tuple[np.ndarray, dict]:
    """Damped 2D Newton inverse of the field map on the principal branch.

    Returns the field (b2, b3) and an info dict with iteration count,
    final residual and the condition number of the Jacobian with its
    columns scaled by ``col_scale``: the Jacobian of a case whose
    parameters are the field components divided by those factors.
    Newton is affine-invariant, so that case's iterates are these ones,
    rescaled.
    """
    if not (abs(theta) < WINDOW and abs(alpha) < WINDOW):
        raise OutOfWindow("principal branch needs |theta|, |alpha| < pi/2")
    st, ta = math.sin(theta), math.tan(alpha)
    b_guess = _window_scale_root(st, ta)
    x = np.array([-st / _sinc(b_guess), -ta / _tanc(b_guess)])
    residual = np.inf
    for it in range(NEWTON_MAX_ITER):
        th, al = _magnetic_angles(*x)
        r = np.array([th - theta, al - alpha])
        residual = float(np.max(np.abs(r)))
        jac = _magnetic_jacobian_raw(*x)
        if residual <= NEWTON_TOL:
            return x, {"iterations": it, "residual": residual,
                       "jacobian_cond": float(np.linalg.cond(jac * col_scale))}
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-300:
            raise SingularJacobian(
                f"map Jacobian singular at {tuple(x)} during inversion")
        delta = np.linalg.solve(jac, r)
        scale = 1.0
        while math.hypot(*(x - scale * delta)) >= WINDOW - 1e-12:
            scale *= 0.5
            if scale < 1e-12:
                raise NoConvergence(
                    "step collapsed against the invertibility window",
                    residual=residual, iterations=it)
        x = x - scale * delta
    raise NoConvergence(
        f"no convergence after {NEWTON_MAX_ITER} iterations "
        f"(residual {residual:.3e})", residual=residual,
        iterations=NEWTON_MAX_ITER)


def magnetic_from_coin(p: CoinParams, full_output: bool = False):
    """Invert the field encoding; requires beta = 0 and principal-branch angles.

    Newton iteration on the angle residuals; ``full_output`` adds an info
    dict with iteration count, final residual and the Jacobian condition
    number (which blows up toward the window boundary).
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
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
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
    if d.a_x == 0.0:
        raise ChargeUnidentifiable(
            "A_x = 0: the charge never enters the coin and cannot be estimated")
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


def dirac_first_order(p: CoinParams, a_x: float, eps: float) -> tuple[float, float]:
    """Small-eps linearized inverse (m, q) ~ (-sin theta/eps, -tan alpha/(A_x eps))."""
    if a_x == 0.0:
        raise ChargeUnidentifiable("A_x = 0: charge not identifiable")
    return -math.sin(p.theta) / eps, -math.tan(p.alpha) / (a_x * eps)


def dirac_from_coin(p: CoinParams, a_x: float, eps: float,
                    full_output: bool = False):
    """Newton inverse of the Dirac encoding at fixed (A_x, eps) -> (m, q).

    Inverts the field map and divides the field by (eps, eps A_x).
    """
    if a_x == 0.0:
        raise ChargeUnidentifiable("A_x = 0: charge not identifiable")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if abs(p.beta - math.pi / 2) > 1e-12:
        raise OutOfWindow(f"beta = {p.beta!r} is not in the image of the "
                          "Dirac encoding (needs beta = pi/2)")
    scale = (eps, eps * a_x)
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
                     t=block.t, asymptotic=block.asymptotic)


def _t_grid(t_max: int) -> np.ndarray:
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if t_max <= 256:
        return np.arange(1, t_max + 1)
    # rounding a geometric sequence keeps it non-decreasing, so the
    # repeats sit next to each other
    ts = np.round(np.geomspace(1, t_max, 256)).astype(int)
    return ts[np.concatenate(([True], ts[1:] != ts[:-1]))]


def sweep_fig1(theta: float, t_max: int) -> dict:
    """Single-parameter information growth for the extremal coin inputs.

    Returns {"curves": t series for r_y = 0 and r_y = 1 with their
    ratio, "inset": prefactor curves f_r(theta) over the open interval
    (0, pi/2)}.
    """
    CoinParams(theta, 0.0, 0.0)      # the coin's NaN and sin(theta) = 0 gates
    ts = _t_grid(t_max)
    f0 = np.array([single_param_qfi(theta, 0.0, int(t)) for t in ts])
    f1 = np.array([single_param_qfi(theta, 1.0, int(t)) for t in ts])
    curves = DataTable(
        columns={"t": ts, "qfi_ry0": f0, "qfi_ry1": f1, "ratio": f0 / f1},
        meta={"theta": theta, "t_max": int(t_max)})
    thetas = np.linspace(0.0, math.pi / 2, 66)[1:-1]
    inset = DataTable(
        columns={"theta": thetas,
                 "prefactor_ry0": [single_param_qfi(th, 0.0, 1) for th in thetas],
                 "prefactor_ry1": [single_param_qfi(th, 1.0, 1) for th in thetas]},
        meta={"t_max": int(t_max)})
    return {"curves": curves, "inset": inset}


def sweep_fig2(theta_list, t_max: int) -> dict:
    """Holevo-bound decay C^H = g(theta)/t^2 for each theta, plus g(theta) inset."""
    ts = _t_grid(t_max)
    th_col, t_col, ch_col = [], [], []
    for th in theta_list:
        CoinParams(float(th), 0.0, 0.0)  # as in sweep_fig1
        g = g_of_theta(float(th))
        for t in ts:
            th_col.append(float(th))
            t_col.append(int(t))
            ch_col.append(g / float(t) ** 2)
    curves = DataTable(
        columns={"theta": th_col, "t": np.array(t_col), "c_h": ch_col},
        meta={"theta_list": [float(x) for x in theta_list], "t_max": int(t_max)})
    thetas = np.linspace(0.0, math.pi / 2, 66)[1:-1]
    inset = DataTable(
        columns={"theta": thetas, "g": [g_of_theta(th) for th in thetas]},
        meta={"t_max": int(t_max)})
    return {"curves": curves, "inset": inset}
