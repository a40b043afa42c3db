"""Scalar precision bounds built on the information matrices.

Symmetric (Cramer-Rao) bound C^S = Tr(F^-1 W), the incompatibility
measure R = || i F^-1 D ||_inf, and the Holevo bound in the compatible
regime, where it collapses onto C^S.  The general sandwich
C^S <= C^H <= (1 + R) C^S brackets everything else.

All of it acts on the identifiable (theta, alpha) block: the full
three-parameter matrix is singular by construction (the beta direction
is invisible asymptotically), so callers restrict first.  Every bound
takes F as a symmetric 2x2 :class:`qfim.QFIMatrix` without beta and D as
an antisymmetric one, and refuses anything else; QFIMatrix has checked
their entries (finite, symmetric or antisymmetric, F positive
semidefinite) and keeps them read-only, so the bounds check none again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleModel, SingularFisher
from .qfim import QFIMatrix
from .walk import MIN_SIN_THETA, as_real

EPS_COMPAT = 1e-6
REL_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive-definite 2x2 weight for scalarizing the matrix bound."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        if w.shape != (2, 2):
            raise ValueError(f"weight must be square 2x2, got shape {w.shape}")
        # each gate is written so that NaN fails it
        if not all(map(math.isfinite, w.ravel().tolist())):
            raise ValueError("weight matrix must have finite entries")
        if not np.max(np.abs(w - w.T)) <= 1e-12 * max(1.0, np.max(np.abs(w))):
            raise ValueError("weight matrix must be symmetric")
        if not np.min(np.linalg.eigvalsh(0.5 * (w + w.T))) > 0.0:
            raise ValueError("weight matrix must be positive definite")
        object.__setattr__(self, "entries", w)


def _entries(m, antisymmetric: bool) -> np.ndarray:
    """The entries of m, a 2x2 QFIMatrix without beta: symmetric for F,
    antisymmetric for the curvature D.  QFIMatrix has checked them."""
    got = type(m).__name__
    if isinstance(m, QFIMatrix):
        if "beta" in m.labels:
            raise ValueError(
                "matrix includes the unidentifiable beta direction; "
                "restrict with .identifiable_block() first")
        if m.entries.shape == (2, 2) and m.antisymmetric == antisymmetric:
            return m.entries
        n = len(m.labels)
        got = f"a {n}x{n} {'anti' * m.antisymmetric}symmetric {got}"
    want = "D an antisymmetric" if antisymmetric else "F a symmetric"
    raise ValueError(f"bounds take {want} 2x2 QFIMatrix, got {got}")


# The small-block arithmetic runs on Python floats, in the order the numpy
# forms took it, so every bound is bitwise what they gave.

def _det_2x2(f: np.ndarray, labels) -> float:
    """Determinant of a 2x2 block behind a relative-determinant singularity gate.

    The SingularFisher raised names the smaller diagonal entry as the
    flat direction.
    """
    (a, b), (c, d) = f.tolist()
    det = a * d - b * c
    scale = max(abs(a), abs(b), abs(c), abs(d), 1e-300)
    if not det > REL_DET_FLOOR * scale ** 2:     # NaN fails too
        flat = labels[int(d <= a)]
        raise SingularFisher(
            f"information matrix is singular (det/scale^2 = {det / scale**2:.3e}); "
            f"flat direction {flat!r}", parameter=flat)
    return det


def _inverse_2x2(f: np.ndarray, labels) -> list:
    """Adjugate inverse of a 2x2 block as nested lists of floats, refusing
    singular ones."""
    det = _det_2x2(f, labels)
    (a, b), (c, d) = f.tolist()
    return [[d / det, -b / det], [-c / det, a / det]]


def symmetric_bound(f: QFIMatrix, w: WeightMatrix | None = None) -> float:
    """C^S = Tr(F^-1 W) on the identifiable block."""
    inv = _inverse_2x2(_entries(f, False), f.labels)
    if w is None:
        return inv[0][0] + inv[1][1]
    return float(np.trace(np.array(inv) @ w.entries))


def g_of_theta(theta: float) -> float:
    """Closed-form C^H t^2 for the optimal entangled input.

    (s + cos^2 th) / (4 s (1 - s)) with s = |sin th|; diverges at
    theta = pi/2 where the alpha information dies.  1 - s is taken as
    cos^2 th / (1 + s), which does not cancel near pi/2.
    """
    theta = as_real(theta, "theta")
    s, c = abs(np.sin(theta)), np.cos(theta)
    # the sin floor is the coin's gate; float pi/2
    # lands at cos(theta) ~ 6.1e-17, not exactly zero
    if not s >= MIN_SIN_THETA:
        raise SingularFisher(
            f"closed form needs |sin(theta)| >= {MIN_SIN_THETA}, "
            f"got theta={theta!r}", parameter="theta")
    if not abs(c) >= 1e-12:
        raise SingularFisher(
            f"closed form needs cos(theta) != 0, got theta={theta!r}",
            parameter="alpha")
    return float((s + c ** 2) * (1.0 + s) / (4.0 * s * c ** 2))


def incompatibility_R(f: QFIMatrix, d: QFIMatrix) -> float:
    """R = || i F^-1 D ||_inf on the identifiable block, clamped into [0, 1].

    For 2x2 antisymmetric D = [[0, d], [-d, 0]] this is |d| / sqrt(det F);
    exceeding 1 by more than 1e-9 is reported as is (it signals a broken
    input rather than physics).
    """
    mat, dmat = _entries(f, False), _entries(d, True)
    r = abs(dmat[0, 1].item()) / math.sqrt(_det_2x2(mat, f.labels))
    if 1.0 < r < 1.0 + 1e-9:
        return 1.0
    return r


def sandwich(f: QFIMatrix, w: WeightMatrix | None = None,
             d: QFIMatrix | None = None) -> tuple[float, float]:
    """(C^S, (1+R) C^S): the bracket containing the Holevo bound."""
    cs = symmetric_bound(f, w)
    r = 0.0 if d is None else incompatibility_R(f, d)
    return cs, cs * (1.0 + r)


def check_eps_compat(eps: float) -> None:
    """The rule a compatibility threshold keeps: a real number >= 0."""
    if not as_real(eps, "compatibility threshold") >= 0.0:
        raise ValueError(f"compatibility threshold must be finite and "
                         f">= 0, got {eps!r}")


@dataclass(frozen=True)
class HolevoResult:
    """Holevo bound in the compatible regime and the R that certified it."""

    value: float
    r: float
    certificate: str


def holevo_compatible(f: QFIMatrix, w: WeightMatrix | None = None,
                      d: QFIMatrix | None = None,
                      eps: float = EPS_COMPAT) -> HolevoResult:
    """C^H when the model is compatible (curvature D vanishes).

    The compatibility test is R <= eps, with R from
    :func:`incompatibility_R`; then the sandwich pinches to within a
    relative eps and C^H = C^S.  Outside that regime the scalar bound is
    not available in closed form here and IncompatibleModel is raised
    carrying R and the sandwich.
    """
    check_eps_compat(eps)
    r = 0.0 if d is None else incompatibility_R(f, d)
    if not r <= eps:
        lo, hi = sandwich(f, w, d)
        raise IncompatibleModel(
            f"incompatibility R = {r:.3e} exceeds {eps:.1e}; "
            f"Holevo bound only bracketed: [{lo!r}, {hi!r}]")
    return HolevoResult(value=symmetric_bound(f, w), r=r,
                        certificate=f"R = {r:.3e} <= {eps:.1e}")
