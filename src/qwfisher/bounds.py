"""Scalar precision bounds built on the information matrices.

Symmetric (Cramer-Rao) bound C^S = Tr(F^-1 W), the incompatibility
measure R = || i F^-1 D ||_inf, and the Holevo bound in the compatible
regime, where it collapses onto C^S.  The general sandwich
C^S <= C^H <= (1 + R) C^S brackets everything else.

All of it acts on the identifiable (theta, alpha) block: the full
three-parameter matrix is singular by construction (the beta direction
is invisible asymptotically), so callers restrict first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleModel, SingularFisher
from .qfim import QFIMatrix
from .walk import MIN_SIN_THETA

EPS_COMPAT = 1e-6
REL_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive-definite weight for scalarizing the matrix bound."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight must be square, got shape {w.shape}")
        _finite(w, "weight matrix")
        # each gate is written so that NaN fails it
        if not np.max(np.abs(w - w.T)) <= 1e-12 * max(1.0, np.max(np.abs(w))):
            raise ValueError("weight matrix must be symmetric")
        if not np.min(np.linalg.eigvalsh(0.5 * (w + w.T))) > 0.0:
            raise ValueError("weight matrix must be positive definite")
        object.__setattr__(self, "entries", w)


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise ValueError(f"{what} must have finite entries")
    return a


def _fisher_block(f) -> tuple[np.ndarray, tuple]:
    """Accept a QFIMatrix or a plain array with finite entries; insist on
    the identifiable block."""
    if isinstance(f, QFIMatrix):
        if "beta" in f.labels:
            raise ValueError(
                "full matrix includes the unidentifiable beta direction; "
                "restrict with .identifiable_block() first")
        arr, labels = f.entries, f.labels
    else:
        arr = np.asarray(f, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"need a square matrix, got shape {arr.shape}")
        labels = ("theta", "alpha")[:arr.shape[0]]
    return _finite(arr, "information matrix"), labels


def _curvature(d, shape) -> np.ndarray:
    """The curvature D as a finite array of the Fisher block's shape."""
    dmat = d.entries if isinstance(d, QFIMatrix) else np.asarray(d, dtype=float)
    if dmat.shape != shape:
        raise ValueError(f"curvature shape {dmat.shape} does not match {shape}")
    return _finite(dmat, "curvature matrix")


# The small-block arithmetic runs on Python floats, in the order the numpy
# forms took it, so every bound is bitwise what they gave.

def _max_abs(a: np.ndarray) -> float:
    return max(map(abs, a.ravel().tolist()), default=0.0)


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
    """Adjugate inverse of a 1x1 or 2x2 block as nested lists of floats,
    refusing singular ones."""
    if f.shape == (1, 1):
        a = f.item()
        if not abs(a) > REL_DET_FLOOR:
            raise SingularFisher(f"information for {labels[0]!r} vanishes",
                                 parameter=labels[0])
        return [[1.0 / a]]
    if f.shape != (2, 2):
        raise ValueError(f"bounds are defined on 1x1 or 2x2 blocks, got {f.shape}")
    det = _det_2x2(f, labels)
    (a, b), (c, d) = f.tolist()
    return [[d / det, -b / det], [-c / det, a / det]]


def symmetric_bound(f, w: WeightMatrix | None = None) -> float:
    """C^S = Tr(F^-1 W) on the identifiable block."""
    mat, labels = _fisher_block(f)
    inv = _inverse_2x2(mat, labels)
    if w is None:
        return inv[0][0] + inv[1][1] if len(inv) == 2 else inv[0][0]
    if w.entries.shape != mat.shape:
        raise ValueError(f"weight shape {w.entries.shape} does not match {mat.shape}")
    return float(np.trace(np.array(inv) @ w.entries))


def g_of_theta(theta: float) -> float:
    """Closed-form C^H t^2 for the optimal entangled input.

    (s + cos^2 th) / (4 s (1 - s)) with s = |sin th|; diverges at
    theta = pi/2 where the alpha information dies.  1 - s is taken as
    cos^2 th / (1 + s), which does not cancel near pi/2.
    """
    s, c = abs(np.sin(theta)), np.cos(theta)
    # the sin floor is the coin's gate (NaN fails it too); float pi/2
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


def incompatibility_R(f, d) -> float:
    """R = || i F^-1 D ||_inf on the identifiable block, clamped into [0, 1].

    For 2x2 antisymmetric D = [[0, d], [-d, 0]] this is |d| / sqrt(det F);
    exceeding 1 by more than 1e-9 is reported as is (it signals a broken
    input rather than physics).
    """
    mat, labels = _fisher_block(f)
    dmat = _curvature(d, mat.shape)
    if mat.shape == (1, 1):
        return 0.0
    r = abs(dmat[0, 1].item()) / math.sqrt(_det_2x2(mat, labels))
    if 1.0 < r < 1.0 + 1e-9:
        return 1.0
    return r


def sandwich(f, w: WeightMatrix | None = None, d=None) -> tuple[float, float]:
    """(C^S, (1+R) C^S): the bracket containing the Holevo bound."""
    cs = symmetric_bound(f, w)
    r = 0.0 if d is None else incompatibility_R(f, d)
    return cs, cs * (1.0 + r)


@dataclass(frozen=True)
class HolevoResult:
    """Holevo bound evaluated in the compatible regime."""

    value: float
    r: float
    certificate: str


def holevo_compatible(f, w: WeightMatrix | None = None, d=None,
                      eps: float = EPS_COMPAT) -> HolevoResult:
    """C^H when the model is compatible (curvature D vanishes).

    The compatibility test is ||D|| <= eps * ||F||; then the sandwich
    pinches and C^H = C^S exactly.  Outside that regime the scalar bound
    is not available in closed form here and IncompatibleModel is raised
    carrying the sandwich.
    """
    if not (0.0 <= eps < np.inf):                  # NaN fails too
        raise ValueError(f"compatibility threshold must be finite and "
                         f">= 0, got {eps!r}")
    mat, _ = _fisher_block(f)
    dmat = np.zeros_like(mat) if d is None else _curvature(d, mat.shape)
    dnorm = _max_abs(dmat)
    fnorm = max(_max_abs(mat), 1e-300)
    cs = symmetric_bound(f, w)
    if not dnorm <= eps * fnorm:                   # NaN fails too
        r = incompatibility_R(f, dmat)
        raise IncompatibleModel(
            f"curvature norm {dnorm:.3e} exceeds {eps:.1e} * ||F||; "
            f"Holevo bound only bracketed: [{cs!r}, {cs * (1 + r)!r}]")
    return HolevoResult(
        value=cs, r=dnorm / fnorm,
        certificate=f"||D||/||F|| = {dnorm / fnorm:.3e} <= {eps:.1e}")
