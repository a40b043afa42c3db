"""Measurement sampling, classical Fisher information and MLE closure.

The measurement is position-only (coin traced out).  Sampling is
multinomial with a counter-based generator so every record is a pure
function of (seed, config).  The likelihood over a (theta, alpha) grid
is evaluated from a shared log-probability table; fits refine the grid
argmax by Fisher scoring with exact scores, each from one run of the
closed-form engine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import _evolve_with_generators
from .walk import (CoinParams, SU2Powers, WalkerState, k_grid_size,
                   quasi_energy_axis, window_from_uniform)
from .quadrature import uniform_k_grid

MASS_THRESHOLD = 1e-12


def philox_rng(seed: int, *stream) -> np.random.Generator:
    """Counter-based generator; extra integers key independent substreams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class PositionDistribution:
    """Probability vector over the dense site window of a walker state."""

    sites: np.ndarray
    probs: np.ndarray
    t: int = 0

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=int)
        probs = np.asarray(self.probs, dtype=float)
        if sites.shape != probs.shape or probs.ndim != 1:
            raise ValueError("sites and probs must be matching 1D arrays")
        if not probs.min() >= -1e-15:              # NaN fails too
            raise ValueError(f"negative probability {probs.min()!r}")
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "probs", probs)


def position_distribution(s: WalkerState) -> PositionDistribution:
    """p(x) = sum_c |amp(x, c)|^2 over the state's window."""
    probs = np.sum(np.abs(s.amps) ** 2, axis=1)
    return PositionDistribution(sites=s.sites, probs=probs, t=s.steps_elapsed)


@dataclass(frozen=True)
class MeasurementRecord:
    """Observed position counts plus everything needed to re-score them."""

    t: int
    shots: int
    counts: dict
    seed: int
    params_true: CoinParams | None = None

    def __post_init__(self):
        counts = {int(x): int(c) for x, c in self.counts.items()}
        if any(c < 0 for c in counts.values()):
            raise ValueError("counts must be nonnegative")
        total = sum(counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected shots={self.shots}")
        object.__setattr__(self, "counts", counts)

    def count_vector(self, sites: np.ndarray) -> np.ndarray:
        """Counts aligned to a site axis; refuses counts outside it."""
        sites = np.asarray(sites, dtype=int)
        lookup = {int(x): i for i, x in enumerate(sites)}
        vec = np.zeros(sites.size)
        for x, c in self.counts.items():
            if x not in lookup:
                raise ValueError(f"observed site {x} outside the model window")
            vec[lookup[x]] = c
        return vec

    def to_json_dict(self) -> dict:
        d = {
            "t": int(self.t),
            "shots": int(self.shots),
            "seed": int(self.seed),
            "counts": {str(x): int(c) for x, c in sorted(self.counts.items())},
        }
        if self.params_true is not None:
            d["params_true"] = {"theta": self.params_true.theta,
                                "alpha": self.params_true.alpha,
                                "beta": self.params_true.beta}
        else:
            d["params_true"] = None
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "MeasurementRecord":
        pt = d.get("params_true")
        return MeasurementRecord(
            t=int(d["t"]), shots=int(d["shots"]),
            counts={int(x): int(c) for x, c in d["counts"].items()},
            seed=int(d["seed"]),
            params_true=None if pt is None else CoinParams(**pt))


def sample(dist: PositionDistribution, shots: int, seed: int,
           params_true: CoinParams | None = None, stream=()) -> MeasurementRecord:
    """Multinomial position draws; deterministic in (seed, stream)."""
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots}")
    rng = philox_rng(seed, *stream)
    p = dist.probs / dist.probs.sum()
    draws = rng.multinomial(int(shots), p)
    counts = {int(x): int(c) for x, c in zip(dist.sites, draws) if c}
    return MeasurementRecord(t=dist.t, shots=int(shots), counts=counts,
                             seed=int(seed), params_true=params_true)


# ---------------------------------------------------------------------------
# classical information


def _prob_derivatives(p: CoinParams, init: WalkerState, t: int):
    """(sites, probs, dprobs) with dp_mu(x) = 2 Re conj(amp) d_mu amp.

    mu runs over (theta, alpha); beta is held fixed.  One engine run
    gives the evolved k-spinor and its derivatives, and one inverse FFT
    takes all of them to sites.
    """
    t = int(t)
    phi, dphi = _evolve_with_generators(init, p, t, [0, 1])  # theta, alpha
    origin = init.origin - t
    amps = window_from_uniform(np.concatenate([phi[None], dphi]), origin,
                               init.n_sites + 2 * t)
    psi, dpsi = amps[0], amps[1:]
    dprobs = 2.0 * np.einsum("xc,mxc->mx", psi.conj(), dpsi).real
    return (origin + np.arange(psi.shape[0]),
            np.sum(np.abs(psi) ** 2, axis=1), dprobs)


def _information(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Per-shot information sum_x dp dp^T / p over bins above the mass floor."""
    mask = probs > MASS_THRESHOLD
    w = dprobs[:, mask] / np.sqrt(probs[mask])
    return w @ w.T


def classical_fi(p: CoinParams, init: WalkerState, t: int) -> np.ndarray:
    """Fisher information of the position outcome in (theta, alpha).

    I_uv = sum dp_u dp_v / p, with bins of mass below 1e-12 excluded.
    For special inputs the alpha sensitivity of the marginal can vanish;
    the zero rows are reported as computed.
    """
    _, probs, dprobs = _prob_derivatives(p, init, t)
    return _information(probs, dprobs)


# ---------------------------------------------------------------------------
# likelihood table and MLE


@dataclass(frozen=True)
class GridSpec:
    """Prior box and resolution for the likelihood grid search."""

    theta_min: float = 0.1
    theta_max: float = 1.47
    alpha_min: float = -1.47
    alpha_max: float = 1.47
    n_theta: int = 200
    n_alpha: int = 200

    def __post_init__(self):
        if not (self.theta_min < self.theta_max and self.alpha_min < self.alpha_max):
            raise ValueError("grid box is empty")
        if min(self.n_theta, self.n_alpha) < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def axes(self):
        return (np.linspace(self.theta_min, self.theta_max, self.n_theta),
                np.linspace(self.alpha_min, self.alpha_max, self.n_alpha))


@dataclass(frozen=True)
class LikelihoodTable:
    """Position probabilities over a (theta, alpha) grid, shots-independent."""

    grid: GridSpec
    beta: float
    t: int
    sites: np.ndarray
    probs: np.ndarray            # (n_theta, n_alpha, n_sites)
    logp: np.ndarray             # log(max(probs, 1e-300))
    init: WalkerState


def make_likelihood_table(init: WalkerState, p_true: CoinParams, t: int,
                          grid: GridSpec | None = None) -> LikelihoodTable:
    """Tabulate p(x | theta, alpha) over the grid at fixed beta = p_true.beta.

    One-time cost shared by every record fitted against the same model.
    The coin factorises as C(theta, alpha, beta) = D(a1) R(theta) D(a2)
    with D(a) = diag(e^{ia}, e^{-ia}), a1 = (alpha + beta)/2,
    a2 = (alpha - beta)/2 and R(theta) = [[cos, sin], [-sin, cos]].
    Coin phases commute with the shift S, and S D(alpha) = G S G^-1 with
    G = e^{i alpha x}, so

        W^t = D(-a2) G (S R(theta))^t G^-1 D(a2).

    The phases on the left do not change p(x), hence

        p(x | theta, alpha) = sum_c |[(S R(theta))^t psi_alpha](x, c)|^2,
        psi_alpha(y, c) = psi_0(y, c) e^{-+i beta/2} e^{-i alpha (y -+ 1/2)}

    (upper signs for c = 0).  Up to the global e^{i alpha/2}, alpha
    multiplies the entry (y, c) by e^{-i alpha f} with the integer
    frequency f = y + c.  Grouping the nonzero input entries by f into
    chi_f (with their beta phases) and writing
    Phi_f = (S R(theta))^t chi_f,

        p(x | theta, alpha) = sum_{|d| <= n0} B_d(theta, x) e^{i alpha d},
        B_d = sum_{f' - f = d} sum_c conj(Phi_f'(x, c)) Phi_f(x, c),

    with B_{-d} = conj(B_d): a real trigonometric polynomial in alpha,
    p = B_0 + sum_{d > 0} [2 cos(alpha d) Re B_d - 2 sin(alpha d) Im B_d].
    (S R(theta))^t runs once per theta in closed form per momentum node
    (:class:`SU2Powers`) on the F <= n0 + 1 group spinors, with one
    inverse FFT; B takes F^2 coin-summed products, and the table is one
    real batched product of the (n_alpha, 1 + 2D) cos/sin matrix with
    B (n_theta, 1 + 2D, width) over the D positive frequencies d that
    occur.  The cost is O(n_theta * n_nodes * F) for the powers,
    O(n_theta * F^2 * width) for B and O(n_theta * n_alpha * width * D)
    for the product; t enters only through the window width, and no
    complex array of the table's size is formed.
    """
    grid = grid or GridSpec()
    thetas, alphas = grid.axes()
    t = int(t)
    width = init.n_sites + 2 * t
    nodes = uniform_k_grid(k_grid_size(width))
    # sin^2 om = 1 - cos^2 theta cos^2 (k - alpha) on every cell and node,
    # smallest at the largest cos^2 theta and cos^2 (k - alpha)
    sin2_k = np.min(np.sin(nodes[:, None] - alphas[None, :]) ** 2)
    sin2_omega = np.sin(thetas) ** 2 + np.cos(thetas) ** 2 * sin2_k
    if np.sqrt(np.min(sin2_omega)) < 1e-6:
        raise ValueError("grid touches a degenerate quasi-energy; "
                         "shrink the box or step explicitly")

    # group f holds coin 0 of site f and coin 1 of site f - 1, beta
    # phased; f - origin = row + coin runs over 0..n0
    amps = init.amps * np.exp(-0.5j * p_true.beta * np.array([1.0, -1.0]))
    rows, coins = np.nonzero(amps)
    present = np.zeros(init.n_sites + 1, dtype=bool)
    present[rows + coins] = True
    offsets = np.flatnonzero(present)
    chi = np.zeros((offsets.size, 2), dtype=complex)
    chi[np.searchsorted(offsets, rows + coins), coins] = amps[rows, coins]
    # chi_f(k) = sum_c chi[f, c] e^{-ik(f - c)} e_c: (F, n_nodes, 2)
    freqs = init.origin + offsets
    spinors = chi[:, None, :] * np.exp(
        -1j * nodes[:, None] * (freqs[:, None, None] - np.arange(2)))

    # Phi_f for all thetas: (n_theta, F, width, 2); S(k) R(theta) is the
    # walk's u(k) at alpha = beta = 0
    powers = SU2Powers.of(
        *quasi_energy_axis(thetas[:, None, None], 0.0, 0.0, nodes))
    origin = init.origin - t
    phis = window_from_uniform(powers.apply_power(spinors, t), origin, width)

    # B_d for d = 0 and each positive difference d = f' - f that occurs
    diffs = offsets[:, None] - offsets[None, :]
    occurs = np.zeros(init.n_sites + 1, dtype=bool)
    occurs[diffs[diffs > 0]] = True
    ds = np.flatnonzero(occurs)
    b = np.zeros((thetas.size, 1 + 2 * ds.size, width))
    b[:, 0] = np.sum(phis.real ** 2 + phis.imag ** 2, axis=(1, 3))
    for f1, f in zip(*np.nonzero(diffs > 0)):
        prod = np.sum(phis[:, f1].conj() * phis[:, f], axis=-1)
        j = 1 + np.searchsorted(ds, diffs[f1, f])
        b[:, j] += prod.real
        b[:, j + ds.size] += prod.imag
    phase = np.outer(alphas, ds)
    trig = np.concatenate([np.ones((alphas.size, 1)), 2.0 * np.cos(phase),
                           -2.0 * np.sin(phase)], axis=1)
    probs = np.matmul(trig, b)
    np.maximum(probs, 0.0, out=probs)
    logp = np.maximum(probs, 1e-300)
    np.log(logp, out=logp)
    return LikelihoodTable(grid=grid, beta=p_true.beta, t=t,
                           sites=origin + np.arange(width), probs=probs,
                           logp=logp, init=init)


def _connected_from_argmax(mask: np.ndarray, start) -> np.ndarray:
    """Cells of ``mask`` reachable 4-connectedly from ``start``.

    A stack flood fill over the set of mask cells: each cell is taken
    out of the set when it is reached, so the work is O(mask).
    """
    reached = np.zeros_like(mask)
    unvisited = set(zip(*(ix.tolist() for ix in np.nonzero(mask))))
    start = (int(start[0]), int(start[1]))
    if start not in unvisited:
        return reached
    unvisited.remove(start)
    stack, cells = [start], [start]
    while stack:
        i, j = stack.pop()
        for cell in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if cell in unvisited:
                unvisited.remove(cell)
                stack.append(cell)
                cells.append(cell)
    reached[tuple(np.array(cells).T)] = True
    return reached


@dataclass(frozen=True)
class MLEResult:
    theta: float
    alpha: float
    cov: np.ndarray
    loglik: float
    multimodal: bool
    converged: bool
    iterations: int
    grid_theta: float
    grid_alpha: float


def _score(counts: np.ndarray, probs: np.ndarray,
           dprobs: np.ndarray) -> np.ndarray:
    """Log-likelihood gradient sum_x n_x dp(x) / p(x) over bins above the floor."""
    mask = probs > MASS_THRESHOLD
    pm = probs[mask]
    return np.array([np.sum(counts[mask] * d[mask] / pm) for d in dprobs])


def mle_fit(rec: MeasurementRecord, table: LikelihoodTable,
            max_refine: int = 12) -> MLEResult:
    """Maximum-likelihood (theta, alpha) from position counts.

    Grid search over a shared probability table, a connectivity
    diagnostic for secondary modes (cells within 2 log-likelihood units
    of the maximum that do not touch the main one), then at most
    ``max_refine`` Fisher-scoring steps with exact scores.  The
    covariance estimate is the inverse observed information at the fit;
    a direction the data carry no information about (the position
    marginal can be exactly flat in alpha for some inputs) gets an
    infinite diagonal entry.  ``table`` comes from
    :func:`make_likelihood_table` at the record's t.
    """
    if rec.t != table.t:
        raise ValueError(f"record t={rec.t} disagrees with the table t={table.t}")
    counts = rec.count_vector(table.sites)
    loglik = table.logp @ counts
    flat_idx = int(np.argmax(loglik))
    it, ia = np.unravel_index(flat_idx, loglik.shape)
    thetas, alphas = table.grid.axes()
    th_hat, al_hat = float(thetas[it]), float(alphas[ia])
    mask = loglik >= loglik[it, ia] - 2.0
    reached = _connected_from_argmax(mask, (it, ia))
    multimodal = bool(mask.sum() - reached.sum() > 0)

    x = np.array([th_hat, al_hat])
    converged = False
    iters = 0
    for iters in range(1, max_refine + 1):
        pt = CoinParams(theta=x[0], alpha=x[1], beta=table.beta)
        _, probs, dprobs = _prob_derivatives(pt, table.init, table.t)
        info = _information(probs, dprobs) * rec.shots
        step = np.linalg.pinv(info, rcond=1e-10, hermitian=True) \
            @ _score(counts, probs, dprobs)
        x = np.clip(x + step,
                    [table.grid.theta_min, table.grid.alpha_min],
                    [table.grid.theta_max, table.grid.alpha_max])
        if np.max(np.abs(step)) < 1e-9:
            converged = True
            break

    def score_at(q: CoinParams) -> np.ndarray:
        _, probs, dprobs = _prob_derivatives(q, table.init, table.t)
        return _score(counts, probs, dprobs)

    pt = CoinParams(theta=x[0], alpha=x[1], beta=table.beta)
    h = 1e-5
    hess = np.zeros((2, 2))
    for j, mu in enumerate(("theta", "alpha")):
        up = pt.replace(**{mu: getattr(pt, mu) + h})
        dn = pt.replace(**{mu: getattr(pt, mu) - h})
        hess[:, j] = (score_at(up) - score_at(dn)) / (2.0 * h)
    hess = 0.5 * (hess + hess.T)
    evals, evecs = np.linalg.eigh(-hess)
    good = evals > 1e-10 * max(float(evals.max(initial=0.0)), 1.0)
    inv = np.where(good, 1.0 / np.where(good, evals, 1.0), 0.0)
    cov = (evecs * inv) @ evecs.T
    # a parameter living mostly in a zero-information direction has no
    # finite variance; report inf there instead of the pinv zero
    null_weight = (evecs[:, ~good] ** 2).sum(axis=1)
    cov[np.diag_indices_from(cov)] = np.where(null_weight > 0.5, np.inf,
                                              np.diag(cov))
    _, probs_fit, _ = _prob_derivatives(pt, table.init, table.t)
    mask_fit = probs_fit > MASS_THRESHOLD
    ll_fit = float(np.sum(counts[mask_fit] * np.log(probs_fit[mask_fit]))) \
        if np.all(counts[~mask_fit] == 0) else -np.inf
    return MLEResult(theta=float(x[0]), alpha=float(x[1]), cov=cov,
                     loglik=ll_fit, multimodal=multimodal, converged=converged,
                     iterations=iters, grid_theta=th_hat, grid_alpha=al_hat)
