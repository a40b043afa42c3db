"""Measurement sampling, classical Fisher information and MLE closure.

The measurement is position-only (coin traced out).  Sampling is
multinomial with a counter-based generator so every record is a pure
function of (seed, config).  The likelihood over a (theta, alpha) grid
is evaluated per record from a shared table of trigonometric
coefficients, only on the theta rows whose upper bound can reach the
maximum; fits refine the grid argmax by Newton steps on the exact
observed information, with Fisher scoring as the fall back.  One run of
the closed-form engine on the input's alpha-frequency groups, formed
with the walk's own phases, gives p and its first and second
derivatives in (theta, alpha) (:func:`_derivatives`); the table, the
fits and the classical Fisher information all read that one model.
"""
from __future__ import annotations

import contextlib
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .walk import (MIN_SIN_THETA, NORM_TOL, CoinParams, SiteWindow,
                   ThetaFamily, WalkerState, as_int, as_real, plane_waves,
                   step_count, times_d)

MASS_THRESHOLD = 1e-12
# a fit has converged when no component of its step exceeds this
STEP_TOL = 1e-9
# cells within this many log-likelihood units of the grid maximum count
# as near it (the mode check)
_NEAR_MAX = 2.0
# largest block of theta rows the grid stage forms at once, in cells of
# (alpha, site) (1 MiB), so no block comes near the grid's full size
_BLOCK_CELLS = 2 ** 17
# node-spinors the table build runs the engine on at once: it takes
# blocks of max(1, _BLOCK_SPINORS // (F * n_nodes)) theta rows, and the
# window's n_nodes is at least its width, so its temporaries on nodes
# or sites stay within 2**14 spinors (512 KiB per array) at any t
_BLOCK_SPINORS = 2 ** 14


def philox_rng(seed: int, *stream) -> np.random.Generator:
    """Counter-based generator; extra integers key independent substreams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class PositionDistribution:
    """Probability vector over distinct integer sites, at least one, after
    t steps; its norm sqrt(sum p) meets the walk's rule |norm - 1| <=
    NORM_TOL.  Entries down to -1e-15 pass the gate as rounding and are
    stored clipped at 0, so every reader sees a non-negative vector."""

    sites: np.ndarray
    probs: np.ndarray
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t", step_count(self.t))
        sites, probs = np.asarray(self.sites), np.asarray(self.probs, float)
        if sites.shape != probs.shape or probs.ndim != 1:
            raise ValueError("sites and probs must be matching 1D arrays")
        if not probs.size:
            raise ValueError("sites and probs are empty")
        if sites.dtype.kind not in "iu":
            raise ValueError(f"sites must be integers, got {sites.dtype}")
        distinct, repeats = np.unique(sites, return_counts=True)
        if repeats.max() > 1:
            raise ValueError(f"site {distinct[repeats > 1][0]} is given twice")
        if not probs.min() >= -1e-15:              # NaN fails too
            raise ValueError(f"negative probability {float(probs.min())}")
        total = float(probs.sum())
        if not abs(math.sqrt(max(total, 0.0)) - 1.0) <= NORM_TOL:
            raise ValueError(f"probabilities sum to {total}: their norm "
                             f"deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "sites", sites.astype(int, copy=False))
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))


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
        object.__setattr__(self, "t", step_count(self.t))
        counts = {}
        for x, c in self.counts.items():
            if isinstance(x, str):          # JSON's keys: their decimal text
                with contextlib.suppress(ValueError):
                    x = int(x)
            x = as_int(x, "site")
            if x in counts:                 # as an int and as its text
                raise ValueError(f"site {x} is given twice")
            counts[x] = as_int(c, f"count at site {x}", 0)
        check_shots_and_seed(self.shots, self.seed)
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
        pt = self.params_true
        return {"t": self.t, "shots": int(self.shots), "seed": int(self.seed),
                "counts": {str(x): int(c)
                           for x, c in sorted(self.counts.items())},
                "params_true": None if pt is None else {
                    "theta": pt.theta, "alpha": pt.alpha, "beta": pt.beta}}


def check_shots_and_seed(shots: int, seed: int) -> None:
    """The rule of :func:`sample`: integer shots >= 1 and seed >= 0."""
    as_int(shots, "shots", 1)
    as_int(seed, "seed", 0)


def sample(dist: PositionDistribution, shots: int, seed: int,
           params_true: CoinParams | None = None, stream=()) -> MeasurementRecord:
    """Multinomial position draws; deterministic in (seed, stream)."""
    check_shots_and_seed(shots, seed)
    rng = philox_rng(seed, *stream)
    p = dist.probs / dist.probs.sum()
    draws = rng.multinomial(shots, p)
    counts = {int(x): int(c) for x, c in zip(dist.sites, draws) if c}
    return MeasurementRecord(t=dist.t, shots=int(shots), counts=counts,
                             seed=int(seed), params_true=params_true)


# ---------------------------------------------------------------------------
# the position model with its derivatives, and classical information


def _engine_inputs(init: WalkerState, beta: float, t: int):
    """(family, freqs): the :class:`walk.ThetaFamily` on the window
    :meth:`SiteWindow.after` of the input's alpha-frequency groups, and
    their frequencies f (F,).  Group f holds coin 0 of site f and coin 1
    of site f - 1, turned by D(-beta/2), so alpha multiplies it by
    e^{-i alpha f} up to a global phase (:func:`make_likelihood_table`).
    """
    window = SiteWindow.after(init, t)
    # D(-beta/2) multiplies in as a row of per-coin factors and chi as the
    # left factor below: in place or swapped, a vectorised complex product
    # can round differently
    coin_phases = np.ones((2, 1), dtype=complex)
    times_d(coin_phases, -0.5 * beta)
    amps = init.amps * coin_phases.T
    rows, coins = np.nonzero(amps)
    offsets, group = np.unique(rows + coins, return_inverse=True)
    chi = np.zeros((offsets.size, 2), dtype=complex)
    chi[group, coins] = amps[rows, coins]
    freqs = init.origin + offsets
    # chi_f(k) = sum_c chi[f, c] e^{-ik(f - c)} e_c
    waves = chi * plane_waves(window.nodes, freqs[:, None] - np.arange(2))
    return ThetaFamily.on(window, waves.transpose(1, 2, 0)), freqs


def _derivatives(theta: float, alpha: float, family: ThetaFamily,
                 freqs: np.ndarray):
    """(sites, probs, dprobs, d2probs): p(x) and its exact derivatives at
    (theta, alpha) from the engine inputs of :func:`_engine_inputs`.

    dprobs (2, width) holds d_theta p, d_alpha p and d2probs (3, width)
    the second derivatives (theta theta, theta alpha, alpha alpha), at
    the family's fixed beta, from one engine run on the frequency groups
    of :func:`make_likelihood_table`.  alpha multiplies group f by
    e^{-i alpha f}, so d_alpha multiplies it by -i f and d2_alpha by
    -f^2, as (3, F) weights on the groups; :meth:`walk.ThetaFamily.run`
    gives the theta derivatives of (S R(theta))^t on those three sums.
    One inverse FFT takes the six spinor arrays to sites, where d_mu p =
    2 Re conj(psi) d_mu psi and
    d_mu d_nu p = 2 Re [conj(d_mu psi) d_nu psi + conj(psi) d_mu d_nu psi].
    """
    phase = np.exp(-1j * alpha * freqs)
    jet = family.run(theta, 2, np.array([phase, -1j * freqs * phase,
                                         -(freqs ** 2) * phase]))
    window = family.window
    # psi, d_theta, d_alpha, d2_theta, d_theta d_alpha, d2_alpha: (6, 2, width)
    amps = window.to_sites(jet[[0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 1, 2]])
    r = (amps[0].conj() * amps).real.sum(axis=1)
    q = (amps[[1, 1, 2]].conj() * amps[[1, 2, 2]]).real.sum(axis=1)
    return window.sites, r[0], 2.0 * r[1:3], 2.0 * (q + r[3:])


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
    _, probs, dprobs, _ = _derivatives(p.theta, p.alpha,
                                       *_engine_inputs(init, p.beta, t))
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
        for name in ("theta_min", "theta_max", "alpha_min", "alpha_max"):
            object.__setattr__(self, name, as_real(getattr(self, name),
                                                   f"grid edge {name}"))
        if not (self.theta_min < self.theta_max and self.alpha_min < self.alpha_max):
            raise ValueError("grid box is empty")
        for name in ("n_theta", "n_alpha"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if min(self.n_theta, self.n_alpha) < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def axes(self):
        return (np.linspace(self.theta_min, self.theta_max, self.n_theta),
                np.linspace(self.alpha_min, self.alpha_max, self.n_alpha))


@dataclass(frozen=True)
class LikelihoodTable:
    """The (theta, alpha) position model on a grid, shots-independent.

    p = max(trig @ B, 0) as its two factors: the cos/sin matrix ``trig``
    (n_alpha, 1 + 2D) and ``B`` (n_theta, 1 + 2D, n_sites) of
    :func:`make_likelihood_table`.  No array of the grid's full size is
    kept: :func:`mle_fit` forms log p per record on the theta rows it
    needs, and :attr:`probs` forms p on first use.  ``log_bound``
    (n_theta, n_sites) is log max(B_0 + 2 sum_d |B_d|, 1e-300), the
    per-site upper bound on log p over alpha that :func:`_grid_loglik`
    prunes theta rows by.  ``engine`` and ``freqs`` are the table's and
    the fits' :class:`walk.ThetaFamily`, whose factors hold beta, and its
    group frequencies, from :func:`_engine_inputs`.  Building it peaks at
    B plus one block of theta rows of the engine.
    """

    grid: GridSpec
    trig: np.ndarray
    B: np.ndarray
    log_bound: np.ndarray
    engine: ThetaFamily
    freqs: np.ndarray

    @property
    def sites(self) -> np.ndarray:
        return self.engine.window.sites

    @property
    def t(self) -> int:
        return self.engine.window.t

    @cached_property
    def probs(self) -> np.ndarray:
        """max(trig @ B, 0), (n_theta, n_alpha, n_sites); formed once."""
        probs = np.matmul(self.trig, self.B)
        np.maximum(probs, 0.0, out=probs)
        return probs


def make_likelihood_table(init: WalkerState, p_true: CoinParams, t: int,
                          grid: GridSpec | None = None) -> LikelihoodTable:
    """Tabulate p(x | theta, alpha) over the grid at fixed beta = p_true.beta
    as the factors of a trigonometric polynomial in alpha.

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
    on the F <= n0 + 1 group spinors, from node factors formed once per
    table (:class:`walk.ThetaFamily` at order 0), with one inverse FFT
    along the contiguous node axis that leaves p = 0 off the light cone;
    B takes F^2 coin-summed products, and p is the real product of the
    (n_alpha, 1 + 2D) cos/sin matrix with B (n_theta, 1 + 2D, width)
    over the D positive frequencies d that occur.  The cost is
    O(n_theta * n_nodes * F) for the powers and O(n_theta * F^2 * width)
    for B; t enters only through the window width.  The product itself,
    O(n_alpha * D) per theta row and site, is left to the fits, which
    need it on few rows and sites.

    The engine, the FFT and the products run on blocks of theta rows,
    max(1, ``_BLOCK_SPINORS`` // (F * n_nodes)) at a time (75 rows on
    the 108 nodes of the entangled input at t = 50, 4 on 2048 at t =
    1000), and each block writes its rows of B and of the row bound
    ``log_bound`` in place.  Every
    row takes the same FFT and elementwise products whatever the block
    height, so B does not depend on it to the last bit, and the build
    peaks at B plus one block's O(_BLOCK_SPINORS) arrays.  The table
    keeps the two factors, the bound and the engine inputs, nothing of
    the grid's full size.  Each fit forms its own log-likelihood from
    them (:func:`_grid_loglik`).

    The theta box must keep |sin theta| >= ``walk.MIN_SIN_THETA``, the
    gate of :class:`walk.CoinParams`: the fits can reach any theta of
    the box, and at sin theta = 0 the coin does not mix.
    """
    grid = grid or GridSpec()
    lo, hi = grid.theta_min, grid.theta_max
    # |sin theta| on the box is 0 at a multiple of pi inside it and else
    # smallest at an end; below the CoinParams gate the coin does not mix
    if (math.ceil(lo / math.pi) * math.pi <= hi
            or min(abs(math.sin(lo)), abs(math.sin(hi))) < MIN_SIN_THETA):
        raise ValueError("grid touches a degenerate quasi-energy; "
                         "shrink the box or step explicitly")
    thetas, alphas = grid.axes()
    engine, freqs = _engine_inputs(init, p_true.beta, t)
    window = engine.window

    # B_d for d = 0 and each positive difference d = f' - f that occurs
    diffs = freqs[:, None] - freqs[None, :]
    # sorted with its repeats dropped: np.unique would import numpy.ma
    ds = np.sort(diffs[diffs > 0])
    ds = ds[np.diff(ds, prepend=0) != 0]
    n_d = ds.size
    pairs = [(f1, f, 1 + np.searchsorted(ds, diffs[f1, f]))
             for f1, f in zip(*np.nonzero(diffs > 0))]
    b = np.zeros((thetas.size, 1 + 2 * n_d, window.width))
    log_bound = np.empty((thetas.size, window.width))
    height = max(1, _BLOCK_SPINORS // (freqs.size * window.nodes.size))
    for start in range(0, thetas.size, height):
        rows = slice(start, start + height)
        # Phi_f on this block's thetas: (rows, F, 2, width)
        phis = window.to_sites(engine.run(thetas[rows])[0])
        block = b[rows]
        block[:, 0] = np.sum(phis.real ** 2 + phis.imag ** 2, axis=(1, 2))
        for f1, f, j in pairs:
            prod = np.sum(phis[:, f1].conj() * phis[:, f], axis=-2)
            block[:, j] += prod.real
            block[:, j + n_d] += prod.imag
        bound = block[:, 0] + 2.0 * np.hypot(block[:, 1:1 + n_d],
                                             block[:, 1 + n_d:]).sum(axis=1)
        log_bound[rows] = np.log(np.maximum(bound, 1e-300))
    phase = np.outer(alphas, ds)
    trig = np.concatenate([np.ones((alphas.size, 1)), 2.0 * np.cos(phase),
                           -2.0 * np.sin(phase)], axis=1)
    return LikelihoodTable(grid=grid, trig=trig, B=b,
                           log_bound=log_bound, engine=engine, freqs=freqs)


def _grid_loglik(table: LikelihoodTable, counts: np.ndarray):
    """(loglik (n_theta, n_alpha), rows evaluated) for one count vector.

    loglik = log max(p, 1e-300) @ counts on the theta rows that can hold
    a cell within ``_NEAR_MAX`` of the grid maximum, each row formed
    from the two factors on its own; every other row is -inf.  Since
    |2 Re(e^{i alpha d} B_d)| <= 2 |B_d|, each row is bounded above by

        U(theta) = sum_x n_x log max(B_0 + 2 sum_d |B_d|, 1e-300),

    a sum of the table's ``log_bound`` over the counted sites alone.
    Rows are evaluated in blocks of doubling size (up to
    ``_BLOCK_CELLS``) in order of falling U, until the next U, plus a
    rounding margin of 1e-9 of the sums' scale (shots + |max|), lies
    more than ``_NEAR_MAX`` below the running maximum: no later row can
    then reach the mask of :func:`mle_fit`, so its argmax, mask and
    flood fill are those of the full grid.  The rows next to the argmax
    row are evaluated as well, for the parabolic start.
    """
    seen = counts > 0
    n = counts[seen]
    upper = table.log_bound[:, seen] @ n
    order = np.argsort(-upper, kind="stable")
    n_theta = table.B.shape[0]
    loglik = np.full((n_theta, table.trig.shape[0]), -np.inf)
    done = np.zeros(n_theta, dtype=bool)

    def evaluate(rows):
        # whole rows, counted sites or not: the same cells, to the last
        # bit, as the product over the whole grid
        block = np.matmul(table.trig, table.B[rows])
        np.maximum(block, 1e-300, out=block)
        np.log(block, out=block)
        loglik[rows] = block @ counts
        done[rows] = True

    largest = max(1, _BLOCK_CELLS // table.trig.shape[0] // table.B.shape[2])
    lo, size, best = 0, 1, -np.inf
    while lo < order.size:
        rows = order[lo:lo + size]
        evaluate(rows)
        lo += size
        size = min(2 * size, largest)
        best = max(best, float(loglik[rows].max()))
        margin = 1e-9 * (float(n.sum()) + abs(best))
        if lo < order.size and upper[order[lo]] + margin < best - _NEAR_MAX:
            break
    it = int(np.argmax(loglik)) // loglik.shape[1]
    near = np.arange(max(it - 1, 0), min(it + 2, n_theta))
    evaluate(near[~done[near]])
    return loglik, int(done.sum())


def _connected_from_argmax(mask: np.ndarray, start) -> np.ndarray:
    """Cells of ``mask`` reachable 4-connectedly from ``start``.

    A flood fill over the runs of consecutive mask cells in each row: a
    run reaches the runs of the rows next to it that share a column
    with it, found by bisection, so the work is O(cells) in numpy to
    find the runs and O(runs log runs) in Python to connect them.
    """
    reached = np.zeros_like(mask)
    i0, j0 = int(start[0]), int(start[1])
    if not mask[i0, j0]:
        return reached
    n_rows, n_cols = mask.shape
    # each row framed by empty cells, so no run crosses into the next
    framed = np.zeros((n_rows, n_cols + 2), dtype=bool)
    framed[:, 1:-1] = mask
    cells = framed.ravel()
    # run r covers columns run_lo[r] .. run_hi[r] - 1 of row run_row[r];
    # row i holds runs first[i] .. first[i + 1] - 1, left to right
    run_row, run_lo = np.divmod(
        np.flatnonzero(cells[1:] & ~cells[:-1]), n_cols + 2)
    run_hi = (np.flatnonzero(cells[:-1] & ~cells[1:]) % (n_cols + 2)).tolist()
    first = np.searchsorted(run_row, np.arange(n_rows + 1)).tolist()
    run_row, run_lo = run_row.tolist(), run_lo.tolist()
    r0 = bisect_right(run_lo, j0, first[i0], first[i0 + 1]) - 1
    linked = {r0}
    stack = [r0]
    while stack:
        r = stack.pop()
        i, lo, hi = run_row[r], run_lo[r], run_hi[r]
        for k in (i - 1, i + 1):
            if not 0 <= k < n_rows:
                continue
            # the runs of row k with run_hi > lo and run_lo < hi
            for q in range(bisect_right(run_hi, lo, first[k], first[k + 1]),
                           bisect_left(run_lo, hi, first[k], first[k + 1])):
                if q not in linked:
                    linked.add(q)
                    stack.append(q)
    for r in linked:
        reached[run_row[r], run_lo[r]:run_hi[r]] = True
    return reached


@dataclass(frozen=True)
class MLEResult:
    """A fit and how it got there.

    ``scoring_steps`` counts the ``iterations`` that fell back from
    Newton to Fisher scoring, ``last_step`` is the largest component of
    the last step taken (inf if none was) and ``score_norm`` the norm of
    the log-likelihood gradient at the returned point.  ``on_edge``
    names the parameters the last step held on an edge of the grid box
    because their step pointed out of it.  ``rows_evaluated`` counts the
    theta rows of the grid the grid stage formed (:func:`_grid_loglik`).
    """

    theta: float
    alpha: float
    cov: np.ndarray
    loglik: float
    multimodal: bool
    converged: bool
    iterations: int
    grid_theta: float
    grid_alpha: float
    scoring_steps: int
    last_step: float
    score_norm: float
    on_edge: tuple
    rows_evaluated: int


def _parabolic_vertex(axis: np.ndarray, values: np.ndarray, i: int) -> float:
    """Vertex of the parabola through ``values`` at i - 1, i, i + 1.

    ``axis[i]`` itself at an edge of the axis or where the three values
    do not curve down.  At an argmax i the vertex lies within half a
    grid step of it.
    """
    if 0 < i < axis.size - 1:
        lo, mid, hi = values[i - 1], values[i], values[i + 1]
        curvature = lo - 2.0 * mid + hi
        if curvature < 0.0:
            return float(axis[i] + 0.5 * (axis[i + 1] - axis[i])
                         * (lo - hi) / curvature)
    return float(axis[i])


def _pseudo_inverse(m: np.ndarray, free: np.ndarray):
    """(inverse, null_weight, definite) of the symmetric ``m`` on ``free``.

    The free block is inverted off the directions with eigenvalue at or
    below tol = 1e-10 max(lambda_max(m), 1); held coordinates get zero
    rows and columns.  ``null_weight`` is each coordinate's squared
    weight on the dropped directions, and ``definite`` says no block
    eigenvalue lies below -tol.  All free costs one decomposition.
    """
    evals, evecs = np.linalg.eigh(m)
    tol = 1e-10 * max(float(evals.max()), 1.0)
    if not free.all():
        evals, block = np.linalg.eigh(m[np.ix_(free, free)])
        evecs = np.zeros((m.shape[0], evals.size))
        evecs[free] = block
    good = evals > tol
    inverse = (evecs * np.where(good, 1.0 / np.where(good, evals, 1.0),
                                0.0)) @ evecs.T
    null_weight = (evecs[:, ~good] ** 2).sum(axis=1)
    return inverse, null_weight, bool(evals.min(initial=0.0) >= -tol)


def mle_fit(rec: MeasurementRecord, table: LikelihoodTable,
            max_refine: int = 12) -> MLEResult:
    """Maximum-likelihood (theta, alpha) from position counts.

    Grid search over the shared table (:func:`_grid_loglik`, which forms
    only the theta rows that can reach the maximum), a connectivity
    diagnostic for secondary modes (cells within 2 log-likelihood units
    of the maximum that do not touch the main one), then at most
    ``max_refine`` Newton steps from the parabolic vertex of the grid
    log-likelihood through the argmax and its neighbours on each axis.
    Each step takes one engine run for the score and the observed
    information J = sum_x n_x [dp dp^T / p^2 - d2p / p] with exact
    second derivatives.  One rule inverts every curvature: the inverse
    off the directions with eigenvalue at or below
    1e-10 max(lambda_max, 1) (:func:`_pseudo_inverse`).  It gives the
    Newton step, the Fisher-scoring step it falls back to where J has
    an eigenvalue below minus that cutoff, the step retaken on the free
    coordinate of an edge, and the covariance.
    A step longer than one grid cell on either axis is shortened to
    one, so the fit stays with the grid maximum even where the
    likelihood wiggles on the scale of a cell (few shots).  The fit
    stops when no component of a step reaches ``STEP_TOL`` = 1e-9.  It
    is clipped to the grid box: a coordinate on an edge of the box whose
    step points out of it by ``STEP_TOL`` or more is held there
    (``on_edge``), and the step is retaken on the other coordinate
    alone, so a fit pinned by the box converges too.  One more run at
    the returned point gives the covariance estimate (the inverse of J
    there) and the log-likelihood.  A parameter weighing more than 1/2
    on the dropped directions (the position marginal can be exactly
    flat in alpha for some inputs) gets an infinite variance.
    ``table`` comes from :func:`make_likelihood_table` at the record's t.
    """
    if rec.t != table.t:
        raise ValueError(f"record t={rec.t} disagrees with the table t={table.t}")
    counts = rec.count_vector(table.sites)
    loglik, rows_evaluated = _grid_loglik(table, counts)
    flat_idx = int(np.argmax(loglik))
    it, ia = np.unravel_index(flat_idx, loglik.shape)
    thetas, alphas = table.grid.axes()
    th_hat, al_hat = float(thetas[it]), float(alphas[ia])
    mask = loglik >= loglik[it, ia] - _NEAR_MAX
    reached = _connected_from_argmax(mask, (it, ia))
    multimodal = bool(mask.sum() - reached.sum() > 0)

    box = table.grid
    lower = [box.theta_min, box.alpha_min]
    upper = [box.theta_max, box.alpha_max]
    cell = np.array([thetas[1] - thetas[0], alphas[1] - alphas[0]])
    x = np.array([_parabolic_vertex(thetas, loglik[:, ia], it),
                  _parabolic_vertex(alphas, loglik[it], ia)])
    converged = False
    iters = scoring_steps = 0
    last_step = np.inf
    every = np.ones(2, dtype=bool)
    held = ~every
    while True:
        _, probs, dprobs, d2probs = _derivatives(x[0], x[1], table.engine,
                                                 table.freqs)
        live = probs > MASS_THRESHOLD
        n = counts[live]
        g = dprobs[:, live] / probs[live]
        score = g @ n
        h = (d2probs[:, live] / probs[live]) @ n
        observed = (g * n) @ g.T - np.array([[h[0], h[1]], [h[1], h[2]]])
        j_inv, null_weight, definite = _pseudo_inverse(observed, every)
        if converged or iters == max_refine:
            break
        iters += 1
        curvature, inverse = observed, j_inv
        if not definite:
            scoring_steps += 1
            curvature = _information(probs, dprobs) * rec.shots
            inverse = _pseudo_inverse(curvature, every)[0]
        step = inverse @ score
        # a coordinate on the box edge whose step points out of the box
        # by the tolerance or more stays there, and the step is retaken
        # on the others
        outward = np.where(x <= lower, -step, np.where(x >= upper, step, 0.0))
        held = outward >= STEP_TOL
        if held.any():
            step = _pseudo_inverse(curvature, ~held)[0] @ score
        step = step / max(1.0, float(np.max(np.abs(step) / cell)))
        x = np.clip(x + step, lower, upper)
        last_step = float(np.max(np.abs(step)))
        converged = last_step < STEP_TOL

    # a parameter living mostly in a zero-information direction has no
    # finite variance; report inf there instead of the zero of the inverse
    cov = j_inv
    cov[np.diag_indices_from(cov)] = np.where(null_weight > 0.5, np.inf,
                                              np.diag(cov))
    ll_fit = float(np.sum(n * np.log(probs[live]))) \
        if np.all(counts[~live] == 0) else -np.inf
    return MLEResult(theta=float(x[0]), alpha=float(x[1]), cov=cov,
                     loglik=ll_fit, multimodal=multimodal, converged=converged,
                     iterations=iters, grid_theta=th_hat, grid_alpha=al_hat,
                     scoring_steps=scoring_steps, last_step=last_step,
                     score_norm=float(np.linalg.norm(score)),
                     on_edge=tuple(name for name, h in
                                   zip(("theta", "alpha"), held) if h),
                     rows_evaluated=rows_evaluated)
