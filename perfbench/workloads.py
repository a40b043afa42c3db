"""The three in-process workloads: routes-ladder, analytic-scan and
estimation-closure.

Each workload draws its inputs from the seed in ``setup`` (which also
imports the package and runs one small warm-up item), and then runs
``job`` as often as the run length allows.  ``job`` calls the package's
public functions through their modules (``W.evolve``, not a local
name), so the tracer's wrappers see every call.  Each operation is
checked; an operation fails if it raises or if its check fails.
``wrong_reference`` replaces one reference value by a wrong one, which
the self-test uses to show that the checks catch errors.
"""
from __future__ import annotations

import math

import numpy as np

import qwfisher.bounds as B
import qwfisher.cases as C
import qwfisher.estimation as E
import qwfisher.oracle as O
import qwfisher.qfim as Q
import qwfisher.walk as W
from harness import (ROUND_TRIP_TOL, ROUTE_TOL, SIGMA_MULTIPLE, Ops, expect,
                     fit_flag_ok, refine_budget, stage)

PAIR = ("theta", "alpha")
TRIPLE = ("theta", "alpha", "beta")
EVOLVE_TOL = 1e-10
NORM_TOL = 1e-12
LOCALIZED_TOL = 1e-8


class RoutesLadder:
    """Exact finite-t information and evolution on a doubling t ladder.

    A seeded coin and two inputs, the entangled pair and a seeded gamma
    state.  ``qfim_exact`` and ``uhlmann_exact`` run on each rung with a
    ``qfim_theorem1`` cross-check; ``evolve`` and ``evolve_k`` run on a
    second ladder up to t = 1024 and are compared with each other.  The
    O(t * n_nodes) generator recurrence and the dense k-space transforms
    do almost all the work.
    """

    SIZES = {"full": ((32, 64, 128, 256), (256, 512, 1024)),
             "tiny": ((8, 16, 32), (16, 32, 64))}

    def __init__(self, seed: int, size: str, wrong_reference: bool = False):
        self.seed = seed
        self.oracle_ts, self.evolve_ts = self.SIZES[size]
        self.reference_scale = 1.5 if wrong_reference else 1.0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        theta = rng.uniform(0.3, 1.3)
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        gamma = rng.uniform(0.0, 2.0 * math.pi)
        self.p = W.CoinParams(theta, alpha, beta)
        self.inputs = {"entangled": W.initial_entangled(0, 1),
                       "gamma": W.initial_gamma(gamma)}
        init = self.inputs["entangled"]
        O.qfim_exact(init, self.p, 2, params=PAIR)
        O.uhlmann_exact(init, self.p, 2, params=PAIR)
        Q.qfim_theorem1(self.p, init, 2, params=PAIR)
        W.evolve_k(init, self.p, 2)

    def prepare(self) -> None:
        pass

    def job(self, ops, timer: dict) -> None:
        p = self.p
        for label, init in self.inputs.items():
            devs = []
            for t in self.oracle_ts:
                with ops.op(f"oracle {label} t={t}"):
                    f = O.qfim_exact(init, p, t, params=PAIR)
                    d = O.uhlmann_exact(init, p, t, params=PAIR)
                    ref = Q.qfim_theorem1(p, init, t, params=PAIR).per_t2 \
                        * self.reference_scale
                    expect(np.all(np.isfinite(d.entries)),
                           "curvature not finite")
                    devs.append(max(abs(f.per_t2[i, i] / ref[i, i] - 1.0)
                                    for i in range(2)))
            with ops.op(f"oracle {label} convergence"):
                expect(len(devs) == len(self.oracle_ts),
                       "a rung of the ladder failed")
                expect(devs[-1] <= ROUTE_TOL and devs[-1] < devs[0],
                       f"deviation from the asymptote {devs} does not "
                       f"shrink to within {ROUTE_TOL}")
        init = self.inputs["entangled"]
        for t in self.evolve_ts:
            with ops.op(f"evolve t={t}"):
                a = W.evolve(init, p, t)
                b = W.evolve_k(init, p, t)
                expect(a.origin == b.origin and a.amps.shape == b.amps.shape,
                       "windows differ")
                diff = float(np.max(np.abs(a.amps - b.amps)))
                expect(diff <= EVOLVE_TOL, f"evolve vs evolve_k {diff:.2e}")
                drift = abs(float(np.sum(np.abs(a.amps) ** 2)) - 1.0)
                expect(drift <= NORM_TOL, f"norm drift {drift:.2e}")


def _stratified(rng, lo: float, hi: float, n: int, log: bool = False):
    """One uniform draw in each of n equal strata of [lo, hi]."""
    if log:
        return np.exp(_stratified(rng, math.log(lo), math.log(hi), n))
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


class AnalyticScan:
    """Asymptotic route, bounds and encodings; no oracle, no estimation.

    Seeded (theta, alpha, beta) points, stratified in theta over the
    open mixing range, plus near-degenerate points (theta <= 0.01) where
    Gauss node doubling goes deep.  Each point gets the 3-parameter
    ``qfim_theorem1`` on both inputs, the bounds on the (theta, alpha)
    block and a ``qfim_localized`` cross-check; the scan ends with
    seeded magnetic and Dirac round trips and their pullbacks.

    The node count of a deep point jumps between 4096 and 16384 with
    where alpha puts the integrand's peak among the Gauss panels, so the
    deep points take (theta, alpha) from one fixed draw and only beta
    and the input's gamma from the seed: every seed then does the same
    quadrature work.
    """

    SIZES = {"full": {"points": 64, "degenerate": 16, "cases": 24},
             "tiny": {"points": 3, "degenerate": 1, "cases": 2}}
    DEEP_DRAW = 20211005
    T = 100
    DIRAC_EPS, DIRAC_AX = 0.1, 0.8

    def __init__(self, seed: int, size: str, wrong_reference: bool = False):
        self.seed = seed
        self.size = self.SIZES[size]
        self.reference_scale = 1.001 if wrong_reference else 1.0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        deep = np.random.default_rng(self.DEEP_DRAW)
        n, nd = self.size["points"], self.size["degenerate"]
        thetas = np.concatenate([_stratified(rng, 0.05, 1.5, n),
                                 _stratified(deep, 0.002, 0.01, nd, log=True)])
        alphas = np.concatenate([rng.uniform(-math.pi, math.pi, size=n),
                                 deep.uniform(-math.pi, math.pi, size=nd)])
        betas = rng.uniform(-math.pi, math.pi, size=n + nd)
        gammas = rng.uniform(0.0, 2.0 * math.pi, size=n + nd)
        self.points = [(W.CoinParams(th, al, be), W.initial_gamma(g), g)
                       for th, al, be, g in zip(thetas, alphas, betas, gammas)]
        self.entangled = W.initial_entangled(0, 1)
        self.fields = []
        while len(self.fields) < self.size["cases"]:
            b2, b3 = rng.uniform(-1.5, 1.5, size=2)
            if abs(b2) >= 0.2 and math.hypot(b2, b3) <= math.pi / 2 - 0.02:
                self.fields.append(C.MagneticField(b2=b2, b3=b3))
        self.dirac = []
        while len(self.dirac) < self.size["cases"]:
            m, q = rng.uniform(-3.0, 3.0, size=2)
            if abs(m) >= 0.5 and self.DIRAC_EPS * math.hypot(
                    m, q * self.DIRAC_AX) <= math.pi / 2 - 0.02:
                self.dirac.append(C.DiracParams(m=m, q=q, a_x=self.DIRAC_AX,
                                                eps=self.DIRAC_EPS))
        # a near-degenerate point fills the Gauss rule caches; the
        # warm-up's checks count for nothing
        with Ops().op("warm-up"):
            self._point(W.CoinParams(0.005, 0.3, -0.2), W.initial_gamma(0.4),
                        0.4)
            self._magnetic(self.fields[0])
            self._dirac(self.dirac[0])

    def prepare(self) -> None:
        pass

    def _point(self, p, gamma_init, gamma) -> None:
        for init in (self.entangled, gamma_init):
            # after the loop, block is the gamma input's (theta, alpha) block
            block = Q.qfim_theorem1(p, init, self.T, params=TRIPLE).block(PAIR)
            d = Q.uhlmann_analytic(p, init, self.T, params=PAIR)
            cs = B.symmetric_bound(block)
            lo, hi = B.sandwich(block, None, d)
            holevo = B.holevo_compatible(block, None, d).value
            expect(math.isfinite(cs) and cs > 0.0, f"symmetric bound {cs}")
            expect(0.0 <= lo <= hi and math.isfinite(hi), f"sandwich {lo, hi}")
            expect(holevo == cs, f"compatible Holevo {holevo} != {cs}")
        r = np.array([math.cos(gamma), math.sin(gamma), 0.0])
        ref = Q.qfim_localized(p.theta, p.alpha - p.beta, r, self.T).entries \
            * self.reference_scale
        dev = float(np.max(np.abs(block.entries - ref)) / np.max(np.abs(ref)))
        expect(dev <= LOCALIZED_TOL, f"localized closed form off by {dev:.2e}")

    def _pullback(self, coin, jac, labels) -> None:
        f_coin = Q.qfim_theorem1(coin, self.entangled, self.T, params=PAIR)
        cs = B.symmetric_bound(C.pullback_qfim(f_coin, jac, labels))
        expect(math.isfinite(cs) and cs > 0.0, f"pulled-back bound {cs}")

    def _magnetic(self, field) -> None:
        coin = C.coin_from_magnetic(field)
        back, _ = C.magnetic_from_coin(coin, full_output=True)
        err = max(abs(back.b2 - field.b2), abs(back.b3 - field.b3))
        expect(err <= ROUND_TRIP_TOL, f"field round trip {err:.2e}")
        self._pullback(coin, C.magnetic_jacobian(field), ("b2", "b3"))

    def _dirac(self, dp) -> None:
        coin = C.coin_from_dirac(dp)
        (m, q), _ = C.dirac_from_coin(coin, dp.a_x, dp.eps, full_output=True)
        err = max(abs(m - dp.m), abs(q - dp.q))
        expect(err <= ROUND_TRIP_TOL, f"Dirac round trip {err:.2e}")
        self._pullback(coin, C.dirac_jacobian(dp), ("m", "q"))

    def job(self, ops, timer: dict) -> None:
        for i, (p, gamma_init, gamma) in enumerate(self.points):
            with ops.op(f"point {i} theta={p.theta:.4g}"):
                self._point(p, gamma_init, gamma)
        for i, field in enumerate(self.fields):
            with ops.op(f"magnetic {i}"):
                self._magnetic(field)
        for i, dp in enumerate(self.dirac):
            with ops.op(f"dirac {i}"):
                self._dirac(dp)


class EstimationClosure:
    """Acceptance criterion 12, scaled down: one table, then seeded fits.

    Same point (pi/4, 0, 0), input and t = 50 as the criterion, with the
    default 200 x 200 grid.  The job builds the likelihood table, then
    samples and fits records at four shot levels, a few seeds each.
    Scoring calls the oracle many times at t = 50, where the ladder makes
    a few large calls.
    """

    SIZES = {"full": (50, (200, 200), (1000, 4642, 21544, 100_000), 2),
             "tiny": (10, (12, 12), (1000, 100_000), 1)}

    def __init__(self, seed: int, size: str, wrong_reference: bool = False):
        self.seed = seed
        self.t, (self.n_theta, self.n_alpha), self.levels, self.per_level = \
            self.SIZES[size]
        self.reference_shift = 0.1 if wrong_reference else 0.0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.p = W.CoinParams(math.pi / 4, 0.0, 0.0)
        self.init = W.initial_entangled(0, 1)
        self.grid = E.GridSpec(n_theta=self.n_theta, n_alpha=self.n_alpha)
        self.dist = E.position_distribution(W.evolve(self.init, self.p, self.t))
        self.records = [(shots, int(s)) for shots in self.levels
                        for s in rng.integers(0, 2**31, size=self.per_level)]
        t_warm = 4
        warm = E.make_likelihood_table(self.init, self.p, t_warm,
                                       E.GridSpec(n_theta=4, n_alpha=4))
        dist = E.position_distribution(W.evolve(self.init, self.p, t_warm))
        E.mle_fit(E.sample(dist, 100, 0), table=warm)

    def prepare(self) -> None:
        info = E.classical_fi(self.p, self.init, self.t)[0, 0]
        self.sigma_one_shot = 1.0 / math.sqrt(info)
        self.budget = refine_budget(E.mle_fit)

    def job(self, ops, timer: dict) -> None:
        table = None
        with ops.op("likelihood table"):
            with stage(timer, "table"):
                table = E.make_likelihood_table(self.init, self.p, self.t,
                                                self.grid)
            sums = table.probs.sum(axis=2)
            expect(table.probs.shape[:2] == (self.n_theta, self.n_alpha),
                   f"table shape {table.probs.shape}")
            expect(float(np.max(np.abs(sums - 1.0))) <= 1e-10,
                   "table rows do not sum to 1")
        truth = self.p.theta + self.reference_shift
        for shots, seed in self.records:
            with ops.op(f"fit shots={shots} seed={seed}"):
                expect(table is not None, "no likelihood table")
                with stage(timer, "fit"):
                    rec = E.sample(self.dist, shots, seed, stream=(shots,))
                    fit = E.mle_fit(rec, table=table)
                expect(fit_flag_ok(fit.converged, fit.iterations, self.budget),
                       f"not converged after {fit.iterations} of "
                       f"{self.budget} steps")
                z = abs(fit.theta - truth) / (self.sigma_one_shot
                                              / math.sqrt(shots))
                expect(z <= SIGMA_MULTIPLE,
                       f"theta_hat {fit.theta!r} is {z:.1f} sigma off")
