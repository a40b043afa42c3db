"""The thirteen headline checks, one test per criterion.

Each test prints a single `criterion NN [PASS/FAIL]` line (visible with
pytest -s) and then asserts, so a red run still shows every verdict.
Shared heavyweight artefacts (finite-time matrices, the likelihood
table) are cached at module scope.
"""
import math
import time

import numpy as np
import pytest

from qwfisher import (CoinParams, GridSpec, beta_null_check, classical_fi,
                      evolve, g_of_theta, incompatibility_R,
                      initial_entangled, initial_gamma, initial_localized,
                      make_likelihood_table, mle_fit, position_distribution,
                      qfim_exact, qfim_localized, qfim_theorem1, sample,
                      single_param_qfi, sweep_fig2, symmetric_bound,
                      uhlmann_analytic, uhlmann_exact)
from qwfisher.cases import (DiracParams, MagneticField, coin_from_dirac,
                            coin_from_magnetic, dirac_first_order,
                            dirac_from_coin, magnetic_from_coin)
from qwfisher.walk import uniform_k_grid

from oracles import (G_QUARTER_PI, G_THREE_EIGHTHS_PI, GOLDEN_COMMON,
                     GOLDEN_THETA, a1_grid, evolve_steps,
                     pauli_conjugation_dense,
                     qfim_first_term, random_coin_angles, random_spinor,
                     z_turn)

QUARTER_PI = math.pi / 4


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def fixture_point():
    return CoinParams(QUARTER_PI, 0.0, 0.0), initial_entangled(0, 1)


@pytest.fixture(scope="module")
def exact_cache():
    return {}


def test_criterion_01_maximal_diagonal_closed_forms():
    t0 = time.perf_counter()
    thetas = np.linspace(0.105, 1.465, 50)
    worst = 0.0
    for th in thetas:
        s = math.sin(th)
        first = qfim_first_term(CoinParams(th, 0.0, 0.0))
        worst = max(worst,
                    abs(first[0, 0] / (4.0 * s / (1.0 + s)) - 1.0),
                    abs(first[1, 1] / (4.0 * (1.0 - s)) - 1.0))
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-6 and dt < 10.0,
           f"max rel err {worst:.2e} over 50 angles in {dt:.1f}s")


def test_criterion_02_phase_row_is_null():
    rng = np.random.default_rng(2)
    worst = 0.0
    for th, al, be in random_coin_angles(rng, 100):
        worst = max(worst, beta_null_check(CoinParams(th, al, be)))
    report(2, worst <= 1e-12,
           f"max stationary-projection residual {worst:.2e} "
           "over 100 random coins")


def test_criterion_03_projector_algebra():
    rng = np.random.default_rng(3)
    nodes = uniform_k_grid(512)
    worst_idem = worst_abs = worst_tr = 0.0
    for th, al, be in random_coin_angles(rng, 100):
        p = CoinParams(th, al, be)
        a1 = a1_grid(p, nodes)
        # the lab map in the reduced frame of a1_grid
        r = z_turn(p.beta - p.alpha)
        m4 = r @ pauli_conjugation_dense(p.theta, p.alpha, p.beta, nodes) @ r.T
        worst_idem = max(worst_idem, float(np.abs(a1 @ a1 - a1).max()))
        worst_abs = max(worst_abs, float(np.abs(m4 @ a1 - a1).max()))
        tr = np.einsum("nii->n", a1)
        worst_tr = max(worst_tr, float(np.abs(tr - 2.0).max()))
    ok = worst_idem <= 1e-12 and worst_abs <= 1e-12 and worst_tr <= 1e-12
    report(3, ok, f"idempotency {worst_idem:.2e}, absorption {worst_abs:.2e}, "
                  f"trace {worst_tr:.2e}")


def test_criterion_04_oracle_converges_to_asymptote(fixture_point,
                                                    exact_cache):
    p, init = fixture_point
    t0 = time.perf_counter()
    analytic = qfim_theorem1(p, init, 1).per_t2
    devs = {}
    for t in (100, 200, 400):
        f = qfim_exact(init, p, t, params=("theta", "alpha"))
        exact_cache[t] = f
        devs[t] = max(abs(f.per_t2[0, 0] / analytic[0, 0] - 1.0),
                      abs(f.per_t2[1, 1] / analytic[1, 1] - 1.0))
    dt = time.perf_counter() - t0
    ok = devs[200] <= 0.05 and devs[400] < devs[100] and dt < 60.0
    report(4, ok, f"diag deviation {devs[100]:.2e} (t=100) -> "
                  f"{devs[200]:.2e} (t=200) -> {devs[400]:.2e} (t=400) "
                  f"in {dt:.1f}s")


def test_criterion_05_asymptotic_compatibility(fixture_point, exact_cache):
    p, init = fixture_point
    f = exact_cache.get(200) or qfim_exact(init, p, 200,
                                           params=("theta", "alpha"))
    d = uhlmann_exact(init, p, 200, params=("theta", "alpha"))
    ratio = abs(d.entries[0, 1]) / f.entries[0, 0]
    r = incompatibility_R(f, d)
    d0 = uhlmann_analytic(p, init, 200)
    exact_zero = bool(np.all(d0.entries == 0.0))
    ok = ratio <= 0.05 and r <= 0.05 and exact_zero
    report(5, ok, f"|D|/F = {ratio:.2e}, R = {r:.2e}, "
                  f"asymptotic curvature identically zero: {exact_zero}")


def test_criterion_06_single_parameter_curves():
    worst = 0.0
    for th in np.linspace(0.12, 1.45, 20):
        ratio = single_param_qfi(th, 0.0, 7) / single_param_qfi(th, 1.0, 7)
        worst = max(worst, abs(ratio / (1.0 + math.sin(th)) - 1.0))
    p = CoinParams(QUARTER_PI, 0.0, 0.0)
    t = 200
    devs = []
    for sign in (1.0, -1.0):
        chi = np.array([1.0, sign * 1j]) / math.sqrt(2.0)
        f = qfim_exact(initial_localized(0, spinor=chi), p, t,
                       params=("theta", "alpha"))
        devs.append(abs(f.entries[0, 0] / (0.97056 * t * t) - 1.0))
    ok = worst <= 1e-9 and max(devs) <= 0.05
    report(6, ok, f"extremal ratio err {worst:.2e}; finite-t curve within "
                  f"{max(devs):.2%} of the asymptotic prefactor")


def test_criterion_07_trace_bound_decay():
    errs = []
    for th, frozen in ((QUARTER_PI, G_QUARTER_PI),
                       (3 * math.pi / 8, G_THREE_EIGHTHS_PI)):
        g = g_of_theta(th)
        errs.append(abs(g / frozen - 1.0))
        t = 100
        f = qfim_theorem1(CoinParams(th, 0.0, 0.0), initial_entangled(0, 1),
                          t=t)
        errs.append(abs(symmetric_bound(f) * t * t / g - 1.0))
    curves = sweep_fig2([QUARTER_PI], 1000)["curves"]
    ts = np.asarray(curves.columns["t"], dtype=float)
    ch = np.asarray(curves.columns["c_h"])
    slope = np.polyfit(np.log(ts), np.log(ch), 1)[0]
    ok = max(errs) <= 1e-6 and abs(slope + 2.0) <= 1e-6
    report(7, ok, f"C^H t^2 = {g_of_theta(QUARTER_PI):.10f} / "
                  f"{g_of_theta(3 * math.pi / 8):.10f}, closed form vs "
                  f"trace bound err {max(errs):.2e}, decay slope {slope:+.8f}")


def test_criterion_08_golden_ratio_coin():
    f = qfim_theorem1(CoinParams(GOLDEN_THETA, 0.0, 0.0),
                      initial_entangled(0, 1), t=1)
    gap = abs(f.entries[0, 0] - f.entries[1, 1])
    common_err = max(abs(f.entries[0, 0] - GOLDEN_COMMON),
                     abs(f.entries[1, 1] - GOLDEN_COMMON))
    ok = gap <= 1e-9 and common_err <= 1e-7 \
        and abs(GOLDEN_COMMON - 1.52786) <= 1e-5
    report(8, ok, f"diagonal split {gap:.2e}, common value "
                  f"{f.entries[0, 0]:.10f}")


def test_criterion_09_localized_closed_forms():
    worst = 0.0
    t = 3
    for th in np.linspace(0.15, 1.42, 10):
        for phi in np.linspace(-math.pi, math.pi, 10, endpoint=False):
            for gam in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                r = np.array([math.cos(gam), math.sin(gam), 0.0])
                closed = qfim_localized(th, phi, r, t).entries
                quad = qfim_theorem1(CoinParams(th, phi, 0.0),
                                     initial_gamma(gam), t).entries
                worst = max(worst, float(np.abs(closed - quad).max())
                            / max(1.0, float(np.abs(closed).max())))
    th, phi = 0.8, 0.5
    s = math.sin(th)
    aligned = qfim_localized(th, phi, np.array([math.cos(phi),
                                                math.sin(phi), 0.0]), 10)
    off = abs(aligned.entries[0, 1])
    submax = aligned.entries[1, 1] < 0.999 * 4.0 * (1.0 - s) * 100.0
    ok = worst <= 1e-8 and off <= 1e-10 and submax
    report(9, ok, f"sweep max rel dev {worst:.2e} over 800 points; aligned "
                  f"case off-diagonal {off:.2e}, phase diagonal submaximal: "
                  f"{submax}")


def test_criterion_10_evolution_correctness():
    p = CoinParams(0.85, 0.4, -0.6)
    init = initial_gamma(1.3)
    worst = 0.0
    for t in range(1, 65):
        a = evolve_steps(init, p, t)
        b = evolve(init, p, t)
        worst = max(worst, float(np.abs(a.amps - b.amps).max()))
    long = evolve(initial_entangled(0, 1), CoinParams(QUARTER_PI, 0.0, 0.0),
                  10**4)
    drift = abs(float(np.sum(np.abs(long.amps) ** 2)) - 1.0)
    t = 50
    cone = evolve(initial_localized(0), p, t)
    edge_ok = (cone.sites[0] == -t and cone.sites[-1] == t
               and abs(cone.amps[-1, 0]
                       - (math.cos(p.theta) * np.exp(1j * p.alpha)) ** t)
               <= 1e-12
               and abs(cone.amps[0, 1]) > 0.0)
    ok = worst <= 1e-10 and drift <= 1e-12 and edge_ok
    report(10, ok, f"position vs momentum evolution max dev {worst:.2e} "
                   f"(t<=64), norm drift {drift:.2e} at t=1e4, light cone "
                   f"edges exact: {edge_ok}")


def test_criterion_11_quantum_dominance():
    rng = np.random.default_rng(11)
    t = 100
    worst = np.inf
    for i in range(20):
        th, al, be = random_coin_angles(rng, 1)[0]
        p = CoinParams(th, al, be)
        pick = i % 3
        if pick == 0:
            init = initial_localized(0, spinor=random_spinor(rng))
        elif pick == 1:
            init = initial_gamma(rng.uniform(0.0, 2 * math.pi))
        else:
            init = initial_entangled(0, 1)
        gap = qfim_exact(init, p, t, params=("theta", "alpha")).entries \
            - classical_fi(p, init, t)
        worst = min(worst, float(np.linalg.eigvalsh(gap).min()))
    report(11, worst >= -1e-8,
           f"min eigenvalue of (quantum - classical) info = {worst:.3e} "
           "over 20 random configurations")


def test_criterion_12_estimation_closure(fixture_point):
    p, init = fixture_point
    t = 50
    truth = p.theta
    dist = position_distribution(evolve(init, p, t))
    table = make_likelihood_table(init, p, t)
    f_tt = qfim_theorem1(p, init, t).entries[0, 0]

    def theta_hat(shots, seed):
        rec = sample(dist, shots, seed=seed, stream=(shots,))
        return mle_fit(rec, table=table).theta

    top = np.array([theta_hat(100_000, s) for s in range(200)])
    var = float(np.var(top, ddof=1))
    floor = 0.9 / (100_000 * f_tt)

    levels = [1000, 4642, 21544, 100_000]
    rmse = []
    for shots in levels[:-1]:
        errs = np.array([theta_hat(shots, s) for s in range(100)]) - truth
        rmse.append(float(np.sqrt(np.mean(errs ** 2))))
    rmse.append(float(np.sqrt(np.mean((top - truth) ** 2))))
    slope = np.polyfit(np.log(levels), np.log(rmse), 1)[0]
    ok = var >= floor and abs(slope + 0.5) <= 0.05
    report(12, ok, f"var(theta_hat) = {var:.3e} >= floor {floor:.3e} "
                   f"(200 seeds); rmse slope vs shots {slope:+.3f}")


def test_criterion_13_case_round_trips():
    rng = np.random.default_rng(13)
    worst_mag = 0.0
    n = 0
    while n < 100:
        b2, b3 = rng.uniform(-1.5, 1.5, size=2)
        if abs(b2) < 0.02 or math.hypot(b2, b3) > math.pi / 2 - 0.02:
            continue
        f = MagneticField(b2=b2, b3=b3)
        back = magnetic_from_coin(coin_from_magnetic(f))
        worst_mag = max(worst_mag, abs(back.b2 - b2), abs(back.b3 - b3))
        n += 1
    worst_dir = 0.0
    eps, a_x = 0.1, 0.8
    n = 0
    while n < 100:
        m, q = rng.uniform(-3.0, 3.0, size=2)
        if abs(m) < 0.05 or eps * math.hypot(m, q * a_x) > math.pi / 2 - 0.02:
            continue
        pc = coin_from_dirac(DiracParams(m=m, q=q, a_x=a_x, eps=eps))
        m_hat, q_hat = dirac_from_coin(pc, a_x, eps)
        worst_dir = max(worst_dir, abs(m_hat - m), abs(q_hat - q))
        n += 1
    m, q, a_x = 1.2, 0.7, 1.0
    eps_list = [0.04, 0.02, 0.01, 0.005]
    errs = []
    for e in eps_list:
        pc = coin_from_dirac(DiracParams(m=m, q=q, a_x=a_x, eps=e))
        m1, q1 = dirac_first_order(pc, a_x, e)
        errs.append(max(abs(m1 - m), abs(q1 - q)))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    ok = worst_mag <= 1e-10 and worst_dir <= 1e-10 \
        and abs(slope - 2.0) <= 0.1
    report(13, ok, f"round-trip max err: field map {worst_mag:.2e}, lattice "
                   f"map {worst_dir:.2e} (100 draws each); first-order "
                   f"error slope {slope:.3f}")
