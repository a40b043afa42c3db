"""Sampling, classical information and the likelihood-grid MLE."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwfisher import (CoinParams, GridSpec, MeasurementRecord, WalkerState,
                      classical_fi, evolve, initial_entangled, initial_gamma,
                      initial_localized, make_likelihood_table, mle_fit,
                      philox_rng, position_distribution, qfim_exact, sample)
from qwfisher import estimation
from qwfisher.estimation import (MASS_THRESHOLD, PositionDistribution,
                                 _connected_from_argmax, _grid_loglik,
                                 _prob_derivatives)
from qwfisher.walk import SiteWindow, SU2Powers, spinors_at, theta_jet

from oracles import (dilation_connected, evolve_steps, fd_loglik_hessian,
                     table_probs, three_run_prob_derivatives,
                     whole_grid_table_b)


def random_amps(n_sites, seed):
    """A normalised random (n_sites, 2) amplitude window."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    return amps / np.linalg.norm(amps)


def direct_probs(table, init, p_true, t):
    """p over the table's grid and sites, one evolution per cell."""
    thetas, alphas = table.grid.axes()
    lookup = {int(x): i for i, x in enumerate(table.sites)}
    direct = np.zeros((thetas.size, alphas.size, table.sites.size))
    for it, th in enumerate(thetas):
        for ia, al in enumerate(alphas):
            pd = position_distribution(evolve(
                init, CoinParams(th, al, p_true.beta), t))
            for x, pr in zip(pd.sites, pd.probs):
                direct[it, ia, lookup[int(x)]] = pr
    return direct


def assert_rows_match_direct_evolution(table, init, p_true, t):
    """Every (theta, alpha) cell of p, and of exp of the grid stage's log
    p for a one-count record on each site, against its own evolution.

    A row the grid stage skips for a one-count record must hold no cell
    within e^-2 of that site's largest p on the grid.
    """
    direct = direct_probs(table, init, p_true, t)
    assert np.abs(table.probs - direct).max() <= 1e-10
    for x in range(table.sites.size):
        loglik, _ = _grid_loglik(table, np.eye(table.sites.size)[x])
        done = np.isfinite(loglik[:, 0])
        assert np.abs(np.exp(loglik[done]) - direct[done, :, x]).max() \
            <= 1e-10
        assert np.all(direct[~done, :, x]
                      <= math.exp(-2.0) * direct[..., x].max() + 1e-10)


def integer_counts(dist, shots):
    """Largest-remainder rounding of probs * shots to an exact total."""
    raw = dist.probs * shots
    base = np.floor(raw).astype(int)
    short = shots - base.sum()
    order = np.argsort(raw - base)[::-1]
    base[order[:short]] += 1
    return {int(x): int(c) for x, c in zip(dist.sites, base) if c}


class TestPositionDistribution:
    def test_single_step_masses(self):
        th = 0.6
        p = CoinParams(th, 0.3, -0.2)
        d = position_distribution(evolve(initial_localized(0), p, 1))
        at = dict(zip(d.sites.tolist(), d.probs.tolist()))
        assert at[1] == pytest.approx(math.cos(th) ** 2, abs=1e-14)
        assert at[-1] == pytest.approx(math.sin(th) ** 2, abs=1e-14)
        assert at.get(0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_normalized_after_long_run(self):
        p = CoinParams(1.1, 0.4, 0.9)
        d = position_distribution(evolve(initial_gamma(0.3), p, 500))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.t == 500

    def test_balanced_input_is_symmetric(self):
        chi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        p = CoinParams(math.pi / 4, 0.0, 0.0)
        d = position_distribution(evolve(initial_localized(0, spinor=chi), p,
                                         40))
        assert np.abs(d.probs - d.probs[::-1]).max() <= 1e-13

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            PositionDistribution(sites=np.array([0, 1]),
                                 probs=np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum"):
            PositionDistribution(sites=np.array([0, 1]),
                                 probs=np.array([0.4, 0.4]))


class TestSampling:
    def test_philox_streams(self):
        a = philox_rng(3, 1).integers(0, 1 << 30, size=8)
        b = philox_rng(3, 1).integers(0, 1 << 30, size=8)
        c = philox_rng(3, 2).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_same_seed_same_record(self):
        p = CoinParams(0.8, 0.1, 0.0)
        d = position_distribution(evolve(initial_gamma(0.4), p, 30))
        r1 = sample(d, 5000, seed=9)
        r2 = sample(d, 5000, seed=9)
        assert r1.counts == r2.counts
        assert sum(r1.counts.values()) == 5000
        assert sample(d, 5000, seed=10).counts != r1.counts

    def test_two_point_frequencies(self):
        d = PositionDistribution(sites=np.array([-1, 1]),
                                 probs=np.array([0.5, 0.5]), t=1)
        shots = 1_000_000
        rec = sample(d, shots, seed=1)
        # 5 sigma of a fair binomial
        assert abs(rec.counts[1] - shots / 2) <= 5 * math.sqrt(shots * 0.25)

    def test_empirical_distribution_converges(self):
        p = CoinParams(0.9, 0.2, 0.0)
        d = position_distribution(evolve(initial_gamma(0.7), p, 20))

        def tv(shots):
            rec = sample(d, shots, seed=4)
            emp = rec.count_vector(d.sites) / shots
            return 0.5 * np.abs(emp - d.probs).sum()

        assert tv(100_000) < tv(100)


class TestMeasurementRecord:
    def test_json_round_trip(self):
        p = CoinParams(0.7, -0.1, 0.4)
        rec = MeasurementRecord(t=5, shots=10, counts={-3: 4, 1: 6}, seed=2,
                                params_true=p)
        back = MeasurementRecord.from_json_dict(rec.to_json_dict())
        assert back == rec
        bare = MeasurementRecord(t=5, shots=1, counts={1: 1}, seed=0)
        assert MeasurementRecord.from_json_dict(bare.to_json_dict()) == bare

    def test_count_total_enforced(self):
        with pytest.raises(ValueError, match="shots"):
            MeasurementRecord(t=1, shots=5, counts={0: 4}, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            MeasurementRecord(t=1, shots=0, counts={0: 2, 1: -2}, seed=0)

    def test_count_vector_alignment_and_window_check(self):
        rec = MeasurementRecord(t=2, shots=7, counts={-2: 3, 0: 4}, seed=0)
        vec = rec.count_vector(np.array([-2, -1, 0, 1, 2]))
        assert np.array_equal(vec, [3, 0, 4, 0, 0])
        with pytest.raises(ValueError, match="outside"):
            rec.count_vector(np.array([0, 1, 2]))


class TestClassicalFisher:
    def test_single_step_closed_form(self):
        p = CoinParams(0.85, 0.6, -0.3)
        fi = classical_fi(p, initial_localized(0), 1)
        assert fi[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert abs(fi[0, 1]) <= 1e-12
        assert fi[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_quantum_information(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            p = CoinParams(rng.uniform(0.3, 1.3), rng.uniform(-1, 1),
                           rng.uniform(-1, 1))
            init = initial_gamma(rng.uniform(0, 2 * math.pi))
            t = 20
            gap = qfim_exact(init, p, t, params=("theta", "alpha")).entries \
                - classical_fi(p, init, t)
            assert np.linalg.eigvalsh(gap).min() >= -1e-8

    @pytest.mark.parametrize("t", [1, 7, 50])
    def test_one_run_score_matches_three_runs(self, t):
        p = CoinParams(0.85, 0.6, -0.3)
        init = initial_entangled(-3, 2)
        sites, probs, dprobs, _ = _prob_derivatives(p, init, t)
        ref_sites, ref_probs, ref_dprobs = three_run_prob_derivatives(
            init, p, t, ("theta", "alpha"))
        assert np.array_equal(sites, ref_sites)
        assert np.abs(probs - ref_probs).max() <= 1e-12
        assert np.abs(dprobs - ref_dprobs).max() <= 1e-12

    @pytest.mark.parametrize("init", [
        initial_entangled(0, 1), initial_gamma(0.6), initial_entangled(-2, 3),
    ], ids=["entangled-0-1", "gamma", "entangled-m2-3"])
    def test_exact_second_derivatives_match_central_differences(self, init):
        # central differences of the independently evolved first
        # derivatives; h^2 truncation stays far below the gate
        p = CoinParams(0.7, 0.3, 0.4)
        t, h = 20, 1e-5
        sites, _, _, d2probs = _prob_derivatives(p, init, t)
        fd = {}
        for mu in ("theta", "alpha"):
            up, dn = (three_run_prob_derivatives(
                init, p.replace(**{mu: getattr(p, mu) + s}), t,
                ("theta", "alpha")) for s in (h, -h))
            assert np.array_equal(up[0], sites)
            fd[mu] = (up[2] - dn[2]) / (2.0 * h)
        ref = np.array([fd["theta"][0],
                        0.5 * (fd["theta"][1] + fd["alpha"][0]),
                        fd["alpha"][1]])
        assert np.abs(d2probs - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_flat_alpha_direction_reported_as_zero(self):
        p = CoinParams(math.pi / 4, 0.3, 0.0)
        fi = classical_fi(p, initial_entangled(0, 1), 25)
        assert fi[0, 0] > 0.0
        assert abs(fi[1, 1]) <= 1e-10 * fi[0, 0]


class TestLikelihoodTable:
    @pytest.mark.parametrize("init,p_true,t,box", [
        (initial_gamma(0.9), CoinParams(0.7, 0.2, 0.4), 12,
         (0.5, 0.9, -0.2, 0.6)),
        (initial_entangled(-3, 2), CoinParams(0.7, 0.2, 0.4), 12,
         (0.5, 0.9, -0.2, 0.6)),
        (initial_localized(4, spinor=np.array([0.6, 0.8j])),
         CoinParams(0.7, 0.2, -1.1), 12, (0.5, 0.9, -0.2, 0.6)),
        (initial_gamma(0.4), CoinParams(0.7, 0.2, 2.3), 9,
         (0.3, 1.4, -2.5, 2.6)),
        (WalkerState(origin=-2, amps=np.array(
            [[0.5, 0.1j], [0.0, -0.4 + 0.3j], [0.2 - 0.6j, 0.3]])),
         CoinParams(0.6, -0.3, 0.8), 15,
         (0.4, 1.2, -1.0, 1.3)),
        # theta ~ 0 with sin theta above the coin gate is accepted
        (initial_gamma(0.9), CoinParams(0.7, 0.2, 0.4), 200,
         (1e-9, 0.9, -0.21, 0.6)),
    ], ids=["gamma", "entangled", "localized-complex", "wide-alpha-beta",
            "spread-superposition", "tiny-theta-t200"])
    def test_matches_direct_evolution_at_grid_points(self, init, p_true, t,
                                                     box):
        grid = GridSpec(theta_min=box[0], theta_max=box[1],
                        alpha_min=box[2], alpha_max=box[3], n_theta=3,
                        n_alpha=5)
        assert_rows_match_direct_evolution(
            make_likelihood_table(init, p_true, t, grid), init, p_true, t)

    def test_multimodal_record_rows_match_direct_evolution(self):
        # a 100-shot record with two modes: the grid stage forms 15 of
        # the 41 theta rows, over four blocks, and each formed row is
        # the record's log-likelihood from its own evolutions
        init, p_true, t = initial_gamma(0.6), CoinParams(0.5, 0.3, 0.4), 8
        table = make_likelihood_table(init, p_true, t,
                                      GridSpec(n_theta=41, n_alpha=33))
        rec = sample(position_distribution(evolve(init, p_true, t)), 100,
                     seed=2)
        res = mle_fit(rec, table=table)
        assert res.multimodal
        assert res.rows_evaluated == 15
        counts = rec.count_vector(table.sites)
        loglik, rows = _grid_loglik(table, counts)
        done = np.isfinite(loglik[:, 0])
        assert rows == done.sum() == res.rows_evaluated
        seen = counts > 0
        direct = np.log(direct_probs(table, init, p_true, t)[..., seen]) \
            @ counts[seen]
        assert np.abs(loglik[done] - direct[done]).max() \
            <= 1e-10 * np.abs(direct).max()
        assert direct[~done].max() < direct.max() - 2.0

    @pytest.mark.parametrize("init,p_true,t,grid", [
        (initial_entangled(0, 1), CoinParams(math.pi / 4, 0.0, 0.0), 50,
         GridSpec()),
        (WalkerState(origin=-4, amps=random_amps(9, seed=5)),
         CoinParams(0.7, 0.2, -0.9), 30, GridSpec(n_theta=37, n_alpha=23)),
    ], ids=["default", "random-9-sites"])
    def test_probs_and_logp_are_bitwise_the_whole_grid_formula(
            self, init, p_true, t, grid):
        # the grid stage forms its rows one block at a time; each formed
        # cell is the whole-grid log-likelihood to the last bit
        table = make_likelihood_table(init, p_true, t, grid)
        probs = table_probs(table.trig, table.B)
        assert np.array_equal(table.probs, probs)
        assert table.probs is table.probs           # formed once
        logp = np.log(np.maximum(probs, 1e-300))
        dist = position_distribution(evolve(init, p_true, t))
        for shots in (10, 1000, 100_000):
            counts = sample(dist, shots, seed=4).count_vector(table.sites)
            loglik, _ = _grid_loglik(table, counts)
            done = np.isfinite(loglik[:, 0])
            assert np.array_equal(loglik[done], (logp @ counts)[done])

    def test_unreachable_sites_hold_the_floor_exactly(self):
        # an input on one parity leaves the other exactly empty, so p is
        # 0 there rather than rounding and log p is the floor itself
        t = 30
        table = make_likelihood_table(initial_localized(0),
                                      CoinParams(0.7, 0.2, 0.0), t,
                                      GridSpec(n_theta=7, n_alpha=5))
        odd = table.sites % 2 == 1
        assert odd.sum() == t
        assert np.all(table.probs[..., odd] == 0.0)
        assert np.all(table.probs[..., ~odd] > 0.0)
        # one count on an odd site: every row is bounded by the floor and
        # reaches it, so the grid stage forms all of them
        for x in np.flatnonzero(odd):
            loglik, rows = _grid_loglik(table, np.eye(table.sites.size)[x])
            assert rows == 7
            assert np.all(loglik == math.log(1e-300))

    def test_theta_zero_row_is_a_pure_shift(self):
        # sin(theta) = 0 makes u(k) = +-1 at k = 0, -pi; the closed form
        # then takes its limit instead of dividing by zero (the table
        # refuses such a box, the engine it runs does not)
        init, t = initial_gamma(0.9), 20
        window = SiteWindow.after(init, t)
        phi = theta_jet(0.0, window.nodes, spinors_at(init, window.nodes),
                        t)[0]
        probs = np.sum(np.abs(window.to_sites(phi)) ** 2, axis=1)
        shifted = np.zeros(window.width)
        shifted[window.sites == 20] = 0.5      # coin 0 hops right t times
        shifted[window.sites == -20] = 0.5     # coin 1 hops left
        assert np.abs(probs - shifted).max() <= 1e-12

    @pytest.mark.parametrize("init,p_true,t,grid", [
        (initial_entangled(0, 1), CoinParams(math.pi / 4, 0.0, 0.0), 50,
         GridSpec(n_theta=4, n_alpha=6)),
        (initial_gamma(0.6), CoinParams(math.pi / 4, 0.3, 0.4), 50,
         GridSpec(n_theta=4, n_alpha=6)),
        (WalkerState(origin=-4, amps=random_amps(9, seed=5)),
         CoinParams(0.7, 0.2, -0.9), 50, GridSpec(n_theta=4, n_alpha=6)),
        # theta ~ 0 with alpha on a momentum node: the coin still mixes
        (initial_gamma(0.3), CoinParams(0.3, 0.0, 0.0), 8,
         GridSpec(theta_min=1e-9, theta_max=0.5, alpha_min=-0.5,
                  alpha_max=0.5, n_theta=4, n_alpha=5)),
    ], ids=["entangled", "gamma", "random-9-sites", "theta-near-zero"])
    def test_relative_accuracy_against_step_loop(self, init, p_true, t,
                                                 grid):
        # log p reads the tails, so the gate is relative wherever p is
        # not negligible
        table = make_likelihood_table(init, p_true, t, grid)
        assert np.all(table.probs >= 0.0)
        thetas, alphas = grid.axes()
        for it, th in enumerate(thetas):
            for ia, al in enumerate(alphas):
                ref = evolve_steps(init, CoinParams(th, al, p_true.beta), t)
                assert np.array_equal(ref.sites, table.sites)
                p_ref = np.sum(np.abs(ref.amps) ** 2, axis=1)
                big = p_ref >= 1e-8
                rel = np.abs(table.probs[it, ia, big] - p_ref[big]) \
                    / p_ref[big]
                assert rel.max() <= 1e-10

    @pytest.mark.parametrize("one_row", [False, True],
                             ids=["default-block", "one-row-blocks"])
    @pytest.mark.parametrize("init,p_true,t", [
        (initial_entangled(0, 1), CoinParams(math.pi / 4, 0.0, 0.0), 50),
        (initial_gamma(0.6), CoinParams(math.pi / 4, 0.3, 0.4), 50),
        (WalkerState(origin=-4, amps=random_amps(9, seed=5)),
         CoinParams(0.7, 0.2, -0.9), 50),
    ], ids=["entangled", "gamma", "random-9-sites"])
    def test_blocked_build_is_bitwise_the_whole_grid_build(
            self, init, p_true, t, one_row, monkeypatch):
        # 45 theta rows are not a multiple of the default block heights
        # here (32 rows for the two-group inputs, 6 for the ten-group one)
        if one_row:
            monkeypatch.setattr(estimation, "_BLOCK_SPINORS", 1)
        grid = GridSpec(n_theta=45, n_alpha=7)
        table = make_likelihood_table(init, p_true, t, grid)
        b = whole_grid_table_b(init, p_true.beta, t, grid.axes()[0])
        assert np.array_equal(table.B, b)
        n_d = (b.shape[1] - 1) // 2
        bound = b[:, 0] + 2.0 * np.hypot(b[:, 1:1 + n_d],
                                         b[:, 1 + n_d:]).sum(axis=1)
        assert np.array_equal(table.log_bound,
                              np.log(np.maximum(bound, 1e-300)))

    def test_default_table_build_peak_is_small(self):
        # the engine runs on blocks of theta rows; on the whole grid at
        # once its arrays took 11 MiB here
        init = initial_entangled(0, 1)
        tracemalloc.start()
        try:
            make_likelihood_table(init, CoinParams(math.pi / 4, 0.0, 0.0), 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_long_walk_table_build_peaks_at_b_plus_one_block(self):
        # at t = 300 the engine's arrays over the whole grid took 85 MiB;
        # a block of theta rows and the row bound stay within 6 MiB
        init = initial_entangled(0, 1)
        tracemalloc.start()
        try:
            table = make_likelihood_table(
                init, CoinParams(math.pi / 4, 0.0, 0.0), 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= table.B.nbytes + 6 * 2**20

    def test_grid_stage_forms_rows_in_bounded_blocks(self):
        # the bound prunes little for this input, so the grid stage forms
        # many rows; its blocks stay within 1 MiB (3 rows here) instead
        # of doubling towards the grid's full size (33 MB)
        init = WalkerState(origin=-4, amps=random_amps(9, seed=5))
        p_true, t = CoinParams(0.7, 0.2, -0.9), 100
        table = make_likelihood_table(init, p_true, t,
                                      GridSpec(n_theta=100, n_alpha=200))
        rec = sample(position_distribution(evolve(init, p_true, t)), 1000,
                     seed=1)
        counts = rec.count_vector(table.sites)
        tracemalloc.start()
        try:
            _, rows = _grid_loglik(table, counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows >= 30
        assert peak <= table.B.nbytes + 2 * 2**20

    def test_degenerate_grid_rejected(self):
        # a box reaching sin theta = 0 (a multiple of pi inside it, or an
        # end below the coin gate) is refused whatever its alpha nodes
        for theta_min, theta_max, n_alpha in [
                (0.0, 0.3, 200), (0.0, 0.3, 201), (-0.2, 0.3, 200),
                (1e-13, 0.3, 201), (3.0, 3.2, 200)]:
            grid = GridSpec(theta_min=theta_min, theta_max=theta_max,
                            n_theta=30, n_alpha=n_alpha)
            with pytest.raises(ValueError, match="degenerate"):
                make_likelihood_table(initial_entangled(0, 1),
                                      CoinParams(math.pi / 4, 0.0, 0.0), 20,
                                      grid)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError, match="empty"):
            GridSpec(theta_min=1.0, theta_max=0.5)
        with pytest.raises(ValueError, match="2 points"):
            GridSpec(n_theta=1)


PRUNING_INPUTS = {
    "localized": (initial_localized(0, spinor=np.array([0.6, 0.8j])),
                  CoinParams(0.7, 0.2, -1.1)),
    "gamma": (initial_gamma(0.6), CoinParams(math.pi / 4, 0.3, 0.4)),
    "entangled": (initial_entangled(0, 1),
                  CoinParams(math.pi / 4, 0.0, 0.0)),
    "random-9-sites": (WalkerState(origin=-4, amps=random_amps(9, seed=5)),
                       CoinParams(0.7, 0.2, -0.9)),
}


@pytest.mark.parametrize("name", PRUNING_INPUTS)
def test_pruned_grid_is_the_full_grid_near_its_maximum(name):
    # the grid stage skips theta rows by an upper bound; near the maximum
    # it must see what log(max(probs, 1e-300)) @ counts over the whole
    # grid sees, at every shot level
    init, p_true = PRUNING_INPUTS[name]
    t = 20
    table = make_likelihood_table(init, p_true, t,
                                  GridSpec(n_theta=60, n_alpha=40))
    logp = np.log(np.maximum(table.probs, 1e-300))
    dist = position_distribution(evolve(init, p_true, t))
    skipped = 0
    for shots in (10, 100, 1000, 10_000, 100_000):
        for seed in range(3):
            rec = sample(dist, shots, seed, stream=(shots,))
            counts = rec.count_vector(table.sites)
            full = logp @ counts
            loglik, rows = _grid_loglik(table, counts)
            done = np.isfinite(loglik[:, 0])
            assert rows == done.sum()
            skipped += np.count_nonzero(~done)
            assert np.abs(loglik[done] - full[done]).max() \
                <= 1e-12 * np.abs(full[done]).max()
            top = full.max()
            assert np.all(full[~done] < top - 2.0)
            start = np.unravel_index(np.argmax(full), full.shape)
            assert np.argmax(loglik) == np.argmax(full)
            mask = full >= top - 2.0
            assert np.array_equal(loglik >= loglik.max() - 2.0, mask)
            res = mle_fit(rec, table=table)
            assert res.rows_evaluated == rows
            assert res.multimodal == bool(
                mask.sum() > _connected_from_argmax(mask, start).sum())
    assert skipped > 0


class TestMLE:
    def make_fit(self, rec, init, p_true, t, **kw):
        grid = GridSpec(theta_min=0.4, theta_max=1.1, alpha_min=-0.4,
                        alpha_max=0.8, n_theta=61, n_alpha=61)
        table = make_likelihood_table(init, p_true, t, grid)
        return mle_fit(rec, table=table, **kw)

    def test_zero_noise_recovery(self):
        p_true = CoinParams(0.72, 0.18, 0.0)
        init = initial_gamma(1.1)
        t = 30
        d = position_distribution(evolve(init, p_true, t))
        rec = MeasurementRecord(t=t, shots=10**8,
                                counts=integer_counts(d, 10**8), seed=0)
        res = self.make_fit(rec, init, p_true, t)
        assert res.converged
        assert res.theta == pytest.approx(p_true.theta, abs=5e-4)
        assert res.alpha == pytest.approx(p_true.alpha, abs=5e-4)
        assert np.isfinite(res.cov).all()
        assert res.cov[0, 0] > 0 and res.cov[1, 1] > 0
        # the grid stage alone is only resolution-limited
        assert abs(res.grid_theta - p_true.theta) <= 0.7 / 60 + 1e-12

    def test_flat_direction_gets_infinite_variance(self):
        p_true = CoinParams(math.pi / 4, 0.2, 0.0)
        init = initial_entangled(0, 1)
        t = 25
        d = position_distribution(evolve(init, p_true, t))
        rec = sample(d, 200_000, seed=3)
        res = self.make_fit(rec, init, p_true, t)
        assert res.theta == pytest.approx(p_true.theta, abs=0.02)
        assert np.isfinite(res.cov[0, 0])
        assert math.isinf(res.cov[1, 1])

    def test_newton_fit_sits_at_the_likelihood_maximum(self):
        # a plain Newton reference run from the grid argmax until its
        # step is below 1e-15: the fit, stopped at steps below 1e-9,
        # lies within 1e-12 of it
        p_true = CoinParams(0.72, 0.18, 0.4)
        init = initial_gamma(0.6)
        t = 25
        rec = sample(position_distribution(evolve(init, p_true, t)),
                     100_000, seed=11)
        res = self.make_fit(rec, init, p_true, t)
        assert res.converged
        counts = rec.count_vector(init.origin - t
                                  + np.arange(init.n_sites + 2 * t))
        x = np.array([res.grid_theta, res.grid_alpha])
        for _ in range(30):
            _, probs, d1, d2 = _prob_derivatives(
                CoinParams(x[0], x[1], p_true.beta), init, t)
            live = probs > MASS_THRESHOLD
            n = counts[live]
            g = d1[:, live] / probs[live]
            h = (d2[:, live] / probs[live]) @ n
            observed = (g * n) @ g.T - np.array([[h[0], h[1]], [h[1], h[2]]])
            step = np.linalg.solve(observed, g @ n)
            x = x + step
            if np.max(np.abs(step)) < 1e-15:
                break
        else:
            pytest.fail("the reference Newton run did not settle")
        assert abs(res.theta - x[0]) <= 1e-12
        assert abs(res.alpha - x[1]) <= 1e-12

    @pytest.mark.parametrize("init,p_true", [
        (initial_gamma(0.6), CoinParams(0.72, 0.18, 0.4)),
        (initial_entangled(0, 1), CoinParams(math.pi / 4, 0.2, 0.0)),
    ], ids=["identified", "flat-alpha"])
    def test_covariance_matches_finite_difference_hessian(self, init,
                                                          p_true):
        t = 25
        rec = sample(position_distribution(evolve(init, p_true, t)),
                     200_000, seed=3)
        res = self.make_fit(rec, init, p_true, t)
        counts = rec.count_vector(init.origin - t
                                  + np.arange(init.n_sites + 2 * t))
        hess = fd_loglik_hessian(
            counts, init, CoinParams(res.theta, res.alpha, p_true.beta), t)
        if math.isinf(res.cov[1, 1]):
            # no alpha information: only the theta variance is finite
            assert res.cov[0, 0] == pytest.approx(-1.0 / hess[0, 0],
                                                  rel=1e-6)
        else:
            ref = np.linalg.inv(-hess)
            assert np.abs(res.cov - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_count_on_an_unreachable_site_gives_minus_inf_loglik(self):
        # a walker started on site 0 is on even sites after an even t,
        # so a count on site 1 has zero model mass at every (theta, alpha)
        p_true = CoinParams(0.72, 0.18, 0.4)
        init = initial_gamma(0.6)
        t = 10
        rec = sample(position_distribution(evolve(init, p_true, t)), 1000,
                     seed=2)
        assert 1 not in rec.counts
        bad = MeasurementRecord(t=t, shots=1001, counts={**rec.counts, 1: 1},
                                seed=2)
        res = self.make_fit(bad, init, p_true, t)
        assert res.loglik == -math.inf
        assert math.isfinite(res.theta) and 0.4 <= res.theta <= 1.1

    def test_t_mismatch_rejected(self):
        p_true = CoinParams(0.7, 0.1, 0.0)
        init = initial_gamma(0.5)
        d = position_distribution(evolve(init, p_true, 10))
        rec = sample(d, 100, seed=1)
        table = make_likelihood_table(
            init, p_true, 10, GridSpec(theta_min=0.5, theta_max=0.9,
                                       n_theta=4, n_alpha=4))
        other = MeasurementRecord(t=9, shots=rec.shots, counts=rec.counts,
                                  seed=rec.seed)
        with pytest.raises(ValueError, match="disagrees"):
            mle_fit(other, table=table)

    def test_grid_loglik_is_the_log_of_the_table_probs(self):
        p_true = CoinParams(0.7, 0.1, 0.0)
        init = initial_gamma(0.5)
        table = make_likelihood_table(
            init, p_true, 10, GridSpec(theta_min=0.5, theta_max=0.9,
                                       n_theta=4, n_alpha=4))
        rec = sample(position_distribution(evolve(init, p_true, 10)), 1000,
                     seed=1)
        counts = rec.count_vector(table.sites)
        observed = counts > 0
        fresh = np.log(table.probs[:, :, observed]) @ counts[observed]
        loglik, rows = _grid_loglik(table, counts)
        done = np.isfinite(loglik[:, 0])
        assert rows == done.sum() >= 3
        assert np.abs(loglik[done] - fresh[done]).max() \
            <= 1e-12 * np.abs(fresh).max()
        assert fresh[~done].max(initial=-np.inf) < fresh.max() - 2.0

    def test_connectivity_diagnostic(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0:2, 0:2] = True            # main island holds the argmax
        mask[4:6, 4:6] = True            # separate island
        reached = _connected_from_argmax(mask, (0, 0))
        assert reached.sum() == 4
        assert bool(mask.sum() - reached.sum() > 0)
        mask[2, 1] = mask[3, 2] = False
        bridge = mask.copy()
        bridge[1:5, 1] = True
        bridge[4, 1:5] = True
        assert _connected_from_argmax(bridge, (0, 0)).sum() == bridge.sum()


@pytest.fixture(scope="module")
def closure_point():
    """The estimation-closure point: (pi/4, 0, 0), entangled(0, 1), t = 50,
    default grid; returns the table and the true distribution."""
    p, init, t = CoinParams(math.pi / 4, 0.0, 0.0), initial_entangled(0, 1), 50
    return (make_likelihood_table(init, p, t),
            position_distribution(evolve(init, p, t)))


class TestNewtonFit:
    def test_slow_scoring_record_converges_within_budget(self,
                                                         closure_point):
        # Fisher scoring alone takes all 12 steps on this record and
        # stops short of the 1e-9 tolerance
        table, dist = closure_point
        rec = sample(dist, 1000, 1684432014, stream=(1000,))
        res = mle_fit(rec, table=table)
        assert res.converged
        assert res.iterations <= 12

    @pytest.mark.parametrize("shots,seed", [(30, 67), (100, 199)])
    def test_few_shot_fit_stays_with_the_grid_maximum(self, closure_point,
                                                      shots, seed):
        # the log-likelihood wiggles on the scale of a grid cell here;
        # uncapped Newton steps walked off to maxima 1.8 (30 shots) and
        # 30 (100 shots) units below the grid's best cell
        table, dist = closure_point
        rec = sample(dist, shots, seed, stream=(shots,))
        res = mle_fit(rec, table=table)
        thetas = table.grid.axes()[0]
        assert res.converged
        assert res.loglik >= np.max(np.log(np.maximum(table.probs, 1e-300))
                                    @ rec.count_vector(table.sites)) - 1e-9
        assert abs(res.theta - res.grid_theta) <= thetas[1] - thetas[0]

    def test_indefinite_observed_information_falls_back_to_scoring(
            self, closure_point):
        table, dist = closure_point
        res = mle_fit(sample(dist, 30, 67, stream=(30,)), table=table)
        assert res.scoring_steps >= 1
        assert res.converged and res.score_norm < 1e-6

    def test_one_engine_run_per_step_and_one_at_the_fit(self, closure_point,
                                                         monkeypatch):
        table, dist = closure_point
        runs = []
        engine = SU2Powers.of
        monkeypatch.setattr(SU2Powers, "of", classmethod(
            lambda cls, *args: runs.append(1) or engine(*args)))
        for seed in range(6):
            runs.clear()
            res = mle_fit(sample(dist, 1000, seed, stream=(1000,)),
                          table=table)
            assert res.converged
            assert 0 < len(runs) <= res.iterations + 1


def spiral_mask(n):
    """A one-cell-wide square spiral corridor on an n x n grid.

    The path through it is about n^2 / 2 cells long, so a search that
    grows by one neighbour ring per pass needs that many passes.
    """
    mask = np.zeros((n, n), dtype=bool)
    moves = ((0, 1), (1, 0), (0, -1), (-1, 0))
    lengths = [n - 1, n - 1] + [m for m in range(n - 1, 0, -2)
                                 for _ in range(2)][1:]
    i = j = 0
    mask[0, 0] = True
    for k, length in enumerate(lengths):
        di, dj = moves[k % 4]
        for _ in range(length):
            i, j = i + di, j + dj
            mask[i, j] = True
    return mask


class TestFloodFill:
    @settings(max_examples=150, deadline=None)
    @given(n_rows=st.integers(1, 40), n_cols=st.integers(1, 40),
           density=st.floats(0.2, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_matches_dilation_reference(self, n_rows, n_cols, density, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((n_rows, n_cols)) < density
        start = (int(rng.integers(n_rows)), int(rng.integers(n_cols)))
        mask[start] = True
        assert np.array_equal(_connected_from_argmax(mask, start),
                              dilation_connected(mask, start))

    def test_flat_alpha_ridge(self):
        # a likelihood flat in alpha puts a whole grid row within 2 units
        mask = np.zeros((200, 200), dtype=bool)
        mask[117] = True
        reached = _connected_from_argmax(mask, (117, 40))
        assert reached.sum() == 200
        assert np.array_equal(reached, dilation_connected(mask, (117, 40)))

    def test_spiral(self):
        # the corridor is connected end to end; cut, it stops at the cut
        mask = spiral_mask(41)
        reached = _connected_from_argmax(mask, (0, 0))
        assert np.array_equal(reached, mask)
        assert np.array_equal(reached, dilation_connected(mask, (0, 0)))
        mask[0, 20] = False
        assert _connected_from_argmax(mask, (0, 0)).sum() == 20
