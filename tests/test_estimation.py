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
from qwfisher.estimation import (PositionDistribution, _connected_from_argmax,
                                 _prob_derivatives)

from oracles import (dilation_connected, evolve_steps,
                     three_run_prob_derivatives)


def random_amps(n_sites, seed):
    """A normalised random (n_sites, 2) amplitude window."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    return amps / np.linalg.norm(amps)


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
        sites, probs, dprobs = _prob_derivatives(p, init, t)
        ref_sites, ref_probs, ref_dprobs = three_run_prob_derivatives(
            init, p, t, ("theta", "alpha"))
        assert np.array_equal(sites, ref_sites)
        assert np.abs(probs - ref_probs).max() <= 1e-12
        assert np.abs(dprobs - ref_dprobs).max() <= 1e-12

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
        # alpha stays off the momentum nodes, so theta ~ 0 is accepted
        (initial_gamma(0.9), CoinParams(0.7, 0.2, 0.4), 200,
         (1e-9, 0.9, -0.21, 0.6)),
    ], ids=["gamma", "entangled", "localized-complex", "wide-alpha-beta",
            "spread-superposition", "tiny-theta-t200"])
    def test_matches_direct_evolution_at_grid_points(self, init, p_true, t,
                                                     box):
        grid = GridSpec(theta_min=box[0], theta_max=box[1],
                        alpha_min=box[2], alpha_max=box[3], n_theta=3,
                        n_alpha=5)
        table = make_likelihood_table(init, p_true, t, grid)
        thetas, alphas = grid.axes()
        lookup = {int(x): i for i, x in enumerate(table.sites)}
        for it in range(3):
            for ia in range(5):
                pd = position_distribution(evolve(
                    init, CoinParams(thetas[it], alphas[ia], p_true.beta), t))
                direct = np.zeros(table.sites.size)
                for x, pr in zip(pd.sites, pd.probs):
                    direct[lookup[int(x)]] = pr
                assert np.abs(table.probs[it, ia] - direct).max() <= 1e-10

    def test_theta_zero_row_is_a_pure_shift(self):
        # sin(theta) = 0 makes u(k) = +-1 at k = 0, -pi; the closed form
        # then takes its limit instead of dividing by zero
        init = initial_gamma(0.9)
        grid = GridSpec(theta_min=0.0, theta_max=0.9, alpha_min=-0.21,
                        alpha_max=0.6, n_theta=3, n_alpha=5)
        table = make_likelihood_table(init, CoinParams(0.7, 0.2, 0.4), 20,
                                      grid)
        shifted = np.zeros(table.sites.size)
        shifted[table.sites == 20] = 0.5       # coin 0 hops right t times
        shifted[table.sites == -20] = 0.5      # coin 1 hops left
        assert np.abs(table.probs[0] - shifted).max() <= 1e-12

    @pytest.mark.parametrize("init,p_true", [
        (initial_entangled(0, 1), CoinParams(math.pi / 4, 0.0, 0.0)),
        (initial_gamma(0.6), CoinParams(math.pi / 4, 0.3, 0.4)),
        (WalkerState(origin=-4, amps=random_amps(9, seed=5)),
         CoinParams(0.7, 0.2, -0.9)),
    ], ids=["entangled", "gamma", "random-9-sites"])
    def test_relative_accuracy_against_step_loop(self, init, p_true):
        # log p reads the tails, so the gate is relative wherever p is
        # not negligible
        t = 50
        grid = GridSpec(n_theta=4, n_alpha=6)
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

    def test_default_table_memory_is_its_two_arrays(self):
        # the table keeps probs and logp; building it may add only
        # working arrays much smaller than either
        init = initial_entangled(0, 1)
        tracemalloc.start()
        try:
            table = make_likelihood_table(
                init, CoinParams(math.pi / 4, 0.0, 0.0), 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.probs.nbytes + 16 * 2**20

    def test_degenerate_grid_rejected(self):
        # the box has to reach a flat quasi-energy: theta ~ 0 with alpha
        # sitting exactly on a momentum node (k = 0 here)
        grid = GridSpec(theta_min=1e-9, theta_max=0.5, alpha_min=-0.5,
                        alpha_max=0.5, n_theta=4, n_alpha=5)
        with pytest.raises(ValueError, match="degenerate"):
            make_likelihood_table(initial_gamma(0.3), CoinParams(0.3, 0.0, 0.0),
                                  8, grid)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError, match="empty"):
            GridSpec(theta_min=1.0, theta_max=0.5)
        with pytest.raises(ValueError, match="2 points"):
            GridSpec(n_theta=1)


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

    def test_stored_log_table_gives_the_loglik(self):
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
        assert np.abs(table.logp @ counts - fresh).max() \
            <= 1e-12 * np.abs(fresh).max()

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
