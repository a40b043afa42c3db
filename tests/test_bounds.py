"""Scalar bounds: symmetric, incompatibility measure, Holevo pinching."""
import math

import numpy as np
import pytest

from qwfisher import (CoinParams, IncompatibleModel, SingularFisher,
                      WeightMatrix, g_of_theta, holevo_compatible,
                      incompatibility_R, initial_entangled, qfim_theorem1,
                      sandwich, symmetric_bound, uhlmann_analytic)

from oracles import G_QUARTER_PI, G_THREE_EIGHTHS_PI


def spd2(a, b, c):
    m = np.array([[a, c], [c, b]], dtype=float)
    assert np.linalg.eigvalsh(m).min() > 0
    return m


class TestWeightMatrix:
    def test_identity(self):
        w = WeightMatrix.identity()
        assert np.array_equal(w.entries, np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            WeightMatrix(entries=np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            WeightMatrix(entries=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            WeightMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSymmetricBound:
    def test_matches_manual_inverse(self):
        f = spd2(3.0, 5.0, 1.0)
        inv = np.linalg.inv(f)
        assert symmetric_bound(f) == pytest.approx(np.trace(inv), rel=1e-14)
        w = WeightMatrix(entries=spd2(2.0, 1.0, 0.25))
        assert symmetric_bound(f, w) == pytest.approx(
            np.trace(inv @ w.entries), rel=1e-14)

    def test_scalar_block(self):
        assert symmetric_bound(np.array([[4.0]])) == pytest.approx(0.25)

    def test_weight_shape_mismatch(self):
        with pytest.raises(ValueError, match="weight shape"):
            symmetric_bound(spd2(3.0, 5.0, 1.0),
                            WeightMatrix(entries=np.eye(3)))

    def test_singular_names_the_flat_direction(self):
        f = np.array([[4.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularFisher) as err:
            symmetric_bound(f)
        assert err.value.parameter == "alpha"

    def test_full_three_parameter_matrix_rejected(self):
        f = qfim_theorem1(CoinParams(0.8, 0.2, 0.0), initial_entangled(0, 1),
                          t=10, params=("theta", "alpha", "beta"))
        with pytest.raises(ValueError, match="beta"):
            symmetric_bound(f)
        assert symmetric_bound(f.identifiable_block()) > 0

    def test_accepts_qfim_object(self):
        f = qfim_theorem1(CoinParams(0.8, 0.2, 0.0), initial_entangled(0, 1),
                          t=10)
        manual = np.trace(np.linalg.inv(f.entries))
        assert symmetric_bound(f) == pytest.approx(manual, rel=1e-12)


class TestGOfTheta:
    def test_frozen_values(self):
        assert g_of_theta(math.pi / 4) == pytest.approx(G_QUARTER_PI,
                                                        abs=1e-14)
        assert g_of_theta(3 * math.pi / 8) == pytest.approx(
            G_THREE_EIGHTHS_PI, abs=1e-13)

    def test_diverges_toward_half_pi(self):
        assert g_of_theta(1.55) > g_of_theta(1.3) > g_of_theta(1.1)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, -0.3])
    def test_domain_edges_raise(self, theta):
        with pytest.raises(SingularFisher):
            g_of_theta(theta)

    @pytest.mark.parametrize("delta", [1e-6, 1e-8])
    def test_no_cancellation_near_half_pi(self, delta):
        theta = math.pi / 2 - delta
        s = math.sin(theta)
        # 1 - sin(theta) = 2 sin^2(d/2) with d = pi/2 - theta = asin(cos theta)
        one_minus_s = 2.0 * math.sin(0.5 * math.asin(math.cos(theta))) ** 2
        expected = (s + math.cos(theta) ** 2) / (4.0 * s * one_minus_s)
        assert abs(g_of_theta(theta) / expected - 1.0) <= 1e-12

    def test_matches_symmetric_bound_of_fixture(self):
        # trace bound of the asymptotic entangled-input matrix, times t^2
        theta = 1.1
        t = 200
        f = qfim_theorem1(CoinParams(theta, 0.0, 0.0), initial_entangled(0, 1),
                          t=t)
        assert symmetric_bound(f) * t * t == pytest.approx(g_of_theta(theta),
                                                           rel=1e-9)


class TestIncompatibility:
    def test_zero_curvature(self):
        assert incompatibility_R(spd2(3.0, 5.0, 1.0), np.zeros((2, 2))) == 0.0

    def test_antisymmetric_formula(self):
        f = spd2(3.0, 5.0, 1.0)
        d = np.array([[0.0, 0.7], [-0.7, 0.0]])
        expected = 0.7 / math.sqrt(np.linalg.det(f))
        assert incompatibility_R(f, d) == pytest.approx(expected, rel=1e-14)

    def test_clamps_tiny_overshoot(self):
        f = np.eye(2)
        d = np.array([[0.0, 1.0 + 1e-10], [-1.0 - 1e-10, 0.0]])
        assert incompatibility_R(f, d) == 1.0

    def test_large_overshoot_reported_as_is(self):
        f = np.eye(2)
        d = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert incompatibility_R(f, d) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="curvature shape"):
            incompatibility_R(spd2(3.0, 5.0, 1.0), np.zeros((3, 3)))

    def test_singular_fisher(self):
        with pytest.raises(SingularFisher):
            incompatibility_R(np.array([[1.0, 0.0], [0.0, 0.0]]),
                              np.zeros((2, 2)))

    def test_scalar_block_is_compatible(self):
        assert incompatibility_R(np.array([[2.0]]), np.array([[0.0]])) == 0.0


class TestSandwichAndHolevo:
    def test_sandwich_pinches_without_curvature(self):
        f = spd2(3.0, 5.0, 1.0)
        lo, hi = sandwich(f)
        assert lo == hi == pytest.approx(symmetric_bound(f))

    def test_sandwich_widens_with_curvature(self):
        f = spd2(3.0, 5.0, 1.0)
        d = np.array([[0.0, 0.5], [-0.5, 0.0]])
        lo, hi = sandwich(f, d=d)
        r = incompatibility_R(f, d)
        assert hi == pytest.approx(lo * (1.0 + r), rel=1e-14)

    def test_holevo_compatible_fixture(self):
        theta = math.pi / 4
        t = 100
        p = CoinParams(theta, 0.0, 0.0)
        init = initial_entangled(0, 1)
        f = qfim_theorem1(p, init, t=t)
        d = uhlmann_analytic(p, init, t=t)
        res = holevo_compatible(f, d=d)
        assert res.value == res.symmetric_value
        assert res.value * t * t == pytest.approx(G_QUARTER_PI, rel=1e-9)
        assert "<=" in res.certificate

    def test_holevo_rejects_incompatible(self):
        f = spd2(3.0, 5.0, 1.0)
        d = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(IncompatibleModel, match="bracketed"):
            holevo_compatible(f, d=d)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, math.inf])
    def test_bad_eps_rejected(self, eps):
        # R = 0.25 here; a threshold every comparison passes or fails
        # must not certify the model compatible
        d = np.array([[0.0, 0.25], [-0.25, 0.0]])
        with pytest.raises(ValueError, match="threshold"):
            holevo_compatible(np.eye(2), d=d, eps=eps)

    def test_eps_override(self):
        f = np.eye(2)
        d = np.array([[0.0, 1e-4], [-1e-4, 0.0]])
        with pytest.raises(IncompatibleModel):
            holevo_compatible(f, d=d)
        res = holevo_compatible(f, d=d, eps=1e-3)
        assert res.r == pytest.approx(1e-4)
