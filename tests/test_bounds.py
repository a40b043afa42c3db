"""Scalar bounds: symmetric, incompatibility measure, Holevo pinching."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwfisher import (CoinParams, IncompatibleModel, QFIMatrix,
                      SingularFisher, WeightMatrix, g_of_theta,
                      holevo_compatible, incompatibility_R, initial_entangled,
                      qfim_theorem1, sandwich, symmetric_bound,
                      uhlmann_analytic)
from qwfisher.bounds import _det_2x2, _inverse_2x2

from oracles import G_QUARTER_PI, G_THREE_EIGHTHS_PI, bounds_by_numpy

LABELS = ("theta", "alpha")


def fisher(m):
    """F as the bounds take it: a symmetric 2x2 QFIMatrix."""
    return QFIMatrix(np.array(m, dtype=float), LABELS)


def curvature(x):
    """D = [[0, x], [-x, 0]] as the bounds take it."""
    return QFIMatrix(np.array([[0.0, x], [-x, 0.0]]), LABELS,
                     antisymmetric=True)


def spd2(a, b, c):
    m = np.array([[a, c], [c, b]], dtype=float)
    assert np.linalg.eigvalsh(m).min() > 0
    return fisher(m)


class TestWeightMatrix:
    def test_identity(self):
        # the identity weight is the unweighted bound
        f = spd2(3.0, 5.0, 1.0)
        assert symmetric_bound(f, WeightMatrix(np.eye(2))) \
            == symmetric_bound(f)

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
        inv = np.linalg.inv(f.entries)
        assert symmetric_bound(f) == pytest.approx(np.trace(inv), rel=1e-14)
        w = WeightMatrix(entries=spd2(2.0, 1.0, 0.25).entries)
        assert symmetric_bound(f, w) == pytest.approx(
            np.trace(inv @ w.entries), rel=1e-14)

    def test_scalar_block(self):
        # a 1x1 block is refused, not inverted as a scalar
        with pytest.raises(ValueError, match="got a 1x1 symmetric QFIMatrix"):
            symmetric_bound(QFIMatrix(np.array([[4.0]]), ("theta",)))

    def test_weight_shape_mismatch(self):
        # a weight that is not 2x2 is refused before any bound reads it
        with pytest.raises(ValueError, match="2x2"):
            WeightMatrix(entries=np.eye(3))

    def test_singular_names_the_flat_direction(self):
        f = fisher([[4.0, 0.0], [0.0, 0.0]])
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

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
    def test_domain_edges_raise(self, theta):
        with pytest.raises(SingularFisher):
            g_of_theta(theta)

    def test_negative_theta_mirrors_positive(self):
        # the closed form takes |sin theta|, as the coin and the route do
        assert g_of_theta(-0.3) == g_of_theta(0.3)
        theta, t = -1.1, 200
        f = qfim_theorem1(CoinParams(theta, 0.0, 0.0), initial_entangled(0, 1),
                          t=t)
        assert symmetric_bound(f) * t * t == pytest.approx(g_of_theta(theta),
                                                           rel=1e-9)

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
        assert incompatibility_R(spd2(3.0, 5.0, 1.0), curvature(0.0)) == 0.0

    def test_antisymmetric_formula(self):
        f = spd2(3.0, 5.0, 1.0)
        d = curvature(0.7)
        expected = 0.7 / math.sqrt(np.linalg.det(f.entries))
        assert incompatibility_R(f, d) == pytest.approx(expected, rel=1e-14)

    def test_clamps_tiny_overshoot(self):
        f = fisher(np.eye(2))
        d = curvature(1.0 + 1e-10)
        assert incompatibility_R(f, d) == 1.0

    def test_large_overshoot_reported_as_is(self):
        f = fisher(np.eye(2))
        d = curvature(2.0)
        assert incompatibility_R(f, d) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        zero3 = QFIMatrix(np.zeros((3, 3)), ("theta", "alpha", "x"),
                          antisymmetric=True)
        with pytest.raises(ValueError, match="got a 3x3 antisymmetric"):
            incompatibility_R(spd2(3.0, 5.0, 1.0), zero3)
        # a zero curvature of the wrong shape or type certifies no
        # compatibility
        for d in (zero3, np.zeros((2, 2)), np.zeros(5)):
            with pytest.raises(ValueError, match="antisymmetric 2x2"):
                holevo_compatible(spd2(3.0, 5.0, 1.0), None, d)

    def test_singular_fisher(self):
        with pytest.raises(SingularFisher):
            incompatibility_R(fisher([[1.0, 0.0], [0.0, 0.0]]),
                              curvature(0.0))

    def test_scalar_block_is_refused(self):
        with pytest.raises(ValueError, match="got a 1x1 symmetric QFIMatrix"):
            incompatibility_R(QFIMatrix(np.array([[2.0]]), ("theta",)),
                              curvature(0.0))


class TestSandwichAndHolevo:
    def test_sandwich_pinches_without_curvature(self):
        f = spd2(3.0, 5.0, 1.0)
        lo, hi = sandwich(f)
        assert lo == hi == pytest.approx(symmetric_bound(f))

    def test_sandwich_widens_with_curvature(self):
        f = spd2(3.0, 5.0, 1.0)
        d = curvature(0.5)
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
        assert res.value == symmetric_bound(f)
        assert res.value * t * t == pytest.approx(G_QUARTER_PI, rel=1e-9)
        assert "<=" in res.certificate

    def test_holevo_rejects_incompatible(self):
        f = spd2(3.0, 5.0, 1.0)
        d = curvature(1.0)
        # the bracket in the message is the sandwich's
        with pytest.raises(IncompatibleModel,
                           match=re.escape("bracketed: [%r, %r]"
                                           % sandwich(f, None, d))):
            holevo_compatible(f, d=d)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, math.inf])
    def test_bad_eps_rejected(self, eps):
        # R = 0.25 here; a threshold every comparison passes or fails
        # must not certify the model compatible
        with pytest.raises(ValueError, match="threshold"):
            holevo_compatible(fisher(np.eye(2)), d=curvature(0.25), eps=eps)

    def test_ill_conditioned_block_is_refused(self):
        # max |D| / max |F| = 2.5e-7 is below eps; R = 5e-4 is not
        f, d = fisher(np.diag([4.0, 1e-6])), curvature(1e-6)
        assert incompatibility_R(f, d) == pytest.approx(5e-4, rel=1e-15)
        with pytest.raises(IncompatibleModel, match=re.escape(
                "incompatibility R = 5.000e-04 exceeds 1.0e-06; Holevo bound "
                "only bracketed: [%r, %r]" % sandwich(f, None, d))):
            holevo_compatible(f, d=d)

    def test_certificate_reads_R(self):
        f, d = spd2(3.0, 5.0, 1.0), curvature(1e-7)
        r = incompatibility_R(f, d)
        res = holevo_compatible(f, d=d)
        assert res.r == r
        assert res.certificate == f"R = {r:.3e} <= 1.0e-06"

    def test_eps_override(self):
        f = fisher(np.eye(2))
        d = curvature(1e-4)
        with pytest.raises(IncompatibleModel):
            holevo_compatible(f, d=d)
        res = holevo_compatible(f, d=d, eps=1e-3)
        assert res.r == pytest.approx(1e-4)


class TestNonFiniteEntries:
    """Every gate fails on NaN and inf, so none of them certifies one."""

    F = fisher([[2.0, 0.3], [0.3, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_weight_matrix(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            WeightMatrix(np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fisher_block(self, bad):
        # QFIMatrix refuses the entries, and no bound takes the array
        f = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            QFIMatrix(f, LABELS)
        with pytest.raises(ValueError, match="finite"):
            QFIMatrix(np.array([[bad]]), ("theta",))
        zero = curvature(0.0)
        for bound in (symmetric_bound, lambda m: incompatibility_R(m, zero),
                      holevo_compatible, lambda m: sandwich(m, None, zero)):
            with pytest.raises(ValueError, match="got ndarray"):
                bound(f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_curvature(self, bad):
        d = np.array([[0.0, bad], [-bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            QFIMatrix(d, LABELS, antisymmetric=True)
        with pytest.raises(ValueError, match="got ndarray"):
            incompatibility_R(self.F, d)
        with pytest.raises(ValueError, match="got ndarray"):
            holevo_compatible(self.F, None, d)

    def test_small_block_gates(self):
        # the gates themselves, below QFIMatrix's finite-entry check
        nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularFisher):
            _det_2x2(nan, LABELS)
        with pytest.raises(SingularFisher):
            _inverse_2x2(nan, LABELS)


class TestInputType:
    """The bounds take F and D as 2x2 QFIMatrix objects and nothing else."""

    F = spd2(3.0, 5.0, 1.0)

    @pytest.mark.parametrize("bound", [
        symmetric_bound, sandwich, holevo_compatible,
        lambda f: incompatibility_R(f, curvature(0.0))])
    def test_refuses_an_ndarray_and_a_1x1_block(self, bound):
        with pytest.raises(ValueError, match="got ndarray"):
            bound(self.F.entries.copy())
        with pytest.raises(ValueError, match="got a 1x1 symmetric QFIMatrix"):
            bound(QFIMatrix(np.array([[4.0]]), ("theta",)))

    def test_refuses_a_symmetric_curvature(self):
        d = fisher(np.zeros((2, 2)))
        for bound in (incompatibility_R, lambda f, d: sandwich(f, None, d),
                      lambda f, d: holevo_compatible(f, None, d)):
            with pytest.raises(ValueError,
                               match="got a 2x2 symmetric QFIMatrix"):
                bound(self.F, d)

    def test_refuses_an_antisymmetric_fisher_block(self):
        with pytest.raises(ValueError, match="got a 2x2 antisymmetric"):
            symmetric_bound(curvature(0.0))

    def test_entries_are_a_read_only_copy(self):
        src = np.array([[3.0, 1.0], [1.0, 5.0]])
        f = QFIMatrix(src, LABELS)
        cs = symmetric_bound(f)
        src[0, 1] = src[1, 0] = 100.0
        assert np.array_equal(f.entries, [[3.0, 1.0], [1.0, 5.0]])
        assert not f.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f.entries[0, 0] = -1.0
        assert symmetric_bound(f) == cs


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8.0, 8.0),
       log_cond=st.floats(0.0, 9.0), asym=st.booleans())
def test_float_forms_equal_the_numpy_forms_bitwise(seed, log_scale, log_cond,
                                                    asym):
    # a random positive-definite 2x2 block, exactly symmetric or not,
    # and a curvature inside the compatible and the clamped range
    rng = np.random.default_rng(seed)
    c, s = np.cos(phi := rng.uniform(0, np.pi)), np.sin(phi)
    q = np.array([[c, -s], [s, c]])
    lam = 10.0 ** log_scale * np.array([1.0, 10.0 ** -log_cond])
    f = q @ np.diag(lam) @ q.T
    if asym:
        f[1, 0] *= 1.0 + 1e-13 * rng.normal()
    x = rng.normal() * np.sqrt(lam[1] * lam[0]) * rng.uniform(0.0, 1.2)
    d = np.array([[0.0, x], [-x, 0.0]])
    det, inv, cs, r = bounds_by_numpy(f, d)
    assert _det_2x2(f, LABELS) == det
    assert np.array_equal(np.array(_inverse_2x2(f, LABELS)), inv)
    fm, dm = fisher(f), curvature(x)
    assert np.array_equal(fm.entries, f) and np.array_equal(dm.entries, d)
    assert symmetric_bound(fm) == cs
    assert sandwich(fm)[0] == cs
    if r <= 1.0:
        assert incompatibility_R(fm, dm) == r
    assert holevo_compatible(fm, None, dm, eps=1e300).r \
        == incompatibility_R(fm, dm)
