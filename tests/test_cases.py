"""Physical encodings: magnetic field and Dirac walk, their inverses,
Jacobians, and the sweep drivers."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qwfisher import (ChargeUnidentifiable, CoinParams, DegenerateWalk,
                      DiracParams, MagneticField, OutOfWindow,
                      SingularJacobian, coin_from_dirac, coin_from_magnetic,
                      dirac_first_order, dirac_from_coin, dirac_jacobian,
                      g_of_theta, initial_entangled, magnetic_from_coin,
                      magnetic_jacobian, pullback_qfim, qfim_theorem1,
                      sweep_fig1, sweep_fig2)
from qwfisher.cases import _w_sinc, _w_tanc

from oracles import coin_dense, w_sinc_series, w_tanc_series

# edge rings: fields at |b| = pi/2 - 10^-k, 64 directions each, all
# with |b2| >= 1e-3
EDGE_KS = range(1, 13)


def edge_ring(k):
    B = math.pi / 2 - 10.0 ** -k
    phis = 2.0 * math.pi * (np.arange(64) + 0.5) / 64
    return B * -np.sin(phis), B * np.cos(phis)


SIGMA = [np.eye(2),
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex)]


def rotation_matrix(b2, b3):
    """exp(-i B nhat.sigma) written out via the half-angle identity."""
    B = math.hypot(b2, b3)
    n = np.array([0.0, b2, b3]) / B
    nsigma = n[0] * SIGMA[1] + n[1] * SIGMA[2] + n[2] * SIGMA[3]
    return math.cos(B) * SIGMA[0] - 1j * math.sin(B) * nsigma


class TestMagnetic:
    def test_coin_is_the_spin_rotation_exactly(self):
        for b2, b3 in [(-0.6, 0.0), (0.5, 0.8), (-0.3, -1.2), (1.0, 0.2)]:
            p = coin_from_magnetic(MagneticField(b2=b2, b3=b3))
            assert p.beta == 0.0
            got = coin_dense(p.theta, p.alpha, p.beta)
            assert np.abs(got - rotation_matrix(b2, b3)).max() <= 1e-12

    def test_in_plane_field_gives_pure_mixing(self):
        p = coin_from_magnetic(MagneticField(b2=-0.6, b3=0.0))
        assert p.theta == pytest.approx(0.6, abs=1e-14)
        assert p.alpha == pytest.approx(0.0, abs=1e-14)

    def test_window_enforced_at_construction(self):
        with pytest.raises(OutOfWindow, match="pi/2"):
            MagneticField(b2=1.2, b3=1.2)
        # right at the edge from below is fine
        MagneticField(b2=math.pi / 2 - 1e-6, b3=0.0)

    def test_vanishing_mixing_component_rejected(self):
        with pytest.raises(DegenerateWalk, match="b2 = 0"):
            coin_from_magnetic(MagneticField(b2=0.0, b3=0.7))

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(5)
        n_done = 0
        while n_done < 40:
            b2, b3 = rng.uniform(-1.4, 1.4, size=2)
            if abs(b2) < 0.05 or math.hypot(b2, b3) > math.pi / 2 - 0.05:
                continue
            f = MagneticField(b2=b2, b3=b3)
            back, info = magnetic_from_coin(coin_from_magnetic(f),
                                            full_output=True)
            assert back.b2 == pytest.approx(b2, abs=1e-10)
            assert back.b3 == pytest.approx(b3, abs=1e-10)
            assert info["residual"] <= 1e-13
            assert info["iterations"] <= 8
            assert info["jacobian_cond"] >= 1.0
            n_done += 1

    @pytest.mark.parametrize("k", EDGE_KS)
    def test_round_trip_holds_up_to_the_window_edge(self, k):
        for b2, b3 in zip(*edge_ring(k)):
            f = MagneticField(b2=b2, b3=b3)
            back, info = magnetic_from_coin(coin_from_magnetic(f),
                                            full_output=True)
            assert abs(back.b2 - b2) <= 1e-15, (b2, b3)
            assert abs(back.b3 - b3) <= 1e-15, (b2, b3)
            assert info["residual"] <= 1e-13

    def test_inverse_rejects_wrong_phase_structure(self):
        with pytest.raises(OutOfWindow, match="beta"):
            magnetic_from_coin(CoinParams(0.5, 0.1, 0.2))

    def test_inverse_rejects_off_branch_angles(self):
        with pytest.raises(OutOfWindow, match="principal"):
            magnetic_from_coin(CoinParams(1.58, 0.1, 0.0))

    def test_jacobian_matches_finite_differences(self):
        f = MagneticField(b2=0.55, b3=-0.35)
        jac = magnetic_jacobian(f)
        h = 1e-6

        def angles(b2, b3):
            p = coin_from_magnetic(MagneticField(b2=b2, b3=b3))
            return np.array([p.theta, p.alpha])

        fd = np.column_stack([
            (angles(f.b2 + h, f.b3) - angles(f.b2 - h, f.b3)) / (2 * h),
            (angles(f.b2, f.b3 + h) - angles(f.b2, f.b3 - h)) / (2 * h)])
        assert np.abs(jac - fd).max() <= 1e-8

    def test_jacobian_at_zero_field_is_minus_identity(self):
        jac = magnetic_jacobian(MagneticField(b2=0.0, b3=0.0))
        assert np.abs(jac + np.eye(2)).max() <= 1e-15


@pytest.mark.parametrize("kernel,reference", [(_w_sinc, w_sinc_series),
                                              (_w_tanc, w_tanc_series)])
def test_slope_kernels_are_accurate_to_rounding(kernel, reference):
    # both case Jacobians read these kernels; the old closed forms lost
    # up to 1e-10 relative just above their series cutover at 1e-3
    xs = np.concatenate([np.geomspace(1e-8, 1.5, 61),
                         [0.999e-3, 1e-3, 1.0001e-3, 1e-2]])
    for x in xs:
        ref = reference(float(x))
        assert abs(kernel(float(x)) - ref) <= 1e-15 * abs(ref), x


class TestDirac:
    def test_coin_angles_and_phase_convention(self):
        d = DiracParams(m=1.0, q=0.5, a_x=1.0, eps=0.2)
        p = coin_from_dirac(d)
        assert p.beta == math.pi / 2
        w = d.omega
        assert math.sin(p.theta) == pytest.approx(
            -(d.m / w) * math.sin(d.eps * w), abs=1e-14)
        assert math.tan(p.alpha) == pytest.approx(
            -(d.q * d.a_x / w) * math.tan(d.eps * w), abs=1e-14)

    def test_dirac_coin_is_the_trotter_step_exactly(self):
        # one Trotter step exp(-i eps (m sigma_x + q A_x sigma_z)),
        # written out via the half-angle identity
        for m, q, a_x, eps in [(1.0, 1.0, 1.0, 0.01), (-0.7, 2.0, -0.3, 0.2),
                               (0.4, -1.5, 0.8, 0.5), (-1.2, -0.6, -2.0, 0.3)]:
            p = coin_from_dirac(DiracParams(m=m, q=q, a_x=a_x, eps=eps))
            w = math.hypot(m, q * a_x)
            h = (m * SIGMA[1] + q * a_x * SIGMA[3]) / w
            step = math.cos(eps * w) * SIGMA[0] - 1j * math.sin(eps * w) * h
            got = coin_dense(p.theta, p.alpha, p.beta)
            assert np.abs(got - step).max() <= 1e-12

    def test_zero_potential_hides_the_charge(self):
        with pytest.raises(ChargeUnidentifiable):
            coin_from_dirac(DiracParams(m=1.0, q=0.5, a_x=0.0, eps=0.1))
        with pytest.raises(ChargeUnidentifiable):
            dirac_first_order(CoinParams(0.3, 0.1, math.pi / 2), 0.0, 0.1)
        with pytest.raises(ChargeUnidentifiable):
            dirac_from_coin(CoinParams(0.3, 0.1, math.pi / 2), 0.0, 0.1)

    def test_massless_point_message_carries_the_phase(self):
        d = DiracParams(m=0.0, q=0.8, a_x=1.0, eps=0.2)
        expected = math.atan(-math.copysign(1.0, d.q * d.a_x)
                             * math.tan(d.eps * abs(d.q * d.a_x)))
        with pytest.raises(DegenerateWalk, match="charge") as err:
            coin_from_dirac(d)
        assert repr(expected) in str(err.value)

    def test_fully_trivial_point(self):
        with pytest.raises(DegenerateWalk, match="identity"):
            coin_from_dirac(DiracParams(m=0.0, q=0.0, a_x=1.0, eps=0.1))

    def test_window_enforced_at_construction(self):
        with pytest.raises(OutOfWindow):
            DiracParams(m=160.0, q=0.0, a_x=1.0, eps=0.01)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(11)
        eps, a_x = 0.1, 0.7
        n_done = 0
        while n_done < 40:
            m = rng.uniform(-3.0, 3.0)
            q = rng.uniform(-3.0, 3.0)
            if abs(m) < 0.1:
                continue
            d_try = math.hypot(m, q * a_x) * eps
            if d_try > math.pi / 2 - 0.05:
                continue
            p = coin_from_dirac(DiracParams(m=m, q=q, a_x=a_x, eps=eps))
            (m_hat, q_hat), info = dirac_from_coin(p, a_x, eps,
                                                   full_output=True)
            assert m_hat == pytest.approx(m, abs=1e-10)
            assert q_hat == pytest.approx(q, abs=1e-10)
            assert info["residual"] <= 1e-13
            n_done += 1

    @pytest.mark.parametrize("k", EDGE_KS)
    def test_round_trip_holds_up_to_the_window_edge(self, k):
        eps, a_x = 0.1, 0.7
        for b2, b3 in zip(*edge_ring(k)):
            m, q = b2 / eps, b3 / (eps * a_x)
            p = coin_from_dirac(DiracParams(m=m, q=q, a_x=a_x, eps=eps))
            (m_hat, q_hat), info = dirac_from_coin(p, a_x, eps,
                                                   full_output=True)
            scale = max(abs(m), abs(q))
            assert abs(m_hat - m) <= 1e-15 * scale, (m, q)
            assert abs(q_hat - q) <= 1e-15 * scale, (m, q)
            assert info["residual"] <= 1e-13

    @pytest.mark.parametrize("inverse", [dirac_first_order, dirac_from_coin])
    @pytest.mark.parametrize("a_x,eps", [
        (math.nan, 0.1), (1.0, math.nan), (math.inf, 0.1), (-math.inf, 0.1),
        (1.0, math.inf), (1.0, -math.inf), (1.0, 0.0), (1.0, -0.1),
        (1e-200, 1e-200), (1e200, 1e200)])
    def test_inverses_refuse_bad_potential_and_step(self, inverse, a_x, eps):
        with pytest.raises(ValueError):
            inverse(CoinParams(0.3, 0.1, math.pi / 2), a_x, eps)

    def test_inverse_rejects_wrong_phase_structure(self):
        with pytest.raises(OutOfWindow, match="beta"):
            dirac_from_coin(CoinParams(0.3, 0.1, 0.0), 1.0, 0.1)

    def test_jacobian_matches_finite_differences(self):
        d = DiracParams(m=1.3, q=-0.8, a_x=0.9, eps=0.15)
        jac = dirac_jacobian(d)
        h = 1e-6

        def angles(m, q):
            p = coin_from_dirac(DiracParams(m=m, q=q, a_x=d.a_x, eps=d.eps))
            return np.array([p.theta, p.alpha])

        fd = np.column_stack([
            (angles(d.m + h, d.q) - angles(d.m - h, d.q)) / (2 * h),
            (angles(d.m, d.q + h) - angles(d.m, d.q - h)) / (2 * h)])
        assert np.abs(jac - fd).max() <= 1e-8

    def test_first_order_inverse_accuracy_and_order(self):
        m, q, a_x = 1.2, 0.7, 1.0
        errs = []
        for eps in (0.02, 0.01, 0.005):
            p = coin_from_dirac(DiracParams(m=m, q=q, a_x=a_x, eps=eps))
            m1, q1 = dirac_first_order(p, a_x, eps)
            errs.append(max(abs(m1 - m), abs(q1 - q)))
        assert errs[1] <= 1e-3
        slope = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert slope == pytest.approx(2.0, abs=0.2)


class TestPullback:
    def make_f(self):
        return qfim_theorem1(CoinParams(0.8, 0.15, 0.0),
                             initial_entangled(0, 1), t=30)

    def test_congruence(self):
        f = self.make_f()
        jac = np.array([[0.7, -0.2], [0.1, 1.3]])
        out = pullback_qfim(f, jac, ("b2", "b3"))
        assert out.labels == ("b2", "b3")
        assert out.t == f.t
        assert np.abs(out.entries - jac.T @ f.entries @ jac).max() <= 1e-12

    def test_scalar_information_is_invariant_along_map(self):
        # variance bound of a scalar function is chart independent:
        # check J^T F J against directly propagating a unit direction
        f = self.make_f()
        jac = np.array([[0.5, 0.0], [0.0, 2.0]])
        out = pullback_qfim(f, jac, ("x", "y"))
        assert out.entries[0, 0] == pytest.approx(0.25 * f.entries[0, 0])
        assert out.entries[1, 1] == pytest.approx(4.0 * f.entries[1, 1])

    def test_rejects_plain_arrays(self):
        with pytest.raises(ValueError, match="QFIMatrix"):
            pullback_qfim(np.eye(2), np.eye(2), ("a", "b"))

    def test_rejects_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            pullback_qfim(self.make_f(), np.array([[1.0, 2.0], [2.0, 4.0]]),
                          ("a", "b"))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            pullback_qfim(self.make_f(), np.eye(3), ("a", "b", "c"))


class TestSweeps:
    def test_fig1_structure_and_ratio(self):
        theta = 0.9
        out = sweep_fig1(theta, 40)
        curves = out["curves"]
        assert list(curves.columns) == ["t", "qfi_ry0", "qfi_ry1", "ratio"]
        assert len(curves.columns["t"]) == 40
        np.testing.assert_allclose(curves.columns["ratio"],
                                   1.0 + math.sin(theta), rtol=1e-12)
        # quadratic growth in t
        f0 = np.asarray(curves.columns["qfi_ry0"])
        ts = np.asarray(curves.columns["t"], dtype=float)
        np.testing.assert_allclose(f0 / ts ** 2, f0[0], rtol=1e-12)

    def test_fig1_inset_open_interval(self):
        inset = sweep_fig1(0.9, 5)["inset"]
        th = np.asarray(inset.columns["theta"])
        assert len(th) == 64
        assert th.min() > 0.0 and th.max() < math.pi / 2

    def test_fig2_decay_law(self):
        thetas = [0.7853981633974483, 1.1]
        out = sweep_fig2(thetas, 30)
        curves = out["curves"]
        assert len(curves.columns["t"]) == 2 * 30
        th = np.asarray(curves.columns["theta"])
        t = np.asarray(curves.columns["t"], dtype=float)
        ch = np.asarray(curves.columns["c_h"])
        for th0 in thetas:
            sel = th == th0
            np.testing.assert_allclose(ch[sel], g_of_theta(th0) / t[sel] ** 2,
                                       rtol=1e-12)
        inset = out["inset"]
        gs = np.asarray(inset.columns["g"])
        th_in = np.asarray(inset.columns["theta"])
        np.testing.assert_allclose(gs, [g_of_theta(x) for x in th_in],
                                   rtol=1e-12)

    def test_large_t_grid_is_log_spaced(self):
        out = sweep_fig1(0.8, 5000)
        ts = np.asarray(out["curves"].columns["t"])
        assert ts[0] == 1 and ts[-1] == 5000
        assert len(ts) <= 256
        assert np.all(np.diff(ts) > 0)

    def test_large_t_grid_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on its first call in a process,
        # which costs a sweep more than the deduplication itself
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "from qwfisher import sweep_fig2\n"
                "sweep_fig2([0.7], 1000)\n"
                "print('numpy.ma' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_t_max_validation(self):
        with pytest.raises(ValueError, match="t_max"):
            sweep_fig1(0.8, 0)
