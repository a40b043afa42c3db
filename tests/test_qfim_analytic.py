"""Asymptotic information matrix: generator vectors, zone integrals, closed forms."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwfisher import (CoinParams, DegenerateWalk, QFIMatrix, SingularFisher,
                      WalkerState, beta_null_check, g_of_theta,
                      initial_entangled, initial_gamma, initial_localized,
                      qfim_localized, qfim_theorem1, single_param_qfi,
                      uhlmann_analytic)
from qwfisher import cli
from qwfisher.qfim import PSD_TOL, SYM_TOL, _zone_means, a1_grid, rho_bloch
from qwfisher.quadrature import adaptive_mean_over_bz
from qwfisher.walk import generator_spatial, spinors_at

import oracles
from oracles import (F_AA_QUARTER_PI, F_TT_QUARTER_PI, GOLDEN_COMMON,
                     GOLDEN_THETA, PAULI, PREF_RY0_QUARTER_PI,
                     PREF_RY1_QUARTER_PI, qfim_first_term, qfim_max_diag,
                     qfimatrix_checks, random_coin_angles, random_spinor,
                     u_dense, z_turn, zone_means_by_rfft)

QUARTER = math.pi / 4


# ---------------------------------------------------------------------------
# generator Pauli vectors and the coin's reduced frame


def test_theta_generator_components():
    p = CoinParams(0.8, 0.5, 0.1)
    phi = 0.5 - 0.1
    expected = 2 * np.array([-math.sin(phi), math.cos(phi), 0.0])
    assert np.abs(oracles.generator_spatial(p)[0] - expected).max() <= 1e-14


def test_beta_generator_components():
    p = CoinParams(0.8, 0.5, 0.1)
    phi, s2 = 0.4, math.sin(1.6)
    expected = np.array([math.cos(phi) * s2, math.sin(phi) * s2,
                         -2 * math.sin(0.8) ** 2])
    assert np.abs(oracles.generator_spatial(p)[2] - expected).max() <= 1e-14


def test_reduced_generators_are_the_lab_ones_turned():
    # the frame u(k; theta, alpha, beta) = D(-a2) u(k - alpha; theta, 0,
    # 0) D(a2) itself is checked on the dense u(k) in test_closed_form;
    # D(a2) turns the lab generator vectors about z by beta - alpha
    rng = np.random.default_rng(26)
    for th, al, be in random_coin_angles(rng, 200):
        p = CoinParams(th, al, be)
        turned = oracles.generator_spatial(p) @ z_turn(p.beta - p.alpha)[1:, 1:].T
        assert np.abs(generator_spatial(p.theta) - turned).max() <= 1e-14


@pytest.mark.parametrize("mu", ["theta", "alpha", "beta"])
def test_generator_matches_finite_difference_of_uk(mu):
    # O_mu = u^dag d_mu u = (i/2) w_mu.sigma is momentum independent;
    # the package's w_mu is the reduced frame's, D(a2) O_mu D(-a2)
    p = CoinParams(1.1, -0.7, 0.3)
    w = generator_spatial(p.theta)[("theta", "alpha", "beta").index(mu)]
    d = np.diag(np.exp(0.5j * (p.alpha - p.beta) * np.array([1.0, -1.0])))
    o = d.conj() @ (0.5j * np.einsum("i,iab->ab", w, PAULI[1:])) @ d
    h = 1e-6
    up = dataclasses.replace(p, **{mu: getattr(p, mu) + h})
    dn = dataclasses.replace(p, **{mu: getattr(p, mu) - h})
    ks = [-2.0, 0.0, 1.3]
    u = u_dense(p.theta, p.alpha, p.beta, ks)
    du = (u_dense(up.theta, up.alpha, up.beta, ks)
          - u_dense(dn.theta, dn.alpha, dn.beta, ks)) / (2 * h)
    for one, d_one in zip(u, du):
        assert np.abs(one.conj().T @ d_one - o).max() <= 1e-8


# ---------------------------------------------------------------------------
# beta nullity


def test_beta_null_specific_and_near_half_pi():
    assert beta_null_check(CoinParams(QUARTER, 0.3, -1.1)) <= 1e-12
    assert beta_null_check(CoinParams(math.pi / 2 - 1e-6, 0.0, 2.0)) <= 1e-12


def test_beta_null_for_random_parameters():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        p = CoinParams(rng.uniform(0.1, 1.47), rng.uniform(-math.pi, math.pi),
                       rng.uniform(-math.pi, math.pi))
        worst = max(worst, beta_null_check(p))
    assert worst <= 1e-11


# ---------------------------------------------------------------------------
# entangled fixture and the diagonal maxima


def test_entangled_fixture_reproduces_closed_form_diagonal():
    p = CoinParams(QUARTER, 0.0, 0.0)
    f = qfim_theorem1(p, initial_entangled(0, 1), t=100)
    assert f.asymptotic
    assert f.labels == ("theta", "alpha")
    per = f.per_t2
    assert per[0, 0] == pytest.approx(F_TT_QUARTER_PI, abs=1e-6)
    assert per[1, 1] == pytest.approx(F_AA_QUARTER_PI, abs=1e-6)
    assert abs(per[0, 1]) <= 1e-10


def test_entangled_fixture_diagonal_for_any_phases():
    # the pair input wipes the state-dependent integrals whatever the phases
    rng = np.random.default_rng(12)
    init = initial_entangled(0, 1)
    for _ in range(5):
        p = CoinParams(rng.uniform(0.3, 1.3), rng.uniform(-3, 3),
                       rng.uniform(-3, 3))
        f = qfim_theorem1(p, init, t=10)
        first = qfim_first_term(p)
        assert np.abs(f.per_t2 - first).max() <= 1e-9
        assert abs(f.per_t2[0, 1]) <= 1e-10


def test_entangled_odd_separations_share_the_fixture_values():
    p = CoinParams(0.7, 0.2, -0.5)
    ref = qfim_theorem1(p, initial_entangled(0, 1), t=10).per_t2
    for x2 in (3, 5, 9):
        f = qfim_theorem1(p, initial_entangled(0, x2), t=10).per_t2
        assert np.abs(f - ref).max() <= 1e-10


def test_golden_ratio_point_equalizes_the_diagonal():
    f = qfim_theorem1(CoinParams(GOLDEN_THETA, 0.0, 0.0),
                      initial_entangled(0, 1), t=7)
    per = f.per_t2
    assert per[0, 0] == pytest.approx(per[1, 1], abs=1e-9)
    assert per[0, 0] == pytest.approx(GOLDEN_COMMON, abs=1e-7)
    ft, fa = qfim_max_diag(GOLDEN_THETA, t=1)
    assert ft == pytest.approx(fa, abs=1e-9)


def test_max_diag_closed_forms():
    ft, fa = qfim_max_diag(math.pi / 2, t=3)
    assert ft == pytest.approx(2.0 * 9, abs=1e-12)
    assert fa == pytest.approx(0.0, abs=1e-12)
    ft, fa = qfim_max_diag(QUARTER, t=1)
    assert ft == pytest.approx(F_TT_QUARTER_PI, abs=1e-12)
    assert fa == pytest.approx(F_AA_QUARTER_PI, abs=1e-12)


def test_first_term_off_diagonal_vanishes():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = CoinParams(rng.uniform(0.2, 1.4), rng.uniform(-3, 3),
                       rng.uniform(-3, 3))
        first = qfim_first_term(p)
        assert abs(first[0, 1]) <= 1e-10


# ---------------------------------------------------------------------------
# exact zone integrals


def _projector_reference(p, init):
    """Per-t^2 matrix over the full triple from the projector-form integrands.

    o0 (O_u|A1|O_v) and (O_u|A1|rho0) are built from ``a1_grid`` and the
    input's Pauli 4-vector at each momentum and averaged over the zone by
    adaptive Gauss-Legendre doubling at rel_tol = 1e-12.
    """
    o = np.zeros((3, 4))
    o[:, 1:] = oracles.generator_spatial(p)
    iu = np.triu_indices(3)
    # a1_grid is the reduced frame's: turned back into the lab frame
    r = z_turn(p.beta - p.alpha)

    def f(k):
        phi = spinors_at(init, k)
        rho0 = np.einsum("na,iab,nb->ni", phi.conj(), PAULI, phi).real
        oa = np.einsum("mi,nij->nmj", o, r.T @ a1_grid(p, k) @ r)
        first = np.einsum("nmj,lj->nml", oa, o)[:, iu[0], iu[1]] * rho0[:, :1]
        return np.concatenate([first, np.einsum("nmj,nj->nm", oa, rho0)],
                              axis=1)

    vals, _ = adaptive_mean_over_bz(f, rel_tol=1e-12, max_nodes=1 << 18)
    first = np.zeros((3, 3))
    first[iu] = vals[:6]
    first = first + first.T - np.diag(np.diag(first))
    return first - np.outer(vals[6:], vals[6:])


EDGE = 1e-3
mixing_angles = st.one_of(st.floats(EDGE, math.pi - EDGE),
                          st.floats(-math.pi + EDGE, -EDGE))
# alpha and beta away from zero
phases = st.one_of(st.floats(1e-3, math.pi), st.floats(-math.pi, -1e-3))


@settings(max_examples=40, deadline=None)
@given(theta=mixing_angles, alpha=st.floats(-math.pi, math.pi),
       beta=st.floats(-math.pi, math.pi), n_sites=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
@example(theta=EDGE, alpha=0.3, beta=-1.2, n_sites=9, seed=0)
@example(theta=math.pi - EDGE, alpha=-2.9, beta=0.4, n_sites=4, seed=1)
@example(theta=-EDGE, alpha=1.7, beta=2.2, n_sites=1, seed=2)
@example(theta=2.0, alpha=-0.6, beta=0.0, n_sites=6, seed=3)
def test_exact_route_matches_adaptive_projector_quadrature(theta, alpha, beta,
                                                           n_sites, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    init = WalkerState(origin=int(rng.integers(-4, 5)),
                       amps=z / np.linalg.norm(z))
    p = CoinParams(theta, alpha, beta)
    ref = _projector_reference(p, init)
    f = qfim_theorem1(p, init, t=1, params=("theta", "alpha", "beta")).per_t2
    assert np.abs(f - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("theta", [1e-4, 1e-6, 1e-9, 1e-12])
def test_exact_route_diagonal_below_the_reference_range(theta):
    # closer to sin(theta) = 0 than Gauss doubling reaches: check each
    # diagonal entry against the entangled and single-site closed forms
    s = math.sin(theta)
    gamma = 0.9
    r = np.array([math.cos(gamma), math.sin(gamma), 0.0])
    for alpha, beta in ((0.3, 0.0), (-2.1, 1.4)):
        p = CoinParams(theta, alpha, beta)
        pair = qfim_theorem1(p, initial_entangled(0, 1), t=1).per_t2
        single = qfim_theorem1(p, initial_gamma(gamma), t=1).per_t2
        local = qfim_localized(theta, alpha - beta, r, 1).entries
        for got, want in ((pair[0, 0], 4 * s / (1 + s)),
                          (pair[1, 1], 4 * (1 - s)),
                          (single[0, 0], local[0, 0]),
                          (single[1, 1], local[1, 1])):
            assert abs(got / want - 1.0) <= 1e-14


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# |theta| log-uniform in [1e-9, pi/2], or pi/2 - delta with delta
# log-uniform, on either side of zero
weight_angles = st.builds(
    lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
    st.one_of(_log_uniform(1e-9, math.pi / 2),
              _log_uniform(1e-9, 1.0).map(lambda d: math.pi / 2 - d)))


@st.composite
def dense_or_sparse_inputs(draw):
    """Either up to 9 consecutive random sites, or 2 to 4 random sites
    spread over a window up to 3,000 wide.  Returns (input, sparse)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        width = draw(st.integers(2, 3000))
        rows = np.unique(np.concatenate(
            ([0, width - 1], rng.integers(0, width, size=draw(st.integers(0, 2))))))
        amps = np.zeros((width, 2), dtype=complex)
        amps[rows] = rng.normal(size=(rows.size, 2)) + 1j * rng.normal(size=(rows.size, 2))
        sparse = True
    else:
        amps = rng.normal(size=(draw(st.integers(1, 9)), 2)) * (1 + 0j)
        amps += 1j * rng.normal(size=amps.shape)
        sparse = False
    origin = int(rng.integers(-50, 51))
    return WalkerState(origin=origin, amps=amps / np.linalg.norm(amps)), sparse


@settings(max_examples=80, deadline=None)
@given(theta=weight_angles, alpha=st.floats(-math.pi, math.pi),
       beta=st.floats(-math.pi, math.pi), drawn=dense_or_sparse_inputs())
@example(theta=1e-9, alpha=0.3, beta=-1.2, drawn=(initial_entangled(0, 1), False))
@example(theta=-(math.pi / 2 - 1e-9), alpha=2.9, beta=0.4,
         drawn=(initial_entangled(-1500, 1499), True))
def test_node_weights_match_the_rfft_means(theta, alpha, beta, drawn):
    # the node weights against the transform of each numerator: the two
    # forms differ by their summation order alone (up to 9e-13 seen at
    # 3,000 sites), and each moves by up to 3e-11 relative when its own
    # grid is doubled there, the rounding floor the sparse bound sits on
    init, sparse = drawn
    p = CoinParams(theta, alpha, beta)
    params = ("theta", "alpha", "beta")
    first, y = _zone_means(p, init, params)
    ref_first, ref_y = zone_means_by_rfft(p, init, params)
    f, ref = first - np.outer(y, y), ref_first - np.outer(ref_y, ref_y)
    assert np.array_equal(first, first.T)
    tol = 1e-10 if sparse else 1e-13
    assert np.abs(f - ref).max() <= tol * max(1.0, np.abs(ref).max())


@st.composite
def lab_frame_inputs(draw):
    """A gamma input, the entangled pair, a single site with a complex
    spinor, or 2 to 8 consecutive random sites."""
    kind = draw(st.sampled_from(["gamma", "entangled", "localized", "sites"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gamma":
        return initial_gamma(rng.uniform(-math.pi, math.pi))
    if kind == "entangled":
        return initial_entangled(0, 1)
    if kind == "localized":
        return initial_localized(int(rng.integers(-3, 4)),
                                 spinor=random_spinor(rng))
    shape = (int(rng.integers(2, 9)), 2)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return WalkerState(origin=int(rng.integers(-4, 5)),
                       amps=z / np.linalg.norm(z))


@settings(max_examples=100, deadline=None)
@given(theta=st.one_of(_log_uniform(1e-9, 0.1),
                       _log_uniform(1e-7, 1e-5).map(lambda d: math.pi / 2 - d)),
       alpha=st.floats(-math.pi, math.pi), beta=st.floats(-math.pi, math.pi),
       init=lab_frame_inputs())
@example(theta=1e-9, alpha=2.9, beta=-1.3, init=initial_gamma(0.6))
@example(theta=math.pi / 2 - 1e-6, alpha=-0.4, beta=2.2,
         init=initial_entangled(0, 1))
def test_zone_means_match_the_lab_frame_reference(theta, alpha, beta, init):
    # the package takes the zone means in the coin's reduced frame; the
    # reference samples the lab-frame axis and generators at k itself
    p = CoinParams(theta, alpha, beta)
    params = ("theta", "alpha", "beta")
    first, y = _zone_means(p, init, params)
    ref_first, ref_y = zone_means_by_rfft(p, init, params)
    f, ref = first - np.outer(y, y), ref_first - np.outer(ref_y, ref_y)
    assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()


@st.composite
def candidate_matrices(draw):
    """(entries, t, antisymmetric) near every gate of QFIMatrix: PSD
    margins of +-PSD_TOL * scale * (1 +- 0.5), asymmetry of +-SYM_TOL *
    scale, and NaN or +-inf entries."""
    m = draw(st.integers(1, 3))
    antisymmetric = draw(st.booleans())
    t = draw(st.integers(1, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(m, m)) * 10.0 ** draw(st.floats(-3, 3))
    if antisymmetric:
        s = x - x.T
    else:
        s = x @ x.T
        lam = np.linalg.eigvalsh(s)
        scale = max(1.0, np.abs(s).max())
        margin = draw(st.sampled_from([1.0, -1.0])) * PSD_TOL * scale \
            * draw(st.floats(0.5, 1.5))
        s = s + (margin - lam[0]) * np.eye(m)
    if m > 1 and draw(st.booleans()):
        s[0, 1] += draw(st.sampled_from([1.0, -1.0])) * SYM_TOL \
            * max(1.0, np.abs(s).max()) * draw(st.floats(0.5, 1.5))
    if draw(st.booleans()):
        i, j = rng.integers(0, m, size=2)
        s[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return s * float(t) ** 2, t, antisymmetric


def _outcome(build):
    try:
        build()
    except Exception as exc:                     # compared, not swallowed
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(case=candidate_matrices())
@example(case=(np.array([[np.inf, 1.0], [0.0, 0.0]]), 1, True))
@example(case=(np.array([[1.0, np.nan], [np.nan, 1.0]]), 3, False))
def test_qfimatrix_accepts_and_rejects_as_before(case):
    # a non-finite entry is refused before the symmetry and PSD gates;
    # on finite entries the outcome is the reference's
    entries, t, antisymmetric = case
    labels = ("theta", "alpha", "beta")[:entries.shape[0]]
    new = _outcome(lambda: QFIMatrix(entries=entries, labels=labels, t=t,
                                     antisymmetric=antisymmetric))
    if not np.isfinite(entries).all():
        assert new == (ValueError, "entries must be finite")
        return
    assert new == _outcome(lambda: qfimatrix_checks(entries, labels, t,
                                                    antisymmetric))


# ---------------------------------------------------------------------------
# localized closed forms


@pytest.mark.parametrize("delta", [1e-6, 1e-8])
def test_closed_forms_do_not_cancel_near_half_pi(delta):
    theta = math.pi / 2 - delta
    s = math.sin(theta)
    # 1 - sin(theta) = 2 sin^2(d/2) with d = pi/2 - theta = asin(cos theta)
    one_minus_s = 2.0 * math.sin(0.5 * math.asin(math.cos(theta))) ** 2
    f_aa = qfim_max_diag(theta, 1)[1]
    assert abs(f_aa / (4 * one_minus_s) - 1.0) <= 1e-12
    r = np.array([0.6, 0.0, 0.8])
    ndotr = s * r[0] + math.cos(theta) * r[2]
    f_pp = qfim_localized(theta, 0.0, r, 1).entries[1, 1]
    assert abs(f_pp / (4 * one_minus_s * (1 - ndotr ** 2 / (1 + s)))
               - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=mixing_angles, alpha=st.floats(-math.pi, math.pi),
       beta=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
@example(theta=-0.5, alpha=0.3, beta=-1.2, seed=0)
@example(theta=-1.2, alpha=2.0, beta=0.4, seed=1)
@example(theta=-2.5, alpha=-0.6, beta=1.1, seed=2)
@example(theta=-1e-9, alpha=0.7, beta=0.0, seed=3)
def test_closed_forms_hold_on_the_whole_coin_domain(theta, alpha, beta, seed):
    # s = |sin theta| in every closed form, and sign(sin theta) on the
    # localized cross term, reproduce the route for theta in (-pi, 0) too
    init = initial_localized(0, spinor=random_spinor(np.random.default_rng(seed)))
    r = rho_bloch(init.amps[0])[1:]
    ref = qfim_theorem1(CoinParams(theta, alpha, beta), init, t=10).entries
    got = qfim_localized(theta, alpha - beta, r, 10).entries
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # single_param_qfi is the theta entry at phi = alpha - beta = 0
    f_tt = qfim_theorem1(CoinParams(theta, beta, beta), init, t=10).entries[0, 0]
    assert abs(single_param_qfi(theta, r[1], 10) - f_tt) <= 1e-12 * f_tt
    assert qfim_max_diag(theta, 10) == qfim_max_diag(-theta, 10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=mixing_angles, alpha=phases, beta=phases,
       seed=st.integers(0, 2**32 - 1))
def test_localized_route_has_the_beta_row(theta, alpha, beta, seed):
    # the route's three-parameter matrix: the closed form on (theta,
    # alpha) and zeros where the stationary projector annihilates O_beta
    init = initial_localized(0, spinor=random_spinor(np.random.default_rng(seed)))
    p, params = CoinParams(theta, alpha, beta), ("theta", "alpha", "beta")
    ref = qfim_theorem1(p, init, t=10, params=params).entries
    got = cli._qfim_by_route("localized-closed-form", p, init, 10,
                             params)[0].entries
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("theta", [9e-13, -9e-13])
def test_closed_forms_share_the_coin_floor(theta):
    # |sin theta| = 9e-13 lies under walk.MIN_SIN_THETA = 1e-12
    r = np.array([0.0, 0.0, 1.0])
    for closed_form in (lambda: qfim_max_diag(theta, 3),
                        lambda: qfim_localized(theta, 0.2, r, 3),
                        lambda: single_param_qfi(theta, 0.5, 3)):
        with pytest.raises(DegenerateWalk):
            closed_form()
    with pytest.raises(SingularFisher):
        g_of_theta(theta)
    edge = math.copysign(1e-12, theta)
    assert qfim_max_diag(edge, 3)[0] > 0 and g_of_theta(edge) > 0
    assert single_param_qfi(edge, 0.5, 3) > 0
    assert qfim_localized(edge, 0.2, r, 3).entries[0, 0] > 0


def test_localized_matches_quadrature_on_random_draws():
    rng = np.random.default_rng(14)
    for _ in range(8):
        th = rng.uniform(0.3, 1.3)
        al = rng.uniform(-2, 2)
        be = rng.uniform(-2, 2)
        gam = rng.uniform(-3, 3)
        f_closed = qfim_localized(th, al - be, np.array(
            [math.cos(gam), math.sin(gam), 0.0]), t=5)
        f_quad = qfim_theorem1(CoinParams(th, al, be), initial_gamma(gam), t=5)
        assert np.abs(f_closed.per_t2 - f_quad.per_t2).max() <= 1e-8


def test_derivative_direction_input_gives_diagonal_maximal_theta_row():
    th, phi = 0.9, 0.6
    r = np.array([math.cos(th) * math.cos(phi), math.cos(th) * math.sin(phi),
                  -math.sin(th)])  # unit tangent along increasing theta
    f = qfim_localized(th, phi, r, t=1)
    s = math.sin(th)
    assert abs(f.entries[0, 1]) <= 1e-12
    assert f.entries[0, 0] == pytest.approx(4 * s / (1 + s), abs=1e-12)


def test_gamma_equals_phi_point():
    th, phi = 0.8, 1.2
    s = math.sin(th)
    r = np.array([math.cos(phi), math.sin(phi), 0.0])
    f = qfim_localized(th, phi, r, t=1)
    # theta row maximal, cross term zero, phase diagonal strictly submaximal
    assert f.entries[0, 0] == pytest.approx(4 * s / (1 + s), abs=1e-12)
    assert abs(f.entries[0, 1]) <= 1e-12
    assert f.entries[1, 1] < 4 * (1 - s) - 1e-6
    assert f.entries[1, 1] == pytest.approx(
        4 * (1 - s) * (1 - s ** 2 / (1 + s)), abs=1e-12)


def test_localized_diagonal_never_exceeds_maxima():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        th = rng.uniform(0.05, 1.5)
        phi = rng.uniform(-math.pi, math.pi)
        v = rng.normal(size=3)
        r = v / np.linalg.norm(v)
        f = qfim_localized(th, phi, r, t=1)
        ft, fa = qfim_max_diag(th, t=1)
        assert f.entries[0, 0] <= ft + 1e-9
        assert f.entries[1, 1] <= fa + 1e-9


def test_theorem1_diagonal_never_exceeds_maxima_spot_checks():
    rng = np.random.default_rng(16)
    for _ in range(20):
        p = CoinParams(rng.uniform(0.2, 1.4), rng.uniform(-3, 3),
                       rng.uniform(-3, 3))
        init = initial_localized(0, spinor=random_spinor(rng))
        f = qfim_theorem1(p, init, t=4)
        ft, fa = qfim_max_diag(p.theta, t=4)
        assert f.entries[0, 0] <= ft + 1e-8 * max(1.0, ft)
        assert f.entries[1, 1] <= fa + 1e-8 * max(1.0, fa)


# ---------------------------------------------------------------------------
# single-parameter growth


def test_single_param_examples():
    assert single_param_qfi(QUARTER, 0.0, 1) == pytest.approx(
        PREF_RY0_QUARTER_PI, abs=1e-12)
    assert single_param_qfi(QUARTER, 1.0, 1) == pytest.approx(
        PREF_RY1_QUARTER_PI, abs=1e-12)
    assert single_param_qfi(QUARTER, -1.0, 1) == pytest.approx(
        PREF_RY1_QUARTER_PI, abs=1e-12)
    assert single_param_qfi(math.pi / 2, 0.0, 5) == pytest.approx(
        2.0 * 25, abs=1e-12)


def test_single_param_ratio_is_one_plus_sin():
    for th in (0.3, QUARTER, 1.2):
        ratio = single_param_qfi(th, 0.0, 9) / single_param_qfi(th, 1.0, 9)
        assert ratio == pytest.approx(1 + math.sin(th), abs=1e-9)


# ---------------------------------------------------------------------------
# matrix container and the exact-zero curvature route


def test_three_by_three_has_null_beta_row():
    p = CoinParams(0.9, 0.4, -1.0)
    f = qfim_theorem1(p, initial_gamma(0.3), t=6,
                      params=("theta", "alpha", "beta"))
    per = f.per_t2
    assert np.abs(per[2, :]).max() <= 1e-10
    assert np.abs(per[:, 2]).max() <= 1e-10
    block = f.identifiable_block()
    assert block.labels == ("theta", "alpha")
    assert np.abs(block.per_t2 - per[:2, :2]).max() == 0.0


def test_qfimatrix_validation():
    with pytest.raises(ValueError):
        QFIMatrix(entries=np.array([[1.0, 0.5], [0.2, 1.0]]),
                  labels=("theta", "alpha"), t=1)
    with pytest.raises(ValueError):
        QFIMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]),
                  labels=("theta", "alpha"), t=1)   # not PSD
    with pytest.raises(ValueError):
        QFIMatrix(entries=np.array([[1.0, np.nan], [np.nan, 1.0]]),
                  labels=("theta", "alpha"), t=1)
    with pytest.raises(ValueError):
        QFIMatrix(entries=np.array([[0.0, np.nan], [np.nan, 0.0]]),
                  labels=("theta", "alpha"), t=1, antisymmetric=True)
    f = QFIMatrix(entries=np.array([[4.0, 0.0], [0.0, 1.0]]),
                  labels=("theta", "alpha"), t=2)
    assert np.allclose(f.per_t2, [[1.0, 0.0], [0.0, 0.25]])


def test_closed_form_inputs_validated():
    with pytest.raises(ValueError):
        qfim_localized(0.7, 0.1, [0.0, 0.8, 0.8], 10)    # longer than 1
    with pytest.raises(ValueError):
        qfim_localized(0.7, 0.1, [np.nan, 0.0, 0.0], 10)
    with pytest.raises(ValueError):
        single_param_qfi(0.7, 1.5, 10)
    with pytest.raises(ValueError):
        single_param_qfi(0.7, np.nan, 10)


def test_uhlmann_analytic_is_exactly_zero():
    p = CoinParams(QUARTER, 0.8, -0.3)
    d = uhlmann_analytic(p, initial_entangled(0, 1), t=50)
    assert d.antisymmetric
    assert np.abs(d.entries).max() == 0.0
