"""Frozen reference values and independent dense-evolution helpers.

The dense helpers rebuild the walk in the full position basis with
explicit matrix elements and deliberately share no code with the
package internals they are used to check.  Scalar constants were
frozen from separate high-precision evaluations of the closed forms.
"""
import bisect
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# (sin t + cos^2 t) / (4 sin t (1 - sin t)) at pi/4 and 3 pi/8
G_QUARTER_PI = 1.4571067811865472
G_THREE_EIGHTHS_PI = 3.8048658462091205

# arcsin((sqrt(5) - 1)/2) and the common diagonal value 4 (1 - sin) there
GOLDEN_THETA = 0.6662394324925154
GOLDEN_COMMON = 1.5278640450004204

# single-parameter growth prefactors at theta = pi/4:
# r_y = 0: 4 s / (1 + s); r_y = +-1: 4 s / (1 + s)^2, s = sin(pi/4)
PREF_RY0_QUARTER_PI = 1.6568542494923801
PREF_RY1_QUARTER_PI = 0.9705627484771405

# asymptotic diagonal maxima per t^2 at theta = pi/4
F_TT_QUARTER_PI = 1.6568542494923801
F_AA_QUARTER_PI = 1.1715728752538102


def coin_dense(theta, alpha, beta):
    """The 2x2 coin written out entry by entry."""
    return np.array([
        [np.exp(1j * alpha) * np.cos(theta), np.exp(1j * beta) * np.sin(theta)],
        [-np.exp(-1j * beta) * np.sin(theta),
         np.exp(-1j * alpha) * np.cos(theta)],
    ])


def generator_spatial(p):
    """Lab-frame Pauli vectors w_mu of the coin generators, rows (theta,
    alpha, beta): O_mu = C^dag dC/dmu = (i/2) w_mu.sigma.  The package
    states them in the coin's reduced frame, turned about z by
    beta - alpha.  With phi = alpha - beta:
        w_theta = 2 (-sin phi, cos phi, 0)
        w_alpha = (cos phi sin 2th, sin phi sin 2th,  2 cos^2 th)
        w_beta  = (cos phi sin 2th, sin phi sin 2th, -2 sin^2 th)
    """
    phi = p.alpha - p.beta
    sp, cp = np.sin(phi), np.cos(phi)
    s2t = np.sin(2 * p.theta)
    return np.array([
        [-2.0 * sp, 2.0 * cp, 0.0],
        [cp * s2t, sp * s2t, 2.0 * np.cos(p.theta) ** 2],
        [cp * s2t, sp * s2t, -2.0 * np.sin(p.theta) ** 2],
    ])


def quasi_energy_axis(theta, alpha, beta, k):
    """Lab-frame quasi-energy axis of u(k) = diag(e^{-ik}, e^{ik}) C:
    u(k) = cos(om) - i w.sigma with

        cos(om) = cos(k - alpha) cos(theta),
        w = (sin(k - beta) sin(theta), -cos(k - beta) sin(theta),
             sin(k - alpha) cos(theta)),

    |w| = sin(om) >= |sin(theta)|.  The package states the axis in the
    coin's reduced frame, at x = k - alpha and turned about z by
    beta - alpha.  Theta and alpha broadcast against k, and beta must
    fit the shape they give together.  Returns (cos(om), w), w with a
    trailing axis of 3.
    """
    k = np.asarray(k, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    cos_omega = np.cos(k - alpha) * ct
    w = np.empty(cos_omega.shape + (3,))
    w[..., 0] = np.sin(k - beta) * st
    w[..., 1] = -np.cos(k - beta) * st
    w[..., 2] = np.sin(k - alpha) * ct
    return cos_omega, w


def a1_grid(p, k):
    """Stationary projectors over momenta, shape k + (4, 4), in the coin's
    reduced frame at x = k - alpha (the lab frame's turned about z by
    beta - alpha): onto the unit-eigenvalue subspace of conjugation by u
    on Pauli 4-vectors (1, sx, sy, sz), which carries everything that
    survives long times.  Closed form: identity on the trace component
    plus u u^T / sin^2 w on the spatial block, with the reduced axis
    u = (sin x sin th, -cos x sin th, sin x cos th) and sin^2 w =
    1 - cos^2 x cos^2 th; rank 2, trace 2, well defined at every
    momentum once sin theta != 0.
    """
    x = np.asarray(k, dtype=float) - p.alpha
    st, ct = np.sin(p.theta), np.cos(p.theta)
    u = np.stack([np.sin(x) * st, -np.cos(x) * st, np.sin(x) * ct], axis=-1)
    m = np.zeros(x.shape + (4, 4))
    m[..., 0, 0] = 1.0
    m[..., 1:, 1:] = (u[..., :, None] * u[..., None, :]
                      / (1.0 - (np.cos(x) * ct) ** 2)[..., None, None])
    return m


def z_turn(angle):
    """The 4x4 turn of Pauli 4-vectors (1, sx, sy, sz) by ``angle`` about
    z: D(-angle/2) O D(angle/2) has the Pauli vector z_turn(angle) @ o,
    D(a) = diag(e^{ia}, e^{-ia})."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, c, -s, 0.0],
                     [0.0, s, c, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _even_series_exact(x2, term, n_terms=40):
    """sum_{n < n_terms} term(n) x2^n in exact rationals."""
    return sum(term(n) * x2 ** n for n in range(n_terms))


def w_sinc_series(x):
    """(x cos x - sin x)/x^3 = sum_{n>=1} (-1)^n 2n x^(2n-2) / (2n+1)!.

    The alternating series is summed in exact rationals at the float x,
    far past rounding for |x| <= 2, and rounded once at the end.
    """
    return float(_even_series_exact(
        Fraction(x) ** 2,
        lambda n: Fraction((-1) ** (n + 1) * 2 * (n + 1), factorial(2 * n + 3))))


def w_tanc_series(x):
    """(x sec^2 x - tan x)/x^3 = (2x - sin 2x) / (2 x^3 cos^2 x).

    2x - sin 2x = sum_{n>=1} (-1)^(n+1) (2x)^(2n+1) / (2n+1)! and cos x
    are both summed as alternating series in exact rationals.
    """
    x2 = Fraction(x) ** 2
    num = _even_series_exact(     # (2x - sin 2x)/x^3
        x2, lambda n: Fraction((-1) ** n * 2 ** (2 * n + 3), factorial(2 * n + 3)))
    cos = _even_series_exact(x2, lambda n: Fraction((-1) ** n, factorial(2 * n)))
    return float(num / (2 * cos * cos))


def spinors_dense(s, k):
    """spinor(k) = sum_x c_x e^{-ikx} over every site of the input window.

    One dense (len(k), n_sites) phase matrix, zero rows included: the
    formula the package's support-sized ``spinors_at`` must reproduce.
    """
    k = np.asarray(k, dtype=float)
    return np.exp(-1j * np.outer(k, s.sites)) @ s.amps


def u_dense(theta, alpha, beta, k):
    """One-step u(k) = diag(e^{-ik}, e^{ik}) C per momentum, (len(k), 2, 2)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    c = coin_dense(theta, alpha, beta)
    u = np.zeros((k.size, 2, 2), dtype=complex)
    u[:, 0, :] = np.exp(-1j * k)[:, None] * c[0]
    u[:, 1, :] = np.exp(1j * k)[:, None] * c[1]
    return u


PAULI = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
])


def pauli_conjugation_dense(theta, alpha, beta, k):
    """Conjugation O -> u O u^dag on Pauli 4-vectors, one (4, 4) map per k.

    M_ij = (1/2) Tr(sigma_i u sigma_j u^dag) with sigma = (1, sx, sy, sz)
    and u(k) = diag(e^{-ik}, e^{ik}) C written out from the dense coin.
    Returns the real part, shape (len(k), 4, 4).
    """
    u = u_dense(theta, alpha, beta, k)
    m = 0.5 * np.einsum("iab,nbc,jcd,nad->nij", PAULI, u, PAULI, u.conj())
    return m.real


def dense_walk_matrix(theta, alpha, beta, radius):
    """One-step unitary on sites -radius..radius as an explicit matrix.

    Basis index 2*(x + radius) + c.  Coin 0 moves to x+1, coin 1 to
    x-1; amplitude pushed past an edge is dropped, so the matrix is
    unitary only while nothing reaches the boundary.
    """
    n = 2 * radius + 1
    c = coin_dense(theta, alpha, beta)
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    for xi in range(n):
        for c_out in range(2):
            target = xi + 1 if c_out == 0 else xi - 1
            if 0 <= target < n:
                for c_in in range(2):
                    u[2 * target + c_out, 2 * xi + c_in] = c[c_out, c_in]
    return u


def dense_evolve(origin, amps, theta, alpha, beta, t):
    """Evolve an amplitude window by repeated dense matrix application.

    Returns (sites, amps) covering the whole -radius..radius lattice.
    """
    amps = np.asarray(amps, dtype=complex)
    m = amps.shape[0]
    radius = max(abs(origin), abs(origin + m - 1)) + t + 1
    vec = np.zeros(2 * (2 * radius + 1), dtype=complex)
    for i in range(m):
        xi = origin + i + radius
        vec[2 * xi] = amps[i, 0]
        vec[2 * xi + 1] = amps[i, 1]
    u = dense_walk_matrix(theta, alpha, beta, radius)
    for _ in range(t):
        vec = u @ vec
    sites = np.arange(-radius, radius + 1)
    return sites, vec.reshape(-1, 2)


def dense_amps_at(sites, amps, wanted):
    """Rows of a dense result for the requested sites (zeros if outside)."""
    out = np.zeros((len(wanted), 2), dtype=complex)
    lookup = {int(s): i for i, s in enumerate(sites)}
    for j, x in enumerate(wanted):
        i = lookup.get(int(x))
        if i is not None:
            out[j] = amps[i]
    return out


def random_coin_angles(rng, n):
    """Sample (theta, alpha, beta) triples away from the degenerate edges."""
    theta = rng.uniform(0.1, 1.47, size=n)
    alpha = rng.uniform(-np.pi, np.pi, size=n)
    beta = rng.uniform(-np.pi, np.pi, size=n)
    return np.stack([theta, alpha, beta], axis=1)


def random_spinor(rng):
    z = rng.normal(size=4)
    chi = z[:2] + 1j * z[2:]
    return chi / np.linalg.norm(chi)


def dcoin_dense(theta, alpha, beta):
    """Entry-by-entry d(coin)/d(theta, alpha, beta) of :func:`coin_dense`."""
    ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([
        [[-ea * st, eb * ct], [-ct / eb, -st / ea]],
        [[1j * ea * ct, 0.0], [0.0, -1j * ct / ea]],
        [[0.0, 1j * eb * st], [1j * st / eb, 0.0]],
    ])


def recurrence_powers_and_generators(theta, alpha, beta, k, phi0, t):
    """Step-by-step u(k)^t phi0 and G_mu(t) = sum_{m=1..t} u^m O_mu u^-m.

    Runs phi <- u phi and G <- u (O + G) u^dag t times at every momentum
    in ``k``, with u(k) = diag(e^{-ik}, e^{ik}) C and O_mu = C^dag d_mu C
    built from the dense coin.  Returns phi_t (n, 2) and G (3, n, 2, 2).
    """
    k = np.asarray(k, dtype=float)
    c = coin_dense(theta, alpha, beta)
    o = np.einsum("ba,mbc->mac", c.conj(), dcoin_dense(theta, alpha, beta))
    u = u_dense(theta, alpha, beta, k)
    uh = np.conj(np.swapaxes(u, 1, 2))
    phi = np.asarray(phi0, dtype=complex)
    g = np.zeros((3, k.size, 2, 2), dtype=complex)
    for _ in range(t):
        g = u @ (g + o[:, None]) @ uh
        phi = np.einsum("nab,nb->na", u, phi)
    return phi, g


def on_nodes(nodes, fn, *args):
    """``fn(*args)`` with every window of ``SiteWindow.after`` sampled
    by ``nodes(n)`` in place of its own n nodes: the same sites, origin
    and t on other momenta."""
    from qwfisher.walk import SiteWindow

    rule = SiteWindow.__dict__["after"]

    def moved(cls, init, t):
        w = rule.__func__(cls, init, t)
        return dataclasses.replace(w, nodes=nodes(w.nodes.size))

    SiteWindow.after = classmethod(moved)
    try:
        return fn(*args)
    finally:
        SiteWindow.after = rule


def on_doubled_nodes(fn, *args):
    """``fn(*args)`` with every window of ``SiteWindow.after`` on twice
    its node count.

    The same sites and origin, sampled by a grid of 2n nodes: the
    reference the package's own node count n must reproduce wherever it
    is exact.
    """
    from qwfisher.walk import uniform_k_grid

    return on_nodes(lambda n: uniform_k_grid(2 * n), fn, *args)


def even_smooth_sizes(limit):
    """Every n = 2^a 3^b 5^c <= ``limit`` with a >= 1, ascending, by
    enumerating the exponents: the node counts ``walk.k_grid_size`` may
    return."""
    sizes = []
    two = 2
    while two <= limit:
        three = two
        while three <= limit:
            n = three
            while n <= limit:
                sizes.append(n)
                n *= 5
            three *= 3
        two *= 2
    return sorted(sizes)


def least_size_at_least(n_min, sizes):
    """1 for n_min <= 1, else the first of the ascending ``sizes`` >= n_min."""
    return 1 if n_min <= 1 else sizes[bisect.bisect_left(sizes, n_min)]


def dense_powers(theta, alpha, beta, k, chi, t):
    """u(k)^t chi from the dense one-step matrices raised to the t-th
    power, chi (..., len(k), 2) coin last."""
    u_t = np.linalg.matrix_power(u_dense(theta, alpha, beta, k), t)
    return np.einsum("nab,...nb->...na", u_t, chi)


def walker_state_from_json(d):
    """The state :meth:`WalkerState.to_json_dict` wrote: the writer's
    round-trip reference, [re, im] pairs site-major with the coin inner."""
    from qwfisher import WalkerState

    pairs = np.asarray(d["amps"], dtype=float)
    amps = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(-1, 2)
    return WalkerState(origin=d["origin"], amps=amps,
                       steps_elapsed=d["steps_elapsed"])


def measurement_record_from_json(d):
    """The record :meth:`MeasurementRecord.to_json_dict` wrote: the
    writer's round-trip reference."""
    from qwfisher import CoinParams, MeasurementRecord

    pt = d["params_true"]
    return MeasurementRecord(
        t=d["t"], shots=d["shots"], counts=d["counts"], seed=d["seed"],
        params_true=None if pt is None else CoinParams(**pt))


def light_cone(s, t):
    """(n_sites + 2t, 2) bool: the cells t steps can reach from the
    input's nonzero cells, one boolean step at a time.

    A step lets a mixing coin fill both components of every reached
    site, then moves coin 0 one site right and coin 1 one site left.
    """
    reach = np.asarray(s.amps) != 0
    for _ in range(t):
        site = reach.any(axis=1)
        reach = np.zeros((reach.shape[0] + 2, 2), dtype=bool)
        reach[2:, 0] = site
        reach[:-2, 1] = site
    return reach


def evolve_steps(s, p, t):
    """t steps of the walk in the position picture, one step at a time.

    The position-space reference for the package's ``evolve``: each
    step applies the dense coin and then moves coin 0 to x+1 and coin 1
    to x-1, growing the window by two sites.  Returns a WalkerState.
    """
    from qwfisher import WalkerState

    c_t = coin_dense(p.theta, p.alpha, p.beta).T
    origin, amps = s.origin, s.amps
    for _ in range(int(t)):
        rotated = amps @ c_t
        nxt = np.zeros((rotated.shape[0] + 2, 2), dtype=complex)
        nxt[2:, 0] = rotated[:, 0]
        nxt[:-2, 1] = rotated[:, 1]
        origin -= 1
        amps = nxt
    return WalkerState(origin=origin, amps=amps,
                       steps_elapsed=s.steps_elapsed + int(t))


def prob_derivatives(p, init, t):
    """(sites, probs, dprobs, d2probs) of the estimator at p: one engine
    run, ``estimation._derivatives`` on ``estimation._engine_inputs``, as
    ``classical_fi`` takes it."""
    from qwfisher.estimation import _derivatives, _engine_inputs

    return _derivatives(p.theta, p.alpha, *_engine_inputs(init, p.beta, t))


def three_run_prob_derivatives(init, p, t, params):
    """Position probabilities and their derivatives from separate runs.

    The state comes from the position-space :func:`evolve_steps` and
    each d_mu psi from its own ``derivative_state`` call, so the fused
    single-run score of the estimator is checked against independently
    evolved states.  Returns (sites, probs, dprobs) like
    :func:`prob_derivatives`.
    """
    from qwfisher import derivative_state
    from qwfisher.walk import SiteWindow

    psi = evolve_steps(init, p, t)
    window = SiteWindow.after(init, t)
    dprobs = []
    for mu in params:
        d = derivative_state(init, p, t, mu)
        assert (window.origin, d.shape) == (psi.origin, psi.amps.shape)
        dprobs.append(2.0 * np.sum((psi.amps.conj() * d).real, axis=1))
    return psi.sites, np.sum(np.abs(psi.amps) ** 2, axis=1), np.array(dprobs)


def fd_loglik_hessian(counts, init, p, t, h=1e-5):
    """Central-difference Hessian of the log-likelihood in (theta, alpha).

    The score sum_x n_x dp(x) / p(x) over bins above 1e-12 is taken at
    theta +- h and alpha +- h from :func:`three_run_prob_derivatives`
    and differenced, then symmetrised.  The estimator's covariance was
    once the inverse of this matrix (negated); it is now the reference
    for the exact observed information.
    """
    def score(q):
        _, probs, dprobs = three_run_prob_derivatives(init, q, t,
                                                      ("theta", "alpha"))
        live = probs > 1e-12
        return (dprobs[:, live] / probs[live]) @ counts[live]

    hess = np.zeros((2, 2))
    for j, mu in enumerate(("theta", "alpha")):
        up = dataclasses.replace(p, **{mu: getattr(p, mu) + h})
        dn = dataclasses.replace(p, **{mu: getattr(p, mu) - h})
        hess[:, j] = (score(up) - score(dn)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def pseudo_inverse_dense(m, free):
    """(inverse, null weights, block eigenvalues, cutoff) of the symmetric m
    on the ``free`` coordinates, one eigenpair at a time.

    Each eigenpair of the free block above the cutoff
    1e-10 max(lambda_max(m), 1) adds v v^T / lambda to the inverse; each
    other one adds v^2 to the null weights.  Held coordinates stay zero.
    """
    tol = 1e-10 * max(np.linalg.eigvalsh(m).max(), 1.0)
    idx = np.flatnonzero(free)
    inverse, null = np.zeros_like(m), np.zeros(m.shape[0])
    evals, evecs = np.linalg.eigh(m[np.ix_(idx, idx)])
    for lam, v in zip(evals, evecs.T):
        full = np.zeros(m.shape[0])
        full[idx] = v
        if lam > tol:
            inverse += np.outer(full, full) / lam
        else:
            null += full ** 2
    return inverse, null, evals, tol


def dilation_connected(mask, start):
    """Cells of ``mask`` reachable 4-connectedly from ``start``.

    Grows the reached set by one 4-neighbour dilation of the whole grid
    per pass until it stops changing: the reference for the package's
    flood fill.
    """
    reached = np.zeros_like(mask)
    reached[start] = mask[start]
    while True:
        grown = reached.copy()
        grown[1:, :] |= reached[:-1, :]
        grown[:-1, :] |= reached[1:, :]
        grown[:, 1:] |= reached[:, :-1]
        grown[:, :-1] |= reached[:, 1:]
        grown &= mask
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def table_probs(trig, b):
    """p = max(trig @ B, 0) over the whole grid in one product.

    The formula the likelihood table's probabilities were first stored
    from; the package now writes log p block by block from the same
    two factors and forms p only on demand.
    """
    probs = np.matmul(trig, b)
    np.maximum(probs, 0.0, out=probs)
    return probs


def whole_grid_table_b(init, beta, t, thetas):
    """B of the likelihood table, with the engine run on all theta rows
    at once.

    The build ``make_likelihood_table`` started from: one engine run,
    one inverse FFT and the F^2 coin-summed products over the whole
    (n_theta, F, 2, n_nodes) stack.  The package runs the same steps on
    blocks of theta rows, which must give this B to the last bit.
    """
    from qwfisher.estimation import _engine_inputs

    family, freqs = _engine_inputs(init, beta, t)
    thetas = np.asarray(thetas, dtype=float)
    phis = family.window.to_sites(family.run(thetas)[0])
    diffs = freqs[:, None] - freqs[None, :]
    occurs = np.zeros(init.n_sites + 1, dtype=bool)
    occurs[diffs[diffs > 0]] = True
    ds = np.flatnonzero(occurs)
    b = np.zeros((thetas.size, 1 + 2 * ds.size, family.window.width))
    b[:, 0] = np.sum(phis.real ** 2 + phis.imag ** 2, axis=(1, 2))
    for f1, f in zip(*np.nonzero(diffs > 0)):
        prod = np.sum(phis[:, f1].conj() * phis[:, f], axis=-2)
        j = 1 + np.searchsorted(ds, diffs[f1, f])
        b[:, j] += prod.real
        b[:, j + ds.size] += prod.imag
    return b


def theta_jet(theta, nodes, chi, t, order=0):
    """d^j/dtheta^j [u(k)^t chi] for j = 0 .. order, u(k) = S(k) R(theta).

    The reference for ``walk.ThetaFamily.run``, built the other way: on
    the walk's quasi-energy axis (:func:`quasi_energy_axis` at alpha =
    beta = 0) and a Pauli step, with chi (..., n_nodes, 2) coin last and
    d_theta u formed as u at theta + pi/2.  ``theta`` broadcasts against
    ``nodes`` and that against ``chi``; the derivatives stack on a new
    leading axis.  It differentiates u^t = a_t u - a_{t-1},
    a_n = sin(n om) / sin(om), on the angle folded into [0, pi/2]
    (u = sign (cos(om) - i w.sigma), cos(om) >= 0) with |w| raised to
    the smallest normal float: d_om a_n = (n cos(n om) - cos(om) a_n) /
    sin(om), d2_om a_n = (1 - n^2) a_n - 2 cos(om) d_om a_n / sin(om),
    d_theta om = -d_theta cos(om) / sin(om) and d2_theta om = cos(om)
    (1 - (d_theta om)^2) / sin(om).  Order 0 is checked against
    :func:`dense_powers` in ``test_walk``.
    """
    def pauli_step(cos_omega, w, phi):
        """(cos(om) - i w.sigma) phi for spinors phi (..., 2)."""
        p0, p1 = phi[..., 0], phi[..., 1]
        return np.stack([(cos_omega - 1j * w[..., 2]) * p0
                         - (w[..., 1] + 1j * w[..., 0]) * p1,
                         (w[..., 1] - 1j * w[..., 0]) * p0
                         + (cos_omega + 1j * w[..., 2]) * p1], axis=-1)

    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    c, w = quasi_energy_axis(theta, 0.0, 0.0, nodes)
    sign = np.where(c < 0.0, -1.0, 1.0)
    s = np.maximum(np.sqrt(np.einsum("...i,...i->...", w, w)),
                   np.finfo(float).tiny)
    c, w = np.abs(c), w * sign[..., None]
    om = np.arctan2(s, c)
    dc, dw = quasi_energy_axis(theta + 0.5 * np.pi, 0.0, 0.0, nodes)
    dc, dw = sign * dc, sign[..., None] * dw     # in the folded frame
    om_1 = -dc / s
    om_2 = c * (1.0 - om_1 ** 2) / s
    sign_t = sign if t % 2 else 1.0
    coef = []
    for n in (t, t - 1):
        a = np.sin(n * om) / s
        a_om = (n * np.cos(n * om) - c * a) / s
        a_omom = (1.0 - n * n) * a - 2.0 * c * a_om / s
        coef.append((sign_t * np.array(
            [a, a_om * om_1, a_omom * om_1 ** 2 + a_om * om_2]))[..., None])
    (a, a1, a2), (b, b1, b2) = coef
    u_chi = pauli_step(c, w, chi)
    du_chi = pauli_step(dc, dw, chi)
    jet = [a * u_chi - b * chi, a1 * u_chi + a * du_chi - b1 * chi,
           (a2 - a) * u_chi + 2.0 * a1 * du_chi - b2 * chi]
    return np.stack(jet[:order + 1])


def mean_over_sin2(num, theta):
    """Zone means of N(x) / (1 - cos^2 theta cos^2 x) from samples of N,
    read from the rfft coefficients of N.

    ``num`` holds N at x_j = 2 pi j / n along axis 0, n even and more
    than twice the degree of N.  The mean sum_{even j} c_j rho^{|j|/2} / s
    is taken as [N(0) + N(pi)] / (2 s) - (2 / (1 + s)) sum_{even j} c_j
    sum_{i<|j|/2} rho^i.  The form the package's node weights replaced:
    the same sum, with the transform on N instead of on the weights.
    """
    n = num.shape[0]
    s = abs(np.sin(theta))
    rho = np.cos(theta) ** 2 / (1.0 + s) ** 2
    # c_j + c_-j for j = 2, 4, ... below the Nyquist index (N is real)
    c = np.fft.rfft(num, axis=0)[2:n // 2:2].real * (2.0 / n)
    partial = np.cumsum(rho ** np.arange(c.shape[0]))
    return ((num[0] + num[n // 2]) / (2.0 * s)
            - (2.0 / (1.0 + s)) * (partial @ c))


def zone_means_by_rfft(p, init, params):
    """(first, y) of ``qfim._zone_means`` from :func:`mean_over_sin2`,
    in the lab frame (:func:`quasi_energy_axis`, :func:`generator_spatial`
    and the input's own k-spinors): the upper triangle of the N_uv
    numerators and the N_u numerators stacked as columns, transformed
    once, and the matrix reassembled."""
    from qwfisher.qfim import rho_bloch
    from qwfisher.walk import PARAM_NAMES, k_grid_size, spinors_at

    w = generator_spatial(p)[[PARAM_NAMES.index(l) for l in params]]
    m = len(params)
    iu = np.triu_indices(m)
    n = k_grid_size(2 * (2 + init.n_sites) + 1)
    k = p.alpha + 2.0 * np.pi * np.arange(n) / n
    _, u = quasi_energy_axis(p.theta, p.alpha, p.beta, k)
    rho = rho_bloch(spinors_at(init, k))
    a = u @ w.T
    num = np.concatenate(
        [a[:, iu[0]] * a[:, iu[1]] * rho[:, :1],
         a * np.einsum("ni,ni->n", u, rho[:, 1:])[:, None]], axis=1)
    vals = mean_over_sin2(num, p.theta)
    first = np.zeros((m, m))
    first[iu] = vals[:iu[0].size]
    return first + first.T - np.diag(np.diag(first)), vals[iu[0].size:]


def asymptotic_linear_term(p, init, params, n=2 ** 16):
    """F1 of the oracle's large-t expansion F(t) = t^2 F2 + t F1 + O(t^1/2).

    F1 = -(y1 Y0^T + Y0 y1^T), with y1 the state-dependent zone means of
    ``qfim._zone_means`` and Y0 the t-independent part of the overlap
    <g(t).r> = t y1 + Y0 + (oscillating, decaying terms),

        Y0 = 1/2 < v.r - (w.v)(w.r) / |w|^2 - cos om (w x v).r / |w|^2 >,

    v the rows of :func:`generator_spatial`, (cos om, w) the quasi-energy
    axis (|w| = sin om) and r the input's Bloch vector at k.  The mean is
    taken plainly over n uniform nodes: the integrand is smooth, since
    |w| >= |sin theta|.
    """
    from qwfisher.qfim import _zone_means, rho_bloch
    from qwfisher.walk import PARAM_NAMES, spinors_at

    v = generator_spatial(p)[[PARAM_NAMES.index(l) for l in params]]
    k = -np.pi + 2.0 * np.pi * np.arange(n) / n
    cos_omega, w = quasi_energy_axis(p.theta, p.alpha, p.beta, k)
    r = rho_bloch(spinors_at(init, k))[:, 1:]
    w2 = np.einsum("ni,ni->n", w, w)[:, None]
    wr = np.einsum("ni,ni->n", w, r)[:, None]
    # (w x v).r = (r x w).v
    y0 = 0.5 * np.mean(r @ v.T - (w @ v.T) * wr / w2
                       - cos_omega[:, None] * (np.cross(r, w) @ v.T) / w2,
                       axis=0)
    y1 = _zone_means(p, init, params)[1]
    return -(np.outer(y1, y0) + np.outer(y0, y1))


def qfim_first_term(p, params=("theta", "alpha")):
    """State-independent part of the asymptotic matrix, per step squared:
    the N_uv means of ``qfim._zone_means`` for coin |0> at the origin,
    whose k-spinor (1, 0) has o0 = 1 at every node.

    It equals the full coefficient whenever the state-dependent
    integrals vanish; its diagonal is what :func:`qfim_max_diag` quotes.
    """
    from qwfisher import initial_localized
    from qwfisher.qfim import _zone_means

    return _zone_means(p, initial_localized(), params)[0]


def qfim_max_diag(theta, t):
    """Optimal-input diagonal (F_theta, F_alpha) = 4 t^2 (s/(1+s), 1-s).

    s = |sin theta|, refused below the coin's floor ``walk.MIN_SIN_THETA``
    and t read through ``walk.step_count``.  The theta optimum is reached
    by equatorial coin states orthogonal to the coin plane and the alpha
    optimum by the complementary family; cross terms vanish at the
    optima.  1 - s is taken as cos^2 th / (1+s), which does not cancel
    near theta = pi/2.
    """
    from qwfisher import DegenerateWalk
    from qwfisher.walk import MIN_SIN_THETA, step_count

    s = abs(float(np.sin(theta)))
    if not s >= MIN_SIN_THETA:
        raise DegenerateWalk(f"closed form needs |sin(theta)| >= "
                             f"{MIN_SIN_THETA}, got theta={theta!r}")
    tt = float(step_count(t, 1)) ** 2
    c2 = float(np.cos(theta)) ** 2
    return 4.0 * tt * s / (1.0 + s), 4.0 * tt * c2 / (1.0 + s)


def qfimatrix_checks(entries, labels, t, antisymmetric):
    """The gates ``QFIMatrix`` ran on construction, as first written with
    numpy's module functions: the reference its leaner checks must match
    in what they accept, the exception type and the message."""
    sym_tol, psd_tol = 1e-12, 1e-9
    e = np.asarray(entries, dtype=float)
    m = len(labels)
    if e.shape != (m, m):
        raise ValueError(f"entries shape {e.shape} does not match labels {labels}")
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    scaled = e / float(t) ** 2
    scale = max(1.0, float(np.max(np.abs(scaled))) if e.size else 1.0)
    if antisymmetric:
        defect = np.max(np.abs(scaled + scaled.T))
        if not defect <= sym_tol * scale:
            raise ValueError(f"antisymmetry defect {defect:.3e} beyond tolerance")
    else:
        defect = np.max(np.abs(scaled - scaled.T))
        if not defect <= sym_tol * scale:
            raise ValueError(f"symmetry defect {defect:.3e} beyond tolerance")
        lo = float(np.min(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))))
        if not lo >= -psd_tol * scale:
            raise ValueError(f"matrix not positive semidefinite: min eig {lo:.3e}")
    return e


def bounds_by_numpy(f, d):
    """(det, F^-1, C^S, R) of a nonsingular 2x2 block F and curvature D,
    by the numpy expressions ``bounds`` first used: the reference its
    float forms must equal bit for bit."""
    det = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
    inv = np.array([[f[1, 1], -f[0, 1]], [-f[1, 0], f[0, 0]]]) / det
    return det, inv, float(np.trace(inv)), abs(d[0, 1]) / np.sqrt(det)


# ---------------------------------------------------------------------------
# double-double reference: hi + lo on float arrays, from two-sum and
# two-product alone, so it gives the same digits on every platform


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """two_sum for |a| >= |b| (Dekker)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """a = hi + lo with each half on 26 bits (Veltkamp)."""
    c = 134217729.0 * a                 # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class DD:
    """A double-double array hi + lo, |lo| <= ulp(hi) / 2: about 106
    bits, with +, -, * and division by an int."""

    def __init__(self, hi, lo=0.0):
        self.hi = np.asarray(hi, dtype=float)
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float),
                                  self.hi.shape)

    def __add__(self, other):
        other = other if isinstance(other, DD) else DD(other)
        s, e = two_sum(self.hi, other.hi)
        t, f = two_sum(self.lo, other.lo)
        s, e = _fast_two_sum(s, e + t)
        return DD(*_fast_two_sum(s, e + f))

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -(other if isinstance(other, DD) else DD(other))

    def __mul__(self, other):
        other = other if isinstance(other, DD) else DD(other)
        p, e = two_prod(self.hi, other.hi)
        return DD(*_fast_two_sum(p, e + (self.hi * other.lo
                                         + self.lo * other.hi)))

    def __truediv__(self, n: int):
        q = self.hi / n
        r = self - DD(*two_prod(q, float(n)))
        return DD(*_fast_two_sum(q, r.hi / n))

    def value(self):
        return self.hi + self.lo


def dd_cos_sin(x, terms=50):
    """(cos x, sin x) as DD for float arrays |x| <= 4, by their Taylor
    series at the exact double x: the last term is below 4^50 / 50!,
    about 4e-35."""
    x = DD(x)
    term, cos, sin = DD(np.ones(x.hi.shape)), DD(1.0), DD(0.0)
    for n in range(1, terms + 1):
        term = term * x / n
        if n % 2:
            sin = sin + (term if n % 4 == 1 else -term)
        else:
            cos = cos + (term if n % 4 == 0 else -term)
    return cos, sin


class DDComplex:
    """re + i im with DD parts; a missing im is zero."""

    def __init__(self, re, im=None):
        self.re = re
        self.im = DD(np.zeros(re.hi.shape)) if im is None else im

    @classmethod
    def of(cls, z):
        z = np.asarray(z, dtype=complex)
        return cls(DD(z.real), DD(z.imag))

    def __add__(self, other):
        return DDComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return DDComplex(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def conj(self):
        return DDComplex(self.re, -self.im)

    def value(self):
        return self.re.value() + 1j * self.im.value()


def _dd_matmul(a, b):
    """2x2 products of nested lists of DDComplex, elementwise over nodes."""
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


def _dd_dagger(a):
    return [[a[j][i].conj() for j in range(2)] for i in range(2)]


def dd_power_and_generator_sums(theta, nodes, chi, w, t):
    """(u^t chi (n, 2), G(t) u^t chi (m, n, 2)) in double-double for the
    family's u(k) = S(k) R(theta), S = diag(e^{-ik}, e^{ik}), R = [[c, s],
    [-s, c]], at the exact double theta and nodes, for spinors chi (n, 2)
    and generators O = (i/2) w.sigma, w (m, 3).  G(t) = sum_{m=1..t} u^m
    O u^-m comes by binary powering from U_{a+b} = U_a U_b and G_{a+b} =
    G_a + U_a G_b U_a^dag, O(log t) products of 2x2 matrices per node:
    an independent route to the kernel's closed forms."""
    nodes = np.asarray(nodes, dtype=float)
    (c, s), (ck, sk) = dd_cos_sin(np.full(nodes.shape, float(theta))), \
        dd_cos_sin(nodes)
    e_minus, e_plus = DDComplex(ck, -sk), DDComplex(ck, sk)
    zero = DD(np.zeros(nodes.shape))
    u = [[e_minus * DDComplex(c), e_minus * DDComplex(s)],
         [e_plus * DDComplex(-s), e_plus * DDComplex(c)]]
    ones = DDComplex(DD(np.ones(nodes.shape)))
    eye = [[ones, DDComplex(zero)], [DDComplex(zero), ones]]

    def o_matrix(wx, wy, wz):
        hx, hy, hz = (DD(np.full(nodes.shape, 0.5 * v)) for v in (wx, wy, wz))
        return [[DDComplex(zero, hz), DDComplex(hy, hx)],
                [DDComplex(-hy, hx), DDComplex(zero, -hz)]]

    def add(a, b):
        return [[a[i][j] + b[i][j] for j in range(2)] for i in range(2)]

    def compose(first, second):
        """(U_{a+b}, G_{a+b}) from (U_a, G_a) and (U_b, G_b)."""
        (ua, ga), (ub, gb) = first, second
        return (_dd_matmul(ua, ub),
                [add(g_a, _dd_matmul(_dd_matmul(ua, g_b), _dd_dagger(ua)))
                 for g_a, g_b in zip(ga, gb)])

    step = (u, [_dd_matmul(_dd_matmul(u, o_matrix(*row)), _dd_dagger(u))
                for row in np.asarray(w, dtype=float)])
    acc = (eye, [[[DDComplex(zero)] * 2 for _ in range(2)] for _ in w])
    while t:
        if t & 1:
            acc = compose(acc, step)
        t >>= 1
        if t:
            step = compose(step, step)
    chi = [DDComplex.of(chi[:, 0]), DDComplex.of(chi[:, 1])]
    phi = [acc[0][i][0] * chi[0] + acc[0][i][1] * chi[1] for i in range(2)]
    dphi = [[g[i][0] * phi[0] + g[i][1] * phi[1] for i in range(2)]
            for g in acc[1]]
    return (np.stack([z.value() for z in phi], axis=-1),
            np.array([np.stack([z.value() for z in row], axis=-1)
                      for row in dphi]))


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Run from a bare interpreter: a child's ru_maxrss counts the memory of
# the process it was spawned from, so the CLI must not be spawned from
# the test process itself.
_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "qwfisher.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def cli_peak_rss(argv, cwd):
    """Run ``python -m qwfisher.cli`` on ``argv`` in a child process.

    Returns (exit code, the child's own peak resident set in MiB, its
    standard error).  ``os.wait4`` reports that one child's
    ``ru_maxrss``; ``RUSAGE_CHILDREN`` would give the largest over every
    child waited for.  Fork and exec carry the spawning process's
    resident set into the child's peak, so the CLI is spawned from a
    stdlib-only interpreter (about 10 MB), not from the caller.  The
    CLI runs with one BLAS thread, set through the standard thread
    variables, as the README's memory figures were measured.
    """
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = subprocess.run([sys.executable, "-c", _RSS_PROBE, *argv],
                           cwd=cwd, env=env, capture_output=True, text=True)
    code, kib = probe.stdout.split()
    return int(code), int(kib) / 1024.0, probe.stderr      # KiB on Linux


def spinor_gram_matrices(init, p, t, params):
    """(F, D) as arrays: the real and imaginary parts of the complex Gram
    4 (<d_u psi|d_v psi> - <d_u psi|psi><psi|d_v psi>) of the derivative
    spinors G_mu(t) u^t chi from ``walk.ThetaFamily.generator_sums``, as
    node means on the window's own grid: the reference for
    ``oracle.exact_matrices``, which forms the same node means from real
    Bloch fields without the spinors."""
    from qwfisher.walk import ThetaFamily, generator_spatial

    w = generator_spatial(p.theta, params)
    family = ThetaFamily.of_walk(init, p, t)
    phi, dphi = family.generator_sums(p.theta, w)
    phi, dphi = phi[0], dphi[:, 0]
    n = phi.shape[-1]
    m = len(w)
    gram = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(a, m):
            gram[a, b] = np.vdot(dphi[a], dphi[b]) / n
    overlap = np.einsum("an,man->m", phi.conj(), dphi) / n
    gram = 4.0 * (gram - np.outer(np.conj(overlap), overlap))
    diagonal = gram.diagonal().real
    gram = np.triu(gram, 1)
    gram += gram.conj().T
    np.fill_diagonal(gram, diagonal)
    return gram.real, gram.imag
