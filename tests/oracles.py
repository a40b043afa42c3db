"""Frozen reference values and independent dense-evolution helpers.

The dense helpers rebuild the walk in the full position basis with
explicit matrix elements and deliberately share no code with the
package internals they are used to check.  Scalar constants were
frozen from separate high-precision evaluations of the closed forms.
"""
from fractions import Fraction
from math import factorial

import numpy as np

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


def three_run_prob_derivatives(init, p, t, params):
    """Position probabilities and their derivatives from separate runs.

    The state comes from the position-space :func:`evolve_steps` and
    each d_mu psi from its own ``derivative_state`` call, so the fused
    single-run score of the estimator is checked against independently
    evolved states.  Returns (sites, probs, dprobs) like
    ``_prob_derivatives``.
    """
    from qwfisher import derivative_state

    psi = evolve_steps(init, p, t)
    dprobs = []
    for mu in params:
        d = derivative_state(init, p, t, mu)
        assert d.origin == psi.origin and d.amps.shape == psi.amps.shape
        dprobs.append(2.0 * np.sum((psi.amps.conj() * d.amps).real, axis=1))
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
        up = p.replace(**{mu: getattr(p, mu) + h})
        dn = p.replace(**{mu: getattr(p, mu) - h})
        hess[:, j] = (score(up) - score(dn)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


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
    (n_theta, F, n_nodes) stack.  The package runs the same steps on
    blocks of theta rows, which must give this B to the last bit.
    """
    from qwfisher.estimation import _engine_inputs
    from qwfisher.walk import parity_empty_rows, theta_jet

    window, freqs, spinors = _engine_inputs(init, beta, t)
    thetas = np.asarray(thetas, dtype=float)
    phis = window.to_sites(
        theta_jet(thetas[:, None, None], window.nodes, spinors, t)[0])
    diffs = freqs[:, None] - freqs[None, :]
    occurs = np.zeros(init.n_sites + 1, dtype=bool)
    occurs[diffs[diffs > 0]] = True
    ds = np.flatnonzero(occurs)
    b = np.zeros((thetas.size, 1 + 2 * ds.size, window.width))
    b[:, 0] = np.sum(phis.real ** 2 + phis.imag ** 2, axis=(1, 3))
    for f1, f in zip(*np.nonzero(diffs > 0)):
        prod = np.sum(phis[:, f1].conj() * phis[:, f], axis=-1)
        j = 1 + np.searchsorted(ds, diffs[f1, f])
        b[:, j] += prod.real
        b[:, j + ds.size] += prod.imag
    b[..., parity_empty_rows(init)] = 0.0
    return b
