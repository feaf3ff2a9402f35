"""Independent oracles used by the tests: SciPy integration/quadrature and
mpmath high-precision arithmetic, none of which share code with the package
paths they check, plus the direct tail-function integrands (Lratio and the
limit deficit straight from the specs) that the kernel's separable forms
replaced (run through the package's own quadrature, so that the two differ
only in how the integrand is evaluated), the occupation-time route to
P(t; s), a check on compute_P_grid's segment integral, and the simulator's pmf
one replicate at a time."""

import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, solve_ivp

from mbpilab import sim
from mbpilab.inversion import sample_count
from mbpilab.kernel import exact_R, transition_grid
from mbpilab.quadrature import adaptive_quadrature, doubling_quadrature


def binom_coeff(alpha: float, j: int) -> float:
    """(-1)**j * binomial(alpha, j) at 50 digits."""
    with mp.workdps(50):
        return float((-1) ** j * mp.binomial(alpha, j))


def lratio(model):
    """Lratio(x) = ell(x) / L(x), straight from the model's two tail specs."""
    ctx = model.context()
    return lambda x: ctx.ell(x) / ctx.L(x)


def ratio_deficit(L, ell):
    """C - ell(x)/L(x) with C = ell.limit / L.limit, from the fields of the
    two specs with the cancelling leading terms taken out by hand."""
    C = ell.c / L.c

    def _deficit(x):
        x = np.asarray(x)
        pert_L = L.kappa * x ** (-L.exponent)
        pert_g = ell.kappa * x ** (-ell.exponent)
        return C * (pert_L - pert_g) / (1.0 + pert_L)

    return _deficit


def scipy_R(law, t: float, s: float, rtol=1e-12, atol=1e-14) -> float:
    """R(t; s) for real s by scipy's adaptive RK on dR/dt = -f(1-R)."""
    def rhs(_, y):
        return [-float(np.real(law.gf_at_one_minus(y[0])))]
    sol = solve_ivp(rhs, (0.0, t), [1.0 - s], rtol=rtol, atol=atol,
                    method="RK45", dense_output=False)
    assert sol.success
    return float(sol.y[0, -1])


def scipy_gf_integral(model, a: float, b: float) -> float:
    """integral_a^b g(u)/f(u) du for real 0 <= a <= b < 1 via scipy.quad on the
    tail-function integrand."""
    ratio = lratio(model)
    gamma = model.gamma

    def integrand(u):
        w = 1.0 - u
        return -w ** (gamma - 1.0) * float(ratio(1.0 / w))

    with warnings.catch_warnings():
        # QUADPACK grumbles about roundoff near the u=1 endpoint layer; the
        # returned value is still good to ~1e-9, ample for these checks
        warnings.simplefilter("ignore")
        val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
    return val


def mp_exp_series_coeffs(h_fun, n: int, dps: int = 40):
    """Taylor coefficients of exp(h(s)) at s = 0 via mpmath differentiation."""
    with mp.workdps(dps):
        f = lambda s: mp.e ** h_fun(s)
        return [float(c) for c in mp.taylor(f, 0, n)]


def time_route_P(model, t: float, s, rtol=1e-10):
    """P(t; s) via the occupation-time form exp(integral_0^t g(F(u; s)) du) on
    the closed-form flow (stable families only), with no use of the g/f
    segment integral that compute_P_grid takes."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    if t == 0:
        return np.ones_like(s_arr)
    law_g = model.immigration

    def fun(u):
        vals = np.empty((u.size, s_arr.size), dtype=complex)
        for row, uu in enumerate(u):
            R = exact_R(model.offspring, float(uu), s_arr)
            vals[row] = law_g.gf_at_one_minus(R, mode="closed")
        return vals

    val, _ = adaptive_quadrature(fun, 0.0, t, rtol=rtol, initial_panels=16)
    return np.exp(np.where(s_arr == 1.0, 0.0, val))


def row_sum_invariance(measure, model, tau: float, j_max: int):
    """sum_{i<=I} m_i p_ij(tau), j = 0..j_max, as a sum over the transition
    rows i = 0..I, each inverted on its own at the invariance check's radius
    and sample count; returns the sum and the rows."""
    m = measure.coefficients
    rows = transition_grid(model, np.arange(m.size), [tau], j_max,
                           M=sample_count(j_max, 1024)).row(0)
    return np.einsum("i,ij->j", m, rows.values), rows


def polyval_series(coefficients, z):
    """sum_j c_j z**j by numpy's plain Horner loop (one step per coefficient)."""
    return npoly.polyval(np.asarray(z), coefficients)


def direct_log_limit(model, one_minus_s, rtol=1e-10):
    """log_limit with the tail functions evaluated at the complex argument
    x = q**(-1/a) / w, one complex power per node and point: Lratio(x) for
    log U (a = gamma > 0), the limit deficit above for log B
    (a = mu, gamma < 0), to which log pi adds w**(-|gamma|) in the
    argument's own dtype."""
    w = np.asarray(one_minus_s)
    w0 = np.atleast_1d(w.astype(complex))
    gamma, g_abs, mu = model.gamma, abs(model.gamma), model.mu
    if gamma > 0:
        ratio = lratio(model)

        def fun(q):
            return ratio(q[:, None] ** (-1.0 / gamma) / w0[None, :])
    else:
        ctx = model.context()
        deficit = ratio_deficit(ctx.L, ctx.ell)

        def fun(q):
            x = q[:, None] ** (-1.0 / mu) / w0[None, :]
            return q[:, None] ** (-1.0 - g_abs / mu) * deficit(x) / mu

    inner, err = doubling_quadrature(fun, 0.0, 1.0, rtol=rtol)
    if gamma > 0:
        return -(w0 ** gamma) / gamma * inner, err
    return w ** (-g_abs) + w0 ** (-g_abs) * inner, err


def direct_segment_integral(model, w0, w1, rtol=1e-10):
    """The tail-function branch of gf_segment_integral from 1-u = w0 to
    1-u = w1 with w = exp(logw) raised to gamma and Lratio evaluated at 1/w
    directly."""
    w0, w1 = np.atleast_1d(w0), np.atleast_1d(w1)
    logw0 = np.log(w0)
    D = logw0 - np.log(w1)
    gamma = model.gamma
    ratio = lratio(model)

    def fun(x):
        w = np.exp(logw0[None, :] - x[:, None] * D[None, :])
        return -D[None, :] * w ** gamma * ratio(1.0 / w)

    n0 = int(max(8, min(256, np.ceil(2.0 * np.max(np.abs(D))))))
    return doubling_quadrature(fun, 0.0, 1.0, rtol=rtol, n0=n0)


class _FirstChunkThen:
    """A generator for simulate_path that hands out one given first chunk,
    then the chunks of ``rng``."""

    def __init__(self, exps, unis, rng):
        self.first, self.rng = [exps, unis], rng

    def standard_exponential(self, size):
        if self.first:
            return self.first.pop(0)
        return self.rng.standard_exponential(size)

    def random(self, size):
        return self.first.pop(0) if self.first else self.rng.random(size)


def _philox(seed_word, index, counter=0):
    return np.random.Generator(np.random.Philox(
        key=np.array([seed_word, index], dtype=np.uint64),
        counter=np.array([0, 0, 0, counter], dtype=np.uint64)))


def replicate_rngs(seed, replicates):
    """The generator of each replicate under estimate_pmf's block layout,
    built from the layout's description alone: per block b of 256
    replicates, one stream keyed (seed, b) at counter 2**192 gives a
    (256, 16) exponential and then a (256, 16, 3) uniform draw, and row
    r mod 256 is replicate r's first chunk; the stream keyed (seed, r) at
    counter 0 gives the rest in 64-event chunks."""
    seed_word = seed & 0xFFFFFFFFFFFFFFFF
    for b in range(-(-replicates // 256)):
        block = _philox(seed_word, b, counter=1)
        exps = block.standard_exponential((256, 16))
        unis = block.random((256, 16, 3))
        for r in range(256 * b, min(256 * (b + 1), replicates)):
            yield _FirstChunkThen(exps[r % 256], unis[r % 256],
                                  _philox(seed_word, r))


def per_replicate_pmf(config):
    """estimate_pmf one replicate at a time: simulate_path on each
    replicate's generator from replicate_rngs, with the per-state tally and
    pmf arithmetic of estimate_pmf.  Returns the pmf, the capped count, the
    replicate and event totals, the events of each path and the number of
    paths that drew past their block's first chunk (``own_stream``: paths
    of more than 16 events, and those of 16 that the cap did not end)."""
    samplers = sim._samplers(config.model)
    n = config.replicates
    counts, capped, lengths, own_stream = {}, 0, [], 0
    for rng in replicate_rngs(config.seed, n):
        path = sim.simulate_path(config.model, config.initial, config.horizon,
                                 rng, state_cap=config.state_cap,
                                 _samplers_cache=samplers)
        lengths.append(path.events)
        own_stream += path.events > 16 or (path.events == 16
                                           and not path.capped)
        if path.capped:
            capped += 1
        else:
            counts[path.state] = counts.get(path.state, 0) + 1
    pmf = np.zeros(max(counts) + 1 if counts else 1)
    for state, cnt in counts.items():
        pmf[state] = cnt / n
    return SimpleNamespace(pmf=pmf, capped_count=capped, replicates=n,
                           events=sum(lengths), lengths=lengths,
                           own_stream=own_stream)
