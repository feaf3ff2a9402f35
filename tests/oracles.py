"""Independent oracles used by the tests: SciPy integration/quadrature and
mpmath high-precision arithmetic, none of which share code with the package
paths they check, plus the direct tail-function integrands that the kernel's
separable forms replaced (run through the package's own quadrature, so that
the two differ only in how the integrand is evaluated), the
occupation-time route to P(t; s), a check on compute_P's segment integral,
and the simulator's pmf one replicate at a time."""

import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, solve_ivp

from mbpilab import sim
from mbpilab.kernel import exact_R
from mbpilab.quadrature import adaptive_quadrature, doubling_quadrature


def binom_coeff(alpha: float, j: int) -> float:
    """(-1)**j * binomial(alpha, j) at 50 digits."""
    with mp.workdps(50):
        return float((-1) ** j * mp.binomial(alpha, j))


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
    ctx = model.context()
    gamma = model.gamma

    def integrand(u):
        w = 1.0 - u
        return -w ** (gamma - 1.0) * float(ctx.L_ratio(1.0 / w))

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
    segment integral that compute_P takes."""
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


def polyval_series(coefficients, z):
    """sum_j c_j z**j by numpy's plain Horner loop (one step per coefficient)."""
    return npoly.polyval(np.asarray(z), coefficients)


def direct_integral_to_one(model, s, rtol=1e-10):
    """gf_integral_to_one with Lratio(x) evaluated at the complex argument
    x = q**(-1/gamma) / (1-s), one complex power per node and point."""
    w0 = np.atleast_1d(1.0 - np.asarray(s, dtype=complex))
    gamma = model.gamma
    lratio = model.context().L_ratio

    def fun(q):
        return lratio(q[:, None] ** (-1.0 / gamma) / w0[None, :])

    inner, err = doubling_quadrature(fun, 0.0, 1.0, rtol=rtol)
    return -(w0 ** gamma) / gamma * inner, err


def direct_regularized_integral(model, s, rtol=1e-10):
    """regularized_integral_to_one with the limit deficit of rvcalc evaluated
    at the complex argument x = q**(-1/mu) / (1-s)."""
    w0 = np.atleast_1d(1.0 - np.asarray(s, dtype=complex))
    g_abs, mu = abs(model.gamma), model.mu
    deficit = model.context().ratio_deficit_fun()

    def fun(q):
        x = q[:, None] ** (-1.0 / mu) / w0[None, :]
        return q[:, None] ** (-1.0 - g_abs / mu) * deficit(x) / mu

    inner, err = doubling_quadrature(fun, 0.0, 1.0, rtol=rtol)
    return w0 ** (-g_abs) * inner, err


def direct_segment_integral(model, w0, w1, rtol=1e-10):
    """The "sv" branch of gf_segment_integral from 1-u = w0 to 1-u = w1 with
    w = exp(logw) raised to gamma and Lratio evaluated at 1/w directly."""
    w0, w1 = np.atleast_1d(w0), np.atleast_1d(w1)
    logw0 = np.log(w0)
    D = logw0 - np.log(w1)
    gamma = model.gamma
    lratio = model.context().L_ratio

    def fun(x):
        w = np.exp(logw0[None, :] - x[:, None] * D[None, :])
        return -D[None, :] * w ** gamma * lratio(1.0 / w)

    n0 = int(max(8, min(256, np.ceil(2.0 * np.max(np.abs(D))))))
    return doubling_quadrature(fun, 0.0, 1.0, rtol=rtol, n0=n0)


def per_replicate_pmf(config):
    """estimate_pmf one replicate at a time: simulate_path on a generator
    built afresh for each Philox stream keyed (seed, replicate), with the
    per-state tally and pmf arithmetic of estimate_pmf.  Returns the pmf,
    the capped count, and the replicate and event totals."""
    samplers = sim._samplers(config.model)
    seed_word = config.seed & 0xFFFFFFFFFFFFFFFF
    n = config.replicates
    counts, capped, events = {}, 0, 0
    for rep in range(n):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed_word, rep], dtype=np.uint64)))
        path = sim.simulate_path(config.model, config.initial, config.horizon,
                                 rng, state_cap=config.state_cap,
                                 _samplers_cache=samplers)
        events += path.events
        if path.capped:
            capped += 1
        else:
            counts[path.state] = counts.get(path.state, 0) + 1
    pmf = np.zeros(max(counts) + 1 if counts else 1)
    for state, cnt in counts.items():
        pmf[state] = cnt / n
    return SimpleNamespace(pmf=pmf, capped_count=capped, replicates=n,
                           events=events)
