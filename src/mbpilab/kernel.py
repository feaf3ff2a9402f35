"""Transition-kernel computations for the branching process with immigration.

For an offspring generating function f, the single-ancestor generating
function F(t; s) solves the backward flow dF/dt = f(F), F(0) = s; with
R = 1 - F, the immigration generating functions are

    P_i(t; s) = F(t; s)**i * P(t; s),
    P(t; s)   = exp( integral_s^{F(t;s)} g(u)/f(u) du ),

and the tail-function form of the integrand is
g(u)/f(u) = -(1-u)**(gamma-1) * Lratio(1/(1-u)), gamma = delta - nu.

Transition probabilities p_ij(t) are the power-series coefficients of
P_i(t; s), recovered by circle sampling (see :mod:`mbpilab.inversion`).

The API is three grid primitives: :func:`flow_on_grid` (R on a (t, s)
grid), :func:`compute_P_grid` (log P on the same grid) and
:func:`transition_grid` (rows p_ij over t and i).  Every function here takes
array-likes and returns arrays with their batch axis, a scalar argument as
a batch of one.
"""

from __future__ import annotations

import numpy as np

from . import telemetry
from .errors import ModelError, NumericsError
from .inversion import (CoefficientSeries, circle_points,
                        coefficients_from_samples, complete_circle)
from .laws import BranchingLaw, ModelSpec
from .quadrature import doubling_quadrature

# The routes of every kernel function that takes a ``method``:
#   "closed"  the stable-family closed forms: exact_R for the flow, the
#             antiderivative for log P;
#   "quad"    numerics on the law's preferred evaluation: the flow ODE, and
#             quadrature of log P with the tail-function integrand;
#   "series"  numerics on the truncated series end to end: the exact kernel
#             of the truncated law, e.g. for simulator cross-checks;
#   "auto"    "closed" where the layer has an exact closed form, else "quad".
# The laws evaluate with mode = "auto" | "closed" | "series" in the same sense.
METHODS = ("auto", "closed", "quad", "series")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ModelError(f"unknown method {method!r}; expected one of {METHODS}")


# Dormand-Prince 5(4) embedded pair.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])


def _rk45(rhs, y0, t_out, rtol):
    """Adaptive Dormand-Prince integration of a complex batch from 0 through
    the sorted positive times t_out, landing exactly on each (dense output's
    lower order would cost the transient checks their relative accuracy);
    error control is purely relative, so no component of y0 may be 0;
    returns the states there, shape (len(t_out),) + y0.shape.

    Each call reports once to ``telemetry``: ``flow.calls``, ``flow.steps``
    (accepted), ``flow.rejected``, ``flow.rhs_evals`` and ``flow.rhs_points``
    (evaluations times batch width)."""
    y = np.array(y0, dtype=complex, copy=True)
    out = np.empty((len(t_out),) + y.shape, dtype=complex)
    done = 0
    t = 0.0
    k1 = rhs(y)
    evals, steps, rejected = 1, 0, 0
    d0 = float(np.max(np.abs(y)))
    d1 = float(np.max(np.abs(k1)))
    h = min(t_out[-1], 0.01 * d0 / d1) if d1 > 0 else t_out[-1]
    ks = [None] * 7
    try:
        for _ in range(200_000):     # the step budget
            t_end = t_out[done]
            h_free = h               # resumed after landing on an inner time
            h = min(h, t_end - t)
            ks[0] = k1
            for i in range(1, 7):
                acc = _DP_A[i][0] * ks[0]
                for j in range(1, i):
                    if _DP_A[i][j] != 0.0:
                        acc = acc + _DP_A[i][j] * ks[j]
                ks[i] = rhs(y + h * acc)
                evals += 1
            y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
            ydiff = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ks))
            scale = rtol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.max(np.abs(ydiff) / scale))
            if err <= 1.0:
                steps += 1
                t += h
                y = y5
                k1 = ks[6]           # first-same-as-last
                if t >= t_end:
                    while done < len(t_out) and t >= t_out[done]:
                        out[done] = y
                        done += 1
                    if done == len(t_out):
                        return out
                    h = max(h, h_free)
                    continue
            else:
                rejected += 1
            factor = 5.0 if err == 0 else 0.9 * err ** -0.2   # NaN shrinks h
            h *= min(5.0, max(0.2, factor))
            if h <= 4.0 * np.finfo(float).eps * max(t, 1e-6):
                raise NumericsError(
                    "step size underflow integrating the backward flow: the "
                    "right-hand side is too rough for the requested rtol -- "
                    "loosen rtol or use the closed-form branch for this family")
        raise NumericsError("backward-flow integration exceeded the step budget")
    finally:
        telemetry.add("flow.calls")
        telemetry.add("flow.steps", steps)
        telemetry.add("flow.rejected", rejected)
        telemetry.add("flow.rhs_evals", evals)
        telemetry.add("flow.rhs_points", evals * y.size)


def _offspring(model) -> BranchingLaw:
    return model.offspring if isinstance(model, ModelSpec) else model


def exact_R(law: BranchingLaw, t: float, s) -> np.ndarray:
    """Closed-form R(t; s) for the stable families.

    Plain stable: R = ((1-s)**(-nu) + c*nu*t)**(-1/nu).  Perturbed stable:
    with w = R**(-nu), the flow conserves  w - kappa*log(w + kappa) - c*nu*t,
    solved for w by Newton from the plain-stable start.
    """
    if not law.closed_form:
        raise ModelError("exact_R needs a stable-family law")
    w0 = 1.0 - np.atleast_1d(np.asarray(s, dtype=complex))
    at_one = w0 == 0
    w0 = np.where(at_one, 1.0, w0)
    nu, c, kappa = law.nu, law.scale, law.kappa
    w_init = w0 ** (-nu) + c * nu * t
    if not kappa:
        return np.where(at_one, 0.0, w_init ** (-1.0 / nu))
    target = w0 ** (-nu) - kappa * np.log(w0 ** (-nu) + kappa) + c * nu * t
    w = w_init
    for _ in range(100):
        h = w - kappa * np.log(w + kappa) - target
        step = h * (w + kappa) / w
        w = w - step
        if np.max(np.abs(step) / np.abs(w)) < 1e-14:
            break
    else:
        raise NumericsError("implicit closed form for the perturbed flow stalled")
    return np.where(at_one, 0.0, w ** (-1.0 / nu))


def solve_F(model, t: float, s, rtol: float = 1e-10,
            method: str = "auto") -> np.ndarray:
    """R(t; s) for the batch s, |s| <= 1, t >= 0: the single-time row of
    :func:`flow_on_grid` (``method`` one of :data:`METHODS`)."""
    return flow_on_grid(model, s, [t], method=method, rtol=rtol)[0]


def _flow_route(model, method: str) -> str:
    """The flow route ``method`` names, "auto" resolved: "closed" when the
    offspring law has a closed form, else "quad"."""
    _check_method(method)
    if method == "auto":
        return "closed" if _offspring(model).closed_form else "quad"
    return method


def _flow_error(model, t: float, method: str, rtol: float) -> float:
    """The error :func:`compute_P_grid` reports for the flow to t: none at
    t = 0, roundoff on the closed-form route, else the tolerance."""
    if t == 0:
        return 0.0
    closed = _flow_route(model, method) == "closed"
    return 4.0 * np.finfo(float).eps if closed else rtol


def flow_on_grid(model, s_batch, t_grid, method: str = "auto",
                 rtol: float = 1e-10) -> np.ndarray:
    """R(t; s), shape (len(t_grid), len(s_batch)), rows in the caller's order,
    by the route ``method`` of :data:`METHODS`: "closed" is :func:`exact_R`,
    "quad" and "series" integrate the flow ODE with the law's preferred or
    its truncated-series evaluation.

    The flow is autonomous, F(t2; s) = F(t2 - t1; F(t1; s)), so the ODE routes
    march once along the sorted distinct times for the whole batch.

    The ODE routes integrate w = R**(-nu) (nu = law.nu, or 1 for a law that
    declares none), in which the flow reads dw/dt = nu (w/R) f(1-R).  For a
    regularly varying f(1-R) = R**(1+nu) L(1/R) that is nu L(1/R): linear in
    t up to the slow variation (Lemma 2's 1/Lambda(R) = nu t + O(log)), and
    exactly linear, dw/dt = c nu, for the stable family, whereas R itself
    decays like t**(-1/nu).  The step count is then set by the grid landings
    rather than by accuracy: a 25-point march to t = 1e6 at rtol 1e-12 takes
    about 200 right-hand-side evaluations, not 14,000, and lands within a few
    ulps of the closed form.  Re R > 0 for |s| <= 1, s != 1, so the principal
    powers keep arg w = -nu arg R and invert exactly.  The error is held
    relative to w at nu * rtol, which is rtol relative to R.  Lanes with
    s = 1 stay at R = 0 and never enter the integrator.
    """
    law = _offspring(model)
    route = _flow_route(law, method)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    s_arr = np.atleast_1d(np.asarray(s_batch, dtype=complex))
    if np.any(t_grid < 0):
        raise ModelError("time must be nonnegative")
    if np.any(np.abs(s_arr) > 1 + 1e-12):
        raise ModelError("the flow needs |s| <= 1")
    times, order = np.unique(t_grid, return_inverse=True)
    R = np.zeros((times.size, s_arr.size), dtype=complex)
    R[times == 0] = 1.0 - s_arr
    positive = times > 0
    if route == "closed":
        for row in np.flatnonzero(positive):
            R[row] = exact_R(law, float(times[row]), s_arr)
    else:
        mode = "series" if route == "series" else "auto"
        nu = law.nu if law.nu is not None else 1.0
        moving = s_arr != 1.0

        def rhs(w):
            R_w = w ** (-1.0 / nu)
            return nu * (w / R_w) * law.gf_at_one_minus(R_w, mode=mode)

        if positive.any() and moving.any():
            w = _rk45(rhs, (1.0 - s_arr[moving]) ** -nu,
                      times[positive].tolist(), nu * rtol)
            R[np.ix_(positive, moving)] = w ** (-1.0 / nu)
    return R[order]


def _sv_available(model: ModelSpec) -> bool:
    return (model.offspring.sv_spec is not None
            and model.immigration.sv_spec is not None)


def _tail_terms(model: ModelSpec):
    """C = C_ell / C_L and the (kappa, exponent) terms of ell and L, so that
    Lratio(x) = C (1 + pert_ell) / (1 + pert_L) and
    C - Lratio(x) = C (pert_L - pert_ell) / (1 + pert_L), with
    pert = kappa * x**(-exponent); a term is None where kappa is 0."""
    ell, L = model.immigration.sv_spec, model.offspring.sv_spec
    return (ell.c / L.c, (ell.kappa, ell.exponent) if ell.kappa else None,
            (L.kappa, L.exponent) if L.kappa else None)


def _separable_pert(term, q_scale: float, w0):
    """q -> kappa * x**(-e) at x = q**(-q_scale) / w0 for nodes q > 0, as the
    outer product of the real powers q**(e*q_scale) with the per-call row
    kappa * w0**e, exact for Re w0 > 0; 0.0 when the term is None.  The one
    user is :func:`log_limit`, with q_scale = 1/gamma for log U and 1/mu for
    log pi."""
    if term is None:
        return lambda q: 0.0
    kappa, e = term
    row = kappa * w0 ** e
    return lambda q: np.multiply.outer(q ** (e * q_scale), row)


def _wgamma_lratio(gamma: float, terms, logw):
    """w**gamma * Lratio(1/w) from logw = log(w) and terms = _tail_terms(model),
    as exp(gamma*logw) times the power form with (1/w)**(-e) = exp(e*logw)."""
    C, term_g, term_L = terms
    pert_g = term_g[0] * np.exp(term_g[1] * logw) if term_g else 0.0
    pert_L = term_L[0] * np.exp(term_L[1] * logw) if term_L else 0.0
    return np.exp(gamma * logw) * (C * (1.0 + pert_g) / (1.0 + pert_L))


def _series_ratio(model, u):
    return (model.immigration.gf(u, mode="series")
            / model.offspring.gf(u, mode="series"))


def gf_segment_integral(model: ModelSpec, one_minus_s, one_minus_F,
                        method: str = "auto"):
    """integral_s^F g(u)/f(u) du along the geometric path
    1-u = exp((1-x) log(1-s) + x log(1-F)), x in [0, 1].

    The path stays in the half-plane Re(1-u) > 0, where the tail-function
    form of the integrand is analytic; in the x parameter the integrand
    varies like an exponential, so uniform panels resolve it.  The endpoints
    are given as 1-s and 1-F, which keeps full precision when F is
    exponentially close to 1.

    ``method`` "series" integrates the truncated-series ratio g/f; every
    other word of :data:`METHODS` takes the tail-function integrand
    -D w**gamma Lratio(1/w), w = 1-u, where both laws carry tail specs,
    else the series.  The tail-function integrand is evaluated from
    logw = log(w0) - x D with no complex power: w**gamma = exp(gamma logw)
    and, in the tail specs c (1 + kappa x**(-e)), (1/w)**(-e) = exp(e logw).
    Both are exact on the principal branch because Re w > 0 along the path
    keeps |Im logw| < pi/2, so Log(exp(logw)) = logw.
    """
    _check_method(method)
    w0, w1 = np.broadcast_arrays(
        np.atleast_1d(np.asarray(one_minus_s, dtype=complex)),
        np.atleast_1d(np.asarray(one_minus_F, dtype=complex)))
    if np.any(w1 == 0):
        raise ModelError("segment integral endpoint F = 1 is singular")
    tail_form = method != "series" and _sv_available(model)
    logw0 = np.log(w0)
    D = logw0 - np.log(w1)
    if tail_form:
        gamma, terms = model.gamma, _tail_terms(model)

        def fun(x):
            logw = logw0[None, :] - x[:, None] * D[None, :]
            return -D[None, :] * _wgamma_lratio(gamma, terms, logw)
    else:
        def fun(x):
            w = np.exp(logw0[None, :] - x[:, None] * D[None, :])
            u = 1.0 - w
            return _series_ratio(model, u) * w * D[None, :]
    dmax = float(np.max(np.abs(D)))
    if dmax < 1e-13:     # one midpoint evaluation is exact to roundoff
        return fun(np.array([0.5]))[0], dmax
    return doubling_quadrature(fun, 0.0, 1.0)


def log_limit(model: ModelSpec, one_minus_s):
    """The log of the limit generating function at s = 1 - ``one_minus_s``
    and its quadrature error estimate, the regime read from gamma.  With
    w = 1 - s, q = ((1-u)/w)**a leaves smooth bounded integrands in
    x = q**(-1/a)/w:

      gamma > 0, a = gamma:  log U(s) = integral_s^1 g/f du
          = -w**gamma / gamma * integral_0^1 Lratio(x) dq;
      gamma < 0, a = mu:     log pi(s) = w**(-|gamma|) + log B(s),
          log B(s) = integral_s^1 [g/f + |gamma| (1-u)**(-1-|gamma|)] du
          = w**(-|gamma|) * integral_0^1 q**(-1-|gamma|/mu) (C - Lratio(x)) / mu dq,

    log B through the limit deficit C - Lratio, never as a difference of
    divergent integrals; for gamma < 0 this raises the error of
    :meth:`ModelSpec.require_transient_limit`.  The tail functions are taken
    in separable form, x**(-e) = q**(e/a) w**e, exact on the principal
    branch (q > 0, Re w > 0): one complex power of w per call and kappa != 0
    term.  w**(-|gamma|) is taken in the argument's dtype, real for real s;
    1 - s given directly keeps full precision for s exponentially near 1.
    """
    gamma = model.gamma
    recurrent = gamma > 0
    if not recurrent:
        model.require_transient_limit()
    if not _sv_available(model):
        raise ModelError("the limit needs the built-in tail-function specs")
    w = np.atleast_1d(np.asarray(one_minus_s))
    w0 = w.astype(complex)
    at_one = w0 == 0
    w0_safe = np.where(at_one, 1.0, w0)
    g_abs = abs(gamma)
    a = gamma if recurrent else model.mu
    C, term_g, term_L = _tail_terms(model)
    pert_g = _separable_pert(term_g, 1.0 / a, w0_safe)
    pert_L = _separable_pert(term_L, 1.0 / a, w0_safe)

    def fun(q):
        # unnamed temporaries let numpy reuse their buffers: naming both
        # terms made the 8193-point call on g025_pert_off 1.6 times slower
        if recurrent:   # Lratio, a scalar when neither law has a kappa term
            val = C * (1.0 + pert_g(q)) / (1.0 + pert_L(q))
        else:
            p_L = pert_L(q)
            deficit = C * (p_L - pert_g(q)) / (1.0 + p_L)     # C - Lratio
            val = q[:, None] ** (-1.0 - g_abs / a) * deficit / a
        return np.broadcast_to(val, (q.size, w0_safe.size)).astype(complex, copy=False)

    inner, err = doubling_quadrature(fun, 0.0, 1.0)
    if recurrent:
        val = -(w0_safe ** gamma) / gamma * inner
    else:
        val = w0_safe ** (-g_abs) * inner
    val = np.where(at_one, 0.0, val)
    if not recurrent:
        val = w ** (-g_abs) + val
    return val, err


def _closed_logP(model: ModelSpec, w0, R):
    """Antiderivative route for canonical offspring (kappa = 0) paired with a
    stable immigration law (possibly perturbed)."""
    c, nu = model.offspring.scale, model.offspring.nu
    d, kap = model.immigration.scale, model.immigration.kappa
    gamma, mu = model.gamma, model.mu
    val = d / (c * gamma) * (R ** gamma - w0 ** gamma)
    if kap:
        val = val - (d * kap / c) * (w0 ** mu - R ** mu) / mu
    return val


def compute_P_grid(model: ModelSpec, s_batch, t_grid, rtol: float = 1e-10,
                   method: str = "auto"):
    """(log P, R, error estimate) on a (len(t_grid), len(s_batch)) grid, from
    one :func:`flow_on_grid` march at the relative tolerance ``rtol`` and one
    closed-form evaluation or batched :func:`gf_segment_integral` of log P,
    both by the route ``method`` of :data:`METHODS`; "auto" takes the
    closed-form log P for canonical offspring with a stable immigration law.
    The error estimate is the quadrature's plus the flow's to the last time."""
    _check_method(method)
    closed = model.canonical
    if method == "closed" and not closed:
        raise ModelError("closed-form P needs canonical offspring paired "
                         "with a stable immigration law")
    s_arr = np.atleast_1d(np.asarray(s_batch, dtype=complex))
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    R = flow_on_grid(model, s_arr, t_arr, method=method, rtol=rtol)
    one_minus_s = np.broadcast_to(1.0 - s_arr, R.shape).ravel()
    at_one = np.abs(one_minus_s) == 0        # log P = 0 where s = 1
    w0, w1 = np.where(at_one, 1.0, one_minus_s), np.where(at_one, 1.0, R.ravel())
    if method == "closed" or (method == "auto" and closed):
        logp, err = _closed_logP(model, w0, w1), 8.0 * np.finfo(float).eps
    else:
        logp, err = gf_segment_integral(model, w0, w1, method=method)
    logp = np.where(at_one, 0.0, logp).reshape(R.shape)
    flow_err = _flow_error(model, float(t_arr.max()), method, rtol)
    return logp, R, float(err) + flow_err


def _log_P_i(logP, F, i):
    """log P_i(t; s) = log P(t; s) + i log F(t; s), broadcast over i; -inf
    where F = 0 < i, where P_i vanishes."""
    zero = F == 0
    log_F = np.log(np.where(zero, 1.0, F))
    return np.where(i > 0, np.where(zero, -np.inf, logP + i * log_F), logP)[()]


# Circle samples inverted at once: bounds the memory of a batch of rows
# (16 rows at M = 1024) without giving up the batched FFT.
_BLOCK_SAMPLES = 2 ** 14


def transition_grid(model: ModelSpec, i_values, t_grid, J_out: int,
                    r: float = 0.9, M: int = 4096, method: str = "auto",
                    clamp: bool = False) -> CoefficientSeries:
    """Rows p_ij(t), j = 0..J_out, for every t in ``t_grid`` and every
    initial state i in ``i_values``, as one series whose values have shape
    (len(t_grid), len(i_values), J_out + 1) and whose bounds have shape
    (len(t_grid), len(i_values)).

    P(t; s) and F(t; s) on the half circle |s| = r come from one
    :func:`compute_P_grid` march (``method`` one of :data:`METHODS`); every
    row is the circle inversion of P_i = F**i P, taken in log space.  The
    rows are inverted in blocks of ``_BLOCK_SAMPLES`` samples (one row at
    least), so memory does not grow with the number of rows.
    ``meta["quad_error"]`` is the error estimate of log P on the circle
    (quadrature plus flow), shared by all rows.
    """
    i_arr = np.atleast_1d(np.asarray(i_values))
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(i_arr < 0) or np.any(i_arr != np.floor(i_arr)):
        raise ModelError("initial state i must be a nonnegative integer")
    s_half = circle_points(r, M, half=True)
    logp, R, err = compute_P_grid(model, s_half, t_arr, method=method)
    F = np.where((t_arr == 0)[:, None], s_half, 1.0 - R)
    i_col = i_arr.astype(int)[:, None]
    block = max(1, _BLOCK_SAMPLES // M)
    parts = []
    for logp_t, F_t in zip(logp, F):
        for lo in range(0, i_col.size, block):
            half = np.exp(_log_P_i(logp_t, F_t, i_col[lo:lo + block]))
            parts.append(coefficients_from_samples(complete_circle(half, M), r,
                                                   J_out, clamp=clamp))

    def joined(name):
        arr = np.concatenate([getattr(part, name) for part in parts])
        return arr.reshape((t_arr.size, i_col.size) + arr.shape[1:])

    return CoefficientSeries(
        values=joined("values"), radius=r, aliasing_bound=joined("aliasing_bound"),
        noise_scale=joined("noise_scale"), clamp_magnitude=joined("clamp_magnitude"),
        imag_residual=joined("imag_residual"),
        meta={"quad_error": err})


def gf_table_csv(t_list, s_list, logp, R, err: float) -> str:
    """Comma-separated kernel table t,s_re,s_im,F_re,F_im,P_re,P_im,err from
    :func:`compute_P_grid`'s log P and R on the grid t_list x s_list: one row
    per (t, s), F = s at t = 0 and 1 - R after."""
    lines = ["t,s_re,s_im,F_re,F_im,P_re,P_im,err"]
    for a, t in enumerate(t_list):
        for b, s in enumerate(s_list):
            sv = complex(s)
            fv = sv if t == 0 else complex(1.0 - R[a, b])
            pv = complex(np.exp(logp[a, b]))
            lines.append(
                f"{t:.17g},{sv.real:.17g},{sv.imag:.17g},"
                f"{fv.real:.17g},{fv.imag:.17g},{pv.real:.17g},{pv.imag:.17g},"
                f"{err:.3g}")
    return "\n".join(lines) + "\n"
