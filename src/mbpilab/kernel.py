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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelError, NumericsError, PreconditionError
from .inversion import (CoefficientSeries, circle_points,
                        coefficients_from_samples, complete_circle)
from .laws import BranchingLaw, ModelSpec
from .quadrature import adaptive_quadrature, doubling_quadrature
from .rvcalc import power_form

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


def _rk45(rhs, y0, t_out, rtol, atol, max_steps=200_000):
    """Adaptive Dormand-Prince integration of a complex batch from 0 through
    the sorted positive times t_out, landing exactly on each (dense output's
    lower order would cost the transient checks their relative accuracy);
    returns the states there, shape (len(t_out),) + y0.shape."""
    y = np.array(y0, dtype=complex, copy=True)
    out = np.empty((len(t_out),) + y.shape, dtype=complex)
    done = 0
    t = 0.0
    k1 = rhs(y)
    d0 = max(float(np.max(np.abs(y))), atol)
    d1 = float(np.max(np.abs(k1)))
    h = min(t_out[-1], 0.01 * d0 / d1) if d1 > 0 else t_out[-1]
    ks = [None] * 7
    for _ in range(max_steps):
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
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        ydiff = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ks))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(ydiff) / scale))
        if err <= 1.0:
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
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h <= 4.0 * np.finfo(float).eps * max(t, 1e-6):
            raise NumericsError(
                "step size underflow integrating the backward flow; the state "
                "is pinned near the fixed point F = 1 -- use the closed-form "
                "branch for this family/horizon")
    raise NumericsError("backward-flow integration exceeded the step budget")


def _offspring(model) -> BranchingLaw:
    return model.offspring if isinstance(model, ModelSpec) else model


def _as_batch(s):
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    return arr, np.ndim(s) == 0


def _unbatch(x, scalar):
    return x[0] if scalar else x


@dataclass
class GFValue:
    """A point evaluation of the kernel generating functions."""

    t: float
    s: object
    F: object
    R: object
    P: object = None
    logP: object = None
    error_estimate: float = 0.0


def exact_R(law: BranchingLaw, t: float, s) -> np.ndarray:
    """Closed-form R(t; s) for the stable families.

    Plain stable: R = ((1-s)**(-nu) + c*nu*t)**(-1/nu).  Perturbed stable:
    with w = R**(-nu), the flow conserves  w - kappa*log(w + kappa) - c*nu*t,
    solved for w by Newton from the plain-stable start.
    """
    if not law.closed_form:
        raise ModelError("exact_R needs a stable-family law")
    s_arr, scalar = _as_batch(s)
    w0 = 1.0 - s_arr
    at_one = w0 == 0
    w0 = np.where(at_one, 1.0, w0)
    nu, c, kappa = law.nu, law.scale, law.kappa
    w_init = w0 ** (-nu) + c * nu * t
    if not kappa:
        return _unbatch(np.where(at_one, 0.0, w_init ** (-1.0 / nu)), scalar)
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
    return _unbatch(np.where(at_one, 0.0, w ** (-1.0 / nu)), scalar)


def solve_F(model, t: float, s, rtol: float = 1e-10, atol: float = 1e-300,
            method: str = "auto") -> GFValue:
    """F(t; s) and R(t; s) for |s| <= 1, t >= 0.

    method: "auto" takes the closed form when the offspring law has one,
    otherwise integrates the flow; "ode" forces the integrator with the
    law's preferred evaluation; "ode-series" forces the truncated-series
    right-hand side (the exact flow of the truncated law).

    Error control is purely relative by default: R decays through many
    orders of magnitude but never reaches 0 for s != 1, and any absolute
    floor would cap the attainable relative accuracy of the far tail.
    """
    s_arr, scalar = _as_batch(s)
    R = flow_on_grid(model, s_arr, [t], method=method, rtol=rtol, atol=atol)[0]
    if t == 0:
        return GFValue(t=t, s=s, F=_unbatch(s_arr, scalar),
                       R=_unbatch(R, scalar), error_estimate=0.0)
    exact = method == "exact" or (method == "auto" and _offspring(model).closed_form)
    err = 4.0 * np.finfo(float).eps if exact else rtol
    return GFValue(t=t, s=s, F=_unbatch(1.0 - R, scalar),
                   R=_unbatch(R, scalar), error_estimate=err)


def flow_on_grid(model, s_batch, t_grid, method: str = "auto",
                 rtol: float = 1e-10, atol: float = 1e-300) -> np.ndarray:
    """R(t; s), shape (len(t_grid), len(s_batch)), rows in the caller's order.

    The flow is autonomous, F(t2; s) = F(t2 - t1; F(t1; s)), so the ODE routes
    march once along the sorted distinct times for the whole batch.  ``method``
    follows :func:`solve_F`."""
    law = _offspring(model)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    s_arr = np.atleast_1d(np.asarray(s_batch, dtype=complex))
    if np.any(t_grid < 0):
        raise ModelError("time must be nonnegative")
    if np.any(np.abs(s_arr) > 1 + 1e-12):
        raise ModelError("the flow needs |s| <= 1")
    if method == "auto":
        method = "exact" if law.closed_form else "ode"
    times, order = np.unique(t_grid, return_inverse=True)
    R = np.empty((times.size, s_arr.size), dtype=complex)
    R[times == 0] = 1.0 - s_arr
    positive = times > 0
    if method == "exact":
        for row in np.flatnonzero(positive):
            R[row] = exact_R(law, float(times[row]), s_arr)
    elif method in ("ode", "ode-series"):
        mode = "series" if method == "ode-series" else "auto"
        rhs = lambda R: -law.gf_at_one_minus(R, mode=mode)
        if positive.any():
            R[positive] = _rk45(rhs, 1.0 - s_arr, times[positive].tolist(),
                                rtol, atol)
    else:
        raise ModelError(f"unknown method {method!r}")
    return R[order]


def _sv_available(model: ModelSpec) -> bool:
    specs = (model.offspring.sv_spec, model.immigration.sv_spec)
    return all(sp is not None and power_form(sp) is not None for sp in specs)


def _tail_terms(model: ModelSpec):
    """C = C_ell / C_L and the (kappa, exponent) terms of ell and L from their
    power forms, so that Lratio(x) = C (1 + pert_ell) / (1 + pert_L) and
    C - Lratio(x) = C (pert_L - pert_ell) / (1 + pert_L), with
    pert = kappa * x**(-exponent); a term is None where kappa is 0."""
    c_g, kap_g, exp_g = power_form(model.immigration.sv_spec)
    c_L, kap_L, exp_L = power_form(model.offspring.sv_spec)
    return (c_g / c_L, (kap_g, exp_g) if kap_g else None,
            (kap_L, exp_L) if kap_L else None)


def _separable_pert(term, q_scale: float, w0):
    """q -> kappa * x**(-e) at x = q**(-q_scale) / w0 for nodes q > 0, as the
    outer product of the real powers q**(e*q_scale) with the per-call row
    kappa * w0**e (exact for Re w0 > 0, see gf_integral_to_one); 0.0 when
    the term is None."""
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


def gf_segment_integral(model: ModelSpec, s=None, F=None, rtol: float = 1e-10,
                        integrand: str = "auto", one_minus_s=None,
                        one_minus_F=None):
    """integral_s^F g(u)/f(u) du along the geometric path
    1-u = exp((1-x) log(1-s) + x log(1-F)), x in [0, 1].

    The path stays in the half-plane Re(1-u) > 0, where the tail-function
    form of the integrand is analytic; in the x parameter the integrand
    varies like an exponential, so uniform panels resolve it.  Endpoints can
    be supplied as 1-s / 1-F directly (``one_minus_*``), which preserves
    full precision when F is exponentially close to 1.

    The "sv" integrand -D w**gamma Lratio(1/w), w = 1-u, is evaluated from
    logw = log(w0) - x D with no complex power: w**gamma = exp(gamma logw)
    and, in the power forms of the tail specs, (1/w)**(-e) = exp(e logw).
    Both are exact on the principal branch because Re w > 0 along the path
    keeps |Im logw| < pi/2, so Log(exp(logw)) = logw.
    """
    w0_in = one_minus_s if one_minus_s is not None else 1.0 - np.asarray(s, dtype=complex)
    w1_in = one_minus_F if one_minus_F is not None else 1.0 - np.asarray(F, dtype=complex)
    w0, scalar_s = _as_batch(w0_in)
    w1, _ = _as_batch(w1_in)
    w0, w1 = np.broadcast_arrays(w0, w1)
    if np.any(w1 == 0):
        raise ModelError("segment integral endpoint F = 1 is singular")
    if integrand == "auto":
        integrand = "sv" if _sv_available(model) else "series"
    logw0 = np.log(w0)
    D = logw0 - np.log(w1)
    dmax = float(np.max(np.abs(D)))
    if dmax < 1e-13:
        logwmid = 0.5 * (logw0 + np.log(w1))
        if integrand == "sv":
            val = -D * _wgamma_lratio(model.gamma, _tail_terms(model), logwmid)
        else:
            wmid = np.exp(logwmid)
            val = _series_ratio(model, 1.0 - wmid) * wmid * D
        return _unbatch(val, scalar_s), dmax

    if integrand == "sv":
        gamma, terms = model.gamma, _tail_terms(model)

        def fun(x):
            logw = logw0[None, :] - x[:, None] * D[None, :]
            return -D[None, :] * _wgamma_lratio(gamma, terms, logw)
    elif integrand == "series":
        def fun(x):
            w = np.exp(logw0[None, :] - x[:, None] * D[None, :])
            u = 1.0 - w
            return _series_ratio(model, u) * w * D[None, :]
    else:
        raise ModelError(f"unknown integrand mode {integrand!r}")
    n0 = int(max(8, min(256, np.ceil(2.0 * dmax))))
    val, err = doubling_quadrature(fun, 0.0, 1.0, rtol=rtol, n0=n0)
    return _unbatch(val, scalar_s), err


def gf_integral_to_one(model: ModelSpec, s=None, rtol: float = 1e-10,
                       one_minus_s=None):
    """integral_s^1 g(u)/f(u) du, convergent iff gamma > 0.

    Substituting q = ((1-u)/(1-s))**gamma turns it into
    -(1-s)**gamma / gamma * integral_0^1 Lratio(q**(-1/gamma)/(1-s)) dq
    with a smooth bounded integrand.  Supplying ``one_minus_s`` avoids the
    cancellation in 1 - s for arguments exponentially close to 1.

    The tail functions are taken in separable form: at x = q**(-1/gamma)/w0,
    x**(-e) = q**(e/gamma) * w0**e holds exactly on the principal branch,
    since q > 0 and Re w0 > 0 give Log x = -ln(q)/gamma - Log w0 with
    Arg x = -Arg w0 in (-pi/2, pi/2).  Each panel takes real powers of its
    15 nodes times one complex power of w0 per call and per kappa != 0 term.
    """
    if not model.gamma > 0:
        raise PreconditionError("the integral to 1 diverges unless gamma > 0")
    if not _sv_available(model):
        raise ModelError("integral to 1 needs the built-in tail-function specs")
    w0_in = one_minus_s if one_minus_s is not None else 1.0 - np.asarray(s, dtype=complex)
    w0, scalar = _as_batch(w0_in)
    at_one = w0 == 0
    w0_safe = np.where(at_one, 1.0, w0)
    gamma = model.gamma
    C, term_g, term_L = _tail_terms(model)
    pert_g = _separable_pert(term_g, 1.0 / gamma, w0_safe)
    pert_L = _separable_pert(term_L, 1.0 / gamma, w0_safe)

    def fun(q):
        # a scalar when neither law has a kappa term
        val = C * (1.0 + pert_g(q)) / (1.0 + pert_L(q))
        return np.broadcast_to(val, (q.size, w0_safe.size)).astype(complex, copy=False)

    inner, err = doubling_quadrature(fun, 0.0, 1.0, rtol=rtol)
    val = -(w0_safe ** gamma) / gamma * inner
    val = np.where(at_one, 0.0, val)
    return _unbatch(val, scalar), err


def regularized_integral_to_one(model: ModelSpec, s, rtol: float = 1e-10):
    """integral_s^1 [ g(u)/f(u) + |gamma| (1-u)**(-1-|gamma|) ] du for the
    transient case.

    The bracket equals (1-u)**(-1-|gamma|) (|gamma| - Lratio(1/(1-u))); the
    cancellation is evaluated through the stable limit-deficit form of the
    tail functions, never by subtracting two divergent integrals, and the
    substitution q = ((1-u)/(1-s))**mu leaves a bounded integrand.

    As in :func:`gf_integral_to_one` the tail functions are taken in
    separable form: at x = q**(-1/mu)/w0, x**(-e) = q**(e/mu) * w0**e
    exactly on the principal branch (q > 0, Re w0 > 0), so each panel takes
    real powers of its nodes and one complex power of w0 per call and term.
    """
    model.require_transient_limit()
    if not _sv_available(model):
        raise PreconditionError(
            "the regularized integrand needs tail specs with a stable "
            "limit-deficit form (built-in families provide one)")
    s_arr, scalar = _as_batch(s)
    w0 = 1.0 - s_arr
    at_one = w0 == 0
    w0_safe = np.where(at_one, 1.0, w0)
    g_abs = abs(model.gamma)
    mu = model.mu
    C, term_g, term_L = _tail_terms(model)
    pert_g = _separable_pert(term_g, 1.0 / mu, w0_safe)
    pert_L = _separable_pert(term_L, 1.0 / mu, w0_safe)

    def fun(q):
        p_L = pert_L(q)
        deficit = C * (p_L - pert_g(q)) / (1.0 + p_L)
        val = q[:, None] ** (-1.0 - g_abs / mu) * deficit / mu
        return np.broadcast_to(val, (q.size, w0_safe.size)).astype(complex, copy=False)

    inner, err = doubling_quadrature(fun, 0.0, 1.0, rtol=rtol)
    val = w0_safe ** (-g_abs) * inner
    val = np.where(at_one, 0.0, val)
    return _unbatch(val, scalar), err


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


# Flow method behind each compute_P method ("quad" and unknown: the ODE).
_FLOW_METHOD = {"series": "ode-series", "auto": "auto", "closed": "auto"}


def _logP_from_R(model: ModelSpec, s, R, rtol: float = 1e-10,
                method: str = "auto"):
    """log P(t; s) from matching batches of s and R(t; s) = 1 - F(t; s), in
    one closed-form evaluation or one batched quadrature (methods as in
    :func:`compute_P`); returns (logP, error estimate)."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    R_arr = np.atleast_1d(R)
    at_one = np.abs(1.0 - s_arr) == 0
    if method == "auto":
        method = ("closed" if model.has_closed_form and not model.offspring.kappa
                  else "quad")
    if method == "closed":
        if not model.has_closed_form or model.offspring.kappa:
            raise ModelError("closed-form P needs canonical offspring paired "
                             "with a stable immigration law")
        w0 = 1.0 - s_arr
        logp = _closed_logP(model, np.where(at_one, 1.0, w0),
                            np.where(at_one, 1.0, R_arr))
        err = 8.0 * np.finfo(float).eps
    elif method in ("quad", "series"):
        logp, err = gf_segment_integral(
            model, rtol=rtol,
            integrand="series" if method == "series" else "auto",
            one_minus_s=np.where(at_one, 1.0, 1.0 - s_arr),
            one_minus_F=np.where(at_one, 1.0, R_arr))
    else:
        raise ModelError(f"unknown method {method!r}")
    return np.where(at_one, 0.0, np.atleast_1d(logp)), err


def compute_P_grid(model: ModelSpec, s_batch, t_grid, rtol: float = 1e-10,
                   method: str = "auto", f_rtol: float = None, f_atol: float = 1e-300):
    """(log P, R, quadrature error) on a (len(t_grid), len(s_batch)) grid, from
    one :func:`flow_on_grid` march and one :func:`_logP_from_R` call."""
    s_arr = np.atleast_1d(np.asarray(s_batch, dtype=complex))
    R = flow_on_grid(model, s_arr, t_grid, method=_FLOW_METHOD.get(method, "ode"),
                     rtol=f_rtol if f_rtol else rtol, atol=f_atol)
    logp, err = _logP_from_R(model, np.broadcast_to(s_arr, R.shape).ravel(),
                            R.ravel(), rtol=rtol, method=method)
    return logp.reshape(R.shape), R, err


def compute_P(model: ModelSpec, t: float, s, rtol: float = 1e-10,
              method: str = "auto", route: str = "space",
              f_rtol: float = None, f_atol: float = 1e-300) -> GFValue:
    """P(t; s) = P_0(t; s), with its logarithm exposed for scaled limits.

    route "space" integrates g/f between s and F(t; s); route "time"
    integrates g(F(u; s)) over u in [0, t] (cross-check, stable families
    only).  method "closed" uses the stable-family antiderivative, method
    "quad" the quadrature path with the tail-function integrand, method
    "series" forces the truncated-series law end to end (the exact kernel
    of the truncated law, e.g. for simulator cross-checks), and "auto"
    prefers closed when exact.
    """
    s_arr, scalar = _as_batch(s)
    if np.any(np.abs(s_arr) > 1 + 1e-12):
        raise ModelError("compute_P needs |s| <= 1")
    gv = solve_F(model, t, s_arr, rtol=f_rtol if f_rtol else rtol,
                 atol=f_atol, method=_FLOW_METHOD.get(method, "ode"))
    F_arr, R_arr = np.atleast_1d(gv.F), np.atleast_1d(gv.R)
    if route == "time":
        logp, err = _time_route_logP(model, t, s_arr, rtol)
        logp = np.where(np.abs(1.0 - s_arr) == 0, 0.0, logp)
    else:
        logp, err = _logP_from_R(model, s_arr, R_arr, rtol=rtol, method=method)
    P = np.exp(logp)
    return GFValue(t=t, s=s, F=_unbatch(F_arr, scalar), R=_unbatch(R_arr, scalar),
                   P=_unbatch(P, scalar), logP=_unbatch(logp, scalar),
                   error_estimate=float(err) + gv.error_estimate)


def _time_route_logP(model: ModelSpec, t: float, s_arr, rtol):
    """log P via the occupation-time form integral_0^t g(F(u; s)) du."""
    if not model.has_closed_form:
        raise ModelError("the time route needs stable families (closed-form flow)")
    if t == 0:
        return np.zeros_like(s_arr, dtype=complex), 0.0
    law_g = model.immigration

    def fun(u):
        vals = np.empty((u.size, s_arr.size), dtype=complex)
        for row, uu in enumerate(u):
            R = exact_R(model.offspring, float(uu), s_arr)
            vals[row] = law_g.gf_at_one_minus(R, mode="closed")
        return vals

    val, err = adaptive_quadrature(fun, 0.0, t, rtol=rtol, initial_panels=16)
    return val, err


def compute_P_i(model: ModelSpec, i: int, t: float, s, rtol: float = 1e-10,
                method: str = "auto", route: str = "space") -> GFValue:
    """P_i(t; s) = F(t; s)**i * P(t; s)."""
    if i < 0 or int(i) != i:
        raise ModelError("initial state i must be a nonnegative integer")
    gv = compute_P(model, t, s, rtol=rtol, method=method, route=route)
    F_arr, scalar = _as_batch(gv.F)
    logp = np.atleast_1d(np.asarray(gv.logP, dtype=complex)).copy()
    if i:
        zero = F_arr == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = logp + i * np.log(np.where(zero, 1.0, F_arr))
        P = np.where(zero, 0.0, np.exp(logp))
        logp = np.where(zero, -np.inf, logp)
    else:
        P = np.exp(logp)
    return GFValue(t=gv.t, s=gv.s, F=gv.F, R=gv.R,
                   P=_unbatch(P, scalar), logP=_unbatch(logp, scalar),
                   error_estimate=gv.error_estimate)


def _circle_logP(model: ModelSpec, t: float, r: float, M: int, rtol, method):
    s_half = circle_points(r, M, half=True)
    gv = compute_P(model, t, s_half, rtol=rtol, method=method)
    return s_half, np.atleast_1d(gv.F), np.atleast_1d(gv.logP), gv.error_estimate


def transition_probs(model: ModelSpec, i: int, t: float, J_out: int,
                     r: float = 0.9, M: int = 16384, rtol: float = 1e-10,
                     method: str = "auto", clamp: bool = True,
                     alias_tol: float = None) -> CoefficientSeries:
    """Transition row p_ij(t), j = 0..J_out, by circle inversion of P_i.

    When ``alias_tol`` is given, the extraction refuses to return a series
    whose aliasing bound exceeds it (raise M or shrink r to fix).
    """
    if i < 0 or int(i) != i:
        raise ModelError("initial state i must be a nonnegative integer")
    _, F_half, logp_half, err = _circle_logP(model, t, r, M, rtol, method)
    if i:
        logp_half = logp_half + i * np.log(F_half)
    samples = complete_circle(np.exp(logp_half), M)
    series = coefficients_from_samples(samples, r, J_out, clamp=clamp,
                                       meta={"t": t, "i": int(i),
                                             "quad_error": err})
    if alias_tol is not None and series.aliasing_bound > alias_tol:
        raise ModelError(
            f"aliasing bound {series.aliasing_bound:.3g} exceeds the requested "
            f"{alias_tol:g}; raise M or shrink the radius")
    return series


@dataclass
class TransitionRows:
    """Rows p_ij(t) for i = 0..i_max from one shared circle of samples."""

    t: float
    radius: float
    values: np.ndarray            # shape (i_max+1, J_out+1)
    aliasing_bounds: np.ndarray   # per row
    noise_scales: np.ndarray      # per row
    quad_error: float

    def noise_floor(self) -> np.ndarray:
        j = np.arange(self.values.shape[1], dtype=float)
        return self.noise_scales[:, None] * self.radius ** (-j)[None, :]


def transition_rows(model: ModelSpec, i_max: int, t: float, J_out: int,
                    r: float = 0.9, M: int = 4096, rtol: float = 1e-10,
                    method: str = "auto", clamp: bool = False) -> TransitionRows:
    """All rows i = 0..i_max at once; the flow is solved once per circle point
    and reused for every initial state via F**i."""
    if M < 4 * J_out:
        raise ModelError(f"need M >= 4*J_out; got M={M}, J_out={J_out}")
    _, F_half, logp_half, err = _circle_logP(model, t, r, M, rtol, method)
    rows = np.empty((i_max + 1, J_out + 1))
    alias = np.empty(i_max + 1)
    noise = np.empty(i_max + 1)
    log_F = np.log(F_half)
    for i in range(i_max + 1):
        samples = complete_circle(np.exp(logp_half + i * log_F), M)
        series = coefficients_from_samples(samples, r, J_out, clamp=clamp)
        rows[i] = series.values
        alias[i] = series.aliasing_bound
        noise[i] = series.noise_scale
    return TransitionRows(t=t, radius=r, values=rows, aliasing_bounds=alias,
                          noise_scales=noise, quad_error=err)


def gf_table_csv(values) -> str:
    """Comma-separated kernel table: t,s_re,s_im,F_re,F_im,P_re,P_im,err."""
    lines = ["t,s_re,s_im,F_re,F_im,P_re,P_im,err"]
    for gv in values:
        s_arr, _ = _as_batch(gv.s)
        F_arr = np.atleast_1d(np.asarray(gv.F, dtype=complex))
        P_arr = np.atleast_1d(np.asarray(gv.P if gv.P is not None else np.nan,
                                         dtype=complex))
        P_arr = np.broadcast_to(P_arr, s_arr.shape)
        for sv, fv, pv in zip(s_arr, F_arr, P_arr):
            lines.append(
                f"{gv.t:.17g},{sv.real:.17g},{sv.imag:.17g},"
                f"{fv.real:.17g},{fv.imag:.17g},{pv.real:.17g},{pv.imag:.17g},"
                f"{gv.error_estimate:.3g}")
    return "\n".join(lines) + "\n"


def transition_csv(series_by_i: dict) -> str:
    """Comma-separated transition table: t,i,j,p_ij,aliasing_bound."""
    lines = ["t,i,j,p_ij,aliasing_bound"]
    for i, series in sorted(series_by_i.items()):
        t = series.meta.get("t", float("nan"))
        for j, val in enumerate(series.values):
            lines.append(f"{t:.17g},{i},{j},{val:.17g},{series.aliasing_bound:.3g}")
    return "\n".join(lines) + "\n"
