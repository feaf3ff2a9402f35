"""Transition-kernel computations for the branching process with immigration.

For an offspring generating function f, the single-ancestor generating
function F(t; s) solves the backward flow dF/dt = f(F), F(0) = s.  With
R = 1 - F and w = R**(-nu), the flow is dw/dt = nu L(1/R), L the offspring
tail function of f(1-R) = R**(1+nu) L(1/R), and the immigration generating
functions are

    P_i(t; s) = F(t; s)**i * P(t; s),
    P(t; s)   = exp( integral_s^{F(t;s)} g(u)/f(u) du ),

and the tail-function form of the integrand is
g(u)/f(u) = -(1-u)**(gamma-1) * Lratio(1/(1-u)), gamma = delta - nu, with
Lratio(x) = ell(x)/L(x) the ratio of the immigration and offspring tail
functions.  Its one potential h gives log P = h(s) - h(F) and the limits'
log U and log pi: closed power terms, plus one integral where the
offspring tail function has a remainder.

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
#   "closed"  the stable-family closed forms: exact_R for the flow, and for
#             log P on canonical models h(s) - h(F), h its closed terms;
#   "quad"    numerics on the laws as they evaluate: the flow ODE, and log P
#             by the potential h(s) - h(F) or the series path integral;
#   "auto"    "closed" where the layer has an exact closed form, else "quad".
# The truncated laws' exact kernel is that of ``model.truncated()``.
METHODS = ("auto", "closed", "quad")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ModelError(f"unknown method {method!r}; expected one of {METHODS}")


# Dormand-Prince 5(4) embedded pair: the stage matrix (row i weighs the
# derivatives of stages 0..i-1), the 5th-order weights and the error weights
# (5th order less 4th).
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_DP_ROWS = [_DP_A[i, :i] for i in range(7)]
_DP_B5 = _DP_A[6]
_DP_E = _DP_B5 - np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640,
                           -92097 / 339200, 187 / 2100, 1 / 40])


def _rk45(rhs, y0, t_out, rtol):
    """Adaptive Dormand-Prince integration of dy/dt = rhs(y) for a 1-D
    complex batch y0 from 0 through the sorted positive times t_out, landing
    exactly on each (dense output's lower order would cost the transient
    checks their relative accuracy); error control is purely relative, so no
    component of y0 may be 0; returns the states there, shape
    (len(t_out), len(y0)).  The flow's right-hand side is nu L(1/R) in
    w = R**(-nu) (see :func:`flow_on_grid`).

    The seven stage derivatives of a step are the rows of one (7, n) array
    K: each stage input is y + h (A[i, :i] @ K[:i]), and the 5th-order step
    and its error estimate are one product each with the weights.  The
    products take K's float view, real and imaginary parts side by side, so
    they stay real matrix-vector products: a complex one casts the tableau,
    and with OpenBLAS on a 2-CPU machine a 1025-wide one ran on two threads
    for no gain in wall time.  At the width of one lane a step costs numpy
    dispatch, not arithmetic, so the rows A[i, :i] are sliced once, at
    import, and the error norm takes ``ndarray.max``; the floating-point
    operations and their order are those of the plain scheme.

    Each call reports once to ``telemetry``: ``flow.calls``, ``flow.steps``
    (accepted), ``flow.rejected``, ``flow.landings`` (the times of t_out
    reached), ``flow.rhs_evals`` and ``flow.rhs_points`` (evaluations times
    batch width)."""
    y = np.array(y0, dtype=complex, copy=True)
    out = np.empty((len(t_out),) + y.shape, dtype=complex)
    K = np.empty((7,) + y.shape, dtype=complex)
    K_re = K.view(float)
    done = 0
    t = 0.0
    K[0] = rhs(y)
    evals, steps, rejected = 1, 0, 0
    d0 = float(np.abs(y).max())
    d1 = float(np.abs(K[0]).max())
    h = min(t_out[-1], 0.01 * d0 / d1) if d1 > 0 else t_out[-1]
    try:
        for _ in range(200_000):     # the step budget
            t_end = t_out[done]
            h_free = h               # resumed after landing on an inner time
            h = min(h, t_end - t)
            for i in range(1, 7):
                K[i] = rhs(y + h * (_DP_ROWS[i] @ K_re[:i]).view(complex))
                evals += 1
            y5 = y + h * (_DP_B5 @ K_re).view(complex)
            err = float((np.abs(h * (_DP_E @ K_re).view(complex))
                         / (rtol * np.maximum(np.abs(y), np.abs(y5)))).max())
            if err <= 1.0:
                steps += 1
                t += h
                y = y5
                K[0] = K[6]          # first-same-as-last
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
        telemetry.add("flow.landings", done)
        telemetry.add("flow.rhs_evals", evals)
        telemetry.add("flow.rhs_points", evals * y.size)


def exact_R(law: BranchingLaw, t, s) -> np.ndarray:
    """Closed-form R(t; s) for the stable families, from the law's tail spec
    c (1 + kappa x**(-theta)).  t is a time or an array of times, taken as a
    column against the batch s: one time gives R of s's shape (a batch of
    one for a scalar), m times give m rows.

    Plain stable: R = ((1-s)**(-nu) + c*nu*t)**(-1/nu).  Perturbed stable
    (theta = nu, else ModelError): with w = R**(-nu), the flow conserves
    w - kappa*log(w + kappa) - c*nu*t, solved for w by Newton from the
    plain-stable start wherever that start is finite; R is :func:`_R_of_w`.
    Each lane stops on its own, after the step from a residual h at
    roundoff, |h| <= 4 eps (|w| + |kappa log(w + kappa)| + |target|), or
    after a step below 1e-14 relative, and does not move again: a lane's R
    does not depend on the batch it is solved in, and a lane whose residual
    cannot fall below its roundoff (kappa = 10 reaches that) still stops.
    """
    if not law.closed_form:
        raise ModelError("exact_R needs a stable-family law")
    nu, sv = law.nu, law.sv_spec
    if sv.kappa and sv.exponent != nu:
        raise ModelError("exact_R needs the remainder exponent theta = nu; "
                         f"the tail spec has theta = {sv.exponent:g}, nu = {nu:g}")
    w0 = 1.0 - np.atleast_1d(np.asarray(s, dtype=complex))
    at_one = w0 == 0
    w0 = np.where(at_one, 1.0, w0) ** (-nu)
    c, kappa = sv.c, sv.kappa
    with np.errstate(over="ignore"):    # inf where c*nu*t overflows: R = 0 there
        drift = c * nu * np.asarray(t, dtype=float)[..., None]
    w = w0 + drift
    if kappa:
        live = np.isfinite(w)
        v, target = w[live], (w0 - kappa * np.log(w0 + kappa) + drift)[live]
        todo = np.arange(v.size)        # the lanes still moving
        for _ in range(100):
            x, y = v[todo], target[todo]
            log_term = kappa * np.log(x + kappa)
            h = x - log_term - y
            at_roundoff = np.abs(h) <= 4.0 * np.finfo(float).eps * (
                np.abs(x) + np.abs(log_term) + np.abs(y))
            # ufunc calls, not operators: an operator may reuse a temporary
            # of 256 KiB or more as its output, and numpy's complex product
            # into its second operand rounds otherwise than into a new array
            step = np.divide(np.multiply(h, x + kappa), x)
            v[todo] = x = x - step
            todo = todo[~(at_roundoff | (np.abs(step) / np.abs(x) < 1e-14))]
            if not todo.size:
                break
        else:
            raise NumericsError("implicit closed form for the perturbed flow stalled")
        w[live] = v
    return np.where(at_one, 0.0, _R_of_w(w, nu))


def _R_of_w(w, nu: float) -> np.ndarray:
    """R = w**(-1/nu), the complex power wherever that is finite; where R
    underflows, exp(-log|w|/nu) exp(-i arg w/nu), 0 at |w| = inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        R = w ** (-1.0 / nu)
    lost = ~np.isfinite(R)
    if np.any(lost):
        log_w = np.log(w[lost])
        R[lost] = np.exp(-log_w.real / nu) * np.exp(-1j * log_w.imag / nu)
    return R


def solve_F(model, t: float, s, rtol: float = 1e-10,
            method: str = "auto") -> np.ndarray:
    """R(t; s) for the batch s, |s| <= 1, t >= 0: the single-time row of
    :func:`flow_on_grid` (``method`` one of :data:`METHODS`)."""
    return flow_on_grid(model, s, [t], method=method, rtol=rtol)[0]


def _flow_route(law: BranchingLaw, method: str) -> str:
    """The flow route ``method`` names, "auto" resolved: "closed" when the
    offspring law has a closed form, else "quad"."""
    _check_method(method)
    if method == "auto":
        return "closed" if law.closed_form else "quad"
    return method


def _flow_error(model, t: float, method: str, rtol: float) -> float:
    """The error :func:`compute_P_grid` reports for the flow to t: none at
    t = 0, roundoff on the closed-form route, else the tolerance."""
    if t == 0:
        return 0.0
    closed = _flow_route(model.offspring, method) == "closed"
    return 4.0 * np.finfo(float).eps if closed else rtol


def _flow_rhs(law: BranchingLaw, nu: float):
    """dw/dt as a function of w = R**(-nu).  A law with a closed form gives
    nu L(1/R) from its tail spec, nu c (1 + kappa w**(-theta/nu)), the
    constant nu c when kappa = 0: it forms no R and no w/R = R**(-1-nu), so
    it holds where that would overflow (R below about 2e-294 at nu = 0.05,
    reached by t = 1e16).  A bare law gives nu (w/R) f(1-R) from its
    series."""
    sv = law.sv_spec
    if law.closed_form:
        if not sv.kappa:
            rate = nu * sv.c

            def constant(w):
                out = np.empty_like(w)
                out.fill(rate)
                return out
            return constant
        power = -sv.exponent / nu
        return lambda w: nu * sv.c * (1.0 + sv.kappa * w ** power)

    def rhs(w):
        R = w ** (-1.0 / nu)
        return nu * (w / R) * law.gf_at_one_minus(R)
    return rhs


def flow_on_grid(model, s_batch, t_grid, method: str = "auto",
                 rtol: float = 1e-10) -> np.ndarray:
    """R(t; s), shape (len(t_grid), len(s_batch)), rows in the caller's order,
    by the route ``method`` of :data:`METHODS`: "closed" is one
    :func:`exact_R` call for the positive distinct times as a column
    against the batch, "quad" integrates the flow ODE.  The flow is
    autonomous, F(t2; s) = F(t2 - t1; F(t1; s)), so that route marches once
    along the sorted distinct times for the whole batch.

    The ODE route integrates w = R**(-nu) (nu = law.nu, or 1 for a law that
    declares none), in which the flow dF/dt = f(F) reads
    dw/dt = nu (w/R) f(1-R) = nu L(1/R), L the offspring tail function of
    f(1-R) = R**(1+nu) L(1/R) (see :func:`_flow_rhs`): linear in t up to
    the slow variation (Lemma 2's 1/Lambda(R) = nu t + O(log)), and exactly
    linear, dw/dt = c nu, for the unperturbed stable family, whereas R itself
    decays like t**(-1/nu).  The step count is then set by the grid landings
    rather than by accuracy: a 25-point march to t = 1e6 at rtol 1e-12 takes
    about 200 right-hand-side evaluations, not 14,000, and lands within a few
    ulps of the closed form.  Re R > 0 for |s| <= 1, s != 1, so the principal
    powers keep arg w = -nu arg R and invert exactly.  The error is held
    relative to w at nu * rtol, which is rtol relative to R.  Lanes with
    s = 1 stay at R = 0 and never enter the integrator.
    """
    law = model.offspring if isinstance(model, ModelSpec) else model
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
        if positive.any():
            R[positive] = exact_R(law, times[positive], s_arr)
    else:
        nu = law.nu if law.nu is not None else 1.0
        moving = s_arr != 1.0
        if positive.any() and moving.any():
            w = _rk45(_flow_rhs(law, nu), (1.0 - s_arr[moving]) ** -nu,
                      times[positive].tolist(), nu * rtol)
            R[np.ix_(positive, moving)] = _R_of_w(w, nu)
    return R[order]


def _separable_pert(sv, q_scale: float, w0):
    """q -> kappa * x**(-theta) of the spec ``sv`` at x = q**(-q_scale) / w0
    for nodes q > 0, as the outer product of the real powers
    q**(theta*q_scale) with the per-call row kappa * w0**theta, exact for
    Re w0 > 0; 0.0 when kappa = 0."""
    if not sv.kappa:
        return lambda q: 0.0
    row = sv.kappa * w0 ** sv.exponent
    return lambda q: np.multiply.outer(q ** (sv.exponent * q_scale), row)


def _smoothing(powers) -> int:
    """The k of q = v**k, q**p dq = k v**(k p + k - 1) dv, that leaves the
    endpoint powers q**p smooth at v = 0: the least k <= 12 making every
    k p an integer (1 where each is one already), else 12, which lifts
    every fractional power past 11."""
    ks = range(1, 13)
    return next((k for k in ks if all(abs(k * p - round(k * p)) <= 1e-9 * max(1.0, k * p)
                                      for p in powers)), ks[-1])


def _potential(model: ModelSpec, one_minus_s):
    """The potential h(w), w = 1 - s, and its error estimate: a primitive in
    s of -g/f, so log P(t; s) = h(s) - h(F(t; s)), for a model whose laws
    both carry tail specs pert = kappa x**(-theta).  With y = 1 - u,
    -g/f = C y**(gamma-1) (1 + pert_ell)/(1 + pert_L), and the split
    (1 + pert_ell)/(1 + pert_L) = 1 + pert_ell - pert_L (...)/(1 + pert_L)
    gives h in every regime as

      h = sum of beta w**e/e over :attr:`ModelSpec.potential_terms`
          + C kappa_L w**a/a * int_0^1 (1 + pert_ell)/(1 + pert_L) dq,

    a = gamma + theta_L (delta for the stable law), q = (y/w)**a, the
    integral present only when kappa_L != 0.  Every term but the first
    vanishes at w = 0, so h is log U for gamma > 0 and log pi for gamma < 0
    when C = |gamma|.  A later term with e <= 0 (mu <= 0) is taken as
    beta expm1(e log w)/e (beta log w at e = 0), its primitive vanishing at
    w = 1.

    The integrand is taken in v, q = v**k, k = :func:`_smoothing` of its
    powers of q at 0 (1 where they are integers).  pert at y = w q**(1/a)
    is kappa q**(theta/a) w**theta, exact on the principal branch (q > 0,
    Re w > 0): one complex power of w per kappa != 0 term.  The closed
    terms are taken in the argument's dtype; 1 - s given directly keeps
    full precision for s near 1.  The error is the integral's times the
    largest |C kappa_L w**a/a|, plus 8 eps of the largest |h|."""
    w = np.atleast_1d(np.asarray(one_minus_s))
    (beta, e), *later = model.potential_terms
    h = beta * (w ** e / e)
    for beta, e in later:
        h = h + beta * (w ** e / e if e > 0 else
                        np.log(w) if e == 0 else np.expm1(e * np.log(w)) / e)
    err = 0.0
    L, ell = model.offspring.sv_spec, model.immigration.sv_spec
    if L.kappa:
        a = model.gamma + L.exponent
        w0 = np.where(w == 0, 1.0, w.astype(complex))
        pert_g, pert_L = (_separable_pert(sv, 1.0 / a, w0) for sv in (ell, L))

        k = _smoothing([sv.exponent / a for sv in (ell, L) if sv.kappa])

        def fun(v):     # in place in pert_L's array: (nodes, batch) temporaries cost
            q = v ** k
            out = pert_L(q)
            out += 1.0
            np.divide(1.0 + pert_g(q), out, out=out)
            if k > 1:
                out *= (k * v ** (k - 1))[:, None]
            return out

        inner, err = doubling_quadrature(fun, 0.0, 1.0)
        prefactor = model.C_ratio * L.kappa * w ** a / a
        h = h + prefactor * inner
        err *= float(np.max(np.abs(prefactor)))
    return h, err + 8.0 * np.finfo(float).eps * float(np.max(np.abs(h)))


def log_limit(model: ModelSpec, one_minus_s):
    """The log of the limit generating function at s = 1 - ``one_minus_s``,
    |s| <= 1, and its error estimate: the potential h of
    :func:`_potential`, log U for gamma > 0 and log pi for gamma < 0, where
    it raises the error of :meth:`ModelSpec.require_transient_limit`."""
    if model.gamma < 0:
        model.require_transient_limit()
    if model.C_ratio is None:
        raise ModelError("the limit needs the built-in tail-function specs")
    if np.any(np.abs(1.0 - np.asarray(one_minus_s)) > 1 + 1e-12):
        raise ModelError("the limit needs |s| <= 1")
    return _potential(model, one_minus_s)


def gf_segment_integral(model: ModelSpec, one_minus_s, one_minus_F):
    """integral_s^F g(u)/f(u) du of the laws' ratio g/f along the geometric
    path 1-u = exp((1-x) log(1-s) + x log(1-F)), x in [0, 1]: the log P of
    laws without tail specs, such as the truncated laws of
    :meth:`ModelSpec.truncated`.

    The path stays in the half-plane Re(1-u) > 0; in the x parameter the
    integrand varies like an exponential, so uniform panels resolve it.
    The endpoints are given as 1-s and 1-F, which keeps full precision when
    F is exponentially close to 1.
    """
    w0, w1 = np.broadcast_arrays(
        np.atleast_1d(np.asarray(one_minus_s, dtype=complex)),
        np.atleast_1d(np.asarray(one_minus_F, dtype=complex)))
    if np.any(w1 == 0):
        raise ModelError("segment integral endpoint F = 1 is singular")
    logw0 = np.log(w0)
    D = logw0 - np.log(w1)

    def fun(x):
        w = np.exp(logw0[None, :] - x[:, None] * D[None, :])
        u = 1.0 - w
        return model.immigration.gf(u) / model.offspring.gf(u) * w * D[None, :]

    dmax = float(np.max(np.abs(D)))
    if dmax < 1e-13:     # one midpoint evaluation is exact to roundoff
        return fun(np.array([0.5]))[0], dmax
    return doubling_quadrature(fun, 0.0, 1.0)


def compute_P_grid(model: ModelSpec, s_batch, t_grid, rtol: float = 1e-10,
                   method: str = "auto"):
    """(log P, R, error estimate) on a (len(t_grid), len(s_batch)) grid, from
    one :func:`flow_on_grid` march at the relative tolerance ``rtol`` and one
    log P by the route ``method`` of :data:`METHODS`: h(1 - s) - h(R) of
    :func:`_potential` where both laws carry tail specs ("closed", for
    canonical models only, where h is its closed terms, and "quad"), else
    :func:`gf_segment_integral`.  The error estimate is the two potentials'
    plus the flow's to the last time."""
    _check_method(method)
    if method == "closed" and not model.canonical:
        raise ModelError("closed-form P needs canonical offspring paired "
                         "with a stable immigration law")
    s_arr = np.atleast_1d(np.asarray(s_batch, dtype=complex))
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    R = flow_on_grid(model, s_arr, t_arr, method=method, rtol=rtol)
    at_one = s_arr == 1.0
    w0, w1 = np.where(at_one, 1.0, 1.0 - s_arr), np.where(at_one, 1.0, R)
    if model.C_ratio is not None:    # both tail specs
        (h_s, err_s), (h_F, err_F) = _potential(model, w0), _potential(model, w1.ravel())
        logp, err = h_s - h_F.reshape(R.shape), err_s + err_F
    else:
        logp, err = gf_segment_integral(model, np.broadcast_to(w0, R.shape).ravel(),
                                        w1.ravel())
        logp = logp.reshape(R.shape)
    logp = np.where(w0 == w1, 0.0, logp)      # F = s: at t = 0 and at s = 1
    flow_err = _flow_error(model, float(t_arr.max()), method, rtol)
    return logp, R, float(err) + flow_err


def _log_P_i(logP, F, i):
    """log P_i(t; s) = log P(t; s) + i log F(t; s), broadcast over i; -inf
    where F = 0 < i, where P_i vanishes."""
    zero = F == 0
    log_F = np.log(np.where(zero, 1.0, F))
    return np.where(i > 0, np.where(zero, -np.inf, logP + i * log_F), logP)[()]


def transition_grid(model: ModelSpec, i_values, t_grid, J_out: int,
                    r: float = 0.9, M: int = 4096, method: str = "auto",
                    clamp: bool = False) -> CoefficientSeries:
    """Rows p_ij(t), j = 0..J_out, for every t in ``t_grid`` and every
    initial state i in ``i_values``, as one series whose values have shape
    (len(t_grid), len(i_values), J_out + 1) and whose bounds have shape
    (len(t_grid), len(i_values)).

    P(t; s) and F(t; s) on the half circle |s| = r come from one
    :func:`compute_P_grid` march (``method`` one of :data:`METHODS`); every
    row is the circle inversion of P_i = F**i P, taken in log space, and all
    rows are inverted in one batched call.
    """
    i_arr = np.atleast_1d(np.asarray(i_values))
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(i_arr < 0) or np.any(i_arr != np.floor(i_arr)):
        raise ModelError("initial state i must be a nonnegative integer")
    s_half = circle_points(r, M, half=True)
    logp, R, _ = compute_P_grid(model, s_half, t_arr, method=method)
    F = np.where((t_arr == 0)[:, None], s_half, 1.0 - R)
    i_col = i_arr.astype(int)[:, None]
    half = np.exp(_log_P_i(logp[:, None], F[:, None], i_col))
    return coefficients_from_samples(complete_circle(half, M), r, J_out, clamp=clamp)
