"""Empirical verification of the limit statements: error sequences on
log-spaced time grids, log-log slope fits against predicted exponents, and
the four auxiliary-lemma checkers.

Conventions: m is the invariant measure, U for gamma > 0 and pi for
gamma < 0, and T(t) its time compensation (T = 0 for gamma > 0).  By the
invariance identity P(t; s) m(F(t; s)) = m(s), every rate error is

    |exp(T(t)) P(t;s)/m(s) - 1| = |expm1(T(t) - log m(F(t;s)))|,

one limit evaluation at the flow's F, never a quotient of nearly equal
numbers; :func:`rate_fits` reads the regime from gamma.

* theorem 1 (gamma > 0): predicted envelope Delta(t;s) * K(tau(t)) with
  Delta ~ (1/gamma) lambda(t;s)^(-gamma/nu), time exponent -gamma/nu.
* theorem 2 (gamma < 0, mu > 0, C = |gamma|): envelope ell(tau)/tau^mu,
  exponent -mu/nu.  When both tail functions are exactly constant the
  envelope integrand vanishes identically and the error is dominated by the
  T-compensation term instead, which decays at the faster exponent
  -delta/nu; the fit therefore predicts -delta/nu for exactly-constant
  specs and -mu/nu otherwise.
* corollary (gamma < 0): the same error at s = 0, as exp(T(t)) p_00(t)
  against pi(0), taken with theorem 2 at s and the uniformity ratio over s
  from one flow grid.

Everything that can overflow (exp(T) with T -> infinity) is handled by
summing exponents in log space before a single expm1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelError, PreconditionError
from .kernel import flow_on_grid, log_limit
from .laws import ModelSpec
from .quadrature import doubling_quadrature
from .rvcalc import SlowlyVaryingSpec

# Errors at or below this floor are left out of the rate fits: the flow and
# quadrature tolerances contaminate them.
_FIT_FLOOR = 1e-8


@dataclass
class RateFit:
    """Least-squares fit of log(error) against log(t) on the tail window."""

    t_grid: np.ndarray
    errors: np.ndarray
    fitted_slope: float
    r_squared: float
    predicted_slope: float
    slope_tol: float
    rsq_min: float
    window: np.ndarray                      # boolean mask of fitted points
    envelope: Optional[np.ndarray] = None   # predicted envelope values
    envelope_ratio: Optional[np.ndarray] = None
    extras: dict = field(default_factory=dict)
    label: str = ""

    @property
    def margin(self) -> float:
        return abs(self.fitted_slope - self.predicted_slope)

    @property
    def verdict(self) -> bool:
        return self.margin <= self.slope_tol and self.r_squared >= self.rsq_min


def fit_loglog(t, err, predicted_slope, slope_tol=0.1, rsq_min=0.99,
               floor=0.0, label="") -> RateFit:
    """Fit ln(err) = a*ln(t) + b over the top two decades of the grid,
    excluding points at or below the numeric ``floor`` (tolerance
    contamination guard)."""
    t = np.asarray(t, dtype=float)
    err = np.asarray(err, dtype=float)
    window = (t >= t.max() / 100.0) & (err > floor)
    if np.count_nonzero(window) < 3:
        raise ModelError("fewer than 3 usable points in the fit window")
    x = np.log(t[window])
    y = np.log(err[window])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(t_grid=t, errors=err, fitted_slope=float(slope),
                   r_squared=r2, predicted_slope=predicted_slope,
                   slope_tol=slope_tol, rsq_min=rsq_min, window=window,
                   label=label)


def transient_predicted_slope(model: ModelSpec) -> float:
    """-mu/nu when a tail function carries a genuine remainder (kappa != 0);
    -delta/nu for exactly constant tail functions (the envelope integrand
    vanishes identically and the compensation term dominates)."""
    if not model.offspring.sv_spec.kappa and not model.immigration.sv_spec.kappa:
        return -model.delta / model.nu
    return -model.mu / model.nu


# The s values over which the uniformity ratio of theorem 2 is taken.
UNIFORM_S = (0.0, 0.25, 0.5, 0.75)


def rate_fits(model: ModelSpec, s: float, t_grid, slope_tol: float = 0.1,
              rsq_min: float = 0.99):
    """(fits, uniformity ratio) of the regime gamma reads, from one flow grid:
    ([theorem-1 fit at s], None) for gamma > 0, s in [0, 0.95], batch (s,);
    ([theorem-2 fit at s, corollary-1 fit], ratio) for gamma < 0, s in
    [-1, 1) (log pi diverges at s = 1), batch UNIFORM_S + (s,).

    The errors take log m(F) from one :func:`log_limit` call on the whole
    grid, with R from :func:`flow_on_grid`'s "auto" route: exact_R for the
    built-in stable laws, else the march at rtol 1e-12.  For gamma < 0, T(t)
    cancels against log pi(F) ~ R**(-|gamma|), which amplifies any error in
    R.  The corollary reads p_00 = P(t; 0), column 0, at the tolerance
    max(slope_tol, 0.15); the uniformity ratio is max over s in UNIFORM_S
    of rho(t; s)/rho(t; 0) along the grid.
    """
    recurrent = model.gamma > 0
    if recurrent and not 0.0 <= s <= 0.95:
        raise ModelError("theorem-1 rate check expects s in [0, 0.95]")
    if not recurrent:
        model.require_transient_limit()
        if not -1.0 <= s < 1.0:
            raise ModelError("theorem-2 rate check expects s in [-1, 1)")
    t_grid = np.asarray(t_grid, dtype=float)
    ctx = model.context()
    batch = (s,) if recurrent else UNIFORM_S + ((s,) if s not in UNIFORM_S else ())
    R = flow_on_grid(model, batch, t_grid, rtol=1e-12)
    log_mF = np.real(log_limit(model, R.ravel())[0]).reshape(R.shape)
    tau = np.array([ctx.tau(float(t)) for t in t_grid])
    # T = tau**|gamma| on Python floats (a numpy power can differ in the
    # last bit), with tau from above, so script_N runs once per t
    T = 0.0 if recurrent else np.array([x ** abs(ctx.gamma) for x in tau.tolist()])[:, None]
    log_rel = T - log_mF
    errors = np.abs(np.expm1(log_rel))
    if recurrent:
        slope = -model.gamma / model.nu
        envelope = (1.0 / model.gamma) / ctx.lam_shift(t_grid, s) ** -slope * ctx.K(tau)
        columns = ((0, "theorem1", slope_tol),)
        extras = [{"compensated": errors[:, 0] * t_grid ** -slope}]
    else:
        slope = transient_predicted_slope(model)
        envelope = ctx.ell(tau) / tau ** model.mu
        columns = ((batch.index(s), "theorem2", slope_tol),
                   (0, "corollary1", max(slope_tol, 0.15)))
        log_ms = np.real(log_limit(model, 1.0 - np.array(batch))[0])
        extras = [{"scaled_limit": np.exp(log_rel[:, col] + log_ms[col]),
                   "envelope_slope": -model.mu / model.nu} for col, _, _ in columns]
        extras[1]["B0"] = float(np.exp(log_ms[0] - 1.0))
    fits = []
    for (col, label, tol), extra in zip(columns, extras):
        fit = fit_loglog(t_grid, errors[:, col], slope, slope_tol=tol,
                         rsq_min=rsq_min, floor=_FIT_FLOOR, label=label)
        fit.envelope, fit.envelope_ratio = envelope, errors[:, col] / envelope
        fit.extras = extra
        fits.append(fit)
    ratio = None if recurrent else np.max(
        errors[:, 1:len(UNIFORM_S)] / errors[:, :1], axis=1, initial=1.0)
    return fits, ratio


@dataclass
class LemmaReport:
    """Grid diagnostics for one auxiliary asymptotic statement."""

    name: str
    grid: np.ndarray              # the points the statistic is indexed by
    values: np.ndarray            # the normalized statistic per grid point
    bound: float                  # declared admissible bound
    details: dict = field(default_factory=dict)

    @property
    def sup(self) -> float:
        return float(np.max(self.values))

    def ok(self) -> bool:
        return self.sup <= self.bound


def check_lemma1(model: ModelSpec, s_grid, t_grid) -> LemmaReport:
    """Deviation of 1/R(t;s) from ((nu t)^{1/nu}/N(t)) (1 + M(s)/t)^{1/nu}.

    The representation is asymptotic: the relative deviation must decay
    toward 0 along the time grid for every s, reaching 1e-3 at the last
    point.  The statistic is that last deviation per s, over the s grid.
    """
    ctx = model.context()
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    R = np.real(flow_on_grid(model, s_grid, t_grid)).T
    Ms = np.array([ctx.M(float(s)) for s in s_grid])
    N = np.array([ctx.script_N(float(t)) for t in t_grid])
    rhs = ((ctx.nu * t_grid) ** (1.0 / ctx.nu) / N
           * (1.0 + Ms[:, None] / t_grid) ** (1.0 / ctx.nu))
    dev = np.abs(R * rhs - 1.0)
    decreasing = bool(np.all(np.diff(dev, axis=1) <= 1e-12 + dev[:, :-1] * 1e-6))
    return LemmaReport(name="lemma1", grid=s_grid, values=dev[:, -1], bound=1e-3,
                       details={"deviation": dev, "decreasing": decreasing})


def check_lemma2(model: ModelSpec, s: float, t_grid) -> LemmaReport:
    """Remainder of 1/Lambda(R(t;s)) - 1/Lambda(1-s) = nu*t + O(log nu(t;s)).

    Reports remainder(t)/log(nu(t;s)), which must stay at most 2.
    """
    if not 0.0 <= s < 1.0:
        raise ModelError(f"lemma-2 check expects s in [0, 1), got s = {s:g}")
    ctx = model.context()
    t_grid = np.asarray(t_grid, dtype=float)
    lam0 = 1.0 / float(ctx.Lambda(1.0 - s))
    R = np.real(flow_on_grid(model, [s], t_grid)[:, 0])
    remainders = np.abs(1.0 / ctx.Lambda(R) - lam0 - ctx.nu * t_grid)
    lognu = np.log(ctx.nu_shift(t_grid, s))
    stats = np.where(lognu > 0, remainders / np.where(lognu > 0, lognu, 1.0), 0.0)
    return LemmaReport(name="lemma2", grid=t_grid, values=stats, bound=2.0,
                       details={"remainders": remainders, "s": s})


def check_lemma3(spec: SlowlyVaryingSpec, sigma: float, t_grid) -> LemmaReport:
    """Tail-integral asymptotic for a slowly varying L with remainder
    rho(t) = t**(-exponent):

        integral_t^inf y^{-(1+sigma)} L(y) dy
            = (1/sigma) t^{-sigma} L(t) (1 + O(rho(t))).

    The substitution q = (t/y)^sigma maps the integral exactly onto
    (1/sigma) t^{-sigma} integral_0^1 L(t q^{-1/sigma}) dq, so the reported
    statistic is |mean_q L(t q^{-1/sigma}) / L(t) - 1| / rho(t), with the
    means over the grid taken in one batched quadrature.  Its bound is 2.
    """
    if not sigma > 0:
        raise ModelError("lemma-3 check needs sigma > 0")
    if not spec.kappa:
        raise ModelError("lemma 3 needs a tail function with remainder (kappa > 0)")
    t_grid = np.asarray(t_grid, dtype=float)

    def fun(q):
        return np.asarray(spec(np.multiply.outer(q ** (-1.0 / sigma), t_grid)),
                          dtype=float)

    means, _ = doubling_quadrature(fun, 0.0, 1.0)
    ratios = means / np.asarray(spec(t_grid), dtype=float)
    stats = np.abs(ratios - 1.0) / t_grid ** (-spec.exponent)
    return LemmaReport(name="lemma3", grid=t_grid, values=stats, bound=2.0,
                       details={"ratios": ratios, "sigma": sigma})


def check_lemma4(model: ModelSpec, x_grid) -> LemmaReport:
    """Near-1 behavior of the tail integral in the recurrent regime:

        integral_x^1 g/f du = (1/gamma) g(x)/Lambda(1-x) (1 + O(Lambda(1-x))).

    Reports |ratio - 1| / Lambda(1-x) over the x grid, bounded by 2, with
    the integrals taken in one batched quadrature.
    """
    if not model.gamma > 0:
        raise PreconditionError("lemma-4 check needs gamma > 0")
    ctx = model.context()
    x_grid = np.asarray(x_grid, dtype=float)
    lhs, _ = log_limit(model, 1.0 - x_grid)
    w = 1.0 - x_grid
    g_val = -w ** model.delta * ctx.ell(1.0 / w)
    lam = ctx.Lambda(w)
    ratios = np.real(lhs) / (g_val / (model.gamma * lam))
    stats = np.abs(ratios - 1.0) / lam
    return LemmaReport(name="lemma4", grid=x_grid, values=stats, bound=2.0,
                       details={"ratios": ratios})

