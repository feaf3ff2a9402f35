"""Slow-variation machinery: specs with remainder, and the derived scale
functions used throughout the lab.

For an offspring tail function L and immigration tail function ell (both
slowly varying at infinity) with indices nu and delta, this module evaluates

    Lambda(y)  = y**nu * L(1/y)
    N(t)       = the fixed point of N = L((nu t)**(1/nu) / N) ** (-1/nu)
    tau(t)     = (nu t)**(1/nu) / N(t)
    T(t)       = tau(t)**|gamma|            (gamma = delta - nu < 0)
    M(s)       = integral_1^{1/(1-s)} dx / (x**(1-nu) L(x))
    Lratio(x)  = ell(x) / L(x)
    K(x)       = L(x)**(-delta/nu) * ell(x)

together with an empirical checker for the "slowly varying with remainder"
property  L(lam*x)/L(x) = 1 + O(alpha(x)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, NumericsError
from .quadrature import adaptive_quadrature


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """A slowly varying function on [1, inf) with optional remainder data.

    ``evaluate`` must accept scalars or arrays; the built-in families also
    accept complex arguments (needed by the generating-function kernel).
    ``limit`` is the constant C with L(x) -> C when it exists, and
    ``remainder`` is the declared rate alpha(x) of that convergence.
    """

    kind: str
    evaluate: Callable
    limit: Optional[float] = None
    remainder: Optional[Callable] = None
    params: tuple = ()
    label: str = ""

    def __call__(self, x):
        return self.evaluate(x)


def sv_constant(c: float) -> SlowlyVaryingSpec:
    """L(x) = c exactly."""
    if not c > 0:
        raise ModelError("constant slowly varying level must be positive")

    def _eval(x):
        return c * np.ones_like(np.asarray(x))

    return SlowlyVaryingSpec(kind="constant", evaluate=_eval, limit=c,
                             remainder=None, params=(c,),
                             label=f"constant({c:g})")


def sv_perturbed(c: float, kappa: float, exponent: float) -> SlowlyVaryingSpec:
    """L(x) = c * (1 + kappa * x**(-exponent)), remainder alpha(x) = x**(-exponent)."""
    if not (c > 0 and kappa >= 0 and exponent > 0):
        raise ModelError("perturbed spec needs c > 0, kappa >= 0, exponent > 0")

    def _eval(x):
        x = np.asarray(x)
        return c * (1.0 + kappa * x ** (-exponent))

    def _alpha(x):
        return np.asarray(x) ** (-exponent)

    return SlowlyVaryingSpec(kind="perturbed", evaluate=_eval, limit=c,
                             remainder=_alpha, params=(c, kappa, exponent),
                             label=f"perturbed({c:g},{kappa:g},{exponent:g})")


def sv_log() -> SlowlyVaryingSpec:
    """L(x) = 1 + ln(x): slowly varying but with no finite limit.

    Exists so that remainder checks have something that must fail.
    """

    def _eval(x):
        return 1.0 + np.log(np.asarray(x))

    return SlowlyVaryingSpec(kind="log", evaluate=_eval, limit=None,
                             remainder=None, params=(), label="log")


def sv_by_name(text: str) -> SlowlyVaryingSpec:
    """Build a spec from its config-file name: ``constant(c)``,
    ``perturbed(c,kappa,exponent)`` or ``log``."""
    name = text.strip()
    if name == "log":
        return sv_log()
    if "(" not in name or not name.endswith(")"):
        raise ModelError(f"unparseable slowly varying spec {text!r}")
    head, _, argtext = name.partition("(")
    try:
        args = [float(tok) for tok in argtext[:-1].split(",") if tok.strip()]
    except ValueError:
        raise ModelError(f"bad numeric arguments in {text!r}") from None
    if head.strip() == "constant" and len(args) == 1:
        return sv_constant(*args)
    if head.strip() == "perturbed" and len(args) == 3:
        return sv_perturbed(*args)
    raise ModelError(f"unknown slowly varying spec {text!r} "
                     "(expected constant(c), perturbed(c,kappa,exponent), log)")


def power_form(spec: SlowlyVaryingSpec):
    """(c, kappa, exponent) with spec(x) = c * (1 + kappa * x**(-exponent)) for
    the built-in constant and perturbed families, None for any other spec.

    Callers that know x**(-exponent) in a cheaper form than a complex power
    (see the tail-function integrands in :mod:`mbpilab.kernel`) evaluate the
    spec from these three numbers instead of through ``spec.evaluate``.
    """
    if spec.kind == "constant":
        return spec.params[0], 0.0, 1.0
    if spec.kind == "perturbed":
        return tuple(spec.params)
    return None


def ratio_deficit(L: SlowlyVaryingSpec, ell: SlowlyVaryingSpec):
    """Stable evaluator of  C - ell(x)/L(x)  with C = ell.limit / L.limit.

    Returns None unless both specs have a power form; the subtraction must
    then not be trusted near the limit (catastrophic cancellation), so
    callers refuse to proceed.
    """
    form_L, form_g = power_form(L), power_form(ell)
    if form_L is None or form_g is None:
        return None
    (c_L, kap_L, exp_L), (c_g, kap_g, exp_g) = form_L, form_g
    C = c_g / c_L

    def _deficit(x):
        x = np.asarray(x)
        pert_L = kap_L * x ** (-exp_L)
        pert_g = kap_g * x ** (-exp_g)
        return C * (pert_L - pert_g) / (1.0 + pert_L)

    return _deficit


@dataclass(frozen=True)
class RVContext:
    """Derived evaluators for one (L, ell, nu, delta) configuration."""

    nu: float
    delta: float
    L: SlowlyVaryingSpec
    ell: SlowlyVaryingSpec

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0 and 0.0 < self.delta < 1.0):
            raise ModelError("tail indices must lie in (0, 1)")

    @property
    def gamma(self) -> float:
        return self.delta - self.nu

    @property
    def mu(self) -> float:
        return 2.0 * self.delta - self.nu

    @property
    def C_ratio(self) -> Optional[float]:
        if self.L.limit is None or self.ell.limit is None:
            return None
        return self.ell.limit / self.L.limit

    def Lambda(self, y):
        """Lambda(y) = y**nu * L(1/y) for y in (0, 1]."""
        arr = np.asarray(y)
        if np.any(np.real(arr) <= 0) or np.any(np.abs(arr) > 1 + 1e-12):
            raise ModelError("Lambda argument must lie in (0, 1]")
        return arr ** self.nu * self.L(1.0 / arr)

    def lam_shift(self, t, s):
        """lambda(t; s) = nu * t + 1 / Lambda(1 - s), for s < 1."""
        if np.any(np.asarray(s) >= 1):
            raise ModelError("lambda(t;s) needs s < 1")
        return self.nu * np.asarray(t) + 1.0 / self.Lambda(1.0 - np.asarray(s))

    def nu_shift(self, t, s):
        """nu(t; s) = Lambda(1 - s) * nu * t + 1."""
        if np.any(np.asarray(s) >= 1):
            raise ModelError("nu(t;s) needs s < 1")
        return self.Lambda(1.0 - np.asarray(s)) * self.nu * np.asarray(t) + 1.0

    def script_N(self, t, rtol=1e-12, max_iter=200):
        """Fixed point N of  N = L((nu t)**(1/nu) / N) ** (-1/nu)  at t > 0."""
        if not t > 0:
            raise ModelError("script_N needs t > 0")
        x_t = (self.nu * t) ** (1.0 / self.nu)
        g = lambda n: float(self.L(x_t / n)) ** (-1.0 / self.nu)
        n = float(self.L(x_t)) ** (-1.0 / self.nu)
        prev_step = np.inf
        for _ in range(max_iter):
            n_new = g(n)
            step = abs(n_new - n)
            if step > prev_step:          # oscillation: damp
                n_new = 0.5 * (n + n_new)
                step = abs(n_new - n)
            prev_step = step
            n = n_new
            if step <= rtol * abs(n):
                return n
        raise NumericsError("script_N fixed-point iteration did not converge "
                            f"at t={t:g}; the supplied L may be pathological")

    def tau(self, t, **kw):
        """tau(t) = (nu t)**(1/nu) / N(t)."""
        return (self.nu * t) ** (1.0 / self.nu) / self.script_N(t, **kw)

    def big_T(self, t, **kw):
        """T(t) = tau(t)**|gamma|; only meaningful in the transient case gamma < 0."""
        if not self.gamma < 0:
            raise ModelError("T(t) requires gamma < 0")
        return self.tau(t, **kw) ** abs(self.gamma)

    def M(self, s, rtol=1e-10):
        """Invariant-measure generating function of the no-immigration process:
        M(s) = integral_1^{1/(1-s)} dx / (x**(1-nu) L(x)), with M(0) = 0.
        """
        s = float(s)
        if not 0.0 <= s < 1.0:
            raise ModelError("M(s) needs real s in [0, 1)")
        if s == 0.0:
            return 0.0
        if self.L.kind == "constant":
            c = self.L.limit
            return ((1.0 - s) ** (-self.nu) - 1.0) / (c * self.nu)
        v1 = -np.log1p(-s)

        def integrand(v):
            x = np.exp(v)
            return x ** self.nu / self.L(x)

        val, _ = adaptive_quadrature(integrand, 0.0, v1, rtol=rtol)
        return float(np.real(val[0]))

    def L_ratio(self, x):
        """Lratio(x) = ell(x) / L(x)."""
        return self.ell(x) / self.L(x)

    def K(self, x):
        """K(x) = L(x)**(-delta/nu) * ell(x)."""
        return self.L(x) ** (-self.delta / self.nu) * self.ell(x)

    def ratio_deficit_fun(self):
        """Stable  C_ratio - Lratio(x)  evaluator, or None (see ratio_deficit)."""
        return ratio_deficit(self.L, self.ell)

    def dLam(self, y, rel_step=1e-6):
        """Diagnostic  y * Lambda'(y) / Lambda(y) - nu  via central differences.

        Named dLam to avoid clashing with the immigration index delta.
        """
        y = np.asarray(y, dtype=float)
        h = y * rel_step
        lam_p = self.Lambda(np.minimum(y + h, 1.0))
        lam_m = self.Lambda(y - h)
        dy = np.minimum(y + h, 1.0) - (y - h)
        return y * (lam_p - lam_m) / dy / self.Lambda(y) - self.nu


@dataclass
class SVRemainderReport:
    """Empirical verdict on L(lam x)/L(x) = 1 + O(alpha(x)) and L(x) = C + O(alpha(x))."""

    xs: np.ndarray
    ratio_stat: np.ndarray        # sup_lam |L(lam x)/L(x) - 1| / alpha(x)
    limit_stat: Optional[np.ndarray]   # |L(x) - C| / alpha(x), None without a limit
    bound: float
    passed: bool = field(init=False)

    def __post_init__(self):
        top = self.xs >= self.xs.max() / 10.0
        ok = bool(np.all(self.ratio_stat[top] <= self.bound))
        if self.limit_stat is None:
            ok = False
        else:
            ok = ok and bool(np.all(self.limit_stat[top] <= self.bound))
        self.passed = ok


def check_sv_remainder(spec: SlowlyVaryingSpec, lambdas, xs,
                       alpha=None, bound=10.0) -> SVRemainderReport:
    """Measure the remainder statistics of ``spec`` over grids of scale
    factors and evaluation points.  ``alpha`` overrides the spec's declared
    remainder (used to demonstrate that a wrong declaration fails)."""
    lambdas = np.asarray(lambdas, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if lambdas.size == 0 or xs.size == 0 or np.any(np.diff(xs) <= 0):
        raise ModelError("check_sv_remainder needs nonempty grids, xs increasing")
    alpha_fun = alpha or spec.remainder or (lambda x: np.ones_like(np.asarray(x)))
    ax = alpha_fun(xs)
    base = np.asarray(spec(xs), dtype=float)
    sup = np.zeros_like(xs)
    for lam in lambdas:
        ratio = np.abs(np.asarray(spec(lam * xs), dtype=float) / base - 1.0)
        sup = np.maximum(sup, ratio / ax)
    lim = None
    if spec.limit is not None:
        lim = np.abs(base - spec.limit) / ax
    return SVRemainderReport(xs=xs, ratio_stat=sup, limit_stat=lim, bound=bound)
