"""Slow-variation machinery: tail-function specs with remainder, and the
derived scale functions used throughout the lab.

For an offspring tail function L and immigration tail function ell (both
slowly varying at infinity) with indices nu and delta, this module evaluates

    Lambda(y)  = y**nu * L(1/y)
    N(t)       = the fixed point of N = L((nu t)**(1/nu) / N) ** (-1/nu)
    tau(t)     = (nu t)**(1/nu) / N(t)
    T(t)       = tau(t)**|gamma|            (gamma = delta - nu < 0)
    M(s)       = integral_1^{1/(1-s)} dx / (x**(1-nu) L(x))
    K(x)       = L(x)**(-delta/nu) * ell(x)

Every slowly varying function here has the power form
c * (1 + kappa * x**(-exponent)) (:class:`SlowlyVaryingSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericsError
from .quadrature import doubling_quadrature


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """L(x) = c * (1 + kappa * x**(-exponent)) on [1, inf), kappa >= 0.

    Calls accept scalars or arrays, complex ones included (the
    generating-function kernel needs them).  L(x) tends to c with the
    remainder x**(-exponent); a spec with kappa = 0 is exactly constant and
    has none.  Build specs with :func:`sv_constant` and
    :func:`sv_perturbed`, which validate.
    """

    c: float
    kappa: float
    exponent: float

    def __call__(self, x):
        x = np.asarray(x)
        if not self.kappa:
            return self.c * np.ones_like(x)
        return self.c * (1.0 + self.kappa * x ** (-self.exponent))


def sv_constant(c: float) -> SlowlyVaryingSpec:
    """L(x) = c exactly."""
    if not c > 0:
        raise ModelError("constant slowly varying level must be positive")
    return SlowlyVaryingSpec(c, 0.0, 1.0)


def sv_perturbed(c: float, kappa: float, exponent: float) -> SlowlyVaryingSpec:
    """L(x) = c * (1 + kappa * x**(-exponent)), remainder alpha(x) = x**(-exponent)."""
    if not (c > 0 and kappa >= 0 and exponent > 0):
        raise ModelError("perturbed spec needs c > 0, kappa >= 0, exponent > 0")
    return SlowlyVaryingSpec(c, kappa, exponent)


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

    def _x(self, t, name: str) -> float:
        """(nu t)**(1/nu) for ``name``; an overflow raises NumericsError."""
        try:
            return (self.nu * t) ** (1.0 / self.nu)
        except OverflowError:
            raise NumericsError(f"{name}: (nu t)**(1/nu) overflows at t={t:g}, "
                                f"nu={self.nu:g}") from None

    def script_N(self, t):
        """Fixed point N of  N = L((nu t)**(1/nu) / N) ** (-1/nu)  at t > 0,
        to 1e-12 relative within 200 iterations."""
        if not t > 0:
            raise ModelError("script_N needs t > 0")
        x_t = self._x(t, "script_N")
        g = lambda n: float(self.L(x_t / n)) ** (-1.0 / self.nu)
        n = float(self.L(x_t)) ** (-1.0 / self.nu)
        prev_step = np.inf
        for _ in range(200):
            if not 0.0 < n < np.inf:  # L(x_t) ** (-1/nu) under- or overflowed
                raise NumericsError(f"script_N left the floating-point range at "
                                    f"t={t:g} (N = {n:g})")
            n_new = g(n)
            step = abs(n_new - n)
            if step > prev_step:          # oscillation: damp
                n_new = 0.5 * (n + n_new)
                step = abs(n_new - n)
            prev_step = step
            n = n_new
            if step <= 1e-12 * abs(n):
                return n
        raise NumericsError("script_N fixed-point iteration did not converge "
                            f"at t={t:g}; the supplied L may be pathological")

    def tau(self, t):
        """tau(t) = (nu t)**(1/nu) / N(t)."""
        return self._x(t, "tau") / self.script_N(t)

    def big_T(self, t):
        """T(t) = tau(t)**|gamma|; only meaningful in the transient case gamma < 0."""
        if not self.gamma < 0:
            raise ModelError("T(t) requires gamma < 0")
        return self.tau(t) ** abs(self.gamma)

    def M(self, s):
        """Invariant-measure generating function of the no-immigration process:
        M(s) = integral_1^{1/(1-s)} dx / (x**(1-nu) L(x)), with M(0) = 0.
        """
        s = float(s)
        if not 0.0 <= s < 1.0:
            raise ModelError("M(s) needs real s in [0, 1)")
        if s == 0.0:
            return 0.0
        if not self.L.kappa:
            return ((1.0 - s) ** (-self.nu) - 1.0) / (self.L.c * self.nu)
        v1 = -np.log1p(-s)

        def integrand(v):
            x = np.exp(v)
            return x ** self.nu / self.L(x)

        val, _ = doubling_quadrature(integrand, 0.0, v1)
        return float(np.real(val[0]))

    def K(self, x):
        """K(x) = L(x)**(-delta/nu) * ell(x)."""
        return self.L(x) ** (-self.delta / self.nu) * self.ell(x)
