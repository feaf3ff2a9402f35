"""Independent oracles used by the tests: SciPy integration/quadrature and
mpmath high-precision arithmetic, none of which share code with the package
paths they check."""

import warnings

import mpmath as mp
import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad, solve_ivp


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


def polyval_series(coefficients, z):
    """sum_j c_j z**j by numpy's plain Horner loop (one step per coefficient)."""
    return npoly.polyval(np.asarray(z), coefficients)
