import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from mbpilab.errors import NumericsError
from mbpilab.quadrature import (adaptive_quadrature, doubling_quadrature,
                                kronrod_rule)


def test_kronrod_rule_polynomial_exactness():
    nodes, weights, gidx, gweights = kronrod_rule()
    # K15 integrates polynomials up to degree 22 exactly on [-1, 1]
    for deg in range(0, 23):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert weights @ nodes ** deg == pytest.approx(exact, abs=2e-14)
    # G7 up to degree 13
    for deg in range(0, 14):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert gweights @ nodes[gidx] ** deg == pytest.approx(exact, abs=2e-14)


def test_kronrod_moments_within_four_ulp():
    # the full-precision constants: each moment of K15 (x**k, k <= 22) and of
    # G7 (k <= 13) lies within 4 ulp of sum_i w_i |x_i|**k; 15-digit
    # constants left sum(w) short of 2 by 27 ulp
    nodes, weights, gidx, gweights = kronrod_rule()
    for x, w, top in ((nodes, weights, 22), (nodes[gidx], gweights, 13)):
        for deg in range(top + 1):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            moment = math.fsum(w * x ** deg)
            ulp = np.spacing(math.fsum(w * np.abs(x) ** deg))
            assert abs(moment - exact) <= 4 * ulp, (len(x), deg)


def test_gauss_rule_is_legendre():
    nodes, _, gidx, gweights = kronrod_rule()
    ref_x, ref_w = np.polynomial.legendre.leggauss(7)
    # leggauss refines its roots by Newton steps in double precision and
    # lands within 1 ulp of the nodes (4 ulp of the weights)
    assert np.all(np.abs(nodes[gidx] - ref_x) <= np.spacing(np.abs(ref_x)))
    assert np.all(np.abs(gweights - ref_w) <= 4 * np.spacing(ref_w))
    # the constants themselves are the correctly rounded roots of P_7 and
    # their Gauss weights 2 / ((1 - x**2) P_7'(x)**2)
    with mp.workdps(40):
        p7 = lambda t: mp.legendre(7, t)
        for x, w in zip(nodes[gidx], gweights):
            root = mp.findroot(p7, mp.mpf(x))
            assert float(root) == x
            assert float(2 / ((1 - root ** 2) * mp.diff(p7, root) ** 2)) == w


@pytest.mark.parametrize("fun,a,b", [
    (lambda x: np.exp(-3.0 * x) * np.sin(x), 0.0, 10.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x ** 2), -1.0, 1.0),
])
def test_adaptive_matches_scipy(fun, a, b):
    val, err = adaptive_quadrature(fun, a, b, rtol=1e-11)
    expected, _ = quad(fun, a, b, epsrel=1e-12, epsabs=1e-14, limit=500)
    assert val[0] == pytest.approx(expected, rel=1e-9)
    assert err <= 1e-8 * abs(expected) + 1e-12


def test_adaptive_endpoint_singularity_analytic():
    # integral of x**-0.5 over [a, 1] is 2(1 - sqrt(a)); scipy's default
    # QUADPACK call misses the 1e-12 endpoint layer, this engine must not
    a = 1e-12
    val, _ = adaptive_quadrature(lambda x: x ** -0.5, a, 1.0, rtol=1e-11)
    assert val[0] == pytest.approx(2.0 * (1.0 - np.sqrt(a)), rel=1e-9)


def test_adaptive_batch_matches_scalar():
    scales = np.array([1.0, 2.0, 5.0])

    def batched(x):
        return np.exp(-np.outer(x, scales))

    val, _ = adaptive_quadrature(batched, 0.0, 4.0, rtol=1e-11)
    for k, lam in enumerate(scales):
        expected = (1.0 - np.exp(-4.0 * lam)) / lam
        assert val[k] == pytest.approx(expected, rel=1e-10)


def test_doubling_matches_adaptive():
    fun = lambda x: np.cos(7.0 * x) * np.exp(-x)
    v1, _ = adaptive_quadrature(fun, 0.0, 5.0, rtol=1e-11)
    v2, _ = doubling_quadrature(fun, 0.0, 5.0, rtol=1e-11)
    assert v2[0] == pytest.approx(v1[0], rel=1e-10)


def test_complex_integrand():
    fun = lambda x: np.exp(1j * x)
    val, _ = adaptive_quadrature(fun, 0.0, np.pi, rtol=1e-12)
    assert val[0] == pytest.approx(2j, abs=1e-12)


def test_panel_cap_raises():
    nasty = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / np.pi))
    with pytest.raises(NumericsError):
        adaptive_quadrature(nasty, 0.0, 1.0, rtol=1e-13, max_panels=16)
    with pytest.raises(NumericsError):
        doubling_quadrature(nasty, 0.0, 1.0, rtol=1e-13, max_doublings=2)


def test_interval_validation():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 0.0)
