import contextlib
import io
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from mbpilab import asymptotics, kernel, quadrature, telemetry
from mbpilab.cli import run_config
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


def test_complex_panel_sums_are_the_real_ones():
    # a complex integrand's K15 and G7 sums are taken on its float view:
    # its two parts integrate bit for bit as the real integrands do
    rng = np.random.default_rng(7)
    freq, phase = rng.uniform(0.5, 9.0, 5), rng.uniform(0.0, 6.0, 5)
    re = lambda x: np.cos(np.outer(x, freq) + phase)
    im = lambda x: np.sin(np.outer(x, freq) - phase) / (1.0 + x[:, None])
    i15, err, resabs = quadrature._eval_panel(lambda x: re(x) + 1j * im(x), 0.2, 1.7)
    for part, fun in ((i15.real, re), (i15.imag, im)):
        assert np.array_equal(part, quadrature._eval_panel(fun, 0.2, 1.7)[0])
    nodes, _, gauss, wg = kronrod_rule()
    x = 0.95 + 0.75 * nodes
    i7 = 0.75 * (wg @ (re(x) + 1j * im(x))[gauss])
    assert err == pytest.approx(np.abs(i15 - i7), rel=1e-10)
    assert np.all(resabs >= np.abs(i15))


def test_panel_cap_raises():
    nasty = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / np.pi))
    with pytest.raises(NumericsError):
        adaptive_quadrature(nasty, 0.0, 1.0, rtol=1e-13, max_panels=16)
    with pytest.raises(NumericsError):
        doubling_quadrature(nasty, 0.0, 1.0, rtol=1e-13)   # 16383 panels


def test_interval_validation():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 0.0)


def counted(fun):
    """``fun`` with a ``calls`` attribute counting its evaluations."""
    def wrapper(x):
        wrapper.calls += 1
        return fun(x)
    wrapper.calls = 0
    return wrapper


# exp(c x) over [0, 1] for a 1025-wide batch of complex c
RATES = np.linspace(-3.0, 2.0, 1025) + 1j * np.linspace(0.0, 4.0, 1025)
EXP_BATCH = (lambda x: np.exp(np.outer(x, RATES)), 0.0, 1.0,
             np.expm1(RATES) / RATES)
# a peak of width 1e-2 at 0.3, which G7 does not resolve on 8 panels
PEAK = (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0,
        np.array([100.0 * (np.arctan(70.0) + np.arctan(30.0))]))
DAMPED = (lambda x: np.cos(7.0 * x) * np.exp(-x), 0.0, 5.0,
          np.array([(1.0 + np.exp(-5.0) * (7.0 * np.sin(35.0) - np.cos(35.0)))
                    / 50.0]))


def test_doubling_accepts_the_first_level_on_its_own_estimate():
    fun, a, b, exact = EXP_BATCH
    fun = counted(fun)
    val, err = doubling_quadrature(fun, a, b, rtol=1e-10, n0=8)
    assert fun.calls == 8
    assert np.all(np.abs(val - exact) <= 1e-10 * np.abs(exact))
    # the error is the largest entry of the sum over panels of |K15 - G7|,
    # floored at 50 eps times the sum over panels of the K15 sum of |f|
    nodes, wk, gidx, wg = kronrod_rule()
    edges = np.linspace(a, b, 9)
    est = resabs = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        fx = fun(0.5 * (lo + hi) + half * nodes)
        est = est + np.abs(half * (wk @ fx) - half * (wg @ fx[gidx]))
        resabs = resabs + half * (wk @ np.abs(fx))
    floored = np.maximum(est, 50 * np.finfo(float).eps * resabs)
    assert err == pytest.approx(np.max(floored), rel=1e-12, abs=0.0)
    assert 0.0 < err <= 1e-10 * np.max(np.abs(exact))


def test_doubling_refines_an_unresolved_peak():
    fun, a, b, exact = PEAK
    fun = counted(fun)
    val, _ = doubling_quadrature(fun, a, b, rtol=1e-10, n0=8)
    assert fun.calls > 8
    assert abs(val[0] - exact[0]) <= 1e-10 * exact[0]


@pytest.mark.parametrize("case", [EXP_BATCH, PEAK, DAMPED],
                         ids=["exp_batch", "peak", "damped"])
def test_doubling_error_covers_closed_form(case):
    fun, a, b, exact = case
    val, err = doubling_quadrature(fun, a, b, rtol=1e-10)
    eps = np.finfo(float).eps
    assert np.all(np.abs(val - exact) <= np.maximum(err, 8 * eps * np.abs(exact)))


def test_stalled_doubling_raises_numerics_error():
    # sin(2 pi x) integrates to 0 on [0, 1], so every level's roundoff floor
    # 50 eps resabs exceeds rtol |value|: all 14 levels fail
    with pytest.raises(NumericsError, match="8192 panels"):
        doubling_quadrature(lambda x: np.sin(2 * np.pi * x), 0.0, 1.0)


def test_quadrature_reports_once_per_call():
    fun, a, b, _ = EXP_BATCH
    with telemetry.recording() as record:
        _, err = doubling_quadrature(fun, a, b, rtol=1e-10, n0=8)
    assert record.counters == {
        "quad.calls": 1, "quad.panels": 8, "quad.levels": 1,
        "quad.integrand_values": 15 * 8 * 1025, "quad.max_error": err}
    fun, a, b, _ = PEAK
    fun = counted(fun)
    with telemetry.recording() as record:
        _, err = doubling_quadrature(fun, a, b, rtol=1e-10, n0=8)
    # levels of 8, 16, ..., 8 * 2**(levels - 1) panels
    levels = record.counters["quad.levels"]
    assert levels > 1
    assert record.counters["quad.panels"] == fun.calls == 8 * (2 ** levels - 1)
    assert record.counters["quad.max_error"] == err
    fun = counted(PEAK[0])
    with telemetry.recording() as record:
        _, coarse = adaptive_quadrature(fun, a, b, rtol=1e-6, initial_panels=4)
        _, fine = adaptive_quadrature(fun, a, b, rtol=1e-10, initial_panels=4)
    # two calls, four panels each plus two per bisection
    bisections = record.counters["quad.levels"]
    assert record.counters["quad.calls"] == 2
    assert record.counters["quad.panels"] == fun.calls == 8 + 2 * bisections
    assert record.counters["quad.integrand_values"] == 15 * fun.calls
    assert fine != coarse
    assert record.counters["quad.max_error"] == max(fine, coarse)


def _exp_integral(c, a, b):
    """integral_a^b exp(c x) dx to 30 digits."""
    with mp.workdps(30):
        c, a, b = mp.mpc(c), mp.mpf(a), mp.mpf(b)
        exact = (mp.exp(c * b) - mp.exp(c * a)) / c if c else b - a
        return complex(exact)


_RATE = st.builds(complex, st.floats(-6.0, 3.0), st.floats(-12.0, 12.0))


@given(rates=st.lists(_RATE, max_size=4),
       damped=st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 12.0)),
                       max_size=4),
       a=st.floats(-1.0, 1.0), length=st.floats(1e-3, 5.0))
@example(rates=[], damped=[(1.0, 7.0)], a=0.0, length=5.0)
@example(rates=[], damped=[(1.0, 0.0)], a=0.0, length=2.0 ** -9)
def test_doubling_from_one_panel_covers_closed_forms(rates, damped, a, length):
    # a batch of exp(c x) and of damped cosines exp(-lam x) cos(om x) =
    # Re exp((-lam + i om) x) on [a, b], from the default start of one panel.
    # The examples are DAMPED and exp(-x) on [0, 2**-9], where K15 and G7
    # agree exactly: without the roundoff floor the error reported is 0,
    # the actual error 2.2e-19
    assume(rates or damped)
    b = a + length
    lam = np.array([x for x, _ in damped])
    om = np.array([w for _, w in damped])

    def fun(x):
        return np.hstack((np.exp(np.outer(x, rates)),
                          np.cos(np.outer(x, om)) * np.exp(-np.outer(x, lam))))

    exact = np.array([_exp_integral(c, a, b) for c in rates]
                     + [_exp_integral(complex(-x, w), a, b).real
                        for x, w in damped])
    # integral of |f| is at most that of exp(Re(c) x)
    bound = np.array([_exp_integral(c.real, a, b).real for c in rates]
                     + [_exp_integral(-x, a, b).real for x, _ in damped])
    try:
        val, err = doubling_quadrature(fun, a, b)
    except NumericsError:
        # the roundoff floor 50 eps resabs fails every level only for an
        # entry that cancels past resabs / |value| ~ rtol / (50 eps) ~ 9e3
        assert np.max(bound / np.maximum(np.abs(exact), 1e-300)) > 1e3
        return
    assert np.all(np.abs(val - exact) <= err)


# the benchmark's workloads (bench/workloads.py): each (model, task) runs
# through the CLI; compare at fewer replicates, which its quadrature does
# not see, and j_out = 64
WORKLOAD_MODELS = {
    "g025": "nu = 0.5\ndelta = 0.75",
    "gneg": "nu = 0.75\ndelta = 0.5",
    "gneg_pert": "nu = 0.75\ndelta = 0.5\nkappa_immigration = 1.0",
    "g025_pert_off": "nu = 0.5\ndelta = 0.75\nkappa_offspring = 1.0",
}
WORKLOADS = {
    "rates": ([(m, t, "") for m in ("g025", "gneg_pert")
               for t in ("kernel", "rates", "lemmas")], 0),
    "crosscheck": ([("g025", "compare", "replicates = 200\nhorizon = 5.0\n"
                     "j_out = 64\nz_max = 1e9")], 1),
    "invariant": ([(m, "invariant", "") for m in WORKLOAD_MODELS], 3),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_integrals_within_error_of_64_panels(tmp_path, monkeypatch,
                                                      workload):
    # every call records its largest gap to a 64-panel evaluation of the
    # same integrand and the error it reports
    seen = []

    def checked(fun, a, b):
        val, err = doubling_quadrature(fun, a, b)
        ref = quadrature._composite(fun, a, b, 64)[0]
        seen.append((float(np.max(np.abs(val - ref))), err))
        return val, err

    monkeypatch.setattr(kernel, "doubling_quadrature", checked)
    monkeypatch.setattr(asymptotics, "doubling_quadrature", checked)
    tasks, calls = WORKLOADS[workload]
    for k, (model, task, extra) in enumerate(tasks):
        path = tmp_path / f"{k}.ini"
        path.write_text(f"[model]\n{WORKLOAD_MODELS[model]}\ntruncation = 2000\n"
                        f"[task]\nname = {task}\n{extra}\n"
                        f"[output]\ndir = {tmp_path / str(k)}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_config(str(path)) == 0
    assert len(seen) == calls
    for gap, err in seen:
        assert gap <= err
