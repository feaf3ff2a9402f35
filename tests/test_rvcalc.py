import numpy as np
import pytest
from scipy.integrate import quad

from mbpilab import ModelError, sv_constant, sv_perturbed
from mbpilab.rvcalc import RVContext

from oracles import ratio_deficit


def ctx_const(nu=0.5, c=1.0, delta=0.75, d=0.25):
    return RVContext(nu=nu, delta=delta, L=sv_constant(c), ell=sv_constant(d))


def test_spec_is_its_power_form():
    xs = np.array([1.0, 4.0, 1e6])
    const, pert = sv_constant(2.0), sv_perturbed(2.0, 0.5, 0.5)
    assert np.array_equal(const(xs), np.full(3, 2.0))
    assert np.array_equal(pert(xs), 2.0 * (1.0 + 0.5 * xs ** -0.5))
    assert pert(4.0 + 0j) == pytest.approx(2.5, abs=1e-15)
    assert const.c == pert.c == 2.0
    assert not const.kappa and (pert.kappa, pert.exponent) == (0.5, 0.5)
    # kappa = 0 is exactly constant whatever the exponent, with no remainder
    flat = sv_perturbed(2.0, 0.0, 0.5)
    assert not flat.kappa and np.array_equal(flat(xs), const(xs))
    ctx = RVContext(nu=0.5, delta=0.75, L=flat, ell=sv_constant(0.25))
    assert ctx.M(0.75) == ctx_const(c=2.0).M(0.75) == pytest.approx(1.0, rel=1e-15)


def test_specs_validate():
    for bad in (lambda: sv_constant(0.0), lambda: sv_perturbed(0.0, 1.0, 0.5),
                lambda: sv_perturbed(1.0, -0.1, 0.5),
                lambda: sv_perturbed(1.0, 1.0, 0.0)):
        with pytest.raises(ModelError):
            bad()


def test_lambda_values():
    ctx = ctx_const()
    assert ctx.Lambda(0.25) == pytest.approx(0.5, abs=1e-15)
    pert = RVContext(nu=0.5, delta=0.75, L=sv_perturbed(1.0, 1.0, 0.5),
                     ell=sv_constant(0.25))
    # L(1/0.25) = 1 + 4**-0.5 = 1.5
    assert pert.Lambda(0.25) == pytest.approx(0.75, abs=1e-15)


def test_lambda_at_one_equals_a0(g025, g025_pert_off):
    for model in (g025, g025_pert_off):
        ctx = model.context()
        assert float(ctx.Lambda(1.0)) == pytest.approx(
            model.offspring.coefficients[0], abs=1e-12)


def test_lambda_domain():
    ctx = ctx_const()
    with pytest.raises(ModelError):
        ctx.Lambda(0.0)
    with pytest.raises(ModelError):
        ctx.Lambda(1.5)


def test_lambda_strictly_increasing_near_zero():
    for model_ctx in (ctx_const(),
                      RVContext(nu=0.5, delta=0.75,
                                L=sv_perturbed(1.0, 1.0, 0.5),
                                ell=sv_constant(0.25))):
        ys = np.logspace(-8, 0, 200)
        vals = model_ctx.Lambda(ys)
        assert np.all(np.diff(vals) > 0)


def test_lambda_matches_paired_law(g025, g025_pert_off):
    ys = np.logspace(-6, 0, 50)
    for model in (g025, g025_pert_off):
        ctx = model.context()
        f_closed = model.offspring.gf_at_one_minus(ys)
        assert np.allclose(ctx.Lambda(ys) * ys, f_closed, rtol=1e-12)
        f_series = model.offspring.truncated().gf_at_one_minus(ys)
        assert np.max(np.abs(ctx.Lambda(ys) * ys - f_series)) \
            <= model.offspring.series_tail_bound


def test_lambda_shift():
    ctx = ctx_const()
    assert ctx.lam_shift(2.0, 0.0) == pytest.approx(2.0, abs=1e-14)
    assert ctx.lam_shift(0.0, 0.3) == pytest.approx(
        1.0 / float(ctx.Lambda(0.7)), abs=1e-14)
    c2 = RVContext(nu=0.5, delta=0.75, L=sv_constant(2.0), ell=sv_constant(0.25))
    for t in (0.5, 2.0):
        assert c2.nu_shift(t, 0.0) == pytest.approx(2.0 * 0.5 * t + 1.0, abs=1e-13)
    with pytest.raises(ModelError):
        ctx.lam_shift(1.0, 1.0)


def test_script_N_constant_specs():
    ctx = ctx_const()
    for t in (0.1, 1.0, 100.0):
        assert ctx.script_N(t) == pytest.approx(1.0, abs=1e-14)
    c2 = RVContext(nu=0.5, delta=0.75, L=sv_constant(2.0), ell=sv_constant(0.25))
    assert c2.script_N(3.0) == pytest.approx(0.25, abs=1e-14)


def test_script_N_perturbed_fixed_point_residual():
    ctx = RVContext(nu=0.5, delta=0.75, L=sv_perturbed(1.0, 1.0, 0.5),
                    ell=sv_constant(0.25))
    for t in (1.0, 100.0, 1e4):
        n = ctx.script_N(t)
        x = (0.5 * t) ** 2 / n
        assert abs(n ** 0.5 * float(ctx.L(x)) - 1.0) <= 1e-10


def test_tau_and_T():
    ctx = RVContext(nu=0.75, delta=0.5, L=sv_constant(1.0), ell=sv_constant(0.25))
    assert ctx.tau(4.0) == pytest.approx(3.0 ** (4.0 / 3.0), rel=1e-13)
    assert ctx.big_T(4.0) == pytest.approx(3.0 ** (1.0 / 3.0), rel=1e-13)
    half = ctx_const()
    assert half.tau(2.0) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ModelError):
        half.big_T(2.0)  # gamma > 0 here


def test_M_closed_forms():
    ctx = ctx_const()
    assert ctx.M(0.0) == 0.0
    assert ctx.M(0.75) == pytest.approx(2.0, rel=1e-12)
    c2 = RVContext(nu=0.5, delta=0.75, L=sv_constant(2.0), ell=sv_constant(0.25))
    assert c2.M(0.75) == pytest.approx(1.0, rel=1e-12)


def test_M_perturbed_against_scipy():
    ctx = RVContext(nu=0.5, delta=0.75, L=sv_perturbed(1.0, 1.0, 0.5),
                    ell=sv_constant(0.25))
    for s in (0.3, 0.9, 0.999):
        expected, _ = quad(lambda x: 1.0 / (x ** 0.5 * (1.0 + x ** -0.5)),
                           1.0, 1.0 / (1.0 - s), epsrel=1e-12)
        assert ctx.M(s) == pytest.approx(expected, rel=1e-9)


def test_L_ratio_limit_bound(gneg_pert):
    # |Lratio(t) - C| <= K * ell(t)/t**delta on the top decade (delta < nu)
    ctx = gneg_pert.context()
    ts = np.logspace(4, 6, 25)
    dev = np.abs(ctx.ell(ts) / ctx.L(ts) - gneg_pert.C_ratio)
    envelope = ctx.ell(ts) / ts ** ctx.delta
    assert np.all(dev <= 2.0 * envelope)


def test_K_asymptotically_constant(g025_pert_off, g025_pert_imm):
    for model in (g025_pert_off, g025_pert_imm):
        ctx = model.context()
        target = ctx.L.c ** (-ctx.delta / ctx.nu) * ctx.ell.c
        xs = np.logspace(2, 10, 9)
        dev = np.abs(ctx.K(xs) - target)
        assert np.all(np.diff(dev) < 0)
        assert dev[-1] < 1e-4


def test_ratio_deficit_matches_direct_subtraction_when_safe():
    L = sv_perturbed(1.0, 1.0, 0.5)
    ell = sv_perturbed(0.25, 0.3, 0.75)
    deficit = ratio_deficit(L, ell)
    xs = np.logspace(0, 6, 20)
    direct = 0.25 - ell(xs) / L(xs)
    assert np.allclose(deficit(xs), direct, rtol=1e-10, atol=1e-18)
