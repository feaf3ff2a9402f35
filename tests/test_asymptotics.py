import dataclasses
import functools

import numpy as np
import pytest

from mbpilab import (ModelError, PreconditionError, asymptotics, check_lemma1,
                     check_lemma2, check_lemma3, check_lemma4, fit_loglog,
                     kernel, rate_fits, stable_model, sv_constant, sv_perturbed)
from mbpilab.asymptotics import transient_predicted_slope
from mbpilab.laws import ModelSpec

GRID = np.logspace(2, 6, 25)


def test_fit_loglog_synthetic():
    t = np.logspace(1, 5, 30)
    fit = fit_loglog(t, 3.0 * t ** -0.7, predicted_slope=-0.7)
    assert fit.fitted_slope == pytest.approx(-0.7, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.verdict


def test_fit_loglog_floor_guard():
    t = np.logspace(1, 5, 30)
    err = np.maximum(3.0 * t ** -0.7, 1e-3)   # floored tail
    # the two-decade window keeps the 12 points from t ~ 1.2e3 to t ~ 5.2e4
    fit = fit_loglog(t, err, predicted_slope=-0.7, floor=1.5e-3)
    assert np.count_nonzero(fit.window) == 12
    assert fit.fitted_slope == pytest.approx(-0.7, abs=1e-6)
    with pytest.raises(ModelError):
        fit_loglog(t, err, predicted_slope=-0.7, floor=1.0)  # nothing left


def test_theorem1_canonical(g025):
    fit = rate_fits(g025, 0.0, GRID, rsq_min=0.999)[0][0]
    assert fit.verdict
    assert abs(fit.fitted_slope + 0.5) <= 0.1
    assert fit.r_squared >= 0.999
    # compensated error -> (d/(c*gamma)) * (c*nu)**(-gamma/nu) = sqrt(2)
    assert fit.extras["compensated"][-1] == pytest.approx(np.sqrt(2.0), rel=0.01)
    # envelope ratio stabilizes at 1 for exactly constant tail functions
    assert abs(fit.envelope_ratio[-1] - 1.0) < 0.01


def test_theorem1_determinism(g025):
    g = np.logspace(2, 4, 7)
    a = rate_fits(g025, 0.0, g)[0][0]
    b = rate_fits(g025, 0.0, g)[0][0]
    assert np.array_equal(a.errors, b.errors)
    assert a.fitted_slope == b.fitted_slope


def test_theorem1_perturbed_offspring_exponent_only(g025_pert_off):
    fit = rate_fits(g025_pert_off, 0.0, np.logspace(2, 5, 19))[0][0]
    assert abs(fit.fitted_slope + 0.5) <= 0.1
    assert fit.r_squared >= 0.99


def _rate_outcome(model, t_grid):
    try:
        return rate_fits(model, 0.0, t_grid)
    except ModelError as exc:
        return str(exc)


@pytest.mark.parametrize("t_max", [1e6, 1e16])
@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off",
                                  "g025_kappa10"])
def test_rate_fits_exact_route_agrees_with_the_march(request, monkeypatch,
                                                     name, t_max):
    # rate_fits takes R from exact_R; the march at rtol 1e-12 must give the
    # same errors to 1e-12 relative and the same verdicts or refusal
    model = (stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25, kappa_offspring=10.0)
             if name == "g025_kappa10" else request.getfixturevalue(name))
    t_grid = np.logspace(2, np.log10(t_max), 25)
    exact = _rate_outcome(model, t_grid)
    monkeypatch.setattr(asymptotics, "flow_on_grid",
                        functools.partial(kernel.flow_on_grid, method="quad"))
    marched = _rate_outcome(model, t_grid)
    if name == "gneg" and t_max == 1e16:
        assert exact == marched == "fewer than 3 usable points in the fit window"
        return
    (fits, ratio), (quad_fits, quad_ratio) = exact, marched
    assert [f.verdict for f in fits] == [f.verdict for f in quad_fits]
    for fit, quad_fit in zip(fits, quad_fits):
        np.testing.assert_allclose(fit.errors, quad_fit.errors, rtol=1e-12, atol=0)
    if ratio is not None:
        np.testing.assert_allclose(ratio, quad_ratio, rtol=1e-12, atol=0)


def test_theorem1_preconditions(g025, monkeypatch):
    # the recurrent s-range is refused before any march
    monkeypatch.setattr(asymptotics, "log_limit", None)
    monkeypatch.setattr(asymptotics, "flow_on_grid", None)
    for s in (0.99, -0.5):
        with pytest.raises(ModelError, match=r"s in \[0, 0\.95\]"):
            rate_fits(g025, s, GRID)


def test_theorem2_canonical_true_rate(gneg):
    """Exactly constant tail functions null the envelope integrand, so the
    scaled error decays at the compensation-term rate delta/nu = 2/3, faster
    than the generic envelope mu/nu = 1/3."""
    fit = rate_fits(gneg, 0.0, GRID, rsq_min=0.999)[0][0]
    assert transient_predicted_slope(gneg) == pytest.approx(-2.0 / 3.0)
    assert fit.verdict
    assert fit.fitted_slope == pytest.approx(-2.0 / 3.0, abs=0.02)
    # measured errors agree with the exact closed form of this family
    x = 0.75 * GRID
    exact = np.abs(np.expm1(x ** (1 / 3.0) - (1 + x) ** (1 / 3.0)))
    assert np.max(np.abs(fit.errors / exact - 1.0)) < 1e-4
    assert fit.extras["envelope_slope"] == pytest.approx(-1.0 / 3.0)


def test_theorem2_scaled_limit(gneg):
    fit = rate_fits(gneg, 0.0, GRID)[0][0]
    assert abs(fit.extras["scaled_limit"][-1] - np.e) <= 1e-3


def test_theorem2_perturbed_attains_envelope(gneg_pert):
    """With a genuine immigration-tail remainder the envelope term is present
    and the fitted slope is the generic rate -mu/nu = -1/3."""
    fit = rate_fits(gneg_pert, 0.0, GRID, rsq_min=0.999)[0][0]
    assert transient_predicted_slope(gneg_pert) == pytest.approx(-1.0 / 3.0)
    assert fit.verdict
    assert fit.fitted_slope == pytest.approx(-1.0 / 3.0, abs=0.02)


def test_zero_kappa_spec_predicts_the_constant_slope(gneg):
    # sv_perturbed(c, 0, theta) is the constant spec: -delta/nu, not -mu/nu
    flat = ModelSpec(
        dataclasses.replace(gneg.offspring, sv_spec=sv_perturbed(1.0, 0.0, 0.75)),
        dataclasses.replace(gneg.immigration, sv_spec=sv_perturbed(0.25, 0.0, 0.5)))
    assert transient_predicted_slope(flat) == transient_predicted_slope(gneg) \
        == pytest.approx(-2.0 / 3.0)


def test_theorem2_preconditions(gneg, monkeypatch):
    # s = 1 (log pi diverges) and |s| > 1 are refused before any march
    monkeypatch.setattr(asymptotics, "log_limit", None)
    monkeypatch.setattr(asymptotics, "flow_on_grid", None)
    for s in (1.0, 1.5, -1.01):
        with pytest.raises(ModelError, match=r"s in \[-1, 1\)"):
            rate_fits(gneg, s, GRID)


def test_corollary1(gneg):
    fit = rate_fits(gneg, 0.0, GRID)[0][1]
    assert fit.extras["B0"] == pytest.approx(1.0, abs=1e-8)
    assert fit.fitted_slope == pytest.approx(-2.0 / 3.0, abs=0.02)
    # value check at t = 1e2
    idx = 0
    assert GRID[idx] == pytest.approx(1e2)
    scaled = fit.extras["scaled_limit"][idx]
    assert np.e * 0.95 < scaled < np.e * 1.05


def test_transient_fits_read_their_columns(gneg):
    # theorem 2 at s = 0 is the corollary's column: the same errors, with
    # the corollary's slope tolerance raised to 0.15
    (thm, cor), _ = rate_fits(gneg, 0.0, GRID, slope_tol=0.05)
    assert (thm.label, cor.label) == ("theorem2", "corollary1")
    assert np.array_equal(thm.errors, cor.errors)
    assert (thm.slope_tol, cor.slope_tol) == (0.05, 0.15)
    assert rate_fits(gneg, 0.0, GRID, slope_tol=0.3)[0][1].slope_tol == 0.3


def test_uniformity_ratio(gneg):
    ratio = rate_fits(gneg, 0.0, np.logspace(2, 6, 7))[1]
    assert np.all(ratio <= 10.0)
    # exact value of the ratio envelope is (1-s)**(-nu) at s = 0.75
    assert ratio[-1] == pytest.approx(0.25 ** -0.75, rel=0.05)


def test_lemma1_canonical(g025):
    rep = check_lemma1(g025, (0.0, 0.3, 0.7), np.logspace(2, 6, 9))
    assert rep.ok()
    assert rep.details["decreasing"]
    # known deviation at t = 1e4, s = 0: |(1 + 1/(c nu t))**(-2) - 1|
    rep2 = check_lemma1(g025, (0.0,), np.logspace(2, 4, 5))
    expected = abs((1.0 + 1.0 / 5000.0) ** -2.0 - 1.0)
    assert rep2.values[0] == pytest.approx(expected, rel=1e-3)


def test_lemma1_M0_is_zero(g025):
    assert g025.context().M(0.0) == 0.0


def test_lemma2_canonical_remainder_vanishes(g025):
    grid = np.logspace(1, 6, 11)
    rep = check_lemma2(g025, 0.3, grid)
    assert np.max(rep.details["remainders"]) <= 1e-9 * (1 + 0.5 * grid[-1])


def test_lemma2_zero_time_trivial(g025):
    rep = check_lemma2(g025, 0.3, np.array([1e-12]))
    assert rep.details["remainders"][0] <= 1e-9


def test_lemma2_perturbed_bounded(g025_pert_off):
    rep = check_lemma2(g025_pert_off, 0.0, np.logspace(1, 6, 21))
    assert rep.ok()
    assert rep.sup <= 1.5
    # the late-grid ratio approaches kappa/c = 1 from below
    assert 0.5 < rep.values[-1] < 1.1


def test_lemma2_refuses_s_outside_unit_interval(g025, monkeypatch):
    monkeypatch.setattr(asymptotics, "flow_on_grid", None)
    for s in (-0.5, 1.0, 1.5):
        with pytest.raises(ModelError, match=r"s in \[0, 1\), got s = "):
            check_lemma2(g025, s, GRID)


def test_lemma3_perturbed_constant():
    spec = sv_perturbed(1.0, 1.0, 0.5)
    rep = check_lemma3(spec, 0.25, np.logspace(1, 6, 11))
    assert rep.ok()
    # |ratio - 1| / t**-0.5 -> sigma-dependent constant 2/3
    assert rep.values[-1] == pytest.approx(2.0 / 3.0, rel=1e-3)


def test_lemma3_requires_remainder():
    with pytest.raises(ModelError):
        check_lemma3(sv_constant(1.0), 0.5, [10.0])
    with pytest.raises(ModelError):
        check_lemma3(sv_perturbed(1.0, 1.0, 0.5), -1.0, [10.0])


def test_lemma4_canonical_exact(g025):
    xs = np.sort(1.0 - np.logspace(-6, -1, 11))
    rep = check_lemma4(g025, xs)
    assert np.max(np.abs(rep.details["ratios"] - 1.0)) <= 1e-12


def test_lemma4_perturbed_bounded(g025_pert_imm, g025_pert_off):
    xs = np.sort(1.0 - np.logspace(-6, -1, 11))
    for model in (g025_pert_imm, g025_pert_off):
        rep = check_lemma4(model, xs)
        assert rep.ok()


def test_lemma4_endpoint_sanity(g025):
    rep = check_lemma4(g025, np.array([0.0]))
    assert np.isfinite(rep.details["ratios"][0])


def test_lemma4_requires_positive_gamma(gneg):
    with pytest.raises(PreconditionError):
        check_lemma4(gneg, np.array([0.5]))


def test_rate_csv_format(run_task):
    code, out = run_task("rates", s="0", t_min="1e2", t_max="1e4", points="7")
    assert code == 0
    lines = (out / "rate_theorem1.csv").read_text().splitlines()
    assert lines[0].startswith("# label = theorem1")
    assert "t,error,predicted_envelope,ratio" in lines
    assert len([l for l in lines if not l.startswith("#")]) == 8
