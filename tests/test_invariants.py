import dataclasses

import numpy as np
import pytest

from mbpilab import (ModelError, PreconditionError, check_invariance,
                     compute_B, compute_P, compute_U, compute_pi,
                     extract_measure, ratio_limits, series_coefficients,
                     solve_F, stable_model)
from mbpilab import rvcalc
from mbpilab.invariants import limit_ratios, log_pi, measure_csv
from mbpilab.inversion import circle_points, suggest_radius
from mbpilab.kernel import (exact_R, gf_integral_to_one, gf_segment_integral,
                            regularized_integral_to_one)
from mbpilab.laws import ModelSpec

from oracles import (direct_integral_to_one, direct_regularized_integral,
                     direct_segment_integral, mp_exp_series_coeffs,
                     scipy_gf_integral)

# The half circle behind extract_measure's default M = 2**14.
HALF_CIRCLE = circle_points(0.9, 16384, half=True)


@pytest.fixture(scope="module")
def g025_pert_both():
    """Recurrent pairing with a kappa on both tail functions."""
    return stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25,
                        kappa_offspring=0.5, kappa_immigration=0.2)


def _integral_pair(model):
    if model.gamma > 0:
        return (gf_integral_to_one(model, HALF_CIRCLE),
                direct_integral_to_one(model, HALF_CIRCLE))
    return (regularized_integral_to_one(model, HALF_CIRCLE),
            direct_regularized_integral(model, HALF_CIRCLE))


def test_U_values(g025):
    assert np.real(compute_U(g025, 1.0)) == pytest.approx(1.0, abs=1e-14)
    assert np.real(compute_U(g025, 0.0)) == pytest.approx(np.exp(-1.0), rel=1e-11)
    assert np.real(compute_U(g025, 0.5)) == pytest.approx(
        np.exp(-0.5 ** 0.25), rel=1e-11)


def test_U_matches_scipy(g025, g025_pert_imm):
    for model in (g025, g025_pert_imm):
        for s in (0.0, 0.4, 0.9):
            expected = np.exp(scipy_gf_integral(model, s, 1.0 - 1e-13))
            assert np.real(compute_U(model, s)) == pytest.approx(expected, rel=1e-7)


def test_U_requires_positive_gamma(gneg):
    with pytest.raises(PreconditionError):
        compute_U(gneg, 0.5)


def test_B_is_one_for_canonical(gneg):
    for s in (0.0, 0.3, 0.8, 0.999):
        assert np.real(compute_B(gneg, s)) == pytest.approx(1.0, abs=1e-14)


def test_B_perturbed_closed_form(gneg_pert):
    # B(s) = exp(-(|gamma| kappa / mu) (1-s)**mu) for the perturbed pairing
    g_abs, mu, kap = abs(gneg_pert.gamma), gneg_pert.mu, 1.0
    for s in (0.0, 0.4, 0.9):
        expected = np.exp(-(g_abs * kap / mu) * (1.0 - s) ** mu)
        assert np.real(compute_B(gneg_pert, s)) == pytest.approx(expected, rel=1e-10)


def test_B_preconditions(g025, gneg):
    with pytest.raises(PreconditionError):
        compute_B(g025, 0.0)
    bad = stable_model(nu=0.75, c=1.0, delta=0.5, d=0.3)
    with pytest.raises(PreconditionError):
        compute_B(bad, 0.0)


def test_pi_values(gneg):
    assert np.real(compute_pi(gneg, 0.0)) == pytest.approx(np.e, rel=1e-13)
    assert np.real(compute_pi(gneg, 0.5)) == pytest.approx(
        np.exp(2.0 ** 0.25), rel=1e-13)


def test_recurrence_matches_mpmath(g025, gneg, gneg_pert):
    u = series_coefficients(g025, "distribution", 10)
    expected = mp_exp_series_coeffs(lambda s: -(1 - s) ** 0.25, 10)
    assert np.allclose(u, expected, rtol=1e-12, atol=1e-14)
    p = series_coefficients(gneg, "measure", 10)
    expected = mp_exp_series_coeffs(lambda s: (1 - s) ** -0.25, 10)
    assert np.allclose(p, expected, rtol=1e-12, atol=1e-14)
    pp = series_coefficients(gneg_pert, "measure", 10)
    expected = mp_exp_series_coeffs(
        lambda s: (1 - s) ** -0.25 - 1.0 * (1 - s) ** 0.25, 10)
    assert np.allclose(pp, expected, rtol=1e-12, atol=1e-14)


def test_recurrence_needs_canonical_offspring(g025_pert_off):
    with pytest.raises(ModelError):
        series_coefficients(g025_pert_off, "distribution", 8)


def test_extract_distribution(g025):
    r = suggest_radius(128, 4096, target=1e-10)
    measure = extract_measure(g025, J_out=128, r=r, M=4096)
    assert measure.kind == "distribution"
    assert measure.coefficients[0] == pytest.approx(np.exp(-1.0), abs=1e-10)
    exact = series_coefficients(g025, "distribution", 128)
    assert np.max(np.abs(measure.coefficients - exact)) < 1e-9
    # truncated sum + exact tail accounts for the full unit mass
    assert measure.tail_estimate > 0.2
    assert measure.normalization_defect() < 1e-9


def test_extract_measure_pi(gneg):
    r = suggest_radius(64, 2048, target=1e-10)
    measure = extract_measure(gneg, kind="measure", J_out=64, r=r, M=2048)
    assert measure.coefficients[0] == pytest.approx(np.e, abs=1e-9)
    exact = series_coefficients(gneg, "measure", 64)
    assert np.max(np.abs(measure.coefficients - exact)) < 1e-9
    assert measure.normalization_defect() is None


def test_invariance_residual_distribution(g025):
    r = suggest_radius(256, 8192, target=1e-10)
    measure = extract_measure(g025, J_out=256, r=r, M=8192)
    report = check_invariance(measure, g025, tau=1.0)
    assert report.ok(1e-6)
    assert report.residuals.size == 129


def test_invariance_detects_broken_measure(g025):
    r = suggest_radius(256, 8192, target=1e-10)
    measure = extract_measure(g025, J_out=256, r=r, M=8192)
    measure.series.values[1] += 1e-3
    report = check_invariance(measure, g025, tau=1.0)
    assert report.max_residual >= 5e-4


def test_invariance_residual_pi(gneg):
    r = suggest_radius(256, 8192, target=1e-10)
    measure = extract_measure(gneg, kind="measure", J_out=256, r=r, M=8192)
    report = check_invariance(measure, gneg, tau=0.5)
    assert report.ok(1e-5)


def test_schroder_equation(g025, rng):
    # U(F(tau; s)) * P(tau; s) = U(s)
    for _ in range(5):
        tau = float(rng.uniform(0.1, 5.0))
        s = float(rng.uniform(0.0, 0.9))
        gv = compute_P(g025, tau, s, method="quad")
        lhs = compute_U(g025, gv.F) * gv.P
        rhs = compute_U(g025, s)
        assert abs(lhs - rhs) <= 10 * 1e-10


def test_P_converges_to_U_monotonically(g025):
    for s in (0.0, 0.5):
        u = np.real(compute_U(g025, s))
        dev = [abs(np.real(compute_P(g025, t, s).P) - u)
               for t in np.logspace(0, 4, 9)]
        assert all(a > b for a, b in zip(dev, dev[1:]))


def test_ratio_limits_upsilon0_and_convergence(g025):
    table = ratio_limits(g025, 4, [1e2, 1e3])
    assert np.allclose(table.ratios[:, 0], 1.0)
    assert abs(table.ratios[-1, 1] - table.targets[1]) <= 1e-3
    assert np.all(np.diff(table.stabilization) <= 0) or table.stabilization.size < 2


def test_ratio_limits_transient(gneg):
    table = ratio_limits(gneg, 4, [1e1, 1e2, 1e3])
    assert abs(table.ratios[-1, 1] - table.targets[1]) <= 1e-2
    dev = table.final_deviation()
    assert dev is not None and dev[0] == 0.0


def test_ratio_limit_grid_validation(g025):
    with pytest.raises(ModelError):
        ratio_limits(g025, 4, [1e3, 1e2])


def test_upsilon_matches_normalized_pi(gneg):
    # the two invariant-measure constructions agree up to normalization
    table = ratio_limits(gneg, 8, [1e2, 1e3])
    targets = limit_ratios(gneg, 8)
    assert np.max(np.abs(table.ratios[-1] - targets)) <= 1e-2


def test_log_pi_consistency(gneg):
    s = 0.3
    assert np.exp(np.real(log_pi(gneg, s))) == pytest.approx(
        float(np.real(compute_pi(gneg, s))), rel=1e-13)


def test_measure_csv_format(g025):
    measure = extract_measure(g025, J_out=8, r=0.9, M=256)
    text = measure_csv(measure)
    lines = text.splitlines()
    assert any(line.startswith("# kind = distribution") for line in lines)
    header_idx = lines.index("j,m_j,bound")
    assert len(lines) - header_idx - 1 == 9


@pytest.mark.parametrize("name", ["g025_pert_off", "gneg_pert", "g025_pert_both"])
def test_separable_integrals_match_direct_integrands(name, request):
    # measured: at most 9.5e-16 relative (gneg_pert) on the 8193 points
    model = request.getfixturevalue(name)
    (val, _), (ref, _) = _integral_pair(model)
    assert np.max(np.abs(val - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("name", ["g025", "gneg"])
def test_separable_integrals_exact_without_kappa(name, request):
    # no kappa term: the integrand is the constant C (or 0), as before
    model = request.getfixturevalue(name)
    (val, err), (ref, ref_err) = _integral_pair(model)
    assert np.array_equal(val, ref) and err == ref_err


@pytest.mark.parametrize("name", ["g025_pert_off", "gneg_pert", "g025_pert_both"])
def test_separable_segment_matches_direct_integrand(name, request):
    # measured: at most 4.6e-16 relative
    model = request.getfixturevalue(name)
    s = HALF_CIRCLE[::8]
    R = exact_R(model.offspring, 2.0, s)
    val, _ = gf_segment_integral(model, one_minus_s=1.0 - s, one_minus_F=R,
                                 integrand="sv")
    ref, _ = direct_segment_integral(model, 1.0 - s, R)
    assert np.max(np.abs(val - ref) / np.abs(ref)) <= 1e-13


def _size_guarded(model, limit):
    """``model`` with tail specs whose evaluate fails on arrays of more than
    ``limit`` entries."""
    def guard(spec):
        def evaluate(x):
            if np.size(x) > limit:
                raise AssertionError(
                    f"{spec.label} evaluated on {np.size(x)} > {limit} points")
            return spec.evaluate(x)
        return dataclasses.replace(spec, evaluate=evaluate)

    return ModelSpec(
        dataclasses.replace(model.offspring, sv_spec=guard(model.offspring.sv_spec)),
        dataclasses.replace(model.immigration,
                            sv_spec=guard(model.immigration.sv_spec)))


def test_integrands_never_evaluate_specs_on_the_node_grid(
        monkeypatch, g025_pert_off, gneg_pert, g025_pert_both):
    # the tail functions are taken in separable form: no spec evaluation (or
    # limit deficit) on a whole nodes x circle grid, only per-point batches
    M = 2048
    batch = M // 2 + 1
    direct_deficit = rvcalc.ratio_deficit

    def guarded_deficit(L, ell):
        deficit = direct_deficit(L, ell)

        def checked(x):
            if np.size(x) > batch:
                raise AssertionError(f"limit deficit on {np.size(x)} points")
            return deficit(x)
        return checked

    monkeypatch.setattr(rvcalc, "ratio_deficit", guarded_deficit)
    for model in (g025_pert_off, gneg_pert, g025_pert_both):
        extract_measure(_size_guarded(model, batch), J_out=64, r=0.9, M=M)
    # the "sv" segment integrand, behind compute_P's quadrature route
    compute_P(_size_guarded(g025_pert_off, batch), 1.0,
              circle_points(0.9, M, half=True), method="quad")


def test_measure_extraction_reports_quadrature_error(gneg_pert):
    measure = extract_measure(gneg_pert, J_out=64, r=0.9, M=2048)
    err = measure.series.meta["quad_error"]
    assert np.isfinite(err) and err > 0.0
