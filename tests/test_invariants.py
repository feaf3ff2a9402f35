import numpy as np
import pytest

from mbpilab import (ModelError, PreconditionError, check_invariance,
                     extract_measure, log_limit, ratio_limits,
                     series_coefficients, stable_model, transition_grid)
from mbpilab import kernel
from mbpilab.invariants import limit_ratios, measure_csv
from mbpilab.inversion import circle_points, suggest_radius
from mbpilab.kernel import compute_P_grid, exact_R, gf_segment_integral
from mbpilab.rvcalc import SlowlyVaryingSpec

from oracles import (direct_log_limit, direct_segment_integral,
                     mp_exp_series_coeffs, row_sum_invariance, scipy_gf_integral)

# The half circle behind extract_measure's default M = 2**14.
HALF_CIRCLE = circle_points(0.9, 16384, half=True)


@pytest.fixture(scope="module")
def g025_pert_both():
    """Recurrent pairing with a kappa on both tail functions."""
    return stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25,
                        kappa_offspring=0.5, kappa_immigration=0.2)


def _integral_pair(model):
    return (log_limit(model, 1.0 - HALF_CIRCLE),
            direct_log_limit(model, 1.0 - HALF_CIRCLE))


def _U(model, s):
    """U(s) = exp(integral_s^1 g/f), gamma > 0."""
    return np.exp(log_limit(model, 1.0 - s)[0])


def _B(model, s):
    """B(s) = pi(s) exp(-(1-s)**(-|gamma|)), gamma < 0."""
    return np.exp(log_limit(model, 1.0 - s)[0] - (1.0 - s) ** model.gamma)


def test_U_values(g025):
    assert np.real(_U(g025, 1.0)) == pytest.approx(1.0, abs=1e-14)
    assert np.real(_U(g025, 0.0)) == pytest.approx(np.exp(-1.0), rel=1e-11)
    assert np.real(_U(g025, 0.5)) == pytest.approx(
        np.exp(-0.5 ** 0.25), rel=1e-11)


def test_U_matches_scipy(g025, g025_pert_imm):
    for model in (g025, g025_pert_imm):
        for s in (0.0, 0.4, 0.9):
            expected = np.exp(scipy_gf_integral(model, s, 1.0 - 1e-13))
            assert np.real(_U(model, s)) == pytest.approx(expected, rel=1e-7)


def test_B_is_one_for_canonical(gneg):
    for s in (0.0, 0.3, 0.8, 0.999):
        assert np.real(_B(gneg, s)) == pytest.approx(1.0, abs=1e-14)


def test_B_perturbed_closed_form(gneg_pert):
    # B(s) = exp(-(|gamma| kappa / mu) (1-s)**mu) for the perturbed pairing
    g_abs, mu, kap = abs(gneg_pert.gamma), gneg_pert.mu, 1.0
    for s in (0.0, 0.4, 0.9):
        expected = np.exp(-(g_abs * kap / mu) * (1.0 - s) ** mu)
        assert np.real(_B(gneg_pert, s)) == pytest.approx(expected, rel=1e-10)


def test_B_preconditions():
    # for gamma < 0 the limit needs the pairing C = |gamma| and mu > 0
    bad = stable_model(nu=0.75, c=1.0, delta=0.5, d=0.3)
    with pytest.raises(PreconditionError, match="differs from"):
        log_limit(bad, 1.0)
    with pytest.raises(PreconditionError, match="mu = 2"):
        log_limit(stable_model(nu=0.75, c=1.0, delta=0.3, d=0.45), 1.0)


def test_pi_values(gneg):
    assert np.exp(np.real(log_limit(gneg, 1.0)[0])) == pytest.approx(np.e, rel=1e-13)
    assert np.exp(np.real(log_limit(gneg, 0.5)[0])) == pytest.approx(
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
    measure = extract_measure(gneg, J_out=64, r=r, M=2048)
    assert measure.kind == "measure"
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


@pytest.mark.parametrize("name,tau", [("g025", 1.0), ("gneg", 0.5)])
def test_invariance_prediction_matches_row_sum(name, tau, request):
    """One inversion of P(tau; s) m_I(F(tau; s)) equals the sum of the rows
    m_i p_ij(tau), i <= I, inverted one by one, within the rows' roundoff
    floor times the measure's mass plus the prediction's own floor."""
    model = request.getfixturevalue(name)
    r = suggest_radius(256, 8192, target=1e-10)
    measure = extract_measure(model, J_out=256, r=r, M=8192)
    report = check_invariance(measure, model, tau=tau)
    expected, rows = row_sum_invariance(measure, model, tau, 128)
    mass = np.sum(np.abs(measure.coefficients))
    bound = (np.max(rows.noise_floor()) * mass
             + report.components["prediction_noise"])
    assert report.truncated.shape == expected.shape == (129,)
    assert np.max(np.abs(report.truncated - expected)) <= bound
    assert np.array_equal(report.residuals,
                          np.abs(report.predicted - measure.coefficients[:129]))


@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off"])
def test_invariance_holds_at_every_lag(name, request):
    """At the invariant task's settings (j_out 256, M 16384, automatic
    radius) the verdict passes the default residual_tol 1e-6 at short and
    long lags alike: the prediction takes m(F) from the full limit, so the
    sum over i > I that the extracted coefficients leave out never enters
    it.  Measured: every residual at most 5.1e-11."""
    model = request.getfixturevalue(name)
    M = 2 ** 14
    measure = extract_measure(model, J_out=256,
                              r=suggest_radius(256, M, target=1e-10), M=M)
    for tau in (1.0, 10.0, 100.0):
        assert check_invariance(measure, model, tau).ok(1e-6)


@pytest.mark.parametrize("name,tau", [("g025", 1.0), ("g025", 100.0),
                                      ("gneg", 10.0)])
def test_i_truncation_is_the_truncated_sum_gap(name, tau, request):
    """i_truncation is the largest gap between the full prediction and the
    truncated sum over i <= I, and by the triangle inequality it lies
    within the full residual of the truncated sum's own residual."""
    model = request.getfixturevalue(name)
    r = suggest_radius(256, 8192, target=1e-10)
    measure = extract_measure(model, J_out=256, r=r, M=8192)
    report = check_invariance(measure, model, tau=tau)
    gap = np.abs(report.predicted - report.truncated)
    assert report.components["i_truncation"] == np.max(gap) > 0.0
    truncated_residual = np.max(np.abs(report.truncated - measure.coefficients[:129]))
    assert abs(report.components["i_truncation"] - truncated_residual) <= \
        report.max_residual


def test_invariance_residual_pi(gneg):
    r = suggest_radius(256, 8192, target=1e-10)
    measure = extract_measure(gneg, J_out=256, r=r, M=8192)
    report = check_invariance(measure, gneg, tau=0.5)
    assert report.ok(1e-5)


def test_schroder_equation(g025, rng):
    # U(F(tau; s)) * P(tau; s) = U(s)
    for _ in range(5):
        tau = float(rng.uniform(0.1, 5.0))
        s = float(rng.uniform(0.0, 0.9))
        logp, R, _ = compute_P_grid(g025, [s], [tau], method="quad")
        lhs = _U(g025, 1.0 - R[0]) * np.exp(logp[0])
        rhs = _U(g025, s)
        assert abs(lhs - rhs) <= 10 * 1e-10


def test_P_converges_to_U_monotonically(g025):
    for s in (0.0, 0.5):
        u = np.real(_U(g025, s))
        dev = [abs(np.real(np.exp(compute_P_grid(g025, [s], [t])[0][0, 0])) - u)
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
    assert np.abs(table.ratios[-1] - table.targets)[0] == 0.0


@pytest.mark.parametrize("name, exact", [("g025", True), ("gneg", True),
                                         ("g025_pert_off", False)])
def test_ratio_limits_are_the_single_rows(name, exact, request):
    """One transition_grid call gives each row as single-row calls do.
    Closed-form routes match exactly; on the quadrature route the batched
    integral is shared across t, which moves the rows by a few ulps."""
    model = request.getfixturevalue(name)
    grid = [1e1, 1e2, 1e3]
    table = ratio_limits(model, 6, grid)
    for k, t in enumerate(grid):
        p = transition_grid(model, [0], [t], 6, M=1024).values[0, 0]
        if exact:
            assert np.array_equal(table.ratios[k], p / p[0])
        else:
            assert np.allclose(table.ratios[k], p / p[0], rtol=1e-14, atol=0)


def test_ratio_limits_march_the_flow_once(g025, monkeypatch):
    """The grid costs one integration to its last time plus one step (six
    evaluations after first-same-as-last) per inner landing, not a restart
    from t = 0 at every time."""
    rk45 = kernel._rk45
    evals = []

    def counted(rhs, *args, **kwargs):
        return rk45(lambda y: evals.append(1) or rhs(y), *args, **kwargs)

    monkeypatch.setattr(kernel, "_rk45", counted)
    grid = np.logspace(1, 4, 7)
    ratio_limits(g025, 4, grid[-1:], method="quad")
    single = len(evals)
    evals.clear()
    ratio_limits(g025, 4, grid, method="quad")
    assert len(evals) <= single + 6 * (grid.size - 1)


def test_ratio_limit_grid_validation(g025):
    with pytest.raises(ModelError):
        ratio_limits(g025, 4, [1e3, 1e2])


def test_upsilon_matches_normalized_pi(gneg):
    # the two invariant-measure constructions agree up to normalization
    table = ratio_limits(gneg, 8, [1e2, 1e3])
    targets = limit_ratios(gneg, 8)
    assert np.max(np.abs(table.ratios[-1] - targets)) <= 1e-2


def test_log_pi_consistency(gneg, gneg_pert):
    # log pi(s) = (1-s)**(-|gamma|) + log B(s) with the leading term in the
    # argument's dtype: for real s it is the real power (gneg's log B is
    # exactly 0), and the same point given as a complex number agrees
    s = 0.3
    assert log_limit(gneg, 1.0 - s)[0] == (1.0 - s) ** (-abs(gneg.gamma))
    for model in (gneg, gneg_pert):
        real, _ = log_limit(model, 1.0 - s)
        cplx, _ = log_limit(model, complex(1.0 - s))
        assert np.real(cplx) == pytest.approx(np.real(real), rel=1e-13)


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
    val, _ = gf_segment_integral(model, 1.0 - s, R, method="quad")
    ref, _ = direct_segment_integral(model, 1.0 - s, R)
    assert np.max(np.abs(val - ref) / np.abs(ref)) <= 1e-13


def test_integrands_never_evaluate_specs_on_the_node_grid(
        monkeypatch, g025_pert_off, gneg_pert, g025_pert_both):
    # the kernel reads the tail functions' fields and takes them in
    # separable form: no tail spec is ever called pointwise
    def refuse(spec, x):
        raise AssertionError(f"{spec} evaluated on {np.size(x)} points")

    monkeypatch.setattr(SlowlyVaryingSpec, "__call__", refuse)
    s = circle_points(0.9, 2048, half=True)
    for model in (g025_pert_off, gneg_pert, g025_pert_both):
        extract_measure(model, J_out=64, r=0.9, M=2048)
        # the tail-function segment integrand, behind the quadrature route
        compute_P_grid(model, s, [1.0], method="quad")


def test_measure_extraction_reports_quadrature_error(gneg_pert):
    measure = extract_measure(gneg_pert, J_out=64, r=0.9, M=2048)
    err = measure.series.meta["quad_error"]
    assert np.isfinite(err) and err > 0.0


@pytest.mark.parametrize("name", ["gneg", "g025", "gneg_pert"])
def test_extracted_coefficients_within_reported_bound(name, request):
    """Every extracted coefficient lies within coefficient_bound() of the
    series recurrence, at the invariant task's settings; the bound carries
    the rounding of m_j itself (gneg's m_0 = e is one ulp off otherwise)."""
    model = request.getfixturevalue(name)
    M = 2 ** 14
    r = suggest_radius(256, M, target=1e-10)
    measure = extract_measure(model, J_out=256, r=r, M=M)
    exact = series_coefficients(model, measure.kind, 256)
    bound = measure.series.coefficient_bound()
    assert np.all(np.abs(measure.coefficients - exact) <= bound)
    assert np.array_equal(measure.series.coefficient_bound([0, 7]), bound[[0, 7]])
