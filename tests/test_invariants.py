import numpy as np
import pytest

from mbpilab import (ModelError, NumericsError, PreconditionError,
                     check_invariance, extract_measure, log_limit,
                     series_coefficients, stable_model, transition_grid)
from mbpilab import kernel, telemetry
from mbpilab.inversion import circle_points, suggest_radius
from mbpilab.kernel import compute_P_grid
from mbpilab.quadrature import doubling_quadrature
from mbpilab.rvcalc import SlowlyVaryingSpec

from oracles import (direct_log_limit, direct_segment_integral,
                     invariance_by_compute_P, mp_exp_series_coeffs,
                     row_sum_invariance, scipy_gf_integral)

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
    r = suggest_radius(128, 4096)
    measure = extract_measure(g025, J_out=128, r=r, M=4096)
    assert measure.kind == "distribution"
    assert measure.coefficients[0] == pytest.approx(np.exp(-1.0), abs=1e-10)
    exact = series_coefficients(g025, "distribution", 128)
    assert np.max(np.abs(measure.coefficients - exact)) < 1e-9
    # truncated sum + exact tail accounts for the full unit mass
    assert measure.tail_estimate > 0.2
    assert measure.normalization_defect() < 1e-9


def test_extract_measure_pi(gneg):
    r = suggest_radius(64, 2048)
    measure = extract_measure(gneg, J_out=64, r=r, M=2048)
    assert measure.kind == "measure"
    assert measure.coefficients[0] == pytest.approx(np.e, abs=1e-9)
    exact = series_coefficients(gneg, "measure", 64)
    assert np.max(np.abs(measure.coefficients - exact)) < 1e-9
    assert measure.normalization_defect() is None


def test_invariance_residual_distribution(g025):
    r = suggest_radius(256, 8192)
    measure = extract_measure(g025, J_out=256, r=r, M=8192)
    report = check_invariance(measure, g025, tau=1.0)
    assert report.ok(1e-6)
    assert report.residuals.size == 129


def test_invariance_detects_broken_measure(g025):
    r = suggest_radius(256, 8192)
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
    r = suggest_radius(256, 8192)
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
    it, and P m(F) is taken as one exponent, which neither factor's
    overflow at long transient lags reaches.  Measured: every residual at
    most 5.1e-11 up to tau = 100, and 2.6e-9 (gneg) at tau = 1e9."""
    model = request.getfixturevalue(name)
    M = 2 ** 14
    measure = extract_measure(model, J_out=256,
                              r=suggest_radius(256, M), M=M)
    for tau in (1.0, 10.0, 100.0, 1e9):
        assert check_invariance(measure, model, tau).ok(1e-6)


@pytest.mark.parametrize("name,tau", [("g025", 1.0), ("g025", 100.0),
                                      ("gneg", 10.0)])
def test_i_truncation_is_the_truncated_sum_gap(name, tau, request):
    """i_truncation is the largest gap between the full prediction and the
    truncated sum over i <= I, and by the triangle inequality it lies
    within the full residual of the truncated sum's own residual."""
    model = request.getfixturevalue(name)
    r = suggest_radius(256, 8192)
    measure = extract_measure(model, J_out=256, r=r, M=8192)
    report = check_invariance(measure, model, tau=tau)
    gap = np.abs(report.predicted - report.truncated)
    assert report.components["i_truncation"] == np.max(gap) > 0.0
    truncated_residual = np.max(np.abs(report.truncated - measure.coefficients[:129]))
    assert abs(report.components["i_truncation"] - truncated_residual) <= \
        report.max_residual


def test_invariance_residual_pi(gneg):
    r = suggest_radius(256, 8192)
    measure = extract_measure(gneg, J_out=256, r=r, M=8192)
    report = check_invariance(measure, gneg, tau=0.5)
    assert report.ok(1e-5)


@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off"])
def test_invariance_takes_h_of_F_once_bit_for_bit(name, request):
    """The check's one flow and two potentials, h(1 - s) and h(F), give the
    prediction, truncated sum, residuals and components of one
    compute_P_grid call plus one log_limit call, bit for bit, quad_error's
    terms added in the same order."""
    model = request.getfixturevalue(name)
    measure = extract_measure(model, J_out=256, r=suggest_radius(256, 8192), M=8192)
    for tau in (0.0, 1.0, 1e4):
        report = check_invariance(measure, model, tau)
        ref = invariance_by_compute_P(measure, model, tau)
        for field in ("predicted", "truncated", "residuals"):
            assert getattr(report, field).tobytes() == getattr(ref, field).tobytes()
        assert repr(report.components) == repr(ref.components)


def test_log_pi_refuses_s_at_one(gneg):
    # log pi diverges at s = 1: a ModelError names it, where a power of 0
    # warned and returned inf or NaN
    for one_minus_s in (0.0, 0j, [0.5, 0.0]):
        with pytest.raises(ModelError, match="diverges at s = 1"):
            log_limit(gneg, one_minus_s)


def test_invariance_refuses_F_rounded_to_one():
    """At c = 1e300 on gneg's indices F(1; s) rounds to 1 on the check
    circle (R ~ (c nu t)**(-1/nu) underflows), where log pi diverges: the
    check raises NumericsError, not a NaN residual.  The measure does not
    depend on c, so its extraction still works."""
    model = stable_model(nu=0.75, c=1e300, delta=0.5, d=2.5e299, J=200)
    measure = extract_measure(model, J_out=64, r=suggest_radius(64, 2048), M=2048)
    with pytest.raises(NumericsError, match="rounds to 1"):
        check_invariance(measure, model, 1.0)


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


# The strong ratio limit p_0j(t)/p_00(t) -> m_j/m_0 is read off the rows of
# one transition_grid call, with targets from the series recurrence.

def test_ratio_limits_upsilon0_and_convergence(g025):
    p = transition_grid(g025, [0], [1e2, 1e3], 4, M=1024).values[:, 0]
    ratios, u = p / p[:, :1], series_coefficients(g025, "distribution", 4)
    assert np.allclose(ratios[:, 0], 1.0)
    assert abs(ratios[-1, 1] - u[1] / u[0]) <= 1e-3


def test_ratio_limits_transient(gneg):
    p = transition_grid(gneg, [0], [1e1, 1e2, 1e3], 4, M=1024).values[:, 0]
    pi = series_coefficients(gneg, "measure", 4)
    ratios, targets = p / p[:, :1], pi / pi[0]
    assert abs(ratios[-1, 1] - targets[1]) <= 1e-2
    assert np.abs(ratios[-1] - targets)[0] == 0.0


@pytest.mark.parametrize("name, exact", [("g025", True), ("gneg", True),
                                         ("g025_pert_off", False)])
def test_ratio_limits_are_the_single_rows(name, exact, request):
    """One transition_grid call gives each row as single-row calls do.
    Closed-form routes match exactly; on the quadrature route the batched
    integral is shared across t, which moves the rows by a few ulps."""
    model = request.getfixturevalue(name)
    grid = [1e1, 1e2, 1e3]
    p = transition_grid(model, [0], grid, 6, M=1024).values[:, 0]
    ratios = p / p[:, :1]
    for k, t in enumerate(grid):
        row = transition_grid(model, [0], [t], 6, M=1024).values[0, 0]
        if exact:
            assert np.array_equal(ratios[k], row / row[0])
        else:
            assert np.allclose(ratios[k], row / row[0], rtol=1e-14, atol=0)


def test_ratio_limits_march_the_flow_once(g025, monkeypatch):
    """transition_grid over a time grid costs one integration to its last
    time plus one step (six evaluations after first-same-as-last) per inner
    landing, not a restart from t = 0 at every time."""
    rk45 = kernel._rk45
    evals = []

    def counted(rhs, *args, **kwargs):
        return rk45(lambda y: evals.append(1) or rhs(y), *args, **kwargs)

    monkeypatch.setattr(kernel, "_rk45", counted)
    grid = np.logspace(1, 4, 7)
    transition_grid(g025, [0], grid[-1:], 4, M=1024, method="quad")
    single = len(evals)
    evals.clear()
    transition_grid(g025, [0], grid, 4, M=1024, method="quad")
    assert len(evals) <= single + 6 * (grid.size - 1)


def test_upsilon_matches_normalized_pi(gneg):
    # the two invariant-measure constructions agree up to normalization
    p = transition_grid(gneg, [0], [1e2, 1e3], 8, M=1024).values[:, 0]
    pi = series_coefficients(gneg, "measure", 8)
    assert np.max(np.abs(p[-1] / p[-1, 0] - pi / pi[0])) <= 1e-2


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


def test_measure_csv_format(run_task):
    _, out = run_task("invariant", j_out="8", radius="0.9", samples="256")
    lines = (out / "measure.csv").read_text().splitlines()
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
    # no offspring kappa: h is its closed terms alone, with no quadrature,
    # and equals the reference's quadrature of the constant C (or 0) bit
    # for bit; its error is the closed terms' roundoff
    model = request.getfixturevalue(name)
    with telemetry.recording() as record:
        val, err = log_limit(model, 1.0 - HALF_CIRCLE)
    ref, _ = direct_log_limit(model, 1.0 - HALF_CIRCLE)
    assert np.array_equal(val, ref)
    assert err == 8 * np.finfo(float).eps * np.max(np.abs(val))
    assert not any(key.startswith("quad.") for key in record.counters)


# Models off the workload set for the quad route: (nu, delta, d, kappa_offspring,
# kappa_immigration), c = 1.
QUAD_ROUTE_MODELS = {
    "unpaired": (0.75, 0.5, 0.5, 0.0, 1.0),           # C/|gamma| = 2
    "unpaired_fractional": (0.5, 0.4, 0.04, 0.1, 0.5),  # C/|gamma| = 0.4, k = 3
    "mu_negative": (0.75, 0.35, 0.4, 0.1, 0.5),       # mu = -0.05
    "mu_zero": (0.8, 0.4, 0.4, 0.1, 0.5),
    "mu_zero_canonical": (0.5, 0.25, 0.25, 0.0, 0.5),  # log w term, no quadrature
}


@pytest.mark.parametrize("name", ["g025_pert_off", "gneg_pert", "g025_pert_both",
                                  "g025", "gneg", "g025_pert_imm",
                                  *QUAD_ROUTE_MODELS])
def test_quad_route_matches_reference_integral(name, request):
    """log P, h(s) - h(F), on the quad route and, for canonical models, the
    closed one, against the reference segment integral of g/f from s to the
    F it marched, within the two routes' error estimates plus 8 eps of the
    scale |h(s)| + |h(F)|."""
    if name in QUAD_ROUTE_MODELS:
        nu, delta, d, k_off, k_imm = QUAD_ROUTE_MODELS[name]
        model = stable_model(nu=nu, c=1.0, delta=delta, d=d,
                             kappa_offspring=k_off, kappa_immigration=k_imm)
    else:
        model = request.getfixturevalue(name)
    s = HALF_CIRCLE[::8]
    h_s = kernel._potential(model, 1.0 - s)[0]
    for method in ("quad", "closed") if model.canonical else ("quad",):
        for t in (1.0, 1e2, 1e4, 1e6):
            logp, R, err = compute_P_grid(model, s, [t], method=method)
            ref, ref_err = direct_segment_integral(model, 1.0 - s, R[0])
            h_err = err - kernel.flow_error(model, t, method, 1e-10)
            scale = np.abs(h_s) + np.abs(kernel._potential(model, R[0])[0])
            bound = h_err + ref_err + 8 * np.finfo(float).eps * scale
            assert np.all(np.abs(logp[0] - ref) <= bound)


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
        # the potential h(s) - h(F), behind the quad route
        compute_P_grid(model, s, [1.0], method="quad")


def test_measure_extraction_reports_quadrature_error(g025_pert_off):
    # the offspring kappa term leaves one integral, one quadrature of the
    # extraction, whose error log_limit reports on the same half circle on
    # top of the closed terms' roundoff
    with telemetry.recording() as record:
        extract_measure(g025_pert_off, J_out=64, r=0.9, M=2048)
    log_m, err = log_limit(g025_pert_off, 1.0 - circle_points(0.9, 2048, half=True))
    assert record.counters["quad.calls"] == 1
    assert np.isfinite(err) and err > 8 * np.finfo(float).eps * np.max(np.abs(log_m))


# (nu, delta, d, kappa_offspring), c = 1: the remainder's prefactor
# C kappa_L |w**delta|/delta reaches 2.4 on the half circle |s| = 0.9
# (g025_pert_off's 0.54), so an unscaled error would not bound the shift
WIDE_PREFACTOR = (0.5, 0.6, 1.0, 1.0)


@pytest.mark.parametrize("name", ["g025_pert_off", "wide_prefactor"])
def test_potential_error_bounds_a_shifted_integral(name, request, monkeypatch):
    """An offspring-remainder integral off by its own error estimate moves
    h by no more than the error log_limit reports: the estimate is scaled
    by the integral's prefactor, not left as the inner integral's."""
    if name == "wide_prefactor":
        nu, delta, d, k_off = WIDE_PREFACTOR
        model = stable_model(nu=nu, c=1.0, delta=delta, d=d, kappa_offspring=k_off)
    else:
        model = request.getfixturevalue(name)
    w = 1.0 - circle_points(0.9, 2048, half=True)
    h, _ = log_limit(model, w)

    def shifted(fun, a, b):
        val, err = doubling_quadrature(fun, a, b)
        return val + err, err

    monkeypatch.setattr(kernel, "doubling_quadrature", shifted)
    moved, err = log_limit(model, w)
    assert 0.0 < np.max(np.abs(moved - h)) <= err


@pytest.mark.parametrize("name", ["gneg", "g025", "gneg_pert"])
def test_extracted_coefficients_within_reported_bound(name, request):
    """Every extracted coefficient lies within coefficient_bound() of the
    series recurrence, at the invariant task's settings; the bound carries
    the rounding of m_j itself (gneg's m_0 = e is one ulp off otherwise)."""
    model = request.getfixturevalue(name)
    M = 2 ** 14
    r = suggest_radius(256, M)
    measure = extract_measure(model, J_out=256, r=r, M=M)
    exact = series_coefficients(model, measure.kind, 256)
    bound = measure.series.coefficient_bound()
    assert np.all(np.abs(measure.coefficients - exact) <= bound)
