"""Release gate: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v``).

Criteria 5b and 6a check Theorem 2's envelope ell(tau)/tau^mu, whose time
exponent is -mu/nu, in both of the ways the paper states it.  The envelope
is an upper bound: the exactly-canonical family ``gneg`` must stay within a
constant multiple of it (its own error decays faster, at -delta/nu).  The
rate is attained only when a tail function carries a genuine remainder: the
family ``gneg_pert`` (immigration-tail remainder) must decay at -mu/nu, with
an error-to-envelope ratio that is flat over the fit window.
"""

import time

import numpy as np

from mbpilab import (SimConfig, check_invariance, check_lemma2, check_lemma3,
                     check_lemma4, estimate_pmf, exact_R, extract_measure,
                     log_limit, rate_fits, series_coefficients, solve_F,
                     sv_perturbed, transition_grid)
from mbpilab.inversion import suggest_radius

GRID_2_6 = np.logspace(2, 6, 25)


def announce(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


# Theorem 2's envelope checks (criteria 5b and 6a).  The paper leaves the
# constant of O(envelope) open; the gate caps error/envelope at 1 for the
# canonical family.  Where the rate is attained, error/envelope tends to a
# constant, so over the fit window it may vary by at most 10%.
ENVELOPE_RATIO_CAP = 1.0
FLATNESS_CAP = 1.1
ATTAINED_RSQ_MIN = 0.999


def check_envelope_exponent(criterion, tol, bound_model, bound_fit,
                            attained_model, attained_fit):
    """Envelope exponent -mu/nu as an upper bound on ``bound_fit`` (exactly
    canonical tails) and as the attained rate on ``attained_fit`` (a tail
    with a genuine remainder).  The exponent comes from each model's mu and
    nu, never from the fit's own prediction."""
    bound_exp = -bound_model.mu / bound_model.nu
    ratio = bound_fit.envelope_ratio
    ratio_max = float(np.max(ratio))
    attained_exp = -attained_model.mu / attained_model.nu
    in_window = attained_fit.envelope_ratio[attained_fit.window]
    flatness = float(in_window.max() / in_window.min())
    bound_ok = (ratio_max <= ENVELOPE_RATIO_CAP and ratio[-1] <= ratio[0]
                and bound_fit.fitted_slope <= bound_exp + tol)
    attained_ok = (abs(attained_fit.fitted_slope - attained_exp) <= tol
                   and attained_fit.r_squared >= ATTAINED_RSQ_MIN
                   and flatness <= FLATNESS_CAP)
    announce(criterion, bound_ok and attained_ok,
             f"bound: canonical slope {bound_fit.fitted_slope:.4f} (at most "
             f"-mu/nu + {tol} = {bound_exp + tol:.4f}), err/envelope max "
             f"{ratio_max:.3f} (cap {ENVELOPE_RATIO_CAP}), {ratio[0]:.4f} "
             f"at t={bound_fit.t_grid[0]:.0e} -> {ratio[-1]:.4f} at "
             f"t={bound_fit.t_grid[-1]:.0e}; attained: remainder-bearing "
             f"slope {attained_fit.fitted_slope:.4f} (target "
             f"{attained_exp:.4f} +- {tol}), r2 {attained_fit.r_squared:.6f} "
             f"(min {ATTAINED_RSQ_MIN}), err/envelope max/min over fit "
             f"window {flatness:.4f} (cap {FLATNESS_CAP})")
    assert ratio_max <= ENVELOPE_RATIO_CAP
    assert ratio[-1] <= ratio[0]
    assert bound_fit.fitted_slope <= bound_exp + tol
    assert abs(attained_fit.fitted_slope - attained_exp) <= tol
    assert attained_fit.r_squared >= ATTAINED_RSQ_MIN
    assert flatness <= FLATNESS_CAP


def test_criterion1_kernel_closed_form_oracle(g025):
    started = time.time()
    worst = 0.0
    for t in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4):
        for s in (0.0, 0.3, 0.7, 0.95):
            ode = solve_F(g025, t, s, method="quad")[0]
            exact = exact_R(g025.offspring, t, complex(s))[0]
            worst = max(worst, abs(ode - exact) / abs(exact))
    elapsed = time.time() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    announce("1 (kernel oracle)", ok,
             f"max rel err {worst:.2e} (tol 1e-8), {elapsed:.1f}s (cap 5s)")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion2_invariant_distribution_extraction(g025):
    started = time.time()
    j_out, M = 512, 2 ** 14
    # literal prescribed radius: sound up to the radius-supported index
    literal = extract_measure(g025, J_out=j_out, r=0.9, M=M)
    u0_err = abs(literal.coefficients[0] - np.exp(-1.0))
    # the largest index whose error bound stays within 1e-9
    valid = np.flatnonzero(literal.series.coefficient_bound() <= 1e-9)[-1]
    nonneg_literal = bool(np.all(literal.coefficients[:valid + 1] >= -1e-9))
    # radius chosen so all 512 coefficients clear the roundoff floor
    r = suggest_radius(j_out, M)
    supported = extract_measure(g025, J_out=j_out, r=r, M=M)
    nonneg_all = bool(np.all(supported.coefficients >= -1e-9))
    # independent route: exponential-of-series recurrence
    exact = series_coefficients(g025, "distribution", j_out)
    coeff_agree = float(np.max(np.abs(supported.coefficients - exact)))
    sum_agree = abs(supported.partial_sum - exact.sum())
    norm_defect = supported.normalization_defect()
    elapsed = time.time() - started
    ok = (u0_err <= 1e-8 and valid >= 128 and nonneg_literal and nonneg_all
          and coeff_agree <= 1e-9 and sum_agree <= 1e-8
          and norm_defect <= 1e-8 and elapsed < 30.0)
    announce("2 (invariant distribution)", ok,
             f"u0 err {u0_err:.1e}; literal r=0.9 valid through j={valid}; "
             f"supported r={r:.4f} all >= -1e-9: {nonneg_all}; "
             f"two-route max diff {coeff_agree:.1e}, sum diff {sum_agree:.1e}; "
             f"|sum+tail-1| {norm_defect:.1e}; {elapsed:.1f}s (cap 30s)")
    assert u0_err <= 1e-8
    assert valid >= 128 and nonneg_literal
    assert nonneg_all
    assert coeff_agree <= 1e-9
    assert sum_agree <= 1e-8
    assert norm_defect <= 1e-8
    assert elapsed < 30.0


def test_criterion3_invariance_residual(g025):
    started = time.time()
    r = suggest_radius(512, 2 ** 14)
    measure = extract_measure(g025, J_out=512, r=r, M=2 ** 14)
    report = check_invariance(measure, g025, tau=1.0)
    elapsed = time.time() - started
    ok = report.max_residual <= 1e-6 and elapsed < 120.0
    announce("3 (invariance at tau=1)", ok,
             f"max_j residual {report.max_residual:.2e} (tol 1e-6) "
             f"at j={report.argmax_j}; {elapsed:.1f}s (cap 120s)")
    assert report.max_residual <= 1e-6
    assert elapsed < 120.0


def test_criterion4_recurrent_rate(g025):
    started = time.time()
    fit = rate_fits(g025, 0.0, GRID_2_6, rsq_min=0.999)[0][0]
    # compensated limit (d/(c*gamma)) * (c*nu)**(-gamma/nu) = 2**0.5
    target = (0.25 / 0.25) * 0.5 ** -0.5
    compensated = fit.extras["compensated"][-1]
    comp_dev = abs(compensated / target - 1.0)
    elapsed = time.time() - started
    ok = (abs(fit.fitted_slope + 0.5) <= 0.1 and fit.r_squared >= 0.999
          and comp_dev <= 0.01 and elapsed < 60.0)
    announce("4 (recurrent-limit rate)", ok,
             f"slope {fit.fitted_slope:.4f} (target -0.5 +- 0.1), "
             f"r2 {fit.r_squared:.6f}, e(t)*sqrt(t) -> {compensated:.6f} "
             f"(target {target:.6f} +- 1%); {elapsed:.1f}s (cap 60s)")
    assert abs(fit.fitted_slope - (-0.5)) <= 0.1
    assert fit.r_squared >= 0.999
    assert comp_dev <= 0.01
    assert elapsed < 60.0


def test_criterion5_transient_limit(gneg):
    started = time.time()
    fit = rate_fits(gneg, 0.0, GRID_2_6)[0][0]
    scaled = fit.extras["scaled_limit"][-1]
    dev = abs(scaled - np.e)
    elapsed = time.time() - started
    ok = dev <= 1e-3 and elapsed < 60.0
    announce("5a (transient limit value)", ok,
             f"exp(T)P(1e6;0) = {scaled:.6f}, |dev from e| {dev:.2e} "
             f"(tol 1e-3); {elapsed:.1f}s (cap 60s)")
    assert dev <= 1e-3
    assert elapsed < 60.0


def test_criterion5_transient_rate_envelope_exponent(gneg, gneg_pert):
    """Theorem 2 at s = 0: rho(t;0) = O(ell(tau)/tau^mu), exponent -mu/nu.

    Bound: the canonical family stays within the envelope and decays at
    least as fast as t^(-mu/nu).  Attained: the remainder-bearing family
    decays at -mu/nu +- 0.1 with a flat error-to-envelope ratio.
    """
    check_envelope_exponent(
        "5b (transient rate, envelope exponent)", 0.1,
        gneg, rate_fits(gneg, 0.0, GRID_2_6)[0][0],
        gneg_pert, rate_fits(gneg_pert, 0.0, GRID_2_6)[0][0])


def test_criterion5_uniformity(gneg):
    started = time.time()
    ratio = rate_fits(gneg, 0.0, np.logspace(2, 6, 9))[1]
    elapsed = time.time() - started
    ok = bool(np.all(ratio <= 10.0))
    announce("5c (uniformity over s)", ok,
             f"max_s rho(t;s)/rho(t;0) = {ratio.max():.2f} (bound 10); "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion6_p00_rate_envelope_exponent(gneg, gneg_pert):
    """Corollary 1: exp(T) p00(t)/pi(0) - 1 = O(ell(tau)/tau^mu), exponent
    -mu/nu, read as a bound on the canonical family and as the attained
    rate (-mu/nu +- 0.15) on the remainder-bearing family."""
    check_envelope_exponent(
        "6a (p00 rate, envelope exponent)", 0.15,
        gneg, rate_fits(gneg, 0.0, GRID_2_6)[0][1],
        gneg_pert, rate_fits(gneg_pert, 0.0, GRID_2_6)[0][1])


def test_criterion6_B0_and_early_value(gneg):
    started = time.time()
    # B(0) = pi(0) / e
    b0 = float(np.exp(np.real(log_limit(gneg, 1.0)[0][0]) - 1.0))
    fit = rate_fits(gneg, 0.0, GRID_2_6)[0][1]
    idx = int(np.argmin(np.abs(GRID_2_6 - 1e2)))
    early = fit.extras["scaled_limit"][idx]
    elapsed = time.time() - started
    ok = (abs(b0 - 1.0) <= 1e-8 and np.e * 0.95 < early < np.e * 1.05
          and elapsed < 60.0)
    announce("6b (B(0) and early value)", ok,
             f"B(0) = {b0:.12f} (1 +- 1e-8 by quadrature); "
             f"exp(T)p00 at t=1e2: {early:.4f} in (0.95e, 1.05e); "
             f"{elapsed:.1f}s (cap 60s)")
    assert abs(b0 - 1.0) <= 1e-8
    assert np.e * 0.95 < early < np.e * 1.05
    assert elapsed < 60.0


def test_criterion7_lemma_verifiers(g025, g025_pert_off, g025_pert_imm):
    started = time.time()
    # remainder of the Lambda-flow identity, perturbed offspring tail
    rep2 = check_lemma2(g025_pert_off, 0.0, np.logspace(1, 6, 21))
    # tail-integral asymptotic with L(y) = 1 + y**-0.5, sigma = 0.25
    rep3 = check_lemma3(sv_perturbed(1.0, 1.0, 0.5), 0.25,
                        np.logspace(1, 6, 11))
    # near-1 tail integral: exact for canonical, bounded for perturbed
    xs = np.sort(1.0 - np.logspace(-6, -1, 11))
    rep4 = check_lemma4(g025, xs)
    canonical_exact = float(np.max(np.abs(rep4.details["ratios"] - 1.0)))
    rep4p = check_lemma4(g025_pert_imm, xs)
    elapsed = time.time() - started
    ok = (rep2.ok() and rep2.sup <= 1.5 and rep3.ok()
          and canonical_exact <= 1e-12 and rep4p.ok()
          and elapsed < 120.0)
    announce("7 (lemma verifiers)", ok,
             f"flow remainder/log sup {rep2.sup:.3f} (bound 1.5); "
             f"tail-integral stat sup {rep3.sup:.3f} (bound 2); "
             f"canonical near-1 ratio dev {canonical_exact:.1e} (exact); "
             f"perturbed sup {rep4p.sup:.3f} (bound 2); "
             f"{elapsed:.1f}s (cap 120s)")
    assert rep2.ok() and rep2.sup <= 1.5
    assert rep3.ok()
    assert canonical_exact <= 1e-12
    assert rep4p.ok()
    assert elapsed < 120.0


def test_criterion8_simulation_cross_check(g025):
    started = time.time()
    # A seed names one draw of the stream layout (sim.RNG_SCHEME).  With 3 SE
    # on each of 27 states, about 5% of seeds fail by chance (3 of seeds
    # 38501-38560), while 1M pooled replicates put every state within
    # 1.9 SE of the kernel.
    seed = 20240802
    config = SimConfig(model=g025, horizon=5.0, replicates=100_000, seed=seed)
    result = estimate_pmf(config)
    # same truncated law on the kernel side: series evaluation end to end
    series = transition_grid(g025.truncated(), [0], [5.0], 64, r=0.9, M=256,
                             clamp=True).row((0, 0))
    checked = worst_z = 0
    ok_states = True
    for j, p in enumerate(series.values):
        if p < 1e-3:
            continue
        checked += 1
        p_hat = result.pmf[j] if j < result.pmf.size else 0.0
        se = result.se[j] if j < result.se.size else 0.0
        dev = abs(p_hat - p)
        worst_z = max(worst_z, dev / se if se > 0 else np.inf)
        if dev > 3.0 * se:
            ok_states = False
    # bit-exact reproducibility
    again = estimate_pmf(SimConfig(model=g025, horizon=5.0,
                                   replicates=100_000, seed=seed))
    reproducible = bool(np.array_equal(result.pmf, again.pmf))
    elapsed = time.time() - started
    ok = ok_states and reproducible and elapsed < 300.0
    announce("8 (simulation cross-check)", ok,
             f"{checked} states with p >= 1e-3, worst |z| {worst_z:.2f} "
             f"(within 3 SE: {ok_states}); bit-reproducible: {reproducible}; "
             f"capped fraction "
             f"{result.capped_fraction:.1e}; {elapsed:.0f}s (cap 300s)")
    assert checked >= 20
    assert ok_states
    assert reproducible
    assert elapsed < 300.0


def test_criterion9_ratio_limits(g025, gneg):
    started = time.time()
    dev = []
    for model, grid, kind in ((g025, [1e3, 1e4], "distribution"),
                              (gneg, [1e2, 1e3], "measure")):
        p = transition_grid(model, [0], grid, 4, M=1024).values[-1, 0]
        m = series_coefficients(model, kind, 4)
        dev.append(abs(p[1] / p[0] - m[1] / m[0]))
    dev_rec, dev_tr = dev
    elapsed = time.time() - started
    ok = dev_rec <= 1e-3 and dev_tr <= 1e-2 and elapsed < 120.0
    announce("9 (strong ratio limits)", ok,
             f"recurrent |ups_1(1e4) - u1/u0| = {dev_rec:.2e} (tol 1e-3); "
             f"transient |ups_1(1e3) - pi1/pi0| = {dev_tr:.2e} (tol 1e-2); "
             f"{elapsed:.1f}s (cap 120s)")
    assert dev_rec <= 1e-3
    assert dev_tr <= 1e-2
    assert elapsed < 120.0
