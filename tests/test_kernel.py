import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import mbpilab
from mbpilab import (METHODS, ModelError, NumericsError, compute_P_grid,
                     exact_R, solve_F, stable_model)
from mbpilab import kernel, telemetry
from mbpilab.inversion import circle_points, suggest_radius
from mbpilab.kernel import flow_on_grid, log_limit, transition_grid
from mbpilab.laws import make_stable_offspring, offspring_from_coefficients
from mbpilab.rvcalc import sv_constant, sv_perturbed

from oracles import (direct_segment_integral, potential_by_powers, scipy_R,
                     scipy_gf_integral, time_route_P)


def test_initial_condition(g025):
    R = solve_F(g025, 0.0, 0.3)
    assert R.shape == (1,) and R[0] == 0.7


def test_fixed_point_at_one(g025):
    for t in (0.5, 10.0):
        R = solve_F(g025, t, 1.0)[0]
        assert 1.0 - R == pytest.approx(1.0, abs=1e-14)
        assert R == pytest.approx(0.0, abs=1e-14)


def test_closed_form_value(g025):
    R = solve_F(g025, 2.0, 0.0)[0]
    assert np.real(R) == pytest.approx(0.25, abs=1e-14)
    assert np.real(1.0 - R) == pytest.approx(0.75, abs=1e-14)


def test_ode_matches_closed_form_grid(g025):
    worst = 0.0
    for t in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4):
        for s in (0.0, 0.3, 0.7, 0.95):
            ode = solve_F(g025, t, s, method="quad")[0]
            exact = exact_R(g025.offspring, t, complex(s))[0]
            worst = max(worst, abs(ode - exact) / abs(exact))
    assert worst <= 1e-8


def test_ode_matches_scipy(g025, g025_pert_off):
    for model in (g025, g025_pert_off):
        for t, s in ((0.5, 0.0), (3.0, 0.4)):
            mine = float(np.real(solve_F(model, t, s, method="quad")[0]))
            assert mine == pytest.approx(scipy_R(model.offspring, t, s), rel=1e-9)


def test_perturbed_implicit_matches_ode(g025_pert_off):
    law = g025_pert_off.offspring
    for t in (0.5, 5.0, 200.0):
        for s in (0.0, 0.6, 0.3 + 0.4j):
            implicit = exact_R(law, t, s)
            ode = solve_F(g025_pert_off, t, s, method="quad")
            assert abs(implicit - ode) / abs(implicit) < 1e-8


@pytest.mark.parametrize("c, kappa", [(1e300, 0.0), (1.7e308, 0.0), (1e300, 1.0),
                                      (1.7e308, 1.0)])
def test_exact_R_is_zero_where_R_underflows(c, kappa):
    # w = R**(-nu) reaches 5e301 at t = 100, or inf where the product c nu t
    # overflows (no Newton start there); R = w**-2 underflows to 0
    # with no RuntimeWarning, which the suite's filter would turn into errors
    R = exact_R(make_stable_offspring(0.5, c, kappa), 100.0, [0, 0.3])
    assert np.array_equal(R, [0.0, 0.0])


def test_closed_and_quad_routes_read_one_tail_spec():
    # the closed form's c is the spec's: a law given another spec moves both
    # routes alike
    law = dataclasses.replace(make_stable_offspring(0.5, 1.0, J=50), sv_spec=sv_constant(2.0))
    assert law.scale == 2.0
    closed = flow_on_grid(law, [0.3], [10.0], method="closed")
    quad = flow_on_grid(law, [0.3], [10.0], method="quad", rtol=1e-10)
    assert abs(quad - closed).max() <= 1e-9 * abs(closed).max()


def test_exact_R_refuses_a_remainder_exponent_other_than_nu():
    # its Newton solve conserves w - kappa log(w + kappa), the theta = nu flow
    law = dataclasses.replace(make_stable_offspring(0.5, 1.0, 1.0, J=50),
                              sv_spec=sv_perturbed(1.0, 1.0, 0.25))
    with pytest.raises(ModelError, match="theta = nu"):
        exact_R(law, 1.0, [0.3])
    assert exact_R(dataclasses.replace(law, sv_spec=sv_perturbed(1.0, 0.0, 0.25)),
                   1.0, [0.3]).shape == (1,)


def test_ode_route_is_zero_where_R_underflows():
    # at nu = 0.04, w = R**(-nu) is about 4e14 at t = 1e16 and R = w**-25
    # underflows; the ODE route inverts w as exact_R does, with no
    # RuntimeWarning, and the two routes agree where R is still a double
    model = stable_model(0.04, 1.0, 0.29, 0.25)
    s = [0.0, 0.3, 0.9j]
    for t in (1e12, 1e16):
        quad = flow_on_grid(model, s, [t], method="quad")
        closed = flow_on_grid(model, s, [t], method="closed")
        assert np.all(np.isfinite(quad))
        assert np.max(np.abs(quad - closed)) <= 1e-10 * np.max(np.abs(closed))
    assert np.array_equal(quad, np.zeros((1, 3)))


@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off", "kappa10"])
def test_closed_grid_is_the_rows_bit_for_bit(name, request):
    # one exact_R call covers the (t, s) grid; each Newton lane stops on its
    # own, so a lane's R is the same in a grid of 40 x 1031 lanes, in its
    # row and alone
    model = (stable_model(0.5, 1.0, 0.75, 0.25, kappa_offspring=10.0)
             if name == "kappa10" else request.getfixturevalue(name))
    s = np.concatenate([circle_points(0.9, 2048, half=True),
                        [0.0, 0.3, 0.7, 1.0, -1.0, 0.3 + 0.4j]])
    grid = np.concatenate([[0.0], np.logspace(-3, 8, 40)])
    R = flow_on_grid(model, s, grid, method="closed")
    rows = [exact_R(model.offspring, t, s) for t in grid[1:]]
    assert np.array_equal(R.view(float), np.vstack([1.0 - s] + rows).view(float))
    for row, t in ((1, grid[1]), (20, grid[20]), (40, grid[40])):
        for lane in (0, 517, s.size - 1):
            alone = exact_R(model.offspring, t, s[lane])
            assert np.array_equal(alone.view(float), R[row, lane:lane + 1].view(float))


def test_closed_route_makes_one_exact_R_call_per_grid(g025_pert_off, monkeypatch):
    calls, solve = [], kernel.exact_R

    def counted(law, t, s):
        calls.append(np.shape(t))
        return solve(law, t, s)
    monkeypatch.setattr(kernel, "exact_R", counted)
    R = flow_on_grid(g025_pert_off, S_BATCH, [5.0, 0.0, 1e3, 5.0, 2.0], method="closed")
    assert calls == [(3,)] and R.shape == (5, len(S_BATCH))
    flow_on_grid(g025_pert_off, S_BATCH, [0.0], method="closed")
    assert len(calls) == 1


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_closed_grid_is_zero_at_a_huge_scale(kappa):
    # c nu t, an array product, overflows to inf on every row but the
    # first; R is 0 there with no RuntimeWarning
    law = make_stable_offspring(0.5, 1.7e308, kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = flow_on_grid(law, [0.0, 0.3, 0.9j], [1e-300, 1.0, 100.0, 1e300], method="closed")
    assert np.array_equal(R[1:], np.zeros((3, 3)))
    assert np.all(np.isfinite(R[0])) and np.all(R[0] != 0)


def test_complex_circle_batch(g025):
    s = circle_points(0.9, 64)
    ode = solve_F(g025, 2.0, s, method="quad")
    exact = exact_R(g025.offspring, 2.0, s)
    assert np.max(np.abs(ode - exact) / np.abs(exact)) < 1e-9


def test_R_monotone_in_t(g025, gneg):
    for model in (g025, gneg):
        for s in (0.0, 0.5, 0.9):
            Rs = [float(np.real(solve_F(model, t, s)[0]))
                  for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
            assert all(a > b for a, b in zip(Rs, Rs[1:]))


def test_gf_value_ranges(g025):
    for t in (0.5, 2.0, 10.0):
        for s in (0.0, 0.4, 0.9):
            logp, R, _ = compute_P_grid(g025, [s], [t])
            R, P = np.real(R[0, 0]), np.real(np.exp(logp[0, 0]))
            F = 1.0 - R
            assert s <= F <= 1.0
            assert 0.0 < R <= 1.0 - s + 1e-15
            assert 0.0 < P <= 1.0


def test_P_initial_and_boundary(g025):
    at_zero = compute_P_grid(g025, [0.3], [0.0])[0]
    at_one = compute_P_grid(g025, [1.0], [5.0])[0]
    assert np.exp(at_zero[0, 0]) == pytest.approx(1.0, abs=1e-13)
    assert np.exp(at_one[0, 0]) == pytest.approx(1.0, abs=1e-13)


def test_P_closed_form_examples(g025, gneg):
    # gamma = 0.25 family at t=2, s=0: exp(R**gamma - 1) with R = 1/4
    expected = np.exp(0.25 ** 0.25 - 1.0)
    logp = compute_P_grid(g025, [0.0], [2.0], method="closed")[0]
    assert np.real(np.exp(logp[0, 0])) == pytest.approx(expected, rel=1e-12)
    # gamma = -0.25 family: P(t;0) = exp(1 - (1 + 0.75 t)**(1/3))
    for t in (0.5, 2.0, 50.0):
        expected = np.exp(1.0 - (1.0 + 0.75 * t) ** (1.0 / 3.0))
        logp = compute_P_grid(gneg, [0.0], [t], method="closed")[0]
        assert np.real(np.exp(logp[0, 0])) == pytest.approx(expected, rel=1e-12)


def test_P_quad_matches_scipy(g025, gneg):
    for model in (g025, gneg):
        F = 1.0 - solve_F(model, 2.0, 0.1)[0]
        expected = scipy_gf_integral(model, 0.1, float(np.real(F)))
        logp = compute_P_grid(model, [0.1], [2.0], method="quad")[0]
        mine = float(np.real(logp[0, 0]))
        assert mine == pytest.approx(expected, rel=1e-9, abs=1e-11)


def test_P_series_route_close_to_closed(g025):
    # truncated law differs from the exact one only by the re-balanced tail
    q = np.exp(compute_P_grid(g025.truncated(), [0.0], [5.0])[0][0, 0])
    c = np.exp(compute_P_grid(g025, [0.0], [5.0], method="closed")[0][0, 0])
    assert abs(q - c) / abs(c) < 1e-3


def test_route_equivalence(g025, gneg, rng):
    for model in (g025, gneg):
        for _ in range(3):
            t = float(rng.uniform(0.2, 4.0))
            s = float(rng.uniform(0.0, 0.9))
            space = np.exp(compute_P_grid(model, [s], [t], method="quad")[0][0, 0])
            time_route = time_route_P(model, t, s)[0]
            assert abs(space - time_route) <= 1e-8


def test_semigroup_property(g025, rng):
    for _ in range(4):
        t = float(rng.uniform(0.1, 3.0))
        tau = float(rng.uniform(0.1, 3.0))
        s = float(rng.uniform(0.0, 0.9))
        lhs = 1.0 - solve_F(g025, t + tau, s, method="quad")
        inner = 1.0 - solve_F(g025, tau, s, method="quad")
        rhs = 1.0 - solve_F(g025, t, inner, method="quad")
        assert abs(lhs - rhs) <= 10 * 1e-10


def test_immigration_cocycle(g025, gneg, rng):
    for model in (g025, gneg):
        for _ in range(3):
            t = float(rng.uniform(0.1, 3.0))
            tau = float(rng.uniform(0.1, 3.0))
            s = float(rng.uniform(0.0, 0.9))
            lhs = np.exp(compute_P_grid(model, [s], [t + tau], method="quad")[0])
            inner = 1.0 - solve_F(model, tau, s)
            rhs = (np.exp(compute_P_grid(model, [s], [tau], method="quad")[0])
                   * np.exp(compute_P_grid(model, inner, [t], method="quad")[0]))
            assert abs(lhs - rhs) <= 10 * 1e-10


def _P_i(model, i, t, s):
    """P_i(t; s) = F**i P, by the log-space product transition_grid inverts."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    logp, R, _ = compute_P_grid(model, s, [t])
    return np.exp(kernel._log_P_i(logp[0], s if t == 0 else 1.0 - R[0], i))


def test_P_i_values(g025):
    assert _P_i(g025, 0, 2.0, 0.3) == np.exp(compute_P_grid(g025, [0.3], [2.0])[0][0, 0])
    assert np.real(_P_i(g025, 3, 0.0, 0.4)) == pytest.approx(0.4 ** 3, abs=1e-13)
    logp, R, _ = compute_P_grid(g025, [0.0], [2.0])
    assert np.real(_P_i(g025, 1, 2.0, 0.0)) == pytest.approx(
        float(np.real(1.0 - R[0, 0])) * float(np.real(np.exp(logp[0, 0]))), rel=1e-12)
    with pytest.raises(ModelError):
        transition_grid(g025, [-1], [1.0], 16, M=256)
    # F(0; 0) = 0: P_i vanishes for i > 0, and P_0 = 1 takes no log of 0
    s = np.array([0.0, 0.5], dtype=complex)
    gone = kernel._log_P_i(compute_P_grid(g025, s, [0.0])[0][0], s, 2)
    assert gone[0] == -np.inf and np.exp(gone[0]) == 0.0
    assert np.exp(gone[1]) == pytest.approx(0.25, rel=1e-15)
    assert _P_i(g025, 0, 0.0, 0.0) == 1.0


def test_segment_integral_additivity(g025):
    # integral_s^1 = integral_s^F + integral_F^1 for gamma > 0, the middle
    # term by the reference segment integral
    F = 1.0 - solve_F(g025, 2.0, 0.2)
    seg, _ = direct_segment_integral(g025, 1.0 - 0.2, 1.0 - F)
    to_one_s, _ = log_limit(g025, 1.0 - 0.2)
    to_one_F, _ = log_limit(g025, 1.0 - F)
    assert abs((seg + to_one_F) - to_one_s) < 1e-12


# Models whose limit integrands have fractional powers of q at q = 0 (nu,
# delta, d, kappa_offspring, kappa_immigration), c = 1: 5/4 in the transient
# one, 1/3 in the recurrent one.
ROUGH_MODELS = {"rough_transient": (0.5, 0.4, 0.1, 0.1, 0.5),
                "rough_recurrent": (0.3, 0.9, 0.25, 0.5, 0.0)}


@pytest.mark.parametrize("name", [*ROUGH_MODELS, "g025", "gneg", "gneg_pert",
                                  "g025_pert_off"])
def test_log_limit_takes_few_panels(name, request):
    # the substitution q = v**k keeps the remainder integrand smooth at
    # q = 0: in q itself it takes 4095 panels on g025_pert_off and does not
    # converge within 8192 on rough_recurrent; without an offspring kappa,
    # h is closed and takes no quadrature
    if name in ROUGH_MODELS:
        nu, delta, d, k_off, k_imm = ROUGH_MODELS[name]
        model = mbpilab.stable_model(nu=nu, c=1.0, delta=delta, d=d,
                                     kappa_offspring=k_off,
                                     kappa_immigration=k_imm)
    else:
        model = request.getfixturevalue(name)
    with telemetry.recording() as record:
        log_limit(model, 1.0 - circle_points(0.9, 4096, half=True))
    assert record.counters.get("quad.calls", 0) == bool(model.offspring.kappa)
    assert record.counters.get("quad.panels", 0) <= 15


@pytest.mark.parametrize("name", ["g025", "gneg"])
def test_log_limit_refuses_s_outside_the_unit_disc(name, request):
    model = request.getfixturevalue(name)
    for one_minus_s in (-0.5, 2.5, 1.0 + 1.5j):      # s = 1.5, -1.5, -1.5j
        with pytest.raises(ModelError, match=r"\|s\| <= 1"):
            log_limit(model, one_minus_s)
    log_limit(model, [1.0, 2.0, 1.0 + 1.0j])          # s = 0, -1, -1j


@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off"])
def test_log_P_is_the_limit_difference(name, request):
    """Invariance identity P(t; s) m(F(t; s)) = m(s): log P from
    compute_P_grid equals log m(s) - log m(F) at the F it marched, on the
    quad route and, for canonical models, the closed one; within the two
    limit quadrature errors plus 8 eps of the scale of the terms."""
    model = request.getfixturevalue(name)
    s = np.array([0.0, 0.3, 0.7, -0.5 + 0.5j, 0.9j, -1.0])
    methods = ("quad", "closed") if model.canonical else ("quad",)
    for method in methods:
        logp, R, _ = kernel.compute_P_grid(model, s, [1.0, 1e2, 1e4],
                                           method=method)
        log_ms, err_s = log_limit(model, 1.0 - s)
        log_mF, err_F = log_limit(model, R.ravel())
        log_mF = log_mF.reshape(R.shape)
        scale = np.maximum(1.0, np.abs(log_ms) + np.abs(log_mF))
        gap = np.abs(logp - (log_ms - log_mF))
        assert np.all(gap <= err_s + err_F + 8 * np.finfo(float).eps * scale)


def test_transition_probs_identity_at_t0(g025):
    series = transition_grid(g025, [2], [0.0], 16, r=0.5, M=256, clamp=True).row((0, 0))
    expected = np.zeros(17)
    expected[2] = 1.0
    assert np.max(np.abs(series.values - expected)) <= \
        series.aliasing_bound + 1e-12


def test_transition_probs_p00_matches_P(g025):
    series = transition_grid(g025, [0], [2.0], 32, r=0.9, M=256, clamp=True).row((0, 0))
    expected = float(np.real(np.exp(compute_P_grid(g025, [0.0], [2.0])[0][0, 0])))
    assert series.values[0] == pytest.approx(expected, abs=1e-10)


def test_transition_row_heavy_tail_mass(g025):
    # rows are sub-stochastic after truncation: the missing mass is the
    # heavy coefficient tail, a genuine feature of these laws
    series = transition_grid(g025, [0], [5.0], 512, r=0.97, M=4096,
                             clamp=True).row((0, 0))
    missing = 1.0 - series.values.sum()
    assert 0.0 < missing < 0.01


def test_transition_probs_parameter_validation(g025):
    with pytest.raises(ModelError):
        transition_grid(g025, [0], [1.0], 64, r=0.9, M=128)   # M < 4*J
    with pytest.raises(ModelError):
        transition_grid(g025, [0], [1.0], 16, r=0.9, M=100)   # not a power of 2
    with pytest.raises(ModelError):
        transition_grid(g025, [0], [1.0], 16, r=1.1, M=256)


def test_transition_rows_match_single_extractions(g025):
    # all 21 rows are inverted in one batched call
    rows = transition_grid(g025, np.arange(21), [1.0], 24, r=0.9, M=1024).row(0)
    assert rows.values.shape == (21, 25) and rows.aliasing_bound.shape == (21,)
    for i in (0, 2, 15, 16, 20):
        single = transition_grid(g025, [i], [1.0], 24, r=0.9, M=1024).row((0, 0))
        assert np.array_equal(rows.values[i], single.values)
        assert rows.aliasing_bound[i] == single.aliasing_bound
        assert rows.noise_scale[i] == single.noise_scale
        assert np.array_equal(rows.noise_floor()[i], single.noise_floor())


def test_transition_grid_rows_are_the_single_rows(g025):
    grid = transition_grid(g025, [0, 3], [0.0, 0.5, 5.0], 16, M=256, clamp=True)
    assert grid.values.shape == (3, 2, 17) and grid.noise_scale.shape == (3, 2)
    for a, t in enumerate((0.0, 0.5, 5.0)):
        for b, i in enumerate((0, 3)):
            single = transition_grid(g025, [i], [t], 16, M=256, clamp=True).row((0, 0))
            assert np.array_equal(grid.values[a, b], single.values)
            assert grid.clamp_magnitude[a, b] == single.clamp_magnitude
    with pytest.raises(ModelError):
        transition_grid(g025, [0, 1.5], [1.0], 16, M=256)


def test_csv_formats(g025, run_task):
    # the kernel task's table, against compute_P_grid on its quad route
    code, out = run_task("kernel", t_list="0,2", s_list="0,0.5")
    assert code == 0
    _, _, err = kernel.compute_P_grid(g025, [0.0, 0.5], [0.0, 2.0], method="quad")
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "t,s_re,s_im,F_re,F_im,P_re,P_im,err"
    assert len(lines) == 5
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows[1, 3] == 0.5 and rows[1, 5] == 1.0      # t = 0: F = s, P = 1
    logp, R, _ = compute_P_grid(g025, [0.5], [2.0], method="quad")
    assert rows[3, 3] == pytest.approx(float(np.real(1.0 - R[0, 0])), rel=1e-14)
    assert rows[3, 5] == pytest.approx(float(np.real(np.exp(logp[0, 0]))), rel=1e-12)
    assert rows[3, 7] == float(f"{err:.3g}")


GRID_2_6 = np.logspace(2, 6, 25)
S_BATCH = (0.0, 0.25, 0.5, 0.75)


@pytest.mark.parametrize("name", ["g025", "gneg_pert"])
def test_flow_on_grid_march_matches_closed_form(name, request):
    model = request.getfixturevalue(name)
    R = flow_on_grid(model, S_BATCH, GRID_2_6, method="quad", rtol=1e-12)
    assert R.shape == (GRID_2_6.size, len(S_BATCH))
    exact = np.array([exact_R(model.offspring, t, np.array(S_BATCH, dtype=complex))
                      for t in GRID_2_6])
    assert np.max(np.abs(R - exact) / np.abs(exact)) <= 1e-13


def test_flow_on_grid_keeps_caller_order(g025):
    s = np.array([0.0, 0.3, 0.7])
    grid = [100.0, 0.5, 0.0, 2.0, 100.0]
    R = flow_on_grid(g025, s, grid, method="quad")
    assert np.array_equal(R[2], 1.0 - s)
    assert np.array_equal(R[0], R[4])
    ordered = flow_on_grid(g025, s, [0.5, 2.0, 100.0], method="quad")
    assert np.array_equal(R[[1, 3, 0]], ordered)
    exact = np.array([exact_R(g025.offspring, t, s.astype(complex)) for t in grid])
    assert np.max(np.abs(R - exact) / np.abs(exact)) <= 1e-8


def test_flow_on_grid_rejects_bad_input(g025):
    with pytest.raises(ModelError):
        flow_on_grid(g025, [0.0], [1.0, -1.0])
    with pytest.raises(ModelError):
        flow_on_grid(g025, [1.5], [1.0])
    with pytest.raises(ModelError):
        flow_on_grid(g025, [0.0], [1.0], method="bogus")


def test_flow_on_grid_one_point_equals_solve_F(g025, g025_pert_off):
    s = np.array([0.0, 0.4, 0.3 + 0.4j])
    for model in (g025, g025_pert_off):
        for t in (0.5, 30.0, 1e4):
            R = flow_on_grid(model, s, [t], method="quad")[0]
            assert np.array_equal(R, solve_F(model, t, s, method="quad"))


@pytest.mark.parametrize("name", ["g025", "gneg_pert"])
def test_flow_on_grid_marches_instead_of_restarting(name, request, monkeypatch):
    """In w = R**(-nu) the stable flows are (close to) linear, so a single
    integration to the end of the grid takes a few dozen evaluations and
    the march is paced by its landings: it may cost at most one extra
    6-evaluation step per inner grid point, and stays within an absolute
    budget (restarting at every grid point costs about 1,400; integrating
    R itself, 11-14k)."""
    model = request.getfixturevalue(name)
    calls = [0]
    integrate = kernel._rk45

    def counting(rhs, *args, **kwargs):
        def counted(y):
            calls[0] += 1
            return rhs(y)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(kernel, "_rk45", counting)
    flow_on_grid(model, S_BATCH, [GRID_2_6[-1]], method="quad", rtol=1e-12)
    single, calls[0] = calls[0], 0
    flow_on_grid(model, S_BATCH, GRID_2_6, method="quad", rtol=1e-12)
    assert calls[0] <= single + 6 * (len(GRID_2_6) - 1)
    assert calls[0] <= 250


def test_flow_of_a_law_without_nu_uses_w_equal_one_over_R():
    """A bare law declares no nu and is integrated in w = 1/R; for
    f(s) = (1-s)**2 / 2 that flow is dw/dt = 1/2 exactly.  Its series
    right-hand side loses eps/R**2 to cancellation, so the grid stops at
    t = 1e3 (R ~ 2e-3)."""
    law = offspring_from_coefficients([0.5, -1.0, 0.5])
    assert law.nu is None
    s = np.array([0.0, 0.5, -1.0, 0.3 + 0.6j, 1.0])
    grid = np.logspace(-1, 3, 9)
    R = flow_on_grid(law, s, grid, method="quad", rtol=1e-12)
    exact = 1.0 / (1.0 / (1.0 - s[:-1])[None, :] + 0.5 * grid[:, None])
    assert np.all(R[:, -1] == 0.0)
    assert np.max(np.abs(R[:, :-1] - exact) / np.abs(exact)) <= 1e-11


def test_compute_P_grid_rejects_unknown_method_before_marching(g025, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("the flow marched before the method was checked")

    monkeypatch.setattr(kernel, "flow_on_grid", no_march)
    with pytest.raises(ModelError, match="unknown method"):
        kernel.compute_P_grid(g025, [0.3], [1.0], method="bogus")


# Route words of earlier vocabularies, which no entry point accepts.
RETIRED_METHODS = ("exact", "ode", "ode-series", "sv", "series")


def _method_entry_points(model):
    s, t = [0.0, 0.3], [0.5, 2.0]
    return {
        "flow_on_grid": lambda m: flow_on_grid(model, s, t, method=m),
        "solve_F": lambda m: solve_F(model, 2.0, 0.3, method=m),
        "compute_P_grid": lambda m: kernel.compute_P_grid(model, s, t, method=m),
        "transition_grid": lambda m: transition_grid(model, [0, 1], t, 8, M=64, method=m),
    }


@pytest.mark.parametrize("entry", ["flow_on_grid", "solve_F", "compute_P_grid",
                                   "transition_grid"])
def test_every_entry_point_takes_the_one_method_vocabulary(g025, entry, monkeypatch):
    call = _method_entry_points(g025)[entry]
    for method in METHODS:
        call(method)

    def no_march(*args, **kwargs):
        raise AssertionError("the route ran before the method was checked")

    for name in ("_rk45", "exact_R", "doubling_quadrature"):
        monkeypatch.setattr(kernel, name, no_march)
    for word in RETIRED_METHODS:
        with pytest.raises(ModelError, match="unknown method"):
            call(word)


def test_every_package_export_resolves():
    missing = [name for name in mbpilab.__all__ if not hasattr(mbpilab, name)]
    assert not missing and len(set(mbpilab.__all__)) == len(mbpilab.__all__)


def test_package_exports_are_the_names_it_imports():
    """``__all__`` is exactly what ``__init__`` binds from its submodules:
    no import is left out of the exports, and no export lacks its import."""
    tree = ast.parse(Path(mbpilab.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert imported == set(mbpilab.__all__)


@pytest.mark.parametrize("truncated, method",
                         [pytest.param(False, m, id=m) for m in METHODS]
                         + [pytest.param(True, "auto", id="series")])
def test_compute_P_is_the_single_time_grid(g025, truncated, method):
    """compute_P_grid at one time marches the flow solve_F gives, bit for
    bit, with P = 1 at t = 0 and at s = 1, and its error estimate carries
    the flow's: the tolerance on the ODE route (the only one of the
    truncated laws), roundoff on the closed-form one."""
    model = g025.truncated() if truncated else g025
    s = np.array([0.0, 0.3, -0.5 + 0.2j, 0.95, 1.0])
    for t in (0.0, 0.5, 5.0, 1e3):
        logp, R, err = kernel.compute_P_grid(model, s, [t], method=method)
        assert logp.shape == R.shape == (1, s.size)
        assert np.array_equal(R[0], solve_F(model, t, s, method=method))
        assert logp[0, -1] == 0.0 and (t > 0 or np.all(logp == 0.0))
        if t > 0 and (truncated or method == "quad"):
            assert 1e-10 <= err < 2e-10
        elif method in ("auto", "closed"):
            assert err < 1e-14


def test_flow_telemetry_counts_steps_and_evaluations(gneg_pert, monkeypatch):
    evals = [0]
    integrate = kernel._rk45

    def counting(rhs, *args, **kwargs):
        def counted(y):
            evals[0] += 1
            return rhs(y)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(kernel, "_rk45", counting)
    with telemetry.recording() as record:
        flow_on_grid(gneg_pert, S_BATCH, GRID_2_6, method="quad", rtol=1e-12)
    counters = record.counters
    assert counters["flow.calls"] == 1
    assert counters["flow.rhs_evals"] == evals[0]
    assert counters["flow.rhs_points"] == evals[0] * len(S_BATCH)
    assert counters["flow.steps"] >= GRID_2_6.size
    assert evals[0] == 1 + 6 * (counters["flow.steps"] + counters["flow.rejected"])


def test_flow_telemetry_reports_a_failed_integration():
    # a NaN right-hand side rejects every step until the step size underflows
    with telemetry.recording() as record:
        with pytest.raises(NumericsError, match="underflow"):
            kernel._rk45(lambda y: y * np.nan, np.ones(3, dtype=complex), [1.0], 1e-10)
    counters = record.counters
    assert counters["flow.calls"] == 1 and counters["flow.steps"] == 0
    assert counters["flow.rejected"] > 0
    assert counters["flow.rhs_evals"] == 1 + 6 * counters["flow.rejected"]
    assert counters["flow.rhs_points"] == 3 * counters["flow.rhs_evals"]


@pytest.mark.parametrize("name", ["g025", "gneg_pert", "g025_pert_off"])
def test_tail_function_rhs_is_the_flow_in_w(name, request):
    """The quad route's nu L(1/R) = nu c (1 + kappa w**(-theta/nu)) is the
    flow nu (w/R) f(1-R) of the closed form, at w over |arg w| < nu pi/2
    (Re R > 0) and |w| from 1 to 1e12."""
    law = request.getfixturevalue(name).offspring
    nu = law.nu
    radius, angle = np.meshgrid(np.logspace(0, 12, 25),
                                np.linspace(-0.99, 0.99, 21) * nu * np.pi / 2)
    w = (radius * np.exp(1j * angle)).ravel()
    R = w ** (-1.0 / nu)
    direct = nu * (w / R) * law.gf_at_one_minus(R)
    got = kernel._flow_rhs(law, nu)(w)
    assert got.shape == w.shape
    assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-13


def test_march_telemetry_is_pinned(g025):
    """One lane of g025 over the 25-point grid: the stacked stages and the
    tail-function right-hand side take the steps of the direct flow."""
    with telemetry.recording() as record:
        flow_on_grid(g025, (0.0,), GRID_2_6, method="quad", rtol=1e-12)
    counters = record.counters
    assert counters["flow.rhs_evals"] == 217
    assert counters["flow.steps"] == 36 and counters["flow.rejected"] == 0
    assert counters["flow.landings"] == GRID_2_6.size


@pytest.mark.parametrize("nu", [0.05, 0.1])
@pytest.mark.parametrize("delta", [0.3, 0.9])
def test_march_survives_R_underflow_at_small_nu(nu, delta):
    """At nu = 0.05 R(1e16) is about 1e-294 and w/R about 5e308, past the
    largest double, so the direct flow nu (w/R) f(1-R) overflows and its
    steps underflow; the tail-function right-hand side forms no R and lands
    on the closed form (at nu = 0.1 the direct flow read 3.9e-13 off it)."""
    model = stable_model(nu=nu, c=1.0, delta=delta, d=0.25, J=200)
    s = np.array([0.0, 0.5], dtype=complex)
    R = flow_on_grid(model, s, [1e16], method="quad", rtol=1e-12)[0]
    exact = exact_R(model.offspring, 1e16, s)
    assert np.max(np.abs(R - exact) / np.abs(exact)) <= 1e-13


def _same_potential(model, one_minus_s):
    """kernel._potential's h and error are those of numpy's own powers,
    bit for bit."""
    h, err = kernel._potential(model, one_minus_s)
    ref, ref_err = potential_by_powers(model, one_minus_s)
    assert h.dtype == ref.dtype and h.tobytes() == ref.tobytes()
    assert repr(err) == repr(ref_err)


# w = 1 - s on the invariant task's extraction circle and on the invariance
# check's circle, complex and free of 0: every non-integer power but 1/2
# comes from the one shared log there
POTENTIAL_CIRCLES = {
    "extraction": 1.0 - circle_points(suggest_radius(256, 16384), 16384, half=True),
    "check": 1.0 - circle_points(0.9, 1024, half=True),
}


@pytest.mark.parametrize("circle", sorted(POTENTIAL_CIRCLES))
@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off"])
def test_potential_powers_are_numpys_bit_for_bit(name, circle, request):
    _same_potential(request.getfixturevalue(name), POTENTIAL_CIRCLES[circle])


@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off"])
def test_potential_on_real_w_is_numpys_bit_for_bit(name, request):
    # a real w keeps libm's pow in the closed terms
    _same_potential(request.getfixturevalue(name), np.geomspace(1e-6, 1.0, 101))


@pytest.mark.parametrize("name", ["g025", "g025_pert_off"])
def test_potential_with_a_zero_lane_is_numpys_bit_for_bit(name, request):
    # gamma > 0 admits s = 1, where log w is -inf: the batch takes w**e
    w = np.array([0.0, 0.5, 0.3 + 0.4j, 1.0 - 0.9j, 2.0], dtype=complex)
    _same_potential(request.getfixturevalue(name), w)
    assert kernel._potential(request.getfixturevalue(name), w)[0][0] == 0.0


@given(nu=st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
       delta=st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
       d=st.floats(0.05, 2.0), kappa_offspring=st.sampled_from([0.0, 0.3, 1.0]),
       kappa_immigration=st.sampled_from([0.0, 0.2, 1.0]))
@example(nu=0.5, delta=0.75, d=0.25, kappa_offspring=1.0, kappa_immigration=0.2)
@example(nu=0.75, delta=0.5, d=0.25, kappa_offspring=0.3, kappa_immigration=1.0)
@example(nu=0.5, delta=0.25, d=0.25, kappa_offspring=0.0, kappa_immigration=0.5)
@example(nu=0.5, delta=0.25, d=0.25, kappa_offspring=1.0, kappa_immigration=0.5)
def test_drawn_potentials_are_numpys_bit_for_bit(nu, delta, d, kappa_offspring,
                                                 kappa_immigration):
    """On drawn admitted models, by the check circle: nu = 1/2 puts the
    rows kappa w**theta, and delta = 1/2 the prefactor's w**a, on numpy's
    sqrt; the examples with mu = 2 delta - nu = 0 take the log w term."""
    assume(abs(delta - nu) > 1e-3)
    try:
        model = stable_model(nu=nu, c=1.0, delta=delta, d=d, J=200,
                             kappa_offspring=kappa_offspring,
                             kappa_immigration=kappa_immigration)
    except ModelError:
        assume(False)
    _same_potential(model, POTENTIAL_CIRCLES["check"])
