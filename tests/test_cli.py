import contextlib
import io
import json
import math
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbpilab import asymptotics, invariants, kernel, laws
from mbpilab.cli import (SCHEMA, Interval, Numbers, _parse, _sim_config,
                         _values, build_model, load_config, main, run_config)
from mbpilab.cli import ConfigError
from mbpilab.errors import NumericsError
from mbpilab.inversion import suggest_radius
from oracles import per_replicate_pmf

RECURRENT = """
[model]
nu = 0.5
c = 1.0
delta = 0.75
d = 0.25
truncation = 2000

[task]
name = {task}
{extra}

[output]
dir = {out}
"""

TRANSIENT = """
[model]
nu = 0.75
c = 1.0
delta = 0.5
d = {d}
truncation = 1000

[task]
name = {task}
{extra}

[output]
dir = {out}
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_task(tmp_path, capsys):
    cfg = write(tmp_path, RECURRENT.format(task="validate", extra="",
                                           out=tmp_path / "out"))
    assert run_config(cfg) == 0
    out = tmp_path / "out"
    assert (out / "validation.txt").exists()
    assert (out / "manifest.txt").exists()
    summary = (out / "summary.txt").read_text()
    assert "offspring_valid" in summary and "PASS" in summary


def test_missing_field_exits_2(tmp_path, capsys):
    bad = """
[model]
c = 1.0
delta = 0.75

[task]
name = validate
"""
    assert run_config(write(tmp_path, bad)) == 2
    err = capsys.readouterr().err
    assert "nu" in err and "[model]" in err


def test_unknown_key_exits_2(tmp_path):
    bad = RECURRENT.format(task="validate", extra="bogus_field = 1",
                           out=tmp_path / "out")
    assert run_config(write(tmp_path, bad)) == 2


def test_unknown_task_exits_2(tmp_path):
    bad = RECURRENT.format(task="frobnicate", extra="", out=tmp_path / "out")
    assert run_config(write(tmp_path, bad)) == 2


def test_gamma_zero_exits_3(tmp_path):
    bad = """
[model]
nu = 0.5
delta = 0.5

[task]
name = kernel
"""
    assert run_config(write(tmp_path, bad), out_dir=tmp_path / "out") == 3


def test_theorem2_wrong_pairing_exits_3(tmp_path, capsys):
    # the transient limit behind both tasks refuses C_ell/C_L != |gamma|
    for task, extra in (("rates", "t_min = 1e2\nt_max = 1e4\npoints = 7"),
                        ("invariant", "")):
        cfg = write(tmp_path, TRANSIENT.format(task=task, d="0.3", extra=extra,
                                               out=tmp_path / task),
                    name=f"{task}.ini")
        assert run_config(cfg) == 3
        assert "differs from |gamma|" in capsys.readouterr().err


def test_kernel_task(tmp_path):
    cfg = write(tmp_path, RECURRENT.format(
        task="kernel", extra="t_list = 0.5,2\ns_list = 0,0.5\ntol = 1e-8",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    table = (tmp_path / "out" / "kernel.csv").read_text()
    assert table.splitlines()[0] == "t,s_re,s_im,F_re,F_im,P_re,P_im,err"
    assert "kernel_oracle" in (tmp_path / "out" / "summary.txt").read_text()


def _kernel_rows(tmp_path, t_list):
    out = tmp_path / t_list
    cfg = write(tmp_path, RECURRENT.format(
        task="kernel", extra=f"t_list = {t_list}\ns_list = 0,0.5", out=out),
        name=f"{t_list}.ini")
    assert run_config(cfg) == 0
    lines = (out / "kernel.csv").read_text().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def test_kernel_task_keeps_t_list_order(tmp_path):
    given = _kernel_rows(tmp_path, "100,0.5,2")
    ordered = _kernel_rows(tmp_path, "0.5,2,100")
    assert [row[0] for row in given] == [100.0] * 2 + [0.5] * 2 + [2.0] * 2
    for row, k in zip(given, (4, 5, 0, 1, 2, 3)):
        assert row == pytest.approx(ordered[k], rel=1e-12)


def test_kernel_task_negative_time_exits_3(tmp_path):
    cfg = write(tmp_path, RECURRENT.format(
        task="kernel", extra="t_list = 1,-2\ns_list = 0", out=tmp_path / "out"))
    assert run_config(cfg) == 3


def test_rates_task_summary_format(tmp_path):
    cfg = write(tmp_path, RECURRENT.format(
        task="rates", extra="t_min = 1e2\nt_max = 1e5\npoints = 13",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "theorem1 slope -0.50" in summary
    assert "(predicted -0.500) PASS" in summary


def test_rates_transient_task(tmp_path):
    cfg = write(tmp_path, TRANSIENT.format(
        task="rates", d="0.25", extra="t_min = 1e2\nt_max = 1e5\npoints = 13",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "theorem2" in summary and "corollary1" in summary
    assert "uniformity_ratio" in summary


def test_rates_transient_task_off_uniformity_set(tmp_path):
    # The CLI marches s = 0.3 together with the uniformity set (0, 0.25, 0.5,
    # 0.75); its theorem-2 column must match rho(t; 0.3) of a march of s = 0.3
    # alone.  The family carries an immigration-tail remainder, so rho(t)
    # stays far above the roundoff floor eps * T(t) of the cancellation
    # T(t) + log P(t; s).
    cfg = write(tmp_path, TRANSIENT.format(
        task="rates", d="0.25\nkappa_immigration = 1.0",
        extra="s = 0.3\nt_min = 1e2\nt_max = 1e5\npoints = 13",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    lines = (tmp_path / "out" / "rate_theorem2.csv").read_text().splitlines()
    errors = [float(line.split(",")[1]) for line in lines
              if line and line[0].isdigit()]
    model = build_model(load_config(cfg)["model"])
    grid = np.logspace(2, 5, 13)
    logp, _, _ = kernel.compute_P_grid(model, [0.3], grid, rtol=1e-12,
                                       method="quad")
    log_pi = np.real(kernel.log_limit(model, 0.7)[0])
    ctx = model.context()
    T = np.array([ctx.tau(t) ** abs(ctx.gamma) for t in grid.tolist()])
    rho = np.abs(np.expm1(T + np.real(logp[:, 0]) - log_pi))
    assert errors == pytest.approx(rho, rel=1e-12)


def test_rates_transient_s_out_of_range_exits_3(tmp_path, capsys):
    # log pi(s) diverges at s = 1; the task refuses s outside [-1, 1)
    # before it writes a table
    for s in ("1", "1.5", "-2"):
        cfg = write(tmp_path, TRANSIENT.format(
            task="rates", d="0.25", extra=f"s = {s}", out=tmp_path / s))
        assert run_config(cfg) == 3
        assert "s in [-1, 1)" in capsys.readouterr().err
        assert not (tmp_path / s / "rate_theorem2.csv").exists()


def test_rates_recurrent_s_out_of_range_exits_3(tmp_path, capsys):
    # theorem 1 is checked for s in [0, 0.95] only; the task refuses other s
    # before it writes a table
    for s in ("0.99", "-0.5"):
        cfg = write(tmp_path, RECURRENT.format(
            task="rates", extra=f"s = {s}", out=tmp_path / s))
        assert run_config(cfg) == 3
        assert "s in [0, 0.95]" in capsys.readouterr().err
        assert not (tmp_path / s / "rate_theorem1.csv").exists()


def test_lemmas_s_out_of_range_exits_3(tmp_path, capsys):
    # lemma 2 takes Lambda(1 - s), so it refuses s outside [0, 1) by name
    cfg = write(tmp_path, RECURRENT.format(
        task="lemmas", extra="s = -0.5", out=tmp_path / "out"))
    assert run_config(cfg) == 3
    assert "lemma-2 check expects s in [0, 1), got s = -0.5" in \
        capsys.readouterr().err
    assert not (tmp_path / "out" / "lemma2.csv").exists()


def test_lemmas_task_reports_skip_for_transient(tmp_path):
    cfg = write(tmp_path, TRANSIENT.format(
        task="lemmas", d="0.25",
        extra="t_min = 1e1\nt_max = 1e4\npoints = 7\ns = 0.0",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "lemma4 SKIP" in summary
    assert "lemma3 SKIP" in summary  # constant offspring tail: no remainder
    assert (tmp_path / "out" / "lemma1.csv").exists()
    assert (tmp_path / "out" / "lemma2.csv").exists()


def test_lemmas_task_checks_lemma3_on_an_offspring_remainder(tmp_path):
    # kappa_offspring > 0 gives the offspring tail function a remainder
    text = RECURRENT.replace("truncation", "kappa_offspring = 1.0\ntruncation")
    cfg = write(tmp_path, text.format(task="lemmas", extra="lemmas = 3",
                                      out=tmp_path / "out"))
    assert run_config(cfg) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert re.search(r"^lemma3 .* PASS$", summary, re.M)
    assert (tmp_path / "out" / "lemma3.csv").exists()


def test_lemma1_table_states_the_summary_verdict(tmp_path, monkeypatch):
    # a deviation within its bound that does not decrease fails lemma 1; the
    # table's verdict line says so, as the summary does
    check = asymptotics.check_lemma1

    def not_decreasing(*args):
        rep = check(*args)
        rep.details["decreasing"] = False
        return rep

    monkeypatch.setattr(asymptotics, "check_lemma1", not_decreasing)
    out = tmp_path / "out"
    path = write(tmp_path, _config(out, "lemmas", lemmas="1", points="7"))
    assert run_config(path) == 1
    assert re.search(r"^lemma1 .* FAIL$", (out / "summary.txt").read_text(), re.M)
    head = dict(line[2:].split(" = ") for line in
                (out / "lemma1.csv").read_text().splitlines() if line[0] == "#")
    assert float(head["sup"]) <= float(head["bound"])
    assert head["verdict"] == "fail"


def test_lemma_tables_index_each_statistic_by_its_own_variable(tmp_path):
    # lemma 1 reports the final deviation per s, lemma 4 one value per x, and
    # lemmas 2 and 3 one per t; each table's first column holds that variable
    out = tmp_path / "out"
    path = write(tmp_path, _config(out, "lemmas", points="7", kappa_offspring="1.0"))
    assert run_config(path) == 0

    def table(name):
        lines = [line for line in (out / f"{name}.csv").read_text().splitlines()
                 if line[0] != "#"]
        return lines[0], np.array([[float(x) for x in line.split(",")]
                                   for line in lines[1:]])

    grid = np.logspace(2, 6, 7)
    xs = 1.0 - np.logspace(-6, -1, 11)[::-1]
    for name, column, points in (("lemma1", "s", [0.0, 0.3, 0.7]), ("lemma2", "t", grid),
                                 ("lemma3", "t", grid), ("lemma4", "x", xs)):
        header, rows = table(name)
        assert header == f"{column},statistic"
        assert np.array_equal(rows[:, 0], points), name


@pytest.mark.parametrize("option", [False, True])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, option):
    # an existing file stands where a directory is needed: as the parent of
    # [output] dir, or as the --out directory itself
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if option else blocker / "sub"
    path = write(tmp_path, _config(tmp_path / "unused" if option else out,
                                   "validate"))
    assert main(["run", path] + (["--out", str(out)] if option else [])) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {str(out)!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "unused").exists()


def test_invariant_task(tmp_path):
    cfg = write(tmp_path, RECURRENT.format(
        task="invariant",
        extra="j_out = 256\nsamples = 8192\ntau = 1.0\nresidual_tol = 1e-6",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    assert (tmp_path / "out" / "measure.csv").exists()
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "invariance" in summary and "normalization" in summary


def test_invariant_quadrature_counters(tmp_path):
    # without an offspring kappa the potential is closed: no quadrature runs.
    # With one, its remainder integral runs three times, the measure's on the
    # 4097 points of the half circle and, on 513, the check's h(s) and h(F),
    # which serves both its log P and its log m(F); each starts from one
    # panel and doubles the count at each further level, and each stops at
    # its second level, 1 + 2 panels
    cfg = write(tmp_path, RECURRENT.format(
        task="invariant", extra="j_out = 256\nsamples = 8192",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    counters = json.loads((tmp_path / "out" / "stats.json").read_text())["counters"]
    assert not any(key.startswith("quad.") for key in counters)
    cfg = write(tmp_path, RECURRENT.replace("d = 0.25", "d = 0.25\nkappa_offspring = 1.0")
                .format(task="invariant", extra="j_out = 256\nsamples = 8192",
                        out=tmp_path / "pert"), name="pert.ini")
    assert run_config(cfg) == 0
    counters = json.loads((tmp_path / "pert" / "stats.json").read_text())["counters"]
    assert counters["quad.calls"] == 3
    assert counters["quad.levels"] == 6 and counters["quad.panels"] == 9
    assert counters["quad.integrand_values"] == 15 * 3 * (4097 + 2 * 513)
    assert 0.0 <= counters["quad.max_error"] < 1e-10


def test_stats_json_inversion_totals(tmp_path):
    # a default invariant run inverts three times: the measure at samples =
    # 16384, and the invariance check's full and truncated predictions as
    # one batch of two at M = 1024; inversion.M keeps the largest
    cfg = write(tmp_path, RECURRENT.format(task="invariant", extra="",
                                           out=tmp_path / "out"))
    assert run_config(cfg) == 0
    counters = json.loads((tmp_path / "out" / "stats.json").read_text())["counters"]
    assert counters["inversion.calls"] == 3
    assert counters["inversion.fft_points"] == 16384 + 2048
    assert counters["inversion.M"] == 16384
    terms = {key for key in counters if key.startswith("invariance.")}
    assert terms == {f"invariance.{term}" for term in (
        "prediction_aliasing", "prediction_noise", "measure_noise",
        "measure_tail", "i_truncation", "quad_error")}


@pytest.mark.parametrize("text,kind", [(RECURRENT, "distribution"),
                                       (TRANSIENT, "measure")])
def test_stats_json_invariance_terms(tmp_path, text, kind):
    # the terms check_invariance computes beside its residual
    extra = "j_out = 64\nsamples = 1024\nresidual_tol = 1"
    cfg = write(tmp_path, text.format(task="invariant", extra=extra, d=0.25,
                                      out=tmp_path / "out"))
    assert run_config(cfg) == 0
    counters = json.loads((tmp_path / "out" / "stats.json").read_text())["counters"]
    model = build_model(load_config(cfg)["model"])
    measure = invariants.extract_measure(
        model, J_out=64, r=suggest_radius(64, 1024), M=1024)
    assert measure.kind == kind
    report = invariants.check_invariance(measure, model, 1.0)
    assert {f"invariance.{term}": value
            for term, value in report.components.items()} == {
        key: value for key, value in counters.items()
        if key.startswith("invariance.")}


def test_overflow_exits_4(tmp_path, capsys):
    # script_N and tau take (nu t) ** (1 / nu) as a Python float, which
    # overflows: at nu = 0.04 and the largest admitted time, (nu t) ** 25 ~
    # 1e365.  The kernel's exact_R before it gives R = 0 where R underflows,
    # with no RuntimeWarning.  The message names the evaluator, t and nu
    for task, name in (("lemmas", "script_N"), ("rates", "tau")):
        out = tmp_path / task
        path = write(tmp_path, _config(out, task, nu="0.04", delta="0.29",
                                       t_max="1e16", points="7"))
        assert run_config(path) == 4
        err = capsys.readouterr().err
        assert "numeric failure in stage 'task'" in err
        assert f"{name}: (nu t)**(1/nu) overflows at t=1e+16, nu=0.04" in err


@pytest.mark.parametrize("c", ["1e308", "1.7e308"])
def test_overflowing_truncation_exits_4(run_task, capsys, c):
    # c (1-s)**1.9 truncated at J = 2000: a_1 = -1.9 c overflows, and the
    # sums of the re-balance meet inf - inf or overflow on the way
    code, _ = run_task("validate", nu="0.9", c=c, delta="0.95")
    assert code == 4
    err = capsys.readouterr().err
    assert "numeric failure in stage 'task'" in err and "overflows" in err


@pytest.mark.parametrize("c", ["1e300", "1.7e308"])
def test_lemmas_at_a_huge_scale_exits_4(run_task, capsys, c):
    # N = L(x_t) ** (-1/nu) = c ** -2 underflows to 0, which the fixed
    # point of script_N must not divide by; the kernel's exact_R before it
    # gives R = 0 where R underflows, with no RuntimeWarning
    code, _ = run_task("lemmas", c=c, points="7")
    assert code == 4
    err = capsys.readouterr().err
    assert "numeric failure in stage 'task'" in err and "script_N" in err


def test_kernel_at_a_large_offspring_kappa_exits_0(run_task):
    # at kappa = 10 some lanes' Newton residual cannot fall below its
    # roundoff, so their relative step never reaches 1e-14: each lane stops
    # on its own residual too, where the batch once stalled (exit 4)
    code, out = run_task("kernel", kappa_offspring="10")
    assert code == 0
    assert re.search(r"^kernel_oracle .* PASS$", (out / "summary.txt").read_text(), re.M)


def test_invariant_at_a_large_offspring_kappa_exits_0(run_task):
    assert run_task("invariant", kappa_offspring="30")[0] == 0


# The benchmark's four models (tests/conftest.py) at truncation 2000.
_WORKLOAD_MODELS = {
    "g025": {"nu": "0.5", "delta": "0.75"},
    "gneg": {"nu": "0.75", "delta": "0.5"},
    "gneg_pert": {"nu": "0.75", "delta": "0.5", "kappa_immigration": "1.0"},
    "g025_pert_off": {"nu": "0.5", "delta": "0.75", "kappa_offspring": "1.0"},
}


@pytest.mark.parametrize("model", _WORKLOAD_MODELS)
def test_closed_form_tasks_build_no_truncated_series(run_task, monkeypatch, model):
    def refused(law):
        raise AssertionError(f"the {law.ROLE} law built its truncated series")
    monkeypatch.setattr(laws._IntensityLaw, "_truncate", refused)
    for task in ("kernel", "rates", "lemmas", "invariant"):
        assert run_task(task, **_WORKLOAD_MODELS[model])[0] == 0


@pytest.mark.parametrize("model", _WORKLOAD_MODELS)
def test_compare_evaluates_no_closed_form(run_task, monkeypatch, model):
    # the cross-check is the exact kernel of the truncated laws the
    # simulator draws from: no closed form enters it
    def refused(law, y):
        raise AssertionError(f"the {law.ROLE} law evaluated its closed form")
    monkeypatch.setattr(laws._IntensityLaw, "_closed_gf_one_minus", refused)
    code, _ = run_task("compare", replicates="2000", **_WORKLOAD_MODELS[model])
    assert code == 0


@pytest.mark.parametrize("model", _WORKLOAD_MODELS)
@pytest.mark.parametrize("task", ["validate", "simulate"])
def test_series_tasks_build_each_law_once(run_task, monkeypatch, task, model):
    built, truncate = [], laws._IntensityLaw._truncate

    def counted(law):
        built.append(law.ROLE)
        truncate(law)
    monkeypatch.setattr(laws._IntensityLaw, "_truncate", counted)
    code, _ = run_task(task, replicates="200", horizon="1.0",
                       **_WORKLOAD_MODELS[model])
    assert code == 0
    assert sorted(built) == ["immigration", "offspring"]


def test_numerics_error_names_its_stage(tmp_path, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise NumericsError("doubling quadrature stalled")
    monkeypatch.setattr(kernel, "doubling_quadrature", stalled)
    extra = ("horizon = 2.0\nreplicates = 300\nseed = 42\n"
             "j_out = 16\nmin_prob = 2e-2")
    cfg = write(tmp_path, RECURRENT.format(task="compare", extra=extra,
                                           out=tmp_path / "out"))
    assert run_config(cfg) == 4
    err = capsys.readouterr().err
    assert "numeric failure in stage 'series'" in err
    assert "stalled" in err


def test_invariant_samples_not_power_of_two_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, RECURRENT.format(
        task="invariant", extra="j_out = 64\nsamples = 1000",
        out=tmp_path / "out"))
    assert run_config(cfg) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "samples" in err


def test_compare_task_and_seed_override(tmp_path):
    extra = ("horizon = 2.0\nreplicates = 2000\nseed = 42\n"
             "j_out = 16\nmin_prob = 2e-2\nz_max = 4.0")
    cfg = write(tmp_path, RECURRENT.format(task="compare", extra=extra,
                                           out=tmp_path / "out"))
    assert run_config(cfg) == 0
    base = (tmp_path / "out" / "sim.csv").read_text()
    assert run_config(cfg, out_dir=tmp_path / "out2", seed=43) == 0
    other = (tmp_path / "out2" / "sim.csv").read_text()
    assert base != other
    compare = (tmp_path / "out" / "compare.csv").read_text()
    assert compare.splitlines()[0] == "j,p_hat,se,p_kernel,z"


@pytest.mark.parametrize("extra", ["", "initial = 3", "min_prob = 0"])
def test_compare_at_horizon_zero_agrees_exactly(tmp_path, extra):
    # at t = 0 the kernel puts mass 1 on the initial state, where the null
    # deviation sqrt(p (1-p) / n) vanishes; the simulation agrees, so z = 0
    cfg = write(tmp_path, RECURRENT.format(
        task="compare", out=tmp_path / "out",
        extra=f"horizon = 0\nreplicates = 200\nseed = 1\nj_out = 16\n{extra}"))
    assert run_config(cfg) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()[1:]
    assert len(rows) == (17 if "min_prob" in extra else 1)
    assert all(float(row.split(",")[-1]) == 0.0 for row in rows)


def test_compare_over_no_state_fails(run_task):
    # min_prob above every kernel mass leaves no state to compare: the
    # verdict fails and names min_prob, where it passed over 0 states
    code, out = run_task("compare", truncation="200", replicates="10",
                         j_out="16", min_prob="2")
    assert code == 1
    summary = (out / "summary.txt").read_text()
    assert re.search(r"^compare .*min_prob 2\b.* FAIL$", summary, re.M)
    assert (out / "compare.csv").read_text() == "j,p_hat,se,p_kernel,z\n"


def test_manifest_rederives_tables(tmp_path):
    cfg = write(tmp_path, RECURRENT.format(
        task="rates", extra="t_min = 1e2\nt_max = 1e4\npoints = 7",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    manifest = tmp_path / "out" / "manifest.txt"
    assert run_config(str(manifest), out_dir=tmp_path / "out2") == 0
    first = (tmp_path / "out" / "rate_theorem1.csv").read_bytes()
    second = (tmp_path / "out2" / "rate_theorem1.csv").read_bytes()
    assert first == second


def test_strict_turns_capped_warning_into_failure(tmp_path):
    extra = ("horizon = 5.0\nreplicates = 300\nseed = 3\n"
             "initial = 1\nstate_cap = 2")
    cfg = write(tmp_path, RECURRENT.format(task="simulate", extra=extra,
                                           out=tmp_path / "out"))
    assert run_config(cfg) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "WARNING" in summary
    assert run_config(cfg, out_dir=tmp_path / "out2", strict=True) == 1


def test_list_families_stable(capsys):
    assert main(["list-families"]) == 0
    first = capsys.readouterr().out
    assert main(["list-families"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "stable-offspring(nu, c" in first
    assert "offspring-tail(nu)" in first
    assert "d/c = |gamma|" in first


def test_load_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))


def _kind(key):
    return next(keys[key][1] for keys in SCHEMA.values() if key in keys)


@pytest.mark.parametrize("key,task", [
    ("replicates", "simulate"), ("samples", "invariant"), ("j_out", "compare"),
    ("points", "rates"), ("truncation", "validate")])
def test_size_over_cap_exits_2(tmp_path, capsys, key, task):
    cap = _kind(key)[-1]
    value = 2 * cap if key == "samples" else cap + 1
    text = RECURRENT.format(task=task, extra=f"{key} = {value}",
                            out=tmp_path / "out")
    if key == "truncation":
        text = text.replace("truncation = 2000", f"truncation = {value}")
    assert run_config(write(tmp_path, text)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err


def test_caps_admit_the_defaults():
    # every default passes its own table entry
    for keys in SCHEMA.values():
        for key, (default, kind) in keys.items():
            if default is not None:
                _parse(kind, default)


def _config(out, task, **values):
    """A small valid g025 config of ``task`` with ``values`` set."""
    sections = {"model": {"nu": "0.5", "delta": "0.75", "truncation": "200"},
                "task": {"name": task}, "output": {"dir": str(out)}}
    for key, value in values.items():
        next(keys for name, keys in sections.items()
             if key in SCHEMA[name])[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def _exits_2_naming(path, out, key):
    err = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = run_config(path)
    assert code == 2
    assert time.perf_counter() - started < 1.0
    assert repr(key) in err.getvalue()
    assert not (Path(out) / "summary.txt").exists()


@pytest.mark.parametrize("task,key,value", [
    ("validate", "c", "inf"), ("validate", "kappa_immigration", "inf"),
    ("invariant", "j_out", "-1"), ("kernel", "t_list", "inf"),
    ("kernel", "s_list", "nan"), ("rates", "t_max", "inf"),
    ("rates", "t_min", "1e7"), ("lemmas", "lemmas", "5"),
    ("simulate", "initial", "-1"), ("kernel", "tol", "nan"),
    ("invariant", "residual_tol", "nan"), ("rates", "slope_tol", "nan"),
    ("compare", "min_prob", "nan"), ("invariant", "tau", "nan"),
    ("simulate", "horizon", "nan"), ("simulate", "horizon", "inf"),
    ("simulate", "state_cap", str(10 ** 7 + 1)), ("kernel", "t_list", ""),
    ("kernel", "s_list", ","), ("kernel", "tol", "-1"),
    ("invariant", "residual_tol", "-1e-9"), ("rates", "slope_tol", "-0.1"),
    ("rates", "rsq_min", "-0.5"), ("rates", "rsq_min", "1.5"),
    ("compare", "min_prob", "-1"), ("compare", "z_max", "0"),
    ("compare", "z_max", "-3"), ("rates", "t_max", "1e300"),
    ("lemmas", "t_max", "1e300"), ("kernel", "t_list", "1e300"),
    ("kernel", "t_list", "1,1e17"), ("invariant", "tau", "1e17")])
def test_out_of_table_value_exits_2(tmp_path, task, key, value):
    out = tmp_path / "out"
    path = write(tmp_path, _config(out, task, **{key: value}))
    _exits_2_naming(path, out, key)


def _refused(kind):
    """Strategies for texts that ``kind`` refuses."""
    refused = [st.sampled_from(["abc", "", "nan", "inf", "-inf", "1e999"])]
    if isinstance(kind, (range, tuple)) and isinstance(kind[0], int):
        refused += [st.integers(-2 ** 64, -1).map(str),
                    st.integers(kind[-1] + 1, 2 ** 64).map(str)]
    if isinstance(kind, Interval):
        if kind.hi < math.inf:
            refused.append(st.floats(kind.hi, 1e300, exclude_min=True)
                           .map(repr))
        if kind.lo > -math.inf:
            refused.append(st.floats(-1e300, kind.lo,
                                     exclude_max=not kind.open_lo).map(repr))
    if isinstance(kind, Numbers):
        refused.append(st.sampled_from([",", "1,nan", "-inf,2", "0.5, abc"]))
        if kind.each.hi < math.inf:
            refused.append(st.floats(kind.each.hi, 1e300, exclude_min=True)
                           .map(lambda v: f"0.5,{v!r}"))
    if isinstance(kind, frozenset):
        refused.append(st.integers(5, 99).map(str))
    return st.one_of(refused)


_TYPED = sorted(key for keys in SCHEMA.values()
                for key, (_, kind) in keys.items() if kind is not str)


@given(st.sampled_from(_TYPED).flatmap(
    lambda key: st.tuples(st.just(key), _refused(_kind(key)))))
def test_any_refused_value_exits_2(case):
    key, value = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "config.ini"
        path.write_text(_config(out, "validate", **{key: value}))
        _exits_2_naming(str(path), out, key)


# values at and past the edges of every kind in the schema: non-finite,
# negative, zero, tiny, huge, overflowing, lists, and no number at all
_WILD = ["nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "-1e300", "1e300",
         "1e-300", "1e999", str(10 ** 30), "abc", "", "1,nan", "0.5,2"]
_EDGES = (-1e300, -1.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 2.0, 1e300)
# sizes that keep a run of any task short unless a drawn key replaces them;
# a path runs to state_cap when immigration is huge (d = 1e300)
_SHORT = {"replicates": "200", "samples": "1024", "j_out": "32", "points": "7",
          "horizon": "1.0", "state_cap": "1000"}


def _admitted(kind):
    """Strategies for texts that ``kind`` admits: words, the low end of a
    count's range, and the edges within a number's range.  The caps admit
    runs of minutes (10^7 replicates, a compare at horizon 10^4), which no
    wall bound per example could hold, so no count is drawn near its cap."""
    if isinstance(kind, frozenset):
        return st.sets(st.sampled_from(sorted(kind)), min_size=1).map(",".join)
    if isinstance(kind, tuple) and isinstance(kind[0], str):
        return st.sampled_from(kind)
    if kind is int:
        return st.integers(-2 ** 70, 2 ** 70).map(str)
    if isinstance(kind, (range, tuple)):
        return st.sampled_from(kind[:4]).map(str)
    if isinstance(kind, Numbers):
        edges = [v for v in _EDGES if kind.each.lo <= v <= kind.each.hi]
        return st.lists(st.sampled_from(edges), min_size=1, max_size=3).map(
            lambda values: ",".join(map(repr, values)))
    edges = [repr(v) for v in _EDGES
             if not isinstance(kind, Interval) or kind.lo <= v <= kind.hi]
    return st.sampled_from(edges + ([kind] if isinstance(kind, str) else []))


_KEYS = sorted(key for name, keys in SCHEMA.items() if name != "output"
               for key in keys)


@settings(max_examples=200)
@given(st.sampled_from(SCHEMA["task"]["name"][1]),
       st.lists(st.sampled_from(_KEYS).flatmap(lambda key: st.tuples(
           st.just(key), _admitted(_kind(key)) | st.sampled_from(_WILD))),
           min_size=1, max_size=4).map(dict))
def test_any_generated_config_exits_with_a_documented_code(task, values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.ini"
        path.write_text(_config(Path(tmp) / "out", task, **{**_SHORT, **values}))
        err = io.StringIO()
        started = time.perf_counter()
        # extreme values overflow numpy on the way to a verdict or an exit
        # code; the CLI prints such warnings, where the suite raises them
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("default", RuntimeWarning)
            code = run_config(str(path))
        assert code in range(5)
        assert "Traceback" not in err.getvalue()
        assert time.perf_counter() - started < 5.0


@pytest.mark.parametrize("task", ["simulate", "compare"])
def test_stats_json_sim_totals(tmp_path, task):
    extra = ("horizon = 2.0\nreplicates = 1500\nseed = 17\n"
             "j_out = 16\nmin_prob = 2e-2\nz_max = 4.0")
    path = write(tmp_path, RECURRENT.format(task=task, extra=extra,
                                            out=tmp_path / "out"))
    assert run_config(path) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["task"] == task
    assert {"config", "model", "task", "simulate"} <= set(stats["stages_s"])
    cfg = load_config(path)
    expected = per_replicate_pmf(_sim_config(build_model(cfg["model"]),
                                             _values("task", cfg["task"])))
    assert stats["counters"]["sim.replicates"] == expected.replicates == 1500
    assert stats["counters"]["sim.events"] == expected.events
    assert stats["counters"]["sim.capped"] == expected.capped_count


def test_stats_json_written_by_every_task(tmp_path):
    path = write(tmp_path, RECURRENT.format(task="validate", extra="",
                                            out=tmp_path / "out"))
    assert run_config(path) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["task"] == "validate" and stats["counters"] == {}


def test_stats_json_flow_counters(tmp_path):
    # a rates run of g025 takes its 13 times from one closed-form flow call,
    # one lane wide, and marches nothing
    cfg = write(tmp_path, RECURRENT.format(
        task="rates", extra="t_min = 1e2\nt_max = 1e5\npoints = 13",
        out=tmp_path / "rates"))
    assert run_config(cfg) == 0
    counters = json.loads((tmp_path / "rates" / "stats.json").read_text())["counters"]
    assert counters["flow.closed_calls"] == 1
    assert counters["flow.closed_points"] == 13
    assert "flow.steps" not in counters
    # a default kernel run marches the flow once, four lanes wide, landing on
    # each of its 6 times; Dormand-Prince with first-same-as-last costs one
    # evaluation plus six per attempted step
    cfg = write(tmp_path, RECURRENT.format(task="kernel", extra="",
                                           out=tmp_path / "kernel"))
    assert run_config(cfg) == 0
    counters = json.loads((tmp_path / "kernel" / "stats.json").read_text())["counters"]
    assert counters["flow.calls"] == 1
    assert counters["flow.steps"] >= 6
    assert counters["flow.landings"] == 6
    assert counters["flow.rhs_evals"] == (
        counters["flow.calls"]
        + 6 * (counters["flow.steps"] + counters["flow.rejected"]))
    assert counters["flow.rhs_points"] == 4 * counters["flow.rhs_evals"]


# the indices of the conftest fixtures g025, gneg, gneg_pert and g025_pert_off
FIXTURE_MODELS = {
    "g025": {"nu": "0.5", "delta": "0.75"},
    "gneg": {"nu": "0.75", "delta": "0.5"},
    "gneg_pert": {"nu": "0.75", "delta": "0.5", "kappa_immigration": "1.0"},
    "g025_pert_off": {"nu": "0.5", "delta": "0.75", "kappa_offspring": "1.0"},
}


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity JSON does not define."""
    def refuse(constant):
        raise ValueError(f"stats.json holds {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name", sorted(FIXTURE_MODELS))
def test_stats_json_holds_no_nan_or_infinity(tmp_path, name):
    for task in ("kernel", "rates", "lemmas", "invariant"):
        out = tmp_path / task
        path = write(tmp_path, _config(out, task, truncation="2000",
                                       **FIXTURE_MODELS[name]), name=f"{task}.ini")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_config(path) == 0
        stats = _strict_json((out / "stats.json").read_text())
        assert stats["task"] == task


def test_invariance_where_F_rounds_to_one_exits_4(tmp_path, capsys):
    # at c = 1e300 on gneg's indices F(1; s) rounds to 1 on the check
    # circle, where log pi diverges: the run names that and exits 4, where it
    # wrote NaN into stats.json and failed its verdict on a NaN residual
    out = tmp_path / "out"
    path = write(tmp_path, _config(out, "invariant", nu="0.75", delta="0.5",
                                   c="1e300", d="2.5e299"))
    assert run_config(path) == 4
    err = capsys.readouterr().err
    assert "numeric failure in stage 'task'" in err and "rounds to 1" in err
    assert not (out / "stats.json").exists()
