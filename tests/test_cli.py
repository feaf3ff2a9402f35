import json

import numpy as np
import pytest

from mbpilab import rate_theorem2
from mbpilab.cli import (SIZE_CAPS, _MODEL_KEYS, _TASK_KEYS, _sim_config,
                         build_model, load_config, main, run_config)
from mbpilab.cli import ConfigError
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


def test_theorem2_wrong_pairing_exits_3(tmp_path):
    cfg = write(tmp_path, TRANSIENT.format(task="rates", d="0.3", extra=(
        "t_min = 1e2\nt_max = 1e4\npoints = 7"), out=tmp_path / "out"))
    assert run_config(cfg) == 3


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
    # 0.75); its theorem-2 column must match a fit of s = 0.3 alone.  The
    # family carries an immigration-tail remainder, so rho(t) stays far above
    # the roundoff floor eps * T(t) of the cancellation T(t) + log P(t; s).
    cfg = write(tmp_path, TRANSIENT.format(
        task="rates", d="0.25\nkappa_immigration = 1.0",
        extra="s = 0.3\nt_min = 1e2\nt_max = 1e5\npoints = 13",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    lines = (tmp_path / "out" / "rate_theorem2.csv").read_text().splitlines()
    errors = [float(line.split(",")[1]) for line in lines
              if line and line[0].isdigit()]
    model = build_model(load_config(cfg)["model"])
    fit = rate_theorem2(model, 0.3, np.logspace(2, 5, 13))
    assert errors == pytest.approx(fit.errors, rel=1e-12)


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


def test_invariant_task(tmp_path):
    cfg = write(tmp_path, RECURRENT.format(
        task="invariant",
        extra="j_out = 256\nsamples = 8192\ntau = 1.0\nresidual_tol = 1e-6",
        out=tmp_path / "out"))
    assert run_config(cfg) == 0
    assert (tmp_path / "out" / "measure.csv").exists()
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "invariance" in summary and "normalization" in summary


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


@pytest.mark.parametrize("key,task", [
    ("replicates", "simulate"), ("samples", "invariant"), ("j_out", "compare"),
    ("points", "rates"), ("truncation", "validate")])
def test_size_over_cap_exits_2(tmp_path, capsys, key, task):
    value = 2 ** 30 if key == "samples" else SIZE_CAPS[key] + 1
    text = RECURRENT.format(task=task, extra=f"{key} = {value}",
                            out=tmp_path / "out")
    if key == "truncation":
        text = text.replace("truncation = 2000", f"truncation = {value}")
    assert run_config(write(tmp_path, text)) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err


def test_caps_admit_the_defaults():
    defaults = {**_MODEL_KEYS, **_TASK_KEYS}
    for key, cap in SIZE_CAPS.items():
        assert int(defaults[key]) <= cap


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
                                             cfg["task"], 1, None))
    assert stats["counters"]["sim.replicates"] == expected.replicates == 1500
    assert stats["counters"]["sim.events"] == expected.events
    assert stats["counters"]["sim.capped"] == expected.capped_count


def test_stats_json_written_by_every_task(tmp_path):
    path = write(tmp_path, RECURRENT.format(task="validate", extra="",
                                            out=tmp_path / "out"))
    assert run_config(path) == 0
    stats = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert stats["task"] == "validate" and stats["counters"] == {}
