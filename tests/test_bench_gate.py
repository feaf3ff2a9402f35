"""The benchmark's correctness gate (bench/gate.py) reads what the CLI
wrote and a few names of the package: ``series_coefficients(model, kind,
J)``, ``ModelSpec.has_closed_form``, the ``kind`` and ``r`` header lines of
measure.csv and the columns of sim.csv.  Running it here on real task runs
makes a refactor that breaks one of those bindings fail the test suite and
not only the benchmark's own runs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mbpilab
from mbpilab.cli import build_model, load_config, run_config

_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", Path(__file__).resolve().parents[1] / "bench" / "gate.py")
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

# g025 at the benchmark's truncation
G025 = """[model]
nu = 0.5
c = 1.0
delta = 0.75
d = 0.25
truncation = 2000

[task]
name = {task}
{settings}"""


@pytest.mark.parametrize("task, settings", [
    ("invariant", ""),
    ("simulate", "replicates = 2000\nhorizon = 5.0\nseed = 7\n"),
], ids=["invariant", "simulate"])
def test_gate_passes_a_default_run(tmp_path, task, settings):
    ini = tmp_path / "run.ini"
    ini.write_text(G025.format(task=task, settings=settings))
    out = tmp_path / "out"
    code = run_config(str(ini), out_dir=out)
    model = build_model(load_config(str(ini))["model"])
    problems, diagnostics = gate.check_task(mbpilab, model, task, out, code)
    assert code == 0 and problems == []
    if task == "invariant":
        assert np.isfinite(diagnostics["coef_excess_over_reported_bound"])
