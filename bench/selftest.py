"""The benchmark's own tests, in smoke mode.

Run from the repository root:  python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's test suite: each case runs
benchmark passes, which take tens of seconds in all.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, out, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_its_unit(tmp_path, workload, trace, kind):
    done = bench(ROOT, tmp_path, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    record = json.loads(next(tmp_path.glob("*/results.json")).read_text())
    env = record["environment"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc",
                "git_commit", "git_dirty", "blas_threads_exceed_nproc"):
        assert key in env
    for row in record["tasks"]:
        assert row["config_hash"]
        ini = tmp_path / f"{workload}-seed7-trace{trace}-smoke" / "configs" / f"{row['label']}.ini"
        assert ini.is_file()


@pytest.fixture(scope="module")
def lab():
    return run.import_lab()


@pytest.mark.parametrize("workload", sorted(workloads.TASKS))
def test_traced_pass_patches_every_site_and_restores(lab, tmp_path, workload):
    cfgs = []
    for label, model, task, text in workloads.configs(workload, 7, smoke=True):
        ini = tmp_path / f"{label}.ini"
        ini.write_text(text)
        cfgs.append((label, model, task, ini))
    modules = [m for name, m in sys.modules.items()
               if name == "mbpilab" or name.startswith("mbpilab.")]
    tracer = Tracer()
    with tracer.patched() as patches:
        originals = {id(original) for _, _, original in patches}
        unpatched = [f"{m.__name__}.{attr}" for m in modules
                     for attr, obj in vars(m).items() if id(obj) in originals]
        record = run.run_pass(lab, cfgs, tmp_path / "out")
    assert not unpatched
    assert all(row["code"] == 0 for row in record["tasks"])
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} left patched"
    layers = tracer.layer_table()
    idle = [layer for layer in workloads.LAYERS_AT_WORK[workload]
            if not layers[layer]["calls"]]
    assert not idle, f"no traced calls in {idle}"
    # The split the workloads were chosen for: the flow integrator carries
    # the rates task; series evaluation plus simulated paths carry
    # crosscheck; neither simulator nor series runs elsewhere.
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    wall = {task: sum(t["wall_s"] for t in record["tasks"] if t["task"] == task)
            for task in workloads.TIMED_TASKS}
    if workload == "crosscheck":
        assert metrics["sim.replicates"] == 2 * workloads.SMOKE["replicates"]
        assert (metrics["laws.series_s"] + metrics["sim.path_s"]
                > 0.5 * record["wall_s"])
    else:
        assert metrics["sim.replicates"] == 0 and metrics["laws.series_calls"] == 0
    if workload == "rates":
        assert metrics["kernel.flow_s"] > 0.5 * wall["rates"]


def test_speedometer_samples_and_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    meter = Speedometer()
    with meter.running() as first:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    assert first == 0 and len(meter.samples) >= 4
    assert meter.spent_wall == pytest.approx(sum(meter.samples))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, tmp_path / "out", "invariant", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
