"""mbpilab benchmark: closed-loop passes over CLI tasks, one task at a time.

Usage (from the repository root):

    python3 bench/run.py --workload {rates,crosscheck,invariant} --seed N \
        --seconds S --trace {0,1} [--smoke] [--out DIR]

A pass runs every task of the workload once through ``cli.run_config`` on
generated INI configs, in one process, with the simulator at the CLI
default ``threads = 1`` and BLAS at its default thread count.  Passes
repeat while the next one, judged by the last, would end within
``--seconds`` (at least one pass).

--trace 0 prints the end-to-end metrics: set-up time (median of fresh-
process probes), wall and CPU time of a pass in units of a reference
routine timed during that pass (median over the run's passes; see
bench/speed.py), and peak RSS.  The raw pass times are printed too.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of bench/tracer.py, the untraced per-task times and the tracing
overhead.  Either way every task run goes through bench/gate.py, and the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Everything a run writes goes to ``<out>/<workload>-seed<N>-trace<T>/``:
the INI configs, the CLI outputs with their manifest.txt, results.json
(metrics, environment, per-task records) and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import gate  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Seeds used while the benchmark and its bounds were tuned.  Re-check a
# performance claim on a seed outside this set.
DEV_SEEDS = (tuple(range(1, 13)) + (42,) + tuple(range(101, 106))
             + tuple(range(201, 206)) + tuple(range(301, 311))
             + tuple(range(401, 411)) + tuple(range(501, 511)))

SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "kref", "cpu_ref": "kref",
                    "peak_rss_mb": "MB"}


class LabMissing(RuntimeError):
    """The checkout holds no importable mbpilab sources."""


def import_lab():
    if not (SRC / "mbpilab" / "__init__.py").is_file():
        raise LabMissing(f"no mbpilab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    import mbpilab
    if Path(mbpilab.__file__).resolve().parent != (SRC / "mbpilab").resolve():
        raise LabMissing(f"mbpilab imported from {mbpilab.__file__}, not {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"mbpilab.{layer}")
    return mbpilab


# -- environment ----------------------------------------------------------

def openblas_state():
    """(threads, config string) of the OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = config = None
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None and threads is None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    threads = int(fn())
                fn = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and config is None:
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    config = fn().decode()
        if threads is not None:
            return threads, config
    return None, None


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git repo."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                                   "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def environment():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads, config = openblas_state()
    nproc = len(os.sched_getaffinity(0))
    commit, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "nproc": nproc,
        "blas_threads_exceed_nproc": threads is not None and threads > nproc,
        "git_commit": commit,
        "git_dirty": dirty,
        "machine": platform.machine(),
    }


# -- passes ---------------------------------------------------------------

def probe_setup(ini_paths):
    """Seconds a fresh interpreter needs to import mbpilab, parse the configs
    and build their models."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(SRC), *map(str, ini_paths)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_pass(lab, cfgs, out_root, meter=None):
    """One pass: every task of the workload once, timed task by task.

    With a Speedometer, the pass also records the mean reference time over
    the pass (ref_s), and the sampling time is taken out of each task's
    wall and CPU time."""
    tasks = []
    with meter.running() if meter else contextlib.nullcontext() as first:
        for label, model, task, ini in cfgs:
            out = out_root / label
            if out.exists():
                shutil.rmtree(out)
            log = io.StringIO()
            spent = (meter.spent_wall, meter.spent_cpu) if meter else (0.0, 0.0)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = lab.cli.run_config(str(ini), out_dir=str(out))
            except Exception:  # a crash counts as a failed task run
                code = None
                log.write(traceback.format_exc())
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if meter:
                wall -= meter.spent_wall - spent[0]
                cpu -= meter.spent_cpu - spent[1]
            tasks.append({"label": label, "model": model, "task": task,
                          "code": code, "wall_s": wall, "cpu_s": cpu,
                          "log": log.getvalue()})
    record = {"wall_s": sum(t["wall_s"] for t in tasks),
              "cpu_s": sum(t["cpu_s"] for t in tasks), "tasks": tasks}
    if meter:
        record["ref_samples_s"] = meter.samples[first:]
        record["ref_s"] = mean(record["ref_samples_s"])
    return record


def check_pass(lab, models, record, out_root, sim_reference):
    """Run the gate on every task of a finished pass (outside timing and
    tracing).  Every sim.csv of the run must equal the first one byte for
    byte: simulate and compare share one seed and one configuration."""
    for row in record["tasks"]:
        out = out_root / row["label"]
        problems, row["diagnostics"] = gate.check_task(
            lab, models[row["model"]], row["task"], out, row["code"])
        sim_csv = out / "sim.csv"
        if sim_csv.is_file():
            data = sim_csv.read_bytes()
            sim_reference.setdefault("bytes", data)
            if data != sim_reference["bytes"]:
                problems.append("sim.csv differs from the first run with the same seed")
        files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
        row["bytes_written"] = sum(p.stat().st_size for p in files)
        manifest = out / "manifest.txt"
        lines = manifest.read_text().splitlines() if manifest.is_file() else []
        row["config_hash"] = next((ln.split("=", 1)[1].strip() for ln in lines
                                   if ln.startswith("config_hash")), None)
        row["problems"] = problems
        if not problems:
            row.pop("log")


def task_times(record):
    return {name: sum(t["wall_s"] for t in record["tasks"] if t["task"] == name)
            for name in workloads.TIMED_TASKS}


# -- main -----------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.TASKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="7-point grids, 2k replicates, compare at j_out = 64")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        lab = import_lab()
    except (LabMissing, ImportError) as exc:
        print(f"bench: cannot import mbpilab: {exc}", file=sys.stderr)
        return 2

    run_dir = args.out / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          + ("-smoke" if args.smoke else ""))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "configs").mkdir(parents=True)
    out_root = run_dir / "out"
    cfgs = []
    for label, model, task, text in workloads.configs(args.workload, args.seed,
                                                      args.smoke):
        ini = run_dir / "configs" / f"{label}.ini"
        ini.write_text(text)
        cfgs.append((label, model, task, ini))
    env = environment()
    if env["blas_threads_exceed_nproc"]:
        print(f"bench: warning: BLAS uses {env['blas_threads']} threads on "
              f"{env['nproc']} CPUs", file=sys.stderr)
    models = {model: lab.cli.build_model(lab.cli.load_config(str(ini))["model"])
              for _, model, _, ini in cfgs}

    setup = []
    if args.trace == 0:
        setup = [probe_setup([c[3] for c in cfgs])
                 for _ in range(3 if args.smoke else SETUP_PROBES)]
    # Tracing passes are not speed-sampled: their times are per-layer
    # metrics, raw seconds.
    meter = None if args.trace else Speedometer()
    untraced, traced, sim_reference = [], [], {}
    started = last = time.perf_counter()
    while True:
        record = run_pass(lab, cfgs, out_root, meter)
        check_pass(lab, models, record, out_root, sim_reference)
        untraced.append(record)
        if args.trace:
            tracer = Tracer()
            with tracer.patched() as patches:
                record = run_pass(lab, cfgs, out_root)
            leaked = [f"{getattr(owner, '__name__', owner)}.{attr}"
                      for owner, attr, original in patches
                      if vars(owner)[attr] is not original]
            if leaked:
                raise RuntimeError(f"tracer left patched: {', '.join(leaked)}")
            check_pass(lab, models, record, out_root, sim_reference)
            traced.append((record, tracer))
        # Stop before a pass that, judged by the last one, would end after
        # --seconds.
        now = time.perf_counter()
        if (now - started) + (now - last) > args.seconds:
            break
        last = now

    records = untraced + [rec for rec, _ in traced]
    rows = [row for rec in records for row in rec["tasks"]]
    failures = [row for row in rows if row["problems"]]
    results = {
        "workload": args.workload, "seed": args.seed,
        "dev_seeds": list(DEV_SEEDS), "held_out_seed": args.seed not in DEV_SEEDS,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "environment": env,
        "attempted": len(rows), "failed": len(failures),
        "fail_frac": len(failures) / len(rows),
        "setup_probes_s": setup,
        "untraced_passes": [{"wall_s": rec["wall_s"], "cpu_s": rec["cpu_s"],
                             "ref_s": rec.get("ref_s"),
                             "ref_samples_s": rec.get("ref_samples_s"),
                             "task_wall_s": [t["wall_s"] for t in rec["tasks"]]}
                            for rec in untraced],
        "tasks": [{k: v for k, v in row.items() if k != "log"}
                  for row in records[0]["tasks"]],
        "failures": failures,
    }
    if args.trace == 0:
        metrics = {
            "setup_s": median(setup),
            "wall_ref": median([r["wall_s"] / r["ref_s"] for r in untraced]) / 1e3,
            "cpu_ref": median([r["cpu_s"] / r["ref_s"] for r in untraced]) / 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        results["raw"] = {
            "wall_s": median([r["wall_s"] for r in untraced]),
            "cpu_s": median([r["cpu_s"] for r in untraced]),
            "ref_ms": 1e3 * median([r["ref_s"] for r in untraced]),
        }
    else:
        metrics, units = layer_metrics(args.workload, untraced, traced, results)
        traced[0][1].dump(run_dir / "spans")
    results["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (run_dir / "results.json").write_text(json.dumps(results, indent=1, default=str))

    for row in failures:
        print(f"FAILED {row['label']}: {'; '.join(row['problems'])}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")
    for name, value in results.get("raw", {}).items():
        print(f"{'raw ' + name:32s} {value:>16.6g} {name.rsplit('_', 1)[1]}")
    print(f"{'fail_frac':32s} {results['fail_frac']:>16.6g} ratio "
          f"({len(failures)} of {len(rows)} task runs)")
    print(f"results: {run_dir / 'results.json'}")
    print(json.dumps({"correct": not failures, "attempted": len(rows),
                      "failed": len(failures), "metrics": results["metrics"]}))
    return 0


def layer_metrics(workload, untraced, traced, results):
    """Medians over traced passes of every per-layer metric, the untraced
    per-task times and the tracing overhead (traced minus untraced wall)."""
    per_pass = []
    for record, tracer in traced:
        m = tracer.metrics()
        m["cli.bytes_written"] = (sum(t["bytes_written"] for t in record["tasks"]), "B")
        per_pass.append(m)
    units = {name: unit for name, (_, unit) in per_pass[0].items()}
    metrics = {name: median([m[name][0] for m in per_pass]) for name in units}
    for name in workloads.TIMED_TASKS:
        metrics[f"task.{name}_s"] = median([task_times(r)[name] for r in untraced])
        units[f"task.{name}_s"] = "s"
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r, _ in traced])
                                   - median([r["wall_s"] for r in untraced]))
    units["trace.overhead_s"] = "s"
    layers = traced[0][1].layer_table()
    results["layers"] = layers
    results["trace_missing_layers"] = [
        layer for layer in workloads.LAYERS_AT_WORK[workload]
        if not layers[layer]["calls"]]
    if results["trace_missing_layers"]:
        print("bench: warning: no traced calls in layer(s) "
              + ", ".join(results["trace_missing_layers"]), file=sys.stderr)
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
