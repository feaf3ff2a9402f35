"""Batch experiment runner.

Configuration files are flat INI: a [model] section naming the law family
parameters, a [task] section selecting one of validate | kernel |
invariant | rates | lemmas | simulate | compare, and an optional [output]
section.  Every run writes comma-separated result tables, a manifest that
re-derives the tables bit-exactly, and a one-page summary of verdicts.

Exit codes: 0 all requested verdicts pass, 1 some verdict failed,
2 configuration parse error, 3 precondition violation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ModelError, NumericsError, PreconditionError
from . import asymptotics, invariants, kernel, laws, sim, telemetry
from .inversion import sample_count, suggest_radius


class ConfigError(Exception):
    """Malformed configuration (missing/unknown fields, bad values)."""


_MODEL_KEYS = {
    "offspring": "stable",
    "nu": None,
    "c": "1.0",
    "kappa_offspring": "0.0",
    "immigration": "stable",
    "delta": None,
    "d": "0.25",
    "kappa_immigration": "0.0",
    "truncation": str(laws.DEFAULT_TRUNCATION),
}

_TASK_KEYS = {
    "name": None,
    # kernel
    "t_list": "0.1,1,10,100,1000,10000",
    "s_list": "0,0.3,0.7,0.95",
    "tol": "1e-8",
    # invariant
    "j_out": "256",
    "radius": "auto",
    "samples": "16384",
    "tau": "1.0",
    "residual_tol": "1e-6",
    # rates / lemmas
    "s": "0.0",
    "t_min": "1e2",
    "t_max": "1e6",
    "points": "25",
    "slope_tol": "0.1",
    "rsq_min": "0.99",
    "lemmas": "1,2,3,4",
    # simulate / compare
    "initial": "0",
    "horizon": "5.0",
    "replicates": "10000",
    "seed": "20240801",
    "state_cap": "1000000",
    "min_prob": "1e-2",
    "z_max": "3.0",
}

_OUTPUT_KEYS = {"dir": "mbpilab-out"}

# Largest accepted value of each size key.  Each cap lies far above the
# defaults and every value the tests and the benchmark use, and bounds the
# memory or the time one run can ask for: the circle samples and the
# truncation set the array sizes of the series and FFT stages, j_out and
# points the rows of the tables, replicates the simulation time (its memory
# does not grow with the replicate count).
SIZE_CAPS = {
    "replicates": 10 ** 7,
    "samples": 2 ** 20,
    "j_out": 2 ** 16,
    "points": 1000,
    "truncation": 10 ** 5,
}


def _resolve_section(parser, name, defaults, path):
    if not parser.has_section(name):
        if all(v is not None for v in defaults.values()):
            return dict(defaults)
        raise ConfigError(f"{path}: missing required section [{name}]")
    resolved = dict(defaults)
    for key, value in parser.items(name):
        if key not in defaults:
            raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")
        resolved[key] = value
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise ConfigError(
            f"{path}: section [{name}] is missing required field(s): "
            + ", ".join(sorted(missing)))
    return resolved


def load_config(path: str) -> dict:
    """Parse and fully resolve a configuration file (defaults applied)."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read configuration file {path!r}")
    for section in parser.sections():
        if section not in ("model", "task", "output", "manifest"):
            raise ConfigError(f"{path}: unknown section [{section}]")
    model = _resolve_section(parser, "model", _MODEL_KEYS, path)
    task = _resolve_section(parser, "task", _TASK_KEYS, path)
    output = _resolve_section(parser, "output", _OUTPUT_KEYS, path)
    if task["name"] not in _TASK_RUNNERS:
        raise ConfigError(f"{path}: unknown task {task['name']!r} "
                          f"(expected one of {', '.join(_TASK_RUNNERS)})")
    return {"model": model, "task": task, "output": output}


def _floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}") from None


def _float(section, key):
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"field {key!r} must be a number, got "
                          f"{section[key]!r}") from None


def _int(section, key):
    try:
        return int(section[key])
    except ValueError:
        raise ConfigError(f"field {key!r} must be an integer, got "
                          f"{section[key]!r}") from None


def _size(section, key):
    """An integer size key, refused above its cap in SIZE_CAPS."""
    value = _int(section, key)
    if value > SIZE_CAPS[key]:
        raise ConfigError(f"field {key!r} = {value} exceeds its cap "
                          f"{SIZE_CAPS[key]}")
    return value


def build_model(model_cfg: dict) -> laws.ModelSpec:
    if model_cfg["offspring"] != "stable" or model_cfg["immigration"] != "stable":
        raise ConfigError("only the built-in 'stable' families are configurable")
    J = _size(model_cfg, "truncation")
    off = laws.make_stable_offspring(_float(model_cfg, "nu"),
                                     _float(model_cfg, "c"),
                                     _float(model_cfg, "kappa_offspring"), J)
    imm = laws.make_stable_immigration(_float(model_cfg, "delta"),
                                       _float(model_cfg, "d"),
                                       _float(model_cfg, "kappa_immigration"), J)
    return laws.ModelSpec(off, imm)


def _t_grid(task):
    t_min, t_max = _float(task, "t_min"), _float(task, "t_max")
    points = _size(task, "points")
    if not (t_min > 0 and t_max > t_min and points >= 3):
        raise ConfigError("need 0 < t_min < t_max and points >= 3")
    return np.logspace(np.log10(t_min), np.log10(t_max), points)


class Verdicts:
    def __init__(self):
        self.lines = []
        self.failed = False
        self.warnings = []

    def record(self, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        self.lines.append(f"{name} {detail} {status}".replace("  ", " ").strip())
        if not ok:
            self.failed = True

    def line(self, text, ok=True):
        self.lines.append(text)
        if not ok:
            self.failed = True

    def skip(self, name, reason):
        self.lines.append(f"{name} SKIP ({reason})")

    def warn(self, text):
        self.warnings.append(text)


def _task_validate(model, task, out, verdicts):
    rep_o = laws.validate_law(model.offspring)
    rep_i = laws.validate_law(model.immigration)
    (out / "validation.txt").write_text(rep_o.format() + "\n" + rep_i.format() + "\n")
    verdicts.record("offspring_valid", rep_o.ok)
    verdicts.record("immigration_valid", rep_i.ok)


def _task_kernel(model, task, out, verdicts):
    tol = _float(task, "tol")
    t_list, s_list = _floats(task["t_list"]), _floats(task["s_list"])
    if not (t_list and s_list):
        raise ConfigError("t_list and s_list need at least one value each")
    logp, R, err = kernel.compute_P_grid(model, s_list, t_list, method="quad")
    values = [kernel.GFValue(t=t, s=s, F=1.0 - R[a, b] if t else s, R=R[a, b],
                             P=np.exp(logp[a, b]), logP=logp[a, b],
                             error_estimate=err)
              for a, t in enumerate(t_list) for b, s in enumerate(s_list)]
    (out / "kernel.csv").write_text(kernel.gf_table_csv(values))
    if model.offspring.closed_form:
        exact = kernel.flow_on_grid(model, s_list, t_list, method="exact")
        worst = float(np.max(np.abs(R - exact) / np.maximum(np.abs(exact), 1e-300)))
        verdicts.record("kernel_oracle", worst <= tol,
                        f"max_rel_err {worst:.3e} (tol {tol:g})")
    else:
        verdicts.skip("kernel_oracle", "no closed form for this law")


def _task_invariant(model, task, out, verdicts):
    j_out = _size(task, "j_out")
    M = _size(task, "samples")
    if M < 4 or M & (M - 1):
        raise ConfigError(f"field 'samples' must be a power of two >= 4, got {M}")
    if task["radius"] == "auto":
        r = suggest_radius(j_out, M, target=1e-10)
    else:
        r = _float(task, "radius")
    if model.gamma < 0:
        model.require_transient_limit()
    measure = invariants.extract_measure(model, J_out=j_out, r=r, M=M)
    (out / "measure.csv").write_text(invariants.measure_csv(measure))
    floor = measure.series.coefficient_bound() + 1e-9
    nonneg = bool(np.all(measure.coefficients >= -floor))
    verdicts.record("coefficients_nonnegative", nonneg,
                    f"min {measure.coefficients.min():.3e}")
    if measure.kind == "distribution" and measure.tail_estimate is not None:
        defect = measure.normalization_defect()
        verdicts.record("normalization", defect <= 1e-8,
                        f"|sum+tail-1| = {defect:.3e}")
    tau = _float(task, "tau")
    tol = _float(task, "residual_tol")
    report = invariants.check_invariance(measure, model, tau)
    verdicts.record("invariance", report.ok(tol),
                    f"max residual {report.max_residual:.3e} (tol {tol:g}, "
                    f"tau {tau:g})")


def _task_rates(model, task, out, verdicts):
    grid = _t_grid(task)
    s = _float(task, "s")
    slope_tol = _float(task, "slope_tol")
    rsq_min = _float(task, "rsq_min")
    if model.gamma > 0:
        fit = asymptotics.rate_theorem1(model, s, grid, slope_tol=slope_tol,
                                        rsq_min=rsq_min)
        (out / "rate_theorem1.csv").write_text(asymptotics.rate_csv(fit))
        verdicts.line(fit.summary(), ok=fit.verdict)
    else:
        model.require_transient_limit()
        uniform = (0.0, 0.25, 0.5, 0.75)
        batch = uniform + ((s,) if s not in uniform else ())
        log_ratio = asymptotics._transient_log_ratio(model, batch, grid)
        fit = asymptotics.rate_theorem2(model, s, grid, slope_tol=slope_tol,
                                        rsq_min=rsq_min,
                                        log_ratio=log_ratio[:, batch.index(s)])
        (out / "rate_theorem2.csv").write_text(asymptotics.rate_csv(fit))
        verdicts.line(fit.summary(), ok=fit.verdict)
        cor = asymptotics.rate_corollary1(model, grid, slope_tol=max(slope_tol, 0.15),
                                          rsq_min=rsq_min, log_ratio=log_ratio[:, 0])
        (out / "rate_corollary1.csv").write_text(asymptotics.rate_csv(cor))
        verdicts.line(cor.summary(), ok=cor.verdict)
        ratio = asymptotics.uniformity_ratio(model, uniform, grid,
                                             log_ratio=log_ratio[:, :len(uniform)])
        ok = bool(np.all(ratio <= 10.0))
        verdicts.record("uniformity_ratio", ok, f"max {ratio.max():.2f} (bound 10)")


def _task_lemmas(model, task, out, verdicts):
    which = {tok.strip() for tok in task["lemmas"].split(",") if tok.strip()}
    grid = _t_grid(task)
    if "1" in which:
        rep = asymptotics.check_lemma1(model, (0.0, 0.3, 0.7), grid)
        (out / "lemma1.csv").write_text(asymptotics.lemma_csv(rep))
        verdicts.record("lemma1", rep.ok() and rep.details["decreasing"],
                        f"final deviation {rep.sup:.3e} (tol {rep.bound:g})")
    if "2" in which:
        rep = asymptotics.check_lemma2(model, _float(task, "s"), grid)
        (out / "lemma2.csv").write_text(asymptotics.lemma_csv(rep))
        verdicts.record("lemma2", rep.ok(),
                        f"sup remainder/log {rep.sup:.3f} (bound {rep.bound:g})")
    if "3" in which:
        spec = model.offspring.sv_spec
        if spec is None or spec.remainder is None:
            verdicts.skip("lemma3", "offspring tail spec has no remainder; "
                          "exactly-constant specs satisfy the statement trivially")
        else:
            rep = asymptotics.check_lemma3(spec, sigma=0.25, t_grid=grid)
            (out / "lemma3.csv").write_text(asymptotics.lemma_csv(rep))
            verdicts.record("lemma3", rep.ok(),
                            f"sup deviation/remainder {rep.sup:.3f}")
    if "4" in which:
        if model.gamma > 0:
            xs = 1.0 - np.logspace(-6, -1, 11)[::-1]
            rep = asymptotics.check_lemma4(model, xs)
            (out / "lemma4.csv").write_text(asymptotics.lemma_csv(rep))
            verdicts.record("lemma4", rep.ok(),
                            f"sup deviation/Lambda {rep.sup:.3f}")
        else:
            verdicts.skip("lemma4", "needs gamma > 0")


def _sim_config(model, task):
    return sim.SimConfig(model=model, horizon=_float(task, "horizon"),
                         replicates=_size(task, "replicates"),
                         seed=_int(task, "seed"), initial=_int(task, "initial"),
                         state_cap=_int(task, "state_cap"))


def _task_simulate(model, task, out, verdicts):
    config = _sim_config(model, task)
    with telemetry.stage("simulate"):
        result = sim.estimate_pmf(config)
    (out / "sim.csv").write_text(sim.sim_csv(result))
    verdicts.record("simulate", True,
                    f"n {result.n}, capped_fraction {result.capped_fraction:.2e}")
    if result.capped_fraction > 1e-3:
        verdicts.warn(f"capped_fraction {result.capped_fraction:.3e} exceeds 1e-3")
    return result


def _task_compare(model, task, out, verdicts):
    j_out = _size(task, "j_out")
    result = _task_simulate(model, task, out, verdicts)
    t = _float(task, "horizon")
    with telemetry.stage("series"):
        series = kernel.transition_probs(model, _int(task, "initial"), t,
                                         j_out, r=0.9,
                                         M=sample_count(j_out, 256),
                                         method="series")
    rows = sim.zscore_table(result, series.values, _float(task, "min_prob"))
    lines = ["j,p_hat,se,p_kernel,z"]
    for j, p_hat, se, p, z in rows:
        lines.append(f"{j},{p_hat:.17g},{se:.17g},{p:.17g},{z:.4f}")
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    z_max = _float(task, "z_max")
    worst = max((abs(row[4]) for row in rows), default=0.0)
    verdicts.record("compare", worst <= z_max,
                    f"max |z| {worst:.2f} over {len(rows)} states (bound {z_max:g})")


_TASK_RUNNERS = {"validate": _task_validate, "kernel": _task_kernel,
                 "invariant": _task_invariant, "rates": _task_rates,
                 "lemmas": _task_lemmas, "simulate": _task_simulate,
                 "compare": _task_compare}


def _manifest_text(cfg: dict, extra: dict) -> str:
    lines = []
    for section in ("model", "task", "output"):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            lines.append(f"{key} = {cfg[section][key]}")
        lines.append("")
    body = "\n".join(lines)
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    meta = [f"[manifest]", f"version = {__version__}",
            f"config_hash = {digest}"]
    for key in sorted(extra):
        meta.append(f"{key} = {extra[key]}")
    return body + "\n".join(meta) + "\n"


def run_config(path: str, out_dir=None, seed=None, strict: bool = False) -> int:
    """Execute one configuration file; returns the process exit code.

    A run that gets to its verdicts writes, besides the task's tables,
    ``manifest.txt``, ``summary.txt`` and ``stats.json``: the wall time of
    each stage and the counters the layers reported (see ``telemetry``)."""
    with telemetry.recording() as record:
        started = time.time()
        try:
            with telemetry.stage("config"):
                cfg = load_config(path)
        except (ConfigError, configparser.Error) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if seed is not None:
            cfg["task"]["seed"] = str(seed)
        out = Path(out_dir if out_dir is not None else cfg["output"]["dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
            with telemetry.stage("model"):
                model = build_model(cfg["model"])
            task = cfg["task"]
            verdicts = Verdicts()
            name = task["name"]
            with telemetry.stage("task"):
                _TASK_RUNNERS[name](model, task, out, verdicts)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except PreconditionError as exc:
            print(f"precondition violation: {exc}", file=sys.stderr)
            return 3
        except ModelError as exc:
            print(f"model error: {exc}", file=sys.stderr)
            return 3
        except NumericsError as exc:
            print(f"numeric failure in stage '{record.stage_of(exc)}': {exc}",
                  file=sys.stderr)
            return 4
    elapsed = time.time() - started
    (out / "manifest.txt").write_text(
        _manifest_text(cfg, {"elapsed_seconds": f"{elapsed:.3f}"}))
    (out / "stats.json").write_text(json.dumps(
        {"task": name, **record.as_dict()}, indent=1, sort_keys=True) + "\n")
    summary = list(verdicts.lines)
    for warning in verdicts.warnings:
        summary.append(f"WARNING {warning}")
        if strict:
            verdicts.failed = True
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    for line in summary:
        print(line)
    return 1 if verdicts.failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbpilab",
        description="Numerical laboratory for critical branching processes "
                    "with immigration")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a configuration file")
    run_p.add_argument("config", help="path to the INI configuration")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None,
                       help="seed override for simulation tasks")
    run_p.add_argument("--strict", action="store_true",
                       help="treat warnings as failures")
    sub.add_parser("list-families", help="describe the built-in law families")
    args = parser.parse_args(argv)
    if args.command == "list-families":
        print(laws.describe_families(), end="")
        return 0
    return run_config(args.config, out_dir=args.out, seed=args.seed,
                      strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
