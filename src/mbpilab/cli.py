"""Batch experiment runner.

Configuration files are flat INI: a [model] section naming the law family
parameters, a [task] section selecting one of validate | kernel |
invariant | rates | lemmas | simulate | compare, and an optional [output]
section.  Every run writes comma-separated result tables, a manifest that
re-derives the tables bit-exactly, and a one-page summary of verdicts.
``_table`` formats every table: ``# key = value`` lines (a ``verdict``
line is the verdict the summary records), a column line, and rows with
floats at ``.17g``.  The numerical modules return arrays.

Every key is accepted in every task.  ``SCHEMA`` gives each key its default
and its kind: every number must be finite; every integer but ``seed`` is a
count within a capped range (``samples`` a power of two, ``points`` at least
3, ``state_cap`` and ``initial`` at most 10^7); ``horizon`` is at most 10^4,
and ``t_list``, ``t_max`` and ``tau`` at most 10^16;
``tol``, ``residual_tol``, ``slope_tol`` and ``min_prob`` are at least 0,
``z_max`` above 0 and ``rsq_min`` in [0, 1]; a list holds 1 to 1000
numbers; ``lemmas`` names some of the lemmas 1-4.
A value outside its kind, or t_min >= t_max, exits 2 and names its key
before any stage computes.  Ranges a library call checks itself exit 3:
a negative time, |s| > 1, a radius outside (0, 1), zero replicates, a law
parameter out of its range.

Exit codes: 0 all requested verdicts pass, 1 some verdict failed,
2 configuration parse error, 3 precondition violation, 4 numeric failure
(a NumericsError or a float overflow).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ModelError, NumericsError, PreconditionError
from . import asymptotics, invariants, kernel, laws, sim, telemetry
from .inversion import sample_count, suggest_radius


class ConfigError(Exception):
    """Malformed configuration (missing/unknown fields, bad values)."""


def _resolve_section(parser, name, path):
    resolved = {key: default for key, (default, _) in SCHEMA[name].items()}
    if not parser.has_section(name):
        if None not in resolved.values():
            return resolved
        raise ConfigError(f"{path}: missing required section [{name}]")
    for key, value in parser.items(name):
        if key not in resolved:
            raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")
        resolved[key] = value
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise ConfigError(
            f"{path}: section [{name}] is missing required field(s): "
            + ", ".join(sorted(missing)))
    return resolved


def load_config(path: str) -> dict:
    """Parse and fully resolve a configuration file (defaults applied).

    Values stay the strings of the file; ``_values`` parses them."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read configuration file {path!r}")
    for section in parser.sections():
        if section not in ("model", "task", "output", "manifest"):
            raise ConfigError(f"{path}: unknown section [{section}]")
    return {name: _resolve_section(parser, name, path) for name in SCHEMA}


@dataclass(frozen=True)
class Interval:
    """A number kind: a finite number in [lo, hi], or (lo, hi] if open_lo."""
    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False


@dataclass(frozen=True)
class Numbers:
    """A list kind: 1 to max(_POINTS) comma-separated numbers of kind each."""
    each: Interval = Interval()


def _parse(kind, text: str):
    """``text`` as a value of ``kind`` (see SCHEMA); ValueError if it is not."""
    if kind is str:
        return text
    if isinstance(kind, frozenset):
        ids = {tok.strip() for tok in text.split(",") if tok.strip()}
        if not ids or not ids <= kind:
            raise ValueError(f"must list some of {', '.join(sorted(kind))}")
        return ids
    if isinstance(kind, tuple) and isinstance(kind[0], str):
        if text not in kind:
            raise ValueError(f"must be one of {', '.join(kind)}")
        return text
    if isinstance(kind, Numbers):
        values = [_parse(kind.each, tok) for tok in text.split(",") if tok.strip()]
        if not 0 < len(values) <= _POINTS[-1]:
            raise ValueError(f"must list 1 to {_POINTS[-1]} numbers")
        return values
    if kind is int or isinstance(kind, (range, tuple)):
        value = int(text)
        if kind is not int and value not in kind:
            raise ValueError(f"must be one of {kind[0]}, {kind[1]}, ..., "
                             f"{kind[-1]}")
        return value
    if text == kind:  # the word that may stand in for the number
        return text
    value = float(text)
    iv = kind if isinstance(kind, Interval) else Interval()
    lo, hi, open_lo = iv.lo, iv.hi, iv.open_lo
    if not (math.isfinite(value) and value <= hi
            and (value > lo if open_lo else value >= lo)):
        ops = ((">" if open_lo else ">=", lo), ("<=", hi))
        raise ValueError(("must be a finite number " + " and ".join(
            f"{op} {v:g}" for op, v in ops if math.isfinite(v))).rstrip())
    return value


def _values(section: str, raw: dict) -> dict:
    """One loaded section, each value parsed by its kind in SCHEMA."""
    values = {}
    for key, text in raw.items():
        try:
            values[key] = _parse(SCHEMA[section][key][1], text)
        except ValueError as exc:
            raise ConfigError(f"field {key!r} = {text!r}: {exc}") from None
    return values


def build_model(model_cfg: dict) -> laws.ModelSpec:
    """The model of a loaded [model] section."""
    m = _values("model", model_cfg)
    return laws.stable_model(m["nu"], m["c"], m["delta"], m["d"],
                             m["kappa_offspring"], m["kappa_immigration"],
                             m["truncation"])


def _t_grid(task):
    return np.logspace(np.log10(task["t_min"]), np.log10(task["t_max"]),
                       task["points"])


def _table(path, header, row_format, columns, comments):
    """Write ``path``: a ``# key = value`` line per pair of ``comments``, the
    ``header`` line, then row k of the equal-length ``columns`` filled into
    ``row_format``.  Each column is formatted as Python scalars (one
    ``tolist`` call): format() on numpy scalars gives the same text, slower."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    lines = [f"# {key} = {value}" for key, value in comments]
    lines += [header] + [row_format.format(*row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


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
    tol, t_list, s_list = task["tol"], task["t_list"], task["s_list"]
    logp, R, err = kernel.compute_P_grid(model, s_list, t_list, method="quad")
    t, s = np.broadcast_arrays(np.asarray(t_list)[:, None], s_list)
    F, P = np.where(t == 0, s, 1.0 - R), np.exp(logp)  # F(0; s) = s
    columns = (t, s.real, s.imag, F.real, F.imag, P.real, P.imag,
               np.full(R.shape, err))
    _table(out / "kernel.csv", "t,s_re,s_im,F_re,F_im,P_re,P_im,err",
           "{:.17g}," * 7 + "{:.3g}", [c.ravel() for c in columns], ())
    exact = kernel.flow_on_grid(model, s_list, t_list, method="closed")
    worst = float(np.max(np.abs(R - exact) / np.maximum(np.abs(exact), 1e-300)))
    verdicts.record("kernel_oracle", worst <= tol,
                    f"max_rel_err {worst:.3e} (tol {tol:g})")


def _task_invariant(model, task, out, verdicts):
    j_out, M, r = task["j_out"], task["samples"], task["radius"]
    if r == "auto":
        r = suggest_radius(j_out, M)
    measure = invariants.extract_measure(model, J_out=j_out, r=r, M=M)
    m, bound = measure.coefficients, measure.series.coefficient_bound()
    _table(out / "measure.csv", "j,m_j,bound", "{},{:.17g},{:.3g}",
           (np.arange(m.size), m, bound),
           [("J_out", j_out), ("M", M), ("gamma", model.gamma),
            ("kind", measure.kind), ("r", r)])
    floor = bound + 1e-9
    nonneg = bool(np.all(m >= -floor))
    verdicts.record("coefficients_nonnegative", nonneg, f"min {m.min():.3e}")
    defect = measure.normalization_defect()
    if defect is not None:
        verdicts.record("normalization", defect <= 1e-8,
                        f"|sum+tail-1| = {defect:.3e}")
    tau, tol = task["tau"], task["residual_tol"]
    report = invariants.check_invariance(measure, model, tau)
    for term, value in report.components.items():
        telemetry.put(f"invariance.{term}", value)
    verdicts.record("invariance", report.ok(tol),
                    f"max residual {report.max_residual:.3e} (tol {tol:g}, "
                    f"tau {tau:g})")


def _task_rates(model, task, out, verdicts):
    grid = _t_grid(task)
    s, slope_tol, rsq_min = task["s"], task["slope_tol"], task["rsq_min"]
    fits, ratio = asymptotics.rate_fits(model, s, grid, slope_tol=slope_tol,
                                        rsq_min=rsq_min)
    for fit in fits:
        _table(out / f"rate_{fit.label}.csv", "t,error,predicted_envelope,ratio",
               "{:.17g},{:.17g},{:.17g},{:.17g}",
               (fit.t_grid, fit.errors, fit.envelope, fit.envelope_ratio),
               [("label", fit.label),
                ("fitted_slope", f"{fit.fitted_slope:.17g}"),
                ("predicted_slope", f"{fit.predicted_slope:.17g}"),
                ("r_squared", f"{fit.r_squared:.17g}"),
                ("verdict", "pass" if fit.verdict else "fail")])
        verdicts.record(fit.label, fit.verdict, f"slope {fit.fitted_slope:.3f} "
                        f"(predicted {fit.predicted_slope:.3f})")
    if ratio is not None:
        verdicts.record("uniformity_ratio", bool(np.all(ratio <= 10.0)),
                        f"max {ratio.max():.2f} (bound 10)")


def _task_lemmas(model, task, out, verdicts):
    which = task["lemmas"]
    grid = _t_grid(task)

    def report(rep, variable, ok, detail):
        _table(out / f"{rep.name}.csv", f"{variable},statistic", "{:.17g},{:.17g}",
               (rep.grid, rep.values),
               [("check", rep.name), ("bound", f"{rep.bound:.17g}"),
                ("sup", f"{rep.sup:.17g}"), ("verdict", "pass" if ok else "fail")])
        verdicts.record(rep.name, ok, detail)

    if "1" in which:
        rep = asymptotics.check_lemma1(model, (0.0, 0.3, 0.7), grid)
        report(rep, "s", rep.ok() and rep.details["decreasing"],
               f"final deviation {rep.sup:.3e} (tol {rep.bound:g})")
    if "2" in which:
        rep = asymptotics.check_lemma2(model, task["s"], grid)
        report(rep, "t", rep.ok(),
               f"sup remainder/log {rep.sup:.3f} (bound {rep.bound:g})")
    if "3" in which:
        spec = model.offspring.sv_spec
        if not spec.kappa:
            verdicts.skip("lemma3", "offspring tail spec has no remainder; "
                          "exactly-constant specs satisfy the statement trivially")
        else:
            rep = asymptotics.check_lemma3(spec, sigma=0.25, t_grid=grid)
            report(rep, "t", rep.ok(), f"sup deviation/remainder {rep.sup:.3f}")
    if "4" in which:
        if model.gamma > 0:
            xs = 1.0 - np.logspace(-6, -1, 11)[::-1]
            rep = asymptotics.check_lemma4(model, xs)
            report(rep, "x", rep.ok(), f"sup deviation/Lambda {rep.sup:.3f}")
        else:
            verdicts.skip("lemma4", "needs gamma > 0")


def _sim_config(model, task):
    return sim.SimConfig(model=model, horizon=task["horizon"],
                         replicates=task["replicates"], seed=task["seed"],
                         initial=task["initial"], state_cap=task["state_cap"])


def _task_simulate(model, task, out, verdicts):
    config = _sim_config(model, task)
    with telemetry.stage("simulate"):
        result = sim.estimate_pmf(config)
    pmf, n = result.pmf, result.n
    _table(out / "sim.csv", "j,p_hat,se,n", "{},{:.17g},{:.17g},{}",
           (np.arange(pmf.size), pmf, result.se, np.full(pmf.size, n)),
           [("seed", config.seed), ("config_hash", config.digest()),
            ("rng", sim.RNG_SCHEME),
            ("capped_fraction", f"{result.capped_fraction:.17g}")])
    verdicts.record("simulate", True,
                    f"n {result.n}, capped_fraction {result.capped_fraction:.2e}")
    if result.capped_fraction > 1e-3:
        verdicts.warn(f"capped_fraction {result.capped_fraction:.3e} exceeds 1e-3")
    return result


def _task_compare(model, task, out, verdicts):
    j_out = task["j_out"]
    result = _task_simulate(model, task, out, verdicts)
    with telemetry.stage("series"):
        series = kernel.transition_grid(model.truncated(), [task["initial"]],
                                        [task["horizon"]], j_out, r=0.9,
                                        M=sample_count(j_out, 256),
                                        clamp=True).row((0, 0))
    columns = sim.zscore_table(result, series.values, task["min_prob"])
    _table(out / "compare.csv", "j,p_hat,se,p_kernel,z",
           "{},{:.17g},{:.17g},{:.17g},{:.4f}", columns, ())
    z, z_max = columns[-1], task["z_max"]
    if not z.size:
        verdicts.record("compare", False, f"no state has kernel mass >= "
                        f"min_prob {task['min_prob']:g}: nothing compared")
        return
    worst = float(np.max(np.abs(z)))
    verdicts.record("compare", worst <= z_max,
                    f"max |z| {worst:.2f} over {z.size} states (bound {z_max:g})")


_TASK_RUNNERS = {"validate": _task_validate, "kernel": _task_kernel,
                 "invariant": _task_invariant, "rates": _task_rates,
                 "lemmas": _task_lemmas, "simulate": _task_simulate,
                 "compare": _task_compare}

_POINTS = range(3, 1001)
_STATES = range(10 ** 7 + 1)
_NONNEGATIVE = Interval(0.0)
_TIME = Interval(hi=1e16)

# Every config key: its default text (None where the key is required) and
# its kind.  A kind is float (a finite number), an Interval (a number in
# it), int or str (any integer or text), Numbers (1 to max(_POINTS) numbers,
# comma-separated), a tuple of words (one of them), a frozenset of
# words (a comma-separated list of some of them), a word (it, or a finite
# number), or a range or tuple of integers (a count, one of them).  The caps
# bound the memory or time one run can ask for: samples and truncation size
# the series and FFT arrays, j_out, points and the lists the tables,
# replicates and horizon the simulation time, state_cap the simulated pmf.
# _TIME caps the task times where the backward flow still integrates; at
# 10^300 its step size underflows, which would read as a numeric failure.
SCHEMA = {
    "model": {
        "offspring": ("stable", ("stable",)),
        "nu": (None, float),
        "c": ("1.0", float),
        "kappa_offspring": ("0.0", float),
        "immigration": ("stable", ("stable",)),
        "delta": (None, float),
        "d": ("0.25", float),
        "kappa_immigration": ("0.0", float),
        "truncation": (str(laws.DEFAULT_TRUNCATION), range(10 ** 5 + 1)),
    },
    "task": {
        "name": (None, tuple(_TASK_RUNNERS)),
        # kernel
        "t_list": ("0.1,1,10,100,1000,10000", Numbers(_TIME)),
        "s_list": ("0,0.3,0.7,0.95", Numbers()),
        "tol": ("1e-8", _NONNEGATIVE),
        # invariant
        "j_out": ("256", range(2 ** 16 + 1)),
        "radius": ("auto", "auto"),
        "samples": ("16384", tuple(2 ** k for k in range(2, 21))),
        "tau": ("1.0", _TIME),
        "residual_tol": ("1e-6", _NONNEGATIVE),
        # rates / lemmas
        "s": ("0.0", float),
        "t_min": ("1e2", float),
        "t_max": ("1e6", _TIME),
        "points": ("25", _POINTS),
        "slope_tol": ("0.1", _NONNEGATIVE),
        "rsq_min": ("0.99", Interval(0.0, 1.0)),
        "lemmas": ("1,2,3,4", frozenset("1234")),
        # simulate / compare
        "initial": ("0", _STATES),
        "horizon": ("5.0", Interval(hi=1e4)),
        "replicates": ("10000", range(10 ** 7 + 1)),
        "seed": ("20240801", int),
        "state_cap": ("1000000", _STATES),
        "min_prob": ("1e-2", _NONNEGATIVE),
        "z_max": ("3.0", Interval(0.0, open_lo=True)),
    },
    "output": {"dir": ("mbpilab-out", str)},
}


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
                if seed is not None:
                    cfg["task"]["seed"] = str(seed)
                task = _values("task", cfg["task"])
                if not 0 < task["t_min"] < task["t_max"]:
                    raise ConfigError("fields 't_min' and 't_max' need "
                                      "0 < t_min < t_max")
                out = Path(out_dir if out_dir is not None
                           else cfg["output"]["dir"])
                try:
                    out.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise ConfigError(f"cannot create output directory "
                                      f"{str(out)!r}: {exc.strerror}") from None
        except (ConfigError, configparser.Error) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            with telemetry.stage("model"):
                model = build_model(cfg["model"])
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
        except (NumericsError, OverflowError) as exc:
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
        print(laws.FAMILY_NOTES, end="")
        return 0
    return run_config(args.config, out_dir=args.out, seed=args.seed,
                      strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
