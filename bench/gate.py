"""Correctness gate: decides whether one CLI task run counts as failed.

A task run fails when its exit code is not 0, when a verdict line of its
summary does not read PASS (inapplicable lemma checks are reported as SKIP
by design and are not verdicts), or when a task-specific check below fails.
Checks read only the files the CLI wrote, after the timed region.
"""

from __future__ import annotations

import numpy as np

# extract_measure integrates the log generating function at its default
# rtol = 1e-10 (the CLI does not override it).  A relative error of that
# size in the circle samples reaches coefficient j as rtol * G(r) * r**-j,
# a term that CoefficientSeries.coefficient_bound() (aliasing + roundoff)
# does not include.
EXTRACT_RTOL = 1e-10

# The bound column of measure.csv is printed with 3 significant digits.
BOUND_ROUNDING = 5e-3


def read_comment_csv(path):
    """({key: value} from '# key = value' lines, [row dicts])."""
    header, rows, columns = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, line.split(","))))
    return header, rows


def verdict_problems(out):
    summary = out / "summary.txt"
    if not summary.is_file():
        return ["no summary.txt"]
    lines = [ln for ln in summary.read_text().splitlines() if ln.strip()]
    problems = [f"verdict: {ln}" for ln in lines
                if not ln.endswith(" PASS") and " SKIP (" not in ln]
    if not any(ln.endswith(" PASS") for ln in lines):
        problems.append("no PASS verdict")
    return problems


def coefficient_check(lab, model, out):
    """Extracted invariant coefficients against the series recurrence.

    Returns (problems, excess) where excess is the largest
    |m_j - exact_j| / coefficient_bound_j: above 1 means the lab's reported
    bound alone does not cover the actual error.
    """
    header, rows = read_comment_csv(out / "measure.csv")
    j = np.array([int(r["j"]) for r in rows])
    m = np.array([float(r["m_j"]) for r in rows])
    bound = np.array([float(r["bound"]) for r in rows])
    radius = float(header["r"])
    exact = lab.invariants.series_coefficients(model, header["kind"], int(j[-1]))
    g_r = float(np.sum(exact * radius ** j.astype(float)))
    allowed = (bound * (1.0 + BOUND_ROUNDING)
               + EXTRACT_RTOL * g_r * radius ** (-j.astype(float)))
    diff = np.abs(m - exact)
    excess = float(np.max(diff / bound))
    worst = int(np.argmax(diff / allowed))
    problems = []
    if diff[worst] > allowed[worst]:
        problems.append(f"coefficient {worst}: |m - exact| = {diff[worst]:.3e} "
                        f"exceeds {allowed[worst]:.3e}")
    return problems, excess


def sim_mass_problems(out):
    header, rows = read_comment_csv(out / "sim.csv")
    total = sum(float(r["p_hat"]) for r in rows) + float(header["capped_fraction"])
    if abs(total - 1.0) > 1e-12:
        return [f"pmf + capped fraction = {total!r}, not 1"]
    return []


def check_task(lab, model, task, out, code):
    """(problems, diagnostics) for one finished task run."""
    problems = [] if code == 0 else [f"exit code {code}"]
    diagnostics = {}
    problems += verdict_problems(out)
    if code != 0:
        return problems, diagnostics
    canonical = model.has_closed_form and not model.offspring.kappa
    try:
        if task == "invariant" and canonical:
            found, excess = coefficient_check(lab, model, out)
            problems += found
            diagnostics["coef_excess_over_reported_bound"] = excess
        if task in ("simulate", "compare"):
            problems += sim_mass_problems(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, diagnostics
