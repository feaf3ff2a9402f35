"""Span tracer for the mbpilab layers, patched in from the benchmark's side.

``Tracer.patched()`` replaces the public functions of every layer module
(plus the few private names a metric is defined on) with recording
wrappers, at every site where they are bound: the defining module, every
other mbpilab module that imported the name, and the package namespace.
On exit every patched attribute is restored to the original object.

Each wrapped call records a span (name, start, end, parent span) in
compact arrays kept in memory.  Law evaluations (``_IntensityLaw.gf`` and
``gf_at_one_minus``) are far too frequent for spans; they are counted and
timed instead, and their time is charged to the enclosing span as child
time, so self times stay exact.  Self time of a span is its duration minus
the time of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "laws", "rvcalc", "kernel", "quadrature", "inversion",
          "invariants", "asymptotics", "sim")

# The backward-flow integrator behind solve_F's ODE route: private, but
# kernel.flow_s and kernel.flow_rhs_evals are defined on it.
FLOW = "kernel._rk45"
PRIVATE_SPANS = {"kernel": (FLOW.split(".")[1],)}

# Class methods wrapped as spans: (layer, class, methods), None meaning
# every public method.
CLASS_SPANS = (("rvcalc", "RVContext", None), ("sim", "AliasTable", ("__init__",)))

LAW_METHODS = ("gf", "gf_at_one_minus")

_QUAD_START = {"doubling_quadrature": "n0", "adaptive_quadrature": "initial_panels"}


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._layer_ids = []          # layer index per name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []              # frames [span index, name id, child seconds]
        self._depth = [0] * len(LAYERS)
        self.calls = defaultdict(int)         # by name
        self.total_s = defaultdict(float)     # by name
        self.self_s = defaultdict(float)      # by name
        self.outer_s = defaultdict(float)     # by layer, outermost spans only
        self.count = defaultdict(float)       # named counters
        self.path_events = array("q")
        self.solve_pairs = set()
        self._in_law = False
        self._patches = []            # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_ids.append(LAYERS.index(name.split(".", 1)[0]))
        return self._ids[name]

    def _span(self, name, fn, before=None):
        """Wrap ``fn`` so each call records a span.  ``before(args, kwargs)``
        may return ``(args, kwargs, after)``; ``after(result)`` then runs
        once the call returned."""
        nid = self._intern(name)
        layer = self._layer_ids[nid]
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if before is not None:
                args, kwargs, after = before(args, kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[2]
                if not depth[layer]:
                    self.outer_s[LAYERS[layer]] += dur
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def _law(self, method, fn, branching_cls):
        """Counting wrapper for a law-evaluation method.  Only the outermost
        law call is counted (gf_at_one_minus in series mode delegates to gf);
        its mode is resolved the way the law resolves "auto"."""
        stack = self._stack
        flow_id = self._intern(FLOW)
        count = self.count

        @functools.wraps(fn)
        def wrapper(law, *args, **kwargs):
            if self._in_law:
                return fn(law, *args, **kwargs)
            x = args[0] if args else next(iter(kwargs.values()))
            mode = kwargs.get("mode", args[1] if len(args) > 1 else "auto")
            resolved = mode
            if resolved == "auto":
                resolved = "closed" if law.closed_form else "series"
            if resolved not in ("closed", "series"):
                resolved = "other"
            points = np.size(x)
            if (method == "gf_at_one_minus" and isinstance(law, branching_cls)
                    and stack and stack[-1][1] == flow_id):
                count["kernel.flow_rhs_evals"] += 1
                count["kernel.flow_rhs_points"] += points
            self._in_law = True
            t0 = time.perf_counter()
            try:
                return fn(law, *args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._in_law = False
                count[f"laws.{resolved}_calls"] += 1
                count[f"laws.{resolved}_points"] += points
                count[f"laws.{resolved}_s"] += dur
                if stack:
                    stack[-1][2] += dur

        return wrapper

    # -- hooks that read arguments or results ---------------------------

    def _hooks(self, modules):
        hooks = {}
        kernel, quadrature = modules["kernel"], modules["quadrature"]

        solve_sig = inspect.signature(kernel.solve_F)

        def solve_before(args, kwargs):
            bound = solve_sig.bind(*args, **kwargs)
            model = bound.arguments["model"]
            law = getattr(model, "offspring", model)
            flow = (law.nu, law.scale, law.kappa, law.truncation_order,
                    float(bound.arguments["t"]))
            s = np.atleast_1d(np.asarray(bound.arguments["s"], dtype=complex))
            self.count["kernel.solve_points"] += s.size
            self.solve_pairs.update((flow, v) for v in s.tolist())
            return args, kwargs, None
        hooks["kernel.solve_F"] = solve_before

        for fname, start_key in _QUAD_START.items():
            hooks[f"quadrature.{fname}"] = self._quad_hook(
                inspect.signature(getattr(quadrature, fname)), start_key)

        def path_after(result):
            self.count["sim.events"] += result.events
            self.count["sim.capped"] += bool(result.capped)
            self.path_events.append(int(result.events))
        hooks["sim.simulate_path"] = lambda a, k: (a, k, path_after)

        cfs_sig = inspect.signature(modules["inversion"].coefficients_from_samples)

        def fft_before(args, kwargs):
            samples = cfs_sig.bind(*args, **kwargs).arguments["samples"]
            self.count["inversion.fft_points"] += np.size(samples)
            return args, kwargs, None
        hooks["inversion.coefficients_from_samples"] = fft_before

        asym = modules["asymptotics"]
        asym_layer = LAYERS.index("asymptotics")
        for attr, obj in vars(asym).items():
            if not self._wrappable(asym, attr, obj):
                continue
            params = inspect.signature(obj).parameters
            grid_key = next((k for k in ("t_grid", "x_grid") if k in params), None)
            if grid_key is None:
                continue
            hooks[f"asymptotics.{attr}"] = self._grid_hook(
                inspect.signature(obj), grid_key, asym_layer)
        return hooks

    def _quad_hook(self, sig, start_key):
        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            fun = bound.arguments["fun"]
            panels = [0]

            def counted(x):
                fx = fun(x)
                panels[0] += 1
                self.count["quadrature.integrand_values"] += np.size(fx)
                return fx
            bound.arguments["fun"] = counted
            n0 = int(bound.arguments[start_key])

            def after(result):
                # Levels n0, 2 n0, ..., n_final (doubling) or n0 panels plus
                # two per bisection (adaptive): both give
                # n_final = (evaluated + n0) / 2.
                self.count["quadrature.panels"] += panels[0]
                self.count["quadrature.final_panels"] += (panels[0] + n0) / 2
            return bound.args, bound.kwargs, after
        return before

    def _grid_hook(self, sig, grid_key, asym_layer):
        def before(args, kwargs):
            if not self._depth[asym_layer]:
                grid = sig.bind(*args, **kwargs).arguments.get(grid_key)
                if grid is not None:
                    self.count["asymptotics.grid_points"] += np.size(grid)
            return args, kwargs, None
        return before

    # -- patching ------------------------------------------------------

    @staticmethod
    def _wrappable(module, attr, obj):
        return (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and (not attr.startswith("_")
                     or attr in PRIVATE_SPANS.get(module.__name__.rsplit(".", 1)[1], ())))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = {layer: importlib.import_module(f"mbpilab.{layer}")
                   for layer in LAYERS}
        hooks = self._hooks(modules)
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if self._wrappable(module, attr, obj):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._span(name, obj, hooks.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "mbpilab" and not modname.startswith("mbpilab."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for layer, cls_name, methods in CLASS_SPANS:
            cls = getattr(modules[layer], cls_name)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and (
                        attr in methods if methods else not attr.startswith("_")):
                    self._patch(cls, attr, self._span(f"{layer}.{cls_name}.{attr}", obj))
        laws = modules["laws"]
        for method in LAW_METHODS:
            self._patch(laws._IntensityLaw, method,
                        self._law(method, vars(laws._IntensityLaw)[method],
                                  laws.BranchingLaw))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers and yield the (owner, attribute, original)
        list of what was patched; on exit restore every original."""
        self.install()
        patched = list(self._patches)
        try:
            yield patched
        finally:
            self.restore()

    # -- results -------------------------------------------------------

    def layer_table(self):
        """{layer: {"calls", "self_s"}} with law evaluations in ``laws``."""
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, calls in self.calls.items():
            row = table[name.split(".", 1)[0]]
            row["calls"] += calls
            row["self_s"] += self.self_s[name]
        for kind in ("closed", "series", "other"):
            table["laws"]["calls"] += int(self.count.get(f"laws.{kind}_calls", 0))
            table["laws"]["self_s"] += self.count.get(f"laws.{kind}_s", 0.0)
        return table

    def metrics(self):
        """Per-layer metrics {name: (value, unit)} of the recorded pass."""
        def tot(name):
            return self.total_s.get(name, 0.0)

        def calls(name):
            return self.calls.get(name, 0)

        def cnt(name):
            return self.count.get(name, 0.0)

        table = self.layer_table()
        solves = cnt("kernel.solve_points")
        panels = cnt("quadrature.panels")
        replicates = calls("sim.simulate_path")
        pmf_s = tot("sim.estimate_pmf")
        events = np.asarray(self.path_events, dtype=float)
        p50, p99 = np.percentile(events, [50, 99]) if events.size else (0.0, 0.0)
        m = {
            "kernel.solve_F_calls": (calls("kernel.solve_F"), "count"),
            "kernel.solve_unique_frac": (len(self.solve_pairs) / solves if solves else 0.0, "ratio"),
            "kernel.flow_s": (tot(FLOW), "s"),
            "kernel.flow_rhs_evals": (cnt("kernel.flow_rhs_evals"), "count"),
            "kernel.flow_rhs_points": (cnt("kernel.flow_rhs_points"), "count"),
            "kernel.exact_s": (tot("kernel.exact_R"), "s"),
            "kernel.segment_s": (tot("kernel.gf_segment_integral"), "s"),
            "kernel.rows_s": (tot("kernel.transition_rows"), "s"),
            "laws.build_s": (tot("laws.make_stable_offspring")
                             + tot("laws.make_stable_immigration"), "s"),
            "laws.series_calls": (cnt("laws.series_calls"), "count"),
            "laws.series_points": (cnt("laws.series_points"), "count"),
            "laws.series_s": (cnt("laws.series_s"), "s"),
            "laws.closed_calls": (cnt("laws.closed_calls"), "count"),
            "laws.closed_s": (cnt("laws.closed_s"), "s"),
            "quadrature.calls": (calls("quadrature.doubling_quadrature")
                                 + calls("quadrature.adaptive_quadrature"), "count"),
            "quadrature.s": (self.outer_s.get("quadrature", 0.0), "s"),
            "quadrature.panels": (panels, "count"),
            "quadrature.integrand_values": (cnt("quadrature.integrand_values"), "count"),
            "quadrature.useful_frac": (cnt("quadrature.final_panels") / panels if panels else 0.0, "ratio"),
            "inversion.calls": (calls("inversion.coefficients_from_samples"), "count"),
            "inversion.s": (self.outer_s.get("inversion", 0.0), "s"),
            "inversion.fft_points": (cnt("inversion.fft_points"), "count"),
            "invariants.extract_s": (tot("invariants.extract_measure"), "s"),
            "invariants.check_s": (tot("invariants.check_invariance"), "s"),
            "invariants.recurrence_s": (tot("invariants.series_coefficients"), "s"),
            "rvcalc.calls": (table["rvcalc"]["calls"], "count"),
            "rvcalc.s": (self.outer_s.get("rvcalc", 0.0), "s"),
            "asymptotics.grid_points": (cnt("asymptotics.grid_points"), "count"),
            "sim.replicates": (replicates, "count"),
            "sim.events": (cnt("sim.events"), "count"),
            "sim.events_p50": (float(p50), "count"),
            "sim.events_p99": (float(p99), "count"),
            "sim.path_s": (tot("sim.simulate_path"), "s"),
            "sim.setup_s": (self.self_s.get("sim.estimate_pmf", 0.0), "s"),
            "sim.alias_build_s": (tot("sim.AliasTable.__init__"), "s"),
            "sim.replicates_per_s": (replicates / pmf_s if pmf_s else 0.0, "1/s"),
            "sim.capped_frac": (cnt("sim.capped") / replicates if replicates else 0.0, "ratio"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (table[layer]["self_s"], "s")
        return m

    def dump(self, stem):
        """Write spans to ``<stem>.npz`` and per-name totals to ``<stem>.json``."""
        np.savez_compressed(
            f"{stem}.npz", names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
        by_name = {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                          "self_s": self.self_s[name]}
                   for name in sorted(self.calls)}
        with open(f"{stem}.json", "w") as fh:
            json.dump({"spans": len(self.span_start), "by_name": by_name,
                       "layers": self.layer_table(),
                       "counters": dict(sorted(self.count.items()))}, fh, indent=1)
