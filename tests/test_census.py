"""``src/mbpilab`` holds what the command line runs.  A census drives
``cli.main`` under ``sys.setprofile``: every task on the four workload
models at small sizes, ``list-families``, a capped ``simulate`` that warns,
a config error and a numeric failure.  It fails on a ``def`` of the package
that no run enters and that ``ALLOWED`` does not name.  Each entry of
``ALLOWED`` gives the reason its function stays; an entry that a run
enters, that names no function, or whose reason names a ``bench/`` file
that no longer mentions the function fails too."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

from mbpilab import cli
from test_cli import _WORKLOAD_MODELS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mbpilab"

ALLOWED = {
    "kernel.solve_F":
        "bench/tracer.py hooks it; tests/test_bench_tracer.py asserts that "
        "every hook lands on a function",
    "quadrature.adaptive_quadrature":
        "bench/tracer.py hooks it; the tests' oracles hold "
        "doubling_quadrature against it",
    "sim.simulate_path":
        "bench/tracer.py hooks it; it is the scalar reference that the "
        "tests hold estimate_pmf against",
    "laws._IntensityLaw.scale": "bench/tracer.py's solve_F hook reads it",
    "laws._IntensityLaw.kappa":
        "bench/tracer.py's solve_F hook reads it, and bench/gate.py reads "
        "model.offspring.kappa on every task run",
    "laws._IntensityLaw.truncation_order": "bench/tracer.py's solve_F hook reads it",
    "laws._IntensityLaw._closed_gf_one_minus":
        "the closed form of gf and gf_at_one_minus, the reference that "
        "tests/oracles.py holds the truncated series against; the tasks "
        "read the tail spec instead",
    "laws._Truncated.__set_name__": "it runs at class creation, on import",
}

# Each task at sizes that keep the census well under a second
SMALL = {
    "validate": {},
    "kernel": {"t_list": "0.1,10"},
    "invariant": {"j_out": "64", "samples": "1024"},
    "rates": {"points": "7"},
    "lemmas": {"points": "7"},
    "simulate": {"replicates": "200", "horizon": "1"},
    "compare": {"replicates": "200", "horizon": "1", "j_out": "16"},
}


def defined_functions(sources):
    """'<module>.<qualified name>' of every def in ``sources``, a
    {module: text} map; the names are those of the functions' code objects
    (``co_qualname``)."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for module, text in sources.items():
        visit(ast.parse(text), module, "")
    return names


def entered_functions(run, package):
    """'<module>.<qualified name>' of every function defined under
    ``package`` that ``run()`` enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
            if Path(code.co_filename).parent == package}


def census_problems(defined, entered, allowed, bench_text):
    """What the census finds against ``allowed``; ``bench_text(path)`` is
    the text of a bench/ file that a reason names."""
    problems = [f"{name}: no run enters it"
                for name in sorted(defined - entered - allowed.keys())]
    for name, reason in sorted(allowed.items()):
        if name not in defined:
            problems.append(f"{name}: allowed, but not defined")
        elif name in entered:
            problems.append(f"{name}: allowed, but a run enters it")
        short = name.rsplit(".", 1)[-1]
        for path in re.findall(r"bench/\w+\.py", reason):
            if not re.search(rf"\b{re.escape(short)}\b", bench_text(path)):
                problems.append(f"{name}: allowed, but {path} no longer "
                                f"mentions {short}")
    return problems


def _ini(path, model, task, settings):
    lines = ["[model]", *(f"{k} = {v}" for k, v in model.items()),
             "[task]", f"name = {task}", *(f"{k} = {v}" for k, v in settings.items())]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_every_function_of_the_package_is_run_or_allowed(tmp_path):
    runs = [(["list-families"], (0,))]
    for label, model in _WORKLOAD_MODELS.items():
        for task, settings in SMALL.items():
            ini = _ini(tmp_path / f"{label}_{task}.ini",
                       {**model, "truncation": "200"}, task, settings)
            runs.append((["run", ini, "--out", str(tmp_path / label / task)], (0, 1)))
    capped = _ini(tmp_path / "capped.ini", {"nu": "0.5", "delta": "0.75",
                                            "truncation": "200"},
                  "simulate", {"replicates": "100", "state_cap": "1"})
    runs.append((["run", capped, "--out", str(tmp_path / "capped"), "--strict"], (1,)))
    overflow = _ini(tmp_path / "overflow.ini",
                    {"nu": "0.9", "c": "1e308", "delta": "0.95"}, "validate", {})
    runs.append((["run", overflow, "--out", str(tmp_path / "overflow")], (4,)))
    unknown = _ini(tmp_path / "unknown.ini", {"nu": "0.5", "delta": "0.75",
                                              "shape": "1"}, "validate", {})
    runs.append((["run", unknown, "--out", str(tmp_path / "unknown")], (2,)))
    codes = []
    entered = entered_functions(
        lambda: codes.extend(cli.main(argv) for argv, _ in runs), PACKAGE)
    assert [(argv, code) for (argv, expected), code in zip(runs, codes)
            if code not in expected] == []
    defined = defined_functions({path.stem: path.read_text()
                                 for path in PACKAGE.glob("*.py")})
    assert census_problems(defined, entered, ALLOWED,
                           lambda path: (ROOT / path).read_text()) == []


def test_census_flags_an_unused_def_and_stale_entries(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    source = ("def used():\n    return helper() + K().method()\n\n"
              "def helper():\n    return 1\n\n"
              "def unused():\n    return 2\n\n"
              "class K:\n"
              "    def method(self):\n"
              "        def inner():\n            return 3\n"
              "        return inner()\n\n"
              "    @property\n    def view(self):\n        return 4\n")
    (package / "mod.py").write_text(source)
    spec = importlib.util.spec_from_file_location("mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    entered = entered_functions(mod.used, package)
    assert entered == {"mod.used", "mod.helper", "mod.K.method",
                       "mod.K.method.<locals>.inner"}
    defined = defined_functions({"mod": source})
    assert defined == entered | {"mod.unused", "mod.K.view"}
    allowed = {"mod.K.view": "bench/tracer.py reads it",
               "mod.helper": "kept", "mod.gone": "deleted since"}
    bench = {"bench/tracer.py": "law.viewport = law.scale"}
    assert census_problems(defined, entered, allowed, bench.get) == [
        "mod.unused: no run enters it",
        "mod.K.view: allowed, but bench/tracer.py no longer mentions view",
        "mod.gone: allowed, but not defined",
        "mod.helper: allowed, but a run enters it"]
    # with the entry's binder in place, the allowed def passes
    bench["bench/tracer.py"] = "law.view"
    assert census_problems(defined, entered, {"mod.K.view": "bench/tracer.py reads it"},
                           bench.get) == ["mod.unused: no run enters it"]
