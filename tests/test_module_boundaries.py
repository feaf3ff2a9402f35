"""No module of the package reaches into another one's private names: a name
with a leading underscore is imported and read only in the module that
defines it.  No module but ``cli`` formats a result table: the numerical
layers return arrays, and ``cli`` writes every table.  No module but
``inversion`` calls numpy's FFT: coefficients come from its one inversion
primitive."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mbpilab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_uses(module, source):
    """'<module>: <other>.<name>' for every private name of another package
    module that ``source`` (the text of ``module``) imports or reads as an
    attribute of an imported module."""
    tree = ast.parse(source)
    bound, uses = {}, []      # local name -> package module it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mbpilab" and parts[-1] in MODULES:
                    bound[alias.asname or alias.name] = parts[-1]
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0 and not name.startswith("mbpilab"):
                continue
            source_module = name.rsplit(".", 1)[-1] if name else None
            for alias in node.names:
                if source_module in MODULES and _private(alias.name):
                    uses.append(f"{source_module}.{alias.name}")
                elif source_module in (None, "mbpilab") and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = ast.unparse(node.value)
            if owner in bound:
                uses.append(f"{bound[owner]}.{node.attr}")
    return [f"{module}: {use}" for use in uses
            if use.split(".")[0] != module]


def test_scan_finds_both_kinds_of_reach():
    source = ("from . import asymptotics as asy, kernel, __version__\n"
              "import mbpilab.sim\n"
              "from .laws import ModelSpec, _binomials\n"
              "from .cli import _own\n"
              "x = asy._helper(kernel.log_limit, _own, y._z)\n"
              "n = mbpilab.sim._samplers, mbpilab.sim.AliasTable, kernel.__name__\n")
    assert sorted(private_uses("cli", source)) == [
        "cli: asymptotics._helper", "cli: laws._binomials", "cli: sim._samplers"]
    assert private_uses("sim", "from .sim import _x\n") == []


def test_no_module_reads_another_modules_private_names():
    uses = [use for path in sorted(PACKAGE.glob("*.py"))
            for use in private_uses(path.stem, path.read_text())]
    assert uses == []


def float_formats(source):
    """'f-string' or 'format string' for every .17g format spec in
    ``source``: the spec of an f-string field, or a replacement field of a
    string constant (as str.format reads it)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FormattedValue) and node.format_spec:
            spec = "".join(str(part.value) for part in node.format_spec.values
                           if isinstance(part, ast.Constant))
            if ".17g" in spec:
                found.append("f-string")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.search(r"\{[^{}]*:[^{}]*\.17g\}", node.value)):
            found.append("format string")
    return found


def test_float_scan_finds_both_kinds_of_format():
    source = ('a = f"{x:.17g},{y:.3g}"\n'
              'b = "{},{:.17g}".format(j, v)\n'
              'c = f"{x!r:>30.17g}" + "{0:.3g}"\n'
              '"""A docstring may name .17g, as may {x: .17g braces."""\n')
    assert sorted(float_formats(source)) == [
        "f-string", "f-string", "format string"]


def test_only_cli_formats_tables():
    formatting = sorted(path.stem for path in PACKAGE.glob("*.py")
                        if float_formats(path.read_text()))
    assert formatting == ["cli"]


def fft_uses(source):
    """'numpy.fft.<name>' for every attribute of numpy.fft that ``source``
    reads or imports, through any alias of numpy or of numpy.fft."""
    tree = ast.parse(source)
    numpy, fft, uses = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.fft" and alias.asname:
                    fft.add(alias.asname)
                elif alias.name.split(".")[0] == "numpy":
                    numpy.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if node.module == "numpy.fft":
                    uses.append(f"numpy.fft.{alias.name}")
                elif node.module == "numpy" and alias.name == "fft":
                    fft.add(alias.asname or "fft")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner in fft or owner in {f"{name}.fft" for name in numpy}:
                uses.append(f"numpy.fft.{node.attr}")
    return uses


def test_fft_scan_finds_every_spelling():
    source = ("import numpy as np\n"
              "import numpy.fft as F\n"
              "from numpy import fft as ft, linalg\n"
              "from numpy.fft import irfft\n"
              "a = np.fft.fft(x) + F.rfft(x) + ft.ifft(x)\n"
              "b = np.linalg.norm(x), linalg.fft, fft.fft(x), np.fft\n")
    assert sorted(fft_uses(source)) == [
        "numpy.fft.fft", "numpy.fft.ifft", "numpy.fft.irfft", "numpy.fft.rfft"]
    assert fft_uses("import numpy\ny = numpy.fft.fft(x)\n") == ["numpy.fft.fft"]


def test_only_inversion_calls_the_fft():
    calling = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if fft_uses(path.read_text()))
    assert calling == ["inversion"]
