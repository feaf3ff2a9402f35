"""The README's library example runs against the current API: the fenced
``python`` block under ``## Library example`` is executed as it stands."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    section = README.read_text().split("## Library example", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue().count("\n") == 4
