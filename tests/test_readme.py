"""The README's library example runs and prints what the README says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_documented_lines():
    section = README.read_text().split("## Library use\n", 1)[1]
    code, printed = re.match(r"\s*```python\n(.*?)```\n.*?```text\n(.*?)```", section, re.S).groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == printed
