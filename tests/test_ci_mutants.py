"""The mutants of the CI steps "Checks can fail", "The kernel can fail"
and "Diagonal maps can fail" stay in their functions.

Each step writes a one-line mutant per ``run_mutant path fn old new``
line with ``tests/mutate.py``: it replaces the first ``old`` at or after
``def fn(`` in the file ``path``.  If ``old`` no longer occurs in ``fn``,
the step silently mutates a later function instead, so each anchor must
lie inside its own function.  The lines are read from the workflow itself.
"""

import ast
import re
import shlex
from pathlib import Path

from mutate import anchor

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _mutants():
    """(path, fn, old) of every ``run_mutant`` call in the workflow."""
    calls = re.findall(r"^\s*run_mutant (.+)$", WORKFLOW.read_text(), re.M)
    return [tuple(shlex.split(call)[:3]) for call in calls]


def test_workflow_runs_mutants():
    paths = [path for path, _, _ in _mutants()]
    assert paths.count("src/orient_duality/verify.py") >= 6
    assert paths.count("src/orient_duality/algebra.py") >= 2
    assert paths.count("src/orient_duality/gysin.py") >= 1
    assert paths.count("src/orient_duality/homodual.py") >= 1


def test_each_mutant_anchor_lies_in_its_own_function():
    for path, fn, old in _mutants():
        text = (ROOT / path).read_text()
        line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
        spans = {
            node.name: (line_starts[node.lineno - 1], line_starts[node.end_lineno])
            for node in ast.parse(text).body
            if isinstance(node, ast.FunctionDef)
        }
        start, end = spans[fn]
        assert text.index("\ndef %s(" % fn) + 1 == start, fn
        at = anchor(text, fn, old)  # as the step's mutate.py searches
        assert at + len(old) <= end, "anchor %r of %s lies past the function in %s" % (old, fn, path)
