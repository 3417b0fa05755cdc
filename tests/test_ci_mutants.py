"""The mutants of the CI step "Checks can fail" stay in their functions.

That step writes a one-line mutant of ``verify.py`` per ``run_mutant fn
old new`` line: it replaces the first ``old`` at or after ``def fn(``.  If
``old`` no longer occurs in ``fn``, the step silently mutates a later
function instead, so each anchor must lie inside its own function.  The
lines are read from the workflow itself.
"""

import ast
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
VERIFY = ROOT / "src" / "orient_duality" / "verify.py"


def _mutants():
    """(fn, old) of every ``run_mutant`` call in the workflow."""
    calls = re.findall(r"^\s*run_mutant (.+)$", WORKFLOW.read_text(), re.M)
    return [tuple(shlex.split(call)[:2]) for call in calls]


def test_workflow_runs_mutants():
    assert len(_mutants()) >= 6


def test_each_mutant_anchor_lies_in_its_own_function():
    text = VERIFY.read_text()
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    spans = {
        node.name: (line_starts[node.lineno - 1], line_starts[node.end_lineno])
        for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef)
    }
    for fn, old in _mutants():
        start, end = spans[fn]
        assert text.index("\ndef %s(" % fn) + 1 == start, fn
        at = text.index(old, start - 1)  # as the step's mutate.py searches
        assert at + len(old) <= end, "anchor %r of %s lies past the function" % (old, fn)
