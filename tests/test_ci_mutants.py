"""The mutants of the CI step "Mutants fail their tests" stay in their
functions and name their tests.

The step writes a one-line mutant per ``run_mutant path fn old new test
[pytest args]`` line with ``tests/mutate.py``: it replaces the first
``old`` at or after the ``def`` of ``fn`` (a function, or a method as
``Class.name``) in the file ``path``, then runs the named test.  If
``old`` no longer occurs in ``fn``, the step silently mutates a later
function instead, so each anchor must lie inside its own function or
method.  The lines are read from the workflow itself.
"""

import ast
import re
import shlex
from pathlib import Path

from mutate import anchor, def_offset

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _mutants():
    """The arguments of every ``run_mutant`` call in the workflow."""
    calls = re.findall(r"^\s*run_mutant (.+)$", WORKFLOW.read_text(), re.M)
    return [shlex.split(call) for call in calls]


def _spans(text: str) -> dict:
    """(start, end) offsets of each top-level function and each method of a
    top-level class, keyed ``name`` or ``Class.name``."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    tree = ast.parse(text)
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [
        ("%s.%s" % (cls.name, node.name), node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]
    return {name: (line_starts[node.lineno - 1], line_starts[node.end_lineno]) for name, node in defs}


def test_workflow_runs_mutants():
    assert WORKFLOW.read_text().count("run_mutant() {") == 1
    paths = [args[0] for args in _mutants()]
    assert paths.count("src/orient_duality/verify.py") >= 6
    assert paths.count("src/orient_duality/algebra.py") >= 3
    assert paths.count("src/orient_duality/gysin.py") >= 1
    assert paths.count("src/orient_duality/homodual.py") >= 1
    assert paths.count("src/orient_duality/fgl.py") >= 1


def test_each_mutant_names_its_test():
    for args in _mutants():
        assert len(args) >= 5, args
        assert args[4].startswith("tests/test_") and (ROOT / args[4]).is_file(), args


def test_each_mutant_anchor_lies_in_its_own_function():
    for path, fn, old, *_ in _mutants():
        text = (ROOT / path).read_text()
        start, end = _spans(text)[fn]
        assert def_offset(text, fn) == start, fn
        at = anchor(text, fn, old)  # as the step's mutate.py searches
        assert at + len(old) <= end, "anchor %r of %s lies past the function in %s" % (old, fn, path)


def test_record_mutant_is_run():
    # the frozen-record base must be unable to take an assignment unnoticed
    fns = [(args[0], args[1], args[2]) for args in _mutants()]
    assert ("src/orient_duality/algebra.py", "Record.__setattr__", "raise AttributeError") in fns


def test_anchors_find_methods():
    text = "class A:\n    def f(self):\n        return 1\n\n\nclass B:\n    def f(self):\n        return 1\n"
    assert _spans(text)["B.f"] == (def_offset(text, "B.f"), len(text))
    assert anchor(text, "B.f", "return 1") == text.rindex("return 1")
    assert anchor(text, "A.f", "return 1") == text.index("return 1")
