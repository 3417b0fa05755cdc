"""Write a one-line mutant of a source file.

    python tests/mutate.py PATH FN OLD NEW

replaces the first OLD at or after the ``def`` of FN in the file PATH
with NEW.  FN names a top-level function, or a method as ``Class.name``.
The CI step "Mutants fail their tests" runs it in a copy of the tree,
once per ``run_mutant`` line; ``tests/test_ci_mutants.py`` checks that
each OLD lies inside its FN.
"""

import re
import sys


def def_offset(text: str, fn: str) -> int:
    """The offset of the line ``def fn(`` in ``text``; for ``Class.name``,
    the first ``    def name(`` after the line ``class Class``."""
    cls, _, name = fn.rpartition(".")
    start = re.search(r"^class %s\b" % re.escape(cls), text, re.M).start() if cls else 0
    return text.index("\n%sdef %s(" % ("    " if cls else "", name), start) + 1


def anchor(text: str, fn: str, old: str) -> int:
    """The offset of the first ``old`` at or after the ``def`` of ``fn``."""
    return text.index(old, def_offset(text, fn))


if __name__ == "__main__":
    path, fn, old, new = sys.argv[1:]
    with open(path) as f:
        text = f.read()
    at = anchor(text, fn, old)
    with open(path, "w") as f:
        f.write(text[:at] + new + text[at + len(old) :])
