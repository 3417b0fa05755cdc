"""Write a one-line mutant of a source file.

    python tests/mutate.py PATH FN OLD NEW

replaces the first OLD at or after ``def FN(`` in the file PATH with NEW.
The CI steps "Checks can fail", "The kernel can fail" and "Diagonal maps
can fail" run it in a copy of the tree, once per ``run_mutant`` line;
``tests/test_ci_mutants.py`` checks that each OLD lies inside its FN.
"""

import sys


def anchor(text: str, fn: str, old: str) -> int:
    """The offset of the first ``old`` at or after ``def fn(`` in ``text``."""
    return text.index(old, text.index("\ndef %s(" % fn))


if __name__ == "__main__":
    path, fn, old, new = sys.argv[1:]
    with open(path) as f:
        text = f.read()
    at = anchor(text, fn, old)
    with open(path, "w") as f:
        f.write(text[:at] + new + text[at + len(old) :])
