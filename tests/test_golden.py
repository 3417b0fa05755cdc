"""Pinned outputs: the sha256 of the stdout of fixed CLI commands.

``tests/pins.json`` is the one list of pinned runs.  Each entry names a
run (``id``, the test id here), its ``argv`` after ``orient-duality``,
the ``sha256`` of the bytes it prints and ``why`` it is pinned.  The
digests pin the exact bytes the calculator prints, so a change that only
means to make it faster cannot alter an answer unnoticed.  Here every
run goes through ``cli.main`` in-process; CI runs the same entries
through the installed entry point.  A run with ``--format json`` must
also print JSON that re-serialises to itself.

A deliberate change of output updates the entry's ``sha256`` in the
manifest and says why in the change.  Failing reports are pinned apart,
in ``tests/test_failing_reports.py``.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from orient_duality.cli import main

HERE = Path(__file__).parent
PINS = json.loads((HERE / "pins.json").read_text())


@pytest.mark.parametrize("argv,digest", [(p["argv"], p["sha256"]) for p in PINS], ids=[p["id"] for p in PINS])
def test_golden_stdout(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        # the JSON is written term by term and must re-serialise to itself
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_pins_are_well_formed():
    ids = [pin["id"] for pin in PINS]
    assert len(set(ids)) == len(ids)
    for pin in PINS:
        assert set(pin) == {"id", "argv", "sha256", "why"}, pin["id"]
        assert re.fullmatch(r"[0-9a-f]{64}", pin["sha256"]), pin["id"]
        assert isinstance(pin["argv"], list) and all(isinstance(a, str) for a in pin["argv"]), pin["id"]
        assert pin["why"].strip() and "\n" not in pin["why"], pin["id"]
    argvs = [tuple(pin["argv"]) for pin in PINS]
    assert len(set(argvs)) == len(argvs)
    # CI reads its digests from the manifest; none may drift back into the workflow
    workflow = (HERE.parent / ".github" / "workflows" / "tier1.yml").read_text()
    assert not re.search(r"[0-9a-fA-F]{64}", workflow)
