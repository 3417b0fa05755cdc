"""The benchmark's contract with the package.

``perfbench/tracer.py`` wraps package functions by name and methods through
their own class's ``__dict__``.  A traced method that moves into a base
class, or a traced function that is renamed, makes ``Tracer().install()``
fail; this test catches that on every Python version the suite runs on.
The tracer also wraps each ``verify.CHECKS`` entry in a span and sets the
cell's op id around the call, so an entry must run its whole check inside
that call: the spans of the work must carry the cell's op id.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io
from tracer import Tracer
tracer = Tracer()
tracer.install()
from orient_duality import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--theory", "multiplicative", "--space", "P1xP1", "--samples", "1"])
assert code == 0, code
for name in ("spaces.coh_mul", "spaces.pullback", "homodual.cap", "fgl.apply_law"):
    assert tracer.stats.get(name, [0])[0] > 0, name
# each check runs inside its own call, so the work it does carries its cell's op id
ops = {(name, op) for _sid, name, _t0, _t1, _parent, op in tracer.spans}
for name in ("gysin.pushforward_coh", "homodual.cap"):
    assert (name, "V6-first-projection|multiplicative|P1xP1") in ops, name
for number in range(1, 17):
    assert tracer.stats.get("verify.V%d" % number, [0])[0] > 0, number
"""


def test_tracer_installs_and_records():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
