"""The package's value classes are plain records, and the package loads
without ``dataclasses``, ``inspect`` or ``hashlib``.

Each record keeps the equality, hash and repr of the dataclass it was:
``==`` and ``hash`` over the field tuple below (derived fields included),
``NotImplemented`` for another class, and assignment to a field refused.
The check context ``_Ctx`` counts identities on itself, so it stays
mutable and unhashable.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from orient_duality.algebra import CoeffRing, RingKind
from orient_duality.spaces import Composite, Diagonal, LinearEmbed, Permutation, Projection, Space
from orient_duality.verify import CheckConfig, CheckReport, _Ctx

X, Y, X2 = Space((1, 2)), Space((2, 1)), Space((1, 1, 2))
RING = CoeffRing(RingKind.UNIVERSAL, 3)
WITNESS = {"identity": "x"}

# (build, a different value of the same class, field tuple, repr): the
# fields and the repr text as the dataclasses gave them
CASES = {
    "CoeffRing": (
        lambda: CoeffRing(RingKind.UNIVERSAL, 3),
        CoeffRing(RingKind.UNIVERSAL, 4),
        (RingKind.UNIVERSAL, 3, ("b1", "b2"), (-1, -2)),
        "CoeffRing(kind=<RingKind.UNIVERSAL: 'universal'>, truncation=3, symbols=('b1', 'b2'), "
        "symbol_degrees=(-1, -2))",
    ),
    "Space": (lambda: Space((1, 2)), Y, ((1, 2),), "Space(factors=(1, 2))"),
    "Projection": (lambda: Projection(X, (1,)), Projection(X, (0,)), (X, (1,), Space((2,))), "proj(1): P1xP2 -> P2"),
    "LinearEmbed": (
        lambda: LinearEmbed(X, 1, 0),
        LinearEmbed(X, 1, 1),
        (X, 1, 0, Space((1, 0))),
        "embed(1,2): P1xP0 -> P1xP2",
    ),
    "Diagonal": (lambda: Diagonal(X, 0), Diagonal(X, 1), (X, 0, X2), "diag(0): P1xP2 -> P1xP1xP2"),
    "Permutation": (lambda: Permutation(X, (1, 0)), Permutation(X, (0, 1)), (X, (1, 0), Y), "perm(1,0): P1xP2 -> P2xP1"),
    "Composite": (
        lambda: Composite((Projection(Y, (0,)), Permutation(X, (1, 0)))),
        Composite((Projection(Y, (1,)), Permutation(X, (1, 0)))),
        ((Projection(Y, (0,)), Permutation(X, (1, 0))), X, Space((2,))),
        "proj(0);perm(1,0): P1xP2 -> P2",
    ),
    "CheckConfig": (
        lambda: CheckConfig(theories=(RingKind.ADDITIVE,), spaces=(X,), truncation=4),
        CheckConfig(theories=(RingKind.ADDITIVE,), spaces=(X,), truncation=4, seed=1),
        ((RingKind.ADDITIVE,), (X,), 4, 0, 4),
        "CheckConfig(theories=(<RingKind.ADDITIVE: 'additive'>,), spaces=(Space(factors=(1, 2)),), truncation=4, "
        "seed=0, samples=4)",
    ),
    "CheckReport": (
        lambda: CheckReport("V1-fgl-axioms", "additive", "P1xP2", None, identities=3),
        CheckReport("V1-fgl-axioms", "additive", "P1xP2", None),
        ("V1-fgl-axioms", "additive", "P1xP2", None, 3),
        "CheckReport(check='V1-fgl-axioms', theory='additive', space='P1xP2', witness=None, identities=3)",
    ),
    "_Ctx": (
        lambda: _Ctx("law", X, "rng", 2),
        _Ctx("law", X, "rng", 3),
        ("law", X, "rng", 2, 0),
        "_Ctx(law='law', space=Space(factors=(1, 2)), rng='rng', samples=2, identities=0)",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_records_keep_equality_hash_repr_and_immutability(name):
    build, other, fields, text = CASES[name]
    value = build()
    assert type(value).__name__ == name
    assert value == build() and not value != build()
    assert value != other and not value == other
    assert value.__eq__(Space((7,)) if name != "Space" else RING) is NotImplemented
    assert repr(value) == text
    if name == "_Ctx":  # counts identities on itself, as before
        assert type(value).__hash__ is None
        value.identities += 1
        assert value.identities == 1
        return
    assert hash(value) == hash(build()) == hash(fields)
    for field in ("kind", "factors", "keep", "source", "target", "perm", "parts", "seed", "witness", "identities"):
        if hasattr(value, field):
            with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
    assert value == build() and hash(value) == hash(fields)


def test_report_identities_stay_keyword_only():
    with pytest.raises(TypeError):
        CheckReport("V1-fgl-axioms", "additive", "P1", None, 3)
    failing = CheckReport("V1-fgl-axioms", "additive", "P1", WITNESS)
    with pytest.raises(TypeError, match="unhashable"):
        hash(failing)  # a dict witness, as before


IMPORT_PROBE = """
import sys
import orient_duality
from orient_duality import RingKind, Space, CheckConfig, run_suite
print(sorted(m for m in ("dataclasses", "inspect", "hashlib") if m in sys.modules))
run_suite(CheckConfig(theories=(RingKind.ADDITIVE,), spaces=(Space((1,)),), truncation=3), checks=["V2-orientation"])
print("hashlib" in sys.modules)
"""


def test_import_loads_no_dataclasses_inspect_or_hashlib():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, %r)\n%s" % (src, IMPORT_PROBE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split("\n")[:2] == ["[]", "True"]
