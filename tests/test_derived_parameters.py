"""Values the code works out are not parameters.

A ring is fixed by its kind and truncation, a law by its ring and table,
and a report's status by its witness.  Each test
here checks that the derived value is the one the old, wider signatures
took, and that the wider signatures, which could build objects that
belong to no theory, are refused.
"""

import inspect
import random
import re

import pytest

from orient_duality import spaces, verify
from orient_duality.algebra import CoeffRing, RingKind
from orient_duality.errors import RingMismatchError, TruncationUnsoundError
from orient_duality.fgl import FGL, NilPoly, multiplicative_law, universal_law
from orient_duality.spaces import CohClass, HomClass, Space
from orient_duality.verify import CheckReport

# the symbol tables the per-kind factories built before the ring derived them
UNIVERSAL_SYMBOLS = {
    1: ((), ()),
    2: (("b1",), (-1,)),
    3: (("b1", "b2"), (-1, -2)),
    4: (("b1", "b2", "b3"), (-1, -2, -3)),
    5: (("b1", "b2", "b3", "b4"), (-1, -2, -3, -4)),
    6: (("b1", "b2", "b3", "b4", "b5"), (-1, -2, -3, -4, -5)),
    7: (("b1", "b2", "b3", "b4", "b5", "b6"), (-1, -2, -3, -4, -5, -6)),
    8: (("b1", "b2", "b3", "b4", "b5", "b6", "b7"), (-1, -2, -3, -4, -5, -6, -7)),
}


def _old_table(kind, n):
    if kind is RingKind.ADDITIVE:
        return (), ()
    if kind is RingKind.MULTIPLICATIVE:
        return ("beta",), (-1,)
    return UNIVERSAL_SYMBOLS[n]


@pytest.mark.parametrize("kind", list(RingKind), ids=lambda k: k.value)
def test_ring_derives_the_old_symbol_table(kind):
    for n in range(1, 9):
        ring = CoeffRing(kind, n)
        symbols, degrees = _old_table(kind, n)
        assert (ring.symbols, ring.symbol_degrees) == (symbols, degrees)
        # equality, hash and repr of the old four-field descriptor
        assert ring == CoeffRing(kind, n)
        assert hash(ring) == hash((kind, n, symbols, degrees))
        assert repr(ring) == "CoeffRing(kind=%r, truncation=%d, symbols=%r, symbol_degrees=%r)" % (
            kind, n, symbols, degrees)
        others = [CoeffRing(k, m) for k in RingKind for m in range(1, 9) if (k, m) != (kind, n)]
        assert ring not in others


def test_ring_refuses_restated_or_foreign_inputs():
    with pytest.raises(TypeError):
        CoeffRing(RingKind.ADDITIVE, 5, ("beta",), (-1,))
    with pytest.raises(TypeError):
        CoeffRing(RingKind.MULTIPLICATIVE, 5, (), ())
    with pytest.raises(ValueError, match="is not a RingKind"):
        CoeffRing("universal", 5)
    with pytest.raises(ValueError, match=">= 1"):
        CoeffRing(RingKind.UNIVERSAL, 0)
    assert not hasattr(CoeffRing, "for_kind")


@pytest.mark.parametrize("bad", [0, -2, True, False, 2.5, "3", None])
def test_ring_refuses_a_truncation_that_is_not_an_int_from_one(bad):
    message = r"^truncation bound %s is not an int >= 1$" % re.escape(repr(bad))
    for kind in RingKind:
        with pytest.raises(ValueError, match=message):
            CoeffRing(kind, bad)
    with pytest.raises(ValueError, match=message):
        multiplicative_law(bad)


def test_law_reads_its_truncation_from_its_ring():
    ring = CoeffRing.multiplicative(6)
    law = FGL(ring, {(1, 1): -ring.gen(0)})
    assert law.truncation == 6 and law.coeffs == multiplicative_law(6).coeffs
    # a law given by its logarithm: the point class past the ring's reach is refused
    log_law = FGL(universal_law(3).ring, memo={("log", None): universal_law(3).log()})
    assert log_law.truncation == 3
    with pytest.raises(TruncationUnsoundError, match="needs truncation >= 5"):
        log_law.pn_class(4)


def test_law_checks_its_table_once():
    ring = CoeffRing.multiplicative(4)
    beta = ring.gen(0)
    table = {(1, 1): -beta}
    with pytest.raises(TypeError, match="must be a dict"):
        FGL(ring, 4, table)  # the old (ring, truncation, table) order
    with pytest.raises(TypeError, match="must be a dict"):
        FGL(ring, 7)
    for key in ((1,), (1, 2, 3), "ab", (1.0, 1), (True, 1)):
        with pytest.raises(ValueError, match="is not a pair of ints"):
            FGL(ring, {key: beta})
    for key in ((0, 1), (1, -1), (2, 0)):
        with pytest.raises(ValueError, match=r"^law coefficient a\(%d,%d\) has an index below 1$" % key):
            FGL(ring, {key: beta})
    for value in (-1, None, CoeffRing.multiplicative(5).gen(0), CoeffRing.universal(4).gen(0)):
        with pytest.raises(RingMismatchError, match=r"a\(1,1\) is not an element"):
            FGL(ring, {(1, 1): value})


def test_report_status_follows_from_its_witness():
    assert CheckReport("V1-fgl-axioms", "additive", "P1", None).status == "pass"
    failing = CheckReport("V1-fgl-axioms", "additive", "P1", {"identity": "x"})
    assert failing.status == "fail" and failing.to_json_obj()["status"] == "fail"
    with pytest.raises(TypeError):
        CheckReport("V1-fgl-axioms", "additive", "P1", "fail", {"identity": "x"})
    with pytest.raises(TypeError):
        CheckReport("V1-fgl-axioms", "additive", "P1", "pass", None)
    with pytest.raises(TypeError):
        CheckReport("V1-fgl-axioms", "additive", "P1", status="pass", witness=None)


def test_check_context_reads_kind_and_ring_from_its_law():
    law = multiplicative_law(5)
    ctx = verify._Ctx(law, Space((1,)), random.Random(0), 1)
    assert ctx.kind is RingKind.MULTIPLICATIVE and ctx.ring is law.ring
    with pytest.raises(TypeError):
        verify._Ctx(RingKind.MULTIPLICATIVE, law, law.ring, Space((1,)), random.Random(0), 1)


def test_helpers_derive_bound_total_and_space():
    assert list(inspect.signature(NilPoly.from_series).parameters) == ["s", "nvars", "index"]
    assert list(inspect.signature(spaces.packed_pairs).parameters) == ["left", "right", "sign"]
    assert list(inspect.signature(spaces.contract).parameters) == ["big", "small", "keep", "match"]
    law = universal_law(5)
    lx = NilPoly.from_series(law.log(), 2, 0)
    assert lx.space == Space((5, 5)) and lx.terms[(2, 0)] == law.ring.gen(0)
    # contract lands on the keep factors of big's space, in keep's order
    ring = law.ring
    big = CohClass(Space((1, 2, 3)), ring, {(1, 2, 3): ring.gen(0), (0, 1, 2): ring.one()})
    small = HomClass(Space((2,)), ring, {(2,): ring.gen(1)})
    out = spaces.contract(big, small, (2, 0), (1,))
    assert out.space == Space((3, 1)) and out.terms == {(3, 1): ring.gen(0) * ring.gen(1)}
