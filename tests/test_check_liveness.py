"""Every check runs: the number of identities each cell compares, pinned.

A check that silently compares nothing still reports ``pass``, and a
passing report has the same bytes whether or not the check ran.  So this
test pins ``CheckReport.identities`` for every cell of three theories x
P1, P2, P1xP1 and P2xP0xP1 with two samples.  A check that skips a
shape, draws no sample or returns at once changes a count here.

V1, V13 and V14 keep their verdicts in the law's memo: the first cell
that needs a verdict compares its identities, and a cell that reads the
verdict from the memo counts 0 (V1 after P1; V13 and V14 on P1xP1, whose
n = 1 verdict P1 built; on P2xP0xP1 only n = 0 is new, and V14 compares
nothing for n = 0).  The counts do not depend on the theory.
"""

from orient_duality.algebra import RingKind
from orient_duality.spaces import Space
from orient_duality.verify import CHECK_IDS, CheckConfig, run_suite

ALL = (RingKind.ADDITIVE, RingKind.MULTIPLICATIVE, RingKind.UNIVERSAL)
SPACES = (Space((1,)), Space((2,)), Space((1, 1)), Space((2, 0, 1)))

# check -> identities compared on P1, P2, P1xP1, P2xP0xP1, in every theory
COUNTS = {
    "V1-fgl-axioms": (4, 0, 0, 0),
    "V2-orientation": (3, 3, 4, 5),
    "V3-pbt-roundtrip": (7, 13, 13, 19),
    "V4-divisor-normalization": (7, 7, 13, 13),
    "V5-coh-projection": (8, 10, 18, 24),
    "V6-first-projection": (8, 10, 18, 24),
    "V7-second-projection": (16, 20, 36, 48),
    "V8-transposition": (8, 8, 8, 8),
    "V9-diagonal-counit": (1, 1, 1, 1),
    "V10-poincare-roundtrip": (6, 8, 10, 14),
    "V11-duality-transport": (6, 13, 29, 63),
    "V12-projection-recursion": (5, 7, 9, 26),
    "V13-identity-decomposition": (2, 3, 0, 1),
    "V14-diamond-squares": (32, 99, 0, 0),
    "V15-up-then-down": (2, 2, 6, 14),
    "V16-product-calculus": (14, 15, 19, 22),
}


def test_identities_per_cell():
    reports = run_suite(CheckConfig(theories=ALL, spaces=SPACES, truncation=4, samples=2))
    assert all(r.status == "pass" for r in reports)
    got = {(r.check, r.theory, r.space): r.identities for r in reports}
    want = {
        (cid, kind.value, space.render()): n
        for cid in CHECK_IDS
        for kind in ALL
        for space, n in zip(SPACES, COUNTS[cid])
    }
    assert got == want
