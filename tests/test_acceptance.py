"""Acceptance suite: one test per shipping criterion, one status line each.

Every check is an exact polynomial identity (zero tolerance); the only
numeric assertions are the per-criterion wall-clock budgets.
"""

import contextlib
import json
import time

import pytest

from orient_duality.algebra import RingKind
from orient_duality.cli import main
from orient_duality.fgl import (
    additive_law,
    law_for,
    multiplicative_law,
    universal_law,
)
from orient_duality.gysin import kernel
from orient_duality.homodual import (
    HomClass,
    duality_to_coh,
    duality_to_hom,
    pair,
)
from orient_duality.spaces import CohClass, Space, basis, euler
from orient_duality.verify import CheckConfig, reports_to_json, run_suite

from law_mutants import with_flipped_coefficient

GRID = tuple(Space.parse(s) for s in ("P1", "P2", "P3", "P1xP1", "P1xP2", "P2xP2"))
ALL_KINDS = (RingKind.ADDITIVE, RingKind.MULTIPLICATIVE, RingKind.UNIVERSAL)


@contextlib.contextmanager
def criterion(capsys, num: int, name: str, budget: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget, "criterion %d took %.2fs (budget %.0fs)" % (num, elapsed, budget)
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d (%s): FAIL" % (num, name))
        raise
    with capsys.disabled():
        print("ACCEPTANCE %d (%s): PASS" % (num, name))


def test_criterion_1_kernel_matches_divisor_euler(capsys):
    # two independent code paths: matrix inversion vs. evaluating the law
    # on the two hyperplane classes of P1 x P1
    with criterion(capsys, 1, "kernel-vs-divisor-euler", 1.0):
        sq = Space((1, 1))
        for kind in ALL_KINDS:
            law = law_for(kind, 6)
            K_1 = CohClass(sq, law.ring, {(i, j): c for i, row in enumerate(kernel(law, 1)) for j, c in enumerate(row)})
            assert K_1 == euler(sq, (1, 1), law), kind.value


def test_criterion_2_point_class_closed_forms(capsys):
    with criterion(capsys, 2, "point-class-closed-forms", 5.0):
        add, mult, univ = additive_law(8), multiplicative_law(8), universal_law(8)
        beta = mult.ring.gen(0)
        assert add.pn_class(0) == add.ring.one()
        assert mult.pn_class(0) == mult.ring.one()
        assert univ.pn_class(0) == univ.ring.one()
        for n in range(1, 7):
            assert add.pn_class(n) == add.ring.zero()
            assert mult.pn_class(n) == beta**n
            assert univ.pn_class(n) == univ.ring.gen(n - 1) * (n + 1)
        # independent cross-check: the inversion-matrix recursion
        for law in (add, mult, univ):
            for n in range(1, 7):
                C = kernel(law, n)
                acc = law.ring.zero()
                for j in range(1, n + 1):
                    acc = acc - C[n][j] * law.pn_class(n - j)
                assert law.pn_class(n) == acc, (law.ring.kind.value, n)


def test_criterion_3_poincare_roundtrips(capsys):
    with criterion(capsys, 3, "poincare-roundtrips", 60.0):
        for kind in ALL_KINDS:
            law = law_for(kind, 10)
            for space in GRID:
                for e in basis(space):
                    alpha = CohClass.monomial(space, law.ring, e)
                    assert duality_to_coh(duality_to_hom(alpha, law), law) == alpha
                    a = HomClass.delta(space, law.ring, e)
                    assert duality_to_hom(duality_to_coh(a, law), law) == a


def test_criterion_4_projection_formulae(capsys):
    with criterion(capsys, 4, "projection-formulae", 60.0):
        cfg = CheckConfig(
            theories=ALL_KINDS,
            spaces=GRID,
            truncation=10,
            seed=0,
            samples=20,
        )
        reports = run_suite(cfg, checks=("V5-coh-projection", "V6-first-projection"))
        bad = [r for r in reports if r.status != "pass"]
        assert not bad, bad


def test_criterion_5_operator_identities(capsys):
    with criterion(capsys, 5, "operator-identities", 30.0):
        cfg = CheckConfig(
            theories=ALL_KINDS,
            spaces=(Space((1,)), Space((2,)), Space((3,))),
            truncation=10,
            seed=0,
            samples=4,
        )
        reports = run_suite(
            cfg,
            checks=(
                "V4-divisor-normalization",
                "V8-transposition",
                "V9-diagonal-counit",
                "V11-duality-transport",
                "V12-projection-recursion",
                "V13-identity-decomposition",
                "V14-diamond-squares",
                "V15-up-then-down",
            ),
        )
        bad = [r for r in reports if r.status != "pass"]
        assert not bad, bad


def test_criterion_6_classical_chow_pairing(capsys):
    with criterion(capsys, 6, "classical-chow-pairing", 1.0):
        law = additive_law(6)
        for n in range(1, 4):
            sp = Space((n,))
            for i in range(n + 1):
                zi = CohClass.monomial(sp, law.ring, (i,))
                for j in range(n + 1):
                    zj = CohClass.monomial(sp, law.ring, (j,))
                    got = pair(zi, duality_to_hom(zj, law))
                    want = law.ring.one() if i + j == n else law.ring.zero()
                    assert got == want, (n, i, j)


def test_criterion_7_mutation_sensitivity(capsys):
    # flip the sign of each stored law coefficient a_ij with i+j <= 2 for
    # the multiplicative theory (with derived caches already populated, as
    # they would be in a running calculator) and require a failure with a
    # witness from the kernel comparison or the identity suite on P2
    with criterion(capsys, 7, "mutation-sensitivity", 5.0):
        law = multiplicative_law(6)
        law.log()
        kernel(law, 1)
        kernel(law, 2)
        slots = [(i, j) for (i, j) in law.coeffs if i + j <= 2]
        assert slots == [(1, 1)]
        for i, j in slots:
            bad = with_flipped_coefficient(law, i, j)
            sq = Space((1, 1))
            K_1 = CohClass(sq, bad.ring, {(i, j): c for i, row in enumerate(kernel(bad, 1)) for j, c in enumerate(row)})
            kernel_disagrees = K_1 != euler(sq, (1, 1), bad)
            cfg = CheckConfig(
                theories=(RingKind.MULTIPLICATIVE,),
                spaces=(Space((2,)),),
                truncation=6,
                samples=4,
            )
            reports = run_suite(cfg, laws={RingKind.MULTIPLICATIVE: bad})
            failures = [r for r in reports if r.status == "fail"]
            assert kernel_disagrees or failures, (i, j)
            assert all(r.witness for r in failures)


def test_criterion_8_deterministic_reports(capsys, tmp_path):
    with criterion(capsys, 8, "deterministic-reports", 30.0):
        cfg = CheckConfig(
            theories=(RingKind.ADDITIVE, RingKind.UNIVERSAL),
            spaces=(Space((1,)), Space((1, 1))),
            truncation=5,
            seed=11,
            samples=3,
        )
        assert reports_to_json(run_suite(cfg)) == reports_to_json(run_suite(cfg))
        # and end to end through the CLI, including report files
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = [
            "verify", "--theory", "all", "--space", "P1,P1xP1", "--truncation", "5",
            "--seed", "11", "--samples", "3", "--format", "json",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
