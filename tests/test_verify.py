import pytest

from orient_duality.algebra import RingKind
from orient_duality.errors import TruncationUnsoundError
from orient_duality.fgl import law_for, multiplicative_law
from orient_duality.spaces import Space
from orient_duality.verify import (
    CHECK_IDS,
    CheckConfig,
    _derive_rng,
    reports_to_json,
    reports_to_table,
    run_suite,
    sample_class,
)

from law_mutants import with_flipped_coefficient

ALL = (RingKind.ADDITIVE, RingKind.MULTIPLICATIVE, RingKind.UNIVERSAL)


def _cfg(**kw):
    base = dict(
        theories=ALL,
        spaces=(Space((1,)), Space((1, 1))),
        truncation=4,
        seed=0,
        samples=3,
    )
    base.update(kw)
    return CheckConfig(**base)


def test_check_ids_pinned():
    assert len(CHECK_IDS) == 16
    assert "V10-poincare-roundtrip" in CHECK_IDS
    assert "V1-fgl-axioms" in CHECK_IDS
    assert len(set(CHECK_IDS)) == 16


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(theories=())
    with pytest.raises(ValueError):
        _cfg(spaces=())
    with pytest.raises(ValueError):
        _cfg(samples=0)
    with pytest.raises(TruncationUnsoundError):
        _cfg(truncation=2)


def test_unknown_check_id():
    with pytest.raises(ValueError):
        run_suite(_cfg(), checks=("V99-nonsense",))


def test_small_grid_all_pass():
    reports = run_suite(_cfg())
    assert len(reports) == 16 * 3 * 2
    assert all(r.status == "pass" for r in reports)
    assert all(r.witness is None for r in reports)


def test_reports_deterministic_bytes():
    a = reports_to_json(run_suite(_cfg(seed=7)))
    b = reports_to_json(run_suite(_cfg(seed=7)))
    assert a == b
    c = reports_to_json(run_suite(_cfg(seed=8)))
    # a different seed still passes, and the report text is identical
    # because witnesses are None either way
    assert c == a


def test_table_has_summary_line():
    reports = run_suite(_cfg(theories=(RingKind.ADDITIVE,), spaces=(Space((1,)),)))
    table = reports_to_table(reports)
    assert "16/16 checks passed" in table


# -- fault injection ----------------------------------------------------------
#
# Flip the sign of the (1,1) law coefficient of the multiplicative theory
# and rerun the suite on P2.  What the suite can notice depends on which
# derived data the broken law still carries:
#
#   * stale log/kernels kept   -> the divisor normalization check compares
#     the kernel against the law table and fails;
#   * log recomputed, kernels kept -> everything downstream of the stale
#     kernels disagrees with the recomputed point classes;
#   * everything recomputed    -> the flip is a ring automorphism
#     (beta -> -beta) of the theory, i.e. a consistent conjugate theory,
#     and no identity can fail.

MUT_TRUNC = 6


def _mutant_reports(keep_log: bool, keep_kernels: bool):
    law = multiplicative_law(MUT_TRUNC)
    law.log()  # populate caches before flipping
    from orient_duality.gysin import kernel

    kernel(law, 1)
    kernel(law, 2)
    bad = with_flipped_coefficient(law, 1, 1, keep_log=keep_log, keep_kernels=keep_kernels)
    cfg = CheckConfig(
        theories=(RingKind.MULTIPLICATIVE,),
        spaces=(Space((2,)),),
        truncation=MUT_TRUNC,
        samples=3,
    )
    return run_suite(cfg, laws={RingKind.MULTIPLICATIVE: bad})


def _failing_checks(reports):
    return {r.check for r in reports if r.status == "fail"}


def test_mutant_with_stale_caches_caught():
    failed = _failing_checks(_mutant_reports(True, True))
    assert "V4-divisor-normalization" in failed


def test_mutant_with_stale_kernels_caught_widely():
    failed = _failing_checks(_mutant_reports(False, True))
    assert "V4-divisor-normalization" in failed
    assert "V10-poincare-roundtrip" in failed
    assert len(failed) >= 4


def test_mutant_failures_carry_witnesses():
    reports = _mutant_reports(True, True)
    for r in reports:
        if r.status == "fail":
            assert r.witness  # non-empty dict naming the broken identity


def test_full_recompute_flip_is_conjugate_theory():
    # with every cache rebuilt the flipped table is the beta -> -beta
    # conjugate of the original: a perfectly consistent theory
    failed = _failing_checks(_mutant_reports(False, False))
    assert failed == set()


def test_v1_verdict_is_memoised_per_law_and_reported_per_cell(monkeypatch):
    # V1 reads only the law: its witness is built once and every cell of a
    # failing law reports it; the mutant copies no verdict from the original
    import orient_duality.verify as verify_mod

    law = multiplicative_law(MUT_TRUNC)
    spaces = (Space((1,)), Space((2,)), Space((1, 1)))
    cfg = CheckConfig(theories=(RingKind.MULTIPLICATIVE,), spaces=spaces, truncation=MUT_TRUNC)
    good = run_suite(cfg, laws={RingKind.MULTIPLICATIVE: law}, checks=("V1-fgl-axioms",))
    assert [r.status for r in good] == ["pass"] * 3 and ("v1", None) in law._memo
    bad = with_flipped_coefficient(law, 1, 1)
    real, built = verify_mod._law_witness, []
    monkeypatch.setattr(verify_mod, "_law_witness", lambda F: built.append(F) or real(F))
    reports = run_suite(cfg, laws={RingKind.MULTIPLICATIVE: bad}, checks=("V1-fgl-axioms",))
    assert [r.space for r in reports] == ["P1", "P2", "P1xP1"]
    assert [r.status for r in reports] == ["fail"] * 3
    assert reports[0].witness and all(r.witness == reports[0].witness for r in reports)
    assert built == [bad]


def _count_builds(law):
    """Record on ``law`` the (kind, argument) of every memo entry it builds."""
    real, built = law.derived, []
    law.derived = lambda kind, arg, build: real(kind, arg, lambda: built.append((kind, arg)) or build())
    return built


SHARED_N_SPACES = (Space((2,)), Space((2, 2)), Space((0, 2)))  # n = 2 in each, P0 passes


def test_v13_verdict_is_memoised_per_dimension_and_reported_per_cell():
    # V13 reads only the law and n: with stale kernels the mutant fails it
    # in every cell with the witness built once for n = 2; the mutant copies
    # no V13 or V14 verdict from the original
    law = multiplicative_law(MUT_TRUNC)
    cfg = CheckConfig(theories=(RingKind.MULTIPLICATIVE,), spaces=SHARED_N_SPACES, truncation=MUT_TRUNC)
    checks = ("V13-identity-decomposition", "V14-diamond-squares")
    good = run_suite(cfg, laws={RingKind.MULTIPLICATIVE: law}, checks=checks)
    assert {r.status for r in good} == {"pass"}
    assert {k for k in law._memo if k[0] in ("v13", "v14")} == {(v, n) for v in ("v13", "v14") for n in (0, 2)}
    bad = with_flipped_coefficient(law, 1, 1, keep_log=False, keep_kernels=True)
    assert not [k for k in bad._memo if k[0] in ("v13", "v14")]
    built = _count_builds(bad)
    reports = run_suite(cfg, laws={RingKind.MULTIPLICATIVE: bad}, checks=checks[:1])
    assert [r.space for r in reports] == ["P2", "P2xP2", "P0xP2"]
    assert [r.status for r in reports] == ["fail"] * 3
    assert reports[0].witness["n"] == "2" and all(r.witness is reports[0].witness for r in reports)
    assert sorted(n for kind, n in built if kind == "v13") == [0, 2]


def test_v14_verdict_is_memoised_per_dimension_and_reported_per_cell(monkeypatch):
    # V14 holds for any point classes, so no law mutant can fail it; a
    # broken psi does, in every cell, with the witness built once for n = 2
    import orient_duality.verify as verify_mod

    monkeypatch.setattr(verify_mod, "psi", lambda i, p, a: a * 2)
    law = multiplicative_law(MUT_TRUNC)
    built = _count_builds(law)
    cfg = CheckConfig(theories=(RingKind.MULTIPLICATIVE,), spaces=SHARED_N_SPACES, truncation=MUT_TRUNC)
    reports = run_suite(cfg, laws={RingKind.MULTIPLICATIVE: law}, checks=("V14-diamond-squares",))
    assert [r.status for r in reports] == ["fail"] * 3
    assert reports[0].witness["identity"] == "p_* s_i diamond = psi_i"
    assert all(r.witness is reports[0].witness for r in reports)
    assert sorted(n for kind, n in built if kind == "v14") == [0, 2]


# -- sampling -----------------------------------------------------------------


@pytest.mark.parametrize("lo,hi", [(-3, 3), (-2, 2), (2, 3), (1, 2), (0, 0), (0, 10)])
def test_choice_over_a_range_draws_as_randint(lo, hi):
    # the sampler draws with rng.choice over fixed ranges (and over tuples
    # of the same length); the stream must be that of rng.randint
    import random

    a, b = random.Random(5), random.Random(5)
    seq = tuple(range(lo, hi + 1))
    for _ in range(200):
        assert a.choice(range(lo, hi + 1)) == b.randint(lo, hi)
        assert a.choice(seq) == b.randint(lo, hi)
        assert a.choice(range(hi - lo + 1)) == b.randrange(hi - lo + 1)
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("kind", [RingKind.MULTIPLICATIVE, RingKind.UNIVERSAL])
@pytest.mark.parametrize("wrong", [2, -1])
def test_v1_catches_a_wrong_m_series(monkeypatch, kind, wrong):
    # a table law builds [4] = F([2], [2]), V1's (2, 2) left side, so V1
    # must take its right side from an independent derivation
    from orient_duality.fgl import FGL

    real = FGL.m_series

    def broken(law, m):
        s = real(law, m)
        return s + s * s if m == wrong else s

    monkeypatch.setattr(FGL, "m_series", broken)
    reports = run_suite(_cfg(theories=(kind,), spaces=(Space((1,)),)), checks=("V1-fgl-axioms",))
    assert [r.status for r in reports] == ["fail"]
    assert reports[0].witness["identity"].startswith("[")


def test_v1_sees_a_non_associative_table_without_the_axiom_check(monkeypatch):
    # with the axiom check patched out, only V1's independent right side
    # sees the fault: [4] = F([2], [2]) against F(x, F(x, F(x, x)))
    import orient_duality.verify as verify_mod
    from orient_duality.fgl import FGL

    law = multiplicative_law(4)
    beta2 = law.ring.gen(0) ** 2
    bad = FGL(law.ring, {**law.coeffs, (1, 2): beta2, (2, 1): beta2})
    monkeypatch.setattr(verify_mod, "check_axioms", lambda F: None)
    cfg = _cfg(theories=(RingKind.MULTIPLICATIVE,), spaces=(Space((1,)),))
    reports = run_suite(cfg, laws={RingKind.MULTIPLICATIVE: bad}, checks=("V1-fgl-axioms",))
    assert [r.status for r in reports] == ["fail"]
    assert reports[0].witness["identity"] == "[2](x) + [2](x) = [4](x)"


def test_derive_rng_is_stable():
    a = _derive_rng(3, "x", "y").random()
    b = _derive_rng(3, "x", "y").random()
    c = _derive_rng(3, "x", "z").random()
    assert a == b
    assert a != c


def test_sample_class_deterministic():
    law = law_for(RingKind.UNIVERSAL, 5)
    sp = Space((2, 1))
    c1 = sample_class(sp, law.ring, _derive_rng(1, "s"))
    c2 = sample_class(sp, law.ring, _derive_rng(1, "s"))
    assert c1 == c2
