from fractions import Fraction

import pytest
import sympy

from orient_duality.algebra import CoeffRing, RingElem, RingKind
from orient_duality.errors import (
    InternalConsistencyError,
    RingMismatchError,
    SpaceMismatchError,
    TruncationUnsoundError,
)
from orient_duality.fgl import (
    FGL,
    NilPoly,
    Series,
    additive_law,
    apply_law,
    check_axioms,
    law_for,
    multiplicative_law,
    universal_law,
)
from orient_duality.spaces import CohClass, Space

from law_mutants import with_flipped_coefficient

N = 6


@pytest.fixture(scope="module")
def laws():
    return {
        RingKind.ADDITIVE: additive_law(N),
        RingKind.MULTIPLICATIVE: multiplicative_law(N),
        RingKind.UNIVERSAL: universal_law(N),
    }


# -- sympy conversion helpers ------------------------------------------------


def _to_sympy(elem: RingElem, syms):
    out = sympy.Integer(0)
    for expo, c in elem.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for s, e in zip(syms, expo):
            if e:
                mono *= s ** e
        out += mono
    return sympy.expand(out)


def _series_coeff(expr, x, d):
    return sympy.expand(expr).coeff(x, d)


# -- closed forms ------------------------------------------------------------


def test_additive_is_trivial(laws):
    law = laws[RingKind.ADDITIVE]
    assert law.coeffs == {}
    assert all(not c for c in law.log().coeffs[2:])
    for n in range(1, N):
        assert law.pn_class(n) == law.ring.zero()
    assert law.pn_class(0) == law.ring.one()


def test_multiplicative_log_against_sympy(laws):
    # the logarithm of x + y - beta*x*y is -log(1 - beta*x)/beta
    law = laws[RingKind.MULTIPLICATIVE]
    x, beta = sympy.symbols("x beta")
    closed = -sympy.log(1 - beta * x) / beta
    expansion = sympy.series(closed, x, 0, N + 1).removeO()
    for d in range(N + 1):
        got = _to_sympy(law.log()[d], [beta])
        assert sympy.simplify(got - _series_coeff(expansion, x, d)) == 0


def test_multiplicative_point_classes(laws):
    law = laws[RingKind.MULTIPLICATIVE]
    beta = law.ring.gen(0)
    for n in range(N):
        assert law.pn_class(n) == beta ** n


def test_universal_point_classes(laws):
    law = laws[RingKind.UNIVERSAL]
    for n in range(1, N):
        bn = law.ring.gen_named("b%d" % n)
        assert law.pn_class(n) == bn * (n + 1)


def _trunc(expr, gens, bound):
    # keep terms of total degree <= bound in gens; truncates stepwise to
    # keep sympy expansions small
    out = sympy.Integer(0)
    for term in sympy.Add.make_args(sympy.expand(expr)):
        pd = term.as_powers_dict()
        if sum(pd.get(g, 0) for g in gens) <= bound:
            out += term
    return out


def _apply_series(coeffs, arg, gens, bound):
    # sum(coeffs[d] * arg^d) with truncation after every multiplication
    out = sympy.Integer(0)
    power = sympy.Integer(1)
    for d in range(1, len(coeffs)):
        power = _trunc(power * arg, gens, bound)
        if coeffs[d]:
            out += coeffs[d] * power
    return sympy.expand(out)


def test_universal_law_against_sympy():
    # independent construction: revert log with sympy, expand F = exp(log+log)
    nsy = 5
    law = universal_law(nsy)
    x, y = sympy.symbols("x y")
    bs = sympy.symbols("b1:%d" % nsy)  # b1 .. b4
    log_c = [0, 1] + [bs[m - 1] for m in range(1, nsy)]

    exp_c = [sympy.Integer(0), sympy.Integer(1)]
    for d in range(2, nsy + 1):
        exp_c.append(sympy.Integer(0))
        err = _apply_series(log_c, _apply_series(exp_c, x, (x,), nsy), (x,), nsy).coeff(x, d)
        exp_c[d] = -err
    # sympy-side verification that exp really inverts log
    assert _apply_series(log_c, _apply_series(exp_c, x, (x,), nsy), (x,), nsy) == x

    u = _apply_series(log_c, x, (x, y), nsy) + _apply_series(log_c, y, (x, y), nsy)
    F = _apply_series(exp_c, u, (x, y), nsy)
    for (i, j), c in law.coeffs.items():
        assert sympy.expand(_to_sympy(c, bs) - F.coeff(x, i).coeff(y, j)) == 0
    # and nothing extra beyond the stored table
    assert F.coeff(x, 0) == y and F.coeff(y, 0) == x
    for i in range(1, nsy):
        for j in range(1, nsy - i + 1):
            if (i, j) not in law.coeffs:
                assert F.coeff(x, i).coeff(y, j) == 0


def test_universal_low_coefficients(laws):
    law = laws[RingKind.UNIVERSAL]
    ring = law.ring
    assert law.a(1, 1) == ring.parse("-2*b1")
    assert law.a(1, 2) == ring.parse("4*b1^2 - 3*b2")
    assert law.a(2, 1) == law.a(1, 2)


def test_multiplicative_m_series_against_sympy(laws):
    # [m](x) = (1 - (1 - beta*x)^m) / beta
    law = laws[RingKind.MULTIPLICATIVE]
    x, beta = sympy.symbols("x beta")
    for m in (2, 3, -1, -2):
        closed = (1 - (1 - beta * x) ** m) / beta
        expansion = sympy.series(closed, x, 0, N + 1).removeO()
        series = law.m_series(m)
        for d in range(N + 1):
            got = _to_sympy(series[d], [beta])
            assert sympy.simplify(got - _series_coeff(expansion, x, d)) == 0


def test_additive_m_series(laws):
    law = laws[RingKind.ADDITIVE]
    for m in (-3, -1, 0, 1, 4):
        s = law.m_series(m)
        assert s[1] == law.ring.from_coeff(m)
        assert all(not s[d] for d in range(2, N + 1))


def test_universal_inverse_is_exp_of_minus_log(laws):
    # log(iota(x)) = -log(x), so iota = exp . (-log)
    law = laws[RingKind.UNIVERSAL]
    assert law.inverse() == law.exp().compose(-law.log())


def test_multiplicative_inverse_frozen(laws):
    law = laws[RingKind.MULTIPLICATIVE]
    beta = law.ring.gen(0)
    inv = law.inverse()
    for d in range(1, N + 1):
        assert inv[d] == -(beta ** (d - 1))


def test_m_series_additivity(laws):
    for law in laws.values():
        lhs = apply_law(law, law.m_series(2), law.m_series(3))
        assert lhs == law.m_series(5)
        assert apply_law(law, law.m_series(1), law.m_series(-1)) == law.m_series(0)


def test_eval_on_classes(laws):
    law = laws[RingKind.MULTIPLICATIVE]
    ring = law.ring
    sq = Space((1, 1))
    z1, z2 = CohClass.zeta(sq, ring, 0), CohClass.zeta(sq, ring, 1)
    beta = ring.gen(0)
    got = law.eval(z1, z2)
    assert got == z1 + z2 - (z1 * z2) * beta
    assert law.eval(CohClass.zero(sq, ring), z2) == z2


def test_eval_refuses_unsound_truncation():
    law = multiplicative_law(3)
    sp = Space((3,))
    z = CohClass.zeta(sp, law.ring, 0)
    with pytest.raises(TruncationUnsoundError):
        law.eval(z, z)


def test_pn_class_needs_truncation():
    law = multiplicative_law(4)
    law.pn_class(3)
    with pytest.raises(TruncationUnsoundError):
        law.pn_class(4)


def test_axioms_pass_for_builtins(laws):
    for law in laws.values():
        assert check_axioms(law) is None


def test_axioms_witness_asymmetric():
    ring = CoeffRing.multiplicative(4)
    beta = ring.gen(0)
    broken = FGL(ring, {(1, 2): beta * beta})
    w = check_axioms(broken)
    assert w is not None and "symmetry" in w


def test_axioms_witness_degree():
    ring = CoeffRing.multiplicative(4)
    broken = FGL(ring, {(1, 1): ring.one()})  # a11 must sit in degree -1
    w = check_axioms(broken)
    assert w is not None and "degree" in w


@pytest.mark.parametrize("key", [(0, 2), (2, 0)], ids=lambda k: "a%d%d" % k)
def test_index_below_one_is_refused_not_recursed(key):
    # the law refuses the key when it is built, naming it, so no evaluation
    # of F (log, inverse, apply_law) ever forms a power for it; (2, 0) once
    # reached the log check and failed on an exponent naming no coefficient
    ring = CoeffRing.multiplicative(4)
    with pytest.raises(ValueError, match=r"^law coefficient a\(%d,%d\) has an index below 1$" % key):
        FGL(ring, {key: ring.gen(0)})
    # check_axioms still reports a key past the truncation
    assert check_axioms(FGL(ring, {(2, 3): ring.gen(0) ** 4})) == "coefficient a(2,3) outside the allowed index range"


def test_axioms_witness_not_a_group_law():
    # symmetric, right degrees, but the logarithm solved from a(i,1) does
    # not satisfy log(F(x,y)) = log(x) + log(y), so F is no group law
    ring = CoeffRing.multiplicative(5)
    beta = ring.gen(0)
    broken = FGL(ring, {(1, 1): -beta, (2, 2): beta ** 3})
    w = check_axioms(broken)
    assert w is not None and "admits no logarithm" in w


def test_flip_asymmetric_is_rejected():
    law = universal_law(5)
    mut = with_flipped_coefficient(law, 1, 2, keep_log=False, keep_kernels=False)
    w = check_axioms(mut)
    assert w is not None and "symmetry" in w


def test_flip_symmetric_pair_gives_conjugate_theory():
    # flipping the single multiplicative coefficient and recomputing all
    # derived data lands on the image of the theory under beta -> -beta;
    # it passes the axioms, with conjugated point classes
    law = multiplicative_law(5)
    law.pn_class(3)
    mut = with_flipped_coefficient(law, 1, 1, keep_log=False, keep_kernels=False)
    assert check_axioms(mut) is None
    beta = law.ring.gen(0)
    assert mut.pn_class(1) == -beta
    assert mut.pn_class(2) == beta * beta


def test_flip_with_stale_log_keeps_old_point_classes():
    law = multiplicative_law(5)
    law.pn_class(2)
    mut = with_flipped_coefficient(law, 1, 1)  # keep caches: fault injection
    beta = law.ring.gen(0)
    assert mut.a(1, 1) == beta
    assert mut.pn_class(1) == beta  # stale, inconsistent with the table


def _degree_8_flip(keep_log: bool) -> FGL:
    # universal_law(10) with the symmetric pair a(3,5), a(5,3) negated: the
    # shape checks pass and the table no longer comes from any logarithm
    law = universal_law(10)
    half = with_flipped_coefficient(law, 3, 5, keep_log=keep_log, keep_kernels=False)
    return with_flipped_coefficient(half, 5, 3, keep_log=keep_log, keep_kernels=False)


def test_each_axiom_guard_alone_rejects_a_degree_8_flip(monkeypatch):
    # the full-precision log identity rejects the flip by default ...
    w = check_axioms(_degree_8_flip(keep_log=False))
    assert w is not None and "admits no logarithm" in w
    # ... and the comparison of the two formal inverses rejects it alone
    monkeypatch.setattr(FGL, "_validate_log", lambda self, log, table_law=None: None)
    w = check_axioms(_degree_8_flip(keep_log=False))
    assert w is not None and "inverse" in w


def _stale_multiplicative_flip() -> FGL:
    law = multiplicative_law(6)
    law.log()
    return with_flipped_coefficient(law, 1, 1)  # keeps the old logarithm


@pytest.mark.parametrize(
    "build",
    [_stale_multiplicative_flip, lambda: _degree_8_flip(keep_log=True), lambda: _degree_8_flip(keep_log=False)],
    ids=["multiplicative-stale-log", "universal-stale-log", "universal-solved-log"],
)
def test_log_identity_rejects_flips_without_the_inverse_comparison(monkeypatch, build):
    # with the inverse derived from the logarithm, the two inverses agree by
    # construction; only the law's own log identity sees the flipped table
    monkeypatch.setattr(FGL, "inverse", lambda F: F.exp().compose(-F.log()))
    w = check_axioms(build())
    assert w is not None and "admits no logarithm" in w


def test_axioms_catch_stale_log_on_flipped_law():
    law = multiplicative_law(6)
    law.log()
    stale = with_flipped_coefficient(law, 1, 1)  # keeps the old logarithm
    w = check_axioms(stale)
    assert w is not None and "inverse" in w
    fresh = with_flipped_coefficient(law, 1, 1, keep_log=False, keep_kernels=False)
    assert check_axioms(fresh) is None


def test_axioms_report_inconsistent_inverse(monkeypatch):
    import orient_duality.fgl as fgl_mod

    def failing(F):
        raise InternalConsistencyError("formal inverse failed to verify")

    monkeypatch.setattr(fgl_mod, "_solve_inverse", failing)
    assert check_axioms(multiplicative_law(4)) == "formal inverse failed to verify"


# -- memoised derived series -------------------------------------------------


def memo_args(law, kind):
    """The arguments of the memoised data of one kind."""
    return {arg for k, arg in law._memo if k == kind}


def test_derived_series_are_memoised():
    law = multiplicative_law(6)
    assert law.m_series(-2) is law.m_series(-2)
    assert law.m_series(13) is law.m_series(13)
    assert law.inverse() is law.inverse()
    assert law.exp() is law.exp()
    # the addition chain, [1] = x: [13] = F(x, [12]), [12] = F([6], [6]),
    # [6] = F([3], [3]), [3] = F(x, [2]), [2] = F([1], [1])
    assert memo_args(law, "m_series") == {-2, 2, 3, 6, 12, 13}
    # a law given by its logarithm keeps only [m] = exp(m log x)
    uni = universal_law(6)
    assert uni.m_series(13) is uni.m_series(13)
    assert memo_args(uni, "m_series") == {13} and not memo_args(uni, "table")


def test_universal_law_reuses_construction_exp():
    # no exp until the table or exp() is asked for; afterwards exactly one
    for first in ("coeffs", "exp"):
        law = universal_law(5)
        assert memo_args(law, "exp") == set()
        if first == "coeffs":
            law.coeffs
        else:
            law.exp()
        assert memo_args(law, "exp") == {None}
        assert law.exp() is law._memo[("exp", None)]
        law.coeffs
        assert memo_args(law, "exp") == {None}
        assert law.exp() == law.log().reversion()


def test_mutant_m_series_recomputed_from_own_table():
    law = multiplicative_law(6)
    law.log()
    law.exp()
    old = law.m_series(-1)
    mut = with_flipped_coefficient(law, 1, 1)  # keep_log: log and exp are kept
    for kind in ("log", "exp"):
        assert mut._memo[(kind, None)] is law._memo[(kind, None)]
    assert not memo_args(mut, "inverse") and not memo_args(mut, "m_series")
    # the flipped law x + y + beta*x*y has [-1](x) = -x / (1 + beta*x)
    beta = law.ring.gen(0)
    got = mut.m_series(-1)
    assert got != old
    for d in range(1, 7):
        assert got[d] == -((-beta) ** (d - 1))
    fresh = with_flipped_coefficient(law, 1, 1, keep_log=False)
    assert not memo_args(fresh, "log") and not memo_args(fresh, "exp")


def test_universal_mutant_euler_reads_its_own_table():
    # the mutant keeps the original's logarithm, but it is given by a
    # table, so its Euler classes fold its own (flipped) F
    from orient_duality.spaces import euler

    law = universal_law(5)
    law.log()
    mut = with_flipped_coefficient(law, 1, 2)  # keep_log
    assert mut.log() is law.log() and law.from_log and not mut.from_log
    sq = Space((2, 2))
    assert euler(sq, (1, 1), mut) != euler(sq, (1, 1), law)


def test_mutant_kernels_do_not_leak_into_original():
    # keep_kernels copies the kernel cache: a kernel the mutant builds
    # later must not land in the original law
    from orient_duality.gysin import kernel

    law = multiplicative_law(6)
    kernel(law, 1)
    mut = with_flipped_coefficient(law, 1, 1, keep_log=False)
    assert kernel(mut, 1) is kernel(law, 1)
    kernel(mut, 3)
    assert 3 not in memo_args(law, "kernel")
    assert kernel(law, 3).K == kernel(multiplicative_law(6), 3).K


def test_inverse_recursion_runs_once_per_law_on_grid(monkeypatch):
    import orient_duality.fgl as fgl_mod
    from orient_duality.verify import CheckConfig, run_suite

    calls = []
    solve = fgl_mod._solve_inverse

    def counting(F):
        calls.append(id(F))
        return solve(F)

    monkeypatch.setattr(fgl_mod, "_solve_inverse", counting)
    spaces = tuple(Space.parse(s) for s in ("P1", "P2", "P3", "P1xP1", "P1xP2", "P2xP2"))
    cfg = CheckConfig(theories=(RingKind.UNIVERSAL,), spaces=spaces, truncation=7, seed=0, samples=4)
    reports = run_suite(cfg, checks=("V1-fgl-axioms", "V2-orientation"))
    assert all(r.status == "pass" for r in reports)
    assert len(calls) == 1


def test_log_identity_runs_once_per_law_on_grid(monkeypatch):
    # the identity is the one bivariate evaluation of F; building the
    # universal table, solving a table law's log and check_axioms share it
    import orient_duality.fgl as fgl_mod
    from orient_duality.verify import CheckConfig, run_suite

    calls = []
    apply = fgl_mod.apply_law

    def counting(F, p, q):
        if type(p) is NilPoly and p.space.nfactors == 2:
            calls.append(F.kind)
        return apply(F, p, q)

    monkeypatch.setattr(fgl_mod, "apply_law", counting)
    spaces = tuple(Space.parse(s) for s in ("P1", "P2", "P3", "P1xP1", "P1xP2", "P2xP2"))
    cfg = CheckConfig(theories=tuple(RingKind), spaces=spaces, truncation=7, seed=0, samples=4)
    reports = run_suite(cfg, checks=("V1-fgl-axioms", "V2-orientation"))
    assert all(r.status == "pass" for r in reports)
    assert sorted(calls, key=str) == sorted(RingKind, key=str)


def test_apply_law_powers_match_direct_powers():
    law = universal_law(6)
    x = law.x_series()
    y = law.m_series(2)
    direct = x + y
    for (i, j), a in sorted(law.coeffs.items()):
        term = x
        for _ in range(i - 1):
            term = term * x
        for _ in range(j):
            term = term * y
        direct = direct + term * a
    assert apply_law(law, x, y) == direct


def test_log_validation_rejects_tampered_table():
    # a table whose (1,2)/(2,1) slots are inconsistent with any logarithm
    ring = CoeffRing.universal(5)
    law = universal_law(5)
    coeffs = dict(law.coeffs)
    coeffs[(1, 2)] = -coeffs[(1, 2)]
    coeffs[(2, 1)] = -coeffs[(2, 1)]  # keep symmetry so log() is reached
    broken = FGL(ring, coeffs)
    with pytest.raises(InternalConsistencyError):
        broken.log()


def test_log_solved_from_universal_table():
    # universal_law stores its construction logarithm; a fresh law over the
    # same table must solve for exactly that series
    for n in range(2, 11):
        law = universal_law(n)
        assert FGL(law.ring, dict(law.coeffs)).log() == law.log()


def test_law_for_dispatch():
    for kind in RingKind:
        law = law_for(kind, 5)
        assert law.kind is kind
        assert law.truncation == 5


# -- series utilities --------------------------------------------------------


def test_series_reversion_against_sympy():
    ring = CoeffRing.additive(8)
    s = Series.make(ring, 8, [0, 1, 1])  # x + x^2
    rev = s.reversion()
    x = sympy.symbols("x")
    expansion = sympy.series((-1 + sympy.sqrt(1 + 4 * x)) / 2, x, 0, 9).removeO()
    for d in range(9):
        c = expansion.coeff(x, d)
        assert rev[d] == ring.from_coeff(Fraction(int(sympy.numer(c)), int(sympy.denom(c))))


def test_series_reversion_needs_unit():
    ring = CoeffRing.additive(5)
    with pytest.raises(ValueError):
        Series.make(ring, 5, [0, 2]).reversion()
    with pytest.raises(ValueError):
        Series.make(ring, 5, [1, 1]).reversion()


def test_series_compose_identity():
    ring = CoeffRing.multiplicative(6)
    beta = ring.gen(0)
    s = Series.make(ring, 6, [ring.zero(), ring.one(), beta, beta * beta])
    x = Series.identity(ring, 6)
    assert s.compose(x) == s
    assert x.compose(s) == s
    shifted = Series.make(ring, 6, [ring.from_coeff(3), ring.one(), beta])
    assert shifted.compose(x) == shifted


def test_eval_nilpotent_matches_direct_substitution():
    law = multiplicative_law(6)
    sp = Space((2,))
    z = CohClass.zeta(sp, law.ring, 0)
    two = law.m_series(2)
    got = two.eval_nilpotent(z)
    beta = law.ring.gen(0)
    assert got == z * 2 - (z * z) * beta


def test_eval_nilpotent_checks_the_ring():
    # the power sum adds raw ring keys, so a class over another ring must
    # be refused, not read in the series' key layout
    z = CohClass.zeta(Space((2,)), universal_law(6).ring, 0)
    with pytest.raises(RingMismatchError):
        multiplicative_law(6).m_series(2).eval_nilpotent(z)


def test_series_str_is_the_dense_text():
    # verify witnesses print series through str(); the text lists every
    # coefficient up to the truncation, zeros included
    s = multiplicative_law(4).m_series(2)
    assert str(s) == (
        "Series(ring=CoeffRing(kind=<RingKind.MULTIPLICATIVE: 'multiplicative'>, truncation=4, "
        "symbols=('beta',), symbol_degrees=(-1,)), trunc=4, "
        "coeffs=(RingElem(0), RingElem(2), RingElem(-beta), RingElem(0), RingElem(0)))"
    )


def test_series_is_a_one_variable_nilpoly():
    ring = CoeffRing.additive(3)
    s = Series.make(ring, 3, [0, 1, 0, 2, 5])  # the x^4 term is dropped
    assert s.coeffs == tuple(ring.from_coeff(c) for c in (0, 1, 0, 2))
    assert s[4] == ring.zero() and s[-1] == ring.zero()
    assert s.terms == {(1,): ring.one(), (3,): ring.from_coeff(2)}
    assert s * s == Series.make(ring, 3, [0, 0, 1])
    flat = NilPoly(Space((3,)), ring, dict(s.terms))
    assert s != flat and not s == flat
    with pytest.raises(TypeError):
        s * flat
    with pytest.raises(TypeError):
        s + flat


def test_nilpoly_rejects_malformed_tuples():
    # the shared product looks every tuple up in a table of in-range keys,
    # so the constructor checks tuples as the cohomology constructor does
    ring = CoeffRing.multiplicative(3)
    sp, c = Space((3, 3)), ring.one()
    with pytest.raises(SpaceMismatchError, match="does not fit P3xP3"):
        NilPoly(sp, ring, {(1,): c, (0, 1): c})
    with pytest.raises(ValueError, match="negative exponent"):
        NilPoly(sp, ring, {(-1, 2): c})
    # well-formed tuples above the total degree are still dropped
    assert NilPoly(sp, ring, {(2, 2): c, (1, 2): c}).terms == {(1, 2): c}


def test_series_reversion_with_unit_minus_one():
    ring = CoeffRing.multiplicative(7)
    beta = ring.gen(0)
    s = Series.make(ring, 7, [0, -1, beta, 3, 0, -beta])
    rev = s.reversion()
    assert rev[1] == -ring.one()
    assert s.compose(rev) == Series.identity(ring, 7) == rev.compose(s)


def test_degree_solver_reports_a_defect_it_cannot_cancel(monkeypatch):
    """Reversion and the formal inverse share one solver, whose defect
    takes the precision it evaluates at: a defect in degree 1, which no
    correction of degree >= 2 reaches, or one that ignores the corrections,
    ends in each caller's own failure text."""
    import orient_duality.fgl as fgl_mod

    ring = CoeffRing.multiplicative(5)
    s = Series.make(ring, 5, [0, 1, 1])
    real_compose, real_apply = Series.compose, fgl_mod.apply_law
    for broken in (
        lambda self, inner: real_compose(self, inner) + Series.identity(ring, self.trunc),
        lambda self, inner: Series.make(ring, self.trunc, [0, 1, 0, 1]),
    ):
        monkeypatch.setattr(Series, "compose", broken)
        with pytest.raises(InternalConsistencyError, match="^series reversion failed to verify$"):
            s.reversion()
    monkeypatch.setattr(Series, "compose", real_compose)
    # p is the identity cut to the round's precision
    monkeypatch.setattr(fgl_mod, "apply_law", lambda F, p, q: real_apply(F, p, q) + p * 2)
    with pytest.raises(InternalConsistencyError, match="^formal inverse failed to verify$"):
        multiplicative_law(5).inverse()


def test_degree_solver_checks_at_full_precision():
    """The rounds read a table of the powers of the unknown and evaluate
    nothing; the one evaluation at full precision is the check: rounds that
    solve correctly, followed by a defect that is wrong at full precision,
    must raise the caller's text."""
    from orient_duality.fgl import _solve_by_degree

    ring = CoeffRing.multiplicative(5)
    beta = ring.gen(0)
    s = Series.make(ring, 5, [0, 1, beta, 0, 3])
    g = {(0, d): c for (d,), c in s.terms.items()}  # s(rev) - x = 0
    g[(1, 0)] = -ring.one()
    calls = []

    def defect(rev):
        calls.append(rev.trunc)
        return s.compose(rev) - Series.identity(ring, 5)

    rev = _solve_by_degree(g, 5, defect, "no reversion")
    assert rev == s.reversion() and s.compose(rev) == Series.identity(ring, 5)
    assert calls == [5]

    def wrong_at_full(rev):
        return defect(rev) + Series.make(ring, 5, [0, 0, beta])

    with pytest.raises(InternalConsistencyError, match="^no reversion$"):
        _solve_by_degree(g, 5, wrong_at_full, "no reversion")
