import hashlib

import pytest

from orient_duality import gysin
from orient_duality.cli import main
from orient_duality.errors import (
    ParseError,
    RingMismatchError,
    SpaceMismatchError,
)
from orient_duality.fgl import NilPoly, additive_law, multiplicative_law, universal_law
from orient_duality.gysin import diagonal_kernel_class
from orient_duality.homodual import (
    HomClass,
    cap,
    cross_hom,
    duality_to_coh,
    duality_to_hom,
    fundamental_class,
    pair,
    pbt_section,
    psi,
    pushforward_hom,
    shriek_hom,
    slant_l,
    slant_r,
)
from orient_duality.spaces import (
    CohClass,
    LinearEmbed,
    Projection,
    Space,
    basis,
    cross_coh,
)
from test_golden import PINS

N = 8


@pytest.fixture(scope="module")
def laws():
    return {
        "additive": additive_law(N),
        "multiplicative": multiplicative_law(N),
        "universal": universal_law(N),
    }


@pytest.fixture(scope="module")
def mult(laws):
    return laws["multiplicative"]


def test_delta_and_value(mult):
    sp = Space((2, 1))
    a = HomClass.delta(sp, mult.ring, (1, 0), 3)
    assert a.value((1, 0)) == mult.ring.from_coeff(3)
    assert not a.value((0, 0))
    assert not HomClass.zero(sp, mult.ring)


def test_homclass_rejects_out_of_range(mult):
    with pytest.raises(SpaceMismatchError):
        HomClass.delta(Space((1,)), mult.ring, (2,))
    with pytest.raises(SpaceMismatchError):
        HomClass.delta(Space((1,)), mult.ring, (0, 0))
    # the shared core keeps each range rule: homology raises, cohomology drops
    terms = {(2,): mult.ring.one(), (1,): mult.ring.one()}
    with pytest.raises(SpaceMismatchError, match=r"basis tuple \(2,\) does not fit P1"):
        HomClass(Space((1,)), mult.ring, terms)
    assert CohClass(Space((1,)), mult.ring, terms) == CohClass.monomial(Space((1,)), mult.ring, (1,))


def test_homclass_rejects_negative_exponent_with_value_error(mult):
    # the checks of every constructor, in one order: length, sign, range
    one = mult.ring.one()
    with pytest.raises(ValueError, match="negative exponent"):
        HomClass(Space((2,)), mult.ring, {(-1,): one})
    for expo in ((5, -1), (-1, 5)):
        with pytest.raises(ValueError, match="negative exponent"):
            HomClass(Space((2, 2)), mult.ring, {expo: one})
    with pytest.raises(SpaceMismatchError):
        HomClass(Space((2, 2)), mult.ring, {(-1, 0, 0): one})
    with pytest.raises(SpaceMismatchError, match=r"basis tuple \(3, 0\) does not fit P2xP2"):
        HomClass(Space((2, 2)), mult.ring, {(3, 0): one})


def test_container_kinds_never_mix(mult):
    sp, one = Space((2, 2)), mult.ring.one()
    terms = {(1, 0): one, (0, 1): one}
    kinds = (
        CohClass(sp, mult.ring, terms),
        HomClass(sp, mult.ring, terms),
        NilPoly(sp, mult.ring, terms),
    )
    for x in kinds:
        assert x == type(x)(sp, mult.ring, dict(terms))
        for y in kinds:
            if y is not x:
                assert x != y and not x == y
                with pytest.raises(TypeError):
                    x + y
                with pytest.raises(TypeError):
                    x - y
                with pytest.raises(TypeError):
                    x.cross(y)
                with pytest.raises(TypeError):
                    x * y
    assert CohClass.zero(sp, mult.ring) != HomClass.zero(sp, mult.ring)
    # the shared product serves cohomology and scratch polynomials only
    coh, hom, nil = kinds
    assert coh * coh == CohClass(sp, mult.ring, {(2, 0): one, (1, 1): 2 * one, (0, 2): one})
    assert nil * nil == NilPoly(sp, mult.ring, {(2, 0): one, (1, 1): 2 * one, (0, 2): one})
    with pytest.raises(TypeError):
        hom * hom
    # the products between the sides take a cohomology and a homology class
    for product in (pair, cap, slant_l, slant_r):
        assert product(coh, hom) is not None
        for x, y in ((coh, coh), (hom, hom), (hom, coh), (nil, hom), (coh, nil)):
            with pytest.raises(TypeError):
                product(x, y)
    with pytest.raises(TypeError):
        cross_coh(coh, hom)
    with pytest.raises(TypeError):
        cross_hom(hom, coh)


def test_homclass_arithmetic(mult):
    sp = Space((1,))
    a = HomClass.delta(sp, mult.ring, (0,))
    b = HomClass.delta(sp, mult.ring, (1,))
    assert a + a == a * 2
    assert a - a == HomClass.zero(sp, mult.ring)
    assert (a + b) * mult.ring.gen(0) == a * mult.ring.gen(0) + b * mult.ring.gen(0)
    other = additive_law(N).ring
    with pytest.raises(RingMismatchError):
        a + HomClass.delta(sp, other, (0,))


def test_pair_is_dual_basis(mult):
    sp = Space((1, 1))
    for e in basis(sp):
        for f in basis(sp):
            alpha = CohClass.monomial(sp, mult.ring, e)
            a = HomClass.delta(sp, mult.ring, f)
            want = mult.ring.one() if e == f else mult.ring.zero()
            assert pair(alpha, a) == want


def test_pair_validates(mult):
    alpha = CohClass.one(Space((1,)), mult.ring)
    with pytest.raises(SpaceMismatchError):
        pair(alpha, HomClass.point_class(mult.ring))


# -- functoriality -----------------------------------------------------------


def test_pushforward_to_point(mult):
    p = Projection(Space((1,)), ())
    a0 = HomClass.delta(Space((1,)), mult.ring, (0,))
    a1 = HomClass.delta(Space((1,)), mult.ring, (1,))
    assert pushforward_hom(p, a0) == HomClass.point_class(mult.ring)
    assert not pushforward_hom(p, a1)


def test_pushforward_along_embed(mult):
    emb = LinearEmbed(Space((2,)), 0, 1)
    src, tgt = Space((1,)), Space((2,))
    assert pushforward_hom(emb, HomClass.delta(src, mult.ring, (1,))) == HomClass.delta(
        tgt, mult.ring, (1,)
    )


def test_pushforward_is_adjoint_to_pullback(mult):
    emb = LinearEmbed(Space((2,)), 0, 1)
    for e in basis(emb.target):
        alpha = CohClass.monomial(emb.target, mult.ring, e)
        for f in basis(emb.source):
            a = HomClass.delta(emb.source, mult.ring, f)
            assert pair(alpha, pushforward_hom(emb, a)) == pair(emb.pullback(alpha), a)


def test_shriek_along_embed(mult):
    # the transfer shifts the dual basis down by the codimension
    emb = LinearEmbed(Space((2,)), 0, 1)
    tgt, src = Space((2,)), Space((1,))
    got = shriek_hom(emb, HomClass.delta(tgt, mult.ring, (2,)), mult)
    assert got == HomClass.delta(src, mult.ring, (1,))
    got = shriek_hom(emb, HomClass.delta(tgt, mult.ring, (1,)), mult)
    assert got == HomClass.delta(src, mult.ring, (0,))
    assert not shriek_hom(emb, HomClass.delta(tgt, mult.ring, (0,)), mult)


def test_functor_space_checks(mult):
    emb = LinearEmbed(Space((2,)), 0, 1)
    wrong = HomClass.point_class(mult.ring)
    with pytest.raises(SpaceMismatchError):
        pushforward_hom(emb, wrong)
    with pytest.raises(SpaceMismatchError):
        shriek_hom(emb, wrong, mult)


# -- products ----------------------------------------------------------------


def test_cap_lowers_degree(mult):
    sp = Space((1,))
    z = CohClass.zeta(sp, mult.ring, 0)
    top = HomClass.delta(sp, mult.ring, (1,))
    assert cap(z, top) == HomClass.delta(sp, mult.ring, (0,))
    assert not cap(z, HomClass.delta(sp, mult.ring, (0,)))


def test_cap_is_module_action(mult):
    sp = Space((2, 1))
    za = CohClass.zeta(sp, mult.ring, 0) - CohClass.one(sp, mult.ring) * mult.ring.gen(0)
    zb = CohClass.zeta(sp, mult.ring, 1) + CohClass.monomial(sp, mult.ring, (2, 0))
    a = HomClass.delta(sp, mult.ring, (2, 1)) + HomClass.delta(sp, mult.ring, (1, 0), -2)
    assert cap(za * zb, a) == cap(za, cap(zb, a))
    assert cap(CohClass.one(sp, mult.ring), a) == a


def test_cross_hom_pairs_factorwise(mult):
    spx, spy = Space((1,)), Space((2,))
    a = HomClass.delta(spx, mult.ring, (1,)) + HomClass.delta(spx, mult.ring, (0,), 2)
    b = HomClass.delta(spy, mult.ring, (2,), mult.ring.gen(0))
    ab = cross_hom(a, b)
    assert ab.space == Space((1, 2))
    for e in basis(spx):
        for f in basis(spy):
            lhs = pair(cross_coh(
                CohClass.monomial(spx, mult.ring, e),
                CohClass.monomial(spy, mult.ring, f),
            ), ab)
            rhs = pair(CohClass.monomial(spx, mult.ring, e), a) * pair(
                CohClass.monomial(spy, mult.ring, f), b
            )
            assert lhs == rhs


def test_slant_l_frozen(mult):
    # slicing the diagonal kernel of P1 (a class on P1 x P1) against
    # dual basis classes of the second factor
    line = Space((1,))
    K = diagonal_kernel_class(line, mult)
    beta = mult.ring.gen(0)
    z = CohClass.zeta(line, mult.ring, 0)
    one = CohClass.one(line, mult.ring)
    assert slant_l(K, HomClass.delta(line, mult.ring, (0,))) == z
    assert slant_l(K, HomClass.delta(line, mult.ring, (1,))) == one - z * beta
    # against the fundamental class the slices collapse to the unit
    assert slant_l(K, fundamental_class(line, mult)) == one


def test_slant_l_point_factor(mult):
    # Y = pt: the slant is just scaling by a(pt)
    sp = Space((2,))
    alpha = CohClass.zeta(sp, mult.ring, 0)
    a = HomClass.point_class(mult.ring) * 5
    assert slant_l(alpha, a) == alpha * 5


def test_slant_r_frozen(mult):
    sq = Space((1, 1))
    z = CohClass.zeta(Space((1,)), mult.ring, 0)
    b = HomClass.delta(sq, mult.ring, (1, 0))
    assert slant_r(z, b) == HomClass.delta(Space((1,)), mult.ring, (0,))
    assert not slant_r(z, HomClass.delta(sq, mult.ring, (0, 1)))


def test_slant_shape_checks(mult):
    alpha = CohClass.one(Space((1, 2)), mult.ring)
    with pytest.raises(SpaceMismatchError):
        slant_l(alpha, HomClass.delta(Space((1,)), mult.ring, (0,)))
    with pytest.raises(SpaceMismatchError):
        slant_r(CohClass.one(Space((2,)), mult.ring), HomClass.delta(Space((1, 2)), mult.ring, (0, 0)))


# -- fundamental classes and duality -----------------------------------------


def test_fundamental_multiplicative_p2(mult):
    sp = Space((2,))
    beta = mult.ring.gen(0)
    want = (
        HomClass.delta(sp, mult.ring, (0,), beta * beta)
        + HomClass.delta(sp, mult.ring, (1,), beta)
        + HomClass.delta(sp, mult.ring, (2,))
    )
    assert fundamental_class(sp, mult) == want


def test_fundamental_additive_is_top_delta(laws):
    law = laws["additive"]
    sq = Space((1, 1))
    assert fundamental_class(sq, law) == HomClass.delta(sq, law.ring, (1, 1))


def test_fundamental_universal_p1(laws):
    law = laws["universal"]
    sp = Space((1,))
    b1 = law.ring.gen(0)
    want = HomClass.delta(sp, law.ring, (0,), 2 * b1) + HomClass.delta(sp, law.ring, (1,))
    assert fundamental_class(sp, law) == want


def test_duality_of_unit_is_fundamental(laws):
    for law in laws.values():
        sp = Space((2, 1))
        assert duality_to_hom(CohClass.one(sp, law.ring), law) == fundamental_class(sp, law)


def test_duality_of_fundamental_is_unit(laws):
    for law in laws.values():
        sp = Space((1, 2))
        assert duality_to_coh(fundamental_class(sp, law), law) == CohClass.one(sp, law.ring)


def test_cold_duality_to_coh_builds_no_diagonal_class(monkeypatch, capsys):
    def refuse(space, law):
        raise AssertionError("diagonal class of %s built" % space)

    monkeypatch.setattr(gysin, "_diagonal_class", refuse)
    pin = {p["id"]: p for p in PINS}["dualize-to-coh-universal-P4xP4xP4"]
    assert main(list(pin["argv"])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]
    with pytest.raises(AssertionError, match="diagonal class"):
        main(["kernel", "--theory", "universal", "--space", "P1"])


def test_duality_to_coh_checks_the_ring(laws):
    a = HomClass.delta(Space((1,)), laws["additive"].ring, (0,))
    with pytest.raises(RingMismatchError):
        duality_to_coh(a, laws["universal"])


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_duality_roundtrip_small(laws, kind):
    law = laws[kind]
    sp = Space((1, 1))
    for e in basis(sp):
        alpha = CohClass.monomial(sp, law.ring, e)
        assert duality_to_coh(duality_to_hom(alpha, law), law) == alpha
        a = HomClass.delta(sp, law.ring, e)
        assert duality_to_hom(duality_to_coh(a, law), law) == a


@pytest.mark.parametrize("n", [1, 2, 3])
def test_additive_duality_is_classical(n):
    # over the additive theory the pairing matrix of P^n is anti-diagonal
    law = additive_law(N)
    sp = Space((n,))
    for j in range(n + 1):
        alpha = CohClass.monomial(sp, law.ring, (j,))
        assert duality_to_hom(alpha, law) == HomClass.delta(sp, law.ring, (n - j,))


# -- bundle decomposition ----------------------------------------------------


def test_psi_reads_slices(mult):
    sp = Space((2, 1))
    p = Projection(sp, (0,))  # drop the P1 factor
    a = HomClass.delta(sp, mult.ring, (1, 1)) + HomClass.delta(sp, mult.ring, (2, 0), 3)
    assert psi(0, p, a) == HomClass.delta(p.target, mult.ring, (2,), 3)
    assert psi(1, p, a) == HomClass.delta(p.target, mult.ring, (1,))


def test_pbt_roundtrip(mult):
    sp = Space((1, 2))
    p = Projection(sp, (0,))
    a = (
        HomClass.delta(sp, mult.ring, (1, 2))
        + HomClass.delta(sp, mult.ring, (0, 1), mult.ring.gen(0))
        + HomClass.delta(sp, mult.ring, (1, 0), -1)
    )
    comps = [psi(i, p, a) for i in range(3)]
    assert pbt_section(comps, p) == a
    b = pbt_section(comps, p)
    assert [psi(i, p, b) for i in range(3)] == comps


def test_psi_pbt_validation(mult):
    sp = Space((1, 2))
    p = Projection(sp, (0,))
    a = HomClass.delta(sp, mult.ring, (0, 0))
    with pytest.raises(ValueError):
        psi(3, p, a)
    with pytest.raises(ValueError):
        psi(0, Projection(sp, ()), a)
    with pytest.raises(ValueError):
        pbt_section([HomClass.delta(p.target, mult.ring, (0,))], p)
    with pytest.raises(SpaceMismatchError):
        pbt_section([HomClass.point_class(mult.ring)] * 3, p)


# -- serialisation -----------------------------------------------------------


def test_hom_json_roundtrip(mult):
    sp = Space((1, 1))
    a = HomClass.delta(sp, mult.ring, (1, 1)) + HomClass.delta(sp, mult.ring, (0, 1), mult.ring.gen(0))
    assert HomClass.from_json_obj(sp, mult.ring, a.to_json_obj()) == a


def test_hom_json_rejects(mult):
    sp = Space((1,))
    for obj in ({"terms": []}, [], "x", {"values": {}}):
        with pytest.raises(ParseError) as exc:
            HomClass.from_json_obj(sp, mult.ring, obj)
        assert str(exc.value) == 'homology literal must be an object {"values": [...]}'
    for item in ({"zeta": [0]}, {"coeff": "1"}, [0]):
        with pytest.raises(ParseError) as exc:
            HomClass.from_json_obj(sp, mult.ring, {"values": [item]})
        assert str(exc.value) == 'each value must be {"zeta": [...], "coeff": "..."}'
    with pytest.raises(ParseError):
        HomClass.from_json_obj(sp, mult.ring, {"values": [{"zeta": [0, 1], "coeff": "1"}]})
    for zeta in ([True], [2], [-1]):
        with pytest.raises(ParseError):
            HomClass.from_json_obj(sp, mult.ring, {"values": [{"zeta": zeta, "coeff": "1"}]})


def test_hom_render(mult):
    sp = Space((1, 1))
    a = HomClass.delta(sp, mult.ring, (1, 0)) + HomClass.delta(sp, mult.ring, (0, 0), 2)
    assert a.render() == "z^(0,0): 2; z^(1,0): 1"
    assert HomClass.zero(sp, mult.ring).render() == "0"


def test_slants_and_pair_check_the_ring(mult):
    """The fused products skip the per-element ring check, so the slants
    and the pairing check once, even where no term would meet another."""
    other = additive_law(N).ring
    sq, line = Space((1, 1)), Space((1,))
    for alpha, a in (
        (CohClass.monomial(sq, mult.ring, (1, 0)), HomClass.delta(line, other, (1,))),
        (CohClass.monomial(sq, mult.ring, (1, 1)), HomClass.delta(line, other, (1,))),
    ):
        with pytest.raises(RingMismatchError):
            slant_l(alpha, a)
    with pytest.raises(RingMismatchError):
        slant_r(CohClass.monomial(line, mult.ring, (1,)), HomClass.delta(sq, other, (0, 1)))
    with pytest.raises(RingMismatchError):
        pair(CohClass.one(line, mult.ring), HomClass.delta(line, other, (1,)))


# -- results built without the range check -------------------------------------


def _checked_rebuild(x):
    """``x`` through its checked constructor, which drops (cohomology) or
    rejects (homology) a tuple outside the box and drops zero elements."""
    return type(x)(x.space, x.ring, dict(x.terms))


def _assert_canonical(x, what):
    # a rebuild that differs holds a tuple outside the box; every element
    # and every coefficient inside it must be nonzero
    assert _checked_rebuild(x) == x, what
    assert all(c._t and all(c._t.values()) for c in x.terms.values()), what


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_unchecked_results_equal_their_checked_rebuilds(laws, kind):
    # the direct images, transfers, pullbacks, both duality maps and the
    # samples skip the constructors' range check; rebuilding each through
    # the checked constructor must change nothing
    from orient_duality.gysin import pushforward_coh
    from orient_duality.spaces import Composite, Diagonal, Permutation
    from orient_duality.verify import _derive_rng, _generators, sample_class, sample_hom

    law = laws[kind]
    shapes = set()
    for text in ("P0", "P2xP0", "P0xP1xP2", "P1xP0xP2"):
        space = Space.parse(text)
        rng = _derive_rng(7, kind, text)
        for _ in range(3):
            alpha, a = sample_class(space, law.ring, rng), sample_hom(space, law.ring, rng)
            for x in (alpha, a, duality_to_hom(alpha, law), duality_to_coh(a, law)):
                _assert_canonical(x, "duality on %s" % text)
            for f in _generators(space):
                shapes.add(type(f))
                results = {
                    "pullback": f.pullback(sample_class(f.target, law.ring, rng)),
                    "pushforward_coh": pushforward_coh(f, sample_class(f.source, law.ring, rng), law),
                    "pushforward_hom": pushforward_hom(f, sample_hom(f.source, law.ring, rng)),
                    "shriek_hom": shriek_hom(f, sample_hom(f.target, law.ring, rng), law),
                }
                for name, x in results.items():
                    _assert_canonical(x, "%s along %r" % (name, f))
    assert shapes == {Projection, LinearEmbed, Diagonal, Permutation, Composite}
