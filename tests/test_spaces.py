import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_duality.algebra import CoeffRing, RingKind
from orient_duality.errors import (
    ParseError,
    RingMismatchError,
    SpaceMismatchError,
    TruncationUnsoundError,
)
from orient_duality.fgl import NilPoly, Series, additive_law, multiplicative_law
from orient_duality.spaces import (
    CohClass,
    Diagonal,
    HomClass,
    LinearEmbed,
    Permutation,
    Projection,
    Space,
    basis,
    compose,
    cross_coh,
    euler,
    full_diagonal,
    identity,
    prefix_product,
    product_morphism,
    suffix_product,
    transposition,
)

RING = CoeffRing.multiplicative(8)


@pytest.mark.parametrize("text,factors", [
    ("pt", ()),
    ("P0", (0,)),
    ("P3", (3,)),
    ("P2xP1", (2, 1)),
    ("P1xP1xP4", (1, 1, 4)),
])
def test_space_parse_render(text, factors):
    sp = Space.parse(text)
    assert sp.factors == factors
    assert Space.parse(sp.render()) == sp


@pytest.mark.parametrize("bad", ["", "P", "p2", "P2x", "P2xQ1", "P-1", "P2 x P1"])
def test_space_parse_rejects(bad):
    with pytest.raises(ParseError):
        Space.parse(bad)


def test_space_dimensions():
    sp = Space.parse("P2xP3")
    assert sp.nfactors == 2
    assert sp.total_dim == 5
    assert Space.point().total_dim == 0
    assert sp.times(Space.parse("P1")).factors == (2, 3, 1)


def test_basis_graded_order():
    assert basis(Space.point()) == [()]
    assert basis(Space((2,))) == [(0,), (1,), (2,)]
    b = basis(Space((1, 1)))
    assert b == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(basis(Space((2, 3)))) == 12


def test_basis_is_a_fresh_list():
    # the tuples are built once per space; each call hands out its own list
    sp = Space((1, 2))
    first = basis(sp)
    first.reverse()
    first.append((9, 9))
    assert basis(sp) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
    assert basis(sp) is not basis(sp)


def test_quotient_at_construction():
    sp = Space((1,))
    c = CohClass(sp, RING, {(2,): RING.one(), (1,): RING.one()})
    assert c == CohClass.monomial(sp, RING, (1,))


def test_class_shape_errors():
    sp = Space((1, 1))
    with pytest.raises(SpaceMismatchError):
        CohClass(sp, RING, {(1,): RING.one()})
    with pytest.raises(ValueError):
        CohClass(sp, RING, {(-1, 0): RING.one()})


def test_class_checks_sign_before_dropping_out_of_range_terms():
    # a negative exponent is an error even when another exponent would drop the term
    sp = Space((2, 2))
    for expo in ((5, -1), (-1, 5)):
        with pytest.raises(ValueError, match="negative exponent"):
            CohClass(sp, RING, {expo: RING.one()})
    with pytest.raises(SpaceMismatchError):
        CohClass(sp, RING, {(5, -1, 0): RING.one()})
    assert not CohClass(sp, RING, {(5, 0): RING.one(), (2, 3): RING.one()})


def test_cup_truncates():
    sp = Space((1,))
    z = CohClass.zeta(sp, RING, 0)
    assert not z * z
    assert (z * z) == CohClass.zero(sp, RING)


def test_cup_known_product():
    sp = Space((2, 1))
    z1, z2 = CohClass.zeta(sp, RING, 0), CohClass.zeta(sp, RING, 1)
    beta = RING.gen(0)
    a = z1 + z2 * beta
    b = z1 * z1
    assert a * b == CohClass.monomial(sp, RING, (2, 1), beta)
    assert (a * b).coeff((2, 1)) == beta


def test_cup_powers():
    sp = Space((2, 1))
    a = CohClass.zeta(sp, RING, 0) + CohClass.zeta(sp, RING, 1) * RING.gen(0)
    assert a ** 0 == CohClass.one(sp, RING)
    assert a ** 2 == a * a
    assert not a ** 4
    # a negative power is an error, as for ring elements, never the unit
    for n in (-1, -3):
        with pytest.raises(ValueError, match="negative powers"):
            a ** n
        with pytest.raises(ValueError, match="negative powers"):
            RING.gen(0) ** n


def test_scaling():
    sp = Space((1,))
    z = CohClass.zeta(sp, RING, 0)
    assert 2 * z == z + z
    assert z * RING.gen(0) == RING.gen(0) * z
    other = CoeffRing.additive(8)
    with pytest.raises(RingMismatchError):
        z * other.one()


def _classes(sp, ring=RING):
    coeff = st.integers(-3, 3)
    expo = st.tuples(*[st.integers(0, n) for n in sp.factors])
    return st.dictionaries(expo, coeff, max_size=4).map(
        lambda d: CohClass(sp, ring, {e: ring.from_coeff(c) for e, c in d.items()})
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cup_ring_axioms(data):
    sp = Space((2, 1))
    a = data.draw(_classes(sp))
    b = data.draw(_classes(sp))
    c = data.draw(_classes(sp))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * CohClass.one(sp, RING) == a


# -- pullbacks ---------------------------------------------------------------


def test_projection_pullback():
    sp = Space((2, 1))
    p = Projection(sp, (0,))
    assert p.target == Space((2,))
    z = CohClass.zeta(p.target, RING, 0)
    assert p.pullback(z) == CohClass.zeta(sp, RING, 0)
    assert p.dropped == (1,)
    q = Projection(sp, (1,))
    assert q.pullback(CohClass.zeta(q.target, RING, 0)) == CohClass.zeta(sp, RING, 1)


def test_projection_validates():
    sp = Space((2, 1))
    with pytest.raises(SpaceMismatchError):
        Projection(sp, (2,))
    with pytest.raises(ValueError):
        Projection(sp, (1, 0))
    with pytest.raises(SpaceMismatchError):
        Projection(sp, (0,)).pullback(CohClass.one(sp, RING))


def test_linear_embed_pullback():
    sp = Space((3,))
    emb = LinearEmbed(sp, 0, 1)  # P1 in P3
    assert emb.source == Space((1,))
    z = CohClass.zeta(sp, RING, 0)
    assert emb.pullback(z) == CohClass.zeta(emb.source, RING, 0)
    assert not emb.pullback(z * z)  # truncated in the source
    with pytest.raises(SpaceMismatchError):
        LinearEmbed(sp, 0, 4)


def test_diagonal_pullback_merges():
    sp = Space((2,))
    d = Diagonal(sp, 0)
    assert d.target == Space((2, 2))
    big = CohClass.monomial(d.target, RING, (1, 1))
    assert d.pullback(big) == CohClass.monomial(sp, RING, (2,))
    # z1 + z2 pulls back to 2z
    s = CohClass.zeta(d.target, RING, 0) + CohClass.zeta(d.target, RING, 1)
    assert d.pullback(s) == CohClass.zeta(sp, RING, 0) * 2


def test_permutation_pullback():
    sp = Space((2, 1))
    tau = Permutation(sp, (1, 0))
    assert tau.target == Space((1, 2))
    c = CohClass.monomial(tau.target, RING, (1, 2))
    assert tau.pullback(c) == CohClass.monomial(sp, RING, (2, 1))
    assert tau.inverse().perm == (1, 0)
    assert identity(sp).is_identity


def test_permutation_validates():
    with pytest.raises(ValueError):
        Permutation(Space((1, 1)), (0, 0))


def test_composite_pullback_order():
    # d: P2 -> P2xP2, then p keeping the second copy; composite = identity
    sp = Space((2,))
    d = Diagonal(sp, 0)
    p = Projection(d.target, (1,))
    f = compose(p, d)
    assert f.source == sp and f.target == sp
    for e in basis(sp):
        m = CohClass.monomial(sp, RING, e)
        assert f.pullback(m) == m


def test_compose_validates_chaining():
    sp = Space((2,))
    with pytest.raises(SpaceMismatchError):
        compose(Diagonal(sp, 0), Diagonal(sp, 0))


def test_compose_flattens():
    sp = Space((1, 1))
    f = compose(Projection(sp, (0,)), transposition(Space((1,))))
    g = compose(f, identity(sp))
    assert len(g.parts) == 3


def test_prefix_suffix_products():
    T = Space((2,))
    f = Projection(Space((1, 1)), (0,))
    pf = prefix_product(T, f)
    assert pf.source == Space((2, 1, 1)) and pf.target == Space((2, 1))
    sf = suffix_product(f, T)
    assert sf.source == Space((1, 1, 2)) and sf.target == Space((1, 2))
    emb = LinearEmbed(Space((3,)), 0, 1)
    pe = prefix_product(T, emb)
    assert pe.source == Space((2, 1)) and pe.target == Space((2, 3))
    assert prefix_product(Space.point(), f) is f


def test_product_morphism_pullback_is_tensor():
    f = LinearEmbed(Space((2,)), 0, 1)  # P1 -> P2
    g = Projection(Space((1, 1)), (1,))  # P1xP1 -> P1
    fg = product_morphism(f, g)
    assert fg.source == Space((1, 1, 1))
    assert fg.target == Space((2, 1))
    alpha = CohClass.monomial(Space((2,)), RING, (1,))
    beta = CohClass.zeta(Space((1,)), RING, 0)
    lhs = fg.pullback(cross_coh(alpha, beta))
    rhs = cross_coh(f.pullback(alpha), g.pullback(beta))
    assert lhs == rhs


def test_transposition_and_full_diagonal_shapes():
    sp = Space((2, 1))
    tau = transposition(sp)
    assert tau.source == Space((2, 1, 2, 1))
    assert tau.target == Space((2, 1, 2, 1))
    d = full_diagonal(sp)
    assert d.source == sp
    assert d.target == sp.times(sp)
    # pullback along the diagonal multiplies the two copies
    a = CohClass.monomial(sp.times(sp), RING, (1, 0, 1, 1))
    assert d.pullback(a) == CohClass.monomial(sp, RING, (2, 1))


def test_full_diagonal_point():
    d = full_diagonal(Space.point())
    assert d.source == Space.point() and d.target == Space.point()


# -- Euler classes -----------------------------------------------------------


def test_euler_additive_is_linear():
    law = additive_law(8)
    sp = Space((2,))
    z = CohClass.zeta(sp, law.ring, 0)
    for d in (-2, 0, 1, 3):
        assert euler(sp, (d,), law) == z * d


def test_euler_multiplicative_frozen():
    law = multiplicative_law(8)
    sq = Space((1, 1))
    z1, z2 = CohClass.zeta(sq, law.ring, 0), CohClass.zeta(sq, law.ring, 1)
    beta = law.ring.gen(0)
    assert euler(sq, (1, 1), law) == z1 + z2 - (z1 * z2) * beta
    # [2](z) on P2
    sp = Space((2,))
    z = CohClass.zeta(sp, law.ring, 0)
    assert euler(sp, (2,), law) == z * 2 - (z * z) * beta


def test_euler_additivity_under_law():
    law = multiplicative_law(8)
    sp = Space((2, 1))
    e1 = euler(sp, (1, 2), law)
    e2 = euler(sp, (2, -1), law)
    assert law.eval(e1, e2) == euler(sp, (3, 1), law)


def test_euler_validates():
    law = multiplicative_law(3)
    with pytest.raises(SpaceMismatchError):
        euler(Space((1, 1)), (1,), law)
    with pytest.raises(TruncationUnsoundError):
        euler(Space((3,)), (1,), law)


def test_cross_coh():
    a = CohClass.zeta(Space((1,)), RING, 0)
    b = CohClass.one(Space((2,)), RING)
    ab = cross_coh(a, b)
    assert ab.space == Space((1, 2))
    assert ab == CohClass.monomial(Space((1, 2)), RING, (1, 0))


# -- serialisation -----------------------------------------------------------


def test_json_roundtrip():
    sp = Space((2, 1))
    c = CohClass(sp, RING, {(1, 0): RING.gen(0), (0, 1): RING.from_coeff(-2), (2, 1): RING.one()})
    obj = c.to_json_obj()
    assert CohClass.from_json_obj(sp, RING, obj) == c


def test_json_rejects_malformed():
    sp = Space((1,))
    for obj in ({"values": []}, [], "x", {"terms": {}}):
        with pytest.raises(ParseError) as exc:
            CohClass.from_json_obj(sp, RING, obj)
        assert str(exc.value) == 'class literal must be an object {"terms": [...]}'
    with pytest.raises(ParseError) as exc:
        CohClass.from_json_obj(sp, RING, {"terms": [{"zeta": [0, 0], "coeff": "1"}]})
    assert str(exc.value) == "exponent list [0, 0] does not fit P1"
    for item in ({"zeta": [0]}, {"coeff": "1"}, [0]):
        with pytest.raises(ParseError) as exc:
            CohClass.from_json_obj(sp, RING, {"terms": [item]})
        assert str(exc.value) == 'each term must be {"zeta": [...], "coeff": "..."}'


def test_json_rejects_bool_and_out_of_range_exponents():
    sp = Space((2,))
    for zeta in ([True], [3], [-1]):
        with pytest.raises(ParseError):
            CohClass.from_json_obj(sp, RING, {"terms": [{"zeta": zeta, "coeff": "1"}]})
    top = CohClass.from_json_obj(sp, RING, {"terms": [{"zeta": [2], "coeff": "1"}]})
    assert top == CohClass.monomial(sp, RING, (2,))


def test_render_frozen():
    sp = Space((2, 1))
    beta = RING.gen(0)
    c = CohClass(sp, RING, {(0, 0): RING.from_coeff(1), (1, 0): -beta, (1, 1): RING.from_coeff(3)})
    assert c.render() == "1 - beta*z1 + 3*z1*z2"
    assert CohClass.zero(sp, RING).render() == "0"


def test_checked_constructors_refuse_a_coefficient_of_another_ring():
    mult = CoeffRing(RingKind.MULTIPLICATIVE, 4)
    b1 = CoeffRing(RingKind.UNIVERSAL, 4).gen(0)
    message = r"^coefficient at \(1,\) is not an element of the class's ring$"
    for cls in (CohClass, HomClass, NilPoly):
        for bad in (b1, 3, None):
            with pytest.raises(RingMismatchError, match=message):
                cls(Space((2,)), mult, {(1,): bad})
    # also where the quotient would drop the term
    with pytest.raises(RingMismatchError, match=r"^coefficient at \(3,\) is not"):
        CohClass(Space((2,)), mult, {(0,): mult.one(), (3,): b1})
    # an equal ring built apart is the same ring
    assert CohClass(Space((2,)), mult, {(1,): CoeffRing(RingKind.MULTIPLICATIVE, 4).gen(0)}).render() == "beta*z1"


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_checked_constructors_refuse_an_exponent_that_is_not_an_int(bad):
    # a float or bool exponent would render and print as JSON that does not read back
    mult = CoeffRing(RingKind.MULTIPLICATIVE, 4)
    message = r"^exponent %s in \(%s, 0\) is not an int$" % (re.escape(repr(bad)), re.escape(repr(bad)))
    for cls in (CohClass, HomClass, NilPoly):
        with pytest.raises(ValueError, match=message):
            cls(Space((2, 2)), mult, {(bad, 0): mult.one()})
    with pytest.raises(ValueError, match=r"^exponent 0.5 in \(0.5, 0\) is not an int$"):
        CohClass(Space((1, 2)), mult, {(0, 0): mult.one(), (0.5, 0): mult.one()})


@pytest.mark.parametrize("bad", [("a",), (True, 1), (1.0,), (2, -1), (None,)])
def test_space_refuses_factors_that_are_not_dimensions(bad):
    value = next(n for n in bad if isinstance(n, bool) or not isinstance(n, int) or n < 0)
    with pytest.raises(ValueError, match="^projective dimension %s is not an int >= 0$" % re.escape(repr(value))):
        Space(bad)


def test_space_stores_its_factors_as_a_tuple():
    space = Space([1, 2])
    assert space.factors == (1, 2) and space == Space((1, 2)) and hash(space) == hash(Space((1, 2)))
    with pytest.raises(ValueError, match=r"^space factors 3 are not a tuple of dimensions$"):
        Space(3)


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
def test_factor_indices_must_be_ints(bad):
    # a bool index would be read as 0 or 1, a float one end in a bare TypeError
    X = Space((1, 2))
    builds = (
        lambda: Diagonal(X, bad),
        lambda: LinearEmbed(X, bad, 1),
        lambda: Projection(X, (bad,)),
        lambda: Permutation(X, (bad, 0)),
        lambda: CohClass.zeta(X, RING, bad),
    )
    for build in builds:
        with pytest.raises(ValueError, match=r"^factor index %s is not an int$" % re.escape(repr(bad))):
            build()


def test_out_of_range_factor_indices_keep_their_messages():
    X = Space((1, 2))
    with pytest.raises(SpaceMismatchError, match=r"^no factor with index 2$"):
        Diagonal(X, 2)
    with pytest.raises(SpaceMismatchError, match=r"^no factor with index -1$"):
        LinearEmbed(X, -1, 0)
    with pytest.raises(SpaceMismatchError, match=r"^kept factor index out of range$"):
        Projection(X, (2,))
    with pytest.raises(ValueError, match=r"^\(0, 0\) is not a permutation of the factors$"):
        Permutation(X, (0, 0))
    with pytest.raises(ValueError, match=r"^no factor with index 2$"):
        CohClass.zeta(X, RING, 2)


@pytest.mark.parametrize("bad", [1.0, True])
def test_coefficient_lookups_check_the_tuple(bad):
    # (1.0, 0) and (True, 0) hash as (1, 0), so unchecked they read its coefficient
    sp, one, zero = Space((1, 2)), RING.one(), RING.zero()
    for x, look in ((CohClass.zeta(sp, RING, 0), CohClass.coeff), (HomClass.delta(sp, RING, (1, 0)), HomClass.value)):
        assert look(x, (1, 0)) == one and look(x, [1, 0]) == one and look(x, (0, 0)) == zero
        assert look(x, (2, 0)) == zero and look(x, (1, 3)) == zero  # in length, outside the box
        with pytest.raises(ValueError, match=r"^exponent %s in \(%s, 0\) is not an int$" % (bad, bad)):
            look(x, (bad, 0))
        with pytest.raises(ValueError, match=r"^negative exponent in \(1, -1\)$"):
            look(x, (1, -1))
        with pytest.raises(SpaceMismatchError, match=r"^exponent tuple \(1,\) does not fit P1xP2$"):
            look(x, (1,))
    s = Series.identity(RING, 3)
    assert s[1] == one and s[4] == zero
    with pytest.raises(ValueError, match=r"^exponent %s in \(%s,\) is not an int$" % (bad, bad)):
        s[bad]


def test_a_monomial_coefficient_is_exact():
    with pytest.raises(ValueError, match=r"^coefficient True is not an int or a Fraction$"):
        CohClass.monomial(Space((1,)), RING, (1,), coeff=True)
    with pytest.raises(ValueError, match=r"^coefficient True is not an int or a Fraction$"):
        HomClass.delta(Space((1,)), RING, (1,), coeff=True)


@pytest.mark.parametrize("bad", [1.0, True, 2.5, "1"])
def test_euler_refuses_a_twist_degree_that_is_not_an_int(bad):
    # before any arithmetic: a float ended in a bare TypeError, a bool was called a coefficient
    law = multiplicative_law(4)
    with pytest.raises(ValueError, match=r"^twist degree %s is not an int$" % re.escape(repr(bad))):
        euler(Space((1, 2)), (bad, 1), law)
    with pytest.raises(ValueError, match=r"^twist degree %s is not an int$" % re.escape(repr(bad))):
        euler(Space((1, 2)), (0, bad), law)


def test_index_arguments_must_be_sequences():
    X = Space((1, 2))
    with pytest.raises(ValueError, match=r"^kept factors 1 are not a tuple of factor indices$"):
        Projection(X, 1)
    with pytest.raises(ValueError, match=r"^permuted factors 0 are not a tuple of factor indices$"):
        Permutation(X, 0)
    for cls in (CohClass, HomClass):
        with pytest.raises(ValueError, match=r"^exponents 1 are not a tuple of ints$"):
            cls.monomial(X, RING, 1)
    # lists still read as tuples
    assert Projection(X, [1]) == Projection(X, (1,)) and Permutation(X, [1, 0]) == Permutation(X, (1, 0))
    assert CohClass.monomial(X, RING, [1, 0]) == CohClass.monomial(X, RING, (1, 0))


@pytest.mark.parametrize("bad", [2.5, True, "2"])
def test_a_monomial_coefficient_that_is_not_exact_is_refused_by_value(bad):
    # a float was passed on and blamed on the ring
    message = r"^coefficient %s is not an int or a Fraction$" % re.escape(repr(bad))
    with pytest.raises(ValueError, match=message):
        CohClass.monomial(Space((1, 2)), RING, (1, 0), coeff=bad)
    with pytest.raises(ValueError, match=message):
        HomClass.delta(Space((1, 2)), RING, (1, 0), coeff=bad)
