from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_duality.algebra import CoeffRing, RingElem, RingKind
from orient_duality.errors import ParseError, RingMismatchError

RINGS = [
    CoeffRing.additive(6),
    CoeffRing.multiplicative(6),
    CoeffRing.universal(6),
]


@pytest.mark.parametrize("name,kind", [
    ("additive", RingKind.ADDITIVE),
    ("multiplicative", RingKind.MULTIPLICATIVE),
    ("universal", RingKind.UNIVERSAL),
])
def test_kind_parse(name, kind):
    assert RingKind.parse(name) is kind


def test_kind_parse_rejects_unknown():
    with pytest.raises(ParseError):
        RingKind.parse("cobordism")


def test_ring_symbols():
    assert CoeffRing.additive(5).symbols == ()
    assert CoeffRing.multiplicative(5).symbols == ("beta",)
    assert CoeffRing.multiplicative(5).symbol_degrees == (-1,)
    uni = CoeffRing.universal(5)
    assert uni.symbols == ("b1", "b2", "b3", "b4")
    assert uni.symbol_degrees == (-1, -2, -3, -4)


def test_canonical_form_drops_zeros_and_integerises():
    ring = CoeffRing.multiplicative(6)
    e = RingElem(ring, {(0,): Fraction(4, 2), (1,): 0})
    assert e.terms == {(0,): 2}
    assert isinstance(e.terms[(0,)], int)
    assert e.is_integral()


def test_universal_quotient_drops_deep_monomials():
    # monomials below degree -truncation are identified with zero
    ring = CoeffRing.universal(4)
    b3 = ring.gen_named("b3")
    assert not b3 * b3  # degree -6 < -4
    b1, b2 = ring.gen_named("b1"), ring.gen_named("b2")
    assert b1 * b2  # degree -3 survives
    # construction enforces the same quotient as multiplication
    deep = RingElem(ring, {(0, 0, 2): 1})
    assert deep == ring.zero()
    # the shape is checked before truncation: a malformed tuple is refused
    # even where its weight alone would drop it
    for bad in ((0, 0, 2, 0), (-1, 0, 2)):
        with pytest.raises(ValueError):
            RingElem(ring, {bad: 1})


def test_monomial_degree():
    ring = CoeffRing.universal(6)
    assert ring.monomial_degree((0, 0, 0, 0, 0)) == 0
    assert ring.monomial_degree((2, 0, 1, 0, 0)) == -5


def test_equality_and_zero():
    ring = CoeffRing.multiplicative(6)
    beta = ring.gen(0)
    assert beta - beta == ring.zero()
    assert not (beta - beta)
    assert beta + beta == 2 * beta
    assert beta != ring.one()


def test_scalar_coercion():
    ring = CoeffRing.universal(6)
    b1 = ring.gen_named("b1")
    assert 1 + b1 == ring.one() + b1
    assert b1 * Fraction(1, 2) + b1 * Fraction(1, 2) == b1
    assert 3 - b1 == -(b1 - 3)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        CoeffRing.additive(4).one() + CoeffRing.multiplicative(4).one()


def test_power():
    ring = CoeffRing.multiplicative(6)
    beta = ring.gen(0)
    assert beta ** 3 == beta * beta * beta
    assert beta ** 0 == ring.one()
    with pytest.raises(ValueError):
        beta ** -1


# -- rendering and parsing --------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("0", "0"),
    ("3", "3"),
    ("-beta", "-beta"),
    ("beta^2 * 2", "2*beta^2"),
    ("1 - beta + beta", "1"),
    ("2 + 3*beta - beta^2*4", "2 + 3*beta - 4*beta^2"),
])
def test_render_multiplicative(text, expected):
    ring = CoeffRing.multiplicative(6)
    assert ring.parse(text).render() == expected


def test_render_memo_is_per_ring_and_outside_equality():
    r1, r2 = CoeffRing.universal(5), CoeffRing.universal(5)
    text = r1.parse("b1^2 - 3/2*b2 + 4").render()
    assert r1._render_memo and not r2._render_memo
    assert r1 == r2 and hash(r1) == hash(r2)
    assert r1._render_memo is not r2._render_memo
    assert r2.parse("b1^2 - 3/2*b2 + 4").render() == text
    assert r1._render_memo.keys() == r2._render_memo.keys()


def test_render_universal_fractions():
    ring = CoeffRing.universal(6)
    assert ring.parse("1/2*b1 - b2").render() == "1/2*b1 - b2"
    assert ring.parse("-1/3 + b1*b1").render() == "-1/3 + b1^2"


def test_integer_rings_reject_fractions():
    ring = CoeffRing.multiplicative(6)
    with pytest.raises(ParseError):
        ring.parse("1/2")
    with pytest.raises(ParseError):
        ring.parse("beta/2")


def test_parse_error_positions():
    ring = CoeffRing.multiplicative(6)
    with pytest.raises(ParseError) as exc:
        ring.parse("beta + $")
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        ring.parse("gamma")
    with pytest.raises(ParseError):
        ring.parse("beta^")
    with pytest.raises(ParseError):
        ring.parse("")


def _elems(ring, max_terms=3):
    coeff = st.integers(-4, 4)
    if ring.allows_fractions:
        coeff = st.one_of(coeff, st.fractions(min_value=-2, max_value=2, max_denominator=3))
    expo = st.tuples(*[st.integers(0, 2) for _ in range(ring.nsymbols)])
    return st.dictionaries(expo, coeff, max_size=max_terms).map(lambda d: RingElem(ring, d))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind.value)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(ring, data):
    x = data.draw(_elems(ring))
    y = data.draw(_elems(ring))
    z = data.draw(_elems(ring))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ring.zero() == x
    assert x * ring.one() == x
    assert x - x == ring.zero()


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind.value)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_render_parse_roundtrip(ring, data):
    x = data.draw(_elems(ring))
    assert ring.parse(x.render()) == x


def _literals(ring):
    """Text from the element grammar's tokens: numbers, fractions, the
    ring's symbols and one symbol it lacks, joined by operators, '/',
    spaces or nothing, so that well-formed and malformed literals mix."""
    number = st.sampled_from(["0", "1", "2", "7", "12"])
    factor = st.one_of(
        number,
        st.tuples(number, number).map("/".join),
        st.sampled_from(list(ring.symbols) + ["q7"]),
    )
    sep = st.sampled_from(["+", "-", "*", "^", "/", " ", "", " - "])
    rest = st.lists(st.tuples(sep, factor).map("".join), max_size=6).map("".join)
    return st.tuples(st.sampled_from(["", "-", " "]), factor, rest).map("".join)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind.value)
@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_parse_fuzz_rejects_or_roundtrips(ring, data):
    text = data.draw(_literals(ring))
    try:
        x = ring.parse(text)
    except ParseError:
        return
    assert ring.parse(x.render()) == x


def test_degrees():
    ring = CoeffRing.universal(6)
    e = ring.parse("3 + b1 - 2*b2 + b1^2")
    assert e.degrees() == {0, -1, -2}
    assert ring.zero().degrees() == set()


def test_constant_coeff():
    ring = CoeffRing.multiplicative(6)
    assert ring.parse("5 - beta").constant_coeff() == 5
    assert ring.zero().constant_coeff() == 0
