import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_duality.algebra import CoeffRing, RingElem, RingKind, sum_products
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


def _tuple_oracle(ring, triples):
    """sum c * d by key from the exponent-tuple views, with Fraction
    coefficients and weight > N dropped by hand: no product of elements."""
    weights = [-d for d in ring.symbol_degrees]
    sums = {}
    for key, c, d in triples:
        acc = sums.setdefault(key, {})
        for e1, c1 in c.terms.items():
            for e2, c2 in d.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if ring.kind is RingKind.UNIVERSAL and sum(w * x for w, x in zip(weights, e)) > ring.truncation:
                    continue
                acc[e] = acc.get(e, 0) + Fraction(c1) * Fraction(c2)
    sums = {key: {e: c for e, c in acc.items() if c} for key, acc in sums.items()}
    return {key: acc for key, acc in sums.items() if acc}


def _random_elem(ring, rng):
    n = ring.truncation
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expo = [0] * ring.nsymbols
        if ring.kind is RingKind.MULTIPLICATIVE:
            expo = [rng.randint(0, 2 * n)]
        elif ring.kind is RingKind.UNIVERSAL:
            room = rng.randint(0, n)
            while room:
                m = rng.randint(1, min(room, ring.nsymbols))
                expo[m - 1] += 1
                room -= m
        c = rng.choice([1, -1, 2, -3, 5])
        if ring.allows_fractions and rng.random() < 0.3:
            c = Fraction(c, rng.choice([2, 3, 6]))
        terms[tuple(expo)] = c
    return RingElem(ring, terms)


@pytest.mark.parametrize("ring", [CoeffRing(kind, 6) for kind in RingKind], ids=[k.value for k in RingKind])
@pytest.mark.parametrize("seed", range(4))
def test_sum_products_matches_a_tuple_oracle(ring, seed):
    rng = random.Random(seed)
    pool = [_random_elem(ring, rng) for _ in range(6)]
    triples = [(rng.randrange(5), rng.choice(pool), rng.choice(pool)) for _ in range(30)]
    d = pool[0]  # one right operand, repeated across keys
    triples += [(k, c, d) for k, c in enumerate(pool)]
    # key 7: two products that cancel, so the key must be absent
    triples += [(7, pool[1], pool[2]), (7, -pool[1], pool[2])]
    if ring.kind is RingKind.UNIVERSAL:
        def mono(*expo):
            return RingElem(ring, {expo: 1})

        # key sums at weight N = 6, which survive, and at weight N + 1, which
        # truncation drops: b1^7 is the smallest key it drops
        b1_3, b1_4 = mono(3, 0, 0, 0, 0), mono(4, 0, 0, 0, 0)
        triples += [(8, mono(2, 0, 0, 0, 0), b1_4), (8, b1_3, b1_4), (8, mono(0, 0, 0, 0, 1), mono(0, 1, 0, 0, 0))]
        triples += [(9, b1_3, b1_4)]
    got = sum_products(ring, triples)
    assert all(type(key) is int and v.ring == ring for key, v in got.items())
    assert {key: dict(v.terms) for key, v in got.items()} == _tuple_oracle(ring, triples)
    assert all(type(c) is int for v in got.values() for c in v.terms.values() if Fraction(c).denominator == 1)
    assert 7 not in got
    if ring.kind is RingKind.UNIVERSAL:
        assert got[8] == mono(6, 0, 0, 0, 0) and 9 not in got


@pytest.mark.parametrize("bad", [2.5, 1.0, True, False, "2", None])
def test_coefficients_are_exact(bad):
    # a float or a bool would be kept as it is: 2.5 rendered as 2.5*beta
    ring = CoeffRing.multiplicative(4)
    message = r"^coefficient %s is not an int or a Fraction$" % re.escape(repr(bad))
    with pytest.raises(ValueError, match=message):
        RingElem(ring, {(1,): bad})
    with pytest.raises(ValueError, match=message):
        ring.from_coeff(bad)
    # Fractions stay allowed in the integer rings: a table law's logarithm needs them
    assert RingElem(ring, {(1,): Fraction(1, 2)}).render() == "1/2*beta"
    assert ring.from_coeff(Fraction(6, 3)) == ring.from_coeff(2) and type(ring.from_coeff(Fraction(6, 3))._t[0]) is int
