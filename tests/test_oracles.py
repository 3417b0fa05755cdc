"""The product kernels against their defining formulas.

``RingElem`` arithmetic, ``CohClass.__mul__``, ``cap``, the ``NilPoly``
product, ``pushforward_hom`` and ``shriek_hom`` compute by packed exponent
keys and per-shape transpose formulas.  The oracles below are their
definitions, evaluated the slow way:

* ring sums and products loop over exponent tuples, truncate by summing
  each monomial's degree and canonicalise term by term;
* cup and cap loop over pairs of exponent tuples, and over pairs of packed
  keys (``naive_packed_pairs``, the product loop before it walked only
  the box of each term);
* the scratch-polynomial product loops over pairs of exponent tuples and
  drops a pair by the sum of its total degrees;
* the pairing and both slants sum one product per term, each by the
  tuple-keyed ring product (``naive_pair``, ``naive_slant_l``,
  ``naive_slant_r``: the loops they ran before their products went
  through the fused accumulator);
* (f_* a)(z^e) = a(f^* z^e) for every basis monomial of the target;
* (f^! a)(z^e) = <f_!(z^e), a> for every basis monomial of the source;
* ``spaces.contract`` with [fibre] and ``spaces.place`` of a x [fibre],
  the direct image and transfer along a projection, against the per-term
  loops they replaced (``loop_pushforward_projection``,
  ``loop_shriek_projection``), and ``place`` and ``gather`` against
  slot-by-slot loops (``loop_place``), for every projection, kept subset
  and a few permutations of spaces with up to six factors;
* the universal law's table, expanded on first read, against the eager
  construction that built it with the law (``eager_universal_table``);
* Euler classes against the fold of F over [d](z) with the sequential
  [m] = F(x, [m-1]) (``sequential_euler``), and the doubling m-series
  against the closed forms of the additive and multiplicative laws;
* the diagonal kernel's C, read off one reciprocal series, against the
  column-by-column back substitution of M C = I that once computed it
  (``naive_kernel_matrix``);
* D_coh, which applies C_(n_t) one factor at a time, against the slant
  of the diagonal class, slant_l(K_X, a), that once computed it, and
  K_X, built once per tuple of exponent sums, against the cross product
  of the kernels pulled back along the factor shuffle
  (``naive_diagonal_class``);
* ``sample_class`` and ``sample_hom``, which build key maps, against the
  sampler as ring arithmetic (``ring_arithmetic_coeff``), coefficient
  types included, leaving the generator in the same state.

Each routine must agree with its oracle exactly, for every generator
shape and for composites of two and three parts, in all three theories,
on seeded random classes, including spaces with a P0 factor and the point.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_duality.algebra import CoeffRing, RingElem, RingKind
from orient_duality.errors import RingMismatchError
from orient_duality.fgl import (
    NilPoly,
    Series,
    _series_on_nilpoly,
    additive_law,
    apply_law,
    law_for,
    multiplicative_law,
    universal_law,
)
from orient_duality.gysin import diagonal_kernel_class, fundamental_class, kernel, pushforward_coh
from orient_duality.homodual import (
    HomClass,
    cap,
    duality_to_coh,
    pair,
    pushforward_hom,
    shriek_hom,
    slant_l,
    slant_r,
)
from orient_duality import spaces
from orient_duality.spaces import (
    CohClass,
    Diagonal,
    LinearEmbed,
    Permutation,
    Projection,
    Space,
    basis,
    compose,
    packed_keys,
)
from orient_duality.verify import _derive_rng, sample_class, sample_hom

TRUNC = 6
KINDS = (RingKind.ADDITIVE, RingKind.MULTIPLICATIVE, RingKind.UNIVERSAL)
SPACES = tuple(
    Space.parse(s) for s in ("pt", "P0", "P2", "P1xP0", "P0xP2", "P2xP1", "P1xP1xP1")
)


@pytest.fixture(scope="module")
def laws():
    return {kind: law_for(kind, TRUNC) for kind in KINDS}


# -- the oracles ----------------------------------------------------------------


def tuple_canon(ring: CoeffRing, terms: dict) -> dict:
    """Canonical tuple-keyed terms: nonzero, int over an equal Fraction,
    universal monomials below degree -N dropped."""
    out = {}
    for expo, c in terms.items():
        if isinstance(c, Fraction) and c.denominator == 1:
            c = int(c)
        if not c:
            continue
        if ring.kind is RingKind.UNIVERSAL and ring.monomial_degree(expo) < -ring.truncation:
            continue
        out[expo] = c
    return out


def tuple_add(x: RingElem, y: RingElem) -> dict:
    terms = dict(x.terms)
    for expo, c in y.terms.items():
        terms[expo] = terms.get(expo, 0) + c
    return tuple_canon(x.ring, terms)


def tuple_mul(x: RingElem, y: RingElem) -> dict:
    terms: dict = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            terms[expo] = terms.get(expo, 0) + c1 * c2
    return tuple_canon(x.ring, terms)


def typed(terms) -> dict:
    """Terms with each coefficient's type, so that 2 and Fraction(2) differ."""
    return {e: (type(c), c) for e, c in terms.items()}



def naive_cup(x: CohClass, y: CohClass) -> CohClass:
    bounds = x.space.factors
    terms: dict = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            if any(e > n for e, n in zip(expo, bounds)):
                continue
            c = c1 * c2
            prev = terms.get(expo)
            terms[expo] = c if prev is None else prev + c
    return CohClass(x.space, x.ring, terms)


def naive_cap(alpha: CohClass, a: HomClass) -> HomClass:
    values: dict = {}
    for e, c in alpha.terms.items():
        for v_expo, v in a.values.items():
            b_expo = tuple(x - y for x, y in zip(v_expo, e))
            if any(b < 0 for b in b_expo):
                continue
            contrib = c * v
            prev = values.get(b_expo)
            values[b_expo] = contrib if prev is None else prev + contrib
    return HomClass(alpha.space, alpha.ring, values)


def naive_packed_pairs(table: tuple[dict, dict], left: dict, right: dict, sign: int) -> dict:
    """The sum of c * d at g over every pair (e, c), (f, d) with
    sign * key(e) + key(f) = key(g) for a tuple g of the table, one
    ``RingElem`` product and sum per pair."""
    keys, expos = table
    right_keys = [(keys[f], d) for f, d in right.items()]
    out: dict = {}
    for e, c in left.items():
        k = sign * keys[e]
        for kf, d in right_keys:
            g = expos.get(k + kf)
            if g is None:
                continue  # out of the box, or above the table's degree
            p = c * d
            prev = out.get(g)
            out[g] = p if prev is None else prev + p
    return out


def naive_nilpoly_product(x: NilPoly, y: NilPoly) -> NilPoly:
    """The product pruned by total degree, pair by pair."""
    bound = x.space.factors[0]
    terms: dict = {}
    for e1, c1 in x.terms.items():
        d1 = sum(e1)
        for e2, c2 in y.terms.items():
            if d1 + sum(e2) > bound:
                continue
            expo = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            prev = terms.get(expo)
            terms[expo] = c if prev is None else prev + c
    return type(x)(x.space, x.ring, terms)


def term_mul(c: RingElem, d: RingElem) -> RingElem:
    """c * d by the tuple-keyed product, which shares no code with the
    fused accumulator."""
    return RingElem(c.ring, tuple_mul(c, d))


def naive_pair(alpha: CohClass, a: HomClass) -> RingElem:
    """<alpha, a>, one product and ``RingElem`` sum per term."""
    out = alpha.ring.zero()
    for e, c in alpha.terms.items():
        v = a.terms.get(e)
        if v is not None:
            out = out + term_mul(c, v)
    return out


def naive_slant_l(alpha: CohClass, a: HomClass) -> CohClass:
    """alpha / a = sum alpha_(u,v) a(z^v) z^u, one product and sum per term."""
    kx = alpha.space.nfactors - a.space.nfactors
    terms: dict = {}
    for e, c in alpha.terms.items():
        v = a.terms.get(e[kx:])
        if v is None:
            continue
        u = e[:kx]
        contrib = term_mul(c, v)
        prev = terms.get(u)
        terms[u] = contrib if prev is None else prev + contrib
    return CohClass(Space(alpha.space.factors[:kx]), alpha.ring, terms)


def naive_slant_r(alpha: CohClass, b: HomClass) -> HomClass:
    """(alpha \\ b)(z^f) = sum_e alpha_e b(z^e z^f), one product and sum per term."""
    kx = alpha.space.nfactors
    values: dict = {}
    for be, v in b.terms.items():
        e, f = be[:kx], be[kx:]
        c = alpha.terms.get(e)
        if c is None:
            continue
        contrib = term_mul(c, v)
        prev = values.get(f)
        values[f] = contrib if prev is None else prev + contrib
    return HomClass(Space(b.space.factors[kx:]), alpha.ring, values)


def oracle_pushforward_hom(f, a: HomClass) -> HomClass:
    values = {}
    for e in basis(f.target):
        v = naive_pair(f.pullback(CohClass.monomial(f.target, a.ring, e)), a)
        if v:
            values[e] = v
    return HomClass(f.target, a.ring, values)


def oracle_shriek_hom(f, a: HomClass, law) -> HomClass:
    values = {}
    for e in basis(f.source):
        v = naive_pair(pushforward_coh(f, CohClass.monomial(f.source, a.ring, e), law), a)
        if v:
            values[e] = v
    return HomClass(f.source, a.ring, values)


# -- morphisms ------------------------------------------------------------------


def generators_from(space: Space) -> list:
    """Every generator shape with the given source, where the shape fits."""
    k = space.nfactors
    gens = [Projection(space, tuple(range(k))), Projection(space, ())]
    for t in range(k):
        gens.append(Projection(space, tuple(s for s in range(k) if s != t)))
        n = space.factors[t]
        for up in (0, 1, 2):
            if n + up <= 3:
                raised = Space(space.factors[:t] + (n + up,) + space.factors[t + 1 :])
                gens.append(LinearEmbed(raised, t, n))
        if n <= 2:
            gens.append(Diagonal(space, t))
    gens.append(Permutation(space, tuple(reversed(range(k)))))
    if k >= 3:
        gens.append(Permutation(space, (1, 2, 0) + tuple(range(3, k))))
    return gens


def composites_from(space: Space, rng: random.Random, count: int) -> list:
    """Seeded chains of two or three generators starting at ``space``."""
    out = []
    for _ in range(count):
        chain = []
        current = space
        for _ in range(rng.choice((2, 3))):
            fits = [g for g in generators_from(current) if g.target.total_dim <= 6]
            g = rng.choice(fits)
            chain.append(g)
            current = g.target
        out.append(compose(*reversed(chain)))
    return out


def morphisms_from(space: Space, seed: int) -> list:
    return generators_from(space) + composites_from(space, random.Random(seed), 4)


# -- the comparisons --------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("space", SPACES + (Space((2, 1, 2, 1)),), ids=str)
def test_cup_and_cap_match_naive_loops(laws, kind, space):
    ring = laws[kind].ring
    rng = random.Random("cup-cap|%s|%s" % (kind.value, space))
    for _ in range(4):
        x = sample_class(space, ring, rng)
        y = sample_class(space, ring, rng)
        a = sample_hom(space, ring, rng)
        assert x * y == naive_cup(x, y)
        assert cap(x, a) == naive_cap(x, a)
    # single monomials reach the corners of the exponent box
    for e in basis(space):
        z = CohClass.monomial(space, ring, e)
        top = HomClass.delta(space, ring, space.factors)
        assert z * z == naive_cup(z, z)
        assert cap(z, top) == naive_cap(z, top)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("space", SPACES, ids=str)
def test_pushforward_hom_matches_definition(laws, kind, space):
    ring = laws[kind].ring
    rng = random.Random("push|%s|%s" % (kind.value, space))
    for f in morphisms_from(space, 1):
        for _ in range(2):
            a = sample_hom(f.source, ring, rng)
            assert pushforward_hom(f, a) == oracle_pushforward_hom(f, a), f.render()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("space", SPACES, ids=str)
def test_shriek_hom_matches_definition(laws, kind, space):
    law = laws[kind]
    rng = random.Random("shriek|%s|%s" % (kind.value, space))
    for f in morphisms_from(space, 2):
        for _ in range(2):
            a = sample_hom(f.target, law.ring, rng)
            assert shriek_hom(f, a, law) == oracle_shriek_hom(f, a, law), f.render()


def test_families_cover_every_shape():
    seen = set()
    for space in SPACES:
        for f in morphisms_from(space, 1) + morphisms_from(space, 2):
            seen.add(type(f).__name__)
            if type(f).__name__ == "Composite":
                seen.add(len(f.parts))
    assert {"Projection", "LinearEmbed", "Diagonal", "Permutation", "Composite", 2, 3} <= seen


def test_shriek_hom_checks_the_ring(laws):
    p = Projection(Space((1,)), ())
    a = HomClass.point_class(laws[RingKind.ADDITIVE].ring)
    with pytest.raises(RingMismatchError):
        shriek_hom(p, a, laws[RingKind.MULTIPLICATIVE])


# -- the slot primitives against the loops they replaced --------------------------


def loop_pushforward_projection(f: Projection, alpha: CohClass, law) -> CohClass:
    """p_!(alpha) = alpha / [fibre] as a per-term loop: one lookup of the
    dropped slots, one product and one ``RingElem`` sum per term."""
    weights = fundamental_class(f.fibre, law).terms
    terms: dict = {}
    for e, c in alpha.terms.items():
        g = weights.get(tuple(e[t] for t in f.dropped))
        if g is not None:
            expo, c = tuple(e[t] for t in f.keep), c * g
            prev = terms.get(expo)
            terms[expo] = c if prev is None else prev + c
    return CohClass(f.target, alpha.ring, terms)


def loop_shriek_projection(f: Projection, a: HomClass, law) -> HomClass:
    """p^!(a) = a x [fibre], each value written slot by slot into the source."""
    weights = fundamental_class(f.fibre, law).terms.items()
    values = {}
    expo = [0] * f.source.nfactors
    for w, c in a.terms.items():
        for t, x in zip(f.keep, w):
            expo[t] = x
        for d, g in weights:
            for t, x in zip(f.dropped, d):
                expo[t] = x
            values[tuple(expo)] = g * c
    return HomClass(f.source, a.ring, values)


def loop_place(alpha: CohClass, slots: tuple, space: Space) -> CohClass:
    """Exponent i of each term written into slot slots[i], zeros elsewhere."""
    terms = {}
    for e, c in alpha.terms.items():
        expo = [0] * space.nfactors
        for i, t in enumerate(slots):
            expo[t] = e[i]
        terms[tuple(expo)] = c
    return CohClass(space, alpha.ring, terms)


# up to six factors, P0 factors among them; every subset of the factors is kept
SLOT_SPACES = SPACES + tuple(
    Space.parse(s) for s in ("P2xP1xP3", "P1xP0xP2xP1", "P1xP1xP0xP1xP1", "P1xP0xP1xP1xP0xP1", "P1xP1xP1xP1xP1xP1")
)


def projections_of(space: Space) -> list:
    """Every projection of ``space``: empty, one-slot, non-contiguous keeps."""
    k = space.nfactors
    return [Projection(space, keep) for r in range(k + 1) for keep in itertools.combinations(range(k), r)]


def permutations_of(space: Space, rng: random.Random) -> list:
    k = space.nfactors
    perms = [tuple(range(k)), tuple(reversed(range(k)))] + [tuple(rng.sample(range(k), k)) for _ in range(3)]
    return [Permutation(space, p) for p in perms]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("space", SLOT_SPACES, ids=str)
def test_contract_and_place_match_projection_loops(laws, kind, space):
    """p_! as ``contract`` with [fibre] and p^! as ``place`` of a x [fibre]
    against the per-term loops, coefficient types included."""
    law = laws[kind]
    rng = random.Random("slots|%s|%s" % (kind.value, space))
    for f in projections_of(space):
        fibre = fundamental_class(f.fibre, law)
        for _ in range(2):
            alpha, a = sample_class(f.source, law.ring, rng), sample_hom(f.target, law.ring, rng)
            want = typed_class(loop_pushforward_projection(f, alpha, law))
            assert typed_class(spaces.contract(alpha, fibre, f.keep, f.dropped)) == want, f.render()
            assert typed_class(pushforward_coh(f, alpha, law)) == want, f.render()
            want = typed_class(loop_shriek_projection(f, a, law))
            assert typed_class(spaces.place(a.cross(fibre), f.keep + f.dropped, f.source)) == want, f.render()
            assert typed_class(shriek_hom(f, a, law)) == want, f.render()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("space", SLOT_SPACES, ids=str)
def test_place_matches_pullback_loop(laws, kind, space):
    """The pullbacks along projections and permutations, and the gather
    itself, against slot-by-slot loops."""
    ring = laws[kind].ring
    rng = random.Random("place|%s|%s" % (kind.value, space))
    for f, slots in [(p, p.keep) for p in projections_of(space)] + [
        (p, p.perm) for p in permutations_of(space, rng)
    ]:
        for alpha in (sample_class(f.target, ring, rng), CohClass.one(f.target, ring)):
            want = typed_class(loop_place(alpha, slots, f.source))
            assert typed_class(spaces.place(alpha, slots, f.source)) == want, f.render()
            assert typed_class(f.pullback(alpha)) == want, f.render()
        for e in basis(f.source):
            assert spaces.gather(slots)(e) == tuple(e[t] for t in slots)


# -- ring arithmetic against the tuple-keyed definitions -------------------------

# Fraction(4, 2) is a Fraction equal to 2; halves cancel or sum to integers.
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(4, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3)]),
)
PACKED_RINGS = (
    [CoeffRing.additive(4), CoeffRing.multiplicative(2), CoeffRing.multiplicative(5)]
    + [CoeffRing.universal(n) for n in (2, 5, 10)]
)


@st.composite
def monomials(draw, ring: CoeffRing):
    """Exponent tuples; universal weights cluster at N and N + 1, beta
    powers run past 2N + 1."""
    n = ring.nsymbols
    if ring.kind is not RingKind.UNIVERSAL:
        return (draw(st.integers(0, 5 * ring.truncation + 3)),) * n
    N = ring.truncation
    weight = draw(st.one_of(st.sampled_from([N - 1, N, N + 1]), st.integers(0, N + 1)))
    expo = [0] * n
    while weight:
        m = draw(st.integers(1, min(weight, n)))
        expo[m - 1] += 1
        weight -= m
    return tuple(expo)


def raw_terms(ring: CoeffRing):
    return st.dictionaries(monomials(ring), COEFFS, max_size=6)


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=lambda r: "%s-%d" % (r.kind.value, r.truncation))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_ring_arithmetic_matches_tuple_oracle(ring, data):
    dx = data.draw(raw_terms(ring))
    dy = data.draw(raw_terms(ring))
    # y repeats some of x's terms negated, so that sums cancel to zero
    for expo in data.draw(st.lists(st.sampled_from(sorted(dx)), max_size=3)) if dx else ():
        dy[expo] = -dx[expo]
    x, y = RingElem(ring, dx), RingElem(ring, dy)
    assert typed(x.terms) == typed(tuple_canon(ring, dx))
    assert typed((x + y).terms) == typed(tuple_add(x, y))
    assert typed((x * y).terms) == typed(tuple_mul(x, y))
    assert typed((x * x).terms) == typed(tuple_mul(x, x))
    assert typed((-x).terms) == typed(tuple_canon(ring, {e: -c for e, c in x.terms.items()}))
    scale = data.draw(COEFFS)
    assert typed((x * scale).terms) == typed(tuple_canon(ring, {e: c * scale for e, c in x.terms.items()}))
    assert not (x - x) and not (x + (-x)).terms
    assert (x * y == y * x) and (x + y) - y == x
    assert x.degrees() == {ring.monomial_degree(e) for e in x.terms}
    assert x.constant_coeff() == x.terms.get((0,) * ring.nsymbols, 0)


@pytest.mark.parametrize("N", (2, 5, 10))
def test_universal_truncation_boundary(N):
    ring = CoeffRing.universal(N)
    b1, top = ring.gen(0), ring.gen(N - 2)
    # weight N survives, weight N + 1 is dropped, in products and constructors
    expo = [0] * (N - 1)
    expo[0] += 1
    expo[N - 2] += 1
    assert typed((top * b1).terms) == {tuple(expo): (int, 1)}
    assert not top * b1 * b1
    assert (b1 ** N).terms == {(N,) + (0,) * (N - 2): 1}
    assert not b1 ** (N + 1)
    assert not RingElem(ring, {(N + 1,) + (0,) * (N - 2): 1})
    half = b1 ** N * Fraction(1, 2)
    assert typed((half + half).terms) == {(N,) + (0,) * (N - 2): (int, 1)}


# -- scratch polynomials against the pair-by-pair product -------------------------

NIL_RINGS = tuple(CoeffRing(kind, 4) for kind in KINDS)


@st.composite
def nil_terms(draw, ring: CoeffRing, nvars: int, bound: int):
    """Terms on the simplex of total degree <= bound, most of them of high
    degree, so that many products leave the simplex."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        degree = draw(st.one_of(st.integers(0, bound), st.integers(bound // 2, bound)))
        expo = [0] * nvars
        for _ in range(degree):
            expo[draw(st.integers(0, nvars - 1))] += 1
        c = ring.from_coeff(draw(st.integers(-3, 3)))
        g = draw(st.integers(-1, ring.nsymbols - 1))
        terms[tuple(expo)] = c if g < 0 else c * ring.gen(g)
    return terms


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_nilpoly_product_matches_pair_loop(data):
    ring = data.draw(st.sampled_from(NIL_RINGS))
    nvars = data.draw(st.integers(1, 3))
    bound = data.draw(st.integers(1, 10))
    cls = Series if nvars == 1 and data.draw(st.booleans()) else NilPoly
    space = Space((bound,) * nvars)
    x = cls(space, ring, data.draw(nil_terms(ring, nvars, bound)))
    y = cls(space, ring, data.draw(nil_terms(ring, nvars, bound)))
    assert x * y == naive_nilpoly_product(x, y)
    assert x * x == naive_nilpoly_product(x, x)


# -- cup and cap on up to six factors against both pair loops ---------------------

# universal at N = 3 drops b1 * b1^3 and b2 * b1^2 in products
BOX_RINGS = (CoeffRing.additive(3), CoeffRing.multiplicative(3), CoeffRing.universal(3))
MAX_BOX = 144  # e.g. P1xP2xP1xP1xP2xP1


@st.composite
def box_spaces(draw):
    """Spaces of 0 to 6 factors of dimension 0 to 2 with at most MAX_BOX
    basis tuples, as in P1xP2xP1xP1xP2xP1 or P0xP2."""
    dims = draw(st.lists(st.sampled_from((0, 1, 1, 2)), max_size=6))
    size = 1
    for n in dims:
        size *= n + 1
    for t, n in enumerate(dims):
        if size > MAX_BOX and n == 2:
            dims[t], size = 1, size // 3 * 2
    return Space(tuple(dims))


@st.composite
def box_coeffs(draw, ring: CoeffRing):
    """Up to three monomials; universal ones of weight up to N."""
    c = ring.zero()
    for _ in range(draw(st.integers(1, 3))):
        scale = draw(COEFFS if ring.allows_fractions else st.integers(-3, 3))
        term = ring.from_coeff(scale)
        if ring.nsymbols and draw(st.booleans()):
            expo = draw(monomials(ring)) if ring.kind is RingKind.UNIVERSAL else (draw(st.integers(0, 3)),)
            term = term * RingElem(ring, {expo: 1})
        c = c + term
    return c


@st.composite
def box_terms(draw, ring: CoeffRing, space: Space):
    """An empty operand, one monomial, a few terms or nearly every basis
    tuple, so that both sides of the kernel's size switch run."""
    tuples = basis(space)
    shape = draw(st.sampled_from(("empty", "monomial", "sparse", "dense")))
    if shape == "empty":
        chosen = []
    elif shape == "monomial":
        chosen = [draw(st.sampled_from(tuples))]
    elif shape == "sparse":
        chosen = draw(st.lists(st.sampled_from(tuples), max_size=4))
    else:
        chosen = [e for e in tuples if draw(st.integers(0, 9))]
    return {e: draw(box_coeffs(ring)) for e in chosen}


def typed_class(x) -> dict:
    return {e: typed(c.terms) for e, c in x.terms.items()}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_box_walk_matches_pair_loops(data):
    ring = data.draw(st.sampled_from(BOX_RINGS))
    space = data.draw(box_spaces())
    x = CohClass(space, ring, data.draw(box_terms(ring, space)))
    y = CohClass(space, ring, data.draw(box_terms(ring, space)))
    a = HomClass(space, ring, data.draw(box_terms(ring, space)))
    table = packed_keys(space, space.total_dim)
    cup = x * y
    assert typed_class(cup) == typed_class(CohClass(space, ring, naive_packed_pairs(table, x.terms, y.terms, 1)))
    assert cup == naive_cup(x, y)
    capped = cap(x, a)
    assert typed_class(capped) == typed_class(HomClass(space, ring, naive_packed_pairs(table, x.terms, a.terms, -1)))
    assert capped == naive_cap(x, a)


@st.composite
def slant_spaces(draw):
    """Up to two factors of dimension 0 to 2, so X x Y has at most 81 tuples."""
    return Space(tuple(draw(st.lists(st.sampled_from((0, 1, 1, 2)), max_size=2))))


def cancelling(data, ring: CoeffRing, big: dict, small: dict, kept: list, matched: list, place) -> list:
    """Make some outputs of a contraction cancel to zero: ``small`` takes
    one value at two matched tuples v1, v2, and at each chosen kept tuple w
    ``big`` holds only c at place(w, v1) and -c at place(w, v2).  Returns
    the chosen w."""
    if len(matched) < 2:
        return []
    v1, v2 = data.draw(st.lists(st.sampled_from(matched), min_size=2, max_size=2, unique=True))
    small[v1] = small[v2] = data.draw(box_coeffs(ring))
    chosen = data.draw(st.lists(st.sampled_from(kept), min_size=1, unique=True))
    for w in chosen:
        for v in matched:
            big.pop(place(w, v), None)
        c = data.draw(box_coeffs(ring))
        big[place(w, v1)], big[place(w, v2)] = c, -c
    return chosen


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_slants_and_pair_match_per_term_loops(data):
    """The fused slants and pairing against one product and sum per term,
    in all three rings, with universal coefficients at the truncation
    limit and, half the time, outputs whose contributions cancel."""
    ring = data.draw(st.sampled_from(BOX_RINGS))
    X, Y = data.draw(slant_spaces()), data.draw(slant_spaces())
    XY = X.times(Y)
    alpha, a = data.draw(box_terms(ring, XY)), data.draw(box_terms(ring, Y))
    gamma, b = data.draw(box_terms(ring, X)), data.draw(box_terms(ring, XY))
    beta, h = data.draw(box_terms(ring, Y)), data.draw(box_terms(ring, Y))
    zero_l = zero_r = zero_pair = []
    if data.draw(st.booleans()):
        zero_l = cancelling(data, ring, alpha, a, basis(X), basis(Y), lambda u, v: u + v)
        zero_r = cancelling(data, ring, b, gamma, basis(Y), basis(X), lambda f, e: e + f)
        zero_pair = cancelling(data, ring, beta, h, [()], basis(Y), lambda _, v: v)
    alpha, a = CohClass(XY, ring, alpha), HomClass(Y, ring, a)
    gamma, b = CohClass(X, ring, gamma), HomClass(XY, ring, b)
    beta, h = CohClass(Y, ring, beta), HomClass(Y, ring, h)
    for got, want, zeros in (
        (slant_l(alpha, a), naive_slant_l(alpha, a), zero_l),
        (slant_r(gamma, b), naive_slant_r(gamma, b), zero_r),
    ):
        assert typed_class(got) == typed_class(want)
        assert all(got.terms.values()) and not set(zeros) & set(got.terms)
    got = pair(beta, h)
    assert typed(got.terms) == typed(naive_pair(beta, h).terms)
    assert not (zero_pair and got)


@pytest.mark.parametrize("product", ["cup", "cap"])
def test_box_walk_looks_up_at_most_twice_per_surviving_pair(monkeypatch, product):
    """Dense classes on P3xP3xP3 x P3xP3xP3: the kernel enumerates the box
    of each term from two halves, so the keys it looks up are the products
    of consecutive half sizes."""
    space = Space((3,) * 6)
    ring = CoeffRing.multiplicative(4)
    x = CohClass(space, ring, {e: ring.from_coeff(1 + sum(e) % 3) for e in basis(space)})
    y_terms = {e: ring.from_coeff(2 - sum(e) % 2) for e in basis(space)}
    halves = []
    half_box = spaces._half_box

    def counted(*args):
        keys = half_box(*args)
        halves.append(len(keys))
        return keys

    monkeypatch.setattr(spaces, "_half_box", counted)
    if product == "cup":
        out = x * CohClass(space, ring, y_terms)
    else:
        out = cap(x, HomClass(space, ring, y_terms))
    lookups = sum(lo * hi for lo, hi in zip(halves[::2], halves[1::2]))
    # every term of both operands is nonzero: (e, f) survives iff e + f <= n
    # for cup and f >= e for cap: prod_t (n_t - e_t + 1) pairs per e either way
    surviving = 0
    for e in x.terms:
        box = 1
        for n, et in zip(space.factors, e):
            box *= n - et + 1
        surviving += box
    assert len(halves) == 2 * len(x.terms)
    assert surviving <= lookups <= 2 * surviving
    # positive coefficients: no output cancels; one corner has one pair
    assert len(out.terms) == len(y_terms)
    corner = (0,) * 6 if product == "cup" else space.factors
    assert out.terms[corner] == x.terms[(0,) * 6] * y_terms[corner]


# -- the universal law's table against its eager construction -----------------


def eager_universal_table(N: int) -> dict:
    """F = exp(log(x) + log(y)) for log(x) = x + sum bm x^(m+1), as
    ``universal_law`` once built it at construction: revert the log, expand
    the sum of the two logarithms, check the normal form."""
    ring = CoeffRing.universal(N)
    log = Series.make(ring, N, [ring.zero(), ring.one()] + [ring.gen(m - 1) for m in range(1, N)])
    exp = log.reversion()
    lx = NilPoly.from_series(log, 2, 0)
    ly = NilPoly.from_series(log, 2, 1)
    coeffs = {}
    for (i, j), c in _series_on_nilpoly(exp, lx + ly).terms.items():
        if i >= 1 and j >= 1:
            coeffs[(i, j)] = c
        else:
            assert (i, j) in ((1, 0), (0, 1)) and c == ring.one()
    return coeffs


def typed_table(table: dict) -> dict:
    return {ij: typed(c.terms) for ij, c in table.items()}


@pytest.mark.parametrize("N", range(1, 13))
def test_lazy_universal_table_matches_eager_construction(N):
    assert typed_table(universal_law(N).coeffs) == typed_table(eager_universal_table(N))


def test_lazy_universal_table_uses_the_memoised_exp(monkeypatch):
    reversions = []
    real = Series.reversion

    def counted(s):
        reversions.append(s)
        return real(s)

    monkeypatch.setattr(Series, "reversion", counted)
    law = universal_law(7)
    assert not reversions
    law.coeffs
    assert len(reversions) == 1 and reversions[0] is law.log()
    exp = law.exp()
    assert law.coeffs is law.coeffs and law.exp() is exp
    assert len(reversions) == 1


# -- Euler classes and m-series against the sequential construction ----------


def sequential_euler(space: Space, degrees: tuple, law) -> CohClass:
    """c1(O(d1, .., dk)) as F folded over the factor classes [d_t](z_t),
    with [m] = F(x, [m-1]) applied m times and [-m] = iota([m]): the
    construction every law used before the m-series doubled and the
    logarithm route."""
    x = law.x_series()

    def m_series(m):
        out = x * 0
        for _ in range(abs(m)):
            out = apply_law(law, x, out)
        return law.inverse().compose(out) if m < 0 else out

    out = CohClass.zero(space, law.ring)
    for t, d in enumerate(degrees):
        if d:
            out = law.eval(out, m_series(d).eval_nilpotent(CohClass.zeta(space, law.ring, t)))
    return out


@pytest.mark.parametrize(
    "kind, space, degrees",
    [
        (RingKind.UNIVERSAL, "P4xP4", (7, -5)),
        (RingKind.UNIVERSAL, "P2xP2xP2", (3, -2, 1)),
        (RingKind.UNIVERSAL, "P1xP2xP3", (1, -2, 2)),
        (RingKind.MULTIPLICATIVE, "P2xP2", (13, -6)),
    ],
)
def test_euler_matches_sequential_fold(kind, space, degrees):
    sp = Space.parse(space)
    law = law_for(kind, sp.total_dim + 1)
    got = spaces.euler(sp, degrees, law)
    assert typed_class(got) == typed_class(sequential_euler(sp, degrees, law_for(kind, sp.total_dim + 1)))
    if kind is RingKind.UNIVERSAL:
        assert ("table", None) not in law._memo


def test_doubling_m_series_matches_closed_forms():
    # [m]x = m*x (additive) and (1 - (1 - beta*x)^m) / beta
    # = sum_(d >= 1) C(m, d) (-beta)^(d-1) x^d (multiplicative), with the
    # generalised binomial C(m, d) integral for either sign of m
    N = 6
    add, mult = additive_law(N), multiplicative_law(N)
    beta = mult.ring.gen(0)
    for m in range(-9, 41):
        assert add.m_series(m) == add.x_series() * m
        binom, closed = 1, [0]
        for d in range(1, N + 1):
            binom = binom * (m - d + 1) // d
            closed.append((-beta) ** (d - 1) * binom)
        assert mult.m_series(m) == Series.make(mult.ring, N, closed)


# -- the diagonal kernel against back substitution -----------------------------


def naive_kernel_matrix(law, n: int) -> tuple:
    """C with M C = I for M[k][l] = g_(n-k-l), solved column by column:
    row k of column l reads sum_(j <= n-k) g_(n-k-j) c_j = delta_(k,l), and
    g_0 = 1 makes the j = n-k entry a unit."""
    ring = law.ring
    g = [law.pn_class(d) for d in range(n + 1)]
    cols = []
    for l in range(n + 1):
        col = [ring.zero()] * (n + 1)
        for k in range(n, -1, -1):
            acc = ring.one() if k == l else ring.zero()
            for j in range(n - k):
                if col[j]:
                    acc = acc - g[n - k - j] * col[j]
            col[n - k] = acc
        cols.append(col)
    return tuple(tuple(cols[l][i] for l in range(n + 1)) for i in range(n + 1))


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_back_substitution(kind):
    law = law_for(kind, 9)
    for n in range(9):
        C = kernel(law, n).C
        assert [[typed(c.terms) for c in row] for row in C] == [
            [typed(c.terms) for c in row] for row in naive_kernel_matrix(law, n)
        ]
    if kind is RingKind.UNIVERSAL:
        assert ("table", None) not in law._memo


def naive_diagonal_class(space: Space, law) -> CohClass:
    blocks = CohClass.one(Space.point(), law.ring)
    for n in space.factors:
        blocks = spaces.cross_coh(blocks, kernel(law, n).K)
    k = space.nfactors  # blocks lives on (n1, n1, n2, n2, ...)
    return Permutation(space.times(space), tuple(s for t in range(k) for s in (t, k + t))).pullback(blocks)


# up to six factors, P0 factors among them
DCOH_SPACES = SPACES + tuple(Space.parse(s) for s in ("P1xP0xP2", "P1xP1xP0xP1xP0xP1", "P2xP1xP0xP1xP1xP1"))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("space", DCOH_SPACES, ids=str)
def test_duality_to_coh_matches_diagonal_slant(laws, kind, space):
    law = laws[kind]
    K = diagonal_kernel_class(space, law)
    rng = random.Random("dcoh|%s|%s" % (kind.value, space))
    classes = [sample_hom(space, law.ring, rng) for _ in range(3)] + [HomClass.zero(space, law.ring)]
    classes += [HomClass.delta(space, law.ring, e) for e in basis(space)]
    assert K == naive_diagonal_class(space, law)
    for a in classes:
        assert duality_to_coh(a, law) == slant_l(K, a)


def ring_arithmetic_coeff(ring: CoeffRing, rng: random.Random) -> RingElem:
    """A sampled coefficient a + s*b_idx^power + p/q, built by ring sums."""
    c = ring.from_coeff(rng.randint(-3, 3))
    if ring.nsymbols and rng.random() < 0.5:
        idx = rng.randrange(ring.nsymbols)
        power = rng.randint(1, 2)
        scale = rng.randint(-2, 2)
        expo = tuple(power if i == idx else 0 for i in range(ring.nsymbols))
        c = c + RingElem(ring, {expo: scale})
    if ring.allows_fractions and rng.random() < 0.25:
        c = c + ring.from_coeff(Fraction(rng.randint(-2, 2), rng.randint(2, 3)))
    return c


def ring_arithmetic_sample(cls, space: Space, ring: CoeffRing, rng: random.Random):
    terms = {}
    for e in basis(space):
        if rng.random() < 0.75:
            terms[e] = ring_arithmetic_coeff(ring, rng)
    return cls(space, ring, terms)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("N", (3, 7, 10, 12))  # at N = 3, b2^2 is dropped
def test_sampler_matches_ring_arithmetic(kind, N):
    ring = CoeffRing(kind, N)
    for space in map(Space.parse, ("pt", "P0", "P2", "P2xP0xP1", "P0xP3", "P1xP1xP1")):
        for sample, cls in ((sample_class, CohClass), (sample_hom, HomClass)):
            for seed in range(3):
                rng, ref_rng = _derive_rng(seed, str(space)), _derive_rng(seed, str(space))
                for _ in range(3):
                    got = sample(space, ring, rng)
                    want = ring_arithmetic_sample(cls, space, ring, ref_rng)
                    assert type(got) is cls and typed_class(got) == typed_class(want)
                assert rng.getstate() == ref_rng.getstate()
