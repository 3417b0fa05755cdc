"""The product kernels against their defining formulas.

``CohClass.__mul__``, ``cap``, ``pushforward_hom`` and ``shriek_hom``
compute by packed exponent keys and per-shape transpose formulas.  The
oracles below are their definitions, evaluated the slow way:

* cup and cap loop over pairs of exponent tuples;
* (f_* a)(z^e) = a(f^* z^e) for every basis monomial of the target;
* (f^! a)(z^e) = <f_!(z^e), a> for every basis monomial of the source.

Each routine must agree with its oracle exactly, for every generator
shape and for composites of two and three parts, in all three theories,
on seeded random classes, including spaces with a P0 factor and the point.
"""

import random

import pytest

from orient_duality.algebra import RingKind
from orient_duality.errors import RingMismatchError
from orient_duality.fgl import law_for
from orient_duality.gysin import pushforward_coh
from orient_duality.homodual import HomClass, cap, pair, pushforward_hom, shriek_hom
from orient_duality.spaces import (
    CohClass,
    Diagonal,
    LinearEmbed,
    Permutation,
    Projection,
    Space,
    basis,
    compose,
)
from orient_duality.verify import sample_class, sample_hom

TRUNC = 6
KINDS = (RingKind.ADDITIVE, RingKind.MULTIPLICATIVE, RingKind.UNIVERSAL)
SPACES = tuple(
    Space.parse(s) for s in ("pt", "P0", "P2", "P1xP0", "P0xP2", "P2xP1", "P1xP1xP1")
)


@pytest.fixture(scope="module")
def laws():
    return {kind: law_for(kind, TRUNC) for kind in KINDS}


# -- the oracles ----------------------------------------------------------------


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


def oracle_pushforward_hom(f, a: HomClass) -> HomClass:
    values = {}
    for e in basis(f.target):
        v = pair(f.pullback(CohClass.monomial(f.target, a.ring, e)), a)
        if v:
            values[e] = v
    return HomClass(f.target, a.ring, values)


def oracle_shriek_hom(f, a: HomClass, law) -> HomClass:
    values = {}
    for e in basis(f.source):
        v = pair(pushforward_coh(f, CohClass.monomial(f.source, a.ring, e), law), a)
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
