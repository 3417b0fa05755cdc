"""The diagonal's Gysin maps against the composed formulas.

f_! and f^! along a ``Diagonal`` at factor t read the kernel matrix C of
P^(n_t) slot by slot.  The oracle composes whole classes instead: with q
the projection of the target that forgets slot t + 1, and K the kernel
K_n placed in slots t, t + 1 of the target,

    f_!(alpha) = q^*(alpha) * K        (a cup product),
    f^!(a)     = q_*(K cap a)          (a cap product, then a projection).

Both sides are compared in all three rings, along every ``Diagonal`` of
three spaces and along a composite with three diagonals in it, on every
basis monomial or delta and on one seeded class.
"""

import random

import pytest

from orient_duality.fgl import additive_law, multiplicative_law, universal_law
from orient_duality.gysin import kernel, pushforward_coh
from orient_duality.homodual import cap, pushforward_hom, shriek_hom
from orient_duality.spaces import (
    CohClass,
    Composite,
    Diagonal,
    HomClass,
    Projection,
    Space,
    basis,
    full_diagonal,
    place,
)
from orient_duality.verify import sample_class, sample_hom

N = 5
LAWS = {law.ring.kind.value: law for law in (additive_law(N), multiplicative_law(N), universal_law(N))}
SPACES = tuple(Space.parse(s) for s in ("P3", "P2xP1xP2", "P1xP0xP2"))
MAPS = [Diagonal(space, t) for space in SPACES for t in range(space.nfactors)]
MAPS += [full_diagonal(SPACES[2])]  # three diagonals, one of P0, then a permutation


def _section(f: Diagonal) -> Projection:
    """q: the target onto the source, forgetting the second copy of slot t."""
    k = f.target.nfactors
    return Projection(f.target, tuple(p for p in range(k) if p != f.factor + 1))


def _placed_kernel(f: Diagonal, law) -> CohClass:
    t, n = f.factor, f.source.factors[f.factor]
    K_n = CohClass(Space((n, n)), law.ring, {(i, j): c for i, row in enumerate(kernel(law, n)) for j, c in enumerate(row)})
    return place(K_n, (t, t + 1), f.target)


def oracle_push(f, alpha, law):
    if isinstance(f, Composite):
        for part in reversed(f.parts):
            alpha = oracle_push(part, alpha, law)
        return alpha
    if isinstance(f, Diagonal):
        return _section(f).pullback(alpha) * _placed_kernel(f, law)
    return pushforward_coh(f, alpha, law)


def oracle_shriek(f, a, law):
    if isinstance(f, Composite):
        for part in f.parts:
            a = oracle_shriek(part, a, law)
        return a
    if isinstance(f, Diagonal):
        return pushforward_hom(_section(f), cap(_placed_kernel(f, law), a))
    return shriek_hom(f, a, law)


@pytest.mark.parametrize("kind", LAWS)
@pytest.mark.parametrize("f", MAPS, ids=lambda f: "%s:%s" % (f.source, f.render()))
def test_diagonal_pushforward_matches_pullback_times_placed_kernel(kind, f):
    law = LAWS[kind]
    ring = law.ring
    inputs = [CohClass.monomial(f.source, ring, e) for e in basis(f.source)]
    inputs.append(sample_class(f.source, ring, random.Random("push|%s|%s" % (kind, f.render()))))
    for alpha in inputs:
        assert pushforward_coh(f, alpha, law) == oracle_push(f, alpha, law), alpha


@pytest.mark.parametrize("kind", LAWS)
@pytest.mark.parametrize("f", MAPS, ids=lambda f: "%s:%s" % (f.source, f.render()))
def test_diagonal_transfer_matches_projected_kernel_cap(kind, f):
    law = LAWS[kind]
    ring = law.ring
    inputs = [HomClass.delta(f.target, ring, e) for e in basis(f.target)]
    inputs.append(sample_hom(f.target, ring, random.Random("shriek|%s|%s" % (kind, f.render()))))
    for a in inputs:
        assert shriek_hom(f, a, law) == oracle_shriek(f, a, law), a
