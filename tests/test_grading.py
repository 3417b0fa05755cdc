"""The grading as an oracle: every computed class is homogeneous of a
degree known in advance.

The coefficient rings are graded, beta in degree -1 and b_m in degree -m
(``CoeffRing.symbol_degrees``), and z_t has degree 1.  The universal law
is homogeneous of degree 1 (Quillen 1969), so everything derived from a
law is homogeneous too:

* a_ij has degree 1 - i - j, and g_n = [P^n] degree -n;
* K_n on P^n x P^n, and K_X on X x X, have degree dim X; [X] has
  homological degree dim X; an Euler class of a line bundle degree 1;
* f_! adds dim target - dim source to the degree, f^! adds
  dim source - dim target, and f_* keeps it;
* D_hom sends degree d to homological degree dim X - d, and D_coh undoes
  that.

A cohomology term c z^e has degree |e| + deg(c).  A homology class of
homological degree h takes values of degree |e| - h on z^e.  The check
reads only exponent tuples and the symbol degrees, so it needs no second
implementation.  It runs in the multiplicative and universal rings on
the acceptance grid (the additive ring has no symbols).
"""

import pytest

from orient_duality.fgl import multiplicative_law, universal_law
from orient_duality.gysin import diagonal_kernel_class, kernel, pushforward_coh
from orient_duality.homodual import (
    duality_to_coh,
    duality_to_hom,
    fundamental_class,
    pushforward_hom,
    shriek_hom,
)
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
    euler,
    full_diagonal,
)

N = 10
LAWS = {law.ring.kind.value: law for law in (multiplicative_law(N), universal_law(N))}
GRID = tuple(Space.parse(s) for s in ("P1", "P2", "P3", "P1xP1", "P1xP2", "P2xP2"))


def ring_degrees(c) -> set:
    """The degrees of the monomials of a ring element."""
    sym = c.ring.symbol_degrees
    return {sum(k * d for k, d in zip(mono, sym)) for mono in c.terms}


def degrees(x) -> set:
    """The degrees of the terms of a class: cohomological for a
    ``CohClass``, homological for a ``HomClass``."""
    sign = 1 if isinstance(x, CohClass) else -1
    return {sum(e) + sign * d for e, c in x.terms.items() for d in ring_degrees(c)}


def assert_degree(x, d, what, may_vanish=False):
    expected = [set(), {d}] if may_vanish else [{d}]
    assert degrees(x) in expected, "%s: degrees %s, expected %d" % (what, sorted(degrees(x)), d)


def maps_from(space: Space) -> list:
    """Each generator shape with source ``space``, and the composite
    X' -> X -> X x X -> X of an embedding, the diagonal and a projection."""
    k, last = space.nfactors, space.factors[-1]
    maps = [Projection(space, ()), Permutation(space, tuple(reversed(range(k))))]
    maps += [Projection(space, tuple(s for s in range(k) if s != t)) for t in range(k)]
    maps += [Diagonal(space, t) for t in range(k)]
    maps.append(LinearEmbed(Space(space.factors[:-1] + (last + 1,)), k - 1, last))
    diagonal = full_diagonal(space)
    second = Projection(diagonal.target, tuple(range(k, 2 * k)))
    maps.append(compose(second, diagonal, LinearEmbed(space, k - 1, last - 1)))
    return maps


@pytest.mark.parametrize("kind", LAWS)
def test_law_data_is_homogeneous(kind):
    law = LAWS[kind]
    for (i, j), a in law.coeffs.items():
        assert ring_degrees(a) <= {1 - i - j}, (i, j)  # a zero a_ij is homogeneous too
    for n in range(N):
        assert ring_degrees(law.pn_class(n)) == {-n}, n
        K_n = CohClass(Space((n, n)), law.ring, {(i, j): c for i, row in enumerate(kernel(law, n)) for j, c in enumerate(row)})
        assert_degree(K_n, n, "K_%d" % n)


@pytest.mark.parametrize("kind", LAWS)
@pytest.mark.parametrize("space", GRID, ids=str)
def test_classes_of_a_space_are_homogeneous(kind, space):
    law, dim = LAWS[kind], space.total_dim
    assert_degree(diagonal_kernel_class(space, law), dim, "K_X")
    assert_degree(fundamental_class(space, law), dim, "[X]")
    for twist in ((1,) * space.nfactors, (-2,) + (3,) * (space.nfactors - 1)):
        assert_degree(euler(space, twist, law), 1, "euler%s" % (twist,))
    for e in basis(space):
        z, at = CohClass.monomial(space, law.ring, e), HomClass.delta(space, law.ring, e)
        assert_degree(duality_to_hom(z, law), dim - sum(e), "D_hom z^%s" % (e,))
        assert_degree(duality_to_coh(at, law), dim - sum(e), "D_coh d_%s" % (e,))


@pytest.mark.parametrize("kind", LAWS)
@pytest.mark.parametrize("space", GRID, ids=str)
def test_maps_shift_the_degree_by_the_dimensions(kind, space):
    law, ring = LAWS[kind], LAWS[kind].ring
    for f in maps_from(space):
        shift, name = f.target.total_dim - f.source.total_dim, f.render()
        for e in basis(f.source):
            z, at = CohClass.monomial(f.source, ring, e), HomClass.delta(f.source, ring, e)
            pushed, moved = pushforward_coh(f, z, law), pushforward_hom(f, at)
            assert_degree(pushed, sum(e) + shift, "%s_! z^%s" % (name, e), may_vanish=True)
            assert_degree(moved, sum(e), "%s_* d_%s" % (name, e), may_vanish=True)
        for e in basis(f.target):
            transfer = shriek_hom(f, HomClass.delta(f.target, ring, e), law)
            assert_degree(transfer, sum(e) - shift, "%s^! d_%s" % (name, e), may_vanish=True)
