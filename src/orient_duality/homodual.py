"""Products between homology and cohomology, and duality maps.

Homology of a product of projective spaces is modelled as the graded dual
of its cohomology: a class (``spaces.HomClass``, re-exported here) is the
finite family of its values on the monomial basis, held in the sparse
core ``spaces.SparseClass`` that cohomology classes use too (``values``
reads its map).  All operations below are forced by that model plus the
Gysin structure:

* ``pair(alpha, a)``            the evaluation <alpha, a>
* ``pushforward_hom(f, a)``     (f_* a)(beta) = a(f^* beta)
* ``shriek_hom(f, a, law)``     (f^! a)(beta) = a(f_! beta)
* ``cap(alpha, a)``             (alpha cap a)(beta) = a(beta * alpha)
* ``cross_hom(a, b)``           (a x b)(e, f) = a(e) * b(f)
* ``slant_l(alpha, a)``         alpha / a, contracting the trailing block
* ``slant_r(alpha, b)``         alpha \\ b, contracting the leading block
* ``fundamental_class(X, law)`` [X](z^e) = prod g_(n_t - e_t), built in
                                ``gysin`` and re-exported here
* ``duality_to_hom``            alpha -> alpha cap [X]
* ``duality_to_coh``            a -> K_X / a  (diagonal class slant a)

D_hom = cap with [X]; D_coh = ⊗ C_n, one factor at a time: K_X is the
Kronecker product of the kernel matrices C_n, so K_X / a is computed
without K_X and its up to B^2 terms.  K_X (``gysin.diagonal_kernel_class``)
serves only the ``kernel`` subcommand, V8 and V9.

The two transposes are not evaluated one basis monomial at a time; each
generator shape has a direct formula (composites apply their parts in
turn), which follows from the shape's pullback and Gysin map:

* ``Projection``:  f_* keeps the values at tuples that vanish on the
  dropped slots; f^! a = a x [fibre], placed by ``spaces.place``:
  (f^! a)(e) = a(e|keep) * [fibre](e|dropped);
* ``LinearEmbed``: f_* keeps every value at its tuple; f^! moves slot t
  down by n - m;
* ``Diagonal``:    f_* spreads a(v) over the tuples that split v_t into
  (i, v_t - i); (f^! a)(u) = sum_ij C_(n_t)[i][j] a(u[:t] + (u_t + i, j) + u[t+1:]);
* ``Permutation``: f_* reorders tuples by one gather; f^! = (f^-1)_*.

Point classes enter through [P^n] and C: no formula here reads a point
class itself, only [X] and the kernel matrices C_n that ``gysin`` builds
and keeps in the law's memo (``FGL.derived``).

``cap`` runs the cup product's kernel ``spaces.packed_pairs`` with the
keys of alpha negated: each term e of alpha walks the box b <= n - e and
looks a up at b + e, or tests every value of a where a has fewer values
than that box.  The slants, ``pair`` (onto the point) and p_! are one
contraction, ``spaces.contract``.  Each of these maps, and D_coh and the
diagonal's f^!, which read the kernel matrices C_n of ``gysin.kernel``,
hand all their coefficient products to one call of ``algebra.sum_products``.
``cross_hom`` is the shared external product.

The projective bundle decomposition is realised by ``psi``/``pbt_section``
for projections that drop a single factor.
"""

from .algebra import RingElem, sum_products
from .errors import RingMismatchError, SpaceMismatchError
from .fgl import FGL
from .gysin import fundamental_class, kernel
from .spaces import (
    CohClass,
    Composite,
    Diagonal,
    HomClass,
    LinearEmbed,
    Morphism,
    Permutation,
    Projection,
    contract,
    gather,
    packed_pairs,
    place,
)

__all__ = [
    "HomClass",
    "pair",
    "pushforward_hom",
    "shriek_hom",
    "diamond_hom",
    "cap",
    "cross_hom",
    "slant_l",
    "slant_r",
    "fundamental_class",
    "duality_to_hom",
    "duality_to_coh",
    "psi",
    "pbt_section",
]


# -- pairings and products -------------------------------------------------


def _check_kinds(alpha, a):
    if not isinstance(alpha, CohClass) or not isinstance(a, HomClass):
        raise TypeError(
            "expected a cohomology class and a homology class, got %s and %s"
            % (type(alpha).__name__, type(a).__name__)
        )


def pair(alpha: CohClass, a: HomClass) -> RingElem:
    """The evaluation <alpha, a> in the coefficient ring: the slant
    alpha / a, which lands on the point."""
    _check_kinds(alpha, a)
    alpha._check(a)
    return contract(alpha, a, (), tuple(range(a.space.nfactors))).coeff(())


def pushforward_hom(f: Morphism, a: HomClass) -> HomClass:
    """(f_* a)(beta) = a(f^*(beta)).

    Every generator pulls a basis monomial back to a basis monomial (or
    to 0), so f_* only moves the values of ``a`` between basis tuples."""
    if a.space != f.source:
        raise SpaceMismatchError("direct image along %s needs a class on %s" % (f.render(), f.source))
    if isinstance(f, Composite):
        for part in reversed(f.parts):
            a = pushforward_hom(part, a)
        return a
    if isinstance(f, Projection):
        kept, dropped = gather(f.keep), gather(f.dropped)
        values = {kept(v): c for v, c in a.terms.items() if not any(dropped(v))}
    elif isinstance(f, LinearEmbed):
        values = a.terms
    elif isinstance(f, Diagonal):
        t = f.factor
        values = {}
        for v, c in a.terms.items():
            head, vt, tail = v[:t], v[t], v[t + 1 :]
            for i in range(vt + 1):
                values[head + (i, vt - i) + tail] = c
    elif isinstance(f, Permutation):
        moved = gather(f.perm)
        values = {moved(v): c for v, c in a.terms.items()}
    else:
        raise TypeError("unknown morphism shape %r" % type(f).__name__)
    return a._like(values, f.target)


def shriek_hom(f: Morphism, a: HomClass, law: FGL) -> HomClass:
    """(f^! a)(beta) = a(f_!(beta)); raises homological degree like f_!."""
    if a.space != f.target:
        raise SpaceMismatchError("transfer along %s needs a class on %s" % (f.render(), f.target))
    if a.ring != law.ring:
        raise RingMismatchError("class and law use different coefficient rings")
    if isinstance(f, Composite):
        for part in f.parts:
            a = shriek_hom(part, a, law)
        return a
    if isinstance(f, Permutation):
        return pushforward_hom(f.inverse(), a)
    if isinstance(f, Diagonal):
        # K_n cap a, read where slot t+1 is 0: C[i][j] * a(w) at w[:t] + (w_t - i,) + w[t+2:], j = w_(t+1)
        t, C = f.factor, kernel(law, f.source.factors[f.factor])
        triples = [
            (w[:t] + (w[t] - i,) + w[t + 2 :], d, c)
            for w, c in a.terms.items()
            for i in range(w[t] + 1)
            if (d := C[i][w[t + 1]])
        ]
        return a._like(sum_products(a.ring, triples), f.source)
    if isinstance(f, Projection):
        # a x [fibre], its slots placed in the source's
        return place(a.cross(fundamental_class(f.fibre, law)), f.keep + f.dropped, f.source)
    if not isinstance(f, LinearEmbed):
        raise TypeError("unknown morphism shape %r" % type(f).__name__)
    t = f.factor
    shift = f.target.factors[t] - f.degree
    values = {w[:t] + (w[t] - shift,) + w[t + 1 :]: c for w, c in a.terms.items() if w[t] >= shift}
    return a._like(values, f.source)


def diamond_hom(f: Morphism, law: FGL):
    """The operator f_* f^! on homology classes over f.target."""

    def op(a: HomClass) -> HomClass:
        return pushforward_hom(f, shriek_hom(f, a, law))

    return op


def cap(alpha: CohClass, a: HomClass) -> HomClass:
    """(alpha cap a)(beta) = a(beta * alpha): a at v picks up beta = v - e."""
    _check_kinds(alpha, a)
    alpha._check(a)
    return a._like(packed_pairs(alpha, a, -1))


def cross_hom(a: HomClass, b: HomClass) -> HomClass:
    """External product: (a x b)(e + f) = a(e) * b(f)."""
    return a.cross(b)


def slant_l(alpha: CohClass, a: HomClass) -> CohClass:
    """alpha / a for alpha on X x Y and a on Y, landing on X.

    Writing alpha = sum alpha_(u,v) z^u z^v over the split exponents,
    (alpha / a) = sum alpha_(u,v) a(z^v) z^u.
    """
    _check_kinds(alpha, a)
    ky = a.space.nfactors
    kx = alpha.space.nfactors - ky
    if kx < 0 or alpha.space.factors[kx:] != a.space.factors:
        raise SpaceMismatchError(
            "slant needs %s to end with %s" % (alpha.space, a.space)
        )
    return contract(alpha, a, tuple(range(kx)), tuple(range(kx, kx + ky)))


def slant_r(alpha: CohClass, b: HomClass) -> HomClass:
    """alpha \\ b for alpha on X and b on X x Y, landing on Y:
    (alpha \\ b)(z^f) = sum_e alpha_e b(z^e z^f)."""
    _check_kinds(alpha, b)
    kx = alpha.space.nfactors
    ky = b.space.nfactors - kx
    if ky < 0 or b.space.factors[:kx] != alpha.space.factors:
        raise SpaceMismatchError(
            "slant needs %s to start with %s" % (b.space, alpha.space)
        )
    return contract(b, alpha, tuple(range(kx, kx + ky)), tuple(range(kx)))


# -- duality ----------------------------------------------------------------


def duality_to_hom(alpha: CohClass, law: FGL) -> HomClass:
    """alpha cap [X]."""
    return cap(alpha, fundamental_class(alpha.space, law))


def duality_to_coh(a: HomClass, law: FGL) -> CohClass:
    """K_X / a, the inverse direction of Poincare duality, as the sweep
    D_coh(a)(u) = sum_v a(v) prod_t C_(n_t)[u_t][v_t]: each factor t in
    turn moves every value from slot v_t to the slots u_t of its column."""
    if a.ring != law.ring:
        raise RingMismatchError("class and law use different coefficient rings")
    values = a.terms
    for t, n in enumerate(a.space.factors):
        C = kernel(law, n)
        triples = [
            (v[:t] + (i,) + v[t + 1 :], c, d)
            for v, c in values.items()
            for i in range(n + 1)
            if (d := C[i][v[t]])
        ]
        values = sum_products(a.ring, triples)
    return CohClass._trusted(a.space, a.ring, values)


# -- projective bundle decomposition ----------------------------------------


def _single_drop(p: Morphism) -> int:
    if not isinstance(p, Projection) or len(p.dropped) != 1:
        raise ValueError("expected a projection dropping exactly one factor")
    return p.dropped[0]


def psi(i: int, p: Projection, a: HomClass) -> HomClass:
    """The i-th bundle component map: psi_i = p_*(z_t^i cap -)."""
    t = _single_drop(p)
    n = p.source.factors[t]
    if not 0 <= i <= n:
        raise ValueError("component index %d out of range 0..%d" % (i, n))
    if a.space != p.source:
        raise SpaceMismatchError("psi needs a homology class on %s" % p.source)
    expo = tuple(i if s == t else 0 for s in range(p.source.nfactors))
    return pushforward_hom(p, cap(CohClass.monomial(p.source, a.ring, expo), a))


def pbt_section(components: list[HomClass], p: Projection) -> HomClass:
    """The unique b with psi_i(p, b) = components[i] for all i.

    In the dual model psi_i reads off the slice of b at z_t^i, so the
    section is direct reassembly; the round trips both ways are checked
    by the verification suite.
    """
    t = _single_drop(p)
    n = p.source.factors[t]
    if len(components) != n + 1:
        raise ValueError("need exactly %d components" % (n + 1))
    ring = None
    values: dict = {}
    for i, comp in enumerate(components):
        if comp.space != p.target:
            raise SpaceMismatchError("component %d lives on %s, expected %s" % (i, comp.space, p.target))
        ring = comp.ring if ring is None else ring
        if comp.ring != ring:
            raise RingMismatchError("components over different rings")
        for e, v in comp.terms.items():
            expo = e[:t] + (i,) + e[t:]
            values[expo] = v
    return HomClass(p.source, ring, values)
