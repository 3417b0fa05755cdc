"""Direct images (Gysin maps) along the morphism generators.

The four generator shapes push forward as follows, extended additively
over terms and linearly over the coefficient ring:

* ``LinearEmbed`` (P^m in factor t of P^n):   z_t^e  ->  z_t^(e + n - m);
  in particular 1 maps to z_t^(n-m), the class of the subspace.
* ``Projection`` X -> the kept factors, with fibre Y the product of the
  dropped ones:  alpha -> alpha / [Y] (``spaces.contract`` with [Y]), so z^e
  maps to [Y](e|dropped) * z^(e|keep), [Y] the fundamental class of Y.
* ``Diagonal`` at factor t: alpha -> pull(alpha) * K, where pull forgets
  the duplicated slot and K is the diagonal kernel of P^(n_t) pulled back
  to the two slots.
* ``Permutation``: pullback along the inverse reordering.

The diagonal kernel K = sum C_ij z1^i z2^j on P^n x P^n is determined by
the projection formula requirement

    p1_!(K * p2^*(alpha)) = alpha        for every alpha on P^n,

which pins C as the inverse of the pairing matrix M with M[k][l] =
g_(n-k-l).  M is the Hankel matrix of the point-class series
G(x) = sum g_d x^d, with g_0 = 1, so its inverse is the Hankel matrix of
one reciprocal: C[i][j] = [x^(i+j-n)] 1/G(x), zero for i + j < n, over any
coefficient ring with no division (``fgl.unit_reciprocal``).  The
kernels of P^n and the diagonal classes of product spaces are kept in the
law's memo (``FGL.derived``).

Point classes enter through [P^n] and K_n only.  The point classes g_n
(``fgl.pn_class``) are read in two places: the kernel K_n of P^n and the
class [P^n](z^e) = g_(n-e), whose cross products are the fundamental
classes [X] (``fundamental_class``, kept in the law's memo); every other
formula puts these together by cross product, contraction or placement.
The homological transposes f_* and f^! (``homodual``) use the same
per-shape data: [fibre] for projections and ``placed_kernel``, K_n placed
in two slots (``spaces.place``), for diagonals.
"""

from dataclasses import dataclass, field

from .errors import SpaceMismatchError, RingMismatchError
from .fgl import FGL, unit_reciprocal
from .spaces import (
    CohClass,
    Composite,
    Diagonal,
    HomClass,
    LinearEmbed,
    Morphism,
    Permutation,
    Projection,
    Space,
    contract,
    place,
)


@dataclass(frozen=True)
class GysinKernel:
    """Diagonal data for one projective space P^n, built from ``C`` alone.

    ``C`` is the two-sided inverse of the pairing matrix g_(n-k-l),
    ``C[i][j] = [x^(i+j-n)] 1/(g_0 + ... + g_n x^n)``.  Derived from it,
    once per kernel: ``n``, the diagonal class ``K = sum C[i][j] z1^i z2^j``
    on P^n x P^n, and ``cols[j]``, the items ``(i, ring.operand_order(
    C[i][j]._t.items()))`` of column j's nonzero entries, the pairs
    ``algebra.fused_mul`` reads.
    """

    C: tuple
    n: int = field(init=False, compare=False)
    K: CohClass = field(init=False, repr=False, compare=False)
    cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        C, n = self.C, len(self.C) - 1
        square = Space((n, n))  # refuses an empty C
        K = CohClass(square, C[0][0].ring, {(i, j): c for i, row in enumerate(C) for j, c in enumerate(row)})
        order = K.ring.operand_order
        cols = tuple(tuple((i, order(row[j]._t.items())) for i, row in enumerate(C) if row[j]) for j in range(n + 1))
        for name, value in (("n", n), ("K", K), ("cols", cols)):
            object.__setattr__(self, name, value)


def kernel(law: FGL, n: int) -> GysinKernel:
    """The diagonal kernel of P^n for the given law (memoised)."""
    return law.derived("kernel", n, lambda: _solve_kernel(law, n))


def _solve_kernel(law: FGL, n: int) -> GysinKernel:
    ring = law.ring
    g = [law.pn_class(d) for d in range(n + 1)]
    # C is the Hankel matrix of h = 1/G, G(x) = sum g_d x^d, as the pairing
    # matrix is G's: sum_k g_(n-i-k) h_(k+j-n) = [x^(j-i)] G h = delta_ij.
    h = [ring.zero()] * n + unit_reciprocal(ring, g)
    return GysinKernel(tuple(tuple(h[i + j] for j in range(n + 1)) for i in range(n + 1)))  # h_(i+j-n)


def _check_pushforward_args(f: Morphism, alpha: CohClass, law: FGL):
    if alpha.space != f.source:
        raise SpaceMismatchError(
            "direct image along %s needs a class on %s, got one on %s"
            % (f.render(), f.source, alpha.space)
        )
    if alpha.ring != law.ring:
        raise RingMismatchError("class and law use different coefficient rings")


def pushforward_coh(f: Morphism, alpha: CohClass, law: FGL) -> CohClass:
    """Direct image f_!(alpha) on cohomology."""
    _check_pushforward_args(f, alpha, law)
    if isinstance(f, LinearEmbed):
        shift = f.target.factors[f.factor] - f.degree
        t = f.factor
        terms = {e[:t] + (e[t] + shift,) + e[t + 1 :]: c for e, c in alpha.terms.items()}
        return alpha._like(terms, f.target)
    if isinstance(f, Projection):
        return contract(alpha, fundamental_class(f.fibre, law), f.keep, f.dropped)
    if isinstance(f, Diagonal):
        return diagonal_section(f).pullback(alpha) * placed_kernel(f, law)
    if isinstance(f, Permutation):
        return f.inverse().pullback(alpha)
    if isinstance(f, Composite):
        for part in reversed(f.parts):
            alpha = pushforward_coh(part, alpha, law)
        return alpha
    raise TypeError("unknown morphism shape %r" % type(f).__name__)


def placed_kernel(f: Diagonal, law: FGL) -> CohClass:
    """The kernel of P^(n_t) pulled back to slots t, t+1 of ``f.target``,
    so that f_!(alpha) = q^*(alpha) * placed_kernel(f) with
    q = diagonal_section(f)."""
    t = f.factor
    return place(kernel(law, f.source.factors[t]).K, (t, t + 1), f.target)


def diagonal_section(f: Diagonal) -> Projection:
    """The projection of ``f.target`` onto ``f.source`` that forgets the
    second copy of the duplicated factor."""
    k = f.target.nfactors
    return Projection(f.target, tuple(p for p in range(k) if p != f.factor + 1))


def diamond_coh(f: Morphism, law: FGL):
    """The operator f_! f^* on classes over f.target."""

    def op(alpha: CohClass) -> CohClass:
        return pushforward_coh(f, f.pullback(alpha), law)

    return op


def diagonal_kernel_class(space: Space, law: FGL) -> CohClass:
    """The diagonal class of a product space on space x space: the external
    product of the per-factor kernels, placed on X x X.  It agrees with
    pushing 1 along ``spaces.full_diagonal`` (the verification suite checks
    both).  Memoised on the law."""
    return law.derived("diagonal_class", space, lambda: _diagonal_class(space, law))


def _diagonal_class(space: Space, law: FGL) -> CohClass:
    # K_X(u, v) = prod_t h_t(u_t + v_t - n_t), h_t the last row of C_(n_t): one
    # product per tuple of sums, shared by every term (u, v) with that sum
    prods = {(): law.ring.one()}
    for n in space.factors:
        h = kernel(law, n).C[n]
        prods = {s + (m,): p * h[m] for s, p in prods.items() for m in range(n + 1) if h[m]}
    terms = {}
    for s, p in prods.items():
        uvs = [((), ())]
        for n, m in zip(space.factors, s):
            uvs = [(u + (i,), v + (n + m - i,)) for u, v in uvs for i in range(m, n + 1)]
        terms.update(dict.fromkeys([u + v for u, v in uvs], p))
    return CohClass._trusted(space.times(space), law.ring, terms)  # in range by construction


def fundamental_class(space: Space, law: FGL) -> HomClass:
    """[X](z^e) = prod_t g_(n_t - e_t): the cross product of the factors'
    classes [P^n](z^e) = g_(n-e).  Projections read the class of their
    fibre, so the transfer of the point class along X -> pt is [X] itself.
    Memoised on the law."""
    return law.derived("fundamental_class", space, lambda: _fundamental_class(space, law))


def _fundamental_class(space: Space, law: FGL) -> HomClass:
    ring = law.ring
    out = HomClass.point_class(ring)
    for n in space.factors:
        pn = HomClass(Space((n,)), ring, {(e,): law.pn_class(n - e) for e in range(n + 1)})
        out = out.cross(pn)  # [P^n](z^e) = g_(n-e)
    return out
