import itertools
import random
from fractions import Fraction

import pytest
import sympy

from orient_duality.errors import RingMismatchError, SpaceMismatchError
from orient_duality.fgl import (
    FGL,
    additive_law,
    multiplicative_law,
    universal_law,
)
from orient_duality.gysin import (
    diagonal_kernel_class,
    diamond_coh,
    kernel,
    pushforward_coh,
)
from orient_duality.homodual import fundamental_class, shriek_hom
from orient_duality.spaces import (
    CohClass,
    Diagonal,
    LinearEmbed,
    Permutation,
    Projection,
    Space,
    basis,
    compose,
    euler,
    full_diagonal,
    transposition,
)
from orient_duality.verify import sample_class, sample_hom

from law_mutants import with_flipped_coefficient

N = 8


@pytest.fixture(scope="module")
def laws():
    return {
        "additive": additive_law(N),
        "multiplicative": multiplicative_law(N),
        "universal": universal_law(N),
    }


# -- inverse coefficient matrices --------------------------------------------


def test_c_matrix_additive_antidiagonal(laws):
    law = laws["additive"]
    C = kernel(law, 2)
    one, zero = law.ring.one(), law.ring.zero()
    assert C == ((zero, zero, one), (zero, one, zero), (one, zero, zero))


def test_c_matrix_multiplicative_frozen(laws):
    law = laws["multiplicative"]
    beta = law.ring.gen(0)
    C = kernel(law, 2)
    z = law.ring.zero()
    assert C == ((z, z, law.ring.one()), (z, law.ring.one(), -beta), (law.ring.one(), -beta, z))


def test_c_matrix_universal_frozen(laws):
    law = laws["universal"]
    b1 = law.ring.gen(0)
    C = kernel(law, 1)
    assert C == ((law.ring.zero(), law.ring.one()), (law.ring.one(), -2 * b1))


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_c_inverts_m_both_sides(laws, kind, n):
    # the pairing matrix M[k][l] = g_(n-k-l), built here from the point
    # classes rather than by the code that builds C
    law = laws[kind]
    C = kernel(law, n)
    size = n + 1
    M = [
        [law.pn_class(n - k - l) if k + l <= n else law.ring.zero() for l in range(size)]
        for k in range(size)
    ]
    for i in range(size):
        for j in range(size):
            mc = sum((M[i][k] * C[k][j] for k in range(size)), law.ring.zero())
            cm = sum((C[i][k] * M[k][j] for k in range(size)), law.ring.zero())
            want = law.ring.one() if i == j else law.ring.zero()
            assert mc == want
            assert cm == want


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_c_symmetric(laws, kind):
    law = laws[kind]
    C = kernel(law, 4)
    for i in range(5):
        for j in range(5):
            assert C[i][j] == C[j][i]


def test_c_entries_from_series_inverse(laws):
    # C_ij depends only on i+j: it is the (i+j-n)-th coefficient of the
    # reciprocal of sum_d g_d x^d.  Check against sympy for the
    # multiplicative theory, where g_d = beta^d so the reciprocal is 1 - beta*x.
    law = laws["multiplicative"]
    beta = sympy.symbols("beta")
    x = sympy.symbols("x")
    inv = sympy.series(1 / sum(beta**d * x**d for d in range(N)), x, 0, 6).removeO()
    inv = sympy.expand(inv)
    n = 3
    C = kernel(law, n)
    for i in range(n + 1):
        for j in range(n + 1):
            d = i + j - n
            want = inv.coeff(x, d) if d >= 0 else sympy.Integer(0)
            got = sympy.sympify(
                C[i][j].render().replace("^", "**"), locals={"beta": beta}
            )
            assert sympy.simplify(got - want) == 0


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_defining_property(laws, kind, n):
    # p1_!(K . p2^* alpha) = alpha for every basis class
    law = laws[kind]
    sq = Space((n, n))
    K = CohClass(sq, law.ring, {(i, j): c for i, row in enumerate(kernel(law, n)) for j, c in enumerate(row)})
    p1 = Projection(sq, (0,))
    p2 = Projection(sq, (1,))
    for e in basis(p1.target):
        alpha = CohClass.monomial(p1.target, law.ring, e)
        assert pushforward_coh(p1, K * p2.pullback(alpha), law) == alpha


def test_kernel_shape_mult_frozen(laws):
    law = laws["multiplicative"]
    beta = law.ring.gen(0)
    sq = Space((1, 1))
    K = CohClass(sq, law.ring, {(i, j): c for i, row in enumerate(kernel(law, 1)) for j, c in enumerate(row)})
    z1 = CohClass.zeta(sq, law.ring, 0)
    z2 = CohClass.zeta(sq, law.ring, 1)
    assert K == z1 + z2 - (z1 * z2) * beta
    assert K == euler(sq, (1, 1), law)


# -- pushforwards ------------------------------------------------------------


def test_embed_pushforward_multiplies_euler(laws):
    for law in laws.values():
        emb = LinearEmbed(Space((2,)), 0, 1)  # P1 -> P2
        one = CohClass.one(Space((1,)), law.ring)
        z_src = CohClass.zeta(Space((1,)), law.ring, 0)
        z = CohClass.zeta(Space((2,)), law.ring, 0)
        assert pushforward_coh(emb, one, law) == z
        assert pushforward_coh(emb, z_src, law) == z * z


def test_point_embed_pushforward(laws):
    law = laws["multiplicative"]
    emb = LinearEmbed(Space((2,)), 0, 0)  # pt -> P2
    one = CohClass.one(Space((0,)), law.ring)
    z = CohClass.zeta(Space((2,)), law.ring, 0)
    assert pushforward_coh(emb, one, law) == z * z


def test_projection_pushforward_point_classes(laws):
    # P2 -> pt: the top cell maps to 1, lower cells pick up g-classes
    for kind, law in laws.items():
        p = Projection(Space((2,)), ())
        sp = Space((2,))
        top = CohClass.monomial(sp, law.ring, (2,))
        mid = CohClass.monomial(sp, law.ring, (1,))
        bot = CohClass.one(sp, law.ring)
        pt = Space.point()
        assert pushforward_coh(p, top, law) == CohClass.one(pt, law.ring)
        assert pushforward_coh(p, mid, law) == CohClass.one(pt, law.ring) * law.pn_class(1)
        assert pushforward_coh(p, bot, law) == CohClass.one(pt, law.ring) * law.pn_class(2)


def test_projection_pushforward_partial(laws):
    law = laws["multiplicative"]
    beta = law.ring.gen(0)
    sp = Space((2, 1))
    p = Projection(sp, (1,))  # drop the P2 factor
    c = CohClass.monomial(sp, law.ring, (1, 1))
    # integrates z1 over P2: picks up g_1 = beta
    want = CohClass.monomial(Space((1,)), law.ring, (1,), beta)
    assert pushforward_coh(p, c, law) == want


def test_diagonal_pushforward_of_one_is_kernel(laws):
    for law in laws.values():
        d = Diagonal(Space((1,)), 0)
        got = pushforward_coh(d, CohClass.one(Space((1,)), law.ring), law)
        assert got == CohClass(Space((1, 1)), law.ring, {(i, j): c for i, row in enumerate(kernel(law, 1)) for j, c in enumerate(row)})


def test_permutation_pushforward_scatters(laws):
    law = laws["additive"]
    sp = Space((2, 1))
    tau = Permutation(sp, (1, 0))
    c = CohClass.monomial(sp, law.ring, (2, 1))
    assert pushforward_coh(tau, c, law) == CohClass.monomial(tau.target, law.ring, (1, 2))


def test_composite_pushforward_is_nested(laws):
    law = laws["multiplicative"]
    inner = LinearEmbed(Space((2,)), 0, 1)  # P1 -> P2
    outer = LinearEmbed(Space((3,)), 0, 2)  # P2 -> P3
    f = compose(outer, inner)
    for e in basis(Space((1,))):
        c = CohClass.monomial(Space((1,)), law.ring, e)
        nested = pushforward_coh(outer, pushforward_coh(inner, c, law), law)
        assert pushforward_coh(f, c, law) == nested


def test_full_diagonal_pushforward_is_product_kernel(laws):
    for law in laws.values():
        sp = Space((1, 2))
        d = full_diagonal(sp)
        got = pushforward_coh(d, CohClass.one(sp, law.ring), law)
        assert got == diagonal_kernel_class(sp, law)


def test_product_kernel_point():
    law = multiplicative_law(N)
    k = diagonal_kernel_class(Space.point(), law)
    assert k == CohClass.one(Space.point(), law.ring)


@pytest.mark.parametrize("factors", [(1,), (2,), (1, 1), (2, 1)])
def test_kernel_transposition_invariance(laws, factors):
    space = Space(factors)
    for law in laws.values():
        K = diagonal_kernel_class(space, law)
        assert transposition(space).pullback(K) == K


def test_diamond_divisor_is_cup(laws):
    # pushing forward along a codimension-one linear embedding and pulling
    # back again multiplies by the divisor class
    law = laws["multiplicative"]
    sp = Space((3,))
    emb = LinearEmbed(sp, 0, 2)
    op = diamond_coh(emb, law)
    z = CohClass.zeta(sp, law.ring, 0)
    for e in basis(sp):
        c = CohClass.monomial(sp, law.ring, e)
        assert op(c) == z * c


def test_projection_formula_spot(laws):
    law = laws["universal"]
    sp = Space((2, 1))
    p = Projection(sp, (0,))
    alpha = CohClass.monomial(p.target, law.ring, (1,)) + CohClass.one(p.target, law.ring)
    b1 = law.ring.gen(0)
    beta_cls = CohClass.monomial(sp, law.ring, (1, 1), b1)
    lhs = pushforward_coh(p, p.pullback(alpha) * beta_cls, law)
    rhs = alpha * pushforward_coh(p, beta_cls, law)
    assert lhs == rhs


# -- argument validation -----------------------------------------------------


def test_pushforward_rejects_wrong_space(laws):
    law = laws["additive"]
    emb = LinearEmbed(Space((2,)), 0, 1)
    wrong = CohClass.one(Space((2,)), law.ring)
    with pytest.raises(SpaceMismatchError):
        pushforward_coh(emb, wrong, law)


def test_pushforward_rejects_wrong_ring(laws):
    law = laws["additive"]
    emb = LinearEmbed(Space((2,)), 0, 1)
    other = multiplicative_law(N)
    c = CohClass.one(Space((1,)), other.ring)
    with pytest.raises(RingMismatchError):
        pushforward_coh(emb, c, law)


def test_kernel_rejects_bad_degree(laws):
    # checked before the memo, where True would read as 1
    for bad in (-1, -3, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match=r"^projective dimension .* is not an int >= 0$"):
            kernel(laws["additive"], bad)


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_kernel_is_its_matrix_c(laws, kind):
    # kernel(law, n) is C itself, memoised: n + 1 rows of n + 1 ring
    # elements, whose K_n = sum C[i][j] z1^i z2^j is the diagonal class of P^n
    law = laws[kind]
    for n in range(7):
        C = kernel(law, n)
        assert type(C) is tuple and len(C) == n + 1
        assert all(type(row) is tuple and len(row) == n + 1 for row in C)
        assert all(c.ring is law.ring for row in C for c in row)
        assert kernel(law, n) is C
        K_n = CohClass(Space((n, n)), law.ring, {(i, j): c for i, row in enumerate(C) for j, c in enumerate(row)})
        assert diagonal_kernel_class(Space((n,)), law) == K_n, n


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "universal"])
def test_projections_and_diagonals_read_no_point_class(laws, monkeypatch, kind):
    # point classes enter only through [P^n] and K_n: once the fibre
    # classes and kernels are built, no generator reads a point class
    law, space = laws[kind], Space((2, 1, 2))
    gens = [Projection(space, keep) for r in range(4) for keep in itertools.combinations(range(3), r)]
    gens += [Diagonal(space, t) for t in range(3)]
    rng = random.Random(7)
    cases = [(f, sample_class(f.source, law.ring, rng), sample_hom(f.target, law.ring, rng)) for f in gens]
    before = [(pushforward_coh(f, alpha, law), shriek_hom(f, a, law)) for f, alpha, a in cases]

    def refuse(self, n):
        raise AssertionError("point class g_%d read outside [P^n] and K_n" % n)

    monkeypatch.setattr(FGL, "pn_class", refuse)
    after = [(pushforward_coh(f, alpha, law), shriek_hom(f, a, law)) for f, alpha, a in cases]
    assert after == before


def test_kernel_cached(laws):
    law = laws["universal"]
    assert kernel(law, 2) is kernel(law, 2)


def test_diagonal_class_cached(laws):
    law = laws["universal"]
    sq = Space((2, 1))
    assert diagonal_kernel_class(sq, law) is diagonal_kernel_class(sq, law)
    assert ("diagonal_class", sq) in law._memo


def test_mutant_caches_follow_their_flags():
    # the diagonal class is built from kernels, the fundamental class from
    # point classes: each cache is kept exactly when its source data is
    law = multiplicative_law(6)
    sq = Space((2, 2))
    K = diagonal_kernel_class(sq, law)
    X = fundamental_class(sq, law)
    stale = with_flipped_coefficient(law, 1, 1)
    assert diagonal_kernel_class(sq, stale) is K
    assert fundamental_class(sq, stale) is X
    only_kernels = with_flipped_coefficient(law, 1, 1, keep_log=False)
    assert ("diagonal_class", sq) in only_kernels._memo
    assert ("fundamental_class", sq) not in only_kernels._memo
    only_log = with_flipped_coefficient(law, 1, 1, keep_kernels=False)
    assert ("fundamental_class", sq) in only_log._memo
    assert ("diagonal_class", sq) not in only_log._memo


def test_fresh_mutant_rebuilds_diagonal_and_fundamental_classes():
    law = multiplicative_law(6)
    sq = Space((2, 2))
    K = diagonal_kernel_class(sq, law)
    X = fundamental_class(sq, law)
    fresh = with_flipped_coefficient(law, 1, 1, keep_log=False, keep_kernels=False)
    assert diagonal_kernel_class(sq, fresh) != K
    assert fundamental_class(sq, fresh) != X
    # and the original's caches are untouched by the mutant's fills
    assert diagonal_kernel_class(sq, law) is K
    assert fundamental_class(sq, law) is X
