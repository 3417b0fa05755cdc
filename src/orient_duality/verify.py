"""The identity verification suite.

Every check asserts an exact polynomial identity; there are no tolerances.
A check either passes or returns a witness: the offending inputs plus both
sides, rendered.  Sampling is deterministic: each (check, theory, space)
cell derives its own generator from the configured seed, so reports are
byte-identical across runs and independent of execution order.

Checks
------
V1  group-law axioms, logarithm identity, m-series additivity
V2  orientation: Euler class normalisation and additivity
V3  projective bundle decomposition round trips
V4  divisor normalisation: i_! i^* = i_!(1) cup -, i_* i^! = i_!(1) cap -
V5  cohomological projection formula per generator
V6  homological (first) projection formula per generator
V7  slant (second) projection formula, prefixed by pt and P1
V8  transposition symmetry of the diagonal class and its products
V9  K_X / [X] = 1
V10 Poincare duality round trips on full bases
V11 transfer/direct image transported through duality
V12 recursion for point classes and projection diamonds
V13 decomposition of the identity on homology of P^n
V14 diamond operators on transversal squares
V15 up-then-down: p_* p^! = p_!(1) cap -
V16 slant/cap/cross calculus and functoriality
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import CoeffRing, RingKind, wrap_sums
from .errors import CalculatorError, TruncationUnsoundError
from .fgl import FGL, apply_law, check_axioms, law_for
from .gysin import (
    diagonal_kernel_class,
    diamond_coh,
    kernel,
    pushforward_coh,
)
from .homodual import (
    HomClass,
    cap,
    cross_hom,
    diamond_hom,
    duality_to_coh,
    duality_to_hom,
    fundamental_class,
    pbt_section,
    psi,
    pushforward_hom,
    shriek_hom,
    slant_l,
    slant_r,
)
from .spaces import (
    CohClass,
    Diagonal,
    LinearEmbed,
    Morphism,
    Permutation,
    Projection,
    Space,
    basis,
    compose,
    euler,
    full_diagonal,
    prefix_product,
    product_morphism,
    transposition,
)


@dataclass(frozen=True)
class CheckConfig:
    """What to verify: theories x spaces at one truncation, seeded."""

    theories: tuple[RingKind, ...]
    spaces: tuple[Space, ...]
    truncation: int
    seed: int = 0
    samples: int = 4

    def __post_init__(self):
        if not self.theories or not self.spaces:
            raise ValueError("need at least one theory and one space")
        if self.samples < 1:
            raise ValueError("need at least one sample per identity")
        dmax = max(s.total_dim for s in self.spaces)
        if self.truncation < dmax + 1:
            raise TruncationUnsoundError(
                "truncation %d is unsound for spaces of dimension up to %d (need >= %d)"
                % (self.truncation, dmax, dmax + 1)
            )


@dataclass(frozen=True)
class CheckReport:
    check: str
    theory: str
    space: str
    status: str  # "pass" | "fail"
    witness: dict | None

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "theory": self.theory,
            "space": self.space,
            "status": self.status,
            "witness": self.witness,
        }


def _derive_rng(seed: int, *labels: str) -> random.Random:
    key = "|".join([str(seed), *labels]).encode()
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- deterministic sampling -------------------------------------------------


@lru_cache(maxsize=16)
def _symbol_keys(ring: CoeffRing) -> tuple:
    """keys[idx][power - 1] is the key of b_idx^power, None where truncation drops it."""
    gens = [tuple(int(i == idx) for i in range(ring.nsymbols)) for idx in range(ring.nsymbols)]
    return tuple((ring._pack(g), ring._pack(tuple(2 * e for e in g))) for g in gens)


def _sample(cls, space: Space, ring: CoeffRing, rng: random.Random):
    """Coefficients a + s*b_idx^power + p/q, drawn as the same stream that
    ring arithmetic on those terms would draw, each key map canonicalised once."""
    keys = _symbol_keys(ring)
    accs = {}
    for e in basis(space):
        if rng.random() < 0.75:
            raw = accs[e] = {0: rng.randint(-3, 3)}
            if keys and rng.random() < 0.5:
                key = keys[rng.randrange(len(keys))][rng.randint(1, 2) - 1]
                scale = rng.randint(-2, 2)  # drawn even where the key is dropped
                if key is not None:
                    raw[key] = scale
            if ring.allows_fractions and rng.random() < 0.25:
                raw[0] += Fraction(rng.randint(-2, 2), rng.randint(2, 3))
    return cls(space, ring, wrap_sums(ring, accs))


def sample_class(space: Space, ring: CoeffRing, rng: random.Random) -> CohClass:
    """A deterministic pseudo-random class."""
    return _sample(CohClass, space, ring, rng)


def sample_hom(space: Space, ring: CoeffRing, rng: random.Random) -> HomClass:
    """The homology counterpart of ``sample_class``, drawn the same way."""
    return _sample(HomClass, space, ring, rng)


# -- witness helpers --------------------------------------------------------


def _render(x) -> str:
    if hasattr(x, "render"):
        return x.render()
    return str(x)


def _mismatch(identity: str, lhs, rhs, **inputs) -> dict:
    w = {"identity": identity, "lhs": _render(lhs), "rhs": _render(rhs)}
    for k, v in inputs.items():
        w[k] = _render(v)
    return w


@dataclass
class _Ctx:
    kind: RingKind
    law: FGL
    ring: CoeffRing
    space: Space
    rng: random.Random
    samples: int


def _generators(space: Space) -> list[Morphism]:
    """A covering family of generator morphisms into/out of the space."""
    gens: list[Morphism] = []
    k = space.nfactors
    for t in range(k):
        gens.append(Projection(space, tuple(s for s in range(k) if s != t)))
    if k >= 2:
        gens.append(Projection(space, ()))
    for t in range(k):
        if space.factors[t] >= 1:
            gens.append(LinearEmbed(space, t, space.factors[t] - 1))
        if space.factors[t] >= 2:
            gens.append(LinearEmbed(space, t, 0))
    for t in range(k):
        gens.append(Diagonal(space, t))
    if k >= 2:
        gens.append(Permutation(space, (1, 0) + tuple(range(2, k))))
    if k >= 1 and space.factors[0] >= 1:
        emb = LinearEmbed(space, 0, space.factors[0] - 1)
        gens.append(compose(Diagonal(space, 0), emb))
    return gens


# -- the checks -------------------------------------------------------------


def _check_fgl_axioms(ctx: _Ctx):
    # V1 reads neither the space nor the rng: one verdict per law
    return ctx.law.derived("v1", None, lambda: _law_witness(ctx.law))


def _law_witness(law: FGL):
    bad = check_axioms(law)
    if bad is not None:
        return {"identity": "group-law axioms", "detail": bad}
    x = law.x_series()
    # independent right sides: a table law's m_series doubles ([4] = F([2], [2])),
    # so fold [m] = F(x, [m-1]) here; a law given by its log has [m] = exp(m log x)
    seq = [x * 0]
    while not law.from_log and len(seq) < 5:
        seq.append(apply_law(law, x, seq[-1]))
    for m1, m2 in ((1, 1), (2, 1), (2, 2), (-1, 1)):
        lhs = apply_law(law, law.m_series(m1), law.m_series(m2))
        rhs = law.m_series(m1 + m2) if law.from_log else seq[m1 + m2]
        if lhs != rhs:
            return _mismatch("[%d](x) + [%d](x) = [%d](x)" % (m1, m2, m1 + m2), lhs, rhs, x=x)
    return None


def _check_orientation(ctx: _Ctx):
    space, law, rng = ctx.space, ctx.law, ctx.rng
    k = space.nfactors
    if k == 0:
        return None
    for t in range(k):
        unit = tuple(1 if s == t else 0 for s in range(k))
        lhs = euler(space, unit, law)
        rhs = CohClass.zeta(space, law.ring, t)
        if lhs != rhs:
            return _mismatch("euler(O(e_%d)) = z_%d" % (t, t + 1), lhs, rhs)
    zero_expo = (0,) * k
    for _ in range(ctx.samples):
        d1 = tuple(rng.randint(-2, 2) for _ in range(k))
        d2 = tuple(rng.randint(-2, 2) for _ in range(k))
        e1, e2 = euler(space, d1, law), euler(space, d2, law)
        if zero_expo in e1.terms:
            return _mismatch("euler has zero constant term", e1, CohClass.zero(space, law.ring), degrees=str(d1))
        lhs = law.eval(e1, e2)
        rhs = euler(space, tuple(a + b for a, b in zip(d1, d2)), law)
        if lhs != rhs:
            return _mismatch(
                "euler(%s) + euler(%s) = euler(sum) under the law" % (d1, d2), lhs, rhs
            )
    return None


def _check_pbt(ctx: _Ctx):
    space, law, ring = ctx.space, ctx.law, ctx.ring
    k = space.nfactors
    if k == 0:
        return None
    p = Projection(space, tuple(range(k - 1)))
    n = space.factors[k - 1]
    for e in basis(space):
        b = HomClass.delta(space, ring, e)
        comps = [psi(i, p, b) for i in range(n + 1)]
        back = pbt_section(comps, p)
        if back != b:
            return _mismatch("section(psi_*(b)) = b", back, b, basis_elem=str(e))
    zero_t = HomClass.zero(p.target, ring)
    for f in basis(p.target):
        for i in range(n + 1):
            comps = [HomClass.delta(p.target, ring, f) if j == i else zero_t for j in range(n + 1)]
            b = pbt_section(comps, p)
            for j in range(n + 1):
                got = psi(j, p, b)
                want = comps[j]
                if got != want:
                    return _mismatch("psi_%d(section(x)) = x_%d" % (j, j), got, want, basis_elem=str(f))
    b = sample_hom(space, ring, ctx.rng)
    back = pbt_section([psi(i, p, b) for i in range(n + 1)], p)
    if back != b:
        return _mismatch("section(psi_*(b)) = b", back, b, b=b)
    return None


def _check_divisor_normalization(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    if law.truncation >= 3 and any(n >= 1 for n in space.factors):
        # the diagonal of P1 x P1 is a divisor of O(1, 1): the kernel from
        # matrix inversion must match the Euler class from the law table
        square = Space((1, 1))
        lhs = kernel(law, 1).K
        rhs = euler(square, (1, 1), law)
        if lhs != rhs:
            return _mismatch("kernel(1) = euler(O(1,1)) on P1xP1", lhs, rhs)
    for t in range(space.nfactors):
        if space.factors[t] < 1:
            continue
        emb = LinearEmbed(space, t, space.factors[t] - 1)
        i1 = pushforward_coh(emb, CohClass.one(emb.source, ring), law)
        zt = CohClass.zeta(space, ring, t)
        if i1 != zt:
            return _mismatch("i_!(1) = z_%d" % (t + 1), i1, zt, embed=emb)
        unit = tuple(1 if s == t else 0 for s in range(space.nfactors))
        ei = euler(space, unit, law)
        if i1 != ei:
            return _mismatch("i_!(1) = euler(O(e_%d))" % t, i1, ei, embed=emb)
        for _ in range(ctx.samples):
            alpha = sample_class(space, ring, rng)
            lhs = pushforward_coh(emb, emb.pullback(alpha), law)
            rhs = i1 * alpha
            if lhs != rhs:
                return _mismatch("i_!(i^*(alpha)) = i_!(1) * alpha", lhs, rhs, alpha=alpha, embed=emb)
            a = sample_hom(space, ring, rng)
            lhs_h = pushforward_hom(emb, shriek_hom(emb, a, law))
            rhs_h = cap(i1, a)
            if lhs_h != rhs_h:
                return _mismatch("i_*(i^!(a)) = i_!(1) cap a", lhs_h, rhs_h, a=a, embed=emb)
    return None


def _check_coh_projection(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for f in _generators(space):
        for _ in range(ctx.samples):
            alpha = sample_class(f.target, ring, rng)
            beta = sample_class(f.source, ring, rng)
            lhs = pushforward_coh(f, f.pullback(alpha) * beta, law)
            rhs = alpha * pushforward_coh(f, beta, law)
            if lhs != rhs:
                return _mismatch(
                    "f_!(f^*(alpha) * beta) = alpha * f_!(beta)", lhs, rhs, f=f, alpha=alpha, beta=beta
                )
    return None


def _check_first_projection(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for f in _generators(space):
        for _ in range(ctx.samples):
            alpha = sample_class(f.source, ring, rng)
            a = sample_hom(f.target, ring, rng)
            lhs = pushforward_hom(f, cap(alpha, shriek_hom(f, a, law)))
            rhs = cap(pushforward_coh(f, alpha, law), a)
            if lhs != rhs:
                return _mismatch(
                    "f_*(alpha cap f^!(a)) = f_!(alpha) cap a", lhs, rhs, f=f, alpha=alpha, a=a
                )
    return None


def _check_second_projection(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for T in (Space.point(), Space((1,))):
        for f in _generators(space):
            big = prefix_product(T, f)
            for _ in range(ctx.samples):
                alpha = sample_class(big.source, ring, rng)
                a = sample_hom(f.target, ring, rng)
                lhs = slant_l(alpha, shriek_hom(f, a, law))
                rhs = slant_l(pushforward_coh(big, alpha, law), a)
                if lhs != rhs:
                    return _mismatch(
                        "alpha / f^!(a) = (id_T x f)_!(alpha) / a",
                        lhs,
                        rhs,
                        T=T,
                        f=f,
                        alpha=alpha,
                        a=a,
                    )
    return None


def _check_transposition(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    diag = full_diagonal(space)
    tau = transposition(space)
    K = diagonal_kernel_class(space, law)
    double = space.times(space)
    if pushforward_coh(diag, CohClass.one(space, ring), law) != K:
        return _mismatch(
            "diagonal_!(1) equals the shuffled product of factor kernels",
            pushforward_coh(diag, CohClass.one(space, ring), law),
            K,
        )
    if tau.pullback(K) != K:
        return _mismatch("tau^*(K) = K", tau.pullback(K), K)
    k = space.nfactors
    p1 = Projection(double, tuple(range(k)))
    p2 = Projection(double, tuple(range(k, 2 * k)))
    for _ in range(ctx.samples):
        alpha = sample_class(space, ring, rng)
        da = pushforward_coh(diag, alpha, law)
        a = sample_hom(double, ring, rng)
        lhs = cap(da, a)
        rhs = cap(da, pushforward_hom(tau, a))
        if lhs != rhs:
            return _mismatch("diag_!(alpha) cap a = diag_!(alpha) cap tau_*(a)", lhs, rhs, alpha=alpha, a=a)
        beta = sample_class(double, ring, rng)
        lhs_c = da * beta
        rhs_c = da * tau.pullback(beta)
        if lhs_c != rhs_c:
            return _mismatch("diag_!(alpha) * beta = diag_!(alpha) * tau^*(beta)", lhs_c, rhs_c, alpha=alpha, beta=beta)
        lhs_k = p1.pullback(alpha) * K
        rhs_k = p2.pullback(alpha) * K
        if lhs_k != rhs_k:
            return _mismatch("p1^*(alpha) * K = p2^*(alpha) * K", lhs_k, rhs_k, alpha=alpha)
    return None


def _check_diagonal_counit(ctx: _Ctx):
    space, law = ctx.space, ctx.law
    K = diagonal_kernel_class(space, law)
    lhs = slant_l(K, fundamental_class(space, law))
    rhs = CohClass.one(space, ctx.ring)
    if lhs != rhs:
        return _mismatch("K_X / [X] = 1", lhs, rhs)
    return None


def _check_poincare_roundtrip(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for e in basis(space):
        mono = CohClass.monomial(space, ring, e)
        back = duality_to_coh(duality_to_hom(mono, law), law)
        if back != mono:
            return _mismatch("D_coh(D_hom(z^e)) = z^e", back, mono, basis_elem=str(e))
        delta = HomClass.delta(space, ring, e)
        back_h = duality_to_hom(duality_to_coh(delta, law), law)
        if back_h != delta:
            return _mismatch("D_hom(D_coh(delta_e)) = delta_e", back_h, delta, basis_elem=str(e))
    alpha = sample_class(space, ring, rng)
    if duality_to_coh(duality_to_hom(alpha, law), law) != alpha:
        return _mismatch(
            "D_coh(D_hom(alpha)) = alpha",
            duality_to_coh(duality_to_hom(alpha, law), law),
            alpha,
            alpha=alpha,
        )
    a = sample_hom(space, ring, rng)
    if duality_to_hom(duality_to_coh(a, law), law) != a:
        return _mismatch(
            "D_hom(D_coh(a)) = a", duality_to_hom(duality_to_coh(a, law), law), a, a=a
        )
    return None


def _check_duality_transport(ctx: _Ctx):
    space, law, ring = ctx.space, ctx.law, ctx.ring
    gens = [f for f in _generators(space) if isinstance(f, (Projection, LinearEmbed))]
    for f in gens:
        for e in basis(f.source):
            mono = CohClass.monomial(f.source, ring, e)
            lhs = pushforward_coh(f, mono, law)
            rhs = duality_to_coh(pushforward_hom(f, duality_to_hom(mono, law)), law)
            if lhs != rhs:
                return _mismatch(
                    "f_! = D_coh . f_* . D_hom", lhs, rhs, f=f, basis_elem=str(e)
                )
        for e in basis(f.target):
            delta = HomClass.delta(f.target, ring, e)
            lhs_h = shriek_hom(f, delta, law)
            rhs_h = duality_to_hom(f.pullback(duality_to_coh(delta, law)), law)
            if lhs_h != rhs_h:
                return _mismatch(
                    "f^! = D_hom . f^* . D_coh", lhs_h, rhs_h, f=f, basis_elem=str(e)
                )
    return None


def _check_diag_recursion(ctx: _Ctx):
    space, law, ring = ctx.space, ctx.law, ctx.ring
    for n in sorted(set(space.factors)):
        if n < 1:
            continue
        C = kernel(law, n).C
        g = law.pn_class(n)
        acc = ring.zero()
        for j in range(1, n + 1):
            acc = acc - C[n][j] * law.pn_class(n - j)
        if g != acc:
            return _mismatch("g_n = -sum_j a_nj g_(n-j)", g, acc, n=str(n))
        # the same recursion as operators via projections from space x P^k
        ops_hom = []
        ops_coh = []
        for k in range(n + 1):
            p = Projection(space.times(Space((k,))), tuple(range(space.nfactors)))
            ops_hom.append(diamond_hom(p, law))
            ops_coh.append(diamond_coh(p, law))
        for e in basis(space):
            a = HomClass.delta(space, ring, e)
            lhs = ops_hom[n](a)
            rhs = HomClass.zero(space, ring)
            for j in range(1, n + 1):
                rhs = rhs - ops_hom[n - j](a) * C[n][j]
            if lhs != rhs:
                return _mismatch(
                    "p_n diamond = -sum_j a_nj p_(n-j) diamond (homology)", lhs, rhs, n=str(n), basis_elem=str(e)
                )
            mono = CohClass.monomial(space, ring, e)
            lhs_c = ops_coh[n](mono)
            rhs_c = CohClass.zero(space, ring)
            for j in range(1, n + 1):
                rhs_c = rhs_c - ops_coh[n - j](mono) * C[n][j]
            if lhs_c != rhs_c:
                return _mismatch(
                    "p_n diamond = -sum_j a_nj p_(n-j) diamond (cohomology)", lhs_c, rhs_c, n=str(n), basis_elem=str(e)
                )
    return None


def _check_identity_decomposition(ctx: _Ctx):
    law, ring = ctx.law, ctx.ring
    for n in sorted(set(ctx.space.factors)):
        pn = Space((n,))
        C = kernel(law, n).C
        embeds = [LinearEmbed(pn, 0, n - i) for i in range(n + 1)]
        projs = [Projection(Space((n, k)), (0,)) for k in range(n + 1)]
        for e in basis(pn):
            a = HomClass.delta(pn, ring, e)
            acc = HomClass.zero(pn, ring)
            for i in range(n + 1):
                si = diamond_hom(embeds[i], law)(a)
                if not si:
                    continue
                for j in range(n + 1):
                    if not C[i][j]:
                        continue
                    acc = acc + diamond_hom(projs[n - j], law)(si) * C[i][j]
            if acc != a:
                return _mismatch(
                    "id = sum_ij a_ij (p_1,n-j)diamond (s_i)diamond", acc, a, n=str(n), basis_elem=str(e)
                )
    return None


def _check_diamond_squares(ctx: _Ctx):
    law, ring = ctx.law, ctx.ring
    for n in sorted(set(ctx.space.factors)):
        if n < 1:
            continue
        pn = Space((n,))
        to_point = Projection(pn, ())
        for j in range(n + 1):
            f = Projection(Space((n, n - j)), (0,))
            f_dia = diamond_hom(f, law)
            for i in range(n + 1):
                g = LinearEmbed(pn, 0, n - i)
                g_dia = diamond_hom(g, law)
                top = LinearEmbed(Space((n, n - j)), 0, n - i)
                left = Projection(Space((n - i, n - j)), (0,))
                h1 = compose(g, left)
                h2 = compose(f, top)
                h1_dia = diamond_hom(h1, law)
                h2_dia = diamond_hom(h2, law)
                for e in basis(pn):
                    a = HomClass.delta(pn, ring, e)
                    want = f_dia(g_dia(a))
                    for label, got in (
                        ("h diamond (via bottom-left)", h1_dia(a)),
                        ("h diamond (via top-right)", h2_dia(a)),
                        ("g diamond then f diamond", g_dia(f_dia(a))),
                    ):
                        if got != want:
                            return _mismatch(
                                "transversal square: %s = f diamond then g diamond" % label,
                                got,
                                want,
                                n=str(n),
                                i=str(i),
                                j=str(j),
                                basis_elem=str(e),
                            )
            # base-change square: push to the point commutes with diamonds
            pnj = Space((n - j,))
            down_n = Projection(pn, ())
            down_nj_dia = diamond_hom(Projection(pnj, ()), law)
            for e in basis(pn):
                a = HomClass.delta(pn, ring, e)
                lhs = pushforward_hom(down_n, f_dia(a))
                rhs = down_nj_dia(pushforward_hom(down_n, a))
                if lhs != rhs:
                    return _mismatch(
                        "p_* of a projection diamond = diamond of p_*",
                        lhs,
                        rhs,
                        n=str(n),
                        j=str(j),
                        basis_elem=str(e),
                    )
        for i in range(n + 1):
            g = LinearEmbed(pn, 0, n - i)
            g_dia = diamond_hom(g, law)
            for e in basis(pn):
                a = HomClass.delta(pn, ring, e)
                lhs = pushforward_hom(to_point, g_dia(a))
                rhs = psi(i, to_point, a)
                if lhs != rhs:
                    return _mismatch(
                        "p_* s_i diamond = psi_i", lhs, rhs, n=str(n), i=str(i), basis_elem=str(e)
                    )
    return None


def _check_up_then_down(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for t in range(space.nfactors):
        p = Projection(space, tuple(s for s in range(space.nfactors) if s != t))
        p1 = pushforward_coh(p, CohClass.one(space, ring), law)
        for a in [HomClass.delta(p.target, ring, e) for e in basis(p.target)] + [
            sample_hom(p.target, ring, rng)
        ]:
            lhs = pushforward_hom(p, shriek_hom(p, a, law))
            rhs = cap(p1, a)
            if lhs != rhs:
                return _mismatch("p_*(p^!(a)) = p_!(1) cap a", lhs, rhs, p=p, a=a)
    return None


def _check_product_calculus(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    X, Y = space, Space((1,))
    XY = X.times(Y)
    kx = X.nfactors
    pX = Projection(XY, tuple(range(kx)))
    pY = Projection(XY, (kx,))
    for _ in range(ctx.samples):
        alpha = sample_class(XY, ring, rng)
        beta = sample_class(Y, ring, rng)
        a = sample_hom(Y, ring, rng)
        b = sample_hom(X, ring, rng)
        lhs = slant_l(alpha, cap(beta, a))
        rhs = slant_l(alpha * pY.pullback(beta), a)
        if lhs != rhs:
            return _mismatch("alpha / (beta cap a) = (alpha * pY^*(beta)) / a", lhs, rhs, alpha=alpha, beta=beta, a=a)
        gamma = sample_class(X, ring, rng)
        lhs2 = gamma * slant_l(alpha, a)
        rhs2 = slant_l(pX.pullback(gamma) * alpha, a)
        if lhs2 != rhs2:
            return _mismatch("gamma * (alpha / a) = (pX^*(gamma) * alpha) / a", lhs2, rhs2, alpha=alpha, gamma=gamma, a=a)
        lhs3 = cap(slant_l(alpha, a), b)
        rhs3 = pushforward_hom(pX, cap(alpha, cross_hom(b, a)))
        if lhs3 != rhs3:
            return _mismatch("(alpha / a) cap b = pX_*(alpha cap (b x a))", lhs3, rhs3, alpha=alpha, a=a, b=b)
        bb = sample_hom(XY, ring, rng)
        lhs4 = slant_r(CohClass.one(X, ring), bb)
        rhs4 = pushforward_hom(pY, bb)
        if lhs4 != rhs4:
            return _mismatch("1 \\ b = pY_*(b)", lhs4, rhs4, b=bb)
    # slant functoriality along a pair of embeddings
    if X.nfactors >= 1 and X.factors[0] >= 1:
        f = LinearEmbed(X, 0, X.factors[0] - 1)
    else:
        f = Permutation(X, tuple(range(X.nfactors)))
    g = LinearEmbed(Space((2,)), 0, 1)  # P1 -> P2
    fg = product_morphism(f, g)
    for _ in range(ctx.samples):
        alpha = sample_class(X.times(Space((2,))), ring, rng)
        a = sample_hom(Space((1,)), ring, rng)
        lhs = slant_l(fg.pullback(alpha), a)
        rhs = f.pullback(slant_l(alpha, pushforward_hom(g, a)))
        if lhs != rhs:
            return _mismatch("(f x g)^*(alpha) / a = f^*(alpha / g_*(a))", lhs, rhs, alpha=alpha, a=a)
    # module functoriality per generator
    for h in _generators(space):
        alpha = sample_class(h.target, ring, rng)
        a = sample_hom(h.source, ring, rng)
        lhs = cap(alpha, pushforward_hom(h, a))
        rhs = pushforward_hom(h, cap(h.pullback(alpha), a))
        if lhs != rhs:
            return _mismatch("alpha cap h_*(a) = h_*(h^*(alpha) cap a)", lhs, rhs, h=h, alpha=alpha, a=a)
    return None


CHECKS: tuple = (
    ("V1-fgl-axioms", _check_fgl_axioms),
    ("V2-orientation", _check_orientation),
    ("V3-pbt-roundtrip", _check_pbt),
    ("V4-divisor-normalization", _check_divisor_normalization),
    ("V5-coh-projection", _check_coh_projection),
    ("V6-first-projection", _check_first_projection),
    ("V7-second-projection", _check_second_projection),
    ("V8-transposition", _check_transposition),
    ("V9-diagonal-counit", _check_diagonal_counit),
    ("V10-poincare-roundtrip", _check_poincare_roundtrip),
    ("V11-duality-transport", _check_duality_transport),
    ("V12-projection-recursion", _check_diag_recursion),
    ("V13-identity-decomposition", _check_identity_decomposition),
    ("V14-diamond-squares", _check_diamond_squares),
    ("V15-up-then-down", _check_up_then_down),
    ("V16-product-calculus", _check_product_calculus),
)

CHECK_IDS = tuple(cid for cid, _ in CHECKS)


def run_suite(cfg: CheckConfig, laws: dict | None = None, checks=None) -> list[CheckReport]:
    """Run the configured checks; returns one report per (check, theory,
    space) in a deterministic order.

    ``laws`` optionally overrides the law per ring kind (the fault
    injection hook used by the meta-tests); ``checks`` restricts to a
    subset of check ids.
    """
    selected = [(cid, fn) for cid, fn in CHECKS if checks is None or cid in set(checks)]
    if checks is not None and len(selected) != len(set(checks)):
        unknown = set(checks) - {cid for cid, _ in CHECKS}
        raise ValueError("unknown check ids: %s" % sorted(unknown))
    built: dict = {}
    for kind in cfg.theories:
        if laws is not None and kind in laws:
            built[kind] = laws[kind]
        else:
            built[kind] = law_for(kind, cfg.truncation)

    reports = []
    for cid, fn in selected:
        for kind in cfg.theories:
            for space in cfg.spaces:
                law = built[kind]
                rng = _derive_rng(cfg.seed, cid, kind.value, space.render())
                ctx = _Ctx(kind, law, law.ring, space, rng, cfg.samples)
                try:
                    witness = fn(ctx)
                except CalculatorError as exc:
                    witness = {"error": "%s: %s" % (type(exc).__name__, exc)}
                status = "pass" if witness is None else "fail"
                reports.append(CheckReport(cid, kind.value, space.render(), status, witness))
    return reports


def reports_to_json(reports: list[CheckReport]) -> str:
    return json.dumps([r.to_json_obj() for r in reports], indent=2) + "\n"


def reports_to_table(reports: list[CheckReport]) -> str:
    lines = []
    for r in reports:
        lines.append("%-28s %-15s %-10s %s" % (r.check, r.theory, r.space, r.status))
        if r.witness:
            for key, val in r.witness.items():
                lines.append("    %s: %s" % (key, val))
    passed = sum(1 for r in reports if r.status == "pass")
    lines.append("%d/%d checks passed" % (passed, len(reports)))
    return "\n".join(lines) + "\n"
