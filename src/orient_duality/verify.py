"""The identity verification suite.

Every check is a stream of exact polynomial identities, each yielded as
(identity, lhs, rhs, inputs); there are no tolerances.  One runner,
``_first_failure``, compares the pairs in order.  A check passes, or its
witness is the first unequal pair: the identity, both sides and the
inputs, rendered.  The runner counts the pairs each cell compares in
``CheckReport.identities``, which neither output format prints.
Sampling is deterministic: each (check, theory, space) cell derives its
own generator from the configured seed, so reports are byte-identical
across runs and independent of execution order.  Samples draw with
``rng.choice`` over fixed ranges (the draws of ``rng.randint`` over the
same bounds).  V1, V13 and V14 read only the law and the factor
dimensions: their verdicts are kept in the law's memo, reported per
cell, and a cell whose verdict comes from the memo counts 0 identities.
V13 and V14 hold for any point classes once the kernels are rebuilt from
them: they guard the diamond operators and the kernels, not the law.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .algebra import CoeffRing, RingKind, _wrap
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
    """One (check, theory, space) cell; its status follows from its witness."""

    check: str
    theory: str
    space: str
    witness: dict | None
    identities: int = field(default=0, kw_only=True)  # pairs compared in this cell; not part of either output
    status = property(lambda self: "pass" if self.witness is None else "fail")

    def __post_init__(self):
        if self.witness is not None and not isinstance(self.witness, dict):
            raise TypeError("a report's witness is a dict or None, not %r" % (self.witness,))

    def to_json_obj(self) -> dict:
        return dict(check=self.check, theory=self.theory, space=self.space, status=self.status, witness=self.witness)


def _derive_rng(seed: int, *labels: str) -> random.Random:
    key = "|".join([str(seed), *labels]).encode()
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- deterministic sampling -------------------------------------------------


_CONST, _SCALE, _DENOM = range(-3, 4), range(-2, 3), range(2, 4)  # the draws of ``_sample``


@lru_cache(maxsize=16)
def _symbol_keys(ring: CoeffRing) -> tuple:
    """keys[idx][power - 1] is the key of b_idx^power, None where truncation drops it."""
    gens = [tuple(int(i == idx) for i in range(ring.nsymbols)) for idx in range(ring.nsymbols)]
    return tuple((ring._pack(g), ring._pack(tuple(2 * e for e in g))) for g in gens)


def _sample(cls, space: Space, ring: CoeffRing, rng: random.Random):
    """Coefficients a + s*b_idx^power + p/q, drawn as the same stream that
    ring arithmetic on those terms would draw, each key map built canonical."""
    keys = _symbol_keys(ring)
    draw, coin, fractions = rng.choice, rng.random, ring.allows_fractions
    terms = {}
    for e in basis(space):
        if coin() < 0.75:
            a, raw = draw(_CONST), {}
            if keys and coin() < 0.5:
                key = draw(draw(keys))  # b_idx, then its power 1 or 2
                scale = draw(_SCALE)  # drawn even where the key is dropped
                if key is not None and scale:
                    raw[key] = scale
            if fractions and coin() < 0.25:
                a += Fraction(draw(_SCALE), draw(_DENOM))
                if a.denominator == 1:
                    a = a.numerator
            terms[e] = _wrap(ring, {0: a, **raw} if a else raw)  # ``_trusted`` drops zeros
    return cls._trusted(space, ring, terms)


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


@dataclass
class _Ctx:
    law: FGL
    space: Space
    rng: random.Random
    samples: int
    identities: int = 0
    kind = property(lambda self: self.law.kind)
    ring = property(lambda self: self.law.ring)


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


def _first_failure(ctx: _Ctx, pairs) -> dict | None:
    """The witness of the first unequal pair, every value rendered, or None;
    each pair compared counts on ``ctx``.  The stream is not resumed after a
    failure, so a check draws no sample past its witness."""
    for identity, lhs, rhs, inputs in pairs:
        ctx.identities += 1
        if lhs != rhs:
            witness = {"identity": identity, "lhs": lhs, "rhs": rhs, **inputs}
            return {k: _render(v) for k, v in witness.items()}
    return None


def _cell(stream):
    """A ``CHECKS`` entry: the whole stream runs inside the call."""
    return lambda ctx: _first_failure(ctx, stream(ctx))


def _check_fgl_axioms(ctx: _Ctx):
    # V1 reads neither the space nor the rng: one verdict per law
    law = ctx.law
    return law.derived("v1", None, lambda: _law_witness(law) or _first_failure(ctx, _m_additivity(law)))


def _law_witness(law: FGL):
    bad = check_axioms(law)
    return None if bad is None else {"identity": "group-law axioms", "detail": bad}


def _m_additivity(law: FGL):
    x = law.x_series()
    # independent right sides: a table law's m_series doubles ([4] = F([2], [2])),
    # so fold [m] = F(x, [m-1]) here; a law given by its log has [m] = exp(m log x)
    seq = [x * 0]
    while not law.from_log and len(seq) < 5:
        seq.append(apply_law(law, x, seq[-1]))
    for m1, m2 in ((1, 1), (2, 1), (2, 2), (-1, 1)):
        lhs = apply_law(law, law.m_series(m1), law.m_series(m2))
        rhs = law.m_series(m1 + m2) if law.from_log else seq[m1 + m2]
        yield "[%d](x) + [%d](x) = [%d](x)" % (m1, m2, m1 + m2), lhs, rhs, {"x": x}


def _orientation(ctx: _Ctx):
    space, law, rng = ctx.space, ctx.law, ctx.rng
    k = space.nfactors
    if k == 0:
        return
    for t in range(k):
        unit = tuple(1 if s == t else 0 for s in range(k))
        lhs, rhs = euler(space, unit, law), CohClass.zeta(space, law.ring, t)
        yield "euler(O(e_%d)) = z_%d" % (t, t + 1), lhs, rhs, {}
    zero_expo = (0,) * k
    for _ in range(ctx.samples):
        d1 = tuple(rng.randint(-2, 2) for _ in range(k))
        d2 = tuple(rng.randint(-2, 2) for _ in range(k))
        e1, e2 = euler(space, d1, law), euler(space, d2, law)
        if zero_expo in e1.terms:  # then e1 is not zero: a failing pair
            yield "euler has zero constant term", e1, CohClass.zero(space, law.ring), {"degrees": d1}
        lhs, rhs = law.eval(e1, e2), euler(space, tuple(a + b for a, b in zip(d1, d2)), law)
        yield "euler(%s) + euler(%s) = euler(sum) under the law" % (d1, d2), lhs, rhs, {}


def _pbt(ctx: _Ctx):
    space, ring = ctx.space, ctx.ring
    k = space.nfactors
    if k == 0:
        return
    p = Projection(space, tuple(range(k - 1)))
    n = space.factors[k - 1]
    for e in basis(space):
        b = HomClass.delta(space, ring, e)
        back = pbt_section([psi(i, p, b) for i in range(n + 1)], p)
        yield "section(psi_*(b)) = b", back, b, {"basis_elem": e}
    zero_t = HomClass.zero(p.target, ring)
    for f in basis(p.target):
        for i in range(n + 1):
            comps = [HomClass.delta(p.target, ring, f) if j == i else zero_t for j in range(n + 1)]
            b = pbt_section(comps, p)
            for j in range(n + 1):
                yield "psi_%d(section(x)) = x_%d" % (j, j), psi(j, p, b), comps[j], {"basis_elem": f}
    b = sample_hom(space, ring, ctx.rng)
    yield "section(psi_*(b)) = b", pbt_section([psi(i, p, b) for i in range(n + 1)], p), b, {"b": b}


def _divisor_normalization(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    if law.truncation >= 3 and any(n >= 1 for n in space.factors):
        # the diagonal of P1 x P1 is a divisor of O(1, 1): the kernel from
        # matrix inversion must match the Euler class from the law table
        yield "kernel(1) = euler(O(1,1)) on P1xP1", kernel(law, 1).K, euler(Space((1, 1)), (1, 1), law), {}
    for t in range(space.nfactors):
        if space.factors[t] < 1:
            continue
        emb = LinearEmbed(space, t, space.factors[t] - 1)
        i1 = pushforward_coh(emb, CohClass.one(emb.source, ring), law)
        yield "i_!(1) = z_%d" % (t + 1), i1, CohClass.zeta(space, ring, t), {"embed": emb}
        unit = tuple(1 if s == t else 0 for s in range(space.nfactors))
        yield "i_!(1) = euler(O(e_%d))" % t, i1, euler(space, unit, law), {"embed": emb}
        for _ in range(ctx.samples):
            alpha = sample_class(space, ring, rng)
            lhs = pushforward_coh(emb, emb.pullback(alpha), law)
            yield "i_!(i^*(alpha)) = i_!(1) * alpha", lhs, i1 * alpha, {"alpha": alpha, "embed": emb}
            a = sample_hom(space, ring, rng)
            lhs = pushforward_hom(emb, shriek_hom(emb, a, law))
            yield "i_*(i^!(a)) = i_!(1) cap a", lhs, cap(i1, a), {"a": a, "embed": emb}


def _coh_projection(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for f in _generators(space):
        for _ in range(ctx.samples):
            alpha = sample_class(f.target, ring, rng)
            beta = sample_class(f.source, ring, rng)
            lhs = pushforward_coh(f, f.pullback(alpha) * beta, law)
            rhs = alpha * pushforward_coh(f, beta, law)
            inputs = {"f": f, "alpha": alpha, "beta": beta}
            yield "f_!(f^*(alpha) * beta) = alpha * f_!(beta)", lhs, rhs, inputs


def _first_projection(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for f in _generators(space):
        for _ in range(ctx.samples):
            alpha = sample_class(f.source, ring, rng)
            a = sample_hom(f.target, ring, rng)
            lhs = pushforward_hom(f, cap(alpha, shriek_hom(f, a, law)))
            rhs = cap(pushforward_coh(f, alpha, law), a)
            yield "f_*(alpha cap f^!(a)) = f_!(alpha) cap a", lhs, rhs, {"f": f, "alpha": alpha, "a": a}


def _second_projection(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for T in (Space.point(), Space((1,))):
        for f in _generators(space):
            big = prefix_product(T, f)
            for _ in range(ctx.samples):
                alpha = sample_class(big.source, ring, rng)
                a = sample_hom(f.target, ring, rng)
                lhs = slant_l(alpha, shriek_hom(f, a, law))
                rhs = slant_l(pushforward_coh(big, alpha, law), a)
                inputs = {"T": T, "f": f, "alpha": alpha, "a": a}
                yield "alpha / f^!(a) = (id_T x f)_!(alpha) / a", lhs, rhs, inputs


def _transposition(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    diag = full_diagonal(space)
    tau = transposition(space)
    K = diagonal_kernel_class(space, law)
    double = space.times(space)
    lhs = pushforward_coh(diag, CohClass.one(space, ring), law)
    yield "diagonal_!(1) equals the shuffled product of factor kernels", lhs, K, {}
    yield "tau^*(K) = K", tau.pullback(K), K, {}
    k = space.nfactors
    p1 = Projection(double, tuple(range(k)))
    p2 = Projection(double, tuple(range(k, 2 * k)))
    for _ in range(ctx.samples):
        alpha = sample_class(space, ring, rng)
        da = pushforward_coh(diag, alpha, law)
        a = sample_hom(double, ring, rng)
        lhs, rhs = cap(da, a), cap(da, pushforward_hom(tau, a))
        yield "diag_!(alpha) cap a = diag_!(alpha) cap tau_*(a)", lhs, rhs, {"alpha": alpha, "a": a}
        beta = sample_class(double, ring, rng)
        lhs, rhs = da * beta, da * tau.pullback(beta)
        yield "diag_!(alpha) * beta = diag_!(alpha) * tau^*(beta)", lhs, rhs, {"alpha": alpha, "beta": beta}
        lhs, rhs = p1.pullback(alpha) * K, p2.pullback(alpha) * K
        yield "p1^*(alpha) * K = p2^*(alpha) * K", lhs, rhs, {"alpha": alpha}


def _diagonal_counit(ctx: _Ctx):
    lhs = slant_l(diagonal_kernel_class(ctx.space, ctx.law), fundamental_class(ctx.space, ctx.law))
    yield "K_X / [X] = 1", lhs, CohClass.one(ctx.space, ctx.ring), {}


def _poincare_roundtrip(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for e in basis(space):
        mono = CohClass.monomial(space, ring, e)
        back = duality_to_coh(duality_to_hom(mono, law), law)
        yield "D_coh(D_hom(z^e)) = z^e", back, mono, {"basis_elem": e}
        delta = HomClass.delta(space, ring, e)
        back = duality_to_hom(duality_to_coh(delta, law), law)
        yield "D_hom(D_coh(delta_e)) = delta_e", back, delta, {"basis_elem": e}
    alpha = sample_class(space, ring, rng)
    back = duality_to_coh(duality_to_hom(alpha, law), law)
    yield "D_coh(D_hom(alpha)) = alpha", back, alpha, {"alpha": alpha}
    a = sample_hom(space, ring, rng)
    yield "D_hom(D_coh(a)) = a", duality_to_hom(duality_to_coh(a, law), law), a, {"a": a}


def _duality_transport(ctx: _Ctx):
    space, law, ring = ctx.space, ctx.law, ctx.ring
    gens = [f for f in _generators(space) if isinstance(f, (Projection, LinearEmbed))]
    for f in gens:
        for e in basis(f.source):
            mono = CohClass.monomial(f.source, ring, e)
            lhs = pushforward_coh(f, mono, law)
            rhs = duality_to_coh(pushforward_hom(f, duality_to_hom(mono, law)), law)
            yield "f_! = D_coh . f_* . D_hom", lhs, rhs, {"f": f, "basis_elem": e}
        for e in basis(f.target):
            delta = HomClass.delta(f.target, ring, e)
            lhs = shriek_hom(f, delta, law)
            rhs = duality_to_hom(f.pullback(duality_to_coh(delta, law)), law)
            yield "f^! = D_hom . f^* . D_coh", lhs, rhs, {"f": f, "basis_elem": e}


def _diag_recursion(ctx: _Ctx):
    space, law, ring = ctx.space, ctx.law, ctx.ring
    for n in sorted(set(space.factors)):
        if n < 1:
            continue
        C = kernel(law, n).C
        g = law.pn_class(n)
        acc = ring.zero()
        for j in range(1, n + 1):
            acc = acc - C[n][j] * law.pn_class(n - j)
        yield "g_n = -sum_j a_nj g_(n-j)", g, acc, {"n": n}
        # the same recursion as operators via projections from space x P^k
        projs = [Projection(space.times(Space((k,))), tuple(range(space.nfactors))) for k in range(n + 1)]
        ops_hom = [diamond_hom(p, law) for p in projs]
        ops_coh = [diamond_coh(p, law) for p in projs]
        for e in basis(space):
            for label, ops, x in (
                ("homology", ops_hom, HomClass.delta(space, ring, e)),
                ("cohomology", ops_coh, CohClass.monomial(space, ring, e)),
            ):
                lhs = ops[n](x)
                rhs = type(x).zero(space, ring)
                for j in range(1, n + 1):
                    rhs = rhs - ops[n - j](x) * C[n][j]
                identity = "p_n diamond = -sum_j a_nj p_(n-j) diamond (%s)" % label
                yield identity, lhs, rhs, {"n": n, "basis_elem": e}


def _per_dimension(kind: str, stream, ctx: _Ctx):
    """V13 and V14, which read only the law and n: the first witness over
    the factor dimensions n of the space, each verdict kept in the law's
    memo.  A verdict read from the memo evaluates no identity in this cell."""

    def verdict(n):
        return ctx.law.derived(kind, n, lambda: _first_failure(ctx, stream(ctx.law, n)))

    return next(filter(None, map(verdict, sorted(set(ctx.space.factors)))), None)


def _identity_decomposition(law: FGL, n: int):
    ring = law.ring
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
        yield "id = sum_ij a_ij (p_1,n-j)diamond (s_i)diamond", acc, a, {"n": n, "basis_elem": e}


def _diamond_squares(law: FGL, n: int):
    if n < 1:
        return
    ring = law.ring
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
            h1_dia = diamond_hom(compose(g, left), law)
            h2_dia = diamond_hom(compose(f, top), law)
            for e in basis(pn):
                a = HomClass.delta(pn, ring, e)
                want = f_dia(g_dia(a))
                for label, got in (
                    ("h diamond (via bottom-left)", h1_dia(a)),
                    ("h diamond (via top-right)", h2_dia(a)),
                    ("g diamond then f diamond", g_dia(f_dia(a))),
                ):
                    identity = "transversal square: %s = f diamond then g diamond" % label
                    yield identity, got, want, {"n": n, "i": i, "j": j, "basis_elem": e}
        # base-change square: push to the point commutes with diamonds
        down_nj_dia = diamond_hom(Projection(Space((n - j,)), ()), law)
        for e in basis(pn):
            a = HomClass.delta(pn, ring, e)
            lhs = pushforward_hom(to_point, f_dia(a))
            rhs = down_nj_dia(pushforward_hom(to_point, a))
            yield "p_* of a projection diamond = diamond of p_*", lhs, rhs, {"n": n, "j": j, "basis_elem": e}
    for i in range(n + 1):
        g_dia = diamond_hom(LinearEmbed(pn, 0, n - i), law)
        for e in basis(pn):
            a = HomClass.delta(pn, ring, e)
            lhs = pushforward_hom(to_point, g_dia(a))
            yield "p_* s_i diamond = psi_i", lhs, psi(i, to_point, a), {"n": n, "i": i, "basis_elem": e}


def _up_then_down(ctx: _Ctx):
    space, law, ring, rng = ctx.space, ctx.law, ctx.ring, ctx.rng
    for t in range(space.nfactors):
        p = Projection(space, tuple(s for s in range(space.nfactors) if s != t))
        p1 = pushforward_coh(p, CohClass.one(space, ring), law)
        deltas = [HomClass.delta(p.target, ring, e) for e in basis(p.target)]
        for a in deltas + [sample_hom(p.target, ring, rng)]:
            lhs, rhs = pushforward_hom(p, shriek_hom(p, a, law)), cap(p1, a)
            yield "p_*(p^!(a)) = p_!(1) cap a", lhs, rhs, {"p": p, "a": a}


def _product_calculus(ctx: _Ctx):
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
        lhs, rhs = slant_l(alpha, cap(beta, a)), slant_l(alpha * pY.pullback(beta), a)
        inputs = {"alpha": alpha, "beta": beta, "a": a}
        yield "alpha / (beta cap a) = (alpha * pY^*(beta)) / a", lhs, rhs, inputs
        gamma = sample_class(X, ring, rng)
        lhs, rhs = gamma * slant_l(alpha, a), slant_l(pX.pullback(gamma) * alpha, a)
        inputs = {"alpha": alpha, "gamma": gamma, "a": a}
        yield "gamma * (alpha / a) = (pX^*(gamma) * alpha) / a", lhs, rhs, inputs
        lhs, rhs = cap(slant_l(alpha, a), b), pushforward_hom(pX, cap(alpha, cross_hom(b, a)))
        yield "(alpha / a) cap b = pX_*(alpha cap (b x a))", lhs, rhs, {"alpha": alpha, "a": a, "b": b}
        bb = sample_hom(XY, ring, rng)
        yield "1 \\ b = pY_*(b)", slant_r(CohClass.one(X, ring), bb), pushforward_hom(pY, bb), {"b": bb}
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
        lhs, rhs = slant_l(fg.pullback(alpha), a), f.pullback(slant_l(alpha, pushforward_hom(g, a)))
        yield "(f x g)^*(alpha) / a = f^*(alpha / g_*(a))", lhs, rhs, {"alpha": alpha, "a": a}
    # module functoriality per generator
    for h in _generators(space):
        alpha = sample_class(h.target, ring, rng)
        a = sample_hom(h.source, ring, rng)
        lhs, rhs = cap(alpha, pushforward_hom(h, a)), pushforward_hom(h, cap(h.pullback(alpha), a))
        yield "alpha cap h_*(a) = h_*(h^*(alpha) cap a)", lhs, rhs, {"h": h, "alpha": alpha, "a": a}


CHECKS: tuple = (
    ("V1-fgl-axioms", _check_fgl_axioms),
    ("V2-orientation", _cell(_orientation)),
    ("V3-pbt-roundtrip", _cell(_pbt)),
    ("V4-divisor-normalization", _cell(_divisor_normalization)),
    ("V5-coh-projection", _cell(_coh_projection)),
    ("V6-first-projection", _cell(_first_projection)),
    ("V7-second-projection", _cell(_second_projection)),
    ("V8-transposition", _cell(_transposition)),
    ("V9-diagonal-counit", _cell(_diagonal_counit)),
    ("V10-poincare-roundtrip", _cell(_poincare_roundtrip)),
    ("V11-duality-transport", _cell(_duality_transport)),
    ("V12-projection-recursion", _cell(_diag_recursion)),
    ("V13-identity-decomposition", partial(_per_dimension, "v13", _identity_decomposition)),
    ("V14-diamond-squares", partial(_per_dimension, "v14", _diamond_squares)),
    ("V15-up-then-down", _cell(_up_then_down)),
    ("V16-product-calculus", _cell(_product_calculus)),
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
    built = {kind: (laws or {}).get(kind) or law_for(kind, cfg.truncation) for kind in cfg.theories}

    reports = []
    for cid, fn in selected:
        for kind in cfg.theories:
            for space in cfg.spaces:
                law = built[kind]
                rng = _derive_rng(cfg.seed, cid, kind.value, space.render())
                ctx = _Ctx(law, space, rng, cfg.samples)
                try:
                    witness = fn(ctx)
                except CalculatorError as exc:
                    witness = {"error": "%s: %s" % (type(exc).__name__, exc)}
                reports.append(CheckReport(cid, kind.value, space.render(), witness, identities=ctx.identities))
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
