"""Formal group laws over the coefficient rings.

A law is stored by its higher coefficients: F(x, y) = x + y + sum a_ij x^i y^j
with i, j >= 1, i + j <= N and deg(a_ij) = 1 - i - j.  Three built-ins:

* additive:        F = x + y                       over the integers
* multiplicative:  F = x + y - beta*x*y            over Z[beta]
* universal:       F = exp(log(x) + log(y))        over Q[b1..b{N-1}],
                   log(x) = x + b1*x^2 + ... + b{N-1}*x^N

The additive and multiplicative laws are given by their tables.  The
universal law is given by its logarithm alone: the point classes, and so
the kernels, fundamental classes, duality maps and pushforwards, need
nothing else.  Its Euler classes and m-series come from the logarithm too,
c1(O(d)) = exp(d log z) and [m](x) = exp(m log x), so its table is
expanded only when F itself is evaluated (axiom checks, ``FGL.eval``).

The scratch polynomials used for construction and axiom checking
(``NilPoly``) are ``spaces.SparseClass`` classes on (P^N)^k truncated above
total degree N: their products are the shared product over the tuples of
total degree <= N.  A power series (``Series``) is the one-variable case,
a class in A[x]/(x^(N+1)) on P^N; it adds dense coefficient access and
composition, reversion and evaluation on nilpotent arguments.  Every
stored coefficient is exact.  All data derived from a law, its table
included, is kept in one memo behind ``FGL.derived``.

The logarithm of a law is solved from the invariant differential,
log'(u) = 1/F_y(u, 0), and log(F(x, y)) = log(x) + log(y) is then proved
at full precision through its y-derivative, once per law; a table that
does not come from an actual group law fails loudly instead of producing
plausible garbage.  Over a Q-algebra the identity gives F = exp(log(x) +
log(y)), so F is associative.  The formal inverse and the reversion behind
``exp`` share one solver over a table of the powers of the unknown series;
one evaluation at full precision is the check.

``pn_class(F, n)`` is the direct image of 1 under the projection from
n-dimensional projective space to the point, read off the logarithm:
g_n = (n + 1) * [x^(n+1)] log.  For the integer rings the values are
proved integral before being returned.
"""

from fractions import Fraction

from .algebra import CoeffRing, RingElem, RingKind, sum_products
from .errors import InternalConsistencyError, RingMismatchError, TruncationUnsoundError
from .spaces import Space, SparseClass


class NilPoly(SparseClass):
    """Scratch polynomial in ``nvars`` nilpotent variables, truncated above
    total degree ``bound``: a class on (P^bound)^nvars whose constructor
    drops every term of total degree above the bound, and whose products
    run the shared pair loop over the tuples of total degree <= bound.
    Used to build laws and check their axioms."""

    __slots__ = ()

    def __init__(self, space: Space, ring: CoeffRing, terms: dict):
        # a tuple outside the box is above the bound too
        bound = space.factors[0]
        inside = self._split_box(space, ring, terms)[0]
        super().__init__(space, ring, {e: c for e, c in inside.items() if sum(e) <= bound})

    def _top_degree(self) -> int:
        return self.space.factors[0]

    @staticmethod
    def gen(ring: CoeffRing, nvars: int, bound: int, index: int) -> "NilPoly":
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return NilPoly.monomial(Space((bound,) * nvars), ring, expo)

    @staticmethod
    def from_series(s: "Series", nvars: int, index: int) -> "NilPoly":
        """s(x_index), bounded at the series' own truncation."""
        terms = {
            tuple(d if i == index else 0 for i in range(nvars)): c for (d,), c in s.terms.items()
        }
        return NilPoly(Space((s.trunc,) * nvars), s.ring, terms)


class Series(NilPoly):
    """A truncated power series sum(s[d] * x^d, d <= trunc): a ``NilPoly``
    in one variable on P^trunc, whose constructor drops degrees above
    trunc and whose sums, scaling, products and equality are the shared
    sparse ones."""

    __slots__ = ()

    @staticmethod
    def make(ring: CoeffRing, trunc: int, coeffs) -> "Series":
        terms = {
            (d,): ring.from_coeff(c) if isinstance(c, (int, Fraction)) else c
            for d, c in enumerate(coeffs)
        }
        return Series(Space((trunc,)), ring, terms)

    @staticmethod
    def identity(ring: CoeffRing, trunc: int) -> "Series":
        return Series.monomial(Space((trunc,)), ring, (1,))

    @property
    def trunc(self) -> int:
        return self.space.factors[0]

    @property
    def coeffs(self) -> tuple:
        """The dense coefficients s[0] .. s[trunc], zeros included."""
        return tuple(self[d] for d in range(self.trunc + 1))

    def __getitem__(self, d: int) -> RingElem:
        return self.coeff((d,))

    def __repr__(self) -> str:
        return "Series(ring=%r, trunc=%r, coeffs=%r)" % (self.ring, self.trunc, self.coeffs)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(x)); requires inner(0) = 0."""
        self._check(inner)
        if inner[0]:
            raise ValueError("inner series must have zero constant term")
        return _power_sum(self, inner, self._like({(0,): self[0]}))

    def reversion(self) -> "Series":
        """Compositional inverse; requires zero constant term and linear
        coefficient +1 or -1."""
        ring = self.ring
        if self[0]:
            raise ValueError("cannot revert a series with nonzero constant term")
        lin = self[1]
        if lin != ring.one() and lin != -ring.one():
            raise ValueError("reversion needs linear coefficient +-1")
        g = {(0, d): c for (d,), c in self.terms.items()} | {(1, 0): -ring.one()}  # self(rev) - x = 0
        x = Series.identity(ring, self.trunc)
        return _solve_by_degree(g, self.trunc, lambda rev: self.compose(rev) - x,
                                "series reversion failed to verify")

    def eval_nilpotent(self, arg):
        """sum(s[d] * arg^d, d >= 1) for a nilpotent argument.

        ``arg`` is anything with +, * (including scaling by a RingElem)
        and truthiness; the loop stops as soon as a power vanishes, so the
        result is exact whenever arg^(trunc+1) = 0.
        """
        if self[0]:
            raise ValueError("eval_nilpotent expects zero constant term")
        return _power_sum(self, arg, arg * 0)


def unit_reciprocal(ring: CoeffRing, u: list) -> list:
    """The coefficients of 1/u(x) mod x^len(u) for u = sum u_i x^i with
    u_0 = 1, with no division: v_0 = 1, v_m = -sum_(1<=i<=m) u_i v_(m-i)."""
    v = [ring.one()]
    for m in range(1, len(u)):
        v.append(-sum_products(ring, [(0, u[i], v[m - i]) for i in range(1, m + 1)]).get(0, ring.zero()))
    return v


def _power_sum(s: Series, arg, out):
    """out + sum(s[d] * arg^d, 1 <= d <= s.trunc), the one evaluation loop
    behind ``compose``, ``eval_nilpotent``, ``_series_on_nilpoly`` and the
    log check, for classes ``out`` and ``arg`` of one kind.

    It stops at the last nonzero s[d], and at the first power of ``arg``
    that vanishes, so a short series, or an argument without constant term
    in a truncated or nilpotent algebra, costs no product past the last
    power that counts.  The terms p * s[d] of every power, and out's
    terms times 1, are summed by tuple in one call of ``sum_products``.
    """
    if arg.ring != s.ring:
        raise RingMismatchError("series and argument over different coefficient rings")
    one = s.ring.one()
    triples = [(e, c, one) for e, c in out.terms.items()]
    power = None
    for d in range(1, max(s.terms, default=(0,))[0] + 1):
        power = arg if power is None else power * arg
        if not power:
            break
        c = s[d]
        if c:
            triples += [(e, p, c) for e, p in power.terms.items()]
    return out._like(sum_products(out.ring, triples))


def apply_law(F: "FGL", p, q):
    """F(p, q) = p + q + sum a_ij p^i q^j on nilpotent arguments.

    Works uniformly on Series, NilPoly and cohomology classes: anything
    with +, * and truthiness.  Exactness is the caller's
    responsibility (arguments must be nilpotent within the truncation).
    Every table key has i, j >= 1 (``FGL`` checks it once).
    """
    table = sorted(F.coeffs.items())
    out = p + q
    # p_pows[n - 1] = p^n = p^(n-1) * p, so each power costs one product
    p_pows, q_pows = [p], [q]
    for (i, j), a in table:
        while len(p_pows) < i:
            p_pows.append(p_pows[-1] * p)
        pi = p_pows[i - 1]
        if not pi:
            continue
        while len(q_pows) < j:
            q_pows.append(q_pows[-1] * q)
        qj = q_pows[j - 1]
        if not qj:
            continue
        t = pi * qj
        if t:
            out = out + t * a
    return out


class FGL:
    """A formal group law plus memoised derived data.

    A law is given by its ring, whose truncation it takes, and its
    coefficient table, checked once here ({(i, j): a_ij} with ints i, j >= 1
    and a_ij in the ring), or by its logarithm alone (``memo={("log",
    None): log}``).  The table is immutable by convention.  Everything
    derived from the law is a pure function of it, computed on first use
    and kept in one memo keyed by (kind, argument) behind ``derived``:

    * ``"table"``: the coefficient table ``coeffs``, {(i, j): a_ij}; a
      law given by its logarithm expands it on first read;
    * ``"log"``, ``"exp"``: the logarithm and its compositional inverse;
    * ``"inverse"``: the formal inverse iota with F(x, iota(x)) = 0;
    * ``"m_series"``: the m-fold formal sums [m](x), keyed by m: for a
      table law only the O(log |m|) links of its addition chain;
    * ``"pn_class"``: the point classes g_n, keyed by n;
    * ``"log_identity"``: present once log(F(x, y)) = log(x) + log(y)
      has held at full precision;
    * ``"axioms"``: the witness of ``check_axioms`` (None when they hold);
    * ``"v1"``: the witness of ``verify``'s check V1, which reads only the law;
    * ``"v13"``, ``"v14"``: the witnesses of V13 and V14 on P^n, keyed by n;
    * ``"kernel"``: the diagonal kernels of P^n, keyed by n (``gysin``);
    * ``"diagonal_class"``: the diagonal classes on X x X, keyed by the
      space X (``gysin``);
    * ``"fundamental_class"``: the fundamental classes [X], keyed by X,
      fibres of projections included (``gysin``).
    """

    def __init__(self, ring: CoeffRing, coeffs: dict | None = None, memo: dict | None = None):
        self.ring = ring
        self.truncation = ring.truncation
        self._memo = dict(memo or {})
        self.from_log = coeffs is None  # picks the route of m_series and euler
        if coeffs is not None:
            if not isinstance(coeffs, dict):
                raise TypeError("law coefficients must be a dict {(i, j): a_ij}, got %s" % type(coeffs).__name__)
            for key, c in coeffs.items():
                if type(key) is not tuple or len(key) != 2 or any(type(i) is not int for i in key):
                    raise ValueError("law coefficient key %r is not a pair of ints" % (key,))
                if min(key) < 1:
                    raise ValueError("law coefficient a(%d,%d) has an index below 1" % key)
                if not isinstance(c, RingElem) or c.ring != ring:
                    raise RingMismatchError("law coefficient a(%d,%d) is not an element of the law's ring" % key)
            self._memo[("table", None)] = coeffs
        elif ("log", None) not in self._memo:
            raise ValueError("a law needs a coefficient table or a logarithm")

    def derived(self, kind: str, arg, build):
        """The datum (kind, arg) of this law; ``build()`` computes it on
        first use."""
        key = (kind, arg)
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def coeffs(self) -> dict:
        """The table {(i, j): a_ij} of the higher coefficients."""
        return self.derived("table", None, self._table_from_log)

    def _table_from_log(self) -> dict:
        """F = exp(log(x) + log(y)) expanded into its table, which must be
        in normal form and admit this law's logarithm."""
        n, ring, log = self.truncation, self.ring, self.log()
        lx = NilPoly.from_series(log, 2, 0)
        ly = NilPoly.from_series(log, 2, 1)
        coeffs = {}
        for (i, j), c in _series_on_nilpoly(self.exp(), lx + ly).terms.items():
            if i >= 1 and j >= 1:
                coeffs[(i, j)] = c
            elif not ((i, j) in ((1, 0), (0, 1)) and c == ring.one()):
                raise InternalConsistencyError("law expanded from its logarithm is not in normal form")
        self._validate_log(log, FGL(ring, coeffs))
        return coeffs

    def a(self, i: int, j: int) -> RingElem:
        return self.coeffs.get((i, j), self.ring.zero())

    @property
    def kind(self) -> RingKind:
        return self.ring.kind

    # -- evaluation ----------------------------------------------------

    def eval(self, p, q):
        """F(p, q) for two cohomology classes on one space.

        Exact only when (total dimension + 1) <= truncation, because the
        discarded tail of the law could otherwise contribute; in that case
        the call refuses.
        """
        space = getattr(p, "space", None)
        if space is not None and space.total_dim + 1 > self.truncation:
            raise TruncationUnsoundError(
                "law truncated at %d cannot evaluate exactly on a space of dimension %d"
                % (self.truncation, space.total_dim)
            )
        return apply_law(self, p, q)

    def x_series(self) -> Series:
        return Series.identity(self.ring, self.truncation)

    def inverse(self) -> Series:
        """The series iota with F(x, iota(x)) = 0, solved from the table
        degree by degree (memoised)."""
        return self.derived("inverse", None, lambda: _solve_inverse(self))

    def m_series(self, m: int) -> Series:
        """The m-fold formal sum [m](x), memoised.  A law given by its
        logarithm has [m](x) = exp(m log x) and reads no table; a table law
        doubles, [2k] = F([k], [k]) and [2k+1] = F(x, [2k]), in O(log |m|)
        applications and memo entries; negative m goes through the inverse."""
        if self.from_log:
            return self.derived("m_series", m, lambda: self.exp().compose(self.log() * m))
        if m < 0:
            return self.derived("m_series", m, lambda: self.inverse().compose(self.m_series(-m)))
        if m <= 1:
            return self.x_series() * m
        k = 1 if m % 2 else m // 2
        return self.derived("m_series", m, lambda: apply_law(self, self.m_series(k), self.m_series(m - k)))

    # -- logarithm and point classes ------------------------------------

    def log(self) -> Series:
        """The logarithm: log(F(x, y)) = log(x) + log(y), log(x) = x + O(x^2).

        A law given by its table solves it from the invariant differential:
        the linear-in-y part of the identity is log'(x) * F_y(x, 0) = 1 with
        F_y(x, 0) = 1 + sum a(i,1) x^i, so log'(x) = 1/F_y(x, 0)
        (``unit_reciprocal``).  The full identity is then proved at full
        precision (``_validate_log``), which gives F = exp(log(x) + log(y))
        and so associativity; a law given by its logarithm runs that check
        when it expands its table.
        """
        return self.derived("log", None, self._solve_log)

    def _solve_log(self) -> Series:
        ring = self.ring
        c = unit_reciprocal(ring, [ring.one()] + [self.a(i, 1) for i in range(1, self.truncation)])
        coeffs = [ring.zero()] + [cm * Fraction(1, m + 1) for m, cm in enumerate(c)]
        log = Series.make(ring, self.truncation, coeffs)
        self._validate_log(log)
        return log

    def _validate_log(self, log: Series, table_law: "FGL | None" = None):
        """Check log(F(x, y)) = log(x) + log(y) mod total degree N + 1, once
        per law; it gives F = exp(log(x) + log(y)), so F is associative.
        ``table_law`` evaluates F while this law's table is being built.

        The check runs on the y-derivative.  With G(u) = F_y(u, 0) = 1 + sum
        a(i,1) u^i, the identity holds iff (A) log'(u) G(u) = 1 mod u^N and
        (B) F_y(x, y) G(y) = G(F(x, y)) mod total degree N.  Let P = log F -
        log x - log y.  At y = 0, dP/dy = log'(x) G(x) - 1 (log = x + O(x^2)),
        which is (A); given (A), dP/dy = (F_y G(y) - G(F)) / (G(F) G(y)) mod
        degree N, which vanishes iff (B).  Back, P(x, 0) = 0 as F(x, 0) = x
        (a table has i, j >= 1), and as the rings are torsion-free, dP/dy = 0
        mod degree N gives P = 0 mod degree N + 1.  (B) forms no power of F
        past G's degree: the multiplicative G = 1 - beta*u needs none."""

        def check():
            if log[0]:
                raise ValueError("expected zero constant term")
            law, ring, n = table_law or self, self.ring, self.truncation
            g = Series.make(ring, n - 1, [1] + [law.a(i, 1) for i in range(1, n)])
            dlog = Series.make(ring, n - 1, [log[k] * k for k in range(1, n + 1)])
            x, y = (NilPoly.gen(ring, 2, n - 1, t) for t in (0, 1))
            one = NilPoly.monomial(x.space, ring, (0, 0))
            f_y = one + NilPoly(x.space, ring, {(i, j - 1): c * j for (i, j), c in law.coeffs.items()})
            if dlog * g != Series.make(ring, n - 1, [1]) or (
                f_y * NilPoly.from_series(g, 2, 1) != _power_sum(g, apply_law(law, x, y), one)
            ):
                raise InternalConsistencyError(
                    "coefficient table admits no logarithm: log(F(x,y)) != log(x) + log(y)"
                )

        self.derived("log_identity", None, check)

    def exp(self) -> Series:
        """The compositional inverse of the logarithm (memoised)."""
        return self.derived("exp", None, lambda: self.log().reversion())

    def pn_class(self, n: int) -> RingElem:
        """Direct image of 1 under projective n-space -> point.

        g_0 = 1 and g_n = (n+1) * [x^(n+1)] log for n >= 1; integral in
        the integer rings (checked).  Requires n + 1 <= truncation.
        """
        if n < 0:
            raise ValueError("projective dimension must be >= 0")
        if n == 0:
            return self.ring.one()
        if n + 1 > self.truncation:
            raise TruncationUnsoundError(
                "point class g_%d needs truncation >= %d, law has %d" % (n, n + 1, self.truncation)
            )
        return self.derived("pn_class", n, lambda: self._point_class(n))

    def _point_class(self, n: int) -> RingElem:
        g = self.log()[n + 1] * (n + 1)
        if self.ring.kind is not RingKind.UNIVERSAL and not g.is_integral():
            raise InternalConsistencyError("g_%d is not integral: %s" % (n, g.render()))
        return g


def _solve_inverse(F: FGL) -> Series:
    one, x = F.ring.one(), F.x_series()  # iota solves F(x, iota) = 0
    return _solve_by_degree({**F.coeffs, (1, 0): one, (0, 1): one}, F.truncation,
                            lambda inv: apply_law(F, x, inv), "formal inverse failed to verify")


def _solve_by_degree(g: dict, trunc: int, defect, failure: str) -> Series:
    """The series s = sum s_d x^d, d >= 1, with sum g_ij x^i s^j = 0 mod
    x^(trunc+1), for g = {(i, j): g_ij} with g_00 = 0 and g_01 = +-1.  With
    T[j][m] = [x^m] s^j, which reads only s_1 .. s_(m-j+1) for j >= 2, the
    coefficient of x^d is g_01 s_d + sum g_ij T[j][d-i] over the other
    (i, j): round d extends each row T[j] by T[j][d] = sum s_m T[j-1][d-m]
    and solves for s_d, about N^3/6 ring products in all.  The rows hold
    elements, and each round is two calls of ``sum_products``: the new
    entries T[j][d] keyed by j, then s_d.  The one evaluation at full
    precision, ``defect(s)``, is the check: a nonzero defect raises
    ``failure``."""
    ring = g[(0, 1)].ring
    zero = ring.zero()
    rest = [(i, j, a) for (i, j), a in g.items() if (i, j) != (0, 1) and a]
    top = max([1] + [j for _, j, _ in rest])
    rows = [[ring.one()] + [zero] * trunc] + [[zero] * (trunc + 1) for _ in range(top)]
    s = [zero]
    for d in range(1, trunc + 1):
        powers = [(j, s[m], rows[j - 1][d - m])
                  for j in range(2, min(top, d) + 1) for m in range(1, d - j + 2)]
        for j, t in sum_products(ring, powers).items():
            rows[j][d] = t
        c = sum_products(ring, [(0, a, rows[j][d - i]) for i, j, a in rest if i <= d]).get(0, zero)
        s.append(-c if g[(0, 1)] == ring.one() else c)  # s_d = -c / g_01
        rows[1][d] = s[d]
    out = Series._trusted(Space((trunc,)), ring, {(d,): c for d, c in enumerate(s)})
    if defect(out):
        raise InternalConsistencyError(failure)
    return out


def _series_on_nilpoly(s: Series, arg: NilPoly) -> NilPoly:
    if s[0]:
        raise ValueError("expected zero constant term")
    return _power_sum(s, arg, NilPoly.zero(arg.space, arg.ring))


# -- built-in laws --------------------------------------------------------


def additive_law(truncation: int) -> FGL:
    """F = x + y over the integers."""
    return FGL(CoeffRing.additive(truncation), {})


def multiplicative_law(truncation: int) -> FGL:
    """F = x + y - beta*x*y over Z[beta]."""
    ring = CoeffRing.multiplicative(truncation)
    return FGL(ring, {(1, 1): -ring.gen(0)} if truncation >= 2 else {})


def universal_law(truncation: int) -> FGL:
    """F = exp(log(x) + log(y)) with log(x) = x + sum bm x^(m+1), given by
    its logarithm; the table is expanded when first read."""
    ring = CoeffRing.universal(truncation)
    log = Series.make(
        ring, truncation, [ring.zero(), ring.one()] + [ring.gen(m - 1) for m in range(1, truncation)]
    )
    return FGL(ring, memo={("log", None): log})


def law_for(kind: RingKind, truncation: int) -> FGL:
    if kind is RingKind.ADDITIVE:
        return additive_law(truncation)
    if kind is RingKind.MULTIPLICATIVE:
        return multiplicative_law(truncation)
    if kind is RingKind.UNIVERSAL:
        return universal_law(truncation)
    raise ValueError("unknown ring kind %r" % (kind,))


# -- axiom checking -------------------------------------------------------


def check_axioms(F: FGL) -> str | None:
    """Verify the group-law axioms at full precision for every ring;
    returns a witness string or None, memoised on the law.

    The shape first: i + j <= N (``FGL`` already refused i or j below 1),
    symmetry and degrees.  Then the formal inverse from the table
    (F(x, iota) = 0) must equal the one from the logarithm (exp(-log x)).
    Last, the law's own logarithm must satisfy log(F(x, y)) = log(x) +
    log(y), which catches a stale one; it is proved through its
    y-derivative (``_validate_log``, sound as every table has i, j >= 1).
    As log is invertible this gives F = exp(log(x) + log(y)), so F is
    associative with no 3-variable expansion.
    """
    return F.derived("axioms", None, lambda: _axiom_witness(F))


def _axiom_witness(F: FGL) -> str | None:
    for (i, j), c in F.coeffs.items():
        if i + j > F.truncation:
            return "coefficient a(%d,%d) outside the allowed index range" % (i, j)
        if c != F.a(j, i):
            return "symmetry fails at a(%d,%d)" % (i, j)
        expected = {1 - i - j}
        if c.degrees() - expected:
            return "a(%d,%d) has degree outside %r" % (i, j, expected)
    try:
        log = F.log()
        if F.inverse() != F.exp().compose(-log):
            return "formal inverse from the table differs from exp(-log(x))"
        F._validate_log(log)
    except InternalConsistencyError as exc:
        return str(exc)
    return None

