"""An output oracle for the calculator that shares no code with it.

The oracle specialises the coefficient-ring symbols (``beta``,
``b1 .. b(N-1)``) to seeded rationals and recomputes every answer from
closed forms with dense ``fractions.Fraction`` arithmetic:

* ``log`` per theory: ``x`` (additive), ``sum beta^(k-1) x^k / k``
  (multiplicative), ``x + sum b_m x^(m+1)`` (universal); ``exp`` is its
  compositional inverse;
* the Euler class of ``O(d_1, .., d_k)`` is ``exp(sum_t d_t log z_t)``;
* the point classes are ``g_n = (n + 1) [x^(n+1)] log``;
* the pairing matrix of ``P^n`` is ``M[k][l] = g_(n-k-l)``, and the
  diagonal kernel of ``X`` has coefficient ``prod_t C_t[u_t][v_t]`` at
  ``z^u w^v``, with ``C_t`` the inverse of ``M_t``;
* the fundamental class is ``[X](z^e) = prod_t g_(n_t - e_t)``;
* ``f_!`` is ``D_Y^-1 . f_* . D_X`` (the projection formula), with
  ``f_*`` the transpose of the pullback, so push-forwards are checked
  without any per-generator Gysin formula.

A program output is evaluated at the same specialisation and compared
exactly.  Each query is checked at two specialisations.  Ring-element
canonicalisation (``ring --parse``) is compared as polynomials, with no
specialisation.
"""

import json
import random
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9]*)|([\^*+-]))")


# -- ring elements as polynomials over Q ---------------------------------------


def parse_poly(text):
    """Parse the ring's text form into ``{((symbol, power), ..): Fraction}``.

    The grammar is the one the calculator documents: signed terms, each a
    product of numbers and ``symbol[^power]`` factors.
    """
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError("cannot read %r at %d" % (text, pos))
        tokens.append(m.groups())
        pos = m.end()
    poly = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][2] in ("+", "-"):
            if tokens[i][2] == "-":
                sign = -sign
            i += 1
        coeff = Fraction(sign)
        powers = {}
        while True:
            num, sym, _ = tokens[i]
            i += 1
            if num is not None:
                coeff *= Fraction(num)
            else:
                power = 1
                if i < len(tokens) and tokens[i][2] == "^":
                    power = int(tokens[i + 1][0])
                    i += 2
                powers[sym] = powers.get(sym, 0) + power
            if i < len(tokens) and tokens[i][2] == "*":
                i += 1
                continue
            break
        key = tuple(sorted(powers.items()))
        poly[key] = poly.get(key, 0) + coeff
    return {k: c for k, c in poly.items() if c}


def symbol_degree(name):
    return -1 if name == "beta" else -int(name[1:])


def truncate_poly(poly, truncation):
    """Drop monomials of degree below ``-truncation`` (the universal ring's
    quotient)."""
    return {
        k: c for k, c in poly.items() if sum(symbol_degree(s) * p for s, p in k) >= -truncation
    }


def eval_poly(poly, spec):
    total = Fraction(0)
    for key, c in poly.items():
        term = c
        for sym, p in key:
            term *= spec[sym] ** p
        total += term
    return total


def render_poly(poly):
    """Text form readable by ``parse_poly`` (not the calculator's format)."""
    if not poly:
        return "0"
    parts = []
    for key, c in sorted(poly.items()):
        factors = [str(abs(c))] + ["%s^%d" % (s, p) for s, p in key]
        parts.append(("-" if c < 0 else "+") + " " + "*".join(factors))
    return " ".join(parts)


# -- truncated polynomials in the hyperplane classes ----------------------------


def basis(dims):
    out = [()]
    for n in dims:
        out = [e + (k,) for e in out for k in range(n + 1)]
    return out


def fits(expo, dims):
    return all(0 <= e <= n for e, n in zip(expo, dims))


def cmul(a, b, dims):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if fits(e, dims):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def cadd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def cscale(a, s):
    return {e: c * s for e, c in a.items() if c * s}


def series_of(coeffs, arg, dims):
    """sum_{d >= 1} coeffs[d] * arg^d for a nilpotent ``arg``."""
    out = {}
    power = {(0,) * len(dims): Fraction(1)}
    for d in range(1, len(coeffs)):
        power = cmul(power, arg, dims)
        if not power:
            break
        if coeffs[d]:
            out = cadd(out, cscale(power, coeffs[d]))
    return out


# -- the theory at one specialisation --------------------------------------------


class Theory:
    """One theory with its ring symbols specialised to rationals.

    ``degree`` bounds the series kept: every space the theory is asked
    about has dimension below it.
    """

    def __init__(self, name, spec, degree):
        self.name = name
        self.spec = spec
        self.degree = degree
        log = [Fraction(0), Fraction(1)] + [Fraction(0)] * (degree - 1)
        if name == "multiplicative":
            beta = spec["beta"]
            for k in range(2, degree + 1):
                log[k] = beta ** (k - 1) / k
        elif name == "universal":
            for m in range(1, degree):
                log[m + 1] = spec["b%d" % m]
        self.log = log
        self.exp = _revert(log)
        self._pairing = {}

    def g(self, n):
        return (n + 1) * self.log[n + 1] if n >= 1 else Fraction(1)

    def pairing_inverse(self, n):
        if n not in self._pairing:
            M = [[self.g(n - k - l) if k + l <= n else Fraction(0) for l in range(n + 1)] for k in range(n + 1)]
            self._pairing[n] = _invert(M)
        return self._pairing[n]

    def euler(self, dims, degrees):
        k = len(dims)
        total = {}
        for t, d in enumerate(degrees):
            z = {tuple(1 if s == t else 0 for s in range(k)): Fraction(1)}
            total = cadd(total, cscale(series_of(self.log, z, dims), d))
        return series_of(self.exp, total, dims)

    def fundamental(self, dims):
        out = {}
        for e in basis(dims):
            v = Fraction(1)
            for n, x in zip(dims, e):
                v *= self.g(n - x)
            if v:
                out[e] = v
        return out

    def kernel(self, dims):
        Cs = [self.pairing_inverse(n) for n in dims]
        out = {}
        for u in basis(dims):
            for v in basis(dims):
                c = Fraction(1)
                for C, x, y in zip(Cs, u, v):
                    c *= C[x][y]
                    if not c:
                        break
                if c:
                    out[u + v] = c
        return out

    def to_hom(self, dims, alpha):
        """alpha cap [X]."""
        fund = self.fundamental(dims)
        out = {}
        for b in basis(dims):
            v = sum((c * fund.get(tuple(x + y for x, y in zip(b, e)), 0) for e, c in alpha.items()), Fraction(0))
            if v:
                out[b] = v
        return out

    def to_coh(self, dims, a):
        """K_X / a, computed factor by factor from the inverse pairing."""
        Cs = [self.pairing_inverse(n) for n in dims]
        out = {}
        for u in basis(dims):
            v_sum = Fraction(0)
            for v, val in a.items():
                c = val
                for C, x, y in zip(Cs, u, v):
                    c *= C[x][y]
                v_sum += c
            if v_sum:
                out[u] = v_sum
        return out

    def pushforward(self, steps, alpha):
        """f_!(alpha) = D_Y^-1(f_*(alpha cap [X])) for a generator chain."""
        source = steps[0][1]
        target = steps[-1][2]
        hom = self.to_hom(source, alpha)
        pushed = {}
        for w in basis(target):
            e = w
            for step in reversed(steps):
                e = pull_monomial(step, e)
                if e is None:
                    break
            if e is not None and hom.get(e):
                pushed[w] = hom[e]
        return self.to_coh(target, pushed)


def _revert(log):
    """The compositional inverse of a series with linear coefficient 1."""
    degree = len(log) - 1
    exp = [Fraction(0), Fraction(1)] + [Fraction(0)] * (degree - 1)
    for d in range(2, degree + 1):
        exp[d] -= _compose_coeff(log, exp, d)
    return exp


def _compose_coeff(outer, inner, d):
    """[x^d] outer(inner(x))."""
    total = Fraction(0)
    power = [Fraction(1)] + [Fraction(0)] * d
    for k in range(1, d + 1):
        nxt = [Fraction(0)] * (d + 1)
        for i, a in enumerate(power):
            if a:
                for j in range(1, d + 1 - i):
                    nxt[i + j] += a * inner[j]
        power = nxt
        total += outer[k] * power[d]
    return total


def _invert(M):
    n = len(M)
    A = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col])
        A[col], A[piv] = A[piv], A[col]
        p = A[col][col]
        A[col] = [x / p for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def pull_monomial(step, expo):
    """The pullback of the target monomial ``expo`` along one generator;
    ``None`` when it vanishes."""
    kind, source, _target, arg = step
    if kind == "proj":
        out = [0] * len(source)
        for pos, t in enumerate(arg):
            out[t] = expo[pos]
    elif kind == "embed":
        out = list(expo)
    elif kind == "diag":
        t = arg
        out = list(expo[:t]) + [expo[t] + expo[t + 1]] + list(expo[t + 2 :])
    else:
        out = [0] * len(source)
        for i, p in enumerate(arg):
            out[p] = expo[i]
    out = tuple(out)
    return out if fits(out, source) else None


# -- checking program outputs ------------------------------------------------------


# Series are kept to this degree; every space queried has a smaller
# dimension, and every universal symbol used is below b(SERIES_DEGREE).
SERIES_DEGREE = 12


def random_spec(rng):
    def value():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))

    spec = {"beta": value()}
    for m in range(1, SERIES_DEGREE):
        spec["b%d" % m] = value()
    return spec


class Oracle:
    """Checks query outputs at two seeded specialisations."""

    def __init__(self, seed):
        rng = random.Random("oracle|%d" % seed)
        self.specs = [random_spec(rng), random_spec(rng)]
        self._theories = {}

    def theory(self, name, i):
        key = (name, i)
        if key not in self._theories:
            self._theories[key] = Theory(name, self.specs[i], SERIES_DEGREE)
        return self._theories[key]

    def expected(self, q, i):
        """The expected class as ``{expo: Fraction}`` at specialisation i."""
        th = self.theory(q.theory, i)
        ev = lambda text: eval_poly(parse_poly(text), th.spec)  # noqa: E731
        if q.op == "euler":
            return th.euler(q.dims, q.degrees)
        if q.op == "kernel":
            return th.kernel(q.dims)
        if q.op == "fundamental":
            return th.fundamental(q.dims)
        literal = _summed(q.literal, ev)
        if q.op == "to-hom":
            return th.to_hom(q.dims, literal)
        if q.op == "to-coh":
            return th.to_coh(q.dims, literal)
        if q.op == "pushforward":
            return th.pushforward(q.steps, literal)
        raise ValueError("no closed form for %r" % q.op)

    def check(self, q, stdout):
        """None when ``stdout`` is the right answer to ``q``, else a reason."""
        if q.op == "ring":
            return self._check_ring(q, stdout)
        if q.op == "verify":
            return check_verify_report(stdout, q.cells)
        try:
            obj = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON"
        if obj.get("space") != q.out_space:
            return "output space %r, expected %r" % (obj.get("space"), q.out_space)
        key = "values" if q.op in ("fundamental", "to-hom") else "terms"
        if set(obj) != {"space", key}:
            return "unexpected keys %s" % sorted(obj)
        polys = {}
        for item in obj[key]:
            e = tuple(item["zeta"])
            if e in polys:
                return "monomial %r listed twice" % (e,)
            polys[e] = parse_poly(item["coeff"])
        for i in range(len(self.specs)):
            spec = self.theory(q.theory, i).spec
            got = {e: eval_poly(p, spec) for e, p in polys.items()}
            got = {e: c for e, c in got.items() if c}
            want = self.expected(q, i)
            if got != want:
                bad = sorted(set(got) ^ set(want) | {e for e in got if e in want and got[e] != want[e]})
                return "differs from the closed form at specialisation %d, first at %r" % (i, bad[0])
        return None

    def _check_ring(self, q, stdout):
        lines = stdout.splitlines()
        symbols = ["beta"] if q.theory == "multiplicative" else []
        if q.theory == "universal":
            symbols = ["b%d" % m for m in range(1, q.truncation)]
        want_head = ["theory: %s" % q.theory, "truncation: %d" % q.truncation]
        if symbols:
            want_head.append(
                "symbols: " + ", ".join("%s (degree %d)" % (s, symbol_degree(s)) for s in symbols)
            )
        else:
            want_head.append("symbols: none")
        if lines[:3] != want_head or len(lines) != 4 or not lines[3].startswith("parsed: "):
            return "ring description differs: %r" % lines
        got = parse_poly(lines[3][len("parsed: ") :])
        want = parse_poly(q.element)
        if q.theory == "universal":
            want = truncate_poly(want, q.truncation)
        if got != want:
            return "canonical form %r is not %r" % (lines[3], render_poly(want))
        return None


def _summed(literal, ev):
    out = {}
    for e, c in literal:
        out[tuple(e)] = out.get(tuple(e), 0) + ev(c)
    return {e: c for e, c in out.items() if c}


def check_verify_report(stdout, cells):
    """One passing row per expected (check, theory, space) cell, in order."""
    try:
        rows = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    got = [(r.get("check"), r.get("theory"), r.get("space")) for r in rows]
    if got != list(cells):
        return "report rows do not match the requested cells"
    bad = [r for r in rows if r.get("status") != "pass" or r.get("witness") is not None]
    if bad:
        return "%d cells failed, first %s" % (len(bad), bad[0]["check"])
    return None


def flip_one_sign(stdout, q):
    """The output with one coefficient negated, or None when there is no
    coefficient to flip."""
    if q.op == "ring":
        head, _, elem = stdout.rpartition("parsed: ")
        poly = parse_poly(elem)
        if not poly:
            return None
        key = next(iter(poly))
        poly[key] = -poly[key]
        return head + "parsed: " + render_poly(poly) + "\n"
    if q.op == "verify":
        rows = json.loads(stdout)
        rows[0]["status"] = "fail"
        return json.dumps(rows)
    obj = json.loads(stdout)
    items = obj.get("values", obj.get("terms"))
    if not items:
        return None
    poly = parse_poly(items[0]["coeff"])
    items[0]["coeff"] = render_poly({k: -c for k, c in poly.items()})
    return json.dumps(obj)
