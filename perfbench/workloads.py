"""The benchmark's workloads, as lists of CLI argv lists with what each
should produce.

``verify-universal-grid`` and ``verify-product-cube`` are single fixed
``verify`` calls (the ROADMAP baseline rows); the benchmark seed does not
enter them, so every run of one of them must print the same report.
``cli-query-mix`` is a seeded stream of one-shot queries over a fixed
slate of (query, theory, space) slots: the seed picks the degrees, class
literals, morphism chains, ring elements and the order, not the spaces,
so that the cost of a round hardly depends on the seed.
"""

import json
import random
from dataclasses import dataclass, field

from oracle import basis

CHECK_IDS = (
    "V1-fgl-axioms",
    "V2-orientation",
    "V3-pbt-roundtrip",
    "V4-divisor-normalization",
    "V5-coh-projection",
    "V6-first-projection",
    "V7-second-projection",
    "V8-transposition",
    "V9-diagonal-counit",
    "V10-poincare-roundtrip",
    "V11-duality-transport",
    "V12-projection-recursion",
    "V13-identity-decomposition",
    "V14-diamond-squares",
    "V15-up-then-down",
    "V16-product-calculus",
)

# Where the fault queries try to write; the directory never exists.
MISSING_DIR_OUT = "perfbench/out/no-such-dir/fundamental.json"


@dataclass
class Query:
    """One CLI call and what it should produce.

    ``op`` selects the oracle check; ``fault`` names a known defect that
    makes this query fail every time (its expected behaviour is exit 2).
    """

    argv: list
    op: str
    expect_rc: int = 0
    theory: str = ""
    dims: tuple = ()
    truncation: int = 0
    degrees: tuple = ()
    literal: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    out_space: str = ""
    element: str = ""
    cells: tuple = ()
    fault: str = ""

    @property
    def label(self):
        """What the query is, without its seeded data."""
        if self.fault:
            return self.fault
        if self.op in ("malformed", "ring", "verify"):
            return " ".join(filter(None, (self.op, self.theory)))
        return "%s %s %s" % (self.op, self.theory, render_space(self.dims))


def render_space(dims):
    return "x".join("P%d" % n for n in dims) if dims else "pt"


def parse_space(text):
    return tuple(int(p[1:]) for p in text.split("x"))


def verify_query(theories, spaces, extra):
    argv = ["verify", "--theory", ",".join(theories), "--space", ",".join(spaces)]
    argv += list(extra) + ["--format", "json"]
    cells = tuple((c, t, s) for c in CHECK_IDS for t in theories for s in spaces)
    return Query(argv, "verify", cells=cells)


VERIFY_WORKLOADS = {
    "verify-universal-grid": verify_query(
        ["universal"], ["P1", "P2", "P3", "P1xP1", "P1xP2", "P2xP2"], ["--truncation", "10"]
    ),
    "verify-product-cube": verify_query(
        ["multiplicative"], ["P2xP2xP2", "P3xP3xP1"], ["--samples", "1"]
    ),
}

WORKLOADS = ("verify-universal-grid", "verify-product-cube", "cli-query-mix")


# -- the query mix ---------------------------------------------------------------

A, M, U = "additive", "multiplicative", "universal"

# (query, theory, space) slots of one round.  Euler slots also fix the
# twist magnitudes and how many are negative (a negative degree costs a
# formal inverse); the seed places them on the factors.  Pushforward slots
# fix the largest space of the chain, which sets the law's truncation.
# Universal queries on 6-dimensional spaces form a band of similar cost
# around the 90th latency percentile, and those on 8-dimensional spaces lie
# above it, so that percentile does not sit on a gap between two kinds of
# query.
SLATE = (
    [("ring", t, None) for t in (A, M, U) for _ in range(4)]
    + [("verify", t, "P1") for t in (A, M, U)]
    # additive
    + [("euler", A, s, 1) for s in ("P2", "P1xP3", "P2xP2xP2")]
    + [("kernel", A, s) for s in ("P2", "P2xP3")]
    + [("fundamental", A, s) for s in ("P3", "P1xP1xP2")]
    + [("to-hom", A, s) for s in ("P2", "P1xP2")]
    + [("to-coh", A, s) for s in ("P3", "P1xP1")]
    + [("pushforward", A, s, d) for s, d in (("P1", 3), ("P2xP1", 4), ("P1xP1xP1", 6))]
    # multiplicative
    + [("euler", M, s, n) for s, n in (("P1xP1", 1), ("P3", 0), ("P2xP2", 1), ("P1xP2xP2", 1), ("P3xP3", 1), ("P4xP4", 1))]
    + [("kernel", M, s) for s in ("P1xP1", "P3", "P2xP2xP1", "P4xP4")]
    + [("fundamental", M, s) for s in ("P2xP2", "P1xP3", "P4xP4")]
    + [("to-hom", M, s) for s in ("P1xP1", "P3", "P2xP2", "P2xP3xP1")]
    + [("to-coh", M, s) for s in ("P2", "P1xP3", "P2xP2", "P3xP4")]
    + [("pushforward", M, s, d) for s, d in (("P1", 2), ("P2", 4), ("P1xP1", 4), ("P2xP1", 6), ("P2xP2", 7), ("P3xP2", 8))]
    # universal, dimension <= 5
    + [("euler", U, s, n) for s, n in (("P1xP1", 1), ("P2xP1", 0), ("P3", 1), ("P2xP2xP1", 1))]
    + [("kernel", U, s) for s in ("P1", "P1xP2", "P2xP2")]
    + [("fundamental", U, s) for s in ("P2", "P2xP3")]
    + [("to-hom", U, s) for s in ("P2", "P1xP2", "P2xP2")]
    + [("to-coh", U, s) for s in ("P1xP1", "P3", "P2xP2")]
    + [("pushforward", U, s, d) for s, d in (("P1", 2), ("P1", 3), ("P2", 4))]
    # universal, dimension 6
    + [("euler", U, s, 0) for s in ("P3xP3", "P2xP2xP2", "P1xP2xP3")]
    + [("kernel", U, s) for s in ("P3xP3", "P2xP2xP2", "P1xP2xP3")]
    + [("fundamental", U, s) for s in ("P3xP3", "P2xP4")]
    + [("to-hom", U, s) for s in ("P3xP3", "P1xP2xP3")]
    + [("to-coh", U, s) for s in ("P3xP3", "P2xP4", "P1xP2xP3")]
    + [("pushforward", U, s, 6) for s in ("P2xP1", "P2xP2", "P1xP1")]
    # universal, P4xP4
    + [("euler", U, "P4xP4", n) for n in (0, 1)]
    + [(op, U, "P4xP4") for op in ("kernel", "fundamental", "to-hom", "to-coh")]
    + [("pushforward", U, "P3xP2", 8)]
)


def _coeff(rng, theory):
    """A coefficient literal of degree >= -1, so that no result of the
    mix reaches below the universal ring's truncation."""
    n = rng.choice([-3, -2, -1, 1, 2, 3, 4])
    if theory == A:
        return str(n)
    if theory == M:
        k = rng.randint(0, 2)
        return str(n) if k == 0 else "%d*beta%s" % (n, "" if k == 1 else "^%d" % k)
    form = rng.randrange(3)
    if form == 0:
        return str(n)
    if form == 1:
        return "%d/%d" % (n, rng.randint(2, 5))
    return "%d + %d*b1" % (n, rng.randint(1, 4))


def _literal(rng, theory, dims):
    items = [(list(e), _coeff(rng, theory)) for e in basis(dims) if rng.random() < 0.5]
    if not items:
        items = [([0] * len(dims), _coeff(rng, theory))]
    if rng.random() < 0.2:
        items.append((list(items[0][0]), _coeff(rng, theory)))
    return items


def _degrees(rng, k, negative):
    """Magnitudes 1, 2, 1, .. in a seeded order, ``negative`` of them
    negated."""
    degs = [1 + t % 2 for t in range(k)]
    rng.shuffle(degs)
    for t in rng.sample(range(k), negative):
        degs[t] = -degs[t]
    return tuple(degs)


def _chain(rng, source, top):
    """1-3 generator steps from ``source`` whose largest space has
    dimension exactly ``top``.  Steps are (kind, source, target, arg,
    token) in application order."""
    for _ in range(200):
        steps = _random_chain(rng, source, top)
        if max(sum(s[2]) for s in steps) == top or sum(source) == top:
            return steps
    t = 0
    m = source[t] + top - sum(source)
    return [("embed", source, (m,) + source[1:], t, "embed(%d,%d)" % (t, m))]


def _random_chain(rng, source, top):
    steps = []
    cur = source
    for _ in range(rng.randint(1, 3)):
        room = top - sum(cur)
        options = ["proj"]
        if len(cur) >= 2:
            options.append("perm")
        if room > 0 and cur:
            options.append("embed")
        if any(n <= room for n in cur):
            options.append("diag")
        kind = rng.choice(options)
        if kind == "proj":
            keep = tuple(t for t in range(len(cur)) if rng.random() < 0.6)
            tgt = tuple(cur[t] for t in keep)
            steps.append(("proj", cur, tgt, keep, "proj(%s)" % ",".join(map(str, keep))))
        elif kind == "perm":
            perm = list(range(len(cur)))
            rng.shuffle(perm)
            tgt = tuple(cur[p] for p in perm)
            steps.append(("perm", cur, tgt, tuple(perm), "perm(%s)" % ",".join(map(str, perm))))
        elif kind == "embed":
            t = rng.randrange(len(cur))
            m = cur[t] + rng.randint(1, room)
            tgt = cur[:t] + (m,) + cur[t + 1 :]
            steps.append(("embed", cur, tgt, t, "embed(%d,%d)" % (t, m)))
        else:
            t = rng.choice([t for t, n in enumerate(cur) if n <= room])
            tgt = cur[: t + 1] + (cur[t],) + cur[t + 1 :]
            steps.append(("diag", cur, tgt, t, "diag(%d)" % t))
        cur = tgt
    return steps


def _ring_element(rng, theory, truncation):
    if theory == U:
        symbols = ["b%d" % m for m in range(1, truncation)]
    elif theory == M:
        symbols = ["beta"]
    else:
        symbols = []
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [str(rng.randint(1, 9))]
        if theory == U and rng.random() < 0.3:
            factors[0] += "/%d" % rng.randint(2, 6)
        for _ in range(rng.randint(0, 3) if symbols else 0):
            sym = rng.choice(symbols)
            p = rng.randint(1, 3)
            factors.append(sym if p == 1 else "%s^%d" % (sym, p))
        rng.shuffle(factors)
        terms.append("*".join(factors))
    out = ("-" if rng.random() < 0.3 else "") + terms[0]
    for t in terms[1:]:
        out += rng.choice([" + ", " - "]) + t
    return out


def _slot_query(rng, slot):
    op, theory, space = slot[:3]
    if op == "ring":
        trunc = rng.randint(3, 9)
        elem = _ring_element(rng, theory, trunc)
        argv = ["ring", "--theory", theory, "--truncation", str(trunc), "--parse=" + elem]
        return Query(argv, "ring", theory=theory, truncation=trunc, element=elem)
    dims = parse_space(space)
    common = ["--theory", theory, "--space", space, "--format", "json"]
    if op == "euler":
        degs = _degrees(rng, len(dims), slot[3])
        argv = ["euler"] + common + ["--degrees=" + ",".join(map(str, degs))]
        return Query(argv, op, theory=theory, dims=dims, degrees=degs, out_space=space)
    if op in ("kernel", "fundamental"):
        out = space + "x" + space if op == "kernel" else space
        return Query([op] + common, op, theory=theory, dims=dims, out_space=out)
    if op in ("to-hom", "to-coh"):
        lit = _literal(rng, theory, dims)
        key = "terms" if op == "to-hom" else "values"
        cls = json.dumps({key: [{"zeta": e, "coeff": c} for e, c in lit]})
        argv = ["dualize"] + common + ["--direction", op, "--class", cls]
        return Query(argv, op, theory=theory, dims=dims, literal=lit, out_space=space)
    if op == "pushforward":
        steps = _chain(rng, dims, slot[3])
        lit = _literal(rng, theory, dims)
        cls = json.dumps({"terms": [{"zeta": e, "coeff": c} for e, c in lit]})
        morphism = ";".join(s[4] for s in reversed(steps))
        argv = ["pushforward"] + common + ["--morphism", morphism, "--class", cls]
        return Query(
            argv,
            op,
            theory=theory,
            dims=dims,
            literal=lit,
            steps=[s[:4] for s in steps],
            out_space=render_space(steps[-1][2]),
        )
    seed = str(rng.randrange(1000))
    q = verify_query([theory], [space], ["--samples", "1", "--seed", seed])
    q.theory = theory
    return q


def _malformed(rng):
    """Inputs that must end with exit 2 and a message, never a result."""
    t = rng.choice([A, M, U])
    bad = [
        ["euler", "--theory", t, "--space", "P2xQ1", "--degrees", "1,1"],
        ["pushforward", "--theory", t, "--space", "P2", "--morphism", "embed(0)", "--class", '{"terms": []}'],
        ["pushforward", "--theory", t, "--space", "P1xP1", "--morphism", "proj(2)", "--class", '{"terms": []}'],
        ["dualize", "--theory", t, "--space", "P2", "--direction", "to-hom", "--class", '{"terms": ['],
        ["dualize", "--theory", M, "--space", "P1", "--direction", "to-hom", "--class", '{"terms": [{"zeta": [1], "coeff": "2*gamma"}]}'],
        ["dualize", "--theory", A, "--space", "P1", "--direction", "to-coh", "--class", '{"values": [{"zeta": [0], "coeff": "1/2"}]}'],
        ["euler", "--theory", t, "--space", "P1xP1", "--degrees", "1,x"],
        ["euler", "--theory", t, "--space", "P1xP1", "--degrees", "1"],
        ["ring", "--theory", U, "--truncation", "4", "--parse", "b1 +* 2"],
        ["dualize", "--theory", t, "--space", "P2", "--direction", "to-coh", "--class", '{"values": [{"zeta": [5], "coeff": "1"}]}'],
        ["kernel", "--theory", "elliptic", "--space", "P1"],
    ]
    return [Query(argv, "malformed", expect_rc=2) for argv in bad]


def faults():
    """Queries that fail every time because of known defects; each should
    exit 2."""
    return [
        Query(
            ["dualize", "--theory", A, "--space", "P2", "--direction", "to-hom", "--format", "json",
             "--class", '{"terms": [{"zeta": [true], "coeff": "1"}]}'],
            "fault",
            expect_rc=2,
            fault="json-true-exponent",
        ),
        Query(
            ["dualize", "--theory", A, "--space", "P2", "--direction", "to-hom",
             "--class", '{"terms": [{"zeta": [7], "coeff": "1"}]}'],
            "fault",
            expect_rc=2,
            fault="out-of-range-exponent-dropped",
        ),
        Query(
            ["fundamental", "--theory", A, "--space", "P1", "--out", MISSING_DIR_OUT],
            "fault",
            expect_rc=2,
            fault="out-unwritable-traceback",
        ),
    ]


def query_mix(seed):
    """One round of the mix: the slate, the malformed inputs and the
    faults, in a seeded order."""
    rng = random.Random("cli-query-mix|%d" % seed)
    queries = [_slot_query(rng, slot) for slot in SLATE] + _malformed(rng) + faults()
    rng.shuffle(queries)
    return queries


def round_queries(workload, seed):
    if workload == "cli-query-mix":
        return query_mix(seed)
    return [VERIFY_WORKLOADS[workload]]
