"""Command-line front end.

Subcommands
-----------
ring         describe a coefficient ring; optionally canonicalise an element
euler        Euler class of a line bundle O(d1, .., dk)
pushforward  direct image of a cohomology class along a morphism chain
kernel       diagonal kernel class of a space, on space x space
fundamental  fundamental homology class of a space
dualize      apply a duality map (to-hom / to-coh)
verify       run the identity verification suite

Exit status: 0 success (all checks passed), 1 check or consistency
failure, 2 usage or parse error, 3 refused as truncation-unsound (this
includes any universal truncation above ``MAX_UNIVERSAL_TRUNCATION``).

Morphism literals are chains of primitive tokens joined by ';', composed
right to left (the rightmost token applies first, with ``--space`` as its
source):

    proj(i1,i2,..)   keep the listed factors (may be empty: map to a point)
    embed(t,m)       linear embedding raising factor t to dimension m
    diag(t)          duplicate factor t into slots t, t+1
    perm(p0,p1,..)   reorder factors (image point i has coordinate x_p[i])

Class literals are JSON: ``{"terms": [{"zeta": [e1, .., ek], "coeff":
"..."}, ..]}`` for cohomology, ``{"values": [..]}`` with the same item
shape for homology; coefficients use the text form of the ring.
"""

import argparse
import json
import re
import sys
from functools import lru_cache

from .algebra import CoeffRing, RingKind
from .errors import (
    CalculatorError,
    ParseError,
    RingMismatchError,
    SpaceMismatchError,
    TruncationUnsoundError,
)
from .fgl import law_for
from .gysin import diagonal_kernel_class, pushforward_coh
from .homodual import HomClass, duality_to_coh, duality_to_hom, fundamental_class
from .spaces import (
    CohClass,
    Composite,
    Diagonal,
    LinearEmbed,
    Morphism,
    Permutation,
    Projection,
    Space,
    compose,
    euler,
)
from .verify import CheckConfig, reports_to_json, reports_to_table, run_suite

# Universal law work grows about sixfold per five degrees of truncation and
# ring parsing quadratically; above this bound a query (``ring`` included) is
# refused instead of running for minutes (no documented query needs > 10).
MAX_UNIVERSAL_TRUNCATION = 20

_MORPHISM_TOKEN = re.compile(r"^(proj|embed|diag|perm)\(([-0-9,\s]*)\)$")
_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _ascii_int(text: str) -> int:
    """An integer in ASCII digits with an optional sign; ``int`` alone also
    reads '1_0' as 10 and other scripts' digits as their values."""
    if not _ASCII_INT.fullmatch(text):
        raise argparse.ArgumentTypeError("not an ASCII integer: %r" % text)
    return int(text)


def parse_morphism(text: str, source: Space) -> Morphism:
    """Parse a ';'-joined chain of primitive tokens, rightmost first."""
    tokens = []
    offset = 0
    for chunk in text.split(";"):
        tokens.append((chunk.strip(), offset))
        offset += len(chunk) + 1
    built = []
    current = source
    for tok, pos in reversed(tokens):
        m = _MORPHISM_TOKEN.match(tok)
        if not m:
            raise ParseError("malformed morphism token %r" % tok, position=pos)
        name, argstr = m.groups()
        items = argstr.split(",") if argstr.strip() else []  # proj() maps to the point
        if not all(s.strip() for s in items):
            raise ParseError("empty argument in %r" % tok, position=pos)
        try:
            args = [int(s) for s in items]
        except ValueError:
            raise ParseError("non-integer argument in %r" % tok, position=pos) from None
        try:
            if name == "proj":
                mor: Morphism = Projection(current, tuple(args))
            elif name == "embed":
                if len(args) != 2:
                    raise ParseError("embed takes (factor, dimension)", position=pos)
                t, m_target = args
                if not 0 <= t < current.nfactors:
                    raise ParseError("no factor with index %d" % t, position=pos)
                if m_target < current.factors[t]:
                    raise ParseError(
                        "cannot embed P%d linearly in P%d" % (current.factors[t], m_target),
                        position=pos,
                    )
                fs = list(current.factors)
                fs[t] = m_target
                mor = LinearEmbed(Space(tuple(fs)), t, current.factors[t])
            elif name == "diag":
                if len(args) != 1:
                    raise ParseError("diag takes one factor index", position=pos)
                mor = Diagonal(current, args[0])
            else:
                mor = Permutation(current, tuple(args))
        except (SpaceMismatchError, ValueError) as exc:
            raise ParseError("bad morphism token %r: %s" % (tok, exc), position=pos) from None
        built.append(mor)
        current = mor.target
    return compose(*reversed(built))


def _parse_class_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON class literal: %s" % exc.msg, position=exc.pos) from None


def _write(args, payload: str) -> None:
    if not args.out:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (args.out, exc.strerror or exc)) from None


def _emit(args, result) -> None:
    """Write a class in the requested format; only that form is built, and
    it renders each distinct coefficient once (``_rendered_terms``).  The
    JSON form is one ``%`` per term against a template built once, one
    ``json.dumps`` per distinct string, and equals ``json.dumps({"space":
    ..., **result.to_json_obj()}, indent=2)`` byte for byte."""
    if args.format == "json":
        items, quoted = [], {}
        k = result.space.nfactors
        zeta = "[\n%s\n      ]" % ",\n".join(["        %d"] * k) if k else "[]"
        item = '    {\n      "zeta": %s,\n      "coeff": %%s\n    }' % zeta
        for e, text in result._rendered_terms():
            coeff = quoted.get(text) or quoted.setdefault(text, json.dumps(text))
            items.append(item % (e + (coeff,)))
        body = "[\n%s\n  ]" % ",\n".join(items) if items else "[]"
        payload = '{\n  "space": %s,\n  "%s": %s\n}' % (json.dumps(result.space.render()), result._JSON_KEY, body)
    else:
        payload = result.render()
    _write(args, payload + "\n")


def _default_truncation(space: Space) -> int:
    return space.total_dim + 1


def _chain_spaces(f: Morphism) -> list[Space]:
    if isinstance(f, Composite):
        return [p.source for p in f.parts] + [p.target for p in f.parts]
    return [f.source, f.target]


def _checked_truncation(kinds, trunc: int) -> int:
    """``trunc``, unless a universal law would be built at a truncation
    above ``MAX_UNIVERSAL_TRUNCATION``."""
    if RingKind.UNIVERSAL in kinds and trunc > MAX_UNIVERSAL_TRUNCATION:
        raise TruncationUnsoundError(
            "universal truncation %d is above the limit of %d" % (trunc, MAX_UNIVERSAL_TRUNCATION)
        )
    return trunc


def _law(args, space: Space | None):
    kind = RingKind.parse(args.theory)
    trunc = args.truncation
    if trunc is None:
        trunc = _default_truncation(space) if space is not None else 8
    return law_for(kind, _checked_truncation((kind,), trunc))


# -- subcommand handlers ----------------------------------------------------


def _cmd_ring(args) -> int:
    kind = RingKind.parse(args.theory)
    trunc = _checked_truncation((kind,), args.truncation if args.truncation is not None else 8)
    ring = CoeffRing(kind, trunc)
    symbols = [
        {"name": name, "degree": deg}
        for name, deg in zip(ring.symbols, ring.symbol_degrees)
    ]
    obj = {"theory": kind.value, "truncation": trunc, "symbols": symbols}
    lines = ["theory: %s" % kind.value, "truncation: %d" % trunc]
    if symbols:
        lines.append(
            "symbols: " + ", ".join("%s (degree %d)" % (s["name"], s["degree"]) for s in symbols)
        )
    else:
        lines.append("symbols: none")
    if args.parse is not None:
        elem = ring.parse(args.parse)
        obj["parsed"] = elem.render()
        lines.append("parsed: %s" % elem.render())
    _write(args, (json.dumps(obj, indent=2) if args.format == "json" else "\n".join(lines)) + "\n")
    return 0


def _cmd_euler(args) -> int:
    space = Space.parse(args.space)
    law = _law(args, space)
    try:
        degrees = tuple(_ascii_int(s) for s in args.degrees.split(",")) if args.degrees else ()
    except argparse.ArgumentTypeError as exc:
        raise ParseError("degrees must be a comma-separated integer list: %s" % exc) from None
    _emit(args, euler(space, degrees, law))
    return 0


def _cmd_pushforward(args) -> int:
    space = Space.parse(args.space)
    f = parse_morphism(args.morphism, space)
    biggest = max(_chain_spaces(f), key=lambda s: s.total_dim)
    law = _law(args, biggest)
    alpha = CohClass.from_json_obj(space, law.ring, _parse_class_json(getattr(args, "class")))
    _emit(args, pushforward_coh(f, alpha, law))
    return 0


def _cmd_kernel(args) -> int:
    space = Space.parse(args.space)
    law = _law(args, space)
    _emit(args, diagonal_kernel_class(space, law))
    return 0


def _cmd_fundamental(args) -> int:
    space = Space.parse(args.space)
    law = _law(args, space)
    _emit(args, fundamental_class(space, law))
    return 0


def _cmd_dualize(args) -> int:
    space = Space.parse(args.space)
    law = _law(args, space)
    obj = _parse_class_json(getattr(args, "class"))
    if args.direction == "to-hom":
        alpha = CohClass.from_json_obj(space, law.ring, obj)
        out = duality_to_hom(alpha, law)
    else:
        a = HomClass.from_json_obj(space, law.ring, obj)
        out = duality_to_coh(a, law)
    _emit(args, out)
    return 0


def _cmd_verify(args) -> int:
    if args.theory == "all":
        kinds = tuple(RingKind)
    else:
        kinds = tuple(RingKind.parse(t.strip()) for t in args.theory.split(","))
    spaces = tuple(Space.parse(s.strip()) for s in args.space.split(","))
    trunc = args.truncation
    if trunc is None:
        trunc = max(s.total_dim for s in spaces) + 1
    trunc = _checked_truncation(kinds, trunc)
    checks = None
    if args.checks is not None:  # an empty list names the empty check id
        checks = tuple(c.strip() for c in args.checks.split(","))
    cfg = CheckConfig(
        theories=kinds, spaces=spaces, truncation=trunc, seed=args.seed, samples=args.samples
    )
    reports = run_suite(cfg, checks=checks)
    if args.format == "json":
        payload = reports_to_json(reports)
    else:
        payload = reports_to_table(reports)
    _write(args, payload)
    return 0 if all(r.status == "pass" for r in reports) else 1


# -- parser -----------------------------------------------------------------


def _add_common(sub, *, theory=True, space=True):
    if theory:
        sub.add_argument(
            "--theory",
            required=True,
            choices=["additive", "multiplicative", "universal"],
            help="coefficient theory",
        )
    if space:
        sub.add_argument("--space", required=True, help="space literal, e.g. P2xP1 or pt")
    sub.add_argument(
        "--truncation",
        type=_ascii_int,
        default=None,
        metavar="N",
        help="series truncation bound (default: smallest sound value)",
    )
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--out", default=None, metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orient-duality",
        description="Exact calculator for oriented cohomology of products of projective spaces.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("ring", help="describe a coefficient ring")
    _add_common(p, space=False)
    p.add_argument("--parse", default=None, metavar="ELEM", help="canonicalise a ring element")
    p.set_defaults(func=_cmd_ring)

    p = subs.add_parser("euler", help="Euler class of O(d1, .., dk)")
    _add_common(p)
    p.add_argument("--degrees", required=True, help="comma-separated twist degrees")
    p.set_defaults(func=_cmd_euler)

    p = subs.add_parser("pushforward", help="direct image of a class along a morphism chain")
    _add_common(p)
    p.add_argument("--morphism", required=True, help="';'-joined tokens, rightmost first")
    p.add_argument("--class", required=True, help="JSON class literal on --space")
    p.set_defaults(func=_cmd_pushforward)

    p = subs.add_parser("kernel", help="diagonal kernel class on space x space")
    _add_common(p)
    p.set_defaults(func=_cmd_kernel)

    p = subs.add_parser("fundamental", help="fundamental homology class")
    _add_common(p)
    p.set_defaults(func=_cmd_fundamental)

    p = subs.add_parser("dualize", help="apply a duality map")
    _add_common(p)
    p.add_argument("--direction", required=True, choices=["to-hom", "to-coh"])
    p.add_argument("--class", required=True, help="JSON class literal on --space")
    p.set_defaults(func=_cmd_dualize)

    p = subs.add_parser("verify", help="run the identity verification suite")
    p.add_argument(
        "--theory",
        default="all",
        help="'all' or a comma-separated subset of additive,multiplicative,universal",
    )
    p.add_argument("--space", default="P1,P2,P1xP1", help="comma-separated space literals")
    p.add_argument("--truncation", type=_ascii_int, default=None, metavar="N")
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--samples", type=_ascii_int, default=4)
    p.add_argument("--checks", default=None, help="comma-separated check ids (default: all)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    return parser


def _option_strings(parser: argparse.ArgumentParser) -> tuple[set, set]:
    """(every option string, those that take one value), subcommands included."""
    known, valued = set(), set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                k, v = _option_strings(sub)
                known |= k
                valued |= v
        elif action.option_strings:
            known.update(action.option_strings)
            if action.nargs is None:
                valued.update(action.option_strings)
    return known, valued


@lru_cache(maxsize=1)
def _parser() -> tuple[argparse.ArgumentParser, set, set]:
    """The parser and its option-string tables, built once per process:
    parsing leaves the parser unchanged."""
    parser = build_parser()
    return (parser,) + _option_strings(parser)


def _attach_dash_values(argv: list) -> list:
    """Join ``--opt -v`` into ``--opt=-v`` when ``-v`` is not an option, so
    values such as ``-1,2`` or ``-b1`` reach the option instead of being
    read as an unknown option."""
    _, known, valued = _parser()
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in valued
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
            and nxt not in known
        ):
            out.append("%s=%s" % (tok, nxt))
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser()[0].parse_args(_attach_dash_values(list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except TruncationUnsoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (SpaceMismatchError, RingMismatchError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CalculatorError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
