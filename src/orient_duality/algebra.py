"""Exact sparse arithmetic in graded coefficient rings.

A coefficient ring is described by its kind plus a truncation bound N >= 1:

* ``additive``       -- the integers, no symbols.
* ``multiplicative`` -- integer polynomials in one symbol ``beta`` with
  ``deg(beta) = -1``.
* ``universal``      -- rational polynomials in ``b1 .. b{N-1}`` with
  ``deg(bm) = -m``; products drop monomials of degree below ``-N``.

The grading is concentrated in degrees <= 0 and multiplication adds
degrees, which makes the truncated product associative: a dropped
intermediate monomial could only have produced dropped monomials later on.

Packed monomials (after Monagan and Pearce's packed exponent vectors).  An
element stores each monomial as one integer key, in a layout its ring
fixes once, at construction:

* universal: with radix R = 2N + 1 and n = N - 1 symbols, the monomial
  b1^e1 ... bn^en of weight w = -degree = e1 + 2*e2 + ... + n*en has key
  e1 + e2*R + ... + en*R^(n-1) + w*R^n, the weight in the top digit.
  A monomial that survives truncation has w <= N, so each exponent is at
  most N and each lower digit of the sum of two keys is at most 2N < R.
  The product of two monomials is therefore the sum of their keys, with
  no carry, and the product survives iff that sum is below (N + 1)*R^n:
  one integer add and one compare per pair of terms.
* multiplicative: the key is the exponent of ``beta``; nothing is dropped.
* additive: the only monomial is 1, with key 0.

The constant monomial has key 0 in every layout.

Elements are in canonical form: nonzero coefficients, with an int wherever
a Fraction equals one.  Each operation builds one fresh key map and
canonicalises it once, then wraps it without a second pass: sums clean
only the coefficients they change (both operands are already canonical),
and negation keeps canonical coefficients canonical.  Every product runs
one loop, ``fused_mul``, into a raw key map; a sum of products (cup, cap,
slants, pairing) fills one map per output and cleans each once with
``wrap_sums``, so no element is built per term.  Only the public
constructor ``RingElem(ring, {exponent tuple: coefficient})`` packs
tuples; it is the cold path used by parsing and a few samplers.  Two
elements are equal iff their descriptors and key maps are equal, so
``==`` is exact mathematical equality.

Rendering reads each monomial key through the ring instance's memo of
(sort key, factor text), ``CoeffRing._render_memo``, which lives as long
as that instance: equal rings built apart keep separate memos, and each
CLI call, which builds its own ring, renders cold.
"""

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import inf
from types import MappingProxyType

from .errors import ParseError, RingMismatchError


class RingKind(Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    UNIVERSAL = "universal"

    @staticmethod
    def parse(name: str) -> "RingKind":
        for kind in RingKind:
            if kind.value == name:
                return kind
        raise ParseError("unknown theory %r (expected additive, multiplicative or universal)" % name)


@dataclass(frozen=True)
class CoeffRing:
    """Descriptor of a graded coefficient ring and its monomial key layout.

    ``CoeffRing(kind, truncation)`` fixes everything else: the symbols
    (none, ``beta``, or ``b1 .. b{N-1}``) and their degrees,
    ``symbols[i]`` in degree ``symbol_degrees[i]`` (always negative).
    Descriptors compare structurally; operations require equal descriptors,
    and equal descriptors have the same layout.  The symbol table and the
    layout (see the module docstring) are computed once, in
    ``__post_init__``:

    * ``_radix``: R = 2N + 1 in the universal ring, else None (keys are
      exponents there);
    * ``_top``: the place value of the weight digit (R^n; 1 elsewhere, where
      the key is its own weight), so a key's degree is ``-(key // _top)``;
    * ``_limit``: (N + 1)*R^n, the smallest key dropped by truncation, or
      None where nothing is truncated;
    * ``operand_order``: the function that turns a right operand's
      ``_t.items()`` into the pairs ``fused_mul`` reads, taken once per
      call: ``sorted`` where the ring truncates (the early stop needs
      ascending keys), else ``list``;
    * ``_render_memo``: this instance's own render memo, outside ``==`` and ``hash``.
    """

    kind: RingKind
    truncation: int
    symbols: tuple[str, ...] = field(init=False)
    symbol_degrees: tuple[int, ...] = field(init=False)
    _radix: int | None = field(init=False, repr=False, compare=False)
    _top: int = field(init=False, repr=False, compare=False)
    _limit: int | None = field(init=False, repr=False, compare=False)
    operand_order: object = field(init=False, repr=False, compare=False)
    _render_memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, RingKind):
            raise ValueError("ring kind %r is not a RingKind" % (self.kind,))
        if self.truncation < 1:
            raise ValueError("truncation bound must be >= 1")
        radix = limit = None
        top = 1
        if self.kind is RingKind.UNIVERSAL:
            symbols = tuple("b%d" % m for m in range(1, self.truncation))
            degrees = tuple(-m for m in range(1, self.truncation))
            radix = 2 * self.truncation + 1
            top = radix ** len(symbols)
            limit = (self.truncation + 1) * top
        elif self.kind is RingKind.MULTIPLICATIVE:
            symbols, degrees = ("beta",), (-1,)
        else:
            symbols, degrees = (), ()
        for name, value in (("symbols", symbols), ("symbol_degrees", degrees), ("_radix", radix), ("_top", top),
                            ("_limit", limit), ("operand_order", list if limit is None else sorted), ("_render_memo", {})):
            object.__setattr__(self, name, value)  # not through vars(self): that slows every attribute read

    @staticmethod
    def additive(truncation: int) -> "CoeffRing":
        return CoeffRing(RingKind.ADDITIVE, truncation)

    @staticmethod
    def multiplicative(truncation: int) -> "CoeffRing":
        return CoeffRing(RingKind.MULTIPLICATIVE, truncation)

    @staticmethod
    def universal(truncation: int) -> "CoeffRing":
        return CoeffRing(RingKind.UNIVERSAL, truncation)

    @property
    def nsymbols(self) -> int:
        return len(self.symbols)

    @property
    def allows_fractions(self) -> bool:
        return self.kind is RingKind.UNIVERSAL

    def monomial_degree(self, expo: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(expo, self.symbol_degrees))

    # -- packed keys ---------------------------------------------------

    def _pack(self, expo: tuple[int, ...]):
        """The key of an exponent tuple, or None if truncation drops it."""
        if len(expo) != len(self.symbols) or any(e < 0 for e in expo):
            raise ValueError("exponent tuple %r does not fit the symbols %r" % (expo, self.symbols))
        weight = -self.monomial_degree(expo)
        if self._limit is not None and weight > self.truncation:
            return None
        if self._limit is None:
            return weight
        key = weight
        for e in reversed(expo):
            key = key * self._radix + e
        return key

    def _unpack(self, key: int) -> tuple[int, ...]:
        if self._radix is None:
            return (key,) * len(self.symbols)
        expo = []
        for _ in self.symbols:
            key, e = divmod(key, self._radix)
            expo.append(e)
        return tuple(expo)

    # -- element constructors ------------------------------------------

    def zero(self) -> "RingElem":
        return _wrap(self, {})

    def one(self) -> "RingElem":
        return _wrap(self, {0: 1})

    def from_coeff(self, c) -> "RingElem":
        return _wrap(self, _canonical({0: c}))

    def gen(self, index: int) -> "RingElem":
        """The ``index``-th symbol as a ring element."""
        if not 0 <= index < self.nsymbols:
            raise ValueError("no symbol with index %d" % index)
        expo = tuple(1 if i == index else 0 for i in range(self.nsymbols))
        return RingElem(self, {expo: 1})

    def gen_named(self, name: str) -> "RingElem":
        return self.gen(self.symbols.index(name))

    def parse(self, text: str) -> "RingElem":
        return _parse_elem(self, text)


def _canonical(terms: dict) -> dict:
    """``terms`` without zero coefficients, with Fractions of denominator 1
    turned into ints: ``terms`` itself, which every caller builds fresh,
    where it holds only nonzero ints."""
    for c in terms.values():
        if not c or type(c) is not int:
            break
    else:
        return terms
    out = {}
    for k, c in terms.items():
        if c:
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            out[k] = c
    return out


def _wrap(ring: CoeffRing, packed: dict) -> "RingElem":
    """An element over an already canonical key map, skipping ``__init__``."""
    elem = object.__new__(RingElem)
    elem.ring = ring
    elem._t = packed
    return elem


def fused_mul(acc: dict, c: "RingElem", d_items) -> None:
    """Add the key map of c * d into the raw map ``acc``, the one loop of
    coefficient products.  ``d_items`` are d's (key, coefficient) pairs in
    ``CoeffRing.operand_order``, ascending where the ring truncates: the
    loop stops at the first pair whose key sum reaches ``CoeffRing._limit``
    (None truncates nothing, and then any order will do)."""
    limit = c.ring._limit or inf
    for k1, c1 in c._t.items():
        room = limit - k1
        for k2, c2 in d_items:
            if k2 >= room:
                break
            k = k1 + k2
            if k in acc:
                acc[k] += c1 * c2
            else:
                acc[k] = c1 * c2


def wrap_sums(ring: CoeffRing, accs: dict) -> dict:
    """The elements of the raw key maps ``accs`` (filled by ``fused_mul``),
    by the same keys, each map canonicalised once; zeros are kept, for
    ``spaces.SparseClass._like`` to drop."""
    return {g: _wrap(ring, _canonical(raw)) for g, raw in accs.items()}


class RingElem:
    """A graded ring element in canonical sparse form.

    ``_t`` maps packed monomial keys (see the module docstring) to nonzero
    int or Fraction coefficients.  ``RingElem(ring, terms)`` takes exponent
    tuples (one slot per ring symbol), canonicalises the coefficients and
    drops monomials that truncation identifies with zero; ``terms`` reads
    them back as a tuple-keyed view for rendering and tests.  Instances are
    immutable by convention; all operations return new elements.
    """

    __slots__ = ("ring", "_t")

    def __init__(self, ring: CoeffRing, terms: dict):
        # In the universal ring, monomials below degree -truncation are
        # identified with zero; dropping them here (not only in products)
        # keeps every construction path in the same quotient.
        packed = {}
        for expo, c in terms.items():
            if c:
                key = ring._pack(expo)
                if key is not None:
                    packed[key] = c
        self.ring = ring
        self._t = _canonical(packed)

    @property
    def terms(self):
        """Read-only view: exponent tuple -> nonzero coefficient."""
        unpack = self.ring._unpack
        return MappingProxyType({unpack(k): c for k, c in self._t.items()})

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self._t == other._t

    __hash__ = None

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self._t.values())

    def degrees(self) -> set[int]:
        """The set of degrees in which the element has a nonzero part."""
        top = self.ring._top
        return {-(k // top) for k in self._t}

    def constant_coeff(self):
        return self._t.get(0, 0)

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "RingElem"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("elements of different coefficient rings")

    def __add__(self, other):
        if not isinstance(other, RingElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.from_coeff(other)
        self._check_ring(other)
        big, small = self._t, other._t
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        get = terms.get
        for k, c in small.items():
            prev = get(k)
            if prev is None:
                terms[k] = c
                continue
            c = prev + c
            if not c:
                del terms[k]
            elif type(c) is Fraction and c.denominator == 1:
                terms[k] = c.numerator
            else:
                terms[k] = c
        return _wrap(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.ring, {k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, RingElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.from_coeff(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RingElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.from_coeff(other)
        self._check_ring(other)
        terms: dict = {}
        fused_mul(terms, self, self.ring.operand_order(other._t.items()))
        return _wrap(self.ring, _canonical(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Deterministic text form; ``CoeffRing.parse`` round-trips it."""
        if not self._t:
            return "0"
        memo, parts = self.ring._render_memo, []
        for k, c in self._t.items():
            if k not in memo:
                expo = self.ring._unpack(k)
                text = "*".join(s if e == 1 else "%s^%d" % (s, e) for s, e in zip(self.ring.symbols, expo) if e)
                memo[k] = ((sum(expo), tuple(-e for e in expo)), text)
            order, factors = memo[k]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = factors
            else:
                body = "%s*%s" % (abs(c), factors)
            parts.append((order, "-" if c < 0 else "+", body))
        out = " ".join("%s %s" % (sign, body) for _, sign, body in sorted(parts))
        return out[2:] if out[0] == "+" else "-" + out[2:]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "RingElem(%s)" % self.render()


# -- element grammar ----------------------------------------------------
#
#   elem   := [sign] term (sign term)*
#   term   := factor ('*' factor)*
#   factor := number | symbol ['^' nat]
#   number := nat | nat '/' nat
#
# Integer rings reject fractional numbers at this boundary, which keeps
# user-supplied data inside the integral subring the theory promises.

_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+(?:\s*/\s*[0-9]+)?)|(?P<sym>[A-Za-z][A-Za-z0-9]*)|(?P<op>[\^*+-]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num").replace(" ", ""), m.start("num")))
        elif m.lastgroup == "sym":
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def _parse_elem(ring: CoeffRing, text: str) -> RingElem:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element literal")
    result = ring.zero()
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        # optional sign chain before a term; required between terms
        saw_sign = False
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            raise ParseError("expected '+' or '-' between terms", tokens[i][2])
        if i >= len(tokens):
            raise ParseError("dangling sign at end of element literal")
        coeff = Fraction(sign)
        expo = [0] * ring.nsymbols
        expect_factor = True
        while i < len(tokens):
            kind, val, pos = tokens[i]
            if expect_factor:
                if kind == "num":
                    if "/" in val:
                        if not int(val.split("/")[1]):
                            raise ParseError("zero denominator in %r" % val, pos)
                        if not ring.allows_fractions:
                            raise ParseError("fractional coefficient in an integer ring", pos)
                        coeff *= Fraction(val)
                    else:
                        coeff *= int(val)
                    i += 1
                elif kind == "sym":
                    try:
                        idx = ring.symbols.index(val)
                    except ValueError:
                        raise ParseError("unknown symbol %r" % val, pos) from None
                    power = 1
                    i += 1
                    if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                        i += 1
                        if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                            raise ParseError("expected integer exponent after '^'", pos)
                        power = int(tokens[i][1])
                        i += 1
                    expo[idx] += power
                else:
                    raise ParseError("expected a number or symbol", pos)
                expect_factor = False
            else:
                if kind == "op" and val == "*":
                    i += 1
                    expect_factor = True
                else:
                    break
        if expect_factor:
            raise ParseError("dangling '*' in element literal")
        term = RingElem(ring, {tuple(expo): coeff})
        result = result + term
        first = False
    if ring.kind is not RingKind.UNIVERSAL and not result.is_integral():
        # can only happen via cancellation tricks like 1/2 + 1/2; the
        # individual factors were already rejected above, but keep the
        # boundary airtight.
        raise ParseError("element is not integral in an integer ring")
    return result
