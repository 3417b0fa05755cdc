"""Products of projective spaces, their cohomology rings and morphisms.

A space is a finite tuple of projective dimensions; the empty tuple is the
point.  Its cohomology over a coefficient ring R is

    R[z1 .. zk] / (z_t^(n_t + 1))

with every z_t in degree 1 (the single collapsed grading).

``SparseClass`` is the one sparse core of cohomology classes
(``CohClass``), homology classes (``HomClass``) and the scratch
polynomials of ``fgl``: a map from exponent tuples to nonzero ring
elements with checks, equality, sums, scaling, the product of two classes
of one kind, the graded term order, JSON literals and the external
product.  Each subclass constructor keeps
its own range rule; ``CohClass`` drops out-of-bound exponents (the quotient
relations), so equal classes always have equal term maps.  Results in
range by construction only drop zeros (``SparseClass._trusted``): the
operations here, ``contract`` and ``place``, ``pushforward_coh`` on
embeddings and diagonals, ``pushforward_hom``, ``shriek_hom``, both
duality maps and ``verify``'s samples.  Literals, ``monomial`` and the
pullbacks along ``LinearEmbed`` and ``Diagonal``, which rely on the
quotient to drop out-of-box terms, keep the checked constructors.

Cup, cap and series products share one kernel, ``packed_pairs``, over a
table of packed keys (``packed_keys``: the box, or a simplex for ``fgl``):
each tuple e is the integer sum e_t * R_t with R_t = prod_(s<t) (2 n_s + 1),
so adding or subtracting two tuples is one integer operation.  On the box
each term e of the left operand walks only the tuples b <= n - e, from two
cached halves of the factors, and looks the right operand up by key; where
the right operand has fewer terms than that box, and on a simplex, it
tests every pair by one lookup in the table instead (after Monagan and
Pearce's sparse products, which touch only the monomials that survive).
It collects the triples (g, c, d) of the pairs that meet at each output
tuple g and sums all their coefficient products in one call of
``algebra.sum_products``, the loop behind every product of ring elements.

One slot gather (``gather``) serves ``contract``, which sums
c * small(e|match) at e|keep (the slants, the pairing and p_!(alpha) =
alpha / [fibre]), and ``place``, which puts exponent i in slot slots[i]
and 0 elsewhere (the projection and permutation pullbacks and
p^!(a) = a x [fibre]).

Morphisms come in four generator shapes plus composites:

* ``Projection``  -- keep an ordered subset of factors;
* ``LinearEmbed`` -- linearly embedded smaller projective space in one factor;
* ``Diagonal``    -- duplicate one factor into two adjacent slots;
* ``Permutation`` -- reorder factors.

Each knows its pullback on classes; the direct images live in ``gysin``
since they depend on the group law.  Spaces and morphisms are frozen
records (``algebra.Record``): equal, with equal hashes, when their fields
are equal, the derived space of a morphism included.
"""

import json
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter

from .algebra import CoeffRing, Record, RingElem, sum_products
from .errors import (
    ParseError,
    RingMismatchError,
    SpaceMismatchError,
    TruncationUnsoundError,
)

_SPACE_RE = re.compile(r"^P([0-9]+)(xP[0-9]+)*$")


class Space(Record):
    _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        if not isinstance(factors, (tuple, list)):
            raise ValueError("space factors %r are not a tuple of dimensions" % (factors,))
        for n in factors:
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise ValueError("projective dimension %r is not an int >= 0" % (n,))
        object.__setattr__(self, "factors", tuple(factors))  # a list would make the space unhashable

    def __eq__(self, other):  # direct, not through ``_values``: spaces are memo keys on the hot path
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash((self.factors,))

    @staticmethod
    def point() -> "Space":
        return Space(())

    @staticmethod
    def parse(text: str) -> "Space":
        text = text.strip()
        if text == "pt":
            return Space(())
        if not _SPACE_RE.match(text):
            raise ParseError("malformed space %r (expected e.g. 'P2xP1' or 'pt')" % text)
        return Space(tuple(int(p[1:]) for p in text.split("x")))

    def render(self) -> str:
        if not self.factors:
            return "pt"
        return "x".join("P%d" % n for n in self.factors)

    def __str__(self) -> str:
        return self.render()

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def total_dim(self) -> int:
        return sum(self.factors)

    def times(self, other: "Space") -> "Space":
        return Space(self.factors + other.factors)


def basis(space: Space) -> list[tuple[int, ...]]:
    """All exponent tuples, in graded-lexicographic order: a fresh list."""
    return list(_basis(space))


@lru_cache(maxsize=128)
def _basis(space: Space) -> tuple[tuple[int, ...], ...]:
    """The tuples of ``basis``, built once per space.  Shared: read only."""
    tuples = [()]
    for n in space.factors:
        tuples = [t + (e,) for t in tuples for e in range(n + 1)]
    tuples.sort(key=lambda t: (sum(t), t))
    return tuple(tuples)


@lru_cache(maxsize=128)
def packed_keys(space: Space, total: int) -> tuple[dict, dict]:
    """The table (tuple -> key, key -> tuple) over the in-range exponent
    tuples of total degree <= ``total``; ``total = space.total_dim`` gives
    the whole box.

    The key of e is sum_t e_t * R_t with R_t = prod_(s<t) (2 n_s + 1).
    For in-range e and f, digit t of e + f lies in 0..2 n_t and digit t
    of e - f in -n_t..n_t; each range is a full digit set for the radix
    2 n_t + 1, so neither sum nor difference carries and its key equals
    the key of a tuple in the table exactly when its digits are that tuple.
    The tables are shared: callers must not modify them.
    """
    rows = [((), 0, 0)]  # (tuple, key, total degree)
    radix = 1
    for n in space.factors:
        rows = [
            (e + (i,), k + i * radix, d + i)
            for e, k, d in rows
            for i in range(min(n, total - d) + 1)
        ]
        radix *= 2 * n + 1
    return {e: k for e, k, _ in rows}, {k: e for e, k, _ in rows}


@lru_cache(maxsize=1024)
def _half_box(space: Space, lo: int, part: tuple[int, ...]) -> tuple[int, ...]:
    """The keys sum_t b_t * R_t over 0 <= b_t <= n_t - part_t for the
    factors t = lo .. lo + len(part) - 1: one half of the box b <= n - e,
    whose other half has the remaining factors.  Shared: do not modify."""
    radix = 1
    for n in space.factors[:lo]:
        radix *= 2 * n + 1
    out = [0]
    for n, x in zip(space.factors[lo:], part):
        out = [k + i * radix for i in range(n - x + 1) for k in out]
        radix *= 2 * n + 1
    return tuple(out)


def packed_pairs(left: "SparseClass", right: "SparseClass", sign: int) -> dict:
    """The sum of c * d at g over the pairs (e, c) of ``left`` and (f, d)
    of ``right`` with sign * key(e) + key(f) = key(g) for a tuple g of the
    ``packed_keys(space, total)`` table, ``total = left._top_degree()``
    (the box for a cohomology class, the simplex below the degree bound for
    a ``NilPoly``): the product for sign 1
    (g = e + f), the cap product for sign -1 (g = f - e).  Both classes
    are on one space over one ring (the caller checks), and every tuple of
    theirs is in the table.  Returns the nonzero coefficients by tuple.

    On the whole box each term e of ``left`` walks the tuples b <= n - e,
    the sums of two cached halves (``_half_box``), and looks ``right`` up
    by key: at b for the product (g = e + b), at b + e for the cap product
    (g = b).  Where ``right`` has fewer terms than that box, and on the
    simplex tables of ``fgl``, it tests every pair instead.  The pairs
    that meet, as triples (key of g, c, d), go to one call of
    ``algebra.sum_products``."""
    if not left.terms or not right.terms:
        return {}
    space, total = left.space, left._top_degree()
    keys, expos = packed_keys(space, total)
    by_key = {keys[f]: d for f, d in right.terms.items()}
    find = by_key.get
    walk = total == space.total_dim
    half = space.nfactors // 2
    triples = []
    for e, c in left.terms.items():
        ke = keys[e]
        if walk:
            low, high = _half_box(space, 0, e[:half]), _half_box(space, half, e[half:])
        if walk and len(low) * len(high) <= len(by_key):
            at, to = (0, ke) if sign > 0 else (ke, 0)
            triples += [
                (kh + kl + to, c, d)
                for kh in high
                for kl in low
                if (d := find(kh + kl + at)) is not None
            ]
        else:
            shift = sign * ke
            triples += [(g, c, d) for kf, d in by_key.items() if (g := kf + shift) in expos]
    return {expos[g]: s for g, s in sum_products(left.ring, triples).items()}


@lru_cache(maxsize=1024)
def gather(slots: tuple[int, ...]):
    """e -> (e[t] for t in slots), one ``itemgetter`` per slot tuple (one
    slot and none take a slice: a one-slot itemgetter returns the entry)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0))


def contract(big: "SparseClass", small: "SparseClass", keep: tuple, match: tuple):
    """The class of ``big``'s kind on the ``keep`` factors of ``big.space``
    whose coefficient at u sums c * small(e|match) over the terms (e, c) of
    big with e|keep = u."""
    if big.ring != small.ring:
        raise RingMismatchError("classes over different coefficient rings")
    find = small.terms.get
    key, sub = gather(keep), gather(match)
    triples = [(key(e), c, d) for e, c in big.terms.items() if (d := find(sub(e))) is not None]
    return big._like(sum_products(big.ring, triples), Space(key(big.space.factors)))


@lru_cache(maxsize=1024)
def _placing(slots: tuple[int, ...], k: int):
    """Slot s reads entry i of e where slots[i] = s, else the pad e[len(slots)]."""
    return gather(tuple(slots.index(s) if s in slots else len(slots) for s in range(k)))


def place(x: "SparseClass", slots: tuple, space: Space):
    """x on ``space`` with exponent i of each term in slot slots[i] and 0
    in every other slot, by one gather over e + (0,)."""
    get = _placing(slots, space.nfactors)
    return x._like({get(e + (0,)): c for e, c in x.terms.items()}, space)


def parse_exponents(space: Space, raw, what: str) -> tuple[int, ...]:
    """The exponent tuple of one class-literal item: one integer in
    0..n_t per factor.  JSON booleans are not integers here, and an
    exponent above its factor's dimension is an error, not a zero term."""
    if not isinstance(raw, (list, tuple)) or len(raw) != space.nfactors or any(
        isinstance(e, bool) or not isinstance(e, int) or not 0 <= e <= n
        for e, n in zip(raw, space.factors)
    ):
        raise ParseError("%s %s does not fit %s" % (what, json.dumps(raw), space))
    return tuple(raw)


class SparseClass:
    """A sparse map from exponent tuples on a space to nonzero ring elements.

    The shared core of cohomology classes, homology classes and the scratch
    polynomials of ``fgl``: checks, equality, sums, negation, scaling, the
    graded term order, JSON literals and the external product.  Each
    subclass constructor applies its own range rule; results of the
    operations here are in range by construction and only drop zeros.
    """

    __slots__ = ("space", "ring", "terms")

    def __init__(self, space: Space, ring: CoeffRing, terms: dict):
        # ``terms`` is already clean: in range, no zero coefficients
        self.space = space
        self.ring = ring
        self.terms = terms

    @classmethod
    def _trusted(cls, space: Space, ring: CoeffRing, terms: dict):
        """A class from in-range terms, without their zeros and unchecked:
        the zero filter of every operation here."""
        out = object.__new__(cls)
        out.space, out.ring = space, ring
        out.terms = {e: c for e, c in terms.items() if c._t}
        return out

    def _like(self, terms: dict, space: Space | None = None):
        """``_trusted`` for a result of this class's kind and ring."""
        return self._trusted(self.space if space is None else space, self.ring, terms)

    @staticmethod
    def _split_box(space: Space, ring: CoeffRing, terms: dict) -> tuple[dict, list]:
        """The nonzero terms in the box of ``space`` and the tuples outside
        it, checked in one pass per term: a wrong length raises
        ``SpaceMismatchError``, then any exponent that is not an int (bools
        and floats included) or is negative ``ValueError``, then a
        coefficient that is not an element of ``ring`` ``RingMismatchError``."""
        inside, outside = {}, []
        bounds = space.factors
        for expo, c in terms.items():
            if len(expo) != len(bounds):
                raise SpaceMismatchError("exponent tuple %r does not fit %s" % (expo, space))
            fits = True
            for e, n in zip(expo, bounds):
                if type(e) is not int:
                    raise ValueError("exponent %r in %r is not an int" % (e, expo))
                if e < 0:
                    raise ValueError("negative exponent in %r" % (expo,))
                if e > n:
                    fits = False
            if not isinstance(c, RingElem) or (c.ring is not ring and c.ring != ring):
                raise RingMismatchError("coefficient at %r is not an element of the class's ring" % (expo,))
            if not fits:
                outside.append(expo)
            elif c:
                inside[expo] = c
        return inside, outside

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, space: Space, ring: CoeffRing):
        return cls(space, ring, {})

    @classmethod
    def monomial(cls, space: Space, ring: CoeffRing, expo: tuple[int, ...], coeff=None):
        """The class with one term, coefficient 1 unless given."""
        if not isinstance(expo, (tuple, list)):
            raise ValueError("exponents %r are not a tuple of ints" % (expo,))
        if coeff is None:
            coeff = ring.one()
        elif not isinstance(coeff, RingElem):
            coeff = ring.from_coeff(coeff)  # refuses a bool or a float by name
        return cls(space, ring, {tuple(expo): coeff})

    # -- structure -------------------------------------------------------

    def _check(self, other: "SparseClass"):
        if self.space != other.space:
            raise SpaceMismatchError("classes on different spaces")
        if self.ring != other.ring:
            raise RingMismatchError("classes over different coefficient rings")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, expo: tuple[int, ...]) -> RingElem:
        expo, zero = tuple(expo), self.ring.zero()
        self._split_box(self.space, self.ring, {expo: zero})  # checked as a term's tuple; outside the box reads 0
        return self.terms.get(expo, zero)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.space, self.ring) == (other.space, other.ring) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented  # kinds never mix, as in ``==``
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            prev = terms.get(e)
            terms[e] = c if prev is None else prev + c
        return self._like(terms)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product with a class of the same kind, which drops the terms
        above ``_top_degree``, or scaling by a coefficient."""
        if type(other) is type(self):
            self._check(other)
            return self._like(packed_pairs(self, other, 1))
        if not isinstance(other, (int, Fraction, RingElem)):
            return NotImplemented
        if isinstance(other, RingElem) and other.ring != self.ring:
            raise RingMismatchError("scaling by an element of a different ring")
        return self._like({e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def _top_degree(self) -> int:
        """The total degree above which a product drops terms."""
        raise TypeError("%s classes have no product" % type(self).__name__)

    def cross(self, other):
        """External product on the product space (factors concatenated)."""
        if type(other) is not type(self):
            raise TypeError(
                "cannot cross a %s with a %s" % (type(self).__name__, type(other).__name__)
            )
        if self.ring != other.ring:
            raise RingMismatchError("classes over different coefficient rings")
        triples = [(e1 + e2, c1, c2) for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()]
        return self._like(sum_products(self.ring, triples), self.space.times(other.space))

    # -- rendering -------------------------------------------------------

    def _sorted_terms(self):
        """Terms by degree, then exponents in decreasing lexicographic order:
        the tuples in reverse order, then a stable sort by degree, both in C."""
        expos = sorted(sorted(self.terms, reverse=True), key=sum)
        return [(e, self.terms[e]) for e in expos]

    def _rendered_terms(self):
        """(tuple, coefficient text) in ``_sorted_terms`` order, each element
        rendered once (by identity: a diagonal class shares its elements)."""
        texts = {}
        for e, c in self._sorted_terms():
            yield e, texts.get(id(c)) or texts.setdefault(id(c), c.render())

    # Subclasses name the literal's key {_JSON_KEY: [{"zeta": .., "coeff": ..}]}
    # and, for parse errors, the literal (_LITERAL) and one tuple (_NOUN).

    def to_json_obj(self) -> dict:
        return {
            self._JSON_KEY: [
                {"zeta": list(e), "coeff": c.render()} for e, c in self._sorted_terms()
            ]
        }

    @classmethod
    def from_json_obj(cls, space: Space, ring: CoeffRing, obj):
        key = cls._JSON_KEY
        if not isinstance(obj, dict) or key not in obj or not isinstance(obj[key], list):
            raise ParseError('%s literal must be an object {"%s": [...]}' % (cls._LITERAL, key))
        # the emitted form {"space": .., key: [..]} reads back, on its own space only
        for extra in [k for k in obj if k not in (key, "space")][:1]:
            raise ParseError("unexpected key %s in a %s literal" % (json.dumps(extra), cls._LITERAL))
        if obj.get("space", space.render()) != space.render():
            raise ParseError("%s literal on %s given for %s" % (cls._LITERAL, json.dumps(obj["space"]), space))
        terms: dict = {}
        for item in obj[key]:
            if not isinstance(item, dict) or "zeta" not in item or "coeff" not in item:
                raise ParseError('each %s must be {"zeta": [...], "coeff": "..."}' % key[:-1])
            for extra in [k for k in item if k not in ("zeta", "coeff")][:1]:
                raise ParseError("unexpected key %s in a %s" % (json.dumps(extra), key[:-1]))
            expo = parse_exponents(space, item["zeta"], cls._NOUN)
            coeff = item["coeff"]
            if isinstance(coeff, bool) or not isinstance(coeff, (str, int)):
                raise ParseError("coefficient %s is not a string or an integer" % json.dumps(coeff))
            c = ring.parse(str(coeff))
            prev = terms.get(expo)
            terms[expo] = c if prev is None else prev + c
        return cls(space, ring, terms)


class CohClass(SparseClass):
    """A cohomology class on a space, in canonical sparse form."""

    __slots__ = ()
    _JSON_KEY = "terms"
    _LITERAL = "class"
    _NOUN = "exponent list"

    def __init__(self, space: Space, ring: CoeffRing, terms: dict):
        # a term outside the box is dropped by the quotient relation z^(n+1) = 0
        super().__init__(space, ring, self._split_box(space, ring, terms)[0])

    @staticmethod
    def one(space: Space, ring: CoeffRing) -> "CohClass":
        return CohClass(space, ring, {(0,) * space.nfactors: ring.one()})

    @staticmethod
    def zeta(space: Space, ring: CoeffRing, t: int) -> "CohClass":
        if not 0 <= _index(t) < space.nfactors:
            raise ValueError("no factor with index %d" % t)
        expo = tuple(1 if i == t else 0 for i in range(space.nfactors))
        return CohClass.monomial(space, ring, expo)

    # cup product or scaling, bound here too so that it is told apart from series products
    __mul__ = __rmul__ = SparseClass.__mul__

    def _top_degree(self) -> int:
        return self.space.total_dim

    def __pow__(self, n: int) -> "CohClass":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = CohClass.one(self.space, self.ring)
        for _ in range(n):
            out = out * self
        return out

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self._rendered_terms():
            zetas = []
            for t, e in enumerate(expo):
                if e == 1:
                    zetas.append("z%d" % (t + 1))
                elif e > 1:
                    zetas.append("z%d^%d" % (t + 1, e))
            if not zetas:
                parts.append(coeff)
            elif coeff == "1":
                parts.append("*".join(zetas))
            elif coeff == "-1":
                parts.append("-" + "*".join(zetas))
            elif " " not in coeff:  # one monomial; a sum spaces its signs
                parts.append("*".join([coeff] + zetas))
            else:
                parts.append("*".join(["(%s)" % coeff] + zetas))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return "CohClass(%s; %s)" % (self.space.render(), self.render())


class HomClass(SparseClass):
    """A homology class: values on the monomial basis, sparsely stored."""

    __slots__ = ()
    _JSON_KEY = "values"
    _LITERAL = "homology"
    _NOUN = "basis tuple"

    def __init__(self, space: Space, ring: CoeffRing, values: dict):
        inside, outside = self._split_box(space, ring, values)
        if outside:
            raise SpaceMismatchError("basis tuple %r does not fit %s" % (outside[0], space))
        super().__init__(space, ring, inside)

    @property
    def values(self) -> dict:
        """The values on the basis: a read-only alias of ``terms``."""
        return self.terms

    @classmethod
    def delta(cls, space: Space, ring: CoeffRing, expo: tuple[int, ...], coeff=None) -> "HomClass":
        """The functional dual to one basis monomial."""
        return cls.monomial(space, ring, expo, coeff)

    @staticmethod
    def point_class(ring: CoeffRing) -> "HomClass":
        return HomClass.delta(Space.point(), ring, ())

    value = SparseClass.coeff

    def render(self) -> str:
        if not self.terms:
            return "0"
        return "; ".join("z^(%s): %s" % (",".join(map(str, e)), text) for e, text in self._rendered_terms())

    def __repr__(self) -> str:
        return "HomClass(%s; %s)" % (self.space.render(), self.render())


# -- morphisms ------------------------------------------------------------


def _index(t) -> int:
    if type(t) is not int:  # a bool or a float is no factor index
        raise ValueError("factor index %r is not an int" % (t,))
    return t


def _indices(raw, what: str) -> tuple[int, ...]:
    if not isinstance(raw, (tuple, list)):
        raise ValueError("%s %r are not a tuple of factor indices" % (what, raw))
    return tuple(map(_index, raw))


class Morphism(Record):
    """Base class; concrete shapes define source, target and pullback."""

    source: Space
    target: Space

    def pullback(self, alpha: CohClass) -> CohClass:
        raise NotImplementedError

    def _check_target_class(self, alpha: CohClass):
        if alpha.space != self.target:
            raise SpaceMismatchError(
                "pullback along %s needs a class on %s, got one on %s"
                % (self.render(), self.target, alpha.space)
            )

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s: %s -> %s" % (self.render(), self.source, self.target)


class Projection(Morphism):
    """Forget all factors outside ``keep`` (an increasing index tuple)."""

    _fields = ("source", "keep", "target")

    def __init__(self, source: Space, keep: tuple[int, ...]):
        keep = _indices(keep, "kept factors")
        if any(not 0 <= t < source.nfactors for t in keep):
            raise SpaceMismatchError("kept factor index out of range")
        if list(keep) != sorted(set(keep)):
            raise ValueError("kept factors must be strictly increasing")
        self._set(source, keep, Space(tuple(source.factors[t] for t in keep)))

    @cached_property
    def dropped(self) -> tuple[int, ...]:
        return tuple(t for t in range(self.source.nfactors) if t not in self.keep)

    @cached_property
    def fibre(self) -> Space:
        """The product of the dropped factors."""
        return Space(tuple(self.source.factors[t] for t in self.dropped))

    def pullback(self, alpha: CohClass) -> CohClass:
        self._check_target_class(alpha)
        return place(alpha, self.keep, self.source)

    def render(self) -> str:
        return "proj(%s)" % ",".join(str(t) for t in self.keep)


class LinearEmbed(Morphism):
    """A linear subspace P^degree inside factor ``factor`` of the target."""

    _fields = ("target", "factor", "degree", "source")

    def __init__(self, target: Space, factor: int, degree: int):
        t, m = _index(factor), degree
        if not 0 <= t < target.nfactors:
            raise SpaceMismatchError("no factor with index %d" % t)
        if not 0 <= m <= target.factors[t]:
            raise SpaceMismatchError(
                "cannot embed P%d linearly in P%d" % (m, target.factors[t])
            )
        fs = list(target.factors)
        fs[t] = m
        self._set(target, factor, degree, Space(tuple(fs)))

    def pullback(self, alpha: CohClass) -> CohClass:
        self._check_target_class(alpha)
        # same exponent tuples; the source quotient kills what overflows
        return CohClass(self.source, alpha.ring, dict(alpha.terms))

    def render(self) -> str:
        return "embed(%d,%d)" % (self.factor, self.target.factors[self.factor])


class Diagonal(Morphism):
    """Duplicate factor ``factor`` into two adjacent slots."""

    _fields = ("source", "factor", "target")

    def __init__(self, source: Space, factor: int):
        t = _index(factor)
        if not 0 <= t < source.nfactors:
            raise SpaceMismatchError("no factor with index %d" % t)
        fs = source.factors
        self._set(source, factor, Space(fs[: t + 1] + (fs[t],) + fs[t + 1 :]))

    def pullback(self, alpha: CohClass) -> CohClass:
        self._check_target_class(alpha)
        t = self.factor
        terms: dict = {}
        for e, c in alpha.terms.items():
            expo = e[:t] + (e[t] + e[t + 1],) + e[t + 2 :]
            prev = terms.get(expo)
            terms[expo] = c if prev is None else prev + c
        return CohClass(self.source, alpha.ring, terms)

    def render(self) -> str:
        return "diag(%d)" % self.factor


class Permutation(Morphism):
    """Reorder factors: the image point has coordinates x[perm[i]]."""

    _fields = ("source", "perm", "target")

    def __init__(self, source: Space, perm: tuple[int, ...]):
        perm = _indices(perm, "permuted factors")
        if sorted(perm) != list(range(source.nfactors)):
            raise ValueError("%r is not a permutation of the factors" % (perm,))
        self._set(source, perm, Space(tuple(source.factors[p] for p in perm)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return Permutation(self.target, tuple(inv))

    def pullback(self, alpha: CohClass) -> CohClass:
        self._check_target_class(alpha)
        return place(alpha, self.perm, self.source)

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def render(self) -> str:
        return "perm(%s)" % ",".join(str(p) for p in self.perm)


class Composite(Morphism):
    """parts[0] after parts[1] after ... after parts[-1]."""

    _fields = ("parts", "source", "target")

    def __init__(self, parts: tuple[Morphism, ...]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a composite needs at least one part")
        for f, g in zip(parts, parts[1:]):
            if f.source != g.target:
                raise SpaceMismatchError(
                    "cannot compose %s after %s: %s != %s" % (f.render(), g.render(), f.source, g.target)
                )
        self._set(parts, parts[-1].source, parts[0].target)

    def pullback(self, alpha: CohClass) -> CohClass:
        self._check_target_class(alpha)
        for part in self.parts:
            alpha = part.pullback(alpha)
        return alpha

    def render(self) -> str:
        return ";".join(p.render() for p in self.parts)


def identity(space: Space) -> Permutation:
    return Permutation(space, tuple(range(space.nfactors)))


def compose(*morphisms: Morphism) -> Morphism:
    """compose(f, g) = f after g; flattens nested composites."""
    parts: list[Morphism] = []
    for m in morphisms:
        if isinstance(m, Composite):
            parts.extend(m.parts)
        else:
            parts.append(m)
    if len(parts) == 1:
        return parts[0]
    return Composite(tuple(parts))


def _framed(front: Space, f: Morphism, back: Space) -> Morphism:
    """id_front x f x id_back, with the factors of front and back around f's."""
    k, b = front.nfactors, back.nfactors
    if k == 0 and b == 0:
        return f
    if isinstance(f, Composite):
        return Composite(tuple(_framed(front, p, back) for p in f.parts))
    if isinstance(f, LinearEmbed):
        return LinearEmbed(front.times(f.target).times(back), f.factor + k, f.degree)
    source = front.times(f.source).times(back)
    if isinstance(f, Diagonal):
        return Diagonal(source, f.factor + k)
    n = f.source.nfactors
    head, tail = tuple(range(k)), tuple(range(k + n, k + n + b))
    if isinstance(f, Projection):
        return Projection(source, head + tuple(t + k for t in f.keep) + tail)
    if isinstance(f, Permutation):
        return Permutation(source, head + tuple(p + k for p in f.perm) + tail)
    raise TypeError("unknown morphism shape %r" % type(f).__name__)


def prefix_product(T: Space, f: Morphism) -> Morphism:
    """id_T x f, with the factors of T in front."""
    return _framed(T, f, Space.point())


def suffix_product(f: Morphism, T: Space) -> Morphism:
    """f x id_T, with the factors of T at the back."""
    return _framed(Space.point(), f, T)


def product_morphism(f: Morphism, g: Morphism) -> Morphism:
    """f x g as (f x id) after (id x g)."""
    return compose(suffix_product(f, g.target), prefix_product(f.source, g))


def transposition(space: Space) -> Permutation:
    """Swap the two halves of space x space."""
    k = space.nfactors
    double = space.times(space)
    return Permutation(double, tuple(list(range(k, 2 * k)) + list(range(k))))


def full_diagonal(space: Space) -> Morphism:
    """The diagonal X -> X x X as a composite of generator shapes."""
    k = space.nfactors
    if k == 0:
        return identity(space)
    parts: list[Morphism] = []
    current = space
    for t in range(k):
        d = Diagonal(current, 2 * t)
        parts.append(d)
        current = d.target
    # current = (n1, n1, n2, n2, ...); shuffle the duplicated slots into
    # the (first copy, second copy) block order of X x X.
    sigma = tuple(
        [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    )
    rho = Permutation(current, sigma)
    parts.append(rho)
    return Composite(tuple(reversed(parts)))


# -- Chern and cross classes ----------------------------------------------


def euler(space: Space, degrees: tuple[int, ...], law) -> CohClass:
    """Euler class of O(d1, .., dk): F applied to the factor classes
    [d_t](z_t), or exp(sum d_t log z_t), no table read, for a law given by
    its logarithm.  Exact only when total dimension + 1 <= truncation."""
    if len(degrees) != space.nfactors:
        raise SpaceMismatchError("need one twist degree per factor")
    for d in degrees:
        if type(d) is not int:  # a bool or a float is no twist degree
            raise ValueError("twist degree %r is not an int" % (d,))
    if space.total_dim + 1 > law.truncation:
        raise TruncationUnsoundError(
            "Euler class on %s (dimension %d) needs truncation >= %d, law has %d"
            % (space, space.total_dim, space.total_dim + 1, law.truncation)
        )
    out = CohClass.zero(space, law.ring)
    twists = [(d, CohClass.zeta(space, law.ring, t)) for t, d in enumerate(degrees) if d]
    if law.from_log:
        for d, zt in twists:
            out = out + law.log().eval_nilpotent(zt) * d
        return law.exp().eval_nilpotent(out)
    for d, zt in twists:
        out = law.eval(out, law.m_series(d).eval_nilpotent(zt))
    return out


def cross_coh(alpha: CohClass, beta: CohClass) -> CohClass:
    """External product on the product space (factors concatenated)."""
    return alpha.cross(beta)
