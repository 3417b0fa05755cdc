import argparse
import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orient_duality.algebra import CoeffRing, RingElem, RingKind
from orient_duality import cli
from orient_duality.cli import MAX_UNIVERSAL_TRUNCATION, _emit, _parse_class_json, main, parse_morphism
from orient_duality.errors import ParseError
from orient_duality.fgl import FGL, Series, law_for
from orient_duality.gysin import diagonal_kernel_class
from orient_duality.homodual import HomClass
from orient_duality.spaces import CohClass, Projection, Space
from orient_duality.verify import sample_class, sample_hom

KERNEL_P2_ADDITIVE = {
    "space": "P2xP2",
    "terms": [
        {"zeta": [2, 0], "coeff": "1"},
        {"zeta": [1, 1], "coeff": "1"},
        {"zeta": [0, 2], "coeff": "1"},
    ],
}


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- worked examples ----------------------------------------------------------


def test_kernel_additive_p2_json(capsys):
    code, out, _ = _run(capsys, "kernel", "--theory", "additive", "--space", "P2", "--format", "json")
    assert code == 0
    assert json.loads(out) == KERNEL_P2_ADDITIVE


def test_kernel_json_roundtrips(capsys):
    code, out, _ = _run(capsys, "kernel", "--theory", "universal", "--space", "P1xP1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    ring = CoeffRing.universal(5)
    c = CohClass.from_json_obj(Space.parse(obj["space"]), ring, obj)
    assert c.to_json_obj()["terms"] == obj["terms"]


def test_euler_multiplicative_square(capsys):
    code, out, _ = _run(
        capsys, "euler", "--theory", "multiplicative", "--space", "P1xP1", "--degrees", "1,1"
    )
    assert code == 0
    assert out.strip() == "z1 + z2 - beta*z1*z2"


def test_text_and_json_carry_same_data(capsys):
    args = ("euler", "--theory", "multiplicative", "--space", "P2", "--degrees", "2")
    _, text_out, _ = _run(capsys, *args)
    code, json_out, _ = _run(capsys, *args, "--format", "json")
    assert code == 0
    obj = json.loads(json_out)
    ring = CoeffRing.multiplicative(3)
    c = CohClass.from_json_obj(Space.parse(obj["space"]), ring, obj)
    assert c.render() == text_out.strip() == "2*z1 - beta*z1^2"


def test_verify_square_passes(capsys):
    code, out, _ = _run(
        capsys, "verify", "--theory", "multiplicative", "--space", "P1xP1", "--truncation", "6"
    )
    assert code == 0
    assert "16/16 checks passed" in out


def test_verify_json_deterministic(capsys):
    args = (
        "verify", "--theory", "additive,universal", "--space", "P1,P1xP1",
        "--truncation", "5", "--seed", "3", "--samples", "2", "--format", "json",
    )
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)
    assert len(reports) == 16 * 2 * 2
    assert {r["status"] for r in reports} == {"pass"}


def test_verify_check_subset(capsys):
    code, out, _ = _run(
        capsys, "verify", "--theory", "additive", "--space", "P1",
        "--truncation", "4", "--checks", "V9-diagonal-counit,V10-poincare-roundtrip",
    )
    assert code == 0
    assert "2/2 checks passed" in out


def test_ring_describe_and_parse(capsys):
    code, out, _ = _run(capsys, "ring", "--theory", "universal", "--truncation", "3")
    assert code == 0
    assert out == "theory: universal\ntruncation: 3\nsymbols: b1 (degree -1), b2 (degree -2)\n"
    code, out, _ = _run(capsys, "ring", "--theory", "multiplicative", "--parse", "beta + 1 - beta")
    assert code == 0
    assert out.splitlines()[-1] == "parsed: 1"


def test_fundamental_multiplicative_p2(capsys):
    code, out, _ = _run(capsys, "fundamental", "--theory", "multiplicative", "--space", "P2")
    assert code == 0
    assert out.strip() == "z^(0): beta^2; z^(1): beta; z^(2): 1"


def test_dualize_both_directions(capsys):
    one = json.dumps({"terms": [{"zeta": [0], "coeff": "1"}]})
    code, out, _ = _run(
        capsys, "dualize", "--theory", "additive", "--space", "P2",
        "--direction", "to-hom", "--class", one,
    )
    assert code == 0
    assert out.strip() == "z^(2): 1"
    top = json.dumps({"values": [{"zeta": [2], "coeff": "1"}]})
    code, out, _ = _run(
        capsys, "dualize", "--theory", "additive", "--space", "P2",
        "--direction", "to-coh", "--class", top,
    )
    assert code == 0
    assert out.strip() == "1"


def test_pushforward_projection(capsys):
    cls = json.dumps({"terms": [{"zeta": [1, 0], "coeff": "2"}, {"zeta": [0, 1], "coeff": "1"}]})
    code, out, _ = _run(
        capsys, "pushforward", "--theory", "additive", "--space", "P1xP1",
        "--morphism", "proj(0)", "--class", cls,
    )
    assert code == 0
    assert out.strip() == "1"


def test_pushforward_composite_chain(capsys):
    # rightmost token applies first: project P2xP1 -> P1, then embed P1 -> P2
    cls = json.dumps({"terms": [{"zeta": [1, 0], "coeff": "1"}]})
    code, out, _ = _run(
        capsys, "pushforward", "--theory", "multiplicative", "--space", "P2xP1",
        "--morphism", "embed(0,2);proj(1)", "--class", cls,
    )
    assert code == 0
    assert out.strip() == "beta*z1"


ONE_P1xP1 = '{"terms": [{"zeta": [0, 0], "coeff": "1"}]}'
TOP_P1xP1 = '{"values": [{"zeta": [1, 1], "coeff": "1"}]}'


@pytest.mark.parametrize(
    "argv",
    [
        ("euler", "--theory", "multiplicative", "--space", "P1xP1", "--degrees", "1,1"),
        ("pushforward", "--theory", "universal", "--space", "P1xP1", "--morphism", "diag(0);proj(1)",
         "--class", ONE_P1xP1),
        ("kernel", "--theory", "universal", "--space", "P1xP1"),
        ("fundamental", "--theory", "multiplicative", "--space", "P1xP1"),
        ("dualize", "--theory", "multiplicative", "--space", "P1xP1", "--direction", "to-hom",
         "--class", ONE_P1xP1),
        ("dualize", "--theory", "multiplicative", "--space", "P1xP1", "--direction", "to-coh",
         "--class", TOP_P1xP1),
    ],
    ids=["euler", "pushforward", "kernel", "fundamental", "to-hom", "to-coh"],
)
def test_json_query_builds_no_text_form(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("text form built for a JSON query")

    monkeypatch.setattr(CohClass, "render", refuse)
    monkeypatch.setattr(HomClass, "render", refuse)
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["space"]


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "euler.json"
    code, out, _ = _run(
        capsys, "euler", "--theory", "additive", "--space", "P1", "--degrees", "3",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text())["terms"] == [{"zeta": [1], "coeff": "3"}]


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "fundamental.json"
    code, out, err = _run(
        capsys, "fundamental", "--theory", "additive", "--space", "P1", "--out", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "no-such-dir" in err
    code, _, err = _run(
        capsys, "verify", "--theory", "additive", "--space", "P1", "--out", str(path),
    )
    assert code == 2 and err.startswith("error: ")


# -- option values that begin with '-' -----------------------------------------


def test_euler_negative_degrees_as_separate_value(capsys):
    code, out, err = _run(
        capsys, "euler", "--theory", "multiplicative", "--space", "P1xP1", "--degrees", "-1,2",
    )
    assert code == 0, err
    _, joined, _ = _run(
        capsys, "euler", "--theory", "multiplicative", "--space", "P1xP1", "--degrees=-1,2",
    )
    assert out == joined


def test_ring_parse_negative_element_as_separate_value(capsys):
    code, out, err = _run(capsys, "ring", "--theory", "universal", "--truncation", "4", "--parse", "-b1")
    assert code == 0, err
    assert out.splitlines()[-1] == "parsed: -b1"


def test_option_names_are_not_taken_as_values(capsys):
    # a known option after a valued option stays an option
    with pytest.raises(SystemExit) as exc:
        main(["ring", "--theory", "universal", "--parse", "--format", "json"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# -- class literals -----------------------------------------------------------


@pytest.mark.parametrize("zeta", ["[true]", "[false]", "[7]", "[3]", "[-1]", "[1.0]", '"1"', "1"])
@pytest.mark.parametrize("direction,key", [("to-hom", "terms"), ("to-coh", "values")])
def test_exit_2_on_bad_class_exponent(capsys, zeta, direction, key):
    literal = '{"%s": [{"zeta": %s, "coeff": "1"}]}' % (key, zeta)
    code, out, err = _run(
        capsys, "dualize", "--theory", "additive", "--space", "P2",
        "--direction", direction, "--class", literal,
    )
    assert code == 2
    assert out == ""
    noun = {"terms": "exponent list", "values": "basis tuple"}[key]
    assert err == "error: %s %s does not fit P2\n" % (noun, json.dumps(json.loads(zeta)))


@pytest.mark.parametrize("coeff,quoted", [("true", "true"), ("null", "null"), ("1e400", "Infinity"), ("2.0", "2.0")])
@pytest.mark.parametrize("direction,key", [("to-hom", "terms"), ("to-coh", "values")])
def test_exit_2_on_coefficient_neither_string_nor_int(capsys, coeff, quoted, direction, key):
    # str() of these would hand the ring parser tokens no one wrote
    literal = '{"%s": [{"zeta": [1], "coeff": %s}]}' % (key, coeff)
    code, out, err = _run(
        capsys, "dualize", "--theory", "universal", "--space", "P2",
        "--direction", direction, "--class", literal,
    )
    assert code == 2
    assert out == ""
    assert err == "error: coefficient %s is not a string or an integer\n" % quoted


def test_json_integer_coefficient_reads_as_its_string(capsys):
    outs = []
    for coeff in ("-3", '"-3"'):
        literal = '{"terms": [{"zeta": [1], "coeff": %s}]}' % coeff
        code, out, _ = _run(
            capsys, "dualize", "--theory", "additive", "--space", "P2",
            "--direction", "to-hom", "--class", literal,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "theory,literal,token,pos",
    [
        ("universal", "1/0", "1/0", 0),
        ("universal", "0/0*b1", "0/0", 0),
        ("universal", "b1 + 3 / 00", "3/00", 5),
        ("multiplicative", "2 - 1/0*beta", "1/0", 4),
    ],
)
def test_exit_2_on_zero_denominator_in_ring(capsys, theory, literal, token, pos):
    code, out, err = _run(capsys, "ring", "--theory", theory, "--parse=" + literal)
    assert code == 2
    assert out == ""
    assert err == "error: zero denominator in %r (at position %d)\n" % (token, pos)


@pytest.mark.parametrize("direction,key", [("to-hom", "terms"), ("to-coh", "values")])
def test_exit_2_on_zero_denominator_in_class(capsys, direction, key):
    literal = '{"%s": [{"zeta": [1], "coeff": "b1 - 1/0"}]}' % key
    code, out, err = _run(
        capsys, "dualize", "--theory", "universal", "--space", "P2",
        "--direction", direction, "--class", literal,
    )
    assert code == 2
    assert out == ""
    assert err == "error: zero denominator in '1/0' (at position 5)\n"


@pytest.mark.parametrize(
    "literal,key",
    [
        ('{"terms": [{"zeta": [1], "coeff": "1", "extra": 2}]}', '"extra" in a term'),
        ('{"terms": [], "values": [{"zeta": [1], "coeff": "1"}]}', '"values" in a class literal'),
        ('{"space": "P2", "terms": [{"zeta": [1], "coeff": "1"}]}', 'class literal on "P2" given for P1'),
    ],
)
def test_exit_2_on_unexpected_class_key(capsys, literal, key):
    code, out, err = _run(
        capsys, "dualize", "--theory", "additive", "--space", "P1",
        "--direction", "to-hom", "--class", literal,
    )
    assert code == 2
    assert out == ""
    assert key in err


def test_emitted_class_reads_back_as_a_literal(capsys):
    code, out, _ = _run(capsys, "kernel", "--theory", "multiplicative", "--space", "P1", "--format", "json")
    assert code == 0
    code, back, _ = _run(
        capsys, "dualize", "--theory", "multiplicative", "--space", "P1xP1",
        "--direction", "to-hom", "--class", out,
    )
    assert code == 0 and back.startswith("z^(0,0): ")


# -- the JSON emitter -----------------------------------------------------------


@pytest.mark.parametrize("kind", RingKind, ids=lambda k: k.value)
@pytest.mark.parametrize("space", ["pt", "P0", "P2xP0", "P1xP2", "P2xP1xP1"])
def test_emitted_json_equals_json_dumps(capsys, kind, space):
    space, law = Space.parse(space), law_for(kind, 6)
    ring = law.ring
    rng = random.Random("emit|%s|%s" % (kind.value, space))
    classes = [sample(space, ring, rng) for sample in (sample_class, sample_hom) for _ in range(3)]
    classes += [CohClass.zero(space, ring), HomClass.zero(space, ring), HomClass.point_class(ring)]
    classes.append(diagonal_kernel_class(space, law))  # many terms share one element
    for x in classes:
        _emit(argparse.Namespace(format="json", out=None), x)
        want = json.dumps({"space": x.space.render(), **x.to_json_obj()}, indent=2)
        assert capsys.readouterr().out == want + "\n"


def test_cli_calls_share_no_render_memo(monkeypatch, capsys):
    built, real = [], cli.law_for

    def recording_law_for(kind, truncation):
        law = real(kind, truncation)
        built.append((law.ring._render_memo, dict(law.ring._render_memo)))
        return law

    monkeypatch.setattr(cli, "law_for", recording_law_for)
    for _ in range(2):
        assert main(["kernel", "--theory", "universal", "--space", "P2xP1"]) == 0
    (first, at_first), (second, at_second) = built
    assert first is not second
    assert at_first == at_second == {}
    assert first and first == second  # the same entries, rendered twice
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_distinct_coefficient_renders_once(monkeypatch, capsys, fmt):
    """The diagonal class of P4xP4 has 225 terms over 25 shared elements
    (one per tuple of exponent sums); either form renders each once."""
    calls, real = [], RingElem.render

    def counting(self):
        calls.append(id(self))
        return real(self)

    monkeypatch.setattr(RingElem, "render", counting)
    code, out, _ = _run(capsys, "kernel", "--theory", "universal", "--space", "P4xP4", "--format", fmt)
    assert code == 0
    monkeypatch.setattr(RingElem, "render", real)
    K = diagonal_kernel_class(Space.parse("P4xP4"), law_for(RingKind.UNIVERSAL, 9))
    distinct = {id(c) for c in K.terms.values()}
    assert len(K.terms) == 225 and len(calls) == len(set(calls)) == len(distinct) == 25
    want = K.render() if fmt == "text" else json.dumps({"space": str(K.space), **K.to_json_obj()}, indent=2)
    assert out == want + "\n"


# -- morphism grammar ---------------------------------------------------------


def test_parse_morphism_chain_spaces():
    f = parse_morphism("embed(0,2);proj(1)", Space((2, 1)))
    assert f.source == Space((2, 1))
    assert f.target == Space((2,))


def test_parse_morphism_all_tokens():
    f = parse_morphism("perm(1,0);diag(0);embed(0,2);proj(0)", Space((1, 1)))
    assert f.source == Space((1, 1))
    # proj -> P1, embed -> P2, diag -> P2xP2, perm swaps
    assert f.target == Space((2, 2))


def test_parse_morphism_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_morphism("proj(0);splat(1)", Space((1,)))
    assert "position 8" in str(exc.value)
    with pytest.raises(ParseError):
        parse_morphism("", Space((1,)))
    with pytest.raises(ParseError):
        parse_morphism("embed(0)", Space((1,)))  # wrong arity
    with pytest.raises(ParseError):
        parse_morphism("perm(0,0)", Space((1, 1)))  # not a permutation


def test_embed_token_requires_growth():
    with pytest.raises(ParseError):
        parse_morphism("embed(0,1)", Space((2,)))


# -- parser fuzzing -------------------------------------------------------------

FUZZ_SPACES = tuple(Space.parse(s) for s in ("pt", "P0", "P1", "P2", "P1xP1", "P2xP1"))
FUZZ_RINGS = tuple(CoeffRing(kind, 4) for kind in RingKind)

# Text from the morphism grammar's tokens: ';'-joined chunks that are whole
# calls or token soup, so that well-formed chains and malformed ones mix.
_CALL = st.tuples(
    st.sampled_from(["proj", "embed", "diag", "perm"]),
    st.lists(
        st.one_of(st.integers(0, 2).map(str), st.integers(-1, 4).map(str), st.just("")), max_size=3
    ).map(",".join),
).map(lambda t: "%s(%s)" % t)
_SOUP = st.lists(
    st.sampled_from(list("(),;- 0123456789") + ["proj", "embed", "diag", "perm"]), max_size=8
).map("".join)
_MORPHISM_TEXT = st.lists(st.one_of(_CALL, _CALL, _CALL, _SOUP), min_size=1, max_size=3).map(";".join)


@given(space=st.sampled_from(FUZZ_SPACES), text=_MORPHISM_TEXT)
@settings(max_examples=500, deadline=None)
def test_parse_morphism_fuzz_rejects_or_roundtrips(space, text):
    try:
        f = parse_morphism(text, space)
    except ParseError:
        return
    for chunk in text.split(";"):  # every chunk parsed, so each has "(...)"
        args = chunk[chunk.index("(") + 1 : chunk.rindex(")")]
        assert not args.strip() or all(a.strip() for a in args.split(",")), chunk
    assert f.source == space
    assert parse_morphism(f.render(), space) == f


# JSON values built from lists, objects, true, null, numbers and strings
# under the literal's keys, with well-formed terms mixed in.
_JSON_KEYS = st.sampled_from(["terms", "values", "zeta", "coeff"])
_JSON_LEAF = st.one_of(
    st.none(),
    st.just(True),
    st.integers(-2, 3),
    st.sampled_from([1.5, 2.0, -0.0]),
    st.sampled_from(["1", "-2", "1/2", "0/1", "beta", "b1", "b2 - 3*b1^2", "q7", "", "[1]"]),
)


@functools.lru_cache(maxsize=None)
def _class_json(space: Space, key: str):
    # exponent lists of the space's length, one past the top included, and
    # ring literals that parse in every ring, each drawn more often than junk
    fitting = st.tuples(*(st.integers(0, n + 1) for n in space.factors)).map(list)
    good = st.sampled_from(["1", "-2", "2 - 1", "3/3"])
    term = st.fixed_dictionaries({
        "zeta": st.one_of(fitting, fitting, fitting, st.lists(_JSON_LEAF, max_size=3)),
        "coeff": st.one_of(good, good, good, _JSON_LEAF),
    })
    value = st.recursive(
        st.one_of(_JSON_LEAF, term),
        lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(_JSON_KEYS, kids, max_size=3)),
        max_leaves=8,
    )
    literal = st.fixed_dictionaries({key: st.lists(term, max_size=3)})
    mixed = st.dictionaries(_JSON_KEYS, st.lists(st.one_of(term, value), max_size=4), min_size=1)
    return st.one_of(value, mixed, literal, literal).map(json.dumps)


_CLASS_CASES = st.tuples(
    st.sampled_from(FUZZ_SPACES), st.sampled_from(FUZZ_RINGS), st.sampled_from([CohClass, HomClass])
).flatmap(lambda c: st.tuples(*map(st.just, c), _class_json(c[0], c[2]._JSON_KEY)))


@given(case=_CLASS_CASES)
@settings(max_examples=500, deadline=None)
def test_class_json_fuzz_rejects_or_roundtrips(case):
    space, ring, cls, text = case
    try:
        x = cls.from_json_obj(space, ring, _parse_class_json(text))
    except ParseError:
        return
    assert cls.from_json_obj(space, ring, x.to_json_obj()) == x


# -- exit codes ---------------------------------------------------------------


def test_exit_2_on_bad_space(capsys):
    code, _, err = _run(capsys, "kernel", "--theory", "additive", "--space", "Q2")
    assert code == 2
    assert "error" in err.lower()


def test_exit_2_on_bad_morphism(capsys):
    code, _, err = _run(
        capsys, "pushforward", "--theory", "additive", "--space", "P1",
        "--morphism", "smash(0)", "--class", '{"terms":[]}',
    )
    assert code == 2
    assert "smash" in err


@pytest.mark.parametrize(
    "space, morphism",
    [
        ("P1xP1xP1", "proj(0,,1)"),
        ("P1xP1", "perm(1,0,)"),
        ("P1xP1", "embed(0,,3)"),
        ("P1xP1", "diag(0,)"),
        ("P1xP1", "proj(,)"),
    ],
)
def test_exit_2_on_empty_morphism_argument(capsys, space, morphism):
    code, out, err = _run(
        capsys, "pushforward", "--theory", "additive", "--space", space,
        "--morphism", morphism, "--class", '{"terms":[]}',
    )
    assert code == 2 and not out
    assert "empty argument in %r" % morphism in err


def test_empty_projection_maps_to_the_point():
    for text in ("proj()", "proj( )"):
        assert parse_morphism(text, Space((1, 2))) == Projection(Space((1, 2)), ())


def test_exit_2_on_bad_class_json(capsys):
    code, _, err = _run(
        capsys, "dualize", "--theory", "additive", "--space", "P1",
        "--direction", "to-hom", "--class", "{not json",
    )
    assert code == 2


def test_exit_2_on_factor_out_of_range(capsys):
    code, _, err = _run(
        capsys, "pushforward", "--theory", "additive", "--space", "P1xP1",
        "--morphism", "diag(2)", "--class", '{"terms":[]}',
    )
    assert code == 2


def test_exit_2_on_unknown_check(capsys):
    code, _, err = _run(
        capsys, "verify", "--theory", "additive", "--space", "P1",
        "--truncation", "4", "--checks", "V99-bogus",
    )
    assert code == 2


@pytest.mark.parametrize("checks", ["", " , "])
def test_exit_2_on_empty_check_ids(capsys, checks):
    # an empty --checks names the empty id; it does not mean "all checks"
    code, out, err = _run(
        capsys, "verify", "--theory", "additive", "--space", "P1", "--checks", checks
    )
    assert code == 2
    assert "unknown check ids: ['']" in err and not out


def test_exit_2_on_bad_samples(capsys):
    code, _, err = _run(
        capsys, "verify", "--theory", "additive", "--space", "P1",
        "--truncation", "4", "--samples", "0",
    )
    assert code == 2


# "\u0662" and "\u0663" are the Arabic-Indic digits two and three, which
# int() and the regex class \d accept; "1_0" is int()'s digit grouping
@pytest.mark.parametrize(
    "argv, token",
    [
        (("euler", "--theory", "additive", "--space", "P1", "--degrees=1_0"), "1_0"),
        (("kernel", "--theory", "additive", "--space", "P\u0662"), "P\u0662"),
        (("ring", "--theory", "universal", "--truncation", "4", "--parse", "\u0663*b1"), "\u0663"),
        (("ring", "--theory", "universal", "--truncation", "4", "--parse", "b1^\u0662"), "\u0662"),
        (("ring", "--theory", "universal", "--truncation", "1_0"), "1_0"),
        (("verify", "--theory", "additive", "--space", "P1", "--samples", "\u0663"), "\u0663"),
    ],
    ids=["degrees-grouped", "space-digit", "ring-coeff-digit", "ring-exponent-digit",
         "truncation-grouped", "samples-digit"],
)
def test_exit_2_on_integer_not_in_ascii_digits(capsys, argv, token):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects an option's type
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert repr(token) in out.err


def test_exit_3_on_unsound_truncation(capsys):
    code, _, err = _run(
        capsys, "verify", "--theory", "additive", "--space", "P2", "--truncation", "2"
    )
    assert code == 3
    code, _, err = _run(
        capsys, "euler", "--theory", "additive", "--space", "P9", "--degrees", "1",
        "--truncation", "4",
    )
    assert code == 3
    assert "truncation" in err


@pytest.mark.parametrize(
    "argv, requested",
    [
        (["pushforward", "--space", "P1", "--morphism", "embed(0,99999)", "--class", '{"terms":[]}'], 100000),
        (["kernel", "--space", "P1", "--truncation", "21"], 21),
        (["verify", "--space", "P1", "--truncation", "21"], 21),
    ],
    ids=["pushforward-embed", "kernel", "verify"],
)
def test_exit_3_on_runaway_universal_truncation(capsys, argv, requested):
    # refused before any law is built, so even a huge target space returns at once
    code, out, err = _run(capsys, *argv[:1], "--theory", "universal", *argv[1:])
    assert code == 3 and not out
    assert err == "error: universal truncation %d is above the limit of %d\n" % (
        requested, MAX_UNIVERSAL_TRUNCATION
    )


def test_universal_truncation_limit_is_inclusive(capsys):
    code, out, _ = _run(
        capsys, "kernel", "--theory", "universal", "--space", "P0",
        "--truncation", str(MAX_UNIVERSAL_TRUNCATION),
    )
    assert code == 0 and out == "1\n"


def test_ring_shares_the_universal_truncation_limit(capsys):
    # parsing is quadratic in the truncation, so ``ring`` is refused too
    code, out, err = _run(
        capsys, "ring", "--theory", "universal", "--truncation", "21", "--parse", "b1"
    )
    assert code == 3 and not out
    assert err == "error: universal truncation 21 is above the limit of %d\n" % MAX_UNIVERSAL_TRUNCATION
    code, out, _ = _run(
        capsys, "ring", "--theory", "universal", "--truncation", str(MAX_UNIVERSAL_TRUNCATION),
        "--parse", "b1",
    )
    assert code == 0 and out.endswith("parsed: b1\n")


# A universal law is given by its logarithm: the point classes fix the
# kernels, fundamental classes, both duality maps and pushforwards, so
# these queries never expand the table F = exp(log x + log y) or revert
# the logarithm.
LOG_ONLY_QUERIES = {
    "kernel": ["kernel", "--space", "P2xP2"],
    "fundamental": ["fundamental", "--space", "P2xP3"],
    "dualize-to-hom": [
        "dualize", "--space", "P2xP2", "--direction", "to-hom",
        "--class", '{"terms": [{"zeta": [1, 0], "coeff": "1/2*b1"}, {"zeta": [0, 0], "coeff": "3"}]}',
    ],
    "dualize-to-coh": [
        "dualize", "--space", "P2xP1", "--direction", "to-coh",
        "--class", '{"values": [{"zeta": [2, 1], "coeff": "7"}, {"zeta": [1, 0], "coeff": "b1"}]}',
    ],
    "pushforward": [
        "pushforward", "--space", "P2xP1", "--morphism", "proj(0,2);perm(1,0,2);diag(0)",
        "--class", '{"terms": [{"zeta": [1, 0], "coeff": "1"}, {"zeta": [2, 1], "coeff": "2"}]}',
    ],
}


@pytest.mark.parametrize("argv", LOG_ONLY_QUERIES.values(), ids=LOG_ONLY_QUERIES.keys())
def test_universal_log_only_queries_build_no_table(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a table or a reversion was built")

    monkeypatch.setattr(FGL, "_table_from_log", refuse)
    monkeypatch.setattr(Series, "reversion", refuse)
    code, out, err = _run(capsys, argv[0], "--theory", "universal", *argv[1:])
    assert code == 0 and out and not err


@pytest.mark.parametrize("degrees", ["1,-1", "7,-5"])
def test_universal_euler_builds_no_table(capsys, monkeypatch, degrees):
    # c1(O(d1, d2)) = exp(d1 log z1 + d2 log z2): the logarithm is reverted
    # once for exp, but F is never expanded
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(FGL, "_table_from_log", refuse)
    code, out, err = _run(capsys, "euler", "--theory", "universal", "--space", "P2xP1", "--degrees", degrees)
    assert code == 0 and out and not err


def test_large_multiplicative_degree_takes_log_many_links(capsys, monkeypatch):
    import math
    import time

    import orient_duality.cli as cli_mod

    laws = []
    real = cli_mod.law_for

    def recording(kind, truncation):
        laws.append(real(kind, truncation))
        return laws[-1]

    monkeypatch.setattr(cli_mod, "law_for", recording)
    m = 100000
    start = time.perf_counter()
    code, out, _ = _run(capsys, "euler", "--theory", "multiplicative", "--space", "P1", "--degrees=%d" % m)
    assert time.perf_counter() - start < 0.1
    # [m](z) = m*z - C(m, 2)*beta*z^2 on P1, where z^2 = 0
    assert code == 0 and out.strip() == "%d*z1" % m
    links = {arg for kind, arg in laws[0]._memo if kind == "m_series"}
    assert m in links and len(links) <= 2 * math.ceil(math.log2(m)) + 2


@pytest.mark.parametrize("argv", [["verify", "--space", "P1"]], ids=["verify"])
def test_universal_queries_that_evaluate_f_build_the_table(capsys, monkeypatch, argv):
    built = []
    real = FGL._table_from_log

    def counted(law):
        built.append(law)
        return real(law)

    monkeypatch.setattr(FGL, "_table_from_log", counted)
    code, _, _ = _run(capsys, argv[0], "--theory", "universal", *argv[1:])
    assert code == 0 and built


def test_exit_1_on_failing_check(capsys, monkeypatch):
    import orient_duality.cli as cli_mod
    from orient_duality.verify import CheckReport

    def fake_run_suite(cfg, laws=None, checks=None):
        return [CheckReport("V1-fgl-axioms", "additive", "P1", {"identity": "x"})]

    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    code, out, _ = _run(
        capsys, "verify", "--theory", "additive", "--space", "P1", "--truncation", "4"
    )
    assert code == 1
    assert "0/1 checks passed" in out

