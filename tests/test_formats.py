"""Element grammars, JSON/DOT export, and round-trip guarantees."""

import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divtop.errors import (
    DivtopError,
    ElementSyntaxError,
    ParameterError,
    SizeGuard,
    brief,
)
from divtop.formats import (
    fragment_from_json,
    fragment_to_dot,
    fragment_to_json,
    report_to_json,
    ring_from_descriptor,
)
from divtop import checks as C
from divtop import cli
from divtop.rings import RING_TAGS, RINGS, Gauss, Poly, PPow, Ring, Root5, make_ring
from divtop.topology import build_fragment

from oracles import transitive_reduction_oracle
from strategies import RING_SEEDS

Z = make_ring("z")
G = make_ring("gauss")
F2 = make_ring("fp", 2)
F3 = make_ring("fp", 3)
F5 = make_ring("fp", 5)
S5 = make_ring("zs5")
V2 = make_ring("valp", 2)


# ---------------------------------------------------------------------------
# parsing


def test_parse_int():
    assert Z.parse("-12") == -12
    assert Z.parse("−12") == -12  # typographic minus tolerated
    assert Z.parse("0") == 0  # rejected later, at class construction
    with pytest.raises(ElementSyntaxError) as exc:
        Z.parse("12a")
    assert exc.value.position == 2


def test_parse_gauss():
    assert G.parse("3+2i") == Gauss(3, 2)
    assert G.parse("-1-1i") == Gauss(-1, -1)
    assert G.parse("3") == Gauss(3, 0)
    assert G.parse("2i") == Gauss(0, 2)
    assert G.parse("-i") == Gauss(0, -1)
    with pytest.raises(ElementSyntaxError):
        G.parse("3+2j")
    with pytest.raises(ElementSyntaxError):
        G.parse("1+2i+3i")


def test_parse_zs5():
    assert S5.parse("1+1s") == Root5(1, 1)
    assert S5.parse("4+1s") == Root5(4, 1)
    assert S5.parse("1-1s") == Root5(1, -1)
    assert S5.parse("-7") == Root5(-7, 0)


def test_parse_poly():
    assert F2.parse("x^3+x+1") == Poly(2, (1, 1, 0, 1))
    assert F3.parse("x^3+2x+1") == Poly(3, (1, 2, 0, 1))
    assert F3.parse("2x+1") == Poly(3, (1, 2))
    assert F2.parse("x^2+x") == Poly(2, (0, 1, 1))
    assert F3.parse("4x") == Poly(3, (0, 1))  # coefficients reduce mod p
    with pytest.raises(ElementSyntaxError) as exc:
        F2.parse("x^")
    assert exc.value.position == 2


def test_parse_poly_degree_guard():
    with pytest.raises(SizeGuard, match="degree 13 exceeds the fp bound 12"):
        F2.parse("x^13+x")
    # repeated powers add up mod p before the guard reads the degree
    assert F5.parse("5x^20+x") == Poly(5, (0, 1))
    assert F2.parse("x^40+x^40+x") == Poly(2, (0, 1))


def test_parse_valp_exponent_guard():
    with pytest.raises(SizeGuard, match="exponent 4097 exceeds the valp bound 4096"):
        make_ring("valp", 2).parse("p^4097")
    assert make_ring("valp", 2).parse("p^4096") == PPow(2, 4096)


def test_parse_valp():
    assert V2.parse("p^4") == PPow(2, 4)
    assert V2.parse("p") == PPow(2, 1)
    assert V2.parse("8") == PPow(2, 3)
    with pytest.raises(ElementSyntaxError):
        V2.parse("6")
    with pytest.raises(ElementSyntaxError):
        V2.parse("q^2")
    with pytest.raises(ElementSyntaxError):
        V2.parse("²")  # a digit to str.isdigit, but not to int()


@pytest.mark.parametrize(
    "ring, text",
    [
        (Z, "१२"),  # Devanagari digits
        (Z, "１２"),  # fullwidth digits
        (Z, "\t12\n"),
        (Z, "\xa012"),  # no-break space
        (V2, "p^３"),
        (V2, "８"),
        (V2, "\tp^3\n"),
    ],
)
def test_non_ascii_digits_and_other_spaces_are_refused(ring, text):
    # the grammar has ASCII digits and spaces only, though int() and \s take more
    with pytest.raises(ElementSyntaxError) as exc:
        ring.parse(text)
    assert 0 <= exc.value.position < len(text)


# near misses of every grammar: tab, no-break space, and a fullwidth and an
# Arabic-Indic digit
NEAR = "\t\xa0１٣"


@given(st.text("0123456789+-−^ p" + NEAR, max_size=8))
@example("- 12")
@example("12 3")
@settings(max_examples=300)
def test_z_grammar(text):
    grammar = re.compile(r" *(?:[+\-−] *)?[0-9]+ *")
    try:
        value = Z.parse(text)
    except ElementSyntaxError as exc:
        assert 0 <= exc.position <= len(text)
        assert not grammar.fullmatch(text)
        return
    assert grammar.fullmatch(text), text
    assert value == int(text.replace(" ", "").replace("−", "-"))


@given(st.text("0123456789+-−^ pq" + NEAR, max_size=10))
@example("+p")
@example("2p^0")
@example("p^0")
@example("p^99999999")
@example("+8")
@settings(max_examples=300)
def test_valp_grammar(text):
    grammar = re.compile(r" *(?:p(?:\^[0-9]+)?|(?:[+\-−] *)?[0-9]+) *")
    try:
        e = V2.parse(text)
    except ElementSyntaxError as exc:
        assert 0 <= exc.position <= len(text)
        # a grammatical integer term fails only when it is no power of 2
        assert not grammar.fullmatch(text) or exc.reason == "not a power of 2"
        return
    except SizeGuard:
        assert grammar.fullmatch(text) and "p" in text
        return
    assert grammar.fullmatch(text), text
    assert V2.parse(V2.fmt(e)) == e


def _grammar(term: str):
    # the documented rule, written apart from the tokenizer: a sign between
    # terms, spaces only at the ends and around signs
    sign = "[+\\-−]"
    return re.compile(rf" *(?:{sign} *)?(?:{term})(?: *{sign} *(?:{term}))* *")


def _check_grammar(ring, grammar, text):
    """text parses, matches the grammar and round-trips through fmt, or it
    raises ElementSyntaxError at a position inside the text."""
    try:
        e = ring.parse(text)
    except ElementSyntaxError as exc:
        assert 0 <= exc.position <= len(text)
        # grammatical texts fail only on a repeated term of the pair grammars
        assert not grammar.fullmatch(text) or exc.reason.startswith("duplicate")
        return
    assert grammar.fullmatch(text), text
    assert ring.parse(ring.fmt(e)) == e


@given(st.text("0123456789+-−^ ij" + NEAR, max_size=10))
@example("1i2")
@example("2 3")
@example("3 - 2i")
@settings(max_examples=300)
def test_gauss_grammar(text):
    _check_grammar(G, _grammar("[0-9]+|[0-9]*i"), text)


@given(st.text("0123456789+-−^ st" + NEAR, max_size=10))
@example("1s2")
@example("-s")
@settings(max_examples=300)
def test_zs5_grammar(text):
    _check_grammar(S5, _grammar("[0-9]+|[0-9]*s"), text)


@given(st.text("0123456789+-−^ xy" + NEAR, max_size=10))
@example("x2")
@example("xx")
@example("x^ 2")
@example("x ^2")
@example("x^2 + 2x - 1")
@example("x^13")
@example("5x^13+x")  # the top term vanishes mod 5
@example("x^999999999")
@settings(max_examples=300)
def test_fp_grammar(text):
    grammar = _grammar(r"[0-9]+|[0-9]*x(?:\^[0-9]+)?")
    try:
        _check_grammar(F5, grammar, text)
    except SizeGuard:
        assert grammar.fullmatch(text)
        assert _fp_reference_degree(F5, text) > F5.DEG_MAX
    else:
        if grammar.fullmatch(text):
            assert _fp_reference_degree(F5, text) <= F5.DEG_MAX


def _fp_reference_degree(ring, text) -> int:
    """Top power with a nonzero coefficient mod p of a grammatical fp text."""
    coeffs = {}
    flat = text.replace(" ", "").replace("−", "-")
    for sign, digits, x, exp in re.findall(r"([+-]?)([0-9]*)(x?)(?:\^([0-9]+))?", flat):
        if digits or x:
            power = int(exp) if exp else int(bool(x))
            coeffs[power] = coeffs.get(power, 0) + int(sign + (digits or "1"))
    return max((k for k, c in coeffs.items() if c % ring.p), default=0)


def test_parse_error_positions_index_the_text():
    with pytest.raises(ElementSyntaxError) as exc:
        G.parse(" 1 + 2i 3")
    assert exc.value.position == 8
    with pytest.raises(ElementSyntaxError) as exc:
        F5.parse("x +  x^")
    assert exc.value.position == 7


def test_modulus_missing():
    with pytest.raises(ParameterError, match="^ring fp needs a prime p$"):
        ring_from_descriptor({"tag": "fp"})
    with pytest.raises(ParameterError, match="^ring valp needs a prime p$"):
        ring_from_descriptor({"tag": "valp"})


def test_descriptor_p_on_a_ring_without_one():
    with pytest.raises(DivtopError, match="p does not apply to ring z"):
        ring_from_descriptor({"tag": "z", "p": 5})


@pytest.mark.parametrize(
    "value, shown",
    [
        ("nope", "'nope'"),
        ("x" * 62, repr("x" * 62)),  # 64 bytes quoted
        ("x" * 63, "a text of 63 characters"),
        ("é" * 31, repr("é" * 31)),  # 64 bytes in UTF-8
        ("é" * 32, "a text of 32 characters"),
        (5, "5"),
        (-(2**64) + 1, str(-(2**64) + 1)),
        (2**64, "an integer of 65 bits"),
        (True, "a bool"),
        (2.0, "a float"),
        (None, "a NoneType"),
        (["fp"], "a list"),
        ({"p": 5}, "a dict"),
    ],
)
def test_brief_names_a_value_shortly(value, shown):
    assert brief(value) == shown


# a ring's tag and p as a library caller or a JSON document may give them
TAG_VALUES = [["fp"], {"tag": "fp"}, None, 5, 2.0, True, "nope", "q" * 10**6, 10**4000, *RING_TAGS]
P_VALUES = [[5], {"p": 5}, None, 5, 4, 2.0, True, "5", "5" * 10**6, 10**4000]


@pytest.mark.parametrize("tag", TAG_VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("make", [make_ring, lambda t, p: ring_from_descriptor({"tag": t, "p": p})])
def test_a_ring_from_outside_input_or_a_brief_refusal(make, tag):
    # every refusal is a DivtopError of at most 400 bytes that names the
    # refused tag or p by its value or its type, or states the p rule
    for p in P_VALUES:
        if tag not in RING_TAGS:
            with pytest.raises(ParameterError) as exc:
                make(tag, p)
            assert str(exc.value) == f"unknown ring tag {brief(tag)}"
        elif RINGS[tag].P_MAX is None:
            if p is None:
                assert isinstance(make(tag, p), Ring)
                continue
            with pytest.raises(ParameterError) as exc:
                make(tag, p)
            assert str(exc.value) == f"p does not apply to ring {tag}"
        elif p is None:
            with pytest.raises(ParameterError) as exc:
                make(tag, p)
            assert str(exc.value) == f"ring {tag} needs a prime p"
        elif p == 5 and type(p) is int:
            assert make(tag, p).name == f"{tag}(5)"
            continue
        else:
            with pytest.raises(ParameterError) as exc:
                make(tag, p)
            assert str(exc.value).endswith(f", got {brief(p)}")
        assert len(str(exc.value).encode()) <= 400


@pytest.mark.parametrize(
    "schema, shown",
    [
        ("divtop/2", "'divtop/2'"),
        ("x" * 10**6, "a text of 1000000 characters"),
        (list(range(10**5)), "a list"),
        (None, "a NoneType"),
    ],
    ids=["short", "long", "list", "missing"],
)
def test_unsupported_schema_is_named_briefly(schema, shown):
    with pytest.raises(DivtopError) as exc:
        fragment_from_json(json.dumps({"schema": schema}))
    assert str(exc.value) == f"unsupported schema {shown}"
    assert len(str(exc.value).encode()) < 200


def test_parse_fmt_roundtrip():
    rng = random.Random(101)
    elems = {
        Z: [rng.randint(2, 10**6) for _ in range(20)],
        G: [Gauss(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(20)],
        S5: [Root5(rng.randint(1, 30), rng.randint(-6, 6)) for _ in range(20)],
        F3: [F3.poly([rng.randrange(3) for _ in range(5)] + [1]) for _ in range(20)],
        V2: [PPow(2, rng.randint(1, 30)) for _ in range(10)],
    }
    for ring, es in elems.items():
        for e in es:
            if ring.is_zero(e) or ring.is_unit(e):
                continue
            rep = ring.canonical_class(e).rep
            assert ring.parse(ring.fmt(rep)) == rep


# ---------------------------------------------------------------------------
# fragment documents


def zfrag(*seeds):
    return build_fragment(Z, [Z.canonical_class(s) for s in seeds])


def test_fragment_json_shape():
    doc = json.loads(fragment_to_json(zfrag(12)))
    assert doc["schema"] == "divtop/1"
    assert doc["ring"] == {"tag": "z"}
    assert doc["points"] == ["12", "2", "3", "4", "6"]
    assert sorted(map(tuple, doc["edges"])) == [
        ("2", "4"),
        ("2", "6"),
        ("3", "6"),
        ("4", "12"),
        ("6", "12"),
    ]


def test_fragment_json_roundtrip():
    for frag in (
        zfrag(12),
        zfrag(12, 18),
        build_fragment(G, [G.canonical_class(Gauss(5, 0))]),
        build_fragment(F2, [F2.canonical_class(F2.parse("x^2+x"))]),
        build_fragment(S5, [S5.canonical_class(Root5(6, 0))]),
        build_fragment(V2, [V2.canonical_class(PPow(2, 4))]),
    ):
        text = fragment_to_json(frag)
        back = fragment_from_json(text)
        assert back == frag
        assert fragment_to_json(back) == text


def test_fragment_json_detects_tampering():
    doc = json.loads(fragment_to_json(zfrag(12)))
    doc["points"] = doc["points"][:-1]
    with pytest.raises(DivtopError):
        fragment_from_json(json.dumps(doc))
    doc = json.loads(fragment_to_json(zfrag(12)))
    doc["edges"].append(["2", "3"])
    with pytest.raises(DivtopError, match="edge list"):
        fragment_from_json(json.dumps(doc))
    with pytest.raises(DivtopError):
        fragment_from_json(json.dumps({"schema": "divtop/0"}))


def _doc(**changes):
    # the fragment of 12 as a JSON document; a None value drops its key
    doc = {**json.loads(fragment_to_json(zfrag(12))), **changes}
    return json.dumps({k: v for k, v in doc.items() if v is not None})


@pytest.mark.parametrize(
    "text",
    [
        json.dumps([_doc()]),
        _doc(ring=None),
        _doc(ring={"tag": "q"}),
        _doc(ring={"tag": "fp", "p": "5"}),
        _doc(ring=["z"]),
        _doc(seeds=[12]),
        _doc(seeds="12"),
        _doc(points=None),
        _doc(edges=None),
        _doc(edges=[["2", "3"]]),
        _doc()[:-1],
        "[" * 10**5,
    ],
    ids=[
        "list", "no-ring", "unknown-tag", "string-p", "ring-list", "integer-seed",
        "seed-string", "no-points", "no-edges", "forged-edge", "not-json", "deep",
    ],
)
def test_malformed_fragment_document_raises_divtop_error(text):
    with pytest.raises(DivtopError):
        fragment_from_json(text)


LONG = ("7" * 10**6, "x" * 10**6, "1a" * 500_000)
TEXTS = st.one_of(
    st.sampled_from(["6", "12", "4", "x", "x^2+1", "p", "p^3", "8", "1+1i", "2+2s", "0", "1"]),
    st.sampled_from(("1\t2", "１２", "p^4097", "x^" + "9" * 4000) + LONG),
    st.text(max_size=8),
)
OTHER_TYPES = st.sampled_from([None, 0, 2.5, True, [], {}, ["2", "3"], [["2", "3"]], 10**130])
PS = st.sampled_from([None, 2, 3, 5, 17, 19, 4, 0, -3, 10**130, True, "3"])


@st.composite
def mutated_documents(draw):
    """A valid fragment document with one or two keys dropped or retyped,
    its ring tag or p changed, or its seeds, points or edges reordered or
    one of them forged."""
    ring, classes = draw(RING_SEEDS)
    doc = json.loads(fragment_to_json(build_fragment(ring, classes)))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(["seeds", "ring", "points", "edges"] * 3 + ["schema"]))
        kind = draw(st.sampled_from(["change", "change", "change", "retype", "drop"]))
        value = doc.get(key)
        if kind == "drop":
            doc.pop(key, None)
        elif kind == "retype" or not isinstance(value, dict if key == "ring" else list):
            doc[key] = draw(st.one_of(OTHER_TYPES, TEXTS))
        elif key == "ring":
            tag, p = draw(st.one_of(st.sampled_from(RING_TAGS), TEXTS)), draw(PS)
            doc[key] = {"tag": tag} if p is None else {"tag": tag, "p": p}
        elif draw(st.booleans()):
            doc[key] = draw(st.permutations(value))
        elif value:
            i = draw(st.integers(0, len(value) - 1))
            if key == "edges":
                # the points key may already be dropped or retyped to a non-list
                points = doc.get("points")
                names = points if isinstance(points, list) and points else ["2"]
                pair = st.lists(st.sampled_from(names), min_size=2, max_size=2)
                forged = draw(st.one_of(pair, OTHER_TYPES, TEXTS))
            else:
                forged = draw(TEXTS)
            doc[key] = value[:i] + [forged] + value[i + 1:]
    return doc


@given(mutated_documents())
@example({**json.loads(fragment_to_json(zfrag(12))), "seeds": ["1a" * 500_000]})
@example({**json.loads(fragment_to_json(zfrag(4, 6))), "seeds": ["6", "4"]})
@settings(max_examples=300, deadline=None)
def test_mutated_fragment_documents_rebuild_or_refuse_briefly(doc):
    # the read-back contract: the fragment the document's own seeds build, or
    # a DivtopError whose message stays short whatever the document holds
    try:
        fragment = fragment_from_json(json.dumps(doc))
    except DivtopError as exc:
        assert len(str(exc).encode()) <= 400
        return
    ring = make_ring(doc["ring"]["tag"], doc["ring"].get("p"))
    want = build_fragment(ring, [ring.canonical_class(ring.parse(t)) for t in doc["seeds"]])
    assert fragment == want
    assert fragment_to_json(fragment) == fragment_to_json(want)


def test_fragment_json_stable_bytes():
    a = fragment_to_json(zfrag(60))
    b = fragment_to_json(zfrag(60))
    assert a == b


# ---------------------------------------------------------------------------
# DOT export


def test_dot_examples():
    dot = fragment_to_dot(zfrag(4))
    assert dot.count("->") == 1 and '"2" -> "4";' in dot
    dot = fragment_to_dot(zfrag(12))
    assert dot.count("->") == 5
    fv = build_fragment(V2, [V2.canonical_class(PPow(2, 3))])
    dot = fragment_to_dot(fv)
    assert dot.count("->") == 2  # path graph on three nodes


def test_dot_edges_match_bruteforce_reduction():
    rng = random.Random(103)
    frags = [zfrag(rng.randint(2, 3000)) for _ in range(12)]
    frags.append(build_fragment(S5, [S5.canonical_class(Root5(6, 0))]))
    frags.append(build_fragment(G, [G.canonical_class(Gauss(0, 9))]))
    for f in frags:
        if len(f) > 64:
            continue
        texts = [p.text for p in f.points]
        want = {(texts[i], texts[j]) for i, j in transitive_reduction_oracle(f)}
        dot = fragment_to_dot(f)
        got = set()
        for line in dot.splitlines():
            if "->" in line:
                u, v = line.strip().rstrip(";").split(" -> ")
                got.add((u.strip('"'), v.strip('"')))
        assert got == want, f.ring.name


def test_dot_rank_groups():
    dot = fragment_to_dot(zfrag(12))
    assert '{ rank=same; "2"; "3"; }' in dot


def test_exports_derive_only_the_tables_they_read(monkeypatch, capsys):
    # a fragment derives its point classes, columns and rows on first read,
    # and keeps the point index its build made.  JSON, text and the
    # read-back read only the point texts and the covering pairs; DOT ranks
    # its nodes by column; a t0 check reads the columns and the build's
    # index; the nested check the rows too.  None of them makes every
    # point's class
    def derived(f):
        assert "_index" in vars(f)
        return {name for name in ("points", "cols", "rows") if name in vars(f)}

    made = []
    monkeypatch.setattr(
        cli, "build_fragment", lambda ring, seeds: made.append(build_fragment(ring, seeds)) or made[-1]
    )
    for out, want in (("json", set()), ("text", set()), ("dot", {"cols"})):
        assert cli.main(["fragment", "--ring", "z", "--seeds", "360,77", "--out", out]) == 0
        assert derived(made[-1]) == want, out
    doc = capsys.readouterr().out.splitlines()[0]
    assert fragment_to_json(made[0]) == doc and derived(made[0]) == set()
    back = fragment_from_json(doc)
    assert derived(back) == set()
    assert C.check_t0(back).verdict == "holds"
    assert derived(back) == {"cols"}
    assert cli.main(["check", "--ring", "z", "--seeds", "360,77", "--props", "t0,isolated,nested"]) == 0
    assert derived(made[-1]) == {"cols", "rows"}


# ---------------------------------------------------------------------------
# report documents


def test_report_schema():
    r = C.check_t0(zfrag(12))
    doc = json.loads(report_to_json(r))
    assert list(doc) == ["check", "verdict", "witnesses", "details"]
    assert doc["verdict"] == "holds"


def test_report_nested_fails_witnesses():
    doc = json.loads(report_to_json(C.check_nested(build_fragment(Z, [Z.canonical_class(6)]))))
    assert doc["verdict"] == "fails"
    assert doc["witnesses"] == ["2", "3"]


def test_report_chain_details():
    doc = json.loads(report_to_json(C.noetherian_chain(Z, Z.canonical_class(2), 3)))
    assert doc["details"]["chain"] == ["U_2", "U_4", "U_8"]
    assert doc["details"]["sizes"] == [1, 2, 3]


def test_report_bytes_stable():
    r1 = report_to_json(C.dense_open_check(zfrag(12)))
    r2 = report_to_json(C.dense_open_check(zfrag(12)))
    assert r1 == r2
