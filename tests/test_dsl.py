import hashlib
import math
import operator
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import ologkit.dsl as dsl
import ologkit.instance
import ologkit.ordering
from ologkit import (
    BUNDLED_FILES,
    ArrowDecl,
    BoxDecl,
    DuplicateIdError,
    EqVerdict,
    FiberProductDecl,
    Graph,
    GraphPayload,
    Instance,
    OlogError,
    OlogSchema,
    PROTEIN_DEFAULTS,
    SOCIAL_MATCHED_DEFAULTS,
    PairPayload,
    SchemaFunctor,
    ParseError,
    PathEquation,
    RealPayload,
    TextPayload,
    UnwritableSchemaError,
    bundled_schema,
    bundled_text,
    check_functor,
    derive_equality,
    generate_instance,
    load_instance,
    load_schema,
    parse_instance,
    parse_schema,
    serialize_instance,
    serialize_schema,
    validate_schema,
    with_fiber_product_squares,
)
from ologkit.ordering import natural_key
from ologkit.schema import Path

GOLDEN = FsPath(__file__).parent / "golden" / "paper.canonical.olog"


# ---------------------------------------------------------------------------
# parsing basics
# ---------------------------------------------------------------------------


def test_small_schema_parses():
    s = parse_schema(
        """
        # a comment
        schema "tiny" {
          box A "an apple"   [fruit , red]
          box B "a basket"
          arrow put : A -> B "is put into"
          arrow put2 : A -> B
          eq A..B : [put] = [put2] "same placement"
        }
        """
    )
    assert s.name == "tiny"
    assert s.box("A").tags == frozenset({"fruit", "red"})
    assert s.arrow("put").label == "is put into"
    assert s.arrow("put2").label == ""
    assert s.equations[0].note == "same placement"
    # empty lists and trailing commas in tag groups and paths
    s = parse_schema(
        'schema "t" { box A "an a" [] box B "a b" [x, y,] arrow f : A -> A [z,] '
        "eq A..A : [f,] = [f, f,] eq A..A : [] = [] }"
    )
    assert s.box("A").tags == frozenset()
    assert s.box("B").tags == frozenset({"x", "y"})
    assert s.arrow("f").tags == frozenset({"z"})
    assert [(eq.lhs.arrows, eq.rhs.arrows) for eq in s.equations] == [
        (("f",), ("f", "f")),
        ((), ()),
    ]


def test_small_instance_parses():
    inst = parse_instance(
        """
        instance "demo" of "tiny" {
          set A { a1 = real 1.5, a2, a3 = real inf, }
          set B { b1 = pair (-inf, 2.0), b2 = text "said \\"hi\\"" }
          set C { c1 = graph { n1 -> n2, n3, } }
          fn put { a1 -> b1, a2 -> b1, a3 -> b2, }
        }
        """
    )
    assert inst.elements("A")["a1"] == RealPayload(1.5)
    assert inst.elements("A")["a2"] is None
    assert inst.elements("A")["a3"] == RealPayload(math.inf)
    assert inst.elements("B")["b1"] == PairPayload(-math.inf, 2.0)
    assert inst.elements("B")["b2"] == TextPayload('said "hi"')
    assert inst.elements("C")["c1"] == GraphPayload(
        Graph(("n1", "n2", "n3"), (("n1", "n2"),))
    )
    assert inst.table("put") == {"a1": "b1", "a2": "b1", "a3": "b2"}
    # empty bodies and payloads, and a comment sending a body to the token loop
    inst = parse_instance(
        'instance "demo" of "tiny" {\n  set X {}\n  set G { g1 = graph {}, }\n'
        "  fn f {}\n  fn g { a -> b, # a note\n  }\n}\n"
    )
    assert inst.elements("X") == {}
    assert inst.elements("G") == {"g1": GraphPayload(Graph((), ()))}
    assert inst.functions == {"f": {}, "g": {"a": "b"}}


def test_bare_integers_and_signed_exponents_are_reals():
    inst = parse_instance(
        'instance "n" of "s" { set X { x1 = real 2, x2 = real 1e+16, '
        "x3 = real -0.5, x4 = real 3.25e-2 } }"
    )
    vals = {k: p.value for k, p in inst.elements("X").items()}
    assert vals == {"x1": 2.0, "x2": 1e16, "x3": -0.5, "x4": 0.0325}


def test_unsigned_exponent_is_an_identifier_not_a_number():
    # 1e16 must stay usable as an element id
    inst = parse_instance('instance "n" of "s" { set X { 1e16 } }')
    assert "1e16" in inst.elements("X")
    with pytest.raises(ParseError):
        parse_instance('instance "n" of "s" { set X { x1 = real 1e16 } }')


def test_keywords_are_ordinary_identifiers():
    s = parse_schema(
        'schema "kw" { box box "a box" box eq "an eq" '
        "arrow schema : box -> eq }"
    )
    assert s.box("box").label == "a box"
    assert s.arrow("schema").src == "box"
    inst = parse_instance(
        'instance "kw" of "kw" { set box { set, fn, real, graph } '
        "fn schema { set -> fn } }"
    )
    assert set(inst.elements("box")) == {"set", "fn", "real", "graph"}


def test_whitespace_and_newlines_are_interchangeable():
    one_line = 'schema "t" { box A "an a" arrow f : A -> A }'
    many_lines = 'schema "t" {\n  box A "an a"\n  arrow f\n    : A -> A\n}\n'
    assert parse_schema(one_line) == parse_schema(many_lines)


# ---------------------------------------------------------------------------
# parse errors, with positions
# ---------------------------------------------------------------------------


def test_unterminated_string_position():
    with pytest.raises(ParseError) as exc:
        parse_schema('schema "oops\n')
    assert "unterminated string" in exc.value.bare_message
    assert (exc.value.span.line, exc.value.span.column) == (1, 8)


def test_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse_schema('schema "t" { box A $ }', filename="bad.olog")
    assert "unexpected character" in exc.value.bare_message
    assert exc.value.span.file == "bad.olog"
    assert (exc.value.span.line, exc.value.span.column) == (1, 20)


def test_invalid_escape_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_schema('schema "a\\qb" {}')
    assert "escape" in exc.value.bare_message


def test_truncated_arrow_declaration():
    text = 'schema "t" {\n  box A "an a"\n  arrow f : A ->\n}\n'
    with pytest.raises(ParseError) as exc:
        parse_schema(text, filename="bad.olog")
    assert (exc.value.span.line, exc.value.span.column) == (4, 1)


_HEAD = 'instance "i" of "s" {\n'


@pytest.mark.parametrize(
    "text, error, position, message",
    [
        pytest.param(
            '# a note\nschema "t" { box A $ }',
            ParseError, (2, 20), "unexpected character '$'",
            id="after-comment-line",
        ),
        pytest.param(
            'schema "t" {\r\n  box A "an a"\r\n  $\r\n}\r\n',
            ParseError, (3, 3), "unexpected character '$'",
            id="crlf",
        ),
        pytest.param(
            'schema "t" {\n\tbox A "an a" $ }',
            ParseError, (2, 15), "unexpected character '$'",
            id="tab",
        ),
        pytest.param(
            'schema "x" { pullback P = X × Z }',
            ParseError, (1, 31), "expected [, found 'Z'",
            id="after-times",
        ),
        pytest.param(
            'schema "x" { pullback P = X ×[Z] Y proj (p1 p2) }',
            ParseError, (1, 45), "expected ,, found 'p2'",
            id="later-after-times",
        ),
        pytest.param(
            'schema "t" { box A "an a"   \n  ',
            ParseError, (1, 26), "unterminated schema block",
            id="eof-after-whitespace",
        ),
        pytest.param(
            'schema "t" { box A "an a"\n# trailing comment\n',
            ParseError, (1, 26), "unterminated schema block",
            id="eof-after-comment",
        ),
        pytest.param(
            'instance "d" of "s" {\n  set X {\n    x1,\n    x1 } }',
            DuplicateIdError, (4, 5), "element 'x1' listed twice in box X",
            id="duplicate-on-later-line",
        ),
        pytest.param(
            'schema "x" {\n  box A "an a" box B "a b" arrow f : A -> B\n'
            "  eq A..A : [f] = [f] }",
            ParseError, (3, 3), "path [f] runs A->B but the equation declares A..A",
            id="equation-endpoints",
        ),
        pytest.param(
            'schema "t" {\n  box A "a\\qb" }',
            ParseError, (2, 9), "invalid escape \\q in string",
            id="invalid-escape",
        ),
        pytest.param(
            _HEAD + "  fn 1 {\n    n1 -> w#f1,\n    n2 -> wf1 }\n}\n",
            ParseError, (4, 5), "expected }, found 'n2'",
            id="comment-inside-an-id",
        ),
        pytest.param(
            _HEAD + "  set X { a, 3e-4 }\n}\n",
            ParseError, (2, 14), "expected element id, found '3e-4'",
            id="exponent-as-id",
        ),
        pytest.param(
            _HEAD + "  set X { a, 1e+5 }\n}\n",
            ParseError, (2, 14), "expected element id, found '1e+5'",
            id="signed-exponent-as-id",
        ),
        pytest.param(
            _HEAD + "  fn 1 { a -> 12.5 }\n}\n",
            ParseError, (2, 15), "expected element id, found '12.5'",
            id="decimal-as-id",
        ),
        pytest.param(
            _HEAD + "  set X {\n    x1,\n    x2,\n    x1\n  }\n}\n",
            DuplicateIdError, (5, 5), "element 'x1' listed twice in box X",
            id="duplicate-element-in-a-plain-body",
        ),
        pytest.param(
            _HEAD + "  fn 1 {\n    a -> b,\n    c -> d,\n    a -> e\n  }\n}\n",
            DuplicateIdError, (5, 5), "element 'a' mapped twice by arrow 1",
            id="duplicate-source-in-a-plain-body",
        ),
        pytest.param(
            _HEAD + "  fn 1 { a -> b, a -> c }\n  set X { @ }\n}\n",
            DuplicateIdError, (2, 18), "element 'a' mapped twice by arrow 1",
            id="earlier-duplicate-beats-lexical-error",
        ),
        pytest.param(
            _HEAD + '  fn 1 { a b }\n  set X { x = text "oops }\n}\n',
            ParseError, (2, 12), "expected '->', found 'b'",
            id="earlier-parse-error-beats-lexical-error",
        ),
        # a repeated declaration: reported at its start, once its header is read
        pytest.param(
            'schema "t" { box A "a" box A "b" }',
            DuplicateIdError, (1, 24), "box 'A' declared twice",
            id="duplicate-box",
        ),
        pytest.param(
            'schema "t" { box A "a" box A "b" [x y] }',
            ParseError, (1, 37), "expected ], found 'y'",
            id="tag-error-beats-duplicate-box",
        ),
        pytest.param(
            'schema "t" { box A "a" arrow f : A -> A arrow f : A -> A "again" }',
            DuplicateIdError, (1, 41), "arrow 'f' declared twice",
            id="duplicate-arrow",
        ),
        pytest.param(
            'schema "t" { box A "a" arrow f : A -> A\n'
            "  pullback A = A ×[A] A proj (f, f) legs (f, f)\n"
            "  pullback A = A ×[A] A proj (f, f) legs (f, f) }",
            DuplicateIdError, (3, 3), "pullback for apex 'A' declared twice",
            id="duplicate-pullback",
        ),
        pytest.param(
            'schema "t" { box A "a" arrow f : A -> A\n'
            "  pullback A = A ×[A] A proj (f, f) legs (f, f)\n"
            "  pullback A = A ×[A] A proj (f, f) legs (f f) }",
            ParseError, (3, 45), "expected ,, found 'f'",
            id="legs-error-beats-duplicate-pullback",
        ),
        pytest.param(
            'instance "d" of "s" { set X { x1 } set X { @ } }',
            DuplicateIdError, (1, 36), "set block for box 'X' declared twice",
            id="duplicate-set-block-beats-its-body",
        ),
        pytest.param(
            'instance "d" of "s" { fn f { a -> b }\n  fn f { a -> b } }',
            DuplicateIdError, (2, 3), "fn block for arrow 'f' declared twice",
            id="duplicate-fn-block",
        ),
        # every comma-separated list: a missing comma and a doubled comma
        pytest.param(
            'schema "t" { box A "an a" [x y] }',
            ParseError, (1, 30), "expected ], found 'y'",
            id="tag-group-missing-comma",
        ),
        pytest.param(
            'schema "t" { box A "an a" [x,, y] }',
            ParseError, (1, 30), "expected tag, found ','",
            id="tag-group-doubled-comma",
        ),
        pytest.param(
            'schema "t" { eq A..A : [f g] = [f] }',
            ParseError, (1, 27), "expected ], found 'g'",
            id="path-missing-comma",
        ),
        pytest.param(
            'schema "t" { eq A..A : [f,, g] = [f] }',
            ParseError, (1, 27), "expected arrow id, found ','",
            id="path-doubled-comma",
        ),
        pytest.param(
            'schema "x" { pullback P = X ×[Z] Y proj (p1,, p2) }',
            ParseError, (1, 45), "expected projection arrow, found ','",
            id="proj-doubled-comma",
        ),
        pytest.param(
            'schema "x" { pullback P = X ×[Z] Y proj (p1, p2) legs (l1 l2) }',
            ParseError, (1, 59), "expected ,, found 'l2'",
            id="legs-missing-comma",
        ),
        pytest.param(
            'schema "x" { pullback P = X ×[Z] Y proj (p1, p2) legs (l1,, l2) }',
            ParseError, (1, 59), "expected leg arrow, found ','",
            id="legs-doubled-comma",
        ),
        pytest.param(
            _HEAD + "  set H { h1 = graph { n1 -> n2 n3 } }\n}\n",
            ParseError, (2, 33), "expected }, found 'n3'",
            id="graph-missing-comma",
        ),
        pytest.param(
            _HEAD + "  set H { h1 = graph { n1,, n2 } }\n}\n",
            ParseError, (2, 27), "expected node id, found ','",
            id="graph-doubled-comma",
        ),
        pytest.param(
            _HEAD + "  set X { x1 = real 1 x2 }\n}\n",
            ParseError, (2, 23), "expected }, found 'x2'",
            id="set-token-loop-missing-comma",
        ),
        pytest.param(
            _HEAD + "  set X { x1 = real 1,, x2 }\n}\n",
            ParseError, (2, 23), "expected element id, found ','",
            id="set-token-loop-doubled-comma",
        ),
        pytest.param(
            _HEAD + "  fn 1 { a -> b # note\n    c -> d }\n}\n",
            ParseError, (3, 5), "expected }, found 'c'",
            id="fn-token-loop-missing-comma",
        ),
        pytest.param(
            _HEAD + "  fn 1 { a -> b, # note\n    , c -> d }\n}\n",
            ParseError, (3, 5), "expected element id, found ','",
            id="fn-token-loop-doubled-comma",
        ),
    ],
)
def test_error_positions_and_messages(text, error, position, message):
    parse = parse_instance if text.startswith("instance") else parse_schema
    with pytest.raises(ParseError) as exc:
        parse(text, filename="f.olog")
    assert type(exc.value) is error
    assert exc.value.span.file == "f.olog"
    assert (exc.value.span.line, exc.value.span.column) == position
    assert exc.value.bare_message == message


def test_missing_colon_in_arrow():
    with pytest.raises(ParseError) as exc:
        parse_schema('schema "t" { box A "an a" arrow f A -> A }')
    assert "':'" in exc.value.bare_message or "expected" in exc.value.bare_message


def test_trailing_content_rejected():
    with pytest.raises(ParseError):
        parse_schema('schema "t" { box A "an a" } schema "u" {}')
    with pytest.raises(ParseError):
        parse_instance('instance "i" of "s" {} stray')


def test_equal_schema_text_is_parsed_once_and_errors_every_time():
    text = bundled_text("paper.olog")
    first = parse_schema(text, "paper.olog")
    assert parse_schema(text, "paper.olog") is first
    assert parse_schema(text + " ", "paper.olog") == first
    bad = 'schema "t" {\n  box A "an a"\n  arrow f A -> A\n}\n'
    for filename in ("a.olog", "a.olog", "b.olog"):
        with pytest.raises(ParseError) as exc:
            parse_schema(bad, filename)
        assert (exc.value.span.file, exc.value.span.line) == (filename, 3)
    fixed = parse_schema(bad.replace("f A", "f : A"), "a.olog")
    assert fixed.arrow("f").src == "A"
    assert parse_schema(text, "paper.olog") is first


def test_each_bundled_file_is_read_once_and_unknown_names_fail_every_time():
    for name in BUNDLED_FILES:
        assert bundled_text(name) is bundled_text(name)
    for _ in range(2):
        with pytest.raises(FileNotFoundError, match="'nope.olog'"):
            bundled_text("nope.olog")


def test_string_where_block_expected():
    with pytest.raises(ParseError) as exc:
        parse_instance('instance "i" of "s" { pullback }')
    assert "expected 'set', 'fn'" in exc.value.bare_message


# ---------------------------------------------------------------------------
# set and fn bodies read in bulk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "body, expected",
    [
        pytest.param(
            "  fn 1 { a -> b, # c -> d }\n  c -> e }\n",
            ({}, {"1": {"a": "b", "c": "e"}}),
            id="comment-hides-an-entry",
        ),
        pytest.param("  set X {#}\n  }\n", ({"X": {}}, {}), id="comment-hides-the-brace"),
    ],
)
def test_comments_inside_bodies(body, expected):
    inst = parse_instance(_HEAD + body + "}\n")
    assert (inst.sets, inst.functions) == expected


def test_canonical_instance_is_read_without_a_token_per_entry(monkeypatch):
    text = serialize_instance(corpus.chain(ologkit, bundled_schema(), "bonded", "protein", 6))
    blocks = re.finditer(r"\n  (?:set|fn) \w+ (\{.*?\n  \})", text, re.S)
    bodies = [block.span(1) for block in blocks]

    taken_at = []
    take = dsl._Parser.take

    def recording_take(self, *args):
        taken_at.append(self.pos)
        return take(self, *args)

    monkeypatch.setattr(dsl._Parser, "take", recording_take)
    inst = parse_instance(text)
    assert serialize_instance(inst) == text
    entries = text.count("\n    ")
    assert len(bodies) == len(inst.sets) + len(inst.functions) and entries > 1000
    assert any("=" in text[a:b] for a, b in bodies)
    assert not [pos for pos in taken_at for a, b in bodies if a <= pos < b]
    assert len(taken_at) <= 8


@pytest.mark.parametrize(
    "payload, expected",
    [
        ("real 007", RealPayload(7.0)),
        ("real-5", RealPayload(-5.0)),
        ("real -\u0663", RealPayload(-3.0)),
        ("real \u0663.5", RealPayload(3.5)),
        ("real \u0663", (41, "unexpected character '\u0663'")),
        ("real 12e5", (41, "expected a real value")),
        ("real Inf", (41, "expected a real value")),
        ("real nan", (41, "expected a real value")),
        ("real5", (36, "unknown payload kind 'real5'")),
        ('text "a\\nb"', (41, "invalid escape \\n in string")),
        ("graph { n1, n1 }", GraphPayload(Graph(("n1",), ()))),
    ],
)
def test_payload_edge_cases(payload, expected):
    # The lexer's number takes any Unicode digit; an identifier only ASCII
    # ones.  A keyword ends where its run of id characters does.
    text = f'instance "i" of "s" {{ set A {{ a1 = {payload}, a2 }} }}'
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert (exc.value.span.column, exc.value.bare_message) == expected
    else:
        assert parse_instance(text).elements("A") == {"a1": expected, "a2": None}


# ---------------------------------------------------------------------------
# duplicate declarations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        'schema "d" { box A "an a" box A "again" }',
        'schema "d" { box A "an a" arrow f : A -> A arrow f : A -> A }',
        'schema "d" { box A "an a" box B "a b" box C "a c" '
        "arrow p : A -> B arrow q : A -> B arrow f : B -> C arrow g : B -> C "
        "pullback A = B ×[C] B proj (p, q) legs (f, g) "
        "pullback A = B ×[C] B proj (p, q) legs (f, g) }",
        'instance "d" of "s" { set X { x1 } set X { x2 } }',
        'instance "d" of "s" { fn f { a -> b } fn f { c -> d } }',
        'instance "d" of "s" { set X { x1, x1 } }',
        'instance "d" of "s" { fn f { a -> b, a -> c } }',
    ],
)
def test_duplicate_declarations_rejected(text):
    parse = parse_schema if text.startswith("schema") else parse_instance
    with pytest.raises(DuplicateIdError):
        parse(text)


# ---------------------------------------------------------------------------
# declaration cross-checks
# ---------------------------------------------------------------------------


def test_equation_endpoints_must_match_declared_span():
    with pytest.raises(ParseError) as exc:
        parse_schema(
            'schema "x" { box A "an a" box B "a b" arrow f : A -> B '
            "eq A..A : [f] = [f] }"
        )
    assert "declares A..A" in exc.value.bare_message


def test_pullback_corners_must_match_arrows():
    with pytest.raises(ParseError) as exc:
        parse_schema(
            'schema "x" { box P "a p" box X "an x" box Y "a y" box Z "a z" '
            "arrow p1 : P -> X arrow p2 : P -> Y "
            "arrow f : X -> Z arrow g : Y -> Z "
            "pullback P = X ×[Z] X proj (p1, p2) legs (f, g) }"
        )
    assert "pullback P" in exc.value.bare_message


@pytest.mark.parametrize(
    "square, message",
    [
        ("proj (p1, p2) legs (g, g)", "arrow g runs Y->Z, but the declaration needs X->Z"),
        ("proj (p2, p2) legs (f, g)", "arrow p2 runs P->Y, but the declaration needs P->X"),
    ],
    ids=["legs-g-g", "proj-p2-p2"],
)
def test_an_arrow_named_twice_in_a_pullback_is_checked_in_each_role(square, message):
    # g : Y -> Z cannot be the first leg out of X, whatever its second role
    text = (
        'schema "x" {\n  box P "a p"\n  box X "an x"\n  box Y "a y"\n  box Z "a z"\n'
        "  arrow p1 : P -> X\n  arrow p2 : P -> Y\n  arrow f : X -> Z\n  arrow g : Y -> Z\n"
        f"  pullback P = X ×[Z] Y {square}\n}}\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_schema(text)
    assert (exc.value.span.line, exc.value.span.column) == (10, 3)
    assert exc.value.bare_message == f"pullback P: {message}"


def test_parser_supplies_missing_square_equations():
    s = parse_schema(
        'schema "x" { box P "a p" box X "an x" box Y "a y" box Z "a z" '
        "arrow p1 : P -> X arrow p2 : P -> Y "
        "arrow f : X -> Z arrow g : Y -> Z "
        "pullback P = X ×[Z] Y proj (p1, p2) legs (f, g) }"
    )
    assert len(s.equations) == 1
    assert s.equations[0].lhs == Path("P", ("p1", "f"))
    assert validate_schema(s) == []


def test_malformed_equations_and_pullbacks_parse_and_are_diagnosed():
    # Undeclared arrows and boxes are validation's to report, not the parser's:
    # the endpoint cross-checks, the canonical sort, the rewriting system and
    # the functor check each step over them.  Serialization cannot: the text
    # has no end for [p,g] and no corners for P, so it names what it cannot
    # write rather than write text that does not parse back.
    s = parse_schema(
        'schema "t" { box A "a" box B "b" arrow g : A -> A '
        "eq A..A : [g] = [zz] "
        "pullback P = A ×[A] A proj (p, q) legs (g, g) }"
    )
    codes = [d.code for d in validate_schema(s)]
    assert codes == ["MALFORMED_PATH"] * 3 + ["FP_BAD_ARROW"]
    with pytest.raises(UnwritableSchemaError, match=r"^equation \[p,g\] = \[q,g\] from P "):
        serialize_schema(s)
    # the serializer adds a missing square as the parser does
    squareless = OlogSchema(s.name, s.boxes, s.arrows, s.equations[:1], s.fiber_products)
    with pytest.raises(UnwritableSchemaError, match=r"^equation \[p,g\] = \[q,g\] from P "):
        serialize_schema(squareless)
    # a square that resolves on the left, where only the pullback lacks an arrow
    apexed = parse_schema(
        'schema "t" { box P "p" box A "a" arrow p : P -> A arrow g : A -> A '
        "pullback P = A ×[A] A proj (p, q) legs (g, g) }"
    )
    with pytest.raises(
        UnwritableSchemaError,
        match="^pullback P cannot be written: its corners need declared arrows p, q and g$",
    ):
        serialize_schema(apexed)
    assert serialize_schema(OlogSchema(s.name, s.boxes, s.arrows, s.equations[:1])) == (
        'schema "t" {\n'
        '  box A "a"\n'
        '  box B "b"\n'
        "  arrow g : A -> A\n"
        "  eq A..A : [g] = [zz]\n"
        "}\n"
    )
    assert check_functor(SchemaFunctor.identity_on(s)) == []
    # an equation whose sides start where their first arrow does not
    found = parse_schema(
        'schema "f" { box A "a" box B "b" arrow g : A -> A arrow h : A -> A '
        "eq B..A : [g] = [h] }"
    )
    assert [d.code for d in validate_schema(found)] == ["MALFORMED_PATH"] * 2
    result = derive_equality(found, Path("A", ("g",)), Path("A", ("h",)), 8)
    assert result.verdict is EqVerdict.UNKNOWN


# ---------------------------------------------------------------------------
# bundled documents and golden bytes
# ---------------------------------------------------------------------------


def test_bundled_schema_canonical_form_is_frozen():
    text = bundled_text("paper.olog")
    assert serialize_schema(parse_schema(text)) == GOLDEN.read_text(encoding="utf-8")


def test_canonical_form_is_a_fixed_point():
    golden = GOLDEN.read_text(encoding="utf-8")
    assert serialize_schema(parse_schema(golden)) == golden


def test_bundled_instances_round_trip_bytes():
    for name in ("protein.oinst", "social.oinst"):
        text = bundled_text(name)
        assert serialize_instance(parse_instance(text)) == text


@pytest.mark.parametrize(
    "params, name",
    [(PROTEIN_DEFAULTS, "protein.oinst"), (SOCIAL_MATCHED_DEFAULTS, "social.oinst")],
)
def test_generated_instances_match_bundled_bytes(params, name):
    generated = generate_instance(params, bundled_schema())
    assert serialize_instance(generated) == bundled_text(name)


@pytest.mark.parametrize(
    "bricks, domain, digest",
    [
        (6, "protein", "f6fbc51799dd39300939dd4b7ea82b86b9a6ec452e0ec4a98cd68e30e6e5a1d7"),
        (6, "social", "9ec9cfa2e87f94ef065f20c305c4c9931b006fcb240e36d985b9b4e8168146b6"),
        (12, "social", "822d736d8d749d225a015a39e4074525a71eafcdc478e68745f5b5f0654bda05"),
    ],
)
def test_generated_bonded_instance_bytes_are_pinned(bricks, domain, digest):
    # Bonded chains fill boxes K and I, which the bundled (ductile) files leave
    # empty, so these digests pin the K/I join's numbering too.
    text = serialize_instance(corpus.chain(ologkit, bundled_schema(), "bonded", domain, bricks))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.fixture(scope="module")
def bonded12():
    return corpus.chain(ologkit, bundled_schema(), "bonded", "protein", 12)


def test_serializing_ordered_ids_sorts_none_of_them(bonded12, monkeypatch):
    seen = []

    def counting_key(ident):
        seen.append(ident)
        return natural_key(ident)

    monkeypatch.setattr(ologkit.ordering, "natural_key", counting_key)
    monkeypatch.setattr(ologkit.instance, "natural_key", counting_key)
    serialize_instance(bonded12)
    # Generated element and box ids are already in natural-key order; only
    # the arrow ids 1..42, of mixed widths, may need the sort.
    assert not [ident for ident in seen if ident not in bonded12.functions]
    assert len(seen) <= len(bonded12.functions)


def test_serialized_bytes_do_not_depend_on_insertion_order(bonded12):
    reversed_sets = {
        box: dict(reversed(elems.items())) for box, elems in reversed(bonded12.sets.items())
    }
    reversed_functions = {
        arrow: dict(reversed(table.items()))
        for arrow, table in reversed(bonded12.functions.items())
    }
    reversed_sets["Z"] = {}
    reversed_functions["99"] = {}
    shuffled = Instance(
        bonded12.name, bonded12.schema_name, reversed_sets, reversed_functions
    )
    assert serialize_instance(shuffled) == serialize_instance(bonded12)


def test_an_id_with_a_digit_run_past_the_int_limit_is_written():
    # int() refuses a run of more than 4 300 digits; natural_key builds none.
    huge = "x" + "9" * 5000
    inst = Instance("i", "s", {"X": {huge: None, "x10": None, "x0" + "9" * 4999: None}}, {})
    text = serialize_instance(inst)
    assert text == (
        f'instance "i" of "s" {{\n  set X {{\n    x10,\n    x0{"9" * 4999},\n    {huge}\n  }}\n}}\n'
    )
    assert parse_instance(text).sets == inst.sets


def test_canonical_returns_fresh_dicts(bonded12):
    canon = bonded12.canonical()
    canon.sets["K"]["k999"] = None
    canon.sets["Z"] = {"z1": None}
    canon.functions["24"]["k999"] = "n01"
    assert "k999" not in bonded12.sets["K"] and "Z" not in bonded12.sets
    assert "k999" not in bonded12.functions["24"]


def test_load_helpers_read_files(tmp_path):
    sfile = tmp_path / "s.olog"
    sfile.write_text('schema "t" { box A "an a" }', encoding="utf-8")
    assert load_schema(sfile).name == "t"
    ifile = tmp_path / "i.oinst"
    ifile.write_text('instance "x" of "t" { set A { a1 } }', encoding="utf-8")
    assert load_instance(ifile).name == "x"
    sfile.write_text('schema "t" {', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_schema(sfile)
    assert exc.value.span.file == str(sfile)


def test_load_helpers_translate_newlines_and_reject_bytes_that_are_not_utf8(tmp_path):
    sfile = tmp_path / "s.olog"
    sfile.write_bytes(b'# a lone CR ends a comment\rschema "t" {\r\n box A "an a" }')
    assert load_schema(sfile).box("A").label == "an a"
    sfile.write_bytes(b'schema "t" {\r\n  box A "\xe2\x82" }')
    with pytest.raises(ParseError) as exc:
        load_schema(sfile)
    assert (exc.value.span.file, exc.value.span.line, exc.value.span.column) == (
        str(sfile), 2, 10,
    )
    assert exc.value.bare_message == "invalid UTF-8 byte 0xe2"


# ---------------------------------------------------------------------------
# property: serialization is parseable and byte-stable
# ---------------------------------------------------------------------------

_ids = st.text(alphabet="abcxyz_0123456789", min_size=1, max_size=6)
_quoted = st.text(  # now and then a raw line break, which the writers refuse
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x24F, include_characters="\r\n"),
    max_size=20,
)
_reals = st.floats(allow_nan=False)


# Schemas built in Python, most of which the text format can hold
_schemas = st.randoms(use_true_random=False).map(
    lambda rng: corpus.build_schema(ologkit, corpus.schema(rng))
)


_REFUSED = {"DUP_BOX_ID", "DUP_ARROW_ID", "DUP_FP_APEX", "EQ_ENDPOINT_MISMATCH", "FP_SQUARE_SHAPE"}


def _unwritable(schema):
    """Whether the text cannot hold the schema with its squares added: an id it
    writes is not an identifier, or a string holds a raw line break; validation
    reports a duplicate, sides that run apart, a bent square, or a left side that
    does not resolve; or an equation's sides start apart, or a pullback's arrows
    give no corners."""
    full = with_fiber_product_squares(schema)
    ids = [b.id for b in full.boxes] + [t for d in full.boxes + full.arrows for t in d.tags]
    ids += [i for a in full.arrows for i in (a.id, a.src, a.dst)]
    ids += [i for fp in full.fiber_products for i in (fp.apex, fp.proj1, fp.proj2, fp.leg1, fp.leg2)]
    for eq in full.equations:
        ids += [eq.lhs.start, eq.rhs.start, *eq.lhs.arrows, *eq.rhs.arrows]
    texts = [full.name] + [d.label for d in full.boxes + full.arrows]
    texts += [eq.note for eq in full.equations]
    if not all(re.fullmatch(r"[A-Za-z0-9_]+", i) for i in ids) or any(map(_broken, texts)):
        return True
    for diag in validate_schema(full):
        left_unresolved = diag.code == "MALFORMED_PATH" and diag.message.startswith("lhs ")
        if diag.code in _REFUSED or left_unresolved:
            return True
    if any(eq.lhs.start != eq.rhs.start for eq in full.equations):
        return True
    for fp in full.fiber_products:
        p1, p2, l1, l2 = (full.arrow(a) for a in (fp.proj1, fp.proj2, fp.leg1, fp.leg2))
        if p1 is None or p2 is None or l1 is None:
            return True
        if not (p1.src == p2.src == fp.apex and l1.src == p1.dst):
            return True
        if l2 is not None and (l2.src, l2.dst) != (p2.dst, l1.dst):
            return True
    return False


@st.composite
def _graphs(draw):
    nodes = draw(st.lists(_ids, max_size=4, unique=True))
    edges = []
    if nodes:
        for _ in range(draw(st.integers(0, 3))):
            edges.append(
                (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
            )
    return Graph(tuple(nodes), tuple(edges))


_payloads = st.one_of(
    st.none(),
    st.builds(RealPayload, _reals),
    st.builds(PairPayload, _reals, _reals),
    st.builds(GraphPayload, _graphs()),
    st.builds(TextPayload, _quoted),
)


@st.composite
def _instances(draw):
    sets = {}
    for b in draw(st.lists(_ids, max_size=4, unique=True)):
        sets[b] = {e: draw(_payloads) for e in draw(st.lists(_ids, max_size=4, unique=True))}
    functions = {}
    element_pool = sorted({e for es in sets.values() for e in es}) or ["x0"]
    for a in draw(st.lists(_ids, max_size=3, unique=True)):
        functions[a] = {
            e: draw(st.sampled_from(element_pool))
            for e in draw(st.lists(_ids, max_size=4, unique=True))
        }
    return Instance(draw(_quoted), draw(_quoted), sets, functions)


def _broken(text):
    return "\n" in text or "\r" in text


@pytest.fixture(scope="module")
def law_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("laws")


@settings(max_examples=120, deadline=None)
@given(schema=_schemas)
def test_schema_serialization_is_byte_stable(schema, law_dir):
    # serialize_schema refuses exactly the schemas the text cannot hold, and
    # what it writes loads back from a file to the same bytes
    try:
        text = serialize_schema(schema)
    except UnwritableSchemaError:
        assert _unwritable(schema)
        return
    assert not _unwritable(schema)
    written = law_dir / "law.olog"
    written.write_text(text, encoding="utf-8")
    assert serialize_schema(load_schema(written)) == text


def _pq(*arrows, equations=(), fiber_products=()):
    boxes = tuple(BoxDecl(b, f"a {b}") for b in "PXYZ")
    return OlogSchema("pq", boxes, tuple(ArrowDecl(*a) for a in arrows), equations, fiber_products)


_CORNERS = [("p1", "P", "X"), ("p2", "P", "Y"), ("f", "X", "Z"), ("g", "Y", "Z")]
_PULLBACK = (FiberProductDecl("P", "p1", "p2", "f", "g"),)
_SQUARE = (PathEquation(Path("P", ("p1", "f")), Path("P", ("p2", "g"))),)


@pytest.mark.parametrize(
    "schema, code, message",
    [
        (
            OlogSchema("s", (BoxDecl("A", "an a"), BoxDecl("A", "another a"))),
            "DUP_BOX_ID",
            "schema cannot be written: box 'A' declared twice",
        ),
        (
            _pq(("f", "X", "Z"), ("f", "Y", "Z")),
            "DUP_ARROW_ID",
            "schema cannot be written: arrow 'f' declared twice",
        ),
        (
            _pq(*_CORNERS, equations=_SQUARE, fiber_products=_PULLBACK * 2),
            "DUP_FP_APEX",
            "schema cannot be written: pullback for apex 'P' declared twice",
        ),
        (
            _pq(("f", "X", "Y"), ("g", "X", "Z"), equations=(
                PathEquation(Path("X", ("f",)), Path("X", ("g",))),
            )),
            "EQ_ENDPOINT_MISMATCH",
            "equation [f] = [g] from X cannot be written: its right side does not run X->Y",
        ),
        (
            # the text gives both sides one start, so [zz] would move to X
            _pq(("f", "X", "Y"), equations=(PathEquation(Path("X", ("f",)), Path("Y", ("zz",))),)),
            "MALFORMED_PATH",
            "equation [f] = [zz] from X cannot be written: its right side does not run X->Y",
        ),
        (
            _pq(
                _CORNERS[0], ("p2", "X", "Y"), *_CORNERS[2:],
                equations=_SQUARE, fiber_products=_PULLBACK,
            ),
            "FP_SQUARE_SHAPE",
            "pullback P cannot be written: arrow p2 runs X->Y, not P->Y",
        ),
        (
            _pq(*_CORNERS[:3], ("g", "Y", "X"), equations=_SQUARE, fiber_products=_PULLBACK),
            "FP_SQUARE_SHAPE",
            "equation [p1,f] = [p2,g] from P cannot be written: its right side does not run P->Z",
        ),
    ],
    ids=[
        "box-twice", "arrow-twice", "apex-twice", "sides-apart", "starts-apart",
        "proj-off-apex", "legs-apart",
    ],
)
def test_a_schema_the_text_cannot_hold_is_refused(schema, code, message):
    # Written out, each of these would be text that parse_schema rejects.
    assert code in [d.code for d in validate_schema(schema)]
    with pytest.raises(UnwritableSchemaError) as exc:
        serialize_schema(schema)
    assert (exc.value.code, exc.value.message) == ("UNWRITABLE_SCHEMA", message)


@pytest.mark.parametrize(
    "schema, message",
    [
        (
            OlogSchema("s", (BoxDecl("a b", "x"),)),
            "box a b cannot be written: 'a b' is not an identifier",
        ),
        (
            OlogSchema("s", (BoxDecl("A", "x", frozenset({"con-jecture"})),)),
            "box A cannot be written: 'con-jecture' is not an identifier",
        ),
        (
            _pq(("f-1", "X", "Z")),
            "arrow f-1 cannot be written: 'f-1' is not an identifier",
        ),
        (
            _pq(("f", "X", "Z é")),
            "arrow f cannot be written: 'Z é' is not an identifier",
        ),
        (
            _pq(*_CORNERS, fiber_products=(FiberProductDecl("P Q", "p1", "p2", "f", "g"),)),
            "pullback P Q cannot be written: 'P Q' is not an identifier",
        ),
        (
            _pq(*_CORNERS, equations=(PathEquation(Path("X", ("f",)), Path("X", ("f", "g h"))),)),
            "equation [f] = [f,g h] from X cannot be written: 'g h' is not an identifier",
        ),
        (
            OlogSchema("two\nlines", (BoxDecl("A", "x"),)),
            "schema cannot be written: its name holds a raw newline",
        ),
        (
            OlogSchema("s", (BoxDecl("A", "two\nlines"),)),
            "box A cannot be written: its label holds a raw newline",
        ),
        (
            _pq(("f", "X", "Z", "two\nlines")),
            "arrow f cannot be written: its label holds a raw newline",
        ),
        (
            _pq(*_CORNERS, equations=(replace(_SQUARE[0], note="two\nlines"),)),
            "equation [p1,f] = [p2,g] from P cannot be written: its note holds a raw newline",
        ),
        (
            OlogSchema("two\rlines", (BoxDecl("A", "x"),)),
            "schema cannot be written: its name holds a raw carriage return",
        ),
        (
            OlogSchema("s", (BoxDecl("A", "a\rb"),)),
            "box A cannot be written: its label holds a raw carriage return",
        ),
        (
            _pq(("f", "X", "Z", "two\rlines")),
            "arrow f cannot be written: its label holds a raw carriage return",
        ),
        (
            _pq(*_CORNERS, equations=(replace(_SQUARE[0], note="ends in\r"),)),
            "equation [p1,f] = [p2,g] from P cannot be written: "
            "its note holds a raw carriage return",
        ),
    ],
    ids=[
        "box-id", "tag", "arrow-id", "arrow-target", "apex-id", "path-arrow", "name",
        "box-label", "arrow-label", "note", "name-cr", "box-label-cr", "arrow-label-cr",
        "note-cr",
    ],
)
def test_a_word_the_text_cannot_hold_is_refused_naming_its_declaration(schema, message):
    # Written out, an id with a space or a dash would read as two words, a
    # raw newline would end a string, and a raw carriage return would end it
    # once a file is read back; the error names where it sits.
    with pytest.raises(UnwritableSchemaError) as exc:
        serialize_schema(schema)
    assert exc.value.message == message


def test_a_squareless_schema_is_written_with_its_square():
    squareless = _pq(*_CORNERS, fiber_products=_PULLBACK)
    text = serialize_schema(squareless)
    assert "  eq P..Z : [p1,f] = [p2,g] \"pullback square of P\"\n" in text
    assert text == serialize_schema(with_fiber_product_squares(squareless))
    assert serialize_schema(parse_schema(text)) == text


def _unwritable_instance(instance):
    """Whether a name, the schema name or a text payload holds a raw line break."""
    texts = [instance.name, instance.schema_name]
    payloads = [p for elems in instance.sets.values() for p in elems.values()]
    texts += [p.text for p in payloads if isinstance(p, TextPayload)]
    return any(map(_broken, texts))


@settings(max_examples=120, deadline=None)
@given(instance=_instances())
def test_instance_serialization_is_byte_stable(instance, law_dir):
    # serialize_instance refuses exactly the strings the text cannot hold, and
    # what it writes loads back from a file to the same bytes
    try:
        text = serialize_instance(instance)
    except OlogError as exc:
        assert exc.code == "UNWRITABLE_INSTANCE" and _unwritable_instance(instance)
        return
    assert not _unwritable_instance(instance)
    written = law_dir / "law.oinst"
    written.write_text(text, encoding="utf-8")
    reparsed = load_instance(written)
    assert serialize_instance(reparsed) == text
    # a second pass stays put as well
    assert serialize_instance(parse_instance(serialize_instance(reparsed))) == text


@pytest.mark.parametrize(
    "instance, message",
    [
        (
            Instance("two\nlines", "s", {}, {}),
            "instance cannot be written: its name holds a raw newline",
        ),
        (
            Instance("i", "a\rb", {}, {}),
            "instance cannot be written: its schema name holds a raw carriage return",
        ),
        (
            Instance("i", "s", {"U": {"u1": TextPayload("ok"), "u2": TextPayload("x\ny")}}, {}),
            "set U cannot be written: the text of u2 holds a raw newline",
        ),
        (
            Instance("i", "s", {"U": {"u1": TextPayload("x\r\ny")}, "V": {"v1": None}}, {}),
            "set U cannot be written: the text of u1 holds a raw newline",
        ),
        (
            Instance("i", "s", {"J": {"j1": TextPayload("ends in\r")}}, {}),
            "set J cannot be written: the text of j1 holds a raw carriage return",
        ),
    ],
    ids=["name", "schema-name-cr", "text", "text-crlf", "text-cr"],
)
def test_a_string_the_instance_text_cannot_hold_is_refused_naming_where(instance, message):
    # A raw newline would end the string; a raw carriage return would end it
    # once the file is read back.
    with pytest.raises(OlogError) as exc:
        serialize_instance(instance)
    assert (exc.value.code, exc.value.message) == ("UNWRITABLE_INSTANCE", message)


def ref_serialize_instance(instance):
    """The serializer as it wrote instances entry by entry, one line per entry."""
    sets, functions = instance.sets, instance.functions
    lines = [f"instance {dsl._quote(instance.name)} of {dsl._quote(instance.schema_name)} {{"]
    for box_id in sorted(sets, key=natural_key):
        elems = sets[box_id]
        if not elems:
            continue
        lines.append(f"  set {box_id} {{")
        entries = []
        for eid in sorted(elems, key=natural_key):
            payload = elems[eid]
            entries.append(
                f"    {eid}" if payload is None else f"    {eid} = {dsl._payload_lit(payload)}"
            )
        lines.append(",\n".join(entries))
        lines.append("  }")
    for arrow_id in sorted(functions, key=natural_key):
        table = functions[arrow_id]
        if not table:
            continue
        lines.append(f"  fn {arrow_id} {{")
        lines.append(
            ",\n".join(f"    {src} -> {table[src]}" for src in sorted(table, key=natural_key))
        )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


_SHARED_KEYS = ("same", "reversed", "copied", "first kept")


@st.composite
def _padded_instances(draw):
    """``_instances()`` plus runs of zero-padded ids, as the generator writes
    them: in order, which ``natural_order`` proves, or shuffled, which it sorts.
    Each run's tables share its box's key list, as the serializer's memo of
    proven orders sees them: the same strings in the same order, reversed,
    equal strings that are other objects (as a parsed file gives), or
    reordered behind the same first key."""
    base = draw(_instances())
    sets, functions = dict(base.sets), dict(base.functions)
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 40))
        width = draw(st.integers(len(str(count)), 4))
        prefix = draw(st.sampled_from(["p", "k", "aa", "x_"]))
        ids = [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]
        if draw(st.booleans()):
            ids = draw(st.permutations(ids))
        payloads = st.none() if draw(st.booleans()) else _payloads
        sets[draw(_ids)] = {eid: draw(payloads) for eid in ids}
        for shared in draw(st.lists(st.sampled_from(_SHARED_KEYS), min_size=1, max_size=3)):
            keys = ids
            if shared == "reversed":
                keys = ids[::-1]
            elif shared == "copied":
                keys = [eid.encode().decode() for eid in ids]
            elif shared == "first kept":
                keys = ids[:1] + draw(st.permutations(ids[1:]))
            functions[draw(_ids)] = dict(zip(keys, draw(st.permutations(ids))))
    return Instance(base.name, base.schema_name, sets, functions)


@settings(max_examples=200, deadline=None)
@given(instance=st.one_of(_instances(), _padded_instances()))
def test_instance_bodies_join_to_the_entry_by_entry_bytes(instance):
    if _unwritable_instance(instance):
        with pytest.raises(OlogError):
            serialize_instance(instance)
    else:
        assert serialize_instance(instance) == ref_serialize_instance(instance)


@settings(max_examples=60, deadline=None)
@given(value=st.floats(allow_nan=False))
def test_real_literals_round_trip_exactly(value):
    text = serialize_instance(
        Instance("n", "s", {"X": {"x1": RealPayload(value)}}, {})
    )
    back = parse_instance(text).elements("X")["x1"].value
    assert back == value and math.copysign(1, back) == math.copysign(1, value)


# ---------------------------------------------------------------------------
# property: bulk bodies read exactly what the token loop reads
# ---------------------------------------------------------------------------

_BONDED_2 = serialize_instance(corpus.chain(ologkit, bundled_schema(), "bonded", "protein", 2))
_edits = st.lists(
    st.tuples(
        st.sampled_from(corpus.INSTANCE_EDITS), st.integers(0, 3000),
        st.sampled_from(corpus.INSTANCE_PIECES),
    ),
    max_size=3,
)


def _outcome(text):
    try:
        inst = parse_instance(text, filename="f.oinst")
    except ParseError as exc:
        return type(exc), exc.span.line, exc.span.column, exc.bare_message
    return inst.name, [(k, list(v.items())) for k, v in inst.sets.items()], [
        (k, list(v.items())) for k, v in inst.functions.items()
    ]


_NEVER = re.compile(r"(?!)")
_BULK_PATTERNS = ["_HEAD_RE", "_SET_BODY_RE", "_PAYLOAD_BODY_RE", "_FN_BODY_RE"]


def _token_loop_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        for name in _BULK_PATTERNS:
            mp.setattr(dsl, name, _NEVER)
        return _outcome(text)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([_BONDED_2, corpus.HAND_WRITTEN]), edits=_edits)
def test_bulk_bodies_parse_as_the_token_loop_does(base, edits):
    text = corpus.mutate(base, edits)
    assert _outcome(text) == _token_loop_outcome(text)


def test_mutated_documents_reach_bulk_and_token_loop_bodies(monkeypatch):
    # The edits above must leave some heads and bodies of every kind to bulk
    # reading and send some set and fn blocks back to the token loop.
    reached = dict.fromkeys([*_BULK_PATTERNS, "_set_entries", "_fn_entries"], 0)

    class Counting:
        def __init__(self, name):
            self.name, self.pattern = name, getattr(dsl, name)

        def match(self, text, pos):
            found = self.pattern.match(text, pos)
            reached[self.name] += found is not None
            return found

    def counting(name):
        method = getattr(dsl._Parser, name)

        def counted(self, key):
            reached[name] += 1
            return method(self, key)

        return counted

    for name in _BULK_PATTERNS:
        monkeypatch.setattr(dsl, name, Counting(name))
    for name in ("_set_entries", "_fn_entries"):
        monkeypatch.setattr(dsl._Parser, name, counting(name))
    rng = random.Random(0)
    for base in (_BONDED_2, corpus.HAND_WRITTEN):
        for _ in range(100):
            edits = corpus.edits(rng, corpus.INSTANCE_EDITS, corpus.INSTANCE_PIECES)
            _outcome(corpus.mutate(base, edits))
    assert all(reached.values()), reached


@pytest.mark.parametrize("reader", ["bulk", "token loop"])
def test_a_parsed_instance_holds_one_string_per_id(reader, monkeypatch):
    # As a generated instance does: every table key is its source set's key
    # object and every image its target set's, and a box that lists ids of
    # another box (U holds those of R, S and T) holds the same objects.
    if reader == "token loop":
        for name in _BULK_PATTERNS:
            monkeypatch.setattr(dsl, name, _NEVER)
    schema = bundled_schema()
    inst = parse_instance(serialize_instance(corpus.chain(ologkit, schema, "bonded", "protein", 4)))
    keys = {box_id: {eid: eid for eid in elems} for box_id, elems in inst.sets.items()}
    for arrow in schema.arrows:
        table = inst.table(arrow.id)
        assert all(keys[arrow.src][eid] is eid for eid in table), arrow.id
        assert all(keys[arrow.dst][image] is image for image in table.values()), arrow.id
    assert sum(map(len, inst.functions.values())) > 400
    assert keys["R"] and all(keys["U"][eid] is eid for box in "RST" for eid in keys[box])


@pytest.mark.parametrize("reader", ["bulk", "token loop"])
def test_a_table_shares_the_ids_a_set_read_before_names(reader, monkeypatch):
    # g comes before every set, and h names ids (zz, b9) that no set holds:
    # those ids stay as parsed; every other one is its set's object.  f and
    # h list as many keys as A, from the same first key, but not A's list.
    if reader == "token loop":
        for name in _BULK_PATTERNS:
            monkeypatch.setattr(dsl, name, _NEVER)
    inst = parse_instance(
        'instance "i" of "s" {\n  fn g { a1 -> b1 }\n  set A { a1, a2, a3 }\n'
        "  set B { b1, b2, b3 }\n  fn f { a1 -> b1, a3 -> b3, a2 -> b2 }\n"
        "  fn h { a1 -> b9, a2 -> b2, zz -> b3 }\n}\n"
    )
    assert inst.table("g") == {"a1": "b1"}
    assert list(inst.table("f").items()) == [("a1", "b1"), ("a3", "b3"), ("a2", "b2")]
    assert list(inst.table("h").items()) == [("a1", "b9"), ("a2", "b2"), ("zz", "b3")]
    keys = {eid: eid for elems in inst.sets.values() for eid in elems}
    assert all(keys[eid] is eid and keys[image] is image for eid, image in inst.table("f").items())
    h = list(inst.table("h").items())
    assert keys["a1"] is h[0][0] and keys["b2"] is h[1][1] and keys["b3"] is h[2][1]


_BODY_SHAPES = ("in order", "reordered", "in order, partial", "reordered, partial")


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(1, 12),
    shape=st.sampled_from(_BODY_SHAPES),
    payloads=st.booleans(),
    data=st.data(),
)
def test_fn_bodies_over_their_set_in_any_order_parse_as_the_token_loop_does(
    count, shape, payloads, data
):
    # A body that lists its set in the set's order is built from that set;
    # one in another order, or over part of the set, is not.  Each parses as
    # the token loop parses it, and the in-order table's keys are the set's
    # own key objects.
    ids = [f"a{i}" for i in data.draw(st.permutations(range(1, count + 1)))]
    keys = ids
    if "reordered" in shape:
        keys = data.draw(st.permutations(ids))
    if "partial" in shape:
        keys = [eid for eid in keys if data.draw(st.booleans(), label=eid)] or keys[:1]
    images = [data.draw(st.sampled_from(["b1", "b2", "zz"])) for _ in keys]
    entries = ", ".join(f"{eid} = real 1.5" if payloads else eid for eid in ids)
    body = ", ".join(f"{eid} -> {image}" for eid, image in zip(keys, images))
    text = (
        f'instance "i" of "s" {{\n  set B {{ b1, b2 }}\n  set A {{ {entries} }}\n'
        f"  fn f {{ {body} }}\n}}\n"
    )
    assert _outcome(text) == _token_loop_outcome(text)
    inst = parse_instance(text)
    assert list(inst.table("f").items()) == list(zip(keys, images))
    if keys == ids:
        assert all(map(operator.is_, inst.table("f"), inst.elements("A")))


@pytest.mark.parametrize(
    "pattern, entry",
    [("_FN_BODY_RE", "a{i} -> b{i}"), ("_SET_BODY_RE", "a{i}"), ("_PAYLOAD_BODY_RE", "a{i} = real 1.5")],
)
def test_a_body_matches_without_backtracking_state_per_entry(pattern, entry):
    body = "{\n    " + ",\n    ".join(entry.format(i=i) for i in range(100_000)) + "\n  }"
    tracemalloc.start()
    try:
        match = getattr(dsl, pattern).match(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert match.end() == len(body)
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# property: a parse error is the first error met, and a lexical one is exact
# ---------------------------------------------------------------------------


def _first_bad_token(text):
    """The reference: lex the whole text and take its first bad token."""
    for match in dsl._TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            return match.start(), match.group()
    return None


_LEXEMES = [
    *"ab1e0_ -.>+\"#\\\n\t{}(),:=[]×é٩$ ", "->", "-->", "1.5", "-inf", "1e-3", "2e+", "..",
    '"x y"', "# c -> d\n",
]
# Openings that let the lexemes reach the rules inside a block.
_OPENINGS = [
    "", 'schema "t" {', 'schema "t" { box A "a" [', 'schema "t" { eq A..A : [',
    _HEAD, _HEAD + "  set X {", _HEAD + "  fn 1 {", _HEAD + "  set X { x = real ",
    _HEAD + "  set X { x = pair (", _HEAD + "  set X { x = graph {",
]


def _error(parse, text):
    try:
        parse(text, filename="f")
    except ParseError as exc:
        return type(exc), exc.span, exc.bare_message
    return None


@settings(max_examples=500, deadline=None)
@given(
    opening=st.sampled_from(_OPENINGS),
    pieces=st.lists(st.sampled_from(_LEXEMES), max_size=30),
)
def test_a_parse_error_is_the_first_error_met(opening, pieces):
    # Before the first bad token, the text lexes as its prefix does.  So the
    # error is the prefix's, unless the prefix parses or runs out, and then
    # it is the lexical error at that token.  Either way it lies at or before
    # the token, and a lexical message names exactly that token.
    text = opening + "".join(pieces)
    bad = _first_bad_token(text)
    for parse in (parse_schema, parse_instance):
        got = _error(parse, text)
        if bad is None:
            assert got is None or not got[2].startswith(
                ("unexpected character", "unterminated string")
            )
            continue
        at, char = bad
        before = _error(parse, text[:at])
        tokens = [match for match in dsl._TOKEN_RE.finditer(text, 0, at) if match.lastgroup]
        runs_out = dsl._span(text, "f", tokens[-1].end() if tokens else 0)
        if before is None or before[1] == runs_out:
            message = "unterminated string" if char == '"' else f"unexpected character {char!r}"
            assert got == (ParseError, dsl._span(text, "f", at), message)
        else:
            assert got == before


def test_a_grammar_error_early_in_a_large_file_lexes_little_of_it(bonded12, monkeypatch):
    text = serialize_instance(bonded12)
    lines = text.split("\n")
    lines[1] = lines[1].replace("set", "sett", 1)
    lexed = []

    class Counting:
        def finditer(self, text, pos=0):
            for match in token_re.finditer(text, pos):
                lexed.append(match)
                yield match

    token_re = dsl._TOKEN_RE
    monkeypatch.setattr(dsl, "_TOKEN_RE", Counting())
    with pytest.raises(ParseError) as exc:
        parse_instance("\n".join(lines))
    assert exc.value.bare_message == "expected 'set', 'fn' or '}', found 'sett'"
    tokens = sum(1 for match in token_re.finditer(text) if match.lastgroup)
    assert tokens > 40_000 and len(lexed) < tokens / 50
