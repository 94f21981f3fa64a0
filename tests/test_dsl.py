import hashlib
import math
import random
import re
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ologkit.dsl as dsl
import ologkit.instance
import ologkit.ordering
from ologkit import (
    ArrowDecl,
    BoxDecl,
    DuplicateIdError,
    FiberProductDecl,
    Graph,
    GraphPayload,
    Instance,
    OlogSchema,
    PROTEIN_DEFAULTS,
    SOCIAL_MATCHED_DEFAULTS,
    PairPayload,
    SimParams,
    ParseError,
    PathEquation,
    RealPayload,
    TextPayload,
    bundled_schema,
    bundled_text,
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
from ologkit.schema import Path, path_endpoints

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
    params = SimParams(
        brick_count=6, brick_failure=100.0, lifeline_present=True, lifeline_failure=110.0
    )
    text = serialize_instance(generate_instance(params, bundled_schema()))
    blocks = re.finditer(r"\n  (?:set|fn) \w+ (\{.*?\n  \})", text, re.S)
    bodies = [block.span(1) for block in blocks]
    id_only = [(a, b) for a, b in bodies if "=" not in text[a:b]]
    with_payloads = [(a, b) for a, b in bodies if "=" in text[a:b]]

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
    assert not [pos for pos in taken_at for a, b in id_only if a <= pos < b]
    outside = [pos for pos in taken_at if not any(a <= pos < b for a, b in with_payloads)]
    assert len(outside) <= 4 * len(bodies) + 8


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
    params = SimParams(
        brick_count=bricks,
        brick_failure=100.0,
        lifeline_present=True,
        lifeline_failure=110.0,
        domain=domain,
    )
    text = serialize_instance(generate_instance(params, bundled_schema()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.fixture(scope="module")
def bonded12():
    params = SimParams(
        brick_count=12, brick_failure=100.0, lifeline_present=True, lifeline_failure=110.0
    )
    return generate_instance(params, bundled_schema())


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
_labels = st.text(
    alphabet=st.characters(
        min_codepoint=32, max_codepoint=0x24F, blacklist_characters='"\\\n'
    ),
    max_size=20,
).map(lambda t: t + "x")  # never empty, so optional-label round trips stay exact
_quoted = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x24F),
    max_size=20,
)
_tags = st.frozensets(_ids, max_size=2)
_reals = st.floats(allow_nan=False)


@st.composite
def _schemas(draw):
    box_ids = draw(st.lists(_ids, min_size=1, max_size=5, unique=True))
    boxes = tuple(BoxDecl(b, draw(_labels), draw(_tags)) for b in box_ids)
    arrow_ids = draw(st.lists(_ids, max_size=6, unique=True))
    arrows = [
        ArrowDecl(
            a,
            draw(st.sampled_from(box_ids)),
            draw(st.sampled_from(box_ids)),
            draw(st.one_of(st.just(""), _labels)),
            draw(_tags),
        )
        for a in arrow_ids
    ]

    schema = OlogSchema("seed", boxes, tuple(arrows))
    by_endpoints: dict[tuple[str, str], list[Path]] = {}
    frontier = [Path(b, ()) for b in box_ids]
    for b in box_ids:
        by_endpoints.setdefault((b, b), []).append(Path(b, ()))
    for _ in range(3):
        nxt = []
        for p in frontier:
            _, end = path_endpoints(schema, p)
            for a in arrows:
                if a.src == end:
                    q = Path(p.start, p.arrows + (a.id,))
                    nxt.append(q)
                    by_endpoints.setdefault(path_endpoints(schema, q), []).append(q)
        frontier = nxt
    eqs = []
    pools = [ps for ps in by_endpoints.values() if len(ps) >= 2]
    for _ in range(draw(st.integers(0, 2))):
        if not pools:
            break
        pool = draw(st.sampled_from(pools))
        lhs, rhs = (draw(st.sampled_from(pool)) for _ in range(2))
        eqs.append(PathEquation(lhs, rhs, draw(st.one_of(st.just(""), _labels))))

    fps = ()
    if draw(st.booleans()):
        apex, x, y, z = (draw(st.sampled_from(box_ids)) for _ in range(4))
        arrows += [
            ArrowDecl("PR1", apex, x),
            ArrowDecl("PR2", apex, y),
            ArrowDecl("LG1", x, z),
            ArrowDecl("LG2", y, z),
        ]
        fps = (FiberProductDecl(apex, "PR1", "PR2", "LG1", "LG2"),)

    return with_fiber_product_squares(
        OlogSchema(draw(_quoted), boxes, tuple(arrows), tuple(eqs), fps)
    )


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


@settings(max_examples=120, deadline=None)
@given(schema=_schemas())
def test_schema_serialization_is_byte_stable(schema):
    text = serialize_schema(schema)
    reparsed = parse_schema(text)
    assert serialize_schema(reparsed) == text


@settings(max_examples=120, deadline=None)
@given(instance=_instances())
def test_instance_serialization_is_byte_stable(instance):
    text = serialize_instance(instance)
    reparsed = parse_instance(text)
    assert serialize_instance(reparsed) == text
    # a second pass stays put as well
    assert serialize_instance(parse_instance(serialize_instance(reparsed))) == text


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

_BONDED_2 = serialize_instance(
    generate_instance(
        SimParams(
            brick_count=2, brick_failure=100.0, lifeline_present=True, lifeline_failure=110.0
        ),
        bundled_schema(),
    )
)
_HAND_WRITTEN = (
    'instance "d" of "s" {\n  set A { a1 = real 1.5, a2, }\n  set B {b1,b2}\n'
    "  fn put { a1 -> b1, a2->b2, }\n  fn q {\n    x -> y,\n    z -> w\n  }\n"
    "  set C {}\n}\n"
)
_PIECES = ["#", "# } -> ,\n", "->", "}", "{", ",", "3e-4", '"', "é", " ", "\x1f", "\u2028"]
_EDITS = ["delete", "insert", "duplicate line"]
_edits = st.lists(
    st.tuples(st.sampled_from(_EDITS), st.integers(0, 3000), st.sampled_from(_PIECES)),
    max_size=3,
)


def _mutate(text, edits):
    for op, at, piece in edits:
        at %= len(text) + 1
        if op == "delete":
            text = text[:at] + text[at + 1 :]
        elif op == "insert":
            text = text[:at] + piece + text[at:]
        else:
            lines = text.split("\n")
            lines.insert(at % len(lines), lines[at % len(lines)])
            text = "\n".join(lines)
    return text


def _outcome(text):
    try:
        inst = parse_instance(text, filename="f.oinst")
    except ParseError as exc:
        return type(exc), exc.span.line, exc.span.column, exc.bare_message
    return inst.name, [(k, list(v.items())) for k, v in inst.sets.items()], [
        (k, list(v.items())) for k, v in inst.functions.items()
    ]


_NEVER = re.compile(r"(?!)")


def _token_loop_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_SET_BODY_RE", _NEVER)
        mp.setattr(dsl, "_FN_BODY_RE", _NEVER)
        return _outcome(text)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([_BONDED_2, _HAND_WRITTEN]), edits=_edits)
def test_bulk_bodies_parse_as_the_token_loop_does(base, edits):
    text = _mutate(base, edits)
    assert _outcome(text) == _token_loop_outcome(text)


def test_mutated_documents_reach_bulk_and_token_loop_bodies(monkeypatch):
    # The edits above must leave some bodies to bulk reading and send some
    # bodies without payloads back to the token loop.
    reached = {"bulk": 0, "token loop": 0}

    class Counting:
        def __init__(self, pattern):
            self.pattern = pattern

        def match(self, text, pos):
            body = self.pattern.match(text, pos)
            if body is not None:
                reached["bulk"] += 1
            elif "=" not in text[pos : text.find("}", pos)]:
                reached["token loop"] += 1
            return body

    monkeypatch.setattr(dsl, "_SET_BODY_RE", Counting(dsl._SET_BODY_RE))
    monkeypatch.setattr(dsl, "_FN_BODY_RE", Counting(dsl._FN_BODY_RE))
    rng = random.Random(0)
    for _ in range(100):
        edits = [
            (rng.choice(_EDITS), rng.randrange(3000), rng.choice(_PIECES))
            for _ in range(rng.randint(1, 3))
        ]
        _outcome(_mutate(_BONDED_2, edits))
    assert reached["bulk"] > 0 and reached["token loop"] > 0


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
