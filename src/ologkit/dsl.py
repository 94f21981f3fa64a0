"""Text format for schemas and instances.

The format is whitespace-insensitive (newlines are just spacing), ``#`` starts
a comment that runs to end of line, identifiers are ``[A-Za-z0-9_]+``, and
strings are double-quoted with exactly two escapes: ``\\"`` and ``\\\\``.

Schema blocks::

    schema "chain-olog" {
      box A "an amino acid"
      arrow 1 : A -> E "has" [conjecture]
      eq A..F : [1,10] = [2] "optional note"
      pullback F = D ×[H] J proj (12, 13) legs (9, 26)
    }

Instance blocks::

    instance "protein" of "chain-olog" {
      set A { aa1 = real 23.45, aa2 }
      set Q { q1 = pair (20.55, 50.6), q2 = pair (inf, 20.6) }
      set H { h1 = graph { n1 -> n2, n3 } }
      set W { w1 = text "free text" }
      fn 1 { aa1 -> e1 }
    }

Real literals accept ``inf``/``-inf``; a bare exponent needs an explicit sign
(``1e+16``), since ``1e16`` would be indistinguishable from an identifier.

Serialization is canonical and byte-deterministic: declarations sorted by
natural key, empty sets and tables dropped, floats via ``repr``.  Parsing a
serialized document and serializing again reproduces it byte for byte.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Container, Iterator
from functools import lru_cache
from operator import countOf
from pathlib import Path as FsPath
from typing import TypeVar

from .errors import (
    DuplicateIdError,
    ParseError,
    SourceSpan,
    UnwritableInstanceError,
    UnwritableSchemaError,
)
from .graphs import Graph
from .instance import (
    GraphPayload,
    Instance,
    PairPayload,
    Payload,
    RealPayload,
    TextPayload,
)
from .ordering import natural_order
from .schema import (
    ArrowDecl,
    BoxDecl,
    FiberProductDecl,
    OlogSchema,
    Path,
    PathEquation,
    with_fiber_product_squares,
)

__all__ = [
    "parse_schema",
    "parse_instance",
    "load_schema",
    "load_instance",
    "read_source",
    "serialize_schema",
    "serialize_instance",
]

# A real literal as the lexer reads it; ``\d`` takes any Unicode digit.
_NUMBER = r"-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]\d+|-\d+|-inf"
# One match per token or per run of whitespace and comments; the run is the
# unnamed group, so its lastgroup is None.  ``bad`` catches any other
# character, so matches tile the text with no gaps.
_TOKEN_RE = re.compile(
    rf"""
      (?:\s|\#[^\n]*)+
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<number>{_NUMBER})
    | (?P<ident>[A-Za-z0-9_]+)
    | (?P<arrowsym>->)
    | (?P<dotdot>\.\.)
    | (?P<times>×)
    | (?P<punct>[{{}}()\[\]:=,])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")

# Set and fn blocks are read in runs (:meth:`_Parser._block_run`): a head
# ``set|fn ID``, then its body, one match each.  A body matches only in the
# list rule of :meth:`_Parser.listed`, ``{ (E ,)* E? }``.  A plain body holds
# ids, ``->``, commas and whitespace; its ids are what is left once the
# punctuation becomes spaces.  A set body with payloads matches entries ``ID
# (= payload)?``: ``real R``, ``pair (R, R)``, ``text "..."`` escaping only
# ``\"`` and ``\\``, or ``graph { N (-> N)?, ... }``, where R is the lexer's
# number, a run of ASCII digits or ``inf``.  The patterns read what the lexer
# reads: an id or keyword is a whole run of id characters, and where the
# lexer would read a number (``3e-4``, ``1e+5``, ``12.5``) the run is followed
# by ``-`` and a digit, ``+`` or ``.``, which they refuse.  They allow no
# comment, since inside one a pattern could take a ``}`` or ``,`` for a real
# one.  A refused block, or one repeating a block id, an element or a source,
# ends the run; the token loop, which owns every error message, reads it.
# An id run is never followed by an id character, so its repeat is
# possessive, as are the blank runs around a head and a body's ``->``: a match
# keeps no backtracking state for them, and accepts what greedy repeats accept.
_ID = r"[A-Za-z0-9_]++"
_ID_RE = re.compile(_ID)


def _listed(entry: str) -> str:
    """The list rule ``{ (E ,)* E? }`` as a pattern.  Its repeats are
    possessive, so a match keeps no backtracking state per entry (megabytes
    on a body of 100 000 entries).  They accept what greedy repeats accept:
    an entry that ended sooner would be followed by an id character, a blank
    or a payload, never by the comma or brace that must follow it."""
    return rf"\{{\s*+(?:{entry}\s*+,\s*+)*+(?:{entry}\s*+)?+\}}"


_REAL = rf"({_NUMBER}|[0-9]+|inf)"
_NODE = rf"{_ID}(?:\s*->\s*{_ID})?"
_ENTRY_RE = re.compile(
    rf"({_ID})(?:\s*=\s*(?:real\b\s*{_REAL}|pair\s*\(\s*{_REAL}\s*,\s*{_REAL}\s*\)"
    rf'|text\s*("(?:[^"\\\n]|\\["\\])*")'
    rf"|graph\s*({_listed(_NODE)})))?"
)
_NODE_RE = re.compile(rf"({_ID})(?:\s*->\s*({_ID}))?")
_HEAD_RE = re.compile(rf"\s*+(set|fn)\s++({_ID})\s*+")
_SET_BODY_RE = re.compile(_listed(_ID))
_FN_BODY_RE = re.compile(_listed(rf"{_ID}\s*+->\s*+{_ID}"))
_PAYLOAD_BODY_RE = re.compile(_listed(_ENTRY_RE.pattern))
_PUNCT_TO_SPACE = str.maketrans("{},->", "     ")


def _body_ids(body: re.Match[str]) -> list[str]:
    return body.group().translate(_PUNCT_TO_SPACE).split()


def _payload(real: str, first: str, second: str, text: str, graph: str) -> Payload | None:
    """The payload of one ``_ENTRY_RE`` match, built as the token loop builds it."""
    if real:
        return RealPayload(float(real))
    if first:
        return PairPayload(float(first), float(second))
    if text:
        return TextPayload(_ESCAPE_RE.sub(r"\1", text[1:-1]))
    if graph:
        entries = _NODE_RE.findall(graph)
        nodes = dict.fromkeys(node for entry in entries for node in entry if node)
        return GraphPayload(Graph(tuple(nodes), tuple(e for e in entries if e[1])))
    return None


def _span(text: str, filename: str, offset: int) -> SourceSpan:
    line = text.count("\n", 0, offset) + 1
    return SourceSpan(filename, line, offset - text.rfind("\n", 0, offset))


_T = TypeVar("_T")


class _Parser:
    """Recursive descent over text lexed one token ahead.

    ``kind`` and ``value`` are the current token's kind and text, ``kind``
    being None once input runs out.  ``pos`` is a text offset: the current
    token's start, or the end of the last token at end of input.  A character
    the lexer rejects becomes a ``bad`` token that no rule takes, so parsing
    stops on it, and :meth:`error` reports it as the lexical error it is.
    """

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        # One string per id, as a generated instance holds: each set's key
        # objects by id, and each set by (length, first key).
        self._view: dict[str, str] = {}
        self._sets: dict[tuple[int, str], dict[str, Payload | None]] = {}
        self._seek(0)

    # -- primitives --------------------------------------------------------

    def _seek(self, offset: int) -> None:
        """Lex on from ``offset``, where the last consumed token ended."""
        self._matches = _TOKEN_RE.finditer(self.text, offset)
        self._advance(offset)

    def _advance(self, end: int) -> None:
        """Make the next token current; ``end`` is where the last one ended."""
        for match in self._matches:
            if match.lastgroup:
                self.kind, self.value = match.lastgroup, match.group()
                self.pos = match.start()
                return
        self.kind, self.value, self.pos = None, "", end

    def span(self, offset: int) -> SourceSpan:
        return _span(self.text, self.filename, offset)

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.kind == kind and (text is None or self.value == text)

    def take(self, kind: str, text: str | None = None) -> str | None:
        """Consume the current token and return its text, if it matches."""
        if not self.at(kind, text):
            return None
        value = self.value
        self._advance(self.pos + len(value))
        return value

    def error(self, message: str) -> ParseError:
        """The error to raise at the current token: the lexer's, if it
        rejected the token, else ``message``."""
        if self.kind == "bad":
            message = (
                "unterminated string"
                if self.value == '"'
                else f"unexpected character {self.value!r}"
            )
        return ParseError(message, self.span(self.pos))

    def expect(self, kind: str, text: str | None = None, what: str = "") -> str:
        value = self.take(kind, text)
        if value is None:
            wanted = what or (text if text is not None else kind)
            found = "end of input" if self.kind is None else repr(self.value)
            raise self.error(f"expected {wanted}, found {found}")
        return value

    def unique(self, key: str, taken: Container[str], what: str, here: int) -> str:
        """``key``, unless ``taken`` holds it: then ``what`` is declared twice,
        an error at ``here``, the declaration's start."""
        if key in taken:
            raise DuplicateIdError(f"{what} {key!r} declared twice", self.span(here))
        return key

    def ident(self, what: str = "identifier") -> str:
        return self.expect("ident", what=what)

    def string(self, what: str = "string") -> str:
        here = self.pos
        body = self.expect("string", what=what)[1:-1]
        for match in _ESCAPE_RE.finditer(body):
            if match.group(1) not in '"\\':
                raise ParseError(
                    f"invalid escape \\{match.group(1)} in string", self.span(here)
                )
        return _ESCAPE_RE.sub(r"\1", body)

    # -- shared pieces ------------------------------------------------------

    def listed(self, close: str, item: Callable[[], _T]) -> list[_T]:
        """The one list rule, after the opening mark: ``(E (, E)* ,?)? close``."""
        items: list[_T] = []
        while not self.at("punct", close):
            items.append(item())
            if not self.take("punct", ","):
                break
        self.expect("punct", close)
        return items

    def pair(self, item: Callable[[], _T]) -> tuple[_T, _T]:
        """Exactly two items: ``( E , E )``, with no trailing comma."""
        self.expect("punct", "(")
        first = item()
        self.expect("punct", ",")
        second = item()
        self.expect("punct", ")")
        return first, second

    def tag_group(self) -> frozenset[str]:
        if not self.take("punct", "["):
            return frozenset()
        return frozenset(self.listed("]", lambda: self.ident("tag")))

    def path_literal(self, start_box: str) -> Path:
        self.expect("punct", "[", what="'[' starting a path")
        return Path(start_box, tuple(self.listed("]", lambda: self.ident("arrow id"))))

    # -- schema -------------------------------------------------------------

    def schema_block(self) -> OlogSchema:
        self.expect("ident", "schema")
        name = self.string("schema name")
        self.expect("punct", "{")

        boxes: dict[str, BoxDecl] = {}
        arrows: dict[str, ArrowDecl] = {}
        equations: list[PathEquation] = []
        eq_sites: list[tuple[int, str, str]] = []
        fps: dict[str, FiberProductDecl] = {}
        fp_sites: list[tuple[int, str, str, str]] = []

        while not self.at("punct", "}"):
            here = self.pos
            if self.kind is None:
                raise ParseError("unterminated schema block", self.span(here))
            if self.take("ident", "box"):
                box_id = self.ident("box id")
                label = self.string("box label")
                tags = self.tag_group()
                boxes[self.unique(box_id, boxes, "box", here)] = BoxDecl(box_id, label, tags)
            elif self.take("ident", "arrow"):
                arrow_id = self.ident("arrow id")
                self.expect("punct", ":")
                src = self.ident("source box")
                self.expect("arrowsym", what="'->'")
                dst = self.ident("target box")
                label = self.string() if self.at("string") else ""
                tags = self.tag_group()
                decl = ArrowDecl(arrow_id, src, dst, label, tags)
                arrows[self.unique(arrow_id, arrows, "arrow", here)] = decl
            elif self.take("ident", "eq"):
                start = self.ident("start box")
                self.expect("dotdot", what="'..'")
                end = self.ident("end box")
                self.expect("punct", ":")
                lhs = self.path_literal(start)
                self.expect("punct", "=")
                rhs = self.path_literal(start)
                note = self.string() if self.at("string") else ""
                equations.append(PathEquation(lhs, rhs, note))
                eq_sites.append((here, start, end))
            elif self.take("ident", "pullback"):
                apex = self.ident("apex box")
                self.expect("punct", "=")
                x = self.ident("first corner box")
                self.expect("times", what="'×'")
                self.expect("punct", "[")
                z = self.ident("cospan target box")
                self.expect("punct", "]")
                y = self.ident("second corner box")
                self.expect("ident", "proj")
                proj1, proj2 = self.pair(lambda: self.ident("projection arrow"))
                self.expect("ident", "legs")
                leg1, leg2 = self.pair(lambda: self.ident("leg arrow"))
                fp = FiberProductDecl(apex, proj1, proj2, leg1, leg2)
                fps[self.unique(apex, fps, "pullback for apex", here)] = fp
                fp_sites.append((here, x, y, z))
            else:
                raise self.error(f"expected a schema declaration, found {self.value!r}")
        self.expect("punct", "}")

        decls = (boxes.values(), arrows.values(), equations, fps.values())
        schema = OlogSchema(name, *map(tuple, decls))
        self._cross_check(schema, eq_sites, fp_sites)
        return with_fiber_product_squares(schema)

    def _cross_check(
        self,
        schema: OlogSchema,
        eq_sites: list[tuple[int, str, str]],
        fp_sites: list[tuple[int, str, str, str]],
    ) -> None:
        """Stated ends and corners must be those the arrows give, where they resolve."""
        resolved = zip(schema.equations, schema._resolution.sides, eq_sites)
        for eq, ends, (here, start, end) in resolved:
            for side, got in zip((eq.lhs, eq.rhs), ends):
                if isinstance(got, tuple) and got != (start, end):
                    raise ParseError(
                        f"path [{','.join(side.arrows)}] runs {got[0]}->{got[1]} "
                        f"but the equation declares {start}..{end}",
                        self.span(here),
                    )
        for fp, (here, x, y, z) in zip(schema.fiber_products, fp_sites):
            # one check per role, so an arrow named twice meets both of its roles
            stated = (
                (fp.proj1, fp.apex, x),
                (fp.proj2, fp.apex, y),
                (fp.leg1, x, z),
                (fp.leg2, y, z),
            )
            for arrow_id, want_src, want_dst in stated:
                decl = schema.arrow(arrow_id)
                if decl is None:
                    continue
                if (decl.src, decl.dst) != (want_src, want_dst):
                    raise ParseError(
                        f"pullback {fp.apex}: arrow {arrow_id} runs "
                        f"{decl.src}->{decl.dst}, but the declaration needs "
                        f"{want_src}->{want_dst}",
                        self.span(here),
                    )

    # -- instance -----------------------------------------------------------

    def instance_block(self) -> Instance:
        self.expect("ident", "instance")
        name = self.string("instance name")
        self.expect("ident", "of")
        schema_name = self.string("schema name")
        self.expect("punct", "{")

        sets: dict[str, dict[str, Payload | None]] = {}
        functions: dict[str, dict[str, str]] = {}

        while not self._block_run(sets, functions):
            here = self.pos
            if self.kind is None:
                raise ParseError("unterminated instance block", self.span(here))
            if self.take("ident", "set"):
                box_id = self.unique(self.ident("box id"), sets, "set block for box", here)
                sets[box_id] = self._set_entries(box_id)
            elif self.take("ident", "fn"):
                arrow_id = self.unique(
                    self.ident("arrow id"), functions, "fn block for arrow", here
                )
                functions[arrow_id] = self._fn_entries(arrow_id)
            else:
                raise self.error(f"expected 'set', 'fn' or '}}', found {self.value!r}")
        self.expect("punct", "}")
        return Instance(name, schema_name, sets, functions)

    def _block_run(self, sets: dict, functions: dict) -> bool:
        """Read whole blocks from the current token on, until the patterns
        refuse one; then lex on from there.  True if the token is ``}``."""
        text, end = self.text, self.pos
        while head := _HEAD_RE.match(text, end):
            kind, key = head.groups()
            blocks, body = (sets, self._set_body) if kind == "set" else (functions, self._fn_body)
            read = None if key in blocks else body(head.end())
            if read is None:
                break
            blocks[key], end = read
        if end != self.pos:
            self._seek(end)
        return self.at("punct", "}")

    def _set_body(self, pos: int) -> tuple[dict[str, Payload | None], int] | None:
        """A set body read in bulk from ``pos``, and its end; None if refused."""
        view = self._view
        body = _SET_BODY_RE.match(self.text, pos)
        if body:
            entries = _body_ids(body)
            elems: dict[str, Payload | None] = dict.fromkeys(map(view.setdefault, entries, entries))
        else:
            body = _PAYLOAD_BODY_RE.match(self.text, pos)
            if body is None:
                return None
            entries = _ENTRY_RE.findall(body.group())
            elems = {view.setdefault(eid, eid): _payload(*payload) for eid, *payload in entries}
        if len(elems) != len(entries):
            return None
        return self._shared_set(elems), body.end()

    def _fn_body(self, pos: int) -> tuple[dict[str, str], int] | None:
        """A fn body read in bulk from ``pos``, and its end; None if refused.
        Keys that list a set read before in its order, as canonical text lists
        them, are proven so by one list ``==``, which reads memory in order
        where a view lookup per key reads it at random; the table is then that
        set's copy, presized and keyed by its objects, with the images put in.
        Every other id is looked up in the view."""
        body = _FN_BODY_RE.match(self.text, pos)
        if body is None:
            return None
        ids = _body_ids(body)
        keys, images, view = ids[::2], ids[1::2], self._view
        elems = self._sets.get((len(keys), keys[0])) if keys else None
        if elems is not None and list(elems) == keys:
            table = elems.copy()  # presized, its keys hashed and shared already
            table.update(zip(elems, map(view.get, images, images)))
            return table, body.end()
        table = dict(zip(map(view.get, keys, keys), map(view.get, images, images)))
        return (table, body.end()) if 2 * len(table) == len(ids) else None

    def _shared_set(self, elems: dict[str, Payload | None]) -> dict[str, Payload | None]:
        """``elems``, whose keys the view gave or took in one ``setdefault``
        each, remembered for the fn bodies read after it: the set itself, not a
        copy of its keys, as the serializer's memo does."""
        if elems:
            self._sets[len(elems), next(iter(elems))] = elems
        return elems

    def _set_entries(self, box_id: str) -> dict[str, Payload | None]:
        elems: dict[str, Payload | None] = {}
        view = self._view

        def entry() -> None:
            here = self.pos
            eid = self.ident("element id")
            payload = self._payload() if self.take("punct", "=") else None
            if eid in elems:
                raise DuplicateIdError(
                    f"element {eid!r} listed twice in box {box_id}", self.span(here)
                )
            elems[view.setdefault(eid, eid)] = payload

        self.expect("punct", "{")
        self.listed("}", entry)
        return self._shared_set(elems)

    def _fn_entries(self, arrow_id: str) -> dict[str, str]:
        table: dict[str, str] = {}
        view = self._view

        def entry() -> None:
            here = self.pos
            src = self.ident("element id")
            self.expect("arrowsym", what="'->'")
            dst = self.ident("element id")
            if src in table:
                raise DuplicateIdError(
                    f"element {src!r} mapped twice by arrow {arrow_id}", self.span(here)
                )
            table[view.get(src, src)] = view.get(dst, dst)

        self.expect("punct", "{")
        self.listed("}", entry)
        return table

    def _payload(self) -> Payload:
        here = self.pos
        kind = self.ident("payload kind (real/pair/graph/text)")
        if kind == "real":
            return RealPayload(self._real_value())
        if kind == "pair":
            return PairPayload(*self.pair(self._real_value))
        if kind == "graph":
            return GraphPayload(self._graph_value())
        if kind == "text":
            return TextPayload(self.string("text value"))
        raise ParseError(f"unknown payload kind {kind!r}", self.span(here))

    def _real_value(self) -> float:
        value = self.value
        if self.kind == "number" or (
            self.kind == "ident" and (value == "inf" or value.isdigit())
        ):
            self.take(self.kind)
            return float(value)
        raise self.error("expected a real value")

    def _graph_value(self) -> Graph:
        nodes: dict[str, None] = {}  # first-seen order
        edges: list[tuple[str, str]] = []

        def entry() -> None:
            src = self.ident("node id")
            nodes[src] = None
            if self.take("arrowsym"):
                dst = self.ident("node id")
                nodes[dst] = None
                edges.append((src, dst))

        self.expect("punct", "{")
        self.listed("}", entry)
        return Graph(tuple(nodes), tuple(edges))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


_Block = TypeVar("_Block", OlogSchema, Instance)


def _parse(text: str, filename: str, block: Callable[[_Parser], _Block]) -> _Block:
    """Parse one block that must end the text; the first error met is raised."""
    parser = _Parser(text, filename)
    result = block(parser)
    if parser.kind is not None:
        raise parser.error(f"unexpected trailing content {parser.value!r}")
    return result


@lru_cache(maxsize=16)  # distinct schema documents kept; a process reads a few
def parse_schema(text: str, filename: str = "<string>") -> OlogSchema:
    """Parse a document holding exactly one schema block.

    The schema is immutable, so equal ``(text, filename)`` returns one shared
    schema per process: a command or library call that reads a document an
    earlier one already parsed pays no parse.  A one-shot ``olog`` run parses
    once either way.  Errors are not kept, so a bad document raises on every
    call, with that call's filename in the span.
    """
    return _parse(text, filename, _Parser.schema_block)


def parse_instance(text: str, filename: str = "<string>") -> Instance:
    """Parse a document holding exactly one instance block."""
    return _parse(text, filename, _Parser.instance_block)


def read_source(path: str | FsPath) -> str:
    """A file's text, newlines translated as ``Path.read_text`` does.  A byte
    that is not UTF-8 is a parse error at the first such byte."""
    data = FsPath(path).read_bytes()
    if b"\r" in data:  # a far faster scan than replace, which finds none
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        span = _span(before, str(path), len(before))
        raise ParseError(f"invalid UTF-8 byte {data[exc.start]:#04x}", span) from None


def load_schema(path: str | FsPath) -> OlogSchema:
    fspath = FsPath(path)
    return parse_schema(read_source(fspath), str(fspath))


def load_instance(path: str | FsPath) -> Instance:
    fspath = FsPath(path)
    return parse_instance(read_source(fspath), str(fspath))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _raw_break(text: str) -> str:
    """Which raw line break ``text`` holds, as an error names it, or "".  A
    string in the text holds neither: a newline ends it, and reading a file
    turns a carriage return into a newline."""
    for char, name in (("\n", "newline"), ("\r", "carriage return")):
        if char in text:
            return f"a raw {name}"
    return ""


def _tag_suffix(tags: frozenset[str]) -> str:
    if not tags:
        return ""
    return " [" + ", ".join(sorted(tags)) + "]"


def _words(s: OlogSchema) -> Iterator[tuple[str, tuple[str, ...], dict[str, str]]]:
    """Each declaration as the text names it, the ids it writes, and its strings."""
    yield "schema", (), {"name": s.name}
    for box in s.boxes:
        yield f"box {box.id}", (box.id, *box.tags), {"label": box.label}
    for arrow in s.arrows:
        ids = (arrow.id, arrow.src, arrow.dst, *arrow.tags)
        yield f"arrow {arrow.id}", ids, {"label": arrow.label}
    for fp in s.fiber_products:
        yield f"pullback {fp.apex}", (fp.apex, fp.proj1, fp.proj2, fp.leg1, fp.leg2), {}
    for eq in s.equations:
        ids = (eq.lhs.start, eq.rhs.start, *eq.lhs.arrows, *eq.rhs.arrows)
        yield f"equation {eq} from {eq.lhs.start}", ids, {"note": eq.note}


def _refuse_unwritable_words(s: OlogSchema) -> None:
    """Raise UnwritableSchemaError naming the first declaration that holds an
    id that is not an identifier, or a name, label or note with a raw line break.
    Pullbacks come before equations, so a pullback is named before its square."""
    for owner, ids, texts in _words(s):
        for ident in ids:
            if _ID_RE.fullmatch(ident) is None:
                raise UnwritableSchemaError(
                    f"{owner} cannot be written: {ident!r} is not an identifier"
                )
        for what, text in texts.items():
            if held := _raw_break(text):
                raise UnwritableSchemaError(f"{owner} cannot be written: its {what} holds {held}")


def serialize_schema(schema: OlogSchema) -> str:
    """Canonical text for a schema (sorted declarations, stable bytes).

    Missing fiber-product squares are written, as the parser adds them.  An id
    declared twice, an id that is not an identifier, a name, label or note
    holding a raw newline or carriage return, an equation whose sides the
    text cannot state, or a pullback whose arrows give no corners raises
    UnwritableSchemaError naming the declaration: no text parses back.
    """
    s = with_fiber_product_squares(schema).canonical()
    for diag in s._diagnostics:
        if diag.code in ("DUP_BOX_ID", "DUP_ARROW_ID", "DUP_FP_APEX"):
            raise UnwritableSchemaError(f"schema cannot be written: {diag.message}")
    _refuse_unwritable_words(s)
    lines = [f"schema {_quote(s.name)} {{"]
    for box in s.boxes:
        lines.append(f"  box {box.id} {_quote(box.label)}{_tag_suffix(box.tags)}")
    for arrow in s.arrows:
        label = f" {_quote(arrow.label)}" if arrow.label else ""
        lines.append(
            f"  arrow {arrow.id} : {arrow.src} -> {arrow.dst}{label}"
            f"{_tag_suffix(arrow.tags)}"
        )
    for eq, (lhs, rhs) in zip(s.equations, s._resolution.sides):
        unwritable = f"equation {eq} from {eq.lhs.start} cannot be written"
        if not isinstance(lhs, tuple):
            raise UnwritableSchemaError(f"{unwritable}: {lhs.message}")
        start, end = lhs
        # the text starts both sides at the left's start; the parser checks a side that resolves
        if eq.rhs.start != start or isinstance(rhs, tuple) and rhs != lhs:
            raise UnwritableSchemaError(f"{unwritable}: its right side does not run {start}->{end}")
        note = f" {_quote(eq.note)}" if eq.note else ""
        lines.append(f"  eq {start}..{end} : {eq}{note}")
    for fp, corners in zip(s.fiber_products, s._resolution.corners):
        if isinstance(corners, str):
            raise UnwritableSchemaError(f"pullback {fp.apex} cannot be written: {corners}")
        x, y, z = corners
        lines.append(
            f"  pullback {fp.apex} = {x} ×[{z}] {y} "
            f"proj ({fp.proj1}, {fp.proj2}) legs ({fp.leg1}, {fp.leg2})"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


_ENTRY_SEP = ",\n    "  # between the entries of a set or fn body


def _real_lit(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def _graph_lit(graph: Graph) -> str:
    g = graph.canonical()
    covered = {node for edge in g.edges for node in edge}
    parts = [f"{a} -> {b}" for a, b in g.edges]
    parts.extend(node for node in g.nodes if node not in covered)
    return "graph { " + ", ".join(parts) + " }" if parts else "graph {}"


def _payload_lit(payload: Payload) -> str:
    if isinstance(payload, RealPayload):
        return f"real {_real_lit(payload.value)}"
    if isinstance(payload, PairPayload):
        return f"pair ({_real_lit(payload.first)}, {_real_lit(payload.second)})"
    if isinstance(payload, GraphPayload):
        return _graph_lit(payload.graph)
    if isinstance(payload, TextPayload):
        return f"text {_quote(payload.text)}"
    raise TypeError(f"unknown payload {payload!r}")


def _entry(box_id: str, eid: str, payload: Payload) -> str:
    """A set body's entry for an element with a payload; UnwritableInstanceError
    naming the set and element when its text holds a raw line break."""
    if isinstance(payload, TextPayload) and (held := _raw_break(payload.text)):
        raise UnwritableInstanceError(
            f"set {box_id} cannot be written: the text of {eid} holds {held}"
        )
    return f"{eid} = {_payload_lit(payload)}"


def serialize_instance(instance: Instance) -> str:
    """Canonical text for an instance (sorted, empties dropped, stable bytes).

    Boxes, arrows and the ids within each are written in natural-key order,
    through :func:`natural_order`, and each key order is proven once per
    call: a table whose keys equal a box's or another table's reuses that
    order (one list ``==``, an identity test per id when the strings are
    shared, as in generated instances). No copy of the instance is built: each
    body is one join over its ids or pairs, where only payload entries are
    formatted one by one, and the document is one join over its pieces, so
    no body is copied again.  An instance name, schema name or text payload
    holding a raw newline or carriage return raises UnwritableInstanceError
    naming where it sits: no text reads back.
    """
    # (key count, first key) -> a dict with those keys, and their order
    proven: dict[tuple[int, str], tuple[dict, list[str] | None]] = {}

    def reorder(keyed: dict) -> list[str] | None:
        """``natural_order(keyed)``, or None when that is its own order.
        Holds the dicts, not copies of their keys, so no key list outlives
        its comparison."""
        keys = list(keyed)
        known = proven.get((len(keys), keys[0]))
        if known is None or list(known[0]) != keys:
            ordered = natural_order(keys)
            known = proven[len(keys), keys[0]] = (keyed, None if ordered == keys else ordered)
        return known[1]

    for what, text in (("name", instance.name), ("schema name", instance.schema_name)):
        if held := _raw_break(text):
            raise UnwritableInstanceError(f"instance cannot be written: its {what} holds {held}")
    sets, functions = instance.sets, instance.functions
    pieces = [f"instance {_quote(instance.name)} of {_quote(instance.schema_name)} {{\n"]
    for box_id in natural_order(sets):
        elems = sets[box_id]
        if not elems:
            continue
        ids = reorder(elems) or elems
        if countOf(elems.values(), None) != len(elems):
            ids = [
                eid if (payload := elems[eid]) is None else _entry(box_id, eid, payload)
                for eid in ids
            ]
        pieces += (f"  set {box_id} {{\n    ", _ENTRY_SEP.join(ids), "\n  }\n")
    for arrow_id in natural_order(functions):
        table = functions[arrow_id]
        if not table:
            continue
        # in the table's own order its items are the pairs; else look each image up
        ordered = reorder(table)
        if ordered is None:
            pairs = table.items()
        else:
            pairs = zip(ordered, map(table.__getitem__, ordered))
        body = _ENTRY_SEP.join(map(" -> ".join, pairs))
        pieces += (f"  fn {arrow_id} {{\n    ", body, "\n  }\n")
    pieces.append("}\n")
    return "".join(pieces)
