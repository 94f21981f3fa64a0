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
from collections.abc import Callable
from pathlib import Path as FsPath
from typing import TypeVar

from .errors import DuplicateIdError, MalformedPathError, ParseError, SourceSpan
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
    path_endpoints,
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

# One match per token or per run of whitespace and comments; the run is the
# unnamed group, so its lastgroup is None.  ``bad`` catches any other
# character, so matches tile the text with no gaps.
_TOKEN_RE = re.compile(
    r"""
      (?:\s|\#[^\n]*)+
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<number>-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]\d+|-\d+|-inf)
    | (?P<ident>[A-Za-z0-9_]+)
    | (?P<arrowsym>->)
    | (?P<dotdot>\.\.)
    | (?P<times>×)
    | (?P<punct>[{}()\[\]:=,])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")

# Set and fn bodies that hold only ids, ``->``, commas and whitespace, in the
# list rule of :meth:`_Parser.listed`, written ``{ (E ,)* E? }``, are read in
# one match: their ids are what is left once the punctuation becomes
# spaces.  The lexer reads the same ids there.  Each is a whole run of id
# characters, and where the lexer would read a number instead (``3e-4``,
# ``1e+5``, ``12.5``) the run is followed by ``-`` and a digit, ``+`` or
# ``.``, which the patterns refuse.  They allow no comment, since inside one
# a pattern could take a ``}`` or ``,`` for a real one.  Every other body goes
# through ``listed``, which owns every error message.
_ID = r"[A-Za-z0-9_]+"


def _body_re(entry: str) -> re.Pattern[str]:
    return re.compile(rf"\{{\s*(?:{entry}\s*,\s*)*(?:{entry}\s*)?\}}")


_SET_BODY_RE = _body_re(_ID)
_FN_BODY_RE = _body_re(rf"{_ID}\s*->\s*{_ID}")
_PUNCT_TO_SPACE = str.maketrans("{},->", "     ")


def _body_ids(body: re.Match[str]) -> list[str]:
    return body.group().translate(_PUNCT_TO_SPACE).split()


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

        boxes: list[BoxDecl] = []
        arrows: list[ArrowDecl] = []
        equations: list[PathEquation] = []
        eq_sites: list[tuple[int, str, str]] = []
        fps: list[FiberProductDecl] = []
        fp_sites: list[tuple[int, str, str, str]] = []
        box_ids: set[str] = set()
        arrow_ids: set[str] = set()
        apexes: set[str] = set()

        while not self.at("punct", "}"):
            here = self.pos
            if self.kind is None:
                raise ParseError("unterminated schema block", self.span(here))
            if self.take("ident", "box"):
                box_id = self.ident("box id")
                label = self.string("box label")
                tags = self.tag_group()
                if box_id in box_ids:
                    raise DuplicateIdError(
                        f"box {box_id!r} declared twice", self.span(here)
                    )
                box_ids.add(box_id)
                boxes.append(BoxDecl(box_id, label, tags))
            elif self.take("ident", "arrow"):
                arrow_id = self.ident("arrow id")
                self.expect("punct", ":")
                src = self.ident("source box")
                self.expect("arrowsym", what="'->'")
                dst = self.ident("target box")
                label = self.string() if self.at("string") else ""
                tags = self.tag_group()
                if arrow_id in arrow_ids:
                    raise DuplicateIdError(
                        f"arrow {arrow_id!r} declared twice", self.span(here)
                    )
                arrow_ids.add(arrow_id)
                arrows.append(ArrowDecl(arrow_id, src, dst, label, tags))
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
                if apex in apexes:
                    raise DuplicateIdError(
                        f"pullback for apex {apex!r} declared twice", self.span(here)
                    )
                apexes.add(apex)
                fps.append(FiberProductDecl(apex, proj1, proj2, leg1, leg2))
                fp_sites.append((here, x, y, z))
            else:
                raise self.error(f"expected a schema declaration, found {self.value!r}")
        self.expect("punct", "}")

        schema = OlogSchema(name, tuple(boxes), tuple(arrows), tuple(equations), tuple(fps))
        self._cross_check_eqs(schema, eq_sites)
        self._cross_check_fps(schema, fp_sites)
        return with_fiber_product_squares(schema)

    def _cross_check_eqs(
        self, schema: OlogSchema, eq_sites: list[tuple[int, str, str]]
    ) -> None:
        for eq, (here, start, end) in zip(schema.equations, eq_sites):
            for side in (eq.lhs, eq.rhs):
                try:
                    got = path_endpoints(schema, side)
                except MalformedPathError:
                    continue  # undeclared pieces: schema validation reports those
                if got != (start, end):
                    raise ParseError(
                        f"path [{','.join(side.arrows)}] runs {got[0]}->{got[1]} "
                        f"but the equation declares {start}..{end}",
                        self.span(here),
                    )

    def _cross_check_fps(
        self, schema: OlogSchema, fp_sites: list[tuple[int, str, str, str]]
    ) -> None:
        for fp, (here, x, y, z) in zip(schema.fiber_products, fp_sites):
            stated = {
                fp.proj1: (fp.apex, x),
                fp.proj2: (fp.apex, y),
                fp.leg1: (x, z),
                fp.leg2: (y, z),
            }
            for arrow_id, (want_src, want_dst) in stated.items():
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

        while not self.at("punct", "}"):
            here = self.pos
            if self.kind is None:
                raise ParseError("unterminated instance block", self.span(here))
            if self.take("ident", "set"):
                box_id = self.ident("box id")
                if box_id in sets:
                    raise DuplicateIdError(
                        f"set block for box {box_id!r} declared twice", self.span(here)
                    )
                sets[box_id] = self._set_entries(box_id)
            elif self.take("ident", "fn"):
                arrow_id = self.ident("arrow id")
                if arrow_id in functions:
                    raise DuplicateIdError(
                        f"fn block for arrow {arrow_id!r} declared twice",
                        self.span(here),
                    )
                functions[arrow_id] = self._fn_entries(arrow_id)
            else:
                raise self.error(f"expected 'set', 'fn' or '}}', found {self.value!r}")
        self.expect("punct", "}")
        return Instance(name, schema_name, sets, functions)

    def _set_entries(self, box_id: str) -> dict[str, Payload | None]:
        body = _SET_BODY_RE.match(self.text, self.pos)
        if body:
            ids = _body_ids(body)
            elems: dict[str, Payload | None] = dict.fromkeys(ids)
            if len(elems) == len(ids):  # else an id repeats: the loop reports it
                self._seek(body.end())
                return elems
        elems = {}

        def entry() -> None:
            here = self.pos
            eid = self.ident("element id")
            payload = self._payload() if self.take("punct", "=") else None
            if eid in elems:
                raise DuplicateIdError(
                    f"element {eid!r} listed twice in box {box_id}", self.span(here)
                )
            elems[eid] = payload

        self.expect("punct", "{")
        self.listed("}", entry)
        return elems

    def _fn_entries(self, arrow_id: str) -> dict[str, str]:
        body = _FN_BODY_RE.match(self.text, self.pos)
        if body:
            ids = _body_ids(body)
            table: dict[str, str] = dict(zip(ids[::2], ids[1::2]))
            if 2 * len(table) == len(ids):  # else a source repeats: the loop reports it
                self._seek(body.end())
                return table
        table = {}

        def entry() -> None:
            here = self.pos
            src = self.ident("element id")
            self.expect("arrowsym", what="'->'")
            dst = self.ident("element id")
            if src in table:
                raise DuplicateIdError(
                    f"element {src!r} mapped twice by arrow {arrow_id}", self.span(here)
                )
            table[src] = dst

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


def parse_schema(text: str, filename: str = "<string>") -> OlogSchema:
    """Parse a document holding exactly one schema block."""
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
    if "\n" in text:
        raise ValueError("strings in the text format cannot contain raw newlines")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _tag_suffix(tags: frozenset[str]) -> str:
    if not tags:
        return ""
    return " [" + ", ".join(sorted(tags)) + "]"


def _path_lit(path: Path) -> str:
    return "[" + ",".join(path.arrows) + "]"


def serialize_schema(schema: OlogSchema) -> str:
    """Canonical text for a schema (sorted declarations, stable bytes)."""
    s = schema.canonical()
    lines = [f"schema {_quote(s.name)} {{"]
    for box in s.boxes:
        lines.append(f"  box {box.id} {_quote(box.label)}{_tag_suffix(box.tags)}")
    for arrow in s.arrows:
        label = f" {_quote(arrow.label)}" if arrow.label else ""
        lines.append(
            f"  arrow {arrow.id} : {arrow.src} -> {arrow.dst}{label}"
            f"{_tag_suffix(arrow.tags)}"
        )
    for eq in s.equations:
        try:
            start, end = path_endpoints(s, eq.lhs)
        except MalformedPathError:
            start, end = eq.lhs.start, "?"
        note = f" {_quote(eq.note)}" if eq.note else ""
        lines.append(
            f"  eq {start}..{end} : {_path_lit(eq.lhs)} = {_path_lit(eq.rhs)}{note}"
        )
    for fp in s.fiber_products:
        proj1 = s.arrow(fp.proj1)
        proj2 = s.arrow(fp.proj2)
        leg1 = s.arrow(fp.leg1)
        x = proj1.dst if proj1 else "?"
        y = proj2.dst if proj2 else "?"
        z = leg1.dst if leg1 else "?"
        lines.append(
            f"  pullback {fp.apex} = {x} ×[{z}] {y} "
            f"proj ({fp.proj1}, {fp.proj2}) legs ({fp.leg1}, {fp.leg2})"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def serialize_instance(instance: Instance) -> str:
    """Canonical text for an instance (sorted, empties dropped, stable bytes).

    Boxes, arrows and the ids within each are written in natural-key order,
    through :func:`natural_order`. No copy of the instance is built.
    """
    sets, functions = instance.sets, instance.functions
    lines = [f"instance {_quote(instance.name)} of {_quote(instance.schema_name)} {{"]
    for box_id in natural_order(sets):
        elems = sets[box_id]
        if not elems:
            continue
        lines.append(f"  set {box_id} {{")
        entries = []
        for eid in natural_order(elems):
            payload = elems[eid]
            entries.append(
                f"    {eid}" if payload is None else f"    {eid} = {_payload_lit(payload)}"
            )
        lines.append(",\n".join(entries))
        lines.append("  }")
    for arrow_id in natural_order(functions):
        table = functions[arrow_id]
        if not table:
            continue
        lines.append(f"  fn {arrow_id} {{")
        lines.append(",\n".join(f"    {src} -> {table[src]}" for src in natural_order(table)))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
