"""Seeded inputs shared by the property tests and ``scripts/differential.py``.

Each generator takes a ``random.Random`` (in a property test, Hypothesis's
``st.randoms(use_true_random=False)``, so its draws still shrink) and
returns plain data: lists, dicts and strings, which the differential writes
to its JSON corpus.  The ``build_*`` functions and :func:`chain` turn that
data into ologkit objects.  They take the ``ologkit`` module as an argument,
so the differential's worker builds with the tree it runs, and they use only
names that every revision it compares has.  Standard library only.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# random pairs of small instances, for the iso search
# ---------------------------------------------------------------------------

_PAYLOAD_KINDS = ("none", "real", "pair", "text")
ID_POOL = ("", "x1", "x2", "x10", "b1", "b01", "y")


def _natural_key(ident: str) -> tuple:
    """ologkit's natural key on ASCII ids: digit runs compare by value."""
    return tuple(
        (0, len(run.lstrip("0")), run.lstrip("0")) if run.isdigit() else (1, run)
        for run in re.findall(r"\d+|\D+", ident)
    )


def random_pair(rng) -> dict:
    """A random small schema and two instances of it, often near-isomorphic.

    Tables may be partial, send elements outside the target box (an explicit
    None among them), or carry sources outside the source box; payload kinds
    may mix within a box; boxes may be empty; arrows may be self-arrows; ids
    include "".  Boxes are listed in natural-key order, as canonical text
    lists them, or not, and tables in their box's order; b is often a
    relabelled copy of a, and then sometimes a copy with every id kept.
    """
    box_ids = ["X", "Y", "Z"][: rng.randint(1, 3)]
    arrows = [
        [f"f{j}", rng.choice(box_ids), rng.choice(box_ids), ""] for j in range(rng.randint(1, 4))
    ]

    def instance() -> dict:
        mixed = rng.random() < 0.2
        ordered = rng.random() < 0.5
        sets = {}
        for box_id in box_ids:
            kind = rng.choice(_PAYLOAD_KINDS)
            ids = rng.sample(ID_POOL, rng.randint(0, 5))
            sets[box_id] = {
                eid: rng.choice(_PAYLOAD_KINDS) if mixed else kind
                for eid in (sorted(ids, key=_natural_key) if ordered else ids)
            }
        functions = {}
        for arrow_id, src, dst, _ in arrows:
            targets = list(sets[dst]) if rng.random() < 0.9 else list(ID_POOL)
            table = {
                eid: rng.choice(targets) for eid in sets[src] if rng.random() < 0.9 and targets
            }
            if rng.random() < 0.1:
                table[rng.choice(("ghost", *ID_POOL))] = rng.choice(ID_POOL)
            if rng.random() < 0.1 and table:
                table[rng.choice(list(table))] = None
            functions[arrow_id] = table
        return {"sets": sets, "functions": functions}

    spec = {"name": "random", "boxes": [[b, b] for b in box_ids], "arrows": arrows, "a": instance()}
    if rng.random() < 0.5:
        return {**spec, "b": instance()}
    # A relabelled copy of a, its dicts in another order, or a copy that keeps
    # every id and order; sometimes with one table entry moved.
    a = spec["a"]
    kept = rng.random() < 0.3
    rename = {}
    for box_id, elems in a["sets"].items():
        ids = list(elems)
        rename[box_id] = dict(zip(ids, ids if kept else rng.sample(ids, len(ids))))
    sets = {
        box_id: {
            rename[box_id][eid]: kind
            for eid, kind in (elems.items() if kept else reversed(elems.items()))
        }
        for box_id, elems in a["sets"].items()
    }
    functions = {
        arrow_id: {
            rename[src].get(eid, eid): rename[dst].get(image, image)
            for eid, image in a["functions"][arrow_id].items()
        }
        for arrow_id, src, dst, _ in arrows
    }
    arrow_id, _, dst, _ = rng.choice(arrows)
    if rng.random() < 0.3 and functions[arrow_id] and sets[dst]:
        entry = rng.choice(list(functions[arrow_id]))
        functions[arrow_id][entry] = rng.choice(list(sets[dst]))
    return {**spec, "b": {"sets": sets, "functions": functions}}


# ---------------------------------------------------------------------------
# schemas built in Python, for serialization and validation
# ---------------------------------------------------------------------------

_ID_CHARS = "abcxyz_0123456789"
_LABEL_CHARS = [chr(c) for c in range(32, 0x250) if chr(c) not in '"\\']
_QUOTED_CHARS = [chr(c) for c in range(32, 0x250)] + ["\r", "\n"]
_NOT_DECLARED = "NO1"  # an arrow id no schema below declares: ids have no capitals
_BROKEN = ("box id", "arrow id", "tag", "label", "path arrow", "note", "name")


def _text(rng, chars, longest: int) -> str:
    return "".join(rng.choice(chars) for _ in range(rng.randint(0, longest)))


def _ids(rng, fewest: int, most: int) -> list[str]:
    """Distinct ids of one to six characters, at least ``fewest`` of them."""
    ids: list[str] = []
    for _ in range(rng.randint(fewest, most)):
        ident = _text(rng, _ID_CHARS, 5) + rng.choice(_ID_CHARS)
        if ident not in ids:
            ids.append(ident)
    return ids


def _label(rng) -> str:
    return _text(rng, _LABEL_CHARS, 20) + "x"  # never empty, so label round trips stay exact


def schema(rng) -> dict:
    """A schema built in Python, most of which the text format can hold.

    Now and then a draw breaks one: an undeclared arrow in a path, projection
    or leg; an equation whose sides are not parallel or start apart; a
    pullback arrow bent off its square; a box, arrow or apex declared twice;
    an id that is not an identifier, or a string with a raw line break.
    """

    def rare() -> bool:
        return rng.randrange(8) == 3  # about one draw in eight

    # now and then one word the text cannot hold: an id that is not an
    # identifier, or a name, label or note with a raw line break
    broken = rng.choice((None,) * 28 + _BROKEN)  # one draw in five
    odd = rng.choice(["a b", "x-y", "é", ""])
    lines = rng.choice(["two\nlines", "two\rlines", "two\r\nlines"])
    box_ids = _ids(rng, 1, 5)
    if broken == "box id":
        box_ids[-1] = odd
    boxes = [[b, _label(rng), *_ids(rng, 0, 2)] for b in box_ids]
    if broken == "tag" and odd not in boxes[0][2:]:
        boxes[0].append(odd)
    if broken == "label":
        boxes[-1][1] = lines
    arrow_ids = _ids(rng, 0, 6)
    if arrow_ids and broken == "arrow id":
        arrow_ids[0] = odd
    arrows = [
        [a, rng.choice(box_ids), rng.choice(box_ids), "" if rng.random() < 0.5 else _label(rng),
         *_ids(rng, 0, 2)]
        for a in arrow_ids
    ]

    # every path of at most three arrows, grouped by its ends
    by_ends = {(b, b): [[b, []]] for b in box_ids}
    frontier = [([b, []], b) for b in box_ids]
    for _ in range(3):
        frontier = [
            ([p[0], p[1] + [a]], dst) for p, end in frontier for a, src, dst, *_ in arrows
            if src == end
        ]
        for path, end in frontier:
            by_ends.setdefault((path[0], end), []).append(path)
    paths = [p for pool in by_ends.values() for p in pool]
    pools = [pool for pool in by_ends.values() if len(pool) >= 2]
    equations = []
    for _ in range(rng.randint(0, 2)):
        if pools and not rare():
            pool = rng.choice(pools)
            lhs, rhs = rng.choice(pool), rng.choice(pool)
        else:
            lhs, rhs = rng.choice(paths), rng.choice(paths)
        lhs, rhs = [lhs[0], list(lhs[1])], [rhs[0], list(rhs[1])]
        if rare():
            rhs[1].append(_NOT_DECLARED)
        if rare():
            lhs[1].insert(0, _NOT_DECLARED)
        if broken == "path arrow":
            rhs[1].append(odd)
        note = lines if broken == "note" else "" if rng.random() < 0.5 else _label(rng)
        equations.append([lhs, rhs, note])

    fps = []
    if rng.random() < 0.5:
        apex, x, y, z = (rng.choice(box_ids) for _ in range(4))
        square = {"PR1": (apex, x), "PR2": (apex, y), "LG1": (x, z), "LG2": (y, z)}
        for arrow_id, (src, dst) in square.items():
            if rare():  # bent off the square
                src, dst = rng.choice(box_ids), rng.choice(box_ids)
            if not rare():  # else left undeclared
                arrows.append([arrow_id, src, dst, ""])
        fps.append([apex, *square])
        if rare():
            fps.append([apex, *square])
    if rare():
        boxes.append([rng.choice(box_ids), _label(rng)])
    if arrows and rare():
        twice = rng.choice(arrows)
        arrows.append([twice[0], twice[2], twice[1], ""])
    name = lines if broken == "name" else _text(rng, _QUOTED_CHARS, 20)
    return {"name": name, "boxes": boxes, "arrows": arrows, "equations": equations, "fps": fps,
            "squares": rng.random() < 0.5}


# ---------------------------------------------------------------------------
# multi-box presentations, for path equality
# ---------------------------------------------------------------------------


def multi_box(rng) -> tuple[dict, list]:
    """A presentation over 2-3 boxes: a loop ``a`` at X and 1-4 more arrows,
    loops or between boxes; 1-3 equations between parallel paths of at most
    three arrows, the first most often a cycle set equal to the identity; and
    queries ``[start, p, q, max_steps]`` of at most four arrows: any parallel
    pair, or a path and a few rewrites of it by the equations' nonempty sides.
    """
    boxes = "XYZ"[: rng.choice((2, 3))]
    arrows = [["a", "X", "X", ""]] + [
        [x, rng.choice(boxes), rng.choice(boxes), ""] for x in "bcde"[: rng.randint(1, 4)]
    ]
    by_ends, frontier = {}, [((b, ()), b) for b in boxes]
    for _ in range(5):
        for path, end in frontier:
            by_ends.setdefault((path[0], end), []).append(path)
        frontier = [
            ((p[0], p[1] + (x,)), dst) for p, end in frontier for x, src, dst, _ in arrows
            if src == end
        ]
    pools = [[p for p in pool if len(p[1]) <= 3] for pool in by_ends.values()]
    pools = [pool for pool in pools if len(pool) >= 2]
    equations = []
    for n in range(rng.randint(1, 3)):
        pool = rng.choice(pools)
        lhs, rhs = rng.sample(pool, 2)
        if n == 0 and rng.random() < 0.7:
            loops = [pool for pool in pools if pool[0][1] == ()]
            if loops:
                pool = rng.choice(loops)
                lhs, rhs = rng.choice(pool[1:]), pool[0]
        equations.append([lhs, rhs])
    spec = {
        "name": "multi-box",
        "boxes": [[b, f"a {b}"] for b in boxes],
        "arrows": arrows,
        "equations": [[[s, list(p)] for s, p in eq] for eq in equations],
    }
    sides = [pair for (_, lhs), (_, rhs) in equations for pair in ((lhs, rhs), (rhs, lhs))]
    queries = []
    for _ in range(4):
        pool = rng.choice(list(by_ends.values()))
        start, p = rng.choice(pool)
        q = rng.choice(pool)[1]
        if rng.random() < 0.5:
            q = p
            for _ in range(rng.randint(1, 3)):
                options = [
                    q[:at] + r + q[at + len(l) :]
                    for l, r in sides
                    if l  # an identity side would need the box at each position
                    for at in range(len(q) - len(l) + 1)
                    if q[at : at + len(l)] == l
                ]
                q = rng.choice(options) if options else q
        queries.append([start, list(p), list(q), rng.randint(0, 5)])
    return spec, queries


# ---------------------------------------------------------------------------
# document edits, for the parsers
# ---------------------------------------------------------------------------

HAND_WRITTEN = (
    'instance "d" of "s" {\n  set A { a1 = real 1.5, a2, }\n  set B {b1,b2}\n'
    "  fn put { a1 -> b1, a2->b2, }\n  fn q {\n    x -> y,\n    z -> w\n  }\n"
    "  set C {}\n"
    '  set P { p1 = real 007, p2 = real -inf, p3 = real 1e+5, p4 = pair(1.0,2.0),\n'
    '    p5 = text "a\\"b\\\\c", p6 = graph { n1 -> n2, n3 }, p7 = graph {} }\n}\n'
)
INSTANCE_PIECES = [
    "#", "# } -> ,\n", "->", "}", "{", ",", "3e-4", '"', "é", " ", "\x1f", "\u2028",
    "=", "real ", "(", ")", "\\", "\u0663", "-", ".", "e+", "inf",
]
INSTANCE_EDITS = ["delete", "insert", "duplicate line"]
# Schema documents take pieces of the schema grammar, and most of their edits
# put one identifier in place of another, which keeps the grammar and moves
# declarations' meaning instead.
SCHEMA_PIECES = [
    "#", "# } -> ,\n", "->", "}", "{", ",", "3e-4", '"', "é", " ", "\x1f", "\u2028",
    "\u0663", "=", "(", ")", "\\", "-", ".", "..", "×", "[", "]", ":", "eq ", "box ",
    "arrow ", "pullback ", "proj ", "legs ",
]
SCHEMA_EDITS = ["delete", "insert", "duplicate line", "drop line"] + ["swap ids"] * 6
_KEYWORDS = {"schema", "box", "arrow", "eq", "pullback", "proj", "legs"}


def edits(rng, ops: list[str], pieces: list[str]) -> list:
    """One to three edits ``(op, at, piece)``, as :func:`mutate` takes them."""
    return [
        (rng.choice(ops), rng.randrange(2**16), rng.choice(pieces))
        for _ in range(rng.randint(1, 3))
    ]


def mutate(text: str, edits: list) -> str:
    """The text with each edit ``(op, at, piece)`` made in turn.

    ``at`` is a position, taken modulo the text's length + 1, for "delete"
    (the character there), "insert" (the piece, there) and the line edits
    (the line there, taken modulo the line count, is duplicated or dropped).
    For "swap ids", ``divmod(at, n)`` over the n identifier occurrences that
    are not keywords gives the occurrence replaced (the remainder) and the
    identifier put in its place (the quotient, modulo the count of distinct
    identifiers and two undeclared ones).
    """
    for op, at, piece in edits:
        pos = at % (len(text) + 1)
        if op == "delete":
            text = text[:pos] + text[pos + 1 :]
        elif op == "insert":
            text = text[:pos] + piece + text[pos:]
        elif op == "swap ids":
            spots = [m for m in re.finditer(r"[A-Za-z0-9_]+", text) if m[0] not in _KEYWORDS]
            if spots:
                word, spot = divmod(at, len(spots))
                words = sorted({m[0] for m in spots}) + ["zz", "Q9"]
                i, j = spots[spot].span()
                text = text[:i] + words[word % len(words)] + text[j:]
        else:
            lines = text.split("\n")
            line = pos % len(lines)
            if op == "duplicate line":
                lines.insert(line, lines[line])
            else:
                del lines[line]
            text = "\n".join(lines)
    return text


# ---------------------------------------------------------------------------
# generated chains, and ladders of valid documents that grow one dimension
# ---------------------------------------------------------------------------

# SimParams fields past brick_count and domain, per chain kind
CHAINS = {
    "ductile": {"lifeline_present": True},
    "bonded": {"lifeline_present": True, "brick_failure": 100.0, "lifeline_failure": 110.0},
    "brittle": {},
}

# Each ladder grows one dimension of a document over `arrow a : X -> X`.
LADDERS = {
    "id length": (10, 10**3, 10**5),
    "entries per body": (10, 10**3, 10**4),
    "text payload length": (10, 10**3, 10**5),
    "graph payload nodes": (10, 10**3, 10**4),
    "boxes and arrows": (10, 10**2, 10**3),
    "entries on one line": (10**4,),
}


def rung(ladder: str, size: int) -> tuple[str, str]:
    """A valid schema and instance document at one rung of a ladder.

    X holds two elements that ``a`` swaps, or ``size`` elements that ``a``
    turns round a cycle; the boxes-and-arrows ladder adds boxes ``Bi`` of one
    element each and arrows ``bi : X -> Bi``.
    """
    count = size if ladder.startswith("entries") else 2
    width = size - 1 if ladder == "id length" else 1
    ids = [f"x{i:0{width}d}" for i in range(1, count + 1)]
    payload = ""
    if ladder == "text payload length":
        payload = f' = text "{"t" * size}"'
    elif ladder == "graph payload nodes":
        payload = f" = graph {{ {', '.join(f'n{i} -> n{i + 1}' for i in range(1, size))} }}"
    extra = range(1, size if ladder == "boxes and arrows" else 1)
    schema = "".join(
        ['schema "s" {\n  box X "an x"\n  arrow a : X -> X\n']
        + [f'  box B{i} "a b{i}"\n  arrow b{i} : X -> B{i}\n' for i in extra]
        + ["}\n"]
    )
    instance = "".join(
        ['instance "i" of "s" {\n  set X { ', ", ".join(e + payload for e in ids), " }\n"]
        + ["  fn a { ", ", ".join(f"{x} -> {y}" for x, y in zip(ids, ids[1:] + ids[:1])), " }\n"]
        + [f"  set B{i} {{ y }}\n  fn b{i} {{ {', '.join(f'{x} -> y' for x in ids)} }}\n"
           for i in extra]
        + ["}\n"]
    )
    return schema, instance.replace("\n", " ") if ladder == "entries on one line" else instance


# ---------------------------------------------------------------------------
# builders: plain data to ologkit objects
# ---------------------------------------------------------------------------


def build_schema(ok, spec: dict):
    """The OlogSchema of a spec: boxes ``[id, label, *tags]``, arrows ``[id,
    src, dst, label, *tags]``, equations ``[[start, arrows], [start, arrows],
    note?]`` and fiber products ``[apex, proj1, proj2, leg1, leg2]``; with
    its pullback squares added when ``squares`` is true."""
    s = ok.schema
    built = s.OlogSchema(
        spec["name"],
        tuple(s.BoxDecl(b, label, frozenset(tags)) for b, label, *tags in spec["boxes"]),
        tuple(
            s.ArrowDecl(a, src, dst, label, frozenset(tags))
            for a, src, dst, label, *tags in spec["arrows"]
        ),
        tuple(
            s.PathEquation(s.Path(ls, tuple(la)), s.Path(rs, tuple(ra)), *note)
            for (ls, la), (rs, ra), *note in spec.get("equations", ())
        ),
        tuple(s.FiberProductDecl(*fp) for fp in spec.get("fps", ())),
    )
    return s.with_fiber_product_squares(built) if spec.get("squares") else built


def build_pair(ok, spec: dict) -> tuple:
    """The schema and the two instances of a :func:`random_pair` spec."""
    payloads = {
        "none": None, "real": ok.RealPayload(1.5), "pair": ok.PairPayload(0.0, 1.0),
        "text": ok.TextPayload("t"),
    }
    instances = (
        ok.Instance(
            side, spec["name"],
            {box_id: {eid: payloads[kind] for eid, kind in elems.items()}
             for box_id, elems in spec[side]["sets"].items()},
            spec[side]["functions"],
        )
        for side in ("a", "b")
    )
    return (build_schema(ok, spec), *instances)


def chain(ok, schema, kind: str, domain: str, n: int):
    """The generated instance of a ductile, bonded or brittle chain of n bricks."""
    return ok.generate_instance(ok.SimParams(brick_count=n, domain=domain, **CHAINS[kind]), schema)
