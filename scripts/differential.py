#!/usr/bin/env python3
"""Run one seeded corpus through ologkit at a git revision and in this tree.

    python scripts/differential.py --base REV

REV's committed files are exported with ``git archive`` into a temporary
directory, so no worktree is registered and an interrupted run leaves nothing
behind in the repository.  The corpus is built here, from this tree's files,
then read by two worker subprocesses of this same script: one imports
``ologkit`` from REV's ``src``, the other from this tree's ``src``.  Each
records one outcome per case:

  schema-doc    the bundled schema, every hand-written schema in ``tests/`` and
                2 000 mutated documents: the canonical bytes of the parsed
                schema (or the error type and message), and its diagnostics;
  instance-doc  the tests' bonded n = 2 file and hand-written instance
                document, and 1 000 documents mutated from each by the tests'
                edits: the sha256 of the parsed instance's canonical bytes and
                of its ids in read order (or the error type and message, which
                holds the span);
  schema-built  1 000 schemas built in Python, some with undeclared arrows,
                non-parallel sides, bent pullbacks and duplicate ids:
                ``validate_schema`` diagnostics and the ``serialize_schema``
                outcome;
  derive        ``derive_equality`` (64 steps) and ``replay_witness`` on every
                parallel path pair of the bundled schema;
  presentations ``derive_equality`` and ``replay_witness`` on presentations
                built in Python: the benchmark's one-box commuting ones
                (k = 2, 3, 4) on seeded words, random ones over 2-3 boxes whose
                equations may have an identity side, and one pair whose search
                runs into the 100 000-state cap;
  check         ``olog check`` reports, minus ``elapsed_ms``, on ductile,
                bonded and brittle instances of both domains at small n;
  cli-instances ``olog check``, ``olog pullback paper.olog FILE 30 27`` and
                ``olog iso`` against the other domain's twin, on ductile and
                bonded instances of both domains at n = 2..5, each with one
                seeded table entry dropped or rewired to another element of
                its target box: the exit code and the report minus
                ``elapsed_ms``;
  iso           ``check_instance_isomorphism`` on 2 000 random small pairs
                (partial tables, None images, images and sources outside
                their boxes, mixed payload types, empty boxes) and on
                protein/social twins, aligned and with the social ids renamed
                at random within each box, at ductile n = 5, 10, 20 and
                bonded n = 4, 8, 10, plus the bundled pair and one pair with
                an arrow-35 entry rewired: the outcome, certificate, detail,
                the sha256 of the map and ``verify_isomorphism`` of it;
  simulate      ``olog simulate -o`` on ductile, bonded, brittle (with and
                without lifeline) chains of both domains and social message
                chains (with and without lifeline), at n = 2, 9, 10, 11, 32
                and 40, across the id pad widths: the exit code, the report
                minus ``elapsed_ms`` and the sha256 of the written file; and
                ``olog pullback paper.olog FILE 30 27`` on bonded n <= 11.

It prints, per slice, the count of identical outcomes and of each class of
difference, then one example of each class and the first few differences
that fit no expected class ("other").  It exits 0 only when every outcome is
identical, so ``--base HEAD`` on a clean tree is a self-check.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20240611
MUTATED_DOCUMENTS = 2000
MUTATED_INSTANCE_DOCUMENTS = 1000  # per base document
BUILT_SCHEMAS = 1000
SHOWN = 5
SIMULATE_SIZES = (2, 9, 10, 11, 32, 40)
COMMUTING_PAIRS = 60  # per presentation
MULTI_BOX_PRESENTATIONS = 300
ISO_PAIRS = 2000
EDITED_PER_CHAIN = 2  # per chain, domain, size and edit

# `olog simulate` flags per chain kind, given with --domain and --bricks.
_SIMULATE_FLAGS = {
    "ductile": ["--glue-fail", "20.6", "--lifeline", "--ll-rest", "23.45", "--ll-fail", "100"],
    "bonded": [
        "--glue-fail", "20.6", "--brick-fail", "100",
        "--lifeline", "--ll-rest", "23.45", "--ll-fail", "110",
    ],
    "brittle": ["--glue-fail", "20.6"],
    "brittle-ll": ["--glue-fail", "20.6", "--lifeline", "--ll-rest", "23.45", "--ll-fail", "23.45"],
    "social-msg": ["--msg-len", "40", "--msg-success", "0.6"],
    "social-msg-ll": ["--msg-len", "40", "--msg-success", "0.6", "--lifeline"],
}

# Edits as in the parser's mutation tests, plus pieces of the schema grammar;
# most edits put one identifier in place of another, which keeps the grammar
# and moves declarations' meaning instead.
_PIECES = [
    "#", "# } -> ,\n", "->", "}", "{", ",", "3e-4", '"', "é", " ", "\x1f", "\u2028",
    "\u0663", "=", "(", ")", "\\", "-", ".", "..", "×", "[", "]", ":", "eq ", "box ",
    "arrow ", "pullback ", "proj ", "legs ",
]
_EDITS = ["delete", "insert", "duplicate line", "drop line"] + ["swap ids"] * 6
_KEYWORDS = {"schema", "box", "arrow", "eq", "pullback", "proj", "legs"}


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _hand_written_schemas() -> list[str]:
    """String literals in the tests that hold a schema block."""
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.lstrip().startswith('schema "') and node.value not in found:
                    found.append(node.value)
    return found


def _test_literals(*names: str) -> list:
    """The values that ``tests/test_dsl.py`` assigns to ``names``, which are literals."""
    tree = ast.parse((ROOT / "tests" / "test_dsl.py").read_text(encoding="utf-8"))
    found = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in names
    }
    return [found[name] for name in names]


def _mutate(
    rng: random.Random, text: str, edits: list[str] = _EDITS, pieces: list[str] = _PIECES
) -> str:
    for _ in range(rng.randint(1, 3)):
        op, at = rng.choice(edits), rng.randrange(len(text) + 1)
        lines = text.split("\n")
        if op == "delete":
            text = text[:at] + text[at + 1 :]
        elif op == "insert":
            text = text[:at] + rng.choice(pieces) + text[at:]
        elif op == "duplicate line":
            line = rng.randrange(len(lines))
            text = "\n".join(lines[:line] + [lines[line]] + lines[line:])
        elif op == "drop line":
            line = rng.randrange(len(lines))
            text = "\n".join(lines[:line] + lines[line + 1 :])
        else:  # one identifier in place of another
            words = sorted(set(re.findall(r"[A-Za-z0-9_]+", text)) - _KEYWORDS)
            if words:
                old, new = rng.choice(words), rng.choice(words + ["zz", "Q9"])
                spots = list(re.finditer(rf"(?<![A-Za-z0-9_]){old}(?![A-Za-z0-9_])", text))
                i, j = rng.choice(spots).span()
                text = text[:i] + new + text[j:]
    return text


def _built_schema(rng: random.Random) -> dict:
    """A schema as plain data, drawn as the tests' widened strategy draws them;
    many carry a defect: an undeclared arrow, sides apart, a bent pullback arrow
    or an id declared twice."""

    def rare() -> bool:
        return rng.random() < 0.12

    boxes = [f"b{i}" for i in range(rng.randint(1, 5))]
    arrows = [[f"a{i}", rng.choice(boxes), rng.choice(boxes)] for i in range(rng.randint(0, 6))]
    paths = [[b, []] for b in boxes]
    frontier = [(b, [], b) for b in boxes]
    for _ in range(3):
        frontier = [(s, p + [a], d) for s, p, end in frontier for a, src, d in arrows if src == end]
        paths += [[s, p] for s, p, _ in frontier]
    ends = {}
    for start, arrow_ids in paths:
        at = start
        for a in arrow_ids:
            at = next(d for x, _, d in arrows if x == a)
        ends.setdefault((start, at), []).append([start, arrow_ids])
    pools = [pool for pool in ends.values() if len(pool) >= 2]
    equations = []
    for _ in range(rng.randint(0, 2)):
        if pools and not rare():
            pool = rng.choice(pools)
            lhs, rhs = rng.choice(pool), rng.choice(pool)
        else:
            lhs, rhs = rng.choice(paths), rng.choice(paths)
        lhs, rhs = [lhs[0], list(lhs[1])], [rhs[0], list(rhs[1])]
        if rare():
            rhs[1].append("NO1")
        if rare():
            lhs[1].insert(0, "NO1")
        equations.append([lhs, rhs])
    fps = []
    if rng.random() < 0.5:
        apex, x, y, z = (rng.choice(boxes) for _ in range(4))
        square = {"PR1": (apex, x), "PR2": (apex, y), "LG1": (x, z), "LG2": (y, z)}
        for arrow_id, (src, dst) in square.items():
            if rare():
                src, dst = rng.choice(boxes), rng.choice(boxes)
            if not rare():
                arrows.append([arrow_id, src, dst])
        fps.append([apex, *square])
        if rare():
            fps.append([apex, *square])
    box_list = [[b, f"a {b}"] for b in boxes]
    if rare():
        box_list.append([rng.choice(boxes), "again"])
    if arrows and rare():
        twice = rng.choice(arrows)
        arrows.append([twice[0], twice[2], twice[1]])
    squares = rng.random() < 0.5
    return {"boxes": box_list, "arrows": arrows, "equations": equations, "fps": fps,
            "squares": squares}


def _commuting(k: int) -> dict:
    """The benchmark's one-box presentation: k loops on X, every two commuting."""
    letters = "abcd"[:k]
    return {
        "name": f"commuting-{k}",
        "boxes": ["X"],
        "arrows": [[x, "X", "X"] for x in letters],
        "equations": [
            [["X", [x, y]], ["X", [y, x]]] for i, x in enumerate(letters) for y in letters[i + 1 :]
        ],
    }


def _commuting_queries(rng: random.Random, k: int) -> list:
    """Seeded pairs: a word and a shuffle of it, or of it with one letter changed."""
    letters = "abcd"[:k]
    queries = []
    for _ in range(COMMUTING_PAIRS):
        p = [rng.choice(letters) for _ in range(rng.randint(2, 10))]
        q = rng.sample(p, len(p))
        if rng.random() < 0.5:
            at = rng.randrange(len(q))
            q[at] = rng.choice([x for x in letters if x != q[at]])
        queries.append(["X", p, q, 1000])
    return queries


def _multi_box(rng: random.Random, index: int) -> tuple[dict, list]:
    """A presentation over 2-3 boxes: a loop ``a`` at X and 1-4 more arrows,
    loops or between boxes; 1-3 equations between parallel paths of at most
    three arrows, the first most often a cycle set equal to the identity; and
    queries of at most four arrows: any parallel pair, or a path
    and a few rewrites of it by the equations' nonempty sides."""
    boxes = "XYZ"[: rng.choice((2, 3))]
    arrows = [["a", "X", "X"]] + [
        [x, rng.choice(boxes), rng.choice(boxes)] for x in "bcde"[: rng.randint(1, 4)]
    ]
    by_ends, frontier = {}, [((b, ()), b) for b in boxes]
    for _ in range(5):
        for path, end in frontier:
            by_ends.setdefault((path[0], end), []).append(path)
        frontier = [
            ((p[0], p[1] + (x,)), dst)
            for p, end in frontier
            for x, src, dst in arrows
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
        "name": f"multi-box-{index}",
        "boxes": list(boxes),
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


def _presentations(rng: random.Random) -> list:
    cases = [[_commuting(k), _commuting_queries(rng, k)] for k in (2, 3, 4)]
    cases += [list(_multi_box(rng, index)) for index in range(MULTI_BOX_PRESENTATIONS)]
    # equal letter counts, so the normal forms agree and the search runs; the
    # class holds 756 756 words and q is farthest from p, so it stops at the cap
    p = [x for x in "abc" for _ in range(5)]
    cases.append([_commuting(3), [["X", p, p[::-1], 1000]]])
    return cases


_PAYLOAD_KINDS = ("none", "real", "pair", "text")
_ID_POOL = ("", "x1", "x2", "x10", "b1", "b01", "y")


def _random_pair(rng: random.Random) -> dict:
    """A random small schema and two instances of it as plain data, drawn as
    the tests' ``_random_pair`` draws them; half the time b is a relabelled
    copy of a, sometimes with one table entry moved."""
    box_ids = ["X", "Y", "Z"][: rng.randint(1, 3)]
    arrows = [
        [f"f{j}", rng.choice(box_ids), rng.choice(box_ids)] for j in range(rng.randint(1, 4))
    ]

    def instance() -> dict:
        mixed = rng.random() < 0.2
        sets = {}
        for box_id in box_ids:
            kind = rng.choice(_PAYLOAD_KINDS)
            sets[box_id] = {
                eid: rng.choice(_PAYLOAD_KINDS) if mixed else kind
                for eid in rng.sample(_ID_POOL, rng.randint(0, 5))
            }
        functions = {}
        for arrow_id, src, dst in arrows:
            targets = list(sets[dst]) if rng.random() < 0.9 else list(_ID_POOL)
            table = {eid: rng.choice(targets) for eid in sets[src] if rng.random() < 0.9 and targets}
            if rng.random() < 0.1:
                table[rng.choice(("ghost", *_ID_POOL))] = rng.choice(_ID_POOL)
            if rng.random() < 0.1 and table:
                table[rng.choice(list(table))] = None
            functions[arrow_id] = table
        return {"sets": sets, "functions": functions}

    a = instance()
    if rng.random() < 0.5:
        return {"boxes": box_ids, "arrows": arrows, "a": a, "b": instance()}
    rename = {}
    for box_id, elems in a["sets"].items():
        ids = list(elems)
        rename[box_id] = dict(zip(ids, rng.sample(ids, len(ids))))
    sets = {
        box_id: {rename[box_id][eid]: kind for eid, kind in reversed(elems.items())}
        for box_id, elems in a["sets"].items()
    }
    functions = {
        arrow_id: {
            rename[src].get(eid, eid): rename[dst].get(image, image)
            for eid, image in a["functions"][arrow_id].items()
        }
        for arrow_id, src, dst in arrows
    }
    arrow_id, _, dst = rng.choice(arrows)
    if rng.random() < 0.3 and functions[arrow_id] and sets[dst]:
        entry = rng.choice(list(functions[arrow_id]))
        functions[arrow_id][entry] = rng.choice(list(sets[dst]))
    return {"boxes": box_ids, "arrows": arrows, "a": a, "b": {"sets": sets, "functions": functions}}


def _iso_corpus(rng: random.Random) -> dict:
    """Random pairs, and twins as [kind, n, rename seed or None, rewire seed or None]."""
    twins = [
        [kind, n, rename, None]
        for kind, sizes in (("ductile", (5, 10, 20)), ("bonded", (4, 8, 10)))
        for n in sizes
        for rename in (None, rng.randrange(2**32))
    ]
    twins.append(["bonded", 8, None, rng.randrange(2**32)])
    return {"pairs": [_random_pair(rng) for _ in range(ISO_PAIRS)], "twins": twins}


def _instance_documents(rng: random.Random, bonded_2: str) -> list[str]:
    """The bulk-vs-token-loop property's bases, and documents mutated from them
    as the property mutates them."""
    hand_written, edits, pieces = _test_literals("_HAND_WRITTEN", "_EDITS", "_PIECES")
    bases = [bonded_2, hand_written]
    return bases + [
        _mutate(rng, base, edits, pieces) for base in bases for _ in range(MUTATED_INSTANCE_DOCUMENTS)
    ]


def _corpus(bonded_2: str) -> dict:
    rng, edit_rng = random.Random(SEED), random.Random(SEED + 3)
    bundled = (ROOT / "src" / "ologkit" / "data" / "paper.olog").read_text(encoding="utf-8")
    bases = [bundled, *_hand_written_schemas()]
    # half from the bundled schema, whose equations and pullbacks the edits move
    mutated = [
        _mutate(rng, bundled if rng.random() < 0.5 else rng.choice(bases))
        for _ in range(MUTATED_DOCUMENTS)
    ]
    return {
        "documents": bases + mutated,
        "instance-documents": _instance_documents(random.Random(SEED + 4), bonded_2),
        "built": [_built_schema(rng) for _ in range(BUILT_SCHEMAS)],
        "presentations": _presentations(random.Random(SEED + 1)),
        "iso": _iso_corpus(random.Random(SEED + 2)),
        "instances": [
            [kind, domain, n]
            for kind in ("ductile", "bonded", "brittle")
            for domain in ("protein", "social")
            for n in (2, 5)
        ],
        "edited": [
            [kind, domain, n, edit, edit_rng.randrange(2**32)]
            for kind in ("ductile", "bonded")
            for domain in ("protein", "social")
            for n in (2, 3, 4, 5)
            for edit in ("drop", "rewire")
            for _ in range(EDITED_PER_CHAIN)
        ],
        "simulate": [
            [kind, domain, n]
            for kind in _SIMULATE_FLAGS
            for domain in (("social",) if kind.startswith("social") else ("protein", "social"))
            for n in SIMULATE_SIZES
        ],
    }


# ---------------------------------------------------------------------------
# worker: runs in each tree
# ---------------------------------------------------------------------------


def _raised(exc: BaseException) -> list:
    return ["raised", type(exc).__name__, str(exc)]


def _serialized(ok, schema) -> list:
    """The text by hash, and what it parses back to: the schema (squares
    added), another schema, text that does not write back the same, or an
    error; or the error serializing raised."""
    try:
        text = ok.serialize_schema(schema)
    except Exception as exc:  # the outcome under comparison, whatever it is
        return _raised(exc)
    try:
        reparsed = ok.parse_schema(text)
        if ok.serialize_schema(reparsed) != text:
            back = "parses, not stable"
        elif reparsed.canonical() == ok.with_fiber_product_squares(schema).canonical():
            back = "stable, same schema"
        else:
            back = "stable, another schema"
    except ok.OlogError as exc:
        back = f"rejected: {type(exc).__name__}: {exc}"
    return ["text", hashlib.sha256(text.encode()).hexdigest()[:16], back]


def _diagnostics(ok, schema) -> list:
    return [[d.code, d.message, d.location] for d in ok.validate_schema(schema)]


def _schema_doc(ok, text: str) -> dict:
    try:
        schema = ok.parse_schema(text, "doc.olog")
    except Exception as exc:  # a parse error is the outcome; so is a crash
        return {"parse": _raised(exc)}
    return {"diagnostics": _diagnostics(ok, schema), "serialize": _serialized(ok, schema)}


def _instance_doc(ok, text: str) -> list:
    try:
        instance = ok.parse_instance(text, "doc.oinst")
        canonical = ok.serialize_instance(instance)
    except Exception as exc:  # a parse error is the outcome; so is a crash
        return _raised(exc)
    read = [list(map(list, instance.sets.items())), list(map(list, instance.functions.items()))]
    ids = json.dumps(read, default=repr).encode()
    return [hashlib.sha256(canonical.encode()).hexdigest()[:16], hashlib.sha256(ids).hexdigest()[:16]]


def _schema_built(ok, spec: dict) -> dict:
    s = ok.schema
    schema = s.OlogSchema(
        "built",
        tuple(s.BoxDecl(b, label) for b, label in spec["boxes"]),
        tuple(s.ArrowDecl(a, src, dst) for a, src, dst in spec["arrows"]),
        tuple(
            s.PathEquation(s.Path(ls, tuple(la)), s.Path(rs, tuple(ra)))
            for (ls, la), (rs, ra) in spec["equations"]
        ),
        tuple(s.FiberProductDecl(*fp) for fp in spec["fps"]),
    )
    if spec["squares"]:
        schema = s.with_fiber_product_squares(schema)
    return {
        "diagnostics": _diagnostics(ok, schema),
        "serialize": _serialized(ok, schema),
        "squareless": s.with_fiber_product_squares(schema) is not schema,
    }


def _derived(ok, schema, left, right, max_steps: int) -> list:
    """The whole EqualityResult and whether its witness replays, or the error."""
    try:
        res = ok.derive_equality(schema, left, right, max_steps)
        return [
            res.verdict.value,
            res.steps,
            [str(w) for w in res.witness],
            [[r.eq_index, r.position, r.direction] for r in res.rewrites],
            ok.replay_witness(schema, res),
        ]
    except Exception as exc:  # the outcome under comparison
        return _raised(exc)


def _derive_cases(ok) -> dict:
    """Every parallel pair of paths of the bundled schema, walked from the
    declarations alone so the enumeration does not depend on the code."""
    schema = ok.bundled_schema()
    paths, frontier = [], [(b.id, (), b.id) for b in schema.boxes]
    for _ in schema.boxes:  # the schema is acyclic, so no path is longer
        paths += frontier
        frontier = [
            (s, p + (a.id,), a.dst) for s, p, end in frontier for a in schema.arrows if a.src == end
        ]
    out = {}
    for i, (s, p, e) in enumerate(paths):
        for s2, q, e2 in paths[i + 1 :]:
            if (s, e) != (s2, e2):
                continue
            left, right = ok.Path(s, p), ok.Path(s, q)
            out[f"{left} = {right}"] = _derived(ok, schema, left, right, 64)
    return out


def _presentation_cases(ok, presentations: list) -> dict:
    s = ok.schema
    out = {}
    for spec, queries in presentations:
        schema = s.OlogSchema(
            spec["name"],
            tuple(s.BoxDecl(b, f"a {b}") for b in spec["boxes"]),
            tuple(s.ArrowDecl(*a) for a in spec["arrows"]),
            tuple(
                s.PathEquation(s.Path(ls, tuple(la)), s.Path(rs, tuple(ra)))
                for (ls, la), (rs, ra) in spec["equations"]
            ),
        )
        for start, p, q, max_steps in queries:
            left, right = s.Path(start, tuple(p)), s.Path(start, tuple(q))
            key = f"{spec['name']} {left} = {right} in {max_steps}"
            out[key] = _derived(ok, schema, left, right, max_steps)
    return out


def _cli(argv: list) -> list:
    """``olog`` run in this process: the exit code and the report lines,
    minus ``elapsed_ms``."""
    from ologkit import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    lines = stdout.getvalue().splitlines()
    return [code, [line for line in lines if not line.startswith("elapsed_ms:")]]


def _simulate_cases(cases: list) -> dict:
    out = {}
    for kind, domain, n in cases:
        name = f"simulate-{kind}-{domain}-{n}.oinst"
        argv = ["simulate", "--domain", domain, "--bricks", str(n), *_SIMULATE_FLAGS[kind]]
        code, lines = _cli([*argv, "-o", name])
        written = Path(name).exists() and hashlib.sha256(Path(name).read_bytes()).hexdigest()
        out[name] = [code, lines, written]
        if kind == "bonded" and n <= 11:
            code, lines = _cli(["pullback", "paper.olog", name, "30", "27"])
            pairs = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            out[f"pullback-30-27-{name}"] = [code, lines[:3], len(lines), pairs]
        Path(name).unlink(missing_ok=True)
    return out


def _chain(ok, schema, kind: str, domain: str, n: int):
    """The generated instance of a ductile, bonded or brittle chain of n bricks."""
    if kind == "ductile":
        params = ok.SimParams(n, 20.6, math.inf, True, 23.45, 100.0, domain)
    elif kind == "bonded":
        params = ok.SimParams(n, 20.6, 100.0, True, 23.45, 110.0, domain)
    else:
        params = ok.SimParams(n, 20.6, math.inf, False, domain=domain)
    return ok.generate_instance(params, schema)


def _check_cases(ok, instances: list) -> dict:
    out = {}
    schema = ok.bundled_schema()
    for kind, domain, n in instances:
        name = f"{kind}-{domain}-{n}.oinst"
        instance = _chain(ok, schema, kind, domain, n)
        Path(name).write_text(ok.serialize_instance(instance), encoding="utf-8")
        out[name] = _cli(["check", "paper.olog", name])
    return out


def _edited(ok, schema, instance, edit: str, rng: random.Random):
    """The instance with one seeded table entry dropped, or rewired to another
    element of its arrow's target box."""
    targets = {arrow.id: sorted(instance.elements(arrow.dst)) for arrow in schema.arrows}
    arrow_id = rng.choice(sorted(
        arrow_id for arrow_id, table in instance.functions.items()
        if table and (edit == "drop" or len(targets[arrow_id]) > 1)
    ))
    functions = dict(instance.functions)
    table = functions[arrow_id] = dict(functions[arrow_id])
    entry = rng.choice(sorted(table))
    if edit == "drop":
        del table[entry]
    else:
        table[entry] = rng.choice([x for x in targets[arrow_id] if x != table[entry]])
    return ok.Instance(instance.name, instance.schema_name, instance.sets, functions)


def _edited_cases(ok, cases: list) -> dict:
    """check, pullback 30 27 and iso against the other domain's twin, each on
    a generated instance with one table entry dropped or rewired."""
    schema = ok.bundled_schema()
    out = {}
    for kind, domain, n, edit, seed in cases:
        other = "social" if domain == "protein" else "protein"
        instance = _chain(ok, schema, kind, domain, n)
        edited = _edited(ok, schema, instance, edit, random.Random(seed))
        name = f"{kind}-{domain}-{n}-{edit}-{seed}.oinst"
        Path(name).write_text(ok.serialize_instance(edited), encoding="utf-8")
        twin = ok.serialize_instance(_chain(ok, schema, kind, other, n))
        Path("twin.oinst").write_text(twin, encoding="utf-8")
        out[f"check {name}"] = _cli(["check", "paper.olog", name])
        out[f"pullback {name}"] = _cli(["pullback", "paper.olog", name, "30", "27"])
        out[f"iso {name}"] = _cli(["iso", "paper.olog", name, "twin.oinst"])
    return out


def _iso_outcome(ok, schema, a, b) -> list:
    """The search's answer, the map by hash, and whether the map re-verifies."""
    try:
        res = ok.check_instance_isomorphism(schema, a, b)
    except Exception as exc:  # the outcome under comparison
        return _raised(exc)
    mapping = json.dumps(res.mapping).encode()
    verified = ok.verify_isomorphism(schema, a, b, res.mapping) if res.found else None
    return [res.outcome.value, res.certificate, res.detail,
            hashlib.sha256(mapping).hexdigest()[:16], verified]


def _renamed(ok, schema, instance, rng: random.Random):
    """The instance with its ids permuted at random within each box."""
    rename = {
        box_id: dict(zip(elems, rng.sample(list(elems), len(elems))))
        for box_id, elems in instance.sets.items()
    }
    return ok.Instance(
        instance.name, instance.schema_name,
        {box_id: {rename[box_id][eid]: p for eid, p in elems.items()}
         for box_id, elems in instance.sets.items()},
        {arrow.id: {rename[arrow.src][eid]: rename[arrow.dst][image]
                    for eid, image in instance.table(arrow.id).items()}
         for arrow in schema.arrows},
    )


def _rewired(ok, instance, rng: random.Random):
    """The instance with one arrow-35 entry sent to another brick."""
    functions = dict(instance.functions)
    table = functions["35"] = dict(functions["35"])
    entry = rng.choice(list(table))
    table[entry] = rng.choice([x for x in instance.elements("R") if x != table[entry]])
    return ok.Instance(instance.name, instance.schema_name, instance.sets, functions)


def _iso_cases(ok, corpus: dict) -> dict:
    s = ok.schema
    payloads = {
        "none": None, "real": ok.RealPayload(1.5), "pair": ok.PairPayload(0.0, 1.0),
        "text": ok.TextPayload("t"),
    }
    out = {}
    for index, spec in enumerate(corpus["pairs"]):
        schema = s.OlogSchema(
            "random",
            tuple(s.BoxDecl(b, b) for b in spec["boxes"]),
            tuple(s.ArrowDecl(*arrow) for arrow in spec["arrows"]),
        )
        a, b = (
            ok.Instance(
                side, "random",
                {box_id: {eid: payloads[kind] for eid, kind in elems.items()}
                 for box_id, elems in spec[side]["sets"].items()},
                spec[side]["functions"],
            )
            for side in ("a", "b")
        )
        out[f"random-{index}"] = _iso_outcome(ok, schema, a, b)
    schema = ok.bundled_schema()
    out["bundled"] = _iso_outcome(ok, schema, ok.protein_instance(), ok.social_instance())
    for kind, n, rename, rewire in corpus["twins"]:
        a = _chain(ok, schema, kind, "protein", n)
        b = _chain(ok, schema, kind, "social", n)
        name = f"twins-{kind}-{n}"
        if rename is not None:
            b, name = _renamed(ok, schema, b, random.Random(rename)), f"{name}-renamed"
        if rewire is not None:
            b, name = _rewired(ok, b, random.Random(rewire)), f"{name}-rewired"
        out[name] = _iso_outcome(ok, schema, a, b)
    return out


def _work(corpus_path: str, out_path: str, tree: str) -> None:
    import ologkit as ok

    if not Path(ok.__file__).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"imported ologkit from {ok.__file__}, not from {tree}")
    corpus = json.loads(Path(corpus_path).read_text(encoding="utf-8"))
    results = {
        "schema-doc": {str(i): _schema_doc(ok, t) for i, t in enumerate(corpus["documents"])},
        "instance-doc": {
            str(i): _instance_doc(ok, t) for i, t in enumerate(corpus["instance-documents"])
        },
        "schema-built": {str(i): _schema_built(ok, s) for i, s in enumerate(corpus["built"])},
        "derive": _derive_cases(ok),
        "presentations": _presentation_cases(ok, corpus["presentations"]),
        "check": _check_cases(ok, corpus["instances"]),
        "cli-instances": _edited_cases(ok, corpus["edited"]),
        "iso": _iso_cases(ok, corpus["iso"]),
        "simulate": _simulate_cases(corpus["simulate"]),
    }
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _classify(slice_name: str, base, head) -> str:
    """Name the kind of difference between two outcomes of one case."""
    if not slice_name.startswith("schema-") or "serialize" not in base or "serialize" not in head:
        return "other"
    if {k: v for k, v in base.items() if k != "serialize"} != {
        k: v for k, v in head.items() if k != "serialize"
    }:
        return "other"
    was, now = base["serialize"], head["serialize"]
    if was[0] == "text" and now[:2] == ["raised", "UnwritableSchemaError"]:
        if was[2].startswith("rejected"):
            return "serialize: now refused; base wrote text its parser rejects"
        if was[2] == "stable, another schema":
            return "serialize: now refused; base wrote text that parses to another schema"
        if was[2] == "parses, not stable":
            return "serialize: now refused; base wrote text that does not write back the same"
    squared = now[0] == "text" and now[2] == "stable, same schema"
    if was[0] == "text" and squared and base.get("squareless"):
        return "serialize: squareless schema; square now written"
    if was[:2] == ["raised", "MalformedPathError"] and now[1] == "UnwritableSchemaError":
        if was[2] == now[2]:
            return "serialize: refusal now typed UnwritableSchemaError, same message"
        return "serialize: refused by both; now UnwritableSchemaError naming another fault"
    return "other"


def _export(rev: str, into: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _natural(key: str) -> tuple:
    return (len(key), key) if key.isdigit() else (0, key)


def _run_worker(tree: Path, corpus: Path, out: Path, work: Path) -> dict:
    work.mkdir()
    (work / "paper.olog").write_text(
        (tree / "src" / "ologkit" / "data" / "paper.olog").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", *map(str, (corpus, out, tree))],
        check=True,
        env=env,
        cwd=work,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="git revision to compare this tree against")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _work(*args.worker)
        return 0
    if not args.base:
        parser.error("--base is required")

    with tempfile.TemporaryDirectory(prefix="ologkit-differential-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        base_tree.mkdir()
        _export(args.base, base_tree)
        bonded_2 = tmp / "bonded-2.oinst"
        subprocess.run(
            [sys.executable, "-m", "ologkit.cli", "simulate", "--bricks", "2",
             *_SIMULATE_FLAGS["bonded"], "-o", str(bonded_2)],
            check=True,
            stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        corpus = tmp / "corpus.json"
        corpus.write_text(json.dumps(_corpus(bonded_2.read_text(encoding="utf-8"))), encoding="utf-8")
        base = _run_worker(base_tree, corpus, tmp / "base.json", tmp / "base-work")
        head = _run_worker(ROOT, corpus, tmp / "head.json", tmp / "head-work")

    different, shown = False, []
    for slice_name in head:
        classes = collections.Counter()
        for key in sorted(base[slice_name].keys() | head[slice_name].keys(), key=_natural):
            was, now = base[slice_name].get(key), head[slice_name].get(key)
            if was == now:
                classes["identical"] += 1
                continue
            different = True
            if was is None or now is None:
                kind = "missing on one side"
            else:
                kind = _classify(slice_name, was, now)
            classes[kind] += 1
            if classes[kind] == 1 or kind == "other" and classes[kind] <= SHOWN:
                shown.append((slice_name, key, was, now))
        print(f"{slice_name}: {sum(classes.values())} cases")
        for kind in sorted(classes, key=lambda kind: (kind != "identical", kind)):
            print(f"  {classes[kind]:6d}  {kind}")
    for slice_name, key, was, now in shown:
        print(f"\n{slice_name} {key}:")
        print(f"  base: {json.dumps(was)[:400]}\n  head: {json.dumps(now)[:400]}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
