#!/usr/bin/env python3
"""Run one seeded corpus through ologkit at a git revision and in this tree.

    python scripts/differential.py --base REV

REV's committed files are exported with ``git archive`` into a temporary
directory, so no worktree is registered and an interrupted run leaves nothing
behind in the repository.  The corpus is built here, from this tree's files,
with the generators the property tests draw from (``tests/corpus.py``), as
plain data in one JSON file.  Two worker subprocesses of this same script
read it: one imports ``ologkit`` from REV's ``src``, the other from this
tree's ``src``, and each builds its objects with ``tests/corpus.py``'s
builders over the ``ologkit`` it imported.  Each records one outcome per case:

  schema-doc    the bundled schema, every hand-written schema in ``tests/`` and
                2 000 documents mutated by ``corpus.mutate``'s schema edits
                (most put one identifier in place of another): the
                canonical bytes of the parsed schema (or the error type and
                message), and its diagnostics;
  instance-doc  the tests' bonded n = 2 file and hand-written instance
                document, and 1 000 documents mutated from each by the tests'
                edits: the sha256 of the parsed instance's canonical bytes and
                of its ids in read order (or the error type and message, which
                holds the span);
  schema-built  1 000 schemas built in Python as the serialization property
                draws them (``corpus.schema``), some with undeclared arrows,
                non-parallel sides, bent pullbacks, duplicate ids, ids that
                are not identifiers and raw line breaks:
                ``validate_schema`` diagnostics and the ``serialize_schema``
                outcome;
  derive        ``derive_equality`` (64 steps) and ``replay_witness`` on every
                parallel path pair of the bundled schema;
  presentations ``derive_equality`` and ``replay_witness`` on presentations
                built in Python: the benchmark's one-box commuting ones
                (k = 2, 3, 4) on seeded words, the word-search property's
                ones over 2-3 boxes whose equations may have an identity side
                (``corpus.multi_box``), and one pair whose search
                runs into the 100 000-state cap;
  check         ``olog check`` reports, minus ``elapsed_ms``, on ductile,
                bonded and brittle instances of both domains at small n;
  cli-instances ``olog check``, ``olog pullback paper.olog FILE 30 27`` and
                ``olog iso`` against the other domain's twin, on ductile and
                bonded instances of both domains at n = 2..5, each with one
                seeded table entry dropped or rewired to another element of
                its target box: the exit code and the report minus
                ``elapsed_ms``;
  iso           ``check_instance_isomorphism`` on 2 000 of the iso
                properties' random small pairs (``corpus.random_pair``:
                partial tables, None images, images and sources outside
                their boxes, mixed payload types, empty boxes, boxes in
                natural-key order or not, ids kept or renamed) and on
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
library only.  ``tests/test_differential.py`` runs the worker on a few cases
of each slice under two hash seeds.
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import corpus  # noqa: E402  (the generators the property tests draw from)

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


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _hand_written_schemas() -> list[str]:
    """String literals in the tests that hold a schema block."""
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.lstrip().startswith('schema "') and node.value not in found:
                    found.append(node.value)
    return found


def _commuting(k: int) -> dict:
    """The benchmark's one-box presentation: k loops on X, every two commuting."""
    letters = "abcd"[:k]
    return {
        "name": f"commuting-{k}",
        "boxes": [["X", "a X"]],
        "arrows": [[x, "X", "X", ""] for x in letters],
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


def _presentations(rng: random.Random) -> list:
    cases = [[_commuting(k), _commuting_queries(rng, k)] for k in (2, 3, 4)]
    for index in range(MULTI_BOX_PRESENTATIONS):
        spec, queries = corpus.multi_box(rng)
        cases.append([{**spec, "name": f"multi-box-{index}"}, queries])
    # equal letter counts, so the normal forms agree and the search runs; the
    # class holds 756 756 words and q is farthest from p, so it stops at the cap
    p = [x for x in "abc" for _ in range(5)]
    cases.append([_commuting(3), [["X", p, p[::-1], 1000]]])
    return cases


def _iso_corpus(rng: random.Random) -> dict:
    """Random pairs, and twins as [kind, n, rename seed or None, rewire seed or None]."""
    twins = [
        [kind, n, rename, None]
        for kind, sizes in (("ductile", (5, 10, 20)), ("bonded", (4, 8, 10)))
        for n in sizes
        for rename in (None, rng.randrange(2**32))
    ]
    twins.append(["bonded", 8, None, rng.randrange(2**32)])
    return {"pairs": [corpus.random_pair(rng) for _ in range(ISO_PAIRS)], "twins": twins}


def _instance_documents(rng: random.Random, bonded_2: str) -> list[str]:
    """The bulk-vs-token-loop property's bases, and documents mutated from them
    by the property's edits."""
    bases = [bonded_2, corpus.HAND_WRITTEN]
    return bases + [
        corpus.mutate(base, corpus.edits(rng, corpus.INSTANCE_EDITS, corpus.INSTANCE_PIECES))
        for base in bases
        for _ in range(MUTATED_INSTANCE_DOCUMENTS)
    ]


def _corpus(bonded_2: str) -> dict:
    rng, edit_rng = random.Random(SEED), random.Random(SEED + 3)
    bundled = (ROOT / "src" / "ologkit" / "data" / "paper.olog").read_text(encoding="utf-8")
    bases = [bundled, *_hand_written_schemas()]
    # half from the bundled schema, whose equations and pullbacks the edits move
    mutated = [
        corpus.mutate(
            bundled if rng.random() < 0.5 else rng.choice(bases),
            corpus.edits(rng, corpus.SCHEMA_EDITS, corpus.SCHEMA_PIECES),
        )
        for _ in range(MUTATED_DOCUMENTS)
    ]
    return {
        "documents": bases + mutated,
        "instance-documents": _instance_documents(random.Random(SEED + 4), bonded_2),
        "built": [corpus.schema(rng) for _ in range(BUILT_SCHEMAS)],
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
    schema = corpus.build_schema(ok, spec)
    return {
        "diagnostics": _diagnostics(ok, schema),
        "serialize": _serialized(ok, schema),
        "squareless": ok.schema.with_fiber_product_squares(schema) is not schema,
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
    out = {}
    for spec, queries in presentations:
        schema = corpus.build_schema(ok, spec)
        for start, p, q, max_steps in queries:
            left, right = ok.schema.Path(start, tuple(p)), ok.schema.Path(start, tuple(q))
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


def _check_cases(ok, instances: list) -> dict:
    out = {}
    schema = ok.bundled_schema()
    for kind, domain, n in instances:
        name = f"{kind}-{domain}-{n}.oinst"
        instance = corpus.chain(ok, schema, kind, domain, n)
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
        instance = corpus.chain(ok, schema, kind, domain, n)
        edited = _edited(ok, schema, instance, edit, random.Random(seed))
        name = f"{kind}-{domain}-{n}-{edit}-{seed}.oinst"
        Path(name).write_text(ok.serialize_instance(edited), encoding="utf-8")
        twin = ok.serialize_instance(corpus.chain(ok, schema, kind, other, n))
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


def _iso_cases(ok, cases: dict) -> dict:
    out = {}
    for index, spec in enumerate(cases["pairs"]):
        out[f"random-{index}"] = _iso_outcome(ok, *corpus.build_pair(ok, spec))
    schema = ok.bundled_schema()
    out["bundled"] = _iso_outcome(ok, schema, ok.protein_instance(), ok.social_instance())
    for kind, n, rename, rewire in cases["twins"]:
        a = corpus.chain(ok, schema, kind, "protein", n)
        b = corpus.chain(ok, schema, kind, "social", n)
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
    cases = json.loads(Path(corpus_path).read_text(encoding="utf-8"))
    results = {
        "schema-doc": {str(i): _schema_doc(ok, t) for i, t in enumerate(cases["documents"])},
        "instance-doc": {
            str(i): _instance_doc(ok, t) for i, t in enumerate(cases["instance-documents"])
        },
        "schema-built": {str(i): _schema_built(ok, s) for i, s in enumerate(cases["built"])},
        "derive": _derive_cases(ok),
        "presentations": _presentation_cases(ok, cases["presentations"]),
        "check": _check_cases(ok, cases["instances"]),
        "cli-instances": _edited_cases(ok, cases["edited"]),
        "iso": _iso_cases(ok, cases["iso"]),
        "simulate": _simulate_cases(cases["simulate"]),
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


def _run_worker(tree: Path, cases: Path, out: Path, work: Path) -> dict:
    work.mkdir()
    (work / "paper.olog").write_text(
        (tree / "src" / "ologkit" / "data" / "paper.olog").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", *map(str, (cases, out, tree))],
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
        cases = tmp / "corpus.json"
        cases.write_text(json.dumps(_corpus(bonded_2.read_text(encoding="utf-8"))), encoding="utf-8")
        base = _run_worker(base_tree, cases, tmp / "base.json", tmp / "base-work")
        head = _run_worker(ROOT, cases, tmp / "head.json", tmp / "head-work")

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
