"""The benchmark's workloads: fixtures written at set-up, ops, and answers.

A workload is a fixed sequence of ops drawn from the seed.  Its build
function writes the fixture files (part of the timed set-up) and returns
the ops; each op carries an `answer` factory that reads those files with
`oracles` and returns a judge for the op's outcome (this runs once,
outside all timing).

Sizes come from ladders of (kind, lowest n, highest n, ops per round).  The
seed draws each n inside its own equal slice of the rung (stratified), plus
the domain, defect sites and parameters; the rungs themselves are fixed, so
the total work of a round barely moves with the seed and the seed-to-seed
spread of the end-to-end metrics stays small.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import oracles

# Judges return None for the known answer, else what was wrong with it.
Judge = Callable[[object], "str | None"]

DOMAINS = ("protein", "social")


@dataclass
class Op:
    name: str
    argv: list[str] | None = None  # an `olog` command line
    derive: tuple | None = None  # (schema, p, q, max_steps) for derive_equality
    answer: Callable[[], Judge] | None = None


class Fixtures:
    """Writes each fixture file once per (kind, domain, n) with the program."""

    def __init__(self, mods, work: Path):
        self.mods = mods
        self.work = work
        self.schema = mods.bundled.bundled_schema()
        self.schema_path = str(work / "paper.olog")
        Path(self.schema_path).write_text(
            mods.bundled.bundled_text("paper.olog"), encoding="utf-8"
        )
        self._paths: dict[tuple[str, str, int], str] = {}

    def params(self, kind: str, domain: str, n: int):
        sim = self.mods.chains.SimParams
        if kind == "ductile":  # lifeline, unbreakable bricks: ~3n^2 elements
            return sim(n, 20.6, math.inf, True, 23.45, 100.0, domain)
        if kind == "bonded":  # bricks and lifelines roughly equal: ~2n^3
            return sim(n, 20.6, 100.0, True, 23.45, 110.0, domain)
        return sim(n, 20.6, math.inf, False, domain=domain)  # brittle: ~2n^2

    def instance(self, kind: str, domain: str, n: int) -> str:
        key = (kind, domain, n)
        if key not in self._paths:
            inst = self.mods.chains.generate_instance(self.params(kind, domain, n), self.schema)
            path = self.work / f"{kind}-{domain}-{n}.oinst"
            path.write_text(self.mods.dsl.serialize_instance(inst), encoding="utf-8")
            self._paths[key] = str(path)
        return self._paths[key]

    def variant(self, source: str, tag: str, edit: Callable[[list[str]], None]) -> str:
        lines = Path(source).read_text(encoding="utf-8").split("\n")
        edit(lines)
        path = source.replace(".oinst", f".{tag}.oinst")
        Path(path).write_text("\n".join(lines), encoding="utf-8")
        return path


class Texts:
    """Memoized oracle reads of the schema and fixture files."""

    def __init__(self):
        self._cache: dict[str, object] = {}

    def schema(self, path: str) -> oracles.SchemaText:
        if path not in self._cache:
            self._cache[path] = oracles.read_schema(Path(path).read_text(encoding="utf-8"))
        return self._cache[path]

    def instance(self, path: str) -> oracles.InstanceText:
        if path not in self._cache:
            self._cache[path] = oracles.read_instance(Path(path).read_text(encoding="utf-8"))
        return self._cache[path]


def _sizes(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` brick counts in [lo, hi], one drawn from each equal slice."""
    width = (hi - lo + 1) / count
    return [int(lo + width * (i + rng.random())) for i in range(count)]


def _table_lines(lines: list[str], arrow: str) -> range:
    """Indices of the entry lines of `fn <arrow>`, the last one excluded.

    The last entry carries no trailing comma, so edits keep away from it.
    """
    start = lines.index(f"  fn {arrow} {{") + 1
    end = lines.index("  }", start)
    return range(start, end - 1)


def _repoint(lines: list[str], index: int, targets: list[str], rng: random.Random) -> None:
    src, dst = lines[index].strip().rstrip(",").split(" -> ")
    other = rng.choice([t for t in targets if t != dst])
    lines[index] = f"    {src} -> {other},"


def _expect_code(code: int, outcome) -> str | None:
    got = outcome[0]
    return None if got == code else f"exit code {got}, expected {code}"


# ---------------------------------------------------------------------------
# check: the read path
# ---------------------------------------------------------------------------

# Parse is most of a check.  Sizes run from a few hundred elements to one
# bonded n=30 instance (54k elements), where the quadratic joins show.  Eight
# inputs of about 1.8k elements (ductile n=24-25, brittle n=30-31) sit at the
# 90th percentile, so that op_s.p90 does not jump between unlike ops.
CHECK_LADDER = (
    ("ductile", 4, 10, 10), ("ductile", 12, 20, 4), ("ductile", 24, 25, 4),
    ("bonded", 3, 6, 10), ("bonded", 7, 9, 3), ("bonded", 11, 11, 1), ("bonded", 30, 30, 1),
    ("brittle", 4, 10, 10), ("brittle", 14, 24, 3), ("brittle", 30, 31, 4),
)
CHECK_DEFECTS = 6  # on inputs of at most 10 bricks
# The K = N x[R] L square is only populated when bricks and lifelines bond.
PULLBACK_LADDER = (("bonded", 3, 6, 3), ("bonded", 7, 9, 1), ("bonded", 11, 11, 1))


def _check_clean(texts: Texts, schema_path: str, path: str, name: str) -> Judge:
    expected = oracles.check_report(texts.schema(schema_path), texts.instance(path), name)

    def judge(outcome) -> str | None:
        if err := _expect_code(0, outcome):
            return err
        body = set(outcome[1].splitlines())
        missing = [line for line in expected if line not in body]
        return f"report lacks {missing[0]!r}" if missing else None

    return judge


def _check_defect(marker: str) -> Judge:
    def judge(outcome) -> str | None:
        if err := _expect_code(1, outcome):
            return err
        return None if marker in outcome[1] else f"report lacks {marker!r}"

    return judge


def _pullback(texts: Texts, path: str, leg1: str, leg2: str) -> Judge:
    pairs = oracles.join(texts.instance(path), leg1, leg2)

    def judge(outcome) -> str | None:
        if err := _expect_code(0, outcome):
            return err
        lines = outcome[1].splitlines()
        head = f"pullback along {leg1}, {leg2}: {len(pairs)} pairs"
        if head not in lines:
            return f"report lacks {head!r}"
        shown = {tuple(l[1:-1].split(", ")) for l in lines if l.startswith("(")}
        return None if shown == pairs else "listed pairs differ from the join"

    return judge


def build_check(fx: Fixtures, rng: random.Random) -> list[Op]:
    texts = Texts()
    ops: list[Op] = []
    small: list[Op] = []
    for kind, lo, hi, count in CHECK_LADDER:
        for n in _sizes(rng, lo, hi, count):
            domain = rng.choice(DOMAINS)
            path = fx.instance(kind, domain, n)
            ops.append(Op(
                f"check {kind} n={n} {domain}",
                ["check", fx.schema_path, path],
                answer=lambda path=path, domain=domain: _check_clean(
                    texts, fx.schema_path, path, domain),
            ))
            if n <= 10:
                small.append(ops[-1])
    # One injected defect per input: a dropped table entry (caught by
    # validation) or an N element sent to the wrong brick (caught by the
    # equation [32,35] = [30,39]).
    for index, base in enumerate(rng.sample(small, CHECK_DEFECTS)):
        source = base.argv[2]
        bricks = texts.instance(source).sets["R"]
        if index % 2 == 0:
            row = rng.choice(_table_lines(Path(source).read_text().split("\n"), "35"))
            path = fx.variant(source, f"drop{row}", lambda lines, row=row: lines.pop(row))
            marker, what = "MISSING_IMAGE", "dropped entry"
        else:
            row = rng.choice(_table_lines(Path(source).read_text().split("\n"), "30"))
            path = fx.variant(
                source, f"wrong{row}",
                lambda lines, row=row: _repoint(lines, row, bricks, rng))
            marker, what = "[32,35] = [30,39] Counterexample", "wrong brick"
        ops.append(Op(
            f"{base.name} {what}", ["check", fx.schema_path, path],
            answer=lambda marker=marker: _check_defect(marker),
        ))
    for kind, lo, hi, count in PULLBACK_LADDER:
        for n in _sizes(rng, lo, hi, count):
            domain = rng.choice(DOMAINS)
            path = fx.instance(kind, domain, n)
            ops.append(Op(
                f"pullback 30 27 {kind} n={n} {domain}",
                ["pullback", fx.schema_path, path, "30", "27"],
                answer=lambda path=path: _pullback(texts, path, "30", "27"),
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# simulate: the write path
# ---------------------------------------------------------------------------

# One bonded n=40 chain (128k elements) per round, the rest small and varied.
SIMULATE_LADDER = (
    ("bonded", 40, 40, 1), ("bonded", 3, 8, 10), ("ductile", 4, 30, 18),
    ("brittle", 4, 40, 18), ("social-msg", 4, 40, 9), ("social-msg-ll", 3, 6, 4),
)


def _simulate_argv(kind: str, n: int, out: str, rng: random.Random):
    """Legal `olog simulate` arguments and the chain they describe."""
    eps, kappa = round(rng.uniform(0.15, 0.3), 3), round(rng.uniform(2.5, 3.2), 3)
    argv = ["simulate", "--bricks", str(n), "--eps-rel", str(eps), "--kappa", str(kappa)]
    domain = "social" if kind.startswith("social") else rng.choice(DOMAINS)
    argv += ["--domain", domain]
    brick, lifeline = math.inf, None
    if kind.startswith("social"):
        length, tau = rng.randint(10, 100), round(rng.uniform(0.3, 0.9), 3)
        argv += ["--msg-len", str(length), "--msg-success", str(tau)]
        glue = 1.0 - tau ** (1.0 / length)
        if kind == "social-msg-ll":  # resting defaults to the glue, failures to inf
            argv.append("--lifeline")
            lifeline = math.inf
    else:
        glue = round(rng.uniform(5.0, 50.0), 2)
        argv += ["--glue-fail", str(glue)]
        if kind == "brittle" and rng.random() < 0.5:
            brick = round(glue * rng.uniform(3.5, 8.0), 2)
        if kind == "bonded":
            brick = round(glue * rng.uniform(4.0, 8.0), 2)
        if brick != math.inf:
            argv += ["--brick-fail", str(brick)]
        if kind in ("ductile", "bonded"):
            rest = round(glue * rng.uniform(0.9, 1.1), 2)
            base = brick if kind == "bonded" else max(rest, glue)
            lifeline = round(base * rng.uniform(1.0 if kind == "bonded" else 1.05,
                                                1.1 if kind == "bonded" else 6.0), 2)
            if lifeline in (glue, rest):  # rounding collisions are illegal input
                lifeline = round(lifeline + 0.01, 2)
            argv += ["--lifeline", "--ll-rest", str(rest), "--ll-fail", str(lifeline)]
    argv += ["-o", out]
    return argv, oracles.chain_answer(glue, brick, lifeline, eps, kappa)


def _simulate(out: str, answer: tuple[float, str]) -> Judge:
    failure, cls = answer
    line = f"failure={failure:g} class={cls}"

    def judge(outcome) -> str | None:
        if err := _expect_code(0, outcome):
            return err
        lines = outcome[1].splitlines()
        if line not in lines:
            return f"report lacks {line!r}"
        written = oracles.read_instance(Path(out).read_text(encoding="utf-8")).elements()
        shown = f"elements={written}"
        return None if shown in lines else f"report lacks {shown!r} for the file written"

    return judge


def build_simulate(fx: Fixtures, rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for kind, lo, hi, count in SIMULATE_LADDER:
        for n in _sizes(rng, lo, hi, count):
            out = str(fx.work / f"out-{len(ops)}.oinst")
            argv, answer = _simulate_argv(kind, n, out, rng)
            ops.append(Op(
                f"simulate {kind} n={n}", argv,
                answer=lambda out=out, answer=answer: _simulate(out, answer),
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# iso: colour refinement and backtracking
# ---------------------------------------------------------------------------

# Twin pairs from ductile n=22 and bonded n=10 up make the recursive search
# exceed the default recursion limit (see NOTES.md).  `iso` stays clear below
# both lines, so none of its ops fails; `iso-deep` sits clear above them.
ISO_LADDER = (
    ("twin", "ductile", 4, 10, 22), ("twin", "ductile", 11, 16, 6),
    ("twin", "bonded", 3, 5, 20), ("twin", "bonded", 6, 7, 4),
    ("rewired", "ductile", 4, 24, 8), ("rewired", "bonded", 3, 10, 4),
)
# Twin pairs on the far side of the crash line; no op here can succeed yet.
ISO_DEEP_LADDER = (("twin", "ductile", 28, 40, 4), ("twin", "bonded", 12, 16, 4),
                   ("twin", "ductile", 9, 18, 4), ("rewired", "ductile", 28, 40, 2))


def _iso(texts: Texts, schema_path: str, path_a: str, path_b: str) -> Judge:
    schema = texts.schema(schema_path)
    a, b = texts.instance(path_a), texts.instance(path_b)
    # Differing arrow-35 in-degrees rule an isomorphism out; equal ones do
    # not prove one exists, so a Found answer is re-verified in full.
    negative = oracles.in_degrees(a, "35") != oracles.in_degrees(b, "35")

    def judge(outcome) -> str | None:
        report = outcome[1]
        if negative:
            if err := _expect_code(1, outcome):
                return err
            return None if "NotFound certificate=" in report else "no NotFound line"
        if err := _expect_code(0, outcome):
            return err
        return oracles.mapping_error(schema, a, b, oracles.parse_mapping(report))

    return judge


def _build_iso(fx: Fixtures, rng: random.Random, ladder) -> list[Op]:
    texts = Texts()
    ops: list[Op] = []
    for shape, kind, lo, hi, count in ladder:
        for n in _sizes(rng, lo, hi, count):
            path_a = fx.instance(kind, "protein", n)
            path_b = fx.instance(kind, "social", n)
            if shape == "rewired":  # one P element now yields another brick
                bricks = texts.instance(path_b).sets["R"]
                row = rng.choice(_table_lines(Path(path_b).read_text().split("\n"), "35"))
                path_b = fx.variant(
                    path_b, f"rewired{row}",
                    lambda lines, row=row: _repoint(lines, row, bricks, rng))
            ops.append(Op(
                f"iso {shape} {kind} n={n}", ["iso", fx.schema_path, path_a, path_b],
                answer=lambda a=path_a, b=path_b: _iso(texts, fx.schema_path, a, b),
            ))
    rng.shuffle(ops)
    return ops


def build_iso(fx: Fixtures, rng: random.Random) -> list[Op]:
    return _build_iso(fx, rng, ISO_LADDER)


def build_iso_deep(fx: Fixtures, rng: random.Random) -> list[Op]:
    return _build_iso(fx, rng, ISO_DEEP_LADDER)


# ---------------------------------------------------------------------------
# derive: path-equality rewriting
# ---------------------------------------------------------------------------

# One-box presentations: k endo-arrows on one box, all pairs commuting.  Two
# words are equal exactly when their letter multisets are.  The rewrite
# search refutes an unequal pair only by enumerating the whole class of the
# first word, whose size the letter counts fix, so those ops cost the same
# on every seed: a hundred mid-sized ones hold op_s.p90 steady, the larger
# saturate in about half a second, and the last (756 756 words) runs into
# the search's 100 000-state cap.  Equal pairs stop when the search meets
# the second word; their class sizes follow a geometric ladder.
DERIVE_REFUTED = (  # (letter counts, ops)
    ((3, 3, 2), 100), ((8, 8), 1), ((4, 4, 3), 1), ((3, 3, 2, 2), 1), ((5, 5, 5), 1),
)
DERIVE_HOLDS = (20, 300, 50)  # class sizes from, to; ops


def _one_box(mods, k: int):
    s = mods.schema
    letters = tuple("abcdefgh"[:k])
    equations = tuple(
        s.PathEquation(s.Path("X", (x, y)), s.Path("X", (y, x)))
        for i, x in enumerate(letters) for y in letters[i + 1:]
    )
    arrows = tuple(s.ArrowDecl(x, "X", "X") for x in letters)
    return s.OlogSchema(f"commuting-{k}", (s.BoxDecl("X", "a monoid"),), arrows, equations), letters


def _word(rng: random.Random, letters: tuple[str, ...], target: float) -> tuple[str, ...]:
    """A word whose class size is within 20% of `target`."""
    while True:
        word = tuple(rng.choice(letters) for _ in range(rng.randint(3, 20)))
        if target / 1.2 <= oracles.class_size(word) <= target * 1.2:
            return word


def _derive(holds: bool) -> Judge:
    def judge(result) -> str | None:
        return None if result.holds == holds else f"holds={result.holds}, expected {holds}"

    return judge


def build_derive(fx: Fixtures, rng: random.Random) -> list[Op]:
    s = fx.mods.schema
    ops: list[Op] = []
    bundled = oracles.read_schema(Path(fx.schema_path).read_text(encoding="utf-8"))
    paths = oracles.all_paths(bundled)
    classes: dict[oracles.PathText, int] = {}

    def bundled_answer(start: str, p: tuple[str, ...], q: tuple[str, ...]) -> Judge:
        if not classes:
            classes.update(oracles.path_classes(bundled, paths))
        return _derive(classes[(start, p)] == classes[(start, q)])

    for start, p, q in oracles.parallel_pairs(bundled, paths):
        ops.append(Op(
            f"derive bundled {start}:[{','.join(p)}] ? [{','.join(q)}]",
            derive=(fx.schema, s.Path(start, p), s.Path(start, q), 64),
            answer=lambda start=start, p=p, q=q: bundled_answer(start, p, q),
        ))
    presentations = {k: _one_box(fx.mods, k) for k in (2, 3, 4)}
    pairs = []
    lo, hi, count = DERIVE_HOLDS
    for index in range(count):
        schema, letters = presentations[2 + index % 3]
        p = _word(rng, letters, lo * (hi / lo) ** (index / (count - 1)))
        pairs.append((schema, p, rng.sample(p, len(p))))
    for counts, count in DERIVE_REFUTED:
        schema, letters = presentations[len(counts)]
        multiset = [x for x, n in zip(letters, counts) for _ in range(n)]
        for _ in range(count):
            p, q = rng.sample(multiset, len(multiset)), rng.sample(multiset, len(multiset))
            at = rng.randrange(len(q))
            q[at] = rng.choice([x for x in letters if x != q[at]])
            pairs.append((schema, tuple(p), q))
    for schema, p, q in pairs:
        holds = sorted(p) == sorted(q)
        ops.append(Op(
            f"derive {schema.name} class={oracles.class_size(p)} "
            f"{'equal' if holds else 'unequal'}",
            derive=(schema, s.Path("X", p), s.Path("X", tuple(q)), 1_000),
            answer=lambda holds=holds: _derive(holds),
        ))
    rng.shuffle(ops)
    return ops


def warm_up(fx: Fixtures, name: str) -> list[Op]:
    """Small ops of the workload's kinds, run once in every set-up."""
    s = fx.schema_path
    if name == "derive":
        path = fx.mods.schema.Path
        return [Op("warm", derive=(fx.schema, path("A", ("2", "12")), path("A", ("3",)), 64))]
    if name == "simulate":
        return [Op("warm", ["simulate", "--bricks", "4", "-o", str(fx.work / "warm.oinst")])]
    if name == "check":
        small = fx.instance("bonded", "protein", 4)
        return [Op("warm", ["check", s, small]), Op("warm", ["pullback", s, small, "30", "27"])]
    pair = [fx.instance("ductile", domain, 9) for domain in DOMAINS]
    return [Op("warm", ["iso", s, *pair])]


WORKLOADS: dict[str, Callable[[Fixtures, random.Random], list[Op]]] = {
    "check": build_check,
    "simulate": build_simulate,
    "iso": build_iso,
    "derive": build_derive,
    "iso-deep": build_iso_deep,
}
