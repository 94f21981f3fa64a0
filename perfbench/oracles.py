"""Known answers computed without the code under test.

Everything here reads the `.olog` / `.oinst` text with its own line scanner
and recomputes the answer a command should give: join sizes for pullbacks,
element counts, bijectivity and commutation of an isomorphism, the arrow-35
in-degree invariant, the chain failure formula, and path congruence classes.
None of it imports `ologkit`.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

_ARROW = re.compile(r"^\s*arrow (\w+) : (\w+) -> (\w+)")
_EQ = re.compile(r"^\s*eq (\w+)\.\.(\w+) : \[([\w,]*)\] = \[([\w,]*)\]")
_PULLBACK = re.compile(
    r"^\s*pullback (\w+) = \w+ ×\[\w+\] \w+ proj \((\w+), (\w+)\) legs \((\w+), (\w+)\)"
)


@dataclass
class SchemaText:
    """Arrows, equations and pullback squares read from `.olog` text."""

    arrows: dict[str, tuple[str, str]] = field(default_factory=dict)
    equations: list[tuple[str, str, tuple[str, ...], tuple[str, ...]]] = field(default_factory=list)
    pullbacks: list[tuple[str, str, str]] = field(default_factory=list)  # apex, leg1, leg2

    @property
    def boxes(self) -> set[str]:
        return {box for ends in self.arrows.values() for box in ends}


def read_schema(text: str) -> SchemaText:
    schema = SchemaText()
    for line in text.splitlines():
        if m := _ARROW.match(line):
            schema.arrows[m[1]] = (m[2], m[3])
        elif m := _EQ.match(line):
            lhs = tuple(a for a in m[3].split(",") if a)
            rhs = tuple(a for a in m[4].split(",") if a)
            schema.equations.append((m[1], m[2], lhs, rhs))
        elif m := _PULLBACK.match(line):
            schema.pullbacks.append((m[1], m[4], m[5]))
    return schema


@dataclass
class InstanceText:
    """Element ids per box and arrow tables read from canonical `.oinst` text."""

    sets: dict[str, list[str]] = field(default_factory=dict)
    tables: dict[str, dict[str, str]] = field(default_factory=dict)

    def elements(self) -> int:
        return sum(len(ids) for ids in self.sets.values())


def read_instance(text: str) -> InstanceText:
    inst = InstanceText()
    elems: list[str] | None = None
    table: dict[str, str] | None = None
    for line in text.splitlines():
        if line.startswith("  set "):
            elems = inst.sets.setdefault(line.split()[1], [])
        elif line.startswith("  fn "):
            table = inst.tables.setdefault(line.split()[1], {})
        elif line == "  }":
            elems = table = None
        elif elems is not None:
            elems.append(line.split(" = ", 1)[0].strip().rstrip(","))
        elif table is not None:
            src, dst = line.strip().rstrip(",").split(" -> ")
            table[src] = dst
    return inst


def join(inst: InstanceText, leg1: str, leg2: str) -> set[tuple[str, str]]:
    """Every (x, y) with leg1(x) = leg2(y), by grouping leg 2 on its image."""
    by_image: dict[str, list[str]] = {}
    for y, z in inst.tables.get(leg2, {}).items():
        by_image.setdefault(z, []).append(y)
    return {
        (x, y)
        for x, z in inst.tables.get(leg1, {}).items()
        for y in by_image.get(z, ())
    }


def join_count(inst: InstanceText, leg1: str, leg2: str) -> int:
    images = Counter(inst.tables.get(leg2, {}).values())
    return sum(images[z] for z in inst.tables.get(leg1, {}).values())


def check_report(schema: SchemaText, inst: InstanceText, name: str) -> list[str]:
    """The lines a clean `olog check` must print for this instance."""
    lines = [f"instance {name!r}: {inst.elements()} elements"]
    for start, end, lhs, rhs in schema.equations:
        checked = len(inst.sets.get(start, ()))
        lines.append(
            f"eq {start}..{end} : [{','.join(lhs)}] = [{','.join(rhs)}] "
            f"AllHold ({checked} elements)"
        )
    for apex, leg1, leg2 in schema.pullbacks:
        lines.append(f"pullback {apex} PASS ({join_count(inst, leg1, leg2)} pairs)")
    return lines


def in_degrees(inst: InstanceText, arrow: str) -> list[int]:
    """Sorted in-degree multiset of one arrow: an isomorphism invariant."""
    return sorted(Counter(inst.tables.get(arrow, {}).values()).values())


def mapping_error(
    schema: SchemaText,
    a: InstanceText,
    b: InstanceText,
    mapping: dict[str, dict[str, str]],
) -> str | None:
    """None when `mapping` is a bijection per box commuting with every arrow."""
    for box in schema.boxes:
        m = mapping.get(box, {})
        ea, eb = a.sets.get(box, []), b.sets.get(box, [])
        if set(m) != set(ea):
            return f"box {box}: mapping domain is not the set"
        if len(set(m.values())) != len(m) or set(m.values()) != set(eb):
            return f"box {box}: mapping is not a bijection"
    for arrow, (src, dst) in schema.arrows.items():
        ta, tb = a.tables.get(arrow, {}), b.tables.get(arrow, {})
        if len(ta) != len(tb):
            return f"arrow {arrow}: tables differ in size"
        m_src, m_dst = mapping.get(src, {}), mapping.get(dst, {})
        for x, image in ta.items():
            if m_dst.get(image) != tb.get(m_src.get(x)):
                return f"arrow {arrow}: mapping does not commute at {x}"
    return None


def parse_mapping(report: str) -> dict[str, dict[str, str]]:
    """The per-box bijection printed after `Found` by `olog iso`."""
    mapping: dict[str, dict[str, str]] = {}
    lines = report.splitlines()
    start = lines.index("Found") + 1
    for line in lines[start:]:
        if line.startswith("verdict:"):
            break
        box, pairs = line.split(": ", 1)
        mapping[box] = dict(pair.split("->") for pair in pairs.split(", "))
    return mapping


def chain_answer(
    glue: float,
    brick: float,
    lifeline: float | None,
    eps_rel: float,
    kappa: float,
) -> tuple[float, str]:
    """System failure min(brick, max(glue, lifeline)) and its class vs the glue."""
    failure = min(brick, max(glue, -math.inf if lifeline is None else lifeline))
    much_greater = failure > 0 if glue == 0 else failure >= kappa * glue
    if failure == math.inf or much_greater:
        return failure, "Ductile"
    if abs(failure - glue) <= eps_rel * max(abs(failure), abs(glue)):
        return failure, "Brittle"
    return failure, "Neither"


PathText = tuple[str, tuple[str, ...]]  # start box, arrow ids


def all_paths(schema: SchemaText) -> list[PathText]:
    """Every path of an acyclic schema, identities included."""
    out: dict[str, list[str]] = {}
    for arrow, (src, _dst) in schema.arrows.items():
        out.setdefault(src, []).append(arrow)
    paths: list[PathText] = []

    def walk(start: str, box: str, arrows: tuple[str, ...]) -> None:
        paths.append((start, arrows))
        for arrow in out.get(box, ()):
            walk(start, schema.arrows[arrow][1], arrows + (arrow,))

    for box in sorted(schema.boxes):
        walk(box, box, ())
    return paths


def path_classes(schema: SchemaText, paths: list[PathText]) -> dict[PathText, int]:
    """Congruence class of every path of an acyclic schema, by union-find.

    Two paths are joined when one equation side, matched at some position,
    rewrites one into the other; for an acyclic schema every class is finite,
    so the classes are exactly the equalities the presentation proves.
    """
    index = {path: i for i, path in enumerate(paths)}
    parent = list(range(len(paths)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    sides = [(s, l, r) for s, _e, l, r in schema.equations]
    sides += [(s, r, l) for s, _e, l, r in schema.equations]
    for start, arrows in paths:
        boxes = [start] + [schema.arrows[a][1] for a in arrows]
        for side_start, pattern, replacement in sides:
            k = len(pattern)
            for pos in range(len(arrows) - k + 1):
                if boxes[pos] == side_start and arrows[pos : pos + k] == pattern:
                    other = arrows[:pos] + replacement + arrows[pos + k :]
                    parent[find(index[(start, arrows)])] = find(index[(start, other)])
    return {path: find(i) for path, i in index.items()}


def parallel_pairs(
    schema: SchemaText, paths: list[PathText]
) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """Every unordered pair of distinct paths with the same endpoints."""
    ends: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for start, arrows in paths:
        end = schema.arrows[arrows[-1]][1] if arrows else start
        ends.setdefault((start, end), []).append(arrows)
    return [
        (start, p, q)
        for (start, _end), group in sorted(ends.items())
        for p, q in combinations(group, 2)
    ]


def class_size(word: tuple[str, ...]) -> int:
    """Number of words with the same letters: the commuting class of `word`."""
    size = math.factorial(len(word))
    for count in Counter(word).values():
        size //= math.factorial(count)
    return size
