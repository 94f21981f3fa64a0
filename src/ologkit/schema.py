"""Finite knowledge schemas: boxes, arrows, path equations, fiber products.

A schema is a finitely presented category: boxes are types, arrows are total
aspects, and declared path equations assert that certain diagrams commute.
Fiber-product declarations additionally mark a box as the pullback of a cospan;
their commuting square must itself be one of the declared equations (see
:func:`with_fiber_product_squares`).

Path equality is only semidecidable, so :func:`derive_equality` returns a
two-valued verdict — ``HOLDS`` with a rewrite witness, or ``UNKNOWN``.  It
never claims two paths are unequal.  An ``UNKNOWN`` may rest on a proof all
the same: when Knuth-Bendix completion of the equations finishes, different
shortlex normal forms refute the pair without a search, but the verdict
stays ``UNKNOWN``, exactly what the bounded search would have returned.
A schema resolves its declarations and finds its diagnostics and rewriting system once.
"""

from __future__ import annotations

import enum
import functools
import heapq
import operator
from collections import namedtuple
from dataclasses import dataclass, field, replace

from .diagnostics import Diagnostic, error, warning
from .errors import DomainError, EndpointMismatchError, MalformedPathError
from .ordering import natural_key

__all__ = [
    "BoxDecl",
    "ArrowDecl",
    "Path",
    "identity",
    "PathEquation",
    "FiberProductDecl",
    "OlogSchema",
    "SchemaFunctor",
    "EqVerdict",
    "RewriteStep",
    "EqualityResult",
    "validate_schema",
    "path_endpoints",
    "compose",
    "derive_equality",
    "check_functor",
    "with_fiber_product_squares",
]

# Rewrite search never keeps more than this many distinct paths; overflowing
# the cap degrades the answer to UNKNOWN (never to a false HOLDS).
_STATE_CAP = 100_000

# Knuth-Bendix completion gives up once it has added this many rules beyond
# one per equation; an equation set that does not complete within that leaves
# every query over it to the rewrite search.
_RULE_BUDGET = 32


@dataclass(frozen=True, slots=True)
class BoxDecl:
    """A type declaration: a stable id and a human-readable noun-phrase label."""

    id: str
    label: str
    tags: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True, slots=True)
class ArrowDecl:
    """An aspect declaration: a total function from box ``src`` to box ``dst``."""

    id: str
    src: str
    dst: str
    label: str = ""
    tags: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True, slots=True)
class Path:
    """A composable sequence of arrow ids starting at ``start``.

    The empty sequence is the identity path at ``start``.
    """

    start: str
    arrows: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.arrows, tuple):
            object.__setattr__(self, "arrows", tuple(self.arrows))

    def __str__(self) -> str:
        return f"{self.start}:[{','.join(self.arrows)}]"


def identity(box: str) -> Path:
    """The identity path at a box."""
    return Path(box, ())


@dataclass(frozen=True, slots=True)
class PathEquation:
    """An assertion that two parallel paths agree on every element."""

    lhs: Path
    rhs: Path
    note: str = ""

    def __str__(self) -> str:
        return f"[{','.join(self.lhs.arrows)}] = [{','.join(self.rhs.arrows)}]"


@dataclass(frozen=True, slots=True)
class FiberProductDecl:
    """Marks ``apex`` as the pullback of the cospan ``leg1``/``leg2``.

    Shape: ``proj1: apex -> X``, ``proj2: apex -> Y``, ``leg1: X -> Z``,
    ``leg2: Y -> Z``; the square ``proj1;leg1 = proj2;leg2`` must commute.
    """

    apex: str
    proj1: str
    proj2: str
    leg1: str
    leg2: str


@dataclass(frozen=True)
class OlogSchema:
    """An immutable schema; construct once, validate, then share freely.

    The declaration tuples preserve authoring order (duplicates are
    representable so :func:`validate_schema` can report them); ``box`` and
    ``arrow`` give first-declaration lookup by id.
    """

    name: str
    boxes: tuple[BoxDecl, ...] = ()
    arrows: tuple[ArrowDecl, ...] = ()
    equations: tuple[PathEquation, ...] = ()
    fiber_products: tuple[FiberProductDecl, ...] = ()

    @functools.cached_property
    def _box_by_id(self) -> dict[str, BoxDecl]:
        return {b.id: b for b in reversed(self.boxes)}  # the first declaration wins

    @functools.cached_property
    def _arrow_by_id(self) -> dict[str, ArrowDecl]:
        return {a.id: a for a in reversed(self.arrows)}

    def box(self, box_id: str) -> BoxDecl | None:
        return self._box_by_id.get(box_id)

    def arrow(self, arrow_id: str) -> ArrowDecl | None:
        return self._arrow_by_id.get(arrow_id)

    @functools.cached_property
    def _resolution(self) -> _Resolution:
        """Per equation, each side's :func:`_ends`; the index and ends of each equation
        whose sides agree; per fiber product, its corners or why there are none."""
        sides = tuple((_ends(self, eq.lhs), _ends(self, eq.rhs)) for eq in self.equations)
        usable = {index: lhs for index, (lhs, rhs) in enumerate(sides) if lhs == rhs}
        return _Resolution(sides, usable, tuple(_corners(self, fp) for fp in self.fiber_products))

    @functools.cached_property
    def _prefixes(self) -> tuple[tuple[_SidePlan, _SidePlan], ...]:
        """Per equation, how each side is composed when all are checked in order:
        see :func:`_prefix_plan`."""
        return _prefix_plan(self.equations)

    @functools.cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_diagnose(self))

    @functools.cached_property
    def _rewriting(self) -> _Rewriting:
        """Both rewrite sides of each usable equation as words (see
        _rewrite_neighbors), a letter per declared arrow in sorted-id order, the
        arrow of each letter, and the completed rules or None."""
        letter = {a: chr(i) for i, a in enumerate(sorted(self._arrow_by_id))}
        sides = []
        for index in self._resolution.usable:
            eq = self.equations[index]
            lhs, rhs = ("".join(map(letter.get, side.arrows)) for side in (eq.lhs, eq.rhs))
            sides.append((index, eq.lhs.start, lhs, "lhs->rhs", rhs))
            sides.append((index, eq.rhs.start, rhs, "rhs->lhs", lhs))
        arrow = {c: self._arrow_by_id[a] for a, c in letter.items()}
        rules = _shortlex_system([(lhs, rhs) for _, _, lhs, _, rhs in sides[::2]])
        return _Rewriting(tuple(sides), letter, arrow, rules)

    def canonical(self) -> "OlogSchema":
        """The same schema with all declarations in canonical sorted order."""

        def eq_key(resolved: tuple[PathEquation, tuple]) -> tuple:
            eq, (lhs, _) = resolved
            s, e = lhs if isinstance(lhs, tuple) else (eq.lhs.start, "")
            return (
                natural_key(s),
                natural_key(e),
                tuple(natural_key(a) for a in eq.lhs.arrows),
                tuple(natural_key(a) for a in eq.rhs.arrows),
            )

        return OlogSchema(
            self.name,
            tuple(sorted(self.boxes, key=lambda b: natural_key(b.id))),
            tuple(sorted(self.arrows, key=lambda a: natural_key(a.id))),
            tuple(eq for eq, _ in sorted(zip(self.equations, self._resolution.sides), key=eq_key)),
            tuple(sorted(self.fiber_products, key=lambda f: natural_key(f.apex))),
        )


@dataclass(frozen=True)
class SchemaFunctor:
    """A structure-preserving map between schemas.

    ``box_map`` and ``arrow_map`` must be total on the source schema and
    endpoint-preserving; :func:`check_functor` verifies this and additionally
    checks that every source equation's image is derivable in the target.
    """

    source: OlogSchema
    target: OlogSchema
    box_map: dict[str, str]
    arrow_map: dict[str, str]

    @classmethod
    def identity_on(cls, schema: OlogSchema) -> "SchemaFunctor":
        return cls(
            schema,
            schema,
            {b.id: b.id for b in schema.boxes},
            {a.id: a.id for a in schema.arrows},
        )

    def map_path(self, path: Path) -> Path:
        return Path(
            self.box_map[path.start],
            tuple(self.arrow_map[a] for a in path.arrows),
        )


# ---------------------------------------------------------------------------
# path algebra
# ---------------------------------------------------------------------------


def _ends(schema: OlogSchema, path: Path) -> tuple[str, str] | MalformedPathError:
    """(start box, end box) of a path, or the error saying why it has none.  An
    error equals only itself: equal results mean two paths resolve and are parallel."""
    if schema.box(path.start) is None:
        return MalformedPathError(f"path starts at undeclared box {path.start!r}")
    at = path.start
    for arrow_id in path.arrows:
        decl = schema.arrow(arrow_id)
        if decl is None:
            return MalformedPathError(f"path references undeclared arrow {arrow_id!r}")
        if decl.src != at:
            return MalformedPathError(f"arrow {arrow_id} starts at {decl.src}, not {at}")
        at = decl.dst
    return path.start, at


def path_endpoints(schema: OlogSchema, path: Path) -> tuple[str, str]:
    """(start box, end box) of a path; raises MalformedPathError otherwise."""
    if isinstance(ends := _ends(schema, path), MalformedPathError):
        raise ends
    return ends


_Resolution = namedtuple("_Resolution", "sides usable corners")
_Rewriting = namedtuple("_Rewriting", "sides letter arrow rules")
_SidePlan = namedtuple("_SidePlan", "depth base stops release")


def _prefix_plan(equations: tuple[PathEquation, ...]) -> tuple[tuple[_SidePlan, _SidePlan], ...]:
    """How to compose every side of ``equations``, checked in order, over the
    elements of its equation's start box, without composing a shared prefix
    twice or keeping one that no later side reads.

    Sides are numbered lhs then rhs, equation by equation.  The prefixes worth
    keeping are where two sides part or one ends: the branch and end nodes of
    a trie over the sides, each found in one walk, with the first and last
    side through it.  A side starts from the longest such prefix an earlier
    side kept (``depth`` arrows in, kept under node ``base``; depth 0 is the
    box itself), keeps each longer one a later side reads as ``stops`` of
    (depth, node), and then drops the kept ones it is the last to read
    (``release``).
    """
    children: list[dict[str, int]] = []
    first: list[int] = []
    last: list[int] = []

    def node(branches: dict[str, int], key: str) -> int:
        """The node ``branches`` holds under ``key``, made for this side if new."""
        if key not in branches:
            branches[key] = len(children)
            children.append({})
            first.append(side)
            last.append(side)
        return branches[key]

    roots: dict[str, int] = {}
    paths: list[list[int]] = []
    sides = ((eq.lhs.start, path.arrows) for eq in equations for path in (eq.lhs, eq.rhs))
    for side, (start, arrows) in enumerate(sides):
        at, path = node(roots, start), []
        for arrow_id in arrows:
            at = node(children[at], arrow_id)
            last[at] = side
            path.append(at)
        paths.append(path)
    ends = {path[-1] for path in paths if path}
    plans = []
    for side, path in enumerate(paths):
        depth, base, stops, release = 0, None, [], []
        for at, kept in enumerate(path, 1):
            if kept not in ends and len(children[kept]) < 2:
                continue
            if first[kept] < side:
                depth, base = at, kept
                if last[kept] == side:
                    release.append(kept)
            elif last[kept] > side:
                stops.append((at, kept))
        plans.append(_SidePlan(depth, base, tuple(stops), tuple(release)))
    return tuple(zip(plans[::2], plans[1::2]))


def _corners(schema: OlogSchema, fp: FiberProductDecl) -> tuple[str, str, str] | str:
    """The boxes X, Y, Z that ``proj1``, ``proj2`` and ``leg1`` end at, when every
    declared arrow of ``fp`` runs apex->X, apex->Y, X->Z and Y->Z; else why not."""
    p1, p2, l1, l2 = map(schema.arrow, (fp.proj1, fp.proj2, fp.leg1, fp.leg2))
    if None in (p1, p2, l1):
        return f"its corners need declared arrows {fp.proj1}, {fp.proj2} and {fp.leg1}"
    x, y, z = p1.dst, p2.dst, l1.dst
    for a, src, dst in ((p1, fp.apex, x), (p2, fp.apex, y), (l1, x, z), (l2, y, z)):
        if a is not None and (a.src, a.dst) != (src, dst):
            return f"arrow {a.id} runs {a.src}->{a.dst}, not {src}->{dst}"
    return x, y, z


def compose(schema: OlogSchema, first: Path, second: Path) -> Path:
    """first ; second — sequential composition, identity paths as units."""
    _, end = path_endpoints(schema, first)
    start2, _ = path_endpoints(schema, second)
    if end != start2:
        raise EndpointMismatchError(
            f"cannot compose: first path ends at {end}, second starts at {start2}"
        )
    return Path(first.start, first.arrows + second.arrows)


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def validate_schema(schema: OlogSchema) -> list[Diagnostic]:
    """All structural problems in the schema, as a deterministic list.

    Pure and idempotent; an empty result means the schema is well-formed.
    Found once per schema object; each call returns a new list.
    """
    return list(schema._diagnostics)


def _diagnose(schema: OlogSchema) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    seen_boxes: set[str] = set()
    for box in schema.boxes:
        if box.id in seen_boxes:
            diags.append(error("DUP_BOX_ID", f"box {box.id!r} declared twice", box.id))
        seen_boxes.add(box.id)
        if not box.label.strip():
            diags.append(error("EMPTY_LABEL", f"box {box.id!r} has an empty label", box.id))

    seen_arrows: set[str] = set()
    for arrow in schema.arrows:
        if arrow.id in seen_arrows:
            diags.append(
                error("DUP_ARROW_ID", f"arrow {arrow.id!r} declared twice", arrow.id)
            )
        seen_arrows.add(arrow.id)
        for endpoint in (arrow.src, arrow.dst):
            if schema.box(endpoint) is None:
                diags.append(
                    error(
                        "DANGLING_ARROW",
                        f"arrow {arrow.id} references undeclared box {endpoint!r}",
                        arrow.id,
                    )
                )

    for index, (eq, (lhs, rhs)) in enumerate(zip(schema.equations, schema._resolution.sides)):
        loc = f"eq#{index + 1}"
        for side_name, ends in (("lhs", lhs), ("rhs", rhs)):
            if isinstance(ends, MalformedPathError):
                diags.append(
                    error("MALFORMED_PATH", f"{side_name} of {eq}: {ends.message}", loc)
                )
        if isinstance(lhs, tuple) and isinstance(rhs, tuple) and lhs != rhs:
            diags.append(
                error(
                    "EQ_ENDPOINT_MISMATCH",
                    f"{eq}: sides run {lhs[0]}->{lhs[1]} vs {rhs[0]}->{rhs[1]}",
                    loc,
                )
            )

    squares = _squares(schema)
    seen_apexes: set[str] = set()
    for fp, corners in zip(schema.fiber_products, schema._resolution.corners):
        loc = f"pullback {fp.apex}"
        if fp.apex in seen_apexes:
            diags.append(
                error("DUP_FP_APEX", f"pullback for apex {fp.apex!r} declared twice", loc)
            )
        seen_apexes.add(fp.apex)
        if schema.box(fp.apex) is None:
            diags.append(
                error("FP_BAD_ARROW", f"apex {fp.apex!r} is not a declared box", loc)
            )
            continue
        missing = [
            name
            for name in ("proj1", "proj2", "leg1", "leg2")
            if schema.arrow(getattr(fp, name)) is None
        ]
        if missing:
            diags.append(
                error(
                    "FP_BAD_ARROW",
                    f"{loc} references undeclared arrow(s): "
                    + ", ".join(f"{m}={getattr(fp, m)}" for m in missing),
                    loc,
                )
            )
            continue
        # with the apex and all four arrows declared, the square chains iff they give corners
        square, declared = squares[fp]
        if isinstance(corners, str):
            diags.append(
                error(
                    "FP_SQUARE_SHAPE",
                    f"{loc}: proj ({fp.proj1}, {fp.proj2}) legs ({fp.leg1}, {fp.leg2}) "
                    "do not form a cospan square over the apex",
                    loc,
                )
            )
            continue
        if not declared:
            diags.append(
                error(
                    "FP_SQUARE_MISSING",
                    f"{loc}: the square {square} is not among the declared path equations",
                    loc,
                )
            )
    return diags


def _square(fp: FiberProductDecl) -> PathEquation:
    """The square ``[proj1,leg1] = [proj2,leg2]`` that makes ``fp`` commute."""
    return PathEquation(
        Path(fp.apex, (fp.proj1, fp.leg1)),
        Path(fp.apex, (fp.proj2, fp.leg2)),
        note=f"pullback square of {fp.apex}",
    )


def _squares(schema: OlogSchema) -> dict[FiberProductDecl, tuple[PathEquation, bool]]:
    """Each fiber product's square, and whether it is among the equations in
    either orientation, in declaration order."""
    declared = {(eq.lhs.start, eq.lhs.arrows, eq.rhs.arrows) for eq in schema.equations}
    declared |= {(eq.lhs.start, eq.rhs.arrows, eq.lhs.arrows) for eq in schema.equations}
    squares = {}
    for fp in schema.fiber_products:
        square = _square(fp)
        squares[fp] = square, (fp.apex, square.lhs.arrows, square.rhs.arrows) in declared
    return squares


def with_fiber_product_squares(schema: OlogSchema) -> OlogSchema:
    """Return the schema with every missing fiber-product square equation added.

    The DSL parser applies this after reading a schema block, so hand-written
    files may omit squares that are implied, and the serializer before writing.
    Already-present squares (either orientation) are left alone, and a repeated
    declaration adds its square once.
    """
    additions = tuple(square for square, declared in _squares(schema).values() if not declared)
    return replace(schema, equations=schema.equations + additions) if additions else schema


# ---------------------------------------------------------------------------
# bounded bidirectional rewriting
# ---------------------------------------------------------------------------


class EqVerdict(enum.Enum):
    HOLDS = "Holds"
    UNKNOWN = "Unknown"


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One rewrite: equation ``eq_index`` applied at ``position``.

    ``direction`` is "lhs->rhs" or "rhs->lhs" depending on which side was
    matched and replaced.
    """

    eq_index: int
    position: int
    direction: str


@dataclass(frozen=True)
class EqualityResult:
    """Outcome of :func:`derive_equality`.

    On ``HOLDS`` the witness is the full chain of paths from ``p`` to ``q``
    (inclusive) and ``rewrites`` records the step that produced each successive
    path.  ``UNKNOWN`` means the budget was exhausted without reaching ``q``,
    or that normal forms show no budget would reach it; it never asserts the
    paths are unequal.
    """

    verdict: EqVerdict
    steps: int | None = None
    witness: tuple[Path, ...] = ()
    rewrites: tuple[RewriteStep, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict is EqVerdict.HOLDS


def _rewrite_neighbors(start_box: str, word: str, sides: tuple, arrow: dict[str, ArrowDecl]):
    """Yield (new_word, RewriteStep) for every single rewrite of the word.

    ``sides`` carries (eq_index, pattern_start_box, pattern, direction,
    replacement) for both orientations of every equation, one letter per
    arrow; ``arrow`` gives each letter's declaration.
    """
    for eq_index, pat_start, pattern, direction, replacement in sides:
        if pattern:
            pos = word.find(pattern)
            while pos >= 0:  # overlapping matches too, in ascending order
                yield (
                    word[:pos] + replacement + word[pos + len(pattern) :],
                    RewriteStep(eq_index, pos, direction),
                )
                pos = word.find(pattern, pos + 1)
        else:
            # identity side: insert the replacement wherever the box matches
            boxes = [start_box, *(arrow[c].dst for c in word)]
            for pos, box in enumerate(boxes):
                if box == pat_start:
                    yield (
                        word[:pos] + replacement + word[pos:],
                        RewriteStep(eq_index, pos, direction),
                    )


def _normal_form(rules: dict[str, str], word: str) -> str:
    """Rewrite ``word`` by ``rules`` (lhs -> rhs, one character per arrow) until
    no left-hand side occurs in it."""
    while True:
        for lhs, rhs in rules.items():
            if lhs in word:
                word = word.replace(lhs, rhs)
                break
        else:
            return word


def _shortlex_system(equations: list[tuple[str, str]]) -> dict[str, str] | None:
    """Knuth-Bendix completion of word equations under shortlex order.

    Critical pairs are taken shortest first and the rules are kept
    interreduced.  Returns the rules (lhs -> rhs): a confluent, terminating
    system under which two words have one normal form exactly when the
    equations join them.  A rewrite of a path by an equation is such a string
    step, so it never changes the normal form.  Returns None once completion
    has added ``_RULE_BUDGET`` rules more than there are equations.
    """
    heap = [(len(x) + len(y), x, y) for x, y in equations]
    heapq.heapify(heap)

    def push(x: str, y: str) -> None:
        heapq.heappush(heap, (len(x) + len(y), x, y))

    rules: dict[str, str] = {}
    added = 0
    while heap:
        _, x, y = heapq.heappop(heap)
        x, y = _normal_form(rules, x), _normal_form(rules, y)
        if x == y:
            continue
        if (len(x), x) < (len(y), y):
            x, y = y, x
        added += 1
        if added > len(equations) + _RULE_BUDGET:
            return None
        for lhs, rhs in list(rules.items()):
            if x in lhs:  # the new rule rewrites this left side: re-derive it
                del rules[lhs]
                push(lhs, rhs)
        rules[x] = y
        rules = {lhs: _normal_form(rules, rhs) for lhs, rhs in rules.items()}
        for lhs, rhs in rules.items():
            for a, b, c, d in ((x, y, lhs, rhs), (lhs, rhs, x, y)):
                # a suffix of a overlaps a prefix of c in the word a + c[k:]
                for k in range(1, min(len(a), len(c))):
                    if a.endswith(c[:k]):
                        push(b + c[k:], a[:-k] + d)
    return rules


def derive_equality(
    schema: OlogSchema, p: Path, q: Path, max_steps: int
) -> EqualityResult:
    """Try to prove p = q by at most ``max_steps`` equation rewrites.

    Breadth-first over rewrite applications, both directions of every declared
    equation, matching any contiguous subpath.  The search runs on the words
    the completion reads, one letter per arrow, and decodes only the witness.
    Deterministic; emits the full witness chain on success.  Raises
    EndpointMismatchError when the two paths are not even parallel, and
    DomainError unless ``max_steps`` is an integer.

    When the schema's usable equations complete into a shortlex system (once
    per schema, and kept) and p and q have different normal forms there, no
    rewrite chain joins them, so the search could only end in UNKNOWN: that
    verdict is returned at once, the same result sooner.
    """
    try:
        budget = operator.index(max_steps)
    except TypeError:
        raise DomainError(f"max_steps must be an integer, got {max_steps!r}") from None
    sp = path_endpoints(schema, p)
    sq = path_endpoints(schema, q)
    if sp != sq:
        raise EndpointMismatchError(
            f"paths are not parallel: {p} runs {sp[0]}->{sp[1]}, {q} runs {sq[0]}->{sq[1]}"
        )

    if p.arrows == q.arrows:
        return EqualityResult(EqVerdict.HOLDS, steps=0, witness=(p,))

    sides, letter, arrow, rules = schema._rewriting
    start, target = ("".join(map(letter.get, x.arrows)) for x in (p, q))
    if rules is not None and _normal_form(rules, start) != _normal_form(rules, target):
        return EqualityResult(EqVerdict.UNKNOWN)  # no rewrite chain joins them

    parents: dict[str, tuple[str, RewriteStep] | None] = {start: None}
    frontier = [start]
    for depth in range(1, budget + 1):
        next_frontier: list[str] = []
        for state in frontier:
            for new_word, step in _rewrite_neighbors(p.start, state, sides, arrow):
                if new_word in parents:
                    continue
                parents[new_word] = (state, step)
                if new_word == target:
                    chain, rewrites = [new_word], []
                    while (entry := parents[chain[-1]]) is not None:
                        chain.append(entry[0])
                        rewrites.append(entry[1])
                    witness = [Path(p.start, tuple(arrow[c].id for c in w)) for w in chain]
                    return EqualityResult(
                        EqVerdict.HOLDS,
                        steps=depth,
                        witness=tuple(reversed(witness)),
                        rewrites=tuple(reversed(rewrites)),
                    )
                if len(parents) >= _STATE_CAP:
                    return EqualityResult(EqVerdict.UNKNOWN)
                next_frontier.append(new_word)
        if not next_frontier:
            break  # saturated: no new paths reachable at any larger budget
        frontier = next_frontier
    return EqualityResult(EqVerdict.UNKNOWN)


def replay_witness(schema: OlogSchema, result: EqualityResult) -> bool:
    """Independently re-check a HOLDS witness, one rewrite at a time.

    Used by tests as the soundness oracle: every consecutive pair of witness
    paths must differ by exactly the recorded equation application, and every
    intermediate path must be well-formed and parallel to the first.  A step
    naming no declared equation, direction or position in the path fails, and
    so does one through an equation whose sides do not chain to shared ends.
    """
    if not result.holds or len(result.witness) != len(result.rewrites) + 1:
        return False
    ends = {_ends(schema, path) for path in result.witness}  # an error equals only itself
    if len(ends) != 1 or not isinstance(ends.pop(), tuple):
        return False
    for before, after, step in zip(result.witness, result.witness[1:], result.rewrites):
        if step.eq_index not in schema._resolution.usable:
            return False
        eq = schema.equations[step.eq_index]
        if step.direction == "lhs->rhs":
            pattern, replacement = eq.lhs.arrows, eq.rhs.arrows
        elif step.direction == "rhs->lhs":
            pattern, replacement = eq.rhs.arrows, eq.lhs.arrows
        else:
            return False
        pos, end = step.position, step.position + len(pattern)
        if not 0 <= pos <= end <= len(before.arrows) or before.arrows[pos:end] != pattern:
            return False
        if before.arrows[:pos] + replacement + before.arrows[end:] != after.arrows:
            return False
    return True


# ---------------------------------------------------------------------------
# functor checking
# ---------------------------------------------------------------------------


def check_functor(functor: SchemaFunctor, max_steps: int = 64) -> list[Diagnostic]:
    """Structural diagnostics for a schema functor.

    Errors cover totality, unknown targets, and endpoint preservation.  For
    each source equation the image equation is submitted to
    :func:`derive_equality` in the target schema; an UNKNOWN outcome is
    reported as the warning ``EQ_IMAGE_UNKNOWN`` (underivability within budget
    is not evidence of failure).
    """
    diags: list[Diagnostic] = []
    src, dst = functor.source, functor.target

    for box in src.boxes:
        image = functor.box_map.get(box.id)
        if image is None:
            diags.append(
                error("MISSING_MAPPING", f"box {box.id} has no image", box.id)
            )
        elif dst.box(image) is None:
            diags.append(
                error(
                    "UNKNOWN_TARGET",
                    f"box {box.id} maps to undeclared box {image!r}",
                    box.id,
                )
            )

    for arrow in src.arrows:
        image_id = functor.arrow_map.get(arrow.id)
        if image_id is None:
            diags.append(
                error("MISSING_MAPPING", f"arrow {arrow.id} has no image", arrow.id)
            )
            continue
        image = dst.arrow(image_id)
        if image is None:
            diags.append(
                error(
                    "UNKNOWN_TARGET",
                    f"arrow {arrow.id} maps to undeclared arrow {image_id!r}",
                    arrow.id,
                )
            )
            continue
        want_src = functor.box_map.get(arrow.src)
        want_dst = functor.box_map.get(arrow.dst)
        if want_src is not None and image.src != want_src:
            diags.append(
                error(
                    "ENDPOINT_VIOLATION",
                    f"arrow {arrow.id}: image {image_id} starts at {image.src}, "
                    f"expected {want_src}",
                    arrow.id,
                )
            )
        if want_dst is not None and image.dst != want_dst:
            diags.append(
                error(
                    "ENDPOINT_VIOLATION",
                    f"arrow {arrow.id}: image {image_id} ends at {image.dst}, "
                    f"expected {want_dst}",
                    arrow.id,
                )
            )

    if any(d.code in ("MISSING_MAPPING", "UNKNOWN_TARGET", "ENDPOINT_VIOLATION") for d in diags):
        return diags

    # neither a malformed source equation nor images parting at an undeclared box is its fault
    for index in src._resolution.usable:
        eq = src.equations[index]
        lhs, rhs = functor.map_path(eq.lhs), functor.map_path(eq.rhs)
        if _ends(dst, lhs) == _ends(dst, rhs) and not derive_equality(dst, lhs, rhs, max_steps).holds:
            diags.append(
                warning(
                    "EQ_IMAGE_UNKNOWN",
                    f"image of equation {eq} could not be derived in "
                    f"{max_steps} steps",
                    f"eq#{index + 1}",
                )
            )
    return diags
