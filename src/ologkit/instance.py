"""Set-valued instances of a schema and the checks that make them honest.

An instance assigns a finite set of elements to every box and a total function
table to every arrow.  Everything here is deterministic: element order is
canonical (natural key), counterexamples are first in that order, and the
isomorphism search re-verifies any map it finds before reporting success.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import groupby

from .diagnostics import Diagnostic, error
from .errors import (
    CospanMismatchError,
    ElementNotInSourceError,
    SchemaMismatchError,
)
from .graphs import Graph
from .ordering import natural_key, natural_order
from .schema import FiberProductDecl, OlogSchema, Path, PathEquation, path_endpoints

__all__ = [
    "RealPayload",
    "PairPayload",
    "GraphPayload",
    "TextPayload",
    "Payload",
    "payload_type_name",
    "Instance",
    "validate_instance",
    "eval_path",
    "EquationReport",
    "check_equation",
    "check_all_equations",
    "compute_pullback",
    "FiberProductReport",
    "verify_fiber_product",
    "verify_all_fiber_products",
    "IsoOutcome",
    "IsoResult",
    "check_instance_isomorphism",
    "verify_isomorphism",
]


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


def _as_extended_real(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} needs a number, got {value!r}")
    result = float(value)
    if math.isnan(result):
        raise ValueError(f"{what} cannot be NaN")
    return result


@dataclass(frozen=True, slots=True)
class RealPayload:
    """An extended-real value; infinities are representable, NaN is not."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _as_extended_real(self.value, "real payload"))


@dataclass(frozen=True, slots=True)
class PairPayload:
    """An ordered pair of extended-real values."""

    first: float
    second: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", _as_extended_real(self.first, "pair payload"))
        object.__setattr__(self, "second", _as_extended_real(self.second, "pair payload"))


@dataclass(frozen=True, slots=True)
class GraphPayload:
    """A directed graph value."""

    graph: Graph


@dataclass(frozen=True, slots=True)
class TextPayload:
    """A free-text value."""

    text: str


Payload = RealPayload | PairPayload | GraphPayload | TextPayload


def payload_type_name(payload: Payload | None) -> str:
    if payload is None:
        return "none"
    return {
        RealPayload: "real",
        PairPayload: "pair",
        GraphPayload: "graph",
        TextPayload: "text",
    }[type(payload)]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A finite set-valued model of a schema.

    ``sets`` maps box id -> {element id -> optional payload}; ``functions``
    maps arrow id -> {element id -> element id}.  Boxes or arrows absent from
    the dicts are treated as empty, which :func:`validate_instance` flags
    unless the source set is itself empty.
    """

    name: str
    schema_name: str
    sets: dict[str, dict[str, Payload | None]] = field(default_factory=dict)
    functions: dict[str, dict[str, str]] = field(default_factory=dict)

    def elements(self, box_id: str) -> dict[str, Payload | None]:
        return self.sets.get(box_id, {})

    def table(self, arrow_id: str) -> dict[str, str]:
        return self.functions.get(arrow_id, {})

    def canonical(self) -> "Instance":
        """Same instance in fresh dicts, keys in natural-key order, empties dropped."""
        sets = {
            box_id: {eid: elems[eid] for eid in natural_order(elems)}
            for box_id in natural_order(self.sets)
            if (elems := self.sets[box_id])
        }
        functions = {
            arrow_id: {eid: table[eid] for eid in natural_order(table)}
            for arrow_id in natural_order(self.functions)
            if (table := self.functions[arrow_id])
        }
        return Instance(self.name, self.schema_name, sets, functions)


def _require_schema(schema: OlogSchema, instance: Instance) -> None:
    if instance.schema_name != schema.name:
        raise SchemaMismatchError(
            f"instance {instance.name!r} targets schema {instance.schema_name!r}, "
            f"not {schema.name!r}"
        )


def validate_instance(schema: OlogSchema, instance: Instance) -> list[Diagnostic]:
    """Structural diagnostics: unknown ids, partial or ill-targeted tables.

    Raises SchemaMismatchError when the instance names a different schema.
    """
    _require_schema(schema, instance)
    diags: list[Diagnostic] = []

    for box_id in instance.sets:
        if schema.box(box_id) is None:
            diags.append(
                error("UNKNOWN_BOX", f"instance populates undeclared box {box_id!r}", box_id)
            )
    for arrow_id in instance.functions:
        if schema.arrow(arrow_id) is None:
            diags.append(
                error(
                    "UNKNOWN_ARROW",
                    f"instance populates undeclared arrow {arrow_id!r}",
                    arrow_id,
                )
            )

    for box in schema.boxes:
        types = {
            payload_type_name(p)
            for p in instance.elements(box.id).values()
            if p is not None
        }
        if len(types) > 1:
            diags.append(
                error(
                    "PAYLOAD_MIXED",
                    f"box {box.id} mixes payload types: {', '.join(sorted(types))}",
                    box.id,
                )
            )

    for arrow in schema.arrows:
        table = instance.table(arrow.id)
        source = instance.elements(arrow.src)
        target = instance.elements(arrow.dst)
        for eid in sorted(source.keys() - table.keys(), key=natural_key):
            diags.append(
                error(
                    "MISSING_IMAGE",
                    f"arrow {arrow.id} has no image for element {eid!r} of {arrow.src}",
                    f"{arrow.id}/{eid}",
                )
            )
        bad = [eid for eid, image in table.items() if eid not in source or image not in target]
        for eid in sorted(bad, key=natural_key):
            if eid not in source:
                diags.append(
                    error(
                        "UNKNOWN_ELEMENT",
                        f"arrow {arrow.id} maps {eid!r}, which is not in {arrow.src}",
                        f"{arrow.id}/{eid}",
                    )
                )
            else:
                diags.append(
                    error(
                        "IMAGE_NOT_IN_TARGET",
                        f"arrow {arrow.id} sends {eid!r} to {table[eid]!r}, "
                        f"which is not in {arrow.dst}",
                        f"{arrow.id}/{eid}",
                    )
                )
    return diags


def eval_path(schema: OlogSchema, instance: Instance, path: Path, element: str) -> str:
    """Evaluate a path on one element by chasing arrow tables left to right."""
    path_endpoints(schema, path)  # raises MalformedPathError on bad paths
    return _chase(instance, path, element)


def _chase(instance: Instance, path: Path, element: str) -> str:
    """eval_path for a path already known to be well-formed."""
    if element not in instance.elements(path.start):
        raise ElementNotInSourceError(f"element {element!r} is not in box {path.start}")
    at = element
    for arrow_id in path.arrows:
        table = instance.table(arrow_id)
        if at not in table:
            raise ElementNotInSourceError(
                f"arrow {arrow_id} is undefined on element {at!r}"
            )
        at = table[at]
    return at


# ---------------------------------------------------------------------------
# equation checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EquationReport:
    """Outcome of checking one path equation over every element of its start box.

    The elements are walked once, in natural-key order.  On failure
    ``witness`` is (element, lhs image, rhs image) for the first offending
    element, and ``checked`` counts the elements up to and including it.
    """

    equation: PathEquation
    holds: bool
    checked: int
    witness: tuple[str, str, str] | None = None

    @property
    def verdict(self) -> str:
        return "AllHold" if self.holds else "Counterexample"


_BoxOrders = Callable[[str], list[str]]


def _box_orders(instance: Instance) -> _BoxOrders:
    """Box id -> the box's element ids in natural-key order, each box ordered
    once: one per instance check, shared by all its equations or fiber products."""
    return cache(lambda box_id: natural_order(instance.elements(box_id)))


def check_equation(
    schema: OlogSchema, instance: Instance, equation: PathEquation
) -> EquationReport:
    """Walk the start box once in natural-key order; the first offender is the witness.

    An element on which either side is undefined raises ElementNotInSourceError
    naming the arrow, unless a counterexample comes before it.
    """
    return _check_equation(schema, instance, equation, _box_orders(instance))


def _check_equation(
    schema: OlogSchema, instance: Instance, equation: PathEquation, orders: _BoxOrders
) -> EquationReport:
    elems = orders(equation.lhs.start)
    if elems:
        path_endpoints(schema, equation.lhs)  # raises MalformedPathError on bad paths
        path_endpoints(schema, equation.rhs)
    lhs_tables = [instance.table(arrow_id) for arrow_id in equation.lhs.arrows]
    rhs_tables = [instance.table(arrow_id) for arrow_id in equation.rhs.arrows]
    checked = 0
    for checked, eid in enumerate(elems, 1):
        lhs_val = rhs_val = eid
        try:
            for table in lhs_tables:
                lhs_val = table[lhs_val]
            for table in rhs_tables:
                rhs_val = table[rhs_val]
        except KeyError:  # a partial table: _chase raises the message naming the arrow
            _chase(instance, equation.lhs, eid)
            _chase(instance, equation.rhs, eid)
            raise
        if lhs_val != rhs_val:
            return EquationReport(
                equation, holds=False, checked=checked, witness=(eid, lhs_val, rhs_val)
            )
    return EquationReport(equation, holds=True, checked=checked)


def check_all_equations(schema: OlogSchema, instance: Instance) -> list[EquationReport]:
    orders = _box_orders(instance)
    return [_check_equation(schema, instance, eq, orders) for eq in schema.equations]


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------


def compute_pullback(
    schema: OlogSchema, instance: Instance, leg1: str, leg2: str
) -> list[tuple[str, str]]:
    """All pairs (x, y) with leg1(x) = leg2(y), in natural-key order.

    A hash join: leg 2's sources are indexed by image, so the cost is
    |X| + |Y| + the number of pairs, plus putting X and Y in natural-key
    order with :func:`natural_order`.  The legs must form a cospan (same
    target box); raises CospanMismatchError otherwise, and SchemaMismatchError
    when the instance names a different schema.
    """
    return _pullback(schema, instance, leg1, leg2, _box_orders(instance))


def _pullback(
    schema: OlogSchema, instance: Instance, leg1: str, leg2: str, orders: _BoxOrders
) -> list[tuple[str, str]]:
    _require_schema(schema, instance)
    decl1 = schema.arrow(leg1)
    decl2 = schema.arrow(leg2)
    if decl1 is None or decl2 is None:
        missing = leg1 if decl1 is None else leg2
        raise CospanMismatchError(f"arrow {missing!r} is not declared")
    if decl1.dst != decl2.dst:
        raise CospanMismatchError(
            f"legs do not form a cospan: {leg1} ends at {decl1.dst}, "
            f"{leg2} ends at {decl2.dst}"
        )
    table1, table2 = instance.table(leg1), instance.table(leg2)
    by_image: dict[str, list[str]] = {}
    for y in orders(decl2.src):
        image = table2.get(y)
        if image is not None:
            by_image.setdefault(image, []).append(y)
    return [
        (x, y)
        for x in orders(decl1.src)
        if (image := table1.get(x)) is not None
        for y in by_image.get(image, ())
    ]


@dataclass(frozen=True, slots=True)
class FiberProductReport:
    """Whether a declared fiber-product apex is the canonical pullback.

    ``witness_kind`` on failure is one of COLLIDING_PAIR (two apex elements
    project to the same pair), MISSING_PAIR (a canonical pair no apex element
    projects to), or EXTRA_PAIR (an apex element projecting outside the
    canonical pullback, i.e. its square does not commute).
    """

    declaration: FiberProductDecl
    holds: bool
    apex_size: int
    pullback_size: int
    witness_kind: str | None = None
    witness: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        return "PASS" if self.holds else "FAIL"


def verify_fiber_product(
    schema: OlogSchema, instance: Instance, decl: FiberProductDecl
) -> FiberProductReport:
    """Walk the apex once in natural-key order; the first offender is the witness.

    An apex element colliding with an earlier one, or projecting outside the
    canonical pullback, stops the walk.  Otherwise the first canonical pair
    no apex element projected to is the MISSING_PAIR witness.
    """
    return _verify_fiber_product(schema, instance, decl, _box_orders(instance))


def _verify_fiber_product(
    schema: OlogSchema, instance: Instance, decl: FiberProductDecl, orders: _BoxOrders
) -> FiberProductReport:
    canonical = _pullback(schema, instance, decl.leg1, decl.leg2, orders)
    canonical_set = set(canonical)
    proj1 = instance.table(decl.proj1)
    proj2 = instance.table(decl.proj2)
    apex = orders(decl.apex)
    report = partial(
        FiberProductReport, decl, apex_size=len(apex), pullback_size=len(canonical)
    )
    seen: dict[tuple[str, str], str] = {}
    for eid in apex:
        pair = (proj1.get(eid, ""), proj2.get(eid, ""))
        first = seen.setdefault(pair, eid)
        if first != eid:
            return report(holds=False, witness_kind="COLLIDING_PAIR", witness=(first, eid))
        if pair not in canonical_set:
            return report(holds=False, witness_kind="EXTRA_PAIR", witness=(eid,) + pair)
    if len(seen) < len(canonical):  # seen is a subset of canonical_set by now
        missing = next(pair for pair in canonical if pair not in seen)
        return report(holds=False, witness_kind="MISSING_PAIR", witness=missing)
    return report(holds=True)


def verify_all_fiber_products(
    schema: OlogSchema, instance: Instance
) -> list[FiberProductReport]:
    orders = _box_orders(instance)
    return [_verify_fiber_product(schema, instance, fp, orders) for fp in schema.fiber_products]


# ---------------------------------------------------------------------------
# instance isomorphism
# ---------------------------------------------------------------------------


class IsoOutcome(enum.Enum):
    FOUND = "Found"
    NOT_FOUND = "NotFound"


@dataclass(frozen=True)
class IsoResult:
    """Result of the isomorphism search.

    On FOUND, ``mapping`` holds one bijection per box and has been re-verified
    against every arrow table; a found map that fails that check raises
    RuntimeError instead of becoming a result.  On NOT_FOUND, ``certificate``
    names the first obstruction: CARDINALITY_MISMATCH, PAYLOAD_TYPE_MISMATCH,
    SIGNATURE_MISMATCH (structural refinement separated the instances), or
    SEARCH_EXHAUSTED (full backtracking found no commuting bijection).
    ``detail`` names the box the first three point at (with both sizes for
    CARDINALITY_MISMATCH) and is empty for SEARCH_EXHAUSTED.  For
    SIGNATURE_MISMATCH it is the first box, in schema order, whose colour
    histograms differ at the first refinement round where any do, both
    instances being coloured over one shared palette.
    """

    outcome: IsoOutcome
    mapping: dict[str, dict[str, str]] | None = None
    certificate: str | None = None
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.outcome is IsoOutcome.FOUND


_OutArrows = dict[str, list[tuple[str, str, dict[str, str]]]]


def _out_arrows(schema: OlogSchema, instance: Instance) -> _OutArrows:
    """Per box, its out-arrows as (arrow id, target box, table) in schema order."""
    index: _OutArrows = {box.id: [] for box in schema.boxes}
    for arrow in schema.arrows:
        index[arrow.src].append((arrow.id, arrow.dst, instance.table(arrow.id)))
    return index


_Element = tuple[int, str, str]  # (side, box id, element id)


def _refine_colors(
    schema: OlogSchema, pair: tuple[Instance, Instance], out_arrows: tuple[_OutArrows, _OutArrows]
) -> tuple[dict[_Element, int], int, str | None]:
    """Colour both instances together, over one shared palette.

    Colour refinement (1-dimensional Weisfeiler-Leman) on their disjoint
    union: start from (box, payload type), then rank each element's key (its
    colour and the colours of its images and preimages under every arrow)
    among the sorted keys of both sides.  Keys lead with the current colour,
    so a colour never spans two boxes and the partition only splits.  Returns
    ``(color, round, box)``: ``box`` is the first box in schema order whose
    per-side histograms differ at the first round where any do, or None at
    the fixed point.
    """
    keys: dict[_Element, tuple] = {
        (side, box.id, eid): (box.id, payload_type_name(payload))
        for side, instance in enumerate(pair)
        for box in schema.boxes
        for eid, payload in instance.elements(box.id).items()
    }
    color: dict[_Element, int] = {}
    classes, round_ = -1, 0
    while True:
        palette = {key: rank for rank, key in enumerate(sorted(set(keys.values())))}
        if len(palette) == classes:
            return color, round_, None
        classes = len(palette)
        color = {elem: palette[key] for elem, key in keys.items()}
        hist = Counter((side, box_id, c) for (side, box_id, _), c in color.items())
        differ = {box_id for (side, box_id, c), n in hist.items() if hist[1 - side, box_id, c] != n}
        if differ:
            return color, round_, next(box.id for box in schema.boxes if box.id in differ)
        preimage_sig: dict[_Element, list[tuple[str, int]]] = {}
        for (side, box_id, eid), current in color.items():
            images = []
            for arrow_id, dst, table in out_arrows[side][box_id]:
                image = table.get(eid)
                if image is not None:
                    preimage_sig.setdefault((side, dst, image), []).append((arrow_id, current))
                images.append((arrow_id, color.get((side, dst, image), -1)))
            keys[side, box_id, eid] = (current, tuple(images))
        for elem, key in keys.items():
            keys[elem] = (*key, tuple(sorted(preimage_sig.get(elem, []))))
        round_ += 1


def check_instance_isomorphism(
    schema: OlogSchema, a: Instance, b: Instance
) -> IsoResult:
    """Search for a natural isomorphism between two instances of one schema.

    Payload *types* must agree per box; payload values are deliberately never
    compared — two instances with different numbers can still be structurally
    identical.  Both instances are colour-refined over one shared palette up
    to the first round whose per-box histograms differ (round 0: sizes or
    payload types; later: SIGNATURE_MISMATCH).  Then a loop (no recursion)
    maps each a-element within its colour, backtracking with forced
    propagation along every arrow table; any map it finds is independently
    re-verified before being reported.
    """
    for inst in (a, b):
        _require_schema(schema, inst)

    out_a, out_b = _out_arrows(schema, a), _out_arrows(schema, b)
    color, round_, box_id = _refine_colors(schema, (a, b), (out_a, out_b))
    if box_id is not None:
        na, nb = len(a.elements(box_id)), len(b.elements(box_id))
        if round_ > 0:
            certificate, detail = "SIGNATURE_MISMATCH", box_id
        elif na != nb:
            certificate, detail = "CARDINALITY_MISMATCH", f"{box_id}: {na} vs {nb}"
        else:
            certificate, detail = "PAYLOAD_TYPE_MISMATCH", box_id
        return IsoResult(IsoOutcome.NOT_FOUND, certificate=certificate, detail=detail)

    # Candidates of every a-element: the b-elements of its colour, in natural-key order.
    box_ids = [box.id for box in schema.boxes]
    members: dict[int, list[str]] = {}
    for box_id in box_ids:
        for eid in natural_order(b.elements(box_id)):
            members.setdefault(color[1, box_id, eid], []).append(eid)

    # Order: most-constrained elements first (fewest candidates), ties in the
    # natural-key order of (box id, element id).  Boxes whose ids tie under
    # natural_key (B1, B01) share one run, ordered by element id.
    walk: list[tuple[str, str]] = []
    for _, group in groupby(natural_order(box_ids), key=natural_key):
        tied = list(group)
        run = [(box_id, eid) for box_id in tied for eid in natural_order(a.elements(box_id))]
        walk += sorted(run, key=lambda key: natural_key(key[1])) if len(tied) > 1 else run
    order = sorted(walk, key=lambda key: len(members[color[(0, *key)]]))

    assignment: dict[tuple[str, str], str] = {}
    used: dict[str, set[str]] = {box_id: set() for box_id in box_ids}

    def propagate(key: tuple[str, str], value: str, trail: list[tuple[str, str]]) -> bool:
        """Assign key->value plus everything forced by arrow commutation."""
        stack = [(key, value)]
        while stack:
            (box_id, eid), target = stack.pop()
            current = assignment.get((box_id, eid))
            if current is not None:
                if current != target:
                    return False
                continue
            own = color.get((0, box_id, eid))
            if target in used[box_id] or own is None or own != color.get((1, box_id, target)):
                return False
            assignment[(box_id, eid)] = target
            used[box_id].add(target)
            trail.append((box_id, eid))
            for (_, dst, table_a), (_, _, table_b) in zip(out_a[box_id], out_b[box_id]):
                image_a, image_b = table_a.get(eid), table_b.get(target)
                if (image_a is None) != (image_b is None):
                    return False
                if image_a is not None:
                    stack.append(((dst, image_a), image_b))
        return True

    def undo(trail: list[tuple[str, str]]) -> None:
        for box_id, eid in trail:
            target = assignment.pop((box_id, eid))
            used[box_id].discard(target)

    # Depth-first search; each choice is (index, its untried candidates, trail).
    choices: list[tuple[int, Iterator[str], list[tuple[str, str]]]] = []
    index, untried = 0, None
    while index < len(order):
        key = order[index]
        if key in assignment:
            index += 1
            continue
        untried = untried or iter(members[color[(0, *key)]])
        taken = used[key[0]]
        for target in untried:
            if target in taken:
                continue
            trail: list[tuple[str, str]] = []
            if propagate(key, target, trail):
                choices.append((index, untried, trail))
                index, untried = index + 1, None
                break
            undo(trail)
        else:
            if not choices:
                return IsoResult(IsoOutcome.NOT_FOUND, certificate="SEARCH_EXHAUSTED")
            index, untried, trail = choices.pop()
            undo(trail)

    mapping: dict[str, dict[str, str]] = {box_id: {} for box_id in box_ids}
    for (box_id, eid), target in assignment.items():
        mapping[box_id][eid] = target
    mapping = {box_id: m for box_id, m in mapping.items() if m}

    if not verify_isomorphism(schema, a, b, mapping):
        # Success is only ever reported after independent re-verification; a
        # map the search built that fails it is a bug, not a certificate.
        raise RuntimeError(
            "isomorphism search produced a map that fails re-verification"
        )
    return IsoResult(IsoOutcome.FOUND, mapping=mapping)


def verify_isomorphism(
    schema: OlogSchema,
    a: Instance,
    b: Instance,
    mapping: dict[str, dict[str, str]],
) -> bool:
    """True iff ``mapping`` is a family of bijections commuting with every arrow."""
    for box in schema.boxes:
        m = mapping.get(box.id, {})
        ea, eb = a.elements(box.id), b.elements(box.id)
        if set(m) != set(ea):
            return False
        if sorted(m.values()) != sorted(eb):
            return False
        if len(set(m.values())) != len(m):
            return False
    for arrow in schema.arrows:
        m_src = mapping.get(arrow.src, {})
        m_dst = mapping.get(arrow.dst, {})
        table_a = a.table(arrow.id)
        table_b = b.table(arrow.id)
        for eid, image in table_a.items():
            if eid not in m_src:
                return False
            if m_dst.get(image) != table_b.get(m_src[eid]):
                return False
        if len(table_b) != len(table_a):
            return False
    return True
