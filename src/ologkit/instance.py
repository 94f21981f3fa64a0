"""Set-valued instances of a schema and the checks that make them honest.

An instance assigns a finite set of elements to every box and a total function
table to every arrow.  Everything here is deterministic: element order is
canonical (natural key), counterexamples are first in that order, and the
isomorphism search re-verifies any map it finds before reporting success.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate, chain, groupby, repeat

import numpy as np

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


_PAYLOAD_TYPES = {
    type(None): "none",
    RealPayload: "real",
    PairPayload: "pair",
    GraphPayload: "graph",
    TextPayload: "text",
}
_PAYLOAD_CODE = {kind: code for code, kind in enumerate(_PAYLOAD_TYPES)}


def payload_type_name(payload: Payload | None) -> str:
    return _PAYLOAD_TYPES[type(payload)]


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
        missing = source.keys() - table.keys()
        if missing:  # in natural-key order, ties in the box's order
            for eid in natural_order(eid for eid in source if eid in missing):
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

    On FOUND, ``mapping`` holds one bijection per non-empty box, keyed in
    natural-key order of the a-elements, and has been re-verified by the
    search's table rule (:func:`verify_isomorphism`); a found map that fails
    that check raises RuntimeError instead of becoming a result.  The rule:
    no image maps to no image, an image outside its target box commutes with
    nothing, and an entry whose source is outside its box is never read.
    On NOT_FOUND, ``certificate``
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


# Image codes in the integer view, next to element numbers (which are >= 0).
_MISSING = -1  # the table has no entry for the element
_OUTSIDE = -2  # the table's entry is not an element of the arrow's target box


@dataclass(frozen=True)
class _PairIndex:
    """Both instances of an isomorphism check, their elements numbered.

    Side a's elements come first, then side b's (``split`` is b's first
    number).  Within a side, boxes come in schema order, then any arrow
    endpoint that no box declares, read as :func:`validate_instance` reads
    it.  Each box's elements are numbered in natural-key order:
    ``numbers[side * len(box_ids) + k]`` maps the ids of box k to their run
    of numbers, and ``ids`` maps numbers back.
    ``images[e, t]`` is the number of e's image under its box's t-th
    out-arrow in schema order, or _MISSING / _OUTSIDE (also _MISSING past
    the box's ``degree``).  ``edges`` holds (source, arrow index, image) of
    every table entry whose source and image are both in their boxes; entries
    whose source is not in the arrow's source box are dropped everywhere.
    """

    box_ids: list[str]
    numbers: list[dict[str, int]]
    ids: list[str]
    split: int
    box: np.ndarray
    payload: np.ndarray
    degree: list[int]
    images: np.ndarray
    edges: tuple[np.ndarray, np.ndarray, np.ndarray]
    arrows: int


def _index_pair(schema: OlogSchema, pair: tuple[Instance, Instance]) -> _PairIndex:
    """Number the elements of both instances and turn every table into number arrays."""
    ends = [end for arrow in schema.arrows for end in (arrow.src, arrow.dst)]
    box_ids = list(dict.fromkeys([*(box.id for box in schema.boxes), *ends]))
    box_at = {box_id: k for k, box_id in enumerate(box_ids)}
    numbers: list[dict[str, int]] = []
    ids: list[str] = []
    payload: list[int] = []
    for instance in pair:
        for box_id in box_ids:
            elems = instance.elements(box_id)
            ordered = natural_order(elems)
            numbers.append(dict(zip(ordered, range(len(ids), len(ids) + len(elems)))))
            ids += ordered
            payload += [_PAYLOAD_CODE[type(elems[eid])] for eid in ordered]

    degree = [0] * len(box_ids)
    slot = []
    for arrow in schema.arrows:
        slot.append(degree[box_at[arrow.src]])
        degree[box_at[arrow.src]] += 1
    tables = [
        (j, numbers[base + box_at[arrow.src]], numbers[base + box_at[arrow.dst]], table)
        for base, instance in ((0, pair[0]), (len(box_ids), pair[1]))
        for j, arrow in enumerate(schema.arrows)
        if (table := instance.table(arrow.id))
    ]
    total = sum(len(table) for *_, table in tables)
    source = np.fromiter(
        chain.from_iterable(map(src.get, table, repeat(_MISSING)) for _, src, _, table in tables),
        np.intp, total,
    )
    image = np.fromiter(
        chain.from_iterable(
            map(dst.get, table.values(), repeat(_OUTSIDE)) for _, _, dst, table in tables
        ),
        np.intp, total,
    )
    arrow = np.repeat(np.array([j for j, *_ in tables], np.intp), [len(t) for *_, t in tables])
    kept = source >= 0
    source, arrow, image = source[kept], arrow[kept], image[kept]
    images = np.full((len(ids), max(degree, default=0)), _MISSING, np.intp)
    images[source, np.array(slot, np.intp)[arrow]] = image
    inside = image >= 0
    box = np.repeat(np.tile(np.arange(len(box_ids)), 2), list(map(len, numbers)))
    return _PairIndex(
        box_ids, numbers, ids, sum(map(len, numbers[: len(box_ids)])), box,
        np.array(payload, np.intp), degree, images,
        (source[inside], arrow[inside], image[inside]), len(schema.arrows),
    )


def _rank_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank the rows of a 2-D int array: equal rows get one rank, 0, 1, ...

    Returns the rank of every row and the number of distinct rows.  One
    ``np.lexsort`` of the columns, then a comparison of neighbouring rows.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    rank = np.empty(len(rows), np.intp)
    rank[order] = np.cumsum(starts) - 1
    return rank, int(starts.sum())


def _refine_colors(pair: _PairIndex) -> tuple[np.ndarray, int, str | None]:
    """Colour both instances together, over one shared palette.

    Colour refinement (1-dimensional Weisfeiler-Leman) on their disjoint
    union, in whole-array passes over the numbered pair (a few sorts per
    round, no per-element Python).  Round 0 ranks (box, payload type).
    Every later round ranks one row per element: its colour, the colours of
    its images by out-arrow slot (-1 for no image or one outside the target
    box), and its preimages as (arrow, colour, count) pairs in sorted order,
    padded with -1.  Rows lead with the current colour, so a colour never
    spans two boxes and the partition only splits.  Per-side histograms are
    ``np.bincount``s, compared after every round.  Returns ``(colour, round,
    box)``: ``colour[e]`` is element e's colour, and ``box`` is the first
    box in schema order whose per-side histograms differ at the first round
    where any do, or None at the fixed point.  The partition of every round,
    and so ``round`` and ``box``, are those of ranking the same keys as
    Python tuples; the colour labels themselves are arbitrary and are only
    ever compared with each other.
    """
    split = pair.split
    source, arrow, image = pair.edges
    colour, classes = _rank_rows((pair.box * len(_PAYLOAD_CODE) + pair.payload)[:, None])
    round_ = 0
    while True:
        differ = np.bincount(colour[:split], minlength=classes) != np.bincount(
            colour[split:], minlength=classes
        )
        if differ.any():
            box_of = np.empty(classes, np.intp)
            box_of[colour] = pair.box
            return colour, round_, pair.box_ids[box_of[differ].min()]
        # Both image codes index one of the two trailing -1s.
        out = np.append(colour, (-1, -1))[pair.images]
        span = pair.arrows * classes
        preimages = image * span + arrow * classes + colour[source]
        keys, counts = np.unique(preimages, return_counts=True)
        target, code = np.divmod(keys, span)
        column = 2 * (np.arange(len(keys)) - np.searchsorted(target, target))
        pre = np.full((len(colour), column.max(initial=-2) + 2), -1, np.intp)
        pre[target, column], pre[target, column + 1] = code, counts
        round_ += 1
        refined, count = _rank_rows(np.hstack((colour[:, None], out, pre)))
        if count == classes:
            return colour, round_, None
        colour, classes = refined, count


def check_instance_isomorphism(
    schema: OlogSchema, a: Instance, b: Instance
) -> IsoResult:
    """Search for a natural isomorphism between two instances of one schema.

    Payload *types* must agree per box; payload values are deliberately never
    compared — two instances with different numbers can still be structurally
    identical.  Both instances are numbered once (:class:`_PairIndex`), and
    that integer view serves both phases.  Colour refinement runs over both
    at once in whole-array passes, up to the first round whose per-box
    histograms differ (round 0: sizes or payload types; later:
    SIGNATURE_MISMATCH).  Then a loop (no recursion) maps each a-element,
    most constrained first, to a b-element of its colour, backtracking with
    forced propagation along every arrow table.  Each colour keeps a pool of
    its unused b-elements, a doubly linked list in natural-key order that an
    assignment unlinks and its undo relinks, so a choice steps from one
    unused candidate straight to the next: it tries the same candidates in
    the same order as a scan of the whole colour that skips used ones, and
    finds the same map.  Any map found is independently re-verified on the
    original tables before being reported, and each box's map lists its
    a-elements in natural-key order.
    """
    for inst in (a, b):
        _require_schema(schema, inst)

    pair = _index_pair(schema, (a, b))
    colour, round_, box_id = _refine_colors(pair)
    if box_id is not None:
        na, nb = len(a.elements(box_id)), len(b.elements(box_id))
        if round_ > 0:
            certificate, detail = "SIGNATURE_MISMATCH", box_id
        elif na != nb:
            certificate, detail = "CARDINALITY_MISMATCH", f"{box_id}: {na} vs {nb}"
        else:
            certificate, detail = "PAYLOAD_TYPE_MISMATCH", box_id
        return IsoResult(IsoOutcome.NOT_FOUND, certificate=certificate, detail=detail)

    size, split = len(pair.ids), pair.split
    classes = int(colour.max(initial=-1)) + 1
    pool_sizes = np.bincount(colour[split:], minlength=classes)
    # (side, box) k holds the numbers starts[k] up to starts[k + 1].
    starts = [0, *accumulate(map(len, pair.numbers))]

    # Pools: colour c's unused b-elements in one circular list through head
    # node size + c, in natural-key order, which is number order in a box.
    ring = split + np.argsort(np.append(colour[split:], np.arange(classes)), kind="stable")
    ends = np.cumsum(pool_sizes + 1) - 1
    after = np.arange(size + classes)
    after[ring] = np.roll(ring, -1)
    after[ring[ends]] = ring[ends - pool_sizes]
    before = np.empty_like(after)
    before[after] = np.arange(size + classes)
    nxt, prv = after.tolist(), before.tolist()

    # Order: most-constrained elements first (fewest candidates), ties in the
    # natural-key order of (box id, element id).  Boxes whose ids tie under
    # natural_key (B1, B01) share one run, ordered by element id.
    box_at = {box_id: k for k, box_id in enumerate(pair.box_ids)}
    walk: list[int] = []
    for _, group in groupby(natural_order(pair.box_ids), key=natural_key):
        tied = [box_at[box_id] for box_id in group]
        run = [e for k in tied for e in range(starts[k], starts[k + 1])]
        walk += sorted(run, key=lambda e: natural_key(pair.ids[e])) if len(tied) > 1 else run
    order = np.array(walk, np.intp)
    order = order[np.argsort(pool_sizes[colour[order]], kind="stable")].tolist()

    colours = colour.tolist()
    slots = [pair.images[:, t].tolist() for t in range(pair.images.shape[1])]
    out_slots = [slots[:d] for d in pair.degree]
    box_of = pair.box.tolist()
    match = [-1] * size

    def propagate(x: int, target: int, trail: list[int]) -> bool:
        """Map a-element x to b-element target, plus everything that forces."""
        stack = [(x, target)]
        while stack:
            x, target = stack.pop()
            current = match[x]
            if current >= 0:
                if current != target:
                    return False
                continue
            if match[target] >= 0 or colours[x] != colours[target]:
                return False
            match[x], match[target] = target, x
            left, right = prv[target], nxt[target]
            nxt[left], prv[right] = right, left
            trail.append(x)
            for images in out_slots[box_of[x]]:
                image_a, image_b = images[x], images[target]
                if image_a >= 0 and image_b >= 0:
                    stack.append((image_a, image_b))
                elif image_a != image_b or image_a == _OUTSIDE:
                    return False
        return True

    def undo(trail: list[int]) -> None:
        for x in reversed(trail):
            target = match[x]
            match[x] = match[target] = -1
            nxt[prv[target]] = prv[nxt[target]] = target

    # Depth-first search; each choice is (index, the candidate it took, trail).
    choices: list[tuple[int, int, list[int]]] = []
    index, taken = 0, None
    while index < len(order):
        x = order[index]
        if match[x] >= 0:
            index += 1
            continue
        head = size + colours[x]
        target = nxt[head if taken is None else taken]
        while target != head:
            trail: list[int] = []
            if propagate(x, target, trail):
                choices.append((index, target, trail))
                index, taken = index + 1, None
                break
            undo(trail)
            target = nxt[target]
        else:
            if not choices:
                return IsoResult(IsoOutcome.NOT_FOUND, certificate="SEARCH_EXHAUSTED")
            index, taken, trail = choices.pop()
            undo(trail)

    ids = pair.ids
    mapping = {
        box_id: dict(zip(ids[lo:hi], map(ids.__getitem__, match[lo:hi])))
        for box_id, lo, hi in zip(pair.box_ids, starts, starts[1:])
        if lo < hi
    }
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
    """True iff ``mapping`` is a family of bijections commuting with every arrow.

    Tables are read as the search reads them, over each arrow's source box:
    no image must map to no image, an image outside the target box commutes
    with nothing, and an entry whose source is outside its box is not read.
    """
    for box in schema.boxes:
        m = mapping.get(box.id, {})
        images = set(m.values())
        if m.keys() != a.elements(box.id).keys() or images != b.elements(box.id).keys():
            return False
        if len(images) != len(m):
            return False
    for arrow in schema.arrows:
        m_src, m_dst = mapping.get(arrow.src, {}), mapping.get(arrow.dst, {})
        images = list(map(a.table(arrow.id).get, m_src))  # None: no image
        if not m_dst.keys() >= set(images) - {None}:  # an image outside the target box
            return False
        if list(map(m_dst.get, images)) != list(map(b.table(arrow.id).get, m_src.values())):
            return False
    return True
