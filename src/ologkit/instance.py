"""Set-valued instances of a schema and the checks that make them honest.

An instance assigns a finite set of elements to every box and a total function
table to every arrow.  Everything here is deterministic: element order is
canonical (natural key), counterexamples are first in that order, and the
isomorphism search re-verifies any map it finds before reporting success.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, repeat
from typing import TYPE_CHECKING

from .diagnostics import Diagnostic, error
from .errors import (
    CospanMismatchError,
    ElementNotInSourceError,
    NonFiniteInputError,
    SchemaMismatchError,
)
from .graphs import Graph
from .ordering import natural_key, natural_order
from .schema import (
    ArrowDecl,
    FiberProductDecl,
    OlogSchema,
    Path,
    PathEquation,
    _prefix_plan,
    _SidePlan,
    path_endpoints,
)

# numpy is imported in the functions that call it, so that a process that
# never does (deriving path equalities, say) does not load it: about 13 MB
# of RSS and 80-170 ms of start-up on a two-CPU host.
if TYPE_CHECKING:
    import numpy as np

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
        raise NonFiniteInputError(f"{what} cannot be NaN")
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


# Every defaulted table read's default: a missing entry, never a stored image (None too).
_ABSENT = object()


def _read(table: dict, keys: Collection) -> list:
    """Each key's image under ``table``, in order, or _ABSENT where it has none.

    Canonical and generated text lists a table over its source box, in the
    box's order.  When ``table`` lists exactly ``keys`` in that order, its
    values are the answer: one list ``==`` proves it, reading the shared key
    objects in order, after an O(1) test of the first key, so a table read
    out of order costs one ``get`` per key, as it did before.
    """
    if (
        len(table) == len(keys)
        and keys
        and next(iter(table)) == next(iter(keys))
        and list(table) == list(keys)
    ):
        return list(table.values())
    return list(map(table.get, keys, repeat(_ABSENT)))


def _require_schema(schema: OlogSchema, instance: Instance) -> None:
    if instance.schema_name != schema.name:
        raise SchemaMismatchError(
            f"instance {instance.name!r} targets schema {instance.schema_name!r}, "
            f"not {schema.name!r}"
        )


def validate_instance(schema: OlogSchema, instance: Instance) -> list[Diagnostic]:
    """Structural diagnostics: unknown ids, partial or ill-targeted tables.

    Each box's payload types and each arrow's table are decided in whole-box
    passes: a table is clean when its keys are its source box's and every
    image is in its target box.  Only a table that is not clean is walked,
    and natural-key order only decides the order its diagnostics come in.
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
        types = set(map(type, instance.elements(box.id).values())) - {type(None)}
        for kind in sorted(types - _PAYLOAD_TYPES.keys(), key=lambda kind: kind.__name__):
            diags.append(
                error(
                    "PAYLOAD_UNKNOWN",
                    f"box {box.id} holds a value of type {kind.__name__}, which is not a payload",
                    box.id,
                )
            )
        names = sorted(_PAYLOAD_TYPES[kind] for kind in types & _PAYLOAD_TYPES.keys())
        if len(names) > 1:
            diags.append(
                error(
                    "PAYLOAD_MIXED",
                    f"box {box.id} mixes payload types: {', '.join(names)}",
                    box.id,
                )
            )

    for arrow in schema.arrows:
        table = instance.table(arrow.id)
        source = instance.elements(arrow.src)
        target = instance.elements(arrow.dst)
        # _ABSENT, a source element's missing entry, is in no box.
        if len(table) == len(source) and all(map(target.__contains__, _read(table, source))):
            continue
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
    """Evaluate a path on one element by chasing arrow tables left to right.

    Raises SchemaMismatchError when the instance names a different schema.
    """
    _require_schema(schema, instance)
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

    The equation is decided in whole-box passes: each side is composed over
    the whole start box, and the two image lists are compared; a stored image
    (None, or one outside the target box) compares as any other.  Natural-key
    order only decides which offender is named: on failure ``witness`` is
    (element, lhs image, rhs image) for the first offending element in that
    order, and ``checked`` counts the elements up to and including it.
    """

    equation: PathEquation
    holds: bool
    checked: int
    witness: tuple[str, str, str] | None = None

    @property
    def verdict(self) -> str:
        return "AllHold" if self.holds else "Counterexample"


def _composed(
    instance: Instance, elems: list, arrows: tuple[str, ...], plan: _SidePlan, memo: dict
) -> list:
    """The path's image of each of ``elems``, in their order; _ABSENT where a
    table has no entry (and after it).

    A loop of in-order reads (:func:`_read`), one per arrow, from the prefix
    ``plan`` names in ``memo`` (see :func:`~ologkit.schema._prefix_plan`); the
    prefixes a later side reads are kept there, and those it no longer needs
    are dropped.
    """
    depth, images = plan.depth, elems if plan.base is None else memo[plan.base]
    for stop, node in (*plan.stops, (len(arrows), None)):
        for arrow_id in arrows[depth:stop]:
            images = _read(instance.table(arrow_id), images)
        if node is not None:
            memo[node] = images
        depth = stop
    for node in plan.release:
        del memo[node]
    return images


def check_equation(
    schema: OlogSchema, instance: Instance, equation: PathEquation
) -> EquationReport:
    """Compose both sides over the whole start box and compare the image lists.

    Only when they differ, or a table has no entry, are the elements walked in
    natural-key order to name the first offender.  An element on which either
    side is undefined raises ElementNotInSourceError naming the arrow, unless
    a counterexample comes before it; raises SchemaMismatchError when the
    instance names a different schema.
    """
    _require_schema(schema, instance)
    return _check_equation(schema, instance, equation, _prefix_plan((equation,))[0], {})


def _check_equation(
    schema: OlogSchema,
    instance: Instance,
    equation: PathEquation,
    plans: tuple[_SidePlan, _SidePlan],
    memo: dict,
) -> EquationReport:
    elems = list(instance.elements(equation.lhs.start))
    if elems:
        path_endpoints(schema, equation.lhs)  # raises MalformedPathError on bad paths
        path_endpoints(schema, equation.rhs)
    lhs, rhs = (
        _composed(instance, elems, side.arrows, plan, memo)
        for side, plan in zip((equation.lhs, equation.rhs), plans)
    )
    if lhs == rhs and _ABSENT not in lhs:
        return EquationReport(equation, holds=True, checked=len(elems))
    lhs_of, rhs_of = dict(zip(elems, lhs)), dict(zip(elems, rhs))
    for checked, eid in enumerate(natural_order(elems), 1):
        lhs_val, rhs_val = lhs_of[eid], rhs_of[eid]
        if lhs_val is _ABSENT or rhs_val is _ABSENT:  # _chase raises the message naming the arrow
            _chase(instance, equation.lhs, eid)
            _chase(instance, equation.rhs, eid)
        if lhs_val != rhs_val:
            return EquationReport(
                equation, holds=False, checked=checked, witness=(eid, lhs_val, rhs_val)
            )
    # The whole-box pass found the sides differ, so some element must: a bug.
    raise RuntimeError(f"equation {equation} fails, yet no element is its witness")


def check_all_equations(schema: OlogSchema, instance: Instance) -> list[EquationReport]:
    _require_schema(schema, instance)
    memo: dict = {}
    return [
        _check_equation(schema, instance, eq, plans, memo)
        for eq, plans in zip(schema.equations, schema._prefixes)
    ]


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------


def compute_pullback(
    schema: OlogSchema, instance: Instance, leg1: str, leg2: str
) -> list[tuple[str, str]]:
    """All pairs (x, y) with leg1(x) = leg2(y), in natural-key order.

    A hash join: leg 2's sources are indexed by image, so the cost is
    |X| + |Y| + the number of pairs, plus putting X and Y in natural-key
    order with :func:`natural_order`.  A missing entry pairs with nothing;
    equal stored images pair, None or outside the target box too.  The legs
    must form a cospan (same target box); raises CospanMismatchError
    otherwise, and SchemaMismatchError when the instance names a different
    schema.
    """
    return list(zip(*_pullback_columns(schema, instance, leg1, leg2)))


def _pullback_columns(
    schema: OlogSchema, instance: Instance, leg1: str, leg2: str
) -> tuple[list[str], list[str]]:
    """:func:`compute_pullback` as two columns, the pairs' lefts and rights.

    Each x's run of partners is one group of the index, so the rights are
    the groups chained and the lefts each x repeated by its group's size, with
    no Python step or object per pair or per x.
    """
    import numpy as np

    decl1, decl2 = _cospan(schema, instance, leg1, leg2)
    table1, table2 = instance.table(leg1), instance.table(leg2)
    by_image: dict[object, list[str]] = {}
    ys = natural_order(instance.elements(decl2.src))
    for y, image in zip(ys, _read(table2, ys)):
        by_image.setdefault(image, []).append(y)
    by_image.pop(_ABSENT, None)  # a missing entry pairs with nothing
    xs = natural_order(instance.elements(decl1.src))
    groups = list(map(by_image.get, _read(table1, xs), repeat(())))
    sizes = np.fromiter(map(len, groups), np.intp, len(groups))
    lefts = np.repeat(np.array(xs, dtype=object), sizes).tolist()
    return lefts, list(chain.from_iterable(groups))


def _cospan(
    schema: OlogSchema, instance: Instance, leg1: str, leg2: str
) -> tuple[ArrowDecl, ArrowDecl]:
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
    return decl1, decl2


@dataclass(frozen=True, slots=True)
class FiberProductReport:
    """Whether a declared fiber-product apex is the canonical pullback.

    The verdict is decided in whole-box passes; natural-key order only
    decides which offender is named.  ``witness_kind`` on failure is one of
    COLLIDING_PAIR (two apex elements project to the same pair), MISSING_PAIR
    (a canonical pair no apex element projects to), or EXTRA_PAIR (an apex
    element projecting outside the canonical pullback, i.e. its square does
    not commute).
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
    """Decide in whole-box passes whether the apex is the canonical pullback.

    It is when the apex elements project to pairwise distinct pairs, each
    pair (x, y) lies in X × Y with leg1(x) stored and equal to leg2(y), and
    there are as many apex elements as canonical pairs, counted per image
    without listing them.  A missing projection is no element of X or Y, and
    an EXTRA_PAIR witness shows it as "".  Only otherwise is the pullback listed and the apex
    walked in natural-key order to name the first offender: an apex element
    colliding with an earlier one, or projecting outside the canonical
    pullback, stops the walk; else the first canonical pair no apex element
    projected to is the MISSING_PAIR witness.
    """
    decl1, decl2 = _cospan(schema, instance, decl.leg1, decl.leg2)
    xs, ys = instance.elements(decl1.src), instance.elements(decl2.src)
    leg1, leg2 = instance.table(decl.leg1), instance.table(decl.leg2)
    over = Counter(_read(leg2, ys))  # image -> how many y lie over it
    del over[_ABSENT]
    size = sum(map(over.get, _read(leg1, xs), repeat(0)))
    apex = instance.elements(decl.apex)
    proj1 = _read(instance.table(decl.proj1), apex)
    proj2 = _read(instance.table(decl.proj2), apex)
    images = _read(leg1, proj1)
    if (
        len(apex) == size
        and all(map(xs.__contains__, proj1))
        and all(map(ys.__contains__, proj2))
        and _ABSENT not in images
        and images == _read(leg2, proj2)
        and len(set(zip(proj1, proj2))) == size
    ):
        return FiberProductReport(decl, holds=True, apex_size=size, pullback_size=size)
    canonical = compute_pullback(schema, instance, decl.leg1, decl.leg2)
    return _name_offender(instance, decl, canonical)


def _name_offender(
    instance: Instance, decl: FiberProductDecl, canonical: list[tuple[str, str]]
) -> FiberProductReport:
    canonical_set = set(canonical)
    proj1 = instance.table(decl.proj1)
    proj2 = instance.table(decl.proj2)
    apex = natural_order(instance.elements(decl.apex))
    report = partial(
        FiberProductReport, decl, apex_size=len(apex), pullback_size=len(canonical)
    )
    seen: dict[tuple[str, str], str] = {}
    for eid in apex:
        pair = (proj1.get(eid, _ABSENT), proj2.get(eid, _ABSENT))
        first = seen.setdefault(pair, eid)
        if first != eid:
            return report(holds=False, witness_kind="COLLIDING_PAIR", witness=(first, eid))
        if pair not in canonical_set:  # a missing projection is shown as ""
            shown = tuple("" if end is _ABSENT else end for end in pair)
            return report(holds=False, witness_kind="EXTRA_PAIR", witness=(eid,) + shown)
    if len(seen) < len(canonical):  # seen is a subset of canonical_set by now
        missing = next(pair for pair in canonical if pair not in seen)
        return report(holds=False, witness_kind="MISSING_PAIR", witness=missing)
    # The whole-box pass found the apex wrong, so some element must be: a bug.
    raise RuntimeError(f"pullback {decl.apex} fails, yet no element is its witness")


def verify_all_fiber_products(
    schema: OlogSchema, instance: Instance
) -> list[FiberProductReport]:
    return [verify_fiber_product(schema, instance, fp) for fp in schema.fiber_products]


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
    no image maps to no image, an image outside its target box (an explicit
    None among them) commutes with nothing, and an entry whose source is
    outside its box is never read.
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

    Side a's boxes come first, then side b's.  Within a side, boxes come in
    schema order, then any arrow endpoint that no box declares, read as
    :func:`validate_instance` reads it.  (side, box) k holds the numbers
    ``starts[k]`` up to ``starts[k + 1]``, so side b starts at
    ``starts[len(box_ids)]``; a box's elements are numbered in natural-key
    order, and ``ids`` maps numbers back to element ids.
    ``images[e, t]`` is the number of e's image under its box's t-th
    out-arrow in schema order, or _MISSING / _OUTSIDE (also _MISSING past
    the box's ``degree``).  It is the only view of the tables: each is read
    over its source box's elements, so an entry whose source is not in that
    box is never read.
    """

    box_ids: list[str]
    starts: list[int]
    ids: list[str]
    box: np.ndarray
    payload: np.ndarray
    degree: list[int]
    images: np.ndarray


def _index_pair(schema: OlogSchema, pair: tuple[Instance, Instance]) -> _PairIndex:
    """Number the elements of both instances and read every table into one image matrix."""
    import numpy as np

    ends = [end for arrow in schema.arrows for end in (arrow.src, arrow.dst)]
    box_ids = list(dict.fromkeys([*(box.id for box in schema.boxes), *ends]))
    box_at = {box_id: k for k, box_id in enumerate(box_ids)}
    numbers: list[dict[object, int]] = []
    starts = [0]
    ids: list[str] = []
    payload: list[int] = []
    # A value type that is not a payload type gets the next code when first met.
    codes = defaultdict(lambda: len(codes), _PAYLOAD_CODE)
    for instance in pair:
        for box_id in box_ids:
            elems = instance.elements(box_id)
            ordered = natural_order(elems)
            numbers.append(dict(zip(ordered, range(len(ids), len(ids) + len(elems)))))
            numbers[-1][_ABSENT] = _MISSING
            ids += ordered
            starts.append(len(ids))
            payload += [codes[type(elems[eid])] for eid in ordered]

    degree = [0] * len(box_ids)
    slots = []
    for arrow in schema.arrows:
        slots.append(degree[box_at[arrow.src]])
        degree[box_at[arrow.src]] += 1
    images = np.full((len(ids), max(degree, default=0)), _MISSING, np.intp)
    for base, instance in ((0, pair[0]), (len(box_ids), pair[1])):
        for arrow, slot in zip(schema.arrows, slots):
            if table := instance.table(arrow.id):
                k = base + box_at[arrow.src]
                lo, hi = starts[k], starts[k + 1]
                dst = numbers[base + box_at[arrow.dst]]
                images[lo:hi, slot] = np.fromiter(
                    map(dst.get, _read(table, ids[lo:hi]), repeat(_OUTSIDE)), np.intp, hi - lo
                )
    box = np.repeat(np.tile(np.arange(len(box_ids)), 2), np.diff(starts))
    return _PairIndex(box_ids, starts, ids, box, np.array(payload, np.intp), degree, images)


def _rank_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank the rows of a 2-D int array: equal rows get one rank, 0, 1, ...

    Returns the rank of every row and the number of distinct rows.  One
    ``np.lexsort`` of the columns, then a comparison of neighbouring rows.
    """
    import numpy as np

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
    round, no per-element Python).  Round 0 ranks (box, value type).
    Every later round ranks one row per element: its colour, the colours of
    its images by out-arrow slot (-1 for no image or one outside the target
    box), and its preimages, read from the same matrix, as (slot, colour,
    count) triples in sorted order, padded with -1.  Rows lead with the
    current colour, so a colour never spans two boxes and the partition only
    splits; a source's colour fixes its box, so a slot names one arrow.
    Per-side histograms are ``np.bincount``s, compared after every round.  Returns ``(colour, round,
    box)``: ``colour[e]`` is element e's colour, and ``box`` is the first
    box in schema order whose per-side histograms differ at the first round
    where any do, or None at the fixed point.  The partition of every round,
    and so ``round`` and ``box``, are those of ranking the same keys as
    Python tuples; the colour labels themselves are arbitrary and are only
    ever compared with each other.
    """
    import numpy as np

    split = pair.starts[len(pair.box_ids)]
    source, slot = np.nonzero(pair.images >= 0)
    image = pair.images[source, slot]
    kinds = int(pair.payload.max(initial=0)) + 1
    colour, classes = _rank_rows((pair.box * kinds + pair.payload)[:, None])
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
        span = pair.images.shape[1] * classes
        preimages = image * span + slot * classes + colour[source]
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
    import numpy as np

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

    starts = pair.starts
    size, split = len(pair.ids), starts[len(pair.box_ids)]
    classes = int(colour.max(initial=-1)) + 1
    pool_sizes = np.bincount(colour[split:], minlength=classes)

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
    no image must map to no image, an image outside the target box (None
    included) commutes with nothing, and an entry whose source is outside
    its box is not read.
    Raises SchemaMismatchError when either instance names a different schema.
    """
    _require_schema(schema, a)
    _require_schema(schema, b)
    for box in schema.boxes:
        m = mapping.get(box.id, {})
        images = set(m.values())
        if m.keys() != a.elements(box.id).keys() or images != b.elements(box.id).keys():
            return False
        if len(images) != len(m):
            return False
    for arrow in schema.arrows:
        m_src, m_dst = mapping.get(arrow.src, {}), mapping.get(arrow.dst, {})
        images = _read(a.table(arrow.id), m_src)
        if not m_dst.keys() >= set(images) - {_ABSENT}:  # an image outside the target box
            return False
        mapped = map(m_dst.get, images, repeat(_ABSENT))
        if list(mapped) != _read(b.table(arrow.id), m_src.values()):
            return False
    return True
