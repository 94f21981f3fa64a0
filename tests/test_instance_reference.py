"""The instance checks against the element-by-element walkers they replaced.

``validate_instance``, the equation checks and the fiber-product checks
decide in whole-box passes and walk elements only to name an offender.  The
walkers below decide element by element, in natural-key order, as those
functions once did; on random small instances both must give equal reports,
witnesses, ``checked`` counts and diagnostic lists, and raise the same
exception with the same message.  The walkers read a table entry by
membership (``eid in table``): an entry is missing or stored, and a stored
image, None or an id outside the target box, is an image like any other.
They sort boxes with ``sorted(..., key=natural_key)``; the pullback is the
brute-force X × Y.
"""

import random
from operator import countOf
from functools import cache, partial
from itertools import chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ologkit.instance
from ologkit import (
    ArrowDecl,
    BoxDecl,
    FiberProductDecl,
    Instance,
    OlogSchema,
    PathEquation,
    RealPayload,
    TextPayload,
    check_all_equations,
    check_equation,
    validate_instance,
    verify_all_fiber_products,
    verify_fiber_product,
)
from ologkit.diagnostics import error
from ologkit.errors import CospanMismatchError, ElementNotInSourceError, SchemaMismatchError
from ologkit.instance import (
    EquationReport,
    FiberProductReport,
    _cospan,
    _pullback_columns,
    payload_type_name,
)
from ologkit.ordering import natural_key, natural_order
from ologkit.schema import Path, path_endpoints

# ---------------------------------------------------------------------------
# reference walkers
# ---------------------------------------------------------------------------


def _ordered(ids):
    return sorted(ids, key=natural_key)


def _require_schema(schema, instance):
    if instance.schema_name != schema.name:
        raise SchemaMismatchError(
            f"instance {instance.name!r} targets schema {instance.schema_name!r}, "
            f"not {schema.name!r}"
        )


def ref_validate_instance(schema, instance):
    _require_schema(schema, instance)
    diags = []
    for box_id in instance.sets:
        if schema.box(box_id) is None:
            diags.append(
                error("UNKNOWN_BOX", f"instance populates undeclared box {box_id!r}", box_id)
            )
    for arrow_id in instance.functions:
        if schema.arrow(arrow_id) is None:
            diags.append(
                error(
                    "UNKNOWN_ARROW", f"instance populates undeclared arrow {arrow_id!r}", arrow_id
                )
            )
    for box in schema.boxes:
        types = {payload_type_name(p) for p in instance.elements(box.id).values() if p is not None}
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
        if missing:
            for eid in _ordered(eid for eid in source if eid in missing):
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


def _chase(instance, path, element):
    if element not in instance.elements(path.start):
        raise ElementNotInSourceError(f"element {element!r} is not in box {path.start}")
    at = element
    for arrow_id in path.arrows:
        table = instance.table(arrow_id)
        if at not in table:
            raise ElementNotInSourceError(f"arrow {arrow_id} is undefined on element {at!r}")
        at = table[at]
    return at


def _box_orders(instance):
    return cache(lambda box_id: _ordered(instance.elements(box_id)))


def _ref_check_equation(schema, instance, equation, orders):
    elems = orders(equation.lhs.start)
    if elems:
        path_endpoints(schema, equation.lhs)
        path_endpoints(schema, equation.rhs)
    checked = 0
    for checked, eid in enumerate(elems, 1):
        lhs_val = _chase(instance, equation.lhs, eid)
        rhs_val = _chase(instance, equation.rhs, eid)
        if lhs_val != rhs_val:
            return EquationReport(
                equation, holds=False, checked=checked, witness=(eid, lhs_val, rhs_val)
            )
    return EquationReport(equation, holds=True, checked=checked)


def ref_check_equation(schema, instance, equation):
    _require_schema(schema, instance)
    return _ref_check_equation(schema, instance, equation, _box_orders(instance))


def ref_check_all_equations(schema, instance):
    _require_schema(schema, instance)
    orders = _box_orders(instance)
    return [_ref_check_equation(schema, instance, eq, orders) for eq in schema.equations]


def _ref_pullback(schema, instance, leg1, leg2):
    """Brute force: every (x, y) in X × Y whose entries are stored and equal,
    each box sorted by natural key, x-major."""
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
    t1, t2 = instance.table(leg1), instance.table(leg2)
    return [
        (x, y)
        for x in _ordered(instance.elements(decl1.src))
        for y in _ordered(instance.elements(decl2.src))
        if x in t1 and y in t2 and t1[x] == t2[y]
    ]


def ref_pullback_columns(schema, instance, leg1, leg2):
    """The pullback's two columns as they were built, one ``repeat`` per left."""
    decl1, decl2 = _cospan(schema, instance, leg1, leg2)
    table1, table2 = instance.table(leg1), instance.table(leg2)
    by_image = {}
    for y in _ordered(instance.elements(decl2.src)):
        if y in table2:
            by_image.setdefault(table2[y], []).append(y)
    xs = _ordered(instance.elements(decl1.src))
    groups = [by_image.get(table1[x], ()) if x in table1 else () for x in xs]
    lefts = list(chain.from_iterable(map(repeat, xs, map(len, groups))))
    return lefts, list(chain.from_iterable(groups))


def _ref_verify_fiber_product(schema, instance, decl, orders):
    canonical = _ref_pullback(schema, instance, decl.leg1, decl.leg2)
    canonical_set = set(canonical)
    proj1 = instance.table(decl.proj1)
    proj2 = instance.table(decl.proj2)
    apex = orders(decl.apex)
    report = partial(
        FiberProductReport, decl, apex_size=len(apex), pullback_size=len(canonical)
    )
    seen = {}
    for eid in apex:
        if eid not in proj1 or eid not in proj2:
            arrow_id = decl.proj1 if eid not in proj1 else decl.proj2
            return report(holds=False, witness_kind="MISSING_PROJECTION", witness=(eid, arrow_id))
        pair = (proj1[eid], proj2[eid])
        first = seen.setdefault(pair, eid)
        if first != eid:
            return report(holds=False, witness_kind="COLLIDING_PAIR", witness=(first, eid))
        if pair not in canonical_set:
            return report(holds=False, witness_kind="EXTRA_PAIR", witness=(eid,) + pair)
    if len(seen) < len(canonical):
        missing = next(pair for pair in canonical if pair not in seen)
        return report(holds=False, witness_kind="MISSING_PAIR", witness=missing)
    return report(holds=True)


def ref_verify_fiber_product(schema, instance, decl):
    return _ref_verify_fiber_product(schema, instance, decl, _box_orders(instance))


def ref_verify_all_fiber_products(schema, instance):
    orders = _box_orders(instance)
    return [
        _ref_verify_fiber_product(schema, instance, fp, orders) for fp in schema.fiber_products
    ]


# ---------------------------------------------------------------------------
# random small instances
# ---------------------------------------------------------------------------

# X and Y are B1 and B01, whose ids tie under natural_key.
_SCHEMA = OlogSchema(
    "square",
    tuple(BoxDecl(b, f"a {b}") for b in ("P", "B1", "B01", "Z", "W")),
    (
        ArrowDecl("p1", "P", "B1"),
        ArrowDecl("p2", "P", "B01"),
        ArrowDecl("f", "B1", "Z"),
        ArrowDecl("g", "B01", "Z"),
        ArrowDecl("h", "Z", "W"),
        ArrowDecl("k", "B1", "W"),
        ArrowDecl("m", "P", "W"),
    ),
    (
        PathEquation(Path("P", ("p1", "f")), Path("P", ("p2", "g"))),
        PathEquation(Path("P", ("p1", "f", "h")), Path("P", ("p2", "g", "h"))),
        PathEquation(Path("B1", ("f", "h")), Path("B1", ("k",))),
        PathEquation(Path("P", ("p1", "k")), Path("P", ("p2", "g", "h"))),
        PathEquation(Path("P", ("p1", "k")), Path("P", ("m",))),
        PathEquation(Path("Z", ()), Path("Z", ())),
    ),
    (
        FiberProductDecl("P", "p1", "p2", "f", "g"),
        FiberProductDecl("P", "p2", "p1", "g", "f"),
    ),
)

# Id tails of mixed widths whose natural keys tie (1, 01, 001; 3 and ٣).
_TAILS = ("1", "01", "001", "2", "02", "3", "٣", "9", "10", "010", "11", "1a2", "01a2")
_PAYLOADS = (None, None, RealPayload(1.0), TextPayload("t"))


def _random_instance(rng):
    """Tables that may be partial, map outside their target box (None among
    those images), or key an element outside their source box; boxes that
    may be empty or hold ""; an apex that may collide, miss pairs, carry
    extra ones, or swap a canonical pair for one that only a single test
    tells apart.  About one in four instances is left clean, so every check
    also passes often."""
    clean = rng.random() < 0.25
    boxes = {}
    for box, lo in (("B1", 0), ("B01", 0), ("Z", 1), ("W", 1)):
        ids = [box.lower() + tail for tail in rng.sample(_TAILS, rng.randint(lo, 5))]
        if box in ("B1", "B01") and rng.random() < 0.3:
            ids.append("")
        boxes[box] = ids

    def image(box):
        if not clean and rng.random() < 0.08:
            return rng.choice(("", "stray", None, boxes["Z" if box == "W" else "W"][0]))
        return rng.choice(boxes[box])

    tables = {
        "f": {x: image("Z") for x in boxes["B1"]},
        "g": {y: image("Z") for y in boxes["B01"]},
        "h": {z: image("W") for z in boxes["Z"]},
    }
    tables["k"] = {x: tables["h"].get(z, "w?") for x, z in tables["f"].items()}
    if boxes["B1"] and not clean and rng.random() < 0.4:
        tables["k"][rng.choice(boxes["B1"])] = image("W")
    if boxes["B1"] and boxes["B01"] and not clean and rng.random() < 0.15:
        tables["f"][rng.choice(boxes["B1"])] = tables["g"][rng.choice(boxes["B01"])] = None
    pairs = [
        (x, y) for x in boxes["B1"] for y in boxes["B01"] if tables["f"][x] == tables["g"][y]
    ]
    if not clean:
        # b1_ and b01_ have no image under f and g, so they are in no pair.
        swap = rng.choice(("x-outside", "y-outside", "undefined", None, None))
        if swap == "undefined" or rng.random() < 0.2:
            boxes["B1"].append("b1_")
            boxes["B01"].append("b01_")
        if pairs and swap:
            i = rng.randrange(len(pairs))
            x, y = pairs[i]
            if swap == "x-outside":  # f is defined on "stray", outside its box
                tables["f"]["stray"] = tables["f"][x]
                pairs[i] = ("stray", y)
            elif swap == "y-outside":
                tables["g"]["stray"] = tables["g"][y]
                pairs[i] = (x, "stray")
            else:
                pairs[i] = ("b1_", "b01_")
        if pairs and rng.random() < 0.4:
            pairs.pop(rng.randrange(len(pairs)))
        if pairs and rng.random() < 0.3:
            pairs.append(rng.choice(pairs))
        if boxes["B1"] and boxes["B01"] and rng.random() < 0.3:
            pairs.append((rng.choice(boxes["B1"]), rng.choice(boxes["B01"])))
    rng.shuffle(pairs)
    boxes["P"] = [f"p{tail}" for tail in rng.sample(_TAILS, min(len(pairs), len(_TAILS)))]
    pairs = pairs[: len(boxes["P"])]
    tables["p1"] = {p: x for p, (x, _) in zip(boxes["P"], pairs)}
    tables["p2"] = {p: y for p, (_, y) in zip(boxes["P"], pairs)}
    tables["m"] = {p: tables["k"].get(x, "w?") for p, x in tables["p1"].items()}
    if not clean:
        for table in tables.values():
            if table and rng.random() < 0.15:
                del table[rng.choice(list(table))]
            if table and rng.random() < 0.08:  # an entry whose source is outside its box
                table[rng.choice(("ghost", "", "z1"))] = rng.choice(list(table.values()))
    sets = {box: {eid: rng.choice(_PAYLOADS) for eid in ids} for box, ids in boxes.items()}
    if not clean and rng.random() < 0.1:
        sets["Q"] = {"q1": None}
        tables["q"] = {"q1": "q1"}

    def shuffled(d):
        return dict(rng.sample(list(d.items()), len(d)))

    def arranged(arrow, table):
        """The table shuffled, or, as canonical text lists one, in its source
        box's order (any other keys after)."""
        if rng.random() < 0.5:
            return shuffled(table)
        source = sets.get(_SCHEMA.arrow(arrow).src if arrow != "q" else "Q", {})
        return {**{eid: table[eid] for eid in source if eid in table}, **table}

    sets = shuffled({box: shuffled(elems) for box, elems in sets.items()})
    return Instance(
        "sq", "square", sets, shuffled({arrow: arranged(arrow, t) for arrow, t in tables.items()})
    )


def _table_shapes(instance):
    """Whether each total table over two or more elements lists its source box
    in the box's order, the order the checks read it in, or out of that order."""
    shapes = set()
    for arrow in _SCHEMA.arrows:
        table, source = instance.table(arrow.id), instance.elements(arrow.src)
        if len(source) > 1 and table.keys() == source.keys():
            shapes.add("in its box's order" if list(table) == list(source) else "out of order")
    return shapes


def _outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return ("raised", type(exc), str(exc))


def _passed(result):
    """Whether a check's result says the instance passed it."""
    if isinstance(result, list):
        return all(getattr(item, "holds", False) for item in result)
    return result.holds


def _compare(seed):
    """Every check against its reference on one random instance; the outcomes seen.

    A check that passes must decide without putting any box in natural-key
    order: that order only names offenders.
    """
    inst = _random_instance(random.Random(seed))
    pairs = [
        (validate_instance, ref_validate_instance, ()),
        (check_all_equations, ref_check_all_equations, ()),
        (verify_all_fiber_products, ref_verify_all_fiber_products, ()),
        *((check_equation, ref_check_equation, (eq,)) for eq in _SCHEMA.equations),
        *(
            (verify_fiber_product, ref_verify_fiber_product, (fp,))
            for fp in _SCHEMA.fiber_products
        ),
    ]
    seen = _table_shapes(inst)
    for fn, ref, extra in pairs:
        orders = []

        def ordering(keys):
            orders.append(keys)
            return natural_order(keys)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ologkit.instance, "natural_order", ordering)
            got = _outcome(fn, _SCHEMA, inst, *extra)
        assert got == _outcome(ref, _SCHEMA, inst, *extra), fn.__name__
        if got[0] == "raised":
            seen.add("raised")
            continue
        assert not (_passed(got[1]) and orders), fn.__name__
        if fn is validate_instance:
            seen.update([d.code for d in got[1]] or ["clean"])
        elif fn is check_equation:
            seen.add(got[1].verdict)
            path = extra[0].lhs
            if got[1].holds and None in (_chase(inst, path, e) for e in inst.elements(path.start)):
                seen.add("AllHold through a None image")
        elif fn is verify_fiber_product:
            seen.add(got[1].witness_kind or "PASS")
    return seen


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_checks_agree_with_the_element_walkers(seed):
    _compare(seed)


def test_random_instances_reach_every_outcome():
    # The property above is not vacuous: its inputs reach every outcome.
    seen = set().union(*(_compare(seed) for seed in range(400)))
    assert seen == {
        "clean", "MISSING_IMAGE", "UNKNOWN_ELEMENT", "IMAGE_NOT_IN_TARGET",
        "PAYLOAD_MIXED", "UNKNOWN_BOX", "UNKNOWN_ARROW",
        "AllHold", "Counterexample", "raised", "AllHold through a None image",
        "PASS", "COLLIDING_PAIR", "EXTRA_PAIR", "MISSING_PAIR", "MISSING_PROJECTION",
        "in its box's order", "out of order",
    }


def _columns_case(seed):
    """The kernel's and the reference's columns over f, g (and g, f) on one
    random instance; the shapes of the groups seen."""
    inst = _random_instance(random.Random(seed))
    seen = set()
    for leg1, leg2 in (("f", "g"), ("g", "f")):
        got = _pullback_columns(_SCHEMA, inst, leg1, leg2)
        assert got == ref_pullback_columns(_SCHEMA, inst, leg1, leg2)
        assert list(zip(*got)) == _ref_pullback(_SCHEMA, inst, leg1, leg2)
        xs, ys = (inst.elements(_SCHEMA.arrow(leg).src) for leg in (leg1, leg2))
        table1, table2 = inst.table(leg1), inst.table(leg2)
        zs = inst.elements("Z")
        for x in xs:
            if x not in table1:
                seen.update(["missing image", "empty group"])
                continue
            image = table1[x]
            size = countOf((table2[y] for y in ys if y in table2), image)
            seen.add("empty group" if size == 0 else "single" if size == 1 else "larger group")
            if image is None:
                seen.add("None image" if size == 0 else "paired None")
            elif image not in zs:
                seen.add("image outside Z" if size == 0 else "paired outside Z")
    return seen


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pullback_columns_kernel_agrees_with_one_repeat_per_left(seed):
    _columns_case(seed)


def test_pullback_column_cases_reach_every_group_shape():
    seen = set().union(*(_columns_case(seed) for seed in range(200)))
    assert seen == {
        "empty group", "single", "larger group", "missing image", "image outside Z",
        "paired outside Z", "None image", "paired None",
    }


@pytest.mark.parametrize(
    "decl, message",
    [
        (FiberProductDecl("P", "p1", "p2", "f", "nope"), "arrow 'nope' is not declared"),
        (
            FiberProductDecl("P", "p1", "p2", "f", "k"),
            "legs do not form a cospan: f ends at Z, k ends at W",
        ),
    ],
)
def test_a_leg_pair_that_is_not_a_cospan_raises_as_the_walker_does(decl, message):
    inst = _random_instance(random.Random(0))
    for fn in (verify_fiber_product, ref_verify_fiber_product):
        with pytest.raises(CospanMismatchError, match=f"^{message}$"):
            fn(_SCHEMA, inst, decl)
