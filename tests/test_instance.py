import gc
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from operator import attrgetter
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ologkit.instance
import ologkit.ordering
from ologkit import (
    ArrowDecl,
    BoxDecl,
    CospanMismatchError,
    ElementNotInSourceError,
    FiberProductDecl,
    Graph,
    GraphPayload,
    Instance,
    IsoOutcome,
    NonFiniteInputError,
    OlogSchema,
    PairPayload,
    Path,
    PathEquation,
    RealPayload,
    SchemaMismatchError,
    SimParams,
    TextPayload,
    check_all_equations,
    check_equation,
    check_instance_isomorphism,
    compose,
    compute_pullback,
    eval_path,
    generate_instance,
    identity,
    validate_instance,
    verify_all_fiber_products,
    verify_fiber_product,
    verify_isomorphism,
)
from ologkit.ordering import natural_key, natural_order


def _reversed(inst):
    """The same instance with every set and table inserted in reverse order."""
    return Instance(
        inst.name,
        inst.schema_name,
        {box: dict(reversed(elems.items())) for box, elems in inst.sets.items()},
        {arrow: dict(reversed(table.items())) for arrow, table in inst.functions.items()},
    )


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


def test_real_payload_accepts_extended_reals():
    assert RealPayload(20.6).value == 20.6
    assert RealPayload(float("inf")).value == float("inf")
    assert RealPayload(-3).value == -3.0
    assert isinstance(RealPayload(-3).value, float)


def test_real_payload_rejects_nan_and_non_numbers():
    with pytest.raises(NonFiniteInputError):
        RealPayload(float("nan"))
    with pytest.raises(TypeError):
        RealPayload("20.6")
    with pytest.raises(TypeError):
        RealPayload(True)


def test_pair_payload_checks_both_slots():
    p = PairPayload(100.0, 20.6)
    assert (p.first, p.second) == (100.0, 20.6)
    with pytest.raises(NonFiniteInputError):
        PairPayload(1.0, float("nan"))
    with pytest.raises(TypeError):
        PairPayload(None, 1.0)


def test_graph_payload_holds_a_graph():
    g = Graph(("n1", "n2"), (("n1", "n2"),))
    assert GraphPayload(g).graph == g
    with pytest.raises(ValueError):
        Graph(("n1",), (("n1", "n2"),))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_bundled_instances_are_clean(schema, protein, social):
    assert validate_instance(schema, protein) == []
    assert validate_instance(schema, social) == []
    assert sum(len(v) for v in protein.sets.values()) == 285
    assert sum(len(v) for v in social.sets.values()) == 285


def test_schema_name_must_match(schema, protein):
    stranger = Instance(protein.name, "some-other-schema", protein.sets, protein.functions)
    with pytest.raises(SchemaMismatchError):
        validate_instance(schema, stranger)


def _toy_schema():
    return OlogSchema(
        "toy",
        (BoxDecl("X", "an x"), BoxDecl("Y", "a y")),
        (ArrowDecl("f", "X", "Y"),),
    )


def test_validation_codes_cover_each_defect():
    s = _toy_schema()
    inst = Instance(
        "bad",
        "toy",
        sets={
            "X": {"x1": None, "x2": None},
            "Y": {"y1": RealPayload(1.0), "y2": TextPayload("hi")},
            "Z": {"z1": None},
        },
        functions={
            "f": {"x1": "y1", "ghost": "y1", "x2": "nowhere"},
            "g": {},
        },
    )
    codes = sorted(d.code for d in validate_instance(s, inst))
    assert codes == [
        "IMAGE_NOT_IN_TARGET",  # f: x2 -> nowhere
        "PAYLOAD_MIXED",  # Y holds a real and a text
        "UNKNOWN_ARROW",  # g
        "UNKNOWN_BOX",  # Z
        "UNKNOWN_ELEMENT",  # f defined on ghost
    ]



def test_a_value_that_is_not_a_payload_is_a_diagnostic():
    s = _toy_schema()
    xs = {"x1": 5, "x2": "five", "x3": RealPayload(5.0), "x4": None}
    inst = Instance("i", "toy", {"X": xs, "Y": {"y1": 5}}, {"f": dict.fromkeys(xs, "y1")})
    assert [(d.code, d.location, d.message) for d in validate_instance(s, inst)] == [
        ("PAYLOAD_UNKNOWN", "X", "box X holds a value of type int, which is not a payload"),
        ("PAYLOAD_UNKNOWN", "X", "box X holds a value of type str, which is not a payload"),
        ("PAYLOAD_UNKNOWN", "Y", "box Y holds a value of type int, which is not a payload"),
    ]


def test_partial_table_is_flagged_per_element():
    s = _toy_schema()
    inst = Instance(
        "partial",
        "toy",
        sets={"X": {"x1": None, "x2": None, "x3": None}, "Y": {"y1": None}},
        functions={"f": {"x2": "y1"}},
    )
    diags = validate_instance(s, inst)
    assert [d.code for d in diags] == ["MISSING_IMAGE", "MISSING_IMAGE"]
    assert [d.location for d in diags] == ["f/x1", "f/x3"]

    # Ids crossing x9/x10, inserted in natural and in reverse order: the
    # diagnostics come out in natural-key order either way.
    xs = [f"x{i}" for i in range(1, 13) if i != 10]
    table = {x: "y1" for x in xs if x not in ("x2", "x11")}
    table.update({"x9": "nowhere", "x10": "y1", "x12": "nowhere"})
    wide = Instance("partial", "toy", {"X": dict.fromkeys(xs), "Y": {"y1": None}}, {"f": table})
    for inst in (wide, _reversed(wide)):
        diags = validate_instance(s, inst)
        assert [(d.code, d.location) for d in diags] == [
            ("MISSING_IMAGE", "f/x2"),
            ("MISSING_IMAGE", "f/x11"),
            ("IMAGE_NOT_IN_TARGET", "f/x9"),
            ("UNKNOWN_ELEMENT", "f/x10"),
            ("IMAGE_NOT_IN_TARGET", "f/x12"),
        ]


_MISSING_IMAGES = """
from ologkit import ArrowDecl, BoxDecl, Instance, OlogSchema, validate_instance
s = OlogSchema("t", (BoxDecl("X", "an x"), BoxDecl("Y", "a y")), (ArrowDecl("f", "X", "Y"),))
xs = ["x1", "x01", "x001", "x0001", "x00001"]
inst = Instance("i", "t", {"X": dict.fromkeys(xs), "Y": {"y1": None}}, {})
print(" ".join(d.location for d in validate_instance(s, inst)))
"""


def test_missing_images_do_not_depend_on_the_hash_seed():
    # The five ids tie under natural_key, so they keep the box's order.
    package_root = str(FsPath(ologkit.__file__).parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
        proc = subprocess.run(
            [sys.executable, "-c", _MISSING_IMAGES],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.stdout == "f/x1 f/x01 f/x001 f/x0001 f/x00001\n", proc.stderr


# ---------------------------------------------------------------------------
# path evaluation
# ---------------------------------------------------------------------------


def test_eval_identity_path(protein, schema):
    assert eval_path(schema, protein, identity("A"), "a1") == "a1"


def test_eval_path_chases_tables(schema, protein):
    # segment -> its failure pair -> the glue-side number
    q = eval_path(schema, protein, Path("P", ("34",)), "p001")
    assert protein.elements("Q")[q] == PairPayload(float("inf"), 20.6)
    v = eval_path(schema, protein, Path("Q", ("38",)), q)
    assert protein.elements("V")[v] == RealPayload(20.6)
    assert eval_path(schema, protein, Path("P", ("34", "38")), "p001") == v


def test_eval_path_errors(schema, protein):
    with pytest.raises(ElementNotInSourceError):
        eval_path(schema, protein, Path("A", ()), "nope")
    # a lifeline chain that still breaks at the glue leaves the ductility
    # hypothesis arrow undefined on a1; evaluating through it must fail loudly
    from ologkit import SimParams, generate_instance

    odd = generate_instance(
        SimParams(lifeline_present=True, lifeline_failure=23.45), schema
    )
    assert "a1" in odd.elements("A") and not odd.elements("E")
    with pytest.raises(ElementNotInSourceError):
        eval_path(schema, odd, Path("A", ("1",)), "a1")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_eval_path_respects_composition(data):
    from ologkit import bundled_schema, protein_instance

    schema = bundled_schema()
    protein = protein_instance()
    out_arrows = {}
    for a in schema.arrows:
        out_arrows.setdefault(a.src, []).append(a.id)

    box = data.draw(st.sampled_from(sorted(protein.sets)))
    elem = data.draw(st.sampled_from(sorted(protein.elements(box))))
    arrows = []
    at = box
    for _ in range(data.draw(st.integers(0, 4))):
        options = out_arrows.get(at, [])
        if not options:
            break
        arrow = data.draw(st.sampled_from(sorted(options)))
        arrows.append(arrow)
        at = schema.arrow(arrow).dst
    cut = data.draw(st.integers(0, len(arrows)))
    whole = Path(box, tuple(arrows))
    front = Path(box, tuple(arrows[:cut]))
    mid_box = schema.arrow(arrows[cut - 1]).dst if cut else box
    back = Path(mid_box, tuple(arrows[cut:]))

    try:
        direct = eval_path(schema, protein, whole, elem)
    except ElementNotInSourceError:
        # conjecture arrows are partial; staged evaluation must agree on that too
        with pytest.raises(ElementNotInSourceError):
            eval_path(schema, protein, back, eval_path(schema, protein, front, elem))
        return
    staged = eval_path(schema, protein, back, eval_path(schema, protein, front, elem))
    assert staged == direct
    assert compose(schema, front, back) == whole


# ---------------------------------------------------------------------------
# equation checking
# ---------------------------------------------------------------------------


def test_all_bundled_equations_hold(schema, protein, social):
    for inst in (protein, social):
        reports = check_all_equations(schema, inst)
        assert len(reports) == 17
        assert all(r.verdict == "AllHold" for r in reports)
        assert all(r.checked == len(inst.elements(r.equation.lhs.start)) for r in reports)


def test_equation_checks_require_matching_schema_name(schema, protein):
    stranger = Instance(protein.name, "other", protein.sets, protein.functions)
    with pytest.raises(SchemaMismatchError):
        check_equation(schema, stranger, schema.equations[0])
    with pytest.raises(SchemaMismatchError):
        check_all_equations(schema, stranger)


def test_counterexample_reports_first_element_in_natural_order():
    s = OlogSchema(
        "sq",
        (BoxDecl("X", "an x"), BoxDecl("Y", "a y")),
        (ArrowDecl("f", "X", "Y"), ArrowDecl("g", "X", "Y")),
        (PathEquation(Path("X", ("f",)), Path("X", ("g",))),),
    )
    inst = Instance(
        "cex",
        "sq",
        sets={"X": {f"x{i}": None for i in (1, 2, 10)}, "Y": {"y1": None, "y2": None}},
        functions={
            "f": {"x1": "y1", "x2": "y1", "x10": "y1"},
            "g": {"x1": "y1", "x2": "y2", "x10": "y2"},
        },
    )
    report = check_equation(s, inst, s.equations[0])
    assert report.verdict == "Counterexample"
    assert report.witness == ("x2", "y1", "y2")
    assert report.checked == 2  # stopped at the first offender

    # Ids crossing x9/x10: in the reversed dicts the offenders x11 and x10
    # come before x3, but the witness is still the first in natural order.
    xs = [f"x{i}" for i in range(1, 13)]
    wide = Instance(
        "cex",
        "sq",
        sets={"X": dict.fromkeys(xs), "Y": {"y1": None, "y2": None}},
        functions={
            "f": dict.fromkeys(xs, "y1"),
            "g": {x: "y2" if x in ("x3", "x10", "x11") else "y1" for x in xs},
        },
    )
    for inst in (wide, _reversed(wide)):
        report = check_equation(s, inst, s.equations[0])
        assert (report.witness, report.checked) == (("x3", "y1", "y2"), 3)

    # A partial table raises for the first element in natural order that hits
    # it, unless a counterexample comes before that element.
    partial = Instance(
        "partial",
        "sq",
        sets=wide.sets,
        functions={
            "f": wide.functions["f"],
            "g": {x: "y1" for x in xs if x not in ("x4", "x10", "x11")},
        },
    )
    for inst in (partial, _reversed(partial)):
        with pytest.raises(ElementNotInSourceError, match="'x4'"):
            check_equation(s, inst, s.equations[0])
    partial.functions["g"]["x2"] = "y2"
    for inst in (partial, _reversed(partial)):
        report = check_equation(s, inst, s.equations[0])
        assert (report.witness, report.checked) == (("x2", "y1", "y2"), 2)
    for inst in (wide, _reversed(wide)):
        report = check_equation(s, inst, PathEquation(Path("X", ("f",)), Path("X", ("f",))))
        assert (report.holds, report.checked) == (True, 12)


# ---------------------------------------------------------------------------
# pullbacks
# ---------------------------------------------------------------------------


def _cospan_instance(nx, ny, nz, fmap, gmap):
    s = OlogSchema(
        "cospan",
        (BoxDecl("X", "an x"), BoxDecl("Y", "a y"), BoxDecl("Z", "a z")),
        (ArrowDecl("f", "X", "Z"), ArrowDecl("g", "Y", "Z")),
    )
    inst = Instance(
        "c",
        "cospan",
        sets={
            "X": {f"x{i}": None for i in range(nx)},
            "Y": {f"y{i}": None for i in range(ny)},
            "Z": {f"z{i}": None for i in range(nz)},
        },
        functions={
            "f": {f"x{i}": f"z{fmap[i]}" for i in range(nx)},
            "g": {f"y{i}": f"z{gmap[i]}" for i in range(ny)},
        },
    )
    return s, inst


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pullback_matches_brute_force(data):
    nz = data.draw(st.integers(1, 5))
    nx = data.draw(st.integers(0, 8))
    ny = data.draw(st.integers(0, 8))
    fmap = data.draw(st.lists(st.integers(0, nz - 1), min_size=nx, max_size=nx))
    gmap = data.draw(st.lists(st.integers(0, nz - 1), min_size=ny, max_size=ny))
    s, inst = _cospan_instance(nx, ny, nz, fmap, gmap)

    got = compute_pullback(s, inst, "f", "g")
    want = sorted(
        (x, y)
        for x, y in itertools.product(inst.elements("X"), inst.elements("Y"))
        if inst.table("f")[x] == inst.table("g")[y]
    )
    assert sorted(got) == want
    assert got == sorted(got)  # already emitted in lexicographic order


def test_pullback_pairs_come_in_natural_key_order_whatever_the_insertion_order():
    rng = random.Random(3)
    nx, ny, nz = 12, 11, 3
    fmap = [rng.randrange(nz) for _ in range(nx)]
    gmap = [rng.randrange(nz) for _ in range(ny)]
    s, inst = _cospan_instance(nx, ny, nz, fmap, gmap)
    want = [
        (f"x{i}", f"y{j}")
        for i in range(nx)
        for j in range(ny)
        if fmap[i] == gmap[j]
    ]
    for _ in range(5):
        shuffled = Instance(
            inst.name,
            inst.schema_name,
            {box: dict(rng.sample(list(e.items()), len(e))) for box, e in inst.sets.items()},
            {a: dict(rng.sample(list(t.items()), len(t))) for a, t in inst.functions.items()},
        )
        assert compute_pullback(s, shuffled, "f", "g") == want


def test_pullback_rejects_non_cospans(schema, protein):
    with pytest.raises(CospanMismatchError):
        compute_pullback(schema, protein, "9", "14")  # -> H vs -> Q
    with pytest.raises(CospanMismatchError):
        compute_pullback(schema, protein, "9", "999")


def test_pullback_requires_matching_schema_name(schema, protein):
    stranger = Instance("s", "not-this-schema", protein.sets, protein.functions)
    with pytest.raises(SchemaMismatchError):
        compute_pullback(schema, stranger, "30", "27")
    with pytest.raises(SchemaMismatchError):
        verify_fiber_product(schema, stranger, schema.fiber_products[0])


def test_bundled_fiber_products_all_pass(schema, protein, social):
    for inst in (protein, social):
        reports = verify_all_fiber_products(schema, inst)
        assert len(reports) == 8
        assert all(r.verdict == "PASS" for r in reports)
        assert all(r.apex_size == r.pullback_size for r in reports)


def _square_instance(apex_pairs, nx=2):
    """A P = X ×_Z Y square over a fixed cospan, with a configurable apex."""
    s = OlogSchema(
        "square",
        tuple(BoxDecl(b, f"a {b}") for b in ("P", "X", "Y", "Z")),
        (
            ArrowDecl("p1", "P", "X"),
            ArrowDecl("p2", "P", "Y"),
            ArrowDecl("f", "X", "Z"),
            ArrowDecl("g", "Y", "Z"),
        ),
        (PathEquation(Path("P", ("p1", "f")), Path("P", ("p2", "g"))),),
        (FiberProductDecl("P", "p1", "p2", "f", "g"),),
    )
    # f: x1..x{nx} -> z1; g: y1 -> z1, y2 -> z2.  Canonical pullback:
    # {(x1,y1), ..., (x{nx},y1)}
    inst = Instance(
        "sq",
        "square",
        sets={
            "P": {pid: None for pid, _, _ in apex_pairs},
            "X": {f"x{i}": None for i in range(1, nx + 1)},
            "Y": {"y1": None, "y2": None},
            "Z": {"z1": None, "z2": None},
        },
        functions={
            "p1": {pid: x for pid, x, _ in apex_pairs},
            "p2": {pid: y for pid, _, y in apex_pairs},
            "f": {f"x{i}": "z1" for i in range(1, nx + 1)},
            "g": {"y1": "z1", "y2": "z2"},
        },
    )
    return s, inst


def test_fiber_product_pass_and_each_failure_witness():
    s, good = _square_instance([("p1", "x1", "y1"), ("p2", "x2", "y1")])
    report = verify_fiber_product(s, good, s.fiber_products[0])
    assert report.verdict == "PASS"
    assert (report.apex_size, report.pullback_size) == (2, 2)

    s, collide = _square_instance(
        [("p1", "x1", "y1"), ("p2", "x1", "y1"), ("p3", "x2", "y1")]
    )
    report = verify_fiber_product(s, collide, s.fiber_products[0])
    assert (report.verdict, report.witness_kind) == ("FAIL", "COLLIDING_PAIR")
    assert report.witness == ("p1", "p2")

    s, missing = _square_instance([("p1", "x1", "y1")])
    report = verify_fiber_product(s, missing, s.fiber_products[0])
    assert (report.verdict, report.witness_kind) == ("FAIL", "MISSING_PAIR")
    assert report.witness == ("x2", "y1")

    s, extra = _square_instance(
        [("p1", "x1", "y1"), ("p2", "x2", "y1"), ("p3", "x1", "y2")]
    )
    report = verify_fiber_product(s, extra, s.fiber_products[0])
    assert (report.verdict, report.witness_kind) == ("FAIL", "EXTRA_PAIR")
    assert report.witness == ("p3", "x1", "y2")

    # Ids crossing p9/p10 and x9/x10, inserted in natural and in reverse
    # order: each witness is the first in natural-key order.
    diagonal = [(f"p{i}", f"x{i}", "y1") for i in range(1, 13)]
    cases = [
        (diagonal, None, ()),
        (diagonal[:9] + [("p10", "x2", "y1")] + diagonal[10:], "COLLIDING_PAIR", ("p2", "p10")),
        (diagonal[:1] + diagonal[2:10] + diagonal[11:], "MISSING_PAIR", ("x2", "y1")),
        (
            [(p, x, "y2" if p in ("p3", "p11") else y) for p, x, y in diagonal],
            "EXTRA_PAIR",
            ("p3", "x3", "y2"),
        ),
    ]
    for apex_pairs, kind, witness in cases:
        s, inst = _square_instance(apex_pairs, nx=12)
        for variant in (inst, _reversed(inst)):
            report = verify_fiber_product(s, variant, s.fiber_products[0])
            assert (report.holds, report.witness_kind, report.witness) == (
                kind is None,
                kind,
                witness,
            )
            assert (report.apex_size, report.pullback_size) == (len(apex_pairs), 12)


@pytest.mark.parametrize(
    "check",
    [
        lambda s, inst: check_equation(s, inst, s.equations[0]),
        lambda s, inst: verify_fiber_product(s, inst, s.fiber_products[0]),
    ],
    ids=["equation", "fiber-product"],
)
def test_a_failing_check_that_names_no_offender_is_an_internal_error(check, monkeypatch):
    # The whole-box pass decides that the check fails; an element walk that
    # then finds no offender is a bug, reported as one and never as a pass.
    s, extra = _square_instance([("p1", "x1", "y1"), ("p2", "x2", "y1"), ("p3", "x1", "y2")])
    assert not check(s, extra).holds
    monkeypatch.setattr(ologkit.instance, "natural_order", lambda ids: [])
    with pytest.raises(RuntimeError, match="yet no element is its witness"):
        check(s, extra)


def _square_tables(f, g, x="x", p1=True):
    """P = {p}, X = {x}, Y = {y}, Z = {z}: p2 sends p to y, p1 sends p to x
    unless p1 is false, and f, g send x and y to the images given."""
    sets = {"P": {"p": None}, "X": {x: None}, "Y": {"y": None}, "Z": {"z": None}}
    functions = {"p1": {"p": x} if p1 else {}, "p2": {"p": "y"}, "f": {x: f}, "g": {"y": g}}
    return Instance("sq", "square", sets, functions)


@pytest.mark.parametrize(
    "inst, check, expected",
    [
        pytest.param(
            _square_tables(None, None),
            lambda s, inst: [r.verdict for r in check_all_equations(s, inst)]
            + [check_equation(s, inst, s.equations[0]).verdict],
            ["AllHold", "AllHold"],
            id="two-stored-None-sides-hold",
        ),
        pytest.param(
            _square_tables("z", "z", x="", p1=False),
            lambda s, inst: attrgetter("witness_kind", "witness")(
                verify_fiber_product(s, inst, s.fiber_products[0])
            ),
            ("EXTRA_PAIR", ("p", "", "y")),
            id="a-missing-projection-is-not-the-id-empty-string",
        ),
        pytest.param(
            _square_tables(None, None),
            lambda s, inst: [
                compute_pullback(s, inst, "f", "g"),
                compute_pullback(s, _square_tables("stray", "stray"), "f", "g"),
            ],
            [[("x", "y")]] * 2,
            id="stored-None-images-pair-as-stray-ids-do",
        ),
    ],
)
def test_a_table_entry_is_missing_or_stored_in_every_check(inst, check, expected):
    # One reading of a table: a missing entry is never an id (not even ""),
    # and a stored image, None included, compares as any other image.
    s, _ = _square_instance([])
    assert check(s, inst) == expected


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def test_instance_is_isomorphic_to_itself(schema, protein):
    res = check_instance_isomorphism(schema, protein, protein)
    assert res.outcome is IsoOutcome.FOUND
    assert verify_isomorphism(schema, protein, protein, res.mapping)


def _relabel(inst, prefix):
    ren = {
        eid: f"{prefix}{eid}" for elems in inst.sets.values() for eid in elems
    }
    return Instance(
        inst.name + "-relabeled",
        inst.schema_name,
        {
            box: {ren[eid]: payload for eid, payload in elems.items()}
            for box, elems in inst.sets.items()
        },
        {
            arrow: {ren[eid]: ren[img] for eid, img in table.items()}
            for arrow, table in inst.functions.items()
        },
    )


def test_relabeling_is_found_isomorphic(schema, protein):
    res = check_instance_isomorphism(schema, protein, _relabel(protein, "x_"))
    assert res.found
    assert res.mapping["A"]["a1"] == "x_a1"


def test_payload_values_are_never_compared(schema, protein):
    def doubled(payload):
        if isinstance(payload, RealPayload):
            return RealPayload(payload.value * 2)
        if isinstance(payload, PairPayload):
            return PairPayload(payload.first * 2, payload.second * 2)
        return payload

    rescaled = Instance(
        "rescaled",
        protein.schema_name,
        {
            box: {eid: doubled(p) for eid, p in elems.items()}
            for box, elems in protein.sets.items()
        },
        protein.functions,
    )
    res = check_instance_isomorphism(schema, protein, rescaled)
    assert res.found


def test_matched_narratives_are_isomorphic(schema, protein, social):
    res = check_instance_isomorphism(schema, protein, social)
    assert res.found
    assert verify_isomorphism(schema, protein, social, res.mapping)
    # the bijection transports every equation check verbatim
    from ologkit import path_endpoints

    for eq in schema.equations:
        start, end = path_endpoints(schema, eq.lhs)
        for eid in protein.elements(start):
            lhs_a = eval_path(schema, protein, eq.lhs, eid)
            lhs_b = eval_path(schema, social, eq.lhs, res.mapping[start][eid])
            assert res.mapping[end][lhs_a] == lhs_b


def test_dropped_element_gives_cardinality_certificate(schema, protein):
    smaller_sets = {box: dict(elems) for box, elems in protein.sets.items()}
    del smaller_sets["S"]["hb1"]
    smaller = Instance("smaller", protein.schema_name, smaller_sets, protein.functions)
    res = check_instance_isomorphism(schema, protein, smaller)
    assert not res.found
    assert res.certificate == "CARDINALITY_MISMATCH"
    assert res.detail.startswith("S:")


def test_changed_payload_type_gives_type_certificate(schema, protein):
    retyped_sets = {box: dict(elems) for box, elems in protein.sets.items()}
    retyped_sets["W"] = {eid: TextPayload("weird") for eid in retyped_sets["W"]}
    retyped = Instance("retyped", protein.schema_name, retyped_sets, protein.functions)
    res = check_instance_isomorphism(schema, protein, retyped)
    assert (res.found, res.certificate, res.detail) == (
        False,
        "PAYLOAD_TYPE_MISMATCH",
        "W",
    )


def test_a_value_that_is_not_a_payload_has_a_type_of_its_own():
    # Iso numbers every value type it meets; one outside the payload types
    # matches only values of its own type.
    s = OlogSchema("t", (BoxDecl("X", "an x"),), ())
    a = Instance("i", "t", {"X": {"x1": 5}}, {})
    twin = Instance("j", "t", {"X": {"x1": "5"}}, {})
    assert check_instance_isomorphism(s, a, a).outcome is IsoOutcome.FOUND
    res = check_instance_isomorphism(s, a, twin)
    assert (res.found, res.certificate, res.detail) == (False, "PAYLOAD_TYPE_MISMATCH", "X")


LOOP = OlogSchema("loop", (BoxDecl("X", "an x"),), (ArrowDecl("a", "X", "X"),))


def _loop_instance(name, table):
    """An instance of LOOP whose box X holds exactly the keys of ``table``."""
    return Instance(
        name,
        "loop",
        sets={"X": dict.fromkeys(table)},
        functions={"a": table},
    )


def test_refinement_blind_spot_falls_to_search():
    # identity vs swap on two elements: colour refinement cannot separate
    # them, so only the backtracking search can (and must) say NotFound.
    fixed = _loop_instance("fixed", {"x1": "x1", "x2": "x2"})
    swapped = _loop_instance("swapped", {"x1": "x2", "x2": "x1"})
    # images outside the box have no colour on either side, so refinement
    # cannot tell them apart either, and the search must not pair them.
    ghost = _loop_instance("ghost", {"x1": "ghost"})
    phantom = _loop_instance("phantom", {"x1": "phantom"})
    for a, b in ((fixed, swapped), (ghost, phantom)):
        res = check_instance_isomorphism(LOOP, a, b)
        assert not res.found
        assert res.certificate == "SEARCH_EXHAUSTED"
    # sanity: each one is still isomorphic to itself
    assert check_instance_isomorphism(LOOP, fixed, fixed).found
    assert check_instance_isomorphism(LOOP, swapped, swapped).found


def test_signature_certificate_on_structural_difference():
    s = OlogSchema(
        "fan",
        (BoxDecl("X", "an x"), BoxDecl("Y", "a y")),
        (ArrowDecl("f", "X", "Y"),),
    )
    onto_one = Instance(
        "one",
        "fan",
        sets={"X": {"x1": None, "x2": None}, "Y": {"y1": None, "y2": None}},
        functions={"f": {"x1": "y1", "x2": "y1"}},
    )
    onto_two = Instance(
        "two",
        "fan",
        sets={"X": {"x1": None, "x2": None}, "Y": {"y1": None, "y2": None}},
        functions={"f": {"x1": "y1", "x2": "y2"}},
    )
    # Round 1 counts preimages, 2, 1 and 0 on both sides, and leaves each side
    # discrete.  Round 2 sees that x1's preimage x2 has one preimage in chain
    # and none in stub, which only colours shared by both sides can compare.
    chain = _loop_instance("chain", {"x1": "x1", "x2": "x1", "x3": "x2"})
    stub = _loop_instance("stub", {"x1": "x1", "x2": "x1", "x3": "x3"})
    for schema, one, two, box in ((s, onto_one, onto_two, "Y"), (LOOP, chain, stub, "X")):
        for a, b in ((one, two), (two, one)):
            res = check_instance_isomorphism(schema, a, b)
            assert not res.found
            assert (res.certificate, res.detail) == ("SIGNATURE_MISMATCH", box)


def test_iso_requires_matching_schema_name(schema, protein):
    stranger = Instance("s", "not-this-schema", protein.sets, protein.functions)
    with pytest.raises(SchemaMismatchError):
        check_instance_isomorphism(schema, protein, stranger)


def test_path_evaluation_and_iso_verification_require_matching_schema_name(schema, protein):
    stranger = Instance(protein.name, "other", protein.sets, protein.functions)
    with pytest.raises(SchemaMismatchError):
        eval_path(schema, stranger, Path("A", ("1",)), "a1")
    mapping = check_instance_isomorphism(schema, protein, protein).mapping
    assert verify_isomorphism(schema, protein, protein, mapping)
    for a, b in ((protein, stranger), (stranger, protein)):
        with pytest.raises(SchemaMismatchError):
            verify_isomorphism(schema, a, b, mapping)


def test_iso_reads_an_arrow_from_an_undeclared_box_as_validation_does():
    # Q is no declared box: each instance's Q elements are numbered as a box
    # of their own, as validate_instance reads them, and never a KeyError.
    s = OlogSchema("s", (BoxDecl("X", "an x"),), (ArrowDecl("f", "Q", "X"),))
    bare = Instance("a", "s", {"X": {"x1": None, "x2": None}}, {})
    res = check_instance_isomorphism(s, bare, bare)
    assert res.mapping == {"X": {"x1": "x1", "x2": "x2"}}
    a = Instance("a", "s", {"X": {"x1": None, "x2": None}, "Q": {"q1": None}}, {"f": {"q1": "x1"}})
    b = Instance("b", "s", {"X": {"y1": None, "y2": None}, "Q": {"p1": None}}, {"f": {"p1": "y2"}})
    res = check_instance_isomorphism(s, a, b)
    assert res.mapping == {"X": {"x1": "y2", "x2": "y1"}, "Q": {"q1": "p1"}}
    res = check_instance_isomorphism(s, a, bare)
    assert (res.certificate, res.detail) == ("CARDINALITY_MISMATCH", "Q: 1 vs 0")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_iso_outcome_is_symmetric(seed):
    rng = random.Random(seed)
    s = OlogSchema(
        "two-arrows",
        (BoxDecl("X", "an x"), BoxDecl("Y", "a y")),
        (ArrowDecl("f", "X", "Y"), ArrowDecl("g", "Y", "Y")),
    )

    def rand_instance(name):
        nx, ny = rng.randint(0, 3), rng.randint(1, 3)
        xs = [f"x{i}" for i in range(nx)]
        ys = [f"y{i}" for i in range(ny)]
        return Instance(
            name,
            "two-arrows",
            sets={"X": {x: None for x in xs}, "Y": {y: None for y in ys}},
            functions={
                "f": {x: rng.choice(ys) for x in xs},
                "g": {y: rng.choice(ys) for y in ys},
            },
        )

    a, b = rand_instance("a"), rand_instance("b")
    forward = check_instance_isomorphism(s, a, b)
    backward = check_instance_isomorphism(s, b, a)
    assert forward.found == backward.found
    if forward.found:
        assert verify_isomorphism(s, a, b, forward.mapping)
        assert verify_isomorphism(s, b, a, backward.mapping)


def test_a_found_map_failing_reverification_is_an_internal_error(
    schema, protein, monkeypatch
):
    import ologkit.instance

    monkeypatch.setattr(ologkit.instance, "verify_isomorphism", lambda *args: False)
    with pytest.raises(RuntimeError, match="re-verification"):
        check_instance_isomorphism(schema, protein, protein)


def test_verify_isomorphism_rejects_non_commuting_maps(schema, protein):
    res = check_instance_isomorphism(schema, protein, protein)
    broken = {box: dict(m) for box, m in res.mapping.items()}
    v_ids = sorted(broken["V"])
    broken["V"][v_ids[0]], broken["V"][v_ids[1]] = (
        broken["V"][v_ids[1]],
        broken["V"][v_ids[0]],
    )
    assert not verify_isomorphism(schema, protein, protein, broken)


def test_bonded_twins_past_the_old_recursion_line_are_found(schema):
    # Bonded n=12 twins need more search decisions than the default recursion
    # limit allows a recursive search.
    a, b = (
        generate_instance(SimParams(12, 20.6, 100.0, True, 23.45, 110.0, domain), schema)
        for domain in ("protein", "social")
    )
    res = check_instance_isomorphism(schema, a, b)
    assert res.outcome is IsoOutcome.FOUND
    assert verify_isomorphism(schema, a, b, res.mapping)


def test_iso_search_does_not_recurse(schema, protein, social):
    # 30 frames above the caller: enough for a loop, far too few for one
    # frame per search decision.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        res = check_instance_isomorphism(schema, protein, social)
    finally:
        sys.setrecursionlimit(limit)
    assert res.found


def test_iso_order_merges_boxes_whose_ids_tie_under_natural_key():
    # B1 and B01 have one natural key, so their elements share one run of
    # the search order, by element id: b1 (in B01) is tried before b2 and
    # b3 (in B1), and that first choice fixes which isomorphism is found.
    s = OlogSchema(
        "tied",
        (BoxDecl("B1", "a b"), BoxDecl("B01", "a b"), BoxDecl("C", "a c")),
        (ArrowDecl("f", "B1", "C"), ArrowDecl("g", "B01", "C")),
    )
    sets = {
        "B1": {"b2": None, "b3": None},
        "B01": {"b1": None, "b4": None},
        "C": {"c1": None, "c2": None},
    }
    g = {"b1": "c1", "b4": "c2"}
    a = Instance("a", "tied", sets, {"f": {"b2": "c1", "b3": "c2"}, "g": g})
    b = Instance("b", "tied", sets, {"f": {"b2": "c2", "b3": "c1"}, "g": g})
    res = check_instance_isomorphism(s, a, b)
    assert res.mapping == {
        "B1": {"b2": "b3", "b3": "b2"},
        "B01": {"b1": "b1", "b4": "b4"},
        "C": {"c1": "c1", "c2": "c2"},
    }


def test_checks_on_ordered_ids_call_natural_key_on_no_element(schema, monkeypatch):
    params = SimParams(
        brick_count=6, brick_failure=100.0, lifeline_present=True, lifeline_failure=110.0
    )
    inst = generate_instance(params, schema)
    seen = []

    def counting_key(ident):
        seen.append(ident)
        return natural_key(ident)

    monkeypatch.setattr(ologkit.ordering, "natural_key", counting_key)
    monkeypatch.setattr(ologkit.instance, "natural_key", counting_key)
    assert all(r.holds for r in check_all_equations(schema, inst))
    assert all(r.holds for r in verify_all_fiber_products(schema, inst))
    assert check_instance_isomorphism(schema, inst, inst).found
    # Generated ids are already in natural-key order; the iso search keys
    # only the box ids, to find boxes whose ids tie.
    assert set(seen) <= {box.id for box in schema.boxes}


def test_instance_checks_leave_no_reference_cycles(schema):
    # Garbage in a cycle waits for the cyclic collector: the whole-box
    # image lists of one check would stay alive into the next ones.
    params = SimParams(
        brick_count=6, brick_failure=100.0, lifeline_present=True, lifeline_failure=110.0
    )
    inst = generate_instance(params, schema)
    gc.collect()
    assert validate_instance(schema, inst) == []
    assert all(r.holds for r in check_all_equations(schema, inst))
    assert all(r.holds for r in verify_all_fiber_products(schema, inst))
    assert gc.collect() == 0


def test_two_empty_instances_are_isomorphic_by_the_empty_map(schema):
    empty = Instance("empty", schema.name)
    res = check_instance_isomorphism(schema, empty, empty)
    assert (res.outcome, res.mapping) == (IsoOutcome.FOUND, {})


def test_empty_box_and_empty_tables_leave_the_rest_to_match():
    s = OlogSchema(
        "hollow",
        (BoxDecl("X", "an x"), BoxDecl("Y", "a y")),
        (ArrowDecl("f", "X", "Y"), ArrowDecl("g", "X", "X"), ArrowDecl("h", "Y", "Y")),
    )
    a = Instance("a", "hollow", {"X": {}, "Y": {"y1": None, "y2": None}},
                 {"f": {}, "g": {}, "h": {"y1": "y2", "y2": "y2"}})
    b = Instance("b", "hollow", {"Y": {"u": None, "v": None}}, {"h": {"u": "u", "v": "u"}})
    res = check_instance_isomorphism(s, a, b)
    assert res.mapping == {"Y": {"y1": "v", "y2": "u"}}
    assert verify_isomorphism(s, a, b, res.mapping)


_XY = OlogSchema("xy", (BoxDecl("X", "an x"), BoxDecl("Y", "a y")), (ArrowDecl("f", "X", "Y"),))


def test_an_instance_with_a_stray_table_entry_is_isomorphic_to_itself():
    # fn f { x -> y, ghost -> y }: the entry for ghost, which is not in X,
    # is read by neither the search nor the re-check.
    inst = Instance("i", "xy", {"X": {"x": None}, "Y": {"y": None}}, {"f": {"x": "y", "ghost": "y"}})
    res = check_instance_isomorphism(_XY, inst, inst)
    assert res.mapping == {"X": {"x": "x"}, "Y": {"y": "y"}}
    assert verify_isomorphism(_XY, inst, inst, res.mapping)


def test_verify_reads_an_image_outside_the_target_box_as_the_search_does():
    # x's image in a is outside Y; in b, x has no image and a stray entry
    # keeps the table sizes equal.  An outside image commutes with nothing.
    sets = {"X": {"x": None}, "Y": {"y": None}}
    a = Instance("a", "xy", sets, {"f": {"x": "ghost"}})
    b = Instance("b", "xy", sets, {"f": {"zzz": "y"}})
    assert check_instance_isomorphism(_XY, a, b).certificate == "SEARCH_EXHAUSTED"
    assert not verify_isomorphism(_XY, a, b, {"X": {"x": "x"}, "Y": {"y": "y"}})


def test_verify_reads_an_explicit_none_image_as_one_outside_the_target_box():
    # f = {x: None} is an image outside Y, as validation reads it, not a
    # missing entry: it commutes with nothing, not even under the identity.
    a = Instance("a", "xy", {"X": {"x": None}, "Y": {}}, {"f": {"x": None}})
    b = Instance("b", "xy", {"X": {"x2": None}, "Y": {}}, {"f": {}})
    assert [d.code for d in validate_instance(_XY, a)] == ["IMAGE_NOT_IN_TARGET"]
    assert check_instance_isomorphism(_XY, a, b).certificate == "SEARCH_EXHAUSTED"
    assert check_instance_isomorphism(_XY, a, a).certificate == "SEARCH_EXHAUSTED"
    assert not _reference_verify(_XY, a, b, {"X": {"x": "x2"}})
    assert not verify_isomorphism(_XY, a, b, {"X": {"x": "x2"}})
    assert not verify_isomorphism(_XY, a, a, {"X": {"x": "x"}})


def test_verify_rejects_a_map_onto_a_smaller_box():
    sets = {"X": {"x1": None, "x2": None}, "Y": {"y": None}}
    a = Instance("a", "xy", sets, {"f": {"x1": "y", "x2": "y"}})
    b = Instance("b", "xy", {"X": {"x": None}, "Y": {"y": None}}, {"f": {"x": "y"}})
    assert not verify_isomorphism(_XY, a, b, {"X": {"x1": "x", "x2": "x"}, "Y": {"y": "y"}})


# ---------------------------------------------------------------------------
# colour refinement against a per-element reference
# ---------------------------------------------------------------------------


def _reference_refine_colors(schema, pair):
    """Colour refinement over (side, box id, element id) keys, one Python pass a round.

    The reference for ``ologkit.instance._refine_colors``: each round ranks
    every element's key (its colour, its images' colours by out-arrow, its
    sorted (arrow id, colour) preimages) among the sorted keys of both
    sides.  Returns ``(colour by element, round, box)`` as that function
    does.
    """
    out_arrows = []
    for instance in pair:
        index = {box.id: [] for box in schema.boxes}
        for arrow in schema.arrows:
            index[arrow.src].append((arrow.id, arrow.dst, instance.table(arrow.id)))
        out_arrows.append(index)
    keys = {
        (side, box.id, eid): (box.id, ologkit.instance.payload_type_name(payload))
        for side, instance in enumerate(pair)
        for box in schema.boxes
        for eid, payload in instance.elements(box.id).items()
    }
    color = {}
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
        preimage_sig = {}
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


_PAYLOAD_MAKERS = (
    lambda: None, lambda: RealPayload(1.5), lambda: PairPayload(0.0, 1.0), lambda: TextPayload("t")
)
_ID_POOL = ("", "x1", "x2", "x10", "b1", "b01", "y")


def _random_pair(rng):
    """A random small schema and two instances of it, often near-isomorphic.

    Tables may be partial, send elements outside the target box (an explicit
    None among them), or carry sources outside the source box; payload types
    may mix within a box; boxes may be empty; arrows may be self-arrows; ids
    include "".  Boxes are listed in natural-key order, as canonical text
    lists them, or not, and tables in their box's order; b is often a
    relabelled copy of a, and then sometimes a copy with every id kept.
    """
    box_ids = ["X", "Y", "Z"][: rng.randint(1, 3)]
    s = OlogSchema(
        "random",
        tuple(BoxDecl(box_id, box_id) for box_id in box_ids),
        tuple(
            ArrowDecl(f"f{j}", rng.choice(box_ids), rng.choice(box_ids))
            for j in range(rng.randint(1, 4))
        ),
    )

    def instance(name):
        mixed = rng.random() < 0.2
        ordered = rng.random() < 0.5
        sets = {}
        for box_id in box_ids:
            kind = rng.choice(_PAYLOAD_MAKERS)
            ids = rng.sample(_ID_POOL, rng.randint(0, 5))
            sets[box_id] = {
                eid: (rng.choice(_PAYLOAD_MAKERS) if mixed else kind)()
                for eid in (natural_order(ids) if ordered else ids)
            }
        functions = {}
        for arrow in s.arrows:
            targets = list(sets[arrow.dst]) if rng.random() < 0.9 else list(_ID_POOL)
            table = {
                eid: rng.choice(targets)
                for eid in sets[arrow.src]
                if rng.random() < 0.9 and targets
            }
            if rng.random() < 0.1:
                table[rng.choice(("ghost", *_ID_POOL))] = rng.choice(_ID_POOL)
            if rng.random() < 0.1 and table:
                table[rng.choice(list(table))] = None
            functions[arrow.id] = table
        return Instance(name, "random", sets, functions)

    a = instance("a")
    if rng.random() < 0.5:
        return s, a, instance("b")
    # A relabelled copy of a, its dicts in another order, or a copy that keeps
    # every id and order; sometimes with one table entry moved.
    kept = rng.random() < 0.3
    rename = {}
    for box_id, elems in a.sets.items():
        ids = list(elems)
        rename[box_id] = dict(zip(ids, ids if kept else rng.sample(ids, len(ids))))
    sets = {
        box_id: {
            rename[box_id][eid]: payload
            for eid, payload in (elems.items() if kept else reversed(elems.items()))
        }
        for box_id, elems in a.sets.items()
    }
    functions = {
        arrow.id: {
            rename[arrow.src].get(eid, eid): rename[arrow.dst].get(image, image)
            for eid, image in a.table(arrow.id).items()
        }
        for arrow in s.arrows
    }
    arrow = rng.choice(s.arrows)
    if rng.random() < 0.3 and functions[arrow.id] and sets[arrow.dst]:
        entry = rng.choice(list(functions[arrow.id]))
        functions[arrow.id][entry] = rng.choice(list(sets[arrow.dst]))
    return s, a, Instance("b", "random", sets, functions)


def _refinement_of(s, a, b):
    """``_refine_colors`` on the pair, its colours keyed (side, box id, element id)."""
    pair = ologkit.instance._index_pair(s, (a, b))
    colour, round_, box_id = ologkit.instance._refine_colors(pair)
    boxes = len(pair.box_ids)
    keyed = {
        (k // boxes, pair.box_ids[k % boxes], pair.ids[e]): int(colour[e])
        for k, (lo, hi) in enumerate(zip(pair.starts, pair.starts[1:]))
        for e in range(lo, hi)
    }
    return keyed, round_, box_id


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_refinement_matches_the_per_element_reference(seed):
    s, a, b = _random_pair(random.Random(seed))
    expected, expected_round, expected_box = _reference_refine_colors(s, (a, b))
    got, got_round, got_box = _refinement_of(s, a, b)
    assert (got_round, got_box) == (expected_round, expected_box)
    # The same partition: the colours correspond one to one.
    assert got.keys() == expected.keys()
    both = {(expected[elem], got[elem]) for elem in got}
    assert len(both) == len(set(expected.values())) == len(set(got.values()))


def test_random_pairs_reach_every_refinement_outcome_and_input_shape():
    outcomes, shapes = set(), set()
    for seed in range(400):
        s, a, b = _random_pair(random.Random(seed))
        _, round_, box_id = _refinement_of(s, a, b)
        outcomes.add("fixed point" if box_id is None else "round 0" if round_ == 0 else "later")
        for inst in (a, b):
            for box_id, elems in inst.sets.items():
                shapes |= {"empty box"} if not elems else set()
                shapes |= {'id ""'} if "" in elems else set()
                kinds = {type(payload) for payload in elems.values()}
                shapes |= {"mixed payloads"} if len(kinds) > 1 else set()
            for arrow in s.arrows:
                table = inst.table(arrow.id)
                src, dst = inst.elements(arrow.src), inst.elements(arrow.dst)
                shapes |= {"self-arrow"} if arrow.src == arrow.dst else set()
                shapes |= {"partial table"} if src.keys() - table.keys() else set()
                shapes |= {"source outside"} if table.keys() - src.keys() else set()
                shapes |= {"image outside"} if any(
                    image not in dst for eid, image in table.items() if eid in src
                ) else set()
                shapes |= {"None image"} if any(
                    image is None for eid, image in table.items() if eid in src
                ) else set()
                # Tables are read over their boxes in natural-key order.
                if len(src) > 1 and table.keys() == src.keys():
                    ordered = list(table) == list(src) == natural_order(src)
                    shapes.add("in its box's order" if ordered else "out of order")
    assert outcomes == {"fixed point", "round 0", "later"}
    assert shapes == {
        "empty box", 'id ""', "mixed payloads", "self-arrow", "partial table",
        "source outside", "image outside", "None image", "in its box's order", "out of order",
    }


def _reference_verify(schema, a, b, mapping):
    """``verify_isomorphism`` by definition, element by element.

    Each box's map must hit every b-element exactly once from the a-elements.
    Reading an arrow at an element of its source box gives ("none",),
    ("in", image) or a fresh object for an image outside the target box, so
    an outside image equals nothing; entries for other sources are never read.
    """
    for box in schema.boxes:
        m = mapping.get(box.id, {})
        ea, eb = a.elements(box.id), b.elements(box.id)
        if sorted(m) != sorted(ea) or any(v not in eb for v in m.values()):
            return False
        if any(sum(v == y for v in m.values()) != 1 for y in eb):
            return False

    def read(inst, arrow, x):
        table = inst.table(arrow.id)
        if x not in table:
            return ("none",)
        return ("in", table[x]) if table[x] in inst.elements(arrow.dst) else object()

    for arrow in schema.arrows:
        m_src, m_dst = mapping.get(arrow.src, {}), mapping.get(arrow.dst, {})
        for x in a.elements(arrow.src):
            image = read(a, arrow, x)
            if isinstance(image, tuple) and image[0] == "in":
                image = ("in", m_dst[image[1]])
            if image != read(b, arrow, m_src[x]):
                return False
    return True


def _all_maps(schema, a, b):
    """Every family of bijections between the boxes of a and b that keeps payload types."""
    boxes = [box.id for box in schema.boxes if a.elements(box.id)]
    per_box = [
        [
            dict(zip(ea, perm))
            for perm in itertools.permutations(eb)
            if all(type(ea[x]) is type(eb[y]) for x, y in zip(ea, perm))
        ]
        for ea, eb in ((a.elements(box_id), b.elements(box_id)) for box_id in boxes)
    ]
    for maps in itertools.product(*per_box):
        yield dict(zip(boxes, maps))


def _perturbed(rng, schema, a, b, mapping):
    """The map with one change: two images swapped, one image replaced, or one key dropped."""
    changed = {box_id: dict(m) for box_id, m in mapping.items()}
    box_id = rng.choice([box.id for box in schema.boxes])
    m = changed.setdefault(box_id, {})
    keys = list(m)
    how = rng.choice(["swap", "replace", "drop"])
    if how == "swap" and len(keys) > 1:
        x, y = rng.sample(keys, 2)
        m[x], m[y] = m[y], m[x]
    elif how == "replace" and keys:
        m[rng.choice(keys)] = rng.choice([*b.elements(box_id), "ghost", *_ID_POOL])
    elif keys:
        del m[rng.choice(keys)]
    return changed


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_iso_on_random_pairs_never_raises_and_agrees_with_a_brute_force_reference(seed):
    rng = random.Random(seed)
    s, a, b = _random_pair(rng)
    forward = check_instance_isomorphism(s, a, b)
    backward = check_instance_isomorphism(s, b, a)
    assert forward.found == backward.found
    sizes = [
        math.factorial(len(a.elements(box.id)))
        for box in s.boxes
        if len(a.elements(box.id)) == len(b.elements(box.id))
    ]
    if len(sizes) == len(s.boxes) and math.prod(sizes) <= 2000:
        verdicts = [
            (verify_isomorphism(s, a, b, m), _reference_verify(s, a, b, m))
            for m in _all_maps(s, a, b)
        ]
        assert all(got == expected for got, expected in verdicts)
        assert forward.found == any(expected for _, expected in verdicts)
    if forward.found:
        assert _reference_verify(s, a, b, forward.mapping)
        assert verify_isomorphism(s, a, b, forward.mapping)
        assert _reference_verify(s, b, a, backward.mapping)
        for _ in range(5):
            changed = _perturbed(rng, s, a, b, forward.mapping)
            assert verify_isomorphism(s, a, b, changed) == _reference_verify(s, a, b, changed)
