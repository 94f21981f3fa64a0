import dataclasses
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ologkit.schema as schema_mod
from ologkit import (
    ArrowDecl,
    BoxDecl,
    DomainError,
    EndpointMismatchError,
    EqualityResult,
    EqVerdict,
    FiberProductDecl,
    MalformedPathError,
    OlogSchema,
    Path,
    PathEquation,
    RewriteStep,
    SchemaFunctor,
    UnwritableSchemaError,
    check_functor,
    compose,
    derive_equality,
    identity,
    path_endpoints,
    replay_witness,
    serialize_schema,
    validate_schema,
    with_fiber_product_squares,
)


# ---------------------------------------------------------------------------
# path algebra
# ---------------------------------------------------------------------------


def test_path_endpoints_walks_the_arrows(schema):
    assert path_endpoints(schema, Path("A", ("2", "12", "9"))) == ("A", "H")
    assert path_endpoints(schema, identity("Q")) == ("Q", "Q")


def test_path_endpoints_rejects_broken_paths(schema):
    with pytest.raises(MalformedPathError):
        path_endpoints(schema, Path("A", ("7",)))  # arrow 7 starts at C
    with pytest.raises(MalformedPathError):
        path_endpoints(schema, Path("A", ("99",)))
    with pytest.raises(MalformedPathError):
        path_endpoints(schema, Path("ZZ", ()))


def test_compose_concatenates(schema):
    left = Path("A", ("2",))
    right = Path("F", ("12",))
    assert compose(schema, left, right) == Path("A", ("2", "12"))
    assert compose(schema, identity("A"), left) == left
    assert compose(schema, left, identity("F")) == left


def test_compose_rejects_endpoint_mismatch(schema):
    with pytest.raises(EndpointMismatchError):
        compose(schema, Path("A", ("3",)), Path("J", ("26",)))


def _all_paths(schema, max_len):
    """Every well-formed path up to max_len arrows, for exhaustive checks."""
    out_arrows = {}
    for a in schema.arrows:
        out_arrows.setdefault(a.src, []).append(a)
    paths = [Path(b.id, ()) for b in schema.boxes]
    frontier = list(paths)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            _, end = path_endpoints(schema, p)
            for a in out_arrows.get(end, []):
                nxt.append(Path(p.start, p.arrows + (a.id,)))
        paths.extend(nxt)
        frontier = nxt
    return paths


def test_compose_is_associative(schema):
    paths = [p for p in _all_paths(schema, 2) if p.arrows]
    by_start = {}
    for p in paths:
        by_start.setdefault(p.start, []).append(p)
    tried = 0
    for p in paths[:200]:
        _, end_p = path_endpoints(schema, p)
        for q in by_start.get(end_p, [])[:5]:
            _, end_q = path_endpoints(schema, q)
            for r in by_start.get(end_q, [])[:3]:
                lhs = compose(schema, compose(schema, p, q), r)
                rhs = compose(schema, p, compose(schema, q, r))
                assert lhs == rhs
                tried += 1
    assert tried > 50


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_bundled_schema_is_clean(schema):
    assert validate_schema(schema) == []
    assert len(schema.boxes) == 23
    assert len(schema.arrows) == 42
    assert len(schema.equations) == 17
    assert len(schema.fiber_products) == 8


def test_dangling_arrow_is_reported():
    s = OlogSchema(
        "broken",
        (BoxDecl("A", "a thing"), BoxDecl("D", "a graph-ish thing")),
        (ArrowDecl("9", "D", "H"),),
    )
    diags = validate_schema(s)
    assert [d.code for d in diags] == ["DANGLING_ARROW"]
    assert diags[0].location == "9"


def test_duplicate_ids_and_empty_labels():
    s = OlogSchema(
        "dups",
        (BoxDecl("A", "a thing"), BoxDecl("A", "a thing again"), BoxDecl("B", "  ")),
        (ArrowDecl("1", "A", "B"), ArrowDecl("1", "B", "A")),
    )
    codes = sorted(d.code for d in validate_schema(s))
    assert codes == ["DUP_ARROW_ID", "DUP_BOX_ID", "EMPTY_LABEL"]


def test_equation_endpoint_mismatch_detected():
    s = OlogSchema(
        "eqs",
        (BoxDecl("A", "a"), BoxDecl("B", "b"), BoxDecl("C", "c")),
        (ArrowDecl("f", "A", "B"), ArrowDecl("g", "A", "C")),
        (PathEquation(Path("A", ("f",)), Path("A", ("g",))),),
    )
    assert [d.code for d in validate_schema(s)] == ["EQ_ENDPOINT_MISMATCH"]


def test_malformed_equation_path_detected():
    s = OlogSchema(
        "eqs",
        (BoxDecl("A", "a"), BoxDecl("B", "b")),
        (ArrowDecl("f", "A", "B"),),
        (PathEquation(Path("B", ("f",)), Path("B", ())),),
    )
    codes = [d.code for d in validate_schema(s)]
    assert codes == ["MALFORMED_PATH"]


def _square_schema(with_eq):
    eqs = (
        (PathEquation(Path("P", ("p1", "f")), Path("P", ("p2", "g"))),)
        if with_eq
        else ()
    )
    return OlogSchema(
        "square",
        tuple(BoxDecl(b, f"a {b}") for b in ("P", "X", "Y", "Z")),
        (
            ArrowDecl("p1", "P", "X"),
            ArrowDecl("p2", "P", "Y"),
            ArrowDecl("f", "X", "Z"),
            ArrowDecl("g", "Y", "Z"),
        ),
        eqs,
        (FiberProductDecl("P", "p1", "p2", "f", "g"),),
    )


def test_fiber_product_square_must_be_declared():
    assert [(d.code, d.message, d.location) for d in validate_schema(_square_schema(False))] == [
        (
            "FP_SQUARE_MISSING",
            "pullback P: the square [p1,f] = [p2,g] is not among the declared path equations",
            "pullback P",
        )
    ]
    assert validate_schema(_square_schema(True)) == []


def test_a_fiber_product_apex_declared_twice_is_reported():
    # The text format rejects the repeated declaration, so a schema built in
    # Python that holds one must not validate clean, nor be written.
    square = _square_schema(True)
    twice = dataclasses.replace(square, fiber_products=square.fiber_products * 2)
    assert [(d.code, d.message, d.location) for d in validate_schema(twice)] == [
        ("DUP_FP_APEX", "pullback for apex 'P' declared twice", "pullback P")
    ]
    with pytest.raises(
        UnwritableSchemaError,
        match="^schema cannot be written: pullback for apex 'P' declared twice$",
    ):
        serialize_schema(twice)


def test_with_fiber_product_squares_fills_the_gap():
    fixed = with_fiber_product_squares(_square_schema(False))
    assert validate_schema(fixed) == []
    assert len(fixed.equations) == 1
    # idempotent: nothing more to add
    assert with_fiber_product_squares(fixed) is fixed


def _square_declaring(fp):
    """The commuting square schema, plus h: Y -> X, declaring only ``fp``."""
    base = _square_schema(True)
    return dataclasses.replace(
        base, arrows=base.arrows + (ArrowDecl("h", "Y", "X"),), fiber_products=(fp,)
    )


@pytest.mark.parametrize(
    "fp, message",
    [
        (
            FiberProductDecl("Q", "p1", "p2", "f", "g"),
            "apex 'Q' is not a declared box",
        ),
        (
            FiberProductDecl("P", "p1", "p2", "f", "k"),
            "pullback P references undeclared arrow(s): leg2=k",
        ),
        (
            FiberProductDecl("P", "q", "p2", "f", "k"),
            "pullback P references undeclared arrow(s): proj1=q, leg2=k",
        ),
    ],
    ids=["apex", "leg", "proj-and-leg"],
)
def test_fiber_product_names_undeclared_parts(fp, message):
    diags = validate_schema(_square_declaring(fp))
    assert [(d.code, d.message, d.location) for d in diags] == [
        ("FP_BAD_ARROW", message, f"pullback {fp.apex}")
    ]


@pytest.mark.parametrize(
    "fp",
    [
        FiberProductDecl("P", "f", "p2", "f", "g"),  # proj1 leaves X, not the apex
        FiberProductDecl("P", "p1", "p2", "g", "f"),  # each leg leaves the other's box
        FiberProductDecl("P", "p1", "p2", "f", "h"),  # legs end at Z and X
    ],
    ids=["proj-source", "leg-source", "leg-targets"],
)
def test_fiber_product_must_form_a_square_over_the_apex(fp):
    diags = validate_schema(_square_declaring(fp))
    assert [(d.code, d.message, d.location) for d in diags] == [
        (
            "FP_SQUARE_SHAPE",
            f"pullback P: proj ({fp.proj1}, {fp.proj2}) legs ({fp.leg1}, {fp.leg2}) "
            "do not form a cospan square over the apex",
            "pullback P",
        )
    ]


def test_validate_schema_returns_a_new_list_each_call():
    s = _square_schema(False)
    first, second = validate_schema(s), validate_schema(s)
    assert first == second and first is not second
    assert first  # FP_SQUARE_MISSING, so clearing the list changes it
    first.clear()
    assert validate_schema(s) == second


def test_canonical_ordering_is_stable(schema):
    c = schema.canonical()
    assert [b.id for b in c.boxes] == sorted(b.id for b in schema.boxes)
    arrow_ids = [a.id for a in c.arrows]
    assert arrow_ids == [str(i) for i in range(1, 43)]
    assert c.canonical() == c


# ---------------------------------------------------------------------------
# bounded rewriting
# ---------------------------------------------------------------------------


def test_reflexive_equality_needs_no_budget(schema):
    res = derive_equality(schema, Path("A", ("1", "10")), Path("A", ("1", "10")), 0)
    assert res.verdict is EqVerdict.HOLDS
    assert res.steps == 0


def test_single_rewrite_found_at_budget_one(schema):
    res = derive_equality(schema, Path("A", ("1", "10")), Path("A", ("2",)), 1)
    assert res.holds
    assert res.steps == 1
    assert replay_witness(schema, res)


def test_longer_chains_are_found(schema):
    # [1,10,14] -> [2,14]: one rewrite inside a longer path
    res = derive_equality(schema, Path("A", ("1", "10", "14")), Path("A", ("2", "14")), 3)
    assert res.holds
    assert replay_witness(schema, res)


def _forge(schema, res, step=None, equations=(), **changes):
    """``schema`` with ``equations`` appended, and ``res`` with fields replaced;
    ``step`` replaces fields of its one rewrite."""
    if step is not None:
        changes["rewrites"] = (dataclasses.replace(res.rewrites[0], **step),)
    schema = dataclasses.replace(schema, equations=schema.equations + equations)
    return schema, dataclasses.replace(res, **changes)


@pytest.mark.parametrize(
    "forge",
    [
        lambda s, res: _forge(s, res, verdict=EqVerdict.UNKNOWN),
        lambda s, res: _forge(s, res, witness=res.witness[:1] + (Path("A", ("2",)),)),
        lambda s, res: _forge(s, res, rewrites=res.rewrites * 2),
        lambda s, res: _forge(s, res, rewrites=()),
        lambda s, res: _forge(s, res, step={"position": 1}),
        lambda s, res: _forge(s, res, step={"direction": "rhs->lhs"}),
        lambda s, res: _forge(s, res, witness=res.witness[:1] * 2),
        lambda s, res: _forge(s, res, step={"eq_index": 17}),  # len(schema.equations)
        lambda s, res: _forge(s, res, step={"eq_index": 1 - 17}),  # equation 1 from the end
        lambda s, res: _forge(s, res, step={"position": -3}),  # position 0 from the end
        # the real reverse step is rhs->lhs; no other direction may stand for it
        lambda s, res: _forge(s, res, witness=res.witness[::-1], step={"direction": "bogus"}),
        lambda s, res: _forge(s, res, witness=res.witness[:1] + (Path("A", ("99",)),)),
        # equation 1's sides moved to box B, where arrow 1 does not start
        lambda s, res: _forge(
            s, res, step={"eq_index": 17},
            equations=(PathEquation(Path("B", ("1", "10")), Path("B", ("2",))),),
        ),
    ],
    ids=[
        "not-holds", "non-parallel-path", "one-step-too-many", "one-step-too-few",
        "wrong-position", "wrong-direction", "wrong-rebuilt-path",
        "equation-past-the-end", "negative-equation", "negative-position",
        "unknown-direction", "malformed-path", "malformed-equation",
    ],
)
def test_replay_rejects_a_forged_witness(schema, forge):
    res = derive_equality(schema, Path("A", ("1", "10", "14")), Path("A", ("2", "14")), 3)
    assert res.rewrites == (RewriteStep(1, 0, "lhs->rhs"),)
    assert replay_witness(schema, res)
    assert not replay_witness(*forge(schema, res))


def test_budget_zero_cannot_prove_nontrivial_equalities(schema):
    res = derive_equality(schema, Path("A", ("1", "10")), Path("A", ("2",)), 0)
    assert res.verdict is EqVerdict.UNKNOWN
    assert res.witness == ()
    # a negative budget is a budget of zero
    assert derive_equality(schema, Path("A", ("1", "10")), Path("A", ("2",)), -1) == res


@pytest.mark.parametrize("max_steps", [1.5, "64", None])
@pytest.mark.parametrize(
    "p, q",
    [
        (Path("A", ("1", "10")), Path("A", ("1", "10"))),  # identical
        (Path("N", ("30", "39")), Path("N", ("31", "40"))),  # refuted by normal forms
        (Path("A", ("1", "10")), Path("A", ("2",))),  # decided by the search
    ],
    ids=["identical", "refuted", "searched"],
)
def test_rewrite_budget_must_be_an_integer(schema, p, q, max_steps):
    with pytest.raises(DomainError, match="max_steps must be an integer"):
        derive_equality(schema, p, q, max_steps)
    with pytest.raises(DomainError):
        check_functor(SchemaFunctor.identity_on(schema), max_steps)


def test_nonparallel_paths_are_rejected(schema):
    with pytest.raises(EndpointMismatchError):
        derive_equality(schema, Path("A", ("2",)), Path("A", ("3",)), 4)


def test_brick_glue_paths_never_conflated(schema):
    # The two projections from a brick/glue pair to the shared building-block
    # box are genuinely different aspects; the prover must stay agnostic.
    for budget in (1, 10, 100, 1000, 10_000):
        res = derive_equality(
            schema, Path("N", ("30", "39")), Path("N", ("31", "40")), budget
        )
        assert res.verdict is EqVerdict.UNKNOWN


def test_unknown_on_saturated_space_is_fast(schema):
    import time

    t0 = time.perf_counter()
    derive_equality(schema, Path("N", ("30", "39")), Path("N", ("31", "40")), 10_000)
    assert time.perf_counter() - t0 < 0.5


def test_deriving_path_equalities_never_loads_numpy():
    # The instance engine and the generator import numpy where they call it,
    # so a process that loads every module and only derives, or checks an
    # instance with `olog check`, goes without.
    code = (
        "import sys, ologkit.cli\n"
        "from ologkit import Path, bundled_schema, derive_equality, replay_witness\n"
        "p, q = Path('A', ('1', '10', '14')), Path('A', ('2', '14'))\n"
        "assert replay_witness(bundled_schema(), derive_equality(bundled_schema(), p, q, 3))\n"
        "assert ologkit.cli.main(['check', 'paper.olog', 'protein.oinst']) == 0\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_state_cap_degrades_to_unknown(monkeypatch):
    # An equation with an identity side generates unboundedly many paths;
    # the cap must turn that into UNKNOWN instead of a hang.
    s = OlogSchema(
        "loop",
        (BoxDecl("X", "an x"),),
        (ArrowDecl("a", "X", "X"), ArrowDecl("b", "X", "X")),
        (PathEquation(Path("X", ("a",)), Path("X", ())),),
    )
    monkeypatch.setattr(schema_mod, "_STATE_CAP", 500)
    res = derive_equality(s, Path("X", ("a",)), Path("X", ("b",)), 10**9)
    assert res.verdict is EqVerdict.UNKNOWN


def test_witnesses_replay_for_all_declared_equations(schema):
    for eq in schema.equations:
        res = derive_equality(schema, eq.lhs, eq.rhs, 1)
        assert res.holds and res.steps == 1
        assert replay_witness(schema, res)


def _apply_random_rewrites(schema, path, rng, count):
    sides = []
    for eq in schema.equations:
        sides.append((eq.lhs.arrows, eq.rhs.arrows))
        sides.append((eq.rhs.arrows, eq.lhs.arrows))
    current = path.arrows
    for _ in range(count):
        options = []
        for pattern, replacement in sides:
            k = len(pattern)
            if k == 0:
                continue
            for pos in range(len(current) - k + 1):
                if current[pos : pos + k] == pattern:
                    options.append(current[:pos] + replacement + current[pos + k :])
        if not options:
            break
        current = options[rng.randrange(len(options))]
    return Path(path.start, current)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 3))
def test_rewrite_reachable_paths_are_proven(seed, steps):
    from ologkit import bundled_schema

    schema = bundled_schema()
    rng = random.Random(seed)
    starts = [p for p in _all_paths(schema, 3) if p.arrows]
    start = starts[rng.randrange(len(starts))]
    other = _apply_random_rewrites(schema, start, rng, steps)
    res = derive_equality(schema, start, other, max(steps, 1) + 2)
    assert res.holds
    assert replay_witness(schema, res)
    # symmetry: provable in the other direction too
    back = derive_equality(schema, other, start, max(steps, 1) + 2)
    assert back.holds


# ---------------------------------------------------------------------------
# shortlex normal forms
# ---------------------------------------------------------------------------


def _one_box(letters, equations, name="one-box"):
    return OlogSchema(
        name,
        (BoxDecl("X", "an x"),),
        tuple(ArrowDecl(x, "X", "X") for x in letters),
        tuple(PathEquation(Path("X", lhs), Path("X", rhs)) for lhs, rhs in equations),
    )


def _completes(schema):
    return schema._rewriting.rules is not None


def _normal_forms(schema, paths):
    _, letter, _, rules = schema._rewriting
    return [schema_mod._normal_form(rules, "".join(map(letter.get, p.arrows))) for p in paths]


BRAID = _one_box("ab", [(("a", "b", "a"), ("b", "a", "b"))], "braid")
COMMUTING_3 = _one_box("abc", [((x, y), (y, x)) for x, y in ("ab", "ac", "bc")], "commuting-3")


def _no_search(*args):
    raise AssertionError("the rewrite search ran")


def test_unequal_normal_forms_refute_without_a_search(schema, monkeypatch):
    monkeypatch.setattr(schema_mod, "_rewrite_neighbors", _no_search)
    p, q = Path("X", tuple("abcabcab")), Path("X", tuple("abcabcac"))
    assert derive_equality(COMMUTING_3, p, q, 1_000) == EqualityResult(EqVerdict.UNKNOWN)
    brick, glue = Path("N", ("30", "39")), Path("N", ("31", "40"))
    assert derive_equality(schema, brick, glue, 10_000) == EqualityResult(EqVerdict.UNKNOWN)


def test_bundled_equations_complete_within_the_rule_budget(schema):
    assert _completes(schema)
    _assert_completed(schema)


def test_completion_runs_once_per_schema_over_all_bundled_pairs(schema, monkeypatch):
    paths = _all_paths(schema, len(schema.boxes))  # the schema is acyclic: every path
    pairs = [
        (p, q)
        for i, p in enumerate(paths)
        for q in paths[i + 1 :]
        if path_endpoints(schema, p) == path_endpoints(schema, q)
    ]
    assert len(pairs) == 587
    expected = [derive_equality(schema, p, q, 64) for p, q in pairs]
    completions = []

    def counted(words):
        completions.append(words)
        return complete(words)

    complete = schema_mod._shortlex_system
    monkeypatch.setattr(schema_mod, "_shortlex_system", counted)
    for fresh in (dataclasses.replace(schema), dataclasses.replace(schema)):
        assert [derive_equality(fresh, p, q, 64) for p, q in pairs] == expected
        assert [derive_equality(schema, p, q, 64) for p, q in pairs] == expected
    assert len(completions) == 2  # once per new schema object, never again for `schema`


def test_a_schema_resolves_its_declarations_once(schema, monkeypatch):
    # Validation, the canonical sort, the rewriting system, witness replay and
    # the functor check read one resolution of the equations and pullbacks.
    p, q = Path("A", ("1", "10", "14")), Path("A", ("2", "14"))
    expected = derive_equality(schema, p, q, 3)
    resolutions = []

    def counted(*fields):
        resolutions.append(fields)
        return make(*fields)

    make = schema_mod._Resolution
    monkeypatch.setattr(schema_mod, "_Resolution", counted)
    for fresh in (dataclasses.replace(schema), dataclasses.replace(schema)):
        for _ in range(2):
            assert validate_schema(fresh) == []
            assert fresh.canonical().equations == schema.canonical().equations
            assert derive_equality(fresh, p, q, 3) == expected
            assert replay_witness(fresh, expected)
            assert check_functor(SchemaFunctor.identity_on(fresh)) == []
    assert len(resolutions) == 2  # once per new schema object, never again for `schema`


def test_bundled_normal_forms_agree_with_the_search(schema):
    paths = _all_paths(schema, 3)
    forms = dict(zip(paths, _normal_forms(schema, paths)))
    ends = {p: path_endpoints(schema, p) for p in paths}
    pairs = [(p, q) for i, p in enumerate(paths) for q in paths[i + 1 :] if ends[p] == ends[q]]
    equal = 0
    for p, q in pairs:
        holds = derive_equality(schema, p, q, 64).holds
        assert (forms[p] == forms[q]) == holds, (p, q)
        equal += holds
    assert 0 < equal < len(pairs)


def test_state_cap_still_bounds_a_pair_with_equal_normal_forms(monkeypatch):
    s = _one_box("ab", [(("a",), ())])
    p, q = Path("X", ("b",)), Path("X", ("b",) + ("a",) * 600)
    forms = _normal_forms(s, (p, q))
    assert forms[0] == forms[1]  # so the search decides, and the cap stops it
    monkeypatch.setattr(schema_mod, "_STATE_CAP", 500)
    assert derive_equality(s, p, q, 10**9) == EqualityResult(EqVerdict.UNKNOWN)


def test_search_proves_equalities_when_completion_gives_up():
    assert not _completes(BRAID)
    res = derive_equality(BRAID, Path("X", tuple("abab")), Path("X", tuple("babb")), 8)
    assert res.holds
    assert replay_witness(BRAID, res)


def test_equations_with_unparallel_sides_drive_no_rewrite():
    # [f] = [g] runs A->B against A->C, which validate_schema flags.  Used as
    # a rewrite it would turn [f,h] into the ill-typed [g,h] and "prove"
    # [f,h] = [g,k] with a witness that does not replay.
    s = OlogSchema(
        "unparallel",
        tuple(BoxDecl(b, f"a {b}") for b in "ABCD"),
        (
            ArrowDecl("f", "A", "B"),
            ArrowDecl("g", "A", "C"),
            ArrowDecl("h", "B", "D"),
            ArrowDecl("k", "C", "D"),
        ),
        (
            PathEquation(Path("A", ("f",)), Path("A", ("g",))),
            PathEquation(Path("B", ("h",)), Path("C", ("k",))),
        ),
    )
    assert [d.code for d in validate_schema(s)] == ["EQ_ENDPOINT_MISMATCH"] * 2
    res = derive_equality(s, Path("A", ("f", "h")), Path("A", ("g", "k")), 4)
    assert res == EqualityResult(EqVerdict.UNKNOWN)


def _random_presentation(seed):
    """A one-box presentation over 2-3 letters with 1-3 equations (sides may
    be empty), and queries on paths at X: some pairs a few rewrites apart,
    some random."""
    rng = random.Random(seed)
    letters = "abc"[: rng.choice((2, 3))]

    def word(longest):
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, longest)))

    equations = [(word(4), word(4)) for _ in range(rng.randint(1, 3))]
    schema = _one_box(letters, equations)
    queries = []
    for _ in range(4):
        p = Path("X", word(5))
        q = _apply_random_rewrites(schema, p, rng, rng.randint(1, 3))
        queries.append((p, q if rng.random() < 0.5 else Path("X", word(5)), rng.randint(0, 4)))
    return schema, queries


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=56)  # over the rule budget; the search proves a query
def test_normal_forms_change_no_result_of_the_search(seed):
    schema, queries = _random_presentation(seed)
    for p, q, max_steps in queries:
        expected = _reference_search(schema, p, q, max_steps)
        assert derive_equality(schema, p, q, max_steps) == expected


def _reference_neighbors(schema, start_box, arrows, sides):
    """Every single rewrite of a path, as (new arrows, RewriteStep): the
    neighbour search on arrow-id tuples that derive_equality once ran, each
    side's pattern compared at every position and each box looked up in the
    schema."""
    boxes = [start_box]
    for arrow_id in arrows:
        boxes.append(schema.arrow(arrow_id).dst)
    n = len(arrows)
    for eq_index, pat_start, pattern, direction, replacement in sides:
        k = len(pattern)
        if k == 0:
            # identity side: insert the replacement wherever the box matches
            for pos in range(n + 1):
                if boxes[pos] == pat_start:
                    yield (
                        arrows[:pos] + replacement + arrows[pos:],
                        RewriteStep(eq_index, pos, direction),
                    )
        else:
            for pos in range(n - k + 1):
                if arrows[pos : pos + k] == pattern:
                    yield (
                        arrows[:pos] + replacement + arrows[pos + k :],
                        RewriteStep(eq_index, pos, direction),
                    )


def _reference_sides(schema):
    """Both orientations of each equation whose sides are parallel, as tuples."""
    sides = []
    for index, eq in enumerate(schema.equations):
        try:
            parallel = path_endpoints(schema, eq.lhs) == path_endpoints(schema, eq.rhs)
        except MalformedPathError:
            parallel = False
        if parallel:
            sides.append((index, eq.lhs.start, eq.lhs.arrows, "lhs->rhs", eq.rhs.arrows))
            sides.append((index, eq.rhs.start, eq.rhs.arrows, "rhs->lhs", eq.lhs.arrows))
    return sides


def _reference_search(schema, p, q, max_steps):
    """derive_equality as a breadth-first search over _reference_neighbors,
    with no normal forms."""
    if p.arrows == q.arrows:
        return EqualityResult(EqVerdict.HOLDS, steps=0, witness=(p,))
    sides = _reference_sides(schema)
    parents = {p.arrows: None}
    frontier = [p.arrows]
    for depth in range(1, max_steps + 1):
        found = []
        for arrows in frontier:
            for new, step in _reference_neighbors(schema, p.start, arrows, sides):
                if new in parents:
                    continue
                parents[new] = (arrows, step)
                if new == q.arrows:
                    chain, steps = [new], []
                    while parents[chain[-1]] is not None:
                        before, step = parents[chain[-1]]
                        chain.append(before)
                        steps.append(step)
                    return EqualityResult(
                        EqVerdict.HOLDS,
                        steps=depth,
                        witness=tuple(Path(p.start, w) for w in reversed(chain)),
                        rewrites=tuple(reversed(steps)),
                    )
                if len(parents) >= schema_mod._STATE_CAP:
                    return EqualityResult(EqVerdict.UNKNOWN)
                found.append(new)
        if not found:
            break
        frontier = found
    return EqualityResult(EqVerdict.UNKNOWN)


def _random_multi_box(seed):
    """A presentation over 2-3 boxes: a loop ``a`` at X and 1-4 more arrows,
    loops or between boxes; 1-3 equations between parallel paths of at most
    three arrows, where a path back to its box may be the identity; and
    queries of at most four arrows, some a few rewrites apart, some any
    parallel path."""
    rng = random.Random(seed)
    boxes = "XYZ"[: rng.choice((2, 3))]
    arrows = [ArrowDecl("a", "X", "X")]
    for x in "bcde"[: rng.randint(1, 4)]:
        arrows.append(ArrowDecl(x, rng.choice(boxes), rng.choice(boxes)))
    by_ends, frontier = {}, [(Path(b, ()), b) for b in boxes]
    for _ in range(5):
        for path, end in frontier:
            by_ends.setdefault((path.start, end), []).append(path)
        frontier = [
            (Path(p.start, p.arrows + (x.id,)), x.dst)
            for p, end in frontier
            for x in arrows
            if x.src == end
        ]
    pools = [[p for p in pool if len(p.arrows) <= 3] for pool in by_ends.values()]
    pools = [pool for pool in pools if len(pool) >= 2]
    equations = []
    for _ in range(rng.randint(1, 3)):
        lhs, rhs = rng.sample(rng.choice(pools), 2)
        equations.append(PathEquation(lhs, rhs))
    schema = OlogSchema(
        "multi-box", tuple(BoxDecl(b, f"a {b}") for b in boxes), tuple(arrows), tuple(equations)
    )
    sides = _reference_sides(schema)
    queries = []
    for _ in range(4):
        pool = rng.choice(list(by_ends.values()))
        p = rng.choice(pool)
        q = p.arrows
        for _ in range(rng.randint(1, 3)):
            options = [new for new, _ in _reference_neighbors(schema, p.start, q, sides)]
            q = rng.choice(options) if options else q
        q = Path(p.start, q) if rng.random() < 0.5 else rng.choice(pool)
        queries.append((p, q, rng.randint(0, 4)))
    return schema, queries


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=1898)  # a pool of parallel paths with fewer than two short ones
@example(seed=2513478)
def test_word_search_matches_the_tuple_search_on_multi_box_schemas(seed):
    schema, queries = _random_multi_box(seed)
    for p, q, max_steps in queries:
        result = derive_equality(schema, p, q, max_steps)
        assert result == _reference_search(schema, p, q, max_steps)
        assert not result.holds or replay_witness(schema, result)


def test_random_multi_box_presentations_reach_every_case():
    held = unknown = box_tested = overlapping = 0
    for seed in range(200):
        schema, queries = _random_multi_box(seed)
        sides = _reference_sides(schema)
        for p, q, max_steps in queries:
            holds = _reference_search(schema, p, q, max_steps).holds
            held += holds and p != q
            unknown += not holds
            boxes = {p.start} | {schema.arrow(x).dst for x in p.arrows}
            # an identity side that the box test keeps off some position of p
            box_tested += any(not pattern and boxes != {at} for _, at, pattern, _, _ in sides)
            # a side that matches p at two overlapping positions
            overlapping += any(
                0 < len(pattern) and p.arrows[i : i + len(pattern)] == pattern
                and p.arrows[i + 1 : i + 1 + len(pattern)] == pattern
                for _, _, pattern, _, _ in sides
                for i in range(len(p.arrows))
            )
    counts = (held, unknown, box_tested, overlapping)
    assert min(counts) >= 20, counts


def test_a_pattern_is_matched_at_overlapping_positions():
    # [a,a] occurs in [a,a,a] at 0 and at 1; only the second rewrite gives [a,b].
    s = _one_box("ab", [(("a", "a"), ("b",))])
    res = derive_equality(s, Path("X", ("a", "a", "a")), Path("X", ("a", "b")), 1)
    assert res.rewrites == (RewriteStep(0, 1, "lhs->rhs"),)
    assert replay_witness(s, res)


def test_an_identity_side_is_inserted_only_where_the_path_is_at_its_box():
    # [f,g] = [] at X: [g] runs Y->X, so [f,g] goes in at 1, after g, and
    # never at 0, where the path is at Y.
    s = OlogSchema(
        "two-box",
        (BoxDecl("X", "an x"), BoxDecl("Y", "a y")),
        (ArrowDecl("f", "X", "Y"), ArrowDecl("g", "Y", "X")),
        (PathEquation(Path("X", ("f", "g")), Path("X", ())),),
    )
    sides, letter, arrow, _ = s._rewriting
    word = letter["g"]
    found = list(schema_mod._rewrite_neighbors("Y", word, sides, arrow))
    assert found == [(word + letter["f"] + letter["g"], RewriteStep(0, 1, "rhs->lhs"))]
    res = derive_equality(s, Path("Y", ("g",)), Path("Y", ("g", "f", "g")), 3)
    assert res.steps == 1 and res.rewrites == (RewriteStep(0, 1, "rhs->lhs"),)
    assert replay_witness(s, res)


def _critical_pairs(rules):
    """Both one-step rewrites of every word where two left sides overlap or
    one contains the other."""
    for l1, r1 in rules.items():
        for l2, r2 in rules.items():
            for at in range(len(l1) - len(l2) + 1):
                if l1 != l2 and l1[at : at + len(l2)] == l2:
                    yield r1, l1[:at] + r2 + l1[at + len(l2) :]
            for k in range(1, min(len(l1), len(l2))):
                if l1.endswith(l2[:k]):
                    yield r1 + l2[k:], l1[:-k] + r2


def _assert_completed(presentation):
    """The rules decrease in shortlex, join every critical pair and join each
    equation's two sides."""
    rules = presentation._rewriting.rules
    for lhs, rhs in rules.items():
        assert (len(lhs), lhs) > (len(rhs), rhs)  # shortlex-decreasing: terminates
    for u, v in _critical_pairs(rules):
        assert schema_mod._normal_form(rules, u) == schema_mod._normal_form(rules, v)
    for eq in presentation.equations:
        forms = _normal_forms(presentation, (eq.lhs, eq.rhs))
        assert forms[0] == forms[1]


def test_completed_random_systems_are_confluent_and_keep_the_equations():
    for seed in range(300):
        presentation = _random_presentation(seed)[0]
        if _completes(presentation):
            _assert_completed(presentation)


def test_random_presentations_reach_every_case():
    over_budget = refuted = held = searched_over_budget = 0
    for seed in range(300):
        schema, queries = _random_presentation(seed)
        completes = _completes(schema)
        over_budget += not completes
        for p, q, max_steps in queries:
            if completes:
                forms = _normal_forms(schema, (p, q))
                refuted += forms[0] != forms[1]
                held += forms[0] == forms[1] and p != q
            else:
                proved = _reference_search(schema, p, q, max_steps).holds
                searched_over_budget += proved and p != q
    counts = (over_budget, refuted, held, searched_over_budget)
    assert min(counts[:3]) >= 20 and searched_over_budget >= 5, counts


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------


def test_identity_functor_is_clean(schema):
    assert check_functor(SchemaFunctor.identity_on(schema)) == []


def _toy_pair():
    src = OlogSchema(
        "routes",
        (BoxDecl("X", "a start"), BoxDecl("Y", "a stop")),
        (ArrowDecl("go", "X", "Y"),),
    )
    dst = OlogSchema(
        "world",
        (BoxDecl("X2", "a start"), BoxDecl("Y2", "a stop")),
        (ArrowDecl("go2", "X2", "Y2"), ArrowDecl("back", "Y2", "X2")),
    )
    return src, dst


def test_functor_reports_missing_and_unknown():
    src, dst = _toy_pair()
    f = SchemaFunctor(src, dst, {"X": "X2"}, {"go": "nope"})
    codes = sorted(d.code for d in check_functor(f))
    assert codes == ["MISSING_MAPPING", "UNKNOWN_TARGET"]
    # the other two branches: a box image the target lacks, an arrow with none
    f = SchemaFunctor(src, dst, {"X": "X2", "Y": "Z9"}, {})
    assert [(d.code, d.location, d.message) for d in check_functor(f)] == [
        ("UNKNOWN_TARGET", "Y", "box Y maps to undeclared box 'Z9'"),
        ("MISSING_MAPPING", "go", "arrow go has no image"),
    ]


def test_functor_endpoint_violation():
    src, dst = _toy_pair()
    f = SchemaFunctor(src, dst, {"X": "X2", "Y": "Y2"}, {"go": "back"})
    codes = [d.code for d in check_functor(f)]
    assert codes == ["ENDPOINT_VIOLATION", "ENDPOINT_VIOLATION"]


def test_functor_warns_on_undderivable_equation_images():
    src = OlogSchema(
        "eq-src",
        (BoxDecl("X", "an x"),),
        (ArrowDecl("a", "X", "X"), ArrowDecl("b", "X", "X")),
        (PathEquation(Path("X", ("a",)), Path("X", ("b",))),),
    )
    dst = OlogSchema(
        "eq-free",
        (BoxDecl("X", "an x"),),
        (ArrowDecl("a", "X", "X"), ArrowDecl("b", "X", "X")),
    )
    f = SchemaFunctor(src, dst, {"X": "X"}, {"a": "a", "b": "b"})
    diags = check_functor(f)
    assert [d.code for d in diags] == ["EQ_IMAGE_UNKNOWN"]
    assert all(d.severity.name == "WARNING" for d in diags)


def test_functor_skips_equation_images_that_part_at_an_undeclared_box():
    # The source equation resolves, but runs through a box it never declares,
    # so no endpoint check binds its arrows' images: those images do not chain
    # in the target, or do not end together, and neither is the functor's fault.
    src = OlogSchema(
        "ghost",
        (BoxDecl("X", "an x"),),
        (ArrowDecl("out", "X", "Ghost"), ArrowDecl("in", "Ghost", "X"), ArrowDecl("off", "X", "Ghost")),
        (
            PathEquation(Path("X", ("out", "in")), Path("X", ())),
            PathEquation(Path("X", ("out",)), Path("X", ("off",))),
        ),
    )
    dst = OlogSchema(
        "split",
        tuple(BoxDecl(b, f"a {b}") for b in "XLR"),
        (ArrowDecl("l", "X", "L"), ArrowDecl("r", "R", "X"), ArrowDecl("m", "X", "R")),
    )
    functor = SchemaFunctor(src, dst, {"X": "X"}, {"out": "l", "in": "r", "off": "m"})
    assert [d.code for d in validate_schema(src)] == ["DANGLING_ARROW"] * 3
    assert check_functor(functor) == []


# ---------------------------------------------------------------------------
# the prefix plan of the equation check
# ---------------------------------------------------------------------------

_plan_sides = st.lists(st.sampled_from("abc"), max_size=5).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("PQ"), _plan_sides, _plan_sides), max_size=6))
def test_prefix_plan_composes_each_shared_prefix_once_and_keeps_none_unread(triples):
    # Run the plan on prefixes themselves: each side starts from the longest
    # prefix it shares with an earlier side (of its start box), finds it
    # kept, keeps only what a later side reads, and leaves nothing behind.
    equations = tuple(
        PathEquation(schema_mod.Path(start, lhs), schema_mod.Path(start, rhs))
        for start, lhs, rhs in triples
    )
    sides = [(start, side) for start, lhs, rhs in triples for side in (lhs, rhs)]
    plans = [plan for pair in schema_mod._prefix_plan(equations) for plan in pair]
    assert len(plans) == len(sides)

    def shared(a, b):
        return next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    memo, stored, read = {}, set(), set()
    for j, ((start, arrows), plan) in enumerate(zip(sides, plans)):
        earlier = [shared(arrows, other) for s, other in sides[:j] if s == start]
        assert plan.depth == max(earlier, default=0)
        if plan.depth:
            assert memo[plan.base] == (start, arrows[: plan.depth])
            read.add(plan.base)
        else:
            assert plan.base is None
        for depth, node in plan.stops:
            assert plan.depth < depth <= len(arrows) and node not in memo
            memo[node] = (start, arrows[:depth])
            stored.add(node)
        for node in plan.release:
            del memo[node]
        later = sides[j + 1 :]
        assert all(
            any(s == kept_start and other[: len(kept)] == kept for s, other in later)
            for kept_start, kept in memo.values()
        )
    assert memo == {} and stored == read
