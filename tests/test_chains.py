import dataclasses
import hashlib
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import ologkit
from ologkit import (
    BuildingBlock,
    ChainSystem,
    Classification,
    Comparators,
    DomainError,
    Graph,
    InconsistentComparatorsError,
    NoLifelineError,
    NonFiniteInputError,
    NonFiniteReferenceError,
    ParamConstraintError,
    PROTEIN_DEFAULTS,
    Segment,
    SchemaMismatchError,
    SimParams,
    SOCIAL_MATCHED_DEFAULTS,
    build_chain,
    check_all_equations,
    classify,
    estimate_link_failure_noise_mc,
    generate_instance,
    is_chain,
    link_failure_noise,
    much_greater,
    roughly_equal,
    serialize_instance,
    structure_graph,
    system_failure_extension,
    validate_instance,
    verify_all_fiber_products,
)
from ologkit.chains import _numbered_ids
from ologkit.ordering import pad_width

INF = math.inf

finite_nonneg = st.floats(
    min_value=0, allow_nan=False, allow_infinity=False, max_value=1e12
)


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------


def test_comparator_tolerances_are_validated():
    Comparators(0.999, 1.001)  # extremes that are still legal
    for eps, kappa in [(0.0, 3.0), (1.0, 3.0), (-0.1, 3.0), (0.25, 1.0), (0.25, 0.5)]:
        with pytest.raises(DomainError):
            Comparators(eps, kappa)


@settings(max_examples=80, deadline=None)
@given(x=finite_nonneg)
def test_roughly_equal_is_reflexive(x):
    assert roughly_equal(x, x)


@settings(max_examples=80, deadline=None)
@given(a=finite_nonneg, b=finite_nonneg)
def test_roughly_equal_is_symmetric(a, b):
    assert roughly_equal(a, b) == roughly_equal(b, a)


@settings(max_examples=200, deadline=None)
@given(a=finite_nonneg, b=finite_nonneg)
def test_default_judgements_never_overlap(a, b):
    # at the default tolerances a pair cannot be both "roughly equal"
    # and "much greater"; classify() relies on this
    assert not (roughly_equal(a, b) and much_greater(a, b))


def test_comparators_scale_the_judgements():
    assert roughly_equal(100.0, 80.0)  # 20 <= 0.25 * 100
    assert not roughly_equal(100.0, 70.0)
    assert roughly_equal(100.0, 70.0, Comparators(eps_rel=0.5))
    assert much_greater(6.0, 2.0)  # exactly 3x
    assert not much_greater(5.99, 2.0)
    assert much_greater(4.0, 2.0, Comparators(kappa=2.0))


def test_infinity_handling_is_one_sided():
    assert much_greater(INF, 20.6)
    with pytest.raises(NonFiniteReferenceError):
        much_greater(5.0, INF)
    with pytest.raises(NonFiniteInputError):
        roughly_equal(INF, 20.6)
    with pytest.raises(NonFiniteInputError):
        roughly_equal(20.6, -INF)


def test_nan_is_rejected_everywhere():
    with pytest.raises(NonFiniteInputError):
        roughly_equal(float("nan"), 1.0)
    with pytest.raises(NonFiniteInputError):
        much_greater(float("nan"), 1.0)
    with pytest.raises(NonFiniteInputError):
        much_greater(1.0, float("nan"))


def test_zero_reference_means_any_positive_dominates():
    assert much_greater(0.001, 0.0)
    assert not much_greater(0.0, 0.0)
    assert not much_greater(-1.0, 0.0)


# ---------------------------------------------------------------------------
# building blocks and chains
# ---------------------------------------------------------------------------


def test_building_block_validation():
    ok = BuildingBlock("b1", "brick", 10.0, 2.0)
    assert ok.failure_extension == 10.0
    with pytest.raises(ValueError):
        BuildingBlock("b1", "widget", 10.0)
    with pytest.raises(ValueError):
        BuildingBlock("b1", "brick", 1.0, 2.0)  # fails below resting
    with pytest.raises(ValueError):
        BuildingBlock("b1", "brick", 10.0, -1.0)
    with pytest.raises(ValueError):
        BuildingBlock("b1", "brick", INF, INF)  # resting must stay finite
    with pytest.raises(NonFiniteInputError):
        BuildingBlock("b1", "brick", float("nan"))


def test_segment_and_chain_slot_kinds_are_enforced():
    brick = BuildingBlock("b1", "brick", INF)
    glue = BuildingBlock("g1", "glue", 20.6)
    life = BuildingBlock("l1", "lifeline", 100.0, 23.45)
    Segment(glue, life)
    with pytest.raises(ValueError):
        Segment(brick)
    with pytest.raises(ValueError):
        Segment(glue, glue)
    with pytest.raises(ValueError):
        ChainSystem("c", "generic", (brick, glue), (Segment(glue),))
    with pytest.raises(ValueError):
        ChainSystem("c", "generic", (brick, brick), ())
    with pytest.raises(ValueError):
        ChainSystem("c", "generic", (), ())


def _chain(brick_failures, glue_failures, lifeline_failures=None, resting=0.0):
    bricks = tuple(
        BuildingBlock(f"b{i}", "brick", f) for i, f in enumerate(brick_failures, 1)
    )
    segments = []
    for i, g in enumerate(glue_failures, 1):
        glue = BuildingBlock(f"g{i}", "glue", g)
        life = None
        if lifeline_failures is not None:
            life = BuildingBlock(f"l{i}", "lifeline", lifeline_failures[i - 1], resting)
        segments.append(Segment(glue, life))
    return ChainSystem("test", "generic", bricks, tuple(segments))


def test_system_failure_takes_the_weakest_link():
    assert system_failure_extension(_chain([INF, 18.0, INF], [22.0, 20.0])) == 18.0
    assert system_failure_extension(_chain([INF, INF], [5.0], [7.0])) == 7.0
    assert system_failure_extension(_chain([INF, INF], [9.0], [7.0])) == 9.0
    assert system_failure_extension(_chain([INF, INF], [5.0], [INF])) == INF
    assert system_failure_extension(_chain([4.0], [])) == 4.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_system_failure_bounds_and_lifeline_monotonicity(data):
    n = data.draw(st.integers(2, 5))
    strengths = st.floats(min_value=0.1, max_value=1e6, allow_nan=False)
    bricks = data.draw(st.lists(strengths, min_size=n, max_size=n))
    glues = data.draw(st.lists(strengths, min_size=n - 1, max_size=n - 1))
    lifelines = data.draw(st.lists(strengths, min_size=n - 1, max_size=n - 1))
    bare = _chain(bricks, glues)
    helped = _chain(bricks, glues, lifelines)

    bare_failure = system_failure_extension(bare)
    helped_failure = system_failure_extension(helped)
    assert bare_failure == min(min(bricks), min(glues))
    assert helped_failure >= bare_failure  # a lifeline can only strengthen
    assert helped_failure <= min(bricks)  # but never past the weakest brick


@pytest.mark.parametrize(
    "nodes, edges",
    [
        ("abc", [("a", "b"), ("a", "b")]),
        ("abc", [("a", "b")]),
        ("abc", [("a", "b"), ("a", "c")]),
        ("abc", [("a", "c"), ("b", "c")]),
        ("abcd", [("a", "b"), ("b", "a"), ("c", "d")]),
    ],
    ids=["repeated-edge", "edge-count", "fork", "join", "cycle-and-detached-edge"],
)
def test_is_chain_rejects_what_is_not_one_line(nodes, edges):
    assert not is_chain(Graph(tuple(nodes), tuple(edges)))


def test_structure_graph_is_a_chain_graph():
    chain = build_chain(PROTEIN_DEFAULTS)
    g = structure_graph(chain)
    assert is_chain(g)
    assert g.nodes == tuple(f"aa{i}" for i in range(1, 10))
    assert ("aa1", "aa2") in g.edges and len(g.edges) == 8
    # the lifeline runs along the same bricks
    assert structure_graph(chain, "lifeline") == g


def test_structure_graph_lifeline_requires_one_everywhere():
    with pytest.raises(NoLifelineError):
        structure_graph(build_chain(SimParams()), "lifeline")
    with pytest.raises(ValueError):
        structure_graph(build_chain(SimParams()), "rope")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_default_chains_classify_as_published():
    assert classify(build_chain(SimParams())) is Classification.BRITTLE
    assert classify(build_chain(PROTEIN_DEFAULTS)) is Classification.DUCTILE
    assert classify(build_chain(SOCIAL_MATCHED_DEFAULTS)) is Classification.DUCTILE


def test_neither_band_between_the_judgements():
    # lifeline fails at 1.5x the glue: too far for roughly-equal,
    # not far enough for much-greater
    chain = build_chain(SimParams(lifeline_present=True, lifeline_failure=30.9))
    assert classify(chain) is Classification.NEITHER


def test_unbreakable_system_is_ductile_without_comparisons():
    # an infinite system failure would crash roughly_equal; classify must
    # short-circuit instead
    chain = _chain([INF, INF], [20.6], [INF])
    assert system_failure_extension(chain) == INF
    assert classify(chain) is Classification.DUCTILE


def test_overlapping_judgements_are_rejected():
    chain = _chain([INF, INF], [1.9], [2.0])
    loose = Comparators(eps_rel=0.9, kappa=1.05)
    with pytest.raises(InconsistentComparatorsError):
        classify(chain, loose)


def test_single_brick_chain_cannot_be_classified():
    with pytest.raises(ValueError):
        classify(_chain([4.0], []))


# ---------------------------------------------------------------------------
# link noise
# ---------------------------------------------------------------------------


def test_link_noise_closed_form_anchor():
    assert link_failure_noise(0.5, 50) == 0.013767295506640798


def test_link_noise_edge_cases():
    assert link_failure_noise(1.0, 7) == 0.0
    assert link_failure_noise(0.25, 1) == 0.75


def test_link_noise_monotonicity():
    by_length = [link_failure_noise(0.5, L) for L in (1, 5, 50, 300)]
    assert by_length == sorted(by_length, reverse=True)
    by_tau = [link_failure_noise(t, 50) for t in (0.1, 0.5, 0.9)]
    assert by_tau == sorted(by_tau, reverse=True)


@pytest.mark.parametrize(
    "tau,length",
    [(0.0, 50), (-0.1, 50), (1.5, 50), (0.5, 0), (0.5, -3), (0.5, 2.5), (0.5, True)],
)
def test_link_noise_domain_errors(tau, length):
    with pytest.raises(DomainError):
        link_failure_noise(tau, length)


def test_mc_estimate_matches_closed_form():
    exact = link_failure_noise(0.5, 50)
    est = estimate_link_failure_noise_mc(50, 0.5, trials=100_000, seed=0)
    assert abs(est - exact) < 5e-4
    # deterministic for a fixed seed
    assert est == estimate_link_failure_noise_mc(50, 0.5, trials=100_000, seed=0)
    assert est != estimate_link_failure_noise_mc(50, 0.5, trials=100_000, seed=1)


def test_mc_estimate_guards_its_domain():
    with pytest.raises(DomainError):
        estimate_link_failure_noise_mc(50, 0.5, trials=9_999)
    with pytest.raises(DomainError):
        estimate_link_failure_noise_mc(0, 0.5)
    with pytest.raises(DomainError):
        estimate_link_failure_noise_mc(50, 0.0)


# ---------------------------------------------------------------------------
# parameter gates
# ---------------------------------------------------------------------------


_PARAMETER_GATES = [
    (SimParams(brick_count=1), "R", "box R: a chain needs at least 2 bricks, got 1"),
    (
        SimParams(glue_failure=INF),
        "S",
        "box S: glue failure must be a finite nonnegative real, got inf",
    ),
    (
        SimParams(glue_failure=-1.0),
        "S",
        "box S: glue failure must be a finite nonnegative real, got -1.0",
    ),
    (
        SimParams(glue_failure=float("nan")),
        "S",
        "box S: glue failure must be a finite nonnegative real, got nan",
    ),
    (
        SimParams(brick_failure=-2.0),
        "R",
        "box R: brick failure must be a nonnegative real, got -2.0",
    ),
    (
        SimParams(brick_failure=float("nan")),
        "R",
        "box R: brick failure must be a nonnegative real, got nan",
    ),
    (
        SimParams(glue_failure=20.6, brick_failure=30.0),
        "N",
        "box N: brick failure 30 is not much greater than glue failure 20.6 (kappa=3)",
    ),
    (
        SimParams(lifeline_present=True, lifeline_resting=INF),
        "W",
        "box W: lifeline resting extension must be a finite nonnegative real, got inf",
    ),
    (
        SimParams(lifeline_present=True, lifeline_resting=-1.0),
        "W",
        "box W: lifeline resting extension must be a finite nonnegative real, got -1.0",
    ),
    (
        SimParams(lifeline_present=True, lifeline_failure=float("nan")),
        "T",
        "box T: lifeline failure must be a nonnegative real, got nan",
    ),
    (
        SimParams(lifeline_present=True, lifeline_failure=2.0),
        "T",
        "box T: lifeline failure 2 is below its resting extension 23.45",
    ),
    (
        SimParams(
            lifeline_present=True, brick_failure=100.0, lifeline_failure=50.0
        ),
        "L",
        "box L: finite brick failure 100 and lifeline failure 50 are not roughly "
        "equal (eps_rel=0.25)",
    ),
    (
        SimParams(lifeline_present=True, lifeline_resting=5.0),
        "I",
        "box I: lifeline resting extension 5 is not roughly equal to glue failure "
        "20.6 (eps_rel=0.25)",
    ),
    (
        SimParams(
            lifeline_present=True,
            lifeline_resting=20.6,
            lifeline_failure=20.6,
        ),
        "N",
        "box N: lifeline failure equal to glue failure (20.6) would conflate "
        "lifeline pairs with certified brick/glue pairs",
    ),
    # values of the wrong type
    (SimParams(brick_count=2.5), "R", "box R: brick count must be an integer, got 2.5"),
    (SimParams(brick_count="3"), "R", "box R: brick count must be an integer, got '3'"),
    (SimParams(brick_count=None), "R", "box R: brick count must be an integer, got None"),
    (SimParams(glue_failure="x"), "S", "box S: glue failure must be a real number, got 'x'"),
    (
        SimParams(glue_failure=None),
        "S",
        "box S: glue failure must be a real number, got None",
    ),
    (
        SimParams(brick_failure="x"),
        "R",
        "box R: brick failure must be a real number, got 'x'",
    ),
    (
        SimParams(lifeline_present=True, lifeline_resting=None),
        "W",
        "box W: lifeline resting extension must be a real number, got None",
    ),
    (
        SimParams(lifeline_present=True, lifeline_failure="x"),
        "T",
        "box T: lifeline failure must be a real number, got 'x'",
    ),
    (
        SimParams(lifeline_present=True, lifeline_failure=-3.0),
        "T",
        "box T: lifeline failure must be a nonnegative real, got -3.0",
    ),
    # the lifeline values must be reals even when no lifeline is present
    (
        SimParams(lifeline_resting="x"),
        "W",
        "box W: lifeline resting extension must be a real number, got 'x'",
    ),
    (
        SimParams(lifeline_failure=None),
        "T",
        "box T: lifeline failure must be a real number, got None",
    ),
]


# A case is named by its params and box (params<i>-<box>); the message is not
# part of the name.
@pytest.mark.parametrize(
    "params,box,message",
    _PARAMETER_GATES,
    ids=[f"params{i}-{box}" for i, (_, box, _) in enumerate(_PARAMETER_GATES)],
)
def test_each_parameter_gate_names_its_box(schema, params, box, message):
    with pytest.raises(ParamConstraintError) as exc:
        generate_instance(params, schema)
    assert exc.value.box == box
    assert exc.value.message == message


def test_any_index_integer_is_a_brick_count(schema):
    assert generate_instance(SimParams(brick_count=np.int64(3)), schema) == generate_instance(
        SimParams(brick_count=3), schema
    )


def test_a_schema_without_a_pullback_declaration_is_a_mismatch(schema):
    pruned = dataclasses.replace(
        schema, fiber_products=tuple(fp for fp in schema.fiber_products if fp.apex != "K")
    )
    with pytest.raises(SchemaMismatchError, match="'K'"):
        generate_instance(PROTEIN_DEFAULTS, pruned)


def test_value_collision_between_brick_and_resting_is_gated(schema):
    loose = Comparators(eps_rel=0.9, kappa=1.1)
    params = SimParams(
        glue_failure=10.0,
        brick_failure=40.0,
        lifeline_present=True,
        lifeline_resting=40.0,
        lifeline_failure=40.0,
    )
    with pytest.raises(ParamConstraintError) as exc:
        generate_instance(params, schema, loose)
    assert exc.value.box == "L"
    # moving the brick well off the collision point makes the shape legal
    # (high enough that the loose judgements no longer overlap on it)
    nudged = SimParams(
        glue_failure=10.0,
        brick_failure=110.0,
        lifeline_present=True,
        lifeline_resting=40.0,
        lifeline_failure=110.0,
    )
    inst = generate_instance(nudged, schema, loose)
    assert validate_instance(schema, inst) == []


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _inventory(inst):
    return {box: len(elems) for box, elems in inst.sets.items() if elems}


def test_generated_protein_matches_the_bundled_file(schema, protein):
    assert generate_instance(PROTEIN_DEFAULTS, schema) == protein


def test_generated_social_matches_the_bundled_file(schema, social):
    assert generate_instance(SOCIAL_MATCHED_DEFAULTS, schema) == social


def test_default_inventories_are_stable(schema):
    ductile = generate_instance(PROTEIN_DEFAULTS, schema)
    assert _inventory(ductile) == {
        "A": 1, "D": 1, "E": 1, "F": 1, "G": 1, "H": 1, "J": 1, "M": 1,
        "N": 72, "O": 2, "P": 144, "Q": 4, "R": 9, "S": 8, "T": 8,
        "U": 25, "V": 4, "W": 1,
    }
    brittle = generate_instance(SimParams(), schema)
    assert _inventory(brittle) == {
        "B": 1, "C": 1, "D": 1, "F": 1, "H": 1, "J": 1, "M": 1,
        "N": 72, "O": 1, "P": 72, "Q": 2, "R": 9, "S": 8, "U": 17, "V": 2,
    }


def test_finite_brick_chain_populates_the_threesome_boxes(schema):
    inst = generate_instance(
        SimParams(lifeline_present=True, brick_failure=100.0), schema
    )
    inv = _inventory(inst)
    assert inv["I"] == 576 and inv["K"] == 576
    assert inv["L"] == 72 and inv["N"] == 72
    assert inv["M"] == 2 and inv["O"] == 1 and inv["Q"] == 3
    assert validate_instance(schema, inst) == []
    assert all(r.holds for r in check_all_equations(schema, inst))
    assert all(r.holds for r in verify_all_fiber_products(schema, inst))


def test_brick_count_scales_the_block_boxes(schema):
    inst = generate_instance(SimParams(brick_count=3), schema)
    assert len(inst.elements("R")) == 3
    assert len(inst.elements("S")) == 2
    assert len(inst.elements("P")) == 6  # 3 bricks x 2 connectors
    assert set(inst.elements("R")) == {"aa1", "aa2", "aa3"}


def test_generated_instances_pass_all_checks(schema):
    for params in (
        PROTEIN_DEFAULTS,
        SimParams(),
        SimParams(lifeline_present=True, lifeline_failure=23.45),  # brittle + lifeline
        SimParams(brick_count=4, domain="social"),
    ):
        inst = generate_instance(params, schema)
        diags = validate_instance(schema, inst)
        # only the per-hypothesis arrows may ever be partial
        assert all(
            d.code == "MISSING_IMAGE" and d.location.startswith(("1/", "5/"))
            for d in diags
        )
        if not diags:  # checking equations needs total tables
            assert all(r.holds for r in check_all_equations(schema, inst))
        assert all(r.holds for r in verify_all_fiber_products(schema, inst))


@pytest.mark.parametrize("domain", ["protein", "social", "generic"])
@pytest.mark.parametrize("bricks", [2, 9, 12])
@pytest.mark.parametrize("chain", list(corpus.CHAINS))
def test_generated_instance_is_already_canonical(schema, domain, bricks, chain):
    inst = corpus.chain(ologkit, schema, chain, domain, bricks)
    canon = inst.canonical()
    for got, want in ((inst.sets, canon.sets), (inst.functions, canon.functions)):
        assert list(got) == list(want)
        for key in want:
            assert list(got[key].items()) == list(want[key].items())


_SWEEP_CHAINS = {
    "ductile": {"lifeline_present": True},
    "bonded": {"lifeline_present": True, "brick_failure": 100.0, "lifeline_failure": 110.0},
    "brittle": {"lifeline_present": True, "lifeline_failure": 23.45},
    "neither": {"lifeline_present": True, "lifeline_failure": 40.0},
    "no-lifeline": {},
    "no-lifeline-finite": {"brick_failure": 100.0},
}


@pytest.mark.parametrize(
    "chain, domain, bricks, digest",
    [
        ("ductile", "protein", 2, "79c44b3f9e677207513c6eff700e266f836d87b83b69ad28d068c1f7c355b963"),
        ("ductile", "protein", 5, "ec2bd586e49fc03ddf088419c8af2b223ad248fc7093489f5830a9cd4849ada4"),
        ("ductile", "social", 12, "60ae51fa94d4f6ce4f8f5f64a9b0f7e1f688b58bcdde6265977179b0486c0d99"),
        ("bonded", "protein", 2, "99263419cbb8c4416833b943f04ebd761aa5c19eb19a4b8f2acad9b2e6384fe3"),
        ("bonded", "protein", 12, "66a4ae9ce6642ccc42f0dcc32d2080bdfac130be39590d8e41021034f7d44a45"),
        ("bonded", "social", 5, "93a4ef6de1e7b3350ea6b09de90ff0097f3a9d1673cdbf63d5eb399c48a7931b"),
        ("brittle", "protein", 5, "30476a2451a176b7e14abe2e27122a61dfe3751993205a7104600c715509fb48"),
        ("brittle", "social", 12, "025ebb1def46bef88ab32d3cc00c591f6373afecd88217d8710852c5977ec2ef"),
        ("neither", "protein", 2, "e98939e6c2c1a09a316ad58faacc2e1e9ac9d44458ca6d593d9b009a54023fe8"),
        ("neither", "social", 12, "9825e78838361d737cf936a49ebbb96dc6286d8dcd66ed90f2a698087709fad5"),
        ("no-lifeline", "protein", 2, "cc486d5328f1cd2a01cab100ada9154da3b249f529c238313ebfdd7027c73167"),
        ("no-lifeline", "social", 12, "b24bc37211dc10fb8b26013e0f85ef71ffa1464f1eac3ad4e2e2121059b764f1"),
        ("no-lifeline-finite", "protein", 5, "95150b71bdcbf83da10fe0433d021ccab15347909ebbd326298ae9e394259b12"),
        ("ductile", "generic", 12, "6df4f3f0ff3c0ea9e6f620a13643be9b63c1ccd4656ce418d44fc3819170ec0d"),
        ("bonded", "generic", 5, "eda9d78e8975f3d5a0571cdf79ab22abfffaff628e55a7232288266c14324e6b"),
        ("neither", "generic", 5, "8492e41f6db7e68523f1b8bba99599743d7ebbe39611d8e9756eaba5e1d8dfa6"),
        ("no-lifeline", "generic", 2, "1958111718c5d523606428920cc1209dfa63092ab673c8f27c42f453fb2d9d75"),
        # bonded n=40 is the simulate benchmark's largest op (128 174 elements)
        ("bonded", "protein", 40, "06e56472f71ae0fb966b8ded72eb2604dd007a483a7de045304787d6f8601adf"),
        ("ductile", "social", 80, "d40fb88ad00cd3afb8b3ea09154db5841b71314b63b1ef38e887389773eacd12"),
    ],
)
def test_generated_bytes_are_pinned(schema, chain, domain, bricks, digest):
    # The canonical file fixes every id, payload and table entry the
    # generator emits, so a rewrite of how the boxes are built cannot
    # change the instance unnoticed.
    params = SimParams(brick_count=bricks, domain=domain, **_SWEEP_CHAINS[chain])
    text = serialize_instance(generate_instance(params, schema))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("domain", ["protein", "social", "generic"])
@pytest.mark.parametrize("chain", ["ductile", "bonded", "brittle", "no-lifeline"])
def test_no_two_generated_tables_share_a_dict(schema, chain, domain):
    # A table assigned to two arrows at once would make a change to one
    # silently a change to the other.
    params = SimParams(brick_count=5, domain=domain, **_SWEEP_CHAINS[chain])
    inst = generate_instance(params, schema)
    tables = [*inst.sets.values(), *inst.functions.values()]
    assert len({id(table) for table in tables}) == len(tables)


# Counts at every pad-width boundary, and where the kernel's integer type
# widens (uint8 to uint16 to uint32).
_ID_COUNTS = (0, 1, 9, 10, 99, 100, 255, 256, 999, 1000, 9999, 10000, 65535, 65536)


@settings(max_examples=40, deadline=None)
@given(
    prefix=st.text(alphabet=string.ascii_letters + string.digits + "_", max_size=4),
    count=st.one_of(st.sampled_from(_ID_COUNTS), st.integers(0, 200_000)),
)
def test_numbered_ids_kernel_matches_the_format(prefix, count):
    width = pad_width(count)
    expected = [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]
    assert _numbered_ids(prefix, count) == expected


def test_domain_flavors_name_the_blocks():
    protein = build_chain(PROTEIN_DEFAULTS)
    assert protein.bricks[0].id == "aa1"
    assert protein.segments[0].glue.id == "hb1"
    assert protein.segments[0].lifeline.id == "bb1"
    social = build_chain(SOCIAL_MATCHED_DEFAULTS)
    assert social.bricks[0].id == "tc1"
    assert social.segments[0].glue.id == "wf1"
    assert social.segments[0].lifeline.id == "pw1"
    other = build_chain(SimParams(domain="widgets", lifeline_present=True))
    assert other.bricks[0].id == "bk1"
    assert other.segments[0].glue.id == "gl1"
    assert other.segments[0].lifeline.id == "ll1"


def test_generated_name_defaults_to_domain(schema):
    assert generate_instance(SimParams(), schema).name == "protein"
    assert generate_instance(SimParams(), schema, name="mine").name == "mine"


def test_lifeline_resting_tracks_glue_on_every_accepted_chain(schema):
    # the recruitment reading: a lifeline only makes sense if it goes taut
    # roughly when the glue gives out
    comps = Comparators()
    for resting in (16.0, 20.6, 25.0):
        inst = generate_instance(
            SimParams(lifeline_present=True, lifeline_resting=resting), schema
        )
        assert roughly_equal(resting, 20.6, comps)
        w = inst.elements("W")
        assert list(w.values())[0].value == resting
    for resting in (5.0, 40.0):
        with pytest.raises(ParamConstraintError):
            generate_instance(
                SimParams(lifeline_present=True, lifeline_resting=resting), schema
            )
