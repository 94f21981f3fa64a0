"""One-dimensional brick/glue/lifeline chains and their failure model.

A chain is a row of bricks joined by glue segments, each segment optionally
backed by a lifeline.  The module provides the two tolerance comparators
(``roughly_equal`` / ``much_greater``), brittle/ductile classification, the
noise threshold for unreliable links, and — the heavy lifting — a generator
that turns chain parameters into a full instance of the bundled schema, with
every box populated and every arrow table total exactly when the underlying
reading says it should be.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import (
    DomainError,
    InconsistentComparatorsError,
    NoLifelineError,
    NonFiniteInputError,
    NonFiniteReferenceError,
    ParamConstraintError,
    SchemaMismatchError,
)
from .graphs import Graph, line_graph
from .instance import (
    GraphPayload,
    Instance,
    PairPayload,
    Payload,
    RealPayload,
    TextPayload,
    compute_pullback,
)
from .ordering import natural_key, pad_width
from .schema import OlogSchema

__all__ = [
    "Comparators",
    "roughly_equal",
    "much_greater",
    "BuildingBlock",
    "Segment",
    "ChainSystem",
    "Classification",
    "structure_graph",
    "system_failure_extension",
    "classify",
    "link_failure_noise",
    "estimate_link_failure_noise_mc",
    "SimParams",
    "PROTEIN_DEFAULTS",
    "SOCIAL_MATCHED_DEFAULTS",
    "build_chain",
    "generate_instance",
]


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Comparators:
    """Tolerances for the two order-of-magnitude judgements.

    ``eps_rel`` is the relative tolerance of :func:`roughly_equal` and must lie
    strictly between 0 and 1; ``kappa`` is the separation factor of
    :func:`much_greater` and must exceed 1.
    """

    eps_rel: float = 0.25
    kappa: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_rel < 1.0):
            raise DomainError(f"eps_rel must lie in (0, 1), got {self.eps_rel!r}")
        if not self.kappa > 1.0:
            raise DomainError(f"kappa must exceed 1, got {self.kappa!r}")


def _as_real(value: float, what: str) -> float:
    result = float(value)
    if math.isnan(result):
        raise NonFiniteInputError(f"{what} cannot be NaN")
    return result


def roughly_equal(big: float, small: float, comparators: Comparators = Comparators()) -> bool:
    """|R - r| within eps_rel of the larger magnitude.  Finite inputs only."""
    big = _as_real(big, "roughly_equal input")
    small = _as_real(small, "roughly_equal input")
    if math.isinf(big) or math.isinf(small):
        raise NonFiniteInputError(
            f"roughly_equal needs finite inputs, got ({big:g}, {small:g})"
        )
    return abs(big - small) <= comparators.eps_rel * max(abs(big), abs(small))


def much_greater(big: float, small: float, comparators: Comparators = Comparators()) -> bool:
    """R at least kappa times r.  +inf dominates everything; r must be finite."""
    big = _as_real(big, "much_greater input")
    small = _as_real(small, "much_greater reference")
    if math.isinf(small):
        raise NonFiniteReferenceError(
            f"much_greater needs a finite reference, got r={small:g}"
        )
    if big == math.inf:
        return True
    if small == 0.0:
        return big > 0.0
    return big >= comparators.kappa * small


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

_BLOCK_KINDS = ("brick", "glue", "lifeline")


@dataclass(frozen=True, slots=True)
class BuildingBlock:
    """A physical unit with a resting extension and a failure extension."""

    id: str
    kind: str
    failure_extension: float
    resting_extension: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        failure = _as_real(self.failure_extension, "failure extension")
        resting = _as_real(self.resting_extension, "resting extension")
        if resting < 0 or math.isinf(resting):
            raise ValueError(f"resting extension must be finite and nonnegative, got {resting!r}")
        if failure < resting:
            raise ValueError(
                f"block {self.id!r} would fail at {failure:g}, "
                f"below its resting extension {resting:g}"
            )
        object.__setattr__(self, "failure_extension", failure)
        object.__setattr__(self, "resting_extension", resting)


@dataclass(frozen=True, slots=True)
class Segment:
    """The joint between two consecutive bricks: glue, plus an optional lifeline."""

    glue: BuildingBlock
    lifeline: BuildingBlock | None = None

    def __post_init__(self) -> None:
        if self.glue.kind != "glue":
            raise ValueError(f"segment glue slot holds a {self.glue.kind!r}")
        if self.lifeline is not None and self.lifeline.kind != "lifeline":
            raise ValueError(f"segment lifeline slot holds a {self.lifeline.kind!r}")


@dataclass(frozen=True, slots=True)
class ChainSystem:
    """Bricks in a row; segment i joins brick i to brick i+1."""

    name: str
    domain: str
    bricks: tuple[BuildingBlock, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.bricks:
            raise ValueError("a chain needs at least one brick")
        if any(brick.kind != "brick" for brick in self.bricks):
            raise ValueError("brick slots may only hold bricks")
        if len(self.segments) != len(self.bricks) - 1:
            raise ValueError(
                f"{len(self.bricks)} bricks need {len(self.bricks) - 1} segments, "
                f"got {len(self.segments)}"
            )

    @property
    def glues(self) -> tuple[BuildingBlock, ...]:
        return tuple(seg.glue for seg in self.segments)

    @property
    def lifelines(self) -> tuple[BuildingBlock, ...]:
        return tuple(seg.lifeline for seg in self.segments if seg.lifeline is not None)


def structure_graph(chain: ChainSystem, connector: str = "glue") -> Graph:
    """The chain graph whose nodes are bricks and edges the chosen connector.

    Raises NoLifelineError when asked for the lifeline graph of a chain with
    any bare segment.
    """
    if connector not in ("glue", "lifeline"):
        raise ValueError(f"connector must be 'glue' or 'lifeline', got {connector!r}")
    if connector == "lifeline":
        for index, seg in enumerate(chain.segments):
            if seg.lifeline is None:
                raise NoLifelineError(
                    f"chain {chain.name!r} has no lifeline on segment {index + 1}"
                )
    return line_graph([brick.id for brick in chain.bricks])


def system_failure_extension(chain: ChainSystem) -> float:
    """Extension at which the chain parts: its weakest brick or joint.

    A joint survives as long as either its glue or its lifeline does, so its
    threshold is the max of the two; the chain fails at the min over all
    bricks and joints.
    """
    worst = math.inf
    for brick in chain.bricks:
        worst = min(worst, brick.failure_extension)
    for seg in chain.segments:
        threshold = seg.glue.failure_extension
        if seg.lifeline is not None:
            threshold = max(threshold, seg.lifeline.failure_extension)
        worst = min(worst, threshold)
    return worst


class Classification(enum.Enum):
    BRITTLE = "Brittle"
    DUCTILE = "Ductile"
    NEITHER = "Neither"


def classify(chain: ChainSystem, comparators: Comparators = Comparators()) -> Classification:
    """Brittle, ductile, or neither, by comparing system failure to glue failure.

    Brittle means the system fails roughly when its weakest glue does; ductile
    means it holds much longer.  An infinitely strong system is ductile
    outright.  If the comparators are so loose that both judgements fire at
    once the configuration is rejected rather than silently tie-broken.
    """
    glue_failures = [seg.glue.failure_extension for seg in chain.segments]
    if not glue_failures:
        raise ValueError("classification needs at least one glue segment")
    glue_failure = min(glue_failures)
    failure = system_failure_extension(chain)
    if failure == math.inf:
        return Classification.DUCTILE
    ductile = much_greater(failure, glue_failure, comparators)
    brittle = roughly_equal(failure, glue_failure, comparators)
    if ductile and brittle:
        raise InconsistentComparatorsError(
            f"system failure {failure:g} vs glue failure {glue_failure:g} is both "
            f"roughly equal (eps_rel={comparators.eps_rel:g}) and much greater "
            f"(kappa={comparators.kappa:g})"
        )
    if ductile:
        return Classification.DUCTILE
    if brittle:
        return Classification.BRITTLE
    return Classification.NEITHER


# ---------------------------------------------------------------------------
# unreliable links
# ---------------------------------------------------------------------------


def _check_link_args(tau: float, length: int) -> float:
    if isinstance(length, bool) or not isinstance(length, int) or length < 1:
        raise DomainError(f"message length must be a positive integer, got {length!r}")
    tau = float(tau)
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"success probability must lie in (0, 1], got {tau!r}")
    return tau


def link_failure_noise(tau: float, length: int) -> float:
    """Largest per-link noise p with P(error-free message of given length) >= tau.

    Each of the ``length`` links independently corrupts the message with
    probability p, so the threshold solves (1-p)^length = tau.
    """
    tau = _check_link_args(tau, length)
    return 1.0 - tau ** (1.0 / length)


def estimate_link_failure_noise_mc(
    length: int, tau: float, trials: int = 100_000, seed: int = 0
) -> float:
    """Monte Carlo estimate of :func:`link_failure_noise`.

    Each trial draws one uniform per link; a message survives noise level p
    exactly when the trial minimum is at least p, so the threshold is the
    (1 - tau) quantile of the per-trial minima, located here by bisection.
    """
    tau = _check_link_args(tau, length)
    if trials < 10_000:
        raise DomainError(f"at least 10000 trials required, got {trials!r}")

    rng = np.random.default_rng(seed)
    minima = np.empty(trials)
    chunk = max(1, 2_000_000 // length)
    start = 0
    while start < trials:
        stop = min(trials, start + chunk)
        minima[start:stop] = rng.random((stop - start, length)).min(axis=1)
        start = stop
    minima.sort()

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        survivors = trials - int(np.searchsorted(minima, mid, side="left"))
        if survivors / trials >= tau:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# simulation parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SimParams:
    """Parameters for a uniform chain.

    All bricks share ``brick_failure``, all glue shares ``glue_failure``, and,
    when ``lifeline_present``, every segment carries a lifeline with the given
    resting and failure extensions.  ``seed`` records how sweep-drawn
    parameter sets were produced; generation itself is deterministic.
    """

    brick_count: int = 9
    glue_failure: float = 20.6
    brick_failure: float = math.inf
    lifeline_present: bool = False
    lifeline_resting: float = 23.45
    lifeline_failure: float = 100.0
    domain: str = "protein"
    seed: int = 0


PROTEIN_DEFAULTS = SimParams(lifeline_present=True)
SOCIAL_MATCHED_DEFAULTS = SimParams(lifeline_present=True, domain="social")


@dataclass(frozen=True, slots=True)
class _Flavor:
    brick_prefix: str
    glue_prefix: str
    lifeline_prefix: str
    brick_text: str
    glue_text: str
    lifeline_text: str
    glue_system_text: str
    lifeline_system_text: str
    brittle_system_text: str


_FLAVORS = {
    "protein": _Flavor(
        "aa", "hb", "bb",
        "an amino acid cluster", "an H-bond cluster", "a backbone segment",
        "a protein of specified shape",
        "a lifeline protein of specified shape",
        "an amyloid filament",
    ),
    "social": _Flavor(
        "tc", "wf", "pw",
        "a transceiver", "a wifi connection", "a physical passageway",
        "a social network of specified shape",
        "a lifeline social network of specified shape",
        "a wireless-only social network",
    ),
}

_GENERIC_FLAVOR = _Flavor(
    "bk", "gl", "ll",
    "a brick", "a glue element", "a lifeline element",
    "a chain system of specified shape",
    "a lifeline chain system of specified shape",
    "a chain system without lifeline",
)


def build_chain(params: SimParams) -> ChainSystem:
    """The uniform chain the parameters describe (ids flavored by domain)."""
    flavor = _FLAVORS.get(params.domain, _GENERIC_FLAVOR)
    brick_pad = pad_width(params.brick_count)
    seg_pad = pad_width(max(params.brick_count - 1, 1))
    bricks = tuple(
        BuildingBlock(f"{flavor.brick_prefix}{i:0{brick_pad}d}", "brick", params.brick_failure)
        for i in range(1, params.brick_count + 1)
    )
    segments = []
    for i in range(1, params.brick_count):
        glue = BuildingBlock(f"{flavor.glue_prefix}{i:0{seg_pad}d}", "glue", params.glue_failure)
        lifeline = None
        if params.lifeline_present:
            lifeline = BuildingBlock(
                f"{flavor.lifeline_prefix}{i:0{seg_pad}d}",
                "lifeline",
                params.lifeline_failure,
                params.lifeline_resting,
            )
        segments.append(Segment(glue, lifeline))
    return ChainSystem(params.domain, params.domain, bricks, tuple(segments))


def _check_params(params: SimParams, comparators: Comparators) -> None:
    def reject(box: str, message: str) -> NoReturn:
        raise ParamConstraintError(box, message)

    def real(box: str, what: str, value: object) -> float:
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            reject(box, f"{what} must be a real number, got {value!r}")

    try:
        count = operator.index(params.brick_count)
    except TypeError:
        reject("R", f"brick count must be an integer, got {params.brick_count!r}")
    if count < 2:
        reject("R", f"a chain needs at least 2 bricks, got {params.brick_count}")
    glue = real("S", "glue failure", params.glue_failure)
    if math.isnan(glue) or math.isinf(glue) or glue < 0:
        reject("S", f"glue failure must be a finite nonnegative real, got {params.glue_failure!r}")
    brick = real("R", "brick failure", params.brick_failure)
    if math.isnan(brick) or brick < 0:
        reject("R", f"brick failure must be a nonnegative real, got {params.brick_failure!r}")
    if not much_greater(brick, glue, comparators):
        reject(
            "N",
            f"brick failure {brick:g} is not much greater than glue failure "
            f"{glue:g} (kappa={comparators.kappa:g})",
        )
    resting = real("W", "lifeline resting extension", params.lifeline_resting)
    failure = real("T", "lifeline failure", params.lifeline_failure)
    if params.lifeline_present:
        if math.isnan(resting) or math.isinf(resting) or resting < 0:
            reject(
                "W",
                f"lifeline resting extension must be a finite nonnegative real, "
                f"got {params.lifeline_resting!r}",
            )
        if math.isnan(failure) or failure < 0:
            reject(
                "T",
                f"lifeline failure must be a nonnegative real, got {params.lifeline_failure!r}",
            )
        if failure < resting:
            reject(
                "T",
                f"lifeline failure {failure:g} is below its resting extension {resting:g}",
            )
        if math.isfinite(brick) and math.isfinite(failure) and not roughly_equal(
            brick, failure, comparators
        ):
            reject(
                "L",
                f"finite brick failure {brick:g} and lifeline failure {failure:g} "
                f"are not roughly equal (eps_rel={comparators.eps_rel:g})",
            )
        if not roughly_equal(resting, glue, comparators):
            reject(
                "I",
                f"lifeline resting extension {resting:g} is not roughly equal to "
                f"glue failure {glue:g} (eps_rel={comparators.eps_rel:g})",
            )
        # Degenerate value collisions: certified pairs are recognized by their
        # numeric value, so a lifeline indistinguishable from the glue (or a
        # brick indistinguishable from the lifeline's resting length) would
        # misfile pairs into the wrong box.
        if failure == glue:
            reject(
                "N",
                f"lifeline failure equal to glue failure ({glue:g}) would conflate "
                f"lifeline pairs with certified brick/glue pairs",
            )
        if brick == resting:
            reject(
                "L",
                f"brick failure equal to the lifeline resting extension ({resting:g}) "
                f"would conflate glue pairs with certified brick/strong-glue pairs",
            )


def _bonded(brick: float, lifeline: float, comparators: Comparators) -> bool:
    """Certified brick/strong-glue pairing: roughly equal, or both unbreakable."""
    if math.isinf(brick) and math.isinf(lifeline):
        return True
    if math.isinf(brick) or math.isinf(lifeline):
        return False
    return roughly_equal(brick, lifeline, comparators)


def generate_instance(
    params: SimParams,
    schema: OlogSchema,
    comparators: Comparators = Comparators(),
    name: str | None = None,
) -> Instance:
    """Populate every box of the bundled schema from one uniform chain.

    Pair boxes hold exactly the pairs the comparators certify.  Each apex box
    (F, C, E, A, N, L, K, I, in that order) is filled by :func:`compute_pullback`
    over the square the schema declares for it, and each other arrow out of an
    apex is the path its equation names, so the result passes equation checks
    and fiber-product verification by construction.  A schema that declares no
    pullback for one of these boxes raises SchemaMismatchError.  The two
    per-hypothesis arrows are filled in only when the classification actually
    licenses them; otherwise their tables stay partial and validation reports
    the gap.

    Every set and table comes out in natural-key order by construction, as
    :meth:`Instance.canonical` would leave it, without a closing re-sort.
    """
    _check_params(params, comparators)
    chain = build_chain(params)
    cls = classify(chain, comparators)
    failure = system_failure_extension(chain)
    glue_f = float(params.glue_failure)
    brick_f = float(params.brick_failure)
    has_lifeline = params.lifeline_present
    rest = float(params.lifeline_resting)
    life_f = float(params.lifeline_failure)
    flavor = _FLAVORS.get(params.domain, _GENERIC_FLAVOR)

    sets: dict[str, dict[str, Payload | None]] = {}
    functions: dict[str, dict[str, str]] = {}

    def put(box: str, eid: str, payload: Payload | None = None) -> None:
        sets.setdefault(box, {})[eid] = payload

    def link(arrow: str, src: str, dst: str) -> None:
        functions.setdefault(arrow, {})[src] = dst

    # -- certified pair values ------------------------------------------------
    o_vals = {(brick_f, glue_f)}  # _check_params certified brick >> glue
    if cls is Classification.DUCTILE:
        o_vals.add((failure, glue_f))
    m_vals: set[tuple[float, float]] = set()
    if has_lifeline:
        m_vals.add((rest, glue_f))
        if _bonded(brick_f, life_f, comparators):
            m_vals.add((brick_f, life_f))
    if cls is Classification.BRITTLE:
        m_vals.add((failure, glue_f))

    q_vals: set[tuple[float, float]] = {(failure, glue_f), (brick_f, glue_f)}
    if has_lifeline:
        q_vals.add((brick_f, life_f))
    q_vals |= o_vals | m_vals

    v_vals = {part for pair in q_vals for part in pair}

    v_id = {value: f"v{i}" for i, value in enumerate(sorted(v_vals), 1)}
    q_id = {pair: f"q{i}" for i, pair in enumerate(sorted(q_vals), 1)}
    m_id = {pair: f"m{i}" for i, pair in enumerate(sorted(m_vals), 1)}
    o_id = {pair: f"o{i}" for i, pair in enumerate(sorted(o_vals), 1)}

    for value, vid in v_id.items():
        put("V", vid, RealPayload(value))
    for pair, qid in q_id.items():
        put("Q", qid, PairPayload(*pair))
        link("37", qid, v_id[pair[0]])
        link("38", qid, v_id[pair[1]])
    for pair, mid in m_id.items():
        put("M", mid, PairPayload(*pair))
        link("28", mid, q_id[pair])
    for pair, oid in o_id.items():
        put("O", oid, PairPayload(*pair))
        link("33", oid, q_id[pair])

    # -- building blocks --------------------------------------------------------
    kind_box = {"brick": "R", "glue": "S", "lifeline": "T"}
    kind_arrow = {"brick": "39", "glue": "40", "lifeline": "41"}
    kind_text = {
        "brick": flavor.brick_text,
        "glue": flavor.glue_text,
        "lifeline": flavor.lifeline_text,
    }
    # The three block prefixes (e.g. aa/hb/bb) interleave in natural-key order.
    blocks = sorted(
        chain.bricks + chain.glues + chain.lifelines, key=lambda block: natural_key(block.id)
    )
    for block in blocks:
        put("U", block.id, TextPayload(kind_text[block.kind]))
        put(kind_box[block.kind], block.id)
        link(kind_arrow[block.kind], block.id, block.id)
        link("42", block.id, v_id[block.failure_extension])
    if has_lifeline:
        put("W", "w1", RealPayload(rest))
        link("29", "w1", v_id[rest])

    # -- the systems and their shared graph -------------------------------------
    shape = GraphPayload(structure_graph(chain, "glue"))
    put("H", "h1", shape)
    put("D", "d1", shape)
    link("9", "d1", "h1")
    put("J", "j1", TextPayload(flavor.glue_system_text))
    link("20", "j1", "h1")
    link("26", "j1", "h1")
    if has_lifeline:
        put("G", "g1", TextPayload(flavor.lifeline_system_text))
        link("15", "g1", "h1")
    else:
        put("B", "b1", TextPayload(flavor.brittle_system_text))
        link("6", "b1", "f1")

    # -- connectable pairs --------------------------------------------------------
    connectors = chain.glues + chain.lifelines
    pairs = [(brick, conn) for brick in chain.bricks for conn in connectors]
    p_pad = pad_width(len(pairs))
    for index, (brick, conn) in enumerate(pairs, 1):
        pid = f"p{index:0{p_pad}d}"
        put("P", pid)
        link("34", pid, q_id[(brick_f, conn.failure_extension)])
        link("35", pid, brick.id)
        link("36", pid, conn.id)

    # -- the pullback boxes, each the canonical pullback of its declared square --
    view = Instance(name or params.domain, schema.name, sets, functions)
    declared = {fp.apex: fp for fp in schema.fiber_products}

    def pullback(box: str) -> list[str]:
        fp = declared.get(box)
        if fp is None:
            raise SchemaMismatchError(
                f"schema {schema.name!r} declares no pullback for box {box!r}"
            )
        joined = compute_pullback(schema, view, fp.leg1, fp.leg2)
        width = pad_width(len(joined))
        ids = [f"{box.lower()}{i:0{width}d}" for i in range(1, len(joined) + 1)]
        sets[box] = dict.fromkeys(ids)
        functions[fp.proj1] = dict(zip(ids, map(operator.itemgetter(0), joined)))
        functions[fp.proj2] = dict(zip(ids, map(operator.itemgetter(1), joined)))
        return ids

    def composite(arrow: str, first: str, *steps: str) -> None:
        """``arrow`` as the path first;steps, over first's source box."""
        table = functions[first]
        images = table.values()
        for step in steps:
            images = map(functions[step].__getitem__, images)
        functions[arrow] = dict(zip(table, images))

    functions["14"] = dict.fromkeys(pullback("F"), q_id[(failure, glue_f)])
    pullback("C")
    pullback("E")
    functions["2"] = dict.fromkeys(pullback("A"), "f1")
    pullback("N")
    composite("30", "32", "35")  # N..U : [32,35] = [30,39]
    composite("31", "32", "36")  # N..U : [32,36] = [31,40]
    pullback("L")
    composite("27", "21", "35")  # L..U : [21,35] = [27,39]
    # Only a lifeline serves as strong glue, so K is empty without one.
    if k_ids := pullback("K"):
        functions["22"] = dict.fromkeys(k_ids, q_id[(rest, glue_f)])
    pullback("I")
    composite("19", "18", "23", "21", "36")  # I..U : [18,23,21,36] = [19,41]

    # The two per-hypothesis arrows stay partial unless the classification
    # actually certifies them.
    if has_lifeline and cls is Classification.DUCTILE:
        link("1", "a1", "e1")
    if not has_lifeline and cls is Classification.BRITTLE:
        link("5", "b1", "c1")

    # Element ids are zero-padded counters inserted in ascending order, so only
    # the box and arrow ids need sorting for the result to be canonical; a
    # pullback with no pairs leaves an empty box and tables, which are dropped.
    boxes = sorted(sets, key=natural_key)
    arrows = sorted(functions, key=natural_key)
    return Instance(
        view.name,
        schema.name,
        {box: sets[box] for box in boxes if sets[box]},
        {arrow: functions[arrow] for arrow in arrows if functions[arrow]},
    )
