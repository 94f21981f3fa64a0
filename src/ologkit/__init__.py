"""Ontology-log toolkit: schemas, set-valued instances, and chain simulation.

A schema is a finitely presented category: boxes, arrows, declared path
equations, and fiber-product squares.  Instances assign finite sets and total
functions, and can be checked, compared up to isomorphism, and generated from
chain-failure parameters.  Everything round-trips through a canonical text
format, and the ``olog`` command line tool fronts the lot.
"""

import sys

# The block patterns in ``dsl`` use possessive repeats, which Python 3.10's
# ``re`` refuses with a bare ``re.error`` at import.
if sys.version_info < (3, 11):
    raise ImportError(
        "ologkit needs Python 3.11 or newer, not %d.%d" % tuple(sys.version_info[:2])
    )

from .bundled import (
    BUNDLED_FILES,
    bundled_schema,
    bundled_text,
    protein_instance,
    social_instance,
)
from .chains import (
    PROTEIN_DEFAULTS,
    SOCIAL_MATCHED_DEFAULTS,
    BuildingBlock,
    ChainSystem,
    Classification,
    Comparators,
    Segment,
    SimParams,
    build_chain,
    classify,
    estimate_link_failure_noise_mc,
    generate_instance,
    link_failure_noise,
    much_greater,
    roughly_equal,
    structure_graph,
    system_failure_extension,
)
from .diagnostics import Diagnostic, Severity, has_errors
from .dsl import (
    load_instance,
    load_schema,
    parse_instance,
    parse_schema,
    serialize_instance,
    serialize_schema,
)
from .errors import (
    CospanMismatchError,
    DomainError,
    DuplicateIdError,
    ElementNotInSourceError,
    EndpointMismatchError,
    InconsistentComparatorsError,
    MalformedPathError,
    NoLifelineError,
    NonFiniteInputError,
    NonFiniteReferenceError,
    OlogError,
    ParamConstraintError,
    ParseError,
    SchemaMismatchError,
    SourceSpan,
    UnwritableInstanceError,
    UnwritableSchemaError,
)
from .graphs import Graph, is_chain, line_graph
from .instance import (
    EquationReport,
    FiberProductReport,
    GraphPayload,
    Instance,
    IsoOutcome,
    IsoResult,
    PairPayload,
    Payload,
    RealPayload,
    TextPayload,
    check_all_equations,
    check_equation,
    check_instance_isomorphism,
    compute_pullback,
    eval_path,
    payload_type_name,
    validate_instance,
    verify_all_fiber_products,
    verify_fiber_product,
    verify_isomorphism,
)
from .schema import (
    ArrowDecl,
    BoxDecl,
    EqualityResult,
    EqVerdict,
    FiberProductDecl,
    OlogSchema,
    Path,
    PathEquation,
    RewriteStep,
    SchemaFunctor,
    check_functor,
    compose,
    derive_equality,
    identity,
    path_endpoints,
    replay_witness,
    validate_schema,
    with_fiber_product_squares,
)

__version__ = "0.1.0"
