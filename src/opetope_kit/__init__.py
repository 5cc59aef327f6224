"""Face complexes for positive opetopes: validation, certificates,
interchange formats, and exhaustive small-instance enumeration."""

from .core import (
    AxiomReport,
    FaceComplex,
    HypergraphView,
    Morphism,
    Violation,
    build_complex,
    compose_morphisms,
    from_hypergraph_view,
    identity_morphism,
    to_hypergraph_view,
    validate_complex_data,
    validate_morphism,
)
from .builders import (
    arrow,
    point,
    three_cell_from_tree,
    three_one,
    two_cell,
)
from .dfc import (
    Lozenge,
    RootedTree,
    check_acyclicity,
    check_greatest_element,
    check_oriented_thinness,
    complete_half_lozenge,
    face_tree,
    greatest_element,
    is_dfc,
    validate_rooted_tree,
)
from .enumeration import (
    EnumerationBudget,
    enumerate_pops,
    enumerate_positive_opetopes,
    naive_enumerate_pops,
)
from .errors import (
    AmbiguousCompletion,
    BudgetTooLarge,
    DimensionOutOfRange,
    DimensionTooHigh,
    DimensionTooLow,
    DslSyntaxError,
    DuplicateDeclaration,
    InternalInvariantBroken,
    InvalidArity,
    InvalidComplex,
    InvalidTree,
    JsonShapeError,
    LozengeError,
    NoCompletion,
    NonAsciiName,
    OpetopeError,
    ParseError,
    PreconditionViolation,
    SignRuleViolation,
    UnknownFaceReference,
    ZeroDimensionalFace,
)
from .io_formats import (
    ComplexDocument,
    emit_dot_hasse,
    emit_dot_tree,
    emit_dsl,
    emit_json,
    parse_dsl,
    parse_json,
)
from .iso import are_isomorphic, canonical_complex, canonical_form
from .paths import ZigZag, linear_order_s0, path_to_root, simple_zigzag, sources_partition
from .relations import (
    ClosedRelation,
    FacePath,
    gamma_set,
    iota,
    is_lower_path,
    is_upper_path,
    lambda_set,
)
from .zpo import (
    check_disjointness,
    check_globularity,
    check_pencil_linearity,
    check_principality,
    check_strictness,
    is_opetopic_cardinal,
    is_positive_opetope,
)

__version__ = "0.1.0"
