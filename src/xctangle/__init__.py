"""Exact toolkit for decorated Gauss diagrams and tangle graphs.

The package implements diagrams with signed chords and rotation markers,
their local move calculus, conversions to and from directed tangle
graphs, planar lifts of signed Gauss codes, the universal invariant
valued in a matrix algebra with an R-matrix and balancing element, and a
finite-type layer (subdiagram calculus, diagram formulas, framing
formula).  All arithmetic is exact.
"""

from .algebra import (
    MatrixXCAlgebra,
    RingMatrix,
    builtin_uqsl2,
    parse_algebra,
    print_algebra,
)
from .errors import (
    DimensionError,
    DomainError,
    GuardrailError,
    NoSiteError,
    NonScalarError,
    ParseError,
    StaleSiteError,
    ValidationError,
    VariantMismatchError,
    XCTError,
)
from .gauss import (
    XCGaussDiagram,
    braiding,
    canonical_key,
    compose,
    identity,
    is_pure,
    parse_diagram,
    print_diagram,
    renumber_canonically,
    tensor,
    validate,
)
from .invariant import (
    InvariantValue,
    check_axioms,
    iota_realize,
    long_knot_scalar,
    validate_pattern,
    ve_compose,
    ve_tensor,
    zeval,
)
from .moves import (
    MovePattern,
    MoveSite,
    OrbitResult,
    apply,
    builtin_patterns,
    find_sites,
    orbit,
)
from .polyak import (
    FormalDiagramSum,
    FormulaTerm,
    check_formula_invariance,
    framing_formula,
    framing_terms,
    map_I,
    map_I_inverse,
    pairing,
    parse_formula,
    print_formula,
    subdiagrams,
    truncate_degree,
)
from .ring import Coefficient, format_laurent, parse_laurent
from .tangle import (
    XCTangleGraph,
    action_merge,
    action_permute,
    from_gauss,
    parse_tangle,
    print_tangle,
    to_gauss,
    validate_tangle,
)
from .virtualt import (
    SignedGaussCode,
    bracket_oracle,
    forget,
    lift,
    parse_code,
    print_code,
    random_move_on_code,
    rotation_total,
    underfirst_writhe,
    validate_code,
    writhe,
)

__version__ = "0.1.0"
