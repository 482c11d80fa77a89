"""q-matroids and q-transversals over finite fields.

Exact, desk-scale implementations of subspace-lattice transversal
theory: finite-field arithmetic, canonical subspaces, q-matroid rank
functions, classical Hall/Rado machinery, q-transversal tests with
certificates, representability constructions, and conjecture scanners.
"""

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    Error,
    ExtensionTooLarge,
    GroundMismatch,
    IncompleteTable,
    InfeasibleScale,
    InvalidRankTable,
    InvariantViolation,
    NonPrimeCharacteristic,
    NotSubmodular,
    OutOfRange,
    ReducibleModulus,
    SpecMismatch,
)
from .fields import FieldSpec, field_make, prime_power
from .subspaces import (
    Lattice,
    Subspace,
    SubspaceFamily,
    VectorSpaceSpec,
    bottom,
    canonicalize,
    enumerate_bases,
    enumerate_subspaces,
    gaussian_binomial,
    get_lattice,
    join,
    leq,
    meet,
    top,
)
from .qmatroids import (
    QMatroid,
    check_rank_axioms,
    check_submodular,
    free_matroid,
    induce,
    matroid_from_table,
    rank_one,
    union,
    zero_matroid,
)
from .classical import (
    ClassicalMatroid,
    SetFamily,
    avoid_rado_check,
    avoiding_transversal_by_injections,
    avoiding_transversal_check,
    find_transversal,
    hall_check,
    is_partial_transversal,
    rado_check,
)
from .qtransversals import (
    QTransversalCertificate,
    family_meet,
    is_minimal_presentation,
    is_partial_q_transversal,
    is_q_transversal,
    presentation_matroid,
    q_hall,
    q_transversal_by_definition,
    recheck_certificate,
    reduce_presentation,
)
from .representation import (
    AlignedFamily,
    QRepresentation,
    aligned_from_family,
    build_aligned_representation,
    find_representation,
    represent,
    represented_rank,
    subfield_embedding,
    verify_representation,
)
from .conjectures import (
    ScanConfig,
    ScanReport,
    scan_minimal_uniqueness,
    scan_q_rado,
    scan_representability,
)

__version__ = "0.1.0"
