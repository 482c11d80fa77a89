"""The package's public surface, pinned: a name is added or removed on purpose."""

import types

import qtransversal

PUBLIC_NAMES = [
    "AlignedFamily",
    "ClassicalMatroid",
    "DimensionMismatch",
    "DivisionByZero",
    "Error",
    "ExtensionTooLarge",
    "FieldSpec",
    "GroundMismatch",
    "IncompleteTable",
    "InfeasibleScale",
    "InvalidRankTable",
    "InvariantViolation",
    "Lattice",
    "NonPrimeCharacteristic",
    "NotSubmodular",
    "OutOfRange",
    "QMatroid",
    "QRepresentation",
    "QTransversalCertificate",
    "ReducibleModulus",
    "ScanConfig",
    "ScanReport",
    "SetFamily",
    "SpecMismatch",
    "Subspace",
    "SubspaceFamily",
    "VectorSpaceSpec",
    "aligned_from_family",
    "avoid_rado_check",
    "avoiding_transversal_by_injections",
    "avoiding_transversal_check",
    "bottom",
    "build_aligned_representation",
    "canonicalize",
    "check_rank_axioms",
    "check_submodular",
    "enumerate_bases",
    "enumerate_subspaces",
    "family_meet",
    "field_make",
    "find_representation",
    "find_transversal",
    "free_matroid",
    "gaussian_binomial",
    "get_lattice",
    "hall_check",
    "induce",
    "is_minimal_presentation",
    "is_partial_q_transversal",
    "is_partial_transversal",
    "is_q_transversal",
    "join",
    "leq",
    "matroid_from_table",
    "meet",
    "presentation_matroid",
    "prime_power",
    "q_hall",
    "q_transversal_by_definition",
    "rado_check",
    "rank_one",
    "recheck_certificate",
    "reduce_presentation",
    "represent",
    "represented_rank",
    "scan_minimal_uniqueness",
    "scan_q_rado",
    "scan_representability",
    "subfield_embedding",
    "top",
    "union",
    "verify_representation",
    "zero_matroid",
]


def test_public_names_match_the_pin():
    # Submodules are left out: which of them are attributes of the package
    # depends on what else has been imported.
    names = sorted(
        name
        for name, value in vars(qtransversal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
