"""Discrete Morse theory on finite posets with exact rational arithmetic.

The package validates and classifies discrete Morse functions on posets
given by Hasse diagrams, repairs them into injective obstruction-free form
without changing the critical set, computes critical-point indices two
independent ways (signed chain sums, and height maxima on an exact
embedding of the order complex), and machine-checks the identities tying
those indices to the Euler characteristic.

Importing the package loads none of its modules: each public name is
resolved on first access (PEP 562), so a caller pays only for the modules
it uses.  The brute-force references the tests hold the fast paths to live
in :mod:`morsepoly.oracles`.
"""

__version__ = "0.1.0"

# The module that defines each public name.
_HOMES = {
    "poset": (
        "Chain", "EulerianVerdict", "GradingConflict", "ParityRank", "Poset",
        "RankFunction", "SimplicialComplex", "TwoWideVerdict", "build_poset",
        "chain_counts", "chain_euler_characteristic", "chain_weights",
        "check_hypotheses", "compute_parity_rank", "compute_rank_function",
        "enumerate_chains", "euler_characteristic", "is_downward_eulerian",
        "is_two_wide", "order_complex", "transitive_reduction",
    ),
    "errors": (
        "CycleDetected", "EmptyPoset", "HypothesisViolated", "InvalidArgument",
        "InvalidMorseFunction", "MalformedSpec", "Mismatch", "MissingValue",
        "MorsePolyError", "NonCoverEdge", "NonGeneralFunction", "NotACover",
        "NotGeneral", "NotTwoWide", "ParseError", "RankConflict", "UnknownElement",
    ),
    "morse": (
        "Classification", "Modification", "MorseFunction", "MorseVerdict",
        "NormalizationTrace", "TroubleFlags", "TroubleReport", "classify",
        "find_troubled", "linear_extension", "normalize", "normalize_trace",
        "validate_morse",
    ),
    "complexes": (
        "CellSpec", "ComplexSpec", "FacePoset", "MorseInequalityReport",
        "dimension_morse", "face_poset_cellular", "face_poset_simplicial",
        "morse_inequality_report",
    ),
    "chain_index": (
        "IndexEntry", "IndexReport", "combinatorial_index", "combinatorial_indices",
        "predicted_index", "verify_representation",
    ),
    "geometry": (
        "CrossCheckReport", "Embedding", "GeometricComplex", "cross_check",
        "embed_vertices", "geometric_index", "lower_star_indices", "realize_complex",
    ),
    "generators": ("gen_complex", "gen_morse"),
    "oracles": (
        "ExclusivityReport", "chain_sum_excluding", "chain_sum_lower", "chain_sum_top",
        "check_exclusivity", "geometric_indices", "matrix_rank",
        "monotone_extension_holds", "spans_full_simplex",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "Chain",
    "CellSpec",
    "Classification",
    "ComplexSpec",
    "CrossCheckReport",
    "CycleDetected",
    "Embedding",
    "EmptyPoset",
    "EulerianVerdict",
    "ExclusivityReport",
    "FacePoset",
    "GeometricComplex",
    "GradingConflict",
    "HypothesisViolated",
    "IndexEntry",
    "IndexReport",
    "InvalidArgument",
    "InvalidMorseFunction",
    "MalformedSpec",
    "Mismatch",
    "MissingValue",
    "Modification",
    "MorseFunction",
    "MorseInequalityReport",
    "MorsePolyError",
    "MorseVerdict",
    "NonCoverEdge",
    "NonGeneralFunction",
    "NormalizationTrace",
    "NotACover",
    "NotGeneral",
    "NotTwoWide",
    "ParityRank",
    "ParseError",
    "Poset",
    "RankConflict",
    "RankFunction",
    "SimplicialComplex",
    "TroubleFlags",
    "TroubleReport",
    "TwoWideVerdict",
    "UnknownElement",
    "build_poset",
    "chain_counts",
    "chain_euler_characteristic",
    "chain_sum_excluding",
    "chain_sum_lower",
    "chain_sum_top",
    "chain_weights",
    "check_exclusivity",
    "check_hypotheses",
    "classify",
    "combinatorial_index",
    "combinatorial_indices",
    "compute_parity_rank",
    "compute_rank_function",
    "cross_check",
    "dimension_morse",
    "embed_vertices",
    "enumerate_chains",
    "euler_characteristic",
    "face_poset_cellular",
    "face_poset_simplicial",
    "find_troubled",
    "gen_complex",
    "gen_morse",
    "geometric_index",
    "geometric_indices",
    "is_downward_eulerian",
    "is_two_wide",
    "linear_extension",
    "lower_star_indices",
    "matrix_rank",
    "monotone_extension_holds",
    "morse_inequality_report",
    "normalize",
    "normalize_trace",
    "order_complex",
    "predicted_index",
    "realize_complex",
    "spans_full_simplex",
    "transitive_reduction",
    "validate_morse",
    "verify_representation",
]
