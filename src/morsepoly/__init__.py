"""Discrete Morse theory on finite posets with exact rational arithmetic.

The package validates and classifies discrete Morse functions on posets
given by Hasse diagrams, repairs them into injective obstruction-free form
without changing the critical set, computes critical-point indices two
independent ways (signed chain sums, and height maxima on an exact
embedding of the order complex), and machine-checks the identities tying
those indices to the Euler characteristic.

Importing the package loads none of its modules: each public name is
resolved on first access (PEP 562), so a caller pays only for the modules
it uses.  The brute-force references the tests hold the fast paths to, and
the materialized order complex, live in :mod:`morsepoly.oracles`.  A result
that is one value is that value: a grading is its map from element to
int, an embedding its heights map, an obstruction audit its flag map, and
a chain the tuple of its members.
"""

__version__ = "0.1.0"

# The module that defines each public name; __all__ lists every one.
_HOMES = {
    "poset": (
        "GradingConflict", "Poset", "build_poset", "chain_counts", "transitive_reduction",
    ),
    "hypotheses": (
        "EulerianVerdict", "TwoWideVerdict",
        "chain_weights", "check_hypotheses",
        "compute_parity_rank", "compute_rank_function", "is_downward_eulerian",
        "is_two_wide",
    ),
    "errors": (
        "CycleDetected", "EmptyPoset", "HypothesisViolated", "InvalidArgument",
        "InvalidMorseFunction", "MalformedSpec", "Mismatch", "MissingValue",
        "MorsePolyError", "NonCoverEdge", "NotACover", "NotGeneral",
        "ParseError", "RankConflict", "UnknownElement",
    ),
    "morse": (
        "Classification", "MorseFunction", "classify",
    ),
    "normalization": (
        "Modification", "NormalizationTrace", "TroubleFlags", "find_troubled",
        "linear_extension", "normalize", "normalize_trace",
    ),
    "complexes": (
        "CellSpec", "ComplexSpec", "FacePoset", "MorseInequalityReport",
        "dimension_morse", "face_poset_cellular", "face_poset_simplicial",
        "morse_inequality_report",
    ),
    "chain_index": (
        "IndexEntry", "IndexReport", "combinatorial_index", "predicted_index",
        "verify_representation",
    ),
    "geometry": ("CrossCheckReport", "embed_vertices", "lower_star_indices"),
    "generators": ("gen_complex", "gen_morse"),
    "oracles": (
        "ExclusivityReport", "GeometricComplex", "SimplicialComplex",
        "chain_sum_excluding", "chain_sum_lower", "chain_sum_top", "check_exclusivity",
        "cross_check", "enumerate_chains", "euler_characteristic", "geometric_index",
        "geometric_indices", "matrix_rank", "monotone_extension_holds", "order_complex",
        "realize_complex", "spans_full_simplex",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


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

