"""The combinatorial critical-point index and the verifier of its equation.

For an element b of a poset, the index of b with respect to a function g
(injective on comparable pairs) is the alternating sum of (-1)^length over
all chains that contain b and on which g attains its maximum at b.  On a
2-wide, parity-graded, downward Eulerian poset this index equals
(-1)^parity(b) when b is critical and 0 when b is ordinary; the verifier in
this module machine-checks that equation elementwise, along with the global
identity sum-of-indices = chi of the order complex and the critical-cell
count identity N0 - N1 = chi.

The signed chain sums the index argument rests on are stated by direct
enumeration in :mod:`morsepoly.oracles`, as test references; nothing here
enumerates chains.  The index factorizes instead: a chain through b on
which g peaks at b is a chain of the support below b, b itself, and a chain
of the support above b, each part possibly empty, so the index is
(1 - chi(below)) * (1 - chi(above)) with both Euler characteristics from
Hall's recursion (:func:`~morsepoly.poset.chain_weights`).  The structural
hypotheses are checked by :func:`~morsepoly.poset.check_hypotheses`,
re-exported here.  :func:`combinatorial_indices` indexes every element in
one pass with a single generality scan.  It reads only the order of g, so
the verifier runs it on the int order keys of the normalization trace, and
its report carries the normalized rationals.
"""

from __future__ import annotations

from .errors import Mismatch, NonGeneralFunction
from .morse import (
    Classification,
    MorseFunction,
    _normalize_trace,
)
from .poset import (
    ElementId,
    ParityRank,
    Poset,
    Record,
    chain_euler_characteristic,
    check_hypotheses,  # re-exported, so it still imports from this module
)


class IndexEntry(Record):
    __slots__ = ("element", "computed", "predicted", "critical")
    element: ElementId
    computed: int
    predicted: int
    critical: bool


class IndexReport(Record):
    """Per-element indices, the totals they satisfy, and the normalized input."""

    __slots__ = ("entries", "total", "chi", "n_even", "n_odd", "normalized")
    entries: tuple[IndexEntry, ...]
    total: int
    chi: int
    n_even: int
    n_odd: int
    normalized: MorseFunction


def _require_general(poset: Poset, g: MorseFunction) -> None:
    for a in sorted(poset.elements):
        for b in sorted(poset.strict_up_set(a)):
            if g[a] == g[b]:
                raise NonGeneralFunction((a, b))


def _index_at(poset: Poset, g: MorseFunction, b: ElementId) -> int:
    """The index of b, for a g already known to be general."""
    peak = g[b]
    below = [c for c in poset.strict_down_set(b) if g[c] < peak]
    above = [c for c in poset.strict_up_set(b) if g[c] < peak]
    return (1 - chain_euler_characteristic(poset, below)) * (
        1 - chain_euler_characteristic(poset, above)
    )


def combinatorial_index(poset: Poset, g: MorseFunction, b: ElementId) -> int:
    """Signed count of chains containing b on which g is maximal at b.

    Requires g to take distinct values on comparable pairs; equal values
    would make "maximal at b" ambiguous, so they are refused rather than
    tie-broken.
    """
    poset.require(b)
    _require_general(poset, g)
    return _index_at(poset, g, b)


def combinatorial_indices(poset: Poset, g: MorseFunction) -> dict[ElementId, int]:
    """:func:`combinatorial_index` of every element, in identifier order,
    scanning the comparable pairs for generality once for the whole pass."""
    _require_general(poset, g)
    return {b: _index_at(poset, g, b) for b in poset.sorted_elements}


def predicted_index(classification: Classification, mu: ParityRank, b: ElementId) -> int:
    """(-1)^parity for critical elements, 0 for ordinary ones."""
    if b not in classification.verdicts:
        raise KeyError(f"element {b!r} not classified")
    if classification.is_critical(b):
        return (-1) ** mu.values[b]
    return 0


def verify_representation(poset: Poset, f: MorseFunction) -> IndexReport:
    """End-to-end combinatorial check of the index equation.

    Verifies the structural hypotheses, normalizes f (taking the
    classification of f from that normalization), computes the chain-sum
    index of every element, and asserts it equals the parity prediction
    elementwise, that the indices sum to chi of the order complex, and that
    the critical-count difference N0 - N1 equals chi.  Any failed equation
    raises Mismatch, which indicates a bug rather than bad input.
    """
    mu = check_hypotheses(poset)  # includes the 2-wide check normalization needs
    trace = _normalize_trace(poset, f)  # validates and classifies f first
    classification, g = trace.classification, trace.result

    entries = []
    for b, computed in combinatorial_indices(poset, trace.keys).items():
        predicted = predicted_index(classification, mu, b)
        if computed != predicted:
            raise Mismatch(b, computed, predicted)
        entries.append(
            IndexEntry(
                element=b,
                computed=computed,
                predicted=predicted,
                critical=classification.is_critical(b),
            )
        )

    chi = chain_euler_characteristic(poset, poset.elements)
    total = sum(e.computed for e in entries)
    if total != chi:
        raise Mismatch(None, total, chi, what="index total vs Euler characteristic")
    n_even = sum(1 for e in entries if e.critical and mu.values[e.element] == 0)
    n_odd = sum(1 for e in entries if e.critical and mu.values[e.element] == 1)
    if n_even - n_odd != chi:
        raise Mismatch(None, n_even - n_odd, chi, what="critical count difference")
    return IndexReport(tuple(entries), total, chi, n_even, n_odd, normalized=g)
