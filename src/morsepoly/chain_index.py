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
Hall's recursion (:func:`~morsepoly.hypotheses.chain_weights`).  The structural
hypotheses are checked by :func:`~morsepoly.hypotheses.check_hypotheses`,
re-exported here.  :func:`combinatorial_index` scans g for generality on
every call.  The index reads only the order of g, so the verifier indexes
the int order keys of the normalization trace, which are injective and so
need no generality scan, and its report carries the normalized rationals.
"""

from __future__ import annotations

from .errors import Mismatch, NotGeneral, UnknownElement
from .hypotheses import (
    _chain_weights,
    check_hypotheses,  # re-exported, so it still imports from this module
)
from .morse import Classification, MorseFunction, _require_values
from .normalization import _normalize_trace
from .poset import ElementId, Poset, Record


class IndexEntry(Record):
    element: ElementId
    computed: int
    predicted: int
    critical: bool


class IndexReport(Record):
    """Per-element indices, the totals they satisfy, and the normalized input."""

    entries: tuple[IndexEntry, ...]
    chi: int
    n_even: int
    n_odd: int
    normalized: MorseFunction
    total = property(lambda self: sum(e.computed for e in self.entries))


def _require_general(poset: Poset, g: MorseFunction) -> None:
    _require_values(poset, g.values)
    for a in poset.elements:
        for b in poset._above[a]:
            if g[a] == g[b]:
                raise NotGeneral((a, b))


def _index_at(poset: Poset, g: MorseFunction, b: ElementId) -> int:
    """The index of b, for a g already known to be general."""
    peak = g[b]
    below = _chain_weights(poset, [c for c in poset._below[b] if g[c] < peak])
    above = _chain_weights(poset, [c for c in poset._above[b] if g[c] < peak])
    return (1 - sum(below.values())) * (1 - sum(above.values()))


def combinatorial_index(poset: Poset, g: MorseFunction, b: ElementId) -> int:
    """Signed count of chains containing b on which g is maximal at b.

    Requires g to take a value at every element (MissingValue otherwise;
    values at non-elements are ignored) and distinct values on comparable
    pairs; equal values would make "maximal at b" ambiguous, so they are
    refused (NotGeneral) rather than tie-broken.
    """
    poset.require(b)
    _require_general(poset, g)
    return _index_at(poset, g, b)


def predicted_index(classification: Classification, mu: dict[ElementId, int], b: ElementId) -> int:
    """(-1)^parity for critical elements, 0 for ordinary ones."""
    if b not in classification.witness:
        raise UnknownElement(f"element {b!r} not classified")
    if classification.is_critical(b):
        return (-1) ** mu[b]
    return 0


def verify_representation(poset: Poset, f: MorseFunction) -> IndexReport:
    """End-to-end combinatorial check of the index equation.

    Verifies the structural hypotheses, normalizes f (taking the
    classification of f from that normalization), computes the chain-sum
    index of every element, and asserts it equals the parity prediction
    elementwise, that the indices sum to chi of the order complex, and that
    the critical-count difference N0 - N1 equals chi.  Once the hypotheses
    hold, chi is the alternating count of elements by parity, so Hall's
    recursion runs over the whole poset once, in the Eulerian check.  Any
    failed equation raises Mismatch, which indicates a bug rather than bad
    input.
    """
    mu = check_hypotheses(poset)  # includes the 2-wide check normalization needs
    trace = _normalize_trace(poset, f)  # validates and classifies f first
    classification, g = trace.classification, trace.result

    # The trace's keys are injective, so general: index them without a scan.
    entries = []
    for b in poset.elements:
        computed = _index_at(poset, trace.keys, b)
        predicted = predicted_index(classification, mu, b)
        if computed != predicted:
            raise Mismatch(b, computed, predicted)
        entries.append(IndexEntry(element=b, computed=computed, predicted=predicted,
                                  critical=classification.is_critical(b)))

    # check_hypotheses has shown every chain weight w(x) = (-1)^mu(x): w = 1
    # at a minimal x, and elsewhere 1 - w(x) = (-1)^(mu(x)+1) + 1.  So chi,
    # the sum of w, is the alternating count of elements.
    chi = len(poset) - 2 * sum(mu.values())
    n_even = sum(1 for e in entries if e.critical and mu[e.element] == 0)
    n_odd = sum(1 for e in entries if e.critical and mu[e.element] == 1)
    report = IndexReport(tuple(entries), chi, n_even, n_odd, normalized=g)
    if report.total != chi:
        raise Mismatch(None, report.total, chi, what="index total vs Euler characteristic")
    if n_even - n_odd != chi:
        raise Mismatch(None, n_even - n_odd, chi, what="critical count difference")
    return report
