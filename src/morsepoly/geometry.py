"""Exact rational embedding of the order complex, and the geometric index.

The order complex of a k-element poset is realized in k-dimensional space by
one placement rule: with elements p1..pk in identifier order, the last
element sits at g(pk) on the first axis, and every other pi sits at g(pi) on
the first axis plus the (i+1)-th standard basis vector.  The difference
vectors then carry distinct basis directions, so the k points are affinely
independent and span a (k-1)-simplex, while the first coordinate of every
vertex equals its function value exactly.  So :func:`embed_vertices` returns
only these heights, g itself, and :func:`morsepoly.jsonio.embedding_to_obj`
writes the rule out.

Projection onto the first coordinate axis is the fixed height function.  The
geometric index of a vertex counts, with sign (-1)^dimension, the simplices
of its closed star whose projection is maximal at that vertex.  Because the
heights reproduce g, this is an independent re-computation of the
combinatorial chain-sum index, and :func:`compare_indices` compares the two
elementwise.  The witness :func:`lower_star_indices` counts the chains of
the poset, the simplices of the order complex, grouped by their last and
highest vertex, so the work is polynomial in the poset and no simplex is
built or visited; each chain adds its sign at its highest vertex
(Banchoff's lower-star count).  The materialized forms are oracles in
:mod:`morsepoly.oracles`: ``realize_complex`` attaches the order complex's
simplices to the embedding, ``geometric_index`` states the definition for
one vertex, ``geometric_indices`` counts every vertex over those simplices,
and ``cross_check`` runs the witness against the combinatorial indices.
All coordinates are exact rationals; no floating point exists anywhere in
this module.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Mapping

from .errors import EmptyPoset, NotGeneral
from .morse import MorseFunction, _require_values
from .poset import ElementId, Poset, Record, _forwarding


class CrossCheckReport(Record):
    # (element, geometric index, combinatorial index) for every disagreement.
    mismatches: tuple[tuple[ElementId, int, int], ...]
    # Geometric index of every element, for reporting.
    indices: Mapping[ElementId, int]

    def __bool__(self) -> bool:
        return not self.mismatches

    ok = property(__bool__)


def embed_vertices(poset: Poset, g: MorseFunction) -> dict[ElementId, Fraction]:
    """The poset's elements placed in k-space, as their heights: the first
    coordinates, g on the poset in identifier order."""
    ids = poset.elements
    if not ids:
        raise EmptyPoset("cannot embed an empty poset")
    _require_values(poset, g.values)
    return {e: g[e] for e in ids}


def _levels(heights: Mapping[ElementId, Fraction]) -> dict[ElementId, int]:
    """Each element's rank among the distinct heights, by one sort and a
    neighbour comparison.  No height is hashed: the spread sweep's dyadic
    heights p / 2**k hash alike once every 61 steps of k."""
    level, previous, rank = {}, None, -1
    for v, h in sorted(heights.items(), key=itemgetter(1)):
        if h != previous:
            previous, rank = h, rank + 1
        level[v] = rank
    return level


def lower_star_indices(poset: Poset, heights: Mapping[ElementId, Fraction]) -> dict[ElementId, int]:
    """:func:`~morsepoly.oracles.geometric_indices` of
    :func:`~morsepoly.oracles.realize_complex`, counted without listing a
    chain.

    Raises MissingValue and NotGeneral exactly where the oracle
    ``realize_complex`` does.  Then counts the chains grouped by their
    state: a chain's extensions and the vertex its sign lands on depend
    only on its last vertex and its highest vertex, so ``weight[last]``
    maps each highest vertex to the signed count (-1)^dimension of the
    chains in that state.  Visiting ``last`` in topological order, every
    chain ending there is complete: each state adds its weight at its
    highest vertex and pushes the negated weight to every element above
    ``last``.  The work is at most the sum over t of |closed down-set(t)|
    times |up-set(t)|.  Reads only the embedded heights, the up-sets and
    the topological order.
    """
    _require_values(poset, heights)
    level = _levels(heights)
    for a in poset.elements:
        for b in poset._above[a]:
            if level[b] == level[a]:
                raise NotGeneral((a, b))
    indices = dict.fromkeys(sorted(level), 0)
    # Comparable vertices have distinct levels now, so every chain peaks at
    # exactly one vertex, and extending it needs one comparison.
    weight = {a: {a: 1} for a in poset.elements}
    for last in poset.topological_order:
        up = [(t, level[t], weight[t]) for t in poset._above[last]]
        for top, w in weight.pop(last).items():
            indices[top] += w
            peak = level[top]
            for t, t_level, states in up:
                key = t if t_level > peak else top
                states[key] = states.get(key, 0) - w
    return indices


def compare_indices(
    geometric: Mapping[ElementId, int], combinatorial: Mapping[ElementId, int]
) -> CrossCheckReport:
    """Elementwise comparison of geometric indices against combinatorial ones."""
    mismatches = tuple(
        (b, geo, combinatorial[b]) for b, geo in geometric.items() if geo != combinatorial[b]
    )
    return CrossCheckReport(mismatches, geometric)


# The benchmark's layer pass (bench/layers.py) imports these from here.
__getattr__ = _forwarding(__name__, {
    "cross_check": "oracles",
    "geometric_index": "oracles",
    "realize_complex": "oracles",
})
