"""Exact rational embedding of the order complex, and the geometric index.

The order complex of a k-element poset is realized in k-dimensional space by
one placement rule: with elements p1..pk in identifier order, the last
element sits at g(pk) on the first axis, and every other pi sits at g(pi) on
the first axis plus the (i+1)-th standard basis vector.  The difference
vectors then carry distinct basis directions, so the k points are affinely
independent and span a (k-1)-simplex, while the first coordinate of every
vertex equals its function value exactly.  So an :class:`Embedding` stores
only these heights, and :meth:`Embedding.vectors` writes the rule out.

Projection onto the first coordinate axis is the fixed height function.  The
geometric index of a vertex counts, with sign (-1)^dimension, the simplices
of its closed star whose projection is maximal at that vertex.  Because the
heights reproduce g, this is an independent re-computation of the
combinatorial chain-sum index, and :func:`cross_check` compares the two
elementwise.  The witness :func:`lower_star_indices` streams the chains of
the poset, the simplices of the order complex, in an iterative depth-first
walk that carries each chain's highest vertex, so every simplex costs one
O(1) step and none is built; each adds its sign at its highest vertex
(Banchoff's lower-star count).  The materialized forms are kept as oracles:
:func:`realize_complex` attaches the order complex's simplices to the
embedding, :func:`geometric_index` states the definition for one vertex,
and :func:`morsepoly.oracles.geometric_indices` counts every vertex over
those simplices.  All coordinates are exact rationals; no floating point
exists anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from .chain_index import combinatorial_indices
from .errors import EmptyPoset, MissingValue, NotGeneral, UnknownElement
from .morse import MorseFunction
from .poset import ElementId, Poset, Record, order_complex


class Embedding(Record):
    """Vertices in k-space, stored as their heights on coordinate 0."""

    __slots__ = ("heights",)
    heights: Mapping[ElementId, Fraction]

    @property
    def dimension(self) -> int:
        return len(self.heights)

    def height(self, element: ElementId) -> Fraction:
        return self.heights[element]

    def vectors(self) -> Iterator[tuple[ElementId, tuple[Fraction, ...]]]:
        """(element, coordinate vector) in identifier order, by the placement
        rule of the module docstring."""
        ids = sorted(self.heights)
        for i, e in enumerate(ids):
            vec = [Fraction(0)] * len(ids)
            vec[0] = self.heights[e]
            if i < len(ids) - 1:
                vec[i + 1] = Fraction(1)
            yield e, tuple(vec)


class GeometricComplex(Record):
    """Order-complex simplices attached to embedded vertex coordinates."""

    __slots__ = ("embedding", "simplices")
    embedding: Embedding
    simplices: frozenset[frozenset[ElementId]]


class CrossCheckReport(Record):
    __slots__ = ("ok", "mismatches", "indices")
    ok: bool
    # (element, geometric index, combinatorial index) for every disagreement.
    mismatches: tuple[tuple[ElementId, int, int], ...]
    # Geometric index of every element, for reporting.
    indices: Mapping[ElementId, int]

    @property
    def first_mismatch(self) -> tuple[ElementId, int, int] | None:
        return self.mismatches[0] if self.mismatches else None

    def __bool__(self) -> bool:
        return self.ok


def embed_vertices(poset: Poset, g: MorseFunction) -> Embedding:
    """Place the poset's elements in k-space with first coordinates g."""
    ids = poset.sorted_elements
    if not ids:
        raise EmptyPoset("cannot embed an empty poset")
    missing = sorted(set(ids) - set(g.values))
    if missing:
        raise MissingValue(f"function has no value for {missing}")
    return Embedding({e: g[e] for e in ids})


def realize_complex(poset: Poset, embedding: Embedding) -> GeometricComplex:
    """Attach the order-complex simplices to an embedding.

    Raises NotGeneral if two comparable elements share a first coordinate:
    such a pair spans an edge of the complex on which the height function
    cannot separate the endpoints.
    """
    for e in poset.elements:
        if e not in embedding.heights:
            raise UnknownElement(f"embedding has no coordinates for {e!r}")
    for a in sorted(poset.elements):
        for b in sorted(poset.strict_up_set(a)):
            if embedding.height(a) == embedding.height(b):
                raise NotGeneral((a, b))
    return GeometricComplex(embedding=embedding, simplices=order_complex(poset).simplices)


def geometric_index(complex_: GeometricComplex, b: ElementId) -> int:
    """Signed count of closed-star simplices whose height peaks at b.

    The vertex itself contributes +1 in dimension 0.  Computed purely from
    the embedded coordinates.
    """
    if b not in complex_.embedding.heights:
        raise UnknownElement(f"unknown vertex {b!r}")
    height = complex_.embedding.height
    peak = height(b)
    total = 0
    for simplex in complex_.simplices:
        if b not in simplex:
            continue
        if all(height(v) < peak for v in simplex if v != b):
            total += (-1) ** (len(simplex) - 1)
    return total


def lower_star_indices(poset: Poset, embedding: Embedding) -> dict[ElementId, int]:
    """:func:`~morsepoly.oracles.geometric_indices` of
    :func:`realize_complex`, streamed.

    Raises UnknownElement and NotGeneral exactly where
    :func:`realize_complex` does.  Then walks every chain with an iterative
    depth-first search from each element over its strict up-set, carrying
    the chain's last vertex, highest vertex, that vertex's height rank and
    the sign (-1)^dimension, so one step reaches one chain and adds its
    sign at its highest vertex.  Reads only the embedded heights and the
    up-sets; no simplex is built.
    """
    heights = embedding.heights
    for e in poset.elements:
        if e not in heights:
            raise UnknownElement(f"embedding has no coordinates for {e!r}")
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())))}
    level = {v: rank[h] for v, h in heights.items()}
    up = _general_up_sets(poset, level)
    indices = dict.fromkeys(sorted(level), 0)
    # Comparable vertices have distinct levels now, so no chain holds two
    # equal heights: each chain peaks at exactly one vertex, and extending
    # it needs one comparison and no tie state.
    stack = [(a, a, level[a], 1) for a in up]
    pop, push = stack.pop, stack.append
    while stack:
        last, top, peak, sign = pop()
        indices[top] += sign
        sign = -sign
        for t, t_level in up[last]:
            if t_level > peak:
                push((t, t, t_level, sign))
            else:
                push((t, top, peak, sign))
    return indices


def _general_up_sets(
    poset: Poset, level: Mapping[ElementId, int]
) -> dict[ElementId, list[tuple[ElementId, int]]]:
    """Each element's strict up-set in identifier order, as (element, level)
    pairs; raises NotGeneral at the first comparable pair with equal levels,
    scanning in :func:`realize_complex`'s order."""
    up: dict[ElementId, list[tuple[ElementId, int]]] = {}
    for a in sorted(poset.elements):
        a_level = level[a]
        pairs = up[a] = []
        for b in sorted(poset.strict_up_set(a)):
            b_level = level[b]
            if b_level == a_level:
                raise NotGeneral((a, b))
            pairs.append((b, b_level))
    return up


def compare_indices(
    geometric: Mapping[ElementId, int], combinatorial: Mapping[ElementId, int]
) -> CrossCheckReport:
    """Elementwise comparison of geometric indices against combinatorial ones."""
    mismatches = tuple(
        (b, geo, combinatorial[b]) for b, geo in geometric.items() if geo != combinatorial[b]
    )
    return CrossCheckReport(ok=not mismatches, mismatches=mismatches, indices=geometric)


def cross_check(poset: Poset, g: MorseFunction) -> CrossCheckReport:
    """Compare geometric and combinatorial indices for every element.

    The two computations share only the function g: one streams the chains
    of the poset, the simplices of the embedded order complex, through
    :func:`lower_star_indices` without building any, the other counts
    chains by Hall's recursion without listing them.  The materialized
    :func:`realize_complex` and :func:`~morsepoly.oracles.geometric_indices`
    stay as oracles.
    """
    geometric = lower_star_indices(poset, embed_vertices(poset, g))
    return compare_indices(geometric, combinatorial_indices(poset, g))
