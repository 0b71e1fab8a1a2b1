"""Exact rational embedding of the order complex, and the geometric index.

The order complex of a k-element poset is realized in k-dimensional space by
a single-pass construction: with elements p1..pk in identifier order, the
last element sits at g(pk) on the first axis, and every other pi sits at
g(pi) on the first axis plus the (i+1)-th standard basis vector.  The
difference vectors then carry distinct basis directions, so the k points are
affinely independent and span a (k-1)-simplex, while the first coordinate of
every vertex equals its function value exactly.

Projection onto the first coordinate axis is the fixed height function.  The
geometric index of a vertex counts, with sign (-1)^dimension, the simplices
of its closed star whose projection is maximal at that vertex.  Because the
first coordinates reproduce g, this is an independent re-computation of the
combinatorial chain-sum index, and :func:`cross_check` compares the two
elementwise.  The witness :func:`lower_star_indices` streams the chains of
the poset, the simplices of the order complex, in an iterative depth-first
walk that carries each chain's highest vertex, so every simplex costs one
O(1) step and none is built; each adds its sign at its highest vertex
(Banchoff's lower-star count).  The materialized forms are kept as oracles:
:func:`realize_complex` attaches the order complex's simplices to the
embedding, :func:`geometric_index` states the definition for one vertex,
and :func:`geometric_indices` counts every vertex over those simplices.
All coordinates are exact rationals; no floating point exists anywhere in
this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .chain_index import combinatorial_indices
from .errors import EmptyPoset, MissingValue, NotGeneral, UnknownElement
from .morse import MorseFunction
from .poset import ElementId, Poset, Record, order_complex


class Embedding(Record):
    """Vertex coordinates in k-space; the projection axis is coordinate 0."""

    __slots__ = ("dimension", "coordinates")
    dimension: int
    coordinates: Mapping[ElementId, tuple[Fraction, ...]]

    def height(self, element: ElementId) -> Fraction:
        return self.coordinates[element][0]


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
    k = len(ids)
    if k == 0:
        raise EmptyPoset("cannot embed an empty poset")
    missing = sorted(set(ids) - set(g.values))
    if missing:
        raise MissingValue(f"function has no value for {missing}")
    coordinates: dict[ElementId, tuple[Fraction, ...]] = {}
    zero = Fraction(0)
    for i, e in enumerate(ids):
        vec = [zero] * k
        vec[0] = Fraction(g[e])
        if i < k - 1:
            vec[i + 1] = Fraction(1)
        coordinates[e] = tuple(vec)
    return Embedding(dimension=k, coordinates=coordinates)


def realize_complex(poset: Poset, embedding: Embedding) -> GeometricComplex:
    """Attach the order-complex simplices to an embedding.

    Raises NotGeneral if two comparable elements share a first coordinate:
    such a pair spans an edge of the complex on which the height function
    cannot separate the endpoints.
    """
    for e in poset.elements:
        if e not in embedding.coordinates:
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
    if b not in complex_.embedding.coordinates:
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


def geometric_indices(complex_: GeometricComplex) -> dict[ElementId, int]:
    """:func:`geometric_index` of every vertex, in identifier order.

    One pass over the simplices: each adds (-1)^dimension at its highest
    vertex, and at no vertex when its greatest height is shared.  Heights
    are first replaced by their exact rank among the distinct heights, so
    equal heights share a rank and the pass compares ints, not Fractions.
    """
    heights = {v: coords[0] for v, coords in complex_.embedding.coordinates.items()}
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())))}
    level = {v: rank[h] for v, h in heights.items()}
    indices = dict.fromkeys(sorted(level), 0)
    for simplex in complex_.simplices:
        top = max(simplex, key=level.__getitem__)
        peak = level[top]
        if all(level[v] < peak for v in simplex if v != top):
            indices[top] += 1 if len(simplex) % 2 else -1
    return indices


def lower_star_indices(poset: Poset, embedding: Embedding) -> dict[ElementId, int]:
    """:func:`geometric_indices` of :func:`realize_complex`, streamed.

    Raises UnknownElement and NotGeneral exactly where
    :func:`realize_complex` does.  Then walks every chain with an iterative
    depth-first search from each element over its strict up-set, carrying
    the chain's last vertex, highest vertex, that vertex's height rank and
    the sign (-1)^dimension, so one step reaches one chain and adds its
    sign at its highest vertex.  Reads only the embedded heights and the
    up-sets; no simplex is built.
    """
    for e in poset.elements:
        if e not in embedding.coordinates:
            raise UnknownElement(f"embedding has no coordinates for {e!r}")
    heights = {v: coords[0] for v, coords in embedding.coordinates.items()}
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
    :func:`realize_complex` and :func:`geometric_indices` stay as oracles.
    """
    geometric = lower_star_indices(poset, embed_vertices(poset, g))
    return compare_indices(geometric, combinatorial_indices(poset, g))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix over the rationals by exact Gaussian elimination."""
    matrix = [list(row) for row in rows]
    if not matrix:
        return 0
    n_cols = len(matrix[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        lead = matrix[row][col]
        for r in range(row + 1, len(matrix)):
            if matrix[r][col] != 0:
                factor = matrix[r][col] / lead
                for c in range(col, n_cols):
                    matrix[r][c] -= factor * matrix[row][c]
        rank += 1
        row += 1
        if row == len(matrix):
            break
    return rank


def difference_matrix(embedding: Embedding) -> list[list[Fraction]]:
    """k x (k-1) matrix whose columns are the point differences to the last point."""
    ids = sorted(embedding.coordinates)
    base = embedding.coordinates[ids[-1]]
    columns = [
        [embedding.coordinates[e][r] - base[r] for r in range(embedding.dimension)]
        for e in ids[:-1]
    ]
    # Transpose columns into rows of a k x (k-1) matrix.
    return [[col[r] for col in columns] for r in range(embedding.dimension)]


def spans_full_simplex(embedding: Embedding) -> bool:
    """True iff the embedded points are affinely independent."""
    k = embedding.dimension
    if k == 1:
        return True
    return matrix_rank(difference_matrix(embedding)) == k - 1
