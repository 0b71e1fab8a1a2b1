"""Brute-force references and materialized forms; no command imports this module.

Each definition here states a fact by direct enumeration, exhaustive check
or a materialized structure, so the tests can hold the polynomial code
paths to it:

- :func:`enumerate_chains`, :func:`order_complex` and
  :func:`euler_characteristic`, the order complex built simplex by simplex,
  against the chain counts of :func:`~morsepoly.poset.chain_counts` and
  Hall's recursion in :mod:`morsepoly.hypotheses`;
- the signed chain sums the index argument rests on (:func:`chain_sum_top`
  and the two vanishing sums of a cover pair), against Hall's recursion in
  :mod:`morsepoly.chain_index`;
- :func:`realize_complex`, which attaches those simplices to the heights
  of :func:`~morsepoly.geometry.embed_vertices`,
  :func:`geometric_index`, the definition for one vertex, and
  :func:`geometric_indices`, every vertex counted over the materialized
  order complex, against the grouped count of the witness
  :func:`~morsepoly.geometry.lower_star_indices`; :func:`cross_check` runs
  that witness against the combinatorial indices;
- :func:`matrix_rank`, :func:`difference_matrix` and
  :func:`spans_full_simplex`, which confirm by exact Gaussian elimination
  that the points ``embed`` prints span a full simplex;
- :func:`check_exclusivity`, its offenders a plain tuple (the 2-wide verdict
  is :func:`~morsepoly.hypotheses.is_two_wide`'s), and
  :func:`monotone_extension_holds`, which audit a whole function for the
  properties the normalization pipeline guarantees;
- :func:`_contracted_is_acyclic`, the whole-graph cycle test after merging
  cover pairs, against the incremental reachability test of
  :func:`~morsepoly.generators._sample_matching`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .chain_index import _index_at
from .errors import CycleDetected, NotACover, NotGeneral, UnknownElement
from .geometry import CrossCheckReport, compare_indices, embed_vertices, lower_star_indices
from .hypotheses import is_two_wide
from .jsonio import embedding_to_obj
from .morse import MorseFunction, _require_total, _require_values, _scan
from .poset import ElementId, Poset, Record, _order


class SimplicialComplex(Record):
    """Abstract simplicial complex: vertex set plus downward-closed simplices."""

    vertices: tuple[ElementId, ...]
    simplices: frozenset[frozenset[ElementId]]

    def counts_by_dimension(self) -> tuple[int, ...]:
        """Number of simplices in each dimension, index = dimension."""
        if not self.simplices:
            return ()
        top = max(len(s) for s in self.simplices)
        counts = [0] * top
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return tuple(counts)


def enumerate_chains(
    poset: Poset, subset: Iterable[ElementId] | None = None
) -> list[tuple[ElementId, ...]]:
    """All non-empty chains within the given subset (default: the whole
    poset), each as its members in increasing order.  A chain of n members
    has length n - 1.

    Depth-first over the comparability graph with elements visited in
    identifier order, so the output order is deterministic.
    """
    if subset is None:
        ids = sorted(poset.elements)
    else:
        ids = sorted(set(subset))
        for e in ids:
            poset.require(e)
    member_set = set(ids)
    # Successors in reverse identifier order, so the stack pops them in order.
    succ = {
        e: tuple(t for t in sorted(poset.strict_up_set(e), reverse=True) if t in member_set)
        for e in ids
    }

    chains: list[tuple[ElementId, ...]] = []
    stack = [(e,) for e in reversed(ids)]
    pop, push = stack.pop, stack.append
    while stack:
        chain = pop()
        chains.append(chain)
        for t in succ[chain[-1]]:
            push(chain + (t,))
    return chains


def order_complex(poset: Poset) -> SimplicialComplex:
    """Simplicial complex with one simplex per non-empty chain of the poset."""
    simplices = frozenset(map(frozenset, enumerate_chains(poset)))
    return SimplicialComplex(vertices=poset.elements, simplices=simplices)


def euler_characteristic(complex_: SimplicialComplex) -> int:
    """Alternating sum over simplices of (-1)^dimension; 0 for the empty complex."""
    return sum((-1) ** (len(s) - 1) for s in complex_.simplices)


def _chains_through_top(poset: Poset, b: ElementId):
    """Chains of the closed down-set of b that contain b."""
    poset.require(b)
    return [c for c in enumerate_chains(poset, poset.strict_down_set(b) | {b}) if b in c]


def chain_sum_top(poset: Poset, b: ElementId) -> int:
    """Signed count of chains below-or-at b containing b.

    Under the structural hypotheses this equals (-1)^parity(b).
    """
    return sum((-1) ** (len(c) - 1) for c in _chains_through_top(poset, b))


def chain_sum_excluding(poset: Poset, a: ElementId, b: ElementId) -> int:
    """Signed count of chains below-or-at b containing b but avoiding a.

    Requires a covered by b; the sum vanishes under the structural hypotheses.
    """
    if (a, b) not in poset.covers:
        raise NotACover(f"({a!r}, {b!r}) is not a cover pair")
    return sum((-1) ** (len(c) - 1) for c in _chains_through_top(poset, b) if a not in c)


def chain_sum_lower(poset: Poset, a: ElementId, b: ElementId) -> int:
    """Signed count of chains below-or-at b containing a, for a covered by b.

    Vanishes under the structural hypotheses.
    """
    if (a, b) not in poset.covers:
        raise NotACover(f"({a!r}, {b!r}) is not a cover pair")
    return sum(
        (-1) ** (len(c) - 1)
        for c in enumerate_chains(poset, poset.strict_down_set(b) | {b})
        if a in c
    )


class GeometricComplex(Record):
    """Order-complex simplices attached to embedded vertices, given by their
    heights (:func:`~morsepoly.geometry.embed_vertices`)."""

    heights: Mapping[ElementId, Fraction]
    simplices: frozenset[frozenset[ElementId]]


def realize_complex(poset: Poset, heights: Mapping[ElementId, Fraction]) -> GeometricComplex:
    """Attach the order-complex simplices to the embedded heights.

    Raises MissingValue if an element has no height, and NotGeneral if two
    comparable elements share one: such a pair spans an edge of the complex
    on which the height function cannot separate the endpoints.
    """
    _require_values(poset, heights)
    for a in sorted(poset.elements):
        for b in sorted(poset.strict_up_set(a)):
            if heights[a] == heights[b]:
                raise NotGeneral((a, b))
    return GeometricComplex(heights=heights, simplices=order_complex(poset).simplices)


def geometric_index(complex_: GeometricComplex, b: ElementId) -> int:
    """Signed count of closed-star simplices whose height peaks at b.

    The vertex itself contributes +1 in dimension 0.  Computed purely from
    the embedded coordinates.
    """
    heights = complex_.heights
    if b not in heights:
        raise UnknownElement(f"unknown vertex {b!r}")
    peak = heights[b]
    total = 0
    for simplex in complex_.simplices:
        if b not in simplex:
            continue
        if all(heights[v] < peak for v in simplex if v != b):
            total += (-1) ** (len(simplex) - 1)
    return total


def geometric_indices(complex_: GeometricComplex) -> dict[ElementId, int]:
    """:func:`~morsepoly.geometry.geometric_index` of every vertex, in
    identifier order.

    One pass over the simplices: each adds (-1)^dimension at its highest
    vertex, and at no vertex when its greatest height is shared.  Heights
    are first replaced by their exact rank among the distinct heights, so
    equal heights share a rank and the pass compares ints, not Fractions.
    """
    heights = complex_.heights
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())))}
    level = {v: rank[h] for v, h in heights.items()}
    indices = dict.fromkeys(sorted(level), 0)
    for simplex in complex_.simplices:
        top = max(simplex, key=level.__getitem__)
        peak = level[top]
        if all(level[v] < peak for v in simplex if v != top):
            indices[top] += 1 if len(simplex) % 2 else -1
    return indices


def cross_check(poset: Poset, g: MorseFunction) -> CrossCheckReport:
    """Compare geometric and combinatorial indices for every element.

    The two computations share only the function g: one counts the chains
    of the poset, the simplices of the embedded order complex, grouped by
    their last and highest vertex in
    :func:`~morsepoly.geometry.lower_star_indices`, the other by Hall's
    recursion; neither lists them.  The materialized
    :func:`realize_complex` and :func:`geometric_indices` state what both
    count.  The witness raises MissingValue and NotGeneral, so Hall's
    recursion runs only on a general g.
    """
    geometric = lower_star_indices(poset, embed_vertices(poset, g))
    return compare_indices(geometric, {b: _index_at(poset, g, b) for b in poset.elements})


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


def difference_matrix(heights: Mapping[ElementId, Fraction]) -> list[list[Fraction]]:
    """k x (k-1) matrix of the differences to the last of the points ``embed`` prints."""
    rows = embedding_to_obj(heights)["coordinates"].values()
    *points, base = ([Fraction(x) for x in row] for row in rows)
    return [[point[r] - base[r] for point in points] for r in range(len(base))]


def spans_full_simplex(heights: Mapping[ElementId, Fraction]) -> bool:
    """True iff the points ``embed`` prints for these heights are affinely independent."""
    return matrix_rank(difference_matrix(heights)) == len(heights) - 1


def check_exclusivity(poset: Poset, f: MorseFunction) -> tuple[tuple[ElementId, ...], ...]:
    """Elements violating in both directions, each as (element, its first
    non-increasing lower cover, its first non-increasing upper cover).

    On a 2-wide poset such an element cannot exist for a valid discrete Morse
    function; finding one there means this library is broken, so it raises.
    On other posets the offenders are returned as a demonstration.
    """
    _require_total(poset, f)
    scan = _scan(poset, f.values, poset.elements)
    offenders = tuple((b, below[0], above[0]) for b, below, above in scan if below and above)
    if offenders and is_two_wide(poset):
        raise AssertionError(
            f"exclusivity broken on a 2-wide poset at {offenders[0][0]!r}; "
            f"this is an implementation bug"
        )
    return offenders


def monotone_extension_holds(poset: Poset, g: MorseFunction) -> bool:
    """Exhaustive monotone-extension check.

    For every cover x < y with g(x) < g(y): every z < x satisfies
    g(z) < g(y), and every w > y satisfies g(x) < g(w).  This is the
    two-sided form; it implies the four-element (z, x, y, w) statement.
    """
    values = g.values
    for x, y in sorted(poset.covers):
        if values[x] >= values[y]:
            continue
        for z in poset.strict_down_set(x):
            if values[z] >= values[y]:
                return False
        for w in poset.strict_up_set(y):
            if values[x] >= values[w]:
                return False
    return True


def _contracted_is_acyclic(poset: Poset, node: dict[ElementId, ElementId]) -> bool:
    """Cycle test on the cover digraph after merging matched pairs; ``node``
    maps each element to the node that holds it."""
    edges = {(node[u], node[v]) for u, v in poset.covers if node[u] != node[v]}
    try:
        _order(set(node.values()), edges)
    except CycleDetected:
        return False
    return True
