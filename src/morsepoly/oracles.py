"""Brute-force references for the fast paths; no command imports this module.

Each definition here states a fact by direct enumeration or exhaustive
check, so the tests can hold the polynomial code paths to it:

- the signed chain sums the index argument rests on (:func:`chain_sum_top`
  and the two vanishing sums of a cover pair), against Hall's recursion in
  :mod:`morsepoly.chain_index`;
- :func:`geometric_indices`, the geometric index of every vertex counted
  over the materialized order complex, against the streamed witness
  :func:`~morsepoly.geometry.lower_star_indices`;
- :func:`matrix_rank`, :func:`difference_matrix` and
  :func:`spans_full_simplex`, which confirm by exact Gaussian elimination
  that the embedding spans a full simplex;
- :func:`check_exclusivity` and :func:`monotone_extension_holds`, which
  audit a whole function for the properties the normalization pipeline
  guarantees.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NotACover
from .geometry import Embedding, GeometricComplex
from .morse import MorseFunction, _require_total, _scan
from .poset import ElementId, Poset, Record, enumerate_chains, is_two_wide


class ExclusivityReport(Record):
    """Elements with non-increasing covers in both directions, if any."""

    __slots__ = ("two_wide", "offenders")
    two_wide: bool
    offenders: tuple[tuple[ElementId, ElementId, ElementId], ...]  # (element, below, above)


def _chains_through_top(poset: Poset, b: ElementId):
    """Chains of the closed down-set of b that contain b."""
    poset.require(b)
    return [c for c in enumerate_chains(poset, poset.closed_down_set(b)) if b in c]


def chain_sum_top(poset: Poset, b: ElementId) -> int:
    """Signed count of chains below-or-at b containing b.

    Under the structural hypotheses this equals (-1)^parity(b).
    """
    return sum((-1) ** c.length for c in _chains_through_top(poset, b))


def chain_sum_excluding(poset: Poset, a: ElementId, b: ElementId) -> int:
    """Signed count of chains below-or-at b containing b but avoiding a.

    Requires a covered by b; the sum vanishes under the structural hypotheses.
    """
    if (a, b) not in poset.covers:
        raise NotACover(f"({a!r}, {b!r}) is not a cover pair")
    return sum((-1) ** c.length for c in _chains_through_top(poset, b) if a not in c)


def chain_sum_lower(poset: Poset, a: ElementId, b: ElementId) -> int:
    """Signed count of chains below-or-at b containing a, for a covered by b.

    Vanishes under the structural hypotheses.
    """
    if (a, b) not in poset.covers:
        raise NotACover(f"({a!r}, {b!r}) is not a cover pair")
    return sum(
        (-1) ** c.length
        for c in enumerate_chains(poset, poset.closed_down_set(b))
        if a in c
    )


def geometric_indices(complex_: GeometricComplex) -> dict[ElementId, int]:
    """:func:`~morsepoly.geometry.geometric_index` of every vertex, in
    identifier order.

    One pass over the simplices: each adds (-1)^dimension at its highest
    vertex, and at no vertex when its greatest height is shared.  Heights
    are first replaced by their exact rank among the distinct heights, so
    equal heights share a rank and the pass compares ints, not Fractions.
    """
    heights = complex_.embedding.heights
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())))}
    level = {v: rank[h] for v, h in heights.items()}
    indices = dict.fromkeys(sorted(level), 0)
    for simplex in complex_.simplices:
        top = max(simplex, key=level.__getitem__)
        peak = level[top]
        if all(level[v] < peak for v in simplex if v != top):
            indices[top] += 1 if len(simplex) % 2 else -1
    return indices


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
    *points, base = (vec for _, vec in embedding.vectors())
    return [[point[r] - base[r] for point in points] for r in range(embedding.dimension)]


def spans_full_simplex(embedding: Embedding) -> bool:
    """True iff the embedded points are affinely independent."""
    k = embedding.dimension
    if k == 1:
        return True
    return matrix_rank(difference_matrix(embedding)) == k - 1


def check_exclusivity(poset: Poset, f: MorseFunction) -> ExclusivityReport:
    """Report elements violating in both directions.

    On a 2-wide poset such an element cannot exist for a valid discrete Morse
    function; finding one there means this library is broken, so it raises.
    On other posets the offenders are returned as a demonstration.
    """
    _require_total(poset, f)
    scan = _scan(poset, f.values, poset.elements)
    offenders = [(b, below[0], above[0]) for b, below, above in scan if below and above]
    two_wide = bool(is_two_wide(poset))
    if two_wide and offenders:
        raise AssertionError(
            f"exclusivity broken on a 2-wide poset at {offenders[0][0]!r}; "
            f"this is an implementation bug"
        )
    return ExclusivityReport(two_wide=two_wide, offenders=tuple(offenders))


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
