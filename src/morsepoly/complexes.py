"""Face posets of simplicial and cellular complex descriptions.

Simplicial input lists maximal simplices as vertex-id sets; every non-empty
subset becomes a face, identified by its sorted comma-joined vertex ids, and
covers are the codimension-1 containments.  The resulting poset always
carries rank = dimension and parity = dimension mod 2.

Cellular input lists cells with explicit dimensions and boundary references.
Only poset-level facts can be checked from such a description, so ingestion
derives the containment order, recomputes true covers by transitive
reduction, and validates the declared dimensions as a rank function (so the
poset is parity-graded by dimension mod 2).  It does not claim the input is
a regular cell complex.  The other two structural properties (2-wide,
downward Eulerian) are checked where they are needed, by ``check`` and by
the verifier; they are necessary for a regular-complex face poset but not
sufficient, and a poset passing all three may still fail to be one (for
example when some cell's strict boundary poset has a disconnected order
complex).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .chain_index import check_hypotheses
from .errors import HypothesisViolated, MalformedSpec, Mismatch, RankConflict
from .morse import MorseFunction, classify
from .poset import (
    ElementId,
    ParityRank,
    Poset,
    RankFunction,
    Record,
    build_poset,
    chain_euler_characteristic,
    transitive_reduction,
)

FACE_SEPARATOR = ","


class CellSpec(Record):
    __slots__ = ("id", "dim", "boundary")
    id: str
    dim: int
    boundary: tuple[str, ...]


class ComplexSpec(Record):
    """Either a list of maximal simplices or a list of explicit cells."""

    __slots__ = ("kind", "maximal_simplices", "cells")
    kind: str  # "simplicial" | "cellular"
    maximal_simplices: tuple[tuple[str, ...], ...]
    cells: tuple[CellSpec, ...]
    _defaults = {"maximal_simplices": (), "cells": ()}


class FacePoset(Record):
    __slots__ = ("poset", "rank", "parity")
    poset: Poset
    rank: RankFunction
    parity: ParityRank


class MorseInequalityReport(Record):
    """Critical-cell counts per dimension and their alternating sum."""

    __slots__ = ("counts", "alternating_sum", "chi")
    counts: tuple[int, ...]
    alternating_sum: int
    chi: int


def face_id(vertices) -> str:
    """Canonical identifier of a face: sorted vertex ids joined by commas."""
    return FACE_SEPARATOR.join(sorted(vertices))


def _check_vertex_id(vertex: str) -> None:
    if not vertex:
        raise MalformedSpec("empty vertex id")
    if FACE_SEPARATOR in vertex:
        raise MalformedSpec(
            f"vertex id {vertex!r} contains {FACE_SEPARATOR!r}, which is reserved "
            f"as the face-id separator"
        )


def face_poset_simplicial(spec: ComplexSpec) -> FacePoset:
    """Face poset of a simplicial complex given by its maximal simplices."""
    if spec.kind != "simplicial":
        raise MalformedSpec(f"expected a simplicial spec, got kind {spec.kind!r}")
    faces: set[frozenset[str]] = set()
    for simplex in spec.maximal_simplices:
        if not simplex:
            raise MalformedSpec("empty simplex in maximal_simplices")
        if len(set(simplex)) != len(simplex):
            raise MalformedSpec(f"duplicate vertex in simplex {simplex!r}")
        for v in simplex:
            _check_vertex_id(v)
        for size in range(1, len(simplex) + 1):
            for face in combinations(sorted(simplex), size):
                faces.add(frozenset(face))

    by_id = {face_id(f): f for f in faces}
    elements = sorted(by_id)
    covers = []
    for fid in elements:
        face = by_id[fid]
        if len(face) == 1:
            continue
        for v in sorted(face):
            covers.append((face_id(face - {v}), fid))
    poset = build_poset(elements, sorted(set(covers)))
    ranks = {fid: len(by_id[fid]) - 1 for fid in elements}
    max_rank = max(ranks.values(), default=0)
    return FacePoset(
        poset=poset,
        rank=RankFunction(values=ranks, max_rank=max_rank),
        parity=ParityRank(values={e: r % 2 for e, r in ranks.items()}),
    )


def face_poset_cellular(spec: ComplexSpec) -> FacePoset:
    """Poset of a cell-by-cell description, graded by the declared dimensions.

    Covers are recomputed by transitive reduction of the boundary-containment
    order, so listing a full (not just codimension-1) boundary is accepted.
    The declared dimensions must form a rank function over those covers;
    otherwise RankConflict is raised.
    """
    if spec.kind != "cellular":
        raise MalformedSpec(f"expected a cellular spec, got kind {spec.kind!r}")
    cells = {c.id: c for c in spec.cells}
    if len(cells) != len(spec.cells):
        raise MalformedSpec("duplicate cell id")
    relation = []
    for cell in spec.cells:
        if not cell.id:
            raise MalformedSpec("empty cell id")
        if cell.dim < 0:
            raise MalformedSpec(f"cell {cell.id!r} has negative dimension")
        for ref in cell.boundary:
            if ref not in cells:
                raise MalformedSpec(f"cell {cell.id!r} references unknown boundary {ref!r}")
            if cells[ref].dim >= cell.dim:
                raise MalformedSpec(
                    f"boundary {ref!r} (dim {cells[ref].dim}) of cell {cell.id!r} "
                    f"(dim {cell.dim}) must have strictly smaller dimension"
                )
            relation.append((ref, cell.id))

    elements = sorted(cells)
    covers = transitive_reduction(elements, relation)
    poset = build_poset(elements, covers)

    dims = {cid: cells[cid].dim for cid in elements}
    for e in elements:
        if not poset.lower_covers(e) and dims[e] != 0:
            raise RankConflict(
                f"minimal cell {e!r} has dimension {dims[e]}, expected 0"
            )
    for a, b in sorted(poset.covers):
        if dims[b] != dims[a] + 1:
            raise RankConflict(
                f"cover ({a!r}, {b!r}) jumps dimension {dims[a]} -> {dims[b]}"
            )

    # The dimensions are now a rank function, so their parities are the
    # parity rank function.
    return FacePoset(
        poset=poset,
        rank=RankFunction(values=dims, max_rank=max(dims.values(), default=0)),
        parity=ParityRank(values={e: d % 2 for e, d in dims.items()}),
    )


def dimension_morse(poset: Poset, rank: RankFunction) -> MorseFunction:
    """The dimension function as a Morse function; every element is critical."""
    return MorseFunction({e: Fraction(rank.values[e]) for e in poset.elements})


def critical_by_dimension(rank: RankFunction, critical: Iterable[ElementId]) -> tuple[int, ...]:
    """Number of critical elements at each rank, from 0 to rank.max_rank."""
    counts = [0] * (rank.max_rank + 1)
    for e in critical:
        counts[rank.values[e]] += 1
    return tuple(counts)


def morse_inequality_report(
    poset: Poset, rank: RankFunction, f: MorseFunction
) -> MorseInequalityReport:
    """Critical cells per rank and the alternating-sum identity.

    Asserts sum_i (-1)^i M_i = chi of the order complex; requires the
    structural hypotheses (raises HypothesisViolated otherwise).
    """
    mu = check_hypotheses(poset)
    for e in poset.elements:
        if e not in rank.values:
            raise HypothesisViolated("rank function not total", e)
        if rank.values[e] % 2 != mu.values[e]:
            raise HypothesisViolated("rank function inconsistent with parity", e)
    counts = critical_by_dimension(rank, classify(poset, f).critical_set())
    alternating = sum((-1) ** i * m for i, m in enumerate(counts))
    chi = chain_euler_characteristic(poset, poset.elements)
    if alternating != chi:
        raise Mismatch(None, alternating, chi, what="alternating critical-count sum")
    return MorseInequalityReport(counts=counts, alternating_sum=alternating, chi=chi)
