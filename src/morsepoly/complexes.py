"""Face posets of simplicial and cellular complex descriptions.

Simplicial input lists maximal simplices as vertex-id sets; every non-empty
subset becomes a face, identified by its sorted comma-joined vertex ids, and
covers are the codimension-1 containments.  Each maximal simplex is sorted
once, so every face is born a sorted vertex tuple (``combinations`` keeps
the order), and so is each facet it drops a vertex to; no id is sorted
again.  In a face poset rank is dimension, so the rank a :class:`FacePoset`
carries is the one ``build_poset`` found, and the poset's parity is
dimension mod 2.

Cellular input lists cells with explicit dimensions and boundary references.
Only poset-level facts can be checked from such a description, so ingestion
builds the poset the boundary relation generates, in one pass that finds
its true covers, and validates the declared dimensions as a rank function
(so the poset is parity-graded by dimension mod 2).  It does not claim the
input is a regular cell complex.  The other two structural properties (2-wide,
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

from .errors import HypothesisViolated, InvalidArgument, MalformedSpec, Mismatch, RankConflict
from .morse import MorseFunction, classify
from .poset import (
    ElementId,
    Poset,
    RankFunction,
    Record,
    _order,
    build_poset,
)

FACE_SEPARATOR = ","
# A k-vertex simplex has 2^k - 1 faces; a larger one is refused before any is built.
MAX_SIMPLEX_VERTICES = 15


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
    __slots__ = ("poset", "rank")
    poset: Poset
    rank: RankFunction


class MorseInequalityReport(Record):
    """Critical-cell counts per dimension and their alternating sum."""

    __slots__ = ("counts", "alternating_sum", "chi")
    counts: tuple[int, ...]
    alternating_sum: int
    chi: int


def _check_vertex_id(vertex: str) -> None:
    if not vertex:
        raise MalformedSpec("empty vertex id")
    if FACE_SEPARATOR in vertex:
        raise MalformedSpec(
            f"vertex id {vertex!r} contains {FACE_SEPARATOR!r}, which is reserved "
            f"as the face-id separator"
        )


def face_poset_simplicial(spec: ComplexSpec) -> FacePoset:
    """Face poset of a simplicial complex given by its maximal simplices.

    Every simplex is checked first; then one with more than
    ``MAX_SIMPLEX_VERTICES`` vertices raises InvalidArgument before any of
    its faces is built.
    """
    if spec.kind != "simplicial":
        raise MalformedSpec(f"expected a simplicial spec, got kind {spec.kind!r}")
    for simplex in spec.maximal_simplices:
        if not simplex:
            raise MalformedSpec("empty simplex in maximal_simplices")
        if len(set(simplex)) != len(simplex):
            raise MalformedSpec(f"duplicate vertex in simplex {simplex!r}")
        for v in simplex:
            _check_vertex_id(v)
    faces: dict[ElementId, tuple[str, ...]] = {}
    for simplex in spec.maximal_simplices:
        if len(simplex) > MAX_SIMPLEX_VERTICES:
            raise InvalidArgument(f"a maximal simplex has {len(simplex)} vertices; "
                                  f"at most {MAX_SIMPLEX_VERTICES} are supported")
        vertices = sorted(simplex)
        for size in range(1, len(vertices) + 1):
            for face in combinations(vertices, size):
                faces[FACE_SEPARATOR.join(face)] = face

    # Each face is a sorted tuple, and so is every facet face[:i] + face[i+1:].
    covers = [(FACE_SEPARATOR.join(face[:i] + face[i + 1:]), fid)
              for fid, face in faces.items() if len(face) > 1 for i in range(len(face))]
    poset = build_poset(faces, covers)
    return FacePoset(poset, poset._rank)


def face_poset_cellular(spec: ComplexSpec) -> FacePoset:
    """Poset of a cell-by-cell description, graded by the declared dimensions.

    The poset is the one the boundary relation generates, built once with
    its covers found along the way, so listing a full (not just
    codimension-1) boundary is accepted.
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

    poset = _order(cells, relation)[0]

    dims = {cid: cells[cid].dim for cid in poset.elements}
    for e in poset.elements:
        if not poset._lower[e] and dims[e] != 0:
            raise RankConflict(
                f"minimal cell {e!r} has dimension {dims[e]}, expected 0"
            )
    for a, b in poset._pairs:
        if dims[b] != dims[a] + 1:
            raise RankConflict(
                f"cover ({a!r}, {b!r}) jumps dimension {dims[a]} -> {dims[b]}"
            )

    # The dimensions are now a rank function, the poset's own.
    return FacePoset(poset, poset._rank)


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
    structural hypotheses (raises HypothesisViolated otherwise).  Once they
    hold, chi is the alternating count of elements by parity, as in
    :func:`~morsepoly.chain_index.verify_representation`.
    """
    # Every command loads this module; only this report needs the hypotheses.
    from .hypotheses import check_hypotheses

    mu = check_hypotheses(poset)
    for e in poset.elements:
        if e not in rank.values:
            raise HypothesisViolated("rank function not total", e)
        if rank.values[e] % 2 != mu.values[e]:
            raise HypothesisViolated("rank function inconsistent with parity", e)
    counts = critical_by_dimension(rank, classify(poset, f).critical_set())
    alternating = sum((-1) ** i * m for i, m in enumerate(counts))
    chi = len(poset) - 2 * sum(mu.values.values())
    if alternating != chi:
        raise Mismatch(None, alternating, chi, what="alternating critical-count sum")
    return MorseInequalityReport(counts=counts, alternating_sum=alternating, chi=chi)
