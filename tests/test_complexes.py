"""Face-poset ingestion from simplicial and cellular descriptions."""

from __future__ import annotations

import pytest

from morsepoly import (
    CellSpec,
    ComplexSpec,
    HypothesisViolated,
    MalformedSpec,
    MorseFunction,
    RankConflict,
    compute_parity_rank,
    dimension_morse,
    euler_characteristic,
    face_poset_cellular,
    face_poset_simplicial,
    gen_complex,
    is_downward_eulerian,
    is_two_wide,
    morse_inequality_report,
    order_complex,
    validate_morse,
)
from tests.conftest import build_two_cycles_spec


def simplicial(*simplices) -> ComplexSpec:
    return ComplexSpec(kind="simplicial", maximal_simplices=tuple(tuple(s) for s in simplices))


class TestSimplicial:
    def test_triangle_counts(self, triangle):
        ranks = sorted(triangle.rank.values.values())
        assert len(triangle.poset) == 7
        assert ranks == [0, 0, 0, 1, 1, 1, 2]
        assert triangle.rank.max_rank == 2

    def test_segment(self, segment):
        assert len(segment.poset) == 3
        assert segment.poset.sorted_elements == ("1", "1,2", "2")

    def test_two_triangles_share_edge(self):
        face = face_poset_simplicial(simplicial(("1", "2", "3"), ("2", "3", "4")))
        counts = [0, 0, 0]
        for rank in face.rank.values.values():
            counts[rank] += 1
        assert len(face.poset) == 11
        assert counts == [4, 5, 2]

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(MalformedSpec):
            face_poset_simplicial(simplicial(("1", "1", "2")))

    def test_empty_simplex_rejected(self):
        with pytest.raises(MalformedSpec):
            face_poset_simplicial(simplicial(()))

    def test_separator_in_vertex_id_rejected(self):
        with pytest.raises(MalformedSpec):
            face_poset_simplicial(simplicial(("a,b", "c")))

    def test_wrong_kind_rejected(self):
        with pytest.raises(MalformedSpec):
            face_poset_simplicial(ComplexSpec(kind="cellular"))

    def test_generated_face_posets_pass_all_checks(self):
        for seed in range(15):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.1 + 0.06 * seed))
            assert is_two_wide(face.poset)
            mu = compute_parity_rank(face.poset)
            assert mu.values == face.parity.values
            assert is_downward_eulerian(face.poset, mu)

    def test_chi_matches_face_count_alternating_sum(self):
        for seed in (1, 4, 9):
            face = face_poset_simplicial(gen_complex(seed, 6, 2, 0.4))
            by_rank: dict[int, int] = {}
            for rank in face.rank.values.values():
                by_rank[rank] = by_rank.get(rank, 0) + 1
            alternating = sum((-1) ** r * n for r, n in by_rank.items())
            assert euler_characteristic(order_complex(face.poset)) == alternating

    def test_subdivision_preserves_chi(self, triangle):
        # Re-ingest the order complex as a simplicial complex (vertices
        # relabeled, since face ids contain the reserved separator).
        poset = triangle.poset
        label = {e: f"b{i}" for i, e in enumerate(poset.sorted_elements)}
        complex_ = order_complex(poset)
        spec = simplicial(
            *[tuple(sorted(label[v] for v in s)) for s in complex_.simplices]
        )
        subdivided = face_poset_simplicial(spec)
        assert euler_characteristic(order_complex(subdivided.poset)) == euler_characteristic(
            complex_
        )


class TestCellular:
    def test_triangle_entered_cellularly_matches_simplicial(self, triangle):
        cells = []
        for e in triangle.poset.sorted_elements:
            cells.append(
                CellSpec(
                    id=e,
                    dim=triangle.rank.values[e],
                    boundary=tuple(sorted(triangle.poset.strict_down_set(e))),
                )
            )
        face = face_poset_cellular(ComplexSpec(kind="cellular", cells=tuple(cells)))
        assert face.poset.covers == triangle.poset.covers
        assert face.rank.values == triangle.rank.values
        assert is_two_wide(face.poset) and is_downward_eulerian(face.poset, face.parity)

    def test_two_cycles_passes_checks_but_flagged(self, two_cycles):
        assert is_two_wide(two_cycles.poset).holds
        assert is_downward_eulerian(two_cycles.poset, two_cycles.parity).holds
        # The checks are necessary conditions only; m's strict boundary has a
        # disconnected order complex, so this is not a regular-complex poset.
        assert len(two_cycles.poset) == 17

    def test_half_open_edge_fails_eulerian(self):
        spec = ComplexSpec(
            kind="cellular",
            cells=(
                CellSpec(id="v", dim=0, boundary=()),
                CellSpec(id="e", dim=1, boundary=("v",)),
            ),
        )
        face = face_poset_cellular(spec)
        eulerian = is_downward_eulerian(face.poset, face.parity)
        assert not eulerian.holds
        assert eulerian.violations == (("e", 1, 2),)

    def test_unknown_boundary_rejected(self):
        spec = ComplexSpec(
            kind="cellular",
            cells=(CellSpec(id="e", dim=1, boundary=("ghost",)),),
        )
        with pytest.raises(MalformedSpec):
            face_poset_cellular(spec)

    def test_boundary_dimension_must_drop(self):
        spec = ComplexSpec(
            kind="cellular",
            cells=(
                CellSpec(id="a", dim=1, boundary=()),
                CellSpec(id="b", dim=1, boundary=("a",)),
            ),
        )
        with pytest.raises(MalformedSpec):
            face_poset_cellular(spec)

    def test_duplicate_cell_id_rejected(self):
        spec = ComplexSpec(
            kind="cellular",
            cells=(CellSpec(id="a", dim=0, boundary=()), CellSpec(id="a", dim=0, boundary=())),
        )
        with pytest.raises(MalformedSpec):
            face_poset_cellular(spec)

    def test_dimension_jump_is_rank_conflict(self):
        spec = ComplexSpec(
            kind="cellular",
            cells=(
                CellSpec(id="v", dim=0, boundary=()),
                CellSpec(id="t", dim=2, boundary=("v",)),
            ),
        )
        with pytest.raises(RankConflict):
            face_poset_cellular(spec)

    def test_nonzero_minimal_cell_is_rank_conflict(self):
        spec = ComplexSpec(kind="cellular", cells=(CellSpec(id="loop", dim=1, boundary=()),))
        with pytest.raises(RankConflict):
            face_poset_cellular(spec)


class TestDimensionMorse:
    def test_triangle_all_critical(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        assert validate_morse(triangle.poset, f).valid

    def test_valid_on_generated_corpus(self):
        for seed in range(10):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.5))
            f = dimension_morse(face.poset, face.rank)
            assert validate_morse(face.poset, f).valid


class TestMorseInequalityReport:
    def test_triangle(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        report = morse_inequality_report(triangle.poset, triangle.rank, f)
        assert report.counts == (3, 3, 1)
        assert report.alternating_sum == 1 == report.chi

    def test_segment_with_one_critical_cell(self, segment):
        f = MorseFunction.from_values({"1": 0, "2": 2, "1,2": 1})
        report = morse_inequality_report(segment.poset, segment.rank, f)
        assert report.counts == (1, 0)
        assert report.alternating_sum == 1 == report.chi

    def test_generated_sweep(self):
        from morsepoly import gen_morse

        for seed in range(10):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
            f = gen_morse(seed + 500, face.poset)
            report = morse_inequality_report(face.poset, face.rank, f)
            assert report.alternating_sum == report.chi

    def test_hypotheses_required(self, chain_poset, chain_morse):
        from morsepoly import RankFunction

        rank = RankFunction(values={"0": 0, "1": 1, "2": 2}, max_rank=2)
        with pytest.raises(HypothesisViolated):
            morse_inequality_report(chain_poset, rank, chain_morse)


def test_two_cycles_spec_builds_cleanly():
    face = face_poset_cellular(build_two_cycles_spec())
    # Covers come out reduced: m covers only the eight edges.
    assert len(face.poset.covers) == 24
    assert len(face.poset.lower_covers("m")) == 8
