"""Embedding construction, generality, and the geometric index oracle."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepoly import (
    Embedding,
    EmptyPoset,
    GeometricComplex,
    MorseFunction,
    NotGeneral,
    UnknownElement,
    build_poset,
    combinatorial_index,
    cross_check,
    dimension_morse,
    embed_vertices,
    euler_characteristic,
    face_poset_cellular,
    face_poset_simplicial,
    gen_complex,
    gen_morse,
    geometric_index,
    geometric_indices,
    lower_star_indices,
    matrix_rank,
    normalize,
    order_complex,
    realize_complex,
    spans_full_simplex,
    transitive_reduction,
)
from morsepoly.oracles import difference_matrix
from tests.conftest import CUBICAL, torus

CUBICAL_FACES = {name: face_poset_cellular(spec) for name, spec, _ in CUBICAL}


class TestEmbedVertices:
    def test_single_element(self):
        poset = build_poset(["v"], [])
        emb = embed_vertices(poset, MorseFunction.from_values({"v": 7}))
        assert emb.dimension == 1
        assert dict(emb.vectors()) == {"v": (Fraction(7),)}

    def test_edge_poset_shape(self, edge_poset):
        g = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        emb = embed_vertices(edge_poset, g)
        assert emb.dimension == 3
        assert [emb.height(e) for e in ("a", "b", "e")] == [0, 2, 1]
        assert matrix_rank(difference_matrix(emb)) == 2

    def test_first_coordinates_equal_function(self, triangle):
        g = normalize(triangle.poset, dimension_morse(triangle.poset, triangle.rank))
        emb = embed_vertices(triangle.poset, g)
        for e in triangle.poset.elements:
            assert emb.height(e) == g[e]

    def test_empty_poset_rejected(self):
        with pytest.raises(EmptyPoset):
            embed_vertices(build_poset([], []), MorseFunction({}))

    def test_affine_independence(self, triangle, two_cycles):
        for face in (triangle, two_cycles):
            poset = face.poset
            g = normalize(poset, dimension_morse(poset, face.rank))
            assert spans_full_simplex(embed_vertices(poset, g))


class TestRealize:
    def test_injective_function_realizes(self, edge_poset):
        g = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        gc = realize_complex(edge_poset, embed_vertices(edge_poset, g))
        assert gc.simplices == order_complex(edge_poset).simplices

    def test_comparable_tie_rejected(self, edge_poset):
        g = MorseFunction.from_values({"a": 1, "b": 0, "e": 1})
        with pytest.raises(NotGeneral) as info:
            realize_complex(edge_poset, embed_vertices(edge_poset, g))
        assert info.value.pair == ("a", "e")

    def test_incomparable_tie_allowed(self, edge_poset):
        g = MorseFunction.from_values({"a": 0, "b": 0, "e": 1})
        gc = realize_complex(edge_poset, embed_vertices(edge_poset, g))
        assert len(gc.simplices) == 5

    def test_singleton(self):
        poset = build_poset(["v"], [])
        gc = realize_complex(poset, embed_vertices(poset, MorseFunction.from_values({"v": 0})))
        assert gc.simplices == frozenset({frozenset({"v"})})


class TestGeometricIndex:
    def test_isolated_vertex(self):
        poset = build_poset(["v"], [])
        gc = realize_complex(poset, embed_vertices(poset, MorseFunction.from_values({"v": 4})))
        assert geometric_index(gc, "v") == 1

    def test_edge_poset(self, edge_poset):
        g = normalize(edge_poset, MorseFunction.from_values({"a": 0, "b": 2, "e": 1}))
        gc = realize_complex(edge_poset, embed_vertices(edge_poset, g))
        assert [geometric_index(gc, b) for b in ("a", "b", "e")] == [1, 0, 0]

    def test_triangle(self, triangle):
        poset = triangle.poset
        g = normalize(poset, dimension_morse(poset, triangle.rank))
        gc = realize_complex(poset, embed_vertices(poset, g))
        values = [geometric_index(gc, b) for b in poset.sorted_elements]
        assert values == [1, -1, 1, -1, 1, -1, 1]  # sorted: 1, 12, 123, 13, 2, 23, 3
        assert sum(values) == 1

    def test_global_sum_is_chi(self, two_cycles):
        poset = two_cycles.poset
        g = normalize(poset, gen_morse(5, poset))
        gc = realize_complex(poset, embed_vertices(poset, g))
        total = sum(geometric_index(gc, b) for b in poset.elements)
        assert total == euler_characteristic(order_complex(poset))


@st.composite
def valued_posets(draw):
    """Small random posets with small rational values; ties are allowed."""
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"p{i}" for i in range(n)]
    pairs = [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    poset = build_poset(names, transitive_reduction(names, pairs))
    values = {
        e: draw(st.fractions(min_value=-2, max_value=2, max_denominator=2)) for e in names
    }
    return poset, MorseFunction.from_values(values)


def dense_coordinates(poset, g):
    """The placement rule written out as a k x k table, one dense Fraction
    vector per element: the reference :meth:`Embedding.vectors` must match."""
    ids = poset.sorted_elements
    k = len(ids)
    coordinates = {}
    for i, e in enumerate(ids):
        vec = [Fraction(0)] * k
        vec[0] = Fraction(g[e])
        if i < k - 1:
            vec[i + 1] = Fraction(1)
        coordinates[e] = tuple(vec)
    return coordinates


class TestVectors:
    """An embedding stores only heights; its vectors follow the placement rule."""

    def test_stores_only_heights(self, edge_poset):
        assert Embedding.__slots__ == ("heights",)
        g = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        assert embed_vertices(edge_poset, g).heights == g.values

    @staticmethod
    def assert_dense(poset, g):
        emb = embed_vertices(poset, g)
        assert dict(emb.vectors()) == dense_coordinates(poset, g)
        assert emb.dimension == len(poset)
        assert spans_full_simplex(emb)
        # Identifier order, whatever order the heights were inserted in.
        shuffled = Embedding(dict(reversed(list(emb.heights.items()))))
        assert list(shuffled.vectors()) == list(emb.vectors())

    @settings(max_examples=80, deadline=None)
    @given(valued_posets())
    def test_generated_posets(self, case):
        self.assert_dense(*case)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_seeded_face_posets(self, seed):
        face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
        self.assert_dense(face.poset, gen_morse(seed, face.poset))

    def test_witness_memory_is_linear(self):
        """embed_vertices plus the witness on the m = 20 grid torus (2,400
        elements) stay under 4 MB traced: a k x k table of Fractions alone
        would take tens of MB."""
        face = face_poset_simplicial(torus(20))
        g = dimension_morse(face.poset, face.rank)
        tracemalloc.start()
        try:
            indices = lower_star_indices(face.poset, embed_vertices(face.poset, g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(indices.values()) == 0
        assert peak < 4 * 2**20


class TestGeometricIndices:
    """The one-pass indices against the per-vertex definition."""

    @staticmethod
    def assert_matches_definition(complex_):
        expected = {b: geometric_index(complex_, b) for b in complex_.embedding.heights}
        assert geometric_indices(complex_) == expected

    @settings(max_examples=80, deadline=None)
    @given(valued_posets())
    def test_generated_posets(self, case):
        # Built without realize_complex, so ties between comparable vertices
        # reach both computations too.
        poset, g = case
        complex_ = GeometricComplex(embed_vertices(poset, g), order_complex(poset).simplices)
        self.assert_matches_definition(complex_)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_seeded_face_posets(self, seed):
        face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
        g = normalize(face.poset, gen_morse(seed, face.poset))
        self.assert_matches_definition(realize_complex(face.poset, embed_vertices(face.poset, g)))


class TestLowerStarIndices:
    """The streamed witness against the materialized oracles."""

    @staticmethod
    def assert_matches_oracles(poset, embedding):
        try:
            complex_ = realize_complex(poset, embedding)
        except NotGeneral as error:
            with pytest.raises(NotGeneral) as info:
                lower_star_indices(poset, embedding)
            assert info.value.pair == error.pair
            assert str(info.value) == str(error)
            return
        streamed = lower_star_indices(poset, embedding)
        assert list(streamed.items()) == list(geometric_indices(complex_).items())
        assert streamed == {b: geometric_index(complex_, b) for b in embedding.heights}

    def test_unknown_element(self, edge_poset):
        vertices = build_poset(["a", "b"], [])
        emb = embed_vertices(vertices, MorseFunction.from_values({"a": 0, "b": 1}))
        with pytest.raises(UnknownElement, match="no coordinates for 'e'"):
            lower_star_indices(edge_poset, emb)

    @settings(max_examples=100, deadline=None)
    @given(valued_posets())
    def test_generated_posets(self, case):
        poset, g = case
        self.assert_matches_oracles(poset, embed_vertices(poset, g))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9), normalized=st.booleans())
    def test_seeded_face_posets(self, seed, normalized):
        # gen_morse may tie a matched pair; normalize separates every pair.
        face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
        g = gen_morse(seed, face.poset)
        if normalized:
            g = normalize(face.poset, g)
        self.assert_matches_oracles(face.poset, embed_vertices(face.poset, g))

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(CUBICAL_FACES)), seed=st.integers(0, 10**9),
           function=st.sampled_from(("dimension", "gen_morse", "normalized")))
    def test_cubical_posets(self, name, seed, function):
        face = CUBICAL_FACES[name]
        if function == "dimension":
            g = dimension_morse(face.poset, face.rank)
        else:
            g = gen_morse(seed, face.poset)
        if function == "normalized":
            g = normalize(face.poset, g)
        self.assert_matches_oracles(face.poset, embed_vertices(face.poset, g))


class TestCrossCheck:
    def test_named_instances(self, edge_poset, triangle, two_cycles):
        cases = [
            (edge_poset, MorseFunction.from_values({"a": 0, "b": 2, "e": 1})),
            (triangle.poset, dimension_morse(triangle.poset, triangle.rank)),
            (two_cycles.poset, gen_morse(2, two_cycles.poset)),
        ]
        for poset, f in cases:
            g = normalize(poset, f)
            report = cross_check(poset, g)
            assert report.ok
            assert report.first_mismatch is None

    def test_singleton(self):
        poset = build_poset(["v"], [])
        report = cross_check(poset, MorseFunction.from_values({"v": 0}))
        assert report.ok
        assert report.indices == {"v": 1}

    def test_generated_sweep(self):
        for seed in range(8):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.7))
            g = normalize(face.poset, gen_morse(seed + 100, face.poset))
            report = cross_check(face.poset, g)
            assert report.ok
            for b in face.poset.elements:
                assert report.indices[b] == combinatorial_index(face.poset, g, b)


class TestMatrixRank:
    def test_identity(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert matrix_rank(rows) == 2

    def test_dependent_rows(self):
        rows = [
            [Fraction(1), Fraction(2)],
            [Fraction(2), Fraction(4)],
            [Fraction(3), Fraction(6)],
        ]
        assert matrix_rank(rows) == 1

    def test_zero_and_empty(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[Fraction(0), Fraction(0)]]) == 0

    def test_exact_fractions_no_drift(self):
        third = Fraction(1, 3)
        rows = [[third, third * 2], [third * 2, third * 4 + Fraction(1, 10**12)]]
        assert matrix_rank(rows) == 2
