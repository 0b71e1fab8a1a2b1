"""Embedding construction, generality, and the geometric index oracle."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morsepoly import (
    ComplexSpec,
    EmptyPoset,
    GeometricComplex,
    MissingValue,
    MorseFunction,
    NotGeneral,
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
from morsepoly.commands.embed import _text as embed_text
from morsepoly.geometry import _levels
from morsepoly.jsonio import dumps_canonical, embedding_obj_to_csv, embedding_to_obj
from morsepoly.oracles import difference_matrix
from tests.conftest import CUBICAL, cube, suspension, torus

CUBICAL_FACES = {name: face_poset_cellular(spec)
                 for name, spec, _ in (("cube2", cube(2), 1), *CUBICAL)}
SUSPENSIONS = {depth: face_poset_cellular(suspension(depth)).poset for depth in range(1, 9)}


class TestEmbedVertices:
    def test_single_element(self):
        poset = build_poset(["v"], [])
        emb = embed_vertices(poset, MorseFunction.from_values({"v": 7}))
        assert embedding_to_obj(emb) == {"dimension": 1, "coordinates": {"v": ["7"]}}

    def test_edge_poset_shape(self, edge_poset):
        g = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        emb = embed_vertices(edge_poset, g)
        assert embedding_to_obj(emb)["dimension"] == 3
        assert [emb[e] for e in ("a", "b", "e")] == [0, 2, 1]
        assert matrix_rank(difference_matrix(emb)) == 2

    def test_first_coordinates_equal_function(self, triangle):
        g = normalize(triangle.poset, dimension_morse(triangle.poset, triangle.rank))
        emb = embed_vertices(triangle.poset, g)
        for e in triangle.poset.elements:
            assert emb[e] == g[e]

    def test_empty_poset_rejected(self):
        with pytest.raises(EmptyPoset):
            embed_vertices(build_poset([], []), MorseFunction({}))

    def test_affine_independence(self, triangle, two_cycles):
        for face in (triangle, two_cycles):
            poset = face.poset
            g = normalize(poset, dimension_morse(poset, face.rank))
            assert spans_full_simplex(embed_vertices(poset, g))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_affine_independence_at_equal_heights(self, k):
        """With every height equal the first coordinate adds no rank, so the
        written points span a full simplex only through every "1"."""
        assert spans_full_simplex(dict.fromkeys(map(str, range(k)), Fraction(5, 3)))


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


def dense_coordinates(heights):
    """The placement rule written out as a k x k table, one dense vector of
    Fractions per element: the reference the written rows must match."""
    ids = sorted(heights)
    coordinates = {}
    for i, e in enumerate(ids):
        vec = [Fraction(0)] * len(ids)
        vec[0] = heights[e]
        if i < len(ids) - 1:
            vec[i + 1] = Fraction(1)
        coordinates[e] = tuple(vec)
    return coordinates


def dense_embedding_to_obj(heights):
    """The writer that formatted every entry of the dense vectors by ``str``:
    ``embed`` must print its bytes from one formatted height per element."""
    dense = dense_coordinates(heights)
    coordinates = {e: [str(x) for x in vec] for e, vec in dense.items()}
    return {"dimension": len(coordinates), "coordinates": coordinates}


class TestVectors:
    """An embedding is its heights; the written rows follow the placement rule."""

    def test_an_embedding_is_g_on_the_poset(self, edge_poset):
        """A plain dict, in identifier order, holding g at each element and
        nothing at a value off the poset; the witness and the full-rank
        oracle take it as it is."""
        g = MorseFunction.from_values({"e": 1, "b": 2, "a": 0, "off": 5})
        emb = embed_vertices(edge_poset, g)
        assert type(emb) is dict
        assert list(emb.items()) == [("a", 0), ("b", 2), ("e", 1)]
        assert lower_star_indices(edge_poset, emb) == {"a": 1, "b": 0, "e": 0}
        assert spans_full_simplex(emb)

    @staticmethod
    def assert_dense(poset, g):
        emb = embed_vertices(poset, g)
        written = embedding_to_obj(emb)
        assert [(e, tuple(map(Fraction, row))) for e, row in written["coordinates"].items()] == (
            list(dense_coordinates(g.values).items()))
        assert written["dimension"] == len(poset)
        assert spans_full_simplex(emb)
        # Identifier order, whatever order the heights were inserted in.
        shuffled = dict(reversed(list(emb.items())))
        assert list(embedding_to_obj(shuffled)["coordinates"].items()) == list(
            written["coordinates"].items())

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


def assert_same_bytes(poset, g):
    """``embed``'s JSON, text and CSV from the written rows are those of the
    dense-vector writer."""
    emb = embed_vertices(poset, g)
    written, dense = embedding_to_obj(emb), dense_embedding_to_obj(emb)
    assert dumps_canonical(written) == dumps_canonical(dense)
    assert list(embed_text(written)) == list(embed_text(dense))
    assert embedding_obj_to_csv(written) == embedding_obj_to_csv(dense)


class TestWrittenBytes:
    """The written rows against the dense-vector writer, byte for byte."""

    @pytest.mark.parametrize("function", ["dimension", "gen_morse", "normalized"])
    def test_named_posets(self, edge_poset, chain_poset, chain_morse, triangle, segment,
                          two_cycles, function):
        faces = [triangle, segment, two_cycles, face_poset_cellular(cube(3)),
                 *(face_poset_simplicial(torus(m)) for m in range(3, 7))]
        cases = [(edge_poset, MorseFunction.from_values({"a": 0, "b": 0, "e": 1})),
                 (chain_poset, chain_morse)]
        for face in faces:
            g = (dimension_morse(face.poset, face.rank) if function == "dimension"
                 else gen_morse(3, face.poset))
            cases.append((face.poset, normalize(face.poset, g) if function == "normalized" else g))
        for poset, g in cases:
            assert_same_bytes(poset, g)

    @settings(max_examples=80, deadline=None)
    @given(valued_posets())
    @example((build_poset(["v"], []), MorseFunction.from_values({"v": Fraction(-3, 2)})))
    @example((build_poset(["a", "b"], [("a", "b")]), MorseFunction.from_values({"a": 1, "b": 1})))
    def test_generated_posets(self, case):
        assert_same_bytes(*case)


class TestGeometricIndices:
    """The one-pass indices against the per-vertex definition."""

    @staticmethod
    def assert_matches_definition(complex_):
        expected = {b: geometric_index(complex_, b) for b in complex_.heights}
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


def set_rule_levels(heights):
    """The leveling the witness used before: each height's position among
    the distinct heights, found through a set and a dict keyed by height.
    The one-sort leveling must give the same levels."""
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())))}
    return {v: rank[h] for v, h in heights.items()}


# Dyadic heights p / 2**k: Python hashes them with period 61 in k, so these
# collide in hash while differing in value, as the spread sweep's do.
dyadics = st.builds(lambda p, k: Fraction(p, 2**k), st.integers(-3, 3), st.integers(0, 200))


class TestLowerStarIndices:
    """The streamed witness against the materialized oracles."""

    @staticmethod
    def assert_matches_oracles(poset, embedding):
        try:
            complex_ = realize_complex(poset, embedding)
        except (MissingValue, NotGeneral) as error:
            with pytest.raises(type(error)) as info:
                lower_star_indices(poset, embedding)
            assert info.value.args == error.args
            assert str(info.value) == str(error)
            return
        streamed = lower_star_indices(poset, embedding)
        assert list(streamed.items()) == list(geometric_indices(complex_).items())
        assert streamed == {b: geometric_index(complex_, b) for b in embedding}

    def test_unknown_element(self, edge_poset):
        vertices = build_poset(["a", "b"], [])
        emb = embed_vertices(vertices, MorseFunction.from_values({"a": 0, "b": 1}))
        for count in (lower_star_indices, realize_complex):
            with pytest.raises(MissingValue, match=r"^function has no value for \['e'\]$"):
                count(edge_poset, emb)

    @settings(max_examples=100, deadline=None)
    @given(valued_posets())
    def test_generated_posets(self, case):
        poset, g = case
        self.assert_matches_oracles(poset, embed_vertices(poset, g))

    @settings(max_examples=200, deadline=None)
    @given(heights=st.dictionaries(st.text("abcdef", min_size=1, max_size=2),
                                   dyadics | st.integers(-2, 2), max_size=12))
    @example(heights={"a": Fraction(1, 2**3), "b": Fraction(1, 2**64), "c": Fraction(1, 2**3)})
    def test_levels_equal_the_set_rule(self, heights):
        assert _levels(heights) == set_rule_levels(heights)

    @settings(max_examples=100, deadline=None)
    @given(case=valued_posets(), data=st.data())
    def test_colliding_dyadic_heights(self, case, data):
        """Same indices, or the same NotGeneral pair or MissingValue
        elements, as the oracles."""
        poset = case[0]
        missing = data.draw(st.sets(st.sampled_from(poset.elements), max_size=2))
        heights = {e: data.draw(dyadics) for e in poset.elements if e not in missing}
        self.assert_matches_oracles(poset, heights)

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


    @settings(max_examples=40, deadline=None)
    @given(depth=st.sampled_from(sorted(SUSPENSIONS)), injective=st.booleans(), data=st.data())
    def test_suspensions(self, depth, injective, data):
        # Values drawn with repeats tie incomparable twins, or comparable
        # cells, which must raise NotGeneral where the oracle does.
        poset = SUSPENSIONS[depth]
        n = len(poset)
        if injective:
            values = data.draw(st.permutations(range(n)))
        else:
            values = data.draw(st.lists(st.integers(0, n // 2), min_size=n, max_size=n))
        g = MorseFunction.from_values(dict(zip(poset.elements, values)))
        self.assert_matches_oracles(poset, embed_vertices(poset, g))

    @pytest.mark.parametrize("spec", [
        ComplexSpec(kind="simplicial", maximal_simplices=(tuple(map(str, range(10))),)),
        cube(7),
        suspension(200),
    ], ids=["simplex9", "cube7", "suspension200"])
    def test_past_the_oracles(self, spec):
        """Every cell is critical for the dimension function, so each index
        is (-1)^rank.  The order complexes have 2.0e8, 1.7e7 and 2.7e95
        simplices, past the reach of the materialized oracles."""
        face = (face_poset_cellular if spec.kind == "cellular" else face_poset_simplicial)(spec)
        g = normalize(face.poset, dimension_morse(face.poset, face.rank))
        indices = lower_star_indices(face.poset, embed_vertices(face.poset, g))
        assert indices == {e: (-1) ** face.rank[e] for e in face.poset.elements}


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
            assert report.mismatches == ()

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
