"""Poset construction, chains, order complex, and the structural checks."""

from __future__ import annotations

import heapq
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsepoly.poset as poset_module
from morsepoly.hypotheses import validate_parity_rank
from morsepoly import (
    CycleDetected,
    GradingConflict,
    HypothesisViolated,
    InvalidArgument,
    MorseFunction,
    NonCoverEdge,
    SimplicialComplex,
    UnknownElement,
    build_poset,
    chain_counts,
    check_hypotheses,
    chain_weights,
    compute_parity_rank,
    compute_rank_function,
    enumerate_chains,
    euler_characteristic,
    face_poset_cellular,
    face_poset_simplicial,
    gen_complex,
    is_downward_eulerian,
    is_two_wide,
    linear_extension,
    morse_inequality_report,
    order_complex,
    transitive_reduction,
    verify_representation,
)
from tests.conftest import cube, cubical_cone, cubical_torus, full_boundaries


@st.composite
def posets(draw):
    """Arbitrary small posets: random DAG on an index order, then reduced."""
    n = draw(st.integers(min_value=0, max_value=7))
    names = [f"p{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((names[i], names[j]))
    return build_poset(names, transitive_reduction(names, pairs))


@st.composite
def graded_posets(draw):
    """Random ranked posets, seldom face posets: each element above rank 0
    gets a non-empty set of lower covers one rank down."""
    n = draw(st.integers(min_value=1, max_value=8))
    levels: list[list[str]] = [[]]
    covers = []
    for i in range(n):
        name = f"p{i}"
        top = len(levels) - 1 if levels[-1] else len(levels) - 2
        rank = draw(st.integers(min_value=0, max_value=top + 1))
        if rank == len(levels):
            levels.append([])
        if rank > 0:
            below = draw(st.lists(st.sampled_from(levels[rank - 1]), min_size=1, unique=True))
            covers += [(a, name) for a in below]
        levels[rank].append(name)
    return build_poset([e for level in levels for e in level], covers)


def face_poset_of(seed):
    return face_poset_simplicial(gen_complex(seed, 5, 1 + seed % 3, 0.6)).poset


def brute_force_chains(poset, subset):
    """Oracle: filter every subset for pairwise comparability."""
    ids = sorted(subset)
    found = []
    for size in range(1, len(ids) + 1):
        for combo in combinations(ids, size):
            if all(
                a in poset.strict_down_set(b) or b in poset.strict_down_set(a)
                for a, b in combinations(combo, 2)
            ):
                found.append(frozenset(combo))
    return found


class TestBuildPoset:
    def test_edge_poset(self, edge_poset):
        assert len(edge_poset) == 3
        assert edge_poset.covers == frozenset({("a", "e"), ("b", "e")})

    def test_transitive_pair_rejected(self):
        with pytest.raises(NonCoverEdge) as info:
            build_poset(["a", "e", "t"], [("a", "e"), ("e", "t"), ("a", "t")])
        assert info.value.pair == ("a", "t")

    def test_singleton(self):
        poset = build_poset(["x"], [])
        assert len(poset) == 1
        assert poset.lower_covers("x") == ()

    def test_empty_poset_accepted(self):
        poset = build_poset([], [])
        assert len(poset) == 0
        assert euler_characteristic(order_complex(poset)) == 0

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            build_poset(["a"], [("a", "b")])

    def test_cycle(self):
        with pytest.raises(CycleDetected):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            build_poset(["a"], [("a", "a")])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            build_poset(["a", "a"], [])

    def test_ids_and_pairs_read_alike(self):
        # Pair ids are taken as given, like element ids, so ids that are
        # not strings still name their elements; pairs may be lists.
        poset = build_poset([1, 2, 3], [[1, 2], (2, 3)])
        assert poset.covers == {(1, 2), (2, 3)}
        assert poset.strict_down_set(3) == {1, 2}
        with pytest.raises(UnknownElement) as info:
            build_poset([1, 2], [(1, "2")])
        assert str(info.value) == "unknown element '2' in pair (1, '2')"


class TestOrderQueries:
    def test_leq(self, edge_poset):
        assert "a" in edge_poset.strict_down_set("e")
        assert "a" not in edge_poset.strict_down_set("b")
        assert "b" not in edge_poset.strict_down_set("a")
        assert "a" not in edge_poset.strict_down_set("a")

    def test_leq_transitive(self, chain_poset):
        assert "0" in chain_poset.strict_down_set("2")
        assert "2" in chain_poset.strict_up_set("0")

    def test_leq_unknown(self, edge_poset):
        with pytest.raises(UnknownElement):
            edge_poset.strict_down_set("zzz")

    def test_strict_down_sets(self, edge_poset, triangle):
        assert edge_poset.strict_down_set("e") == {"a", "b"}
        assert edge_poset.strict_down_set("a") == frozenset()
        assert triangle.poset.strict_down_set("1,2,3") == {
            "1", "2", "3", "1,2", "1,3", "2,3",
        }


class TestChains:
    def test_edge_poset_chains(self, edge_poset):
        assert enumerate_chains(edge_poset) == [
            ("a",), ("a", "e"), ("b",), ("b", "e"), ("e",),
        ]

    def test_single_element_subset(self, edge_poset):
        assert enumerate_chains(edge_poset, {"a"}) == [("a",)]

    def test_chain_poset_has_all_subsets(self, chain_poset):
        assert len(enumerate_chains(chain_poset)) == 7

    def test_unknown_subset_member(self, edge_poset):
        with pytest.raises(UnknownElement):
            enumerate_chains(edge_poset, {"nope"})

    def test_tuples_in_depth_first_identifier_order(self, chain_poset):
        """Each chain is the tuple of its members, increasing; the walk
        visits them depth first in identifier order."""
        chains = enumerate_chains(chain_poset)
        assert all(type(c) is tuple for c in chains)
        assert chains == [("0",), ("0", "1"), ("0", "1", "2"), ("0", "2"),
                          ("1",), ("1", "2"), ("2",)]
        assert enumerate_chains(chain_poset, ["2", "0", "2"]) == [("0",), ("0", "2"), ("2",)]

    @settings(max_examples=60)
    @given(posets())
    def test_matches_brute_force(self, poset):
        got = [frozenset(c) for c in enumerate_chains(poset)]
        expected = brute_force_chains(poset, poset.elements)
        assert len(got) == len(set(got)), "duplicate chains emitted"
        assert set(got) == set(expected)


class TestOrderComplex:
    def test_edge_poset(self, edge_poset):
        complex_ = order_complex(edge_poset)
        assert complex_.counts_by_dimension() == (3, 2)
        assert euler_characteristic(complex_) == 1

    def test_singleton(self):
        complex_ = order_complex(build_poset(["x"], []))
        assert complex_.simplices == frozenset({frozenset({"x"})})
        assert euler_characteristic(complex_) == 1

    def test_antichain(self):
        poset = build_poset(["a", "b", "c", "d"], [])
        complex_ = order_complex(poset)
        assert complex_.counts_by_dimension() == (4,)
        assert euler_characteristic(complex_) == 4

    def test_triangle_chi_is_one(self, triangle):
        assert euler_characteristic(order_complex(triangle.poset)) == 1

    def test_two_disjoint_four_cycles_chi_zero(self):
        # Eight vertices and eight edges, directly as a simplicial complex.
        vertices = tuple(f"v{i}" for i in range(8))
        edges = [frozenset({f"v{i}", f"v{(i + 1) % 4}"}) for i in range(4)]
        edges += [frozenset({f"v{4 + i}", f"v{4 + (i + 1) % 4}"}) for i in range(4)]
        simplices = frozenset(
            {frozenset({v}) for v in vertices} | set(edges)
        )
        complex_ = SimplicialComplex(vertices=vertices, simplices=simplices)
        assert euler_characteristic(complex_) == 0

    @settings(max_examples=50)
    @given(posets())
    def test_chain_count_equals_simplex_count(self, poset):
        chains = enumerate_chains(poset)
        complex_ = order_complex(poset)
        assert len(chains) == len(complex_.simplices)
        chi_from_chains = sum((-1) ** (len(c) - 1) for c in chains)
        assert chi_from_chains == euler_characteristic(complex_)


class TestChainCounts:
    """The counting recursion against the order complex it counts."""

    @staticmethod
    def assert_matches_order_complex(poset):
        complex_ = order_complex(poset)
        counts = chain_counts(poset)
        assert counts == complex_.counts_by_dimension()
        assert sum(counts) == len(complex_.simplices)
        assert sum((-1) ** k * c for k, c in enumerate(counts)) == euler_characteristic(complex_)

    @settings(max_examples=150, deadline=None)
    @given(posets() | graded_posets())
    def test_random_posets(self, poset):
        self.assert_matches_order_complex(poset)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_seeded_face_posets(self, seed):
        self.assert_matches_order_complex(face_poset_of(seed))

    # Past the order complex's reach: the chains of dimension k are the
    # (k + 1)-subsets of a chain, or of the ranks of a suspension, with one
    # of the two elements picked at each rank.
    @pytest.mark.parametrize("n", [300, 1000])
    def test_long_chain(self, n):
        names = [f"c{i}" for i in range(n)]
        poset = build_poset(names, list(zip(names, names[1:])))
        assert chain_counts(poset) == tuple(comb(n, k + 1) for k in range(n))

    def test_long_chain_memory(self):
        """Each count vector is dropped after its last reader: a 1000-element
        chain stays under 8 MB traced, where keeping every vector to the end
        takes about 49 MB."""
        names = [f"c{i}" for i in range(1000)]
        poset = build_poset(names, list(zip(names, names[1:])))
        tracemalloc.start()
        try:
            counts = chain_counts(poset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts) == 2**1000 - 1
        assert peak < 8 * 2**20

    def test_long_chain_closure_memory(self):
        """Each strict down-set is stored as a tuple, not a frozenset: a
        1000-element chain's poset holds about 8 MB traced, where a
        frozenset per element holds about 25 MB."""
        names = [f"c{i}" for i in range(1000)]
        covers = list(zip(names, names[1:]))
        tracemalloc.start()
        try:
            poset = build_poset(names, covers)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(poset.strict_down_set("c999")) == 999
        assert held < 16 * 2**20

    def test_deep_suspension(self):
        d = 100
        levels = [(f"a{r}", f"b{r}") for r in range(d)]
        covers = [(x, y) for low, high in zip(levels, levels[1:]) for x in low for y in high]
        poset = build_poset([e for level in levels for e in level], covers)
        assert chain_counts(poset) == tuple(comb(d, k + 1) * 2 ** (k + 1) for k in range(d))


class TestTwoWide:
    def test_chain_fails_with_witness(self, chain_poset):
        verdict = is_two_wide(chain_poset)
        assert not verdict
        assert verdict.witness == ("0", "1", "2")

    def test_triangle_holds(self, triangle):
        assert is_two_wide(triangle.poset)

    def test_edge_poset_vacuously(self, edge_poset):
        assert is_two_wide(edge_poset)

    @staticmethod
    def brute_force_witness(poset):
        """The least (a, b, c) with a < b < c covers and b the only x with
        a < x < c covers, covers found from the strict order alone."""
        below = {y: poset.strict_down_set(y) for y in poset.elements}
        covers = {(x, y) for y in below for x in below[y]
                  if not any(x in below[z] for z in below[y])}
        bad = []
        for c in poset.elements:
            for a in below[c]:
                middles = [x for x in below[c] if (a, x) in covers and (x, c) in covers]
                if len(middles) == 1:
                    bad.append((a, middles[0], c))
        return min(bad, default=None)

    def assert_matches_brute_force(self, poset):
        verdict = is_two_wide(poset)
        witness = self.brute_force_witness(poset)
        assert verdict.witness == witness
        assert verdict.holds == (witness is None)

    @settings(max_examples=200, deadline=None)
    @given(posets() | graded_posets())
    def test_random_posets(self, poset):
        self.assert_matches_brute_force(poset)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_seeded_face_posets(self, seed):
        # In a face poset, graded by dimension, a < b < c covers span an
        # interval [a, c] of length two, and it has a second middle.
        poset = face_poset_of(seed)
        self.assert_matches_brute_force(poset)
        assert is_two_wide(poset)

    def test_cubical_posets(self):
        for spec in (cube(3), cubical_torus(3, 4), cubical_cone(3, 3)):
            self.assert_matches_brute_force(face_poset_cellular(spec).poset)

    def test_cover_chains_not_intervals(self):
        # a < b < c has no second middle, but [a, c] has length three, and
        # every interval of length two here has two middles: 2-wideness
        # reads cover chains, and on ungraded posets that is stricter.
        poset = build_poset(
            ["a", "b", "c", "x", "x2", "y", "y2"],
            [("a", "b"), ("b", "c"), ("a", "x"), ("a", "x2"), ("x", "y"), ("x", "y2"),
             ("x2", "y"), ("x2", "y2"), ("y", "c"), ("y2", "c")],
        )
        assert is_two_wide(poset).witness == ("a", "b", "c")

    def test_cover_chains_on_a_parity_graded_poset(self):
        # a < b < c and a < x < y < z < c: every path from a to c has even
        # length, so the poset has a parity rank, and b, x, y and z all lie
        # strictly between a and c.  Read on cover chains, a < b < c still
        # has no second middle, so the poset is not 2-wide and fails the
        # hypotheses.
        poset = build_poset(
            ["a", "b", "c", "x", "y", "z"],
            [("a", "b"), ("b", "c"), ("a", "x"), ("x", "y"), ("y", "z"), ("z", "c")],
        )
        assert isinstance(compute_parity_rank(poset), dict)
        assert poset.strict_down_set("c") - {"a"} == {"b", "x", "y", "z"}
        assert is_two_wide(poset).witness == ("a", "b", "c")
        self.assert_matches_brute_force(poset)
        with pytest.raises(HypothesisViolated, match="not 2-wide"):
            check_hypotheses(poset)


class TestGradings:
    def test_triangle_parity_is_dimension_mod_two(self, triangle):
        mu = compute_parity_rank(triangle.poset)
        assert mu == {e: triangle.rank[e] % 2 for e in triangle.poset.elements}

    def test_conflict_reported(self, parity_conflict_poset):
        conflict = compute_parity_rank(parity_conflict_poset)
        assert isinstance(conflict, GradingConflict)
        assert conflict.element == "c"
        assert sorted(conflict.values) == [0, 1]

    def test_singleton_parity(self):
        assert compute_parity_rank(build_poset(["x"], [])) == {"x": 0}

    def test_triangle_rank(self, triangle):
        rank = compute_rank_function(triangle.poset)
        assert max(rank.values()) == 2
        assert rank["1,2,3"] == 2

    def test_rank_conflict(self, parity_conflict_poset):
        assert isinstance(compute_rank_function(parity_conflict_poset), GradingConflict)

    def test_antichain_ranks(self):
        assert compute_rank_function(build_poset(["a", "b"], [])) == {"a": 0, "b": 0}

    @settings(max_examples=50)
    @given(posets())
    def test_parity_matches_rank_mod_two(self, poset):
        rank = compute_rank_function(poset)
        if isinstance(rank, GradingConflict):
            return
        assert compute_parity_rank(poset) == {e: rank[e] % 2 for e in poset.elements}

    @settings(max_examples=30)
    @given(posets())
    def test_gradings_unique_on_recompute(self, poset):
        first = compute_parity_rank(poset)
        second = compute_parity_rank(poset)
        if not isinstance(first, GradingConflict):
            assert first == second and first is not second


def two_pass_gradings(poset):
    """Reference: the rank function and the parity rank, each propagated in
    a walk of its own over the topological order, each stopping at its
    first conflict."""

    def propagate(step):
        values, via = {}, {}
        for e in poset.topological_order:
            parents = poset.lower_covers(e)
            if not parents:
                values[e] = 0
                continue
            for a in parents:
                expected = step(values[a])
                if e not in values:
                    values[e], via[e] = expected, a
                elif values[e] != expected:
                    return GradingConflict(e, (values[e], expected), (via[e], a))
        return values

    return propagate(lambda v: v + 1), propagate(lambda v: 1 - v)


@st.composite
def relabelled_posets(draw):
    """posets() with the identifiers permuted, so identifier order is seldom
    a linear extension."""
    poset = draw(posets())
    names = draw(st.permutations(poset.elements))
    rename = dict(zip(poset.elements, names))
    return build_poset(names, [(rename[a], rename[b]) for a, b in poset.covers])


class TestOneGradingWalk:
    """build_poset's one walk gives what two separate walks gave."""

    @settings(max_examples=150)
    @given(posets() | relabelled_posets())
    def test_matches_two_pass_reference(self, poset):
        rank, parity = compute_rank_function(poset), compute_parity_rank(poset)
        assert (rank, parity) == two_pass_gradings(poset)
        for grading in (rank, parity):
            if not isinstance(grading, GradingConflict):
                assert list(grading) == list(poset.elements)

    def test_rank_conflict_with_parity_rank(self):
        poset = build_poset(
            ["a", "b", "c", "d", "e", "x"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "x"), ("x", "e")],
        )
        assert compute_rank_function(poset) == GradingConflict("e", (4, 2), ("d", "x"))
        mu = compute_parity_rank(poset)
        assert mu == {"a": 0, "b": 1, "c": 0, "d": 1, "e": 0, "x": 1}

    def test_parity_conflict_stops_the_walk(self):
        poset = build_poset(
            ["a", "b", "c", "d", "x"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "x"), ("x", "d")]
        )
        assert compute_rank_function(poset) == GradingConflict("d", (3, 2), ("c", "x"))
        assert compute_parity_rank(poset) == GradingConflict("d", (1, 0), ("c", "x"))

    def test_results_are_copies(self, triangle):
        poset = triangle.poset
        for compute in (compute_rank_function, compute_parity_rank):
            grading = compute(poset)
            grading["1"] = 7
            assert compute(poset)["1"] == 0

    @pytest.mark.parametrize("name", ["edge_poset", "triangle", "two_cycles"])
    def test_plain_dicts_in_identifier_order(self, request, name):
        poset = request.getfixturevalue(name)
        poset = getattr(poset, "poset", poset)
        for compute, own in ((compute_rank_function, poset._rank),
                             (compute_parity_rank, poset._parity)):
            grading = compute(poset)
            assert type(grading) is dict and type(own) is dict
            assert list(grading.items()) == list(own.items())
            assert list(grading) == list(poset.elements)
            assert grading is not own


def prioritized_kahn(poset, key):
    """Reference order: Kahn's algorithm popping the least key among ready elements."""
    indeg = {e: len(poset.lower_covers(e)) for e in poset.elements}
    ready = [(key(e), e) for e in poset.elements if indeg[e] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, e = heapq.heappop(ready)
        order.append(e)
        for t in poset.upper_covers(e):
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(ready, (key(t), t))
    return tuple(order)


class TestTopologicalOrder:
    @settings(max_examples=80)
    @given(posets())
    def test_stored_order_is_smallest_ready_first(self, poset):
        assert poset.topological_order == prioritized_kahn(poset, lambda e: e)

    @settings(max_examples=80)
    @given(posets())
    def test_linear_extension_matches_rank_priority(self, poset):
        rank = compute_rank_function(poset)
        if not isinstance(rank, GradingConflict):
            expected = prioritized_kahn(poset, lambda e: (rank[e], e))
        else:
            expected = prioritized_kahn(poset, lambda e: e)
        assert linear_extension(poset) == expected

    def test_ungraded_linear_extension(self, parity_conflict_poset):
        assert linear_extension(parity_conflict_poset) == ("a", "b", "d", "c")


class TestDownwardEulerian:
    def test_triangle(self, triangle):
        mu = compute_parity_rank(triangle.poset)
        assert is_downward_eulerian(triangle.poset, mu)

    def test_half_open_edge_fails(self):
        poset = build_poset(["a", "e"], [("a", "e")])
        mu = compute_parity_rank(poset)
        verdict = is_downward_eulerian(poset, mu)
        assert not verdict
        assert verdict.violations == (("e", 1, 2),)

    def test_two_cycles_poset_holds(self, two_cycles):
        assert is_downward_eulerian(two_cycles.poset, compute_parity_rank(two_cycles.poset)).holds
        assert is_two_wide(two_cycles.poset).holds

    def test_invalid_parity_rejected(self, edge_poset):
        # A package error, and still the ValueError a library caller expects.
        with pytest.raises(InvalidArgument) as info:
            is_downward_eulerian(edge_poset, {"a": 1, "b": 0, "e": 1})
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "parity rank of 'a' is not 0"


def four_part_parity_error(poset, values):
    """The first element at which values breaks the definition of a parity
    rank, or None: every element has 0 or 1, minimal elements 0, and the
    value flips across every cover."""
    for e in poset.elements:
        if values.get(e) not in (0, 1) or (not poset.lower_covers(e) and values[e] != 0):
            return e
    flips = [b for a, b in sorted(poset.covers) if values[b] != 1 - values[a]]
    return flips[0] if flips else None


@st.composite
def parity_guesses(draw):
    """A random poset and a 0/1 map on it: often its own parity rank, if
    it has one, with a few values flipped or dropped."""
    poset = draw(posets() | graded_posets() | st.builds(face_poset_of, st.integers(0, 10**6)))
    own = compute_parity_rank(poset)
    if not isinstance(own, GradingConflict) and draw(st.booleans()):
        values = own
    else:
        values = {e: draw(st.integers(0, 1)) for e in poset.elements}
    for e in draw(st.lists(st.sampled_from(poset.elements), max_size=2)) if len(poset) else ():
        if draw(st.booleans()):
            values[e] = 1 - values.get(e, 1)
        else:
            values.pop(e, None)
    return poset, values


class TestValidateParityRank:
    """One comparison with the stored parity against the four-part rule."""

    @settings(max_examples=300, deadline=None)
    @given(parity_guesses())
    def test_matches_four_part_rule(self, case):
        # A poset with no parity rank is outside the class, whatever the
        # guess; otherwise a guess the rule refuses is a bad argument.
        poset, values = case
        reference = four_part_parity_error(poset, values)
        if isinstance(poset._parity, GradingConflict):
            with pytest.raises(HypothesisViolated):
                validate_parity_rank(poset, values)
        elif reference is None:
            validate_parity_rank(poset, values)
        else:
            with pytest.raises(InvalidArgument) as info:
                validate_parity_rank(poset, values)
            assert isinstance(info.value, ValueError)

    def test_names_the_first_element(self, triangle):
        values = {e: r % 2 for e, r in triangle.rank.items()}
        values["2"] = 1
        values["3"] = 1
        with pytest.raises(ValueError, match="'2'"):
            validate_parity_rank(triangle.poset, values)

    def test_no_parity_rank(self, parity_conflict_poset):
        with pytest.raises(HypothesisViolated, match="'c'") as info:
            validate_parity_rank(parity_conflict_poset, {"a": 0, "b": 0, "c": 1, "d": 1})
        assert info.value.prop == "no parity rank function"


def test_one_refusal_of_a_poset_with_no_parity_rank(no_parity_poset):
    """Every function that needs the parity rank refuses a 2-wide poset
    without one with the same HypothesisViolated, whatever grading or
    function the caller passes."""
    poset = no_parity_poset
    assert is_two_wide(poset) and isinstance(poset._parity, GradingConflict)
    zero = MorseFunction.from_values(dict.fromkeys(poset.elements, 0))
    refusals = []
    for call in (lambda: check_hypotheses(poset), lambda: validate_parity_rank(poset, {}),
                 lambda: is_downward_eulerian(poset, {}),
                 lambda: verify_representation(poset, zero),
                 lambda: morse_inequality_report(poset, {}, zero)):
        with pytest.raises(HypothesisViolated) as info:
            call()
        refusals.append((info.value.prop, info.value.detail))
    assert refusals == [("no parity rank function",
                         "element 't' receives 1 via 'q1' and 0 via 'u1'")] * 5


class TestDownwardEulerianOracle:
    """The one-pass check against chain enumeration under each element."""

    @staticmethod
    def assert_matches_enumeration(poset):
        mu = compute_parity_rank(poset)
        assert isinstance(mu, dict)
        violations = []
        for a in sorted(poset.elements):
            if poset.lower_covers(a):
                chains = enumerate_chains(poset, poset.strict_down_set(a))
                chi = sum((-1) ** (len(c) - 1) for c in chains)
                required = 2 if mu[a] else 0
                if chi != required:
                    violations.append((a, chi, required))
        verdict = is_downward_eulerian(poset, mu)
        assert verdict.violations == tuple(violations)
        assert verdict.holds == (not violations)

    @settings(max_examples=100, deadline=None)
    @given(graded_posets())
    def test_random_graded_posets(self, poset):
        self.assert_matches_enumeration(poset)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_seeded_face_posets(self, seed):
        self.assert_matches_enumeration(face_poset_of(seed))

    def test_two_cycles_poset(self, two_cycles):
        self.assert_matches_enumeration(two_cycles.poset)


class TestChainWeights:
    """Hall's recursion against the chains it counts."""

    @staticmethod
    def assert_matches_enumeration(poset, subset):
        chains = enumerate_chains(poset, subset)
        tops = {x: 0 for x in subset}
        for c in chains:
            tops[c[-1]] += (-1) ** (len(c) - 1)
        assert chain_weights(poset, subset) == tops
        assert sum(tops.values()) == sum((-1) ** (len(c) - 1) for c in chains)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_subsets_of_random_posets(self, data):
        poset = data.draw(posets() | graded_posets())
        subset = {e for e in poset.elements if data.draw(st.booleans())}
        self.assert_matches_enumeration(poset, subset)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
    def test_random_subsets_of_face_posets(self, seed, data):
        poset = face_poset_of(seed)
        subset = {e for e in poset.elements if data.draw(st.booleans())}
        self.assert_matches_enumeration(poset, subset)

    def test_whole_poset_is_the_default(self, triangle):
        poset = triangle.poset
        assert chain_weights(poset) == chain_weights(poset, poset.elements)
        assert chain_weights(poset)["1,2,3"] == 1

    def test_unknown_element(self, edge_poset):
        with pytest.raises(UnknownElement):
            chain_weights(edge_poset, {"a", "zz"})

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9), data=st.data())
    def test_any_member_order(self, seed, data):
        # The recursion orders the members itself, so a set, a sorted list
        # and a shuffled tuple of the same members give the same weights.
        poset = face_poset_of(seed)
        subset = [e for e in poset.elements if data.draw(st.booleans())]
        shuffled = tuple(data.draw(st.permutations(subset)))
        w = chain_weights(poset, set(subset))
        assert chain_weights(poset, sorted(subset)) == w
        assert chain_weights(poset, shuffled) == w
        # The keys run by down-set size, then identifier, whatever the hash seed.
        assert list(w) == sorted(subset, key=lambda e: len(poset.strict_down_set(e)))

    def test_unknown_element_is_the_identifier_first(self, edge_poset):
        # Both "yy" and "zz" are unknown; the error names "yy" in either order.
        for subset in (["zz", "a", "yy"], ["yy", "a", "zz"]):
            with pytest.raises(UnknownElement) as info:
                chain_weights(edge_poset, subset)
            assert str(info.value) == "unknown element 'yy'"

    def test_long_chain(self):
        # Exponentially many chains: 2^400 - 1 of them, so only the
        # recursion can answer.  w is 1 at the bottom and 0 above it.
        names = [f"c{i:03d}" for i in range(400)]
        poset = build_poset(names, list(zip(names, names[1:])))
        w = chain_weights(poset)
        assert w[names[0]] == 1
        assert set(w[e] for e in names[1:]) == {0}
        assert sum(w.values()) == 1


class TestCoverRederivation:
    @staticmethod
    def derive_covers(poset):
        """Oracle: x < y is a cover iff nothing sits strictly between."""
        derived = set()
        for y in poset.elements:
            for x in poset.strict_down_set(y):
                between = poset.strict_down_set(y) & poset.strict_up_set(x)
                if not between:
                    derived.add((x, y))
        return derived

    def test_named_posets(self, edge_poset, chain_poset, triangle):
        for poset in (edge_poset, chain_poset, triangle.poset):
            assert self.derive_covers(poset) == set(poset.covers)

    @settings(max_examples=50)
    @given(posets())
    def test_random_posets(self, poset):
        assert self.derive_covers(poset) == set(poset.covers)


@st.composite
def shuffled_inputs(draw):
    """A face poset or a ranked poset that seldom is one, with the element
    and cover lists it is rebuilt from drawn in any order."""
    poset = draw(st.integers(min_value=0, max_value=40).map(face_poset_of) | graded_posets())
    elements = draw(st.permutations(poset.elements))
    covers = draw(st.permutations(sorted(poset.covers)))
    return poset, elements, covers


class TestStoredOrder:
    """build_poset stores identifier order once, whatever the input order."""

    @settings(max_examples=60, deadline=None)
    @given(shuffled_inputs())
    def test_elements_pairs_and_up_sets_are_sorted(self, case):
        reference, elements, covers = case
        poset = build_poset(elements, covers)
        assert list(poset.elements) == sorted(elements)
        assert poset_module._cover_pairs(poset) == sorted(poset.covers)
        for e in poset.elements:
            above = sorted(x for x in poset.elements if e in poset.strict_down_set(x))
            assert list(poset._above[e]) == above
            up = poset.strict_up_set(e)
            assert type(up) is frozenset
            assert up == frozenset(poset._above[e])
        assert poset.topological_order == reference.topological_order


@st.composite
def relations(draw):
    """Acyclic relations with redundant and repeated pairs, listed in any
    order, on identifiers whose order is seldom the relation's."""
    n = draw(st.integers(min_value=0, max_value=8))
    names = draw(st.permutations([f"r{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(min_value=0, max_value=2)) == 0]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return draw(st.permutations(names)), draw(st.permutations(pairs))


def brute_force_covers(elements, relation):
    """Oracle: the closure by plain search from every element, then the
    closure pairs with nothing strictly between, sorted."""
    succ = {e: {b for a, b in relation if a == e} for e in elements}
    closure = set()
    for start in elements:
        stack = list(succ[start])
        while stack:
            x = stack.pop()
            if (start, x) not in closure:
                closure.add((start, x))
                stack += succ[x]
    return sorted((a, b) for a, b in closure
                  if not any((a, c) in closure and (c, b) in closure for c in elements))


def stored(poset):
    """Every field the poset stores, its dicts as item lists, so their key
    order counts too."""
    return [list(value.items()) if isinstance(value, dict) else value
            for value in (getattr(poset, name) for name in (
                "elements", "covers", "topological_order", "_upper", "_lower", "_above",
                "_below", "_rank", "_parity"))]


class TestTransitiveReduction:
    def test_removes_redundant_pairs(self):
        covers = transitive_reduction(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
        )
        assert covers == [("a", "b"), ("b", "c")]

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            transitive_reduction(["a", "b"], [("a", "b"), ("b", "a")])

    @settings(max_examples=40)
    @given(posets())
    def test_reduction_of_full_order_recovers_covers(self, poset):
        relation = [
            (a, b) for b in poset.elements for a in poset.strict_down_set(b)
        ]
        assert set(transitive_reduction(poset.elements, relation)) == set(poset.covers)

    @settings(max_examples=150, deadline=None)
    @given(relations())
    def test_one_build_matches_brute_force_closure(self, case):
        elements, relation = case
        covers = brute_force_covers(elements, relation)
        assert transitive_reduction(elements, relation) == covers
        redundant = set(relation) - set(covers)
        if redundant:
            with pytest.raises(NonCoverEdge) as info:
                build_poset(elements, relation)
            assert info.value.pair == min(redundant)
        else:
            assert stored(build_poset(elements, relation)) == stored(build_poset(elements, covers))
        poset, pairs = poset_module._order(elements, relation)
        assert pairs == set(relation)
        assert stored(poset) == stored(build_poset(elements, covers))

    @pytest.mark.parametrize("hasse", [
        build_poset([f"c{i:02d}" for i in range(60)],
                    [(f"c{i:02d}", f"c{i + 1:02d}") for i in range(59)]),
        face_poset_cellular(cube(3)).poset,
        face_poset_cellular(cubical_cone(3, 3)).poset,
    ], ids=["chain60", "cube3", "cubical_cone3"])
    def test_full_order(self, hasse):
        relation = [(a, b) for b in hasse.elements for a in hasse.strict_down_set(b)]
        poset, pairs = poset_module._order(hasse.elements, relation)
        assert stored(poset) == stored(hasse)
        assert transitive_reduction(hasse.elements, relation) == sorted(hasse.covers)
        with pytest.raises(NonCoverEdge) as info:
            build_poset(hasse.elements, relation)
        assert info.value.pair == min(set(relation) - hasse.covers)

    @pytest.mark.parametrize("spec", [cube(3), cubical_torus(3, 4), cubical_cone(3, 3)],
                             ids=["cube3", "cubical_torus3x4", "cubical_cone3"])
    def test_full_boundaries_give_the_same_poset(self, spec):
        full, faces = face_poset_cellular(full_boundaries(spec)), face_poset_cellular(spec)
        assert stored(full.poset) == stored(faces.poset)
        assert full.rank == faces.rank


def test_chain_euler_characteristic_matches_complex(edge_poset):
    assert sum(chain_weights(edge_poset).values()) == 1
    assert sum(chain_weights(edge_poset, {"a", "b"}).values()) == 2
