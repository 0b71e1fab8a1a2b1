"""Poset construction, chains, order complex, and the structural checks."""

from __future__ import annotations

import heapq
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsepoly.poset as poset_module
from morsepoly import (
    Chain,
    CycleDetected,
    GradingConflict,
    NonCoverEdge,
    ParityRank,
    RankFunction,
    SimplicialComplex,
    UnknownElement,
    build_poset,
    chain_counts,
    chain_euler_characteristic,
    chain_weights,
    compute_parity_rank,
    compute_rank_function,
    enumerate_chains,
    euler_characteristic,
    face_poset_simplicial,
    gen_complex,
    is_downward_eulerian,
    is_two_wide,
    linear_extension,
    order_complex,
    transitive_reduction,
)


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
                poset.lt(a, b) or poset.lt(b, a)
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
        assert poset.minimal_elements() == ("x",)

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


class TestOrderQueries:
    def test_leq(self, edge_poset):
        assert edge_poset.leq("a", "e")
        assert not edge_poset.leq("a", "b")
        assert edge_poset.leq("a", "a")

    def test_leq_transitive(self, chain_poset):
        assert chain_poset.leq("0", "2")

    def test_leq_unknown(self, edge_poset):
        with pytest.raises(UnknownElement):
            edge_poset.leq("a", "zzz")

    def test_strict_down_sets(self, edge_poset, triangle):
        assert edge_poset.strict_down_set("e") == {"a", "b"}
        assert edge_poset.strict_down_set("a") == frozenset()
        assert triangle.poset.strict_down_set("1,2,3") == {
            "1", "2", "3", "1,2", "1,3", "2,3",
        }


class TestChains:
    def test_edge_poset_chains(self, edge_poset):
        chains = enumerate_chains(edge_poset)
        assert [c.members for c in chains] == [
            ("a",), ("a", "e"), ("b",), ("b", "e"), ("e",),
        ]

    def test_single_element_subset(self, edge_poset):
        assert enumerate_chains(edge_poset, {"a"}) == [Chain(("a",))]

    def test_chain_poset_has_all_subsets(self, chain_poset):
        assert len(enumerate_chains(chain_poset)) == 7

    def test_unknown_subset_member(self, edge_poset):
        with pytest.raises(UnknownElement):
            enumerate_chains(edge_poset, {"nope"})

    def test_lengths(self, chain_poset):
        by_members = {c.members: c.length for c in enumerate_chains(chain_poset)}
        assert by_members[("0", "1", "2")] == 2
        assert by_members[("0",)] == 0

    def test_soft_limit_warning(self, monkeypatch, chain_poset):
        monkeypatch.setattr(poset_module, "CHAIN_SOFT_LIMIT", 3)
        for walk in (enumerate_chains, order_complex):
            with pytest.warns(RuntimeWarning, match="desk scale") as caught:
                walk(chain_poset)
            # Once per walk, at the line that called it.
            assert len(caught) == 1
            assert caught[0].filename == __file__

    @settings(max_examples=60)
    @given(posets())
    def test_matches_brute_force(self, poset):
        got = [frozenset(c.members) for c in enumerate_chains(poset)]
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
        chi_from_chains = sum((-1) ** c.length for c in chains)
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


class TestTwoWide:
    def test_chain_fails_with_witness(self, chain_poset):
        verdict = is_two_wide(chain_poset)
        assert not verdict
        assert verdict.witness == ("0", "1", "2")

    def test_triangle_holds(self, triangle):
        assert is_two_wide(triangle.poset)

    def test_edge_poset_vacuously(self, edge_poset):
        assert is_two_wide(edge_poset)


class TestGradings:
    def test_triangle_parity_is_dimension_mod_two(self, triangle):
        mu = compute_parity_rank(triangle.poset)
        assert isinstance(mu, ParityRank)
        assert mu.values == {e: triangle.rank.values[e] % 2 for e in triangle.poset.elements}

    def test_conflict_reported(self, parity_conflict_poset):
        conflict = compute_parity_rank(parity_conflict_poset)
        assert isinstance(conflict, GradingConflict)
        assert conflict.element == "c"
        assert sorted(conflict.values) == [0, 1]

    def test_singleton_parity(self):
        mu = compute_parity_rank(build_poset(["x"], []))
        assert isinstance(mu, ParityRank)
        assert mu.values == {"x": 0}

    def test_triangle_rank(self, triangle):
        rank = compute_rank_function(triangle.poset)
        assert isinstance(rank, RankFunction)
        assert rank.max_rank == 2
        assert rank.values["1,2,3"] == 2

    def test_rank_conflict(self, parity_conflict_poset):
        assert isinstance(compute_rank_function(parity_conflict_poset), GradingConflict)

    def test_antichain_ranks(self):
        rank = compute_rank_function(build_poset(["a", "b"], []))
        assert isinstance(rank, RankFunction)
        assert rank.values == {"a": 0, "b": 0}
        assert rank.max_rank == 0

    @settings(max_examples=50)
    @given(posets())
    def test_parity_matches_rank_mod_two(self, poset):
        rank = compute_rank_function(poset)
        if not isinstance(rank, RankFunction):
            return
        mu = compute_parity_rank(poset)
        assert isinstance(mu, ParityRank)
        assert mu.values == {e: rank.values[e] % 2 for e in poset.elements}

    @settings(max_examples=30)
    @given(posets())
    def test_gradings_unique_on_recompute(self, poset):
        first = compute_parity_rank(poset)
        second = compute_parity_rank(poset)
        if isinstance(first, ParityRank):
            assert isinstance(second, ParityRank)
            assert first.values == second.values


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
        if isinstance(rank, RankFunction):
            expected = prioritized_kahn(poset, lambda e: (rank.values[e], e))
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
        assert is_downward_eulerian(two_cycles.poset, two_cycles.parity).holds
        assert is_two_wide(two_cycles.poset).holds

    def test_invalid_parity_rejected(self, edge_poset):
        with pytest.raises(ValueError):
            is_downward_eulerian(edge_poset, ParityRank(values={"a": 1, "b": 0, "e": 1}))


class TestDownwardEulerianOracle:
    """The one-pass check against chain enumeration under each element."""

    @staticmethod
    def assert_matches_enumeration(poset):
        mu = compute_parity_rank(poset)
        assert isinstance(mu, ParityRank)
        violations = []
        for a in sorted(poset.elements):
            if poset.lower_covers(a):
                chains = enumerate_chains(poset, poset.strict_down_set(a))
                chi = sum((-1) ** c.length for c in chains)
                required = 2 if mu.values[a] else 0
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
            tops[c.members[-1]] += (-1) ** c.length
        assert chain_weights(poset, subset) == tops
        assert chain_euler_characteristic(poset, subset) == sum(tops.values())
        assert chain_euler_characteristic(poset, subset) == sum(
            (-1) ** c.length for c in chains
        )

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

    def test_long_chain(self):
        # Exponentially many chains: 2^400 - 1 of them, so only the
        # recursion can answer.  w is 1 at the bottom and 0 above it.
        names = [f"c{i:03d}" for i in range(400)]
        poset = build_poset(names, list(zip(names, names[1:])))
        w = chain_weights(poset)
        assert w[names[0]] == 1
        assert set(w[e] for e in names[1:]) == {0}
        assert chain_euler_characteristic(poset, names) == 1


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


def test_chain_euler_characteristic_matches_complex(edge_poset):
    assert chain_euler_characteristic(edge_poset, edge_poset.elements) == 1
    assert chain_euler_characteristic(edge_poset, {"a", "b"}) == 2
