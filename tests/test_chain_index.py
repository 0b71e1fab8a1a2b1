"""Chain-sum identities, the combinatorial index, and the verifiers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepoly import (
    HypothesisViolated,
    Mismatch,
    MissingValue,
    MorseFunction,
    NonGeneralFunction,
    NotACover,
    ParityRank,
    build_poset,
    chain_counts,
    chain_euler_characteristic,
    chain_sum_excluding,
    chain_sum_lower,
    chain_sum_top,
    chain_weights,
    check_hypotheses,
    classify,
    combinatorial_index,
    combinatorial_indices,
    compute_parity_rank,
    dimension_morse,
    embed_vertices,
    enumerate_chains,
    face_poset_cellular,
    face_poset_simplicial,
    gen_complex,
    gen_morse,
    normalize,
    predicted_index,
    transitive_reduction,
    verify_representation,
)
from tests.conftest import CUBICAL, cubical_cone


def parity_of(poset) -> ParityRank:
    mu = compute_parity_rank(poset)
    assert isinstance(mu, ParityRank)
    return mu


class TestChainSumTop:
    def test_minimal_element_is_one(self, edge_poset):
        assert chain_sum_top(edge_poset, "a") == 1

    def test_edge_top(self, edge_poset):
        # Chains through e: {e}, {a,e}, {b,e} -> 1 - 1 - 1 = -1.
        assert chain_sum_top(edge_poset, "e") == -1

    def test_triangle_top(self, triangle):
        assert chain_sum_top(triangle.poset, "1,2,3") == 1

    def test_matches_parity_on_named_posets(self, edge_poset, triangle, two_cycles):
        for poset in (edge_poset, triangle.poset, two_cycles.poset):
            mu = parity_of(poset)
            for b in poset.sorted_elements:
                assert chain_sum_top(poset, b) == (-1) ** mu.values[b]

    def test_chain_weights_agree(self, triangle, two_cycles):
        for poset in (triangle.poset, two_cycles.poset):
            w = chain_weights(poset)
            for b in poset.sorted_elements:
                assert w[b] == chain_sum_top(poset, b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_chain_weights_agree_on_arbitrary_seeds(self, seed):
        face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
        w = chain_weights(face.poset)
        for b in face.poset.sorted_elements:
            assert w[b] == chain_sum_top(face.poset, b)

    def test_down_set_recursion_identity(self, triangle):
        # Removing b from each chain through b leaves the chains of its
        # strict down-set, so the signed sum equals 1 - chi of that down-set.
        poset = triangle.poset
        for b in poset.sorted_elements:
            chi_below = chain_euler_characteristic(poset, poset.strict_down_set(b))
            assert chain_sum_top(poset, b) == 1 - chi_below


class TestCoverPairSums:
    def test_edge_excluding(self, edge_poset):
        assert chain_sum_excluding(edge_poset, "a", "e") == 0

    def test_edge_lower(self, edge_poset):
        assert chain_sum_lower(edge_poset, "a", "e") == 0

    def test_triangle_all_covers_vanish(self, triangle):
        poset = triangle.poset
        for a, b in sorted(poset.covers):
            assert chain_sum_excluding(poset, a, b) == 0
            assert chain_sum_lower(poset, a, b) == 0

    def test_not_a_cover(self, triangle):
        with pytest.raises(NotACover):
            chain_sum_excluding(triangle.poset, "1", "1,2,3")

    def test_hypotheses_matter(self):
        # A bare 2-chain is not downward Eulerian; the vanishing fails there.
        poset = build_poset(["a", "b"], [("a", "b")])
        assert chain_sum_excluding(poset, "a", "b") == 1
        with pytest.raises(HypothesisViolated):
            check_hypotheses(poset)


class TestCombinatorialIndex:
    def test_singleton(self):
        poset = build_poset(["x"], [])
        g = MorseFunction.from_values({"x": 3})
        assert combinatorial_index(poset, g, "x") == 1

    def test_edge_poset(self, edge_poset):
        g = normalize(edge_poset, MorseFunction.from_values({"a": 0, "b": 2, "e": 1}))
        indices = [combinatorial_index(edge_poset, g, b) for b in ("a", "b", "e")]
        assert indices == [1, 0, 0]

    def test_triangle(self, triangle):
        poset = triangle.poset
        g = normalize(poset, dimension_morse(poset, triangle.rank))
        by_element = {b: combinatorial_index(poset, g, b) for b in poset.sorted_elements}
        assert by_element == {
            "1": 1, "2": 1, "3": 1,
            "1,2": -1, "1,3": -1, "2,3": -1,
            "1,2,3": 1,
        }

    def test_rejects_comparable_tie(self, edge_poset):
        g = MorseFunction.from_values({"a": 1, "b": 0, "e": 1})
        with pytest.raises(NonGeneralFunction):
            combinatorial_index(edge_poset, g, "a")

    def test_partial_function_is_refused_like_embed(self, edge_poset):
        # A value missing for some element is named, as embed_vertices names
        # it; a value at a non-element is ignored.
        g = MorseFunction.from_values({"a": 0, "b": 1, "zz": 5})
        message = "function has no value for ['e']"
        with pytest.raises(MissingValue) as info:
            embed_vertices(edge_poset, g)
        assert str(info.value) == message
        with pytest.raises(MissingValue) as info:
            combinatorial_indices(edge_poset, g)
        assert str(info.value) == message
        with pytest.raises(MissingValue) as info:
            combinatorial_index(edge_poset, g, "a")
        assert str(info.value) == message
        total = MorseFunction.from_values({"a": 0, "b": 1, "e": 2, "zz": 5})
        assert combinatorial_indices(edge_poset, total) == {"a": 1, "b": 1, "e": -1}

    def test_matches_full_chain_enumeration(self):
        # Oracle: scan every chain of the whole poset, no support-set pruning.
        from morsepoly import enumerate_chains

        for seed in range(6):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
            poset = face.poset
            g = normalize(poset, gen_morse(seed + 40, poset))
            all_chains = enumerate_chains(poset)
            for b in poset.sorted_elements:
                oracle = sum(
                    (-1) ** c.length
                    for c in all_chains
                    if b in c and all(g[v] <= g[b] for v in c.members)
                )
                assert combinatorial_index(poset, g, b) == oracle


@st.composite
def valued_posets(draw):
    """A random poset or a seeded face poset, with a function that is
    general (injective) or has ties, some of them on comparable pairs."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=7))
        names = [f"p{i}" for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if draw(st.booleans())
        ]
        poset = build_poset(names, transitive_reduction(names, pairs))
    else:
        seed = draw(st.integers(min_value=0, max_value=10**6))
        poset = face_poset_simplicial(gen_complex(seed, 5, 1 + seed % 3, 0.6)).poset
    ids = poset.sorted_elements
    if draw(st.booleans()):
        ranks = draw(st.permutations(range(len(ids))))
        values = {e: Fraction(r, 2) for e, r in zip(ids, ranks)}
    else:
        values = {e: draw(st.integers(min_value=0, max_value=len(ids))) for e in ids}
    return poset, MorseFunction.from_values(values)


class TestCombinatorialIndicesOracle:
    """The factorized index against a sum over every chain of the poset."""

    @settings(max_examples=150, deadline=None)
    @given(case=valued_posets())
    def test_matches_enumeration(self, case):
        poset, g = case
        general = all(g[a] != g[b] for a in poset.elements for b in poset.strict_up_set(a))
        if not general:
            with pytest.raises(NonGeneralFunction):
                combinatorial_indices(poset, g)
            return
        chains = enumerate_chains(poset)
        expected = {
            b: sum(
                (-1) ** c.length
                for c in chains
                if b in c and all(g[v] <= g[b] for v in c.members)
            )
            for b in poset.sorted_elements
        }
        assert combinatorial_indices(poset, g) == expected


class TestPredictedIndex:
    def test_three_cases(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        classification = classify(edge_poset, f)
        mu = parity_of(edge_poset)
        assert predicted_index(classification, mu, "a") == 1  # critical, even
        assert predicted_index(classification, mu, "b") == 0  # ordinary
        assert predicted_index(classification, mu, "e") == 0  # ordinary

    def test_odd_critical(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        classification = classify(triangle.poset, f)
        mu = parity_of(triangle.poset)
        assert predicted_index(classification, mu, "1,2") == -1


class TestVerifyRepresentation:
    def test_triangle(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        report = verify_representation(triangle.poset, f)
        assert report.total == 1 == report.chi
        assert (report.n_even, report.n_odd) == (4, 3)
        assert all(e.computed == e.predicted for e in report.entries)

    def test_edge_poset(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        report = verify_representation(edge_poset, f)
        assert [e.computed for e in report.entries] == [1, 0, 0]
        assert report.total == 1 == report.chi

    def test_two_cycles_poset(self, two_cycles):
        f = gen_morse(11, two_cycles.poset)
        report = verify_representation(two_cycles.poset, f)
        assert report.total == report.chi == 1
        assert report.n_even - report.n_odd == report.chi

    def test_hypothesis_violation(self, chain_poset, chain_morse):
        with pytest.raises(HypothesisViolated):
            verify_representation(chain_poset, chain_morse)

    def test_generated_sweep(self):
        for seed in range(10):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
            f = gen_morse(seed, face.poset)
            report = verify_representation(face.poset, f)
            assert report.total == report.chi


def alternating_chain_count(poset) -> int:
    return sum((-1) ** k * count for k, count in enumerate(chain_counts(poset)))


CONE3 = face_poset_cellular(cubical_cone(3, 3)).poset
CHI_CASES = [
    *(pytest.param(face_poset_simplicial(gen_complex(seed, 6, 1 + seed % 3, 0.5)).poset,
                   seed, id=f"gen_complex{seed}") for seed in range(8)),
    *(pytest.param(face_poset_cellular(spec).poset, 5, id=name) for name, spec, _ in CUBICAL),
    *(pytest.param(CONE3, seed, id=f"cone3-seed{seed}") for seed in (1, 2, 3)),
]


class TestEulerCharacteristic:
    """verify takes chi as the alternating count of elements by parity; it
    must equal Hall's recursion and the order complex's alternating
    f-vector sum, here also on a poset outside the CW class."""

    @pytest.mark.parametrize("poset, seed", CHI_CASES)
    def test_chi_agrees(self, poset, seed):
        report = verify_representation(poset, gen_morse(seed, poset))
        assert report.chi == chain_euler_characteristic(poset, poset.elements)
        assert report.chi == alternating_chain_count(poset)

    def test_cone_over_three_torus_is_not_a_sphere(self):
        poset = CONE3
        assert len(poset) == 217
        assert chain_euler_characteristic(poset, poset.elements) == 1
        # TOP's strict down-set is the 3-torus: chi 0, as for the 3-sphere.
        assert chain_euler_characteristic(poset, set(poset.elements) - {"TOP"}) == 0

    def test_cone_over_two_torus_is_not_downward_eulerian(self):
        poset = face_poset_cellular(cubical_cone(3, 2)).poset
        with pytest.raises(HypothesisViolated) as excinfo:
            verify_representation(poset, gen_morse(1, poset))
        assert excinfo.value.prop == "not downward Eulerian"
        assert excinfo.value.detail == (("TOP", 0, 2),)


class TestMorseCounts:
    """Critical counts by parity, as verify_representation reports them."""

    def test_triangle(self, triangle):
        f = dimension_morse(triangle.poset, triangle.rank)
        report = verify_representation(triangle.poset, f)
        assert (report.n_even, report.n_odd, report.chi) == (4, 3, 1)

    def test_edge_poset(self, edge_poset):
        f = MorseFunction.from_values({"a": 0, "b": 2, "e": 1})
        report = verify_representation(edge_poset, f)
        assert (report.n_even, report.n_odd, report.chi) == (1, 0, 1)

    def test_singleton(self):
        poset = build_poset(["x"], [])
        report = verify_representation(poset, MorseFunction.from_values({"x": 0}))
        assert (report.n_even, report.n_odd, report.chi) == (1, 0, 1)

    def test_hypotheses_checked(self, chain_poset, chain_morse):
        with pytest.raises(HypothesisViolated):
            verify_representation(chain_poset, chain_morse)


def test_mismatch_is_reported_loudly(edge_poset):
    # Mismatch can only come from a bug; simulate by checking the error type
    # carries its payload.
    error = Mismatch("e", 2, 0)
    assert error.element == "e"
    assert "mismatch" in str(error)
