"""Determinism and contract checks for the seeded generators."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepoly import generators
from morsepoly import (
    ComplexSpec,
    EmptyPoset,
    InvalidArgument,
    InvalidMorseFunction,
    build_poset,
    compute_parity_rank,
    face_poset_simplicial,
    find_troubled,
    gen_complex,
    gen_morse,
    is_downward_eulerian,
    is_two_wide,
    transitive_reduction,
    validate_morse,
)
from morsepoly.generators import _base_values, _contracted_is_acyclic, _sample_matching
from morsepoly.morse import _recheck_near
from morsepoly.jsonio import complex_to_obj, dumps_canonical, morse_to_obj


class TestGenComplex:
    def test_deterministic_per_seed(self):
        a = gen_complex(42, 6, 2, 0.5)
        b = gen_complex(42, 6, 2, 0.5)
        assert a == b
        assert dumps_canonical(complex_to_obj(a)) == dumps_canonical(complex_to_obj(b))

    def test_seeds_differ(self):
        outputs = {gen_complex(seed, 6, 2, 0.5).maximal_simplices for seed in range(6)}
        assert len(outputs) > 1

    def test_density_zero_is_vertex_only(self):
        spec = gen_complex(0, 4, 2, 0.0)
        assert spec.maximal_simplices == (("1",), ("2",), ("3",), ("4",))

    def test_every_vertex_appears(self):
        for seed in range(10):
            spec = gen_complex(seed, 7, 2, 0.2)
            seen = {v for s in spec.maximal_simplices for v in s}
            assert seen == {str(i + 1) for i in range(7)}

    def test_all_outputs_ingest_and_pass_checks(self):
        for seed in range(20):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.05 * seed))
            assert is_two_wide(face.poset)
            mu = compute_parity_rank(face.poset)
            assert is_downward_eulerian(face.poset, mu)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_complex(0, 0, 2, 0.5)
        with pytest.raises(ValueError):
            gen_complex(0, 4, -1, 0.5)
        with pytest.raises(ValueError):
            gen_complex(0, 4, 2, 1.5)

    def test_draw_ceiling(self, monkeypatch):
        assert generators.MAX_DRAWS == 2**20
        # C(23, 11) = 1,352,078 candidates: refused before any draw.
        with pytest.raises(InvalidArgument, match="more than 1048576 draws"):
            gen_complex(0, 23, 10, 1.0)
        # C(10, 3) = 120 candidates at density 1/2 is 60 draws: the ceiling
        # admits exactly that many.
        expected = gen_complex(3, 10, 2, 0.5)
        monkeypatch.setattr(generators, "MAX_DRAWS", 60)
        assert gen_complex(3, 10, 2, 0.5) == expected
        monkeypatch.setattr(generators, "MAX_DRAWS", 59)
        with pytest.raises(InvalidArgument):
            gen_complex(3, 10, 2, 0.5)

    def test_candidate_count_past_the_float_range(self):
        # C(1080, 540) is about 2**1074.6, too large for a float; times the
        # smallest positive float it is 1.55..., so two draws.
        spec = gen_complex(0, 1080, 539, 5e-324)
        assert sum(len(s) > 1 for s in spec.maximal_simplices) == 2
        with pytest.raises(InvalidArgument):
            gen_complex(0, 2000, 1000, 0.5)

    def test_vertex_ceiling_is_checked_before_any_allocation(self, monkeypatch):
        # 10^12 vertices at this density ask for few draws, but the output
        # would hold a singleton simplex for every vertex.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(InvalidArgument, match="n_vertices must be at most 1048576"):
                gen_complex(0, 10**12, 1, 1e-9)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert elapsed < 1.0
        monkeypatch.setattr(generators, "MAX_DRAWS", 5)
        assert len(gen_complex(0, 5, 0, 0.0).maximal_simplices) == 5
        with pytest.raises(InvalidArgument, match="n_vertices must be at most 5"):
            gen_complex(0, 6, 0, 0.0)


class TestGenMorse:
    def test_deterministic_per_seed(self, triangle):
        a = gen_morse(7, triangle.poset)
        b = gen_morse(7, triangle.poset)
        assert a.values == b.values
        assert dumps_canonical(morse_to_obj(a)) == dumps_canonical(morse_to_obj(b))

    def test_always_valid(self):
        for seed in range(30):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.6))
            f = gen_morse(seed, face.poset)
            assert validate_morse(face.poset, f).valid

    @settings(max_examples=40, deadline=None)
    @given(
        complex_seed=st.integers(min_value=0, max_value=10**9),
        morse_seed=st.integers(min_value=0, max_value=10**9),
    )
    def test_contract_over_arbitrary_seeds(self, complex_seed, morse_seed):
        face = face_poset_simplicial(gen_complex(complex_seed, 5, 2, 0.5))
        f = gen_morse(morse_seed, face.poset)
        assert validate_morse(face.poset, f).valid
        assert f.values == gen_morse(morse_seed, face.poset).values

    def test_empty_poset_rejected(self):
        with pytest.raises(EmptyPoset):
            gen_morse(0, build_poset([], []))

    def test_no_covers_means_all_critical(self):
        # With no covers there is nothing to match, so the function is
        # vacuously monotone along covers and every element is critical.
        from morsepoly import classify

        antichain = build_poset(["a", "b", "c"], [])
        f = gen_morse(0, antichain)
        assert classify(antichain, f).critical_set() == {"a", "b", "c"}

    def test_edge_poset_reaches_matched_and_unmatched_regimes(self):
        # Seed 0 realizes the matching (b, e): a critical, b and e ordinary.
        # Seed 6 realizes the all-critical (unmatched) regime.
        from morsepoly import classify

        edge = build_poset(["a", "b", "e"], [("a", "e"), ("b", "e")])
        matched = classify(edge, gen_morse(0, edge))
        assert matched.verdicts == {"a": "critical", "b": "ordinary", "e": "ordinary"}
        unmatched = classify(edge, gen_morse(6, edge))
        assert unmatched.critical_set() == {"a", "b", "e"}

    def test_outputs_are_not_vacuous(self):
        """The corpus must include ties and troubled instances, or the
        normalization pipeline would never be exercised beyond no-ops."""
        troubled = non_injective = ordinary = 0
        for seed in range(40):
            face = face_poset_simplicial(gen_complex(seed, 5, 2, 0.5 + 0.01 * seed))
            f = gen_morse(seed * 13 + 1, face.poset)
            if not find_troubled(face.poset, f).clean():
                troubled += 1
            if not f.is_injective():
                non_injective += 1
            from morsepoly import classify

            if len(classify(face.poset, f).critical_set()) < len(face.poset):
                ordinary += 1
        assert troubled >= 3
        assert non_injective >= 10
        assert ordinary >= 10


class TestContractedIsAcyclic:
    """The cycle test reads only the cover pairs.  A stand-in holding just
    those keeps a 3000-element chain cheap: a real poset would also carry its
    quadratic reachability closure (hundreds of MB at this length)."""

    @staticmethod
    def long_chain(n=3000):
        ids = [f"{i:04d}" for i in range(n)]
        return ids, SimpleNamespace(covers=frozenset(zip(ids, ids[1:])))

    def test_long_chain_needs_no_recursion(self):
        ids, chain = self.long_chain()
        assert _contracted_is_acyclic(chain, {e: e for e in ids})

    def test_merge_closing_a_cycle(self):
        ids, chain = self.long_chain()
        node = {e: e for e in ids}
        node["0003"] = "0000"
        assert not _contracted_is_acyclic(chain, node)


def whole_graph_matching(poset, rng):
    """The matching loop that reruns the whole-graph cycle test for every
    candidate pair: the reference the incremental loop must reproduce."""
    covers = sorted(poset.covers)
    rng.shuffle(covers)
    node = {e: e for e in poset.elements}
    matching = []
    taken = set()
    for a, b in covers:
        if a in taken or b in taken:
            continue
        if rng.random() < 0.35:
            continue
        trial = dict(node)
        rep = min(a, b)
        trial[a] = trial[b] = rep
        if _contracted_is_acyclic(poset, trial):
            node = trial
            matching.append((a, b))
            taken.add(a)
            taken.add(b)
    return matching


@st.composite
def matching_posets(draw):
    """A random poset (not a face poset, ids shuffled so the merged node is
    sometimes the upper end of its pair) or a seeded face poset."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=9))
        names = draw(st.permutations([f"p{i}" for i in range(n)]))
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if draw(st.booleans())
        ]
        return build_poset(names, transitive_reduction(names, pairs))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return face_poset_simplicial(gen_complex(seed, 3 + seed % 5, 1 + seed % 3, 0.6)).poset


def circle(n):
    edges = tuple((f"{i}", f"{(i + 1) % n}") for i in range(n))
    return face_poset_simplicial(ComplexSpec(kind="simplicial", maximal_simplices=edges)).poset


class TestSampleMatching:
    @settings(max_examples=300, deadline=None)
    @given(poset=matching_posets(), seed=st.integers(min_value=0, max_value=2**32))
    def test_equals_whole_graph_reference(self, poset, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert _sample_matching(poset, rng) == whole_graph_matching(poset, ref_rng)
        # Same decisions, so the same RNG draws: gen_morse's later steps see
        # the same stream.
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", range(3))
    def test_circle_matches_reference(self, seed):
        poset = circle(150)
        expected = whole_graph_matching(poset, random.Random(seed))
        assert _sample_matching(poset, random.Random(seed)) == expected

    def test_long_circle_is_not_quadratic(self):
        # The whole-graph test per candidate takes tens of seconds here.
        poset = circle(2000)
        started = time.perf_counter()
        f = gen_morse(3, poset)
        assert time.perf_counter() - started < 6.0
        assert validate_morse(poset, f).valid


def fraction_perturbed(seed, poset):
    """gen_morse's values with the perturbation loop run on Fractions, draw
    for draw: the reference the loop on integers (twelfths) must reproduce."""
    rng = random.Random(seed)
    values = _base_values(poset, _sample_matching(poset, rng), rng)
    elements = sorted(poset.elements)
    n = len(elements)
    for _ in range(4 * n):
        e = rng.choice(elements)
        old = values[e]
        above = sorted(poset.strict_up_set(e))
        roll = rng.random()
        if roll < 0.4 and above:
            target = values[rng.choice(above)] + rng.choice((Fraction(0), Fraction(1, 3)))
        elif roll < 0.7:
            target = values[rng.choice(elements)]
        else:
            target = Fraction(rng.randint(-n, 2 * n), rng.randint(1, 4))
        values[e] = target
        try:
            _recheck_near(poset, values, e)
        except InvalidMorseFunction:
            values[e] = old
    return values


class TestIntegerPerturbations:
    @settings(max_examples=200, deadline=None)
    @given(poset=matching_posets(), seed=st.integers(min_value=0, max_value=2**32))
    def test_equals_fraction_reference(self, poset, seed):
        f = gen_morse(seed, poset)
        expected = fraction_perturbed(seed, poset)
        assert f.values == expected
        assert all(type(v) is Fraction for v in f.values.values())
        assert dumps_canonical(morse_to_obj(f)) == dumps_canonical(
            {"values": {e: str(v) for e, v in sorted(expected.items())}}
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_circle_equals_fraction_reference(self, seed):
        poset = circle(150)
        assert gen_morse(seed, poset).values == fraction_perturbed(seed, poset)

    def test_base_value_off_the_grid_raises(self, monkeypatch):
        # With no covers every function is valid, so only the scaling check
        # can refuse a value that is not a multiple of 1/12.
        def off_grid(poset, matching, rng):
            return {"a": Fraction(1, 5), "b": Fraction(0)}

        monkeypatch.setattr(generators, "_base_values", off_grid)
        with pytest.raises(AssertionError, match="base value 1/5 of 'a' is not a multiple"):
            gen_morse(0, build_poset(["a", "b"], []))
