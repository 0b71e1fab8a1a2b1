"""Determinism and contract checks for the seeded generators."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepoly import (
    EmptyPoset,
    build_poset,
    compute_parity_rank,
    face_poset_simplicial,
    find_troubled,
    gen_complex,
    gen_morse,
    is_downward_eulerian,
    is_two_wide,
    validate_morse,
)
from morsepoly.generators import _contracted_is_acyclic
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
