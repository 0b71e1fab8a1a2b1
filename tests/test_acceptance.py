"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The seeded corpus is shared across criteria: the identity sweep (criterion 3)
runs over 100 generated face posets, the normalization sweep (criterion 4)
over 200 (poset, function) pairs on those posets, and the end-to-end index
check (criterion 5) over every instance from both plus the non-face-poset
example.  All assertions are exact; the only tolerances are wall-clock
budgets.
"""

from __future__ import annotations

import json
import time
from functools import lru_cache

from morsepoly import (
    ComplexSpec,
    FacePoset,
    MorseFunction,
    build_poset,
    chain_sum_excluding,
    chain_sum_lower,
    chain_sum_top,
    check_exclusivity,
    classify,
    compute_parity_rank,
    cross_check,
    dimension_morse,
    embed_vertices,
    face_poset_cellular,
    face_poset_simplicial,
    find_troubled,
    gen_complex,
    gen_morse,
    is_two_wide,
    matrix_rank,
    morse_inequality_report,
    normalize,
    verify_representation,
)
from morsepoly.cli import main
from morsepoly.oracles import difference_matrix
from tests.conftest import build_two_cycles_spec

# (vertices, dimension) shapes whose face posets stay at or under 30 elements;
# the dimension-3 shapes contribute height-4 chains for the quadruple checks.
POSET_SHAPES = ((5, 2), (6, 1), (4, 2), (5, 3), (4, 3), (5, 1), (3, 2))


@lru_cache(maxsize=None)
def identity_corpus() -> tuple[FacePoset, ...]:
    """100 seeded face posets, each with at most 30 elements."""
    faces = []
    for i in range(100):
        vertices, dim = POSET_SHAPES[i % len(POSET_SHAPES)]
        density = 0.3 + 0.65 * ((i * 37) % 97) / 97
        face = face_poset_simplicial(gen_complex(i, vertices, dim, density))
        assert len(face.poset) <= 30
        faces.append(face)
    return tuple(faces)


@lru_cache(maxsize=None)
def normalization_corpus():
    """200 seeded (poset, function) pairs over the identity corpus posets."""
    faces = identity_corpus()
    pairs = []
    for j in range(200):
        face = faces[j % len(faces)]
        pairs.append((face, gen_morse(10_000 + j, face.poset)))
    return tuple(pairs)


@lru_cache(maxsize=None)
def end_to_end_corpus():
    """Criteria 3-4 instances plus the two-disjoint-4-cycles poset."""
    instances = [
        (face.poset, gen_morse(20_000 + i, face.poset))
        for i, face in enumerate(identity_corpus())
    ]
    instances.extend((face.poset, f) for face, f in normalization_corpus())
    cycles = face_poset_cellular(build_two_cycles_spec())
    instances.append((cycles.poset, gen_morse(30_000, cycles.poset)))
    instances.append((cycles.poset, gen_morse(30_001, cycles.poset)))
    return tuple(instances)


def report_pass(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_triangle_golden():
    """Dimension function on the triangle: indices, totals, and cell counts."""
    start = time.monotonic()
    triangle = face_poset_simplicial(
        ComplexSpec(kind="simplicial", maximal_simplices=(("1", "2", "3"),))
    )
    poset, rank = triangle.poset, triangle.rank
    f = dimension_morse(poset, rank)

    classification = classify(poset, f)
    assert classification.critical_set() == set(poset.elements)
    assert len(classification.critical_set()) == 7

    g = normalize(poset, f)
    report = verify_representation(poset, f)
    expected = {0: 1, 1: -1, 2: 1}  # index by cell dimension
    for entry in report.entries:
        assert entry.computed == expected[rank[entry.element]]
        assert entry.predicted == entry.computed
    geo = cross_check(poset, g)
    assert geo.ok
    for element, value in geo.indices.items():
        assert value == expected[rank[element]]
    assert report.total == 1 == report.chi

    inequality = morse_inequality_report(poset, rank, f)
    assert inequality.counts == (3, 3, 1)
    assert inequality.alternating_sum == 1

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report_pass(
        "criterion 1 (triangle golden)",
        f"7 critical, indices (+1,+1,+1,-1,-1,-1,+1), sum=chi=1, M=(3,3,1) "
        f"in {elapsed:.3f}s",
    )


def test_criterion_2_exclusivity_counterexample():
    """f(x) = 2 - x on the 3-chain: valid, two-sided at 1, not 2-wide."""
    start = time.monotonic()
    poset = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    f = MorseFunction.from_values({"0": 2, "1": 1, "2": 0})

    classify(poset, f)  # raises unless f is a discrete Morse function
    assert check_exclusivity(poset, f) == (("1", "0", "2"),)
    verdict = is_two_wide(poset)
    assert not verdict and verdict.witness == ("0", "1", "2")

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report_pass(
        "criterion 2 (exclusivity counterexample)",
        f"valid function, element 1 violates both directions, witness (0,1,2) "
        f"in {elapsed:.3f}s",
    )


def test_criterion_3_chain_sum_identities():
    """Signed chain-sum identities over 100 face posets, by enumeration."""
    start = time.monotonic()
    faces = identity_corpus()
    assert len(faces) >= 100
    elements_checked = covers_checked = 0
    for face in faces:
        poset = face.poset
        mu = compute_parity_rank(poset)
        assert isinstance(mu, dict)
        for b in poset.sorted_elements:
            assert chain_sum_top(poset, b) == (-1) ** mu[b]
            elements_checked += 1
        for a, b in sorted(poset.covers):
            assert chain_sum_excluding(poset, a, b) == 0
            assert chain_sum_lower(poset, a, b) == 0
            covers_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report_pass(
        "criterion 3 (chain-sum identities)",
        f"{len(faces)} posets, {elements_checked} top sums, "
        f"{covers_checked} cover pairs, zero failures in {elapsed:.1f}s",
    )


def test_criterion_4_normalization_contract():
    """Injectivity, zero obstructions, quadruple property, critical sets."""
    start = time.monotonic()
    pairs = normalization_corpus()
    assert len(pairs) >= 200
    quadruples_checked = 0
    for face, f in pairs:
        poset = face.poset
        g = normalize(poset, f)
        assert g.is_injective()
        report = find_troubled(poset, g)
        assert report == {}, report
        assert classify(poset, g).critical_set() == classify(poset, f).critical_set()
        for x, y in sorted(poset.covers):
            if g[x] >= g[y]:
                continue
            for z in sorted(poset.strict_down_set(x)):
                for w in sorted(poset.strict_up_set(y)):
                    assert g[z] < g[y]
                    assert g[x] < g[w]
                    quadruples_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report_pass(
        "criterion 4 (normalization contract)",
        f"{len(pairs)} pairs normalized, {quadruples_checked} quadruples checked, "
        f"zero failures in {elapsed:.1f}s",
    )


def test_criterion_5_index_equation_end_to_end():
    """Combinatorial = predicted = geometric, with both global identities."""
    start = time.monotonic()
    instances = end_to_end_corpus()
    for poset, f in instances:
        report = verify_representation(poset, f)  # raises Mismatch on failure
        g = normalize(poset, f)
        geo = cross_check(poset, g)
        assert geo.ok, geo.mismatches
        for entry in report.entries:
            assert geo.indices[entry.element] == entry.computed
        assert report.total == report.chi
        # Recount the critical elements by parity, independently of the report.
        mu = compute_parity_rank(poset)
        parities = [mu[e] for e in classify(poset, f).critical_set()]
        assert (report.n_even, report.n_odd) == (parities.count(0), parities.count(1))
        assert report.n_even - report.n_odd == report.chi
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report_pass(
        "criterion 5 (index equation end-to-end)",
        f"{len(instances)} instances (incl. non-face-poset example), "
        f"zero mismatches in {elapsed:.1f}s",
    )


def test_criterion_6_embedding_contract():
    """Full column rank and exact first-coordinate fidelity, every instance."""
    start = time.monotonic()
    checked = 0
    for poset, f in end_to_end_corpus():
        g = normalize(poset, f)
        embedding = embed_vertices(poset, g)
        k = len(embedding)
        assert k == len(poset)
        if k > 1:
            assert matrix_rank(difference_matrix(embedding)) == k - 1
        for element in poset.elements:
            assert embedding[element] == g[element]
        checked += 1
    elapsed = time.monotonic() - start
    report_pass(
        "criterion 6 (embedding contract)",
        f"{checked} embeddings, full rank and exact projections in {elapsed:.1f}s",
    )


def test_criterion_7_determinism(tmp_path):
    """Byte-identical verify reruns and byte-reproducible generators."""
    start = time.monotonic()
    triangle_path = tmp_path / "triangle.json"
    triangle_path.write_text(
        json.dumps({"kind": "simplicial", "maximal_simplices": [["1", "2", "3"]]}),
        encoding="utf-8",
    )
    runs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main(["verify", "--in", str(triangle_path), "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    gen_runs = []
    for name in ("g1.json", "g2.json"):
        out = tmp_path / name
        assert (
            main(
                ["gen", "--kind", "complex", "--seed", "123", "--vertices", "6",
                 "--dim", "2", "--density", "0.5", "--out", str(out)]
            )
            == 0
        )
        gen_runs.append(out.read_bytes())
    assert gen_runs[0] == gen_runs[1]

    morse_runs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        assert (
            main(["gen", "--kind", "morse", "--seed", "5", "--in", str(triangle_path),
                  "--out", str(out)])
            == 0
        )
        morse_runs.append(out.read_bytes())
    assert morse_runs[0] == morse_runs[1]

    elapsed = time.monotonic() - start
    report_pass(
        "criterion 7 (determinism)",
        f"verify and both generators byte-identical across reruns in {elapsed:.2f}s",
    )
