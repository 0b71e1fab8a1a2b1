"""Every discrete gradient of a few small complexes, not a sample.

A discrete Morse function's gradient is an acyclic matching of the Hasse
diagram, and every acyclic matching is the gradient of some function
(Forman, "Morse theory for cell complexes", Adv. Math. 134, 1998; Chari,
Discrete Math. 217, 2000).  A matching is a set of vertex-disjoint covers;
it is acyclic when reversing its covers leaves the Hasse diagram without a
directed cycle.  The tests list every matching of each poset below, pin how
many there are, and realize each acyclic one with the generator's base
values: the function that ties each matched pair and rises along every
other cover.  Each realized function must pass ``verify``'s equations,
agree with the geometric witness, have exactly the unmatched cells as its
critical set, and satisfy the Morse inequalities.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from morsepoly import (
    ComplexSpec,
    MorseFunction,
    classify,
    face_poset_cellular,
    face_poset_simplicial,
)
from morsepoly.chain_index import verify_representation
from morsepoly.generators import _SCALE, _base_values
from morsepoly.geometry import embed_vertices, lower_star_indices
from morsepoly.oracles import _contracted_is_acyclic
from tests.conftest import assert_morse_inequalities, cube


def simplicial(*simplices) -> ComplexSpec:
    return ComplexSpec(kind="simplicial", maximal_simplices=simplices)


# (name, face poset, acyclic matchings, all matchings), the empty one included.
POSETS = [
    ("triangle_boundary", face_poset_simplicial(simplicial(("1", "2"), ("2", "3"), ("1", "3"))),
     16, 18),
    ("simplex2", face_poset_simplicial(simplicial(("1", "2", "3"))), 40, 42),
    ("cube2", face_poset_cellular(cube(2)), 129, 131),
    ("simplex3", face_poset_simplicial(simplicial(("1", "2", "3", "4"))), 12_821, 14_721),
]
SAMPLE = 500  # acyclic matchings realized per poset, at most


def matchings(covers):
    """Every set of vertex-disjoint covers, as a list in the given order."""
    def extend(start, taken, chosen):
        yield chosen
        for i in range(start, len(covers)):
            a, b = covers[i]
            if a not in taken and b not in taken:
                yield from extend(i + 1, taken | {a, b}, [*chosen, (a, b)])

    return extend(0, frozenset(), [])


def is_acyclic(poset, matching) -> bool:
    """Chari's rule: the Hasse diagram, directed downward with the matched
    covers reversed, has no directed cycle (Kahn's count reaches every
    element)."""
    matched = set(matching)
    succ = {e: [] for e in poset.elements}
    indegree = dict.fromkeys(poset.elements, 0)
    for a, b in poset.covers:
        tail, head = (a, b) if (a, b) in matched else (b, a)
        succ[tail].append(head)
        indegree[head] += 1
    ready = [e for e, d in indegree.items() if d == 0]
    popped = 0
    while ready:
        popped += 1
        for t in succ[ready.pop()]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return popped == len(poset)


def contraction(poset, matching):
    """The node holding each element once each matched pair is merged into
    its smaller identifier, as the generator's sampler leaves it."""
    node = {e: e for e in poset.elements}
    for a, b in matching:
        node[a] = node[b] = min(a, b)
    return node


def acyclic_matchings(poset):
    everything = list(matchings(sorted(poset.covers)))
    return everything, [m for m in everything if is_acyclic(poset, m)]


@pytest.mark.parametrize("name, face, acyclic, total", POSETS, ids=[p[0] for p in POSETS])
def test_matching_counts(name, face, acyclic, total):
    """The pinned counts, and the generator's contraction test agrees with
    Chari's rule on every matching of these face posets."""
    everything, kept = acyclic_matchings(face.poset)
    assert (len(kept), len(everything)) == (acyclic, total)
    for matching in everything:
        node = contraction(face.poset, matching)
        assert _contracted_is_acyclic(face.poset, node) == is_acyclic(face.poset, matching)


@pytest.mark.parametrize("name, face, acyclic, total", POSETS, ids=[p[0] for p in POSETS])
def test_every_gradient_verifies(name, face, acyclic, total):
    """Each acyclic matching, realized, verifies; on the 3-simplex a seeded
    sample of SAMPLE of its 12,821 does, to keep the pass within seconds."""
    poset = face.poset
    kept = acyclic_matchings(poset)[1]
    rng = random.Random(f"gradients/{name}")
    if len(kept) > SAMPLE:
        kept = rng.sample(kept, SAMPLE)
    for matching in kept:
        base = _base_values(poset, matching, contraction(poset, matching), rng)
        f = MorseFunction({e: Fraction(v, _SCALE) for e, v in base.items()})
        unmatched = set(poset.elements).difference(*matching)
        assert classify(poset, f).critical_set() == unmatched

        report = verify_representation(poset, f)  # raises Mismatch on a failed equation
        assert report.total == report.chi == report.n_even - report.n_odd
        assert {entry.element for entry in report.entries if entry.critical} == unmatched
        combinatorial = {entry.element: entry.computed for entry in report.entries}
        assert lower_star_indices(poset, embed_vertices(poset, report.normalized)) == combinatorial

        assert_morse_inequalities(face, f)
