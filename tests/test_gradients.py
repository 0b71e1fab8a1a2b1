"""Every discrete gradient of a few small complexes, and of one poset in
the paper's class that is not a CW poset, not a sample.

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
critical set, and satisfy the Morse inequalities (on the two bigons, over
the mod-2 chain complex of lower covers, whose Betti numbers are
(2, 1, 0)).  Larger complexes get gradients from Benedetti and Lutz's
random collapses, which leave few critical cells and long gradient paths,
unlike ``gen_morse``'s sampler.  Every poset in the paper's class with
at most six elements, listed by brute force, has every gradient verified.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from morsepoly import (
    ComplexSpec,
    FacePoset,
    HypothesisViolated,
    MorseFunction,
    build_poset,
    check_hypotheses,
    classify,
    face_poset_cellular,
    face_poset_simplicial,
    transitive_reduction,
)
from morsepoly.chain_index import verify_representation
from morsepoly.generators import _SCALE, _base_values
from morsepoly.geometry import embed_vertices, lower_star_indices
from morsepoly.oracles import _contracted_is_acyclic
from morsepoly.complexes import critical_by_dimension
from tests.conftest import (
    assert_morse_inequalities,
    betti_mod2,
    cube,
    cubical_torus,
    torus,
    two_bigons,
)


def simplicial(*simplices) -> ComplexSpec:
    return ComplexSpec(kind="simplicial", maximal_simplices=simplices)


# (name, face poset, acyclic matchings, all matchings), the empty one included.
POSETS = [
    ("triangle_boundary", face_poset_simplicial(simplicial(("1", "2"), ("2", "3"), ("1", "3"))),
     16, 18),
    ("simplex2", face_poset_simplicial(simplicial(("1", "2", "3"))), 40, 42),
    ("cube2", face_poset_cellular(cube(2)), 129, 131),
    # In the paper's class but not a CW poset (see test_two_bigons_is_not_cw).
    ("two_bigons", face_poset_cellular(two_bigons()), 85, 133),
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
    its smaller identifier, and each node's upper covers, as the generator's
    sampler leaves them."""
    node = {e: e for e in poset.elements}
    succ = {e: poset.upper_covers(e) for e in poset.elements}
    for a, b in matching:
        node[a] = node[b] = min(a, b)
        succ[min(a, b)] = succ.pop(a) + succ.pop(b)
    return node, succ


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
        node, _ = contraction(face.poset, matching)
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
        assert_realized_gradient_verifies(face, matching, rng)


def assert_realized_gradient_verifies(face, matching, rng):
    """Realize the acyclic matching with the generator's base values and
    return the function, once its critical set is exactly the unmatched
    cells, ``verify``'s equations and the witness agree on it, and the Morse
    inequalities hold."""
    poset = face.poset
    base = _base_values(matching, *contraction(poset, matching), rng)
    f = MorseFunction({e: Fraction(v, _SCALE) for e, v in base.items()})
    unmatched = set(poset.elements).difference(*matching)
    assert classify(poset, f).critical_set() == unmatched

    report = verify_representation(poset, f)  # raises Mismatch on a failed equation
    assert report.total == report.chi == report.n_even - report.n_odd
    assert {entry.element for entry in report.entries if entry.critical} == unmatched
    combinatorial = {entry.element: entry.computed for entry in report.entries}
    assert lower_star_indices(poset, embed_vertices(poset, report.normalized)) == combinatorial

    assert_morse_inequalities(face, f)
    return f


def components(poset, subset) -> int:
    """Connected components of the Hasse diagram restricted to subset."""
    root = {e: e for e in subset}

    def find(e):
        while root[e] != e:
            e = root[e]
        return e

    for a, b in poset.covers:
        if a in root and b in root:
            root[find(a)] = find(b)
    return sum(1 for e in subset if find(e) == e)


def test_two_bigons_is_not_cw():
    """All three hypotheses hold on the two bigons, with 9 elements, and
    every lower interval but one is a sphere: a vertex's is empty and an
    edge's is two points.  The top's strict down-set has two components,
    so it is not a circle and the poset is not a CW poset (Björner, Europ.
    J. Combin. 5, 1984)."""
    face = face_poset_cellular(two_bigons())
    poset = face.poset
    assert len(poset) == 9
    check_hypotheses(poset)  # raises HypothesisViolated if one fails
    assert betti_mod2(face) == (2, 1, 0)
    for e in poset.elements:
        below = poset.strict_down_set(e)
        if face.rank[e] == 0:
            assert not below
        elif face.rank[e] == 1:
            assert len(below) == 2 and components(poset, below) == 2
    top = poset.strict_down_set("top")
    assert len(top) == 8 and components(poset, top) == 2


def random_collapse(face, rng):
    """Benedetti and Lutz's random discrete Morse ("Random discrete Morse
    theory and a new library of triangulations", Exp. Math. 23, 2014):
    collapse a random free face, one with a single coface left, while one
    exists; otherwise remove a random top cell, which is critical.  Returns
    the collapsed pairs (face, coface) and the removed top cells."""
    poset, rank = face.poset, face.rank
    alive = set(poset.elements)
    cofaces = {e: set(poset.upper_covers(e)) for e in poset.elements}
    matching, critical = [], []
    while alive:
        free = sorted(e for e in alive if len(cofaces[e]) == 1)
        if free:
            a = rng.choice(free)
            (b,) = cofaces[a]
            assert not cofaces[b]  # by the diamond property, b is a top cell
            matching.append((a, b))
            removed = (a, b)
        else:
            top = max(rank[e] for e in alive)
            removed = (rng.choice(sorted(e for e in alive if rank[e] == top)),)
            critical.append(removed[0])
        for e in removed:
            alive.remove(e)
            for below in poset.lower_covers(e):
                cofaces[below].discard(e)
    return matching, critical


# (name, face poset, mod-2 Betti numbers) of the collapsed complexes.
COLLAPSED = [
    ("torus5x5", face_poset_simplicial(torus(5)), (1, 2, 1)),
    ("cube4", face_poset_cellular(cube(4)), (1, 0, 0, 0, 0)),
    ("cubical_torus3x3", face_poset_cellular(cubical_torus(3, 3)), (1, 2, 1)),
]


@pytest.mark.parametrize("name, face, betti", COLLAPSED, ids=[c[0] for c in COLLAPSED])
@pytest.mark.parametrize("seed", range(8))
def test_random_collapse_verifies(name, face, betti, seed):
    """Functions with few critical cells and long gradient paths: a random
    collapse, realized, verifies with exactly the removed top cells
    critical, and on these small complexes it is perfect: b_k critical
    k-cells in each dimension k."""
    assert betti_mod2(face) == betti
    rng = random.Random(f"collapse/{name}/{seed}")
    matching, critical = random_collapse(face, rng)
    f = assert_realized_gradient_verifies(face, matching, rng)
    assert classify(face.poset, f).critical_set() == set(critical)
    assert critical_by_dimension(face.rank, critical) == betti


TORUS3 = face_poset_simplicial(torus(3, 3))


@pytest.mark.parametrize("seed", range(8))
def test_random_collapse_of_the_3_torus_verifies(seed):
    """On the 3 x 3 x 3 torus, 702 faces with mod-2 Betti numbers
    (1, 3, 3, 1), a random collapse, realized, verifies with exactly the
    removed top cells critical.  It need not be perfect: seeds 2 and 5
    leave (1, 4, 4, 1) critical cells, within the Morse inequalities."""
    rng = random.Random(f"collapse/torus3d/{seed}")
    matching, critical = random_collapse(TORUS3, rng)
    f = assert_realized_gradient_verifies(TORUS3, matching, rng)
    assert classify(TORUS3.poset, f).critical_set() == set(critical)
    counts = (1, 4, 4, 1) if seed in (2, 5) else (1, 3, 3, 1)
    assert critical_by_dimension(TORUS3.rank, critical) == counts


def class_posets(n):
    """One poset of each isomorphism class of n elements in the paper's
    class, by brute force: every relation i < j on the labels
    0 .. n - 1, reduced to its covers, kept when ``check_hypotheses``
    accepts it, and kept once per canonical form, the least sorted cover
    list over all n! relabellings.  Every poset has a natural labelling, one
    whose order the labels' order extends, so no class is missed."""
    labels = [str(i) for i in range(n)]
    pairs = list(combinations(labels, 2))
    seen, found = set(), {}
    for mask in range(1 << len(pairs)):
        relation = [p for k, p in enumerate(pairs) if mask >> k & 1]
        covers = tuple(transitive_reduction(labels, relation))
        if covers in seen:
            continue
        seen.add(covers)
        poset = build_poset(labels, covers)
        try:
            check_hypotheses(poset)
        except HypothesisViolated:
            continue
        canonical = min(tuple(sorted((perm[int(a)], perm[int(b)]) for a, b in covers))
                        for perm in permutations(range(n)))
        found.setdefault(canonical, poset)
    return list(found.values())


# (elements, isomorphism classes, their acyclic matchings, all their matchings)
CLASS_COUNTS = [(1, 1, 1, 1), (2, 1, 1, 1), (3, 2, 4, 4), (4, 3, 9, 11), (5, 6, 35, 45),
                (6, 12, 116, 158)]


@pytest.mark.parametrize("n, classes, acyclic, total", CLASS_COUNTS,
                         ids=[f"n{c[0]}" for c in CLASS_COUNTS])
def test_every_gradient_of_every_small_poset_in_the_class_verifies(n, classes, acyclic, total):
    """The pinned counts per size, and each acyclic matching of each class
    poset, realized, verifies.  Each of these posets is ranked, so the
    Morse inequalities are checked over its mod-2 chain complex of lower
    covers, as on the two bigons."""
    found = class_posets(n)
    listed = [acyclic_matchings(poset) for poset in found]
    assert (len(found), sum(len(kept) for _, kept in listed),
            sum(len(everything) for everything, _ in listed)) == (classes, acyclic, total)
    rng = random.Random(f"class/{n}")
    for poset, (_, kept) in zip(found, listed):
        for matching in kept:
            assert_realized_gradient_verifies(FacePoset(poset), matching, rng)
