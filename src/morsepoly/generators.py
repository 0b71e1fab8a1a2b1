"""Seeded generators for random complexes and discrete Morse functions.

Both generators are pure functions of their arguments: the same seed and
parameters always produce the same output, so sweeps over seed ranges are
reproducible and failures can be replayed from the seed alone.

gen_morse builds a base function from a cover matching: matched pairs share
a value (the single allowed non-increase), unmatched covers strictly
increase.  The matching keeps a cover only if contracting it leaves the
cover digraph acyclic, which one reachability search over the digraph
contracted so far decides.  Matched pairs are vertex-disjoint, so along any
two consecutive covers at least one step rises by a full unit while a
matched step loses at most one half; base functions therefore have no
troubled elements.  To make the normalization pipeline earn its keep, a
seeded round of single-value perturbations follows, each kept only if the
function remains a valid discrete Morse function; these create duplicated
values and troubled patterns while preserving validity.  Every value the
generator makes is a multiple of 1/12 (base values are integers or
half-integers, a pull-up adds 0 or 1/3, and a random target is p/q with q
at most 4), so from the base values on everything runs on the exact
integers 12 * value.  The base function is classified in full once, and a
failure there is an AssertionError, a bug, not an input error.  Each
perturbation is kept only if :func:`~morsepoly.morse._holds_near` passes:
the Morse condition at the changed element and at its non-increasing
covers, the only places where the change can break it.  The final
function is classified in full again and turned into Fractions once, at
the end.  A pull-up draws from the element's up-set as the poset stores
it, in identifier order.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import comb

from .complexes import MAX_SIMPLEX_VERTICES, ComplexSpec
from .errors import EmptyPoset, InvalidArgument, InvalidMorseFunction
from .morse import MorseFunction, _holds_near, classify
from .poset import ElementId, Poset, _cover_pairs

MAX_DRAWS = 2**20  # gen_complex draws at most this many candidate simplices
_SCALE = 12  # gen_morse's values are multiples of 1 / _SCALE


def gen_complex(seed: int, n_vertices: int, dimension: int, density: float) -> ComplexSpec:
    """Random simplicial complex given by random maximal simplices.

    ``density`` in [0, 1] scales how many candidate simplices (of size up to
    dimension+1) are drawn; density 0 yields the vertex-only complex.  Every
    vertex appears, isolated ones as singleton maximal simplices, so at most
    ``MAX_DRAWS`` vertices are accepted.  A drawn simplex has at most
    dimension+1 vertices, so with density > 0 that size may not pass
    ``MAX_SIMPLEX_VERTICES``, the largest simplex every other command loads.
    Every parameter is checked before anything is allocated.
    """
    if n_vertices < 1:
        raise InvalidArgument("n_vertices must be at least 1")
    if dimension < 0:
        raise InvalidArgument("dimension must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise InvalidArgument("density must lie in [0, 1]")
    if n_vertices > MAX_DRAWS:
        raise InvalidArgument(f"n_vertices must be at most {MAX_DRAWS}")
    size_cap = min(dimension + 1, n_vertices)
    if density > 0 and size_cap > MAX_SIMPLEX_VERTICES:
        raise InvalidArgument(f"a drawn simplex may have {size_cap} vertices; "
                              f"at most {MAX_SIMPLEX_VERTICES} are supported")
    draws = 0
    if density > 0 and size_cap >= 2:
        # At most C(2^20, 15), about 1.6e78 candidates: the product is a float.
        candidates = comb(n_vertices, size_cap)
        if Fraction(density) * candidates > MAX_DRAWS:
            raise InvalidArgument(f"density {density} of C({n_vertices}, {size_cap}) "
                                  f"candidate simplices asks for more than {MAX_DRAWS} draws")
        draws = max(1, round(density * candidates))
    rng = random.Random(seed)
    vertices = [str(i + 1) for i in range(n_vertices)]
    chosen: set[tuple[str, ...]] = set()
    for _ in range(draws):
        size = rng.randint(2, size_cap)
        chosen.add(tuple(sorted(rng.sample(vertices, size))))
    covered = {v for simplex in chosen for v in simplex}
    for v in vertices:
        if v not in covered:
            chosen.add((v,))
    maximal = tuple(sorted(chosen, key=lambda s: (len(s), s)))
    return ComplexSpec(kind="simplicial", maximal_simplices=maximal)


def _reaches_around(
    node: dict[ElementId, ElementId],
    succ: dict[ElementId, tuple[ElementId, ...]],
    a: ElementId,
    b: ElementId,
) -> bool:
    """Whether node b is reachable from node a by a path of at least two edges.

    ``succ`` lists the upper covers of each node's members; ``node`` maps an
    element to the node that holds it.
    """
    stack = [node[t] for t in succ[a] if t != b]
    seen = set(stack)
    while stack:
        for t in succ[stack.pop()]:
            t = node[t]
            if t == b:
                return True
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return False


def _sample_matching(poset: Poset, rng: random.Random) -> tuple[list, dict, dict]:
    """Vertex-disjoint cover pairs (a, b) whose contraction leaves the
    digraph acyclic, the contraction (the node that holds each element), and
    each node's upper covers, a matched pair's merged into one tuple.

    The cover digraph with the accepted pairs merged stays acyclic.  Both
    ends of a candidate a < b are unmatched, so each is still its own node,
    and merging them closes a cycle exactly when b can be reached from a by a
    path other than the cover itself.  An accepted pair becomes the node
    min(a, b).
    """
    covers = _cover_pairs(poset)
    rng.shuffle(covers)
    node = {e: e for e in poset.elements}
    succ = dict(poset._upper)
    matching: list[tuple[ElementId, ElementId]] = []
    taken: set[ElementId] = set()
    for a, b in covers:
        if a in taken or b in taken:
            continue
        if rng.random() < 0.35:
            continue
        if _reaches_around(node, succ, a, b):
            continue
        keep = min(a, b)
        node[a] = node[b] = keep
        succ[keep] = succ.pop(a) + succ.pop(b)
        matching.append((a, b))
        taken.add(a)
        taken.add(b)
    return matching, node, succ


def _base_values(
    matching: list[tuple[ElementId, ElementId]],
    node: dict[ElementId, ElementId],
    succ: dict[ElementId, tuple[ElementId, ...]],
    rng: random.Random,
) -> dict[ElementId, int]:
    """Values in twelfths from topological positions of the matched-pair
    contraction ``node``, whose edges run from each node to the nodes of
    its upper covers ``succ``."""
    edges = {n: sorted({node[t] for t in succ[n]} - {n}) for n in sorted(succ)}
    indeg = Counter(m for targets in edges.values() for m in targets)
    ready = [n for n in edges if not indeg[n]]
    position: dict[ElementId, int] = {}
    while ready:
        n = ready.pop(rng.randrange(len(ready)))
        position[n] = len(position)
        for m in edges[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    values = {e: _SCALE * position[n] for e, n in node.items()}
    # Turn some matched equalities into strict decreases across the cover.
    for a, b in matching:
        if rng.random() < 0.5:
            values[a] += _SCALE // 2
    return values


def _require_morse(poset: Poset, scaled: dict[ElementId, int], failure: str) -> None:
    """Raise AssertionError(failure), a bug, unless scaled is a discrete Morse function."""
    try:
        classify(poset, MorseFunction(scaled))
    except InvalidMorseFunction as exc:
        raise AssertionError(f"{failure}; implementation bug") from exc


def gen_morse(seed: int, poset: Poset) -> MorseFunction:
    """Random valid discrete Morse function on the poset, deterministic per seed."""
    if len(poset) == 0:
        raise EmptyPoset("cannot generate a function on an empty poset")
    rng = random.Random(seed)
    scaled = _base_values(*_sample_matching(poset, rng), rng)
    _require_morse(poset, scaled, "base function is invalid")

    elements = poset.elements
    n = len(elements)
    for _ in range(4 * n):
        e = rng.choice(elements)
        old = scaled[e]
        roll = rng.random()
        above = poset._above[e] if roll < 0.4 else ()
        if above:
            # Pull e's value up to (or past) something above it: this is what
            # seeds troubled patterns for the normalization sweeps to remove.
            target = scaled[rng.choice(above)] + rng.choice((0, _SCALE // 3))
        elif roll < 0.7:
            target = scaled[rng.choice(elements)]
        else:
            numerator = rng.randint(-n, 2 * n)
            target = numerator * _SCALE // rng.randint(1, 4)  # exact: 1..4 divide _SCALE
        scaled[e] = target
        if not _holds_near(poset, scaled, e):
            scaled[e] = old

    _require_morse(poset, scaled, "generator produced an invalid function")
    return MorseFunction({e: Fraction(v, _SCALE) for e, v in scaled.items()})
