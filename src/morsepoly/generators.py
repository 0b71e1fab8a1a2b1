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
values and troubled patterns while preserving validity.  The base function
is validated in full once; each perturbation is then rechecked at the
changed element and its covers, the only places where it can break the
Morse condition, and the final function is validated in full again.
Every value the generator makes is a multiple of 1/12 (base values are
integers or half-integers, a pull-up adds 0 or 1/3, and a random target is
p/q with q at most 4), so the perturbations run on the exact integers
12 * value and are turned back into Fractions once, at the end.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from .complexes import ComplexSpec
from .errors import CycleDetected, EmptyPoset, InvalidArgument, InvalidMorseFunction
from .morse import MorseFunction, _recheck_near, validate_morse
from .poset import ElementId, Poset, _topological_order

MAX_DRAWS = 2**20  # gen_complex draws at most this many candidate simplices
_SCALE = 12  # gen_morse's values are multiples of 1 / _SCALE


def gen_complex(seed: int, n_vertices: int, dimension: int, density: float) -> ComplexSpec:
    """Random simplicial complex given by random maximal simplices.

    ``density`` in [0, 1] scales how many candidate simplices (of size up to
    dimension+1) are drawn; density 0 yields the vertex-only complex.  Every
    vertex appears, isolated ones as singleton maximal simplices, so at most
    ``MAX_DRAWS`` vertices are accepted.  Every parameter is checked before
    anything is allocated.
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
    draws = 0
    if density > 0 and size_cap >= 2:
        candidates = comb(n_vertices, size_cap)
        exact = Fraction(density) * candidates  # the count can exceed the float range
        if exact > MAX_DRAWS:
            raise InvalidArgument(f"density {density} of C({n_vertices}, {size_cap}) "
                                  f"candidate simplices asks for more than {MAX_DRAWS} draws")
        try:
            draws = max(1, round(density * candidates))
        except OverflowError:  # a tiny density times a count no float holds
            draws = max(1, round(exact))
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


def _contracted_is_acyclic(poset: Poset, node: dict[ElementId, ElementId]) -> bool:
    """Cycle test on the cover digraph after merging matched pairs.

    The whole-graph reference for the incremental test in
    :func:`_sample_matching`.
    """
    edges = {(node[u], node[v]) for u, v in poset.covers if node[u] != node[v]}
    try:
        _topological_order(set(node.values()), edges)
    except CycleDetected:
        return False
    return True


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


def _sample_matching(poset: Poset, rng: random.Random) -> list[tuple[ElementId, ElementId]]:
    """Vertex-disjoint cover pairs whose contraction leaves the digraph acyclic.

    The cover digraph with the accepted pairs merged stays acyclic.  Both
    ends of a candidate a < b are unmatched, so each is still its own node,
    and merging them closes a cycle exactly when b can be reached from a by a
    path other than the cover itself.  An accepted pair becomes the node
    min(a, b).
    """
    covers = sorted(poset.covers)
    rng.shuffle(covers)
    node = {e: e for e in poset.elements}
    succ = {e: poset.upper_covers(e) for e in poset.elements}
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
    return matching


def _base_values(
    poset: Poset,
    matching: list[tuple[ElementId, ElementId]],
    rng: random.Random,
) -> dict[ElementId, Fraction]:
    """Values from topological positions of the matched-pair contraction."""
    node = {e: e for e in poset.elements}
    for a, b in matching:
        rep = min(a, b)
        node[a] = node[b] = rep
    nodes = sorted(set(node.values()))
    edges: dict[ElementId, set[ElementId]] = {n: set() for n in nodes}
    indeg: dict[ElementId, int] = {n: 0 for n in nodes}
    for u, v in sorted(poset.covers):
        nu, nv = node[u], node[v]
        if nu != nv and nv not in edges[nu]:
            edges[nu].add(nv)
            indeg[nv] += 1
    ready = sorted(n for n in nodes if indeg[n] == 0)
    position: dict[ElementId, int] = {}
    counter = 0
    while ready:
        n = ready.pop(rng.randrange(len(ready)))
        position[n] = counter
        counter += 1
        for m in sorted(edges[n]):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    values = {e: Fraction(position[node[e]]) for e in poset.elements}
    # Turn some matched equalities into strict decreases across the cover.
    for a, b in matching:
        if rng.random() < 0.5:
            values[a] += Fraction(1, 2)
    return values


def gen_morse(seed: int, poset: Poset) -> MorseFunction:
    """Random valid discrete Morse function on the poset, deterministic per seed."""
    if len(poset) == 0:
        raise EmptyPoset("cannot generate a function on an empty poset")
    rng = random.Random(seed)
    matching = _sample_matching(poset, rng)
    values = _base_values(poset, matching, rng)
    if not validate_morse(poset, MorseFunction(dict(values))).valid:
        raise AssertionError("base function is invalid; implementation bug")

    scaled: dict[ElementId, int] = {}
    for e, value in values.items():
        twelfths = value * _SCALE
        if twelfths.denominator != 1:
            raise AssertionError(f"base value {value} of {e!r} is not a multiple of "
                                 f"1/{_SCALE}; implementation bug")
        scaled[e] = twelfths.numerator

    elements = sorted(poset.elements)
    n = len(elements)
    for _ in range(4 * n):
        e = rng.choice(elements)
        old = scaled[e]
        roll = rng.random()
        above = poset.strict_up_set(e) if roll < 0.4 else None
        if above:
            # Pull e's value up to (or past) something above it: this is what
            # seeds troubled patterns for the normalization sweeps to remove.
            target = scaled[rng.choice(sorted(above))] + rng.choice((0, _SCALE // 3))
        elif roll < 0.7:
            target = scaled[rng.choice(elements)]
        else:
            numerator = rng.randint(-n, 2 * n)
            target = numerator * _SCALE // rng.randint(1, 4)  # exact: 1..4 divide _SCALE
        scaled[e] = target
        try:
            _recheck_near(poset, scaled, e)
        except InvalidMorseFunction:
            scaled[e] = old

    result = MorseFunction({e: Fraction(v, _SCALE) for e, v in scaled.items()})
    if not validate_morse(poset, result).valid:
        raise AssertionError("generator produced an invalid function; implementation bug")
    return result
