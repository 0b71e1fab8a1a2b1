"""Finite posets presented by their Hasse diagram of cover relations.

A poset is built from element identifiers (opaque strings) and cover pairs
``(a, b)`` meaning ``a`` is covered by ``b``.  Construction validates that the
pairs are acyclic and form a true Hasse diagram: a pair implied transitively
by the others is rejected rather than silently dropped, because a redundant
pair in user input usually indicates a modeling error.  Use
:func:`transitive_reduction` to reduce an arbitrary acyclic relation first.

The module also provides chain enumeration, the order complex (one simplex
per non-empty chain), chain counts per length (the order complex's
f-vector, found without listing a chain), Euler characteristics, and three
structural property checks: 2-wideness, parity grading, and the downward
Eulerian condition, with :func:`check_hypotheses` requiring all three.
Signed chain counts of induced subposets come from Hall's recursion
(:func:`chain_weights`) in time polynomial in the poset; enumeration stays
for the order complex and as the reference the recursion is tested against.
All operations are pure and all structures are immutable after construction.
"""

from __future__ import annotations

import heapq
import warnings
from itertools import zip_longest
from typing import Collection, Iterable, Mapping, Sequence

from .errors import (
    CycleDetected,
    HypothesisViolated,
    InvalidArgument,
    NonCoverEdge,
    UnknownElement,
)

ElementId = str

# Chain enumeration is exponential in the worst case; warn (don't fail) past
# this many chains so desk-scale misuse is visible.
CHAIN_SOFT_LIMIT = 1 << 20


_set_field = object.__setattr__


class Record:
    """Immutable value type whose fields are its ``__slots__``, in order.

    The one constructor binds positional arguments to the fields in order and
    the rest by keyword, falling back to the class's ``_defaults`` (field ->
    immutable default); a missing, unknown or repeated field raises
    TypeError.  It reads the class's own ``__slots__``, so every record
    derives directly from Record.  Fields are set once through
    ``object.__setattr__``; assignment and deletion afterwards raise
    AttributeError.  Equality (same class, equal field tuples), hashing,
    pickling and the ``Name(field=value, ...)`` repr all follow the field
    tuple, and no code is generated at import.
    """

    __slots__ = ()
    _defaults: Mapping[str, object] = {}

    def __init__(self, *args: object, **kwargs: object):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(names)} fields, "
                f"got {len(args)} positional arguments"
            )
        for name, value in zip(names, args):
            _set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                _set_field(self, name, kwargs.pop(name))
            elif name in self._defaults:
                _set_field(self, name, self._defaults[name])
            else:
                raise TypeError(f"{self.__class__.__qualname__} missing field {name!r}")
        if kwargs:
            raise TypeError(
                f"{self.__class__.__qualname__} got an unknown or repeated field "
                f"{next(iter(kwargs))!r}"
            )

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()


class Chain(Record):
    """A non-empty totally ordered subset, listed in increasing order."""

    __slots__ = ("members",)
    members: tuple[ElementId, ...]

    @property
    def length(self) -> int:
        """Length of the chain: one less than the number of members."""
        return len(self.members) - 1

    def __contains__(self, element: ElementId) -> bool:
        return element in self.members

    def __iter__(self):
        return iter(self.members)


class SimplicialComplex(Record):
    """Abstract simplicial complex: vertex set plus downward-closed simplices."""

    __slots__ = ("vertices", "simplices")
    vertices: tuple[ElementId, ...]
    simplices: frozenset[frozenset[ElementId]]

    def counts_by_dimension(self) -> tuple[int, ...]:
        """Number of simplices in each dimension, index = dimension."""
        if not self.simplices:
            return ()
        top = max(len(s) for s in self.simplices)
        counts = [0] * top
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return tuple(counts)


class ParityRank(Record):
    """Mod-2 grading: 0 on minimal elements, flipping across covers."""

    __slots__ = ("values",)
    values: Mapping[ElementId, int]

    def __getitem__(self, element: ElementId) -> int:
        return self.values[element]


class RankFunction(Record):
    """Integer grading: 0 on minimal elements, +1 across covers."""

    __slots__ = ("values", "max_rank")
    values: Mapping[ElementId, int]
    max_rank: int

    def __getitem__(self, element: ElementId) -> int:
        return self.values[element]


class GradingConflict(Record):
    """Witness that no (parity) rank function exists.

    ``element`` received ``values[0]`` through parent ``via[0]`` and the
    incompatible ``values[1]`` through parent ``via[1]``.
    """

    __slots__ = ("element", "values", "via")
    element: ElementId
    values: tuple[int, int]
    via: tuple[ElementId, ElementId]


class TwoWideVerdict(Record):
    __slots__ = ("holds", "witness")
    holds: bool
    # A violating triple (a, b, c) with a < b < c covers and no alternative middle.
    witness: tuple[ElementId, ElementId, ElementId] | None

    def __bool__(self) -> bool:
        return self.holds


class EulerianVerdict(Record):
    __slots__ = ("holds", "violations")
    holds: bool
    # (element, chi of its strict down-set's order complex, required chi)
    violations: tuple[tuple[ElementId, int, int], ...]

    def __bool__(self) -> bool:
        return self.holds


class Poset:
    """Immutable finite poset with precomputed reachability closure.

    Not constructed directly; use :func:`build_poset`.  ``topological_order``
    is the linear extension it found, smallest ready identifier first.
    """

    __slots__ = ("elements", "covers", "topological_order",
                 "_set", "_upper", "_lower", "_above", "_below")

    def __init__(
        self,
        elements: tuple[ElementId, ...],
        covers: frozenset[tuple[ElementId, ElementId]],
        topological_order: tuple[ElementId, ...],
        upper: dict[ElementId, tuple[ElementId, ...]],
        lower: dict[ElementId, tuple[ElementId, ...]],
        above: dict[ElementId, frozenset[ElementId]],
        below: dict[ElementId, frozenset[ElementId]],
    ):
        self.elements = elements
        self.covers = covers
        self.topological_order = topological_order
        self._set = frozenset(elements)
        self._upper = upper
        self._lower = lower
        self._above = above
        self._below = below

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: object) -> bool:
        return element in self._set

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    @property
    def sorted_elements(self) -> tuple[ElementId, ...]:
        """Elements in identifier order (the canonical iteration order)."""
        return tuple(sorted(self.elements))

    def require(self, element: ElementId) -> None:
        if element not in self._set:
            raise UnknownElement(f"unknown element {element!r}")

    def upper_covers(self, element: ElementId) -> tuple[ElementId, ...]:
        self.require(element)
        return self._upper[element]

    def lower_covers(self, element: ElementId) -> tuple[ElementId, ...]:
        self.require(element)
        return self._lower[element]

    def strict_down_set(self, element: ElementId) -> frozenset[ElementId]:
        """All elements strictly below the given one."""
        self.require(element)
        return self._below[element]

    def strict_up_set(self, element: ElementId) -> frozenset[ElementId]:
        """All elements strictly above the given one."""
        self.require(element)
        return self._above[element]

    def closed_down_set(self, element: ElementId) -> frozenset[ElementId]:
        return self.strict_down_set(element) | {element}

    def leq(self, a: ElementId, b: ElementId) -> bool:
        """True iff a <= b in the reflexive-transitive closure of covers."""
        self.require(a)
        self.require(b)
        return a == b or a in self._below[b]

    def lt(self, a: ElementId, b: ElementId) -> bool:
        self.require(a)
        self.require(b)
        return a in self._below[b]

    def minimal_elements(self) -> tuple[ElementId, ...]:
        return tuple(e for e in sorted(self.elements) if not self._lower[e])


def _check_references(
    elements: Sequence[ElementId], pairs: Iterable[tuple[ElementId, ElementId]]
) -> None:
    known = set(elements)
    if len(known) != len(elements):
        seen: set[ElementId] = set()
        for e in elements:
            if e in seen:
                raise InvalidArgument(f"duplicate element id {e!r}")
            seen.add(e)
    for a, b in pairs:
        if a not in known:
            raise UnknownElement(f"unknown element {a!r} in pair ({a!r}, {b!r})")
        if b not in known:
            raise UnknownElement(f"unknown element {b!r} in pair ({a!r}, {b!r})")


def _topological_order(
    elements: Collection[ElementId], pairs: set[tuple[ElementId, ElementId]]
) -> list[ElementId]:
    """Kahn's algorithm, smallest identifier first; raises on cycles."""
    succ: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    indeg: dict[ElementId, int] = {e: 0 for e in elements}
    for a, b in pairs:
        if a == b:
            raise CycleDetected(f"self-loop at {a!r}")
        succ[a].append(b)
        indeg[b] += 1
    ready = [e for e in elements if indeg[e] == 0]
    heapq.heapify(ready)
    order: list[ElementId] = []
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        for t in succ[e]:
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(ready, t)
    if len(order) != len(elements):
        stuck = sorted(e for e in elements if indeg[e] > 0)
        raise CycleDetected(f"cover pairs contain a cycle through {stuck}")
    return order


def _closure(
    elements: Sequence[ElementId],
    pairs: set[tuple[ElementId, ElementId]],
    order: Sequence[ElementId],
) -> dict[ElementId, frozenset[ElementId]]:
    """below[x] = all elements strictly under x, accumulated in topological order."""
    lower: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    for a, b in pairs:
        lower[b].append(a)
    below: dict[ElementId, frozenset[ElementId]] = {}
    for e in order:
        acc: set[ElementId] = set()
        for a in lower[e]:
            acc.add(a)
            acc |= below[a]
        below[e] = frozenset(acc)
    return below


def build_poset(
    elements: Iterable[ElementId], covers: Iterable[tuple[ElementId, ElementId]]
) -> Poset:
    """Validate a Hasse diagram and return the poset it presents.

    Raises UnknownElement for pairs naming missing ids, CycleDetected if the
    pairs are not acyclic, and NonCoverEdge if a pair is already implied
    transitively by the others.
    """
    elements = tuple(elements)
    pairs = {(str(a), str(b)) for a, b in covers}
    _check_references(elements, pairs)
    order = _topological_order(elements, pairs)
    below = _closure(elements, pairs, order)

    # A pair (a, b) is transitive if some other cover (a, c) has c < b.
    upper_map: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    lower_map: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    for a, b in sorted(pairs):
        upper_map[a].append(b)
        lower_map[b].append(a)
    for a, b in sorted(pairs):
        for c in upper_map[a]:
            if c != b and c in below[b]:
                raise NonCoverEdge((a, b))

    above: dict[ElementId, set[ElementId]] = {e: set() for e in elements}
    for e in elements:
        for x in below[e]:
            above[x].add(e)

    return Poset(
        elements,
        frozenset(pairs),
        tuple(order),
        {e: tuple(upper_map[e]) for e in elements},
        {e: tuple(lower_map[e]) for e in elements},
        {e: frozenset(above[e]) for e in elements},
        below,
    )


def transitive_reduction(
    elements: Iterable[ElementId], relation: Iterable[tuple[ElementId, ElementId]]
) -> list[tuple[ElementId, ElementId]]:
    """Cover pairs of the partial order generated by an acyclic relation.

    The relation may contain redundant (transitively implied) pairs; the
    result is the unique Hasse diagram, suitable for :func:`build_poset`.
    """
    elements = tuple(elements)
    pairs = {(str(a), str(b)) for a, b in relation}
    _check_references(elements, pairs)
    order = _topological_order(elements, pairs)
    below = _closure(elements, pairs, order)
    covers = []
    for e in elements:
        for x in below[e]:
            # x < e is a cover iff nothing sits strictly between.
            if not any(x in below[m] for m in below[e]):
                covers.append((x, e))
    return sorted(covers)


def _chain_members(
    poset: Poset, subset: Iterable[ElementId] | None
) -> list[tuple[ElementId, ...]]:
    """Members of every non-empty chain within the subset (None: the whole
    poset), depth-first with elements visited in identifier order.

    Only :func:`enumerate_chains` and :func:`order_complex` call it, so the
    soft-limit warning points at the line that called one of them.
    """
    if subset is None:
        ids = sorted(poset.elements)
    else:
        ids = sorted(set(subset))
        for e in ids:
            poset.require(e)
    member_set = set(ids)
    # Successors in reverse identifier order, so the stack pops them in order.
    succ = {
        e: tuple(t for t in sorted(poset.strict_up_set(e), reverse=True) if t in member_set)
        for e in ids
    }

    chains: list[tuple[ElementId, ...]] = []
    stack = [(e,) for e in reversed(ids)]
    pop, push = stack.pop, stack.append
    while stack:
        chain = pop()
        chains.append(chain)
        if len(chains) == CHAIN_SOFT_LIMIT + 1:
            warnings.warn(
                f"chain enumeration exceeded {CHAIN_SOFT_LIMIT} chains; "
                f"this input is beyond the intended desk scale",
                RuntimeWarning,
                stacklevel=3,
            )
        for t in succ[chain[-1]]:
            push(chain + (t,))
    return chains


def enumerate_chains(poset: Poset, subset: Iterable[ElementId] | None = None) -> list[Chain]:
    """All non-empty chains within the given subset (default: the whole poset).

    Depth-first over the comparability graph with elements visited in
    identifier order, so the output order is deterministic.
    """
    return [Chain(members) for members in _chain_members(poset, subset)]


def order_complex(poset: Poset) -> SimplicialComplex:
    """Simplicial complex with one simplex per non-empty chain of the poset."""
    simplices = frozenset(map(frozenset, _chain_members(poset, None)))
    return SimplicialComplex(vertices=poset.sorted_elements, simplices=simplices)


def chain_counts(poset: Poset) -> tuple[int, ...]:
    """Number of chains of each length, i.e. the order complex's simplices
    per dimension, counted without listing them; () for the empty poset.

    The chains of length k topped by x number c_0(x) = 1 and
    c_k(x) = sum of c_(k-1)(y) over y < x, so one pass over
    ``topological_order`` finds every c(y) before it is needed.
    """
    below = poset._below
    by_top: dict[ElementId, list[int]] = {}
    for x in poset.topological_order:
        lower = [by_top[y] for y in below[x]]
        by_top[x] = [1, *map(sum, zip_longest(*lower, fillvalue=0))]
    return tuple(map(sum, zip_longest(*by_top.values(), fillvalue=0)))


def euler_characteristic(complex_: SimplicialComplex) -> int:
    """Alternating sum over simplices of (-1)^dimension; 0 for the empty complex."""
    return sum((-1) ** (len(s) - 1) for s in complex_.simplices)


def chain_weights(
    poset: Poset, subset: Iterable[ElementId] | None = None
) -> dict[ElementId, int]:
    """Signed count of the chains of an induced subposet that end at each member.

    Each chain topped by x is {x} or a chain topped by some member y < x with
    x appended, so w(x) = 1 - sum of w(y) over members y < x (Hall's theorem:
    w(x) is minus the Moebius function from an adjoined bottom to x).  One
    walk over a linear extension finds every w(y) before it is needed:
    ``topological_order`` for the whole poset, and for a subset its members
    by down-set size, since y < x makes y's strict down-set a proper subset
    of x's.  Summed over the subset, w gives the Euler characteristic of its
    order complex.
    """
    below = poset._below
    if subset is None:
        members, order = poset._set, poset.topological_order
    else:
        members = set(subset)
        for e in sorted(members):
            poset.require(e)
        order = sorted(members, key=lambda x: len(below[x]))
    w: dict[ElementId, int] = {}
    for x in order:
        w[x] = 1 - sum(w[y] for y in below[x] if y in members)
    return w


def chain_euler_characteristic(poset: Poset, subset: Iterable[ElementId]) -> int:
    """Euler characteristic of the order complex of an induced subposet."""
    return sum(chain_weights(poset, subset).values())


def is_two_wide(poset: Poset) -> TwoWideVerdict:
    """Check that every 2-step cover chain a < b < c has an alternative middle."""
    for a, b in sorted(poset.covers):
        for c in poset.upper_covers(b):
            middles = set(poset.upper_covers(a)) & set(poset.lower_covers(c))
            if not (middles - {b}):
                return TwoWideVerdict(False, (a, b, c))
    return TwoWideVerdict(True, None)


def _propagate_grading(poset: Poset, step) -> dict[ElementId, int] | GradingConflict:
    values: dict[ElementId, int] = {}
    via: dict[ElementId, ElementId] = {}
    for e in poset.topological_order:
        parents = poset.lower_covers(e)
        if not parents:
            values[e] = 0
            continue
        for a in parents:
            expected = step(values[a])
            if e not in values:
                values[e] = expected
                via[e] = a
            elif values[e] != expected:
                return GradingConflict(e, (values[e], expected), (via[e], a))
    return values


def compute_parity_rank(poset: Poset) -> ParityRank | GradingConflict:
    """The unique parity rank function, or a conflict witness if none exists."""
    result = _propagate_grading(poset, lambda v: 1 - v)
    if isinstance(result, GradingConflict):
        return result
    return ParityRank(values=result)


def compute_rank_function(poset: Poset) -> RankFunction | GradingConflict:
    """The unique rank function, or a conflict witness if none exists."""
    result = _propagate_grading(poset, lambda v: v + 1)
    if isinstance(result, GradingConflict):
        return result
    return RankFunction(values=result, max_rank=max(result.values(), default=0))


def validate_parity_rank(poset: Poset, mu: ParityRank) -> None:
    """Raise ValueError unless mu is a parity rank function for the poset."""
    for e in poset.elements:
        if e not in mu.values:
            raise ValueError(f"parity rank missing element {e!r}")
        if mu.values[e] not in (0, 1):
            raise ValueError(f"parity rank of {e!r} is not 0 or 1")
        if not poset.lower_covers(e) and mu.values[e] != 0:
            raise ValueError(f"minimal element {e!r} has parity {mu.values[e]}")
    for a, b in poset.covers:
        if mu.values[b] != 1 - mu.values[a]:
            raise ValueError(f"parity does not flip across cover ({a!r}, {b!r})")


def is_downward_eulerian(poset: Poset, mu: ParityRank) -> EulerianVerdict:
    """Check chi of each strict down-set against the parity-determined target.

    For every non-minimal element a the order complex of {x : x < a} must
    have Euler characteristic (-1)^(mu(a)+1) + 1, i.e. 2 for odd-parity a
    and 0 for even-parity a.  That chi is 1 - w(a) for the chain weights w
    of the whole poset, so one pass serves every element.
    """
    validate_parity_rank(poset, mu)
    w = chain_weights(poset)
    violations = []
    for a in sorted(poset.elements):
        if not poset.lower_covers(a):
            continue
        chi = 1 - w[a]
        required = (-1) ** (mu.values[a] + 1) + 1
        if chi != required:
            violations.append((a, chi, required))
    return EulerianVerdict(not violations, tuple(violations))


def check_hypotheses(poset: Poset) -> ParityRank:
    """Verify 2-wide + parity-graded + downward Eulerian; return the parity."""
    wide = is_two_wide(poset)
    if not wide:
        raise HypothesisViolated("not 2-wide", wide.witness)
    mu = compute_parity_rank(poset)
    if not isinstance(mu, ParityRank):
        raise HypothesisViolated(
            "no parity rank function",
            f"element {mu.element!r} receives {mu.values[0]} via {mu.via[0]!r} "
            f"and {mu.values[1]} via {mu.via[1]!r}",
        )
    eulerian = is_downward_eulerian(poset, mu)
    if not eulerian:
        raise HypothesisViolated("not downward Eulerian", eulerian.violations)
    return mu
