"""Finite posets presented by their Hasse diagram of cover relations.

A poset is built from element identifiers (opaque strings) and cover pairs
``(a, b)`` meaning ``a`` is covered by ``b``.  Construction validates that the
pairs are acyclic and form a true Hasse diagram: a pair implied transitively
by the others is rejected rather than silently dropped, because a redundant
pair in user input usually indicates a modeling error.  Use
:func:`transitive_reduction` to reduce an arbitrary acyclic relation first.

:func:`build_poset` is the one place that decides identifier order, whatever
the order of its input lists.  It stores the elements, the cover pairs,
each element's covers and each strict up-set sorted, so no consumer sorts
them again, and its own checks scan the sorted pairs, so an error names
the identifier-first bad pair under any hash seed.  An up-set is a tuple,
built by appending each element in that order with no set and no sort; a
down-set is a frozenset, because its readers test membership or sum over
it in any order.

The module holds the order itself: construction, order queries, the chain
counts per length (the order complex's f-vector, found without listing a
chain), the two gradings a face poset carries, and :class:`Record`, the
slotted base of every result type.  The paper's structural hypotheses live
in :mod:`morsepoly.hypotheses`, and the materialized order complex in
:mod:`morsepoly.oracles`.  All operations are pure and all structures are
immutable after construction.
"""

from __future__ import annotations

import heapq
from itertools import zip_longest
from typing import Collection, Iterable, Mapping, Sequence

from .errors import CycleDetected, InvalidArgument, NonCoverEdge, UnknownElement

ElementId = str

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


class Poset:
    """Immutable finite poset with precomputed reachability closure.

    Not constructed directly; use :func:`build_poset`.  ``elements``,
    ``_pairs`` (the covers as a tuple), each element's covers (``_upper``,
    ``_lower``) and its strict up-set (``_above``) are tuples in identifier
    order; strict down-sets (``_below``) are frozensets.  ``covers`` is the
    frozenset of the pairs.  ``topological_order`` is the linear extension
    build_poset found, smallest ready identifier first.
    """

    __slots__ = ("elements", "covers", "topological_order",
                 "_set", "_pairs", "_upper", "_lower", "_above", "_below")

    def __init__(
        self,
        elements: tuple[ElementId, ...],
        pairs: tuple[tuple[ElementId, ElementId], ...],
        topological_order: tuple[ElementId, ...],
        upper: dict[ElementId, tuple[ElementId, ...]],
        lower: dict[ElementId, tuple[ElementId, ...]],
        above: dict[ElementId, tuple[ElementId, ...]],
        below: dict[ElementId, frozenset[ElementId]],
    ):
        self.elements = elements
        self.covers = frozenset(pairs)
        self.topological_order = topological_order
        self._set = frozenset(elements)
        self._pairs = pairs
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
        return self.elements

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
        return frozenset(self._above[element])

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
        return tuple(e for e in self.elements if not self._lower[e])


def _check_references(
    elements: Sequence[ElementId], pairs: Iterable[tuple[ElementId, ElementId]]
) -> list[tuple[ElementId, ElementId]]:
    """The distinct pairs in identifier order, checked to name known, distinct
    elements.  Every later check scans them in this order, so an error names
    the identifier-first bad pair whatever the hash seed."""
    pairs = sorted({(str(a), str(b)) for a, b in pairs})
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
    return pairs


def _topological_order(
    elements: Collection[ElementId], pairs: Iterable[tuple[ElementId, ElementId]]
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
    pairs: Iterable[tuple[ElementId, ElementId]],
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
    transitively by the others; each at the identifier-first bad pair.
    """
    elements = tuple(elements)
    pairs = _check_references(elements, covers)
    elements = tuple(sorted(elements))
    order = _topological_order(elements, pairs)
    below = _closure(elements, pairs, order)

    # A pair (a, b) is transitive if some other cover (a, c) has c < b.
    upper_map: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    lower_map: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    for a, b in pairs:
        upper_map[a].append(b)
        lower_map[b].append(a)
    for a, b in pairs:
        for c in upper_map[a]:
            if c != b and c in below[b]:
                raise NonCoverEdge((a, b))

    # Appending each e in identifier order leaves every up-set sorted.
    above: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    for e in elements:
        for x in below[e]:
            above[x].append(e)

    return Poset(
        elements,
        tuple(pairs),
        tuple(order),
        {e: tuple(upper_map[e]) for e in elements},
        {e: tuple(lower_map[e]) for e in elements},
        {e: tuple(above[e]) for e in elements},
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
    pairs = _check_references(elements, relation)
    order = _topological_order(elements, pairs)
    below = _closure(elements, pairs, order)
    covers = []
    for e in elements:
        for x in below[e]:
            # x < e is a cover iff nothing sits strictly between.
            if not any(x in below[m] for m in below[e]):
                covers.append((x, e))
    return sorted(covers)


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




def _forwarding(module: str, moved: Mapping[str, str]):
    """A PEP 562 module ``__getattr__`` that resolves each name in ``moved``
    from the sibling module it names, for names that left ``module``."""
    package = module.rpartition(".")[0]

    def __getattr__(name: str):
        home = moved.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{package}.{home}"), name)

    return __getattr__


# The benchmark's layer pass (bench/layers.py) imports these from here.
__getattr__ = _forwarding(__name__, {
    "compute_parity_rank": "hypotheses",
    "is_downward_eulerian": "hypotheses",
    "is_two_wide": "hypotheses",
    "order_complex": "oracles",
})
