"""Finite posets presented by their Hasse diagram of cover relations.

A poset is built from element identifiers (opaque strings) and cover pairs
``(a, b)`` meaning ``a`` is covered by ``b``.  Construction validates that the
pairs are acyclic and form a true Hasse diagram: a pair implied transitively
by the others is rejected rather than silently dropped, because a redundant
pair in user input usually indicates a modeling error.
:func:`transitive_reduction` returns the covers of any acyclic relation.
Both, and the cellular loader, build through one private routine: one
reference check and one Kahn walk over the relation as given, which closes,
reduces and grades each element as it pops, joining down-sets only along
covers.

:func:`build_poset` is the one place that decides identifier order, whatever
the order of its input lists.  It stores the elements, each element's
covers and each strict up-set sorted, so no consumer sorts them again, and
the cover pairs are read off the upper covers in that order.  Its checks
read the input pairs as an unordered set, and each raises at the least of
the pairs it rejects, so an error names the identifier-first bad pair under
any hash seed.  Each view it stores per element is a tuple: an up-set
appends each element in that order, with no set and no sort; a down-set
freezes the walk's working set in no order, as its readers only iterate it
or count it.  Accessors build sets on request.

The module holds the order itself: construction, each element's covers and
strict down-set and up-set, the chain counts per length (the order
complex's f-vector, found without listing a chain), the two gradings (each
found once, in the walk that builds the poset, and stored for every
reader), and :class:`Record`, the slotted base of every result type.  The
paper's structural hypotheses live in :mod:`morsepoly.hypotheses`, and the
materialized order complex in :mod:`morsepoly.oracles`.  All operations are
pure and all structures are immutable after construction.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import zip_longest
from operator import add
from typing import Iterable, Mapping, Sequence

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


class GradingConflict(Record):
    """Witness that no (parity) rank function exists.

    ``element`` received ``values[0]`` through parent ``via[0]`` and the
    incompatible ``values[1]`` through parent ``via[1]``.
    """

    __slots__ = ("element", "values", "via")
    element: ElementId
    values: tuple[int, int]
    via: tuple[ElementId, ElementId]


class Poset(Record):
    """Immutable finite poset with precomputed reachability closure.

    Not constructed directly; use :func:`build_poset`.  ``elements``, each
    element's covers (``_upper``, ``_lower``) and its strict up-set
    (``_above``) are tuples in identifier order; strict down-sets
    (``_below``) are tuples in no order.  Membership reads the keys of
    ``_lower``, and ``covers`` builds the frozenset of cover pairs on
    request.  ``topological_order`` is the linear extension build_poset
    found, smallest ready identifier first.  ``_rank`` and ``_parity`` are
    the poset's gradings, each a record or the first
    :class:`GradingConflict`; readers share them and must not change them.
    """

    __slots__ = ("elements", "topological_order", "_upper", "_lower", "_above",
                 "_below", "_rank", "_parity")
    elements: tuple[ElementId, ...]
    topological_order: tuple[ElementId, ...]
    _upper: dict[ElementId, tuple[ElementId, ...]]
    _lower: dict[ElementId, tuple[ElementId, ...]]
    _above: dict[ElementId, tuple[ElementId, ...]]
    _below: dict[ElementId, tuple[ElementId, ...]]
    _rank: RankFunction | GradingConflict
    _parity: ParityRank | GradingConflict

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: object) -> bool:
        return element in self._lower

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {sum(map(len, self._upper.values()))} covers)"

    @property
    def covers(self) -> frozenset[tuple[ElementId, ElementId]]:
        """The cover pairs (a, b), a covered by b."""
        return frozenset(_cover_pairs(self))

    @property
    def sorted_elements(self) -> tuple[ElementId, ...]:
        """Another name for ``elements``, which the benchmark's layer pass reads."""
        return self.elements

    def require(self, element: ElementId) -> None:
        if element not in self._lower:
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
        return frozenset(self._below[element])

    def strict_up_set(self, element: ElementId) -> frozenset[ElementId]:
        """All elements strictly above the given one."""
        self.require(element)
        return frozenset(self._above[element])


def _cover_pairs(poset: Poset) -> list[tuple[ElementId, ElementId]]:
    """The cover pairs (a, b) in identifier order."""
    return [(a, b) for a in poset.elements for b in poset._upper[a]]


def _check_references(
    elements: Sequence[ElementId], pairs: Iterable[tuple[ElementId, ElementId]]
) -> set[tuple[ElementId, ElementId]]:
    """The distinct pairs, checked to name known, distinct elements.  The
    set has no order, so each check that finds bad pairs raises at their
    identifier-first one, whatever the hash seed."""
    pairs = {(a, b) for a, b in pairs}
    known = set(elements)
    if len(known) != len(elements):
        seen: set[ElementId] = set()
        for e in elements:
            if e in seen:
                raise InvalidArgument(f"duplicate element id {e!r}")
            seen.add(e)
    unknown = [p for p in pairs if p[0] not in known or p[1] not in known]
    if unknown:
        a, b = min(unknown)
        bad = a if a not in known else b
        raise UnknownElement(f"unknown element {bad!r} in pair ({a!r}, {b!r})")
    return pairs


def _order(
    elements: Iterable[ElementId], relation: Iterable[tuple[ElementId, ElementId]]
) -> tuple[Poset, set[tuple[ElementId, ElementId]]]:
    """The poset an acyclic relation generates, and the relation's distinct
    pairs.

    One reference check and one Kahn walk, smallest ready identifier first.
    Each popped element is closed, reduced and graded at once: its
    predecessors, listed in pop order, are visited topologically last
    first, so one already in the accumulated down-set lies under another
    and is no cover, and only a cover's down-set is joined.  A redundant
    pair costs one membership test.  Kahn's popped set is always a
    down-set, so the order is the same for a relation and for its
    reduction.

    An element's rank comes through its first lower cover in identifier
    order; a later one that disagrees is a conflict.  Parity is rank mod 2,
    so grading goes on past an even conflict and stops at the first odd
    one, while closing goes on.
    """
    elements = tuple(elements)
    pairs = _check_references(elements, relation)
    elements = tuple(sorted(elements))
    succ: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    indeg = dict.fromkeys(elements, 0)
    for a, b in pairs:
        succ[a].append(b)
        indeg[b] += 1
    ready = [e for e in elements if indeg[e] == 0]
    heapq.heapify(ready)

    pred: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    order: list[ElementId] = []
    below: dict[ElementId, tuple[ElementId, ...]] = {}
    lower: dict[ElementId, tuple[ElementId, ...]] = dict.fromkeys(elements, ())
    rank: dict[ElementId, int] = {}
    via: dict[ElementId, ElementId] = {}
    rank_conflict = parity_conflict = None
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        acc: set[ElementId] = set()
        found = []
        for a in reversed(pred.pop(e)):
            if a not in acc:
                found.append(a)
                acc.update(below[a])
                acc.add(a)
        below[e] = tuple(acc)
        lower[e] = covers = tuple(sorted(found))
        if parity_conflict is None:
            for a in covers:
                r = rank[a] + 1
                if e not in rank:
                    rank[e], via[e] = r, a
                elif rank[e] != r:
                    rank_conflict = rank_conflict or GradingConflict(e, (rank[e], r), (via[e], a))
                    if (rank[e] - r) % 2:
                        parity_conflict = GradingConflict(e, (rank[e] % 2, r % 2), (via[e], a))
                        break
            rank.setdefault(e, 0)
        for t in succ.pop(e):
            pred[t].append(e)
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(ready, t)
    if len(order) != len(elements):
        # A self-loop never lets its element pop, so it stalls the walk too.
        loops = [a for a, b in pairs if a == b]
        if loops:
            raise CycleDetected(f"self-loop at {min(loops)!r}")
        stuck = sorted(e for e in elements if indeg[e] > 0)
        raise CycleDetected(f"cover pairs contain a cycle through {stuck}")

    # Appending each e in identifier order leaves every list sorted.
    upper: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    above: dict[ElementId, list[ElementId]] = {e: [] for e in elements}
    for e in elements:
        for a in lower[e]:
            upper[a].append(e)
        for x in below[e]:
            above[x].append(e)

    if parity_conflict:
        gradings = rank_conflict, parity_conflict
    else:
        ranks = {e: rank[e] for e in elements}
        gradings = (rank_conflict or RankFunction(ranks, max(ranks.values(), default=0)),
                    ParityRank({e: r % 2 for e, r in ranks.items()}))
    poset = Poset(
        elements,
        tuple(order),
        {e: tuple(upper.pop(e)) for e in elements},
        lower,
        {e: tuple(above.pop(e)) for e in elements},
        below,
        *gradings,
    )
    return poset, pairs


def build_poset(
    elements: Iterable[ElementId], covers: Iterable[tuple[ElementId, ElementId]]
) -> Poset:
    """Validate a Hasse diagram and return the poset it presents.

    Raises UnknownElement for pairs naming missing ids, CycleDetected if the
    pairs are not acyclic, and NonCoverEdge if a pair is already implied
    transitively by the others; each at the identifier-first bad pair.
    """
    poset, pairs = _order(elements, covers)
    redundant = [(a, b) for a, b in pairs if a not in poset._lower[b]]
    if redundant:
        raise NonCoverEdge(min(redundant))
    return poset


def transitive_reduction(
    elements: Iterable[ElementId], relation: Iterable[tuple[ElementId, ElementId]]
) -> list[tuple[ElementId, ElementId]]:
    """Cover pairs of the partial order generated by an acyclic relation.

    The relation may contain redundant (transitively implied) pairs; the
    result is the unique Hasse diagram in identifier order, suitable for
    :func:`build_poset`.  These are the covers of the poset the relation
    generates, so the cost is one build's: a Kahn walk, one membership test
    per pair, and one set union of a's down-set per cover (a, b).
    """
    return _cover_pairs(_order(elements, relation)[0])


def chain_counts(poset: Poset) -> tuple[int, ...]:
    """Number of chains of each length, i.e. the order complex's simplices
    per dimension, counted without listing them; () for the empty poset.

    The chains of length k topped by x number c_0(x) = 1 and
    c_k(x) = D_(k-1)(x), where D(x) is the sum of c(y) over y < x, so one
    pass over ``topological_order`` finds every c(y) before it is needed.
    When x has exactly one lower cover y, D(x) = D(y) + c(y), and D(y) is
    c(y) without its first entry: one vector sum instead of one per element
    below, so a chain of height h costs O(h^2) additions, not O(h^3).
    The total is summed as the pass goes, and each c(y) is dropped after
    its last reader, so a chain holds two vectors and the total, not h.
    """
    below, lower = poset._below, poset._lower
    # The vectors x reads: its one lower cover's, or its whole down-set's.
    reads = {x: lower[x] if len(lower[x]) == 1 else below[x] for x in poset.topological_order}
    readers = Counter(y for read in reads.values() for y in read)
    by_top: dict[ElementId, list[int]] = {}
    total: list[int] = []
    for x, read in reads.items():
        # A one-element read is a lone lower cover; a down-set read here
        # has no element or at least two.
        if len(read) == 1:
            d = by_top[read[0]]
            c = [1, *map(add, d, [*d[1:], 0])]
        else:
            c = [1, *map(sum, zip_longest(*[by_top[y] for y in read], fillvalue=0))]
        total = [*map(sum, zip_longest(total, c, fillvalue=0))]
        for y in read:
            readers[y] -= 1
            if not readers[y]:
                del by_top[y]
        if readers[x]:
            by_top[x] = c
    return tuple(total)


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
