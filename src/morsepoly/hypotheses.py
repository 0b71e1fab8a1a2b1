"""The paper's three structural hypotheses, and Hall's recursion behind them.

A poset satisfies the hypotheses of the index theorem when it is 2-wide
(every 2-step cover chain a < b < c has a second middle element), parity
graded (a mod-2 rank function exists) and downward Eulerian (the order
complex of each strict down-set has the Euler characteristic its parity
prescribes); :func:`check_hypotheses` requires all three.  Signed chain
counts of induced subposets come from Hall's recursion
(:func:`chain_weights`) in time polynomial in the poset, so no check here
lists a chain; the enumeration they are tested against is in
:mod:`morsepoly.oracles`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import HypothesisViolated
from .poset import ElementId, ParityRank, Poset, RankFunction, Record


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
    for a, b in poset._pairs:
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
    for a, b in poset._pairs:
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
    for a in poset.elements:
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
