"""The paper's three structural hypotheses, and Hall's recursion behind them.

A poset satisfies the hypotheses of the index theorem when it is 2-wide
(every 2-step cover chain a < b < c has a second middle element), parity
graded (a mod-2 rank function exists) and downward Eulerian (the order
complex of each strict down-set has the Euler characteristic its parity
prescribes); :func:`check_hypotheses` requires all three.  The gradings
are not derived here: :func:`~morsepoly.poset.build_poset` grades each
poset once, and this module reads what it stored, a dict from element to
int or the first :class:`GradingConflict`.  Each hypothesis has one
refusal, a ``HypothesisViolated`` built here whoever asks; a caller's
grading that is not the poset's own gets InvalidArgument from
:func:`validate_parity_rank` alone.  Signed chain counts of
induced subposets come from Hall's recursion (:func:`chain_weights`) in
time polynomial in the poset, so no check here lists a chain; the
enumeration they are tested against is in :mod:`morsepoly.oracles`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import HypothesisViolated, InvalidArgument
from .poset import ElementId, GradingConflict, Poset, Record


class TwoWideVerdict(Record):
    # A violating triple (a, b, c) with a < b < c covers and no alternative middle.
    witness: tuple[ElementId, ElementId, ElementId] | None

    def __bool__(self) -> bool:
        return self.witness is None

    holds = property(__bool__)


class EulerianVerdict(Record):
    # (element, chi of its strict down-set's order complex, required chi)
    violations: tuple[tuple[ElementId, int, int], ...]

    def __bool__(self) -> bool:
        return not self.violations

    holds = property(__bool__)


def _chain_weights(poset: Poset, members: Iterable[ElementId]) -> dict[ElementId, int]:
    """:func:`chain_weights` of members drawn from the poset, unchecked."""
    below = poset._below
    w: dict[ElementId, int] = {}
    for x in sorted(members, key=lambda e: len(below[e])):
        # Every member y < x is already in w, and no non-member ever is.
        w[x] = 1 - sum(w[y] for y in below[x] if y in w)
    return w


def chain_weights(
    poset: Poset, subset: Iterable[ElementId] | None = None
) -> dict[ElementId, int]:
    """Signed count of the chains of an induced subposet that end at each member.

    Each chain topped by x is {x} or a chain topped by some member y < x with
    x appended, so w(x) = 1 - sum of w(y) over members y < x (Hall's theorem:
    w(x) is minus the Moebius function from an adjoined bottom to x).  One
    walk over the members (by default the whole poset) by down-set size
    finds every w(y) before it is needed, since y < x makes y's strict
    down-set a proper subset of x's.  Summed over the subset, w gives the
    Euler characteristic of its order complex.  The keys run by down-set
    size, then identifier.  Only this entry checks the subset; the
    package's callers draw theirs from the poset.
    """
    if subset is None:
        return _chain_weights(poset, poset.elements)
    members = set(subset)
    unknown = members.difference(poset._lower)
    if unknown:
        poset.require(min(unknown))
    return _chain_weights(poset, [e for e in poset.elements if e in members])


def is_two_wide(poset: Poset) -> TwoWideVerdict:
    """Check that every 2-step cover chain a < b < c has an alternative middle:
    from each a, the witness is the first (a, b, c) in cover order whose c
    is reached along two covers through b alone, whatever longer cover paths
    run from a to c, on parity-graded posets too."""
    upper = poset._upper
    for a in poset.elements:
        once: dict[ElementId, bool] = {}
        for b in upper[a]:
            for c in upper[b]:
                once[c] = c not in once
        for b in upper[a]:
            for c in upper[b]:
                if once[c]:
                    return TwoWideVerdict((a, b, c))
    return TwoWideVerdict(None)


def _require_two_wide(poset: Poset) -> None:
    """Raise HypothesisViolated, with :func:`is_two_wide`'s witness, unless
    the poset is 2-wide: the one refusal of every caller that needs it."""
    wide = is_two_wide(poset)
    if not wide:
        raise HypothesisViolated("not 2-wide", wide.witness)


def compute_parity_rank(poset: Poset) -> dict[ElementId, int] | GradingConflict:
    """The unique parity rank function, or a conflict witness if none exists.

    A copy of the one build_poset found, in identifier order, so the caller
    may change it without changing the poset.
    """
    mu = poset._parity
    return mu if isinstance(mu, GradingConflict) else dict(mu)


def compute_rank_function(poset: Poset) -> dict[ElementId, int] | GradingConflict:
    """The unique rank function, or a conflict witness if none exists; a
    copy of the one build_poset found, as for :func:`compute_parity_rank`."""
    rank = poset._rank
    return rank if isinstance(rank, GradingConflict) else dict(rank)


def _require_parity(poset: Poset) -> dict[ElementId, int]:
    """The poset's own parity map, or the one refusal of a poset with none,
    naming the first conflict build_poset met."""
    mu = poset._parity
    if isinstance(mu, GradingConflict):
        raise HypothesisViolated(
            "no parity rank function",
            f"element {mu.element!r} receives {mu.values[0]} via {mu.via[0]!r} "
            f"and {mu.values[1]} via {mu.via[1]!r}",
        )
    return mu


def validate_parity_rank(poset: Poset, mu: dict[ElementId, int]) -> None:
    """Raise InvalidArgument, naming the first element where mu differs,
    unless mu is the poset's own parity rank (unique when one exists); a
    poset with none gets :func:`_require_parity`'s HypothesisViolated."""
    own = _require_parity(poset)
    for e in poset.elements:
        if mu.get(e) != own[e]:
            raise InvalidArgument(f"parity rank of {e!r} is not {own[e]}")


def is_downward_eulerian(poset: Poset, mu: dict[ElementId, int]) -> EulerianVerdict:
    """Check chi of each strict down-set against the parity-determined target.

    For every non-minimal element a the order complex of {x : x < a} must
    have Euler characteristic (-1)^(mu(a)+1) + 1, i.e. 2 for odd-parity a
    and 0 for even-parity a.  That chi is 1 - w(a) for the chain weights w
    of the whole poset, so one pass serves every element.
    """
    validate_parity_rank(poset, mu)
    return _downward_eulerian(poset)


def _downward_eulerian(poset: Poset) -> EulerianVerdict:
    """:func:`is_downward_eulerian` on the poset's own parity, known to exist."""
    w = _chain_weights(poset, poset.elements)
    violations = []
    for a in poset.elements:
        if not poset._lower[a]:
            continue
        chi = 1 - w[a]
        required = (-1) ** (poset._parity[a] + 1) + 1
        if chi != required:
            violations.append((a, chi, required))
    return EulerianVerdict(tuple(violations))


def check_hypotheses(poset: Poset) -> dict[ElementId, int]:
    """Verify 2-wide + parity-graded + downward Eulerian; return the parity,
    the poset's own map, which the caller must not change."""
    _require_two_wide(poset)
    mu = _require_parity(poset)
    eulerian = _downward_eulerian(poset)
    if not eulerian:
        raise HypothesisViolated("not downward Eulerian", eulerian.violations)
    return mu
