"""The normalization pipeline: repair a discrete Morse function, keeping
its critical set.

:func:`normalize` rewrites a valid function on a 2-wide poset into one with
the same critical set that is additionally injective, monotone-extendable
(whenever z < x < y < w with covers x < y and g(x) < g(y), also
g(z) < g(y) and g(x) < g(w)), and free of all four "troubled" obstruction
patterns (the flag map :func:`find_troubled` returns is empty).  It runs
two sweeps over a fixed linear extension, each changing at most one value
per element; the input's
classification and every intermediate stage are retained in a trace so each
step can be audited; each change is rechecked locally as it is made
(:func:`morsepoly.morse._recheck_near`), so the obstruction audits do not
validate the function again.  All of it reads only the order of the values,
so after the up sweep one stable sort ranks them into the int keys the
result will have: the spread sweep, its rechecks and the later audits
compare ints, and the written rationals are computed without comparing any.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import InvalidMorseFunction
from .hypotheses import _require_two_wide
from .morse import Classification, MorseFunction, _recheck_near, classify
from .poset import ElementId, GradingConflict, Poset, Record, _cover_pairs


class TroubleFlags(Record):
    """Witnesses for the four obstruction patterns at one element.

    ``up`` holds (x, y) with element < x < y (cover), f(x) < f(y) <= f(element);
    ``short_up`` additionally has element covered by x.  ``down`` holds (z, w)
    with w < z < element (cover on the left), f(element) <= f(w) < f(z);
    ``short_down`` additionally has z covered by element.
    """

    short_up: tuple[ElementId, ElementId] | None
    up: tuple[ElementId, ElementId] | None
    short_down: tuple[ElementId, ElementId] | None
    down: tuple[ElementId, ElementId] | None
    _defaults = dict.fromkeys(__annotations__)


class Modification(Record):
    stage: str
    element: ElementId
    old: Fraction
    new: Fraction


class NormalizationTrace(Record):
    """The input's classification (which every stage preserves), the
    function after the up sweep, the result, every change made, and the
    result as the int order keys the audits compared."""

    classification: Classification
    after_up_sweep: MorseFunction
    result: MorseFunction
    modifications: tuple[Modification, ...]
    keys: MorseFunction


def find_troubled(poset: Poset, f: MorseFunction) -> dict[ElementId, TroubleFlags]:
    """Locate all four obstruction patterns, with one witness per flag: the
    flags of each obstructed element, in identifier order, so an empty dict
    means f is free of them."""
    classify(poset, f)  # raises unless f is a discrete Morse function
    return _find_troubled(poset, f.values)


def _find_troubled(
    poset: Poset, values: Mapping[ElementId, Fraction | int]
) -> dict[ElementId, TroubleFlags]:
    """:func:`find_troubled` on a function already known to be valid."""
    # Each maps a flagged element to its first witness pair.
    short_up, up, short_down, down = {}, {}, {}, {}

    for x, y in _cover_pairs(poset):
        if values[x] >= values[y]:
            continue
        # Elements a < x with f(y) <= f(a) see the rising cover (x, y) above them.
        for a in poset._below[x]:
            if values[y] <= values[a]:
                up.setdefault(a, (x, y))
                if a in poset._lower[x]:
                    short_up.setdefault(a, (x, y))
        # Elements a > y with f(a) <= f(x) see it below them.
        for a in poset._above[y]:
            if values[a] <= values[x]:
                down.setdefault(a, (y, x))
                if y in poset._lower[a]:
                    short_down.setdefault(a, (y, x))

    flagged = sorted(set(short_up) | set(up) | set(short_down) | set(down))
    return {a: TroubleFlags(short_up.get(a), up.get(a), short_down.get(a), down.get(a))
            for a in flagged}


def linear_extension(poset: Poset) -> tuple[ElementId, ...]:
    """Deterministic topological order: by rank when graded, then identifier
    (a stable sort of the identifier-ordered elements); ungraded posets keep
    the smallest-identifier-first order of build_poset.  Both the rank
    function and that order are the ones build_poset stored."""
    rank = poset._rank
    if isinstance(rank, GradingConflict):
        return poset.topological_order
    return tuple(sorted(poset.elements, key=rank.__getitem__))


_HALF = Fraction(1, 2)  # halves an int or a Fraction exactly, where / 2 makes an int a float


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    if not lo < hi:
        raise AssertionError(f"empty adjustment interval ({lo}, {hi}); implementation bug")
    return (lo + hi) * _HALF


def _short_up_witness(poset, values, e):
    """A pair (x, y) with e covered by x covered by y and f(x) < f(y) <= f(e)."""
    for x in poset._upper[e]:
        if values[x] >= values[e]:
            continue
        for y in poset._upper[x]:
            if values[x] < values[y] <= values[e]:
                return x, y
    return None


class _Pipeline:
    """Mutable state for one normalization run: the working values (the
    rationals, then :meth:`rank`'s int keys), the input's classification and
    critical set, and the modifications so far."""

    def __init__(self, poset: Poset, f: MorseFunction):
        self.poset = poset
        self.values: dict[ElementId, Fraction | int] = dict(f.values)
        self.classification = classify(poset, f)
        self.critical = self.classification.critical_set()
        self.modifications: list[Modification] = []

    def snapshot(self) -> MorseFunction:
        return MorseFunction(dict(self.values))

    def set_value(self, change: Modification, new: Fraction | int) -> None:
        """Record change; new is change.new, or after :meth:`rank` its key."""
        self.values[change.element] = new
        self.modifications.append(change)
        moving = "when moving {0.element!r} from {0.old} to {0.new}"  # formatted on failure
        try:
            critical = _recheck_near(self.poset, self.values, change.element)
        except InvalidMorseFunction as exc:
            raise AssertionError(f"stage {change.stage} broke the Morse condition at "
                                 f"{exc.element!r} {moving.format(change)}") from exc
        changed = [b for b, c in critical.items() if c != (b in self.critical)]
        if changed:
            raise AssertionError(f"stage {change.stage} changed the critical set at "
                                 f"{changed} {moving.format(change)}")

    def up_sweep(self, order: tuple[ElementId, ...]) -> None:
        """Remove short-up obstructions, sweeping the linear extension upward.

        At a flagged element e with witness pair (x, y), the unique
        non-increasing upper cover is x; e's value drops into the open
        interval between f(x) and the least value above x.  Everything
        strictly below e already sits under f(x), so no new violation and no
        new short-up obstruction can appear at already-processed elements.

        On a 2-wide poset no short-down obstruction survives this sweep
        either, so there is no mirror-image down sweep.  Take one at u via
        w < z < u (covers) with f(u) <= f(w) < f(z).  2-wideness gives a
        second middle element d with w < d < u; z is u's one non-increasing
        lower cover, so f(d) < f(u) <= f(w), a short-up obstruction at w.
        :func:`normalize_trace` checks the swept function for all four
        patterns, so the premise is audited rather than assumed.
        """
        poset, values = self.poset, self.values
        for e in order:
            witness = _short_up_witness(poset, values, e)
            if witness is None:
                continue
            x, _ = witness
            bad = [d for d in poset._lower[e] if values[d] >= values[x]]
            if bad:
                raise AssertionError(
                    f"lower cover {bad[0]!r} of {e!r} not below f({x!r}); "
                    f"up sweep precondition failed, implementation bug"
                )
            bound = min(values[b] for b in poset._upper[x])
            new = _midpoint(values[x], bound)
            self.set_value(Modification("up_sweep", e, values[e], new), new)

    def rank(self, order) -> list[ElementId]:
        """Return g's order, one stable sort of reversed(order) by value: a
        tie class is a run, its later members in order sorting lower, and a
        key is a position.  Each element holds its run's first position
        until :meth:`spread_sweep` moves it."""
        values = self.values
        ranked = sorted(reversed(order), key=values.__getitem__)
        for i, e in enumerate(ranked):
            if not i or values[e] != last:
                held, last = i, values[e]
            values[e] = held
        return ranked

    def spread_sweep(self, order, rationals, ranked) -> dict[ElementId, Fraction]:
        """Make all values distinct without reordering any strict comparison;
        return the written rationals.

        Runs on the held keys :meth:`rank` made from ``rationals``.  Each
        tie class's elements but its last in order move: the key to its
        position in ``ranked``, the rational to the midpoint of its value
        and the written value of the element ranked just above it (the one
        moved just before it, or the next class's unmoved lowest member;
        past the top, value + 1).  So both land between the same
        neighbours, and every comparison agrees on either.
        """
        written = dict(rationals)
        position = {e: i for i, e in enumerate(ranked)}
        for e in order:
            key = position[e]
            if self.values[e] == key:
                continue
            value = written[e]
            top = key + 1 == len(ranked)
            written[e] = new = value + 1 if top else (value + written[ranked[key + 1]]) * _HALF
            self.set_value(Modification("spread_sweep", e, value, new), key)
        return written


def normalize_trace(poset: Poset, f: MorseFunction) -> NormalizationTrace:
    """Run the full normalization pipeline, keeping every intermediate stage.

    Requires a valid discrete Morse function on a 2-wide poset; a poset
    that is not 2-wide is refused first, with the HypothesisViolated that
    :func:`~morsepoly.hypotheses.check_hypotheses` raises for it.  The
    input is validated and classified once in full; after that every
    single-value modification is re-validated and re-classified at the
    changed element and its covers, the only elements whose verdict it can
    alter, so a contract violation fails loudly at the exact step that
    caused it.

    The up sweep must leave no obstruction at all (see
    :meth:`_Pipeline.up_sweep` for why no down sweep is needed).  That is
    audited before the spread sweep, whose tie breaking could hide one.
    """
    _require_two_wide(poset)
    return _normalize_trace(poset, f)


def _normalize_trace(poset: Poset, f: MorseFunction) -> NormalizationTrace:
    """:func:`normalize_trace` on a poset the caller has found 2-wide."""
    state = _Pipeline(poset, f)
    order = linear_extension(poset)

    state.up_sweep(order)
    after_up = state.snapshot()
    ranked = state.rank(order)
    troubled = _find_troubled(poset, state.values)
    if troubled:
        raise AssertionError(f"up sweep left obstructed elements "
                             f"{tuple(troubled)}; implementation bug")

    result = MorseFunction(state.spread_sweep(order, after_up.values, ranked))
    keys = state.snapshot()
    if not keys.is_injective():
        raise AssertionError("spread sweep failed to separate all values")
    if _find_troubled(poset, keys.values):
        raise AssertionError("spread sweep reintroduced an obstruction")
    if classify(poset, keys).critical_set() != state.critical:
        raise AssertionError("normalization changed the critical set")

    return NormalizationTrace(state.classification, after_up, result,
                              tuple(state.modifications), keys)


def normalize(poset: Poset, f: MorseFunction) -> MorseFunction:
    """Equivalent injective, obstruction-free discrete Morse function.

    The result has exactly the same critical set as the input, assigns a
    distinct value to every element, and satisfies the monotone-extension
    property: for z < x < y < w with x covered by y and g(x) < g(y), both
    g(z) < g(y) and g(x) < g(w).  Refuses a poset that is not 2-wide with
    HypothesisViolated, as :func:`normalize_trace` does.
    """
    return normalize_trace(poset, f).result
