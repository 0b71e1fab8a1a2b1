"""Discrete Morse functions on posets: validation, classification, repair.

A function f on a poset is a discrete Morse function when every element has
at most one lower cover a with f(a) >= f(b) and at most one upper cover c
with f(b) >= f(c).  An element with no such neighbor in either direction is
critical; otherwise it is ordinary.  The condition is stated once, in
:func:`_scan`, which validation, classification, the local recheck and the
exclusivity oracle (:mod:`morsepoly.oracles`) all read.  Values are exact
rationals; no comparison in this module ever touches floating point.

The normalization pipeline (:func:`normalize`) rewrites a valid function on
a 2-wide poset into one with the same critical set that is additionally
injective, monotone-extendable (whenever z < x < y < w with covers x < y and
g(x) < g(y), also g(z) < g(y) and g(x) < g(w)), and free of all four
"troubled" obstruction patterns.  It runs two sweeps over a fixed linear
extension, each changing at most one value per element; the input's
classification and every intermediate stage are retained in a trace so each
step can be audited; each change is rechecked locally as it is made, so the
obstruction audits do not validate the function again.  All of it reads
only the order of the values, so after the up sweep they are ranked once
into int keys: the spread sweep, its rechecks and the later audits compare
ints, and the written rationals are computed without comparing any.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import Mapping

from .errors import (
    InvalidMorseFunction,
    MissingValue,
    NotTwoWide,
    UnknownElement,
)
from .poset import (
    ElementId,
    Poset,
    RankFunction,
    Record,
    compute_rank_function,
    is_two_wide,
)

BELOW = "below"
ABOVE = "above"


_RATIONAL_RE = re.compile(r"-?\d+(/[1-9]\d*)?")


def parse_rational(value: object) -> Fraction:
    """Exact rational from an int, a Fraction, or a "p"/"p/q" string (the one
    grammar, JSON input included); TypeError for floats, ValueError for text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value.strip()):
            raise ValueError(f"expected a rational as 'p' or 'p/q', got {value!r}")
        return Fraction(value.strip())
    raise TypeError(f"refusing non-exact value {value!r} (use int, str, or Fraction)")


class MorseFunction(Record):
    """Total map from poset elements to exact rational values."""

    __slots__ = ("values",)
    values: Mapping[ElementId, Fraction]

    @classmethod
    def from_values(cls, values: Mapping[ElementId, object]) -> "MorseFunction":
        return cls({str(k): parse_rational(v) for k, v in values.items()})

    def __getitem__(self, element: ElementId) -> Fraction:
        return self.values[element]

    def __contains__(self, element: ElementId) -> bool:
        return element in self.values

    def is_injective(self) -> bool:
        return len(set(self.values.values())) == len(self.values)

    def sorted_items(self) -> list[tuple[ElementId, Fraction]]:
        return sorted(self.values.items())


class MorseVerdict(Record):
    """Outcome of validate_morse; lists one offending element on failure."""

    __slots__ = ("valid", "element", "witnesses")
    valid: bool
    element: ElementId | None
    # Each witness is (neighbor, direction): the neighbor is a cover of the
    # element on the given side whose value breaks strict monotonicity.
    witnesses: tuple[tuple[ElementId, str], ...]
    _defaults = {"element": None, "witnesses": ()}

    def __bool__(self) -> bool:
        return self.valid


class Classification(Record):
    """Critical/ordinary verdict per element, with one witness per ordinary one."""

    __slots__ = ("verdicts", "witnesses")
    verdicts: Mapping[ElementId, str]  # "critical" | "ordinary"
    witnesses: Mapping[ElementId, tuple[ElementId, str]]

    def critical_set(self) -> frozenset[ElementId]:
        return frozenset(e for e, v in self.verdicts.items() if v == "critical")

    def is_critical(self, element: ElementId) -> bool:
        return self.verdicts[element] == "critical"


class TroubleFlags(Record):
    """Witnesses for the four obstruction patterns at one element.

    ``up`` holds (x, y) with element < x < y (cover), f(x) < f(y) <= f(element);
    ``short_up`` additionally has element covered by x.  ``down`` holds (z, w)
    with w < z < element (cover on the left), f(element) <= f(w) < f(z);
    ``short_down`` additionally has z covered by element.
    """

    __slots__ = ("short_up", "up", "short_down", "down")
    short_up: tuple[ElementId, ElementId] | None
    up: tuple[ElementId, ElementId] | None
    short_down: tuple[ElementId, ElementId] | None
    down: tuple[ElementId, ElementId] | None
    _defaults = dict.fromkeys(__slots__)


class TroubleReport(Record):
    __slots__ = ("flags",)
    flags: Mapping[ElementId, TroubleFlags]

    def clean(self) -> bool:
        return not self.flags

    def troubled_elements(self) -> tuple[ElementId, ...]:
        return tuple(sorted(self.flags))


class Modification(Record):
    __slots__ = ("stage", "element", "old", "new")
    stage: str
    element: ElementId
    old: Fraction
    new: Fraction


class NormalizationTrace(Record):
    """The normalization pipeline's input, its classification (which every
    stage preserves), the function after each sweep, every change made, and
    the result as the int order keys the audits compared."""

    __slots__ = ("order", "start", "classification", "after_up_sweep", "result",
                 "modifications", "keys")
    order: tuple[ElementId, ...]
    start: MorseFunction
    classification: Classification
    after_up_sweep: MorseFunction
    result: MorseFunction
    modifications: tuple[Modification, ...]
    keys: MorseFunction


def _require_total(poset: Poset, f: MorseFunction) -> None:
    missing = sorted(set(poset.elements) - set(f.values))
    if missing:
        raise MissingValue(f"function has no value for {missing}")
    extra = sorted(set(f.values) - set(poset.elements))
    if extra:
        raise UnknownElement(f"function assigns values to non-elements {extra}")


def _scan(poset: Poset, values: Mapping[ElementId, Fraction | int], elements):
    """Yield (b, below, above) for the elements in identifier order: b's
    non-increasing lower and upper covers, at most one each.  Raises
    InvalidMorseFunction at the first element with two on one side."""
    for b in sorted(elements):
        value = values[b]
        below = [a for a in poset._lower[b] if values[a] >= value]
        above = [c for c in poset._upper[b] if value >= values[c]]
        if len(below) > 1 or len(above) > 1:
            side, covers = (BELOW, below) if len(below) > 1 else (ABOVE, above)
            # A list, not a generator: one generator per raise grew gen_morse's RSS.
            raise InvalidMorseFunction(b, tuple([(c, side) for c in covers]))
        yield b, below, above


def _recheck_near(
    poset: Poset, values: Mapping[ElementId, Fraction | int], element: ElementId
) -> dict[ElementId, bool]:
    """Morse condition and critical verdicts at element and its covers only.

    An element's verdict reads only its own value and its covers' values, so
    after a change at element, on a function that was valid before, these
    are the only verdicts that can differ.  Raises InvalidMorseFunction at
    the first of them, in identifier order, that breaks the Morse condition;
    otherwise returns whether each is critical.
    """
    near = {element, *poset._lower[element], *poset._upper[element]}
    return {b: not below and not above for b, below, above in _scan(poset, values, near)}


def validate_morse(poset: Poset, f: MorseFunction) -> MorseVerdict:
    """Check the at-most-one-non-increasing-cover condition on each side."""
    try:
        classify(poset, f)
    except InvalidMorseFunction as exc:
        return MorseVerdict(False, exc.element, exc.witnesses)
    return MorseVerdict(True)


def classify(poset: Poset, f: MorseFunction) -> Classification:
    """Critical/ordinary verdicts with one recorded witness per ordinary element.

    When an element has violating neighbors on both sides (possible only on
    posets that are not 2-wide) the below-side witness is recorded.
    """
    _require_total(poset, f)
    verdicts: dict[ElementId, str] = {}
    witnesses: dict[ElementId, tuple[ElementId, str]] = {}
    for b, below, above in _scan(poset, f.values, poset.elements):
        verdicts[b] = "ordinary" if below or above else "critical"
        if below or above:
            witnesses[b] = (below[0], BELOW) if below else (above[0], ABOVE)
    return Classification(verdicts=verdicts, witnesses=witnesses)


def find_troubled(poset: Poset, f: MorseFunction) -> TroubleReport:
    """Locate all four obstruction patterns, with one witness per flag."""
    classify(poset, f)  # raises unless f is a discrete Morse function
    return _find_troubled(poset, f.values)


def _find_troubled(poset: Poset, values: Mapping[ElementId, Fraction | int]) -> TroubleReport:
    """:func:`find_troubled` on a function already known to be valid."""
    # Each maps a flagged element to its first witness pair.
    short_up, up, short_down, down = {}, {}, {}, {}

    for x, y in sorted(poset.covers):
        if values[x] >= values[y]:
            continue
        # Elements a < x with f(y) <= f(a) see the rising cover (x, y) above them.
        for a in sorted(poset.strict_down_set(x)):
            if values[y] <= values[a]:
                up.setdefault(a, (x, y))
                if (a, x) in poset.covers:
                    short_up.setdefault(a, (x, y))
        # Elements a > y with f(a) <= f(x) see it below them.
        for a in sorted(poset.strict_up_set(y)):
            if values[a] <= values[x]:
                down.setdefault(a, (y, x))
                if (y, a) in poset.covers:
                    short_down.setdefault(a, (y, x))

    flagged = sorted(set(short_up) | set(up) | set(short_down) | set(down))
    return TroubleReport(
        {a: TroubleFlags(short_up.get(a), up.get(a), short_down.get(a), down.get(a))
         for a in flagged}
    )


def linear_extension(poset: Poset) -> tuple[ElementId, ...]:
    """Deterministic topological order: by rank when graded, then identifier;
    ungraded posets keep the smallest-identifier-first order of build_poset."""
    rank = compute_rank_function(poset)
    if isinstance(rank, RankFunction):
        return tuple(sorted(poset.elements, key=lambda e: (rank.values[e], e)))
    return poset.topological_order


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    if not lo < hi:
        raise AssertionError(f"empty adjustment interval ({lo}, {hi}); implementation bug")
    return (lo + hi) / 2


def _short_up_witness(poset, values, e):
    """A pair (x, y) with e covered by x covered by y and f(x) < f(y) <= f(e)."""
    for x in poset.upper_covers(e):
        if values[x] >= values[e]:
            continue
        for y in poset.upper_covers(x):
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
            bad = [d for d in poset.lower_covers(e) if values[d] >= values[x]]
            if bad:
                raise AssertionError(
                    f"lower cover {bad[0]!r} of {e!r} not below f({x!r}); "
                    f"up sweep precondition failed, implementation bug"
                )
            bound = min(values[b] for b in poset.upper_covers(x))
            new = _midpoint(values[x], bound)
            self.set_value(Modification("up_sweep", e, values[e], new), new)

    def rank(self) -> dict[int, tuple[int, Fraction | None]]:
        """Key the i-th distinct rational i * spacing, spacing exceeding the
        element count, and return each key's ceiling: the next class's key
        and value, or past the maximum key + spacing and None."""
        distinct = sorted(set(self.values.values()))
        spacing = len(self.values) + 1
        key = {v: i * spacing for i, v in enumerate(distinct)}
        self.values = {e: key[v] for e, v in self.values.items()}
        tops = distinct[1:] + [None]
        return {i * spacing: ((i + 1) * spacing, top) for i, top in enumerate(tops)}

    def spread_sweep(self, order, rationals, ceiling) -> dict[ElementId, Fraction]:
        """Make all values distinct without reordering any strict comparison;
        return the written rationals.

        Runs on the keys and ceilings :meth:`rank` made from ``rationals``.
        Each tie class's elements but its last in order move up: the key to
        one below the class's ceiling key, the rational to the midpoint of
        the class's value and ceiling value (past the maximum, the first to
        value + 1), and the move becomes the ceiling.  So both land
        between the same neighbours, and every comparison agrees on either.
        """
        keys, written = self.values, dict(rationals)
        left = Counter(keys.values())
        for e in order:
            key, value = keys[e], written[e]
            if left[key] == 1:
                continue
            left[key] -= 1
            top_key, top = ceiling[key]
            written[e] = new = value + 1 if top is None else (value + top) / 2
            ceiling[key] = top_key - 1, new
            self.set_value(Modification("spread_sweep", e, value, new), top_key - 1)
        return written


def normalize_trace(poset: Poset, f: MorseFunction) -> NormalizationTrace:
    """Run the full normalization pipeline, keeping every intermediate stage.

    Requires a valid discrete Morse function on a 2-wide poset.  The input is
    validated and classified once in full; after that every single-value
    modification is re-validated and re-classified at the changed element
    and its covers, the only elements whose verdict it can alter, so a
    contract violation fails loudly at the exact step that caused it.

    The up sweep must leave no obstruction at all (see
    :meth:`_Pipeline.up_sweep` for why no down sweep is needed).  That is
    audited before the spread sweep, whose tie breaking could hide one.
    """
    verdict = is_two_wide(poset)
    if not verdict:
        raise NotTwoWide(verdict.witness)
    return _normalize_trace(poset, f)


def _normalize_trace(poset: Poset, f: MorseFunction) -> NormalizationTrace:
    """:func:`normalize_trace` on a poset the caller has found 2-wide."""
    state = _Pipeline(poset, f)
    start = state.snapshot()
    order = linear_extension(poset)

    state.up_sweep(order)
    after_up = state.snapshot()
    ceiling = state.rank()
    report = _find_troubled(poset, state.values)
    if not report.clean():
        raise AssertionError(f"up sweep left obstructed elements "
                             f"{report.troubled_elements()}; implementation bug")

    result = MorseFunction(state.spread_sweep(order, after_up.values, ceiling))
    keys = state.snapshot()
    if not keys.is_injective():
        raise AssertionError("spread sweep failed to separate all values")
    if not _find_troubled(poset, keys.values).clean():
        raise AssertionError("spread sweep reintroduced an obstruction")
    if classify(poset, keys).critical_set() != state.critical:
        raise AssertionError("normalization changed the critical set")

    return NormalizationTrace(order, start, state.classification, after_up, result,
                              tuple(state.modifications), keys)


def normalize(poset: Poset, f: MorseFunction) -> MorseFunction:
    """Equivalent injective, obstruction-free discrete Morse function.

    The result has exactly the same critical set as the input, assigns a
    distinct value to every element, and satisfies the monotone-extension
    property: for z < x < y < w with x covered by y and g(x) < g(y), both
    g(z) < g(y) and g(x) < g(w).
    """
    return normalize_trace(poset, f).result
