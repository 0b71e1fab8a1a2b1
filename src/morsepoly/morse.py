"""Discrete Morse functions on posets: validation, classification, repair.

A function f on a poset is a discrete Morse function when every element has
at most one lower cover a with f(a) >= f(b) and at most one upper cover c
with f(b) >= f(c).  An element with no such neighbor in either direction is
critical; otherwise it is ordinary.  The condition is stated once, in
:func:`_scan`, which validation, classification, the local recheck and the
exclusivity oracle (:mod:`morsepoly.oracles`) all read.  All values are
exact rationals; no comparison in this module ever touches floating point.

The normalization pipeline (:func:`normalize`) rewrites a valid function on
a 2-wide poset into one with the same critical set that is additionally
injective, monotone-extendable (whenever z < x < y < w with covers x < y and
g(x) < g(y), also g(z) < g(y) and g(x) < g(w)), and free of all four
"troubled" obstruction patterns.  It runs two sweeps over a fixed linear
extension, each changing at most one value per element; the input's
classification and every intermediate stage are retained in a trace so each
step can be audited; each change is rechecked locally as it is made, so the
obstruction audits do not validate the function again.
"""

from __future__ import annotations

import re
from bisect import bisect_right, insort
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
    stage preserves), the function after each sweep, and every change made."""

    __slots__ = ("order", "start", "classification", "after_up_sweep", "result",
                 "modifications")
    order: tuple[ElementId, ...]
    start: MorseFunction
    classification: Classification
    after_up_sweep: MorseFunction
    result: MorseFunction
    modifications: tuple[Modification, ...]


def _require_total(poset: Poset, f: MorseFunction) -> None:
    missing = sorted(set(poset.elements) - set(f.values))
    if missing:
        raise MissingValue(f"function has no value for {missing}")
    extra = sorted(set(f.values) - set(poset.elements))
    if extra:
        raise UnknownElement(f"function assigns values to non-elements {extra}")


def _scan(poset: Poset, values: Mapping[ElementId, Fraction], elements):
    """Yield (b, below, above) for the elements in identifier order: b's
    non-increasing lower and upper covers, at most one each.  Raises
    InvalidMorseFunction at the first element with two on one side."""
    for b in sorted(elements):
        value = values[b]
        below = [a for a in poset.lower_covers(b) if values[a] >= value]
        above = [c for c in poset.upper_covers(b) if value >= values[c]]
        if len(below) > 1 or len(above) > 1:
            side, covers = (BELOW, below) if len(below) > 1 else (ABOVE, above)
            # A list, not a generator: one generator per raise grew gen_morse's RSS.
            raise InvalidMorseFunction(b, tuple([(c, side) for c in covers]))
        yield b, below, above


def _recheck_near(
    poset: Poset, values: Mapping[ElementId, Fraction], element: ElementId
) -> dict[ElementId, bool]:
    """Morse condition and critical verdicts at element and its covers only.

    An element's verdict reads only its own value and its covers' values, so
    after a change at element, on a function that was valid before, these
    are the only verdicts that can differ.  Raises InvalidMorseFunction at
    the first of them, in identifier order, that breaks the Morse condition;
    otherwise returns whether each is critical.
    """
    near = {element, *poset.lower_covers(element), *poset.upper_covers(element)}
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


def _find_troubled(poset: Poset, values: Mapping[ElementId, Fraction]) -> TroubleReport:
    """:func:`find_troubled` on a function already known to be valid."""
    short_up: dict[ElementId, tuple[ElementId, ElementId]] = {}
    up: dict[ElementId, tuple[ElementId, ElementId]] = {}
    short_down: dict[ElementId, tuple[ElementId, ElementId]] = {}
    down: dict[ElementId, tuple[ElementId, ElementId]] = {}

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
    """Mutable state for one normalization run: the working values, the
    input's classification and critical set, and the modifications so far."""

    def __init__(self, poset: Poset, f: MorseFunction):
        self.poset = poset
        self.values: dict[ElementId, Fraction] = dict(f.values)
        self.classification = classify(poset, f)
        self.critical = self.classification.critical_set()
        self.modifications: list[Modification] = []

    def snapshot(self) -> MorseFunction:
        return MorseFunction(dict(self.values))

    def set_value(self, stage: str, element: ElementId, new: Fraction) -> None:
        old = self.values[element]
        self.values[element] = new
        self.modifications.append(Modification(stage, element, old, new))
        try:
            critical = _recheck_near(self.poset, self.values, element)
        except InvalidMorseFunction as exc:
            raise AssertionError(
                f"stage {stage} broke the Morse condition at {exc.element!r} "
                f"when moving {element!r} from {old} to {new}"
            ) from exc
        changed = [b for b, c in critical.items() if c != (b in self.critical)]
        if changed:
            raise AssertionError(
                f"stage {stage} changed the critical set at {changed} "
                f"when moving {element!r} from {old} to {new}"
            )

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
            self.set_value("up_sweep", e, _midpoint(values[x], bound))

    def spread_sweep(self, order: tuple[ElementId, ...]) -> None:
        """Make all values distinct without reordering any strict comparison.

        Each duplicated value is nudged up to the midpoint between it and the
        next strictly larger value in the image (or +1 past the maximum), so
        no existing value lands between the old and new ones.  The image is
        kept as a multiset and a sorted list of its distinct values; a new
        value is never already in the image, so it only ever gets inserted.
        """
        values = self.values
        count = Counter(values.values())
        image = sorted(count)
        for e in order:
            current = values[e]
            if count[current] == 1:
                continue
            i = bisect_right(image, current)
            new = _midpoint(current, image[i]) if i < len(image) else current + 1
            self.set_value("spread_sweep", e, new)
            count[current] -= 1
            count[new] += 1
            insort(image, new)


def normalize_trace(poset: Poset, f: MorseFunction) -> NormalizationTrace:
    """Run the full normalization pipeline, keeping every intermediate stage.

    Requires a valid discrete Morse function on a 2-wide poset.  The input is
    validated and classified once in full; after that every single-value
    modification is re-validated and re-classified at the changed element
    and its covers, the only elements whose verdict it can alter, so a
    contract violation fails loudly at the exact step that caused it.

    The up sweep must leave no obstruction at all (see
    :meth:`_Pipeline.up_sweep` for why no down sweep is needed), and that is
    audited before the spread sweep runs: breaking ties there can hide an
    obstruction that the up sweep left behind, so the final audit alone
    could miss it.
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
    report = _find_troubled(poset, after_up.values)
    if not report.clean():
        raise AssertionError(
            f"up sweep left obstructed elements {report.troubled_elements()}; "
            f"implementation bug"
        )

    state.spread_sweep(order)
    result = state.snapshot()
    if not result.is_injective():
        raise AssertionError("spread sweep failed to separate all values")
    if not _find_troubled(poset, result.values).clean():
        raise AssertionError("spread sweep reintroduced an obstruction")
    if classify(poset, result).critical_set() != state.critical:
        raise AssertionError("normalization changed the critical set")

    return NormalizationTrace(
        order=order,
        start=start,
        classification=state.classification,
        after_up_sweep=after_up,
        result=result,
        modifications=tuple(state.modifications),
    )


def normalize(poset: Poset, f: MorseFunction) -> MorseFunction:
    """Equivalent injective, obstruction-free discrete Morse function.

    The result has exactly the same critical set as the input, assigns a
    distinct value to every element, and satisfies the monotone-extension
    property: for z < x < y < w with x covered by y and g(x) < g(y), both
    g(z) < g(y) and g(x) < g(w).
    """
    return normalize_trace(poset, f).result
