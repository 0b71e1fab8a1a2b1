"""Discrete Morse functions on posets: the condition and the classification.

A function f on a poset is a discrete Morse function when every element has
at most one lower cover a with f(a) >= f(b) and at most one upper cover c
with f(b) >= f(c).  An element with no such neighbor in either direction is
critical; otherwise it is ordinary.  The condition is stated once, in
:func:`_non_increasing`, which :func:`_scan` reads for validation,
classification, the local recheck, the normalization pipeline
(:mod:`morsepoly.normalization`) and the exclusivity oracle
(:mod:`morsepoly.oracles`), and :func:`_holds_near` for the generator's
pass/fail test after one change.  Values are exact rationals or ints; no
comparison in this module ever touches floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .errors import InvalidMorseFunction, MissingValue, UnknownElement
from .poset import ElementId, Poset, Record, _forwarding

BELOW = "below"
ABOVE = "above"


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?", re.ASCII)


def parse_rational(value: object) -> Fraction:
    """Exact rational from an int, a Fraction, or a "p"/"p/q" string of ASCII
    digits (the one grammar, JSON input included); TypeError for floats,
    ValueError for text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if not match:
            raise ValueError(f"expected a rational as 'p' or 'p/q', got {value!r}")
        return Fraction(int(match[1]), int(match[2] or 1))
    raise TypeError(f"refusing non-exact value {value!r} (use int, str, or Fraction)")


class MorseFunction(Record):
    """Total map from poset elements to exact rational values: each an int
    or a Fraction, so no comparison ever reads a float."""

    __slots__ = ("values",)
    values: Mapping[ElementId, Fraction]

    def __init__(self, values: Mapping[ElementId, Fraction | int]):
        for e, v in values.items():
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(f"value of {e!r} is not an int or a Fraction: {v!r}")
        super().__init__(values)

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


def _require_total(poset: Poset, f: MorseFunction) -> None:
    missing = sorted(set(poset.elements) - set(f.values))
    if missing:
        raise MissingValue(f"function has no value for {missing}")
    extra = sorted(set(f.values) - set(poset.elements))
    if extra:
        raise UnknownElement(f"function assigns values to non-elements {extra}")


def _non_increasing(poset: Poset, values: Mapping[ElementId, Fraction | int], b: ElementId):
    """b's lower covers a with f(a) >= f(b) and upper covers c with f(b) >= f(c)."""
    value = values[b]
    return ([a for a in poset._lower[b] if values[a] >= value],
            [c for c in poset._upper[b] if value >= values[c]])


def _scan(poset: Poset, values: Mapping[ElementId, Fraction | int], elements):
    """Yield (b, below, above) for the elements in the order given: b's
    non-increasing lower and upper covers, at most one each.  Raises
    InvalidMorseFunction at the first element with two on one side."""
    for b in elements:
        below, above = _non_increasing(poset, values, b)
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
    near = sorted({element, *poset._lower[element], *poset._upper[element]})
    return {b: not below and not above for b, below, above in _scan(poset, values, near)}


def _holds_near(poset: Poset, values: Mapping[ElementId, Fraction | int], element: ElementId):
    """Whether a function that was valid before its value at element changed
    is still valid.  A cover's lists can have gained element only if it is
    one of element's non-increasing covers, so only those and element are
    checked, up to the first that breaks the condition."""
    below, above = _non_increasing(poset, values, element)
    if len(below) > 1 or len(above) > 1:
        return False
    for b in (*below, *above):
        below, above = _non_increasing(poset, values, b)
        if len(below) > 1 or len(above) > 1:
            return False
    return True


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




# The benchmark's layer pass (bench/layers.py) imports these from here.
__getattr__ = _forwarding(__name__, {
    "find_troubled": "normalization",
    "normalize_trace": "normalization",
})
