"""Discrete Morse functions on posets: the condition and the classification.

A function f on a poset is a discrete Morse function when every element has
at most one lower cover a with f(a) >= f(b) and at most one upper cover c
with f(b) >= f(c).  An element with no such neighbor in either direction is
critical; otherwise it is ordinary, and a :class:`Classification` maps it
to one such neighbor, its witness.  The condition is stated once, in
:func:`_non_increasing`, which :func:`_scan` reads for classification
(which validates in the same pass: :func:`classify` raises
InvalidMorseFunction at the first element that breaks the condition), the
local recheck, the normalization pipeline
(:mod:`morsepoly.normalization`) and the exclusivity oracle
(:mod:`morsepoly.oracles`), and :func:`_holds_near` for the generator's
pass/fail test after one change.  Values are exact rationals or ints; no
comparison in this module ever touches floating point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Mapping

from .errors import InvalidArgument, InvalidMorseFunction, MissingValue, UnknownElement
from .poset import ElementId, Poset, Record, _forwarding

BELOW = "below"
ABOVE = "above"


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?", re.ASCII)


def parse_rational(value: object) -> Fraction:
    """Exact rational from an int, a Fraction, or a "p"/"p/q" string of ASCII
    digits (the one grammar, JSON input included); TypeError for a float or
    a bool, InvalidArgument (a ValueError) for malformed text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value.strip())
        if not match:
            raise InvalidArgument(f"expected a rational as 'p' or 'p/q', got {value!r}")
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except ValueError:  # a part past the interpreter's digit limit, not echoed
            raise InvalidArgument(f"expected a rational whose parts have at most "
                                  f"{sys.get_int_max_str_digits()} digits") from None
    raise TypeError(f"refusing non-exact value {value!r} (use int, str, or Fraction)")


class MorseFunction(Record):
    """Total map from poset elements to exact rational values: each an int
    or a Fraction, so no comparison ever reads a float."""

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

    def is_injective(self) -> bool:
        return len(set(self.values.values())) == len(self.values)


class Classification(Record):
    """Each element, in identifier order, mapped to its witness
    ``(neighbor, direction)`` if it is ordinary and to None if critical."""

    witness: Mapping[ElementId, tuple[ElementId, str] | None]
    verdicts = property(lambda self: {e: "critical" if w is None else "ordinary"
                                      for e, w in self.witness.items()})
    witnesses = property(lambda self: {e: w for e, w in self.witness.items() if w is not None})

    def critical_set(self) -> frozenset[ElementId]:
        return frozenset(e for e, w in self.witness.items() if w is None)

    def is_critical(self, element: ElementId) -> bool:
        return self.witness[element] is None


def _require_values(poset: Poset, values: Mapping[ElementId, object]) -> None:
    missing = [e for e in poset.elements if e not in values]
    if missing:
        raise MissingValue(f"function has no value for {missing}")


def _require_total(poset: Poset, f: MorseFunction) -> None:
    _require_values(poset, f.values)
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


def classify(poset: Poset, f: MorseFunction) -> Classification:
    """Critical/ordinary verdicts with one recorded witness per ordinary element.

    When an element has violating neighbors on both sides (possible only on
    posets that are not 2-wide) the below-side witness is recorded.
    """
    _require_total(poset, f)
    return Classification({b: (below[0], BELOW) if below else (above[0], ABOVE) if above else None
                           for b, below, above in _scan(poset, f.values, poset.elements)})


# The benchmark's layer pass (bench/layers.py) imports these from here.
__getattr__ = _forwarding(__name__, {
    "find_troubled": "normalization",
    "normalize_trace": "normalization",
})
