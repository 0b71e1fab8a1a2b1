"""Exception types shared across the package.

Exceptions fall into three groups: input validation (bad poset data, bad
complex descriptions, bad function files), contract violations (calling an
operation outside its stated hypotheses), and identity failures (a verified
equation did not hold, which indicates a bug rather than bad input).
"""

from __future__ import annotations


class MorsePolyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MorsePolyError):
    """An input file could not be read or decoded as JSON."""


class MalformedSpec(MorsePolyError):
    """A complex or document violates its schema."""


class InvalidArgument(MorsePolyError, ValueError):
    """An argument is out of range or repeats an identifier.

    Also a ValueError, the type library callers expect for a bad argument.
    """


class UnknownElement(MorsePolyError):
    """An identifier does not name an element of the poset."""


class CycleDetected(MorsePolyError):
    """The supplied cover pairs contain a directed cycle."""


class NonCoverEdge(MorsePolyError):
    """A supplied pair is implied transitively by the other pairs."""

    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(f"pair {pair!r} is not a cover: it is implied by other pairs")


class EmptyPoset(MorsePolyError):
    """The operation requires at least one element."""


class MissingValue(MorsePolyError):
    """A function does not assign a value to every poset element."""


class InvalidMorseFunction(MorsePolyError):
    """The Morse condition fails at ``element``; the message is built only when shown."""

    def __init__(self, element: str, witnesses: tuple[tuple[str, str], ...]):
        super().__init__(element, witnesses)
        self.element, self.witnesses = element, witnesses

    def __str__(self) -> str:
        return (f"not a discrete Morse function: element {self.element!r} has "
                f"non-increasing covers {self.witnesses}")


class NotTwoWide(MorsePolyError):
    """The poset is not 2-wide, so the operation's hypotheses fail."""

    def __init__(self, witness: tuple[str, str, str]):
        self.witness = witness
        super().__init__(
            f"poset is not 2-wide: covers {witness[0]} < {witness[1]} < {witness[2]} "
            f"admit no alternative middle element"
        )


class NotACover(MorsePolyError):
    """The given pair is not a cover relation of the poset."""


class NonGeneralFunction(MorsePolyError):
    """Two comparable elements share a value, so strict maxima are undefined."""

    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(f"comparable elements {pair[0]!r} and {pair[1]!r} share a value")


class NotGeneral(MorsePolyError):
    """Two comparable vertices project to the same first coordinate."""

    def __init__(self, pair: tuple[str, str]):
        self.pair = pair
        super().__init__(
            f"projection is not general: comparable vertices {pair[0]!r} and {pair[1]!r} "
            f"have equal first coordinates"
        )


class RankConflict(MorsePolyError):
    """Declared cell dimensions do not form a rank function."""


class HypothesisViolated(MorsePolyError):
    """The poset fails one of the required structural properties."""

    def __init__(self, prop: str, detail: object = None):
        self.prop = prop
        self.detail = detail
        msg = f"hypothesis violated: {prop}"
        if detail is not None:
            msg += f" ({detail})"
        super().__init__(msg)


class Mismatch(MorsePolyError):
    """A verified identity failed; this signals an implementation bug."""

    def __init__(self, element: str | None, computed: int, predicted: int, what: str = "index"):
        self.element = element
        self.computed = computed
        self.predicted = predicted
        self.what = what
        where = f"at element {element!r}" if element is not None else "in totals"
        super().__init__(f"{what} mismatch {where}: computed {computed}, expected {predicted}")
