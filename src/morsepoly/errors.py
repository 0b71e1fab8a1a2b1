"""Exception types shared across the package.

Exceptions fall into three groups: input validation (bad poset data, bad
complex descriptions, bad function files), contract violations (calling an
operation outside its stated hypotheses), and identity failures (a verified
equation did not hold, which indicates a bug rather than bad input).  Each
refusal has one type, whoever raises it: MissingValue for a function or
heights map with no value at an element, InvalidMorseFunction for one that
breaks the Morse condition, NotGeneral for a tie on a comparable pair, and
HypothesisViolated for a poset outside the paper's class (not 2-wide, no
parity rank, or not downward Eulerian), whichever command or function
needs the hypothesis.
``morse.parse_rational`` raises InvalidArgument for malformed text, but
TypeError, not a package error, for a float or a bool.

An error that carries fields passes them, and only them, to
``Exception.__init__`` and builds its message in ``__str__``, so it pickles
and copies with its fields and message intact.
"""

from __future__ import annotations

# The CLI's exit status when a verified identity fails (or `check --strict`
# finds a property that fails), for any MorsePolyError, and on MemoryError.
MISMATCH_EXIT = 1
INPUT_ERRORS_EXIT = 2
OUT_OF_MEMORY_EXIT = 3


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
        super().__init__(pair)
        self.pair = pair

    def __str__(self) -> str:
        return f"pair {self.pair!r} is not a cover: it is implied by other pairs"


class EmptyPoset(MorsePolyError):
    """The operation requires at least one element."""


class MissingValue(MorsePolyError):
    """A function or a heights map does not assign a value to every poset element."""


class InvalidMorseFunction(MorsePolyError):
    """The Morse condition fails at ``element``; the message is built only when shown."""

    def __init__(self, element: str, witnesses: tuple[tuple[str, str], ...]):
        super().__init__(element, witnesses)
        self.element, self.witnesses = element, witnesses

    def __str__(self) -> str:
        return (f"not a discrete Morse function: element {self.element!r} has "
                f"non-increasing covers {self.witnesses}")


class NotACover(MorsePolyError):
    """The given pair is not a cover relation of the poset."""


class NotGeneral(MorsePolyError):
    """Two comparable elements share a value: the height is not general, as
    an edge of the order complex has both ends at one height, so the
    maximum of a chain on it is not strict."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(pair)
        self.pair = pair

    def __str__(self) -> str:
        return f"comparable elements {self.pair[0]!r} and {self.pair[1]!r} share a value"


class RankConflict(MorsePolyError):
    """Declared cell dimensions do not form a rank function."""


class HypothesisViolated(MorsePolyError):
    """The poset fails one of the required structural properties."""

    def __init__(self, prop: str, detail: object = None):
        super().__init__(prop, detail)
        self.prop, self.detail = prop, detail

    def __str__(self) -> str:
        msg = f"hypothesis violated: {self.prop}"
        if self.detail is not None:
            msg += f" ({self.detail})"
        return msg


class Mismatch(MorsePolyError):
    """A verified identity failed; this signals an implementation bug."""

    def __init__(self, element: str | None, computed: int, predicted: int, what: str = "index"):
        super().__init__(element, computed, predicted, what)
        self.element, self.computed, self.predicted, self.what = element, computed, predicted, what

    def __str__(self) -> str:
        where = f"at element {self.element!r}" if self.element is not None else "in totals"
        return (f"{self.what} mismatch {where}: computed {self.computed}, "
                f"expected {self.predicted}")
