"""Every package error survives pickling and copying with its fields and
its message intact."""

from __future__ import annotations

import copy
import pickle

import pytest

from morsepoly import errors
from morsepoly.errors import (
    HypothesisViolated,
    InvalidMorseFunction,
    Mismatch,
    MorsePolyError,
    NonCoverEdge,
    NotGeneral,
)

# One instance of every error, with the message it must keep.
SAMPLES = [
    (errors.ParseError("cannot read x.json"), "cannot read x.json"),
    (errors.MalformedSpec("'cells' must be a list"), "'cells' must be a list"),
    (errors.InvalidArgument("n_vertices must be at least 1"), "n_vertices must be at least 1"),
    (errors.UnknownElement("unknown element 'z'"), "unknown element 'z'"),
    (errors.CycleDetected("cycle through 'a'"), "cycle through 'a'"),
    (errors.EmptyPoset("cannot embed an empty poset"), "cannot embed an empty poset"),
    (errors.MissingValue("function has no value for ['a']"), "function has no value for ['a']"),
    (errors.NotACover("('a', 'b') is not a cover pair"), "('a', 'b') is not a cover pair"),
    (errors.RankConflict("cover jumps dimension"), "cover jumps dimension"),
    (MorsePolyError("--morse is required"), "--morse is required"),
    (NonCoverEdge(("a", "c")), "pair ('a', 'c') is not a cover: it is implied by other pairs"),
    (
        InvalidMorseFunction("b", (("a", "below"), ("c", "below"))),
        "not a discrete Morse function: element 'b' has non-increasing covers "
        "(('a', 'below'), ('c', 'below'))",
    ),
    (
        HypothesisViolated("no parity rank function",
                           "element 'd' receives 1 via 'c' and 0 via 'x'"),
        "hypothesis violated: no parity rank function "
        "(element 'd' receives 1 via 'c' and 0 via 'x')",
    ),
    (NotGeneral(("a", "e")), "comparable elements 'a' and 'e' share a value"),
    (NotGeneral(("1,2", "1,2,3")), "comparable elements '1,2' and '1,2,3' share a value"),
    (HypothesisViolated("not 2-wide", ("0", "1", "2")),
     "hypothesis violated: not 2-wide (('0', '1', '2'))"),
    (HypothesisViolated("no parity rank function"), "hypothesis violated: no parity rank function"),
    (Mismatch("a", 1, 2), "index mismatch at element 'a': computed 1, expected 2"),
    (
        Mismatch(None, 3, 2, what="index total vs Euler characteristic"),
        "index total vs Euler characteristic mismatch in totals: computed 3, expected 2",
    ),
]


def error_classes():
    pending, found = [MorsePolyError], {MorsePolyError}
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__ == errors.__name__:
                found.add(sub)
                pending.append(sub)
    return found


def test_every_error_class_has_a_sample():
    assert {type(exc) for exc, _ in SAMPLES} == error_classes()


@pytest.mark.parametrize(
    "exc, message", SAMPLES, ids=[f"{type(e).__name__}{i}" for i, (e, _) in enumerate(SAMPLES)]
)
@pytest.mark.parametrize(
    "round_trip",
    [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trip_keeps_type_fields_and_message(exc, message, round_trip):
    assert str(exc) == message
    back = round_trip(exc)
    assert type(back) is type(exc)
    assert vars(back) == vars(exc)
    assert back.args == exc.args
    assert str(back) == message
