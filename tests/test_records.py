"""The immutable slotted records behind every result type, and the import
cost of the CLI they keep down."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from morsepoly import (
    Chain,
    Classification,
    ComplexSpec,
    FacePoset,
    IndexEntry,
    IndexReport,
    Modification,
    MorseFunction,
    MorseVerdict,
    NormalizationTrace,
    ParityRank,
    TroubleFlags,
    dimension_morse,
    face_poset_simplicial,
    gen_complex,
    gen_morse,
    normalize_trace,
    verify_representation,
)
from morsepoly.cli import LoadedInput
from morsepoly.poset import Record

SRC = Path(__file__).resolve().parent.parent / "src"


def record_classes():
    pending, found = [Record], []
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("morsepoly."):
                found.append(sub)
            pending.append(sub)
    return found


def fields(record):
    return tuple(getattr(record, name) for name in record.__slots__)


@pytest.fixture(scope="module")
def real_records():
    """Records from one real verify pass and one normalization trace."""
    face = face_poset_simplicial(gen_complex(5, 6, 2, 0.5))
    f = gen_morse(5, face.poset)
    report = verify_representation(face.poset, f)
    trace = normalize_trace(face.poset, dimension_morse(face.poset, face.rank))
    assert trace.modifications
    return [face, face.rank, face.parity, report, *report.entries, report.normalized,
            trace, *trace.modifications, trace.start, trace.result]


def test_every_record_class_is_slotted():
    classes = record_classes()
    assert len(classes) == 25
    for cls in classes:
        assert isinstance(cls.__slots__, tuple) and cls.__slots__, cls
        # No class on the way up adds a per-instance __dict__.
        assert not any("__dict__" in vars(base) for base in cls.__mro__[:-1]), cls


def test_equality_and_hash_follow_the_field_tuple(real_records):
    for record in real_records:
        twin = copy.copy(record)
        assert twin is not record
        assert twin == record and not (twin != record)
        try:
            expected = hash(fields(record))
        except TypeError:  # a dict somewhere inside
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected == hash(twin)
    a = IndexEntry("x", 1, 1, True)
    assert a == IndexEntry("x", 1, 1, True)
    assert a != IndexEntry("x", 1, 1, False)
    assert hash(a) == hash(("x", 1, 1, True))
    assert a != ("x", 1, 1, True)
    assert len({a, IndexEntry("x", 1, 1, True), Chain(("x",))}) == 2


def test_same_fields_of_another_class_differ():
    values = {"a": 0}
    assert ParityRank(values) != MorseFunction(values)
    assert MorseFunction(values) != ParityRank(values)
    assert ParityRank(values).__eq__(MorseFunction(values)) is NotImplemented


def test_reprs_are_pinned():
    assert repr(Chain(members=("a", "b"))) == "Chain(members=('a', 'b'))"
    assert repr(MorseVerdict(True)) == "MorseVerdict(valid=True, element=None, witnesses=())"
    assert repr(Modification("up", "e", Fraction(1), Fraction(3, 2))) == (
        "Modification(stage='up', element='e', old=Fraction(1, 1), new=Fraction(3, 2))"
    )
    assert repr(TroubleFlags(up=("x", "y"))) == (
        "TroubleFlags(short_up=None, up=('x', 'y'), short_down=None, down=None)"
    )
    assert repr(ComplexSpec("simplicial", (("1", "2"),))) == (
        "ComplexSpec(kind='simplicial', maximal_simplices=(('1', '2'),), cells=())"
    )


def test_assignment_and_deletion_raise(real_records):
    for record in [*real_records, Chain(("a",))]:
        name = record.__slots__[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, name) is before


def test_records_holding_dicts_stay_unhashable():
    with pytest.raises(TypeError):
        hash(MorseFunction({"a": Fraction(0)}))
    with pytest.raises(TypeError):
        hash(Classification({"a": "critical"}, {}))


def test_pickle_copy_and_deepcopy_round_trip(real_records):
    for record in [*real_records, MorseVerdict(False, "e", (("a", "below"),))]:
        for twin in (
            pickle.loads(pickle.dumps(record)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(twin) is type(record)
            assert repr(twin) == repr(record)
            # A Poset compares by identity, so only a shallow copy of the
            # FacePoset holding one is equal to it.
            if not isinstance(record, FacePoset) or twin.poset is record.poset:
                assert twin == record
    trace = next(r for r in real_records if isinstance(r, NormalizationTrace))
    deep = copy.deepcopy(trace)
    assert deep.result.values is not trace.result.values


def test_constructor_keeps_positions_keywords_and_defaults():
    assert MorseVerdict(False, "e") == MorseVerdict(valid=False, element="e", witnesses=())
    assert TroubleFlags() == TroubleFlags(None, None, None, None)
    entry = IndexEntry(critical=False, predicted=0, computed=0, element="x")
    assert fields(entry) == ("x", 0, 0, False)
    assert LoadedInput("poset", None).face is None
    assert IndexReport.__slots__ == ("entries", "total", "chi", "n_even", "n_odd", "normalized")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Chain(),
        lambda: Chain(("a",), ("b",)),
        lambda: Chain(member=("a",)),
        lambda: MorseVerdict(),
        lambda: MorseVerdict(True, wittnesses=()),
        lambda: ComplexSpec(kind="simplicial", cell=()),
        lambda: IndexEntry("x", 1, 1),
        lambda: Chain(("a",), members=("b",)),
        lambda: MorseVerdict(True, None, (), "x"),
    ],
)
def test_missing_or_unknown_argument_raises(build):
    with pytest.raises(TypeError):
        build()


def test_defaults_are_a_trailing_run_of_immutable_values():
    """Only the last fields may default, so positional construction takes
    the fields in order with the optional ones at the end, and a default
    is never a shared mutable value."""
    for cls in record_classes():
        assert cls.__bases__ == (Record,), cls
        optional = tuple(cls._defaults)
        assert cls.__slots__[len(cls.__slots__) - len(optional):] == optional, cls
        assert all(value is None or value == () for value in cls._defaults.values()), cls


def test_cli_import_leaves_code_generation_modules_out():
    """`import morsepoly.cli` pulls in neither the class-generation machinery
    (dataclasses and the inspect/ast it imports) nor csv, which only
    `embed --csv` needs."""
    probe = (
        "import sys, morsepoly.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'csv') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == ""
