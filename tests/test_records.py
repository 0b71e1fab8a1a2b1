"""The immutable slotted records behind every result type, and the import
cost of the CLI they keep down: the modules each command loads are pinned."""

from __future__ import annotations

import ast
import contextlib
import copy
import gc
import importlib
import io
import json
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import morsepoly
from morsepoly import (
    Classification,
    ComplexSpec,
    CrossCheckReport,
    EulerianVerdict,
    FacePoset,
    IndexEntry,
    IndexReport,
    Modification,
    MorseFunction,
    NormalizationTrace,
    Poset,
    TroubleFlags,
    TwoWideVerdict,
    build_poset,
    classify,
    compute_rank_function,
    cross_check,
    dimension_morse,
    face_poset_cellular,
    face_poset_simplicial,
    gen_complex,
    gen_morse,
    is_two_wide,
    normalize,
    normalize_trace,
    verify_representation,
)
from morsepoly.cli import COMMANDS, build_parser, main
from morsepoly.complexes import critical_by_dimension
from morsepoly.geometry import compare_indices
from morsepoly.hypotheses import _downward_eulerian
from morsepoly.poset import Record
from tests.conftest import cube, torus

SRC = Path(__file__).resolve().parent.parent / "src"
TRIANGLE = {"kind": "simplicial", "maximal_simplices": [["1", "2", "3"]]}


def record_classes():
    # The package loads its modules lazily; load them all so every record
    # class is defined before the walk.
    for module in pkgutil.iter_modules(morsepoly.__path__):
        importlib.import_module(f"morsepoly.{module.name}")
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
    return [face, face.poset, classify(face.poset, f), is_two_wide(face.poset), report,
            *report.entries, report.normalized, trace, *trace.modifications, trace.result]


def test_every_record_class_is_slotted():
    classes = record_classes()
    assert len(classes) == 18
    for cls in classes:
        assert isinstance(cls.__slots__, tuple) and cls.__slots__, cls
        # No class on the way up adds a per-instance __dict__.
        assert not any("__dict__" in vars(base) for base in cls.__mro__[:-1]), cls


def test_each_field_is_declared_once_as_an_annotation():
    """No class body in the package assigns ``__slots__``: each record's
    slots are its annotations without a class-level value, in source order."""
    declared = {}
    for path in sorted((SRC / "morsepoly").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                targets = getattr(statement, "targets", [getattr(statement, "target", None)])
                assert "__slots__" not in [getattr(t, "id", None) for t in targets], (
                    module, node.name)
            declared[module, node.name] = tuple(
                statement.target.id for statement in node.body
                if isinstance(statement, ast.AnnAssign) and statement.value is None)
    assert Record.__slots__ == () and "_defaults" in Record.__annotations__
    for cls in record_classes():
        assert cls.__slots__ == declared[cls.__module__, cls.__qualname__], cls


# Each verdict's truth, and the witness it is read from.
TRUTH = {
    TwoWideVerdict: ("holds", lambda verdict: verdict.witness is None),
    EulerianVerdict: ("holds", lambda verdict: not verdict.violations),
    CrossCheckReport: ("ok", lambda verdict: not verdict.mismatches),
}


def verdicts(face):
    """The verdicts the three checks give on a poset (or a face poset's
    poset): 2-wideness, the downward Eulerian condition where a parity rank
    exists, and the cross-check of the normalized dimension function, as
    computed and against indices skewed at one element."""
    poset = getattr(face, "poset", face)
    yield is_two_wide(poset)
    if isinstance(poset._parity, dict):
        yield _downward_eulerian(poset)
    if poset is not face:
        g = normalize(poset, dimension_morse(poset, face.rank))
        report = cross_check(poset, g)
        yield report
        yield compare_indices(report.indices, {b: i + (b == poset.elements[0])
                                               for b, i in report.indices.items()})


SHARED = ["edge_poset", "chain_poset", "triangle", "segment", "two_cycles",
          "parity_conflict_poset", "double_edge_poset"]


@pytest.mark.parametrize("name", [*SHARED, "torus3", "cube3"])
def test_each_verdict_is_true_exactly_when_its_witness_is_empty(request, name):
    """A verdict stores its witness and no boolean: ``bool`` and its truth
    property both read the witness, on the checks' own outputs."""
    built = {"torus3": lambda: face_poset_simplicial(torus(3)),
             "cube3": lambda: face_poset_cellular(cube(3))}
    face = built[name]() if name in built else request.getfixturevalue(name)
    for verdict in verdicts(face):
        truth, empty = TRUTH[type(verdict)]
        assert getattr(verdict, truth) is bool(verdict) is empty(verdict), verdict
        assert not any(isinstance(value, bool) for value in fields(verdict)), verdict


def test_each_verdict_is_seen_holding_and_failing(request):
    """The shared posets give every verdict both ways, so the test above
    is not vacuous for any of them."""
    seen = {(type(verdict), bool(verdict))
            for name in SHARED for verdict in verdicts(request.getfixturevalue(name))}
    assert seen == {(cls, truth) for cls in TRUTH for truth in (False, True)}


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
    assert len({a, IndexEntry("x", 1, 1, True), TwoWideVerdict(("x", "y", "z"))}) == 2


def test_same_fields_of_another_class_differ():
    values = {"a": 0}
    assert Classification(values) != MorseFunction(values)
    assert MorseFunction(values) != Classification(values)
    assert Classification(values).__eq__(MorseFunction(values)) is NotImplemented


def test_reprs_are_pinned():
    assert repr(TwoWideVerdict(witness=("a", "b", "c"))) == (
        "TwoWideVerdict(witness=('a', 'b', 'c'))"
    )
    assert repr(Modification("up", "e", Fraction(1), Fraction(3, 2))) == (
        "Modification(stage='up', element='e', old=Fraction(1, 1), new=Fraction(3, 2))"
    )
    assert repr(TroubleFlags(up=("x", "y"))) == (
        "TroubleFlags(short_up=None, up=('x', 'y'), short_down=None, down=None)"
    )
    assert repr(ComplexSpec("simplicial", (("1", "2"),))) == (
        "ComplexSpec(kind='simplicial', maximal_simplices=(('1', '2'),), cells=())"
    )


def test_a_built_poset_is_a_record_equal_by_value(real_records):
    face, poset = real_records[:2]
    assert repr(poset) == "Poset(19 elements, 29 covers)"
    assert "__init__" not in vars(Poset)
    assert not {"covers", "_pairs"} & set(Poset.__slots__)
    twin = build_poset(reversed(poset.elements), sorted(poset.covers, reverse=True))
    assert twin is not poset and twin == poset
    assert face_poset_simplicial(gen_complex(5, 6, 2, 0.5)) == face
    assert poset != build_poset(poset.elements, [])


def test_assignment_and_deletion_raise(real_records):
    for record in [*real_records, TwoWideVerdict(("a", "b", "c"))]:
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
        hash(Classification({"a": None}))


def test_pickle_copy_and_deepcopy_round_trip(real_records):
    for record in [*real_records, TroubleFlags(up=("x", "y"))]:
        for twin in (
            pickle.loads(pickle.dumps(record)),
            copy.copy(record),
            copy.deepcopy(record),
        ):
            assert type(twin) is type(record)
            assert repr(twin) == repr(record)
            assert twin == record
    trace = next(r for r in real_records if isinstance(r, NormalizationTrace))
    deep = copy.deepcopy(trace)
    assert deep.result.values is not trace.result.values


def test_constructor_keeps_positions_keywords_and_defaults():
    assert TroubleFlags(("x", "y")) == TroubleFlags(short_up=("x", "y"), up=None)
    assert TroubleFlags() == TroubleFlags(None, None, None, None)
    entry = IndexEntry(critical=False, predicted=0, computed=0, element="x")
    assert fields(entry) == ("x", 0, 0, False)


def test_records_store_no_field_the_others_decide():
    """A classification is its witness map, a face poset its poset (whose
    rank it reads), and an index report does not store the sum of its
    entries."""
    assert Classification.__slots__ == ("witness",)
    assert FacePoset.__slots__ == ("poset",)
    assert IndexReport.__slots__ == ("entries", "chi", "n_even", "n_odd", "normalized")


def stored_classification(poset, f):
    """The verdicts and witnesses a classification stored as two maps:
    every element's verdict, and for an ordinary one its non-increasing
    cover, the lower one first."""
    verdicts, witnesses = {}, {}
    for b in poset.elements:
        below = [a for a in poset.lower_covers(b) if f[a] >= f[b]]
        above = [c for c in poset.upper_covers(b) if f[b] >= f[c]]
        verdicts[b] = "ordinary" if below or above else "critical"
        if below or above:
            witnesses[b] = (below[0], "below") if below else (above[0], "above")
    return verdicts, witnesses


@pytest.mark.parametrize("name, top", [("torus3", 2), ("cube3", 3)])
def test_derived_values_equal_what_the_records_stored(name, top):
    face = (face_poset_simplicial(torus(3)) if name == "torus3"
            else face_poset_cellular(cube(3)))
    poset = face.poset
    assert face.rank is poset._rank and type(face.rank) is dict
    for rank in (face.rank, compute_rank_function(poset)):
        assert max(rank.values()) == top
        assert critical_by_dimension(rank, ()) == (0,) * (top + 1)
    assert critical_by_dimension({}, ()) == (0,)
    for f in (gen_morse(1, poset), dimension_morse(poset, face.rank)):
        classification = classify(poset, f)
        verdicts, witnesses = stored_classification(poset, f)
        assert list(classification.witness) == list(poset.elements)
        assert list(classification.verdicts.items()) == list(verdicts.items())
        assert list(classification.witnesses.items()) == list(witnesses.items())
        critical = {b for b, verdict in verdicts.items() if verdict == "critical"}
        assert classification.critical_set() == critical
        assert all(classification.is_critical(b) == (b in critical) for b in poset.elements)
        report = verify_representation(poset, f)
        assert report.total == sum(entry.computed for entry in report.entries) == report.chi


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoWideVerdict(),
        lambda: TwoWideVerdict(("a", "b", "c"), ("d", "e", "f")),
        lambda: TwoWideVerdict(witnes=("a", "b", "c")),
        lambda: IndexEntry("x", 1, 1, True, "extra"),
        lambda: TroubleFlags(None, upp=("x", "y")),
        lambda: ComplexSpec(kind="simplicial", cell=()),
        lambda: IndexEntry("x", 1, 1),
        lambda: TwoWideVerdict(("a", "b", "c"), witness=None),
        lambda: TroubleFlags(None, None, None, None, ("x", "y")),
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
    `embed --csv` needs, and no command's handler module: `main` imports
    that when it dispatches."""
    probe = (
        "import sys, morsepoly.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'csv') if m in sys.modules))\n"
        "print(' '.join(m for m in sys.modules if m.startswith('morsepoly.commands')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == ["", ""]


def test_every_public_name_resolves_lazily():
    for name in morsepoly.__all__:
        value = getattr(morsepoly, name)
        home = importlib.import_module(f"morsepoly.{morsepoly._HOME[name]}")
        assert value is getattr(home, name), name
    assert set(morsepoly.__all__) <= set(dir(morsepoly))
    assert set(morsepoly._HOME) == set(morsepoly.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        morsepoly.no_such_name


# Loaded by every command: the package, the JSON layer, what loading an input
# and a function needs, and the handlers' shared loaders.  The CLI itself runs
# as __main__, as under -m.
CORE = {"morsepoly", "morsepoly.jsonio", "morsepoly.complexes", "morsepoly.errors",
        "morsepoly.morse", "morsepoly.poset", "morsepoly.commands"}
HYPOTHESES = {"morsepoly.hypotheses"}
NORMALIZATION = {"morsepoly.hypotheses", "morsepoly.normalization"}
INDEX = {"morsepoly.chain_index", *NORMALIZATION}
GEOMETRY = {"morsepoly.geometry"}
GENERATORS = {"morsepoly.generators"}


COMMAND_MODULES = [
    (["check"], HYPOTHESES),
    (["euler"], set()),
    (["classify"], set()),
    (["normalize"], NORMALIZATION),
    (["index"], INDEX),
    (["embed"], NORMALIZATION | GEOMETRY),
    (["verify"], INDEX | GEOMETRY),
    (["gen", "--kind", "morse"], GENERATORS),
    (["gen", "--kind", "complex"], GENERATORS),
]


@pytest.mark.parametrize(
    "argv, extra", COMMAND_MODULES, ids=lambda v: "-".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, extra):
    """`python -S -m morsepoly.cli` loads the modules its command runs and
    no other: its own handler module and no other command's, never
    `morsepoly.oracles`; `verify` loads no generator, `gen` neither the
    hypotheses nor normalization, index or geometry, `check` and `euler` no
    normalization, and `euler` and `classify` no hypotheses."""
    triangle = tmp_path / "t.json"
    triangle.write_text(json.dumps(TRIANGLE))
    args = [*argv, "--out", str(tmp_path / "out")]
    if argv[0] != "gen" or argv[-1] == "morse":
        args += ["--in", str(triangle)]
    probe = (
        "import gc, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('morsepoly.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    print(done.code)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('morsepoly'))))\n"
        "print(' '.join(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
        "print(gc.get_freeze_count() > 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *args], env=env, capture_output=True, text=True,
        check=True,
    )
    code, modules, parsers, frozen = done.stdout.splitlines()
    assert code == "0", done.stderr
    assert set(modules.split()) == CORE | extra | {f"morsepoly.commands.{argv[0]}"}
    # A well-formed command never reaches argparse, and its exit path froze the heap.
    assert parsers == ""
    assert frozen == "True"


def test_readme_compile_table_counts_each_commands_modules():
    """Each row of the README's table of package lines a command compiles
    gives the module count and `wc -l` total of the modules that command
    loads, as pinned above, with `cli.py` run as __main__."""
    rows = re.findall(r"^\| `(\w+)`[^|]* \| (\d+) \| ([\d,]+) \|",
                      (SRC.parent / "README.md").read_text(encoding="utf-8"), re.M)
    listed = {command: (int(modules), int(lines.replace(",", ""))) for command, modules, lines in rows}
    counted = {}
    for argv, extra in COMMAND_MODULES:
        paths = [SRC / "morsepoly" / "cli.py"]
        for module in CORE | extra | {f"morsepoly.commands.{argv[0]}"}:
            path = SRC.joinpath(*module.split("."))
            paths.append(path / "__init__.py" if path.is_dir() else path.with_suffix(".py"))
        lines = sum(path.read_bytes().count(b"\n") for path in paths)
        counted[argv[0]] = (len(paths), lines)
    assert listed == counted


def test_package_import_loads_no_module():
    probe = "import sys, morsepoly\nprint(' '.join(m for m in sys.modules if 'morsepoly' in m))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["morsepoly"]


def run_cli(args, cwd, probe=None):
    """`python -m morsepoly.cli ARGS` at a fixed help width, or the same
    module run by ``probe`` (a -c program) with ARGS as its arguments."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    lead = ["-m", "morsepoly.cli"] if probe is None else ["-c", probe]
    return subprocess.run([sys.executable, *lead, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def argparse_exit(argv):
    """Exit code, stdout and stderr of the argparse parser alone on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as done:
        build_parser().parse_args(argv)
    return done.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [["--help"], *([name, "--help"] for name in COMMANDS), ["verify"],
     ["verify", "--in", "t.json", "--format", "xml"], ["gen", "--seed", "x"]],
    ids=lambda argv: " ".join(argv),
)
def test_help_and_usage_errors_are_argparse_own(tmp_path, monkeypatch, argv):
    """Help exits 0 and a usage error 2, each with argparse's own text."""
    monkeypatch.setenv("COLUMNS", "80")
    done = run_cli(argv, tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == argparse_exit(argv)
    assert done.returncode == (0 if argv[-1] == "--help" else 2)


def test_abbreviated_flag_gives_the_same_bytes(tmp_path):
    (tmp_path / "t.json").write_text(json.dumps(TRIANGLE))
    spelled = run_cli(["verify", "--in", "t.json", "--format", "text"], tmp_path)
    abbreviated = run_cli(["verify", "--in", "t.json", "--form", "text"], tmp_path)
    assert spelled.returncode == 0
    assert (abbreviated.returncode, abbreviated.stdout, abbreviated.stderr) == (
        0, spelled.stdout, spelled.stderr)


def test_main_never_freezes(tmp_path, capsys):
    (tmp_path / "t.json").write_text(json.dumps(TRIANGLE))
    before = gc.get_freeze_count()
    assert main(["verify", "--in", str(tmp_path / "t.json")]) == 0
    assert main(["verify", "--in", str(tmp_path / "t.json"), "--form", "text"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# Reports at exit, after SystemExit has left the module, whether the heap
# was frozen.
AT_EXIT = "import atexit, gc\natexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"


@pytest.mark.parametrize(
    "launch",
    [
        "import runpy\nrunpy.run_module('morsepoly.cli', run_name='__main__', alter_sys=True)\n",
        # What the installed `morsepoly` console script runs.
        "import sys\nfrom morsepoly.cli import entry_point\nsys.exit(entry_point())\n",
    ],
    ids=["python -m", "console script"],
)
def test_exit_path_freezes_the_heap(tmp_path, launch):
    (tmp_path / "t.json").write_text(json.dumps(TRIANGLE))
    done = run_cli(["verify", "--in", "t.json", "--out", "o.json"], tmp_path, AT_EXIT + launch)
    assert (done.returncode, done.stdout, done.stderr) == (0, "frozen True\n", "")
    assert json.loads((tmp_path / "o.json").read_text())["status"] == "verified"
    failed = run_cli(["verify", "--in", "missing.json"], tmp_path, AT_EXIT + launch)
    assert failed.returncode == 2 and failed.stdout == "frozen True\n"


def test_console_script_takes_the_exit_path():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'morsepoly = "morsepoly.cli:entry_point"' in pyproject.splitlines()
