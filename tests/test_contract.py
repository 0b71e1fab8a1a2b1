"""The output contract, checked through subprocesses: every command writes
the same bytes under two hash seeds, deep inputs stay polynomial, a huge
simplex is refused at once, and a full or closed stdout or an exhausted
memory limit, a value too long to write, an integer too long to read or a
file that is not UTF-8 ends in one ``error:`` line with its own exit code.

Every report is scanned in identifier order, and some scans walk sets, so
no output or error text may depend on set order.  Each row of ``ROWS``
runs one command line as ``python -m morsepoly.cli`` under
``PYTHONHASHSEED`` 0 and 4242, in a directory that holds the inputs below,
and compares stdout, stderr and any file the command writes.  The
dimension function (no ``--morse``) ties every face of a dimension, so the
spread sweep moves almost every element; the unsorted simplices have ids
whose string order is not their numeric order.  Each run inherits the
environment without ``PYTHONUNBUFFERED``, so stdout is block-buffered as
it is by default, unless a row asks otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from tests.conftest import torus

try:
    import resource
except ImportError:  # not on every platform
    resource = None

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = (0, 4242)
CHAIN = [f"c{i}" for i in range(2000)]
# An address-space limit, in MB, that a run on a triangle fits in and the
# memory rows' inputs (63 and 69 MB peak RSS unconstrained) do not.
MEMORY_LIMIT_MB = 40
GEN_COMPLEX = ("gen", "--kind", "complex", "--seed", "4", "--vertices", "8", "--dim", "2",
               "--density", "0.6")

# Inputs written as documents; complex.json and morse.json are generated
# (the gen.complex row shows that the hash seed they use does not matter).
DOCUMENTS = {
    "loops.json": {"elements": ["a", "b", "c"], "covers": [["a", "a"], ["b", "b"], ["c", "c"]]},
    "unsorted.json": {"kind": "simplicial", "maximal_simplices": [["10", "2", "1"], ["3", "10", "2"]]},
    # Grading witnesses from build_poset's one walk: a rank conflict with a
    # parity rank, and a parity conflict.
    "ungraded.json": {"elements": ["e", "d", "c", "x", "b", "a"], "covers": [
        ["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["a", "x"], ["x", "e"]]},
    "parity_conflict.json": {"elements": ["d", "x", "c", "b", "a"], "covers": [
        ["a", "b"], ["b", "c"], ["c", "d"], ["a", "x"], ["x", "d"]]},
    # Functions rising along every cover of those two, so Morse functions.
    "ungraded.morse.json": {"values": {"a": 0, "b": 1, "x": 1, "c": 2, "d": 3, "e": 4}},
    "parity_conflict.morse.json": {"values": {"a": 0, "b": 1, "x": 1, "c": 2, "d": 3}},
    # Covers derived from a relation: a square disk whose 2-cell lists its
    # full boundary, and a poset with two redundant pairs, where
    # NonCoverEdge must name the identifier-first one.
    "full_disk.json": {"kind": "cellular", "cells": [
        *({"id": v, "dim": 0} for v in "abcd"),
        *({"id": a + b, "dim": 1, "boundary": [a, b]} for a, b in ("ab", "bc", "cd", "da")),
        {"id": "s", "dim": 2, "boundary": ["ab", "bc", "cd", "da", "a", "b", "c", "d"]}]},
    "redundant.json": {"elements": ["d", "c", "b", "a"], "covers": [
        ["a", "b"], ["b", "c"], ["c", "d"], ["b", "d"], ["a", "c"]]},
    # A deep poset: euler on a 2000-element chain must finish within 60 s,
    # which a chain count summing every whole down-set does not.
    "chain2000.json": {"elements": CHAIN, "covers": [list(p) for p in zip(CHAIN, CHAIN[1:])]},
    # The 9-simplex, whose order complex has 2 * 10^8 simplices: verify must
    # finish within 30 s, which a witness walking the chains one by one does not.
    "simplex9.json": {"kind": "simplicial", "maximal_simplices": [[str(v) for v in range(10)]]},
    # A 40-vertex simplex has 2^40 - 1 faces: check must refuse it at once,
    # before building any face.
    "simplex40.json": {"kind": "simplicial", "maximal_simplices": [[str(v) for v in range(40)]]},
    # Inputs the simplex limit admits but MEMORY_LIMIT_MB does not: check on
    # the 13-simplex runs out in building the poset, embed on the 10 x 10
    # torus in encoding its output.
    "triangle.json": {"kind": "simplicial", "maximal_simplices": [["1", "2", "3"]]},
    "simplex13.json": {"kind": "simplicial", "maximal_simplices": [[str(v) for v in range(13)]]},
    "torus10.json": {"kind": "simplicial",
                     "maximal_simplices": [list(s) for s in torus(10).maximal_simplices]},
    # Values of 4,001 digits on an antichain: the spread sweep separates the
    # tie of a and b by a midpoint whose denominator has about 8,000 digits,
    # past the default limit of integer string conversion.
    "antichain.json": {"elements": ["a", "b", "c"], "covers": []},
    "long_values.json": {"values": {"a": "1/1" + "0" * 3999 + "1", "b": "1/1" + "0" * 3999 + "1",
                                    "c": "1/" + "9" * 3999 + "7"}},
    "point.json": {"elements": ["a"], "covers": []},
}
# Valid JSON whose 5,000-digit integer literals (a function value and a cell
# dimension) no document above can hold: json.dumps cannot write them past
# the digit limit either, so they are written as text.
TEXTS = {
    "long_int.json": '{"values": {"a": ' + "1" * 5000 + "}}",
    "long_dim.json": '{"kind": "cellular", "cells": [{"id": "v", "dim": ' + "1" * 5000 + "}]}",
}
# A file that is not UTF-8, as an input and as a function.
RAW = {"latin1.json": b'{"elements": ["\xe9"], "covers": []}'}


class Row(NamedTuple):
    name: str
    argv: tuple[str, ...]
    code: int = 0
    timeout: float | None = None
    written: str | None = None  # a file the command writes, compared too
    stderr_has: str | None = None
    stdout: str | None = None  # a device opened as stdout, instead of a pipe
    env: tuple[tuple[str, str], ...] = ()  # added to the environment
    memory: bool = False  # run under MEMORY_LIMIT_MB
    closed_stdout: bool = False  # run with fd 1 closed, so sys.stdout is None


def _rows() -> list[Row]:
    rows = [Row("gen.complex", GEN_COMPLEX)]
    morse = ("--in", "complex.json", "--morse", "morse.json")
    rows += [Row(cmd, (cmd, *morse)) for cmd in ("verify", "normalize", "embed", "index", "classify")]
    rows += [Row(f"{cmd}.dim", (cmd, "--in", "complex.json"))
             for cmd in ("verify", "normalize", "embed", "index")]
    rows += [Row(f"{cmd}.unsorted", (cmd, "--in", "unsorted.json"))
             for cmd in ("check", "euler", "verify")]
    # gen writes its values as integer twelfths turned into Fractions.
    rows += [Row(f"gen.{name}.{seed}", ("gen", "--kind", "morse", "--seed", seed, "--in", f"{name}.json"))
             for name in ("complex", "unsorted") for seed in ("0", "3")]
    # Every text report is rendered from its command's JSON payload; gen has
    # no text form and writes JSON under either format.
    rows += [Row(f"{cmd}.{name}.text", (cmd, "--format", "text", "--in", f"{name}.json"))
             for name in ("complex", "unsorted")
             for cmd in ("check", "euler", "classify", "normalize", "index", "embed", "verify")]
    rows += [Row(f"gen.{name}.text", ("gen", "--kind", "morse", "--format", "text", "--in", f"{name}.json"))
             for name in ("complex", "unsorted")]
    rows.append(Row("gen.no_input", ("gen", "--kind", "morse"), code=2,
                    stderr_has="error: gen --kind morse requires --in POSET_OR_COMPLEX\n"))
    rows += [Row("euler.chain2000", ("euler", "--in", "chain2000.json"), timeout=60),
             Row("verify.simplex9", ("verify", "--in", "simplex9.json"), timeout=30)]
    rows += [Row(f"check.{name}.{fmt}", ("check", "--format", fmt, "--in", f"{name}.json"))
             for name in ("ungraded", "parity_conflict") for fmt in ("json", "text")]
    # Neither is 2-wide, and every command that needs the hypothesis refuses
    # it with the same line.
    rows += [Row(f"{cmd}.{name}.not_two_wide",
                 (cmd, "--in", f"{name}.json", "--morse", f"{name}.morse.json"), code=2,
                 stderr_has="error: hypothesis violated: not 2-wide (('a', 'b', 'c'))\n")
             for name in ("ungraded", "parity_conflict")
             for cmd in ("normalize", "embed", "index", "verify")]
    rows += [Row(f"{cmd}.full_disk.{fmt}", (cmd, *flags, "--format", fmt, "--in", "full_disk.json"))
             for cmd, flags in (("check", ("--strict",)), ("verify", ())) for fmt in ("json", "text")]
    rows += [Row("verify.out", ("verify", *morse, "--out", "verify.written"), written="verify.written"),
             Row("embed.csv", ("embed", *morse, "--csv", "embed.csv"), written="embed.csv")]
    rows += [Row("loops", ("check", "--in", "loops.json"), code=2),
             Row("redundant", ("check", "--in", "redundant.json"), code=2,
                 stderr_has="pair ('a', 'c') is not a cover"),
             Row("simplex40", ("check", "--in", "simplex40.json"), code=2, timeout=10)]
    # A failed stdout write is a typed error, whether it fails in the write
    # (unbuffered) or in the flush after it, or finds no stdout at all.
    full = ("verify", "--in", "triangle.json")
    rows += [Row("stdout_full", full, code=2, stdout="/dev/full",
                 stderr_has="error: cannot write stdout: "),
             Row("stdout_full.unbuffered", full, code=2, stdout="/dev/full",
                 env=(("PYTHONUNBUFFERED", "1"),), stderr_has="error: cannot write stdout: "),
             Row("stdout_closed", full, code=2, closed_stdout=True,
                 stderr_has="error: cannot write stdout: ")]
    # A value too long to write is a typed error, in JSON and in CSV.
    long = ("--in", "antichain.json", "--morse", "long_values.json")
    rows += [Row(f"{argv[0]}.too_long", argv, code=2, env=(("PYTHONINTMAXSTRDIGITS", "4300"),),
                 stderr_has="error: cannot write the value of 'a': ")
             for argv in (("normalize", *long), ("embed", *long, "--csv", "long.csv"))]
    # So is an integer too long to read: one line that names the file and
    # the limit, without the interpreter's hint.
    rows += [Row(f"{argv[0]}.long_integer", argv, code=2, env=(("PYTHONINTMAXSTRDIGITS", "4300"),),
                 stderr_has=f"error: {argv[-1]} has an integer of more than 4300 digits\n")
             for argv in (("classify", "--in", "point.json", "--morse", "long_int.json"),
                          ("check", "--in", "long_dim.json"))]
    # A file that is not UTF-8 is named, whichever of the two it is.
    rows += [Row(f"{argv[0]}.not_utf8", argv, code=2,
                 stderr_has=f"error: {argv[-1]} is not UTF-8: 'utf-8' codec can't decode byte 0xe9")
             for argv in (("check", "--in", "latin1.json"),
                          ("classify", "--in", "point.json", "--morse", "latin1.json"))]
    rows += [Row(f"{argv[0]}.out_of_memory", argv, code=3, memory=True,
                 stderr_has="error: out of memory")
             for argv in (("check", "--in", "simplex13.json"), ("embed", "--in", "torus10.json"))]
    return rows


ROWS = _rows()


def _limit_memory():
    limit = MEMORY_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _close_stdout():
    os.close(1)


def _run(directory: Path, row: Row, hash_seed: int):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(hash_seed)}
    env.pop("PYTHONUNBUFFERED", None)
    env.update(row.env)
    with open(row.stdout, "wb") if row.stdout else contextlib.nullcontext(subprocess.PIPE) as out:
        return subprocess.run([sys.executable, "-m", "morsepoly.cli", *row.argv], cwd=directory,
                              env=env, stdout=out, stderr=subprocess.PIPE, timeout=row.timeout,
                              preexec_fn=(_limit_memory if row.memory else
                                          _close_stdout if row.closed_stdout else None))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    for name, document in DOCUMENTS.items():
        (directory / name).write_text(json.dumps(document) + "\n", encoding="utf-8")
    for name, text in TEXTS.items():
        (directory / name).write_text(text + "\n", encoding="utf-8")
    for name, data in RAW.items():
        (directory / name).write_bytes(data)
    for name, argv in (("complex.json", GEN_COMPLEX),
                       ("morse.json", ("gen", "--kind", "morse", "--in", "complex.json"))):
        done = _run(directory, Row(name, argv), HASH_SEEDS[0])
        assert done.returncode == 0, done.stderr
        (directory / name).write_bytes(done.stdout)
    return directory


@pytest.fixture(scope="module")
def memory_limit_works(inputs):
    """Whether a run on a triangle fits in MEMORY_LIMIT_MB on this host."""
    if resource is None:
        return False
    probe = Row("probe", ("check", "--in", "triangle.json"), memory=True)
    return _run(inputs, probe, HASH_SEEDS[0]).returncode == 0


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_same_bytes_under_both_hash_seeds(inputs, request, row):
    if row.stdout and not os.path.exists(row.stdout):
        pytest.skip(f"no {row.stdout} on this platform")
    if row.memory and not request.getfixturevalue("memory_limit_works"):
        pytest.skip(f"a triangle does not run within {MEMORY_LIMIT_MB} MB here")
    seen = []
    for seed in HASH_SEEDS:
        done = _run(inputs, row, seed)
        assert done.returncode == row.code, done.stderr
        written = None
        if row.written:
            written = (inputs / row.written).read_bytes()
            (inputs / row.written).unlink()
        seen.append((done.stdout, done.stderr, written))
    assert seen[0] == seen[1]
    if row.stderr_has:
        assert row.stderr_has in seen[0][1].decode()
    if row.code in (2, 3):  # an input, output or memory error: one line, and no output
        assert seen[0][1].decode().count("\n") == 1 and not seen[0][0], seen[0]


@pytest.mark.parametrize("name", ["complex", "unsorted"])
def test_gen_text_is_its_json(inputs, name):
    def gen(*flags):
        argv = ("gen", "--kind", "morse", *flags, "--in", f"{name}.json")
        return _run(inputs, Row("gen", argv), HASH_SEEDS[0]).stdout

    assert gen("--format", "text") == gen("--seed", "0")


def test_no_assert_statement_in_the_package():
    """The package checks its own invariants with ``raise AssertionError``,
    which ``cli.main`` turns into exit 1.  An ``assert`` statement would
    vanish under ``python -O`` and let ``verify`` report its verdict
    unchecked."""
    paths = sorted((ROOT / "src" / "morsepoly").rglob("*.py"))
    assert len(paths) > 10
    found = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
