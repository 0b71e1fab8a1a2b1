"""The output contract, checked through subprocesses: every command writes
the same bytes under two hash seeds, deep inputs stay polynomial, and a
huge simplex is refused at once.

Every report is scanned in identifier order, and some scans walk sets, so
no output or error text may depend on set order.  Each row of ``ROWS``
runs one command line as ``python -m morsepoly.cli`` under
``PYTHONHASHSEED`` 0 and 4242, in a directory that holds the inputs below,
and compares stdout, stderr and any file the command writes.  The
dimension function (no ``--morse``) ties every face of a dimension, so the
spread sweep moves almost every element; the unsorted simplices have ids
whose string order is not their numeric order.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = (0, 4242)
CHAIN = [f"c{i}" for i in range(2000)]
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
}


class Row(NamedTuple):
    name: str
    argv: tuple[str, ...]
    code: int = 0
    timeout: float | None = None
    written: str | None = None  # a file the command writes, compared too
    stderr_has: str | None = None


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
    rows += [Row("euler.chain2000", ("euler", "--in", "chain2000.json"), timeout=60),
             Row("verify.simplex9", ("verify", "--in", "simplex9.json"), timeout=30)]
    rows += [Row(f"check.{name}.{fmt}", ("check", "--format", fmt, "--in", f"{name}.json"))
             for name in ("ungraded", "parity_conflict") for fmt in ("json", "text")]
    rows += [Row(f"{cmd}.full_disk.{fmt}", (cmd, *flags, "--format", fmt, "--in", "full_disk.json"))
             for cmd, flags in (("check", ("--strict",)), ("verify", ())) for fmt in ("json", "text")]
    rows += [Row("verify.out", ("verify", *morse, "--out", "verify.written"), written="verify.written"),
             Row("embed.csv", ("embed", *morse, "--csv", "embed.csv"), written="embed.csv")]
    rows += [Row("loops", ("check", "--in", "loops.json"), code=2),
             Row("redundant", ("check", "--in", "redundant.json"), code=2,
                 stderr_has="pair ('a', 'c') is not a cover"),
             Row("simplex40", ("check", "--in", "simplex40.json"), code=2, timeout=10)]
    return rows


ROWS = _rows()


def _run(directory: Path, argv, hash_seed: int, timeout: float | None = None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run([sys.executable, "-m", "morsepoly.cli", *argv], cwd=directory,
                          env=env, capture_output=True, timeout=timeout)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    for name, document in DOCUMENTS.items():
        (directory / name).write_text(json.dumps(document) + "\n", encoding="utf-8")
    for name, argv in (("complex.json", GEN_COMPLEX),
                       ("morse.json", ("gen", "--kind", "morse", "--in", "complex.json"))):
        done = _run(directory, argv, HASH_SEEDS[0])
        assert done.returncode == 0, done.stderr
        (directory / name).write_bytes(done.stdout)
    return directory


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_same_bytes_under_both_hash_seeds(inputs, row):
    seen = []
    for seed in HASH_SEEDS:
        done = _run(inputs, row.argv, seed, row.timeout)
        assert done.returncode == row.code, done.stderr
        written = None
        if row.written:
            written = (inputs / row.written).read_bytes()
            (inputs / row.written).unlink()
        seen.append((done.stdout, done.stderr, written))
    assert seen[0] == seen[1]
    if row.stderr_has:
        assert row.stderr_has in seen[0][1].decode()


@pytest.mark.parametrize("name", ["complex", "unsorted"])
def test_gen_text_is_its_json(inputs, name):
    def gen(*flags):
        argv = ("gen", "--kind", "morse", *flags, "--in", f"{name}.json")
        return _run(inputs, argv, HASH_SEEDS[0]).stdout

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
