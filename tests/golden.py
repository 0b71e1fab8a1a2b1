"""The golden manifest: SHA-256 digests of what every command writes on a
fixed set of inputs, so that "the same output bytes" is a checked-in gate.

A row is one command line: ``check``, ``euler``, ``classify``,
``normalize``, ``index``, ``embed`` with and without ``--csv``, ``verify``
and ``gen --kind morse``, each in JSON and in text, and every command that
takes ``--morse`` both with and without one.  It records the exit code and
the digests of stdout, stderr and every file the command writes.  The
manifest stores no output, and the inputs only as digests of the files
:func:`build_inputs` writes: the exit-0 documents of ``test_contract.py``,
the conftest builders, and ``gen_complex`` seeds; each input has a
``gen_morse`` function next to it.

From the repository root:

- ``python -m tests.golden`` rewrites ``tests/golden_manifest.json``.
  Regenerating it is a change to a check: a change that alters a digest
  names the rows and the reason.
- ``python -m tests.golden --check`` runs every row as a ``python -m
  morsepoly.cli`` subprocess under the inherited ``PYTHONHASHSEED`` and
  exits 1, naming each row whose bytes differ from the manifest.

``tests/test_golden.py`` runs every row in process through ``cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from morsepoly import cli, jsonio
from morsepoly.commands import load_input
from morsepoly.generators import gen_complex, gen_morse

from tests.conftest import cube, cubical_cone, suspension, torus, two_bigons
from tests.test_contract import DOCUMENTS

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_manifest.json")
FORMATS = ("json", "text")
CSV = "embed.csv"

# Each input's name and its document: a poset or a complex.
INPUTS = {
    **{name: DOCUMENTS[f"{name}.json"]
       for name in ("unsorted", "ungraded", "parity_conflict", "full_disk", "triangle")},
    "two_bigons": jsonio.complex_to_obj(two_bigons()),
    "torus3_3": jsonio.complex_to_obj(torus(3, 3)),
    "cube3": jsonio.complex_to_obj(cube(3)),
    "cubical_cone3_3": jsonio.complex_to_obj(cubical_cone(3, 3)),
    "suspension4": jsonio.complex_to_obj(suspension(4)),
    **{f"gen{seed}": jsonio.complex_to_obj(gen_complex(seed, 7, 2, 0.5)) for seed in (1, 2, 3)},
}
# The gen_morse seed of each input's function: a generated complex's own seed, else 1.
SEEDS = {name: int(name[3:]) if name.startswith("gen") else 1 for name in INPUTS}


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def build_inputs(directory: Path) -> dict[str, str]:
    """Write every input, as ``<name>.json``, and its function, as
    ``<name>.f.json``, to directory; return each file's digest."""
    digests = {}
    for name, document in INPUTS.items():
        path = directory / f"{name}.json"
        path.write_bytes(_dump(document))
        _, poset = load_input(str(path))
        function = directory / f"{name}.f.json"
        function.write_bytes(_dump(jsonio.morse_to_obj(gen_morse(SEEDS[name], poset))))
        for written in (path, function):
            digests[written.name] = _digest(written.read_bytes())
    return dict(sorted(digests.items()))


def rows() -> list[tuple[str, ...]]:
    """Every row's argv, in the manifest's order."""
    argvs = [("gen", "--kind", "morse")]  # refused: gen --kind morse needs --in
    for name in INPUTS:
        source = ("--in", f"{name}.json")
        for fmt in FORMATS:
            common = ("--format", fmt, *source)
            argvs += [("check", *common), ("euler", *common),
                      ("gen", "--kind", "morse", "--seed", str(SEEDS[name]), *common)]
            for morse in ((), ("--morse", f"{name}.f.json")):
                argvs += [(cmd, *common, *morse)
                          for cmd in ("classify", "normalize", "index", "embed", "verify")]
                argvs.append(("embed", *common, *morse, "--csv", CSV))
    return argvs


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_in_process(argv) -> tuple[int, bytes, bytes]:
    """``cli.main(argv)``'s exit code, stdout and stderr, in the working directory."""
    out, err = io.BytesIO(), io.BytesIO()
    streams = [io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
               for buffer in (out, err)]
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        code = cli.main(list(argv))
    for stream in streams:
        stream.flush()
        stream.detach()
    return code, out.getvalue(), err.getvalue()


def run_subprocess(argv) -> tuple[int, bytes, bytes]:
    """The exit code, stdout and stderr of ``python -m morsepoly.cli argv``
    in the working directory, under the inherited environment."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "morsepoly.cli", *argv],
                          capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


def record(directory: Path, argv, run) -> dict:
    """One manifest row: run argv in directory and digest what it wrote."""
    before = set(os.listdir(directory))
    with _chdir(directory):
        code, out, err = run(argv)
    files = {}
    for name in sorted(set(os.listdir(directory)) - before):
        files[name] = _digest((directory / name).read_bytes())
        (directory / name).unlink()
    return {"argv": list(argv), "code": code, "stdout": _digest(out), "stderr": _digest(err),
            "files": files}


@contextlib.contextmanager
def _chdir(directory: Path):
    saved = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(saved)


def manifest(run) -> dict:
    """The inputs' digests and every row, run with ``run``."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        inputs = build_inputs(directory)
        return {"inputs": inputs, "rows": [record(directory, argv, run) for argv in rows()]}


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def differences(expected: dict, seen: dict) -> list[str]:
    """A line for each input or row of seen that differs from expected."""
    lines = [f"input {name}" for name in sorted(expected["inputs"].keys() | seen["inputs"].keys())
             if expected["inputs"].get(name) != seen["inputs"].get(name)]
    if len(expected["rows"]) != len(seen["rows"]):
        lines.append(f"{len(seen['rows'])} rows, not {len(expected['rows'])}")
    for want, got in zip(expected["rows"], seen["rows"]):
        if want != got:
            fields = [key for key in want if want[key] != got.get(key)]
            lines.append(f"{' '.join(got['argv'])}: {', '.join(fields)}")
    return lines


def _write(data: dict) -> None:
    rows_text = ",\n".join(json.dumps(row, sort_keys=True) for row in data["rows"])
    MANIFEST.write_text(f'{{"inputs": {json.dumps(data["inputs"], indent=1, sort_keys=True)},\n'
                        f'"rows": [\n{rows_text}\n]}}\n', encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="run every row as a subprocess and compare it with the manifest")
    if not parser.parse_args().check:
        _write(manifest(run_in_process))
        return 0
    found = differences(load(), manifest(run_subprocess))
    for line in found:
        print(f"golden: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
