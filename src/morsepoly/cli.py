"""Command-line interface.

Every command is a thin adapter over the library: it loads files, calls the
same functions a library user would, and serializes the result.  JSON output
is the machine contract (key-sorted, reproducible byte-for-byte); text
output is for humans.

Exit codes: 0 on success, 1 when a verified identity fails or --strict is
set and a property check fails, 2 for unreadable/malformed input, inputs
outside the required hypotheses, a value too long to write, or an output
path or stdout that cannot be written, and 3 on MemoryError; each of 2 and
3 prints one ``error:`` line.
Exit 2 comes only from MorsePolyError; any other exception is a bug and
propagates.

This module holds only the option table, the two parsers that read it and
the dispatch.  Each command's handler is a module of
:mod:`morsepoly.commands` that :func:`main` imports when it dispatches, so a
run loads and compiles only the modules its command runs.

``COMMANDS`` declares every command's options once, each as a flag and the
keyword arguments ``argparse``'s ``add_argument`` takes (dest, default,
type, choices, required, help, ...).  Two parsers read it:

- :func:`parse_fast` accepts only the well-formed argv a script writes: an
  exact command name, then exact long flags from the table as ``--flag
  VALUE`` (the value not starting with ``-``), ``--flag=VALUE`` or a bare
  store-true flag.  It converts each value with the table's own ``type``,
  checks ``choices`` and the required flags, and returns ``None`` for
  anything else: ``-h``/``--help``, an abbreviation, ``--``, an unknown
  token, a missing or bad value.
- :func:`build_parser` builds the ``argparse`` parser from the table, and
  imports ``argparse`` itself.  It stays the authority: :func:`main` falls
  back to it whenever the fast parser declines, so help, usage errors and
  their exit code are argparse's own, byte for byte, on every Python
  version (their texts differ between versions).  The tests hold the fast
  parser to it: whenever the fast parser accepts an argv, argparse accepts
  it too and gives the same values.

Both hand the handlers a ``types.SimpleNamespace``, so a well-formed
command loads none of ``argparse``, ``gettext`` or ``locale``.

The program's exit path, :func:`entry_point` (``python -m morsepoly.cli``
and the installed ``morsepoly`` script), calls :func:`gc.freeze` after
``main`` returns and before raising ``SystemExit``: interpreter shutdown
then skips traversing every object that start-up and the imports created.
atexit handlers and the flushing of the standard streams run as before.
``main(argv)`` itself never freezes, because a test, a library caller or
the benchmark's in-process pass keeps running after it returns.
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import INPUT_ERRORS_EXIT, MISMATCH_EXIT, OUT_OF_MEMORY_EXIT, Mismatch, MorsePolyError

_IN = ("--in", {"dest": "input_path", "required": True, "metavar": "FILE",
                "help": "poset or complex JSON file"})
_OUT = ("--out", {"dest": "output_path", "metavar": "FILE",
                  "help": "write the report here instead of stdout"})
_FORMAT = ("--format", {"dest": "fmt", "choices": ("json", "text"), "default": "json"})
_MORSE = ("--morse", {"dest": "morse_path", "metavar": "FILE",
                      "help": "function JSON file (complex inputs default to dimension)"})

# command -> (help, options in the order the help lists them)
COMMANDS = {
    "check": ("report the three structural poset properties", (
        _IN, _OUT, _FORMAT,
        ("--strict", {"dest": "strict", "action": "store_true", "default": False,
                      "help": "exit 1 when any structural property fails"}),
    )),
    "euler": ("Euler characteristic of the order complex", (_IN, _OUT, _FORMAT)),
    "classify": ("critical/ordinary verdict per element", (_IN, _OUT, _FORMAT, _MORSE)),
    "normalize": ("equivalent injective, obstruction-free function",
                  (_IN, _OUT, _FORMAT, _MORSE)),
    "index": ("per-element indices and totals (combinatorial)", (_IN, _OUT, _FORMAT, _MORSE)),
    "embed": ("exact coordinates for the order complex", (
        _IN, _OUT, _FORMAT, _MORSE,
        ("--csv", {"dest": "csv_path", "metavar": "FILE",
                   "help": "also write coordinates as CSV"}),
    )),
    "verify": ("full combinatorial + geometric verification", (_IN, _OUT, _FORMAT, _MORSE)),
    "gen": ("seeded generators for complexes and functions", (
        _OUT, _FORMAT,
        ("--in", {"dest": "input_path", "metavar": "FILE",
                  "help": "poset or complex file (required for --kind morse)"}),
        ("--kind", {"dest": "kind", "choices": ("complex", "morse"), "default": "complex"}),
        ("--seed", {"dest": "seed", "type": int, "default": 0}),
        ("--vertices", {"dest": "vertices", "type": int, "default": 5}),
        ("--dim", {"dest": "dimension", "type": int, "default": 2}),
        ("--density", {"dest": "density", "type": float, "default": 0.5}),
    )),
}
# gen's number options: a value such as "-1e-9" is glued to its flag.
_GEN_NUMBERS = tuple(flag for flag, spec in COMMANDS["gen"][1] if "type" in spec)


def build_parser():
    """The argparse parser for the options in ``COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="morsepoly",
        description=(
            "Discrete Morse functions on finite posets: structural checks, "
            "classification, normalization, critical-point indices, and exact "
            "geometric verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for flag, spec in options:
            command.add_argument(flag, **spec)
    return parser


def parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for a well-formed argv, without argparse;
    ``None`` for any argv outside the strict form the module docstring
    describes, which :func:`main` then hands to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = dict(COMMANDS[argv[0]][1])
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        flag, glued, value = arg.partition("=")
        spec = options.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            if glued:
                return None
            given[flag] = True
            continue
        if not glued:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, spec in options.items():
        if flag not in given and spec.get("required"):
            return None
        setattr(args, spec["dest"], given.get(flag, spec.get("default")))
    return args


def _join_gen_numbers(argv: list[str]) -> list[str]:
    """`gen` arguments with a value like "-1e-9" or "-inf", which argparse
    reads as a flag, glued to its number option so it reaches the validator."""
    joined = argv[:1]
    for arg in argv[1:]:
        if (joined[0] == "gen" and joined[-1] in _GEN_NUMBERS
                and arg.startswith("-") and not arg.startswith("--")):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = _join_gen_numbers(sys.argv[1:] if argv is None else argv)
    args = parse_fast(argv)
    if args is None:
        args = build_parser().parse_args(argv, SimpleNamespace())
    try:
        return import_module(f"morsepoly.commands.{args.command}").run(args)
    except Mismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return MISMATCH_EXIT
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return MISMATCH_EXIT
    except MorsePolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERRORS_EXIT
    except MemoryError:
        pass  # reported below, once leaving this block has freed what its frames hold
    print("error: out of memory", file=sys.stderr)
    return OUT_OF_MEMORY_EXIT


def entry_point() -> None:
    """Run :func:`main` on ``sys.argv`` and exit with its code, freezing the
    heap first so that interpreter shutdown does not traverse it."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # reported by main; what stdout still holds would fail the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
