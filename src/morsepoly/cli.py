"""Command-line interface.

Every command is a thin adapter over the library: it loads files, calls the
same functions a library user would, and serializes the result.  JSON output
is the machine contract (key-sorted, reproducible byte-for-byte); text
output is for humans.

Exit codes: 0 on success, 1 when a verified identity fails or --strict is
set and a property check fails, 2 for unreadable/malformed input, inputs
outside the required hypotheses, or an output path that cannot be written.
Exit 2 comes only from MorsePolyError; any other exception is a bug and
propagates.

This module holds only the parser and the dispatch.  Each command's handler
is a module of :mod:`morsepoly.commands` that :func:`main` imports when it
dispatches, so a run loads and compiles only the modules its command runs.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .errors import INPUT_ERRORS_EXIT, MISMATCH_EXIT, Mismatch, MorsePolyError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsepoly",
        description=(
            "Discrete Morse functions on finite posets: structural checks, "
            "classification, normalization, critical-point indices, and exact "
            "geometric verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, needs_input: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if needs_input:
            p.add_argument("--in", dest="input_path", required=True, metavar="FILE",
                           help="poset or complex JSON file")
        p.add_argument("--out", dest="output_path", metavar="FILE",
                       help="write the report here instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
        return p

    add("check", "report the three structural poset properties")
    add("euler", "Euler characteristic of the order complex")
    for name, help_ in (
        ("classify", "critical/ordinary verdict per element"),
        ("normalize", "equivalent injective, obstruction-free function"),
        ("index", "per-element indices and totals (combinatorial)"),
        ("embed", "exact coordinates for the order complex"),
        ("verify", "full combinatorial + geometric verification"),
    ):
        p = add(name, help_)
        p.add_argument("--morse", dest="morse_path", metavar="FILE",
                       help="function JSON file (complex inputs default to dimension)")
        if name == "embed":
            p.add_argument("--csv", dest="csv_path", metavar="FILE",
                           help="also write coordinates as CSV")
    p = add("gen", "seeded generators for complexes and functions", needs_input=False)
    p.add_argument("--in", dest="input_path", metavar="FILE",
                   help="poset or complex file (required for --kind morse)")
    p.add_argument("--kind", choices=("complex", "morse"), default="complex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=5)
    p.add_argument("--dim", dest="dimension", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)

    sub.choices["check"].add_argument(
        "--strict", action="store_true",
        help="exit 1 when any structural property fails",
    )
    return parser


def _join_gen_numbers(argv: list[str]) -> list[str]:
    """`gen` arguments with a value like "-1e-9" or "-inf", which argparse
    reads as a flag, glued to its number option so it reaches the validator."""
    joined = argv[:1]
    for arg in argv[1:]:
        if (joined[0] == "gen" and joined[-1] in ("--seed", "--vertices", "--dim", "--density")
                and arg.startswith("-") and not arg.startswith("--")):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_gen_numbers(sys.argv[1:] if argv is None else argv))
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


if __name__ == "__main__":
    raise SystemExit(main())
