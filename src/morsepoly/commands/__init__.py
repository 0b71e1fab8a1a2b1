"""The CLI's command handlers, one module per command, and what they share.

:func:`morsepoly.cli.main` imports a command's module when it dispatches to
it and calls its ``run(args)``, so a run compiles only its own handler and
the library modules that handler imports.  This package module holds what
every handler needs: loading an input and a function, and :func:`emit`,
the one writer: it prints the one payload a handler builds as JSON or,
under ``--format text``, as lines the handler renders from that payload
alone; ``gen`` renders none, so it writes JSON under either format.
It is kept apart from :mod:`morsepoly.cli` because ``python -m
morsepoly.cli`` runs that module as ``__main__``, and a handler that
imported ``morsepoly.cli`` would compile it a second time.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .. import jsonio
from ..complexes import FacePoset, dimension_morse, face_poset_cellular, face_poset_simplicial
from ..errors import MorsePolyError
from ..morse import MorseFunction
from ..poset import Poset, Record, build_poset


class LoadedInput(Record):
    __slots__ = ("kind", "poset", "face")
    kind: str  # "poset" | "simplicial" | "cellular"
    poset: Poset
    face: FacePoset | None
    _defaults = {"face": None}


def load_input(path: str) -> LoadedInput:
    obj = jsonio.load_document(path)
    kind = jsonio.detect_kind(obj)
    if kind == "poset":
        elements, covers = jsonio.poset_from_obj(obj)
        return LoadedInput(kind="poset", poset=build_poset(elements, covers))
    spec = jsonio.complex_from_obj(obj)
    face = face_poset_simplicial(spec) if kind == "simplicial" else face_poset_cellular(spec)
    return LoadedInput(kind=kind, poset=face.poset, face=face)


def load_morse(args: SimpleNamespace, loaded: LoadedInput) -> MorseFunction:
    if args.morse_path is not None:
        return jsonio.morse_from_obj(jsonio.load_document(args.morse_path))
    if loaded.face is not None:
        return dimension_morse(loaded.poset, loaded.face.rank)
    raise MorsePolyError(
        "--morse is required for poset inputs (complex inputs default to the "
        "dimension function)"
    )


def write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MorsePolyError(f"cannot write {path}: {exc}") from exc


def emit(args: SimpleNamespace, payload: dict, text: Callable | None = None) -> None:
    """Write payload as canonical JSON, or as the lines ``text(payload)`` yields."""
    if text is None or args.fmt == "json":
        out = jsonio.dumps_canonical(payload)
    else:
        out = "\n".join(text(payload)) + "\n"
    if args.output_path:
        write(args.output_path, out)
    else:
        sys.stdout.write(out)
