"""JSON (de)serialization for every on-disk format.

Rationals travel as strings "p" or "p/q" in lowest terms, each the ``str``
of a ``Fraction``; floats are rejected on input so no inexact value can
enter a computation.  :func:`dumps_canonical`, which the commands' one
writer calls, emits key-sorted, two-space-indented JSON with a trailing
newline, so equal data always produces byte-identical files.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .complexes import CellSpec, ComplexSpec
from .errors import MalformedSpec, ParseError
from .morse import MorseFunction

if TYPE_CHECKING:  # annotations only: `gen` and `check` load neither module
    from .chain_index import IndexReport
    from .geometry import Embedding


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """JSON object hook: a repeated key is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate object key {key!r}")
        obj[key] = value
    return obj


def load_document(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past the digit limit, or deep nesting.
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def detect_kind(obj: Any) -> str:
    """One of "poset", "simplicial", "cellular" for a loaded document."""
    if not isinstance(obj, dict):
        raise MalformedSpec("top-level JSON value must be an object")
    if "elements" in obj and "covers" in obj:
        return "poset"
    kind = obj.get("kind")
    if kind in ("simplicial", "cellular"):
        return str(kind)
    raise MalformedSpec(
        "unrecognized document: expected poset keys ('elements', 'covers') or "
        "a complex with kind 'simplicial' or 'cellular'"
    )


def poset_from_obj(obj: Any) -> tuple[list[str], list[tuple[str, str]]]:
    """Elements and cover pairs from a poset document (unvalidated as a poset)."""
    if not isinstance(obj, dict):
        raise MalformedSpec("poset document must be an object")
    elements = obj.get("elements")
    covers = obj.get("covers")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise MalformedSpec("'elements' must be a list of strings")
    if not isinstance(covers, list):
        raise MalformedSpec("'covers' must be a list of pairs")
    pairs = []
    for item in covers:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise MalformedSpec(f"cover entry {item!r} is not a pair of strings")
        pairs.append((item[0], item[1]))
    return elements, pairs


def morse_from_obj(obj: Any) -> MorseFunction:
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), dict):
        raise MalformedSpec("function document must be an object with a 'values' map")
    for key in obj["values"]:
        if not isinstance(key, str):
            raise MalformedSpec(f"element id {key!r} is not a string")
    try:
        return MorseFunction.from_values(obj["values"])
    except (TypeError, ValueError) as exc:
        raise MalformedSpec(str(exc)) from exc


def morse_to_obj(f: MorseFunction) -> dict:
    return {"values": {e: str(v) for e, v in f.sorted_items()}}


def complex_from_obj(obj: Any) -> ComplexSpec:
    kind = detect_kind(obj)
    if kind == "simplicial":
        simplices = obj.get("maximal_simplices")
        if not isinstance(simplices, list):
            raise MalformedSpec("'maximal_simplices' must be a list of vertex lists")
        cleaned = []
        for simplex in simplices:
            if not isinstance(simplex, list) or not all(isinstance(v, str) for v in simplex):
                raise MalformedSpec(f"simplex {simplex!r} is not a list of vertex ids")
            cleaned.append(tuple(simplex))
        return ComplexSpec(kind="simplicial", maximal_simplices=tuple(cleaned))
    if kind == "cellular":
        cells = obj.get("cells")
        if not isinstance(cells, list):
            raise MalformedSpec("'cells' must be a list of cell objects")
        parsed = []
        for cell in cells:
            if not isinstance(cell, dict):
                raise MalformedSpec(f"cell {cell!r} is not an object")
            cid = cell.get("id")
            dim = cell.get("dim")
            boundary = cell.get("boundary", [])
            if not isinstance(cid, str):
                raise MalformedSpec(f"cell id {cid!r} is not a string")
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise MalformedSpec(f"cell {cid!r} dimension must be an integer")
            if not isinstance(boundary, list) or not all(isinstance(b, str) for b in boundary):
                raise MalformedSpec(f"cell {cid!r} boundary must be a list of cell ids")
            parsed.append(CellSpec(id=cid, dim=dim, boundary=tuple(boundary)))
        return ComplexSpec(kind="cellular", cells=tuple(parsed))
    raise MalformedSpec(f"document of kind {kind!r} is not a complex")


def complex_to_obj(spec: ComplexSpec) -> dict:
    if spec.kind == "simplicial":
        return {
            "kind": "simplicial",
            "maximal_simplices": [list(s) for s in spec.maximal_simplices],
        }
    return {
        "kind": "cellular",
        "cells": [
            {"id": c.id, "dim": c.dim, "boundary": list(c.boundary)} for c in spec.cells
        ],
    }


def embedding_to_obj(embedding: Embedding) -> dict:
    return {
        "dimension": embedding.dimension,
        "coordinates": {
            e: [str(x) for x in vec] for e, vec in embedding.vectors()
        },
    }


def embedding_obj_to_csv(obj: dict) -> str:
    """CSV rows (element, coord_1..coord_k) for external plotting, written
    from the coordinate strings of an :func:`embedding_to_obj` payload."""
    import csv  # only `embed --csv` writes CSV; keep it out of every other start-up

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["element"] + [f"coord_{i + 1}" for i in range(obj["dimension"])])
    for e, vec in obj["coordinates"].items():
        writer.writerow([e, *vec])
    return buffer.getvalue()


def index_report_to_obj(report: IndexReport) -> dict:
    return {
        "entries": [
            {
                "element": entry.element,
                "computed": entry.computed,
                "predicted": entry.predicted,
                "critical": entry.critical,
            }
            for entry in report.entries
        ],
        "totals": {
            "sum": report.total,
            "euler_characteristic": report.chi,
            "n_even_critical": report.n_even,
            "n_odd_critical": report.n_odd,
        },
    }
