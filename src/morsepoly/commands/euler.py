"""`morsepoly euler`: chain counts and Euler characteristic of the order complex."""

from __future__ import annotations

from types import SimpleNamespace

from ..poset import chain_counts
from . import emit, load_input


def _text(payload: dict):
    yield (
        f"order complex: {payload['simplex_count']} simplices over "
        f"{payload['element_count']} vertices "
        f"(by dimension: {tuple(payload['simplices_by_dimension'])})"
    )
    yield f"Euler characteristic: {payload['euler_characteristic']}"


def run(args: SimpleNamespace) -> int:
    _, poset = load_input(args.input_path)
    counts = chain_counts(poset)
    payload = {
        "element_count": len(poset),
        "simplex_count": sum(counts),
        "simplices_by_dimension": list(counts),
        "euler_characteristic": sum(counts[0::2]) - sum(counts[1::2]),
    }
    emit(args, payload, _text)
    return 0
