"""`morsepoly euler`: chain counts and Euler characteristic of the order complex."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..poset import chain_counts
from . import emit, load_input


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    counts = chain_counts(loaded.poset)
    payload = {
        "element_count": len(loaded.poset),
        "simplex_count": sum(counts),
        "simplices_by_dimension": list(counts),
        "euler_characteristic": sum(counts[0::2]) - sum(counts[1::2]),
    }
    if args.fmt == "json":
        emit(args, jsonio.dumps_canonical(payload))
    else:
        emit(
            args,
            f"order complex: {payload['simplex_count']} simplices over "
            f"{payload['element_count']} vertices (by dimension: {counts})\n"
            f"Euler characteristic: {payload['euler_characteristic']}\n",
        )
    return 0
