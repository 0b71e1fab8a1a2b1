"""`morsepoly index`: combinatorial indices and the totals they satisfy."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..chain_index import verify_representation
from . import emit, load_input, load_morse


def _text(payload: dict):
    for entry in payload["entries"]:
        yield (
            f"{entry['element']}: index {entry['computed']} "
            f"({'critical' if entry['critical'] else 'ordinary'})"
        )
    totals = payload["totals"]
    yield (
        f"sum {totals['sum']} = chi {totals['euler_characteristic']}; "
        f"critical even/odd: {totals['n_even_critical']}/{totals['n_odd_critical']}"
    )


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    f = load_morse(args, loaded)
    report = verify_representation(loaded.poset, f)
    emit(args, jsonio.index_report_to_obj(report), _text)
    return 0
