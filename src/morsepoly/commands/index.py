"""`morsepoly index`: combinatorial indices and the totals they satisfy."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..chain_index import verify_representation
from . import emit, load_input, load_morse


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    f = load_morse(args, loaded)
    report = verify_representation(loaded.poset, f)
    payload = jsonio.index_report_to_obj(report)
    if args.fmt == "json":
        emit(args, jsonio.dumps_canonical(payload))
    else:
        lines = [
            f"{entry.element}: index {entry.computed} "
            f"({'critical' if entry.critical else 'ordinary'})"
            for entry in report.entries
        ]
        lines.append(
            f"sum {report.total} = chi {report.chi}; "
            f"critical even/odd: {report.n_even}/{report.n_odd}"
        )
        emit(args, "\n".join(lines) + "\n")
    return 0
