"""`morsepoly classify`: the critical/ordinary verdict of every element."""

from __future__ import annotations

from types import SimpleNamespace

from ..morse import classify
from . import emit, load_input, load_morse


def _text(payload: dict):
    counts = payload["counts"]
    yield f"critical: {counts['critical']}, ordinary: {counts['ordinary']}"
    for e, verdict in payload["verdicts"].items():
        if verdict == "critical":
            yield f"  {e}: critical"
        else:
            witness = payload["witnesses"][e]
            yield f"  {e}: ordinary (witness {witness['neighbor']} {witness['direction']})"


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    f = load_morse(args, loaded)
    classification = classify(loaded.poset, f)  # both maps in identifier order
    critical = len(classification.critical_set())
    payload = {
        "verdicts": classification.verdicts,
        "witnesses": {
            e: {"neighbor": w[0], "direction": w[1]}
            for e, w in classification.witnesses.items()
        },
        "counts": {
            "critical": critical,
            "ordinary": len(loaded.poset) - critical,
        },
    }
    emit(args, payload, _text)
    return 0
