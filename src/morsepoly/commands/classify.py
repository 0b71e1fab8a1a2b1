"""`morsepoly classify`: the critical/ordinary verdict of every element."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..morse import classify
from . import emit, load_input, load_morse


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    f = load_morse(args, loaded)
    classification = classify(loaded.poset, f)
    critical = sorted(classification.critical_set())
    payload = {
        "verdicts": dict(sorted(classification.verdicts.items())),
        "witnesses": {
            e: {"neighbor": w[0], "direction": w[1]}
            for e, w in sorted(classification.witnesses.items())
        },
        "counts": {
            "critical": len(critical),
            "ordinary": len(loaded.poset) - len(critical),
        },
    }
    if args.fmt == "json":
        emit(args, jsonio.dumps_canonical(payload))
    else:
        lines = [f"critical: {len(critical)}, ordinary: {payload['counts']['ordinary']}"]
        for e, verdict in sorted(classification.verdicts.items()):
            if verdict == "critical":
                lines.append(f"  {e}: critical")
            else:
                neighbor, direction = classification.witnesses[e]
                lines.append(f"  {e}: ordinary (witness {neighbor} {direction})")
        emit(args, "\n".join(lines) + "\n")
    return 0
