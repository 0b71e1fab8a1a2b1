"""`morsepoly check`: the paper's three structural properties of the input."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..errors import MISMATCH_EXIT
from ..hypotheses import compute_parity_rank, is_downward_eulerian, is_two_wide
from ..poset import ParityRank
from . import LoadedInput, emit, load_input


def _check_payload(loaded: LoadedInput) -> dict:
    poset = loaded.poset
    wide = is_two_wide(poset)
    mu = compute_parity_rank(poset)
    payload: dict = {
        "input": loaded.kind,
        "element_count": len(poset),
        "two_wide": {
            "holds": bool(wide),
            "witness": list(wide.witness) if wide.witness else None,
        },
    }
    if isinstance(mu, ParityRank):
        eulerian = is_downward_eulerian(poset, mu)
        payload["parity_rank"] = {
            "exists": True,
            "values": {e: mu.values[e] for e in poset.elements},
        }
        payload["downward_eulerian"] = {
            "holds": bool(eulerian),
            "violations": [
                {"element": e, "chi": chi, "required": required}
                for e, chi, required in eulerian.violations
            ],
        }
        all_hold = bool(wide) and bool(eulerian)
    else:
        payload["parity_rank"] = {
            "exists": False,
            "conflict": {
                "element": mu.element,
                "values": list(mu.values),
                "via": list(mu.via),
            },
        }
        payload["downward_eulerian"] = {"holds": False, "violations": []}
        all_hold = False
    if loaded.kind == "cellular":
        payload["note"] = (
            "poset-level necessary conditions only; regularity of the cell "
            "description is not verified"
        )
    payload["all_hold"] = all_hold
    return payload


def _check_text(payload: dict) -> str:
    lines = [
        f"input: {payload['input']} ({payload['element_count']} elements)",
        f"2-wide: {payload['two_wide']['holds']}"
        + (
            f" (witness {tuple(payload['two_wide']['witness'])})"
            if payload["two_wide"]["witness"]
            else ""
        ),
    ]
    parity = payload["parity_rank"]
    if parity["exists"]:
        lines.append("parity rank function: exists")
        eulerian = payload["downward_eulerian"]
        lines.append(f"downward Eulerian: {eulerian['holds']}")
        for violation in eulerian["violations"]:
            lines.append(
                f"  violated at {violation['element']}: chi = {violation['chi']}, "
                f"required {violation['required']}"
            )
    else:
        conflict = parity["conflict"]
        lines.append(
            f"parity rank function: none (element {conflict['element']} receives "
            f"{conflict['values'][0]} via {conflict['via'][0]} and "
            f"{conflict['values'][1]} via {conflict['via'][1]})"
        )
    if "note" in payload:
        lines.append(f"note: {payload['note']}")
    lines.append(f"all properties hold: {payload['all_hold']}")
    return "\n".join(lines) + "\n"


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    payload = _check_payload(loaded)
    if args.fmt == "json":
        emit(args, jsonio.dumps_canonical(payload))
    else:
        emit(args, _check_text(payload))
    if args.strict and not payload["all_hold"]:
        return MISMATCH_EXIT
    return 0

