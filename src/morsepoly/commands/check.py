"""`morsepoly check`: the paper's three structural properties of the input."""

from __future__ import annotations

from types import SimpleNamespace

from ..errors import MISMATCH_EXIT
from ..hypotheses import _downward_eulerian, is_two_wide
from ..poset import GradingConflict, Poset
from . import emit, load_input


def _check_payload(kind: str, poset: Poset) -> dict:
    wide = is_two_wide(poset)
    mu = poset._parity
    payload: dict = {
        "input": kind,
        "element_count": len(poset),
        "two_wide": {
            "holds": bool(wide),
            "witness": list(wide.witness) if wide.witness else None,
        },
    }
    if not isinstance(mu, GradingConflict):
        eulerian = _downward_eulerian(poset)
        payload["parity_rank"] = {
            "exists": True,
            "values": mu,
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
    if kind == "cellular":
        payload["note"] = (
            "poset-level necessary conditions only; regularity of the cell "
            "description is not verified"
        )
    payload["all_hold"] = all_hold
    return payload


def _check_text(payload: dict):
    yield f"input: {payload['input']} ({payload['element_count']} elements)"
    yield f"2-wide: {payload['two_wide']['holds']}" + (
        f" (witness {tuple(payload['two_wide']['witness'])})"
        if payload["two_wide"]["witness"]
        else ""
    )
    parity = payload["parity_rank"]
    if parity["exists"]:
        yield "parity rank function: exists"
        eulerian = payload["downward_eulerian"]
        yield f"downward Eulerian: {eulerian['holds']}"
        for violation in eulerian["violations"]:
            yield (
                f"  violated at {violation['element']}: chi = {violation['chi']}, "
                f"required {violation['required']}"
            )
    else:
        conflict = parity["conflict"]
        yield (
            f"parity rank function: none (element {conflict['element']} receives "
            f"{conflict['values'][0]} via {conflict['via'][0]} and "
            f"{conflict['values'][1]} via {conflict['via'][1]})"
        )
    if "note" in payload:
        yield f"note: {payload['note']}"
    yield f"all properties hold: {payload['all_hold']}"


def run(args: SimpleNamespace) -> int:
    payload = _check_payload(*load_input(args.input_path))
    emit(args, payload, _check_text)
    if args.strict and not payload["all_hold"]:
        return MISMATCH_EXIT
    return 0

