"""Independent verdict checks for the benchmark.

Nothing here imports morsepoly.  Every fact a check relies on is recomputed
from the maximal simplices the benchmark itself wrote: the face set, the
Euler characteristic as an alternating face count, the dimension of each
face, and the cover relation used to re-check the Morse condition.  A check
returns None when the output passes and a one-line reason when it fails.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from itertools import combinations


def face_name(face) -> str:
    """A face's identifier: its vertex ids, sorted as strings and comma-joined."""
    return ",".join(sorted(face))


def faces(maximal_simplices) -> set[frozenset[str]]:
    """Every non-empty face of every maximal simplex."""
    out: set[frozenset[str]] = set()
    for simplex in maximal_simplices:
        for size in range(1, len(simplex) + 1):
            out.update(frozenset(face) for face in combinations(simplex, size))
    return out


def euler_characteristic(maximal_simplices) -> int:
    """Alternating face count: vertices - edges + triangles - ..."""
    return sum((-1) ** (len(face) - 1) for face in faces(maximal_simplices))


def check_request(returncode: int, stdout: bytes, stderr: bytes) -> str | None:
    """Conditions every request must meet, whatever the command."""
    if returncode != 0:
        return f"exit code {returncode}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    return None


def check_verify(stdout: bytes, maximal_simplices, chi: int) -> str | None:
    """Check a `verify` payload against the complex and its known chi."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    try:
        return _verify_reason(payload, maximal_simplices, chi)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"payload lacks an expected field: {exc!r}"


def _verify_reason(payload: dict, maximal_simplices, chi: int) -> str | None:
    if payload["status"] != "verified":
        return f"status {payload['status']!r}"
    totals = payload["totals"]
    if totals["euler_characteristic"] != chi:
        return f"chi {totals['euler_characteristic']} != {chi}"
    if totals["sum"] != chi:
        return f"index sum {totals['sum']} != chi {chi}"
    n_critical = totals["n_even_critical"] + totals["n_odd_critical"]
    if totals["n_even_critical"] - totals["n_odd_critical"] != chi:
        return "N0 - N1 != chi"
    dims = {face_name(f): len(f) - 1 for f in faces(maximal_simplices)}
    entries = payload["entries"]
    if sorted(e["element"] for e in entries) != sorted(dims):
        return "entries do not list exactly the faces of the complex"
    for e in entries:
        if not e["computed"] == e["predicted"] == e["geometric"]:
            return f"indices disagree at {e['element']}"
        expected = (-1) ** dims[e["element"]] if e["critical"] else 0
        if e["predicted"] != expected:
            return f"predicted index {e['predicted']} at {e['element']} != {expected}"
    if sum(1 for e in entries if e["critical"]) != n_critical:
        return "critical entries do not match the critical totals"
    by_dim = payload["critical_by_dimension"]
    if sum((-1) ** i * m for i, m in enumerate(by_dim)) != chi:
        return "alternating sum of critical_by_dimension != chi"
    if sum(by_dim) != n_critical:
        return "critical_by_dimension does not add up to the critical count"
    return None


def check_morse(stdout: bytes, maximal_simplices) -> str | None:
    """Check a `gen --kind morse` payload with the benchmark's own cover scan.

    Each face may have at most one lower cover with a value at or above its
    own, and at most one upper cover with a value at or below its own.
    """
    try:
        raw = json.loads(stdout)["values"]
        values = {name: Fraction(v) for name, v in raw.items()}
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return "output is not a function document"
    all_faces = faces(maximal_simplices)
    if set(values) != {face_name(f) for f in all_faces}:
        return "function is not defined on exactly the faces of the complex"
    high_below: dict[str, int] = {}
    low_above: dict[str, int] = {}
    for face in all_faces:
        if len(face) == 1:
            continue
        b = face_name(face)
        for v in face:
            a = face_name(face - {v})
            if values[a] >= values[b]:
                high_below[b] = high_below.get(b, 0) + 1
                low_above[a] = low_above.get(a, 0) + 1
    for counts, side in ((high_below, "lower"), (low_above, "upper")):
        for name, count in counts.items():
            if count > 1:
                return f"{name} has {count} non-increasing {side} covers"
    return None


def tampered_verify_payloads(stdout: bytes) -> list[tuple[str, bytes]]:
    """Corruptions of a passing `verify` payload that the oracle must reject."""
    good = json.loads(stdout)

    def variant(label, edit):
        payload = copy.deepcopy(good)
        edit(payload)
        return label, json.dumps(payload).encode()

    def geometric_off(p):
        p["entries"][0]["geometric"] += 1

    def chi_shifted(p):
        # Shifted consistently, so only the independent chi can catch it.
        p["totals"]["euler_characteristic"] += 2
        p["totals"]["sum"] += 2
        p["totals"]["n_even_critical"] += 2

    def status(p):
        p["status"] = "mismatch"

    def dropped_entry(p):
        p["entries"].pop()

    def by_dimension(p):
        p["critical_by_dimension"][0] += 1

    return [
        variant("geometric index off by one", geometric_off),
        variant("chi shifted by two", chi_shifted),
        variant("status mismatch", status),
        variant("entry missing", dropped_entry),
        variant("critical_by_dimension altered", by_dimension),
        ("truncated output", stdout[: len(stdout) // 2]),
    ]


def tampered_morse_payloads(stdout: bytes) -> list[tuple[str, bytes]]:
    """Corruptions of a passing `gen --kind morse` payload."""
    good = json.loads(stdout)
    flat = {"values": {name: "0" for name in good["values"]}}
    dropped = {"values": dict(list(good["values"].items())[1:])}
    return [
        ("constant function", json.dumps(flat).encode()),
        ("value missing", json.dumps(dropped).encode()),
        ("truncated output", stdout[: len(stdout) // 2]),
    ]
