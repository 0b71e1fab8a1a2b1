"""`morsepoly verify`: the index equations, combinatorially and geometrically."""

from __future__ import annotations

from types import SimpleNamespace

from .. import jsonio
from ..chain_index import verify_representation
from ..complexes import critical_by_dimension
from ..errors import MISMATCH_EXIT
from ..geometry import compare_indices, embed_vertices, lower_star_indices
from . import emit, load_input, load_morse


def _text(payload: dict):
    yield f"status: {payload['status']}"
    for entry in payload["entries"]:
        yield (
            f"  {entry['element']}: index {entry['computed']} "
            f"(predicted {entry['predicted']}, geometric {entry['geometric']}, "
            f"{'critical' if entry['critical'] else 'ordinary'})"
        )
    totals = payload["totals"]
    yield (
        f"sum {totals['sum']} = chi {totals['euler_characteristic']}; "
        f"N0 - N1 = {totals['n_even_critical']} - {totals['n_odd_critical']}"
    )
    if "critical_by_dimension" in payload:
        yield f"critical cells by dimension: {payload['critical_by_dimension']}"


def run(args: SimpleNamespace) -> int:
    loaded = load_input(args.input_path)
    poset = loaded.poset
    f = load_morse(args, loaded)
    report = verify_representation(poset, f)  # checks hypotheses, raises on violation

    payload = jsonio.index_report_to_obj(report)
    geometry_ok = True
    if len(poset) > 0:  # the embedding needs at least one vertex
        geo = compare_indices(
            lower_star_indices(poset, embed_vertices(poset, report.normalized)),
            {entry.element: entry.computed for entry in report.entries},
        )
        geometry_ok = geo.ok
        for entry in payload["entries"]:
            entry["geometric"] = geo.indices[entry["element"]]
        if not geo.ok:
            payload["mismatches"] = [
                {"element": e, "geometric": geo_idx, "combinatorial": comb_idx}
                for e, geo_idx, comb_idx in geo.mismatches
            ]
    payload["status"] = "verified" if geometry_ok else "mismatch"
    if loaded.face is not None:
        # Rank is available, so also report critical cells per dimension.
        critical = (entry.element for entry in report.entries if entry.critical)
        payload["critical_by_dimension"] = list(critical_by_dimension(loaded.face.rank, critical))
    emit(args, payload, _text)
    return 0 if geometry_ok else MISMATCH_EXIT
