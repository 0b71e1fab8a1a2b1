"""Command-line interface.

Every command is a thin adapter over the library: it loads files, calls the
same functions a library user would, and serializes the result.  JSON output
is the machine contract (key-sorted, reproducible byte-for-byte); text
output is for humans.

Exit codes: 0 on success, 1 when a verified identity fails or --strict is
set and a property check fails, 2 for unreadable/malformed input, inputs
outside the required hypotheses, or an output path that cannot be written.
Exit 2 comes only from MorsePolyError; any other exception is a bug and
propagates.

Commands import the index, geometry and generator modules inside their own
bodies, so a run loads and compiles only the modules its command runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import jsonio
from .complexes import (
    FacePoset,
    critical_by_dimension,
    dimension_morse,
    face_poset_cellular,
    face_poset_simplicial,
)
from .errors import Mismatch, MorsePolyError
from .morse import MorseFunction, classify, normalize
from .poset import (
    ParityRank,
    Poset,
    Record,
    build_poset,
    chain_counts,
    compute_parity_rank,
    is_downward_eulerian,
    is_two_wide,
)

INPUT_ERRORS_EXIT = 2
MISMATCH_EXIT = 1


class LoadedInput(Record):
    __slots__ = ("kind", "poset", "face")
    kind: str  # "poset" | "simplicial" | "cellular"
    poset: Poset
    face: FacePoset | None
    _defaults = {"face": None}


def _load_input(path: str) -> LoadedInput:
    obj = jsonio.load_document(path)
    kind = jsonio.detect_kind(obj)
    if kind == "poset":
        elements, covers = jsonio.poset_from_obj(obj)
        return LoadedInput(kind="poset", poset=build_poset(elements, covers))
    spec = jsonio.complex_from_obj(obj)
    face = face_poset_simplicial(spec) if kind == "simplicial" else face_poset_cellular(spec)
    return LoadedInput(kind=kind, poset=face.poset, face=face)


def _load_morse(args: argparse.Namespace, loaded: LoadedInput) -> MorseFunction:
    if args.morse_path is not None:
        return jsonio.morse_from_obj(jsonio.load_document(args.morse_path))
    if loaded.face is not None:
        return dimension_morse(loaded.poset, loaded.face.rank)
    raise MorsePolyError(
        "--morse is required for poset inputs (complex inputs default to the "
        "dimension function)"
    )


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MorsePolyError(f"cannot write {path}: {exc}") from exc


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.output_path:
        _write(args.output_path, payload)
    else:
        sys.stdout.write(payload)


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
            "values": {e: mu.values[e] for e in sorted(poset.elements)},
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


def cmd_check(args: argparse.Namespace) -> int:
    loaded = _load_input(args.input_path)
    payload = _check_payload(loaded)
    if args.fmt == "json":
        _emit(args, jsonio.dumps_canonical(payload))
    else:
        _emit(args, _check_text(payload))
    if args.strict and not payload["all_hold"]:
        return MISMATCH_EXIT
    return 0


def cmd_euler(args: argparse.Namespace) -> int:
    loaded = _load_input(args.input_path)
    counts = chain_counts(loaded.poset)
    payload = {
        "element_count": len(loaded.poset),
        "simplex_count": sum(counts),
        "simplices_by_dimension": list(counts),
        "euler_characteristic": sum(counts[0::2]) - sum(counts[1::2]),
    }
    if args.fmt == "json":
        _emit(args, jsonio.dumps_canonical(payload))
    else:
        _emit(
            args,
            f"order complex: {payload['simplex_count']} simplices over "
            f"{payload['element_count']} vertices (by dimension: {counts})\n"
            f"Euler characteristic: {payload['euler_characteristic']}\n",
        )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    loaded = _load_input(args.input_path)
    f = _load_morse(args, loaded)
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
        _emit(args, jsonio.dumps_canonical(payload))
    else:
        lines = [f"critical: {len(critical)}, ordinary: {payload['counts']['ordinary']}"]
        for e, verdict in sorted(classification.verdicts.items()):
            if verdict == "critical":
                lines.append(f"  {e}: critical")
            else:
                neighbor, direction = classification.witnesses[e]
                lines.append(f"  {e}: ordinary (witness {neighbor} {direction})")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    loaded = _load_input(args.input_path)
    f = _load_morse(args, loaded)
    g = normalize(loaded.poset, f)
    if args.fmt == "json":
        _emit(args, jsonio.dumps_canonical(jsonio.morse_to_obj(g)))
    else:
        lines = [f"{e}: {jsonio.format_rational(v)}" for e, v in g.sorted_items()]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    from .chain_index import verify_representation

    loaded = _load_input(args.input_path)
    f = _load_morse(args, loaded)
    report = verify_representation(loaded.poset, f)
    payload = jsonio.index_report_to_obj(report)
    if args.fmt == "json":
        _emit(args, jsonio.dumps_canonical(payload))
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
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    from .geometry import embed_vertices

    loaded = _load_input(args.input_path)
    f = _load_morse(args, loaded)
    g = normalize(loaded.poset, f)
    embedding = embed_vertices(loaded.poset, g)
    payload = jsonio.embedding_to_obj(embedding)
    if args.csv_path:
        _write(args.csv_path, jsonio.embedding_to_csv(embedding))
    if args.fmt == "json":
        _emit(args, jsonio.dumps_canonical(payload))
    else:
        lines = [f"dimension: {embedding.dimension}"]
        for e in sorted(embedding.coordinates):
            coords = ", ".join(jsonio.format_rational(x) for x in embedding.coordinates[e])
            lines.append(f"{e}: ({coords})")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .chain_index import verify_representation
    from .geometry import compare_indices, embed_vertices, lower_star_indices

    loaded = _load_input(args.input_path)
    poset = loaded.poset
    f = _load_morse(args, loaded)
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
    if args.fmt == "json":
        _emit(args, jsonio.dumps_canonical(payload))
    else:
        lines = [f"status: {payload['status']}"]
        for entry in payload["entries"]:
            lines.append(
                f"  {entry['element']}: index {entry['computed']} "
                f"(predicted {entry['predicted']}, geometric {entry['geometric']}, "
                f"{'critical' if entry['critical'] else 'ordinary'})"
            )
        totals = payload["totals"]
        lines.append(
            f"sum {totals['sum']} = chi {totals['euler_characteristic']}; "
            f"N0 - N1 = {totals['n_even_critical']} - {totals['n_odd_critical']}"
        )
        if "critical_by_dimension" in payload:
            lines.append(f"critical cells by dimension: {payload['critical_by_dimension']}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if geometry_ok else MISMATCH_EXIT


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import gen_complex, gen_morse

    if args.kind == "complex":
        spec = gen_complex(args.seed, args.vertices, args.dimension, args.density)
        _emit(args, jsonio.dumps_canonical(jsonio.complex_to_obj(spec)))
        return 0
    if args.kind == "morse":
        if not args.input_path:
            raise MorsePolyError("gen --kind morse requires --in POSET_OR_COMPLEX")
        loaded = _load_input(args.input_path)
        f = gen_morse(args.seed, loaded.poset)
        _emit(args, jsonio.dumps_canonical(jsonio.morse_to_obj(f)))
        return 0
    raise MorsePolyError(f"unknown gen kind {args.kind!r}")


_COMMANDS = {
    "check": cmd_check,
    "euler": cmd_euler,
    "classify": cmd_classify,
    "normalize": cmd_normalize,
    "index": cmd_index,
    "embed": cmd_embed,
    "verify": cmd_verify,
    "gen": cmd_gen,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsepoly",
        description=(
            "Discrete Morse functions on finite posets: structural checks, "
            "classification, normalization, critical-point indices, and exact "
            "geometric verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, needs_input: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if needs_input:
            p.add_argument("--in", dest="input_path", required=True, metavar="FILE",
                           help="poset or complex JSON file")
        p.add_argument("--out", dest="output_path", metavar="FILE",
                       help="write the report here instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
        return p

    add("check", "report the three structural poset properties")
    add("euler", "Euler characteristic of the order complex")
    for name, help_ in (
        ("classify", "critical/ordinary verdict per element"),
        ("normalize", "equivalent injective, obstruction-free function"),
        ("index", "per-element indices and totals (combinatorial)"),
        ("embed", "exact coordinates for the order complex"),
        ("verify", "full combinatorial + geometric verification"),
    ):
        p = add(name, help_)
        p.add_argument("--morse", dest="morse_path", metavar="FILE",
                       help="function JSON file (complex inputs default to dimension)")
        if name == "embed":
            p.add_argument("--csv", dest="csv_path", metavar="FILE",
                           help="also write coordinates as CSV")
    p = add("gen", "seeded generators for complexes and functions", needs_input=False)
    p.add_argument("--in", dest="input_path", metavar="FILE",
                   help="poset or complex file (required for --kind morse)")
    p.add_argument("--kind", choices=("complex", "morse"), default="complex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, default=5)
    p.add_argument("--dim", dest="dimension", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)

    sub.choices["check"].add_argument(
        "--strict", action="store_true",
        help="exit 1 when any structural property fails",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Mismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return MISMATCH_EXIT
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return MISMATCH_EXIT
    except MorsePolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERRORS_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
