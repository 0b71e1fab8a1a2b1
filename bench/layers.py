"""Per-layer timings and counts, measured in-process from outside the package.

Three passes run over a workload's inputs:

- the traced pass: one root span per request that mirrors `cmd_verify` (or
  `cmd_gen`), with one child span per library call it makes, in order;
- the isolated-stage pass: every public function the per-layer metrics name,
  called once per input on the same objects, so that work `verify` repeats
  internally shows up against the cost of doing it once;
- the in-process CLI pass: `cli.main` on the same arguments, tracing off.

Spans are kept in memory and written out by the caller.  Everything runs on
one thread, so no layer ever waits on another: self time is all busy time.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

from morsepoly import cli, jsonio
from morsepoly.chain_index import check_hypotheses, combinatorial_index, verify_representation
from morsepoly.complexes import dimension_morse, face_poset_simplicial, morse_inequality_report
from morsepoly.generators import gen_complex, gen_morse
from morsepoly.geometry import cross_check, embed_vertices, geometric_index, realize_complex
from morsepoly.morse import classify, find_troubled, normalize_trace
from morsepoly.poset import (
    build_poset,
    compute_parity_rank,
    is_downward_eulerian,
    is_two_wide,
    order_complex,
)

SWEEPS = ("up_sweep", "down_sweep", "spread_sweep")
# Span names of the isolated-stage pass, each reported as "<name>_s".
ISOLATED_SPANS = (
    "complexes.face_poset_simplicial",
    "complexes.morse_inequality_report",
    "poset.build_poset",
    "poset.is_two_wide",
    "poset.compute_parity_rank",
    "poset.is_downward_eulerian",
    "poset.order_complex",
    "chain_index.check_hypotheses",
    "chain_index.combinatorial_index",
    "chain_index.verify_representation",
    "morse.classify",
    "morse.normalize",
    "morse.find_troubled",
    "geometry.embed_vertices",
    "geometry.realize_complex",
    "geometry.geometric_index",
    "geometry.cross_check",
    "generators.gen_complex",
    "generators.gen_morse",
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    request: str
    name: str
    start: float
    end: float = 0.0
    children_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, request: str):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent and parent.span_id, request, name,
                    time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.children_s += span.end - span.start

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    def to_json(self) -> list[dict]:
        return [
            {"id": s.span_id, "parent": s.parent, "request": s.request, "name": s.name,
             "start": s.start, "end": s.end, "self_s": s.self_s}
            for s in self.spans
        ]


def _comparable_pairs(poset) -> int:
    return sum(len(poset.strict_up_set(e)) for e in poset.elements)


def _modifications(trace) -> dict[str, int]:
    counts = {f"modifications.{sweep}": 0 for sweep in SWEEPS}
    for m in trace.modifications:
        counts[f"modifications.{m.stage}"] += 1
    return counts


@dataclass
class Loaded:
    """What the traced pass parsed for one request, reused by the isolated pass."""

    spec: object
    f: object
    text: str
    counts: dict


def _verify_payload(report, geo, inequality) -> dict:
    """The `verify` payload, built as `cli.cmd_verify` builds it."""
    payload = {
        "status": "verified" if geo.ok else "mismatch",
        "entries": [
            {"element": e.element, "computed": e.computed, "predicted": e.predicted,
             "geometric": geo.indices.get(e.element, e.computed), "critical": e.critical}
            for e in report.entries
        ],
        "totals": {"sum": report.total, "euler_characteristic": report.chi,
                   "n_even_critical": report.n_even, "n_odd_critical": report.n_odd},
        "critical_by_dimension": list(inequality.counts),
    }
    if not geo.ok:
        payload["mismatches"] = [
            {"element": e, "geometric": g, "combinatorial": c} for e, g, c in geo.mismatches
        ]
    return payload


def traced_request(tracer: Tracer, req) -> Loaded:
    """One request in-process, one span per library call `cmd_verify`/`cmd_gen` makes."""
    span = tracer.span
    with span(f"cli.{req.command}", req.name):
        with span("jsonio.parse", req.name):
            spec = jsonio.complex_from_obj(jsonio.load_document(req.complex_path))
            f = None
            if req.morse_path is not None:
                f = jsonio.morse_from_obj(jsonio.load_document(req.morse_path))
        with span("complexes.face_poset_simplicial", req.name):
            face = face_poset_simplicial(spec)
        poset = face.poset
        counts = {"elements": len(poset), "covers": len(poset.covers)}
        if req.command == "gen":
            with span("generators.gen_morse", req.name):
                f = gen_morse(req.gen_seed, poset)
            with span("jsonio.serialize", req.name):
                text = jsonio.dumps_canonical(jsonio.morse_to_obj(f))
        else:
            if f is None:
                f = dimension_morse(poset, face.rank)
            with span("chain_index.verify_representation", req.name):
                report = verify_representation(poset, f)
            with span("morse.normalize", req.name):
                trace = normalize_trace(poset, f)
            with span("geometry.cross_check", req.name):
                geo = cross_check(poset, trace.result)
            with span("complexes.morse_inequality_report", req.name):
                inequality = morse_inequality_report(poset, face.rank, f)
            with span("jsonio.serialize", req.name):
                text = jsonio.dumps_canonical(_verify_payload(report, geo, inequality))
            counts.update(_modifications(trace))
            counts["critical"] = report.n_even + report.n_odd
    counts["comparable_pairs"] = _comparable_pairs(poset)
    counts["bytes_in"] = req.bytes_in()
    counts["bytes_out"] = len(text.encode("utf-8"))
    return Loaded(spec, f, text, counts)


def isolated_request(tracer: Tracer, req, loaded: Loaded) -> dict:
    """Every public function the per-layer metrics name, once, on this input."""
    span, name = tracer.span, req.name
    f = loaded.f
    with span("isolated", name):
        with span("complexes.face_poset_simplicial", name):
            face = face_poset_simplicial(loaded.spec)
        with span("poset.build_poset", name):
            poset = build_poset(sorted(face.poset.elements), sorted(face.poset.covers))
        with span("poset.is_two_wide", name):
            is_two_wide(poset)
        with span("poset.compute_parity_rank", name):
            mu = compute_parity_rank(poset)
        with span("poset.is_downward_eulerian", name):
            is_downward_eulerian(poset, mu)
        with span("poset.order_complex", name):
            complex_ = order_complex(poset)
        with span("chain_index.check_hypotheses", name):
            check_hypotheses(poset)
        with span("morse.classify", name):
            critical = classify(poset, f).critical_set()
        with span("morse.normalize", name):
            trace = normalize_trace(poset, f)
        g = trace.result
        with span("morse.find_troubled", name):
            find_troubled(poset, f)
        with span("chain_index.combinatorial_index", name):
            for b in poset.sorted_elements:
                combinatorial_index(poset, g, b)
        with span("chain_index.verify_representation", name):
            verify_representation(poset, f)
        with span("geometry.embed_vertices", name):
            embedding = embed_vertices(poset, g)
        with span("geometry.realize_complex", name):
            geometric = realize_complex(poset, embedding)
        with span("geometry.geometric_index", name):
            for b in poset.sorted_elements:
                geometric_index(geometric, b)
        with span("geometry.cross_check", name):
            cross_check(poset, g)
        with span("complexes.morse_inequality_report", name):
            morse_inequality_report(poset, face.rank, f)
        with span("generators.gen_morse", name):
            gen_morse(req.gen_seed, poset)
        # A seeded complex with this input's vertex count and dimension.
        vertices = {v for s in loaded.spec.maximal_simplices for v in s}
        top = max(len(s) for s in loaded.spec.maximal_simplices) - 1
        with span("generators.gen_complex", name):
            gen_complex(req.gen_seed, len(vertices), top, 0.4)
    counts = {
        "elements": len(poset),
        "covers": len(poset.covers),
        "comparable_pairs": _comparable_pairs(poset),
        "order_complex_simplices": len(complex_.simplices),
        "critical": len(critical),
    }
    counts.update(_modifications(trace))
    return counts


def inproc_request(req) -> tuple[float, int, str]:
    """`cli.main` in-process with tracing off: seconds, exit code, stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = cli.main(req.argv())
        elapsed = time.perf_counter() - start
    return elapsed, code, buffer.getvalue()
