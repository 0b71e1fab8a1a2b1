"""Benchmark: seconds to a verdict from the morsepoly CLI on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload surface_verify --seed 1 --seconds 25 --trace 0

One client drives `python -m morsepoly.cli` in a closed loop: each request
starts only after the previous one has exited.  The loop runs whole passes
over the workload's inputs for about --seconds seconds, at least one pass.
Each request runs between two host-speed probes, and its time is reported
scaled by them (see Sample.scaled and bench/README.md).  Every output is judged by an oracle that does not use the package (see
oracle.py).  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 the subprocess loop is skipped and the
in-process passes of layers.py give the per-layer metrics instead.
Per-input details (times, SHA-256 of each output, exact counts) and the
spans go to .bench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
REQUEST_TIMEOUT_S = 60
# About 10 ms on an idle core: short enough to run around every request.
PROBE_ITERATIONS = 4000
# Timings are reported as seconds on a core that runs the probe in this time.
PROBE_REFERENCE_S = 0.010
# Nearest-rank p90 has ten samples beyond it only from 100 samples on.
P90_MIN_SAMPLES = 100

UNITS = {
    "setup_s": "s", "run_s": "s", "request_s_p50": "s", "request_s_p90": "s",
    "largest_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio",
}


def host_probe() -> float:
    """Seconds for a fixed stdlib-only Fraction/dict loop: the host's speed right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(1, PROBE_ITERATIONS + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i % 997] = acc.numerator % 1000003
    return time.perf_counter() - start


@dataclass
class Sample:
    """Seconds for one timed step, and the host probe around it."""

    seconds: float
    probe_s: float  # mean of the probes just before and just after the step

    def scaled(self) -> float:
        """The seconds the step would take on a core that runs the probe in PROBE_REFERENCE_S."""
        return self.seconds * PROBE_REFERENCE_S / self.probe_s


def probed(step, probes: list[float]):
    """Run step() between two host probes; return its Sample and its result."""
    before = host_probe()
    start = time.perf_counter()
    result = step()
    elapsed = time.perf_counter() - start
    after = host_probe()
    probes += [before, after]
    return Sample(elapsed, (before + after) / 2), result


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(argv: list[str], env) -> tuple[float, int, bytes, bytes]:
    """One request: seconds from spawn to exit, exit code, stdout, stderr."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = -1
        err += b"\ntimed out"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return time.perf_counter() - start, code, out, err


def request_argv(req) -> list[str]:
    return ["-m", "morsepoly.cli", *req.argv()]


def judge(req, code: int, out: bytes, err: bytes) -> str | None:
    """None when the request passed, else why it failed."""
    reason = oracle.check_request(code, out, err)
    if reason is None and req.command == "verify":
        reason = oracle.check_verify(out, req.maximal_simplices, req.chi)
    elif reason is None:
        reason = oracle.check_morse(out, req.maximal_simplices)
    return reason


class Tally:
    """Attempted and failed requests; every failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}: {reason}")


def self_test(req, out: bytes) -> tuple[str, list[str]]:
    """Tampered copies of a passing payload must all count as failed requests."""
    tamper = oracle.tampered_verify_payloads if req.command == "verify" else oracle.tampered_morse_payloads
    tally = Tally()
    for label, payload in tamper(out):
        tally.record(label, judge(req, 0, payload, b""))
    passed = tally.attempted - len(tally.failures)
    note = f"self-test: {len(tally.failures)} of {tally.attempted} tampered payloads counted as failed"
    return note, [f"self-test: {passed} tampered payloads passed the oracle"] if passed else []


@dataclass
class Setup:
    sample: Sample
    requests: list
    warm: tuple[float, int, bytes, bytes]
    files: dict[str, str]


def setup(build, seed: int, workdir: Path, env, probes: list[float]) -> Setup:
    """Write the inputs from the seed, then one untimed warm-up request."""
    def write_and_warm():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        requests = build(seed, workdir)
        return requests, run_cli(request_argv(requests[0]), env)

    sample, (requests, warm) = probed(write_and_warm, probes)
    files = {p.name: sha256(p.read_bytes()) for p in sorted(workdir.iterdir())}
    return Setup(sample, requests, warm, files)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_loop(requests, seconds: float, env, tally: Tally, probes: list[float]):
    samples: dict[str, list[Sample]] = {r.name: [] for r in requests}
    digests: dict[str, set[str]] = {r.name: set() for r in requests}
    bytes_out: dict[str, int] = {}
    spent = 0.0
    passes = 0
    while True:
        start = time.perf_counter()
        for req in requests:
            sample, (_, code, out, err) = probed(lambda: run_cli(request_argv(req), env), probes)
            tally.record(req.name, judge(req, code, out, err))
            samples[req.name].append(sample)
            digests[req.name].add(sha256(out))
            bytes_out[req.name] = len(out)
        spent += time.perf_counter() - start
        passes += 1
        if spent + spent / passes > seconds:
            return samples, digests, bytes_out, passes


def end_to_end(args, workloads, env):
    problems: list[str] = []
    build = workloads.WORKLOADS[args.workload]
    probes: list[float] = []
    setups = [setup(build, args.seed, WORK / args.workload, env, probes) for _ in range(SETUP_REPEATS)]
    requests, (_, code, warm, err) = setups[0].requests, setups[0].warm
    if any(s.files != setups[0].files for s in setups):
        problems.append("setup wrote different input bytes from the same seed")
    if any(s.warm[2] != warm for s in setups):
        problems.append("warm-up outputs differ between setups")
    reason = judge(requests[0], code, warm, err)
    if reason is not None:
        problems.append(f"warm-up {requests[0].name}: {reason}")
        self_test_note = "self-test: skipped, the warm-up failed"
    else:
        self_test_note, failed = self_test(requests[0], warm)
        problems += failed

    tally = Tally()
    samples, digests, bytes_out, passes = timed_loop(requests, args.seconds, env, tally, probes)
    for name, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"{name}: {len(seen)} different outputs over {passes} passes")
    if digests[requests[0].name] != {sha256(warm)}:
        problems.append("warm-up and timed outputs differ")
    for req in requests:
        if req.command == "gen":
            expected = workloads.morse_document(req.maximal_simplices, req.gen_seed)
            if digests[req.name] != {sha256(expected.encode("utf-8"))}:
                problems.append(f"{req.name}: CLI output differs from in-process gen_morse")

    # A shared host runs each core in a fast mode or in one about twice as
    # slow, switching every second or so.  Every timed step is scaled by the
    # probes around it to a core of fixed speed (see Sample.scaled); scaling
    # to the run's own fastest probe would add that probe's noise.  Each
    # input's scaled samples are pooled by their mean.
    means = {name: statistics.fmean(s.scaled() for s in ss) for name, ss in samples.items()}
    raw = {name: statistics.fmean(s.seconds for s in ss) for name, ss in samples.items()}
    metrics = {
        "setup_s": statistics.median(s.sample.scaled() for s in setups),
        "run_s": sum(means.values()),
        "request_s_p50": statistics.median(means.values()),
        "request_s_p90": quantile(list(means.values()), 0.9),
        "largest_s": statistics.median(means[r.name] for r in requests if r.largest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "pass_ratio": (tally.attempted - len(tally.failures)) / tally.attempted,
    }
    notes = [
        f"closed loop, one client: {tally.attempted} requests in {passes} passes over "
        f"{len(requests)} inputs",
        f"setup_s is the median of {SETUP_REPEATS} scaled setups; unscaled: "
        + ", ".join(f"{s.sample.seconds:.4f}" for s in setups),
        f"unscaled run_s {sum(raw.values()):.4f}, request_s_p50 {statistics.median(raw.values()):.4f}",
        self_test_note,
        f"fail_ratio {len(tally.failures)}/{tally.attempted}",
        f"host.probe_s median {statistics.median(probes):.4f} "
        f"(fastest {min(probes):.4f}, slowest {max(probes):.4f}, {len(probes)} probes); "
        f"timings are scaled to a {PROBE_REFERENCE_S} s probe",
    ]
    if len(means) < P90_MIN_SAMPLES:
        notes.append(f"request_s_p90 rests on {len(means)} inputs, fewer than "
                     f"{P90_MIN_SAMPLES}: fewer than ten lie beyond it")
    per_input = {
        r.name: {"seconds": [s.seconds for s in samples[r.name]],
                 "probe_s": [s.probe_s for s in samples[r.name]],
                 "scaled_mean_s": means[r.name], "unscaled_mean_s": raw[r.name],
                 "sha256": sorted(digests[r.name]), "bytes_in": r.bytes_in(),
                 "bytes_out": bytes_out[r.name], "faces": len(oracle.faces(r.maximal_simplices)),
                 "largest": r.largest}
        for r in requests
    }
    details = {"inputs": per_input, "host_probe_s": probes,
               "setup_s": [s.sample.seconds for s in setups],
               "setup_probe_s": [s.sample.probe_s for s in setups]}
    return metrics, {k: UNITS[k] for k in metrics}, tally, problems, notes, details


def per_layer(args, workloads, env):
    import layers

    problems: list[str] = []
    probes: list[float] = []
    prepared = setup(workloads.WORKLOADS[args.workload], args.seed, WORK / args.workload, env, probes)
    requests, warm = prepared.requests, prepared.warm[2]
    startup = statistics.median(
        run_cli(["-c", "import morsepoly.cli"], env)[0] for _ in range(STARTUP_REPEATS)
    )
    layers.inproc_request(requests[0])  # untimed: lets in-process lazy set-up finish
    # Each request runs traced and untraced back to back, in alternating
    # order, so host drift cancels out of their difference.
    traced = layers.Tracer()
    loaded = {}
    tally = Tally()
    inproc = 0.0
    for k, req in enumerate(requests):
        if k % 2:
            loaded[req.name] = layers.traced_request(traced, req)
        elapsed, code, text = layers.inproc_request(req)
        if not k % 2:
            loaded[req.name] = layers.traced_request(traced, req)
        inproc += elapsed
        tally.record(req.name, judge(req, code, text.encode("utf-8"), b""))
        if text != loaded[req.name].text:
            problems.append(f"{req.name}: traced serialization differs from cli.main output")
    probes.append(host_probe())
    isolated = layers.Tracer()
    counts = {r.name: layers.isolated_request(isolated, r, loaded[r.name]) for r in requests}
    probes.append(host_probe())
    if warm != loaded[requests[0].name].text.encode("utf-8"):
        problems.append("CLI subprocess output differs from the traced serialization")
    for req in requests:
        first, second = loaded[req.name].counts, counts[req.name]
        for key in first.keys() & second.keys():
            if first[key] != second[key]:
                problems.append(f"{req.name}: {key} is {first[key]} traced, {second[key]} isolated")

    def total(key: str, source=counts) -> int:
        return sum(c.get(key, 0) for c in source.values())

    metrics: dict[str, float] = {
        "cli.startup_s": startup,
        "cli.verify_inproc_s": inproc,
        "jsonio.parse_s": traced.self_time("jsonio.parse"),
        "jsonio.serialize_s": traced.self_time("jsonio.serialize"),
        "jsonio.bytes_in": total("bytes_in", {n: l.counts for n, l in loaded.items()}),
        "jsonio.bytes_out": total("bytes_out", {n: l.counts for n, l in loaded.items()}),
    }
    for name in layers.ISOLATED_SPANS:
        metrics[f"{name}_s"] = isolated.self_time(name)
    for key in ("elements", "covers", "comparable_pairs", "order_complex_simplices"):
        metrics[f"poset.{key}"] = total(key)
    metrics["morse.modifications"] = sum(total(f"modifications.{s}") for s in layers.SWEEPS)
    for sweep in layers.SWEEPS:
        metrics[f"morse.modifications.{sweep}"] = total(f"modifications.{sweep}")
    metrics["morse.critical"] = total("critical")
    metrics["trace.overhead_s"] = traced.root_time() - inproc
    metrics["host.probe_s"] = statistics.median(probes)
    units = {k: "s" if k.endswith("_s") else "bytes" if "bytes" in k else "count" for k in metrics}

    notes = [
        "one thread throughout: no layer waits on another, so there is no waiting time to report",
        f"traced pass, self time per span over {len(requests)} requests: "
        + ", ".join(f"{k} {v:.4f}" for k, v in traced.self_times().items()),
        "host.probe_s, around set-up and each pass: " + ", ".join(f"{p:.4f}" for p in probes),
        f"cli.verify_inproc_s runs `{requests[0].command}` through cli.main",
    ]
    spans = {"traced": traced.to_json(), "isolated": isolated.to_json()}
    (WORK / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans))
    details = {
        "inputs": {
            r.name: {"traced": loaded[r.name].counts, "isolated": counts[r.name],
                     "sha256": sha256(loaded[r.name].text.encode("utf-8"))}
            for r in requests
        },
        "host_probe_s": probes,
    }
    return metrics, units, tally, problems, notes, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload in both trace modes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the request it is waiting on (see run_cli).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The benchmark and every process it starts share one core, so the host
    # probes measure the core that the requests run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "morsepoly" / "cli.py").is_file():
        print(f"bench: no morsepoly package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import morsepoly
    if Path(morsepoly.__file__).resolve().parent != SRC / "morsepoly":
        print(f"bench: imported morsepoly from {morsepoly.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        runs = [[sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)]
                for name in workloads.WORKLOADS for trace in (0, 1)]
        return max(subprocess.run(run).returncode for run in runs)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    measure = per_layer if args.trace else end_to_end
    metrics, units, tally, problems, notes, details = measure(args, workloads, child_env())
    correct = not tally.failures and not problems
    for line in notes + tally.failures + problems:
        print(line)
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    details.update(workload=args.workload, seed=args.seed, trace=args.trace, metrics=metrics,
                   failures=tally.failures, problems=problems)
    results = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(details, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
