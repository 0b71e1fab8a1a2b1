"""The benchmark's workloads: seeded input ladders written to disk.

Each workload is a list of requests; the ladders run from small to large.
Building one from a seed writes every input file the program will read;
the program never sees anything else.  Per-input seeds are derived as
seed * 1000 + k, so the same seed always writes the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from morsepoly import jsonio
from morsepoly.complexes import ComplexSpec, face_poset_simplicial
from morsepoly.generators import gen_complex, gen_morse

import oracle


@dataclass(frozen=True)
class Request:
    """One CLI invocation, with what the oracle needs to judge its output."""

    name: str
    command: str  # "verify" or "gen"
    complex_path: Path
    maximal_simplices: tuple[tuple[str, ...], ...]
    chi: int
    morse_path: Path | None = None
    gen_seed: int | None = None
    largest: bool = False

    def argv(self) -> list[str]:
        if self.command == "gen":
            return ["gen", "--kind", "morse", "--seed", str(self.gen_seed),
                    "--in", str(self.complex_path)]
        argv = ["verify", "--in", str(self.complex_path)]
        if self.morse_path is not None:
            argv += ["--morse", str(self.morse_path)]
        return argv

    def bytes_in(self) -> int:
        size = self.complex_path.stat().st_size
        return size + (self.morse_path.stat().st_size if self.morse_path else 0)


def torus(m: int) -> tuple[tuple[str, ...], ...]:
    """m x m grid torus, each square cut along its diagonal: 6 m^2 faces, chi 0."""
    def v(i: int, j: int) -> str:
        return f"{i % m}_{j % m}"
    triangles = []
    for i in range(m):
        for j in range(m):
            triangles.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            triangles.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return tuple(tuple(sorted(t)) for t in triangles)


def circle(length: int) -> tuple[tuple[str, ...], ...]:
    """Cycle of `length` edges: 2 * length faces, chi 0."""
    return tuple(tuple(sorted((str(i), str((i + 1) % length)))) for i in range(length))


def simplex(dim: int) -> tuple[tuple[str, ...], ...]:
    """The full dim-simplex: 2^(dim+1) - 1 faces, chi 1."""
    return (tuple(str(i) for i in range(dim + 1)),)


def _write_complex(path: Path, maximal) -> None:
    spec = ComplexSpec(kind="simplicial", maximal_simplices=tuple(maximal))
    path.write_text(jsonio.dumps_canonical(jsonio.complex_to_obj(spec)), encoding="utf-8")


def morse_document(maximal, seed: int) -> str:
    """The seeded gen_morse function on the complex, serialized as the CLI does."""
    spec = ComplexSpec(kind="simplicial", maximal_simplices=tuple(maximal))
    f = gen_morse(seed, face_poset_simplicial(spec).poset)
    return jsonio.dumps_canonical(jsonio.morse_to_obj(f))


def _write_morse(path: Path, maximal, seed: int) -> None:
    path.write_text(morse_document(maximal, seed), encoding="utf-8")


def _verify_ladder(seed, workdir, rungs, chi) -> list[Request]:
    """`verify` on each rung twice: dimension function, then a seeded gen_morse one."""
    requests = []
    for k, (name, maximal) in enumerate(rungs):
        path = workdir / f"{name}.json"
        _write_complex(path, maximal)
        morse = workdir / f"{name}.morse.json"
        _write_morse(morse, maximal, seed * 1000 + k)
        rung = dict(maximal_simplices=maximal, chi=chi, gen_seed=seed * 1000 + k)
        requests.append(Request(f"{name}/dim", "verify", path, largest=k == len(rungs) - 1, **rung))
        requests.append(Request(f"{name}/gen_morse", "verify", path, morse_path=morse, **rung))
    return requests


def surface_verify(seed: int, workdir: Path) -> list[Request]:
    return _verify_ladder(seed, workdir, [(f"torus{m}", torus(m)) for m in SURFACE_M], 0)


def simplex_verify(seed: int, workdir: Path) -> list[Request]:
    return _verify_ladder(seed, workdir, [(f"simplex{d}", simplex(d)) for d in SIMPLEX_DIMS], 1)


def corpus_verify(seed: int, workdir: Path) -> list[Request]:
    requests = []
    for k in range(CORPUS_SIZE):
        spec = gen_complex(seed * 1000 + k, 6 + k % 3, 2 + (k // 3) % 2, 0.4)
        maximal = spec.maximal_simplices
        path = workdir / f"corpus{k:03d}.json"
        _write_complex(path, maximal)
        morse = workdir / f"corpus{k:03d}.morse.json"
        _write_morse(morse, maximal, seed * 1000 + k)
        requests.append(Request(
            f"corpus{k:03d}", "verify", path, maximal,
            oracle.euler_characteristic(maximal), morse_path=morse, gen_seed=seed * 1000 + k,
        ))
    # The corpus has no single top rung: its largest inputs are the quarter
    # with the most faces, which gives largest_s 25 samples in its one pass.
    size = {r.name: len(oracle.faces(r.maximal_simplices)) for r in requests}
    top = set(sorted(size, key=lambda name: (-size[name], name))[: CORPUS_SIZE // 4])
    return [replace(r, largest=r.name in top) for r in requests]


def morse_gen(seed: int, workdir: Path) -> list[Request]:
    rungs = [("torus4", torus(4)), ("circle100", circle(100)),
             ("torus5", torus(5)), ("circle150", circle(150))]
    requests = []
    for k, (name, maximal) in enumerate(rungs):
        path = workdir / f"{name}.json"
        _write_complex(path, maximal)
        requests.append(Request(name, "gen", path, maximal, 0, gen_seed=seed * 1000 + k,
                                largest=k == len(rungs) - 1))
    return requests


# Ladders are trimmed so that one pass takes a few seconds on a 2-core host
# even when other tenants slow it down; every input is then timed at least
# five times per 25 s run, and its median rides out bursts of contention.
SURFACE_M = (3, 4, 5)
SIMPLEX_DIMS = (3, 4, 5)
CORPUS_SIZE = 100

WORKLOADS = {
    "surface_verify": surface_verify,
    "simplex_verify": simplex_verify,
    "corpus_verify": corpus_verify,
    "morse_gen": morse_gen,
}
