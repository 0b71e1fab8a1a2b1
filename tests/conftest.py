"""Shared fixtures: the small named posets used throughout the suite, and
stdlib builders of grid tori, d-cubes and cubical tori."""

from __future__ import annotations

import itertools

import pytest

from morsepoly import (
    CellSpec,
    ComplexSpec,
    MorseFunction,
    build_poset,
    face_poset_cellular,
    face_poset_simplicial,
)


@pytest.fixture
def edge_poset():
    """One abstract edge: two vertices a, b under a top cell e."""
    return build_poset(["a", "b", "e"], [("a", "e"), ("b", "e")])


@pytest.fixture
def chain_poset():
    """The total order 0 < 1 < 2 (not 2-wide)."""
    return build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])


@pytest.fixture
def chain_morse():
    """f(x) = 2 - x on the chain poset: valid but violating exclusivity."""
    return MorseFunction.from_values({"0": 2, "1": 1, "2": 0})


@pytest.fixture
def triangle():
    """Face poset of a solid triangle: 3 vertices, 3 edges, 1 face."""
    return face_poset_simplicial(
        ComplexSpec(kind="simplicial", maximal_simplices=(("1", "2", "3"),))
    )


@pytest.fixture
def segment():
    """Face poset of a single segment {1, 2}."""
    return face_poset_simplicial(
        ComplexSpec(kind="simplicial", maximal_simplices=(("1", "2"),))
    )


def build_two_cycles_spec() -> ComplexSpec:
    """A 2-cell m whose declared boundary is two disjoint 4-cycles.

    The resulting poset passes all three structural checks, yet it is not the
    face poset of a regular cell complex: the order complex of m's strict
    boundary is disconnected, not a sphere.
    """
    cells = []
    for c in (1, 2):
        for i in range(4):
            cells.append(CellSpec(id=f"v{c}{i}", dim=0, boundary=()))
        for i in range(4):
            cells.append(
                CellSpec(id=f"e{c}{i}", dim=1, boundary=(f"v{c}{i}", f"v{c}{(i + 1) % 4}"))
            )
    boundary = tuple(f"e{c}{i}" for c in (1, 2) for i in range(4)) + tuple(
        f"v{c}{i}" for c in (1, 2) for i in range(4)
    )
    cells.append(CellSpec(id="m", dim=2, boundary=boundary))
    return ComplexSpec(kind="cellular", cells=tuple(cells))


def torus(m: int) -> ComplexSpec:
    """The m x m grid torus, each square cut along its diagonal (chi 0)."""

    def v(i: int, j: int) -> str:
        return f"{i % m}_{j % m}"

    triangles = []
    for i in range(m):
        for j in range(m):
            triangles.append(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
            triangles.append(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
    return ComplexSpec(kind="simplicial", maximal_simplices=tuple(triangles))


def cube(d: int) -> ComplexSpec:
    """The d-cube [0, 1]^d as a cellular complex (3^d cells, chi 1).

    A cell is a word over 0, 1 and I (the unit interval), one letter per
    axis; its dimension counts the I's, and its codimension-1 faces replace
    one I by 0 or by 1.
    """
    cells = []
    for word in itertools.product("01I", repeat=d):
        cell = "".join(word)
        boundary = tuple(
            f"c{cell[:i]}{end}{cell[i + 1:]}" for i, c in enumerate(cell) if c == "I" for end in "01"
        )
        cells.append(CellSpec(id=f"c{cell}", dim=cell.count("I"), boundary=boundary))
    return ComplexSpec(kind="cellular", cells=tuple(cells))


def cubical_torus(a: int, b: int) -> ComplexSpec:
    """The a x b grid of unit squares with opposite sides glued (4ab cells,
    chi 0), for a, b >= 3 so that no two edges share both endpoints."""
    if a < 3 or b < 3:
        raise ValueError("a cubical torus needs a, b >= 3")

    def v(i: int, j: int) -> str:
        return f"v{i % a}_{j % b}"

    cells = []
    for i in range(a):
        for j in range(b):
            cells += [
                CellSpec(id=v(i, j), dim=0, boundary=()),
                CellSpec(id=f"h{i}_{j}", dim=1, boundary=(v(i, j), v(i + 1, j))),
                CellSpec(id=f"w{i}_{j}", dim=1, boundary=(v(i, j), v(i, j + 1))),
                CellSpec(id=f"s{i}_{j}", dim=2, boundary=(
                    f"h{i}_{j}", f"h{i}_{(j + 1) % b}", f"w{i}_{j}", f"w{(i + 1) % a}_{j}",
                )),
            ]
    return ComplexSpec(kind="cellular", cells=tuple(cells))


# (name, spec, Euler characteristic) of the cubical inputs the suite runs.
CUBICAL = (
    ("cube3", cube(3), 1),
    ("cube4", cube(4), 1),
    ("cubical_torus4x4", cubical_torus(4, 4), 0),
    ("cubical_torus5x3", cubical_torus(5, 3), 0),
)


@pytest.fixture
def two_cycles():
    return face_poset_cellular(build_two_cycles_spec())


@pytest.fixture
def parity_conflict_poset():
    """c receives parity 1 via a and 0 via d, so no parity rank exists."""
    return build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "d"), ("d", "c")])


@pytest.fixture
def double_edge_poset():
    """a under two middles x, x2 under one top y (2-wide, not a face poset)."""
    return build_poset(
        ["a", "x", "x2", "y"],
        [("a", "x"), ("a", "x2"), ("x", "y"), ("x2", "y")],
    )
