"""Shared fixtures: the small named posets used throughout the suite,
stdlib builders of two bigons under one 2-cell, grid tori, d-cubes,
cubical tori, the cone over a cubical torus, products of complexes and
two uneven stacks of diamonds (2-wide with no parity rank), the mod-2
Betti numbers of a face poset, and Forman's Morse inequalities against
them."""

from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import strategies as st

from morsepoly import (
    CellSpec,
    ComplexSpec,
    InvalidMorseFunction,
    MorseFunction,
    build_poset,
    classify,
    face_poset_cellular,
    face_poset_simplicial,
    gen_complex,
)
from morsepoly.complexes import critical_by_dimension


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on the digits of an integer converted
    to or from text, whatever the environment set, for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


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


def two_bigons() -> ComplexSpec:
    """Two bigons under one 2-cell ``top`` (9 cells).  Each bigon is two
    vertices ``<s>0`` and ``<s>1`` and two edges ``<s>x`` and ``<s>y``, each
    edge bounded by both vertices; ``top`` is bounded by all four edges.

    Like :func:`build_two_cycles_spec` with 17 cells, the poset passes all
    three structural checks without being a CW poset: the strict down-set of
    ``top`` is two circles, not one.
    """
    cells = []
    for side in "ab":
        cells += [CellSpec(id=f"{side}{i}", dim=0, boundary=()) for i in "01"]
        cells += [CellSpec(id=f"{side}{j}", dim=1, boundary=(f"{side}0", f"{side}1"))
                  for j in "xy"]
    cells.append(CellSpec(id="top", dim=2, boundary=("ax", "ay", "bx", "by")))
    return ComplexSpec(kind="cellular", cells=tuple(cells))


def torus(m: int, d: int = 2) -> ComplexSpec:
    """The d-torus (Z_m)^d in its staircase (Freudenthal) triangulation,
    for m >= 3 (chi 0): one d-simplex per grid point x and order s of the
    axes, with vertices x, x + e_s1, x + e_s1 + e_s2, and so on.  For
    d = 2 it is the m x m grid torus, each square cut along its diagonal."""

    def v(point) -> str:
        return "_".join(str(c % m) for c in point)

    simplices = []
    for x in itertools.product(range(m), repeat=d):
        for axes in itertools.permutations(range(d)):
            point, vertices = list(x), [v(x)]
            for axis in axes:
                point[axis] += 1
                vertices.append(v(point))
            simplices.append(tuple(sorted(vertices)))
    return ComplexSpec(kind="simplicial", maximal_simplices=tuple(simplices))


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


def cubical_cone(n: int, dim: int) -> ComplexSpec:
    """The n^dim cubical dim-torus, n >= 3, with one cell ``TOP`` of
    dimension dim + 1 over every dim-cell.

    A torus cell is a position in (Z_n)^dim and an axis mask; its faces along
    an axis in the mask sit at the position and one step further along it.
    For odd dim >= 3, TOP's down-set is Eulerian (chi 0, as for a sphere) but
    is a torus, not a sphere: the poset satisfies the paper's hypotheses
    without being the face poset of a regular CW complex.  For dim 2 it is
    not downward Eulerian at TOP.
    """
    if n < 3:
        raise ValueError("a cubical torus needs n >= 3")

    def cell(position, mask) -> str:
        return "t" + "_".join(map(str, position)) + "m" + "".join(map(str, mask))

    cells, top = [], []
    for position in itertools.product(range(n), repeat=dim):
        for mask in itertools.product((0, 1), repeat=dim):
            boundary = []
            for axis in (a for a in range(dim) if mask[a]):
                face = mask[:axis] + (0,) + mask[axis + 1:]
                step = position[:axis] + ((position[axis] + 1) % n,) + position[axis + 1:]
                boundary += [cell(position, face), cell(step, face)]
            cells.append(CellSpec(id=cell(position, mask), dim=sum(mask), boundary=tuple(boundary)))
            if sum(mask) == dim:
                top.append(cell(position, mask))
    cells.append(CellSpec(id="TOP", dim=dim + 1, boundary=tuple(top)))
    return ComplexSpec(kind="cellular", cells=tuple(cells))


def suspension(depth: int) -> ComplexSpec:
    """The point suspended depth times: the (depth - 1)-sphere with two cells
    ``d<k>a`` and ``d<k>b`` of each dimension k < depth, each bounded by both
    cells of dimension k - 1 (2 * depth cells).  Its order complex has
    3^depth - 1 simplices, one per choice of a cell or none in each
    dimension, so past a small depth no chain walk can list them."""
    return ComplexSpec(kind="cellular", cells=tuple(
        CellSpec(id=f"d{k}{side}", dim=k,
                 boundary=(f"d{k - 1}a", f"d{k - 1}b") if k else ())
        for k in range(depth) for side in "ab"))


def product(face_a, face_b) -> ComplexSpec:
    """The product of two regular CW complexes, given by their face posets:
    one cell ``x|y`` per pair of cells, of dimension dim x + dim y, bounded
    by ``x'|y`` and ``x|y'`` over the lower covers x' of x and y' of y.  Its
    face poset is the product poset of the two."""
    dim_a, dim_b = face_a.rank, face_b.rank
    return ComplexSpec(kind="cellular", cells=tuple(
        CellSpec(id=f"{x}|{y}", dim=dim_a[x] + dim_b[y], boundary=(
            *(f"{w}|{y}" for w in face_a.poset.lower_covers(x)),
            *(f"{x}|{w}" for w in face_b.poset.lower_covers(y)),
        ))
        for x in face_a.poset.elements for y in face_b.poset.elements))


# Face posets of small generated simplicial complexes, at most 14 cells each,
# as factors of products.
SMALL_FACES = st.builds(
    lambda seed, vertices, dim: face_poset_simplicial(gen_complex(seed, vertices, dim, 0.6)),
    st.integers(0, 999), st.integers(2, 4), st.integers(1, 2),
)


def full_boundaries(spec: ComplexSpec) -> ComplexSpec:
    """The same cellular complex with each cell's boundary listing every cell
    below it, not just its codimension-1 faces."""
    closed: dict[str, tuple[str, ...]] = {}
    for cell in sorted(spec.cells, key=lambda c: c.dim):
        below = set(cell.boundary).union(*(closed[face] for face in cell.boundary))
        closed[cell.id] = cell.boundary + tuple(sorted(below - set(cell.boundary)))
    return ComplexSpec(kind="cellular", cells=tuple(
        CellSpec(id=c.id, dim=c.dim, boundary=closed[c.id]) for c in spec.cells))


def _rank_mod2(rows) -> int:
    """Rank over GF(2) of rows given as int bit masks, by Gaussian
    elimination: each row is reduced by the pivot rows at its leading bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def betti_mod2(face) -> tuple[int, ...]:
    """Mod-2 Betti numbers b_0..b_top of the regular CW complex whose face
    poset (with its dimension rank) is given.

    Every incidence number of a regular CW complex is +1 or -1, so a cell's
    mod-2 boundary is its set of lower covers, and b_k = n_k - rank d_k -
    rank d_(k+1) for the boundary maps d_k from k-cells to (k-1)-cells.
    """
    cells: list[list[str]] = [[] for _ in range(max(face.rank.values(), default=0) + 1)]
    for e in face.poset.elements:
        cells[face.rank[e]].append(e)
    bit = {e: 1 << i for dim in cells for i, e in enumerate(dim)}
    ranks = [0] * (len(cells) + 1)
    for k in range(1, len(cells)):
        ranks[k] = _rank_mod2(
            sum(bit[a] for a in face.poset.lower_covers(e)) for e in cells[k]
        )
    return tuple(len(cells[k]) - ranks[k] - ranks[k + 1] for k in range(len(cells)))


def morse_offence(poset, f):
    """The element and witnesses of the InvalidMorseFunction that classify
    raises on f, or None if f is a discrete Morse function."""
    try:
        classify(poset, f)
    except InvalidMorseFunction as exc:
        return exc.element, exc.witnesses
    return None


def assert_morse_inequalities(face, f):
    """Forman's weak (m_k >= b_k) and strong inequalities for f's critical
    counts, with equality of the alternating sums in the top dimension."""
    counts = critical_by_dimension(face.rank, classify(face.poset, f).critical_set())
    betti = betti_mod2(face)
    assert len(counts) == len(betti)
    assert all(m >= b for m, b in zip(counts, betti)), (counts, betti)
    for k in range(len(betti)):
        m_alt = sum((-1) ** (k - i) * counts[i] for i in range(k + 1))
        b_alt = sum((-1) ** (k - i) * betti[i] for i in range(k + 1))
        assert m_alt >= b_alt, (k, counts, betti)
    assert m_alt == b_alt, (counts, betti)


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


def uneven_diamonds() -> tuple[list[str], list[tuple[str, str]]]:
    """Elements and covers of two stacks of diamonds from a bottom ``0`` to a
    top ``t``: 0 ⋖ p1, p2 ⋖ q1, q2 ⋖ t and 0 ⋖ r1, r2 ⋖ s1, s2 ⋖ u1, u2 ⋖ t,
    each level covering both elements of the level below.  Every cover chain
    has a second middle, so the poset is 2-wide, but t is three covers above
    0 one way and four the other, so it has no parity rank."""
    paths = ((("0",), ("p1", "p2"), ("q1", "q2"), ("t",)),
             (("0",), ("r1", "r2"), ("s1", "s2"), ("u1", "u2"), ("t",)))
    covers = sorted({(a, b) for path in paths for low, high in zip(path, path[1:])
                     for a in low for b in high})
    return sorted({e for cover in covers for e in cover}), covers


@pytest.fixture
def no_parity_poset():
    """:func:`uneven_diamonds` built: 2-wide, with no parity rank."""
    return build_poset(*uneven_diamonds())


@pytest.fixture
def double_edge_poset():
    """a under two middles x, x2 under one top y (2-wide, not a face poset)."""
    return build_poset(
        ["a", "x", "x2", "y"],
        [("a", "x"), ("a", "x2"), ("x", "y"), ("x2", "y")],
    )
