"""End-to-end runs on closed-surface triangulations.

These exercise topologies the random corpus rarely produces: a circle, a
2-sphere, a torus, and a projective plane.  In each case the verified
identities pin the Euler characteristic of the underlying space.  Forman's
Morse complex over GF(2) recovers the mod-2 Betti numbers from a gradient's
critical cells, and products of complexes, whose face posets are product
posets, run the same checks.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsepoly import (
    ComplexSpec,
    check_hypotheses,
    classify,
    compute_parity_rank,
    cross_check,
    dimension_morse,
    euler_characteristic,
    face_poset_cellular,
    face_poset_simplicial,
    gen_complex,
    gen_morse,
    is_downward_eulerian,
    is_two_wide,
    normalize,
    order_complex,
    verify_representation,
)
from tests.conftest import (
    SMALL_FACES,
    _rank_mod2,
    assert_morse_inequalities,
    betti_mod2,
    cube,
    cubical_torus,
    product,
)
from tests.conftest import torus as grid_torus


def simplicial(simplices) -> ComplexSpec:
    return ComplexSpec(
        kind="simplicial", maximal_simplices=tuple(tuple(s) for s in simplices)
    )


def circle():
    return simplicial([("1", "2"), ("2", "3"), ("1", "3")])


def sphere():
    vertices = ["1", "2", "3", "4"]
    return simplicial(
        [tuple(v for v in vertices if v != skip) for skip in vertices]
    )


def torus():
    # Cyclic 7-vertex triangulation: triangles {i, i+1, i+3} and
    # {i, i+2, i+3} mod 7.  Every edge lies in exactly two triangles.
    faces = []
    for i in range(7):
        faces.append(tuple(sorted(str((i + d) % 7 + 1) for d in (0, 1, 3))))
        faces.append(tuple(sorted(str((i + d) % 7 + 1) for d in (0, 2, 3))))
    return simplicial(faces)


def projective_plane():
    # Minimal 6-vertex triangulation: 10 triangles, every edge in two.
    faces = [
        "123", "124", "135", "146", "156",
        "236", "245", "256", "345", "346",
    ]
    return simplicial([tuple(face) for face in faces])


SURFACES = [
    ("circle", circle(), 0, 6),
    ("sphere", sphere(), 2, 14),
    ("torus", torus(), 0, 42),
    ("projective plane", projective_plane(), 1, 31),
]


@pytest.mark.parametrize("name,spec,chi,size", SURFACES, ids=[s[0] for s in SURFACES])
def test_surface_identities(name, spec, chi, size):
    face = face_poset_simplicial(spec)
    poset = face.poset
    assert len(poset) == size
    assert is_two_wide(poset)
    mu = compute_parity_rank(poset)
    assert isinstance(mu, dict)
    assert is_downward_eulerian(poset, mu)
    assert euler_characteristic(order_complex(poset)) == chi

    # Dimension function: every cell critical, alternating count = chi.
    f = dimension_morse(poset, face.rank)
    report = verify_representation(poset, f)
    assert report.total == chi == report.chi
    assert report.n_even - report.n_odd == chi
    assert all(entry.critical for entry in report.entries)

    # A random function: same identities, fewer critical cells allowed.
    g_input = gen_morse(1234, poset)
    report = verify_representation(poset, g_input)
    assert report.total == chi
    assert report.n_even - report.n_odd == chi
    geo = cross_check(poset, normalize(poset, g_input))
    assert geo.ok


def test_dense_two_complex_smoke():
    """63-element face poset (full 2-skeleton on 7 vertices) stays fast."""
    start = time.monotonic()
    faces = []
    verts = [str(i + 1) for i in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            for k in range(j + 1, 7):
                faces.append((verts[i], verts[j], verts[k]))
    face = face_poset_simplicial(simplicial(faces))
    assert len(face.poset) == 7 + 21 + 35
    f = gen_morse(5, face.poset)
    report = verify_representation(face.poset, f)
    geo = cross_check(face.poset, normalize(face.poset, f))
    assert geo.ok
    # chi of the full 2-skeleton: 7 - 21 + 35.
    assert report.total == report.chi == 21
    assert time.monotonic() - start < 30.0


# (name, face poset, mod-2 Betti numbers) of complexes whose homology is known.
BETTI = [
    ("circle", face_poset_simplicial(circle()), (1, 1)),
    ("sphere", face_poset_simplicial(sphere()), (1, 0, 1)),
    ("projective plane", face_poset_simplicial(projective_plane()), (1, 1, 1)),
    ("torus5x5", face_poset_simplicial(grid_torus(5)), (1, 2, 1)),
    ("cubical_torus4x4", face_poset_cellular(cubical_torus(4, 4)), (1, 2, 1)),
    ("cube4", face_poset_cellular(cube(4)), (1, 0, 0, 0, 0)),
    ("torus3x3x3", face_poset_simplicial(grid_torus(3, 3)), (1, 3, 3, 1)),
]


@pytest.mark.parametrize("name,face,betti", BETTI, ids=[b[0] for b in BETTI])
def test_betti_numbers_mod_2(name, face, betti):
    assert betti_mod2(face) == betti
    chi = sum((-1) ** k * b for k, b in enumerate(betti))
    assert len(face.poset) - 2 * sum(compute_parity_rank(face.poset).values()) == chi


MORSE_FACES = [b[1] for b in BETTI[3:]] + [
    face_poset_simplicial(gen_complex(seed, 4 + seed % 6, 1 + seed % 3, 0.5))
    for seed in range(40)
]


@pytest.mark.parametrize("face", MORSE_FACES, ids=[b[0] for b in BETTI[3:]]
                         + [f"gen_complex{seed}" for seed in range(40)])
def test_gen_morse_satisfies_morse_inequalities(face):
    for seed in range(1, 6):
        assert_morse_inequalities(face, gen_morse(seed, face.poset))


def morse_complex(face, classification):
    """Forman's Morse complex over GF(2): the critical cells of each
    dimension, and for each critical cell the critical cells one dimension
    down joined to it by an odd number of gradient paths, as a bit mask
    over that dimension's list.

    Each incidence number of a regular CW complex is +1 or -1, so mod 2 a
    cell's boundary is its set of facets (lower covers).  The gradient
    paths from a facet are counted in one memoized pass: a critical facet
    counts itself, a facet matched upward passes on the counts of its
    partner's other facets, and a facet matched downward counts nothing.
    The matching is acyclic, so the recursion ends.
    """
    poset, partner = face.poset, classification.witnesses
    critical = classification.critical_set()
    by_dim = [sorted(e for e in critical if face.rank[e] == k)
              for k in range(max(face.rank.values(), default=0) + 1)]
    bit = {e: 1 << i for cells in by_dim for i, e in enumerate(cells)}
    paths = {}

    def count(facet):
        if facet not in paths:
            if facet in bit:
                paths[facet] = bit[facet]
            elif partner[facet][1] == "above":
                up = partner[facet][0]
                total = 0
                for other in poset.lower_covers(up):
                    if other != facet:
                        total ^= count(other)
                paths[facet] = total
            else:
                paths[facet] = 0
        return paths[facet]

    boundary = {}
    for e in critical:
        boundary[e] = 0
        for facet in poset.lower_covers(e):
            boundary[e] ^= count(facet)
    return by_dim, boundary


MORSE_COMPLEXES = [
    ("torus5x5", face_poset_simplicial(grid_torus(5)), (1, 2, 1)),
    ("projective plane", face_poset_simplicial(projective_plane()), (1, 1, 1)),
    ("cube4", face_poset_cellular(cube(4)), (1, 0, 0, 0, 0)),
    ("cubical_torus3x3", face_poset_cellular(cubical_torus(3, 3)), (1, 2, 1)),
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name,face,betti", MORSE_COMPLEXES, ids=[m[0] for m in MORSE_COMPLEXES])
def test_morse_complex_mod_2_has_the_complex_homology(name, face, betti, seed):
    """The gradient of a generated function, read off classify's
    witnesses, is a matching: each ordinary cell's witness names it back.
    Its Morse complex over GF(2) squares to zero and has the complex's own
    mod-2 Betti numbers."""
    classification = classify(face.poset, gen_morse(seed, face.poset))
    for e, (other, side) in classification.witnesses.items():
        assert classification.witnesses[other] == (e, "below" if side == "above" else "above")
    assert betti_mod2(face) == betti
    by_dim, boundary = morse_complex(face, classification)
    for k in range(1, len(betti)):
        for e in by_dim[k]:
            twice = 0
            for i, c in enumerate(by_dim[k - 1]):
                if boundary[e] >> i & 1:
                    twice ^= boundary[c]
            assert twice == 0, (e, k)
    ranks = [0] * (len(betti) + 1)
    for k in range(1, len(betti)):
        ranks[k] = _rank_mod2(boundary[e] for e in by_dim[k])
    assert tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(len(betti))) == betti


CIRCLE = face_poset_simplicial(circle())
SEGMENT = face_poset_simplicial(simplicial([("1", "2")]))
TORUS = face_poset_cellular(product(CIRCLE, CIRCLE))
PRODUCTS = [
    ("circle x circle", CIRCLE, CIRCLE, 36, (1, 2, 1)),
    ("circle x segment", CIRCLE, SEGMENT, 18, (1, 1, 0)),
    ("circle x circle x circle", TORUS, CIRCLE, 216, (1, 3, 3, 1)),
]


def product_covers(face_a, face_b):
    """The covers of the product poset: one factor steps up a cover while
    the other stays."""
    return ({(f"{a}|{y}", f"{b}|{y}") for a, b in face_a.poset.covers
             for y in face_b.poset.elements}
            | {(f"{x}|{a}", f"{x}|{b}") for x in face_a.poset.elements
               for a, b in face_b.poset.covers})


def assert_product_verifies(face_a, face_b, seeds):
    """The product's face poset is the product poset; it passes the paper's
    hypotheses, and the dimension function and gen_morse's functions verify,
    agree with the geometric witness and satisfy the Morse inequalities."""
    face = face_poset_cellular(product(face_a, face_b))
    assert len(face.poset) == len(face_a.poset) * len(face_b.poset)
    assert face.poset.covers == product_covers(face_a, face_b)
    check_hypotheses(face.poset)
    chi = sum((-1) ** k * b for k, b in enumerate(betti_mod2(face)))
    functions = [dimension_morse(face.poset, face.rank), *(gen_morse(s, face.poset) for s in seeds)]
    for f in functions:
        report = verify_representation(face.poset, f)
        assert report.total == report.chi == chi
        assert cross_check(face.poset, normalize(face.poset, f)).ok
        assert_morse_inequalities(face, f)
    return face


@pytest.mark.parametrize("name,face_a,face_b,size,betti", PRODUCTS,
                         ids=[p[0] for p in PRODUCTS])
def test_products_of_face_posets(name, face_a, face_b, size, betti):
    face = assert_product_verifies(face_a, face_b, range(4))
    assert (len(face.poset), betti_mod2(face)) == (size, betti)


def kunneth(betti_a, betti_b):
    """Mod-2 Betti numbers of a product, over a field: the convolution."""
    out = [0] * (len(betti_a) + len(betti_b) - 1)
    for i, a in enumerate(betti_a):
        for j, b in enumerate(betti_b):
            out[i + j] += a * b
    return tuple(out)


@settings(max_examples=20, deadline=None)
@given(SMALL_FACES, SMALL_FACES, st.integers(0, 99))
def test_products_of_generated_complexes(face_a, face_b, seed):
    face = assert_product_verifies(face_a, face_b, [seed])
    assert betti_mod2(face) == kunneth(betti_mod2(face_a), betti_mod2(face_b))
