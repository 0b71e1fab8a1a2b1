"""End-to-end runs on closed-surface triangulations.

These exercise topologies the random corpus rarely produces: a circle, a
2-sphere, a torus, and a projective plane.  In each case the verified
identities pin the Euler characteristic of the underlying space.
"""

from __future__ import annotations

import time

import pytest

from morsepoly import (
    ComplexSpec,
    ParityRank,
    compute_parity_rank,
    cross_check,
    dimension_morse,
    euler_characteristic,
    face_poset_simplicial,
    gen_morse,
    is_downward_eulerian,
    is_two_wide,
    normalize,
    order_complex,
    verify_representation,
)


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
    assert isinstance(mu, ParityRank)
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
