"""Half-edge complex construction, validation, verification, canonical codes."""

import hashlib
import math
import random

import pytest

from spheretile.complexes import (
    BadLabels,
    DegreeTooLow,
    NotEdgeToEdge,
    NotSphere,
    TilingComplex,
    build_from_faces,
    canonical_code,
    isomorphic,
    validate_sphere,
    verify_combinatorial,
)
from spheretile.generators import (
    dodecahedron_matchings,
    earth_map,
    football,
    prism,
    triangular_fusion,
)
from spheretile.realization import earth_map_solution, prism_solution
from spheretile.trig import AngleSolution


def test_prism_counts():
    t = prism(5)
    assert t.vertex_count == 10
    assert t.edge_count == 15
    assert t.face_count == 7
    assert t.euler_characteristic == 2
    assert t.gonality == 5


def test_census_prism():
    assert prism(5).census() == {(1, 1, 1): 10}
    assert prism(8).census() == {(1, 1, 1): 16}


def test_build_rejects_missing_face():
    specs = prism(5).face_specs()
    with pytest.raises(NotEdgeToEdge, match="borders only one face"):
        build_from_faces(specs[:-1])


def test_build_rejects_disconnected_complex():
    specs = prism(5).face_specs()
    shifted = [
        (kind, [v + 100 for v in verts], labels) for kind, verts, labels in specs
    ]
    with pytest.raises(NotSphere, match="disconnected"):
        build_from_faces(specs + shifted)


def test_validate_sphere_rejects_pinched_vertex():
    # Two tetrahedra glued at vertex 0: every edge pairs up, but the six
    # faces at vertex 0 form two umbrellas of three.
    two_tetrahedra = [
        (0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3),
        (0, 5, 4), (0, 4, 6), (0, 6, 5), (4, 5, 6),
    ]
    with pytest.raises(NotSphere, match=r"pinched link \(3 of 6 "):
        validate_sphere(two_tetrahedra)


def test_build_rejects_non_alternating_rhombus():
    specs = prism(5).face_specs()
    bad = []
    flipped = False
    for kind, verts, labels in specs:
        if kind == "rhombus" and not flipped:
            bad.append((kind, verts, ["beta", "beta", "gamma", "gamma"]))
            flipped = True
        else:
            bad.append((kind, verts, labels))
    with pytest.raises(BadLabels):
        build_from_faces(bad)


def test_build_rejects_mislabeled_mgon():
    specs = prism(5).face_specs()
    bad = []
    for kind, verts, labels in specs:
        if kind == "mgon" and not bad:
            bad.append((kind, verts, ["beta"] * len(verts)))
        else:
            bad.append((kind, verts, labels))
    with pytest.raises(BadLabels):
        build_from_faces(bad)


def test_build_rejects_degree_two_vertices():
    # Two 3-gons glued along all three edges: a sphere, but every
    # vertex has degree 2, too low for a corner of a tiling.
    specs = [
        ("mgon", [0, 1, 2], ["alpha"] * 3),
        ("mgon", [0, 2, 1], ["alpha"] * 3),
    ]
    with pytest.raises(DegreeTooLow):
        build_from_faces(specs)


def test_build_rejects_overused_edge():
    specs = prism(5).face_specs()
    kind, verts, labels = specs[0]
    with pytest.raises(NotEdgeToEdge):
        build_from_faces(specs + [(kind, verts, labels)])


def test_half_edge_navigation_round_trip():
    t = prism(5)
    he = t.half_edges
    for h in range(len(t.half_edges.origin)):
        assert he.twin[he.twin[h]] == h
        u, v = he.origin[h], he.origin[he.nxt[h]]
        assert (he.origin[he.twin[h]], he.origin[he.nxt[he.twin[h]]]) == (v, u)
    for f in range(t.face_count):
        cycle = [he.face_start[f]]
        while he.nxt[cycle[-1]] != cycle[0]:
            cycle.append(he.nxt[cycle[-1]])
        assert len(cycle) == t.faces[f].size
        for h in cycle:
            assert he.face_of[h] == f


# -- combinatorial verification ----------------------------------------------------


def test_verify_combinatorial_passes_prism():
    t = prism(6)
    s = prism_solution(6, 1.3)
    report = verify_combinatorial(t, s, tol=1e-9)
    assert report.ok, report.failures
    assert report.census == {(1, 1, 1): 12}
    assert report.worst_vertex_defect < 1e-12
    assert report.corner_counts == (12, 12, 12)


def test_verify_combinatorial_flags_wrong_angles():
    t = prism(5)
    s = prism_solution(5, 1.2)
    wrong = AngleSolution(5, s.alpha + 1e-3, s.beta, s.gamma, s.cos_x)
    report = verify_combinatorial(t, wrong, tol=1e-9)
    assert not report.ok
    assert any("off 2*pi" in msg for msg in report.failures)


def test_verify_combinatorial_flags_gonality_mismatch():
    t = prism(5)
    s = prism_solution(6, 1.3)
    report = verify_combinatorial(t, s, tol=1e-2)
    assert any("gonality" in msg for msg in report.failures)


def test_verify_combinatorial_earth_map():
    for c in (2, 4):
        t = earth_map(c)
        report = verify_combinatorial(t, earth_map_solution(c), tol=1e-9)
        assert report.ok, report.failures
        assert report.census[(0, 2, 1)] == 10 * (c - 1)
        assert report.census[(1, 1, c)] == 10


# -- canonical codes -----------------------------------------------------------------


def _permuted_copy(t: TilingComplex, rng: random.Random) -> TilingComplex:
    """Same tiling with vertex ids shuffled and faces re-ordered/rotated."""
    perm = list(range(t.vertex_count))
    rng.shuffle(perm)
    specs = []
    for kind, verts, labels in t.face_specs():
        k = len(verts)
        shift = rng.randrange(k)
        verts = [perm[verts[(i + shift) % k]] for i in range(k)]
        labels = [labels[(i + shift) % k] for i in range(k)]
        specs.append((kind, verts, labels))
    rng.shuffle(specs)
    return build_from_faces(specs)


@pytest.mark.parametrize("make", [lambda: prism(5), lambda: earth_map(2)])
def test_canonical_code_invariant_under_relabeling(make):
    t = make()
    code = canonical_code(t)
    rng = random.Random(7)
    for _ in range(25):
        assert canonical_code(_permuted_copy(t, rng)) == code


def test_canonical_code_separates_different_tilings():
    assert canonical_code(prism(5)) != canonical_code(earth_map(2))
    assert canonical_code(prism(5)) != canonical_code(prism(6))
    assert canonical_code(earth_map(2)) != canonical_code(earth_map(3))


def test_mirror_image_shares_code_by_default():
    t = football()
    mirrored_specs = [
        (kind, list(reversed(verts)), list(reversed(labels)))
        for kind, verts, labels in t.face_specs()
    ]
    mirrored = build_from_faces(mirrored_specs)
    assert canonical_code(mirrored) == canonical_code(t)
    assert isomorphic(mirrored, t)


def test_isomorphic_positive_and_negative():
    t = earth_map(3)
    copy = _permuted_copy(t, random.Random(3))
    assert isomorphic(t, copy)
    assert not isomorphic(t, earth_map(4))


# sha256 of every code, one line of space-separated tokens per tiling: the 36
# triangular fusions in matching order, the football, earth maps c = 2..8 and
# prisms m = 3..16.
CANONICAL_CODES_SHA256 = "db7db4364c79329980aa5c45c15a09f8e75498f561249c62b52be01fce8b2adf"


def test_canonical_codes_keep_their_digest():
    tilings = (
        [triangular_fusion(mt) for mt in dodecahedron_matchings()]
        + [football()]
        + [earth_map(c) for c in range(2, 9)]
        + [prism(m) for m in range(3, 17)]
    )
    assert len(tilings) == 58
    text = "".join(" ".join(map(str, canonical_code(t))) + "\n" for t in tilings)
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_CODES_SHA256
