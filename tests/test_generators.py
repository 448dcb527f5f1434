"""Tiling generators: counts, censuses, matchings, and the fusion variants."""

import sys

import pytest

from spheretile import complexes, generators
from spheretile.complexes import canonical_code, isomorphic, verify_combinatorial
from spheretile.generators import (
    bullet_vertices,
    dodecahedron,
    dodecahedron_matchings,
    dodecahedron_rotations,
    earth_map,
    football,
    fusion_classification,
    icosahedron,
    prism,
    snub_fusion,
    triangular_fusion,
    trio_chain_length,
)


@pytest.mark.parametrize("m", [3, 5, 8])
def test_prism_counts(m):
    t = prism(m)
    assert (t.vertex_count, t.edge_count, t.face_count) == (2 * m, 3 * m, m + 2)
    assert t.census() == {(1, 1, 1): 2 * m}
    assert t.gonality == m


@pytest.mark.parametrize("c", [2, 3, 5])
def test_earth_map_counts(c):
    t = earth_map(c)
    assert t.vertex_count == 10 * c
    assert t.edge_count == 20 * c - 5
    assert t.face_count == 10 * c - 3
    expected = {(1, 1, c): 10}
    if c > 1:
        expected[(0, 2, 1)] = 10 * (c - 1)
    assert t.census() == expected


def test_earth_map_incidence_oracle():
    """Count faces from corner totals rather than trusting the builder.

    Each pentagon carries five alpha corners and each rhombus two beta
    corners, so the face count is pinned by the census alone.  The result,
    10c - 3, disagrees with the 8c - 2 sometimes quoted for this family.
    """
    for c in range(2, 7):
        t = earth_map(c)
        n_alpha, n_beta, n_gamma = t.corner_counts()
        pentagons = n_alpha / 5
        rhombi = n_beta / 2
        assert pentagons == 2
        assert rhombi == 10 * c - 5
        assert n_gamma == 2 * rhombi
        assert t.face_count == pentagons + rhombi == 10 * c - 3
        assert t.face_count != 8 * c - 2


def test_earth_map_rejects_small_c():
    with pytest.raises(ValueError):
        earth_map(1)


def test_football_counts():
    t = football()
    assert (t.vertex_count, t.edge_count, t.face_count) == (80, 150, 72)
    assert t.census() == {(0, 3, 0): 20, (1, 1, 2): 60}


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_snub_fusion_counts(variant):
    t = snub_fusion(variant)
    assert (t.vertex_count, t.edge_count, t.face_count) == (60, 110, 52)
    assert t.census() == {(1, 2, 0): 20, (1, 1, 2): 40}
    rhombi = sum(1 for f in t.faces if f.kind == "rhombus")
    assert rhombi == 40


def test_snub_fusion_rejects_bad_variant():
    with pytest.raises(ValueError):
        snub_fusion(4)


def test_polyhedron_seeds():
    d = dodecahedron()
    assert len(d.cycles) == 12
    assert all(len(f) == 5 for f in d.cycles)
    ico = icosahedron()
    assert len(ico.vertex_names) == 12
    assert len(ico.origin) // 2 == 30
    assert len(ico.cycles) == 20


# -- perfect matchings of the dodecahedron -------------------------------------------


def _matching_count_oracle() -> int:
    """Memoized bitmask count of perfect matchings, written independently."""
    d = dodecahedron()
    vertices = range(len(d.vertex_names))
    index = {v: i for i, v in enumerate(vertices)}
    neighbours = [[] for _ in vertices]
    for (a, b) in sorted({(u, w) for f in d.cycles for u, w in zip(f, f[1:] + f[:1]) if u < w}):
        neighbours[index[a]].append(index[b])
        neighbours[index[b]].append(index[a])

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(covered: int) -> int:
        if covered == (1 << len(vertices)) - 1:
            return 1
        low = (~covered & -~covered).bit_length() - 1
        total = 0
        for w in neighbours[low]:
            if not covered & (1 << w):
                total += count(covered | (1 << low) | (1 << w))
        return total

    return count(0)


def test_matching_enumeration_agrees_with_oracle():
    matchings = dodecahedron_matchings()
    assert len(matchings) == _matching_count_oracle() == 36
    assert len(set(matchings)) == 36
    for matching in matchings:
        assert len(matching) == 10
        covered = [v for pair in matching for v in pair]
        assert sorted(covered) == list(range(20))


def test_fusion_rejects_invalid_matchings():
    good = dodecahedron_matchings()[0]
    with pytest.raises(ValueError, match="10 distinct edges"):
        triangular_fusion(good[:9])
    overlapping = list(good[:9]) + [good[0]]
    with pytest.raises(ValueError, match="10 distinct edges"):
        triangular_fusion(overlapping)
    u, v = good[0]
    w = next(b for a, b in good[1:] for b in [b] if a != u and b != u)
    clash = [tuple(sorted((u, w)))] + [p for p in good if u not in p and w not in p]
    if len(clash) == 10:
        with pytest.raises(ValueError, match="covers a vertex twice|not a dodecahedron edge"):
            triangular_fusion(clash)
    with pytest.raises(ValueError, match="not a dodecahedron edge"):
        triangular_fusion([(0, 13)] + list(good[:9]))


def test_fusion_classes():
    info = fusion_classification()
    assert len(info["matchings"]) == 36
    classes = info["classes"]
    assert "code" not in classes[0]
    assert len({canonical_code(cls["representative"]) for cls in classes}) == 3
    assert [len(cls["members"]) for cls in classes] == [6, 15, 15]
    assert [cls["chain_length"] for cls in classes] == [None, 3, 2]
    reps = [cls["representative"] for cls in classes]
    assert not isomorphic(reps[0], reps[1])
    assert not isomorphic(reps[0], reps[2])
    assert not isomorphic(reps[1], reps[2])
    for variant, rep in zip((1, 2, 3), reps):
        assert isomorphic(rep, snub_fusion(variant))
    assert sorted(info["variant_of_matching"].values()) == [1] * 6 + [2] * 15 + [3] * 15


def test_fusion_bullet_distributions():
    info = fusion_classification()
    counts = [sorted(cls["bullet_counts"], reverse=True) for cls in info["classes"]]
    assert counts[0] == [5, 5] + [1] * 10
    assert counts[1] == [3, 3, 3, 3] + [1] * 8
    assert counts[2] == [3, 3, 3, 3] + [1] * 8


def test_bullet_and_chain_diagnostics_match_classification():
    for variant in (1, 2, 3):
        t = snub_fusion(variant)
        assert len(bullet_vertices(t)) == 20
        expected_chain = {1: None, 2: 3, 3: 2}[variant]
        assert trio_chain_length(t) == expected_chain


def test_matchings_in_same_class_fuse_isomorphically():
    info = fusion_classification()
    cls = info["classes"][0]
    rep = cls["representative"]
    other = triangular_fusion(info["matchings"][cls["members"][1]])
    assert isomorphic(rep, other)


def _vertex_moves():
    """Each rotation's action on the dodecahedron's vertex names."""
    dod = dodecahedron()
    names, origin = dod.vertex_names, dod.origin
    return [
        {names[origin[d]]: names[origin[image[d]]] for d in range(60)}
        for image in dodecahedron_rotations()
    ]


def _moved(matching, to):
    return tuple(sorted(tuple(sorted((to[u], to[w]))) for u, w in matching))


def _rotations_by_bfs():
    """The 60 separate breadth-first searches ``dodecahedron_rotations`` used
    to run, kept as its oracle: one dict BFS from dart 0 per image h."""
    dod = dodecahedron()
    maps = []
    for h in range(len(dod.twin)):
        image, reached = {0: h}, [0]
        for d in reached:
            for step in (dod.nxt, dod.twin):
                if step[d] not in image:
                    image[step[d]] = step[image[d]]
                    reached.append(step[d])
        maps.append([image[d] for d in range(len(dod.twin))])
    return maps


def test_rotations_equal_the_per_dart_searches():
    maps = dodecahedron_rotations()
    assert maps == _rotations_by_bfs()
    assert [image[0] for image in maps] == list(range(60))


def test_rotations_are_60_distinct_dart_maps_commuting_with_nxt_and_twin():
    dod = dodecahedron()
    maps = dodecahedron_rotations()
    assert len(maps) == 60
    assert len({tuple(image) for image in maps}) == 60
    for image in maps:
        assert sorted(image) == list(range(60))
        for step in (dod.nxt, dod.twin):
            assert all(image[step[d]] == step[image[d]] for d in range(60))


def _classification_rows(info):
    return (
        info["matchings"],
        info["variant_of_matching"],
        [
            (cl["members"], cl["bullet_counts"], cl["chain_length"], cl["representative"].face_specs())
            for cl in info["classes"]
        ],
    )


def test_rotations_are_built_once_and_leave_the_classification_unchanged():
    assert dodecahedron_rotations() is dodecahedron_rotations()
    rows = []
    for rebuild in (True, False):
        if rebuild:
            dodecahedron_rotations.cache_clear()
        fusion_classification.cache_clear()
        try:
            rows.append(_classification_rows(fusion_classification()))
        finally:
            fusion_classification.cache_clear()
    assert rows[0] == rows[1]
    assert dodecahedron_rotations() == _rotations_by_bfs()


def test_fusion_classes_are_the_canonical_code_classes():
    # The old classification, kept as the oracle: all 36 fusions grouped by
    # canonical code, classes in order of first member.
    by_code: dict = {}
    for idx, matching in enumerate(dodecahedron_matchings()):
        by_code.setdefault(canonical_code(triangular_fusion(matching)), []).append(idx)
    info = fusion_classification()
    assert sorted(by_code.values()) == sorted(cls["members"] for cls in info["classes"])
    for cls in info["classes"]:
        assert by_code[canonical_code(cls["representative"])] == cls["members"]


def test_bitmask_orbits_equal_the_sorted_tuple_orbits():
    # The orbits as they were found before, each matching moved as a sorted
    # tuple of sorted vertex pairs, kept as the oracle.
    matchings = dodecahedron_matchings()
    index = {mt: i for i, mt in enumerate(matchings)}
    orbits = []
    for i, mt in enumerate(matchings):
        if all(i not in orbit for orbit in orbits):
            orbits.append(sorted({index[_moved(mt, to)] for to in _vertex_moves()}))
    classes = fusion_classification()["classes"]
    assert sorted(cls["members"] for cls in classes) == sorted(orbits)
    assert [len(cls["members"]) for cls in classes] == [6, 15, 15]


def test_burnside_counts_three_orbits():
    matchings = dodecahedron_matchings()
    fixed = sum(_moved(mt, to) == mt for to in _vertex_moves() for mt in matchings)
    assert fixed == 180
    assert fixed / 60 == len(fusion_classification()["classes"]) == 3


def test_cold_classification_builds_one_fusion_per_class(monkeypatch):
    # Each function is wrapped in every spheretile module that binds it, so a
    # call through any import path is counted.
    calls = {"triangular_fusion": 0, "canonical_code": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "spheretile"]
    for name, home in (("triangular_fusion", generators), ("canonical_code", complexes)):
        real = getattr(home, name)
        wrapper = counted(name, real)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, binding, wrapper)
    fusion_classification.cache_clear()
    try:
        fusion_classification()
    finally:
        fusion_classification.cache_clear()
    assert calls == {"triangular_fusion": 3, "canonical_code": 0}
