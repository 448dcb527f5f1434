"""Half-edge complex construction, validation, verification, canonical codes."""

import hashlib
import math
import random
from collections import deque

import pytest

from spheretile.complexes import (
    BadLabels,
    DegreeTooLow,
    NotEdgeToEdge,
    NotSphere,
    SphereSurface,
    TilingComplex,
    TilingError,
    build_from_faces,
    canonical_code,
    isomorphic,
    validate_sphere,
    verify_combinatorial,
    vertex_orbit,
)
from spheretile.generators import (
    dodecahedron,
    dodecahedron_matchings,
    earth_map,
    football,
    icosahedron,
    prism,
    snub_fusion,
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
    for wrong in (["beta", "beta", "gamma", "gamma"], ["alpha", "gamma"] * 2):
        bad = []
        flipped = False
        for kind, verts, labels in specs:
            if kind == "rhombus" and not flipped:
                bad.append((kind, verts, wrong))
                flipped = True
            else:
                bad.append((kind, verts, labels))
        with pytest.raises(BadLabels, match="rhombus corners must alternate beta/gamma"):
            build_from_faces(bad)


def test_build_rejects_mislabeled_mgon():
    specs = prism(5).face_specs()
    bad = []
    for kind, verts, labels in specs:
        if kind == "mgon" and not bad:
            bad.append((kind, verts, ["beta"] * len(verts)))
        else:
            bad.append((kind, verts, labels))
    with pytest.raises(BadLabels, match="m-gon corners must all be alpha"):
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


# -- validate_sphere against the two-pass reference ----------------------------------


def _validate_sphere_reference(cycles):
    """``validate_sphere`` as it was before it keyed directed edges by one int
    and skipped the umbrella walk on valid input, kept as its oracle: a dict
    of (u, v) tuple keys, a second pass over it for twins, and the umbrella
    walk about every vertex."""
    vertex_ids = {}
    numbered = []
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise NotEdgeToEdge(f"face visits a vertex twice: {tuple(cycle)!r}")
        if len(cycle) < 3:
            raise NotEdgeToEdge(f"face has fewer than 3 vertices: {tuple(cycle)!r}")
        ids = []
        for name in cycle:
            if name not in vertex_ids:
                vertex_ids[name] = len(vertex_ids)
            ids.append(vertex_ids[name])
        numbered.append(tuple(ids))
    if not numbered:
        raise NotSphere("no faces")
    names = tuple(vertex_ids)

    origin, nxt, prev, face_of, face_start = [], [], [], [], []
    directed = {}
    for fi, cycle in enumerate(numbered):
        k = len(cycle)
        base = len(origin)
        face_start.append(base)
        for i in range(k):
            u = cycle[i]
            v = cycle[(i + 1) % k]
            key = (u, v)
            if key in directed:
                raise NotEdgeToEdge(
                    f"directed edge {u}->{v} appears in two faces; "
                    "orientations are inconsistent or the mesh is not edge-to-edge"
                )
            directed[key] = base + i
            origin.append(u)
            nxt.append(base + (i + 1) % k)
            prev.append(base + (i - 1) % k)
            face_of.append(fi)

    twin = [-1] * len(origin)
    for (u, v), h in directed.items():
        partner = directed.get((v, u))
        if partner is None:
            raise NotEdgeToEdge(f"edge {u}-{v} borders only one face")
        twin[h] = partner

    out_edges = [[] for _ in names]
    for h, u in enumerate(origin):
        out_edges[u].append(h)

    for v, edges in enumerate(out_edges):
        if len(edges) < 3:
            raise DegreeTooLow(f"vertex {names[v]!r} has degree {len(edges)}")

    for v, edges in enumerate(out_edges):
        umbrella = len(vertex_orbit(nxt, twin, edges[0]))
        if umbrella != len(edges):
            raise NotSphere(
                f"vertex {names[v]!r} has a pinched link "
                f"({umbrella} of {len(edges)} faces in one umbrella)"
            )

    reached = [False] * len(numbered)
    queue = deque([0])
    reached[0] = True
    count = 1
    while queue:
        fi = queue.popleft()
        base = face_start[fi]
        for i in range(len(numbered[fi])):
            g = face_of[twin[base + i]]
            if not reached[g]:
                reached[g] = True
                count += 1
                queue.append(g)
    if count != len(numbered):
        raise NotSphere(
            f"complex is disconnected ({count} of {len(numbered)} faces reachable)"
        )

    v_count = len(names)
    e_count = len(origin) // 2
    f_count = len(numbered)
    euler = v_count - e_count + f_count
    if euler != 2:
        raise NotSphere(
            f"Euler characteristic {euler} (V={v_count}, E={e_count}, F={f_count}), expected 2"
        )

    return SphereSurface(
        names, numbered, origin, nxt, prev, twin, face_of, face_start, out_edges
    )


def _outcome(validate, cycles):
    """The surface ``validate`` returns, or the class and message it raises."""
    try:
        return validate(cycles)
    except TilingError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(cycles):
    expected = _outcome(_validate_sphere_reference, cycles)
    assert _outcome(validate_sphere, cycles) == expected
    return expected


def _named_cycles(t):
    """The face cycles of ``t`` in its generator's own vertex names."""
    return [[t.vertex_names[v] for v in f.vertices] for f in t.faces]


def _shipped_tilings():
    return (
        [prism(m) for m in range(3, 65)]
        + [earth_map(c) for c in range(2, 65)]
        + [football()]
        + [snub_fusion(variant) for variant in (1, 2, 3)]
        + [triangular_fusion(mt) for mt in dodecahedron_matchings()]
    )


def _relabelled_specs(specs, rng):
    """``specs`` with fresh vertex names, each face rotated with its labels, and
    the faces shuffled."""
    names = sorted({v for _, cycle, _ in specs for v in cycle}, key=repr)
    fresh = list(range(len(names)))
    rng.shuffle(fresh)
    rename = {v: f"v{fresh[i]}" for i, v in enumerate(names)}
    out = []
    for kind, cycle, labels in specs:
        shift = rng.randrange(len(cycle))
        turned = list(labels[shift:]) + list(labels[:shift])
        out.append((kind, [rename[v] for v in cycle[shift:] + cycle[:shift]], turned))
    rng.shuffle(out)
    return out


def _relabelled_and_shuffled(cycles, rng):
    return [cycle for _, cycle, _ in _relabelled_specs([(None, c, c) for c in cycles], rng)]


def test_validate_sphere_equals_the_reference_on_every_shipped_tiling():
    rng = random.Random(11)
    tilings = _shipped_tilings()
    assert len(tilings) == 62 + 63 + 1 + 3 + 36
    surfaces = [icosahedron(), dodecahedron()]
    cycles = [_named_cycles(t) for t in tilings]
    cycles += [[[s.vertex_names[v] for v in c] for c in s.cycles] for s in surfaces]
    for faces in cycles:
        for variant in (faces, _relabelled_and_shuffled(faces, rng)):
            assert isinstance(_assert_same_outcome(variant), SphereSurface)


def _tetrahedron(a, b, c, d):
    return [(a, c, b), (a, b, d), (a, d, c), (b, c, d)]


def _quad_torus(n=3):
    """An n x n grid of quadrilaterals with opposite sides glued: a torus."""
    return [
        tuple(("t", (i + di) % n, (j + dj) % n) for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)))
        for i in range(n)
        for j in range(n)
    ]


_MALFORMED = {
    "no faces": ([], NotSphere),
    "repeated vertex": ([(0, 1, 0, 2)] + _tetrahedron(0, 1, 2, 3), NotEdgeToEdge),
    "2-gon": (_tetrahedron(0, 1, 2, 3) + [(0, 1)], NotEdgeToEdge),
    "duplicated directed edge": (_tetrahedron(0, 1, 2, 3) + [(0, 2, 1)], NotEdgeToEdge),
    # 3->4 repeats before 0->1 does, though 0->1 appears first.
    "later edge repeats first": (
        [(0, 1, 2), (3, 4, 5), (3, 4, 6), (0, 1, 7)], NotEdgeToEdge,
    ),
    "unpaired edge": (_tetrahedron(0, 1, 2, 3)[:-1], NotEdgeToEdge),
    "degree-2 vertex": ([(0, 1, 2), (0, 2, 1)], DegreeTooLow),
    "tetrahedra sharing a vertex": (
        _tetrahedron(0, 1, 2, 3) + _tetrahedron(0, 4, 5, 6), NotSphere,
    ),
    "pinched and disconnected": (
        _tetrahedron(0, 1, 2, 3) + _tetrahedron(0, 4, 5, 6) + _tetrahedron(7, 8, 9, 10),
        NotSphere,
    ),
    "disjoint tetrahedra": (_tetrahedron(0, 1, 2, 3) + _tetrahedron(4, 5, 6, 7), NotSphere),
    "tetrahedron beside a torus": (_tetrahedron(0, 1, 2, 3) + _quad_torus(), NotSphere),
    "torus": (_quad_torus(), NotSphere),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_validate_sphere_raises_as_the_reference(case):
    cycles, error = _MALFORMED[case]
    outcome = _assert_same_outcome(cycles)
    assert outcome[0] is error, outcome


def test_malformed_cases_keep_their_messages():
    messages = {case: _outcome(validate_sphere, c)[1] for case, (c, _) in _MALFORMED.items()}
    assert messages["later edge repeats first"].startswith("directed edge 3->4 ")
    assert messages["tetrahedra sharing a vertex"].startswith("vertex 0 has a pinched link")
    assert messages["pinched and disconnected"].startswith("vertex 0 has a pinched link")
    assert messages["tetrahedron beside a torus"] == (
        "complex is disconnected (4 of 13 faces reachable)"
    )
    assert messages["torus"] == "Euler characteristic 0 (V=9, E=18, F=9), expected 2"


def _damaged_specs(specs, rng):
    """``specs`` with one random defect: a vertex merged into another, a face
    reversed or dropped, or a disjoint or vertex-sharing copy added.  Each
    corner keeps its label."""
    specs = [(kind, list(c), list(labels)) for kind, c, labels in specs]
    names = sorted({v for _, c, _ in specs for v in c}, key=repr)
    kind = rng.randrange(5)
    if kind == 0:
        gone, kept = rng.sample(names, 2)
        return [(k, [kept if v == gone else v for v in c], ls) for k, c, ls in specs]
    if kind == 1:
        _, c, labels = specs[rng.randrange(len(specs))]
        c.reverse()
        labels.reverse()
        return specs
    if kind == 2:
        del specs[rng.randrange(len(specs))]
        return specs
    shared = rng.choice(names) if kind == 3 else None
    copy = [(k, [v if v == shared else ("copy", v) for v in c], ls) for k, c, ls in specs]
    return specs + copy


def _damaged(cycles, rng):
    return [cycle for _, cycle, _ in _damaged_specs([(None, c, c) for c in cycles], rng)]


@pytest.mark.parametrize("make", [lambda: prism(5), lambda: earth_map(3), football])
def test_validate_sphere_raises_as_the_reference_on_damaged_tilings(make):
    rng = random.Random(5)
    cycles = _named_cycles(make())
    kinds = set()
    for _ in range(60):
        outcome = _assert_same_outcome(_damaged(cycles, rng))
        kinds.add(outcome[0] if isinstance(outcome, tuple) else SphereSurface)
    assert {NotEdgeToEdge, NotSphere} <= kinds


# -- the invariants build_from_faces establishes ------------------------------------


def _named_specs(t):
    """The face specs of ``t`` in its generator's own vertex names."""
    return [(f.kind, [t.vertex_names[v] for v in f.vertices], f.labels) for f in t.faces]


def _assert_builder_invariants(t):
    """The facts every built complex carries, counted from its faces: alpha
    labels fill the m-gons, beta and gamma labels are two per rhombus each, the
    census sums to the label counts, V - E + F = 2; the report repeats them."""
    labels = [lab for f in t.faces for lab in f.labels]
    counts = tuple(labels.count(name) for name in ("alpha", "beta", "gamma"))
    rhombi = sum(f.kind == "rhombus" for f in t.faces)
    assert counts[0] == sum(f.size for f in t.faces if f.kind == "mgon")
    assert counts[1] == counts[2] == 2 * rhombi
    census = t.census()
    assert tuple(sum(key[i] * n for key, n in census.items()) for i in range(3)) == counts
    vertices = {v for f in t.faces for v in f.vertices}
    sides = (zip(f.vertices, (*f.vertices[1:], f.vertices[0])) for f in t.faces)
    edges = {frozenset(e) for side in sides for e in side}
    assert len(vertices) - len(edges) + len(t.faces) == 2 == t.euler_characteristic
    report = verify_combinatorial(t, AngleSolution(5, 1.0, 1.0, 1.0, 0.0))
    assert report.corner_counts == t.corner_counts() == counts
    assert report.euler_characteristic == 2


def test_every_shipped_tiling_carries_the_builder_invariants():
    rng = random.Random(13)
    for t in _shipped_tilings():
        _assert_builder_invariants(t)
        _assert_builder_invariants(build_from_faces(_relabelled_specs(_named_specs(t), rng)))


@pytest.mark.parametrize("make", [lambda: prism(5), lambda: earth_map(3), football])
def test_every_damaged_input_that_builds_carries_the_builder_invariants(make):
    # The surface defects of _damaged_specs do not build; a rhombus whose labels
    # turn one place, beta and gamma swapped, always does, with a new census.
    rng = random.Random(7)
    specs = _named_specs(make())
    rhombi = [i for i, spec in enumerate(specs) if spec[0] == "rhombus"]
    built = 0
    for _ in range(60):
        turned = list(specs)
        i = rng.choice(rhombi)
        kind, cycle, labels = turned[i]
        turned[i] = (kind, cycle, labels[1:] + labels[:1])
        for variant in (_damaged_specs(specs, rng), turned):
            try:
                t = build_from_faces(variant)
            except TilingError:
                continue
            _assert_builder_invariants(t)
            built += 1
    assert built >= 60


def test_build_rejects_a_torus_of_rhombi():
    # Every label is in place and every edge paired, but V - E + F = 0.
    specs = [("rhombus", list(c), ["beta", "gamma"] * 2) for c in _quad_torus()]
    with pytest.raises(NotSphere, match=r"^Euler characteristic 0 \(V=9, E=18, F=9\)"):
        build_from_faces(specs)


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


def _mirrored(t: TilingComplex) -> TilingComplex:
    return build_from_faces(
        (kind, verts[::-1], labels[::-1]) for kind, verts, labels in t.face_specs()
    )


def test_mirror_image_shares_code_by_default():
    t = football()
    mirrored = _mirrored(t)
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


def _traverse_reference(start, corner, label, step, twin, face_of, heads, best):
    """One BFS token stream from ``start``, or None when it does not beat
    ``best``: the search cuts a stream at its first face past ``best``'s."""
    tokens = []
    tied = best is not None
    vertex_number = {}
    visited = [False] * len(heads)
    queue = deque([start])
    while queue:
        e = queue.popleft()
        fi = face_of[e]
        if visited[fi]:
            continue
        visited[fi] = True
        head = heads[fi]
        face_tokens = list(head)
        for _ in range(head[1]):
            v = corner[e]
            num = vertex_number.get(v)
            if num is None:
                num = vertex_number[v] = len(vertex_number)
            face_tokens.append(num)
            face_tokens.append(label[e])
            queue.append(twin[e])
            e = step[e]
        if tied:
            pos = len(tokens)
            ahead = best[pos : pos + len(face_tokens)]
            if face_tokens > ahead:
                return None
            tied = face_tokens == ahead
        tokens.extend(face_tokens)
    return None if tied else tokens


def _canonical_code_reference(t):
    """The pruned search over the same starts and orientations as
    canonical_code: each stream is dropped at its first face past the best."""
    he = t.half_edges
    origin, nxt, twin, face_of = he.origin, he.nxt, he.twin, he.face_of
    code = [("alpha", "beta", "gamma").index(lab) for lab in t.label]
    heads = [(("mgon", "rhombus").index(f.kind), f.size) for f in t.faces]
    least = min(heads)
    orientations = (
        (origin, code, nxt),
        ([origin[n] for n in nxt], [code[n] for n in nxt], he.prev),
    )
    best = None
    for start in [h for h, fi in enumerate(face_of) if heads[fi] == least]:
        for corner, label, step in orientations:
            tokens = _traverse_reference(start, corner, label, step, twin, face_of, heads, best)
            if tokens is not None:
                best = tokens
    return tuple(best)


SHIPPED_TILINGS = (
    [("prism", m) for m in range(3, 65)]
    + [("earth_map", c) for c in range(2, 65)]
    + [("football", None)]
    + [("snub_fusion", v) for v in (1, 2, 3)]
    + [("triangular_fusion", i) for i in range(36)]
)


def _shipped(name, arg):
    if name == "football":
        return football()
    if name == "triangular_fusion":
        return triangular_fusion(dodecahedron_matchings()[arg])
    return {"prism": prism, "earth_map": earth_map, "snub_fusion": snub_fusion}[name](arg)


@pytest.mark.parametrize("name, arg", SHIPPED_TILINGS, ids=[f"{n}-{a}" for n, a in SHIPPED_TILINGS])
def test_canonical_code_equals_the_pruned_search(name, arg):
    # The tiling as built, relabelled, rotated and shuffled, and that copy mirrored.
    t = _shipped(name, arg)
    copy = _permuted_copy(t, random.Random(f"{name}-{arg}"))
    code = _canonical_code_reference(t)
    for variant in (t, copy, _mirrored(copy)):
        assert canonical_code(variant) == _canonical_code_reference(variant) == code
