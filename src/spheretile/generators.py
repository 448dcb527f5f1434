"""Constructors for every tiling family: prisms, earth-map chains,
triangular fusions of the snub dodecahedron, and the football.

The sporadic families are written from the icosahedron's and the
dodecahedron's arc maps, with no coordinates involved.  Both polyhedra are
:class:`~spheretile.complexes.SphereSurface` records, the package's one
half-edge model, and an arc is a half-edge id: its reversal is ``twin``,
the rotation about its origin is sigma(h) = ``nxt[twin[h]]`` (walked by
:func:`~spheretile.complexes.vertex_orbit`), the face on its left is
``face_of``, and face f's arcs are ``face_start[f] + i``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Hashable, Iterable, Optional

from .complexes import (
    SphereSurface,
    TilingComplex,
    build_from_faces,
    validate_sphere,
    vertex_orbit,
)


# -- oriented polyhedra -------------------------------------------------------


@lru_cache(maxsize=1)
def icosahedron() -> SphereSurface:
    """Combinatorial icosahedron, faces counterclockwise seen from outside.

    Built once per process; callers share the arrays and never modify them.
    """
    return validate_sphere(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ]
    )


def _arc_names(p: SphereSurface) -> list[tuple[Hashable, Hashable]]:
    """(origin name, head name) of every half-edge."""
    names = p.vertex_names
    return [(names[u], names[p.origin[n]]) for u, n in zip(p.origin, p.nxt)]


def _orbits_by_name(p: SphereSurface) -> list[list[int]]:
    """Out-arcs of every vertex in sigma order, vertices in order of name,
    each orbit starting at the out-arc whose head has the least name."""
    arcs = _arc_names(p)
    names = p.vertex_names
    return [
        vertex_orbit(p.nxt, p.twin, min(p.out_edges[v], key=arcs.__getitem__))
        for v in sorted(range(len(names)), key=names.__getitem__)
    ]


@lru_cache(maxsize=1)
def dodecahedron() -> SphereSurface:
    """Combinatorial dodecahedron as the dual of the icosahedron: one face
    per icosahedron vertex, listing its faces in sigma order.

    Its 20 vertices are named by the icosahedron's face indices.  Built once
    per process; callers share the arrays and never modify them.
    """
    ico = icosahedron()
    return validate_sphere(
        [ico.face_of[h] for h in orbit] for orbit in _orbits_by_name(ico)
    )


# -- tiling generators ---------------------------------------------------------


def prism(m: int) -> TilingComplex:
    """Prism tiling: two m-gons at the poles joined by a belt of m rhombi.

    Every vertex has type (1, 1, 1).  The rhombus between meridians p and
    p+1 carries beta at the corners where it meets the preceding rhombus
    and gamma where it meets the following one.
    """
    if m < 3:
        raise ValueError(f"prism needs m >= 3, got {m}")
    north = [("N", p) for p in range(m)]
    south = [("S", p) for p in range(m)]
    faces: list = [
        ("mgon", tuple(north), ("alpha",) * m),
        ("mgon", tuple(reversed(south)), ("alpha",) * m),
    ]
    for p in range(m):
        q = (p + 1) % m
        faces.append(
            (
                "rhombus",
                (north[q], north[p], south[p], south[q]),
                ("beta", "gamma", "beta", "gamma"),
            )
        )
    return build_from_faces(faces)


def earth_map(c: int) -> TilingComplex:
    """Earth-map tiling: two polar pentagons and five timezone blocks.

    Each block holds 2c-1 rhombi; block p runs between meridians p and
    p+1.  Interior vertices all have type beta^2 gamma, the ten pentagon
    corners have type alpha beta gamma^c.  The total face count is
    10c - 3, which disagrees with one count stated alongside the family's
    construction; the corner-balance argument (10 alpha corners force 10
    vertices of type alpha beta gamma^c, and then #beta = #gamma forces
    5(2c-1) rhombi) supports this version.
    """
    if c < 2:
        raise ValueError(f"earth_map needs c >= 2, got {c}")
    N = [("N", p) for p in range(5)]
    S = [("S", p) for p in range(5)]
    u = {(p, j): ("u", p, j) for p in range(5) for j in range(1, c)}
    w = {(p, j): ("w", p, j) for p in range(5) for j in range(1, c)}

    faces: list = [
        ("mgon", tuple(N), ("alpha",) * 5),
        ("mgon", tuple(reversed(S)), ("alpha",) * 5),
    ]
    bg = ("beta", "gamma", "beta", "gamma")
    gb = ("gamma", "beta", "gamma", "beta")
    for p in range(5):
        p1 = (p + 1) % 5
        p2 = (p + 2) % 5
        pm = (p - 1) % 5
        faces.append(("rhombus", (N[p], w[(pm, 1)], u[(p, 1)], N[p1]), bg))
        for j in range(2, c):
            faces.append(
                ("rhombus", (N[p1], u[(p, j - 1)], w[(pm, j)], u[(p, j)]), gb)
            )
        faces.append(("rhombus", (N[p1], u[(p, c - 1)], S[p1], w[(p, 1)]), gb))
        for j in range(1, c - 1):
            faces.append(
                ("rhombus", (S[p1], w[(p, j + 1)], u[(p1, j)], w[(p, j)]), gb)
            )
        faces.append(("rhombus", (S[p2], u[(p1, c - 1)], w[(p, c - 1)], S[p1]), bg))
    return build_from_faces(faces)


def football() -> TilingComplex:
    """Football tiling: truncated icosahedron with each hexagon cut into
    three rhombi around its center.

    Truncation names each new vertex by the icosahedron arc it sits on.
    Icosahedron face fi with arcs a1, a2, a3 becomes the hexagon
    (a1, rev a1, a2, rev a2, a3, rev a3), cut into the rhombi
    (center, a1, rev a1, a2), (center, a2, rev a2, a3) and
    (center, a3, rev a3, a1) around ("hex-center", fi); each icosahedron
    vertex becomes the pentagon of its out-arcs in reversed sigma order.
    The three beta corners meeting at each hexagon center give the beta^3
    vertices; every truncated-icosahedron vertex becomes alpha beta gamma^2.
    """
    ico = icosahedron()
    faces: list = []
    for fi, start in enumerate(ico.face_start):
        center = ("hex-center", fi)
        for i in range(3):
            a = start + i
            faces.append(
                (
                    "rhombus",
                    (center, a, ico.twin[a], start + (i + 1) % 3),
                    ("beta", "gamma", "beta", "gamma"),
                )
            )
    for orbit in _orbits_by_name(ico):
        faces.append(("mgon", tuple(reversed(orbit)), ("alpha",) * 5))
    return build_from_faces(faces)


def dodecahedron_matchings() -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of the dodecahedron graph, by backtracking.

    Vertices are the icosahedron's face indices 0..19.  Each matching is a
    sorted tuple of sorted vertex pairs; the list order is deterministic.
    """
    dod = dodecahedron()
    adjacency: list[list[int]] = [[] for _ in dod.vertex_names]
    for u, w in _arc_names(dod):
        adjacency[u].append(w)
    for neighbours in adjacency:
        neighbours.sort()

    n = len(adjacency)
    matchings: list[tuple[tuple[int, int], ...]] = []
    covered = [False] * n
    chosen: list[tuple[int, int]] = []

    def extend() -> None:
        try:
            v = covered.index(False)
        except ValueError:
            matchings.append(tuple(sorted(chosen)))
            return
        covered[v] = True
        for nb in adjacency[v]:
            if not covered[nb]:
                covered[nb] = True
                chosen.append((v, nb))
                extend()
                chosen.pop()
                covered[nb] = False
        covered[v] = False

    extend()
    return matchings


def triangular_fusion(matching: Iterable) -> TilingComplex:
    """Fuse the snub dodecahedron's triangles into rhombi along a matching.

    The snub's vertices are the dodecahedron's arcs, and every face is
    written straight from the arc maps.  Each dodecahedron face becomes a
    pentagon with every corner replaced by the arc leaving it.  Each edge,
    with canonical arc a (a < rev a by vertex name), gives the rhombi

        unmatched:  (a, sigma a, rev a, sigma rev a)
        matched:    (sigma a, rev a, a, sigma^2 a)
                    and (sigma rev a, a, rev a, sigma^2 rev a)

    An unmatched rhombus fuses the edge's two snub triangles along the
    diagonal {a, rev a}; a matched one fuses each of them with the vertex
    triangle at its endpoint instead.  A perfect matching uses every vertex
    triangle exactly once, so all 80 triangles pair into 40 rhombi.  The
    1st and 3rd corners, the fused diagonal's ends, take beta.
    """
    dod = dodecahedron()
    arcs = _arc_names(dod)
    edges_used = _normalize_matching(matching, arcs)
    twin = dod.twin
    sigma = [dod.nxt[twin[h]] for h in range(len(twin))]
    faces: list = [
        ("mgon", tuple(range(start, start + 5)), ("alpha",) * 5) for start in dod.face_start
    ]
    # One arc per edge, from its lesser end, in order of the ends' names.
    for a in sorted((h for h, (u, w) in enumerate(arcs) if u < w), key=arcs.__getitem__):
        ra = twin[a]
        if frozenset(arcs[a]) in edges_used:
            rhombi = [
                (sigma[a], ra, a, sigma[sigma[a]]),
                (sigma[ra], a, ra, sigma[sigma[ra]]),
            ]
        else:
            rhombi = [(a, sigma[a], ra, sigma[ra])]
        faces.extend(
            ("rhombus", rh, ("beta", "gamma", "beta", "gamma")) for rh in rhombi
        )
    return build_from_faces(faces)


def _normalize_matching(matching: Iterable, arcs: list[tuple]) -> set[frozenset]:
    edge_set = {frozenset(a) for a in arcs}
    edges = [frozenset(e) for e in matching]
    if len(edges) != 10 or len(set(edges)) != 10:
        raise ValueError("matching must consist of 10 distinct edges")
    for e in edges:
        if e not in edge_set:
            raise ValueError(f"{tuple(sorted(e))!r} is not a dodecahedron edge")
    covered = set()
    for e in edges:
        if covered & e:
            raise ValueError("matching covers a vertex twice")
        covered |= e
    if len(covered) != 20:
        raise ValueError("matching does not cover every vertex")
    return set(edges)


# -- fusion classification and variant order ----------------------------------


def _cyclic_labels_at(t: TilingComplex, v: int) -> list[str]:
    """Corner labels around vertex v in rotation order."""
    he = t.half_edges
    return [t.label[h] for h in vertex_orbit(he.nxt, he.twin, he.out_edges[v][0])]


def bullet_vertices(t: TilingComplex) -> set[int]:
    """Vertices of type alpha beta gamma^2 whose two gamma corners are adjacent.

    In a fused tiling these mark where the beta corner of one rhombus meets
    the alpha of a pentagon; the three fusion variants are told apart by how
    these vertices distribute over the pentagons.
    """
    bullets: set[int] = set()
    for v in range(t.vertex_count):
        labels = _cyclic_labels_at(t, v)
        if len(labels) != 4 or sorted(labels) != [
            "alpha", "beta", "gamma", "gamma",
        ]:
            continue
        g1, g2 = [i for i, lab in enumerate(labels) if lab == "gamma"]
        if (g2 - g1) % 4 in (1, 3):
            bullets.add(v)
    return bullets


def _trios(t: TilingComplex, bullets: set[int]) -> list[tuple[int, frozenset]]:
    """Trio pentagons: exactly three bullets, necessarily consecutive.

    Returns, per trio, the middle bullet vertex and the pentagon edge
    opposite it (the far edge joining the two corners not adjacent to the
    middle); the variant-splitting path measurement runs between these.
    """
    out = []
    for f in t.faces:
        if f.kind != "mgon":
            continue
        flags = [v in bullets for v in f.vertices]
        if sum(flags) != 3:
            continue
        k = len(flags)
        for i in range(k):
            if flags[i] and flags[(i - 1) % k] and flags[(i + 1) % k]:
                opposite = frozenset(
                    (f.vertices[(i + 2) % k], f.vertices[(i + 3) % k])
                )
                out.append((f.vertices[i], opposite))
                break
    return out


def trio_chain_length(t: TilingComplex) -> Optional[int]:
    """Fewest rhombi on a path from one trio's middle bullet to the edge
    opposite another trio's middle bullet.

    A path r_1 .. r_k has consecutive rhombi sharing an edge, the middle
    bullet on r_1 and the target pentagon edge on r_k's boundary; the
    returned value is the minimum k over all ordered trio pairs, or None
    when the tiling has fewer than two trios.
    """
    return _chain_length(t, bullet_vertices(t))


def _chain_length(t: TilingComplex, bullets: set[int]) -> Optional[int]:
    trios = _trios(t, bullets)
    if len(trios) < 2:
        return None
    he = t.half_edges
    rhombi = [i for i, f in enumerate(t.faces) if f.kind == "rhombus"]
    adj: dict[int, list[int]] = {i: [] for i in rhombi}
    edges_of: dict[int, set[frozenset]] = {}
    for i in rhombi:
        edges_of[i] = set()
        for h in range(he.face_start[i], he.face_start[i] + 4):
            edges_of[i].add(frozenset((he.origin[h], he.origin[he.nxt[h]])))
            j = he.face_of[he.twin[h]]
            if t.faces[j].kind == "rhombus":
                adj[i].append(j)
    best: Optional[int] = None
    for src, _ in trios:
        targets = [opp for mid, opp in trios if mid != src]
        starts = [i for i in rhombi if src in t.faces[i].vertices]
        dist = {i: 1 for i in starts}
        queue = deque(starts)
        while queue:
            i = queue.popleft()
            if best is not None and dist[i] >= best:
                continue
            if any(opp in edges_of[i] for opp in targets):
                best = dist[i] if best is None else min(best, dist[i])
                continue
            for j in adj[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    queue.append(j)
    return best


@lru_cache(maxsize=1)
def dodecahedron_rotations() -> list[list[int]]:
    """The dodecahedron's 60 rotations as dart maps.  Its map is regular, so
    for each dart h one rotation sends dart 0 to h; one breadth-first tree of
    ``nxt`` and ``twin`` steps from dart 0, replayed from h, gives it.  Built
    once per process; callers share the maps and never modify them."""
    dod = dodecahedron()
    n = len(dod.twin)
    tree, seen = [(0, None, None)], {0}
    for d, _parent, _step in tree:
        for step in (dod.nxt, dod.twin):
            if step[d] not in seen:
                seen.add(step[d])
                tree.append((step[d], d, step))
    maps = []
    for h in range(n):
        image = [h] * n
        for d, parent, step in tree[1:]:
            image[d] = step[image[parent]]
        maps.append(image)
    return maps


@lru_cache(maxsize=1)
def fusion_classification() -> dict:
    """Group all matchings' fusions into isomorphism classes, variant-ordered.

    Returns a dict with the matchings, a variant per matching, and the
    ordered classes, each holding its members, its representative complex
    and two isomorphism invariants: the pentagon bullet distribution and
    the trio chain length.  Variant 1 is the one trio-free class (its
    crowded pentagons carry five bullets, never three); the other two are
    ordered by the shortest rhombus chain from a trio's middle bullet to
    the edge opposite another trio's middle, 3 before 2.  These invariants,
    asserted to differ, tell the classes apart, so no canonical code is
    computed and a class has no ``"code"`` key.

    The classes are the orbits of the dodecahedron's 60 rotations on the
    matchings.  A rotation carries each fusion onto its image's, as
    :func:`triangular_fusion` reads only the arc maps.  Conversely, each
    rhombus's beta-beta diagonal gives back the snub triangulation, so an
    isomorphism of two fusions, in either orientation, is an automorphism
    of the snub's map carrying one's fused triangle pairs onto the other's;
    the snub is chiral, so it is one of the 60 rotations.
    """
    matchings = dodecahedron_matchings()
    dod = dodecahedron()
    # An edge's id is the lesser of its two arcs.  A rotation permutes the 30
    # ids, and moves a matching, a bitmask of edge ids, bit by bit.
    edge = [min(h, r) for h, r in enumerate(dod.twin)]
    arc_of = {arc: h for h, arc in enumerate(_arc_names(dod))}
    arcs = [[arc_of[pair] for pair in mt] for mt in matchings]
    index = {sum(1 << edge[h] for h in hs): i for i, hs in enumerate(arcs)}
    bits = [[1 << edge[d] for d in image] for image in dodecahedron_rotations()]
    orbits: list[list[int]] = []
    for i, hs in enumerate(arcs):
        if all(i not in orbit for orbit in orbits):
            orbits.append(sorted({index[sum(map(bit.__getitem__, hs))] for bit in bits}))
    assert len(orbits) == 3, f"expected 3 fusion classes, got {len(orbits)}"

    classes = []
    for members in orbits:
        rep = triangular_fusion(matchings[members[0]])
        bullets = bullet_vertices(rep)
        classes.append({
            "members": members,
            "representative": rep,
            "bullet_counts": sorted(
                sum(v in bullets for v in f.vertices) for f in rep.faces if f.kind == "mgon"
            ),
            "chain_length": _chain_length(rep, bullets),
        })

    trio_free = [cl for cl in classes if cl["chain_length"] is None]
    assert len(trio_free) == 1, (
        "expected exactly one trio-free class, got bullet distributions "
        f"{[cl['bullet_counts'] for cl in classes]}"
    )
    first = trio_free[0]
    rest = [cl for cl in classes if cl is not first]
    chain_lengths = sorted(cl["chain_length"] for cl in rest)
    assert chain_lengths == [2, 3], (
        f"expected trio chain lengths {{2, 3}}, got {chain_lengths}"
    )
    rest.sort(key=lambda cl: -cl["chain_length"])
    ordered = [first] + rest

    variant_of_matching = {i: v for v, cl in enumerate(ordered, start=1) for i in cl["members"]}
    return {
        "matchings": matchings,
        "classes": ordered,
        "variant_of_matching": variant_of_matching,
    }


def snub_fusion(variant: int) -> TilingComplex:
    """Representative of one of the three fusion isomorphism classes."""
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    return fusion_classification()["classes"][variant - 1]["representative"]
