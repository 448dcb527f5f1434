"""Half-edge complexes for labeled spherical tilings.

A tiling is stored as a closed, oriented half-edge mesh whose faces are
regular m-gons (every corner labeled ``alpha``) or rhombi (corners
alternating ``beta``, ``gamma``).  Building from a face list checks the
label discipline and m-gon congruence in one pass over the faces, then
hands the bare vertex cycles to :func:`validate_sphere`, the one home of
the surface checks: the edge-to-edge property, the manifold condition
and sphericity (Euler characteristic 2 plus connectivity).  These are a
complex's invariants, and :func:`build_from_faces` is their one home;
:func:`verify_combinatorial` checks only an angle solution's m and sums.

:class:`SphereSurface`, the record :func:`validate_sphere` returns, is the
package's one half-edge model: every surface, a tiling's or the
icosahedron's and dodecahedron's in ``generators``, is a set of its
arrays, and every reader indexes them directly.  :func:`vertex_orbit`
walks them around a vertex.

Corner labels live on half-edges: the label of a half-edge is the corner
at its origin vertex inside its face.  That makes the rhombus alternation
a purely local test and gives :func:`canonical_code` direct access to the
labels it must serialize.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

from .trig import TWO_PI, ANGLE_NAMES, AngleSolution, VertexTriple

KINDS = ("mgon", "rhombus")
_KIND_CODE = {k: i for i, k in enumerate(KINDS)}
_LABEL_CODE = {name: i for i, name in enumerate(ANGLE_NAMES)}

FaceSpec = tuple[str, Sequence[Hashable], Sequence[str]]


class TilingError(Exception):
    """Base class for complex construction failures."""


class NotEdgeToEdge(TilingError):
    """A directed edge is duplicated or lacks its oppositely oriented partner."""


class NotSphere(TilingError):
    """The complex is not a connected 2-sphere."""


class BadLabels(TilingError):
    """A face's kind, size or corner labels break the labeling discipline."""


class DegreeTooLow(TilingError):
    """Some vertex has fewer than three incident faces."""


class Face(NamedTuple):
    kind: str
    vertices: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


class TilingComplex:
    """Immutable validated half-edge complex.

    Construct through :func:`build_from_faces`.  Vertex ids given to the
    builder may be arbitrary hashable names; they are renumbered to
    0..V-1 in order of first appearance, and the original names remain
    available through :attr:`vertex_names`.  :attr:`half_edges` is the
    :class:`SphereSurface` that :func:`validate_sphere` returned for the
    faces, and ``label[h]`` is the corner at half-edge h's origin in its
    face; readers index these lists directly and never modify them.
    """

    __slots__ = ("faces", "vertex_names", "half_edges", "label", "_census")

    def __init__(self, faces: tuple[Face, ...], surface: SphereSurface, label: list[str]):
        self.faces = faces
        self.vertex_names = surface.vertex_names
        self.half_edges = surface
        self.label = label
        self._census = None  # filled by census()

    # -- basic counts ------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_names)

    @property
    def edge_count(self) -> int:
        return len(self.half_edges.origin) // 2

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    @property
    def gonality(self) -> int:
        """Edge count of the regular polygon prototile."""
        for f in self.faces:
            if f.kind == "mgon":
                return f.size
        raise TilingError("complex has no m-gon face")

    def face_specs(self) -> list[tuple[str, list[int], list[str]]]:
        """Face list with internal vertex ids, suitable for re-building."""
        return [(f.kind, list(f.vertices), list(f.labels)) for f in self.faces]

    # -- census ------------------------------------------------------------

    def census(self) -> dict[VertexTriple, int]:
        """Count vertices by type (a, b, c) = corner multiplicities of each angle.
        The count runs once per complex; each call returns a fresh copy."""
        if self._census is None:
            out: dict[VertexTriple, int] = {}
            label = self.label
            for edges in self.half_edges.out_edges:
                corners = [label[h] for h in edges]
                key = (corners.count("alpha"), corners.count("beta"), corners.count("gamma"))
                out[key] = out.get(key, 0) + 1
            self._census = out
        return dict(self._census)

    def corner_counts(self) -> tuple[int, int, int]:
        n_alpha, n_beta, n_gamma = map(self.label.count, ANGLE_NAMES)
        return n_alpha, n_beta, n_gamma

    def undirected_edges(self) -> list[tuple[int, int]]:
        origin, nxt = self.half_edges.origin, self.half_edges.nxt
        return [(origin[h], origin[n]) for h, n in enumerate(nxt) if origin[h] < origin[n]]


# -- construction ------------------------------------------------------------


def _check_face(kind: str, vertices: Sequence[Hashable], labels: Sequence[str]) -> Optional[int]:
    """Raise BadLabels if the face breaks the labeling discipline; return an
    m-gon's size and None for a rhombus."""
    if kind not in KINDS:
        raise BadLabels(f"unknown face kind {kind!r}")
    if len(labels) != len(vertices):
        raise BadLabels(
            f"{kind} face has {len(vertices)} vertices but {len(labels)} labels"
        )
    for lab in labels:
        if lab not in ANGLE_NAMES:
            raise BadLabels(f"unknown corner label {lab!r}")
    if kind == "mgon":
        if len(vertices) < 3:
            raise BadLabels("m-gon face needs at least 3 vertices")
        if any(lab != "alpha" for lab in labels):
            raise BadLabels(f"m-gon corners must all be alpha, got {tuple(labels)!r}")
        return len(vertices)
    if len(vertices) != 4:
        raise BadLabels("rhombus face needs exactly 4 vertices")
    l0, l1, l2, l3 = labels
    if l0 != l2 or l1 != l3 or {l0, l1} != {"beta", "gamma"}:
        raise BadLabels(f"rhombus corners must alternate beta/gamma, got {tuple(labels)!r}")
    return None


class SphereSurface(NamedTuple):
    """Half-edge arrays of a validated sphere, as built by :func:`validate_sphere`.

    Vertices are numbered 0..V-1 in order of first appearance and
    ``vertex_names`` maps them back.  Half-edge ``face_start[f] + i`` runs
    from the i-th to the (i+1)-th vertex of cycle f; ``nxt`` and ``prev``
    step along its face, ``twin`` reverses it, and ``out_edges[v]`` lists
    the half-edges leaving v in increasing order.  Readers share these
    lists and never modify them.
    """

    vertex_names: tuple[Hashable, ...]
    cycles: list[tuple[int, ...]]
    origin: list[int]
    nxt: list[int]
    prev: list[int]
    twin: list[int]
    face_of: list[int]
    face_start: list[int]
    out_edges: list[list[int]]


def vertex_orbit(nxt: Sequence[int], twin: Sequence[int], h: int) -> list[int]:
    """Half-edges leaving h's origin in rotation order ``nxt[twin[.]]``,
    starting at h.  The walk closes because, once every twin is set,
    ``nxt`` after ``twin`` is a permutation."""
    orbit = [h]
    e = nxt[twin[h]]
    while e != h:
        orbit.append(e)
        e = nxt[twin[e]]
    return orbit


def validate_sphere(cycles: Iterable[Sequence[Hashable]]) -> SphereSurface:
    """Check that face cycles close up into an oriented 2-sphere.

    Each cycle lists one face's vertices (arbitrary hashable names) in
    order; faces sharing an edge must run along it in opposite directions.
    Raises, in this order, NotEdgeToEdge when a cycle repeats a vertex or
    a directed edge is duplicated or unpaired, DegreeTooLow when a vertex
    meets fewer than three faces, and NotSphere for a pinched vertex link,
    a disconnected complex or an Euler characteristic other than 2.

    One map from each directed edge u->v, keyed ``u*V + v``, to its first
    half-edge finds duplicates, twins and unpaired edges.  The umbrella
    walk about each vertex runs only when connectivity or the Euler count
    fails: once every edge is paired, splitting each pinched vertex into
    its umbrellas gives a closed, connected, oriented surface with the same
    E and F and V' >= V vertices, so V' - E + F <= 2, and a connected
    complex with V - E + F = 2 has V' = V, so no pinched vertex.
    """
    vertex_ids: dict[Hashable, int] = {}
    numbered: list[tuple[int, ...]] = []
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise NotEdgeToEdge(f"face visits a vertex twice: {tuple(cycle)!r}")
        if len(cycle) < 3:
            raise NotEdgeToEdge(f"face has fewer than 3 vertices: {tuple(cycle)!r}")
        numbered.append(tuple([vertex_ids.setdefault(v, len(vertex_ids)) for v in cycle]))
    if not numbered:
        raise NotSphere("no faces")
    names = tuple(vertex_ids)
    n = len(names)

    sizes = [len(cycle) for cycle in numbered]
    face_start = [0, *accumulate(sizes)]
    half_edges = face_start.pop()
    nxt = list(range(1, half_edges + 1))
    prev = list(range(-1, half_edges - 1))
    face_of: list[int] = []
    for fi, (base, k) in enumerate(zip(face_start, sizes)):
        nxt[base + k - 1] = base
        prev[base] = base + k - 1
        face_of += [fi] * k
    origin = [v for cycle in numbered for v in cycle]
    head = [origin[h] for h in nxt]
    keys = [u * n + v for u, v in zip(origin, head)]
    first = dict(zip(reversed(keys), reversed(range(half_edges))))
    if len(first) != len(keys):
        h = next(h for h, key in enumerate(keys) if first[key] != h)
        raise NotEdgeToEdge(
            f"directed edge {origin[h]}->{head[h]} appears in two faces; "
            "orientations are inconsistent or the mesh is not edge-to-edge"
        )
    twin = [first.get(v * n + u, -1) for u, v in zip(origin, head)]
    if -1 in twin:
        h = twin.index(-1)
        raise NotEdgeToEdge(f"edge {origin[h]}-{head[h]} borders only one face")

    out_edges: list[list[int]] = [[] for _ in names]
    for h, u in enumerate(origin):
        out_edges[u].append(h)
    for v, edges in enumerate(out_edges):
        if len(edges) < 3:
            raise DegreeTooLow(f"vertex {names[v]!r} has degree {len(edges)}")

    # Faces reached across edges from face 0, in the order they are found.
    f_count = len(numbered)
    across = [face_of[h] for h in twin]
    reached = [True] + [False] * (f_count - 1)
    found = [0]
    for fi in found:
        for g in across[face_start[fi] : face_start[fi] + sizes[fi]]:
            if not reached[g]:
                reached[g] = True
                found.append(g)

    e_count = half_edges // 2
    euler = n - e_count + f_count
    if len(found) != f_count or euler != 2:
        for v, edges in enumerate(out_edges):
            umbrella = len(vertex_orbit(nxt, twin, edges[0]))
            if umbrella != len(edges):
                raise NotSphere(
                    f"vertex {names[v]!r} has a pinched link "
                    f"({umbrella} of {len(edges)} faces in one umbrella)"
                )
        raise NotSphere(
            f"complex is disconnected ({len(found)} of {f_count} faces reachable)"
            if len(found) != f_count
            else f"Euler characteristic {euler} (V={n}, E={e_count}, F={f_count}), expected 2"
        )

    return SphereSurface(
        names, numbered, origin, nxt, prev, twin, face_of, face_start, out_edges
    )


def build_from_faces(face_specs: Iterable[FaceSpec]) -> TilingComplex:
    """Validate a face list and assemble the half-edge complex.

    Each spec is (kind, cyclic vertex list, cyclic label list) with the
    label at position i sitting at the corner of vertex i.  Raises
    BadLabels for the labeling discipline, then whatever
    :func:`validate_sphere` raises for the vertex cycles.
    """
    specs = list(face_specs)
    mgon_sizes = {_check_face(kind, vertices, labels) for kind, vertices, labels in specs}
    mgon_sizes.discard(None)
    if len(mgon_sizes) > 1:
        raise BadLabels(f"all m-gon faces must be congruent, got sizes {sorted(mgon_sizes)}")

    s = validate_sphere(vertices for _kind, vertices, _labels in specs)
    faces = tuple(
        Face(kind, ids, tuple(labels))
        for (kind, _, labels), ids in zip(specs, s.cycles)
    )
    return TilingComplex(faces, s, [lab for face in faces for lab in face.labels])


# -- combinatorial verification ----------------------------------------------


class CombinatorialReport(NamedTuple):
    """Outcome of checking a complex against an angle solution.

    Failures are accumulated as messages; ``ok`` is their absence.  The
    census maps each vertex type (a, b, c) to its number of occurrences.
    """

    ok: bool
    failures: list[str]
    census: dict[VertexTriple, int]
    corner_counts: tuple[int, int, int]
    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    worst_vertex_defect: float = 0.0


def verify_combinatorial(
    t: TilingComplex, s: AngleSolution, tol: float = 1e-9
) -> CombinatorialReport:
    """Check the solution's m against the gonality and each vertex type's angle sum;
    the corner counts and Euler characteristic are those :func:`build_from_faces` proved.

    Never raises; every broken condition is recorded as a failure message.
    """
    failures: list[str] = []
    census = t.census()

    try:
        gon = t.gonality
        if gon != s.m:
            failures.append(f"complex gonality {gon} does not match solution m={s.m}")
    except TilingError:
        failures.append("complex has no m-gon face to compare with the solution")

    worst = 0.0
    for (a, b, c), count in census.items():
        total = a * s.alpha + b * s.beta + c * s.gamma
        defect = abs(total - TWO_PI)
        worst = max(worst, defect)
        if defect >= tol:
            failures.append(
                f"vertex type (a={a}, b={b}, c={c}) x{count} sums to "
                f"{total:.12f}, off 2*pi by {defect:.3e}"
            )

    return CombinatorialReport(
        ok=not failures,
        failures=failures,
        census=census,
        corner_counts=t.corner_counts(),
        vertex_count=t.vertex_count,
        edge_count=t.edge_count,
        face_count=t.face_count,
        euler_characteristic=t.euler_characteristic,
        worst_vertex_defect=worst,
    )


# -- canonical codes ----------------------------------------------------------


def canonical_code(t: TilingComplex) -> tuple[int, ...]:
    """Least token stream over label-aware BFS traversals of the complex.

    A stream lists faces in discovery order as (kind code, size,
    vertex-number/label-code pairs), with vertex numbers assigned on first
    visit.  The least is taken over traversals started at every half-edge
    of every least-head face, in both orientations (so mirror images
    share a code).  A stream opens with its start face's (kind code, size),
    so a start on any other face could never give the least.  Every
    traversal visits every face and writes 2 + 2k tokens per k-gon, so
    all streams have one length and each runs in full, unpruned.  The
    mirror walks the reflected complex: half-edge h stands for its
    reversal, whose origin and corner label are those of ``nxt[h]`` and
    whose successor is ``prev[h]``.  Equal codes correspond exactly to
    label-preserving isomorphism: the stream encodes enough to rebuild the
    face list with canonical vertex numbers.
    """
    he = t.half_edges
    origin, nxt, twin, face_of = he.origin, he.nxt, he.twin, he.face_of
    code = [_LABEL_CODE[lab] for lab in t.label]
    heads = [(_KIND_CODE[f.kind], f.size) for f in t.faces]
    least = min(heads)

    def stream(start: int, corner: list[int], label: list[int], step: list[int]) -> list[int]:
        """Half-edge h reads vertex ``corner[h]`` and label code ``label[h]``,
        and ``step[h]`` is the next half-edge around its face."""
        tokens: list[int] = []
        vertex_number: dict[int, int] = {}
        visited = [False] * len(heads)
        queue = [start]
        for e in queue:
            fi = face_of[e]
            if visited[fi]:
                continue
            visited[fi] = True
            tokens += heads[fi]
            for _ in range(heads[fi][1]):
                tokens += (vertex_number.setdefault(corner[e], len(vertex_number)), label[e])
                queue.append(twin[e])
                e = step[e]
        return tokens

    orientations = (
        (origin, code, nxt),
        ([origin[n] for n in nxt], [code[n] for n in nxt], he.prev),
    )
    return tuple(min(
        stream(start, *orientation)
        for start, fi in enumerate(face_of) if heads[fi] == least
        for orientation in orientations
    ))


def isomorphic(t1: TilingComplex, t2: TilingComplex) -> bool:
    """Label-preserving isomorphism test through canonical codes."""
    if (
        t1.vertex_count != t2.vertex_count
        or t1.edge_count != t2.edge_count
        or t1.face_count != t2.face_count
    ):
        return False
    return canonical_code(t1) == canonical_code(t2)
