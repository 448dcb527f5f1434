"""Numeric realization of tilings on the unit sphere.

Every family is embedded by :func:`embed_generic`: each face is a rigid
copy of its prototile, a regular m-gon or a rhombus built in closed form
from the angle solution, and faces are placed breadth-first, each rotated
onto an already-embedded edge.  A corner that lands on a placed vertex is
checked against the stored position, so an inconsistent angle solution or
a wrong complex surfaces as a closure defect instead of a silently
distorted picture.  :func:`embed_prism` places prisms in closed form as a
reference.  :func:`verify_geometric` proves that a placement is a tiling
by a covering-degree certificate, one small determinant matrix per face,
and :func:`verify_tiling` re-checks a tiling and its optional placement
from scratch, inferring the angles when none are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .trig import TWO_PI, AngleSolution, ClosureDomainError, solve_closure, tolerance
from .complexes import CombinatorialReport, TilingComplex, verify_combinatorial
from .generators import earth_map, prism

#: Ceiling on the distance between two placements of one vertex.
CLOSURE_TOL = 1e-7


class ClosureDefect(Exception):
    """Breadth-first placement revisited a vertex too far from its first position."""

    def __init__(self, vertex: int, distance: float):
        self.vertex = vertex
        self.distance = distance
        super().__init__(
            f"vertex {vertex} re-placed {distance:.3e} away from its first position"
        )


@dataclass
class Embedding:
    """Unit-sphere positions per vertex id, plus placement metadata."""

    positions: dict[int, np.ndarray]
    worst_defect: float = 0.0


@dataclass(frozen=True)
class LuneParams:
    """Prism layout parameters: polar radius r, pole gap h, longitude offset."""

    m: int
    r: float
    h: float
    xi1: float


# -- earth-map parameter ------------------------------------------------------


def _earth_map_alpha(gamma: float) -> float:
    """Polygon angle forced by the rhombus angle gamma in an earth-map tiling."""
    t2 = math.tan(gamma / 4.0) ** 2
    return 2.0 * math.asin(2.0 * math.cos(math.pi / 5.0) / math.sqrt(3.0 - t2))


def _earth_map_c(gamma: float) -> float:
    """Block length c as a continuous function of gamma."""
    return (math.pi - _earth_map_alpha(gamma)) / gamma + 0.5


def earth_map_gamma(c: int) -> float:
    """The unique gamma in (0, 2*pi/5) whose block length is exactly c.

    c(gamma) decreases continuously from +infinity (gamma -> 0) to 1 at
    gamma = 2*pi/5, so for any integer c >= 2 the interval (1e-9, 2*pi/5)
    brackets the root.  Plain bisection keeps the end with c(gamma) > c as
    ``lo`` and the other as ``hi``, and stops once the midpoint rounds to
    one of the ends: the bracket is then two adjacent floats, and the
    midpoint is returned.  That leaves |c(gamma) - c| far below 1e-10.
    """
    if c < 2:
        raise ValueError(f"earth-map blocks need c >= 2, got {c}")
    lo, hi = 1e-9, 2.0 * math.pi / 5.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _earth_map_c(mid) > c:
            lo = mid
        else:
            hi = mid


def earth_map_solution(c: int) -> AngleSolution:
    """Angle solution of the c-block earth-map tiling."""
    gamma = earth_map_gamma(c)
    alpha = _earth_map_alpha(gamma)
    beta = math.pi - gamma / 2.0
    return AngleSolution.checked(5, alpha, beta, gamma)


# -- prisms --------------------------------------------------------------------


def prism_r_bounds(m: int) -> tuple[float, float]:
    """Open interval of polar radii for which the prism layout exists."""
    return math.atan(1.0 / math.sin(math.pi / m)), math.pi / 2.0


def prism_geometric_bounds(m: int) -> tuple[float, float]:
    """Open radius interval where the rhombus corners stay strictly convex.

    The larger rhombus angle reaches pi exactly when the edge reaches a
    quarter great circle (cos x = 0), which only happens for m = 3 at
    tan(r) = sqrt(2); for m >= 4 the full layout interval qualifies.
    """
    lo, hi = prism_r_bounds(m)
    c = math.cos(TWO_PI / m)
    if c < 0.0:
        hi = min(hi, math.atan(math.sqrt(-1.0 / c)))
    return lo, hi


def prism_default_radius(m: int) -> float:
    """Midpoint of the geometrically valid radius interval."""
    lo, hi = prism_geometric_bounds(m)
    return 0.5 * (lo + hi)


def prism_params(m: int, r: float) -> LuneParams:
    """Longitude offset between the two polar m-gons at radius r.

    The rhombus closes only when the polar gap h = pi - 2r is shorter than
    the edge, i.e. cot(r) < sin(pi/m); the offset is then
    arccos(2*cot(r)^2 + cos(2*pi/m)), always inside (0, 2*pi/m).
    """
    if m < 3:
        raise ValueError(f"prism needs m >= 3, got {m}")
    lo, hi = prism_r_bounds(m)
    if not (lo < r < hi):
        raise ValueError(
            f"polar radius must lie in ({lo:.6f}, {hi:.6f}) for m={m}, got {r}"
        )
    cot_r = 1.0 / math.tan(r)
    xi1 = math.acos(2.0 * cot_r * cot_r + math.cos(TWO_PI / m))
    return LuneParams(m=m, r=r, h=math.pi - 2.0 * r, xi1=xi1)


def prism_solution(m: int, r: float) -> AngleSolution:
    """Angles of the prism tiling at polar radius r.

    The edge follows from the layout, alpha from the m-gon edge identity,
    and beta, gamma from splitting the remaining angle 2*pi - alpha so the
    rhombus identity holds: with u = beta/2, v = gamma/2 one has
    u + v = pi - alpha/2 and cos(u - v) = cos(alpha/2)(1+cos x)/(1-cos x).

    Raises ValueError for r outside :func:`prism_r_bounds`; any other r with
    no checked solution raises :class:`ClosureDomainError`: above the top of
    :func:`prism_geometric_bounds` (m = 3), or within about 1e-5 below it.
    """
    params = prism_params(m, r)
    cos_x = math.cos(r) ** 2 + math.sin(r) ** 2 * math.cos(TWO_PI / m)
    if cos_x <= 0.0:
        raise ClosureDomainError(
            f"edge reaches a quarter circle at r={r}; the larger rhombus "
            "corner flattens, so no convex tiling exists there"
        )
    # Both ratios lie in [0, 1]; near the top rounding can push them out.
    cos_half_alpha_sq = max(0.0, (cos_x - math.cos(TWO_PI / m)) / (1.0 + cos_x))
    half_alpha = math.acos(math.sqrt(cos_half_alpha_sq))
    alpha = 2.0 * half_alpha
    d = min(1.0, math.cos(half_alpha) * (1.0 + cos_x) / (1.0 - cos_x))
    diff = math.acos(d)
    total = math.pi - half_alpha
    beta = total + diff
    gamma = total - diff
    try:
        return AngleSolution.checked(m, alpha, beta, gamma)
    except ValueError as exc:
        raise ClosureDomainError(f"prism angles at r={r!r} lost to rounding: {exc}") from exc


def embed_prism(m: int, r: float) -> tuple[TilingComplex, Embedding]:
    """Prism tiling with explicit coordinates: north m-gon at colatitude r,
    south m-gon at colatitude pi - r, rings offset in longitude by xi1.

    The north ring trails by xi1 (rather than leading) so that the short
    rhombus diagonal joins the two corners carrying the larger angle.
    """
    params = prism_params(m, r)
    t = prism(m)
    positions: dict[int, np.ndarray] = {}
    for v, name in enumerate(t.vertex_names):
        ring, p = name
        if ring == "N":
            colat, lon = r, p * TWO_PI / m - params.xi1
        else:
            colat, lon = math.pi - r, p * TWO_PI / m
        positions[v] = np.array(
            [
                math.sin(colat) * math.cos(lon),
                math.sin(colat) * math.sin(lon),
                math.cos(colat),
            ]
        )
    return t, Embedding(positions)


# -- sporadic solutions ----------------------------------------------------------


@lru_cache(maxsize=None)
def sporadic_solution(kind: str) -> AngleSolution:
    """The isolated angle solutions of the two sporadic families.

    ``football``: vertex types beta^3 and alpha.beta.gamma^2 force a single
    solution with beta exactly 2*pi/3.  ``snub-fusion``: types alpha.beta^2
    and alpha.beta.gamma^2 force the solution with beta = 2*gamma.
    """
    systems = {
        "football": ((0, 3, 0), (1, 1, 2)),
        "snub-fusion": ((1, 2, 0), (1, 1, 2)),
    }
    key = kind.lower().replace("_", "-")
    if key not in systems:
        raise ValueError(f"unknown sporadic kind {kind!r}")
    roots = solve_closure(5, list(systems[key]))
    assert len(roots) == 1, f"{kind}: expected a unique closure root, got {len(roots)}"
    return roots[0]


# -- generic embedding by rigid prototiles -------------------------------------


def _tangent_toward(p_from: np.ndarray, p_to: np.ndarray) -> np.ndarray:
    """Unit tangent at p_from pointing along the geodesic to p_to."""
    t = p_to - np.dot(p_to, p_from) * p_from
    n = np.linalg.norm(t)
    if n < 1e-14:
        raise ValueError("tangent undefined between coincident or antipodal points")
    return t / n


def _edge_frame(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal rows: a, the unit tangent at a toward b, and their cross product."""
    t = _tangent_toward(a, b)
    return np.array([a, t, np.cross(a, t)])


def _polar_polygon(colatitudes: list[float]) -> np.ndarray:
    """Corners at the given colatitudes, evenly spaced clockwise seen from
    outside, turned about the pole so that edge 0's midpoint lies on the
    prime meridian."""
    rho = np.array(colatitudes)
    lon = -TWO_PI / len(rho) * np.arange(len(rho))
    lon -= math.atan2(np.sin(rho[:2]) @ np.sin(lon[:2]), np.sin(rho[:2]) @ np.cos(lon[:2]))
    return np.column_stack([np.sin(rho) * np.cos(lon), np.sin(rho) * np.sin(lon), np.cos(rho)])


def _prototiles(m: int, s: AngleSolution) -> dict[str, np.ndarray]:
    """Corner rows of each prototile centred on the north pole, keyed by the
    label of its first corner.

    The m-gon's circumradius R comes from its own angle, cos R =
    cot(pi/m) cot(alpha/2), so an alpha that disagrees with the edge shows
    up as a closure defect.  The rhombus half-diagonals come from the right
    triangle with hypotenuse x: sin p = sin x sin(gamma/2) to a beta
    corner, sin q = sin x sin(beta/2) to a gamma corner.  These sine forms
    keep their digits when gamma is small; cos p = cos(gamma/2)/sin(beta/2)
    does not.
    """
    cos_r = 1.0 / (math.tan(math.pi / m) * math.tan(s.alpha / 2.0))
    if not -1.0 <= cos_r <= 1.0:
        raise ValueError(f"no regular {m}-gon has the corner angle alpha={s.alpha}")
    sin_x = math.sin(s.x)
    p = math.asin(sin_x * math.sin(s.gamma / 2.0))
    q = math.asin(sin_x * math.sin(s.beta / 2.0))
    return {
        "alpha": _polar_polygon([math.acos(cos_r)] * m),
        "beta": _polar_polygon([p, q, p, q]),
        "gamma": _polar_polygon([q, p, q, p]),
    }


def embed_generic(t: TilingComplex, s: AngleSolution) -> Embedding:
    """Embed a tiling face by face, each face a rigid copy of its prototile.

    The seed is a face at a highest-degree vertex (lowest index breaking
    ties), placed as its prototile: centred on the north pole with its
    first edge's midpoint on the prime meridian.  Every other face is
    entered breadth-first across one already-placed edge, and the
    prototile starting with the entry corner's label is rotated so that
    its edge 0 lies on that edge.  A corner landing on a placed vertex,
    the entry edge's ends included, keeps the first position and the
    distance is tracked.  Since every face is placed whole, no error
    compounds along the walk, and the worst distance measures how far the
    angles are from closing; beyond ``CLOSURE_TOL`` it raises
    :class:`ClosureDefect`.
    """
    prototiles = _prototiles(t.gonality, s)
    # Corner coordinates in the frame of edge 0, so a face's corners are
    # these rows times the frame of its placed entry edge.
    in_edge_frame = {lab: q @ _edge_frame(q[0], q[1]).T for lab, q in prototiles.items()}
    best_vertex = max(range(t.vertex_count), key=t.degree)
    seed_face = min(
        t.face_of_half_edge(h) for h in t.out_half_edges(best_vertex)
    )

    positions: dict[int, np.ndarray] = {}
    worst_defect = 0.0
    worst_vertex = -1

    def place(half_edges: list[int], corners: np.ndarray) -> None:
        nonlocal worst_defect, worst_vertex
        for h, p in zip(half_edges, corners):
            v = t.half_edge_endpoints(h)[0]
            if v not in positions:
                positions[v] = p
                continue
            d = float(np.linalg.norm(positions[v] - p))
            if d > worst_defect:
                worst_defect = d
                worst_vertex = v

    seed_edges = t.half_edges_of_face(seed_face)
    place(seed_edges, prototiles[t.label_of(seed_edges[0])])

    placed_faces = {seed_face}
    queue = [t.twin(h) for h in seed_edges]
    head = 0
    while head < len(queue):
        entry = queue[head]
        head += 1
        fi = t.face_of_half_edge(entry)
        if fi in placed_faces:
            continue
        placed_faces.add(fi)
        half_edges = t.half_edges_of_face(fi)
        i = half_edges.index(entry)
        half_edges = half_edges[i:] + half_edges[:i]
        u, v = t.half_edge_endpoints(entry)
        frame = _edge_frame(positions[u], positions[v])
        place(half_edges, in_edge_frame[t.label_of(entry)] @ frame)
        queue.extend(t.twin(h) for h in half_edges)

    if worst_defect > CLOSURE_TOL:
        raise ClosureDefect(worst_vertex, worst_defect)
    return Embedding(positions, worst_defect=worst_defect)


def embed_earth_map(c: int) -> tuple[TilingComplex, Embedding]:
    """Earth-map tiling realized at its unique angle solution."""
    t = earth_map(c)
    s = earth_map_solution(c)
    return t, embed_generic(t, s)


# -- geometric verification -----------------------------------------------------


@dataclass
class GeometricReport:
    """Measured edge lengths, corner angles, vertex sums and area, plus the
    (face, vertex) pairs that break the common convex orientation."""

    ok: bool
    failures: list[str]
    edge_arc_min: float
    edge_arc_max: float
    edge_spread: float
    worst_corner_defect: float
    worst_vertex_sum_defect: float
    total_area: float
    area_defect: float
    orientation_failures: list[tuple[int, int]] = field(default_factory=list)


def _angle_between(t1: np.ndarray, t2: np.ndarray) -> float:
    return math.acos(max(-1.0, min(1.0, float(np.dot(t1, t2)))))


def _orientation_failures(
    t: TilingComplex, pos: dict[int, np.ndarray]
) -> list[tuple[int, int]]:
    """(face, vertex) pairs off the common side of one of the face's edges.

    Entry (i, j) of ``cross(Q, roll(Q, -1)) @ Q.T`` is det(q_i, q_i+1, q_j),
    the side of edge i's great circle that corner j lies on; j at an end of
    edge i gives 0 and is skipped.  The sign is read from the data, so
    mirrored placements pass; 1e-12 is far above the rounding error.
    """
    dets = []
    for face in t.faces:
        q = np.array([pos[v] for v in face.vertices])
        k = len(q)
        off_edge = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k >= 2
        dets.append(np.where(off_edge, np.cross(q, np.roll(q, -1, axis=0)) @ q.T, np.nan))
    sign = 1.0 if sum(float(np.nansum(d)) for d in dets) > 0.0 else -1.0
    # NaN entries compare false, so the skipped ones never fail.
    return [
        (fi, t.faces[fi].vertices[j])
        for fi, d in enumerate(dets)
        for j in np.flatnonzero((sign * d <= 1e-12).any(axis=0))
    ]


def verify_geometric(
    t: TilingComplex,
    e: Embedding,
    s: AngleSolution,
    tol: float = 1e-6,
) -> GeometricReport:
    """Check an embedding against its angle solution.

    Verifies unit norms, every edge's arc length against the common edge,
    every corner angle against its label, per-vertex angle sums of 2*pi,
    the total spherical excess of 4*pi, and a covering certificate that
    no face overlaps another.  Report-based: nothing raises.

    The certificate: the complex is a sphere (checked when it was built),
    no edge arc is 0 or pi, every face is strictly convex with one
    orientation shared by all faces, and every vertex angle sum lies
    within pi of 2*pi whatever ``tol`` is.  The placement is then a
    covering of the sphere by itself of degree 1, hence an embedding.
    The area check is a second witness: degree d gives area 4*pi*d.
    """
    failures: list[str] = []
    pos = e.positions

    for v in range(t.vertex_count):
        n = float(np.linalg.norm(pos[v]))
        if abs(n - 1.0) > 1e-12:
            failures.append(f"vertex {v} has norm {n:.15f}")

    x = s.x
    arcs = []
    tangent: dict[tuple[int, int], np.ndarray] = {}  # (u, v): unit tangent at u toward v
    for (u, v) in t.undirected_edges():
        d = max(-1.0, min(1.0, float(np.dot(pos[u], pos[v]))))
        arcs.append(math.acos(d))
        try:
            t_uv, t_vu = _tangent_toward(pos[u], pos[v]), _tangent_toward(pos[v], pos[u])
        except ValueError:
            failures.append(f"edge {u}-{v} has a zero or pi arc; its corners are not measured")
        else:
            tangent[u, v], tangent[v, u] = t_uv, t_vu
    edge_min, edge_max = min(arcs), max(arcs)
    spread = edge_max - edge_min
    if abs(edge_min - x) > tol or abs(edge_max - x) > tol:
        failures.append(
            f"edge arcs range [{edge_min:.12f}, {edge_max:.12f}], expected {x:.12f}"
        )

    worst_corner = 0.0
    vertex_sums = {v: 0.0 for v in range(t.vertex_count)}
    face_excess_total = 0.0
    for face in t.faces:
        k = face.size
        measured_sum = 0.0
        for i in range(k):
            v_prev, v_cur, v_next = (face.vertices[(i + di) % k] for di in (-1, 0, 1))
            if (v_cur, v_prev) not in tangent or (v_cur, v_next) not in tangent:
                continue
            angle = _angle_between(tangent[v_cur, v_prev], tangent[v_cur, v_next])
            expected = s.angle(face.labels[i])
            worst_corner = max(worst_corner, abs(angle - expected))
            if abs(angle - expected) > tol:
                failures.append(
                    f"corner {face.labels[i]} at vertex {v_cur} measures "
                    f"{angle:.12f}, expected {expected:.12f}"
                )
            vertex_sums[v_cur] += angle
            measured_sum += angle
        face_excess_total += measured_sum - (k - 2) * math.pi

    # The pi bound holds whatever tol is: the certificate needs it to know
    # that the faces wrap each vertex exactly once.
    worst_vertex_sum = max(abs(total - TWO_PI) for total in vertex_sums.values())
    if worst_vertex_sum > max(tol, 1e-6) or worst_vertex_sum >= math.pi:
        failures.append(
            f"worst vertex angle sum is off 2*pi by {worst_vertex_sum:.3e}"
        )

    area_defect = abs(face_excess_total - 4.0 * math.pi)
    if area_defect > max(tol, 1e-6):
        failures.append(
            f"total spherical excess {face_excess_total:.12f} differs from "
            f"4*pi by {area_defect:.3e}"
        )

    misoriented = _orientation_failures(t, pos)
    if misoriented:
        named = ", ".join(f"face {fi} vertex {v}" for fi, v in misoriented[:10])
        more = ", ..." if len(misoriented) > 10 else ""
        failures.append(
            f"{len(misoriented)} (face, vertex) pairs break the convex orientation: {named}{more}"
        )

    return GeometricReport(
        ok=not failures,
        failures=failures,
        edge_arc_min=edge_min,
        edge_arc_max=edge_max,
        edge_spread=spread,
        worst_corner_defect=worst_corner,
        worst_vertex_sum_defect=worst_vertex_sum,
        total_area=face_excess_total,
        area_defect=area_defect,
        orientation_failures=misoriented,
    )


# -- verification from scratch ------------------------------------------------


@dataclass
class TilingVerification:
    """Outcome of :func:`verify_tiling`.

    ``angle_source`` says where ``solution`` came from.  When no angles
    were given and none could be inferred, ``solution`` and both reports
    are None and ``angle_source`` says why.  ``geometric`` is None
    whenever no embedding was given.
    """

    solution: Optional[AngleSolution]
    angle_source: str
    combinatorial: Optional[CombinatorialReport] = None
    geometric: Optional[GeometricReport] = None

    @property
    def ok(self) -> bool:
        return (
            self.combinatorial is not None
            and self.combinatorial.ok
            and (self.geometric is None or self.geometric.ok)
        )


def verify_tiling(
    t: TilingComplex,
    embedding: Optional[Embedding] = None,
    angles: Optional[AngleSolution] = None,
    tol: Optional[float] = None,
) -> TilingVerification:
    """Re-check a tiling and its optional placement, whatever produced them.

    The angles are taken from ``angles`` when given, else measured from
    the embedding, else solved from the vertex census.  ``tol`` overrides
    both the combinatorial tolerance (default 1e-9) and the geometric one
    (default 1e-6).  Report-based: nothing raises for a broken tiling,
    but a ``tol`` that is not finite and positive raises ValueError.
    """
    if tol is not None:
        tol = tolerance(tol)
    if angles is not None:
        solution, source = angles, "from the document's angles field"
    elif embedding is not None:
        solution, source = _measured_solution(t, embedding), "measured from coordinates"
    else:
        solution, source = _census_solution(t)
        if solution is None:
            return TilingVerification(None, source)

    comb = verify_combinatorial(t, solution, tol=1e-9 if tol is None else tol)
    geo = None
    if embedding is not None:
        geo = verify_geometric(t, embedding, solution, tol=1e-6 if tol is None else tol)
    return TilingVerification(solution, source, comb, geo)


def _measured_solution(t: TilingComplex, embedding: Embedding) -> AngleSolution:
    """Angle solution read off the coordinates themselves.

    One corner per label and one edge fix the candidate values; the
    verifier then checks every other corner and edge against them, which
    is exactly internal consistency of the document.
    """
    pos = embedding.positions
    values = {}
    for face in t.faces:
        for i, lab in enumerate(face.labels):
            if lab in values:
                continue
            k = face.size
            p_prev, p_cur, p_next = (pos[face.vertices[(i + di) % k]] for di in (-1, 0, 1))
            try:
                t1, t2 = _tangent_toward(p_cur, p_prev), _tangent_toward(p_cur, p_next)
                values[lab] = _angle_between(t1, t2)
            except ValueError:  # a zero or pi edge, which verify_geometric reports
                continue
    u, v = t.undirected_edges()[0]
    cos_x = max(-1.0, min(1.0, float(np.dot(pos[u], pos[v]))))
    return AngleSolution(
        m=t.gonality,
        alpha=values.get("alpha", 0.0),
        beta=values.get("beta", 0.0),
        gamma=values.get("gamma", 0.0),
        cos_x=cos_x,
    )


def _census_solution(t: TilingComplex) -> tuple[Optional[AngleSolution], str]:
    """Infer the angle solution from the vertex-type census.

    Two independent census rows pin the angles via the closure equation.
    A rank-one census only happens for the prism census {alpha.beta.gamma}
    (a one-parameter family), where any representative radius verifies.
    """
    rows = sorted(t.census().keys())
    m = t.gonality
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            try:
                roots = solve_closure(m, [rows[i], rows[j]])
            except ValueError:
                continue
            for root in roots:
                if verify_combinatorial(t, root, tol=1e-6).ok:
                    return root, f"solved from census rows {rows[i]} and {rows[j]}"
            if roots:
                return roots[0], f"solved from census rows {rows[i]} and {rows[j]}"
    if rows == [(1, 1, 1)]:
        return (
            prism_solution(m, prism_default_radius(m)),
            "census is the one-parameter prism type; using a representative radius",
        )
    return None, "census does not determine the angles and no angles field is present"
