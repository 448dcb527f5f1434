"""Numeric realization of tilings on the unit sphere.

Every family is embedded by :func:`embed_generic`: each face is a rigid
copy of its prototile, a regular m-gon or a rhombus built in closed form
from the angle solution, and faces are placed breadth-first, each rotated
onto an already-embedded edge.  The walk runs one BFS layer at a time:
the layer's faces are found in integer work, in the FIFO queue's order,
and then placed in one array step, so the first placement of a vertex in
queue order is the one kept.  A corner that lands on a placed vertex is
checked against the stored position, so an inconsistent angle solution or
a wrong complex surfaces as a closure defect instead of a silently
distorted picture.  :func:`embed_prism` places prisms in closed form as a
reference.  Both return an :class:`Embedding`, whose ``positions`` is one
float (V, 3) array, row v for vertex v; every reader takes it as it is.
:func:`verify_geometric` proves that a placement is a tiling by a
covering-degree certificate.  It measures the placement in one array
pass over the complex's half-edges (arc, unit tangent and corner angle of
each), and every check, the certificate's determinants included, reads
that table; angles measured from coordinates come from the same table.
:func:`verify_tiling` re-checks a tiling and its optional placement from
scratch, inferring the angles when none are given.

numpy is imported inside the functions that place, measure or check a
placement, not at module level: the command-line front end imports this
module, and ``classify`` for m >= 6 and ``matchings`` run without numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .trig import (TWO_PI, ANGLE_NAMES, AngleSolution, ClosureDomainError, _bisect, solve_closure,
                   tolerance)
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


class Embedding(NamedTuple):
    """Unit-sphere positions, a float (V, 3) array with row v for vertex v,
    plus placement metadata."""

    positions: np.ndarray
    worst_defect: float = 0.0


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
    brackets the root.  :func:`trig._bisect` at width 0 keeps the end with
    c(gamma) > c as ``lo``, and returns the midpoint of the two adjacent
    floats it ends on: |c(gamma) - c| is far below 1e-10.  It bisects the
    sign +-1, not c(gamma) - c, which is exactly 0 at a midpoint for about
    half of all c: the bisection sends that midpoint to ``hi``, and an
    early return there would move gamma.
    """
    if c < 2:
        raise ValueError(f"earth-map blocks need c >= 2, got {c}")
    return _bisect(lambda g: 1.0 if _earth_map_c(g) > c else -1.0, 1e-9, 2.0 * math.pi / 5.0, 0.0)


def earth_map_solution(c: int) -> AngleSolution:
    """Angle solution of the c-block earth-map tiling.

    Raises ValueError naming c where the angles fail the closure check in
    floating point, which happens from c = 212014 on.
    """
    gamma = earth_map_gamma(c)
    alpha = _earth_map_alpha(gamma)
    beta = math.pi - gamma / 2.0
    try:
        return AngleSolution.checked(5, alpha, beta, gamma)
    except ValueError as exc:
        raise ValueError(f"the earth-map solver fails at c={c}: {exc}") from exc


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


def prism_params(m: int, r: float) -> float:
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
    return math.acos(2.0 * cot_r * cot_r + math.cos(TWO_PI / m))


def prism_solution(m: int, r: float) -> AngleSolution:
    """Angles of the prism tiling at polar radius r.

    The edge follows from the layout, alpha from the m-gon edge identity,
    and beta, gamma from splitting the remaining angle 2*pi - alpha so the
    rhombus identity holds: with u = beta/2, v = gamma/2 one has
    u + v = pi - alpha/2 and cos(u - v) = cos(alpha/2)(1+cos x)/(1-cos x).

    Raises ValueError for r outside :func:`prism_r_bounds`; any other r with
    no checked solution raises :class:`ClosureDomainError`: above the top of
    :func:`prism_geometric_bounds` (m = 3), or where beta rounds to pi, as
    at the float just below that top; 1e-14 below it still solves.
    """
    prism_params(m, r)  # the radius check
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
    import numpy as np
    xi1 = prism_params(m, r)
    t = prism(m)
    rows = []
    for ring, p in t.vertex_names:
        if ring == "N":
            colat, lon = r, p * TWO_PI / m - xi1
        else:
            colat, lon = math.pi - r, p * TWO_PI / m
        rows.append(
            (math.sin(colat) * math.cos(lon), math.sin(colat) * math.sin(lon), math.cos(colat))
        )
    return t, Embedding(np.array(rows))


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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each rounded as ``np.dot`` rounds it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products along the last axis, each rounded as ``np.cross`` rounds it,
    spelled out without its set-up cost."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _ranges(first: np.ndarray, count: np.ndarray, step) -> np.ndarray:
    """Runs first[i], first[i] + step[i], ... of count[i] terms, concatenated;
    ``step`` is one int for every run or an array of one per run."""
    import numpy as np
    before = np.cumsum(count) - count
    term_step = step if isinstance(step, int) else np.repeat(step, count)
    return np.repeat(first - step * before, count) + term_step * np.arange(count.sum())


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each value, in order: a stable sort
    keeps equal values in their order, so each run's first is the one."""
    import numpy as np
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(len(values), dtype=bool)
    first[order[1:]] = ordered[1:] != ordered[:-1]
    return first


def _edge_frames(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal frames, one (3, 3) block per row of a and b: a over |a|,
    the unit tangent there toward b, and their cross product.  Raises
    ValueError when any tangent is undefined (a and b coincident or antipodal)."""
    import numpy as np
    a = a / np.sqrt(_dots(a, a))[:, None]
    t = geodesic_arcs(a, b)[2]
    if np.isnan(t).any():
        raise ValueError("tangent undefined between coincident or antipodal points")
    return np.stack([a, t, _cross(a, t)], axis=1)


def _polar_polygon(colatitudes: list[float]) -> np.ndarray:
    """Corners at the given colatitudes, evenly spaced clockwise seen from
    outside, turned about the pole so that edge 0's midpoint lies on the
    prime meridian."""
    import numpy as np
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
    entered breadth-first, from a FIFO queue of the twins of each placed
    face's half-edges, across its first queued edge, and the prototile
    starting with the entry corner's label is rotated so that its edge 0
    lies on that edge.

    The walk runs one BFS layer at a time.  A face of layer k is entered
    across an edge of a face of layer k - 1, whose ends are placed by then,
    so every face of a layer is placed in one array step: the frames of
    all entry edges, then the corners of each prototile as one stacked
    product.  A corner landing on a placed vertex, the entry edge's ends
    included, keeps the first position in queue order and the distance is
    tracked.  Each face is placed whole, in a frame whose point row has
    unit length, so no error compounds along the walk, and the worst
    distance measures how far the angles are from closing; beyond
    ``CLOSURE_TOL`` it raises :class:`ClosureDefect`, naming the first
    vertex in queue order at that distance.
    """
    import numpy as np
    prototiles = _prototiles(t.gonality, s)
    # Corner coordinates in the frame of edge 0, so a face's corners are
    # these rows times the frame of its placed entry edge.
    shapes = prototiles.values()
    edge0 = _edge_frames(np.array([q[0] for q in shapes]), np.array([q[1] for q in shapes]))
    in_edge_frame = {lab: q @ frame.T for (lab, q), frame in zip(prototiles.items(), edge0)}
    he = t.half_edges
    origin, nxt, twin, face_of, face_start, label = map(
        np.asarray, (he.origin, he.nxt, he.twin, he.face_of, he.face_start, t.label)
    )
    size = np.diff(face_start, append=len(origin))
    best_vertex = max(range(t.vertex_count), key=lambda v: len(he.out_edges[v]))
    seed_face = min(he.face_of[h] for h in he.out_edges[best_vertex])

    positions = np.full((t.vertex_count, 3), np.nan)
    placed = np.zeros(t.vertex_count, dtype=bool)
    entered = np.zeros(len(size), dtype=bool)
    worst_defect = 0.0
    worst_vertex = -1

    def faces_from(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half-edges of each entry's face in face order, starting at the
        entry, face after face, and each face's size."""
        k, start = size[face_of[entries]], face_start[face_of[entries]]
        return np.repeat(start, k) + _ranges(entries - start, k, 1) % np.repeat(k, k), k

    def place(vertices: np.ndarray, corners: np.ndarray) -> None:
        nonlocal worst_defect, worst_vertex
        first = ~placed[vertices] & _first_occurrences(vertices)
        positions[vertices[first]] = corners[first]
        placed[vertices[first]] = True
        gap = positions[vertices] - corners
        distance = np.fmax(np.sqrt(_dots(gap, gap)), 0.0)  # NaN never counts as worse
        j = int(np.argmax(distance))
        if distance[j] > worst_defect:
            worst_defect = float(distance[j])
            worst_vertex = int(vertices[j])

    seed_edges, _ = faces_from(face_start[[seed_face]])
    place(origin[seed_edges], prototiles[t.label[face_start[seed_face]]])
    entered[seed_face] = True
    queue = twin[seed_edges]
    while True:
        # The layer's faces not yet placed, each at its first place in the queue.
        faces = face_of[queue]
        entries = queue[~entered[faces] & _first_occurrences(faces)]
        if not len(entries):
            break
        entered[face_of[entries]] = True
        half_edges, k = faces_from(entries)
        frames = _edge_frames(positions[origin[entries]], positions[origin[nxt[entries]]])
        corners = np.empty((len(half_edges), 3))
        entry_label = label[entries]
        for lab, shape in in_edge_frame.items():
            group = entry_label == lab
            if group.any():
                corners[np.repeat(group, k)] = (shape @ frames[group]).reshape(-1, 3)
        place(origin[half_edges], corners)
        queue = twin[half_edges]

    if worst_defect > CLOSURE_TOL:
        raise ClosureDefect(worst_vertex, worst_defect)
    return Embedding(positions, worst_defect=worst_defect)


def embed_earth_map(c: int) -> tuple[TilingComplex, Embedding]:
    """Earth-map tiling realized at its unique angle solution."""
    t = earth_map(c)
    s = earth_map_solution(c)
    return t, embed_generic(t, s)


# -- geometric verification -----------------------------------------------------


class GeometricReport(NamedTuple):
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
    orientation_failures: Sequence[tuple[int, int]] = ()


def geodesic_arcs(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine and length of the arc from each row of p0 to that of p1, and
    the unit tangent at p0 along it: p1 less its part along p0, normalised.
    The tangent is NaN where that part is shorter than 1e-14 (a zero or pi
    arc has no direction) or overflows."""
    import numpy as np
    cos_arc = _dots(p0, p1)
    tangent = p1 - cos_arc[:, None] * p0
    norm = np.sqrt(_dots(tangent, tangent))[:, None]
    defined = np.isfinite(norm) & (norm >= 1e-14)
    tangent = np.divide(tangent, norm, out=np.full_like(tangent, np.nan), where=defined)
    cos_arc = np.clip(cos_arc, -1.0, 1.0)
    return cos_arc, np.arccos(cos_arc), tangent


class _Measurement(NamedTuple):
    """A placement measured in one pass, one row per half-edge h.  ``angle``
    is the corner at h's origin, NaN unless both edges there are
    ``edge_ok``: have a tangent at each end."""

    points: np.ndarray  # one row per vertex
    origin: np.ndarray
    head: np.ndarray
    face_of: np.ndarray
    label: np.ndarray
    cos_arc: np.ndarray
    arc: np.ndarray
    edge_ok: np.ndarray
    angle: np.ndarray


def _measure(t: TilingComplex, e: Embedding) -> _Measurement:
    """Arc, tangent and corner angle of every half-edge, in one array pass;
    the corner at h's origin lies between h and twin(prev(h)).  A placement
    that is not (V, 3) for the complex's V vertices raises ValueError."""
    import numpy as np
    # Far-off points overflow; see the norm check.
    with np.errstate(over="ignore", invalid="ignore"):
        points = e.positions
        if points.shape != (t.vertex_count, 3):
            raise ValueError(
                f"placement has shape {points.shape}, the complex needs ({t.vertex_count}, 3)"
            )
        he = t.half_edges
        origin, nxt, prev, twin, face_of, label = map(
            np.asarray, (he.origin, he.nxt, he.prev, he.twin, he.face_of, t.label)
        )
        back, head = twin[prev], origin[nxt]
        cos_arc, arc, tangent = geodesic_arcs(points[origin], points[head])
        defined = ~np.isnan(tangent[:, 0])
        edge_ok = defined & defined[twin]
        cos_angle = np.clip(_dots(tangent, tangent[back]), -1.0, 1.0)
        angle = np.where(edge_ok & edge_ok[back], np.arccos(cos_angle), np.nan)
        return _Measurement(points, origin, head, face_of, label, cos_arc, arc, edge_ok, angle)


def _orientation_failures(m: _Measurement, sizes: np.ndarray) -> list[tuple[int, int]]:
    """(face, vertex) pairs off the common side of one of the face's edges:
    det(p, q, r) = (p x q) . r is the side of edge (p, q) that corner r of
    its face lies on.  The sign is read from the data, so mirrored
    placements pass; 1e-12 is far above the rounding error."""
    import numpy as np
    k = sizes[m.face_of]
    start = (np.cumsum(sizes) - sizes)[m.face_of]  # first half-edge of h's face
    h = np.repeat(np.arange(len(k)), k - 2)  # each half-edge once per corner off it
    corner = start[h] + _ranges(np.arange(len(k)) - start + 2, k - 2, 1) % k[h]
    normal = _cross(m.points[m.origin], m.points[m.head])
    det = _dots(normal[h], m.points[m.origin[corner]])
    sign = 1.0 if np.nansum(det) > 0.0 else -1.0
    fails = np.bincount(corner, weights=sign * det <= 1e-12, minlength=len(k))  # NaN never fails
    bad = np.flatnonzero(fails)
    return list(zip(m.face_of[bad].tolist(), m.origin[bad].tolist()))


def verify_geometric(
    t: TilingComplex, e: Embedding, s: AngleSolution, tol: float = 1e-6
) -> GeometricReport:
    """Check an embedding against its angle solution.

    One array pass over the half-edges measures every arc, tangent and
    corner angle, and every check reads that table: unit norms, each arc
    against the common edge, each corner against its label, vertex angle
    sums of 2*pi (a ``bincount`` over origins), total spherical excess of
    4*pi (one over faces), and a covering certificate that no face
    overlaps another.  Report-based: nothing raises.

    The certificate: the complex is a sphere (checked when it was built),
    no edge arc is 0 or pi, every face is strictly convex with one
    orientation shared by all faces, and every vertex angle sum lies
    within pi of 2*pi whatever ``tol`` is.  The placement is then a
    covering of the sphere by itself of degree 1, hence an embedding.
    The area check is a second witness: degree d gives area 4*pi*d.
    """
    return _geometric_report(_measure(t, e), s, tol)


def _geometric_report(m: _Measurement, s: AngleSolution, tol: float) -> GeometricReport:
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(m.points, axis=1)
        failures = [
            f"vertex {v} has norm {norms[v]:.15f}"
            for v in np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        ]
        failures += [
            f"edge {m.origin[h]}-{m.head[h]} has a zero or pi arc; its corners are not measured"
            for h in np.flatnonzero((m.origin < m.head) & ~m.edge_ok)
        ]
        x = s.x
        edge_min, edge_max = float(m.arc.min()), float(m.arc.max())
        if abs(edge_min - x) > tol or abs(edge_max - x) > tol:
            failures.append(
                f"edge arcs range [{edge_min:.12f}, {edge_max:.12f}], expected {x:.12f}"
            )

        expected = np.where(
            m.label == "alpha", s.alpha, np.where(m.label == "beta", s.beta, s.gamma)
        )
        defect = np.abs(m.angle - expected)
        failures += [
            f"corner {m.label[h]} at vertex {m.origin[h]} measures "
            f"{m.angle[h]:.12f}, expected {expected[h]:.12f}"
            for h in np.flatnonzero(defect > tol)  # an unmeasured corner's NaN compares false
        ]

        angles = np.nan_to_num(m.angle)  # unmeasured corners add nothing
        worst_vertex_sum = float(np.abs(np.bincount(m.origin, weights=angles) - TWO_PI).max())
        # The pi bound holds whatever tol is: the certificate needs it to know
        # that the faces wrap each vertex exactly once.
        if worst_vertex_sum > max(tol, 1e-6) or worst_vertex_sum >= math.pi:
            failures.append(f"worst vertex angle sum is off 2*pi by {worst_vertex_sum:.3e}")

        sizes = np.bincount(m.face_of)
        face_excess = np.bincount(m.face_of, weights=angles) - (sizes - 2) * math.pi
        face_excess_total = float(face_excess.sum())
        area_defect = abs(face_excess_total - 4.0 * math.pi)
        if area_defect > max(tol, 1e-6):
            failures.append(
                f"total spherical excess {face_excess_total:.12f} differs from "
                f"4*pi by {area_defect:.3e}"
            )

        misoriented = _orientation_failures(m, sizes)
        if misoriented:
            named = ", ".join(f"face {fi} vertex {v}" for fi, v in misoriented[:10])
            more = ", ..." if len(misoriented) > 10 else ""
            failures.append(
                f"{len(misoriented)} (face, vertex) pairs break the convex orientation: "
                f"{named}{more}"
            )

        return GeometricReport(
            ok=not failures,
            failures=failures,
            edge_arc_min=edge_min,
            edge_arc_max=edge_max,
            edge_spread=edge_max - edge_min,
            worst_corner_defect=float(np.fmax.reduce(defect, initial=0.0)),
            worst_vertex_sum_defect=worst_vertex_sum,
            total_area=face_excess_total,
            area_defect=area_defect,
            orientation_failures=misoriented,
        )


# -- verification from scratch ------------------------------------------------


class TilingVerification(NamedTuple):
    """Outcome of :func:`verify_tiling`.

    ``angle_source`` says where ``solution`` came from.  When no angles
    were given and none could be inferred, or their ``cos_x`` lies outside
    [-1, 1], ``solution`` and both reports are None and ``angle_source``
    says why.  ``geometric`` is None whenever no embedding was given.
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
    measured = _measure(t, embedding) if embedding is not None else None
    if angles is not None:
        solution, source = angles, "from the document's angles field"
    elif measured is not None:
        solution, source = _measured_solution(t, measured), "measured from coordinates"
    else:
        solution, source = _census_solution(t)
        if solution is None:
            return TilingVerification(None, source)
    if not -1.0 <= solution.cos_x <= 1.0:  # the rule parse_tiling applies to documents
        return TilingVerification(None, f"cos_x {solution.cos_x!r} ({source}) is outside [-1, 1]")

    comb = verify_combinatorial(t, solution, tol=1e-9 if tol is None else tol)
    geo = None
    if measured is not None:  # measured once, for the angles and for the check
        geo = _geometric_report(measured, solution, tol=1e-6 if tol is None else tol)
    return TilingVerification(solution, source, comb, geo)


def _measured_solution(t: TilingComplex, m: _Measurement) -> AngleSolution:
    """Angle solution read off the coordinates themselves.

    The first measured corner of each label and the first edge, in
    half-edge order, fix the candidate values; the verifier then checks
    every other corner and edge against them, which is exactly internal
    consistency of the document.
    """
    import numpy as np
    first = {name: np.flatnonzero((m.label == name) & ~np.isnan(m.angle)) for name in ANGLE_NAMES}
    angles = {name: float(m.angle[h[0]]) if h.size else 0.0 for name, h in first.items()}
    cos_x = float(m.cos_arc[np.argmax(m.origin < m.head)])
    return AngleSolution(m=t.gonality, **angles, cos_x=cos_x)


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
