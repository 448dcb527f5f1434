"""File formats: tiling JSON documents, OBJ meshes, SVG projections.

The JSON document is the interchange format between the generate and
verify commands.  Its schema is deliberately rigid (no extra fields, no
alternative spellings) so a document either parses completely or fails
with a :class:`SchemaError` naming the offending field.

numpy is imported inside the functions that turn coordinates into arrays
or draw them (:meth:`TilingDocument.embedding_for` and the SVG writer),
not at module level: the command-line front end imports this module, and
``classify`` for m >= 6 and ``matchings`` run without numpy.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

from .trig import ANGLE_NAMES, AngleSolution, _f17
from .complexes import KINDS, BadLabels, TilingComplex, build_from_faces
from .realization import Embedding, _cross, _dots, _ranges, geodesic_arcs


class SchemaError(Exception):
    """The document does not match the tiling JSON schema."""


class TilingDocument(NamedTuple):
    """Parsed tiling JSON: face specs plus optional coordinates and angles.

    Building the half-edge complex is a separate step (:meth:`build`), so
    a document that is structurally valid JSON but combinatorially broken
    (say, a flipped rhombus label) parses fine and fails verification,
    with the two failure modes kept apart.
    """

    m: int
    vertex_count: int
    face_specs: list[tuple[str, list[int], list[str]]]
    coordinates: Optional[list[list[float]]] = None
    angles: Optional[AngleSolution] = None

    def build(self) -> TilingComplex:
        """The validated complex; its m-gons must have the declared ``m`` sides."""
        t = build_from_faces(self.face_specs)
        if t.gonality != self.m:
            raise BadLabels(f"document declares m={self.m}, its m-gons have {t.gonality} sides")
        return t

    def embedding_for(self, t: TilingComplex) -> Embedding:
        """The coordinates in the complex's internal vertex order."""
        import numpy as np
        if self.coordinates is None:
            raise ValueError("document has no coordinates")
        return Embedding(np.array(self.coordinates)[list(t.vertex_names)])


# The keys of a document's "angles" object, in the order they are written.
_ANGLE_KEYS = (*ANGLE_NAMES, "cos_x")


def angles_payload(s: AngleSolution) -> dict[str, str]:
    return {key: _f17(getattr(s, key)) for key in _ANGLE_KEYS}


def serialize_tiling(
    t: TilingComplex,
    embedding: Optional[Embedding] = None,
    angles: Optional[AngleSolution] = None,
) -> str:
    """Render a tiling as a JSON document (deterministic byte-for-byte).

    Vertex ids in the output are the complex's internal ids, 0-based and
    dense.  Coordinates, when an embedding is given, are indexed by the
    same ids.
    """
    faces = [
        {
            "kind": face.kind,
            "vertices": list(face.vertices),
            "labels": list(face.labels),
        }
        for face in t.faces
    ]
    payload: dict = {
        "m": t.gonality,
        "vertices": t.vertex_count,
        "faces": faces,
    }
    if embedding is not None:
        payload["coordinates"] = embedding.positions.tolist()
    if angles is not None:
        payload["angles"] = angles_payload(angles)
    return json.dumps(payload, separators=(",", ":"))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def parse_tiling(text: str) -> TilingDocument:
    """Parse and schema-check a tiling JSON document.

    Raises :class:`SchemaError` on malformed JSON, missing or unknown
    fields, type mismatches, or vertex ids outside the declared range.
    Label patterns and topology are left to verification.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an over-long integer, deep nesting
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    allowed = {"m", "vertices", "faces", "coordinates", "angles"}
    unknown = set(doc) - allowed
    _require(not unknown, f"unknown field(s): {sorted(unknown)}")
    for key in ("m", "vertices", "faces"):
        _require(key in doc, f"missing required field {key!r}")

    m = doc["m"]
    _require(_is_int(m) and m >= 3, f"'m' must be an integer >= 3, got {m!r}")
    count = doc["vertices"]
    _require(
        _is_int(count) and count >= 1,
        f"'vertices' must be a positive integer, got {count!r}",
    )

    raw_faces = doc["faces"]
    _require(
        isinstance(raw_faces, list) and raw_faces,
        "'faces' must be a non-empty array",
    )
    # The loops below run once per face, vertex or coordinate, so each check
    # builds its message only when it fails.
    face_specs = []
    seen_ids: set[int] = set()
    for i, rf in enumerate(raw_faces):
        if not isinstance(rf, dict):
            raise SchemaError(f"face {i} must be an object")
        extra = set(rf) - {"kind", "vertices", "labels"}
        if extra:
            raise SchemaError(f"face {i} has unknown field(s): {sorted(extra)}")
        for key in ("kind", "vertices", "labels"):
            if key not in rf:
                raise SchemaError(f"face {i} is missing {key!r}")
        kind = rf["kind"]
        if kind not in KINDS:
            raise SchemaError(f"face {i} kind must be one of {KINDS}")
        verts = rf["vertices"]
        labels = rf["labels"]
        if not (isinstance(verts, list) and len(verts) >= 3):
            raise SchemaError(f"face {i} needs at least 3 vertices")
        if not (isinstance(labels, list) and len(labels) == len(verts)):
            raise SchemaError(f"face {i} labels must align with its vertices")
        for v in verts:
            if not (_is_int(v) and 0 <= v < count):
                raise SchemaError(f"face {i} vertex id {v!r} outside [0, {count})")
            seen_ids.add(v)
        for lab in labels:
            if lab not in ANGLE_NAMES:
                raise SchemaError(f"face {i} label {lab!r} is not an angle name")
        face_specs.append((kind, list(verts), list(labels)))
    _require(
        len(seen_ids) == count,
        f"declared {count} vertices but faces reference {len(seen_ids)}",
    )

    coordinates = None
    if "coordinates" in doc:
        raw = doc["coordinates"]
        _require(
            isinstance(raw, list) and len(raw) == count,
            f"'coordinates' must list one [x,y,z] per vertex ({count})",
        )
        coordinates = []
        for i, p in enumerate(raw):
            if not (isinstance(p, list) and len(p) == 3 and all(_is_number(c) for c in p)):
                raise SchemaError(f"coordinate {i} must be [x, y, z] numbers")
            try:
                triple = [float(c) for c in p]
            except OverflowError:  # an integer beyond the float range
                raise SchemaError(f"coordinate {i} must be finite") from None
            if not all(math.isfinite(c) for c in triple):
                raise SchemaError(f"coordinate {i} must be finite")
            coordinates.append(triple)

    angles = None
    if "angles" in doc:
        raw = doc["angles"]
        _require(isinstance(raw, dict), "'angles' must be an object")
        _require(
            set(raw) == set(_ANGLE_KEYS),
            f"'angles' must have exactly the keys {sorted(_ANGLE_KEYS)}",
        )
        values = {}
        for key in _ANGLE_KEYS:
            _require(
                isinstance(raw[key], str),
                f"angles.{key} must be a decimal string",
            )
            try:
                values[key] = float(raw[key])
            except ValueError as exc:
                raise SchemaError(f"angles.{key} is not a decimal number") from exc
            _require(math.isfinite(values[key]), f"angles.{key} must be finite")
        _require(-1.0 <= values["cos_x"] <= 1.0, "angles.cos_x must lie in [-1, 1]")
        angles = AngleSolution(m=m, **values)

    return TilingDocument(
        m=m,
        vertex_count=count,
        face_specs=face_specs,
        coordinates=coordinates,
        angles=angles,
    )


# -- OBJ ----------------------------------------------------------------------


def export_obj(t: TilingComplex, e: Embedding) -> str:
    """Wavefront OBJ text: shared vertex list, one polygon per face.

    Edges are straight chords between the spherical vertices, so the mesh
    is display-only; it is not the spherical tiling itself.
    """
    lines = ["# chordal display-only"]
    lines += [f"v {_f17(x)} {_f17(y)} {_f17(z)}" for x, y, z in e.positions.tolist()]
    lines += ["f " + " ".join(str(v + 1) for v in face.vertices) for face in t.faces]
    return "\n".join([*lines, ""])


# -- SVG ----------------------------------------------------------------------

_SVG_FILL = {"mgon": "#4878a8", "rhombus": "#e8c468"}
_VIEW = 1000.0
# Least 1 + p.c of a traced point.  A point within about 4.5e-5 rad of
# the projection pole lands so far out that the rest of the picture
# collapses, and the pole itself has no finite image.
_POLE_CLEARANCE = 1e-9


def _projection_frame(t: TilingComplex, e: Embedding) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal frame (e1, e2, c) with c the centroid of the first m-gon."""
    import numpy as np
    face = next((f for f in t.faces if f.kind == "mgon"), None)
    if face is None:
        raise ValueError("the tiling has no m-gon to centre the projection on")
    c = e.positions[list(face.vertices)].sum(axis=0)
    c = c / np.linalg.norm(c)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(ref, c)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = geodesic_arcs(c[None], ref[None])[2][0]
    return e1, _cross(c, e1), c


def _trace_edges(
    edges: list[tuple[int, int]], e: Embedding, frame
) -> tuple[np.ndarray, np.ndarray]:
    """Cubic Bezier pieces tracing the projected geodesic of each edge (u, v).

    Returns an (s, 4) complex array of control points, edge after edge
    and each edge's pieces in order from u to v, and each edge's count of
    pieces.  Each piece is a Hermite cubic built from the analytically
    projected endpoint tangents, starting from n = max(2, ceil(5.1 arc))
    equal pieces per edge.  A piece whose midpoint strays from the true
    curve by more than 2e-4 of the knots' extent (five times tighter than
    the 1e-3 drawing tolerance) is bisected, up to depth 14, which keeps
    arcs near the projection point (where curvature explodes) accurate.
    Every edge is refined at once, level by level, until no piece is left
    to split.
    """
    import numpy as np
    e1, e2, c = frame
    p0, p1 = e.positions[np.array(edges).T]
    _, arc, tangent = geodesic_arcs(p0, p1)

    def point_and_velocity(k: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = (t * arc[k])[:, None]
        cos, sin = np.cos(a), np.sin(a)
        p, dp = cos * p0[k], cos * tangent[k]
        p += sin * tangent[k]
        dp -= sin * p0[k]
        dp *= arc[k][:, None]
        denom = 1.0 + p @ c
        near = ~(denom > _POLE_CLEARANCE)
        if near.any():
            edge = edges[k[np.argmax(near)]]
            raise ValueError(
                f"edge {edge[0]}-{edge[1]} passes through the projection pole; "
                "it has no finite image"
            )
        u = 2.0 * (p @ e1) / denom
        v = 2.0 * (p @ e2) / denom
        du = (2.0 * (dp @ e1) - u * (dp @ c)) / denom
        dv = (2.0 * (dp @ e2) - v * (dp @ c)) / denom
        return u + 1j * v, du + 1j * dv

    n = np.maximum(2, np.ceil(arc * 5.1).astype(int))
    k = np.repeat(np.arange(len(edges)), n + 1)
    i = _ranges(np.zeros_like(n), n + 1, 1)
    t = i / n[k]
    z, d = point_and_velocity(k, t)
    tol_abs = 2e-4 * max(np.ptp(z.real), np.ptp(z.imag), 1e-9)

    def refine(k, t0, z0, d0, t1, z1, d1):
        # Pieces (edge, t0, z0, d0, t1, z1, d1) of level len(done), kept or halved.
        c1 = z0 + d0 * (t1 - t0) / 3.0
        c2 = z1 - d1 * (t1 - t0) / 3.0
        tm = 0.5 * (t0 + t1)
        zm, dm = point_and_velocity(k, tm)
        bez_mid = (z0 + 3.0 * c1 + 3.0 * c2 + z1) / 8.0
        split = (np.abs(bez_mid - zm) > tol_abs) & (len(done) < 14)
        done.append((k[~split], t0[~split], np.stack([z0, c1, c2, z1], axis=1)[~split]))
        return tuple(
            np.concatenate([left[split], right[split]])
            for left, right in zip((k, t0, z0, d0, tm, zm, dm), (k, tm, zm, dm, t1, z1, d1))
        )

    j = np.flatnonzero(i < n[k])
    pending, done = (k[j], t[j], z[j], d[j], t[j + 1], z[j + 1], d[j + 1]), []
    while len(pending[0]):
        pending = refine(*pending)

    k, t0, cubics = (np.concatenate(column) for column in zip(*done))
    return cubics[np.lexsort((t0, k))], np.bincount(k, minlength=len(edges))


def _fixed3(values: np.ndarray) -> np.ndarray:
    """``format(v, ".3f")`` of each value, as the non-NUL bytes of a uint8 row.

    Where |v| < 1e6 and the fraction of w = 1000 v is more than 1e-6 from
    1/2, the product's rounding error (below 6e-8) cannot carry w across a
    rounding boundary, so rounding w gives the thousandths; their digits
    come from integer arithmetic and the sign from ``signbit`` (-0.0004
    gives "-0.000").  ``format`` writes every other value: ties such as odd
    multiples of 1/16, nan, +-inf and huge values.
    """
    import numpy as np
    small = np.abs(values) < 1e6
    w = np.where(small, values, 0.0) * 1000.0
    floor = np.floor(w)
    frac = w - floor
    exact = small & (np.abs(frac - 0.5) > 1e-6)
    q = np.abs(floor + (frac > 0.5)).astype(np.int32)
    # Columns: the sign, n_int integer digits, the point and three decimals.
    n_int = len(str(int(q.max(initial=0)) // 1000))
    chars = np.zeros((len(q), n_int + 5), np.uint8)
    negative = np.signbit(values)
    chars[:, 0] = 45 * negative
    chars[:, n_int + 1] = 46
    for col in (n_int + 4, n_int + 3, n_int + 2, *range(n_int, 0, -1)):
        # q is the value in units of this column's place; integer digits
        # left of the units column stay NUL once it reaches 0.
        rest = q // 10
        digit = q - 10 * rest + 48
        chars[:, col] = digit if col >= n_int else np.where(q > 0, digit, 0)
        q = rest
    if not negative.any():
        chars = chars[:, 1:]
    inexact = np.flatnonzero(~exact)
    if len(inexact):
        text = [format(v, ".3f").encode() for v in values[inexact].tolist()]
        pad = max(map(len, text)) - chars.shape[1]
        if pad > 0:
            chars = np.concatenate([np.zeros((len(chars), pad), np.uint8), chars], axis=1)
        chars[inexact] = 0
        for i, row in zip(inexact.tolist(), text):
            chars[i, chars.shape[1] - len(row) :] = np.frombuffer(row, np.uint8)
    return chars


def _point_table(edges: list[tuple[int, int]], e: Embedding, frame) -> tuple[np.ndarray, np.ndarray]:
    """Rows of NUL-padded text, and each edge's count of pieces.  Row p is
    point p's "x,y ": point 3j + i is control point i + 1 of piece j, point
    3s + k starts edge k.  Rows n, n + 1 and n + 2 are "M ", "C " and "Z"."""
    import numpy as np
    cubics, counts = _trace_edges(edges, e, frame)
    ends = cubics[:, [0, 3]].ravel()
    span = max(np.ptp(ends.real), np.ptp(ends.imag), 1e-9)
    scale = 0.92 * _VIEW / span
    cx = 0.5 * (ends.real.min() + ends.real.max())
    cy = 0.5 * (ends.imag.min() + ends.imag.max())
    points = np.concatenate([cubics[:, 1:].ravel(), cubics[np.cumsum(counts) - counts, 0]])
    xy = np.stack([points.real - cx, cy - points.imag], axis=1) * scale + _VIEW / 2.0
    del cubics, ends, points  # freed before _fixed3 makes arrays of its own
    chars = _fixed3(xy.ravel())
    n, width = len(xy), chars.shape[1]
    table = np.zeros((n + 3, 2 * width + 2), np.uint8)
    table[:n, :width] = chars[0::2]
    table[:n, width] = ord(",")
    table[:n, width + 1 : -1] = chars[1::2]
    table[:n, -1] = ord(" ")
    table[n:, :2] = np.frombuffer(b"M C Z\0", np.uint8).reshape(3, 2)
    return table, counts


def _paint_tokens(
    t: TilingComplex, e: Embedding, c: np.ndarray, counts: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The faces far to near, and the table rows of their paths in that order."""
    import numpy as np
    # Mean depth along c per face; bincount adds corners in face order, as a scalar sum would.
    depth = _dots(e.positions, np.broadcast_to(c, e.positions.shape))
    he = t.half_edges
    sizes = np.diff(he.face_start, append=len(he.origin))
    sums = np.bincount(he.face_of, weights=depth[he.origin], minlength=len(t.faces))
    order = np.argsort(sums / sizes, kind="stable")

    # The faces' half-edges in paint order, then the pieces each one draws.
    s, first = counts.sum(), np.cumsum(counts) - counts
    z0 = 3 * np.arange(s) - 1
    z0[first] = 3 * s + np.arange(len(counts))
    origin = np.array(he.origin)
    forward = origin < origin[he.nxt]
    edge_of = np.empty(len(origin), np.int64)
    edge_of[forward] = np.arange(len(counts))
    edge_of[~forward] = edge_of[np.array(he.twin)[~forward]]
    h = _ranges(np.array(he.face_start)[order], sizes[order], 1)
    k, step = edge_of[h], np.where(forward[h], 1, -1)
    piece = _ranges(first[k] + (step < 0) * (counts[k] - 1), counts[k], step)
    fwd = np.repeat(step > 0, counts[k])
    z1 = 3 * piece + 2
    # Tokens "M start C a b end Z" per drawn piece; "M start" only at a
    # face's first piece and "Z" only at its last.
    rows = np.stack([
        np.full_like(piece, n), np.where(fwd, z0[piece], z1), np.full_like(piece, n + 1),
        3 * piece + ~fwd, 3 * piece + fwd, np.where(fwd, z1, z0[piece]), np.full_like(piece, n + 2),
    ], axis=1)
    keep = np.ones(rows.shape, bool)
    keep[:, [0, 1, 6]] = False
    starts = (np.cumsum(counts[k]) - counts[k])[np.cumsum(sizes[order]) - sizes[order]]
    keep[starts, :2] = True
    keep[np.append(starts[1:], len(piece)) - 1, 6] = True
    return order, rows[keep]


def _path_text(t: TilingComplex, e: Embedding) -> tuple[np.ndarray, memoryview]:
    """The faces in paint order, and their paths' text, each path ending in "Z"."""
    frame = _projection_frame(t, e)
    table, counts = _point_table(t.undirected_edges(), e, frame)
    order, tokens = _paint_tokens(t, e, frame[2], counts, len(table) - 3)
    return order, memoryview(table.take(tokens, axis=0).tobytes().translate(None, b"\0"))


def export_svg(t: TilingComplex, e: Embedding) -> str:
    """SVG drawing of an embedded tiling, faces filled by kind.

    Projection is stereographic from the point antipodal to the centroid
    of the first m-gon, so that face sits in the middle of the picture.
    Each edge is traced once, and drawn reversed in its second face; the
    cubics stay within 1 unit of the 1000-unit view of the true arcs.
    Faces are painted far-to-near; the face wrapping the projection point
    projects to the region outside its own boundary and, painted first,
    becomes the backdrop for everything else.  An edge through the
    projection pole, or a tiling with no m-gon, raises :class:`ValueError`.

    The path text is built in arrays.  A piece starts bit for bit where the
    one before it ends, so each point is formatted once, by :func:`_fixed3`:
    integer digits where the rounding to thousandths is certain and
    ``format(v, ".3f")`` elsewhere, the bytes ``format`` writes.  The faces'
    half-edges, in paint order, gather these by index: a forward half-edge
    reads its pieces as "C c1 c2 z1", a reversed one as "C c2 c1 z0" from
    the last piece back.  One ``take`` of the point table and one NUL strip
    give all paths' bytes, each ending at its "Z"; one ``b"".join`` adds
    each face's ``<path d="`` and fill, and one decode makes the str.  The
    trace's, table's and tokens' arrays die as soon as they are used, so
    the peak, in the trace, is about 4 times the document.
    """
    import numpy as np
    order, paths = _path_text(t, e)
    ends = (np.flatnonzero(np.frombuffer(paths, np.uint8) == ord("Z")) + 1).tolist()
    tail = '" fill="{}" stroke="#303030" stroke-width="1.5" stroke-linejoin="round"/>\n'
    tails = {kind: tail.format(fill).encode() for kind, fill in _SVG_FILL.items()}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW:.0f} {_VIEW:.0f}">\n'
             f'<rect width="{_VIEW:.0f}" height="{_VIEW:.0f}" fill="white"/>\n'.encode()]
    for fi, a, b in zip(order.tolist(), [0, *ends], ends):
        parts += (b'<path d="', paths[a:b], tails[t.faces[fi].kind])
    parts.append(b"</svg>\n")
    return b"".join(parts).decode("ascii")
