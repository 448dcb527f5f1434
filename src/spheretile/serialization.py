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
_SVG_HEAD = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW:.0f} {_VIEW:.0f}">\n'
             f'<rect width="{_VIEW:.0f}" height="{_VIEW:.0f}" fill="white"/>\n').encode()
_SVG_FOOT = b"</svg>\n"
# The path text around the points, as point-table rows no wider than the
# narrowest point row, "0.000,0.000 ": "C ", a path's opening, then each
# kind's close in _CLOSE_ROWS rows, mgon first.
_CLOSE = [f'Z" fill="{fill}" stroke="#303030" stroke-width="1.5" stroke-linejoin="round"/>\n'.encode()
          for fill in _SVG_FILL.values()]
_CLOSE_ROWS = -(-len(_CLOSE[0]) // 12)
_GLUE = [b"C ", b'<path d="M ']
_GLUE += [close[i : i + 12] for close in _CLOSE for i in range(0, 12 * _CLOSE_ROWS, 12)]
# Least 1 + p.c of a traced point.  A point within about 4.5e-5 rad of
# the projection pole lands so far out that the rest of the picture
# collapses, and the pole itself has no finite image.
_POLE_CLEARANCE = 1e-9
# export_svg strips the NULs from a sixteenth of the tokens at a time, or
# from this many when that is more.
_STRIP_TOKENS = 256


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
        arc_k = arc[k]
        cos, sin = np.cos(t * arc_k), np.sin(t * arc_k)
        p, dp = np.empty((len(k), 3)), np.empty((len(k), 3))
        for col in range(3):  # a coordinate at a time, for fewer temporaries
            x, y = p0[k, col], tangent[k, col]
            np.multiply(cos, x, out=p[:, col])
            p[:, col] += sin * y
            np.multiply(cos, y, out=dp[:, col])
            dp[:, col] -= sin * x
        dp *= arc_k[:, None]
        denom = 1.0 + p @ c
        near = ~(denom > _POLE_CLEARANCE)
        if near.any():
            edge = edges[k[np.argmax(near)]]
            raise ValueError(
                f"edge {edge[0]}-{edge[1]} passes through the projection pole; "
                "it has no finite image"
            )
        u, v = p @ e1, p @ e2
        del p
        du, dv, dpc = dp @ e1, dp @ e2, dp @ c
        del dp
        for x, dx in ((u, du), (v, dv)):  # x = 2 x / denom, dx = (2 dx - x dpc) / denom
            x *= 2.0
            x /= denom
            dx *= 2.0
            dx -= x * dpc
            dx /= denom
        del dpc, denom
        z, d = 1j * v, 1j * dv
        z += u
        d += du
        return z, d

    n = np.maximum(2, np.ceil(arc * 5.1).astype(int))
    k = np.repeat(np.arange(len(edges)), n + 1)
    i = _ranges(np.zeros_like(n), n + 1, 1)
    t = i / n[k]
    z, d = point_and_velocity(k, t)
    tol_abs = 2e-4 * max(np.ptp(z.real), np.ptp(z.imag), 1e-9)

    def refine(level):
        # The pieces (edge, t0, z0, d0, t1, z1, d1) of level len(done), kept
        # or halved.  The list is emptied, so each array dies when last used,
        # and each level's cubics are built once, in place.
        k, t0, z0, d0, t1, z1, d1 = level
        level.clear()
        tm = t0 + t1
        tm *= 0.5
        zm, dm = point_and_velocity(k, tm)
        cubics = np.empty((len(k), 4), complex)
        cubics[:, 0], cubics[:, 3] = z0, z1
        z0, z1 = cubics[:, 0], cubics[:, 3]
        dt = t1 - t0
        c1, c2 = np.multiply(d0, dt, out=cubics[:, 1]), np.multiply(d1, dt, out=cubics[:, 2])
        c1 /= 3.0
        c1 += z0
        c2 /= 3.0
        np.subtract(z1, c2, out=c2)
        miss = 3.0 * c1  # (z0 + 3 c1 + 3 c2 + z1) / 8 - zm, the Bezier midpoint's miss
        miss += z0
        miss += 3.0 * c2
        miss += z1
        miss /= 8.0
        miss -= zm
        split = (np.abs(miss) > tol_abs) & (len(done) < 14)
        if not split.any():
            done.append((k, t0, cubics))
            return []
        halves = [
            np.concatenate([left[split], right[split]])
            for left, right in zip((k, t0, z0, d0, tm, zm, dm), (k, tm, zm, dm, t1, z1, d1))
        ]
        del d0, t1, d1, tm, zm, dm
        done.append((k[~split], t0[~split], cubics[~split]))
        return halves

    j = np.flatnonzero(i < n[k])
    pending, done = [k[j], t[j], z[j], d[j], t[j + 1], z[j + 1], d[j + 1]], []
    del k, i, t, z, d, j  # the knots, freed once the first pieces exist
    while pending:
        pending = refine(pending)

    if len(done) == 1:  # one level, already in edge and t order
        k, _, cubics = done[0]
    else:
        k, t0, cubics = map(np.concatenate, zip(*done))
        done.clear()
        cubics = cubics[np.lexsort((t0, k))]
    return cubics, np.bincount(k, minlength=len(edges))


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
    w = np.where(small, values, 0.0)
    w *= 1000.0
    q = np.floor(w)
    w -= q  # the fraction, in place, as every step below
    q += w > 0.5
    w -= 0.5
    exact = np.abs(w, out=w) > 1e-6
    exact &= small
    del small, w
    q = np.abs(q, out=q).astype(np.int32)
    # Columns: the sign, n_int integer digits, the point and three decimals.
    n_int = len(str(int(q.max(initial=0)) // 1000))
    chars = np.zeros((len(q), n_int + 5), np.uint8)
    negative = np.signbit(values)
    chars[negative, 0] = 45
    chars[:, n_int + 1] = 46
    rest = np.empty_like(q)
    for col in (n_int + 4, n_int + 3, n_int + 2, *range(n_int, 0, -1)):
        # q is the value in units of this column's place; integer digits
        # left of the units column stay NUL once it reaches 0.
        live = q > 0 if col < n_int else True
        np.divmod(q, 10, out=(rest, q))
        np.add(q, 48, out=chars[:, col], where=live, casting="unsafe")
        q, rest = rest, q
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
    3s + k starts edge k.  Row n + i is ``_GLUE[i]``."""
    import numpy as np
    cubics, counts = _trace_edges(edges, e, frame)
    ends = cubics[:, ::3]
    span = max(np.ptp(ends.real), np.ptp(ends.imag), 1e-9)
    scale = 0.92 * _VIEW / span
    cx = 0.5 * (ends.real.min() + ends.real.max())
    cy = 0.5 * (ends.imag.min() + ends.imag.max())
    s = len(cubics)
    points = np.empty(3 * s + len(counts), complex)
    points[: 3 * s].reshape(s, 3)[:] = cubics[:, 1:]
    points[3 * s :] = cubics[np.cumsum(counts) - counts, 0]
    del cubics, ends  # freed before _fixed3 makes arrays of its own
    xy = points.view(np.float64).reshape(-1, 2)  # (x, y) per point, mapped in place
    xy[:, 0] -= cx
    np.subtract(cy, xy[:, 1], out=xy[:, 1])
    xy *= scale
    xy += _VIEW / 2.0
    chars = _fixed3(xy.ravel())
    n, width = len(xy), chars.shape[1]
    del points, xy
    table = np.zeros((n + len(_GLUE), 2 * width + 2), np.uint8)
    table[:n, :width] = chars[0::2]
    table[:n, width] = ord(",")
    table[:n, width + 1 : -1] = chars[1::2]
    table[:n, -1] = ord(" ")
    for row, text in enumerate(_GLUE, n):
        table[row, : len(text)] = np.frombuffer(text, np.uint8)
    return table, counts


def _paint_tokens(
    t: TilingComplex, e: Embedding, c: np.ndarray, counts: np.ndarray, n: int
) -> np.ndarray:
    """The table rows of the faces' paths, far to near."""
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
    drawn = counts[k]
    piece = _ranges(first[k] + (step < 0) * (drawn - 1), drawn, step)
    fwd = np.repeat(step > 0, drawn)
    # Tokens "<path d="M start" before a face's first piece, "C a b end" per
    # drawn piece and the face's close after its last, scattered in int32.
    j = (np.cumsum(drawn) - drawn)[np.cumsum(sizes[order]) - sizes[order]]  # faces' first pieces
    at = np.full(len(piece), 4)
    at[j] = 6 + _CLOSE_ROWS
    at[0] = 2
    at = np.cumsum(at)  # where each piece's "C" goes
    tokens = np.empty(4 * len(piece) + (2 + _CLOSE_ROWS) * len(j), np.int32)
    tokens[at] = n
    row = 3 * piece  # the rows of the piece's c1 and c2, then of its z1
    tokens[at + 1] = row + ~fwd
    tokens[at + 2] = row + fwd
    row += 2
    tokens[at + 3] = np.where(fwd, row, z0[piece])
    tokens[at[j] - 2] = n + 1
    tokens[at[j] - 1] = np.where(fwd[j], z0[piece[j]], row[j])
    close = np.append(at[j[1:]] - 2, len(tokens))[:, None] - _CLOSE_ROWS + np.arange(_CLOSE_ROWS)
    kind = np.array([f.kind != "mgon" for f in t.faces])[order]
    tokens[close] = n + 2 + _CLOSE_ROWS * kind[:, None] + np.arange(_CLOSE_ROWS)
    return tokens


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
    the last piece back.  Each path's opening and its close with the fill
    are rows of the same point table.  A ``take`` of the table's rows and a
    NUL strip, a sixteenth of the tokens at a time, write every path into
    one buffer between the header and the footer, and one decode makes the
    str.  The arithmetic runs in place and each array dies once used, so
    the peak, in the trace, is about 2.2 times the document: the buffer
    and the str at the end, and the trace's first level at the start.
    """
    import numpy as np
    frame = _projection_frame(t, e)
    table, counts = _point_table(t.undirected_edges(), e, frame)
    tokens = _paint_tokens(t, e, frame[2], counts, len(table) - len(_GLUE))
    lengths = np.add.reduce(table != 0, axis=1, dtype=np.uint16)  # a value's text is under 400 bytes
    svg = bytearray(len(_SVG_HEAD) + int(lengths[tokens].sum(dtype=np.int64)) + len(_SVG_FOOT))
    svg[: len(_SVG_HEAD)], svg[len(svg) - len(_SVG_FOOT) :] = _SVG_HEAD, _SVG_FOOT
    at, step = len(_SVG_HEAD), max(_STRIP_TOKENS, len(tokens) >> 4)
    for a in range(0, len(tokens), step):
        text = table.take(tokens[a : a + step], axis=0).tobytes().translate(None, b"\0")
        svg[at : at + len(text)] = text
        at += len(text)
    del table, tokens
    return svg.decode("ascii")
