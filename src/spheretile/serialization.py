"""File formats: tiling JSON documents, OBJ meshes, SVG projections.

The JSON document is the interchange format between the generate and
verify commands.  Its schema is deliberately rigid (no extra fields, no
alternative spellings) so a document either parses completely or fails
with a :class:`SchemaError` naming the offending field.

The OBJ mesh joins the vertices by straight chords, for display only.  The
SVG picture is a stereographic projection, which takes each edge's great
circle to a circle or a line, so :func:`export_svg` draws each edge as one
exact SVG arc.

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
# The path text around the numbers, as table rows no wider than the
# narrowest number row, "0.000,0.000 ": "A ", a path's opening, the flag
# rows "0 large,sweep " in the order 2 large + sweep, then each kind's
# close in _CLOSE_ROWS rows, mgon first.
_CLOSE = [f'Z" fill="{fill}" stroke="#303030" stroke-width="1.5" stroke-linejoin="round"/>\n'.encode()
          for fill in _SVG_FILL.values()]
_CLOSE_ROWS = -(-len(_CLOSE[0]) // 12)
_GLUE = [b"A ", b'<path d="M ', *(f"0 {large},{sweep} ".encode() for large in (0, 1) for sweep in (0, 1))]
_GLUE += [close[i : i + 12] for close in _CLOSE for i in range(0, 12 * _CLOSE_ROWS, 12)]
# Least 1 + p.c along a drawn arc.  A point within about 4.5e-5 rad of
# the projection pole lands so far out that the rest of the picture
# collapses, and the pole itself has no finite image.
_POLE_CLEARANCE = 1e-9
# An arc whose sagitta in the view is under half the last digit written
# is drawn as its chord.
_STRAIGHT = 5e-4
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


def _arcs(u: np.ndarray, v: np.ndarray, e: Embedding, frame) -> tuple[np.ndarray, np.ndarray]:
    """The numbers each path writes, as pairs: (x, y) of each vertex's image
    in the view, then (r, r) of each edge (u[k], v[k])'s radius in the
    view; and each edge's flags 2 large + sweep, drawn from u[k] to v[k].

    The projection z = 2 (p.e1 + i p.e2) / (1 + p.c) takes the great circle
    with unit normal n = a e1 + b e2 + g c to the circle with centre
    C = 2 (a + i b) / g and radius R = 2 / |g|.  It keeps orientation
    (e1 x e2 = c), so the image of the arc from u to v turns
    counterclockwise where g > 0: the hemisphere on its left, p.n > 0,
    holds c, whose image 0 every such circle encloses.  So in the plane,
    y up, its midpoint lies left of the chord, and sweep is 1, where g < 0;
    it is large where C lies on that side too.  The view fits the
    box of the vertex images and of each circle's points C +- R and
    C +- iR that lie on its arc.  An arc whose sagitta in the view is under
    _STRAIGHT gets radius 0, which SVG draws as a line; so does g = 0,
    whose centre is at infinity.  An edge whose arc comes within
    _POLE_CLEARANCE of the projection pole raises ValueError.
    """
    import numpy as np

    def along(rows, axis):
        return _dots(rows, np.broadcast_to(axis, rows.shape))

    e1, e2, c = frame
    p = e.positions
    p0, p1 = p[u], p[v]
    n = _cross(p0, p1)
    n /= np.sqrt(_dots(n, n))[:, None]
    a, b, g = along(n, e1), along(n, e2), along(n, c)
    # 1 + p.c is least along the arc at an end, or at the circle's point
    # nearest -c where that lies inside the arc: where p0.m <= 0 <= p1.m
    # for m = c x n.
    m = _cross(c, n)
    inside = _dots(p0, m) <= 0.0
    inside &= _dots(p1, m) >= 0.0
    del p0, p1, n, m
    depth = 1.0 + along(p, c)
    least = np.minimum(depth[u], depth[v])
    least[inside] = 1.0 - np.sqrt(1.0 - np.minimum(g[inside] ** 2, 1.0))
    near = np.flatnonzero(~(least > _POLE_CLEARANCE))
    if len(near):
        raise ValueError(
            f"edge {u[near[0]]}-{v[near[0]]} passes through the projection pole; "
            "it has no finite image"
        )
    del least, inside
    x, y = 2.0 * along(p, e1) / depth, 2.0 * along(p, e2) / depth
    x0, y0, dx, dy = x[u], y[u], x[v] - x[u], y[v] - y[u]
    # (z1 - z0) x g (C - z0), for x the plane's cross product: negative
    # where C lies on the midpoint's side.  It stays finite as g goes to 0.
    side = dx * (2.0 * b - g * y0) - dy * (2.0 * a - g * x0)
    large = side < 0.0
    # The small arc's sagitta: h^2 k / (1 + sqrt(1 - (h k)^2)) for the half
    # chord h and the curvature k = |g| / 2, in plane units.
    h2, k = (dx * dx + dy * dy) / 4.0, np.abs(g) / 2.0
    sagitta = h2 * k / (1.0 + np.sqrt(np.maximum(0.0, 1.0 - h2 * k * k)))

    def box(xs, ys):
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        span = max(np.ptp(xs), np.ptp(ys), 1e-9)
        return 0.92 * _VIEW / span, 0.5 * (xs.min() + xs.max()), 0.5 * (ys.min() + ys.max())

    # The final box holds the vertices' box, so an arc straight in the
    # vertices' view stays straight.  Its C and R are far out and cancel,
    # so only the other arcs add the points C +- R and C +- iR that lie on
    # them: P lies on the midpoint's side where (z1 - z0) x g (P - z0) < 0.
    curved = large | ~(sagitta * box([x], [y])[0] < _STRAIGHT)
    g_c, side_c = g[curved], side[curved]
    radius, turn = 2.0 / np.abs(g_c), 2.0 * np.sign(g_c)  # R and g R
    xs, ys = [x], [y]
    for out, centre, lean in ((xs, a, -dy), (ys, b, dx)):  # lean = (z1 - z0) x the axis
        centre, lean = 2.0 * centre[curved] / g_c, lean[curved]
        for sign in (1.0, -1.0):
            on = side_c + sign * turn * lean < 0.0
            out.append(centre[on] + sign * radius[on])
    scale, cx, cy = box(xs, ys)

    straight = ~large & (sagitta * scale < _STRAIGHT)
    radii = np.divide(2.0, np.abs(g), out=np.zeros_like(g), where=~straight)
    radii *= scale
    view = np.column_stack([(x - cx) * scale, (cy - y) * scale]) + _VIEW / 2.0
    return np.concatenate([view, np.column_stack([radii, radii])]), 2 * large + (g < 0.0)


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


def _paint_tokens(
    t: TilingComplex, e: Embedding, c: np.ndarray, origin: np.ndarray, head: np.ndarray, flags: np.ndarray
) -> np.ndarray:
    """The table rows of the faces' paths, far to near.  Row v is vertex v's
    image, row V + k edge k's radius, and row V + E + i is ``_GLUE[i]``;
    half-edge h runs from ``origin[h]`` to ``head[h]``."""
    import numpy as np
    # Mean depth along c per face; bincount adds corners in face order, as a scalar sum would.
    depth = _dots(e.positions, np.broadcast_to(c, e.positions.shape))
    he = t.half_edges
    sizes = np.diff(he.face_start, append=len(origin))
    sums = np.bincount(he.face_of, weights=depth[origin], minlength=len(t.faces))
    order = np.argsort(sums / sizes, kind="stable")
    sizes = sizes[order]

    # The faces' half-edges in paint order, each drawn along its edge's arc,
    # reversed (sweep flipped) where it runs from the higher vertex.
    forward = origin < head
    edge_of = np.empty(len(origin), np.int32)
    edge_of[forward] = np.arange(len(flags))
    edge_of[~forward] = edge_of[np.array(he.twin)[~forward]]
    h = _ranges(np.array(he.face_start)[order], sizes, 1)
    k = edge_of[h]
    del edge_of
    # Tokens "<path d="M start" before a face's first half-edge, "A radius
    # flags head" per half-edge and the face's close after its last.
    glue = len(depth) + len(flags)
    at = np.repeat(np.arange(len(order), dtype=np.int32) * (2 + _CLOSE_ROWS) + 2, sizes)
    at += np.arange(0, 4 * len(h), 4, dtype=np.int32)  # where each half-edge's "A" goes
    tokens = np.empty(4 * len(h) + (2 + _CLOSE_ROWS) * len(order), np.int32)
    tokens[at] = glue
    tokens[at + 1] = len(depth) + k
    tokens[at + 2] = glue + 2 + (flags[k] ^ ~forward[h])
    tokens[at + 3] = head[h]
    last = np.cumsum(sizes) - 1
    first = last + 1 - sizes
    tokens[at[first] - 2] = glue + 1
    tokens[at[first] - 1] = origin[h[first]]
    kind = np.array([f.kind != "mgon" for f in t.faces])[order]
    close = at[last][:, None] + 4 + np.arange(_CLOSE_ROWS)
    tokens[close] = glue + 6 + _CLOSE_ROWS * kind[:, None] + np.arange(_CLOSE_ROWS)
    return tokens


def export_svg(t: TilingComplex, e: Embedding) -> str:
    """SVG drawing of an embedded tiling, faces filled by kind.

    Projection is stereographic from the point antipodal to the centroid
    of the first m-gon, so that face sits in the middle of the picture.
    Stereographic projection takes circles to circles, so each edge is
    drawn as one exact SVG arc, ``A r,r 0 large,sweep x,y``, or as a line
    where its sagitta is under half the last digit written (see
    :func:`_arcs`), and drawn reversed in its second face.  Faces are
    painted far-to-near; the face wrapping the projection point projects
    to the region outside its own boundary and, painted first, becomes the
    backdrop for everything else.  An edge through the projection pole, or
    a tiling with no m-gon, raises :class:`ValueError`.

    Each vertex image "x,y" and each edge's radius "r,r" is formatted once
    for both faces, by :func:`_fixed3`: integer digits where the rounding
    to thousandths is certain and ``format(v, ".3f")`` elsewhere, the bytes
    ``format`` writes.  These are the rows of one NUL-padded byte table, with the
    path text around them (``A``, the opening, the four flag rows and the
    closes) as more rows; the faces' half-edges, in paint order, gather
    them by index.  A ``take`` of the table's rows and a NUL strip, a
    sixteenth of the tokens at a time, write every path into one buffer
    between the header and the footer, and one decode makes the str.  So
    the traced peak is about twice the document: the buffer and the str at
    the end, and about as much in :func:`_arcs` at the start.
    """
    import numpy as np
    frame = _projection_frame(t, e)
    origin = np.array(t.half_edges.origin)
    head = origin[t.half_edges.nxt]
    edges = np.flatnonzero(origin < head)  # in t.undirected_edges() order
    pairs, flags = _arcs(origin[edges], head[edges], e, frame)
    del edges
    chars = _fixed3(pairs.ravel())
    n, width = len(pairs), chars.shape[1]
    del pairs
    table = np.zeros((n + len(_GLUE), 2 * width + 2), np.uint8)
    table[:n, :width] = chars[0::2]
    table[:n, width] = ord(",")
    table[:n, width + 1 : -1] = chars[1::2]
    table[:n, -1] = ord(" ")
    for row, text in enumerate(_GLUE, n):
        table[row, : len(text)] = np.frombuffer(text, np.uint8)
    del chars
    tokens = _paint_tokens(t, e, frame[2], origin, head, flags)
    del origin, head, flags
    lengths = np.add.reduce(table != 0, axis=1, dtype=np.uint16)  # a value's text is under 400 bytes
    svg = bytearray(len(_SVG_HEAD) + int(lengths[tokens].sum(dtype=np.int64)) + len(_SVG_FOOT))
    svg[: len(_SVG_HEAD)], svg[len(svg) - len(_SVG_FOOT) :] = _SVG_HEAD, _SVG_FOOT
    at, step = len(_SVG_HEAD), max(_STRIP_TOKENS, len(tokens) >> 4)
    for a in range(0, len(tokens), step):
        text = table.take(tokens[a : a + step], axis=0).tobytes().translate(None, b"\0")
        svg[at : at + len(text)] = text
        at += len(text)
    del table, tokens, lengths, text
    return svg.decode("ascii")
