"""File formats: tiling JSON documents, OBJ meshes, SVG projections.

The JSON document is the interchange format between the generate and
verify commands.  Its schema is deliberately rigid (no extra fields, no
alternative spellings) so a document either parses completely or fails
with a :class:`SchemaError` naming the offending field.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trig import ANGLE_NAMES, AngleSolution, _f17
from .complexes import KINDS, BadLabels, TilingComplex, build_from_faces
from .realization import Embedding


class SchemaError(Exception):
    """The document does not match the tiling JSON schema."""


@dataclass
class TilingDocument:
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
        """Coordinates keyed by the complex's internal vertex ids."""
        if self.coordinates is None:
            raise ValueError("document has no coordinates")
        positions = {
            v: np.array(self.coordinates[name])
            for v, name in enumerate(t.vertex_names)
        }
        return Embedding(positions)


def angles_payload(s: AngleSolution) -> dict[str, str]:
    return {
        "alpha": _f17(s.alpha),
        "beta": _f17(s.beta),
        "gamma": _f17(s.gamma),
        "cos_x": _f17(s.cos_x),
    }


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
        payload["coordinates"] = [
            [float(c) for c in embedding.positions[v]]
            for v in range(t.vertex_count)
        ]
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
    except json.JSONDecodeError as exc:
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
    face_specs = []
    seen_ids: set[int] = set()
    for i, rf in enumerate(raw_faces):
        _require(isinstance(rf, dict), f"face {i} must be an object")
        extra = set(rf) - {"kind", "vertices", "labels"}
        _require(not extra, f"face {i} has unknown field(s): {sorted(extra)}")
        for key in ("kind", "vertices", "labels"):
            _require(key in rf, f"face {i} is missing {key!r}")
        kind = rf["kind"]
        _require(kind in KINDS, f"face {i} kind must be one of {KINDS}")
        verts = rf["vertices"]
        labels = rf["labels"]
        _require(
            isinstance(verts, list) and len(verts) >= 3,
            f"face {i} needs at least 3 vertices",
        )
        _require(
            isinstance(labels, list) and len(labels) == len(verts),
            f"face {i} labels must align with its vertices",
        )
        for v in verts:
            _require(
                _is_int(v) and 0 <= v < count,
                f"face {i} vertex id {v!r} outside [0, {count})",
            )
            seen_ids.add(v)
        for lab in labels:
            _require(lab in ANGLE_NAMES, f"face {i} label {lab!r} is not an angle name")
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
            _require(
                isinstance(p, list) and len(p) == 3 and all(_is_number(c) for c in p),
                f"coordinate {i} must be [x, y, z] numbers",
            )
            triple = [float(c) for c in p]
            _require(
                all(math.isfinite(c) for c in triple),
                f"coordinate {i} must be finite",
            )
            coordinates.append(triple)

    angles = None
    if "angles" in doc:
        raw = doc["angles"]
        _require(isinstance(raw, dict), "'angles' must be an object")
        keys = {"alpha", "beta", "gamma", "cos_x"}
        _require(
            set(raw) == keys,
            f"'angles' must have exactly the keys {sorted(keys)}",
        )
        values = {}
        for key in ("alpha", "beta", "gamma", "cos_x"):
            _require(
                isinstance(raw[key], str),
                f"angles.{key} must be a decimal string",
            )
            try:
                values[key] = float(raw[key])
            except ValueError as exc:
                raise SchemaError(f"angles.{key} is not a decimal number") from exc
            _require(math.isfinite(values[key]), f"angles.{key} must be finite")
        angles = AngleSolution(
            m=m,
            alpha=values["alpha"],
            beta=values["beta"],
            gamma=values["gamma"],
            cos_x=values["cos_x"],
        )

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
    for v in range(t.vertex_count):
        x, y, z = e.positions[v]
        lines.append(f"v {_f17(x)} {_f17(y)} {_f17(z)}")
    for face in t.faces:
        lines.append("f " + " ".join(str(v + 1) for v in face.vertices))
    return "\n".join(lines) + "\n"


# -- SVG ----------------------------------------------------------------------

_SVG_FILL = {"mgon": "#4878a8", "rhombus": "#e8c468"}
_VIEW = 1000.0
# Least 1 + p.c of a traced point.  A point within about 4.5e-5 rad of
# the projection pole lands so far out that the rest of the picture
# collapses, and the pole itself has no finite image.
_POLE_CLEARANCE = 1e-9


def _projection_frame(t: TilingComplex, e: Embedding) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal frame (e1, e2, c) with c the centroid of the first m-gon."""
    face = next(f for f in t.faces if f.kind == "mgon")
    c = sum(e.positions[v] for v in face.vertices)
    c = c / np.linalg.norm(c)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(ref, c)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, c) * c
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    return e1, e2, c


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
    Every edge is refined at once, level by level.
    """
    e1, e2, c = frame
    p0 = np.array([e.positions[u] for u, _ in edges])
    p1 = np.array([e.positions[v] for _, v in edges])
    cos_arc = np.clip(np.einsum("ij,ij->i", p0, p1), -1.0, 1.0)
    arc = np.arccos(cos_arc)
    tangent = p1 - cos_arc[:, None] * p0
    tangent /= np.linalg.norm(tangent, axis=1)[:, None]

    def point_and_velocity(k: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = (t * arc[k])[:, None]
        p = np.cos(a) * p0[k] + np.sin(a) * tangent[k]
        dp = arc[k][:, None] * (-np.sin(a) * p0[k] + np.cos(a) * tangent[k])
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
    i = np.arange(len(k)) - np.repeat(np.cumsum(n + 1) - (n + 1), n + 1)
    t = i / n[k]
    z, d = point_and_velocity(k, t)
    tol_abs = 2e-4 * max(np.ptp(z.real), np.ptp(z.imag), 1e-9)

    # Pieces (edge, t0, z0, d0, t1, z1, d1) between consecutive knots.
    j = np.flatnonzero(i < n[k])
    pending = (k[j], t[j], z[j], d[j], t[j + 1], z[j + 1], d[j + 1])
    done = []
    for depth in range(15):
        k, t0, z0, d0, t1, z1, d1 = pending
        c1 = z0 + d0 * (t1 - t0) / 3.0
        c2 = z1 - d1 * (t1 - t0) / 3.0
        tm = 0.5 * (t0 + t1)
        zm, dm = point_and_velocity(k, tm)
        bez_mid = (z0 + 3.0 * c1 + 3.0 * c2 + z1) / 8.0
        split = (np.abs(bez_mid - zm) > tol_abs) & (depth < 14)
        done.append((k[~split], t0[~split], np.stack([z0, c1, c2, z1], axis=1)[~split]))
        pending = tuple(
            np.concatenate([left[split], right[split]])
            for left, right in zip((k, t0, z0, d0, tm, zm, dm), (k, tm, zm, dm, t1, z1, d1))
        )

    k, t0, cubics = (np.concatenate(column) for column in zip(*done))
    return cubics[np.lexsort((t0, k))], np.bincount(k, minlength=len(edges))


def export_svg(t: TilingComplex, e: Embedding) -> str:
    """SVG drawing of an embedded tiling, faces filled by kind.

    Projection is stereographic from the point antipodal to the centroid
    of the first m-gon, so that face sits in the middle of the picture.
    Each edge is traced once, and drawn reversed in its second face; the
    cubics stay within 1 unit of the 1000-unit view of the true arcs.
    Faces are painted far-to-near; the face wrapping the projection point
    projects to the region outside its own boundary and, painted first,
    becomes the backdrop for everything else.  An edge through the
    projection pole raises :class:`ValueError` naming it.
    """
    frame = _projection_frame(t, e)
    edges = t.undirected_edges()
    cubics, counts = _trace_edges(edges, e, frame)

    ends = cubics[:, [0, 3]].ravel()
    span = max(np.ptp(ends.real), np.ptp(ends.imag), 1e-9)
    scale = 0.92 * _VIEW / span
    cx = 0.5 * (ends.real.min() + ends.real.max())
    cy = 0.5 * (ends.imag.min() + ends.imag.max())

    # Each control point is formatted once, for both faces of its edge.
    points = cubics.ravel()
    xs = ((points.real - cx) * scale + _VIEW / 2.0).tolist()
    ys = ((cy - points.imag) * scale + _VIEW / 2.0).tolist()
    text = [f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys)]
    rows = iter([text[j : j + 4] for j in range(0, len(text), 4)])
    edge_text = {}
    for (u, v), count in zip(edges, counts.tolist()):
        edge_text[u, v] = list(itertools.islice(rows, count))
        edge_text[v, u] = [row[::-1] for row in reversed(edge_text[u, v])]

    def path_of(face) -> str:
        cycle = face.vertices
        chain = [row for u, v in zip(cycle, cycle[1:] + cycle[:1]) for row in edge_text[u, v]]
        curves = [f"C {c1} {c2} {z1}" for _, c1, c2, z1 in chain]
        return " ".join([f"M {chain[0][0]}", *curves, "Z"])

    _, _, c = frame
    order = sorted(
        range(len(t.faces)),
        key=lambda fi: sum(
            float(np.dot(e.positions[v], c)) for v in t.faces[fi].vertices
        )
        / t.faces[fi].size,
    )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW:.0f} {_VIEW:.0f}">',
        f'<rect width="{_VIEW:.0f}" height="{_VIEW:.0f}" fill="white"/>',
    ]
    for fi in order:
        fill = _SVG_FILL[t.faces[fi].kind]
        lines.append(
            f'<path d="{path_of(t.faces[fi])}" fill="{fill}" '
            f'stroke="#303030" stroke-width="1.5" stroke-linejoin="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
