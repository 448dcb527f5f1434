"""File formats: tiling JSON documents, OBJ meshes, SVG projections.

The JSON document is the interchange format between the generate and
verify commands.  Its schema is deliberately rigid (no extra fields, no
alternative spellings) so a document either parses completely or fails
with a :class:`SchemaError` naming the offending field.
"""

from __future__ import annotations

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


def _projection_frame(t: TilingComplex, e: Embedding) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal frame (e1, e2, c) with c the seed-face centroid."""
    face = t.faces[e.seed_face]
    c = sum(e.positions[v] for v in face.vertices)
    c = c / np.linalg.norm(c)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(ref, c)) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, c) * c
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    return e1, e2, c


def _project(p: np.ndarray, frame) -> complex:
    """Stereographic image of p, projected from the antipode of the centroid."""
    e1, e2, c = frame
    denom = 1.0 + float(np.dot(p, c))
    if denom < 1e-9:
        denom = 1e-9
    return complex(2.0 * float(np.dot(p, e1)) / denom, 2.0 * float(np.dot(p, e2)) / denom)


def _edge_cubics(
    p0: np.ndarray,
    p1: np.ndarray,
    frame,
    tol_abs: float = math.inf,
) -> list[tuple[complex, complex, complex, complex]]:
    """Cubic Bezier chain tracing the projected geodesic from p0 to p1.

    Each piece is a Hermite cubic built from the analytically projected
    endpoint tangents.  Pieces whose midpoint strays more than ``tol_abs``
    (projected-plane units) from the true curve are bisected, which keeps
    arcs near the projection point (where curvature explodes) accurate.
    """
    cos_arc = max(-1.0, min(1.0, float(np.dot(p0, p1))))
    arc = math.acos(cos_arc)
    tangent = p1 - cos_arc * p0
    tangent /= np.linalg.norm(tangent)
    e1, e2, c = frame

    def point_and_velocity(t_param: float) -> tuple[complex, complex]:
        a = t_param * arc
        p = math.cos(a) * p0 + math.sin(a) * tangent
        dp = arc * (-math.sin(a) * p0 + math.cos(a) * tangent)
        denom = 1.0 + float(np.dot(p, c))
        u = 2.0 * float(np.dot(p, e1)) / denom
        v = 2.0 * float(np.dot(p, e2)) / denom
        du = (2.0 * float(np.dot(dp, e1)) - u * float(np.dot(dp, c))) / denom
        dv = (2.0 * float(np.dot(dp, e2)) - v * float(np.dot(dp, c))) / denom
        return complex(u, v), complex(du, dv)

    def hermite(t0, z0, d0, t1, z1, d1):
        h = t1 - t0
        return (z0, z0 + d0 * h / 3.0, z1 - d1 * h / 3.0, z1)

    cubics = []

    def emit(t0, z0, d0, t1, z1, d1, depth):
        seg = hermite(t0, z0, d0, t1, z1, d1)
        tm = 0.5 * (t0 + t1)
        zm, dm = point_and_velocity(tm)
        bez_mid = (seg[0] + 3.0 * seg[1] + 3.0 * seg[2] + seg[3]) / 8.0
        if abs(bez_mid - zm) > tol_abs and depth < 14:
            emit(t0, z0, d0, tm, zm, dm, depth + 1)
            emit(tm, zm, dm, t1, z1, d1, depth + 1)
        else:
            cubics.append(seg)

    n = max(2, int(math.ceil(arc * 5.1)))
    knots = [point_and_velocity(i / n) for i in range(n + 1)]
    for i in range(n):
        z0, d0 = knots[i]
        z1, d1 = knots[i + 1]
        emit(i / n, z0, d0, (i + 1) / n, z1, d1, 0)
    return cubics


def export_svg(t: TilingComplex, e: Embedding) -> str:
    """SVG drawing of an embedded tiling, faces filled by kind.

    Projection is stereographic from the point antipodal to the seed-face
    centroid, so the seed face sits near the middle of the picture.
    Faces are painted far-to-near; the face wrapping the projection point
    projects to the region outside its own boundary and, painted first,
    becomes the backdrop for everything else.
    """
    frame = _projection_frame(t, e)

    def chains(tol_abs: float) -> list[list[tuple[complex, complex, complex, complex]]]:
        out = []
        for face in t.faces:
            chain = []
            k = face.size
            for i in range(k):
                p0 = e.positions[face.vertices[i]]
                p1 = e.positions[face.vertices[(i + 1) % k]]
                chain.extend(_edge_cubics(p0, p1, frame, tol_abs))
            out.append(chain)
        return out

    # First pass fixes the drawing extent; the second regenerates every
    # arc against an absolute deviation budget of 2e-4 of that extent,
    # five times tighter than the 1e-3 drawing tolerance.
    rough = chains(math.inf)
    rough_points = [z for chain in rough for seg in chain for z in (seg[0], seg[3])]
    rough_span = max(
        max(z.real for z in rough_points) - min(z.real for z in rough_points),
        max(z.imag for z in rough_points) - min(z.imag for z in rough_points),
        1e-9,
    )
    face_cubics = chains(2e-4 * rough_span)

    all_points = [
        z for chain in face_cubics for seg in chain for z in (seg[0], seg[3])
    ]
    xs = [z.real for z in all_points]
    ys = [z.imag for z in all_points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    scale = 0.92 * _VIEW / span
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))

    def pt(z: complex) -> str:
        px = (z.real - cx) * scale + _VIEW / 2.0
        py = (cy - z.imag) * scale + _VIEW / 2.0
        return f"{px:.3f},{py:.3f}"

    def path_of(chain) -> str:
        parts = [f"M {pt(chain[0][0])}"]
        for (_, c1, c2, z1) in chain:
            parts.append(f"C {pt(c1)} {pt(c2)} {pt(z1)}")
        parts.append("Z")
        return " ".join(parts)

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
            f'<path d="{path_of(face_cubics[fi])}" fill="{fill}" '
            f'stroke="#303030" stroke-width="1.5" stroke-linejoin="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
