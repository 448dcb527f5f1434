"""JSON round trips, schema strictness, and the OBJ/SVG exporters."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spheretile.complexes import BadLabels, build_from_faces, isomorphic
from spheretile.generators import (
    earth_map,
    football,
    prism,
    snub_fusion,
)
from spheretile.realization import (
    embed_generic,
    embed_prism,
    prism_solution,
    sporadic_solution,
)
from spheretile.serialization import (
    SchemaError,
    export_obj,
    export_svg,
    parse_tiling,
    serialize_tiling,
)

GENERATORS = [
    lambda: prism(3),
    lambda: prism(5),
    lambda: prism(9),
    lambda: earth_map(2),
    lambda: earth_map(4),
    lambda: football(),
    lambda: snub_fusion(1),
    lambda: snub_fusion(2),
    lambda: snub_fusion(3),
]


@pytest.mark.parametrize("make", GENERATORS)
def test_round_trip_preserves_isomorphism_type(make):
    t = make()
    doc = parse_tiling(serialize_tiling(t))
    rebuilt = doc.build()
    assert isomorphic(t, rebuilt)
    assert rebuilt.census() == t.census()


def test_round_trip_preserves_floats_exactly():
    t, e = embed_prism(5, 1.2)
    s = prism_solution(5, 1.2)
    text = serialize_tiling(t, embedding=e, angles=s)
    doc = parse_tiling(text)
    assert doc.angles is not None
    assert (doc.angles.alpha, doc.angles.beta, doc.angles.gamma, doc.angles.cos_x) == (
        s.alpha,
        s.beta,
        s.gamma,
        s.cos_x,
    )
    rebuilt = doc.build()
    recovered = doc.embedding_for(rebuilt)
    for v in range(t.vertex_count):
        assert np.array_equal(recovered.positions[v], e.positions[v])


def test_serialized_text_is_stable():
    t = prism(5)
    assert serialize_tiling(t) == serialize_tiling(prism(5))
    payload = json.loads(serialize_tiling(t))
    assert list(payload) == ["m", "vertices", "faces"]
    assert payload["m"] == 5
    assert payload["vertices"] == 10
    assert list(payload["faces"][0]) == ["kind", "vertices", "labels"]


def test_serialize_rejects_provisional_triangles():
    # Only m-gons and rhombi exist, so no complex can carry a face the
    # document format cannot represent.
    specs = prism(3).face_specs()
    specs[0] = ("triangle", specs[0][1], ["gamma"] * 3)
    with pytest.raises(BadLabels, match="unknown face kind"):
        build_from_faces(specs)


def _valid_payload():
    return json.loads(serialize_tiling(prism(5)))


def _expect_schema_error(payload, match):
    with pytest.raises(SchemaError, match=match):
        parse_tiling(json.dumps(payload))


def test_parse_rejects_malformed_documents():
    _expect_schema_error([1, 2, 3], "object")

    p = _valid_payload()
    del p["m"]
    _expect_schema_error(p, "m")

    p = _valid_payload()
    p["extra"] = 1
    _expect_schema_error(p, "extra")

    p = _valid_payload()
    p["m"] = True
    _expect_schema_error(p, "m")

    p = _valid_payload()
    p["faces"][0]["kind"] = "hexagon"
    _expect_schema_error(p, "kind")

    p = _valid_payload()
    p["faces"][1]["labels"][0] = "delta"
    _expect_schema_error(p, "label")

    p = _valid_payload()
    p["faces"][0]["vertices"][0] = 99
    _expect_schema_error(p, "range|vertex")

    p = _valid_payload()
    p["vertices"] = 11
    _expect_schema_error(p, "11|count|declared")

    p = _valid_payload()
    p["faces"][0]["shade"] = "blue"
    _expect_schema_error(p, "shade")


def test_parse_rejects_bad_coordinates_and_angles():
    t, e = embed_prism(5, 1.2)
    s = prism_solution(5, 1.2)
    good = json.loads(serialize_tiling(t, embedding=e, angles=s))

    p = json.loads(json.dumps(good))
    p["coordinates"][0] = [0.0, 1.0]
    _expect_schema_error(p, "coordinate")

    p = json.loads(json.dumps(good))
    p["coordinates"][2][1] = float("nan")
    _expect_schema_error(p, "finite|coordinate")

    p = json.loads(json.dumps(good))
    p["coordinates"].append([0.0, 0.0, 1.0])
    _expect_schema_error(p, "coordinate")

    p = json.loads(json.dumps(good))
    del p["angles"]["cos_x"]
    _expect_schema_error(p, "angles")

    p = json.loads(json.dumps(good))
    p["angles"]["alpha"] = 2.6
    _expect_schema_error(p, "string")

    p = json.loads(json.dumps(good))
    p["angles"]["alpha"] = "not-a-number"
    _expect_schema_error(p, "angles|number")


def test_parse_rejects_truncated_json():
    text = serialize_tiling(prism(5))
    with pytest.raises(SchemaError):
        parse_tiling(text[: len(text) // 2])


# -- display exports ------------------------------------------------------------------


def test_export_obj_shape():
    t, e = embed_prism(5, 1.2)
    lines = export_obj(t, e).splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 10
    assert len(f_lines) == 7
    for line in v_lines:
        parts = line.split()
        assert len(parts) == 4
        assert abs(np.linalg.norm([float(x) for x in parts[1:]]) - 1.0) < 1e-12
    for line in f_lines:
        indices = [int(x) for x in line.split()[1:]]
        assert min(indices) >= 1
        assert max(indices) <= 10


def _slerp(p0, p1, u):
    angle = math.acos(float(np.clip(np.dot(p0, p1), -1.0, 1.0)))
    if angle < 1e-12:
        return p0
    return (math.sin((1 - u) * angle) * p0 + math.sin(u * angle) * p1) / math.sin(angle)


def _parse_path(d):
    """Cubic chains from a path string 'M x,y C x,y x,y x,y ... Z'."""
    assert d.startswith("M") and d.rstrip().endswith("Z")
    tokens = d.replace("M", "").replace("C", "").replace("Z", "").split()
    points = [np.array([float(a) for a in tok.split(",")]) for tok in tokens]
    assert (len(points) - 1) % 3 == 0
    cubics = []
    for i in range(1, len(points), 3):
        cubics.append((points[i - 1], points[i], points[i + 1], points[i + 2]))
    return points[0], cubics


def test_export_svg_well_formed_and_accurate():
    from scipy.spatial import cKDTree
    from spheretile.serialization import _edge_cubics, _project, _projection_frame

    t = snub_fusion(2)
    e = embed_generic(t, sporadic_solution("snub-fusion"))
    svg = export_svg(t, e)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == t.face_count

    # Reconstruct the drawing transform the way the exporter does: the
    # rough control-point pass fixes span and centre, then x maps up and
    # y maps down from the projection plane into the 1000-unit viewbox.
    frame = _projection_frame(t, e)

    def endpoint_extent(tol_abs):
        pts = []
        for face in t.faces:
            cycle = face.vertices
            for i, v in enumerate(cycle):
                w = cycle[(i + 1) % len(cycle)]
                for seg in _edge_cubics(
                    e.positions[v], e.positions[w], frame, tol_abs
                ):
                    pts.extend((seg[0], seg[3]))
        xs = [z.real for z in pts]
        ys = [z.imag for z in pts]
        return xs, ys, max(max(xs) - min(xs), max(ys) - min(ys))

    _, _, rough_span = endpoint_extent(math.inf)
    xs, ys, span = endpoint_extent(2e-4 * rough_span)
    scale = 0.92 * 1000.0 / span
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))

    def to_viewbox(z):
        return np.array(
            [(z.real - cx) * scale + 500.0, (cy - z.imag) * scale + 500.0]
        )

    # Dense ground truth: every edge arc, slerped and projected.
    samples = []
    for u, v in t.undirected_edges():
        p0, p1 = e.positions[u], e.positions[v]
        for k in range(513):
            samples.append(to_viewbox(_project(_slerp(p0, p1, k / 512.0), frame)))
    tree = cKDTree(np.array(samples))

    # Every drawn cubic, sampled at the quarter points, must stay within
    # one part in a thousand of the viewbox (1 unit of 1000) of a true arc.
    worst = 0.0
    for el in paths:
        start, cubics = _parse_path(el.attrib["d"])
        cursor = start
        for (p0, c1, c2, p3) in cubics:
            assert np.allclose(cursor, p0, atol=1e-9)
            cursor = p3
            for u in (0.25, 0.5, 0.75):
                b = (
                    (1 - u) ** 3 * p0
                    + 3 * (1 - u) ** 2 * u * c1
                    + 3 * (1 - u) * u**2 * c2
                    + u**3 * p3
                )
                dist, _ = tree.query(b)
                worst = max(worst, float(dist))
        assert np.allclose(cursor, start, atol=1e-9)
    assert worst <= 1.0
