"""JSON round trips, schema strictness, and the OBJ/SVG exporters."""

import functools
import hashlib
import json
import math
import re
import tracemalloc
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
    Embedding,
    earth_map_solution,
    embed_generic,
    embed_prism,
    prism_default_radius,
    prism_geometric_bounds,
    prism_solution,
    sporadic_solution,
)
from spheretile.serialization import (
    _POLE_CLEARANCE,
    _STRIP_TOKENS,
    SchemaError,
    _fixed3,
    _paint_tokens,
    _projection_frame,
    export_obj,
    export_svg,
    parse_tiling,
    serialize_tiling,
)
from spheretile.trig import _f17

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


# Scalar arc oracle: each edge's circle from np.cross and np.dot of its own
# rows, lower vertex first, and each face's path from format(v, ".3f").
# export_svg's batched writer must match it byte for byte.


@functools.lru_cache(maxsize=None)
def _oracle(name):
    """The view transform (scale, cx, cy), each vertex's image in the view and,
    per face in paint order, the face and its "A r,r 0 large,sweep" texts."""
    t, e = _embedded(name)
    frame = e1, e2, c = _projection_frame(t, e)
    positions = e.positions

    def plane(v):
        depth = 1.0 + float(np.dot(positions[v], c))
        assert depth > _POLE_CLEARANCE
        return 2.0 * float(np.dot(positions[v], e1)) / depth, 2.0 * float(np.dot(positions[v], e2)) / depth

    def arc(u, v):
        """Edge (u, v)'s g = n.c, whether its arc is large, its sagitta, and
        the x and y of its circle's points C +- R and C +- iR on the arc,
        in plane units."""
        n = np.cross(positions[u], positions[v])
        n = n / math.sqrt(float(np.dot(n, n)))
        a, b, g = (float(np.dot(n, axis)) for axis in frame)
        (x0, y0), (x1, y1) = plane(u), plane(v)
        dx, dy = x1 - x0, y1 - y0
        side = dx * (2.0 * b - g * y0) - dy * (2.0 * a - g * x0)
        h2, k = (dx * dx + dy * dy) / 4.0, abs(g) / 2.0
        sagitta = h2 * k / (1.0 + math.sqrt(max(0.0, 1.0 - h2 * k * k)))
        extremes = ([], [])
        if g != 0.0:
            radius, turn = 2.0 / abs(g), 2.0 * math.copysign(1.0, g)
            for out, centre, lean in ((extremes[0], a, -dy), (extremes[1], b, dx)):
                for sign in (1.0, -1.0):
                    if side + sign * turn * lean < 0.0:
                        out.append(2.0 * centre / g + sign * radius)
        return g, side < 0.0, sagitta, extremes

    def fit(xs, ys):
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        return 0.92 * 1000.0 / span, 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))

    points = [plane(v) for v in range(t.vertex_count)]
    xs, ys = [x for x, _ in points], [y for _, y in points]
    arcs = {(u, v): arc(u, v) for u, v in t.undirected_edges()}
    scale0 = fit(xs, ys)[0]
    for g, large, sagitta, (ex, ey) in arcs.values():
        if large or not sagitta * scale0 < 5e-4:
            xs, ys = xs + ex, ys + ey
    scale, cx, cy = fit(xs, ys)
    view = [((x - cx) * scale + 500.0, (cy - y) * scale + 500.0) for x, y in points]

    def side_text(v, w):
        g, large, sagitta, _ = arcs[min(v, w), max(v, w)]
        radius = 0.0 if not large and sagitta * scale < 5e-4 else 2.0 / abs(g) * scale
        sweep = (g < 0.0) != (v > w)
        x, y = view[w]
        return f"A {radius:.3f},{radius:.3f} 0 {large:d},{sweep:d} {x:.3f},{y:.3f}"

    order = sorted(
        range(len(t.faces)),
        key=lambda fi: sum(float(np.dot(positions[v], c)) for v in t.faces[fi].vertices)
        / t.faces[fi].size,
    )
    faces = []
    for fi in order:
        cycle = t.faces[fi].vertices
        faces.append((t.faces[fi], [side_text(v, cycle[(i + 1) % len(cycle)]) for i, v in enumerate(cycle)]))
    return (scale, cx, cy), view, faces


def _oracle_svg(name):
    _, view, faces = _oracle(name)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
        '<rect width="1000" height="1000" fill="white"/>',
    ]
    for face, sides in faces:
        fill = {"mgon": "#4878a8", "rhombus": "#e8c468"}[face.kind]
        x, y = view[face.vertices[0]]
        lines.append(
            f'<path d="M {x:.3f},{y:.3f} {" ".join(sides)} Z" fill="{fill}" '
            f'stroke="#303030" stroke-width="1.5" stroke-linejoin="round"/>'
        )
    return "\n".join(lines + ["</svg>"]) + "\n"


def _realized(name):
    """A shipped tiling, embedded as `generate --realize` embeds it;
    "prism_m<m>_at_<f>" puts the prism's radius at fraction f of its
    geometric range."""
    if name.startswith("prism_m"):
        m, _, fraction = name[len("prism_m"):].partition("_at_")
        m = int(m)
        if fraction:
            lo, hi = prism_geometric_bounds(m)
            return prism(m), prism_solution(m, lo + float(fraction) * (hi - lo))
        return prism(m), prism_solution(m, prism_default_radius(m))
    if name.startswith("earthmap_c"):
        c = int(name[len("earthmap_c"):])
        return earth_map(c), earth_map_solution(c)
    if name.startswith("snub"):
        return snub_fusion(int(name[-1])), sporadic_solution("snub-fusion")
    return football(), sporadic_solution("football")


@functools.lru_cache(maxsize=None)
def _embedded(name):
    t, s = _realized(name)
    return t, embed_generic(t, s)


CATALOG = (
    [f"prism_m{m}" for m in range(3, 17)]
    + [f"earthmap_c{c}" for c in range(2, 9)]
    + ["snub1", "snub2", "snub3", "football"]
)
SHIPPED = (
    [f"prism_m{m}" for m in range(3, 65)]
    + [f"earthmap_c{c}" for c in range(2, 65)]
    + ["snub1", "snub2", "snub3", "football"]
)


@pytest.mark.parametrize(
    "name", CATALOG + ["earthmap_c12", "earthmap_c16", "earthmap_c32", "earthmap_c64", "prism_m64"]
)
def test_export_svg_matches_the_scalar_tracer_byte_for_byte(name):
    t, e = _embedded(name)
    assert export_svg(t, e) == _oracle_svg(name)


# sha256 of export_svg for earth map c = 256, then prism m = 64 at radius
# fractions 1e-3 and 0.999 of its geometric range, concatenated: sizes and
# shapes past the reach of the scalar oracle above.
LARGE_SVG_SHA256 = "1d54bcff80ff929bbf84fd8126cf775a2a9a8d9c01503e8743b02ef6aef6d54f"


def test_export_svg_of_large_and_extreme_tilings_keeps_its_digest():
    digest = hashlib.sha256()
    t = earth_map(256)
    digest.update(export_svg(t, embed_generic(t, earth_map_solution(256))).encode())
    lo, hi = prism_geometric_bounds(64)
    for fraction in (1e-3, 0.999):
        t = prism(64)
        e = embed_generic(t, prism_solution(64, lo + fraction * (hi - lo)))
        digest.update(export_svg(t, e).encode())
    assert digest.hexdigest() == LARGE_SVG_SHA256


@pytest.mark.parametrize("c", [256, 1024])
def test_export_svg_peak_memory_stays_within_two_and_a_half_times_its_output(c):
    # The traced peak counts the returned string itself.
    t = earth_map(c)
    e = embed_generic(t, earth_map_solution(c))
    tracemalloc.start()
    try:
        svg = export_svg(t, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(svg), peak / len(svg)


def _token_count(name):
    """How many table rows export_svg strips for a drawing."""
    t, e = _embedded(name)
    origin = np.array(t.half_edges.origin)
    flags = np.zeros(t.edge_count, np.int64)
    return len(_paint_tokens(t, e, _projection_frame(t, e)[2], origin, origin[t.half_edges.nxt], flags))


def test_export_svg_stripped_in_several_slices_matches_the_scalar_tracer():
    # 3,933 tokens: fifteen slices of _STRIP_TOKENS, 256, and a short
    # sixteenth.
    count = _token_count("earthmap_c16")
    step = max(_STRIP_TOKENS, count >> 4)
    assert (count // step, count % step) == (15, 93)
    assert export_svg(*_embedded("earthmap_c16")) == _oracle_svg("earthmap_c16")


@pytest.mark.parametrize("name", ["earthmap_c16", "prism_m14"])
def test_export_svg_strip_ending_at_a_slice_boundary_matches_the_scalar_tracer(name, monkeypatch):
    # The least slice length of at least a sixteenth of the tokens that
    # divides them: earthmap_c16 in 9 slices of 437, prism_m14 in 16 of 30.
    count = _token_count(name)
    step = next(d for d in range(count >> 4, count) if count % d == 0)
    monkeypatch.setattr("spheretile.serialization._STRIP_TOKENS", step)
    assert count // step >= 9 and count % step == 0
    assert export_svg(*_embedded(name)) == _oracle_svg(name)


@pytest.mark.parametrize("name", SHIPPED)
def test_projection_frame_centres_on_the_python_sum_of_the_first_m_gon(name):
    # An axis-0 reduction adds the rows in order, as Python's sum does.
    t, e = _embedded(name)
    face = next(f for f in t.faces if f.kind == "mgon")
    centre = sum(e.positions[v] for v in face.vertices)
    assert np.array_equal(e.positions[list(face.vertices)].sum(axis=0), centre)
    assert np.array_equal(_projection_frame(t, e)[2], centre / np.linalg.norm(centre))


@pytest.mark.parametrize("name", ["prism_m64", "earthmap_c16", "football"])
def test_coordinates_and_obj_vertices_match_the_per_vertex_writers(name):
    # The writers turn the (V, 3) array into text in one call; the reference
    # converts and formats each vertex's row on its own.
    t, e = _embedded(name)
    doc = json.loads(serialize_tiling(t))
    doc["coordinates"] = [[float(c) for c in e.positions[v]] for v in range(t.vertex_count)]
    assert serialize_tiling(t, e) == json.dumps(doc, separators=(",", ":"))
    v_lines = []
    for v in range(t.vertex_count):
        x, y, z = e.positions[v]
        v_lines.append(f"v {_f17(x)} {_f17(y)} {_f17(z)}")
    assert [l for l in export_obj(t, e).splitlines() if l.startswith("v ")] == v_lines


_NUMBER = r"-?\d+\.\d{3}"
_PATH = re.compile(rf"M ({_NUMBER},{_NUMBER}) ((?:A {_NUMBER},{_NUMBER} 0 [01],[01] {_NUMBER},{_NUMBER} )+)Z")


def _parse_path(d):
    """A path 'M x,y (A r,r 0 large,sweep x,y)* Z': its start, and one row
    (from, (r, r), (large, sweep), to) of (x, y) pairs per arc."""
    match = _PATH.fullmatch(d)
    assert match, d
    # Per arc: (r, r), (large, sweep) and its end.
    pairs = [tok.split(",") for tok in match[2].split() if "," in tok]
    pairs = np.array(pairs, dtype=float).reshape(-1, 3, 2)
    points = np.concatenate([[match[1].split(",")], pairs[:, 2]]).astype(float)
    return points[0], np.stack([points[:-1], pairs[:, 0], pairs[:, 1], points[1:]], axis=1)


def _svg_arc(start, end, radius, large, sweep, u):
    """Points at parameter fractions u along an SVG arc or, at radius 0, a
    line, by the endpoint-to-centre conversion of SVG 1.1 Appendix F.6.5,
    with an out-of-range radius scaled up as F.6.6 says."""
    if radius == 0:
        return start + u[:, None] * (end - start)
    half = (start - end) / 2.0
    radius = max(radius, math.sqrt(half @ half))
    root = math.sqrt(max(0.0, radius**2 / (half @ half) - 1.0))
    offset = (1.0 if large != sweep else -1.0) * root * np.array([half[1], -half[0]])
    theta0 = math.atan2(*(half - offset)[::-1])
    turn = (math.atan2(*(-half - offset)[::-1]) - theta0) % (2.0 * math.pi)
    if not sweep:
        turn -= 2.0 * math.pi
    theta = theta0 + u * turn
    return (start + end) / 2.0 + offset + radius * np.column_stack([np.cos(theta), np.sin(theta)])


def _drawn_arcs(name):
    """Each drawn arc of a tiling's SVG, face by face in paint order: its
    edge (u, v) in drawing order and its (from, (r, r), (large, sweep), to)."""
    t, e = _embedded(name)
    root = ET.fromstring(export_svg(t, e))
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    _, _, faces = _oracle(name)
    assert len(paths) == len(faces) == t.face_count
    out = []
    for el, (face, _) in zip(paths, faces):
        _, arcs = _parse_path(el.attrib["d"])
        cycle = face.vertices
        assert len(arcs) == len(cycle)
        out += [((v, cycle[(i + 1) % len(cycle)]), arc) for i, (v, arc) in enumerate(zip(cycle, arcs))]
    return out


def _assert_arcs_on_great_circles(name):
    """Every drawn arc, sampled at sixteenths, lies within 0.01 of the
    1000-unit view of its edge's true projected great circle, between the
    edge's ends, and inside the 920-unit box that the view fits.

    The circle's image is g |z|^2 - 4 (a x + b y) - 4 g = 0 for the unit
    normal n = a e1 + b e2 + g c, a line where g = 0; a point's distance
    to it is the value over its gradient, to first order."""
    u = np.arange(1, 16) / 16.0
    t, e = _embedded(name)
    frame = e1, e2, c = _projection_frame(t, e)
    (scale, cx, cy), _, _ = _oracle(name)
    worst, least = 0.0, math.inf
    for (v, w), (start, (radius, _), (large, sweep), end) in _drawn_arcs(name):
        points = _svg_arc(start, end, radius, large, sweep, u)
        assert ((points > 40.0 - 1e-2) & (points < 960.0 + 1e-2)).all(), name
        x, y = (points[:, 0] - 500.0) / scale + cx, cy - (points[:, 1] - 500.0) / scale
        p, q = e.positions[v], e.positions[w]
        n = np.cross(p, q)
        a, b, g = (float(np.dot(n / np.linalg.norm(n), axis)) for axis in frame)
        value = g * (x * x + y * y) - 4.0 * (a * x + b * y) - 4.0 * g
        gradient = np.hypot(2.0 * g * x - 4.0 * a, 2.0 * g * y - 4.0 * b)
        worst = max(worst, float(np.max(np.abs(value) / gradient)) * scale)
        # The points' preimages s, and the turns from p to s and from s to q about n.
        r2 = x * x + y * y
        s = (4.0 * x[:, None] * e1 + 4.0 * y[:, None] * e2 + (4.0 - r2)[:, None] * c) / (4.0 + r2)[:, None]
        least = min(least, float((np.cross(p, s) @ n).min()), float((np.cross(s, q) @ n).min()))
    assert worst <= 0.01, (name, worst)
    assert least >= 0.0, (name, least)


def test_export_svg_well_formed_and_accurate():
    # Prism m = 3 at both ends of its radius range: the far triangle wraps
    # the pole, or its edges lie nearly flat.  The shipped tilings and the
    # extreme prisms m = 64 are checked one by one below.
    for name in ["prism_m3_at_0.001", "prism_m3_at_0.999"]:
        _assert_arcs_on_great_circles(name)


@pytest.mark.parametrize("name", SHIPPED + ["prism_m64_at_0.001", "prism_m64_at_0.999"])
def test_export_svg_arcs_lie_on_their_great_circles(name):
    _assert_arcs_on_great_circles(name)


@pytest.mark.parametrize(
    "name, large, straight", [("prism_m3", 3, 0), ("snub1", 0, 6), ("snub2", 0, 6), ("snub3", 0, 6)]
)
def test_export_svg_draws_large_arcs_and_straight_edges(name, large, straight):
    # Prism m = 3's far triangle wraps the projection pole, so its three
    # edges take more than half of their image circles.  Six edges of each
    # snub fusion lie on great circles within 5e-12 of the pole, whose
    # images are lines: they are drawn with radius 0.  Each edge is drawn
    # alike in both its faces.
    t, e = _embedded(name)
    c = _projection_frame(t, e)[2]
    drawn = {}
    for edge, (_, (radius, _), (is_large, _), _) in _drawn_arcs(name):
        drawn.setdefault(tuple(sorted(edge)), set()).add((radius, is_large))
    assert len(drawn) == t.edge_count and all(len(ways) == 1 for ways in drawn.values())
    assert sum(is_large for ((_, is_large),) in drawn.values()) == large
    lines = [edge for edge, ((radius, _),) in drawn.items() if radius == 0]
    assert len(lines) == straight
    for u, v in lines:
        n = np.cross(e.positions[u], e.positions[v])
        assert abs(np.dot(n / np.linalg.norm(n), c)) < 5e-12


@pytest.mark.parametrize("name", SHIPPED)
def test_export_svg_draws_every_face_readably(name):
    # The projection centre is an m-gon's centroid, so no edge passes near
    # the projection pole and no face shrinks to a speck.
    t, e = _embedded(name)
    root = ET.fromstring(export_svg(t, e))
    for el in root.iter():
        if el.tag.endswith("path"):
            _, cubics = _parse_path(el.attrib["d"])
            assert np.ptp(cubics[:, 3], axis=0).max() >= 5.0, name


@pytest.mark.parametrize("name", ["prism_m5", "snub2"])
def test_export_svg_names_an_edge_through_the_projection_pole(name, monkeypatch):
    import spheretile.serialization as serialization

    t, e = _embedded(name)
    u, v = t.undirected_edges()[-1]
    mid = e.positions[u] + e.positions[v]
    c = -mid / np.linalg.norm(mid)
    e1 = np.cross(c, [0.0, 0.0, 1.0] if abs(c[2]) < 0.9 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    monkeypatch.setattr(serialization, "_projection_frame", lambda t, e: (e1, np.cross(c, e1), c))
    with pytest.raises(ValueError, match=f"edge {u}-{v} passes through the projection pole"):
        export_svg(t, e)


def test_export_svg_names_a_tiling_without_an_m_gon():
    # The rhombic dodecahedron: 12 rhombi, beta at the 8 cube corners and
    # gamma at the 6 octahedron corners.  It builds, but leaves the
    # projection no m-gon to centre on.
    cube = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    octa = [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (-1, 1)]
    points = np.array(cube + octa, dtype=float)
    specs = []
    for a in range(8, 14):
        for b in range(a + 1, 14):
            if np.dot(points[a], points[b]) != 0:
                continue
            u, v = (i for i in range(8) if np.dot(points[i], points[a] + points[b]) == 2)
            cycle = [a, u, b, v]
            normal = np.cross(points[u] - points[a], points[b] - points[u])
            if np.dot(normal, points[a] + points[b]) < 0:
                cycle = [a, v, b, u]
            specs.append(("rhombus", cycle, ["gamma", "beta", "gamma", "beta"]))
    t = build_from_faces(specs)
    assert t.face_count == 12 and t.census() == {(0, 3, 0): 8, (0, 0, 4): 6}
    positions = points[list(t.vertex_names)]
    e = Embedding(positions / np.linalg.norm(positions, axis=1)[:, None])
    with pytest.raises(ValueError, match="no m-gon"):
        export_svg(t, e)


def _fixed3_text(values):
    return [row.tobytes().replace(b"\0", b"").decode() for row in _fixed3(np.array(values, dtype=float))]


def test_fixed3_writes_what_format_writes():
    rng = np.random.default_rng(3)
    k = np.arange(-40000, 40000)
    big = 2.0**30 / 1000
    values = np.concatenate([
        rng.uniform(-1000.0, 2000.0, 100_000),
        rng.choice([-1.0, 1.0], 20_000) * 10 ** rng.uniform(-4.0, 6.2, 20_000),
        k / 16,
        (k + 0.5) / 1000,
        [0.0, -0.0, -0.0004, 0.0004, 0.0005, -0.0005, 999.9995, -999.9995],
        [999999.9994, 999999.9996, -999999.9996, 1e6, -1e6, big, -big, np.nextafter(big, 0)],
        [1e7, -3e9, 1e15, 1e300, -1e300, 5e-324, -5e-324],
        [np.nan, np.inf, -np.inf],
    ])
    assert _fixed3_text(values) == [format(v, ".3f") for v in values.tolist()]
    positive = np.abs(values[:1000])
    assert _fixed3_text(positive) == [format(v, ".3f") for v in positive.tolist()]
    assert _fixed3(np.array([])).shape[0] == 0
