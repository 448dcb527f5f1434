"""JSON round trips, schema strictness, and the OBJ/SVG exporters."""

import functools
import hashlib
import json
import math
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
    geodesic_arcs,
    prism_default_radius,
    prism_geometric_bounds,
    prism_solution,
    sporadic_solution,
)
from spheretile.serialization import (
    _GLUE,
    _POLE_CLEARANCE,
    _STRIP_TOKENS,
    SchemaError,
    _fixed3,
    _paint_tokens,
    _point_table,
    _projection_frame,
    _trace_edges,
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


# Reference tracer in scalar Python: each face traces each of its edges on
# its own, once in a rough pass that fixes the extent and once against the
# deviation budget.  export_svg's batched tracer must match it byte for byte.


def _project(p, frame):
    """Stereographic image of p (one point or rows of points) from -c."""
    e1, e2, c = frame
    denom = np.maximum(1.0 + np.dot(p, c), 1e-9)
    return (2.0 * np.dot(p, e1) + 2.0j * np.dot(p, e2)) / denom


def _edge_cubics(p0, p1, frame, tol_abs=math.inf):
    """Cubic Bezier chain tracing the projected geodesic from p0 to p1."""
    cos_arc = max(-1.0, min(1.0, float(np.dot(p0, p1))))
    arc = math.acos(cos_arc)
    tangent = p1 - cos_arc * p0
    tangent /= np.linalg.norm(tangent)
    e1, e2, c = frame

    def point_and_velocity(t_param):
        a = t_param * arc
        p = math.cos(a) * p0 + math.sin(a) * tangent
        dp = arc * (-math.sin(a) * p0 + math.cos(a) * tangent)
        denom = 1.0 + float(np.dot(p, c))
        u = 2.0 * float(np.dot(p, e1)) / denom
        v = 2.0 * float(np.dot(p, e2)) / denom
        du = (2.0 * float(np.dot(dp, e1)) - u * float(np.dot(dp, c))) / denom
        dv = (2.0 * float(np.dot(dp, e2)) - v * float(np.dot(dp, c))) / denom
        return complex(u, v), complex(du, dv)

    cubics = []

    def emit(t0, z0, d0, t1, z1, d1, depth):
        h = t1 - t0
        seg = (z0, z0 + d0 * h / 3.0, z1 - d1 * h / 3.0, z1)
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
        emit(i / n, *knots[i], (i + 1) / n, *knots[i + 1], 0)
    return cubics


def _oracle_trace(t, e):
    """Each face's cubic chain and the view transform (scale, cx, cy)."""
    frame = _projection_frame(t, e)

    def chains(tol_abs):
        out = []
        for face in t.faces:
            cycle = face.vertices
            chain = []
            for i, v in enumerate(cycle):
                w = cycle[(i + 1) % len(cycle)]
                chain.extend(_edge_cubics(e.positions[v], e.positions[w], frame, tol_abs))
            out.append(chain)
        return out

    def extent(face_cubics):
        pts = [z for chain in face_cubics for seg in chain for z in (seg[0], seg[3])]
        xs = [z.real for z in pts]
        ys = [z.imag for z in pts]
        return xs, ys, max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)

    _, _, rough_span = extent(chains(math.inf))
    face_cubics = chains(2e-4 * rough_span)
    xs, ys, span = extent(face_cubics)
    view = (0.92 * 1000.0 / span, 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys)))
    return face_cubics, view


@functools.lru_cache(maxsize=None)
def _oracle(name):
    return _oracle_trace(*_embedded(name))


def _oracle_svg(name):
    t, e = _embedded(name)
    face_cubics, (scale, cx, cy) = _oracle(name)

    def pt(z):
        return f"{(z.real - cx) * scale + 500.0:.3f},{(cy - z.imag) * scale + 500.0:.3f}"

    def path_of(chain):
        parts = [f"M {pt(chain[0][0])}"]
        parts.extend(f"C {pt(c1)} {pt(c2)} {pt(z1)}" for _, c1, c2, z1 in chain)
        return " ".join(parts + ["Z"])

    _, _, c = _projection_frame(t, e)
    order = sorted(
        range(len(t.faces)),
        key=lambda fi: sum(float(np.dot(e.positions[v], c)) for v in t.faces[fi].vertices)
        / t.faces[fi].size,
    )
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
        '<rect width="1000" height="1000" fill="white"/>',
    ]
    for fi in order:
        fill = {"mgon": "#4878a8", "rhombus": "#e8c468"}[t.faces[fi].kind]
        lines.append(
            f'<path d="{path_of(face_cubics[fi])}" fill="{fill}" '
            f'stroke="#303030" stroke-width="1.5" stroke-linejoin="round"/>'
        )
    return "\n".join(lines + ["</svg>"]) + "\n"


def _realized(name):
    """A shipped tiling, embedded as `generate --realize` embeds it."""
    if name.startswith("prism_m"):
        m = int(name[len("prism_m"):])
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
LARGE_SVG_SHA256 = "382cc74075a8e236830618139e0392035dbc589c3cf3a0ab750954790cd1c80d"


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
    """How many point-table rows export_svg strips for a drawing."""
    t, e = _embedded(name)
    frame = _projection_frame(t, e)
    table, counts = _point_table(t.undirected_edges(), e, frame)
    return len(_paint_tokens(t, e, frame[2], counts, len(table) - len(_GLUE)))


def test_export_svg_stripped_in_several_slices_matches_the_scalar_tracer():
    # 16,533 tokens: sixteen slices of 1,033 and a short seventeenth.
    count = _token_count("earthmap_c16")
    step = max(_STRIP_TOKENS, count >> 4)
    assert (count // step, count % step) == (16, 5)
    assert export_svg(*_embedded("earthmap_c16")) == _oracle_svg("earthmap_c16")


@pytest.mark.parametrize("name", ["earthmap_c16", "prism_m14"])
def test_export_svg_strip_ending_at_a_slice_boundary_matches_the_scalar_tracer(name, monkeypatch):
    # The least slice length of at least a sixteenth of the tokens that
    # divides them: earthmap_c16 in 11 slices of 1,503, prism_m14 in 16 of 72.
    count = _token_count(name)
    step = next(d for d in range(count >> 4, count) if count % d == 0)
    monkeypatch.setattr("spheretile.serialization._STRIP_TOKENS", step)
    assert count // step >= 11 and count % step == 0
    assert export_svg(*_embedded(name)) == _oracle_svg(name)


def _trace_edges_reference(edges, e, frame):
    """The batched tracer with fresh arrays for every product and every
    level's arrays kept until the next level replaces them: the bits that
    _trace_edges must keep, which the 3-decimal SVG text cannot show."""
    e1, e2, c = frame
    p0, p1 = e.positions[np.array(edges).T]
    _, arc, tangent = geodesic_arcs(p0, p1)

    def point_and_velocity(k, t):
        a = (t * arc[k])[:, None]
        p = np.cos(a) * p0[k] + np.sin(a) * tangent[k]
        dp = arc[k][:, None] * (-np.sin(a) * p0[k] + np.cos(a) * tangent[k])
        denom = 1.0 + p @ c
        assert (denom > _POLE_CLEARANCE).all()
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

    j = np.flatnonzero(i < n[k])
    pending = (k[j], t[j], z[j], d[j], t[j + 1], z[j + 1], d[j + 1])
    done = []
    for depth in range(15):
        k, t0, z0, d0, t1, z1, d1 = pending
        if not len(k):
            break
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


@pytest.mark.parametrize("name", SHIPPED + ["prism_m64_at_0.001", "prism_m64_at_0.999"])
def test_trace_edges_matches_the_reference_tracer_to_the_bit(name):
    # Prism m = 64 near either end of its radius range splits its pieces
    # deepest.
    if "_at_" in name:
        lo, hi = prism_geometric_bounds(64)
        t = prism(64)
        e = embed_generic(t, prism_solution(64, lo + float(name.split("_at_")[1]) * (hi - lo)))
    else:
        t, e = _embedded(name)
    frame = _projection_frame(t, e)
    edges = t.undirected_edges()
    cubics, counts = _trace_edges(edges, e, frame)
    expected_cubics, expected_counts = _trace_edges_reference(edges, e, frame)
    assert cubics.dtype == expected_cubics.dtype == np.complex128
    assert np.array_equal(cubics.view(np.float64).view(np.int64), expected_cubics.view(np.float64).view(np.int64))
    assert np.array_equal(counts, expected_counts)


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


def _parse_path(d):
    """Cubic chains from a path string 'M x,y C x,y x,y x,y ... Z'."""
    assert d.startswith("M") and d.rstrip().endswith("Z")
    tokens = d.replace("M", "").replace("C", "").replace("Z", "").split()
    points = np.array([tok.split(",") for tok in tokens], dtype=float)
    assert (len(points) - 1) % 3 == 0
    return points[0], np.stack([points[0:-1:3], points[1::3], points[2::3], points[3::3]], axis=1)


def _slerp(p0, p1, u):
    """Points at fractions u (an array) along the great arc from p0 to p1."""
    angle = math.acos(float(np.clip(np.dot(p0, p1), -1.0, 1.0)))
    if angle < 1e-12:
        return np.tile(p0, (len(u), 1))
    return (
        np.sin((1 - u) * angle)[:, None] * p0 + np.sin(u * angle)[:, None] * p1
    ) / math.sin(angle)


def test_export_svg_well_formed_and_accurate():
    from scipy.spatial import cKDTree

    for name in ("snub2", "football", "earthmap_c64", "prism_m64"):
        t, e = _embedded(name)
        svg = export_svg(t, e)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        assert len(paths) == t.face_count

        # The drawing transform, rebuilt from the scalar tracer: x maps up
        # and y maps down from the projection plane into the 1000-unit viewbox.
        frame = _projection_frame(t, e)
        _, (scale, cx, cy) = _oracle(name)

        # Dense ground truth: every edge arc, slerped and projected.
        u = np.arange(513) / 512.0
        z = np.concatenate(
            [_project(_slerp(e.positions[a], e.positions[b], u), frame) for a, b in t.undirected_edges()]
        )
        tree = cKDTree(np.column_stack([(z.real - cx) * scale + 500.0, (cy - z.imag) * scale + 500.0]))

        # Every drawn cubic, sampled at the quarter points, must stay within
        # one part in a thousand of the viewbox (1 unit of 1000) of a true arc.
        worst = 0.0
        for el in paths:
            start, cubics = _parse_path(el.attrib["d"])
            p0, c1, c2, p3 = cubics.transpose(1, 0, 2)
            assert np.allclose(p0[1:], p3[:-1], atol=1e-9)
            assert np.allclose(p3[-1], start, atol=1e-9)
            for u in (0.25, 0.5, 0.75):
                b = (
                    (1 - u) ** 3 * p0
                    + 3 * (1 - u) ** 2 * u * c1
                    + 3 * (1 - u) * u**2 * c2
                    + u**3 * p3
                )
                dist, _ = tree.query(b)
                worst = max(worst, float(dist.max()))
        assert worst <= 1.0, name


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
