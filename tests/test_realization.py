"""Angle solving for the concrete families and spherical embeddings."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import optimize

from spheretile import realization
from spheretile.complexes import CombinatorialReport, build_from_faces
from spheretile.generators import earth_map, football, prism, snub_fusion
from spheretile.realization import (
    ClosureDefect,
    Embedding,
    GeometricReport,
    earth_map_gamma,
    earth_map_solution,
    embed_earth_map,
    embed_generic,
    embed_prism,
    prism_default_radius,
    prism_geometric_bounds,
    prism_params,
    prism_r_bounds,
    prism_solution,
    sporadic_solution,
    verify_geometric,
    verify_tiling,
    _measure,
    _measured_solution,
)
from spheretile.trig import (
    TWO_PI,
    AngleSolution,
    ClosureDomainError,
    closure_residual,
    mgon_edge_cos,
    rhombus_edge_cos,
)


# -- earth-map family -----------------------------------------------------------------


def _block_length(gamma: float) -> float:
    """Independent restatement of the block-length curve c(gamma).

    The rhombus angle beta = pi - gamma/2 pins the polygon angle alpha via
    the shared edge length; a meridian strip then fits c rhombi where the
    leftover colatitude is (pi - alpha)/gamma + 1/2.
    """
    alpha = 2.0 * math.asin(
        2.0 * math.cos(math.pi / 5.0) / math.sqrt(3.0 - math.tan(gamma / 4.0) ** 2)
    )
    return (math.pi - alpha) / gamma + 0.5


@pytest.mark.parametrize("c", [2, 3, 4, 7, 16])
def test_earth_map_gamma_matches_brentq(c):
    oracle = optimize.brentq(
        lambda g: _block_length(g) - c, 1e-9, 2.0 * math.pi / 5.0, xtol=1e-14
    )
    assert earth_map_gamma(c) == pytest.approx(oracle, abs=1e-12)


def test_earth_map_gamma_frozen_values():
    assert earth_map_gamma(2) == pytest.approx(0.477996300836003, abs=1e-15)
    assert earth_map_gamma(3) == pytest.approx(0.2900412490314611, abs=1e-15)
    assert earth_map_gamma(4) == pytest.approx(0.20781787482320518, abs=1e-15)


def test_earth_map_gamma_inverts_block_length():
    for c in range(2, 65):
        assert abs(_block_length(earth_map_gamma(c)) - c) < 1e-10


def test_earth_map_gamma_strictly_decreasing():
    values = [earth_map_gamma(c) for c in range(2, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))


def _earth_map_gamma_reference(c: int) -> float:
    """The earth-map bisection as its own loop: keep the end with c(gamma) > c
    as lo, and stop once the midpoint rounds to an end."""
    lo, hi = 1e-9, 2.0 * math.pi / 5.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if realization._earth_map_c(mid) > c:
            lo = mid
        else:
            hi = mid


def test_earth_map_gamma_equals_its_own_loop_bit_for_bit():
    # c(gamma) - c is exactly 0 at a midpoint for about half of all c; the
    # loop sends that midpoint to hi, and so must the shared bisection.
    for c in [*range(2, 5001), 10**4, 10**5, 212_013, 212_014, 10**6]:
        assert earth_map_gamma(c) == _earth_map_gamma_reference(c), c


def test_earth_map_gamma_rejects_short_blocks():
    with pytest.raises(ValueError):
        earth_map_gamma(1)


def test_earth_map_solution_identities():
    for c in (2, 3, 6):
        s = earth_map_solution(c)
        assert s.beta == pytest.approx(math.pi - s.gamma / 2.0, abs=1e-15)
        assert s.alpha > 3.0 * math.pi / 5.0
        assert abs(closure_residual(5, s.alpha, s.beta, s.gamma)) < 1e-12
        # The polygon corner meets one beta and a run of c gammas.
        assert s.alpha + s.beta + c * s.gamma == pytest.approx(
            2.0 * math.pi, abs=1e-9
        )


# -- prism family ---------------------------------------------------------------------


def test_prism_radius_bounds():
    lo, hi = prism_r_bounds(5)
    assert lo == pytest.approx(math.atan(1.0 / math.sin(math.pi / 5)))
    assert hi == pytest.approx(math.pi / 2)
    glo, ghi = prism_geometric_bounds(5)
    assert (glo, ghi) == (lo, hi)
    # Narrower for triangles: the rhombus flattens at tan(r) = sqrt(2).
    tlo, thi = prism_geometric_bounds(3)
    assert thi == pytest.approx(math.atan(math.sqrt(2.0)))
    assert tlo < prism_default_radius(3) < thi


def test_prism_params_domain():
    with pytest.raises(ValueError):
        prism_params(2, 1.3)
    with pytest.raises(ValueError):
        prism_params(5, 0.9)
    with pytest.raises(ValueError):
        prism_params(5, math.pi / 2)


def test_prism_solution_identities():
    for m, r in ((3, 0.9), (5, 1.2), (7, 1.4), (12, 1.5)):
        s = prism_solution(m, r)
        assert s.alpha + s.beta + s.gamma == pytest.approx(2 * math.pi, abs=1e-12)
        assert rhombus_edge_cos(s.beta, s.gamma) == pytest.approx(
            mgon_edge_cos(m, s.alpha), abs=1e-12
        )
        # Two polygon vertices at colatitude r, one step of longitude apart.
        chord = math.cos(r) ** 2 + math.sin(r) ** 2 * math.cos(2 * math.pi / m)
        assert s.cos_x == pytest.approx(chord, abs=1e-12)


def test_prism_solution_flattening():
    with pytest.raises(ValueError, match="quarter"):
        prism_solution(3, 1.05)


def test_prism_radii_inside_the_bounds_solve_or_name_the_error():
    # Radii 10**-k below the top: the rhombus thins towards beta = pi and
    # gamma = 0 until its angles are lost to rounding, which must surface
    # as ClosureDomainError, and only less than 1e-5 below the top.
    lost = 0
    for m in range(3, 65):
        lo, hi = prism_geometric_bounds(m)
        for k in range(1, 13):
            r = hi - 10**-k
            if not lo < r:
                continue
            try:
                s = prism_solution(m, r)
            except ClosureDomainError:
                assert k >= 6, (m, k)
                lost += 1
            else:
                assert abs(closure_residual(m, s.alpha, s.beta, s.gamma)) < 1e-10
    assert lost > 0


def test_prism_solution_frozen_pentagon():
    s = prism_solution(5, 1.2)
    assert s.alpha / math.pi == pytest.approx(0.836117, abs=1e-6)
    assert s.beta / math.pi == pytest.approx(0.879612, abs=1e-6)
    assert s.gamma / math.pi == pytest.approx(0.284271, abs=1e-6)
    assert s.x / math.pi == pytest.approx(0.369099, abs=1e-6)


# -- sporadic solutions ---------------------------------------------------------------


def test_sporadic_football_frozen():
    s = sporadic_solution("football")
    assert s.alpha == pytest.approx(1.944051137388357, abs=1e-15)
    assert s.beta == 2.0 * math.pi / 3.0
    assert s.gamma == pytest.approx(1.122369533699017, abs=1e-15)
    assert s.cos_x == pytest.approx(0.9184682595567818, abs=1e-15)


def test_sporadic_snub_fusion_frozen():
    s = sporadic_solution("snub-fusion")
    assert s.alpha == pytest.approx(1.9643068301178894, abs=1e-15)
    assert s.beta == pytest.approx(2.1594392385308483, abs=1e-15)
    assert s.beta - 2.0 * s.gamma == 0.0
    assert s.cos_x == pytest.approx(0.8924183971388189, abs=1e-15)


def test_sporadic_accepts_flexible_keys():
    assert sporadic_solution("SNUB_FUSION") == sporadic_solution("snub-fusion")
    with pytest.raises(ValueError, match="unknown sporadic kind"):
        sporadic_solution("pyramid")


# -- embeddings -----------------------------------------------------------------------


def _assert_clean_geometry(t, e, s, tol=1e-6):
    report = verify_geometric(t, e, s, tol=tol)
    assert report.ok, report.failures
    assert report.area_defect < 1e-6
    assert not report.orientation_failures


@pytest.mark.parametrize("m,r", [(3, 0.9), (5, 1.2), (5, 1.35), (8, 1.45)])
def test_embed_prism_verifies(m, r):
    t, e = embed_prism(m, r)
    _assert_clean_geometry(t, e, prism_solution(m, r))
    assert e.worst_defect == 0.0


def test_embed_generic_matches_explicit_prism():
    t = prism(5)
    s = prism_solution(5, 1.2)
    e = embed_generic(t, s)
    assert e.worst_defect < 1e-12
    _assert_clean_geometry(t, e, s)


@pytest.mark.parametrize("c", [2, 3, 5])
def test_embed_earth_map_verifies(c):
    t, e = embed_earth_map(c)
    _assert_clean_geometry(t, e, earth_map_solution(c))


def test_embed_sporadics_verify():
    tf = football()
    _assert_clean_geometry(tf, embed_generic(tf, sporadic_solution("football")),
                           sporadic_solution("football"))
    for variant in (1, 2, 3):
        ts = snub_fusion(variant)
        s = sporadic_solution("snub-fusion")
        _assert_clean_geometry(ts, embed_generic(ts, s), s)


def _wrong_angles():
    """(tiling, solution) pairs that do not close: another c's earth-map
    angles, and one angle or the edge off a prism solution, so that no
    prototile fits its neighbours, whichever quantity was perturbed."""
    s = prism_solution(5, prism_default_radius(5))
    return [(earth_map(3), earth_map_solution(2))] + [
        (prism(5), perturbed)
        for perturbed in (
            AngleSolution(5, s.alpha + 1e-4, s.beta, s.gamma, s.cos_x),
            AngleSolution(5, s.alpha, s.beta + 1e-4, s.gamma, s.cos_x),
            AngleSolution(5, s.alpha, s.beta, s.gamma, s.cos_x + 1e-6),
        )
    ]


def test_embed_generic_rejects_wrong_angles():
    for t, wrong in _wrong_angles():
        with pytest.raises(ClosureDefect):
            embed_generic(t, wrong)


def _gram(t, e):
    p = np.array([e.positions[v] for v in range(t.vertex_count)])
    return p @ p.T


@pytest.mark.parametrize(
    "m,fraction",
    [(m, 0.5) for m in range(3, 65)] + [(m, f) for m in (5, 64) for f in (1e-3, 0.999)],
)
def test_embed_generic_closes_prisms_like_the_closed_form(m, fraction):
    lo, hi = prism_geometric_bounds(m)
    r = lo + fraction * (hi - lo)
    t = prism(m)
    e = embed_generic(t, prism_solution(m, r))
    assert e.worst_defect < 1e-10
    # The Gram matrix is blind to the rotation and mirroring between the two.
    _, closed = embed_prism(m, r)
    assert np.abs(_gram(t, e) - _gram(t, closed)).max() < 1e-10


@pytest.mark.parametrize("c", [2, 8, 32, 64, 1024])
def test_embed_generic_closes_large_earth_maps(c):
    t = earth_map(c)
    s = earth_map_solution(c)
    e = embed_generic(t, s)
    assert e.worst_defect < 1e-10
    _assert_clean_geometry(t, e, s)


def test_embedding_deterministic():
    t = football()
    s = sporadic_solution("football")
    e1 = embed_generic(t, s)
    e2 = embed_generic(t, s)
    for v in range(t.vertex_count):
        assert np.array_equal(e1.positions[v], e2.positions[v])


def test_verify_geometric_flags_jitter():
    t, e = embed_prism(5, 1.2)
    s = prism_solution(5, 1.2)
    rng = np.random.default_rng(0)
    bad = type(e)(positions=e.positions + rng.normal(scale=1e-3, size=(t.vertex_count, 3)))
    report = verify_geometric(t, bad, s, tol=1e-6)
    assert not report.ok
    assert any("norm" in msg for msg in report.failures)


# -- verification from scratch ---------------------------------------------------


def test_verify_tiling_takes_given_angles():
    t, emb = embed_prism(5, 1.2)
    s = prism_solution(5, 1.2)
    result = verify_tiling(t, emb, s)
    assert result.ok
    assert result.solution is s
    assert result.angle_source == "from the document's angles field"
    assert result.combinatorial.ok and result.geometric.ok


def test_verify_tiling_measures_angles_from_coordinates():
    t, emb = embed_prism(5, 1.2)
    s = prism_solution(5, 1.2)
    result = verify_tiling(t, emb)
    assert result.ok
    assert result.angle_source == "measured from coordinates"
    for name in ("alpha", "beta", "gamma", "cos_x"):
        measured = getattr(result.solution, name)
        assert measured == pytest.approx(getattr(s, name), abs=1e-9)


def test_verify_tiling_measures_a_coordinates_only_placement_once(monkeypatch):
    calls = []

    def counted(t, e):
        calls.append(t)
        return _measure(t, e)

    monkeypatch.setattr(realization, "_measure", counted)
    t, emb = embed_earth_map(4)
    assert verify_tiling(t, emb).ok
    assert len(calls) == 1


@pytest.mark.parametrize("embedded", [False, True])
def test_verify_tiling_names_a_cos_x_outside_the_unit_interval(embedded):
    # Without a placement nothing else reads cos_x; with one, acos(cos_x)
    # would fail.  Both report the rule parse_tiling applies to documents.
    t, emb = embed_prism(5, 1.2)
    s = prism_solution(5, 1.2)
    bad = AngleSolution(5, s.alpha, s.beta, s.gamma, 1.5)
    result = verify_tiling(t, emb if embedded else None, bad)
    assert not result.ok
    assert result.solution is None
    assert "cos_x" in result.angle_source and "[-1, 1]" in result.angle_source


@pytest.mark.parametrize("shape", [(9, 3), (10, 2)])
def test_verify_tiling_names_a_placement_of_the_wrong_shape(shape):
    t, emb = embed_prism(5, 1.2)  # V = 10
    bad = Embedding(emb.positions[: shape[0], : shape[1]])
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}, the complex needs (10, 3)")):
        verify_tiling(t, bad)


def test_verify_tiling_solves_angles_from_census_rows():
    result = verify_tiling(earth_map(3))
    assert result.ok
    assert result.geometric is None
    assert result.angle_source.startswith("solved from census rows")
    s = earth_map_solution(3)
    assert result.solution.gamma == pytest.approx(s.gamma, abs=1e-9)


def test_verify_tiling_prism_census_uses_representative_radius():
    result = verify_tiling(prism(7))
    assert result.ok
    assert result.angle_source.startswith("census is the one-parameter prism type")
    assert result.solution == prism_solution(7, prism_default_radius(7))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_verify_tiling_rejects_a_non_positive_or_non_finite_tol(tol):
    t, emb = embed_prism(5, 1.2)
    with pytest.raises(ValueError, match="finite and positive"):
        verify_tiling(t, emb, prism_solution(5, 1.2), tol=tol)


def test_verify_tiling_reports_undetermined_census():
    # Flipping every other belt rhombus of a hexagonal prism leaves only
    # the types alpha.beta^2 and alpha.gamma^2, which force beta = gamma.
    specs = prism(6).face_specs()
    for i in range(2, len(specs), 2):
        kind, verts, _ = specs[i]
        specs[i] = (kind, verts, ["gamma", "beta", "gamma", "beta"])
    t = build_from_faces(specs)
    assert sorted(t.census()) == [(1, 0, 2), (1, 2, 0)]
    result = verify_tiling(t)
    assert not result.ok
    assert result.solution is None
    assert result.combinatorial is None and result.geometric is None
    assert result.angle_source.startswith("census does not determine the angles")


# -- covering certificate ---------------------------------------------------------


SHIPPED = ["prism-3", "prism-5", "prism-16", "prism-64", "earthmap-2", "earthmap-8",
           "earthmap-16", "football", "snub-1", "snub-2", "snub-3"]


def _shipped_embedding(name):
    family, _, size = name.partition("-")
    if family == "prism":
        m = int(size)
        r = prism_default_radius(m)
        return embed_prism(m, r)
    if family == "earthmap":
        return embed_earth_map(int(size))
    if family == "football":
        t = football()
        return t, embed_generic(t, sporadic_solution("football"))
    t = snub_fusion(int(size))
    return t, embed_generic(t, sporadic_solution("snub-fusion"))


def test_verify_geometric_flags_a_folded_face():
    t, e = embed_prism(5, 1.2)
    fi = next(i for i, face in enumerate(t.faces) if face.kind == "rhombus")
    a, b, c, _ = t.faces[fi].vertices
    # Mirror b across the great circle through its neighbours a and c: edge
    # lengths and the corner at b survive, but the face folds over its
    # diagonal, so det(a, b, c) changes sign.
    n = np.cross(e.positions[a], e.positions[c])
    n /= np.linalg.norm(n)
    positions = e.positions.copy()
    positions[b] = positions[b] - 2.0 * np.dot(positions[b], n) * n
    report = verify_geometric(t, type(e)(positions=positions), prism_solution(5, 1.2))
    assert not report.ok
    assert (fi, c) in report.orientation_failures
    assert any("convex orientation" in msg for msg in report.failures)


@pytest.mark.parametrize("name", SHIPPED)
def test_random_points_lie_in_exactly_one_face(name):
    # Independent of the certificate: a degree-1 covering puts every point
    # of the sphere off the edges strictly inside exactly one face.
    t, e = _shipped_embedding(name)
    points = np.random.default_rng(7).normal(size=(2000, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    # The common orientation, read from the first face: its third corner
    # lies on the inner side of its first edge.
    sign = np.sign(np.linalg.det(np.array([e.positions[v] for v in t.faces[0].vertices[:3]])))
    near_edge = np.zeros(len(points), dtype=bool)
    inside_count = np.zeros(len(points), dtype=int)
    for face in t.faces:
        q = np.array([e.positions[v] for v in face.vertices])
        normals = np.cross(q, np.roll(q, -1, axis=0))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        side = normals @ points.T
        near_edge |= (np.abs(side) < 1e-9).any(axis=0)
        inside_count += (sign * side > 0.0).all(axis=0)
    assert near_edge.sum() < 10
    assert (inside_count[~near_edge] == 1).all()


def _shipped_solution(name):
    family, _, size = name.partition("-")
    if family == "prism":
        return prism_solution(int(size), prism_default_radius(int(size)))
    if family == "earthmap":
        return earth_map_solution(int(size))
    return sporadic_solution("football" if family == "football" else "snub-fusion")


# -- the scalar verifier, kept as a reference ---------------------------------------
#
# verify_geometric and _measured_solution as they were before one array pass
# over the half-edges replaced them: a tangent per directed edge, then a walk
# over the corners of each face.


def _reference_tangent(p_from, p_to):
    t = p_to - np.dot(p_to, p_from) * p_from
    n = np.linalg.norm(t)
    if n < 1e-14:
        raise ValueError("tangent undefined between coincident or antipodal points")
    return t / n


def _reference_angle(t1, t2):
    return math.acos(max(-1.0, min(1.0, float(np.dot(t1, t2)))))


def _reference_verify_geometric(t, e, s, tol=1e-6):
    failures = []
    pos = e.positions
    for v in range(t.vertex_count):
        n = float(np.linalg.norm(pos[v]))
        if abs(n - 1.0) > 1e-12:
            failures.append(f"vertex {v} has norm {n:.15f}")

    arcs = []
    tangent = {}
    for (u, v) in t.undirected_edges():
        arcs.append(math.acos(max(-1.0, min(1.0, float(np.dot(pos[u], pos[v]))))))
        try:
            tangent[u, v], tangent[v, u] = (
                _reference_tangent(pos[u], pos[v]), _reference_tangent(pos[v], pos[u])
            )
        except ValueError:
            failures.append(f"edge {u}-{v} has a zero or pi arc; its corners are not measured")
    edge_min, edge_max = min(arcs), max(arcs)
    if abs(edge_min - s.x) > tol or abs(edge_max - s.x) > tol:
        failures.append(f"edge arcs range [{edge_min:.12f}, {edge_max:.12f}], expected {s.x:.12f}")

    worst_corner = 0.0
    vertex_sums = {v: 0.0 for v in range(t.vertex_count)}
    total = 0.0
    for face in t.faces:
        k = face.size
        measured_sum = 0.0
        for i in range(k):
            v_prev, v_cur, v_next = (face.vertices[(i + di) % k] for di in (-1, 0, 1))
            if (v_cur, v_prev) not in tangent or (v_cur, v_next) not in tangent:
                continue
            angle = _reference_angle(tangent[v_cur, v_prev], tangent[v_cur, v_next])
            expected = s.angle(face.labels[i])
            worst_corner = max(worst_corner, abs(angle - expected))
            if abs(angle - expected) > tol:
                failures.append(f"corner {face.labels[i]} at vertex {v_cur} measures {angle:.12f}")
            vertex_sums[v_cur] += angle
            measured_sum += angle
        total += measured_sum - (k - 2) * math.pi

    worst_vertex_sum = max(abs(x - TWO_PI) for x in vertex_sums.values())
    if worst_vertex_sum > max(tol, 1e-6) or worst_vertex_sum >= math.pi:
        failures.append(f"worst vertex angle sum is off 2*pi by {worst_vertex_sum:.3e}")
    area_defect = abs(total - 4.0 * math.pi)
    if area_defect > max(tol, 1e-6):
        failures.append(f"total spherical excess {total:.12f} differs from 4*pi")

    dets = []
    for face in t.faces:
        q = np.array([pos[v] for v in face.vertices])
        k = len(q)
        off_edge = (np.arange(k)[None, :] - np.arange(k)[:, None]) % k >= 2
        dets.append(np.where(off_edge, np.cross(q, np.roll(q, -1, axis=0)) @ q.T, np.nan))
    sign = 1.0 if sum(float(np.nansum(d)) for d in dets) > 0.0 else -1.0
    misoriented = [
        (fi, t.faces[fi].vertices[j])
        for fi, d in enumerate(dets)
        for j in np.flatnonzero((sign * d <= 1e-12).any(axis=0))
    ]
    if misoriented:
        failures.append(f"{len(misoriented)} (face, vertex) pairs break the convex orientation")
    return GeometricReport(
        not failures, failures, edge_min, edge_max, edge_max - edge_min, worst_corner,
        worst_vertex_sum, total, area_defect, misoriented,
    )


def _reference_measured_solution(t, e):
    pos = e.positions
    values = {}
    for face in t.faces:
        for i, lab in enumerate(face.labels):
            if lab in values:
                continue
            k = face.size
            p_prev, p_cur, p_next = (pos[face.vertices[(i + di) % k]] for di in (-1, 0, 1))
            try:
                values[lab] = _reference_angle(
                    _reference_tangent(p_cur, p_prev), _reference_tangent(p_cur, p_next)
                )
            except ValueError:
                continue
    u, v = t.undirected_edges()[0]
    return AngleSolution(
        m=t.gonality,
        alpha=values.get("alpha", 0.0),
        beta=values.get("beta", 0.0),
        gamma=values.get("gamma", 0.0),
        cos_x=max(-1.0, min(1.0, float(np.dot(pos[u], pos[v])))),
    )


FAILURE_KINDS = (
    "has norm", "zero or pi arc", "edge arcs range", "corner", "vertex angle sum",
    "spherical excess", "convex orientation",
)
FIGURES = (
    "edge_arc_min", "edge_arc_max", "edge_spread", "worst_corner_defect",
    "worst_vertex_sum_defect", "total_area", "area_defect",
)


def _failure_kinds(report):
    return {kind for msg in report.failures for kind in FAILURE_KINDS if kind in msg}


def _broken_prism(kind):
    """A pentagonal prism placement broken in one way, with its angles."""
    t, e = embed_prism(5, 1.2)
    positions = e.positions.copy()
    a, b = t.undirected_edges()[0]
    if kind == "folded":
        fi = next(i for i, face in enumerate(t.faces) if face.kind == "rhombus")
        a, b, c, _ = t.faces[fi].vertices
        n = np.cross(positions[a], positions[c])
        n /= np.linalg.norm(n)
        positions[b] = positions[b] - 2.0 * np.dot(positions[b], n) * n
    elif kind == "jitter":
        rng = np.random.default_rng(0)
        positions = positions + rng.normal(scale=1e-3, size=(t.vertex_count, 3))
    elif kind == "zero-edge":
        positions[b] = positions[a].copy()
    elif kind == "zero-vertex":
        positions[b] = np.zeros(3)
    elif kind == "huge-vertex":
        positions[b] = np.array([1e200, 0.0, 0.0])
    elif kind == "antipodal-vertex":
        positions[b] = -positions[a]
    return t, Embedding(positions), prism_solution(5, 1.2)


BROKEN = ["folded", "jitter", "zero-edge", "zero-vertex", "antipodal-vertex"]


def _placement(name):
    if name in BROKEN or name == "huge-vertex":
        return _broken_prism(name)
    return (*_shipped_embedding(name), _shipped_solution(name))


@pytest.mark.parametrize("name", SHIPPED + BROKEN)
def test_verify_geometric_matches_the_scalar_reference(name):
    t, e, s = _placement(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_geometric(t, e, s)
    reference = _reference_verify_geometric(t, e, s)
    for figure in FIGURES:
        assert getattr(report, figure) == pytest.approx(getattr(reference, figure), abs=1e-12)
    assert report.ok == reference.ok == (name in SHIPPED)
    assert _failure_kinds(report) == _failure_kinds(reference)
    assert report.orientation_failures == reference.orientation_failures


def test_verify_geometric_names_an_overflowing_vertex_without_warnings():
    # The scalar walk overflows on this vertex and reads the NaN tangents
    # it gets as angle 0, so only its verdict and orientation pairs are
    # comparable.  The array pass clips the arc cosine first; the tangents
    # at the vertex's edges still overflow, so those edges go unmeasured.
    t, e, s = _placement("huge-vertex")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_geometric(t, e, s)
    with np.errstate(all="ignore"):
        reference = _reference_verify_geometric(t, e, s)
    assert not report.ok and not reference.ok
    assert _failure_kinds(report) == _failure_kinds(reference) | {"zero or pi arc"}
    assert "vertex 1 has norm inf" in report.failures
    assert report.orientation_failures == reference.orientation_failures


@pytest.mark.parametrize("name", SHIPPED + ["folded", "jitter", "zero-edge", "antipodal-vertex"])
def test_measured_solution_matches_the_scalar_reference(name):
    # A vertex at the origin is left out: the scalar walk measured a corner
    # there, where each edge has a tangent at the corner's end only; the
    # array pass measures a corner only when its edges have one at both.
    t, e, _ = _placement(name)
    measured = _measured_solution(t, _measure(t, e))
    reference = _reference_measured_solution(t, e)
    for key in ("alpha", "beta", "gamma", "cos_x"):
        assert getattr(measured, key) == pytest.approx(getattr(reference, key), abs=1e-12)


# -- the scalar embedder, kept as a reference ---------------------------------------
#
# embed_generic as it was before it placed one BFS layer per array step: a
# FIFO queue of half-edges, one face and one frame at a time, and each
# corner checked against the first placement of its vertex.


def _reference_edge_frame(a, b):
    a = a / np.linalg.norm(a)
    t = _reference_tangent(a, b)
    return np.array([a, t, np.cross(a, t)])


def _reference_embed_generic(t, s):
    prototiles = realization._prototiles(t.gonality, s)
    in_edge_frame = {
        lab: q @ _reference_edge_frame(q[0], q[1]).T for lab, q in prototiles.items()
    }
    he = t.half_edges
    origin, nxt, twin, face_of, face_start = he.origin, he.nxt, he.twin, he.face_of, he.face_start
    best_vertex = max(range(t.vertex_count), key=lambda v: len(he.out_edges[v]))
    seed_face = min(face_of[h] for h in he.out_edges[best_vertex])
    positions = np.full((t.vertex_count, 3), np.nan)
    placed = [False] * t.vertex_count
    worst = {"distance": 0.0, "vertex": -1}

    def face_from(entry):
        start, k = face_start[face_of[entry]], t.faces[face_of[entry]].size
        return [start + (entry - start + i) % k for i in range(k)]

    def place(half_edges, corners):
        for h, p in zip(half_edges, corners):
            v = origin[h]
            if not placed[v]:
                placed[v] = True
                positions[v] = p
                continue
            d = float(np.linalg.norm(positions[v] - p))
            if d > worst["distance"]:
                worst.update(distance=d, vertex=v)

    seed_edges = face_from(face_start[seed_face])
    place(seed_edges, prototiles[t.label[seed_edges[0]]])
    placed_faces = {seed_face}
    queue = [twin[h] for h in seed_edges]
    head = 0
    while head < len(queue):
        entry = queue[head]
        head += 1
        fi = face_of[entry]
        if fi in placed_faces:
            continue
        placed_faces.add(fi)
        half_edges = face_from(entry)
        frame = _reference_edge_frame(positions[origin[entry]], positions[origin[nxt[entry]]])
        place(half_edges, in_edge_frame[t.label[entry]] @ frame)
        queue.extend(twin[h] for h in half_edges)

    if worst["distance"] > realization.CLOSURE_TOL:
        raise ClosureDefect(worst["vertex"], worst["distance"])
    return Embedding(positions, worst_defect=worst["distance"])


def _embedder_case(name):
    family, _, size = name.partition("-")
    if family == "prism":
        m, _, fraction = size.partition("@")
        m = int(m)
        lo, hi = prism_geometric_bounds(m)
        return prism(m), prism_solution(m, lo + float(fraction or 0.5) * (hi - lo))
    if family == "earthmap":
        return earth_map(int(size)), earth_map_solution(int(size))
    if family == "football":
        return football(), sporadic_solution("football")
    return snub_fusion(int(size)), sporadic_solution("snub-fusion")


EMBEDDER_CASES = (
    [f"prism-{m}" for m in range(3, 65)]
    + [f"prism-{m}@{f}" for m in (5, 64) for f in ("1e-3", "0.999")]
    + [f"earthmap-{c}" for c in range(2, 65)]
    + ["snub-1", "snub-2", "snub-3", "football"]
)


@pytest.mark.parametrize("name", EMBEDDER_CASES)
def test_embed_generic_matches_the_scalar_embedder(name):
    t, s = _embedder_case(name)
    e = embed_generic(t, s)
    ref = _reference_embed_generic(t, s)
    assert e.positions.shape == ref.positions.shape == (t.vertex_count, 3)
    assert np.abs(e.positions - ref.positions).max() <= 1e-14
    assert abs(e.worst_defect - ref.worst_defect) <= 1e-14


def test_embed_generic_names_the_defect_as_the_scalar_embedder_does():
    for t, wrong in _wrong_angles():
        with pytest.raises(ClosureDefect) as batched:
            embed_generic(t, wrong)
        with pytest.raises(ClosureDefect) as scalar:
            _reference_embed_generic(t, wrong)
        assert batched.value.vertex == scalar.value.vertex
        assert abs(batched.value.distance - scalar.value.distance) <= 1e-12


def test_embed_generic_keeps_every_vertex_on_the_unit_sphere():
    # Each frame's point row is normalised, so no rounding compounds from
    # one BFS layer to the next over the c = 1024 earth map's long chain.
    e = embed_generic(earth_map(1024), earth_map_solution(1024))
    assert np.abs(np.linalg.norm(e.positions, axis=1) - 1.0).max() <= 1e-15


def _unit_rows(n, seed):
    p = np.random.default_rng(seed).normal(size=(n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


@pytest.mark.parametrize("n", [1, 50])
def test_edge_frames_match_the_scalar_frame(n):
    a, b = _unit_rows(n, 1), _unit_rows(n, 2)
    frames = realization._edge_frames(a, b)
    assert frames.shape == (n, 3, 3)
    for frame, p, q in zip(frames, a, b):
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-14
        assert np.abs(frame - _reference_edge_frame(p, q)).max() <= 1e-15


def test_cross_matches_numpy_cross_to_the_bit():
    # Random rows of mixed scale and sign, single vectors, and each half-edge
    # (origin, head) of a realized football, as _orientation_failures uses them.
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 17, 1000):
        a = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
        b = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
        assert realization._cross(a, b).tobytes() == np.cross(a, b).tobytes()
        assert realization._cross(a[0], b[0]).tobytes() == np.cross(a[0], b[0]).tobytes()
    t = football()
    m = _measure(t, embed_generic(t, sporadic_solution("football")))
    p, q = m.points[m.origin], m.points[m.head]
    assert realization._cross(p, q).tobytes() == np.cross(p, q).tobytes()


def _ranges_loop(first, count, step):
    steps = step if isinstance(step, list) else [step] * len(count)
    return [f + s * j for f, c, s in zip(first, count, steps) for j in range(c)]


@pytest.mark.parametrize(
    "first, count, step",
    [
        ([], [], 1),
        ([], [], []),
        ([5], [0], 1),
        ([3, -2, 7, 0], [2, 0, 3, 1], 1),
        ([10, 4, -1], [4, 3, 2], -2),
        ([3, -2, 7, 0, 9], [2, 0, 3, 1, 0], [1, -1, -3, 2, 5]),
        ([0, 0, 0], [0, 0, 0], [-1, 2, 3]),
    ],
)
def test_ranges_equal_a_plain_loop(first, count, step):
    arrays = [np.array(v, dtype=np.int64) for v in (first, count)]
    steps = np.array(step, dtype=np.int64) if isinstance(step, list) else step
    got = realization._ranges(*arrays, steps)
    assert got.dtype == np.int64
    assert got.tolist() == _ranges_loop(first, count, step)


def test_ranges_equal_a_plain_loop_on_random_runs():
    rng = np.random.default_rng(3)
    for n in range(40):
        first, count = rng.integers(-50, 50, size=n), rng.integers(0, 6, size=n)
        step = rng.integers(-4, 5, size=n)
        expected = _ranges_loop(first.tolist(), count.tolist(), step.tolist())
        assert realization._ranges(first, count, step).tolist() == expected
        scalar = int(step[0]) if n else 1
        expected = _ranges_loop(first.tolist(), count.tolist(), scalar)
        assert realization._ranges(first, count, scalar).tolist() == expected


@pytest.mark.parametrize("far_end", ["coincident", "antipodal"])
@pytest.mark.parametrize("n", [1, 5])
def test_edge_frames_name_a_degenerate_row(far_end, n):
    # The degenerate row is the last of the batch; the others are regular.
    a, b = _unit_rows(n, 3), _unit_rows(n, 4)
    b[-1] = a[-1] if far_end == "coincident" else -a[-1]
    with pytest.raises(ValueError, match="coincident or antipodal"):
        realization._edge_frames(a, b)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CombinatorialReport(True, [], {}, (0, 0, 0), 0, 0, 0, 2),
        lambda: GeometricReport(True, [], 0.0, 0.0, 0.0, 0.0, 0.0, 4 * math.pi, 0.0),
    ],
)
def test_reports_built_with_defaults_share_no_mutable_default(make):
    a, b = make(), make()
    assert a._field_defaults
    for name in a._field_defaults:
        x, y = getattr(a, name), getattr(b, name)
        assert x is not y or isinstance(x, (float, tuple)), name
