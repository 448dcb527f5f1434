"""Edge-length identities, closure roots and nonexistence certificates.

Expected values come from independent oracles: explicit Platonic-solid
coordinates for the edge cosines, and rational-multiple-of-pi identities
where they exist.  Frozen decimals were produced by those oracles, not by
the code under test.
"""

import json
import math
import re
import warnings
from fractions import Fraction
from itertools import compress

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import optimize

from spheretile.trig import (
    AngleSolution,
    ClosureDomainError,
    NonexistenceEvidence,
    box_violations,
    certify_no_root,
    closure_residual,
    edge_bound_proof,
    format_angle,
    mgon_edge_cos,
    mgon_lower_bound,
    pi_fraction,
    rhombus_edge_cos,
    solve_closure,
    vertex_label,
)
from spheretile import trig
from spheretile.combinatorics import classify
from spheretile.generators import earth_map, football, snub_fusion
from spheretile.realization import sporadic_solution, verify_tiling
from spheretile.trig import (
    BRACKET_TOL,
    EVIDENCE_SPACING,
    POLE_TOL,
    RESIDUAL_TOL,
    _BOX,
    _affine_line,
    _box_checks,
    _box_rows,
    _crossing_rows,
    _default_description,
    _evidence_grid,
    _feasible,
    _line_box_interval,
    _m_range,
    _residual_vec,
)

TWO_PI = 2.0 * math.pi


# -- oracle: cube --------------------------------------------------------------
# The spherical cube is a rhombus tiling with beta = gamma = 2*pi/3 (three
# squares meet at each corner).  Its edge cosine comes straight from the
# normalized corner coordinates of the solid.


def test_rhombus_edge_cos_matches_cube_coordinates():
    u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    v = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
    oracle = float(np.dot(u, v))
    assert oracle == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rhombus_edge_cos(TWO_PI / 3.0, TWO_PI / 3.0) == pytest.approx(
        oracle, abs=1e-14
    )


# -- oracle: dodecahedron --------------------------------------------------------
# Three pentagons meet at every dodecahedron vertex, so the spherical
# pentagon angle is exactly 2*pi/3; the edge cosine is the dot product of
# adjacent normalized solid vertices, which equals sqrt(5)/3.


def _dodecahedron_vertices() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                pts.append((sx, sy, sz))
    for s1 in (1, -1):
        for s2 in (1, -1):
            pts.append((0.0, s1 / phi, s2 * phi))
            pts.append((s1 / phi, s2 * phi, 0.0))
            pts.append((s1 * phi, 0.0, s2 / phi))
    return np.array(pts, dtype=float)


def test_mgon_edge_cos_matches_dodecahedron_coordinates():
    pts = _dodecahedron_vertices()
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    edge2 = d2[d2 > 1e-9].min()
    i, j = np.argwhere(np.abs(d2 - edge2) < 1e-9)[0]
    u = pts[i] / np.linalg.norm(pts[i])
    v = pts[j] / np.linalg.norm(pts[j])
    oracle = float(np.dot(u, v))
    assert oracle == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-12)
    assert mgon_edge_cos(5, TWO_PI / 3.0) == pytest.approx(oracle, abs=1e-12)


def test_closure_residual_at_dodecahedron_angles():
    # All three angles 2*pi/3: the m-gon wants sqrt(5)/3, the rhombus 1/3.
    expected = math.sqrt(5.0) / 3.0 - 1.0 / 3.0
    assert closure_residual(
        5, TWO_PI / 3.0, TWO_PI / 3.0, TWO_PI / 3.0
    ) == pytest.approx(expected, abs=1e-14)


def test_rhombus_edge_cos_right_angles_degenerates():
    assert rhombus_edge_cos(math.pi / 2.0, math.pi / 2.0) == pytest.approx(
        1.0, abs=1e-15
    )


def test_rhombus_edge_cos_symmetric():
    assert rhombus_edge_cos(2.0, 1.4) == pytest.approx(
        rhombus_edge_cos(1.4, 2.0), abs=1e-15
    )


def test_edge_cos_domain_errors():
    with pytest.raises(ClosureDomainError):
        rhombus_edge_cos(0.0, 1.0)
    with pytest.raises(ClosureDomainError):
        rhombus_edge_cos(1.0, math.pi)
    with pytest.raises(ClosureDomainError):
        mgon_edge_cos(5, mgon_lower_bound(5))
    with pytest.raises(ClosureDomainError):
        mgon_edge_cos(5, math.pi)
    with pytest.raises(ClosureDomainError):
        mgon_edge_cos(2, 2.0)


@pytest.mark.parametrize("m", [5, 6, 7, 12, 64])
def test_mgon_edge_cos_decreasing_with_limits(m):
    lo = mgon_lower_bound(m)
    alphas = np.linspace(lo + 1e-9, math.pi - 1e-9, 400)
    values = [mgon_edge_cos(m, a) for a in alphas]
    assert all(x > y for x, y in zip(values, values[1:]))
    # Shrinking the polygon toward its planar limit stretches the edge
    # cosine to 1; opening every corner flat leaves the polar-cap edge.
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert values[-1] == pytest.approx(math.cos(TWO_PI / m), abs=1e-6)


@given(
    beta=st.floats(min_value=1.85, max_value=3.0),
    gamma=st.floats(min_value=1.32, max_value=1.6),
)
def test_rhombus_edge_cos_in_range(beta, gamma):
    # beta + gamma > pi holds on this rectangle, so the rhombus exists and
    # its edge cosine is a genuine cosine.
    assert beta + gamma > math.pi
    value = rhombus_edge_cos(beta, gamma)
    assert -1.0 <= value <= 1.0


# -- admissibility box -----------------------------------------------------------


def test_box_accepts_known_solution():
    assert not box_violations(5, 1.944051137388356, 2.0943951023931953, 1.122369533699016)
    assert box_violations(5, 1.944051137388356, 2.0943951023931953, 1.122369533699016) == []


def test_box_rejects_each_side():
    ok = (0.65 * math.pi, 0.7 * math.pi, 0.4 * math.pi)
    assert not box_violations(5, *ok)
    assert box_violations(5, 0.55 * math.pi, ok[1], ok[2])  # below m-gon bound
    assert box_violations(5, ok[0], 0.3 * math.pi, 0.4 * math.pi)  # gamma >= beta
    assert box_violations(5, ok[0], ok[1], 0.7 * math.pi)  # gamma above beta
    assert box_violations(5, ok[0], 0.55 * math.pi, 0.42 * math.pi)  # beta+gamma <= pi
    assert box_violations(5, 0.9 * math.pi, 0.9 * math.pi, 0.4 * math.pi)  # sum > 2*pi
    assert "angle sum" in " ".join(
        box_violations(5, 0.9 * math.pi, 0.9 * math.pi, 0.4 * math.pi)
    )


# -- closure roots ----------------------------------------------------------------

SPORADIC_SYSTEMS = {
    "football": ([(0, 3, 0), (1, 1, 2)], (0.61881, 2.0 / 3.0, 0.35726, 0.12943)),
    "snub-fusion": ([(1, 2, 0), (1, 1, 2)], (0.62526, 0.68737, 0.34369, 0.14901)),
    "pentagonal-branch": ([(1, 2, 0), (2, 0, 2)], (0.63636, 0.68182, 0.36364, None)),
}


@pytest.mark.parametrize("name", sorted(SPORADIC_SYSTEMS))
def test_solve_closure_sporadic_roots(name):
    constraints, (a, b, g, x) = SPORADIC_SYSTEMS[name]
    roots = solve_closure(5, constraints)
    assert len(roots) == 1
    s = roots[0]
    tol = 5e-5 * math.pi
    assert abs(s.alpha - a * math.pi) < tol
    assert abs(s.beta - b * math.pi) < tol
    assert abs(s.gamma - g * math.pi) < tol
    if x is not None:
        assert abs(s.x - x * math.pi) < tol
    # every root satisfies closure to the solver's own tolerance
    assert abs(closure_residual(5, s.alpha, s.beta, s.gamma)) < 1e-10


# (alpha, beta, gamma, cos_x) of each unique root as float.hex, frozen on the
# line taken from the integer rows; each is within 1e-12 of its system's
# 50-digit root (test_each_frozen_root_is_within_1e_12_of_its_50_digit_root).
FROZEN_ROOTS = {
    "football": ([(0, 3, 0), (1, 1, 2)], (
        "0x1.f1ad55d8d5a82p+0", "0x1.0c152382d7365p+1", "0x1.1f539c194398ap+0", "0x1.d64178c26bbbdp-1",
    )),
    "snub-fusion": ([(1, 2, 0), (1, 1, 2)], (
        "0x1.f6dccffaaa6f7p+0", "0x1.146881459835ap+1", "0x1.146881459835ap+0", "0x1.c8eb106c1eb40p-1",
    )),
    "pentagonal-branch": ([(1, 2, 0), (2, 0, 2)], (
        "0x1.ffcb4c53d84dfp+0", "0x1.122ce22f4cbe0p+1", "0x1.24741e34ad550p+0", "0x1.b3065217671a8p-1",
    )),
    "earth-map-2": ([(0, 2, 1), (1, 1, 2)], (
        "0x1.36593be07c904p+1", "0x1.7388377856111p+1", "0x1.e977dcbecc06cp-2", "0x1.f89e52f42aab4p-2",
    )),
    "earth-map-3": ([(0, 2, 1), (1, 1, 3)], (
        "0x1.354f876968edfp+1", "0x1.7f8fac187da40p+1", "0x1.290092bc52d86p-2", "0x1.fd4c6f1bfbbfdp-2",
    )),
    "earth-map-7": ([(0, 2, 1), (1, 1, 7)], (
        "0x1.34ce807d2a7d6p+1", "0x1.8af213ab198ffp+1", "0x1.cb68664a50634p-4", "0x1.ff98e4392ce87p-2",
    )),
}


@pytest.mark.parametrize("name", sorted(FROZEN_ROOTS))
def test_solve_closure_roots_are_frozen_to_the_bit(name):
    constraints, frozen = FROZEN_ROOTS[name]
    (s,) = solve_closure(5, constraints)
    assert tuple(x.hex() for x in (s.alpha, s.beta, s.gamma, s.cos_x)) == frozen


def test_solve_closure_football_beta_is_exact_third():
    s = solve_closure(5, [(0, 3, 0), (1, 1, 2)])[0]
    assert s.beta == pytest.approx(TWO_PI / 3.0, abs=1e-12)


def test_solve_closure_snub_beta_twice_gamma():
    s = solve_closure(5, [(1, 2, 0), (1, 1, 2)])[0]
    assert s.beta == pytest.approx(2.0 * s.gamma, abs=1e-12)


def test_solve_closure_grid_independence():
    coarse = solve_closure(5, [(0, 3, 0), (1, 1, 2)], grid=10_000)[0]
    fine = solve_closure(5, [(0, 3, 0), (1, 1, 2)], grid=100_000)[0]
    assert abs(coarse.alpha - fine.alpha) < 1e-9
    assert abs(coarse.beta - fine.beta) < 1e-9
    assert abs(coarse.gamma - fine.gamma) < 1e-9


def test_solve_closure_rank_check():
    # Parallel constraints leave no line to scan.
    with pytest.raises(ValueError):
        solve_closure(5, [(1, 1, 1), (2, 2, 2)])


@pytest.mark.parametrize("constraints", [[(1, 1, 1), (1, 2)], [(0, 2, 1), (1, 1, 2, 0)], [(1, 1, 1)] * 3])
def test_solve_closure_names_a_system_that_is_not_two_triples(constraints):
    with pytest.raises(ValueError, match="need exactly two vertex types"):
        solve_closure(6, constraints)


def test_solve_closure_empty_when_no_root():
    # alpha^3 with beta^2.gamma has a constant-positive residual (see the
    # nonexistence tests), so the root list is empty.
    assert solve_closure(5, [(3, 0, 0), (0, 2, 1)]) == []


@pytest.mark.parametrize(
    "m, constraints",
    [
        # The system forces beta = gamma, against the strict row gamma < beta.
        (5, [(2, 1, 0), (2, 0, 1)]),
        (6, [(2, 1, 0), (2, 0, 1)]),
        (7, [(2, 1, 0), (2, 0, 1)]),
        # Alpha lands on the m-gon bound, against the strict row above it.
        (5, [(2, 1, 0), (2, 0, 4)]),
        (6, [(1, 1, 2), (1, 2, 0)]),
    ],
)
def test_solve_closure_finds_no_root_where_a_strict_row_holds_with_equality(m, constraints):
    # Exact elimination rejects each system; in floats the row's value along
    # the line is a rounding residue of either sign, which can let a root through.
    assert not _feasible(m, constraints)
    assert solve_closure(m, constraints) == []


def test_solve_closure_keeps_a_root_where_the_angle_sum_row_holds_with_equality():
    # alpha^2.gamma and beta^2.gamma force alpha = beta, so the whole line
    # lies on alpha + beta + gamma = 2*pi, which the box allows.  The root
    # alpha = beta = 4*pi/5, gamma = 2*pi/5 closes exactly, checked at 50 digits.
    for constraints in ([(0, 2, 1), (2, 0, 1)], [(2, 0, 1), (0, 2, 1)]):
        (s,) = solve_closure(5, constraints)
        expected = (0.8 * math.pi, 0.8 * math.pi, 0.4 * math.pi)
        assert (s.alpha, s.beta, s.gamma) == pytest.approx(expected, abs=1e-12)
    with mpmath.workdps(50):
        a, g = 4 * mpmath.pi / 5, 2 * mpmath.pi / 5
        mgon = mpmath.cot(a / 2) ** 2 + mpmath.cos(2 * mpmath.pi / 5) / mpmath.sin(a / 2) ** 2
        assert abs(mgon - mpmath.cot(a / 2) * mpmath.cot(g / 2)) < mpmath.mpf(10) ** -45


def test_solve_closure_finds_a_root_on_the_angle_sum_plane_in_either_order():
    # beta^3 and alpha.beta.gamma: the line lies on alpha + beta + gamma = 2*pi
    # with beta = 2*pi/3, and its root is a root of the 50-digit residual.
    orders = ([(0, 3, 0), (1, 1, 1)], [(1, 1, 1), (0, 3, 0)])
    roots = [solve_closure(5, constraints) for constraints in orders]
    assert [len(r) for r in roots] == [1, 1]
    with mpmath.workdps(50):
        c = mpmath.cos(2 * mpmath.pi / 5)

        def residual(a):
            g = 4 * mpmath.pi / 3 - a
            mgon = mpmath.cot(a / 2) ** 2 + c / mpmath.sin(a / 2) ** 2
            return mgon - mpmath.cot(mpmath.pi / 3) * mpmath.cot(g / 2)

        alpha = mpmath.findroot(residual, 0.777 * mpmath.pi)
    for (s,) in roots:
        expected = (float(alpha), 2 * math.pi / 3, 4 * math.pi / 3 - float(alpha))
        assert (s.alpha, s.beta, s.gamma) == pytest.approx(expected, abs=1e-12)


def test_solve_closure_roots_do_not_depend_on_constraint_order_at_m5():
    types = [(a, b, d - a - b) for d in range(3, 7) for a in range(d + 1) for b in range(d + 1 - a)]
    for i, p in enumerate(types):
        for q in types[i + 1:]:
            if not np.cross(p, q).any():
                continue
            forward, backward = solve_closure(5, [p, q]), solve_closure(5, [q, p])
            assert len(forward) == len(backward), (p, q)
            for s, r in zip(forward, backward):
                angles = (r.alpha, r.beta, r.gamma)
                assert (s.alpha, s.beta, s.gamma) == pytest.approx(angles, abs=1e-9), (p, q)


def test_crossing_rows_match_numpy_cross_and_dot_at_m5():
    # The numpy form that the integer arithmetic replaced, as the reference.
    def reference(constraints):
        axis = np.cross(*constraints)
        return [int(np.dot(coeffs, axis)) != 0 for _tag, coeffs, _const, _strict in _BOX]

    types = [(a, b, d - a - b) for d in range(3, 7) for a in range(d + 1) for b in range(d + 1 - a)]
    for p in types:
        for q in types:
            assert _crossing_rows([p, q]) == reference([p, q]), (p, q)


# -- the bracketed scan against the dense grid --------------------------------------

DEGREE_3_TO_6 = [(a, b, d - a - b) for d in range(3, 7) for a in range(d + 1) for b in range(d + 1 - a)]
# ROADMAP item 9's m = 6 systems: the float scan alone finds rounding roots near
# beta = pi that depend on constraint order; they imply beta^2.gamma, so the
# edge-bound gate returns no root in either order.
ROUNDING_PAIRS_M6 = [
    ((0, 2, 1), (1, 1, 1)), ((0, 2, 1), (2, 0, 2)), ((0, 2, 1), (1, 1, 3)),
    ((0, 2, 1), (2, 0, 3)), ((0, 2, 1), (1, 1, 4)), ((1, 1, 2), (2, 0, 3)),
]


def test_bisect_returns_an_exact_zero_at_once():
    calls = []

    def f(t):
        calls.append(t)
        return t - 0.5

    assert trig._bisect(f, 0.0, 1.0, BRACKET_TOL) == 0.5
    assert calls == [0.0, 0.5]


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 3.0), (-2.0, math.pi)])
def test_bisect_at_width_zero_ends_on_an_adjacent_float_bracket(lo, hi):
    root = 0.5 * (lo + hi) + 1e-3
    t = trig._bisect(lambda t: 1.0 if t < root else -1.0, lo, hi, 0.0)
    below, above = (t, math.nextafter(t, math.inf)) if t < root else (math.nextafter(t, -math.inf), t)
    assert below < root <= above


def _dense_bisect(m, point, direction, lo, hi):
    """The dense scan's bisection, on numpy 3-vectors."""
    def f(t):
        a, b, g = point + t * direction
        return closure_residual(m, a, b, g)

    f_lo = f(lo)
    while hi - lo > BRACKET_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _dense_grid_reference(m, constraints, grid=10_000):
    """solve_closure as a dense scan: the same edge-bound gate, then the residual
    at every point of the grid, as (grid + 1, 3) numpy arrays, and every flagged
    cell bisected."""
    line = None if trig._edge_bound_premise(m, constraints) else trig._line_box_interval(m, constraints)
    if line is None:
        return []
    point, direction, t_lo, t_hi = np.array(line[0]), np.array(line[1]), *line[2:]
    ts = np.linspace(t_lo, t_hi, grid + 1)
    angles = point[None, :] + ts[:, None] * direction[None, :]
    residuals = _residual_vec(m, angles)
    r0, r1 = residuals[:-1], residuals[1:]
    finite = np.isfinite(r0) & np.isfinite(r1)
    zero = finite & (r0 == 0.0)
    cells = np.flatnonzero(zero | (finite & (r0 * r1 < 0.0)))
    roots = [
        float(ts[i]) if zero[i] else _dense_bisect(m, point, direction, float(ts[i]), float(ts[i + 1]))
        for i in cells
    ]
    if residuals[-1] == 0.0:
        roots.append(float(ts[-1]))
    crossing = _crossing_rows(constraints)
    solutions, kept_ts = [], []
    for t in sorted(roots):
        if any(abs(t - prev) < 1e-9 for prev in kept_ts):
            continue
        alpha, beta, gamma = (point + t * direction).tolist()
        if any(compress(_box_checks(m, alpha, beta, gamma), crossing)):
            continue
        if abs(closure_residual(m, alpha, beta, gamma)) >= RESIDUAL_TOL:
            continue
        kept_ts.append(t)
        sol = AngleSolution.checked(m, alpha, beta, gamma)
        if not sol.edge_valid:
            warnings.warn(
                f"closure root with degenerate edge cosine {sol.cos_x:.6f} kept but flagged: "
                f"{sol.describe()}"
            )
        solutions.append(sol)
    solutions.sort(key=lambda s: s.alpha)
    return solutions


def _outcome(solve, m, constraints, grid=10_000):
    """The roots, or the ValueError's text, and the warnings' texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            roots = solve(m, constraints, grid)
        except ValueError as exc:
            roots = f"ValueError: {exc}"
    return roots, [str(w.message) for w in caught]


@pytest.mark.parametrize("m", [5, 6, 7, 64])
def test_solve_closure_equals_the_dense_grid_on_every_pair_of_types(m):
    # Tuple ==, so every float of every root is the dense grid's to the bit.
    found = 0
    for p in DEGREE_3_TO_6:
        for q in DEGREE_3_TO_6:
            if p != q:
                scanned = _outcome(solve_closure, m, [p, q])
                assert scanned == _outcome(_dense_grid_reference, m, [p, q]), (p, q)
                found += isinstance(scanned[0], list) and len(scanned[0])
    assert found > 0


@pytest.mark.parametrize("grid", [1, 2, 3, 7, 100_000])
def test_solve_closure_equals_the_dense_grid_at_other_grid_sizes(grid):
    systems = [(5, constraints) for constraints, _ in FROZEN_ROOTS.values()]
    systems += [(6, [p, q]) for pair in ROUNDING_PAIRS_M6 for p, q in (pair, pair[::-1])]
    for m, constraints in systems:
        expected = _outcome(_dense_grid_reference, m, constraints, grid)
        assert _outcome(solve_closure, m, constraints, grid) == expected, (m, constraints)


def test_solve_closure_evaluates_few_residual_points_on_the_census_systems(monkeypatch):
    # Each pair of census rows of the bench catalog's earth maps, football and
    # snub fusions, which a bare-form verify solves, and the snub system itself.
    counts = []

    def counted(m, angles):
        counts[-1] += len(angles)
        return _residual_vec(m, angles)

    monkeypatch.setattr(trig, "_residual_vec", counted)
    systems = [[(1, 2, 0), (1, 1, 2)]]
    for t in [earth_map(c) for c in range(2, 9)] + [football()] + [snub_fusion(k) for k in (1, 2, 3)]:
        rows = sorted(t.census())
        systems += [[p, q] for i, p in enumerate(rows) for q in rows[i + 1:]]
    for constraints in systems:
        counts.append(0)
        assert len(solve_closure(5, constraints)) == 1
    assert 0 < max(counts) <= 64, counts


@pytest.mark.parametrize("grid", [4, 10_000])
@pytest.mark.parametrize("side", ["straddles", "ends", "starts"])
def test_solve_closure_equals_the_dense_grid_on_a_span_a_few_ulps_wide(monkeypatch, side, grid):
    # The football line cut to 16 ulps about where numpy's residual leaves its
    # sign, or to 16 that end (or start) where it is exactly 0.  At 10,000 cells
    # most grid points repeat; at 4, a zero point starts the first cell, or is
    # the last point and the only one that finds the root.
    constraints = [(0, 3, 0), (1, 1, 2)]
    line = _line_box_interval(5, constraints)
    point, direction = np.array(line[0]), np.array(line[1])
    (s,) = solve_closure(5, constraints)
    t_root = float((np.array([s.alpha, s.beta, s.gamma]) - point) @ direction)
    ulp = math.ulp(t_root)
    ts = t_root + np.arange(-4000, 4001) * ulp
    r = _residual_vec(5, point[None, :] + ts[:, None] * direction[None, :])
    if side == "straddles":
        t_change = float(ts[np.flatnonzero(np.sign(r[:-1]) != np.sign(r[1:]))[0]])
        span = (t_change - 8 * ulp, t_change + 8 * ulp)
    else:
        zeros = ts[r == 0.0]
        if not len(zeros):
            pytest.skip("numpy's residual has no exact zero within 4000 ulps of the root here")
        t_zero = float(zeros[0])
        span = (t_zero - 16 * ulp, t_zero) if side == "ends" else (t_zero, t_zero + 16 * ulp)
    monkeypatch.setattr(trig, "_line_box_interval", lambda m, c: (*line[:2], *span))
    points = []
    monkeypatch.setattr(trig, "_residual_vec", lambda m, angles: points.append(len(angles)) or _residual_vec(m, angles))
    expected = _outcome(_dense_grid_reference, 5, constraints, grid)
    assert len(expected[0]) == 1
    assert _outcome(solve_closure, 5, constraints, grid) == expected
    assert sum(points) <= 400, sum(points)


@pytest.mark.parametrize("grid", [0, -1, -10_000, 2.5, 1e4, "10", None, True])
def test_solve_closure_refuses_a_grid_that_is_not_a_positive_int(grid):
    with pytest.raises(ValueError, match=f"grid must be an int >= 1, got {re.escape(repr(grid))}"):
        solve_closure(5, [(0, 3, 0), (1, 1, 2)], grid)


# -- angle solutions --------------------------------------------------------------


def test_checked_swaps_to_keep_beta_largest():
    s = AngleSolution.checked(5, 1.944051137388356, 1.122369533699016, 2.0943951023931953)
    assert s.beta > s.gamma
    assert s.beta == pytest.approx(2.0943951023931953, abs=1e-15)


def test_checked_rejects_inconsistent_angles():
    with pytest.raises(ValueError):
        AngleSolution.checked(5, 0.7 * math.pi, 0.8 * math.pi, 0.3 * math.pi)


def test_angle_lookup_and_x():
    s = AngleSolution.checked(5, 1.944051137388356, 2.0943951023931953, 1.122369533699016)
    assert s.angle("alpha") == s.alpha
    assert s.angle("beta") == s.beta
    with pytest.raises(KeyError):
        s.angle("delta")
    assert math.cos(s.x) == pytest.approx(s.cos_x, abs=1e-15)


def test_solve_closure_warns_of_a_root_with_a_degenerate_edge(monkeypatch):
    checked = AngleSolution.checked.__func__

    def degenerate(cls, m, alpha, beta, gamma):
        return checked(cls, m, alpha, beta, gamma)._replace(cos_x=1.0, edge_valid=False)

    monkeypatch.setattr(AngleSolution, "checked", classmethod(degenerate))
    with pytest.warns(UserWarning, match="degenerate edge cosine 1.000000 kept but flagged: m=5"):
        roots = solve_closure(5, [(0, 3, 0), (1, 1, 2)])
    assert len(roots) == 1 and not roots[0].edge_valid


# -- display -------------------------------------------------------------------------


def _ref_pi_fraction(value, max_den=120, tol=1e-9):
    """The display fraction through fractions.Fraction, as (numerator, denominator)."""
    q = Fraction(value / math.pi).limit_denominator(max_den)
    return (q.numerator, q.denominator) if abs(float(q) * math.pi - value) <= tol else None


def _ref_format_angle(value, q):
    """format_angle's text, given the reference fraction q of ``value``."""
    if q is None:
        return f"{value / math.pi:.6f}*pi"
    if q[1] == 1:
        return f"{q[0]}*pi" if q[0] != 1 else "pi"
    return f"{q[0]}/{q[1]}*pi"


def test_pi_fraction_and_format_angle_match_the_fraction_reference():
    """Every exact k/q*pi with q <= 100 and |k| <= 2q, each moved by 1e-9, by
    1e-12 and by one ulp, plus uniform values: denominators past the 120 cap,
    results on both sides of the 1e-9 tolerance, and best approximations that
    are the last convergent and that are the semiconvergent after it all occur."""
    exact = [k / q * math.pi for q in range(1, 101) for k in range(-2 * q, 2 * q + 1)]
    values = [v + d for v in exact for d in (0.0, 1e-9, -1e-9, 1e-12)]
    values += [math.nextafter(v, math.inf) for v in exact]
    values += np.random.default_rng(23).uniform(-4 * math.pi, 4 * math.pi, 5_000).tolist()
    assert len(values) >= 100_000
    expected = list(map(_ref_pi_fraction, values))
    got = list(map(pi_fraction, values))
    assert got == expected, next(v for v, g, e in zip(values, got, expected) if g != e)
    texts = list(map(format_angle, values))
    assert texts == list(map(_ref_format_angle, values, expected))
    assert texts[values.index(math.pi)] == "pi" and format_angle(-math.pi / 3) == "-1/3*pi"
    assert format_angle(0.0) == "0*pi" and format_angle(1.0) == "0.318310*pi"


def test_vertex_label_format():
    assert vertex_label((0, 3, 0)) == "beta^3"
    assert vertex_label((1, 1, 2)) == "alpha.beta.gamma^2"
    assert vertex_label((2, 0, 1)) == "alpha^2.gamma"


# -- nonexistence certificates -----------------------------------------------------


def test_certify_alpha3_beta2gamma_constant_positive():
    ev = certify_no_root(
        5,
        [(3, 0, 0), (0, 2, 1)],
        interval=(1e-6, math.pi - 1e-6),
        free_angle="gamma",
    )
    assert ev.sign_summary == "constant-positive"
    assert ev.residuals, "expected in-box residual samples"
    assert all(res > 0.0 for res in ev.residuals)


def test_certify_beta2gamma_m6_all_violate():
    ev = certify_no_root(
        6,
        [(0, 2, 1)],
        interval=(1e-6, math.pi - 1e-6),
        free_angle="gamma",
    )
    assert ev.sign_summary == "all-violate"
    assert not ev.sample_at
    assert ev.violation_at


def test_certify_refuses_sign_change():
    # beta^3 with alpha.beta.gamma^2 has a root (the football), so the
    # residual crosses zero and no certificate exists.
    with pytest.raises(ValueError):
        certify_no_root(
            5,
            [(0, 3, 0), (1, 1, 2)],
            interval=(mgon_lower_bound(5) + 1e-6, math.pi - 1e-6),
            free_angle="alpha",
        )


def test_certify_refuses_one_constraint_with_alpha_and_beta():
    # The constraints select the sampler; this shape has none.
    with pytest.raises(ValueError, match="unsupported"):
        certify_no_root(5, [(1, 1, 1)], interval=(0.5, 3.0))


def test_evidence_json_is_deterministic():
    def make() -> NonexistenceEvidence:
        return certify_no_root(
            5,
            [(2, 1, 0), (0, 2, 1)],
            interval=(3.0 * math.pi / 5.0, 2.0 * math.pi / 3.0),
            free_angle="alpha",
        )

    first, second = make().to_json(), make().to_json()
    assert first == second
    assert '"sign_summary":"constant-positive"' in first


@pytest.mark.parametrize(
    "constraints, interval, free",
    [
        ([(3, 0, 0), (0, 2, 1)], (1e-6, math.pi - 1e-6), "gamma"),
        ([(1, 2, 0), (1, 0, 3)], (3 * math.pi / 5, 2 * math.pi / 3), "alpha"),
    ],
)
def test_line_samples_match_the_vector_sum(constraints, interval, free):
    # The sampler writes point + scale * direction out per coordinate; the
    # numpy vector sum is the reference, and the results must be equal.
    ev = certify_no_root(5, constraints, interval, free_angle=free)
    point, direction = map(np.array, _affine_line(constraints))
    i = ["alpha", "beta", "gamma"].index(free)

    def angles(t):
        return (point + (t - point[i]) / direction[i] * direction).tolist()

    assert ev.sample_at
    for t, residual in zip(ev.sample_at, ev.residuals):
        assert closure_residual(5, *angles(t)) == residual
    for t, tag in zip(ev.violation_at, ev.tags):
        assert box_violations(5, *angles(t))[0] == tag


def test_evidence_records_interval_and_counts():
    ev = certify_no_root(
        5,
        [(3, 0, 0), (0, 2, 1)],
        interval=(1e-6, math.pi - 1e-6),
        free_angle="gamma",
    )
    assert len(ev.residuals) == len(ev.sample_at) and len(ev.tags) == len(ev.violation_at)
    assert ev.sample_count == len(ev.sample_at) + len(ev.violation_at) + len(ev.poles)
    assert ev.interval[0] < ev.interval[1]
    assert ev.m == 5


# -- the scalar evidence code, kept as the reference ---------------------------------
# certify_no_root's samplers and the list-building payload as they were before
# the samplers went to arrays and the record got a one-pass text renderer.  The
# array code must give the same sample count and the same JSON, byte for byte.


def _ref_f17(x: float) -> str:
    return format(x, ".17g")


def _ref_box_violations(m, alpha, beta, gamma):
    out = []
    for tag, (ca, cb, cg), const, strict in _box_rows(m):
        v = ca * alpha + cb * beta + cg * gamma + const
        if (v <= 0.0) if strict else (v < 0.0):
            out.append(tag)
    return out


def _ref_sample_line(m, cons, ts, idx):
    (p0, p1, p2), (d0, d1, d2) = _affine_line(cons)
    if abs((d0, d1, d2)[idx]) < 1e-12:
        raise ValueError("fixed by the constraints")
    p_free, d_free = (p0, p1, p2)[idx], (d0, d1, d2)[idx]
    samples, violations, poles = [], [], []
    for t in ts:
        scale = (t - p_free) / d_free
        alpha, beta, gamma = p0 + scale * d0, p1 + scale * d1, p2 + scale * d2
        tags = _ref_box_violations(m, alpha, beta, gamma)
        if tags:
            violations.append((t, tags[0]))
        elif min(alpha, beta, gamma) < POLE_TOL or max(alpha, beta, gamma) > math.pi - POLE_TOL:
            poles.append(t)
        else:
            samples.append((t, closure_residual(m, alpha, beta, gamma)))
    return samples, violations, poles


def _ref_sample_edge_bound(m, con, ts):
    _, b, c = con
    bound = math.cos(TWO_PI / m)
    tail = f" <= cos(2*pi/m) {_ref_f17(bound)}"
    samples, violations = [], []
    for gamma in ts:
        beta = (TWO_PI - c * gamma) / b
        if not (0.0 < gamma < math.pi) or not (0.0 < beta < math.pi):
            violations.append((gamma, "angle outside (0, pi)"))
        elif gamma >= beta:
            violations.append((gamma, "gamma below beta"))
        else:
            edge = rhombus_edge_cos(beta, gamma)
            if edge <= bound:
                violations.append((gamma, f"edge bound: rhombus edge cos {_ref_f17(edge)}{tail}"))
            else:
                samples.append((gamma, edge - bound))
    return samples, violations, []


def _ref_sample_beta_range(m, con, ts):
    a, _, c = con
    alpha_lo = mgon_lower_bound(m)
    samples, violations = [], []
    for alpha in ts:
        gamma = (TWO_PI - a * alpha) / c if c else math.nan
        if not (alpha_lo < alpha < math.pi):
            violations.append((alpha, "alpha above m-gon bound"))
        elif not (0.0 < gamma < math.pi):
            violations.append((alpha, "angle outside (0, pi)"))
        elif gamma >= alpha:
            violations.append((alpha, "gamma below alpha"))
        else:
            beta_low = max(alpha, gamma, math.pi - gamma)
            beta_high = min(math.pi, TWO_PI - alpha - gamma)
            if beta_low >= beta_high:
                need = f"needs beta > {_ref_f17(beta_low)} and beta <= {_ref_f17(beta_high)}"
                violations.append((alpha, f"empty beta range: {need}"))
            else:
                samples.append((alpha, beta_high - beta_low))
    return samples, violations, []


def _ref_payload(description, m, cons, free_angle, interval, spacing, summary, samples,
                 violations, poles):
    return {
        "description": description,
        "m": m,
        "constraints": [list(c) for c in cons],
        "free_angle": free_angle,
        "interval": [_ref_f17(interval[0]), _ref_f17(interval[1])],
        "spacing": _ref_f17(spacing),
        "sign_summary": summary,
        "samples": [[_ref_f17(t), _ref_f17(r)] for t, r in samples],
        "violations": [[_ref_f17(t), tag] for t, tag in violations],
        "poles": [_ref_f17(t) for t in poles],
    }


def _ref_certify(m, constraints, interval, free_angle="alpha", spacing=EVIDENCE_SPACING,
                 require_beta_above_alpha=False, description=""):
    """(payload, sample count) as the scalar certify_no_root and payload gave them."""
    cons = tuple(tuple(int(v) for v in c) for c in constraints)
    ts = _evidence_grid(interval[0], interval[1], spacing).tolist()
    if len(cons) == 2:
        samples, violations, poles = _ref_sample_line(m, cons, ts, "abg".index(free_angle[0]))
    elif len(cons) == 1 and cons[0][0] == 0 and not require_beta_above_alpha:
        samples, violations, poles = _ref_sample_edge_bound(m, cons[0], ts)
    else:
        samples, violations, poles = _ref_sample_beta_range(m, cons[0], ts)
    if samples:
        if all(r > 0.0 for _, r in samples):
            summary = "constant-positive"
        elif all(r < 0.0 for _, r in samples):
            summary = "constant-negative"
        else:
            raise ValueError("sampled residuals change sign")
    else:
        summary = "all-violate"
    payload = _ref_payload(
        description or _default_description(cons, free_angle, summary), m, cons, free_angle,
        (float(interval[0]), float(interval[1])), float(spacing), summary,
        samples, violations, poles,
    )
    return payload, len(samples) + len(violations) + len(poles)


def _assert_matches_reference(ev, require_beta_above_alpha=False):
    # The reference keeps the old interface, where the caller chose the
    # empty-beta-range sampler by a flag; certify_no_root reads the shape.
    payload, count = _ref_certify(
        ev.m, ev.constraints, ev.interval, ev.free_angle, ev.spacing,
        require_beta_above_alpha, ev.description,
    )
    assert ev.to_json() == json.dumps(payload, separators=(",", ":"))
    assert ev.sample_count == count


def _assert_proof_premise(ev):
    """A proof record's fields, and the premise its proof states, re-checked."""
    assert (ev.sign_summary, ev.free_angle, ev.interval) == ("proof", "gamma", (0.0, math.pi))
    assert ev.sample_count == 0 and not ev.residuals and not ev.tags
    assert (0, 2, 1) in ev.constraints
    assert ev.proof.startswith("beta^2.gamma gives beta = pi - gamma/2")
    if ev.m >= 6:
        assert ev.proof.endswith(f"as m = {ev.m} >= 6")
    else:
        assert ev.m == 5 and "leaves alpha <= 2*pi/3" in ev.proof
        assert _lp_max_alpha(5, ev.constraints) <= 2 * math.pi / 3 + 1e-9


@pytest.mark.parametrize("m", [5, 6, 7, 13, 64])
def test_every_seed_evidence_matches_the_scalar_reference(m):
    evidence = [e.outcome for e in classify(m).entries if isinstance(e.outcome, NonexistenceEvidence)]
    assert evidence
    for ev in evidence:
        cons = ev.constraints
        if (0, 2, 1) in cons:
            _assert_proof_premise(ev)
            continue
        # Only the empty-beta-range shape has one constraint with an alpha term.
        _assert_matches_reference(ev, require_beta_above_alpha=len(cons) == 1 and cons[0][0] != 0)


@pytest.mark.parametrize(
    "m, constraints, interval, free",
    [
        (5, [(3, 0, 0), (0, 2, 1)], (1e-6, math.pi - 1e-6), "gamma"),
        (5, [(2, 1, 0), (0, 2, 1)], (3 * math.pi / 5, 2 * math.pi / 3), "alpha"),
        (5, [(1, 2, 0), (1, 0, 3)], (3 * math.pi / 5, 2 * math.pi / 3), "alpha"),
        (5, [(1, 2, 0), (1, 0, 5)], (3 * math.pi / 5, 2 * math.pi / 3), "alpha"),
        (5, [(1, 2, 0), (2, 0, 3)], (3 * math.pi / 5, 2 * math.pi / 3), "alpha"),
        (6, [(0, 2, 1)], (1e-6, math.pi - 1e-6), "gamma"),
    ],
)
def test_criterion_7_evidence_matches_the_scalar_reference(m, constraints, interval, free):
    _assert_matches_reference(certify_no_root(m, constraints, interval, free_angle=free))


@pytest.mark.parametrize(
    "m, constraints, interval, free, require, expect",
    [
        # gamma within POLE_TOL of 0 and beta of pi: poles, then one sample.
        (5, [(3, 0, 0), (0, 2, 1)], (0.0, 3e-12), "gamma", False, "poles"),
        # The m-gon edge bound holds for small gamma at m = 5 and fails above.
        (5, [(0, 2, 1)], (1e-6, math.pi - 1e-6), "gamma", False, "mixed"),
        (7, [(0, 2, 1)], (-0.5, math.pi + 0.5), "gamma", False, "violations"),
        # alpha + gamma = pi leaves beta in (alpha, pi]; below the m-gon bound it violates.
        (5, [(2, 0, 2)], (0.5, 3.0), "alpha", True, "mixed"),
        # At m = 6 some alphas leave beta a sliver of room, by rounding.
        (6, [(2, 0, 1)], (0.5, 3.5), "alpha", True, "mixed"),
        # No gamma term: gamma is NaN and every in-range alpha violates.
        (5, [(3, 0, 0)], (0.5, 3.0), "alpha", True, "violations"),
    ],
)
def test_evidence_shapes_match_the_scalar_reference(m, constraints, interval, free, require, expect):
    # ``require`` is the reference's flag for the shape; certify_no_root takes none.
    ev = certify_no_root(m, constraints, interval, free_angle=free, spacing=1e-3)
    _assert_matches_reference(ev, require)
    if expect == "poles":
        assert ev.poles and ev.sample_at and not ev.violation_at
    elif expect == "mixed":
        assert ev.sample_at and ev.violation_at
    else:
        assert ev.violation_at and not ev.sample_at and not ev.poles


def test_sign_change_raises_in_the_array_code_and_the_reference():
    args = (5, [(0, 3, 0), (1, 1, 2)], (mgon_lower_bound(5) + 1e-6, math.pi - 1e-6), "alpha")
    with pytest.raises(ValueError, match="change sign"):
        certify_no_root(*args[:3], free_angle=args[3])
    with pytest.raises(ValueError, match="change sign"):
        _ref_certify(*args)


def test_to_json_escapes_text_and_writes_empty_arrays_like_the_reference():
    fields = (
        'quote " backslash \\ newline \n non-ascii \u00e9', 5, ((1, 2, 0), (0, 2, 1)), "alpha",
        (0.0, 1.0), 0.1, "all-violate",
    )
    columns = ((), (), (-0.0, 1e-300, 1e16, math.inf), ('tag "\\"', "\t", "\u00e9", ""), ())
    ev = NonexistenceEvidence(*fields, *columns)
    violations = list(zip(columns[2], columns[3]))
    expected = _ref_payload(*fields, [], violations, [])
    assert ev.to_json() == json.dumps(expected, separators=(",", ":"))
    empty = NonexistenceEvidence(*fields, (), (), (), (), ())
    assert empty.to_json() == json.dumps(_ref_payload(*fields, [], [], []), separators=(",", ":"))
    assert empty.sample_count == 0
    assert repr(ev) == (
        f"NonexistenceEvidence(description={fields[0]!r}, m=5, constraints=((1, 2, 0), (0, 2, 1)), "
        "free_angle='alpha', interval=(0.0, 1.0), spacing=0.1, sign_summary='all-violate', proof='')"
    )


# -- the edge-bound lemma ---------------------------------------------------------------
# classify proves every system with beta^2.gamma by edge_bound_proof.  The oracles
# here are mpmath at 50 digits, a floating-point LP and the samplers themselves.


def _lp_max_alpha(m, constraints):
    """Largest alpha on the vertex equations within the box rows, by HiGHS with a
    1e-9 margin on the strict rows; -inf when the system is infeasible."""
    rows = _box_rows(m)
    res = optimize.linprog(
        c=[-1.0, 0.0, 0.0],
        A_ub=[[-c for c in coeffs] for _tag, coeffs, _const, _strict in rows],
        b_ub=[const - 1e-9 if strict else const for _tag, _coeffs, const, strict in rows],
        A_eq=[list(map(float, c)) for c in constraints],
        b_eq=[TWO_PI] * len(constraints),
        bounds=[(None, None)] * 3,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return -res.fun if res.status == 0 else -math.inf


@pytest.mark.parametrize(
    "m, constraints",
    [
        (5, [(0, 2, 1)]),  # earth maps exist
        (5, [(1, 1, 1), (0, 2, 1)]),  # admits alpha > 2*pi/3
        (6, [(2, 0, 1)]),  # no beta^2.gamma
        (5, [(3, 0, 0), (1, 1, 1)]),  # no beta^2.gamma
        (4, [(0, 2, 1)]),  # below the classification's scope
    ],
)
def test_edge_bound_proof_refuses_where_its_premise_fails(m, constraints):
    with pytest.raises(ValueError):
        edge_bound_proof(m, constraints, "x")


def test_edge_bound_premise_at_m5_agrees_with_the_lp_oracle():
    """Every degree-3 companion of beta^2.gamma at m = 5: proved exactly when
    the LP keeps alpha at most 2*pi/3 (or finds no point at all)."""
    proved = []
    for a in range(4):
        for b in range(4 - a):
            cons = [(a, b, 3 - a - b), (0, 2, 1)]
            if cons[0] == cons[1]:
                continue
            if _lp_max_alpha(5, cons) < 2 * math.pi / 3 + 1e-9:
                edge_bound_proof(5, cons, "x")
                proved.append(cons[0])
            else:
                with pytest.raises(ValueError):
                    edge_bound_proof(5, cons, "x")
    assert (3, 0, 0) in proved and (2, 1, 0) in proved and (1, 1, 1) not in proved


def test_three_alpha_row_is_decided_exactly():
    # alpha^3 pins alpha to 2*pi/3 exactly: the strict row 3*alpha > 2*pi is
    # infeasible, and its closed form 3*alpha >= 2*pi is not.
    assert not _feasible(5, [(3, 0, 0), (0, 2, 1)], [((3, 0, 0), -10, True)])
    assert _feasible(5, [(3, 0, 0), (0, 2, 1)], [((3, 0, 0), -10, False)])
    assert _feasible(5, [(3, 0, 0), (0, 2, 1)])


def _feasible_by_sets(m, equations, extra=()):
    """The set-based elimination ``_feasible`` used to run at each m, kept as
    its oracle: rows in units of pi/m deduplicated in sets, every combined row
    kept to the end."""
    rows = {(coeffs, u * m + w * (m - 2), strict) for _tag, coeffs, (u, w), strict in _BOX}
    rows |= set(extra)
    for eq in equations:
        rows |= {(tuple(eq), -2 * m, False), (tuple(-e for e in eq), 2 * m, False)}
    for j in range(3):
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        rows = {r for r in rows if r[0][j] == 0}
        for p, kp, sp in pos:
            for n, kn, sn in neg:
                wp, wn = -n[j], p[j]
                coeffs = tuple(wp * x + wn * y for x, y in zip(p, n))
                rows.add((coeffs, wp * kp + wn * kn, sp or sn))
    return all(k > 0 if strict else k >= 0 for _coeffs, k, strict in rows)


_TYPES_OF_DEGREE_3_TO_6 = [
    (a, b, d - a - b) for d in range(3, 7) for a in range(d + 1) for b in range(d - a + 1)
]


_GONALITIES = [*range(5, 201), 10**6]


def test_feasible_matches_the_set_based_elimination_on_every_single_type():
    admitted = 0
    for m in _GONALITIES:
        for v in _TYPES_OF_DEGREE_3_TO_6:
            got = _feasible(m, [v])
            assert got == _feasible_by_sets(m, [v]), (m, v)
            admitted += got
    # Both answers occur, so neither side can pass by being constant.
    assert 0 < admitted < len(_GONALITIES) * len(_TYPES_OF_DEGREE_3_TO_6)


@pytest.mark.parametrize("m", [5, 6, 7, 9, 64])
def test_feasible_matches_the_set_based_elimination_on_every_pair_of_types(m):
    answers = set()
    for u in _TYPES_OF_DEGREE_3_TO_6:
        for v in _TYPES_OF_DEGREE_3_TO_6:
            got = _feasible(m, [u, v])
            assert got == _feasible_by_sets(m, [u, v]), (m, u, v)
            answers.add(got)
    assert answers == {True, False}


def test_degree3_types_are_feasible_on_ranges_of_m():
    ranges = {v: _m_range((v,)) for v in _TYPES_OF_DEGREE_3_TO_6[:10]}
    assert ranges[(3, 0, 0)][1] == 5 and ranges[(2, 1, 0)][1] == 7
    assert {v for v, r in ranges.items() if r is None} == {(1, 0, 2), (0, 1, 2), (0, 0, 3)}
    assert all(r[1] == math.inf for v, r in ranges.items() if r and v not in [(3, 0, 0), (2, 1, 0)])


def test_feasible_rejects_a_row_without_an_angle():
    with pytest.raises(ValueError, match="needs an angle"):
        _feasible(5, [(1, 1, 1)], [((0, 0, 0), 1, True)])


def test_a_classify_sweep_eliminates_once_per_vertex_system(monkeypatch):
    systems = set()
    cached = trig._m_range

    def spy(equations, extra=()):
        systems.add((equations, extra))
        return cached(equations, extra)

    monkeypatch.setattr(trig, "_m_range", spy)
    cached.cache_clear()
    for m in range(5, 65):
        classify(m)
    assert cached.cache_info().misses == len(systems) >= 12


def test_feasible_matches_the_set_based_elimination_with_extra_rows():
    for extra in ([((3, 0, 0), -10, True)], [((3, 0, 0), -10, False)], []):
        cons = [(3, 0, 0), (0, 2, 1)]
        assert _feasible(5, cons, extra) == _feasible_by_sets(5, cons, extra)


@pytest.mark.parametrize(
    "gamma", ["1e-6", "1e-3", "0.1", "1", "1.5707963267948966", "3", "3.1415926535897"]
)
def test_rhombus_edge_cosine_on_beta2gamma_is_below_one_half(gamma):
    # 50-digit arithmetic: float tan reads 0.5000000002 near gamma = 1e-6.
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        beta = mpmath.pi - g / 2
        value = mpmath.cot(beta / 2) * mpmath.cot(g / 2)
        closed = (1 - mpmath.tan(g / 4) ** 2) / 2
        assert abs(value - closed) < mpmath.mpf(10) ** -40
        assert value < mpmath.mpf(1) / 2 and closed < mpmath.mpf(1) / 2


def test_pentagon_edge_cosine_at_two_pi_over_three_is_sqrt5_over_3():
    with mpmath.workdps(50):
        half = mpmath.pi / 3
        exact = (mpmath.cos(half) ** 2 + mpmath.cos(2 * mpmath.pi / 5)) / mpmath.sin(half) ** 2
        assert abs(exact - mpmath.sqrt(5) / 3) < mpmath.mpf(10) ** -45
        # sqrt(5)/3 > 1/2 exactly when 4*5 > 3^2.
        assert mpmath.sqrt(5) / 3 > mpmath.mpf(1) / 2 and 4 * 5 > 3**2
    assert mgon_edge_cos(5, TWO_PI / 3) == pytest.approx(math.sqrt(5) / 3, abs=1e-15)


# (m, constraints, old interval, old free angle, old sign summary) of every record
# classify now proves; certify_no_root is kept as the oracle.
_PROVED_SYSTEMS = [
    (5, ((3, 0, 0), (0, 2, 1)), (1e-6, math.pi - 1e-6), "gamma", "constant-positive"),
    (5, ((2, 1, 0), (0, 2, 1)), (3 * math.pi / 5, 2 * math.pi / 3), "alpha", "constant-positive"),
] + [(m, ((0, 2, 1),), (1e-6, math.pi - 1e-6), "gamma", "all-violate") for m in (6, 7, 13, 64)]


@pytest.mark.parametrize("m, constraints, interval, free, summary", _PROVED_SYSTEMS)
def test_the_sampler_still_agrees_with_each_proof(m, constraints, interval, free, summary):
    outcomes = [e.outcome for e in classify(m).entries]
    (ev,) = [o for o in outcomes if getattr(o, "constraints", ()) == constraints]
    _assert_proof_premise(ev)
    assert certify_no_root(m, constraints, interval, free_angle=free).sign_summary == summary


def test_every_proof_in_the_sweep_is_a_listed_system():
    proved = {(5, c) for m, c, *_ in _PROVED_SYSTEMS if m == 5}
    for m in range(5, 65):
        for e in classify(m).entries:
            if isinstance(e.outcome, NonexistenceEvidence) and e.outcome.proof:
                assert (m, e.outcome.constraints) in proved or (
                    m >= 6 and e.outcome.constraints == ((0, 2, 1),)
                ), (m, e.seed)


def test_proof_record_json_has_no_samples_and_keeps_its_proof():
    ev = edge_bound_proof(9, [(0, 2, 1)], 'a "quoted" description')
    payload = json.loads(ev.to_json())
    assert list(payload) == [
        "description", "m", "constraints", "free_angle", "interval", "sign_summary", "proof",
    ]
    assert payload["proof"] == ev.proof and payload["description"] == ev.description
    assert payload["sign_summary"] == "proof" and payload["interval"] == ["0", "3.1415926535897931"]
    assert ev.to_json() == json.dumps(payload, separators=(",", ":"))


# -- the line from the integer rows, and the lemma before the scan ------------------------

DEGREE_3_TO_7 = [(a, b, d - a - b) for d in range(3, 8) for a in range(d + 1) for b in range(d + 1 - a)]
SCAN_GONALITIES = [*range(5, 25), 32, 48, 64]


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _exact_line_point(p, q):
    """The least-norm point over 2*pi of the line of rows p and q, as Fractions: the
    solution of p.x = q.x = 1 orthogonal to p x q, by Cramer's rule; None when
    the rows are dependent."""
    axis = tuple(int(v) for v in np.cross(p, q))
    rows = [p, q, axis]
    det = _det3(rows)
    if not det:
        return None
    rhs = (1, 1, 0)
    return tuple(
        Fraction(_det3([tuple(rhs[r] if c == k else rows[r][c] for c in range(3)) for r in range(3)]), det)
        for k in range(3)
    )


def _implies_beta2_gamma(p, q):
    """Whether independent rows p and q imply 2*beta + gamma = 2*pi: (0, 2, 1) is
    lam*p + mu*q with lam + mu = 1, solved exactly from two of its columns."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = p[i] * q[j] - p[j] * q[i]
        if det:
            target = (0, 2, 1)
            lam = Fraction(target[i] * q[j] - target[j] * q[i], det)
            mu = Fraction(p[i] * target[j] - p[j] * target[i], det)
            return all(lam * a + mu * b == t for a, b, t in zip(p, q, target)) and lam + mu == 1
    return False


def test_the_line_comes_from_the_integer_rows_to_two_ulps_of_its_50_digit_point():
    pairs = [(p, q) for p in DEGREE_3_TO_7 for q in DEGREE_3_TO_7 if p != q and np.cross(p, q).any()]
    assert len(pairs) == 11_910
    with mpmath.workdps(50):
        two_pi = 2 * mpmath.pi
        for p, q in pairs:
            point, direction = _affine_line([p, q])
            assert all(type(v) is float for v in point + direction)
            for value, exact in zip(point, _exact_line_point(p, q)):
                assert abs(value - two_pi * exact.numerator / exact.denominator) <= 2 * math.ulp(value), (p, q)
            axis = np.cross(p, q).astype(float)
            assert direction == tuple((axis / np.linalg.norm(axis)).tolist()), (p, q)


@pytest.mark.parametrize("name", sorted(FROZEN_ROOTS))
def test_each_frozen_root_is_within_1e_12_of_its_50_digit_root(name):
    constraints, frozen = FROZEN_ROOTS[name]
    angles = [float.fromhex(h) for h in frozen[:3]]
    with mpmath.workdps(50):
        point = [2 * mpmath.pi * x.numerator / x.denominator for x in _exact_line_point(*constraints)]
        axis = [mpmath.mpf(int(v)) for v in np.cross(*constraints)]
        norm = mpmath.sqrt(sum(a * a for a in axis))
        direction = [a / norm for a in axis]
        c = mpmath.cos(2 * mpmath.pi / 5)

        def on_line(t):
            return [p + t * d for p, d in zip(point, direction)]

        def residual(t):
            a, b, g = on_line(t)
            return mpmath.cot(a / 2) ** 2 + c / mpmath.sin(a / 2) ** 2 - mpmath.cot(b / 2) * mpmath.cot(g / 2)

        t0 = sum((x - p) * d for x, p, d in zip(angles, point, direction))
        exact = on_line(mpmath.findroot(residual, t0))
        assert max(abs(x - e) for x, e in zip(angles, exact)) < 1e-12, name


def _premise_holds(m, p, q):
    """The edge-bound premise by the LP oracle: m >= 6, or m = 5 and alpha stays at
    most 2*pi/3 on the system (or the system has no admissible point)."""
    return m >= 6 or (m == 5 and _lp_max_alpha(5, [p, q]) < 2 * math.pi / 3 + 1e-9)


def test_solve_closure_returns_nothing_where_the_rows_imply_beta2_gamma_under_the_premise():
    implied = [(p, q) for p in DEGREE_3_TO_7 for q in DEGREE_3_TO_7
               if p != q and np.cross(p, q).any() and _implies_beta2_gamma(p, q)]
    assert ((0, 2, 1), (1, 1, 2)) in implied and ((1, 1, 2), (2, 0, 3)) in implied
    covered = 0
    for m in SCAN_GONALITIES:
        for p, q in implied:
            if _premise_holds(m, p, q):
                covered += 1
                assert solve_closure(m, [p, q]) == [], (m, p, q)
                assert edge_bound_proof(m, [p, q], "x").sign_summary == "proof"
            else:
                with pytest.raises(ValueError):
                    edge_bound_proof(m, [p, q], "x")
    assert covered > 0


def test_edge_bound_proof_refuses_every_pair_that_does_not_imply_beta2_gamma():
    for p in DEGREE_3_TO_7:
        for q in DEGREE_3_TO_7:
            if p != q and not (np.cross(p, q).any() and _implies_beta2_gamma(p, q)):
                with pytest.raises(ValueError):
                    edge_bound_proof(6, [p, q], "x")


@pytest.mark.parametrize("m", [6, 7, 9])
def test_root_counts_do_not_depend_on_constraint_order(m):
    # At m = 6 the float scan alone finds rounding roots near beta = pi in one
    # order only for 5 pairs, all implying beta^2.gamma (ROADMAP item 9).
    for i, p in enumerate(DEGREE_3_TO_6):
        for q in DEGREE_3_TO_6[i + 1:]:
            if np.cross(p, q).any():
                assert len(solve_closure(m, [p, q])) == len(solve_closure(m, [q, p])), (p, q)


_LAPACK_ENTRY_POINTS = ("lstsq", "solve", "inv", "pinv", "svd", "eig", "eigh", "qr", "det", "matrix_rank")


def test_classify_and_a_bare_verify_call_no_lapack_routine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg LAPACK routine was called")

    for name in _LAPACK_ENTRY_POINTS:
        monkeypatch.setattr(np.linalg, name, refuse)
    sporadic_solution.cache_clear()
    try:
        for m in range(5, 65):
            classify(m)
        for t in [football(), *(snub_fusion(k) for k in (1, 2, 3)), *(earth_map(c) for c in range(2, 9))]:
            report = verify_tiling(t)
            assert report.ok and report.angle_source.startswith("solved from census rows"), report.angle_source
    finally:
        sporadic_solution.cache_clear()
