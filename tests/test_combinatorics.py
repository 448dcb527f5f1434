"""Degree-3 seed enumeration, anglewise vertex sets, and classification."""

import hashlib
import math
import sys
import warnings

import pytest
from hypothesis import given, strategies as st
from scipy import optimize

from spheretile import complexes, trig
from spheretile.cli import report_json
from spheretile.combinatorics import (
    AVC,
    FamilyOutcome,
    NonexistenceEvidence,
    VertexType,
    _SEED_HANDLERS,
    _candidate_degree3,
    classify,
    counting_filter,
    enumerate_avc,
    enumerate_degree3,
    requires_adjacency_pair,
    vertex_angle_sum,
)
from spheretile.generators import (
    dodecahedron_matchings,
    earth_map,
    football,
    prism,
    triangular_fusion,
)
from spheretile.realization import (
    earth_map_solution,
    prism_default_radius,
    prism_solution,
    sporadic_solution,
)
from spheretile.trig import TWO_PI, solve_closure
from test_cli import CLASSIFY_SWEEP_SHA256


M5_SEEDS = {
    (3, 0, 0),
    (2, 1, 0),
    (2, 0, 1),
    (1, 2, 0),
    (1, 1, 1),
    (0, 3, 0),
    (0, 2, 1),
}
HIGH_M_SEEDS = {(2, 0, 1), (1, 1, 1), (0, 2, 1)}


def test_degree3_seeds_pentagon():
    assert {tuple(v) for v in enumerate_degree3(5)} == M5_SEEDS


@pytest.mark.parametrize("m", range(6, 13))
def test_degree3_seeds_high_m(m):
    assert {tuple(v) for v in enumerate_degree3(m)} == HIGH_M_SEEDS


def test_degree3_seeds_in_order_for_every_m():
    """The LP built from the admissibility box rows keeps every seed list."""
    assert enumerate_degree3(5) == [
        (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1), (0, 3, 0), (0, 2, 1),
    ]
    for m in range(6, 65):
        assert enumerate_degree3(m) == [(2, 0, 1), (1, 1, 1), (0, 2, 1)], m


def test_degree3_excludes_narrowly_infeasible_types():
    """Types whose angle box contradiction is tiny must still be rejected.

    At m = 5 the types alpha.gamma^2, beta.gamma^2 and gamma^3 fail the box
    constraints by a margin comparable to the feasibility cushion, which a
    loosely configured LP solver accepts by mistake.
    """
    seeds = {tuple(v) for v in enumerate_degree3(5)}
    assert (1, 0, 2) not in seeds
    assert (0, 1, 2) not in seeds
    assert (0, 0, 3) not in seeds


def _lp_feasible_in_box(m, v):
    """The floating-point LP that decided seed feasibility before the exact
    elimination: HiGHS with a 1e-9 interior margin on the strict rows."""
    rows = trig._box_rows(m)
    res = optimize.linprog(
        c=[0.0, 0.0, 0.0],
        A_ub=[[-c for c in coeffs] for _tag, coeffs, _const, _strict in rows],
        b_ub=[const - 1e-9 if strict else const for _tag, _coeffs, const, strict in rows],
        A_eq=[[float(v.a), float(v.b), float(v.c)]],
        b_eq=[2.0 * math.pi],
        bounds=[(None, None)] * 3,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    return res.status == 0


def test_exact_seed_check_agrees_with_the_lp_oracle():
    """Every degree-3 candidate, the gamma-free ones included, for m = 5..64."""
    for m in range(5, 65):
        for v in _candidate_degree3():
            assert trig._feasible(m, [tuple(v)]) == _lp_feasible_in_box(m, v), (m, v)


def test_box_rows_keep_their_float_constants_bit_for_bit():
    for m in range(5, 65):
        expected = (
            ("alpha above m-gon bound", (1.0, 0.0, 0.0), -((1.0 - 2.0 / m) * math.pi), True),
            ("alpha below pi", (-1.0, 0.0, 0.0), math.pi, True),
            ("beta positive", (0.0, 1.0, 0.0), 0.0, True),
            ("beta below pi", (0.0, -1.0, 0.0), math.pi, True),
            ("gamma positive", (0.0, 0.0, 1.0), 0.0, True),
            ("gamma below beta", (0.0, 1.0, -1.0), 0.0, True),
            ("gamma below alpha", (1.0, 0.0, -1.0), 0.0, True),
            ("beta+gamma above pi", (0.0, 1.0, 1.0), -math.pi, True),
            ("angle sum at most 2*pi", (-1.0, -1.0, -1.0), 2.0 * math.pi, False),
        )

        def bits(rows):
            return [
                (tag, [float.hex(c) for c in coeffs], float.hex(const), strict)
                for tag, coeffs, const, strict in rows
            ]

        assert bits(trig._box_rows(m)) == bits(expected), m


def test_vertex_angle_sum():
    s = prism_solution(5, 1.2)
    assert vertex_angle_sum(VertexType(1, 1, 1), s) == pytest.approx(2 * math.pi)
    assert vertex_angle_sum(VertexType(2, 0, 0), s) == pytest.approx(2 * s.alpha)


# -- anglewise vertex combinations ----------------------------------------------------


def test_avc_prism():
    avc = enumerate_avc(prism_solution(5, 1.2))
    assert {tuple(v) for v in avc.members} == {(1, 1, 1)}
    assert not avc.warnings


def test_avc_football():
    avc = enumerate_avc(sporadic_solution("football"))
    assert {tuple(v) for v in avc.members} == {(0, 3, 0), (1, 1, 2)}
    assert not avc.warnings


def test_avc_snub_fusion():
    """beta = 2 gamma makes alpha.gamma^4 an exact member of the snub set."""
    avc = enumerate_avc(sporadic_solution("snub-fusion"))
    assert {tuple(v) for v in avc.members} == {(1, 2, 0), (1, 1, 2), (1, 0, 4)}
    assert not avc.warnings


@pytest.mark.parametrize(
    "c,expected",
    [
        (2, {(0, 2, 1), (1, 1, 2), (2, 0, 3)}),
        (3, {(0, 2, 1), (1, 1, 3), (2, 0, 5)}),
    ],
)
def test_avc_earth_map(c, expected):
    avc = enumerate_avc(earth_map_solution(c))
    assert {tuple(v) for v in avc.members} == expected


def _avc_by_triple_loop(s, tol, max_degree):
    """The triple loop ``enumerate_avc`` used to run, trying every c, kept as its
    oracle; it returns the warnings it would emit in the record."""
    angles = (s.alpha, s.beta, s.gamma)
    limits = [int(TWO_PI // ang) + 1 for ang in angles]
    members, near = [], []
    for a in range(min(limits[0], max_degree) + 1):
        for b in range(min(limits[1], max_degree - a) + 1):
            ab = a * angles[0] + b * angles[1]
            for c in range(max(3 - a - b, 0), min(limits[2], max_degree - a - b) + 1):
                total = ab + c * angles[2]
                if abs(total - TWO_PI) < tol:
                    members.append(VertexType(a, b, c))
                elif abs(total - TWO_PI) < 4.0 * tol:
                    near.append((VertexType(a, b, c), total))
    notes = []
    for mem in members:
        mem_sum = vertex_angle_sum(mem, s)
        for v, total in near:
            if abs(total - mem_sum) < 2.0 * tol:
                notes.append(
                    f"tolerance collision: {mem.label()} and {v.label()} "
                    f"sum within {abs(total - mem_sum):.2e}"
                )
    members.sort(key=lambda v: (v.degree, -v.a, -v.b))
    return AVC(tuple(members), warnings=tuple(notes))


_AVC_SOLUTIONS = (
    [prism_solution(m, prism_default_radius(m)) for m in range(3, 65)]
    + [earth_map_solution(c) for c in range(2, 65)]
    + [sporadic_solution("football"), sporadic_solution("snub-fusion")]
)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.05])
def test_avc_matches_the_triple_loop(tol):
    collisions = 0
    for s in _AVC_SOLUTIONS:
        for max_degree in (3, 8, 16):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                avc = enumerate_avc(s, tol, max_degree)
            assert avc == _avc_by_triple_loop(s, tol, max_degree), (s, max_degree)
            assert [str(w.message) for w in caught] == list(avc.warnings)
            collisions += len(avc.warnings)
    if tol == 0.05:  # near-misses are reported here, so the check covers them
        assert collisions > 0


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_avc_rejects_a_non_positive_or_non_finite_tol(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        enumerate_avc(sporadic_solution("football"), tol=tol)


def test_counting_filter_drops_unbalanced_sets():
    avc = AVC(members=[VertexType(1, 1, 2), VertexType(0, 2, 2)])
    kept = counting_filter(avc)
    assert [tuple(v) for v in kept.members] == [(0, 2, 2)]


def test_counting_filter_keeps_realizable_families():
    for s in (
        prism_solution(5, 1.2),
        sporadic_solution("football"),
        sporadic_solution("snub-fusion"),
        earth_map_solution(2),
    ):
        avc = enumerate_avc(s)
        assert counting_filter(avc).members == avc.members


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 6), st.integers(0, 6)
        ).filter(lambda t: sum(t) >= 3),
        min_size=1,
        max_size=8,
        unique=True,
    )
)
def test_counting_filter_idempotent(raw):
    avc = AVC(members=[VertexType(*t) for t in raw])
    once = counting_filter(avc)
    twice = counting_filter(once)
    assert [tuple(v) for v in twice.members] == [tuple(v) for v in once.members]


def test_requires_adjacency_pair():
    balanced = AVC(members=[VertexType(1, 1, 1)])
    assert requires_adjacency_pair(balanced)
    all_beta_heavy = AVC(members=[VertexType(0, 3, 0)])
    assert not requires_adjacency_pair(all_beta_heavy)


# -- classification -------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 65])
def test_classify_rejects_out_of_range_m(m):
    with pytest.raises(ValueError):
        classify(m)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_classify_rejects_a_non_positive_or_non_finite_tol(tol):
    # A NaN tolerance used to list every family with no AVC member at all.
    with pytest.raises(ValueError, match="finite and positive"):
        classify(5, tol=tol)


def test_classify_pentagon_families():
    report = classify(5)
    outcomes = {tuple(e.seed): e.outcome for e in report.entries}
    assert set(outcomes) == M5_SEEDS

    for seed in ((3, 0, 0), (2, 1, 0), (2, 0, 1)):
        assert isinstance(outcomes[seed], NonexistenceEvidence)

    prism_family = outcomes[(1, 1, 1)]
    assert isinstance(prism_family, FamilyOutcome)
    assert prism_family.name == "prism"
    assert prism_family.parameterized

    earth = outcomes[(0, 2, 1)]
    assert isinstance(earth, FamilyOutcome)
    assert earth.name == "earth-map"
    assert earth.parameterized

    fusion = outcomes[(1, 2, 0)]
    assert isinstance(fusion, FamilyOutcome)
    assert fusion.name == "snub-fusion"
    assert fusion.variants == 3

    ball = outcomes[(0, 3, 0)]
    assert isinstance(ball, FamilyOutcome)
    assert ball.name == "football"
    assert ball.variants == 1


def test_classify_high_m_is_prism_only():
    from spheretile.combinatorics import SubsumedNote

    for m in (6, 9, 12):
        report = classify(m)
        families = [e for e in report.entries if isinstance(e.outcome, FamilyOutcome)]
        assert [e.outcome.name for e in families] == ["prism"]
        rest = [e for e in report.entries if not isinstance(e.outcome, FamilyOutcome)]
        for e in rest:
            assert isinstance(e.outcome, (NonexistenceEvidence, SubsumedNote))


def test_seed_table_rows_are_exactly_the_enumerated_seeds():
    """Every seed has a row and every row is some gonality's seed: a missing
    row would raise KeyError at one m, and an unused row would go unseen."""
    for m in range(5, 65):
        rows = {seed for key, seed in _SEED_HANDLERS if key == min(m, 6)}
        assert rows == set(map(tuple, enumerate_degree3(m))), m


def test_classify_builds_no_complex(monkeypatch):
    """Each family row states the vertex types its family realizes, so the
    sweep keeps its report bytes with every surface check made to raise."""

    def built(*args):
        raise AssertionError("classify built a complex")

    real = complexes.validate_sphere
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "spheretile":
            for binding, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, binding, built)
    text = "".join(report_json(classify(m)) + "\n" for m in range(5, 65))
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_SWEEP_SHA256


def _realized(report, name):
    (family,) = [f for f in report.realized_families() if f.name == name]
    return set(family.avc.realized)


def test_each_family_row_states_its_generators_census():
    for m in range(5, 65):
        assert _realized(classify(m), "prism") == set(prism(m).census()), m
    report = classify(5)
    assert _realized(report, "earth-map") == set(earth_map(2).census())
    assert _realized(report, "football") == set(football().census())
    fusion = _realized(report, "snub-fusion")
    for matching in dodecahedron_matchings():
        assert set(triangular_fusion(matching).census()) == fusion, matching


def test_classify_realized_families_helper():
    report = classify(5)
    names = {f.name for f in report.realized_families()}
    assert names == {"earth-map", "prism", "snub-fusion", "football"}


def test_classify_solutions_solve_the_closure():
    from spheretile.trig import closure_residual

    report = classify(5)
    for fam in report.realized_families():
        assert fam.solutions, fam.name
        for s in fam.solutions:
            assert s.m == 5
            assert 0 < s.gamma < s.beta < math.pi
            assert abs(closure_residual(5, s.alpha, s.beta, s.gamma)) < 1e-9
