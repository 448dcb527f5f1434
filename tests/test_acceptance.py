"""Acceptance gate: one pass/fail line per criterion, budgets as stated.

Run under pytest, or standalone:

    python3 tests/test_acceptance.py
"""

import functools
import json
import math
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # Standalone runs import the package from this checkout's src/, installed or not.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from spheretile.combinatorics import (
    AVC,
    FamilyOutcome,
    NonexistenceEvidence,
    VertexType,
    classify,
    counting_filter,
)
from spheretile.complexes import TilingComplex, build_from_faces, canonical_code, isomorphic, verify_combinatorial
from spheretile.generators import (
    dodecahedron,
    dodecahedron_matchings,
    earth_map,
    football,
    fusion_classification,
    prism,
    snub_fusion,
)
from spheretile.realization import (
    earth_map_gamma,
    earth_map_solution,
    embed_earth_map,
    embed_generic,
    embed_prism,
    prism_default_radius,
    prism_geometric_bounds,
    prism_solution,
    sporadic_solution,
    verify_geometric,
)
from spheretile.serialization import parse_tiling, serialize_tiling
from spheretile.trig import certify_no_root, solve_closure

PI = math.pi
_CRITERIA = []


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"CRITERION {n}: FAIL  {label}")
                raise
            print(f"CRITERION {n}: PASS  {label}")

        _CRITERIA.append(run)
        return run

    return wrap


# -- 1: sporadic angle reproduction ---------------------------------------------------


@criterion(1, "sporadic angle triples within 5e-5*pi, under 1 s")
def test_criterion_1_sporadic_angles():
    start = time.perf_counter()
    cases = [
        (((0, 3, 0), (1, 1, 2)), (0.61881, 2.0 / 3.0, 0.35726), 0.12943),
        (((1, 2, 0), (1, 1, 2)), (0.62526, 0.68737, 0.34369), 0.14901),
        (((1, 2, 0), (2, 0, 2)), (0.63636, 0.68182, 0.36364), None),
    ]
    for constraints, expected, expected_x in cases:
        roots = solve_closure(5, list(constraints))
        assert len(roots) == 1, (constraints, roots)
        s = roots[0]
        for got, want in zip((s.alpha, s.beta, s.gamma), expected):
            assert abs(got - want * PI) < 5e-5 * PI, (constraints, got / PI, want)
        if expected_x is not None:
            assert abs(s.x - expected_x * PI) < 5e-5 * PI
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


# -- 2: classification parity ---------------------------------------------------------


@criterion(2, "classify(5) family set and 6..12 prism-only, under 10 s")
def test_criterion_2_classification():
    start = time.perf_counter()
    report = classify(5)
    outcomes = {tuple(e.seed): e.outcome for e in report.entries}

    for seed in ((3, 0, 0), (2, 1, 0), (2, 0, 1)):
        assert isinstance(outcomes[seed], NonexistenceEvidence), seed

    families = {
        o.name: o for o in outcomes.values() if isinstance(o, FamilyOutcome)
    }
    assert set(families) == {"earth-map", "prism", "snub-fusion", "football"}

    def realized(name):
        return {tuple(v) for v in families[name].avc.realized}

    assert realized("earth-map") == {(0, 2, 1), (1, 1, 2)}
    assert families["earth-map"].parameterized
    assert realized("prism") == {(1, 1, 1)}
    assert families["prism"].parameterized
    assert realized("snub-fusion") == {(1, 2, 0), (1, 1, 2)}
    assert families["snub-fusion"].variants == 3
    assert realized("football") == {(0, 3, 0), (1, 1, 2)}
    assert families["football"].variants == 1

    for m in range(6, 13):
        high = classify(m)
        names = [
            e.outcome.name
            for e in high.entries
            if isinstance(e.outcome, FamilyOutcome)
        ]
        assert names == ["prism"], (m, names)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f} s"


# -- 3: generator verification --------------------------------------------------------


@criterion(3, "generators build, verify at 1e-9, and balance #beta = #gamma")
def test_criterion_3_generators():
    cases = []
    for m in range(3, 21):
        cases.append((prism(m), prism_solution(m, prism_default_radius(m)), m + 2))
    for c in range(2, 11):
        cases.append((earth_map(c), earth_map_solution(c), 10 * c - 3))
    for variant in (1, 2, 3):
        cases.append((snub_fusion(variant), sporadic_solution("snub-fusion"), 52))
    cases.append((football(), sporadic_solution("football"), 72))

    for t, s, face_count in cases:
        report = verify_combinatorial(t, s, tol=1e-9)
        assert report.ok, report.failures
        n_alpha, n_beta, n_gamma = report.corner_counts
        assert n_beta == n_gamma
        assert t.face_count == face_count

    # Earth-map face count re-derived from corner incidences alone.
    for c in range(2, 11):
        t = earth_map(c)
        n_alpha, n_beta, _ = t.corner_counts()
        assert n_alpha / 5 == 2
        assert t.face_count == n_alpha / 5 + n_beta / 2 == 10 * c - 3

    notes = ()
    for e in classify(5).entries:
        if isinstance(e.outcome, FamilyOutcome) and e.outcome.name == "earth-map":
            notes = e.outcome.notes
    discrepancy = [n for n in notes if "8c-2" in n]
    assert discrepancy, notes
    print(f"  earth-map note: {discrepancy[0]}")


# -- 4: geometric realization ---------------------------------------------------------


@criterion(4, "embeddings close under 1e-7 with tight edges and full area, under 30 s")
def test_criterion_4_embeddings():
    start = time.perf_counter()
    jobs = []

    lo, hi = prism_geometric_bounds(5)
    for r in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5):
        t, e = embed_prism(5, float(r))
        jobs.append((t, e, prism_solution(5, float(r))))
    for c in range(2, 7):
        t, e = embed_earth_map(c)
        jobs.append((t, e, earth_map_solution(c)))
    snub_angles = sporadic_solution("snub-fusion")
    for variant in (1, 2, 3):
        t = snub_fusion(variant)
        jobs.append((t, embed_generic(t, snub_angles), snub_angles))
    tf = football()
    ball_angles = sporadic_solution("football")
    jobs.append((tf, embed_generic(tf, ball_angles), ball_angles))

    for t, e, s in jobs:
        assert e.worst_defect < 1e-7
        report = verify_geometric(t, e, s)
        assert report.ok, report.failures
        assert report.edge_spread < 1e-8
        assert report.area_defect < 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f} s"


# -- 5: earth-map parameter solve -----------------------------------------------------


def _block_length(gamma):
    alpha = 2.0 * math.asin(
        2.0 * math.cos(PI / 5.0) / math.sqrt(3.0 - math.tan(gamma / 4.0) ** 2)
    )
    return (PI - alpha) / gamma + 0.5


@criterion(5, "earth-map gamma solves c(gamma)=c to 1e-10 for c in 2..64")
def test_criterion_5_earth_map_gamma():
    previous = math.inf
    for c in range(2, 65):
        g = earth_map_gamma(c)
        assert abs(_block_length(g) - c) < 1e-10, c
        assert g < previous, c
        previous = g
        assert earth_map_solution(c).alpha > 3.0 * PI / 5.0, c


# -- 6: fusion classification ---------------------------------------------------------


def _matching_count_oracle():
    dod = dodecahedron()
    vertices = range(len(dod.vertex_names))
    index = {v: i for i, v in enumerate(vertices)}
    neighbours = [[] for _ in vertices]
    for (a, b) in sorted({(u, w) for f in dod.cycles for u, w in zip(f, f[1:] + f[:1]) if u < w}):
        neighbours[index[a]].append(index[b])
        neighbours[index[b]].append(index[a])
    full = (1 << len(vertices)) - 1

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(covered):
        if covered == full:
            return 1
        low = (~covered & -~covered).bit_length() - 1
        total = 0
        for w in neighbours[low]:
            if not covered & (1 << w):
                total += count(covered | (1 << low) | (1 << w))
        return total

    return count(0)


@criterion(6, "36 matchings fuse into exactly 3 non-isomorphic classes, under 60 s")
def test_criterion_6_fusions():
    start = time.perf_counter()
    matchings = dodecahedron_matchings()
    assert len(matchings) == _matching_count_oracle()
    info = fusion_classification()
    classes = info["classes"]
    assert len(classes) == 3
    reps = [cls["representative"] for cls in classes]
    assert not isomorphic(reps[0], reps[1])
    assert not isomorphic(reps[0], reps[2])
    assert not isomorphic(reps[1], reps[2])
    assert sum(len(cls["members"]) for cls in classes) == len(matchings)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f} s"


# -- 7: nonexistence evidence ---------------------------------------------------------

_EVIDENCE_SYSTEMS = [
    (5, [(3, 0, 0), (0, 2, 1)], (1e-6, PI - 1e-6), "gamma", "constant-positive"),
    (5, [(2, 1, 0), (0, 2, 1)], (3 * PI / 5, 2 * PI / 3), "alpha", "constant-positive"),
    (5, [(1, 2, 0), (1, 0, 3)], (3 * PI / 5, 2 * PI / 3), "alpha", "constant-positive"),
    (5, [(1, 2, 0), (1, 0, 5)], (3 * PI / 5, 2 * PI / 3), "alpha", "all-violate"),
    (5, [(1, 2, 0), (2, 0, 3)], (3 * PI / 5, 2 * PI / 3), "alpha", "all-violate"),
    (6, [(0, 2, 1)], (1e-6, PI - 1e-6), "gamma", "all-violate"),
]


@criterion(7, "six nonexistence evidences, each bit-for-bit reproducible")
def test_criterion_7_evidence():
    for m, constraints, interval, free, expected_summary in _EVIDENCE_SYSTEMS:
        first = certify_no_root(m, constraints, interval, free_angle=free)
        second = certify_no_root(m, constraints, interval, free_angle=free)
        assert first.sign_summary == expected_summary, (constraints, first.sign_summary)
        assert first.to_json() == second.to_json(), constraints
        assert json.loads(first.to_json())["sign_summary"] == expected_summary


# -- 8: property suite ----------------------------------------------------------------


def _permuted_copy(t: TilingComplex, rng: random.Random) -> TilingComplex:
    perm = list(range(t.vertex_count))
    rng.shuffle(perm)
    specs = []
    for kind, verts, labels in t.face_specs():
        k = len(verts)
        shift = rng.randrange(k)
        verts = [perm[verts[(i + shift) % k]] for i in range(k)]
        labels = [labels[(i + shift) % k] for i in range(k)]
        specs.append((kind, verts, labels))
    rng.shuffle(specs)
    return build_from_faces(specs)


@criterion(8, "round trips, 100 permutations per tiling, 1000 random AVCs")
def test_criterion_8_properties():
    everything = (
        [prism(m) for m in range(3, 21)]
        + [earth_map(c) for c in range(2, 11)]
        + [snub_fusion(v) for v in (1, 2, 3)]
        + [football()]
    )
    for t in everything:
        rebuilt = parse_tiling(serialize_tiling(t)).build()
        assert isomorphic(t, rebuilt)

    rng = random.Random(20260816)
    for t in (prism(5), earth_map(2), earth_map(3), snub_fusion(1), football()):
        code = canonical_code(t)
        for _ in range(100):
            assert canonical_code(_permuted_copy(t, rng)) == code

    for _ in range(1000):
        members = set()
        for _ in range(rng.randrange(1, 9)):
            a = rng.randrange(0, 4)
            b = rng.randrange(0, 7)
            c = rng.randrange(0, 7)
            if a + b + c >= 3:
                members.add(VertexType(a, b, c))
        if not members:
            continue
        avc = AVC(members=sorted(members))
        once = counting_filter(avc)
        twice = counting_filter(once)
        assert [tuple(v) for v in twice.members] == [tuple(v) for v in once.members]


if __name__ == "__main__":
    failures = 0
    for run in _CRITERIA:
        try:
            run()
        except BaseException as exc:
            failures += 1
            print(f"  {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
