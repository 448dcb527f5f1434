"""Vertex-type arithmetic and the classification driver.

A vertex of a dihedral tiling carries a copies of alpha, b of beta and c
of gamma with a*alpha + b*beta + c*gamma = 2*pi.  This module enumerates
the degree-3 types that can occur for a given gonality, enumerates full
anglewise vertex combinations (AVCs) for a concrete angle solution, applies
the counting and adjacency filters, and drives the per-gonality
classification that attaches each degree-3 seed to a realized family, a
nonexistence certificate, or a subsumption note.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Union

from . import trig
from .trig import (
    TWO_PI,
    AngleSolution,
    NonexistenceEvidence,
    certify_no_root,
    edge_bound_proof,
    tolerance,
    vertex_label,
)
from .generators import dodecahedron_matchings, earth_map, football, prism, triangular_fusion
from .realization import earth_map_solution, prism_default_radius, prism_solution, sporadic_solution


class VertexType(NamedTuple):
    """Corner multiplicities (a, b, c) of one vertex."""

    a: int
    b: int
    c: int

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c

    def label(self) -> str:
        return vertex_label(self)


def vertex_angle_sum(v: VertexType, s: AngleSolution) -> float:
    """Total angle a*alpha + b*beta + c*gamma at a vertex of type v."""
    return v[0] * s.alpha + v[1] * s.beta + v[2] * s.gamma


@dataclass(frozen=True)
class AVC:
    """Anglewise vertex combination: admissible types, with realized flags.

    ``members`` holds every type whose angle sum hits 2*pi within the
    enumeration tolerance; ``realized`` marks the subset actually observed
    in a tiling's census (the distinction between listing a type and
    using it).  Warnings record tolerance collisions between members and
    near-miss candidates.
    """

    members: tuple[VertexType, ...]
    realized: frozenset = frozenset()
    warnings: tuple[str, ...] = ()

    def with_realized(self, census_keys) -> "AVC":
        realized = frozenset(VertexType(*k) for k in census_keys)
        return AVC(self.members, realized, self.warnings)


def _candidate_degree3() -> list[VertexType]:
    return [
        VertexType(a, b, 3 - a - b)
        for a in range(3, -1, -1)
        for b in range(3 - a, -1, -1)
    ]


def _feasible_in_box(m: int, v: VertexType) -> bool:
    """Whether a*alpha + b*beta + c*gamma = 2*pi meets the box, by :func:`trig._feasible`."""
    return trig._feasible(m, [tuple(v)])


def enumerate_degree3(m: int) -> list[VertexType]:
    """Degree-3 vertex types admissible at gonality m.

    Filters all (a, b, c) with a+b+c = 3 through exact linear feasibility
    over the admissibility box (:func:`_feasible_in_box`).  For m >= 6 the
    types without any gamma are also skipped, on an unproved assumption that
    they cannot appear in a tiling: the linear system admits alpha.beta^2 and
    beta^3, and closure roots lie behind both at every m tried.  A checked
    deduction in place of the skip is ROADMAP item 2.
    """
    if m < 5:
        raise ValueError(f"classification scope starts at m = 5, got {m}")
    out = []
    for v in _candidate_degree3():
        if m >= 6 and v.c == 0:
            continue
        if _feasible_in_box(m, v):
            out.append(v)
    return out


def enumerate_avc(
    s: AngleSolution, tol: float = 1e-6, max_degree: int = 16
) -> AVC:
    """All vertex types whose angle sum is 2*pi within tol, up to max_degree.

    Emits a warning (collected in the result) when a member's sum lies
    within 2*tol of a different candidate's sum, since the two types are
    then numerically indistinguishable at this tolerance.
    """
    if max_degree < 3:
        raise ValueError("max_degree must be at least 3")
    angles = (s.alpha, s.beta, s.gamma)
    limits = [int(TWO_PI // ang) + 1 for ang in angles]
    members: list[VertexType] = []
    near: list[tuple[VertexType, float]] = []
    for a in range(min(limits[0], max_degree) + 1):
        for b in range(min(limits[1], max_degree - a) + 1):
            for c in range(min(limits[2], max_degree - a - b) + 1):
                if a + b + c < 3:
                    continue
                total = a * angles[0] + b * angles[1] + c * angles[2]
                v = VertexType(a, b, c)
                if abs(total - TWO_PI) < tol:
                    members.append(v)
                elif abs(total - TWO_PI) < 4.0 * tol:
                    near.append((v, total))
    notes = []
    for mem in members:
        mem_sum = vertex_angle_sum(mem, s)
        for v, total in near:
            if abs(total - mem_sum) < 2.0 * tol:
                msg = (
                    f"tolerance collision: {mem.label()} and {v.label()} "
                    f"sum within {abs(total - mem_sum):.2e}"
                )
                notes.append(msg)
                warnings.warn(msg)
    members.sort(key=lambda v: (v.degree, -v.a, -v.b))
    return AVC(tuple(members), warnings=tuple(notes))


def counting_filter(avc: AVC) -> AVC:
    """Drop members that break the global beta/gamma balance.

    Every rhombus contributes two betas and two gammas, so the corner
    totals are equal.  When every member has b <= c, any type with b < c
    can never appear (the deficit could not be repaid); symmetrically for
    b >= c.  Mixed AVCs pass through unchanged.
    """
    members = avc.members
    if all(v.b <= v.c for v in members):
        kept = tuple(v for v in members if v.b == v.c)
    elif all(v.b >= v.c for v in members):
        kept = tuple(v for v in members if v.b == v.c)
    else:
        return avc
    return AVC(kept, avc.realized & {tuple(v) for v in kept}, avc.warnings)


def requires_adjacency_pair(avc: AVC) -> bool:
    """Necessary condition: some member pairs alpha with beta, and some
    member pairs alpha with gamma (both corners of the rhombus must meet
    the polygon somewhere)."""
    has_ab = any(v.a >= 1 and v.b >= 1 for v in avc.members)
    has_ag = any(v.a >= 1 and v.c >= 1 for v in avc.members)
    return has_ab and has_ag


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class FamilyOutcome:
    """A realized tiling family attached to a degree-3 seed."""

    name: str
    generator: str
    avc: AVC
    solutions: tuple[AngleSolution, ...]
    parameterized: bool = False
    variants: int = 1
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SubsumedNote:
    """The seed's analysis is covered by another seed's entry."""

    subsumed_by: VertexType
    reason: str


Outcome = Union[FamilyOutcome, NonexistenceEvidence, SubsumedNote]


@dataclass(frozen=True)
class ClassificationEntry:
    seed: VertexType
    outcome: Outcome
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassificationReport:
    m: int
    entries: tuple[ClassificationEntry, ...]

    def realized_families(self) -> list[FamilyOutcome]:
        return [
            e.outcome for e in self.entries if isinstance(e.outcome, FamilyOutcome)
        ]


def classify(m: int, tol: float = 1e-6) -> ClassificationReport:
    """Resolve every degree-3 seed at gonality m into a family, a
    nonexistence certificate, or a subsumption note.

    For m = 5 this reproduces the full classification: the earth-map
    family from beta^2 gamma, the prism family from alpha beta gamma, the
    three triangular fusions from alpha beta^2, the football from beta^3,
    and nonexistence for alpha^3, alpha^2 gamma and alpha^2 beta.  For
    m >= 6 only the prism family survives.  ``tol`` is the vertex-type
    enumeration tolerance used when listing each family's admissible
    types; it must be finite and positive (ValueError otherwise).
    """
    if not (5 <= m <= 64):
        raise ValueError(f"classification expects 5 <= m <= 64, got {m}")
    tol = tolerance(tol)
    entries = []
    for seed in enumerate_degree3(m):
        handler = _SEED_HANDLERS[(min(m, 6), tuple(seed))]
        entries.append(handler(m, seed, tol))
    return ClassificationReport(m, tuple(entries))


def _census_keys(t) -> list[tuple[int, int, int]]:
    return sorted(t.census().keys())


def _entry_alpha3(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    # alpha^3 forces its companion type beta^2.gamma (the rhombus corners must meet
    # somewhere, and the angle bounds leave only that pairing): the lemma rules it out.
    evidence = edge_bound_proof(
        m,
        [(3, 0, 0), (0, 2, 1)],
        description=(
            "alpha^3 fixes alpha = 2*pi/3 and forces the companion type "
            "beta^2.gamma; the closure residual of the joint system is "
            "positive for every gamma"
        ),
    )
    return ClassificationEntry(seed, evidence)


def _entry_alpha2gamma_m5(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    # alpha^2 gamma pins gamma = 2*pi - 2*alpha; every beta then violates
    # beta > alpha (needed since beta is the largest angle here) against
    # beta <= 2*pi - alpha - gamma (vertex room), an empty range.
    evidence = certify_no_root(
        m,
        [(2, 0, 1)],
        interval=(3.0 * math.pi / 5.0, math.pi),
        free_angle="alpha",
        require_beta_above_alpha=True,
        description=(
            "alpha^2.gamma fixes gamma = 2*pi - 2*alpha; the remaining "
            "admissible range for beta is empty at every sample"
        ),
    )
    return ClassificationEntry(
        seed,
        evidence,
        notes=(
            "beta must exceed alpha here: beta <= alpha forces the total "
            "angle at an alpha^2.gamma vertex past 2*pi",
        ),
    )


def _entry_beta3(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    s = sporadic_solution("football")
    avc = enumerate_avc(s, tol=tol)
    avc = avc.with_realized(_census_keys(football()))
    outcome = FamilyOutcome(
        name="football",
        generator="football()",
        avc=avc,
        solutions=(s,),
        notes=(
            "beta = 2*pi/3 exactly; the remaining corners split into "
            "alpha.beta.gamma^2 vertices",
        ),
    )
    return ClassificationEntry(seed, outcome)


def _entry_alpha2beta(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    evidence = edge_bound_proof(
        m,
        [(2, 1, 0), (0, 2, 1)],
        description=(
            "alpha^2.beta paired with its forced companion beta^2.gamma "
            "has a positive closure residual across the admissible alphas"
        ),
    )
    notes = (
        "the pairings with alpha^2.gamma^2 and alpha.beta.gamma^2 do admit "
        "closure roots, but every attempt to lay tiles around an "
        "alpha^2.beta vertex with those angles jams on adjacent corners; "
        "the beta^2.gamma pairing shown here is the one ruled out by the "
        "edge-bound lemma",
    )
    return ClassificationEntry(seed, evidence, notes=notes)


def _entry_alphabeta2(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    s = sporadic_solution("snub-fusion")
    avc = enumerate_avc(s, tol=tol)
    first_matching = dodecahedron_matchings()[0]
    sample = triangular_fusion(first_matching)
    avc = avc.with_realized(_census_keys(sample))
    side_notes = (
        "beta = 2*gamma at this solution",
        "the alternate pairing with alpha^2.gamma^2 also has a closure "
        "root (alpha ~ 0.636*pi) but admits no tiling: laying rhombi "
        "around its vertices forces a corner conflict",
        "pairings with alpha.gamma^3, alpha.gamma^5 and alpha^2.gamma^3 "
        "have no root; see the nonexistence evidence set",
    )
    outcome = FamilyOutcome(
        name="snub-fusion",
        generator="snub_fusion(1|2|3)",
        avc=avc,
        solutions=(s,),
        variants=3,
        notes=side_notes,
    )
    return ClassificationEntry(seed, outcome)


def _entry_beta2gamma_m5(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    s2 = earth_map_solution(2)
    avc = enumerate_avc(s2, tol=tol)
    avc = avc.with_realized(_census_keys(earth_map(2)))
    outcome = FamilyOutcome(
        name="earth-map",
        generator="earth_map(c), c >= 2",
        avc=avc,
        solutions=(s2,),
        parameterized=True,
        notes=(
            "one tiling per integer c >= 2 with vertex types beta^2.gamma "
            "and alpha.beta.gamma^c",
            "face count is 10c-3 (2 pentagons, 5 blocks of 2c-1 rhombi); "
            "the stated count 8c-2 fails the corner-balance check",
        ),
    )
    return ClassificationEntry(seed, outcome)


def _entry_alphabetagamma(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    s = prism_solution(m, prism_default_radius(m))
    avc = enumerate_avc(s, tol=tol)
    avc = avc.with_realized(_census_keys(prism(m)))
    outcome = FamilyOutcome(
        name="prism",
        generator=f"prism({m})",
        avc=avc,
        solutions=(s,),
        parameterized=True,
        notes=(
            "a one-parameter family: any polar radius r with "
            f"cot(r) < sin(pi/{m}) realizes the same combinatorial tiling",
        ),
    )
    return ClassificationEntry(seed, outcome)


def _entry_alpha2gamma_m6(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    return ClassificationEntry(
        seed,
        SubsumedNote(
            subsumed_by=VertexType(0, 2, 1),
            reason=(
                "at this gonality an alpha^2.gamma vertex forces alpha = "
                "beta, so its analysis collapses into the beta^2.gamma case"
            ),
        ),
    )


def _entry_beta2gamma_m6(m: int, seed: VertexType, tol: float) -> ClassificationEntry:
    evidence = edge_bound_proof(
        m,
        [(0, 2, 1)],
        description=(
            "beta^2.gamma fixes beta = pi - gamma/2; the rhombus edge "
            "cosine then stays below cos(2*pi/m), the floor of the m-gon "
            "edge cosine, for every admissible gamma"
        ),
    )
    return ClassificationEntry(seed, evidence)


_SEED_HANDLERS = {
    (5, (3, 0, 0)): _entry_alpha3,
    (5, (2, 0, 1)): _entry_alpha2gamma_m5,
    (5, (0, 3, 0)): _entry_beta3,
    (5, (2, 1, 0)): _entry_alpha2beta,
    (5, (1, 2, 0)): _entry_alphabeta2,
    (5, (0, 2, 1)): _entry_beta2gamma_m5,
    (5, (1, 1, 1)): _entry_alphabetagamma,
    (6, (2, 0, 1)): _entry_alpha2gamma_m6,
    (6, (0, 2, 1)): _entry_beta2gamma_m6,
    (6, (1, 1, 1)): _entry_alphabetagamma,
}
