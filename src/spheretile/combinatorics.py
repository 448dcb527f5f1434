"""Vertex-type arithmetic and the classification driver.

A vertex of a dihedral tiling carries a copies of alpha, b of beta and c
of gamma with a*alpha + b*beta + c*gamma = 2*pi.  This module enumerates
the degree-3 types that can occur for a given gonality, enumerates full
anglewise vertex combinations (AVCs) for a concrete angle solution, and
drives the per-gonality classification that attaches each degree-3 seed to
a realized family, a nonexistence certificate, or a subsumption note.  No
tiling is built here: a family row states the vertex types its family
realizes.  The counting and adjacency filters (:func:`counting_filter`,
:func:`requires_adjacency_pair`) are necessary conditions that
:func:`classify` does not apply: acceptance criterion 8 checks that the
counting filter is idempotent, and ROADMAP item 2's companion scan is to
call both.

The classification is a finite case split, written as one table:
``_SEED_HANDLERS`` maps ``(min(m, 6), seed)`` to the case that resolves
it.  Each row hands one of two builders only what differs between cases:
:func:`_family` for a realized family and the vertex types it realizes,
:func:`_edge_bound` for a dead end that the edge-bound lemma rules out.  A
new kind of outcome is one more row.  Each outcome renders itself, by its
``kind`` and ``report_fields(c_max)``, into a report entry
(:meth:`ClassificationEntry.payload`); a row hands its outcome what the
report needs, as the earth map's hands ``earth_map_solution``.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Optional, Union

from . import trig
from .trig import (
    TWO_PI,
    AngleSolution,
    VertexTriple,
    NonexistenceEvidence,
    certify_no_root,
    edge_bound_proof,
    tolerance,
    vertex_label,
)
from .realization import earth_map_solution, prism_default_radius, prism_solution, sporadic_solution
from .serialization import angles_payload


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


class AVC(NamedTuple):
    """Anglewise vertex combination: admissible types, with realized flags.

    ``members`` holds every type whose angle sum hits 2*pi within the
    enumeration tolerance; ``realized`` marks the subset that a tiling of
    the family actually uses, as its classification row states (the
    distinction between listing a type and using it).  Warnings record
    tolerance collisions between members and near-miss candidates.
    """

    members: tuple[VertexType, ...]
    realized: frozenset = frozenset()
    warnings: tuple[str, ...] = ()


def _candidate_degree3() -> list[VertexType]:
    return [
        VertexType(a, b, 3 - a - b)
        for a in range(3, -1, -1)
        for b in range(3 - a, -1, -1)
    ]


def enumerate_degree3(m: int) -> list[VertexType]:
    """Degree-3 vertex types admissible at gonality m.

    Filters all (a, b, c) with a+b+c = 3 through exact linear feasibility
    over the admissibility box (:func:`trig._feasible`).  For m >= 6 the
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
        if trig._feasible(m, [tuple(v)]):
            out.append(v)
    return out


def enumerate_avc(
    s: AngleSolution, tol: float = 1e-6, max_degree: int = 16
) -> AVC:
    """All vertex types whose angle sum is 2*pi within tol, up to max_degree;
    tol must be finite and positive (ValueError otherwise).

    Emits a warning (collected in the result) when a member's sum lies
    within 2*tol of a different candidate's sum, since the two types are
    then numerically indistinguishable at this tolerance."""
    if max_degree < 3:
        raise ValueError("max_degree must be at least 3")
    tol = tolerance(tol)
    angles = (s.alpha, s.beta, s.gamma)
    limits = [int(TWO_PI // ang) + 1 for ang in angles]
    members: list[VertexType] = []
    near: list[tuple[VertexType, float]] = []
    for a in range(min(limits[0], max_degree) + 1):
        for b in range(min(limits[1], max_degree - a) + 1):
            ab = a * angles[0] + b * angles[1]
            # ab + c*gamma rises with c: try the c within a step of 2*pi -+ 4*tol.
            c_lo = int((TWO_PI - 4.0 * tol - ab) // angles[2])
            c_hi = int((TWO_PI + 4.0 * tol - ab) // angles[2]) + 1
            for c in range(max(3 - a - b, 0, c_lo), min(limits[2], max_degree - a - b, c_hi) + 1):
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
    if not (all(v.b <= v.c for v in members) or all(v.b >= v.c for v in members)):
        return avc
    kept = tuple(v for v in members if v.b == v.c)
    return AVC(kept, avc.realized & {tuple(v) for v in kept}, avc.warnings)


def requires_adjacency_pair(avc: AVC) -> bool:
    """Necessary condition: some member pairs alpha with beta, and some
    member pairs alpha with gamma (both corners of the rhombus must meet
    the polygon somewhere)."""
    has_ab = any(v.a >= 1 and v.b >= 1 for v in avc.members)
    has_ag = any(v.a >= 1 and v.c >= 1 for v in avc.members)
    return has_ab and has_ag


# -- classification -------------------------------------------------------------


class FamilyOutcome(NamedTuple):
    """A realized tiling family attached to a degree-3 seed.  For a family with
    one member per block count c >= 2, ``member_solution(c)`` gives member c's
    angles, and a report lists members 2..c_max in place of ``solutions``."""

    name: str
    generator: str
    avc: AVC
    solutions: tuple[AngleSolution, ...]
    parameterized: bool = False
    variants: int = 1
    notes: tuple[str, ...] = ()
    member_solution: Optional[Callable[[int], AngleSolution]] = None

    kind = "family"

    def report_fields(self, c_max: int) -> dict:
        solutions = self.solutions
        if self.member_solution is not None:
            solutions = [self.member_solution(c) for c in range(2, c_max + 1)]
        family = {
            "name": self.name,
            "generator": self.generator,
            "parameterized": self.parameterized,
            "variants": self.variants,
            "avc": {
                "members": [list(v) for v in self.avc.members],
                "realized": sorted(list(v) for v in self.avc.realized),
                "warnings": list(self.avc.warnings),
            },
            "solutions": [angles_payload(s) for s in solutions],
            "notes": list(self.notes),
        }
        return {"family": family}


class SubsumedNote(NamedTuple):
    """The seed's analysis is covered by another seed's entry."""

    subsumed_by: VertexType
    reason: str

    kind = "subsumed"

    def report_fields(self, c_max: int) -> dict:
        return {"subsumed_by": list(self.subsumed_by), "reason": self.reason}


# Each outcome has a ``kind`` and ``report_fields(c_max)``, the keys after it.
Outcome = Union[FamilyOutcome, NonexistenceEvidence, SubsumedNote]


class ClassificationEntry(NamedTuple):
    seed: VertexType
    outcome: Outcome
    notes: tuple[str, ...] = ()

    def payload(self, c_max: int) -> dict:
        """The entry as a report dict: seed, label, the outcome's kind and
        fields, then the entry's notes if any."""
        item = {"seed": list(self.seed), "seed_label": vertex_label(self.seed),
                "kind": self.outcome.kind, **self.outcome.report_fields(c_max)}
        if self.notes:
            item["notes"] = list(self.notes)
        return item


class ClassificationReport(NamedTuple):
    m: int
    entries: tuple[ClassificationEntry, ...]

    def realized_families(self) -> list[FamilyOutcome]:
        return [e.outcome for e in self.entries if e.outcome.kind == "family"]


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
    entries = tuple(
        _SEED_HANDLERS[(min(m, 6), tuple(seed))](m, seed, tol) for seed in enumerate_degree3(m)
    )
    return ClassificationReport(m, entries)


def _family(
    seed: VertexType, s: AngleSolution, realized: list[VertexTriple], tol: float, name: str,
    generator: str, notes: tuple[str, ...], parameterized: bool = False, variants: int = 1,
    member_solution: Optional[Callable[[int], AngleSolution]] = None,
) -> ClassificationEntry:
    """A realized family: the AVC of solution s, with the vertex types that the
    family's tilings use marked realized (the keys of their ``census()``)."""
    avc = enumerate_avc(s, tol=tol)._replace(realized=frozenset(map(VertexType._make, realized)))
    outcome = FamilyOutcome(name, generator, avc, (s,), parameterized, variants, notes,
                            member_solution)
    return ClassificationEntry(seed, outcome)


def _edge_bound(
    seed: VertexType, m: int, constraints: list[VertexTriple], description: str, notes=()
) -> ClassificationEntry:
    """A dead end that the edge-bound lemma rules out for these vertex types."""
    return ClassificationEntry(seed, edge_bound_proof(m, constraints, description), notes)


# The case split: (min(m, 6), seed) -> callable (m, seed, tol) -> ClassificationEntry.
_SEED_HANDLERS = {
    # alpha^3 forces its companion type beta^2.gamma (the rhombus corners must meet
    # somewhere, and the angle bounds leave only that pairing): the lemma rules it out.
    (5, (3, 0, 0)): lambda m, seed, tol: _edge_bound(
        seed, m, [(3, 0, 0), (0, 2, 1)],
        "alpha^3 fixes alpha = 2*pi/3 and forces the companion type "
        "beta^2.gamma; the closure residual of the joint system is "
        "positive for every gamma",
    ),
    # alpha^2 gamma pins gamma = 2*pi - 2*alpha; the sampled range takes beta >
    # alpha, against beta <= 2*pi - alpha - gamma (vertex room), an empty range.
    # No proof: the root with alpha.beta^2 has beta < alpha (ROADMAP item 3a).
    (5, (2, 0, 1)): lambda m, seed, tol: ClassificationEntry(
        seed,
        certify_no_root(
            m, [(2, 0, 1)], interval=(3.0 * math.pi / 5.0, math.pi), free_angle="alpha",
            description="alpha^2.gamma fixes gamma = 2*pi - 2*alpha; the remaining "
            "admissible range for beta is empty at every sample",
        ),
        notes=(
            "the samples take beta > alpha, but paired with alpha.beta^2 the closure "
            "solver returns a root with beta ~ 0.635*pi below alpha ~ 0.731*pi; "
            "this case awaits its proof (ROADMAP item 3a)",
        ),
    ),
    (5, (0, 3, 0)): lambda m, seed, tol: _family(
        seed, sporadic_solution("football"), [(0, 3, 0), (1, 1, 2)], tol, "football", "football()",
        (
            "beta = 2*pi/3 exactly; the remaining corners split into "
            "alpha.beta.gamma^2 vertices",
        ),
    ),
    (5, (2, 1, 0)): lambda m, seed, tol: _edge_bound(
        seed, m, [(2, 1, 0), (0, 2, 1)],
        "alpha^2.beta paired with its forced companion beta^2.gamma "
        "has a positive closure residual across the admissible alphas",
        (
            "the pairings with alpha^2.gamma^2 and alpha.beta.gamma^2 do admit "
            "closure roots, but every attempt to lay tiles around an "
            "alpha^2.beta vertex with those angles jams on adjacent corners; "
            "the beta^2.gamma pairing shown here is the one ruled out by the "
            "edge-bound lemma",
        ),
    ),
    (5, (1, 2, 0)): lambda m, seed, tol: _family(
        seed, sporadic_solution("snub-fusion"), [(1, 2, 0), (1, 1, 2)], tol, "snub-fusion",
        "snub_fusion(1|2|3)",
        (
            "beta = 2*gamma at this solution",
            "the alternate pairing with alpha^2.gamma^2 also has a closure "
            "root (alpha ~ 0.636*pi) but admits no tiling: laying rhombi "
            "around its vertices forces a corner conflict",
            "paired with alpha.gamma^3 the closure solver returns a root "
            "(alpha ~ 0.678*pi); paired with alpha.gamma^5 or alpha^2.gamma^3 "
            "it returns none",
        ),
        variants=3,
    ),
    (5, (0, 2, 1)): lambda m, seed, tol: _family(
        seed, earth_map_solution(2), [(0, 2, 1), (1, 1, 2)], tol, "earth-map",
        "earth_map(c), c >= 2",
        (
            "one tiling per integer c >= 2 with vertex types beta^2.gamma "
            "and alpha.beta.gamma^c",
            "face count is 10c-3 (2 pentagons, 5 blocks of 2c-1 rhombi); "
            "the stated count 8c-2 fails the corner-balance check",
        ),
        parameterized=True, member_solution=earth_map_solution,
    ),
    **dict.fromkeys(
        [(5, (1, 1, 1)), (6, (1, 1, 1))],
        lambda m, seed, tol: _family(
            seed, prism_solution(m, prism_default_radius(m)), [(1, 1, 1)], tol,
            "prism", f"prism({m})",
            (
                "a one-parameter family: any polar radius r with "
                f"cot(r) < sin(pi/{m}) realizes the same combinatorial tiling",
            ),
            parameterized=True,
        ),
    ),
    (6, (2, 0, 1)): lambda m, seed, tol: ClassificationEntry(
        seed,
        SubsumedNote(
            subsumed_by=VertexType(0, 2, 1),
            reason="at this gonality an alpha^2.gamma vertex forces alpha = "
            "beta, so its analysis collapses into the beta^2.gamma case",
        ),
    ),
    (6, (0, 2, 1)): lambda m, seed, tol: _edge_bound(
        seed, m, [(0, 2, 1)],
        "beta^2.gamma fixes beta = pi - gamma/2; the rhombus edge "
        "cosine then stays below cos(2*pi/m), the floor of the m-gon "
        "edge cosine, for every admissible gamma",
    ),
}
