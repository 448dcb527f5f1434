"""Spherical-trigonometric core: edge-length identities and the closure equation.

A tiling of the unit sphere by one regular m-gon (interior angle ``alpha``)
and one rhombus (angles ``beta``, ``gamma``, alternating) is only possible
when both prototiles have the same edge length x.  The two identities

    cos x = cot(beta/2) * cot(gamma/2)                      (rhombus)
    cos x = cot^2(alpha/2) + cos(2*pi/m) / sin^2(alpha/2)   (m-gon)

combine into a single closure equation linking alpha, beta, gamma and m.
This module evaluates the identities, solves the closure equation under
linear vertex constraints by a bracketed scan and bisection, and records
nonexistence for constraint systems with no admissible root: as an exact
edge-bound proof for every system implying beta^2.gamma, as a dense-grid sample
otherwise.  ``NonexistenceEvidence.payload`` gives a record as a dict, which
reports embed; ``to_json`` is that dict as compact JSON.

numpy is imported inside the functions that use it, not at module level:
:func:`solve_closure` for a few cell ends (its line comes from the integer rows
alone, so no LAPACK routine runs), :func:`certify_no_root` for its samples.
``classify`` for m >= 6 calls neither, so it never imports it.
"""

from __future__ import annotations

import json
import math
import warnings
from functools import lru_cache
from itertools import compress, repeat
from typing import Callable, Literal, NamedTuple, Optional, Sequence

TWO_PI = 2.0 * math.pi

#: Tolerance on the closure residual for an accepted angle solution.
RESIDUAL_TOL = 1e-10
#: Bisection stops once the bracket is narrower than this.
BRACKET_TOL = 1e-12
#: Samples closer than this to a cotangent pole are skipped and recorded.
POLE_TOL = 1e-12
#: Default sample spacing for nonexistence certificates.
EVIDENCE_SPACING = 1e-4 * math.pi

ANGLE_NAMES = ("alpha", "beta", "gamma")

VertexTriple = tuple[int, int, int]


def tolerance(value) -> float:
    """``value`` as a float; ValueError unless it is finite and above zero.

    Every comparison with NaN is false, so a NaN tolerance would pass any
    defect, and an infinite one passes everything too.  Takes text as well,
    so it serves as the argparse type of the command-line ``--tol``.
    """
    tol = float(value)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {value!r}")
    return tol


class ClosureDomainError(ValueError):
    """An angle argument lies outside the open interval required by an identity."""


def mgon_lower_bound(m: int) -> float:
    """Smallest interior angle of a spherical regular m-gon, (1 - 2/m)*pi."""
    return (1.0 - 2.0 / m) * math.pi


def rhombus_edge_cos(beta: float, gamma: float) -> float:
    """Cosine of the rhombus edge length, cot(beta/2) * cot(gamma/2).

    Both angles must lie in the open interval (0, pi).  The result is the
    edge cosine of a spherical rhombus with angles beta, gamma, beta, gamma;
    callers needing a nondegenerate rhombus should check it lies in (-1, 1).
    """
    if not (0.0 < beta < math.pi):
        raise ClosureDomainError(f"beta must be in (0, pi), got {beta!r}")
    if not (0.0 < gamma < math.pi):
        raise ClosureDomainError(f"gamma must be in (0, pi), got {gamma!r}")
    return 1.0 / (math.tan(beta / 2.0) * math.tan(gamma / 2.0))


def mgon_edge_cos(m: int, alpha: float) -> float:
    """Cosine of the edge length of a regular spherical m-gon with angle alpha.

    Evaluates cot^2(alpha/2) + cos(2*pi/m) / sin^2(alpha/2).  The angle must
    lie strictly between (1 - 2/m)*pi (flat limit, edge cosine 1) and pi
    (degenerate limit, edge cosine cos(2*pi/m)).  On that interval the value
    decreases strictly from 1 to cos(2*pi/m), so every admissible edge
    satisfies cos(2*pi/m) < cos x < 1.
    """
    if m < 3:
        raise ClosureDomainError(f"gonality must be >= 3, got {m}")
    lo = mgon_lower_bound(m)
    if not (lo < alpha < math.pi):
        raise ClosureDomainError(
            f"alpha must be in ({lo / math.pi:.6f}*pi, pi) for m={m}, "
            f"got {alpha / math.pi:.6f}*pi"
        )
    half = alpha / 2.0
    s2 = math.sin(half) ** 2
    c2 = math.cos(half) ** 2
    return (c2 + math.cos(TWO_PI / m)) / s2


def closure_residual(m: int, alpha: float, beta: float, gamma: float) -> float:
    """m-gon edge cosine minus rhombus edge cosine.

    Zero exactly when the two prototiles share an edge length, i.e. when
    (alpha, beta, gamma) admits a common x.  Domain errors propagate from
    the two identity evaluations.
    """
    return mgon_edge_cos(m, alpha) - rhombus_edge_cos(beta, gamma)


def pi_fraction(value: float, max_den: int = 120, tol: float = 1e-9) -> Optional[tuple[int, int]]:
    """Recognize ``value`` as a rational multiple of pi for pretty-printing.

    Returns (p, q) in lowest terms, with 0 < q <= ``max_den`` and value == p/q*pi
    within ``tol``, or None.  p/q is the best approximation of value/pi with such
    a denominator, reached by the steps of ``Fraction.limit_denominator`` on the
    float's exact integer ratio.  Used only for display, never computation.
    """
    p, q = (value / math.pi).as_integer_ratio()
    if q > max_den:
        # The continued fraction of p/q up to its last convergent p1/q1 within
        # max_den, then the closer of p1/q1 and the semiconvergent after it.
        n, d = p, q
        p0, q0, p1, q1 = 0, 1, 1, 0
        while q0 + n // d * q1 <= max_den:
            a = n // d
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            n, d = d, n - a * d
        k = (max_den - q0) // q1
        # p1/q1 lies d/(q1*q) from p/q, and 1/(q1*(q0 + k*q1)) from the semiconvergent.
        p, q = (p1, q1) if 2 * d * (q0 + k * q1) <= q else (p0 + k * p1, q0 + k * q1)
    if abs(p / q * math.pi - value) <= tol:
        return p, q
    return None


def format_angle(value: float) -> str:
    """Format an angle in radians as a multiple of pi, exact when recognizable."""
    q = pi_fraction(value)
    if q is not None:
        num, den = q
        if den == 1:
            return f"{num}*pi" if num != 1 else "pi"
        return f"{num}/{den}*pi"
    return f"{value / math.pi:.6f}*pi"


class AngleSolution(NamedTuple):
    """Angles (alpha, beta, gamma), gonality m and edge cosine satisfying closure.

    The plain constructor stores whatever it is given (tests build perturbed
    instances on purpose).  Use :meth:`checked` for validated construction:
    it normalizes beta > gamma, recomputes the edge cosine from both tiles
    and enforces agreement within RESIDUAL_TOL.
    """

    m: int
    alpha: float
    beta: float
    gamma: float
    cos_x: float
    edge_valid: bool = True

    @classmethod
    def checked(cls, m: int, alpha: float, beta: float, gamma: float) -> "AngleSolution":
        if beta < gamma:
            beta, gamma = gamma, beta
        from_rhombus = rhombus_edge_cos(beta, gamma)
        from_mgon = mgon_edge_cos(m, alpha)
        if abs(from_mgon - from_rhombus) >= RESIDUAL_TOL:
            raise ValueError(
                "closure residual too large: "
                f"{from_mgon - from_rhombus:.3e} for m={m}, "
                f"({format_angle(alpha)}, {format_angle(beta)}, {format_angle(gamma)})"
            )
        cos_x = from_rhombus
        return cls(m, alpha, beta, gamma, cos_x, edge_valid=0.0 < cos_x < 1.0)

    @property
    def x(self) -> float:
        """Edge arc length in radians."""
        return math.acos(self.cos_x)

    def angle(self, name: str) -> float:
        if name not in ANGLE_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def describe(self) -> str:
        return (
            f"m={self.m}: alpha={format_angle(self.alpha)}, "
            f"beta={format_angle(self.beta)}, gamma={format_angle(self.gamma)}, "
            f"x={format_angle(self.x)}"
        )


# --- admissible box -------------------------------------------------------
#
# Constraints a solution must satisfy to be a candidate tiling angle set:
#   (1 - 2/m)*pi < alpha < pi      (spherical m-gon exists)
#   0 < gamma < beta < pi          (rhombus angles, beta > gamma convention)
#   gamma < alpha                  (gamma is the smallest angle)
#   beta + gamma > pi              (spherical rhombus angle excess)
#   alpha + beta + gamma <= 2*pi   (a vertex fits all three angles)
#
# Each entry: (tag, integer coefficients (ca, cb, cg), constant, strict)
# meaning ca*alpha + cb*beta + cg*gamma + constant > 0 (or >= 0 when
# strict=False).  The constant is u*pi + w*mgon_lower_bound(m), stored as
# (u, w), so both readers below derive their rows from this one table.
_BOX = (
    ("alpha above m-gon bound", (1, 0, 0), (0, -1), True),
    ("alpha below pi", (-1, 0, 0), (1, 0), True),
    ("beta positive", (0, 1, 0), (0, 0), True),
    ("beta below pi", (0, -1, 0), (1, 0), True),
    ("gamma positive", (0, 0, 1), (0, 0), True),
    ("gamma below beta", (0, 1, -1), (0, 0), True),
    ("gamma below alpha", (1, 0, -1), (0, 0), True),
    ("beta+gamma above pi", (0, 1, 1), (-1, 0), True),
    ("angle sum at most 2*pi", (-1, -1, -1), (2, 0), False),
)
_BOX_TAGS = tuple(row[0] for row in _BOX)


@lru_cache(maxsize=64)
def _box_rows(m: int) -> tuple[tuple[str, tuple[float, float, float], float, bool], ...]:
    # The m-gon bound enters as mgon_lower_bound(m) itself: rounding
    # (m - 2)*pi/m another way moves its last bit for some m.
    lo = mgon_lower_bound(m)
    return tuple(
        (tag, tuple(map(float, coeffs)), u * math.pi + w * lo, strict)
        for tag, coeffs, (u, w), strict in _BOX
    )


def _feasible(m: int, equations: Sequence[VertexTriple], extra=()) -> bool:
    """Whether vertex equations a*alpha + b*beta + c*gamma = 2*pi and ``extra`` rows
    meet the admissibility box at gonality m, in the range :func:`_m_range` finds."""
    span = _m_range(tuple(map(tuple, equations)), tuple(extra))
    return span is not None and span[0] <= m <= span[1]


@lru_cache(maxsize=256)
def _m_range(equations: tuple[VertexTriple, ...], extra: tuple = ()) -> Optional[tuple]:
    """The integers m at which vertex equations and ``extra`` rows meet the box, as
    (lo, hi), ends possibly infinite, or None: one exact Fourier-Motzkin elimination
    with m as a parameter.  In units of pi/m a row reads coeffs . x + k0 + k1*m > 0
    (>= 0 if not strict) in integers: pi is m, the m-gon bound m - 2, an equation
    two >= rows with constant -+2m, and an ``extra`` row's constant is as given.
    Rows with opposite signs on an angle combine, with positive weights, into a row
    without it, strict when either is; duplicates drop each round.  An angle-free
    row bounds m, a strict one as k0 + k1*m >= 1.  Each row needs an angle."""
    rows = {(coeffs, -2 * w, u + w, strict) for _tag, coeffs, (u, w), strict in _BOX}
    rows |= {(coeffs, k, 0, strict) for coeffs, k, strict in extra}
    for a, b, c in equations:
        rows |= {((a, b, c), 0, -2, False), ((-a, -b, -c), 0, 2, False)}
    lo, hi = -math.inf, math.inf
    for j in range(3):
        pos, neg, rest = [], [], []
        for row in rows:
            (pos if row[0][j] > 0 else neg if row[0][j] < 0 else rest).append(row)
        for p, p0, p1, sp in pos:
            wn = p[j]
            for n, n0, n1, sn in neg:
                wp = -n[j]
                coeffs = (wp * p[0] + wn * n[0], wp * p[1] + wn * n[1], wp * p[2] + wn * n[2])
                k0, k1 = wp * p0 + wn * n0, wp * p1 + wn * n1
                if coeffs != (0, 0, 0):
                    rest.append((coeffs, k0, k1, sp or sn))
                    continue
                k0 -= sp or sn
                if k1 > 0:
                    lo = max(lo, -(k0 // k1))
                elif k1 < 0:
                    hi = min(hi, k0 // -k1)
                if lo > hi or (k1 == 0 and k0 < 0):
                    return None
        rows = set(rest)
    if rows:
        raise ValueError(f"every equation and extra row needs an angle, got {sorted(rows)}")
    return lo, hi


def _box_checks(m: int, alpha, beta, gamma) -> list:
    """Whether each ``_BOX`` row is violated, in table order, for floats or arrays;
    each row is summed term by term, ca*alpha + cb*beta + cg*gamma + const."""
    rows = _box_rows(m)
    sums = [(ca * alpha + cb * beta + cg * gamma + const) for _, (ca, cb, cg), const, _ in rows]
    return [(v <= 0.0) if row[3] else (v < 0.0) for v, row in zip(sums, rows)]


def box_violations(m: int, alpha: float, beta: float, gamma: float) -> list[str]:
    """Tags of admissibility constraints violated by (alpha, beta, gamma)."""
    return [tag for tag, bad in zip(_BOX_TAGS, _box_checks(m, alpha, beta, gamma)) if bad]


# --- linear constraint reduction ------------------------------------------


def _affine_line(constraints: Sequence[VertexTriple]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The line point + t * direction of 2 vertex equations, as float triples from
    their integer rows: the point 2*pi * num/det of :func:`_line_point`, and the
    unit vector along :func:`_line_axis`, whose squared norm is det.  ValueError
    unless the rows are two independent (a, b, c) triples."""
    num, det = _line_point(constraints)
    if not det:
        raise ValueError("linearly dependent constraints")
    norm = math.sqrt(det)
    return tuple(n / det * TWO_PI for n in num), tuple(a / norm for a in _line_axis(constraints))


def _line_point(constraints: Sequence[VertexTriple]) -> tuple[VertexTriple, int]:
    """The least-norm point of two vertex equations' line as exact integers (num,
    det), point = 2*pi * num/det: num = R^T adj(R R^T) (1, 1) and det = det(R R^T)
    of the rows R, which is 0 when they are dependent.  ValueError unless the rows
    are two (a, b, c) triples."""
    if len(constraints) != 2 or any(len(c) != 3 for c in constraints):
        raise ValueError("need exactly two vertex types, each an (a, b, c) triple")
    r0, r1 = constraints
    g00, g01, g11 = (sum(p * q for p, q in zip(u, v)) for u, v in ((r0, r0), (r0, r1), (r1, r1)))
    return tuple((g11 - g01) * p + (g00 - g01) * q for p, q in zip(r0, r1)), g00 * g11 - g01 * g01


def _line_axis(constraints: Sequence[VertexTriple]) -> VertexTriple:
    """The exact cross product of two vertex equations' rows: their line's direction."""
    (a0, b0, c0), (a1, b1, c1) = constraints
    return (b0 * c1 - c0 * b1, c0 * a1 - a0 * c1, a0 * b1 - b0 * a1)


def _crossing_rows(constraints: Sequence[VertexTriple]) -> list[bool]:
    """Whether each ``_BOX`` row varies along the line of two vertex equations, in
    exact integers.  A parallel row holds on all of it once :func:`_feasible` does."""
    axis = _line_axis(constraints)
    return [sum(p * q for p, q in zip(coeffs, axis)) != 0 for _tag, coeffs, _const, _strict in _BOX]


def _line_box_interval(m: int, constraints: Sequence[VertexTriple]) -> Optional[tuple]:
    """The line of two vertex equations and its span in the admissible box less
    1e-9 of its width at each end, (point, direction, t_lo, t_hi); None unless
    :func:`_feasible`.  Rows that do not cross the line are skipped."""
    (p0, p1, p2), (d0, d1, d2) = point, direction = _affine_line(constraints)
    t_lo, t_hi = -math.inf, math.inf
    for _tag, (c0, c1, c2), const, _strict in compress(_box_rows(m), _crossing_rows(constraints)):
        den = 0.0 + c0 * d0 + c1 * d1 + c2 * d2  # exact products (c is 0 or +-1), summed as np.dot
        bound = -(0.0 + c0 * p0 + c1 * p1 + c2 * p2 + const) / den
        if den > 0.0:
            t_lo = max(t_lo, bound)
        else:
            t_hi = min(t_hi, bound)
    if not (t_lo < t_hi and _feasible(m, constraints)):
        return None
    margin = 1e-9 * (t_hi - t_lo)
    return point, direction, t_lo + margin, t_hi - margin


def solve_closure(
    m: int,
    constraints: Sequence[VertexTriple],
    grid: int = 10_000,
) -> list[AngleSolution]:
    """Roots of the closure equation under linear vertex constraints.

    Each constraint (a, b, c) is read as a*alpha + b*beta + c*gamma = 2*pi.  Rows
    implying beta^2.gamma where :func:`_edge_bound_premise` holds have none.  Else
    two cut the angles to a line p + t*d, whose span in the admissible box is
    cut into ``grid`` cells (an int >= 1, else ValueError) at ``np.linspace(
    t_lo, t_hi, grid + 1)``.  Each cell where :func:`_residual_vec` is finite at
    both ends and starts on a zero or changes sign is bisected; its root is
    kept if it meets the box rows crossing the line.  [] means no root exists.

    A scan of index ranges finds those cells.  Point i is i*step + t_lo (t_hi
    at i = grid) with angles p_k + t*d_k, rounded as linspace and numpy's
    broadcast round them; rounding is monotone and (grid - 1)*step < t_hi -
    t_lo, so each angle is monotone in i and a range's points lie between its
    ends.  M(alpha) = (1 + c)cot^2(alpha/2) + c, c = cos(2*pi/m), falls in alpha
    and R = cot(beta/2)cot(gamma/2) in beta and gamma, so if both ends are in
    the domain, so is the range, and its residuals lie in [M(alpha_max) -
    R(beta_min, gamma_min), M(alpha_min) - R(beta_max, gamma_max)].  A range
    missing 0 by over 1e-9 of one plus the four magnitudes (each evaluation
    errs by a few ulps) holds no such cell and is skipped, any other is split
    in half; a cell is skipped alike on its two end values, else decided by
    :func:`_residual_vec`.  Ends at one point (a span a few ulps wide) make one
    cell: the dense grid found that root in each copy and kept one.
    """
    if isinstance(grid, bool) or not isinstance(grid, int) or grid < 1:
        raise ValueError(f"grid must be an int >= 1, got {grid!r}")
    line = None if _edge_bound_premise(m, constraints) else _line_box_interval(m, constraints)
    if line is None:
        return []
    (p0, p1, p2), (d0, d1, d2), t_lo, t_hi = line
    step, c = (t_hi - t_lo) / grid, math.cos(TWO_PI / m)
    ka, kb, kg = (0 if dk > 0.0 else 1 for dk in (d0, d1, d2))  # the range end with each term's max

    def node(i: int) -> tuple:  # i, t, angles and, in the domain, M, cot(beta/2), cot(gamma/2)
        t = t_hi if i == grid else i * step + t_lo
        angles = a, b, g = p0 + t * d0, p1 + t * d1, p2 + t * d2
        return i, t, angles, () if _off_domain(m, a, b, g) else (
            (1.0 + c) / math.tan(a / 2.0) ** 2 + c, 1.0 / math.tan(b / 2.0), 1.0 / math.tan(g / 2.0))
    roots, ranges = [], [(node(0), node(grid))]
    while ranges:
        (i, ti, ai, ei), (j, tj, aj, ej) = first, last = ranges.pop()
        cell = j - i == 1 or ti == tj
        if ei and ej:
            e = (mi, bi, gi), (mj, bj, gj) = ei, ej
            r_max, r_min = e[kb][1] * e[kg][2], e[1 - kb][1] * e[1 - kg][2]
            margin = 1e-9 * (1.0 + abs(mi) + abs(mj) + r_max + r_min)
            ri, rj = (mi - bi * gi, mj - bj * gj) if cell else (
                e[1 - ka][0] - r_max, e[ka][0] - r_min)
            if min(ri, rj) > margin or max(ri, rj) < -margin:
                continue
        if not cell:
            ranges += [(first, mid := node((i + j) // 2)), (mid, last)]
            continue
        r0, r1 = _residual_vec(m, [ai, aj]).tolist()
        if math.isfinite(r0) and math.isfinite(r1) and (r0 == 0.0 or r0 * r1 < 0.0):
            roots.append(ti if r0 == 0.0 else _bisect(lambda t: closure_residual(
                m, p0 + t * d0, p1 + t * d1, p2 + t * d2), ti, tj, BRACKET_TOL))
        if j == grid and r1 == 0.0:
            roots.append(t_hi)

    solutions, kept_ts = [], []
    for t in sorted(roots):
        alpha, beta, gamma = p0 + t * d0, p1 + t * d1, p2 + t * d2
        if (any(abs(t - prev) < 1e-9 for prev in kept_ts)
                or any(compress(_box_checks(m, alpha, beta, gamma), _crossing_rows(constraints)))
                or abs(closure_residual(m, alpha, beta, gamma)) >= RESIDUAL_TOL):
            continue
        kept_ts.append(t)
        sol = AngleSolution.checked(m, alpha, beta, gamma)
        if not sol.edge_valid:
            warnings.warn(f"closure root with degenerate edge cosine {sol.cos_x:.6f} kept but "
                          f"flagged: {sol.describe()}")
        solutions.append(sol)
    solutions.sort(key=lambda s: s.alpha)
    return solutions


def _off_domain(m: int, alpha, beta, gamma):
    """Where alpha is not in (m-gon bound, pi) or beta or gamma within POLE_TOL of 0 or pi."""
    return ((alpha <= mgon_lower_bound(m)) | (alpha >= math.pi) | (beta <= POLE_TOL)
            | (beta >= math.pi - POLE_TOL) | (gamma <= POLE_TOL) | (gamma >= math.pi - POLE_TOL))


def _residual_vec(m: int, angles) -> np.ndarray:
    """Closure residual of each (alpha, beta, gamma) row; NaN where :func:`_off_domain`."""
    import numpy as np
    alpha, beta, gamma = np.array(angles, dtype=float).T
    with np.errstate(all="ignore"):
        half = alpha / 2.0
        mg = (np.cos(half) ** 2 + math.cos(TWO_PI / m)) / np.sin(half) ** 2
        rh = 1.0 / (np.tan(beta / 2.0) * np.tan(gamma / 2.0))
        return np.where(_off_domain(m, alpha, beta, gamma), np.nan, mg - rh)


def _bisect(f: Callable[[float], float], lo: float, hi: float, width: float) -> float:
    """A root of f between lo and hi, the package's one bisection: the end
    whose f has f(lo)'s sign moves to the midpoint.  An exact zero at a
    midpoint is returned at once; else the midpoint once the bracket is at
    most ``width`` wide, or once it rounds to an end (the bracket is two
    adjacent floats, which width 0 waits for)."""
    f_lo = f(lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- nonexistence evidence --------------------------------------------------


SignSummary = Literal["constant-positive", "constant-negative", "all-violate", "proof"]


class NonexistenceEvidence(NamedTuple):
    """Record showing a constraint system admits no tiling angles.

    A proof record (:func:`edge_bound_proof`) has sign summary ``"proof"``,
    its argument in ``proof`` and no samples.  A sampled record's columns,
    in grid order: ``sample_at`` holds the parameters where the closure
    residual (for one constraint, its sampler's margin) was evaluated and
    ``residuals`` its values; ``violation_at`` those that fail an
    admissibility inequality and ``tags`` the first each fails; ``poles``
    those within POLE_TOL of a pole: evidence on a grid, not a proof.
    :meth:`payload` is the record as a dict, each float a ``.17g`` string
    that reads back bit for bit; :meth:`to_json` writes it as compact JSON.
    """

    description: str
    m: int
    constraints: tuple[VertexTriple, ...]
    free_angle: str
    interval: tuple[float, float]
    spacing: float
    sign_summary: SignSummary
    sample_at: tuple[float, ...] = ()
    residuals: tuple[float, ...] = ()
    violation_at: tuple[float, ...] = ()
    tags: tuple[str, ...] = ()
    poles: tuple[float, ...] = ()
    proof: str = ""

    kind = "nonexistence"

    def __repr__(self) -> str:
        # Without the sample columns: the m = 5 alpha^2.gamma record holds 360 KB of them.
        columns = ("sample_at", "residuals", "violation_at", "tags", "poles")
        shown = (f"{name}={value!r}" for name, value in zip(self._fields, self) if name not in columns)
        return f"NonexistenceEvidence({', '.join(shown)})"

    @property
    def sample_count(self) -> int:
        return len(self.sample_at) + len(self.violation_at) + len(self.poles)

    def payload(self) -> dict:
        """The record as a dict in a fixed key order; a proof record carries its
        proof in place of spacing and arrays."""
        head = {
            "description": self.description,
            "m": self.m,
            "constraints": [list(c) for c in self.constraints],
            "free_angle": self.free_angle,
            "interval": [_f17(self.interval[0]), _f17(self.interval[1])],
        }
        if self.proof:
            return {**head, "sign_summary": "proof", "proof": self.proof}
        return {
            **head,
            "spacing": _f17(self.spacing),
            "sign_summary": self.sign_summary,
            "samples": [[_f17(t), _f17(r)] for t, r in zip(self.sample_at, self.residuals)],
            "violations": [[_f17(t), tag] for t, tag in zip(self.violation_at, self.tags)],
            "poles": [_f17(t) for t in self.poles],
        }

    def to_json(self) -> str:
        """:meth:`payload` as compact JSON, the same bytes every run."""
        return json.dumps(self.payload(), separators=(",", ":"))

    def report_fields(self, c_max: int) -> dict:
        return {"evidence": self.payload()}


def edge_bound_proof(
    m: int, constraints: Sequence[VertexTriple], description: str
) -> NonexistenceEvidence:
    """Proof record that a system implying beta^2.gamma has no closure root: the
    rhombus edge cosine is below 1/2, the m-gon's above.  ValueError unless
    :func:`_edge_bound_premise` holds."""
    cons = tuple(tuple(int(v) for v in c) for c in constraints)
    if not (premise := _edge_bound_premise(m, cons)):
        raise ValueError(f"edge-bound premise fails for m={m} and {cons}")
    return NonexistenceEvidence(
        description=description, m=m, constraints=cons, free_angle="gamma",
        interval=(0.0, math.pi), spacing=0.0, sign_summary="proof",
        proof="beta^2.gamma gives beta = pi - gamma/2, so the rhombus edge cosine "
        "cot(beta/2)*cot(gamma/2) = tan(gamma/4)*cot(gamma/2) = (1 - tan^2(gamma/4))/2 "
        f"is below 1/2 for every gamma in (0, pi), while {premise}",
    )


def _edge_bound_premise(m: int, cons: Sequence[VertexTriple]) -> str:
    """Why the edge-bound lemma leaves ``cons`` no closure root at gonality m, or ""
    where it does not apply, checked exactly.  The rows must imply beta^2.gamma:
    the one row is (0, 2, 1), or two independent rows have (0, 2, 1) . axis = 0
    and 2*num_beta + num_gamma = det (:func:`_line_point`).  And m >= 6, or m = 5
    and exact elimination leaves alpha <= 2*pi/3, where M(5, alpha) >= M(5, 2*pi/3)
    = sqrt(5)/3 > 1/2, that is 4*5 > 3^2."""
    implied = list(map(tuple, cons)) == [(0, 2, 1)]
    if len(cons) == 2:
        (_, nb, ng), det = _line_point(cons)
        _, ab, ag = _line_axis(cons)
        implied = det != 0 and 2 * ab + ag == 0 and 2 * nb + ng == det
    if not implied or m < 5 or (m == 5 and _feasible(m, cons, [((3, 0, 0), -2 * m, True)])):
        return ""
    if m >= 6:
        return f"the m-gon edge cosine exceeds cos(2*pi/m) >= 1/2, as m = {m} >= 6"
    return ("exact elimination over the admissibility box leaves alpha <= 2*pi/3, where the "
            "m-gon edge cosine, falling in alpha, is at least sqrt(5)/3 > 1/2, as 20 > 9")


def _f17(x: float) -> str:
    return format(x, ".17g")


def _evidence_grid(lo: float, hi: float, spacing: float) -> np.ndarray:
    """Fixed midpoint grid covering (lo, hi) at most ``spacing`` apart."""
    if not (hi > lo):
        raise ValueError("empty interval")
    import numpy as np
    n = max(3, int(math.ceil((hi - lo) / spacing)))
    i = np.arange(n, dtype=float)
    return lo + (i + 0.5) * (hi - lo) / n


def certify_no_root(
    m: int,
    constraints: Sequence[VertexTriple],
    interval: tuple[float, float],
    free_angle: str = "alpha",
    spacing: float = EVIDENCE_SPACING,
    description: str = "",
) -> NonexistenceEvidence:
    """Sample a constraint system densely and certify the absence of a root.

    Three shapes of constraints are supported, matching the three ways a
    vertex system fails, each sampled over the whole grid by its own function:

    * two constraints: the closure residual becomes a function of
      ``free_angle`` on ``interval``; every in-box sample is recorded with
      its residual and must share one sign, out-of-box samples are recorded
      as inequality violations.
    * one constraint with no alpha term (e.g. 2*beta + gamma = 2*pi): the
      rhombus edge cosine is compared against the m-gon edge bound
      cos(2*pi/m); for m >= 6 every sample violates it.
    * one constraint with alpha and no beta term (e.g. 2*alpha + gamma =
      2*pi): records, per sample, that the admissible beta range is empty
      (beta > alpha meets the upper bound from the angle sum).

    Raises ValueError if evaluated residuals change sign (no certificate).
    """
    cons = tuple(tuple(int(v) for v in c) for c in constraints)
    ts = _evidence_grid(interval[0], interval[1], spacing)
    idx = ANGLE_NAMES.index(free_angle)

    if len(cons) == 2:
        columns = _sample_line(m, cons, ts, idx)
    elif len(cons) == 1 and cons[0][0] == 0:
        columns = _sample_edge_bound(m, cons[0], ts, free_angle)
    elif len(cons) == 1 and cons[0][1] == 0:
        columns = _sample_beta_range(m, cons[0], ts, free_angle)
    else:
        raise ValueError("unsupported constraint shape for certification")
    sample_at, residuals, violation_at, tags, poles = columns

    if len(residuals):
        if (residuals > 0.0).all():
            summary: SignSummary = "constant-positive"
        elif (residuals < 0.0).all():
            summary = "constant-negative"
        else:
            raise ValueError("sampled residuals change sign; a root may exist, no certificate")
    elif len(tags):
        summary = "all-violate"
    else:
        raise ValueError("no samples fell in the interval")

    return NonexistenceEvidence(
        description=description or _default_description(cons, free_angle, summary),
        m=m,
        constraints=cons,
        free_angle=free_angle,
        interval=(float(interval[0]), float(interval[1])),
        spacing=float(spacing),
        sign_summary=summary,
        sample_at=tuple(sample_at.tolist()),
        residuals=tuple(residuals.tolist()),
        violation_at=tuple(violation_at.tolist()),
        tags=tuple(tags.tolist()),
        poles=tuple(poles.tolist()),
    )


def _sample_line(m: int, cons: tuple[VertexTriple, ...], ts: np.ndarray, idx: int):
    import numpy as np
    point, direction = map(np.array, _affine_line(cons))
    if abs(direction[idx]) < 1e-12:
        raise ValueError(f"{ANGLE_NAMES[idx]} is fixed by the constraints, pick another")
    # point + scale * direction row by row: the scalar form's float ops, so its bits.
    angles = point[:, None] + (ts - point[idx]) / direction[idx] * direction[:, None]
    checks = np.array(_box_checks(m, *angles))
    violated = checks.any(axis=0)
    pole = ~violated & ((angles.min(0) < POLE_TOL) | (angles.max(0) > math.pi - POLE_TOL))
    sampled = ~(violated | pole)
    tags = np.array(_BOX_TAGS, dtype=object)[checks.argmax(axis=0)[violated]]
    # The scalar residual, for its bits: numpy's tan and sin can differ in the last bit.
    residuals = np.fromiter(map(closure_residual, repeat(m), *angles[:, sampled].tolist()), float)
    return ts[sampled], residuals, ts[violated], tags, ts[pole]


def _sample_edge_bound(m: int, con: VertexTriple, ts: np.ndarray, free_angle: str):
    import numpy as np
    _, b, c = con
    if free_angle != "gamma" or b == 0:
        raise ValueError("single-constraint edge-bound mode expects gamma free, beta derived")
    bound, gamma, beta = math.cos(TWO_PI / m), ts, (TWO_PI - c * ts) / b
    in_range = (0.0 < gamma) & (gamma < math.pi) & (0.0 < beta) & (beta < math.pi)
    tags = np.where(in_range, "gamma below beta", "angle outside (0, pi)").astype(object)
    inside = np.flatnonzero(in_range & (gamma < beta))
    edge = np.fromiter(map(rhombus_edge_cos, beta[inside].tolist(), gamma[inside].tolist()), float)
    low = edge <= bound
    tags[inside[low]] = [
        f"edge bound: rhombus edge cos {_f17(e)} <= cos(2*pi/m) {_f17(bound)}"
        for e in edge[low].tolist()
    ]
    return _split(ts, tags, inside[~low], edge[~low] - bound)


def _sample_beta_range(m: int, con: VertexTriple, ts: np.ndarray, free_angle: str):
    import numpy as np
    a, _, c = con
    if free_angle != "alpha" or a == 0:
        raise ValueError("empty-beta-range mode expects alpha free, gamma derived")
    gamma = (TWO_PI - a * ts) / c if c else np.full(len(ts), math.nan)
    alpha_ok = (mgon_lower_bound(m) < ts) & (ts < math.pi)
    gamma_ok = (0.0 < gamma) & (gamma < math.pi)
    tags = np.where(gamma_ok, "gamma below alpha", "angle outside (0, pi)").astype(object)
    tags[~alpha_ok] = "alpha above m-gon bound"
    inside = np.flatnonzero(alpha_ok & gamma_ok & (gamma < ts))
    alpha, gamma = ts[inside], gamma[inside]
    low = np.maximum(np.maximum(alpha, gamma), math.pi - gamma)
    high = np.minimum(math.pi, TWO_PI - alpha - gamma)
    empty = low >= high
    tags[inside[empty]] = [
        f"empty beta range: needs beta > {_f17(lo)} and beta <= {_f17(hi)}"
        for lo, hi in zip(low[empty].tolist(), high[empty].tolist())
    ]
    return _split(ts, tags, inside[~empty], (high - low)[~empty])


def _split(ts: np.ndarray, tags: np.ndarray, sampled_at: np.ndarray, values: np.ndarray):
    """Evidence columns, in field order: ``ts[sampled_at]`` hold ``values``, the rest violate."""
    import numpy as np
    sampled = np.zeros(len(ts), dtype=bool)
    sampled[sampled_at] = True
    return ts[sampled], values, ts[~sampled], tags[~sampled], ts[:0]


def _default_description(
    cons: tuple[VertexTriple, ...], free_angle: str, summary: str
) -> str:
    names = " and ".join(vertex_label(c) for c in cons)
    if summary == "all-violate":
        return f"every sampled {free_angle} violates an admissibility inequality for {names}"
    sign = "positive" if summary == "constant-positive" else "negative"
    return f"closure residual is {sign} throughout the {free_angle} interval for {names}"


def vertex_label(triple: Sequence[int]) -> str:
    """Human-readable name of a vertex type, e.g. (1, 2, 0) -> 'alpha.beta^2'."""
    parts = []
    for count, name in zip(triple, ANGLE_NAMES):
        if count == 1:
            parts.append(name)
        elif count > 1:
            parts.append(f"{name}^{count}")
    return ".".join(parts) if parts else "empty"
