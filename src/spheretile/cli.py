"""Command-line front end: classify, generate, verify, matchings.

Exit codes are the process-level contract: 0 for success, 1 for a
verification failure, 2 for invalid parameters or unparseable input.
Reports go to stdout or to the file named by ``--out``; a path that cannot
be written is a usage error, found before any output is written.

Each classify report entry renders itself (``ClassificationEntry.payload``);
this module wraps the entries with the gonality and writes them out.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .trig import ClosureDomainError, tolerance
from .complexes import TilingError
from .combinatorics import ClassificationReport, classify
from .generators import earth_map, football, fusion_classification, prism, snub_fusion
from . import realization as rz
from .serialization import (
    SchemaError,
    export_obj,
    export_svg,
    parse_tiling,
    serialize_tiling,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

GENERATE_FAMILIES = ("prism", "earthmap", "snub1", "snub2", "snub3", "football")

# Characters per file write: a large document is encoded a slice at a time.
_WRITE_SLICE = 1 << 16


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _writable(path: str) -> bool:
    """Whether ``path`` can be opened for writing, checked without creating it."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)


def _emit(*outputs: tuple[str, Optional[str]]) -> int:
    """Write each (text, path) pair to its file, or to stdout when the path
    is None.  Every path is checked before anything is written, so a path
    that cannot be written is a usage error naming it and leaves no output."""
    for _, out in outputs:
        if out is not None and not _writable(out):
            return _usage_error(f"cannot write {out}: no such directory, or not writable")
    for text, out in outputs:
        if out is None:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            continue
        try:
            with open(out, "w") as fh:
                for start in range(0, len(text), _WRITE_SLICE):
                    fh.write(text[start : start + _WRITE_SLICE])
        except OSError as exc:
            return _usage_error(f"cannot write {out}: {exc}")
    return EXIT_OK


# -- classify ------------------------------------------------------------------


def report_json(report: ClassificationReport, c_max: int = 8) -> str:
    """A classification report as compact JSON text, each entry rendered by
    ``ClassificationEntry.payload`` with members up to block count ``c_max``."""
    return _dumps({"m": report.m, "entries": [e.payload(c_max) for e in report.entries]})


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def report_payload(report: ClassificationReport, c_max: int = 8) -> dict:
    """:func:`report_json` parsed."""
    return json.loads(report_json(report, c_max=c_max))


def cmd_classify(m: int, c_max: int, out: Optional[str], tol: float) -> int:
    if not (5 <= m <= 64):
        return _usage_error(f"--m must be between 5 and 64, got {m}")
    if c_max < 2:
        return _usage_error(f"--c-max must be at least 2, got {c_max}")
    report = classify(m, tol=tol)
    try:
        text = report_json(report, c_max=c_max)
    except ValueError as exc:
        return _usage_error(f"--c-max {c_max} is too large: {exc}")
    return _emit((text, out))


# -- generate ------------------------------------------------------------------


def cmd_generate(family: str, m: Optional[int], c: Optional[int], r: Optional[float], realize: bool,
                 obj: Optional[str], svg: Optional[str], out: Optional[str]) -> int:
    if m is not None and family != "prism":
        return _usage_error("--m only applies to the prism family")
    if c is not None and family != "earthmap":
        return _usage_error("--c only applies to the earthmap family")
    if r is not None and family != "prism":
        return _usage_error("--r only applies to the prism family")
    realize = realize or r is not None or obj is not None or svg is not None

    solution = None
    if family == "prism":
        if m is None:
            return _usage_error("prism needs --m")
        if m < 3:
            return _usage_error(f"prism needs --m of at least 3, got {m}")
        t = prism(m)
        if realize:
            lo, hi = rz.prism_geometric_bounds(m)
            radius = rz.prism_default_radius(m) if r is None else r
            if not (lo < radius < hi):
                return _usage_error(
                    f"--r must lie in ({lo:.6f}, {hi:.6f}) for m={m}, got {radius}"
                )
            try:
                solution = rz.prism_solution(m, radius)
            except ClosureDomainError as exc:
                return _usage_error(f"no prism angles at --r {radius} for m={m}: {exc}")
    elif family == "earthmap":
        if c is None:
            return _usage_error("earthmap needs --c")
        if c < 2:
            return _usage_error(f"earthmap needs --c of at least 2, got {c}")
        if realize:
            try:
                solution = rz.earth_map_solution(c)
            except ValueError as exc:
                return _usage_error(str(exc))
        t = earth_map(c)
        print(
            f"note: earth map with c={c} has {t.face_count} faces (10*c-3); "
            "the count 8*c-2 sometimes quoted for this family fails the "
            "incidence check",
            file=sys.stderr,
        )
    elif family == "football":
        t = football()
        if realize:
            solution = rz.sporadic_solution("football")
    else:
        t = snub_fusion(int(family[-1]))
        if realize:
            solution = rz.sporadic_solution("snub-fusion")

    embedding = rz.embed_generic(t, solution) if realize else None
    outputs = [(serialize_tiling(t, embedding=embedding, angles=solution), out)]
    if obj is not None:
        outputs.append((export_obj(t, embedding), obj))
    if svg is not None:
        outputs.append((export_svg(t, embedding), svg))
    return _emit(*outputs)


# -- verify --------------------------------------------------------------------


def cmd_verify(path: str, tol: Optional[float]) -> int:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(f"cannot read {path}: {exc}")
    try:
        doc = parse_tiling(text)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        t = doc.build()
    except TilingError as exc:
        print(f"FAIL [{type(exc).__name__}] {exc}")
        return EXIT_FAIL

    embedding = doc.embedding_for(t) if doc.coordinates is not None else None
    result = rz.verify_tiling(t, embedding, doc.angles, tol=tol)
    if result.solution is None:
        print(f"FAIL {result.angle_source}")
        return EXIT_FAIL
    print(f"angles {result.angle_source}: {result.solution.describe()}")

    report = result.combinatorial
    print(
        f"combinatorial: {'ok' if report.ok else 'FAIL'} "
        f"(V={report.vertex_count}, E={report.edge_count}, F={report.face_count}, "
        f"worst vertex defect {report.worst_vertex_defect:.3e})"
    )
    for msg in report.failures:
        print(f"  FAIL {msg}")

    geo = result.geometric
    if geo is not None:
        print(
            f"geometric: {'ok' if geo.ok else 'FAIL'} "
            f"(edge spread {geo.edge_spread:.3e}, worst corner "
            f"{geo.worst_corner_defect:.3e}, area defect {geo.area_defect:.3e})"
        )
        for msg in geo.failures:
            print(f"  FAIL {msg}")

    return EXIT_OK if result.ok else EXIT_FAIL


# -- matchings -----------------------------------------------------------------


def cmd_matchings(out: Optional[str]) -> int:
    data = fusion_classification()
    matchings = data["matchings"]
    payload = {
        "matching_count": len(matchings),
        "matchings": [[list(edge) for edge in matching] for matching in matchings],
        "classes": [
            {
                "variant": variant,
                "size": len(cl["members"]),
                "members": list(cl["members"]),
                "representative_matching": cl["members"][0],
                "pentagon_bullet_counts": list(cl["bullet_counts"]),
                "trio_chain_length": cl["chain_length"],
            }
            for variant, cl in enumerate(data["classes"], start=1)
        ],
        "variant_of_matching": [
            data["variant_of_matching"][i] for i in range(len(matchings))
        ],
    }
    return _emit((_dumps(payload), out))


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheretile",
        description=(
            "Classify, generate, realize and verify the edge-to-edge "
            "sphere tilings by one regular m-gon and one rhombus."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="resolve every degree-3 vertex seed at gonality m"
    )
    p_classify.add_argument("--m", type=int, required=True, help="gonality, 5..64")
    p_classify.add_argument(
        "--c-max",
        type=int,
        default=8,
        help="largest earth-map block count listed in the report (default 8)",
    )
    p_classify.add_argument("--out", help="write the report JSON here")
    p_classify.add_argument(
        "--tol", type=tolerance, default=1e-6, help="vertex-type enumeration tolerance"
    )

    p_generate = sub.add_parser("generate", help="emit a tiling as JSON/OBJ/SVG")
    p_generate.add_argument("family", choices=GENERATE_FAMILIES)
    p_generate.add_argument("--m", type=int, help="prism gonality (>= 3)")
    p_generate.add_argument("--c", type=int, help="earth-map block count (>= 2)")
    p_generate.add_argument("--r", type=float, help="prism polar radius (implies --realize)")
    p_generate.add_argument(
        "--realize", action="store_true", help="embed on the sphere and include coordinates"
    )
    p_generate.add_argument("--obj", help="also write a chordal OBJ mesh here")
    p_generate.add_argument("--svg", help="also write a stereographic SVG here")
    p_generate.add_argument("--out", help="write the tiling JSON here")

    p_verify = sub.add_parser("verify", help="check a tiling JSON document")
    p_verify.add_argument("--in", dest="path", required=True, help="tiling JSON file")
    p_verify.add_argument(
        "--tol", type=tolerance, help="override the verification tolerances"
    )

    p_matchings = sub.add_parser(
        "matchings", help="dodecahedron perfect matchings and fusion classes"
    )
    p_matchings.add_argument("--out", help="write the matchings JSON here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing leaves
    it unchanged, and building it costs about a millisecond a call."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command named on the command line, ``cmd_<command>``, with the
    parsed options as its keyword arguments; return its exit code."""
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # Looked up when called, so a rebound module attribute (a tracer's) runs.
    return globals()[f"cmd_{args.pop('command')}"](**args)


if __name__ == "__main__":
    sys.exit(main())
