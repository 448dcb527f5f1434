"""The three benchmark workloads: which CLI commands a pass runs, and the
checks their outputs must pass.

A pass drives ``spheretile.cli.main(argv)`` in-process.  Each command is
timed on its own; its checks are deferred until the timed part of the
pass is over, so they cost nothing in the reported times.  A check that
fails marks its command as failed; none of them stops the pass.

The launcher imports this module only for the workload names, without
the package on its path, so ``spheretile`` is imported inside functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import reference

WORKLOADS = ("classify-sweep", "realize-large", "catalog-roundtrip")

# Command time between two samples of the reference work (see reference.py).
REFERENCE_EVERY_S = 0.25
CLASSIFY_M = range(5, 65)
MATCHINGS_REPEATS = 5
M5_FAMILIES = {"prism", "earth-map", "snub-fusion", "football"}

# (file stem, generate arguments after the family name).  Earth maps from
# c=24 (F=237) up are left out: a verify of that size takes several seconds,
# so a run would hold few passes and few samples of each command, and the
# host's slow spells would decide the result.
LARGE_TILINGS = [
    ("earthmap_c8", ["earthmap", "--c", "8"]),
    ("earthmap_c12", ["earthmap", "--c", "12"]),
    ("earthmap_c16", ["earthmap", "--c", "16"]),
    ("prism_m16", ["prism", "--m", "16"]),
    ("prism_m64", ["prism", "--m", "64"]),
]
CATALOG_TILINGS = (
    [(f"prism_m{m}", ["prism", "--m", str(m)]) for m in range(3, 17)]
    + [(f"earthmap_c{c}", ["earthmap", "--c", str(c)]) for c in range(2, 9)]
    + [(name, [name]) for name in ("snub1", "snub2", "snub3", "football")]
)

# Document forms handed to `verify`: which optional fields are kept, and
# the phrase in verify's first output line naming where the angles came
# from (coordinates only: measured; bare: solved from the census).
FORMS = {
    "full": (True, True, "from the document's angles field"),
    "coords": (True, False, "measured from coordinates"),
    "bare": (False, False, "census"),
}


def relabel(text: str, rng: random.Random, coordinates: bool, angles: bool) -> str:
    """Permute the vertex ids and the face order of a tiling document.

    Each face keeps its own cyclic vertex order and labels, so the result
    describes the same tiling.  Optional fields not asked for are dropped.
    """
    doc = json.loads(text)
    count = doc["vertices"]
    new_id = list(range(count))
    rng.shuffle(new_id)
    faces = [
        {
            "kind": face["kind"],
            "vertices": [new_id[v] for v in face["vertices"]],
            "labels": face["labels"],
        }
        for face in doc["faces"]
    ]
    rng.shuffle(faces)
    out = {"m": doc["m"], "vertices": count, "faces": faces}
    if coordinates:
        points = [None] * count
        for v, p in enumerate(doc["coordinates"]):
            points[new_id[v]] = p
        out["coordinates"] = points
    if angles:
        out["angles"] = doc["angles"]
    return json.dumps(out, separators=(",", ":"))


@dataclass
class Op:
    """One CLI command of a pass, with its outcome and deferred checks."""

    command: str
    checks: list[Callable[["Op"], Optional[str]]]
    seconds: float = 0.0
    ref_index: int = 0  # reference samples taken before this command
    code: Optional[int] = None
    stdout: str = ""
    error: Optional[str] = None
    failures: list[str] = field(default_factory=list)


class Pass:
    """Runs one workload pass in a scratch directory.

    ``on_command`` is called with each op's index before it runs; the
    tracer uses it to tag its spans.  Before the first command, and after
    every ``REFERENCE_EVERY_S`` of command time, the pass times the
    reference work once; that time is in neither ``wall_s`` nor any op.
    """

    def __init__(self, workdir: Path, on_command: Callable[[int], None] = lambda i: None):
        self.workdir = workdir
        self.ops: list[Op] = []
        self.wall_s = 0.0
        self.ref_s: list[float] = []  # reference samples taken between commands
        self._since_ref = 0.0
        self.digest = hashlib.sha256()
        self._on_command = on_command
        from spheretile import cli

        self._main = cli.main

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    @contextlib.contextmanager
    def timed(self):
        """Count the enclosed block, less its reference samples, in ``wall_s``."""
        start = time.perf_counter()
        samples_before = len(self.ref_s)
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start - sum(self.ref_s[samples_before:])

    def run(self, command: str, argv: list[str], *checks) -> Op:
        if not self.ref_s:
            self.ref_s.append(reference.sample())
        op = Op(command, list(checks), ref_index=len(self.ref_s))
        self._on_command(len(self.ops))
        self.ops.append(op)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                op.code = self._main(argv)
            except Exception:
                op.error = traceback.format_exc()
            op.seconds = time.perf_counter() - start
        op.stdout = out.getvalue()
        self._since_ref += op.seconds
        if self._since_ref >= REFERENCE_EVERY_S:
            self._since_ref = 0.0
            self.ref_s.append(reference.sample())
        return op

    def local_reference(self, op: Op) -> float:
        """The reference time around ``op``: the mean of the samples just before and after it."""
        around = self.ref_s[op.ref_index - 1 : op.ref_index + 1]
        return sum(around) / len(around)

    def check(self) -> None:
        """Run every deferred check; record failures on their ops."""
        for op in self.ops:
            if op.error is not None:
                op.failures.append(f"raised:\n{op.error}")
                continue
            if op.code != 0:
                op.failures.append(f"exit code {op.code}")
            for check in op.checks:
                try:
                    problem = check(op)
                except Exception:
                    problem = f"{op.command} check raised:\n{traceback.format_exc()}"
                if problem:
                    op.failures.append(problem)

    def add_document(self, text: str) -> None:
        self.digest.update(text.encode())
        self.digest.update(b"\0")


# -- checks ----------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _classify_check(m: int, path: str):
    def check(op: Op) -> Optional[str]:
        report = json.loads(_read(path))
        names = [e["family"]["name"] for e in report["entries"] if e["kind"] == "family"]
        want = M5_FAMILIES if m == 5 else {"prism"}
        if len(names) != len(want) or set(names) != want:
            return f"classify m={m}: families {names}, expected {sorted(want)}"
        return None

    return check


def _matchings_check(path: str):
    def check(op: Op) -> Optional[str]:
        data = json.loads(_read(path))
        sizes = [cl["size"] for cl in data["classes"]]
        if data["matching_count"] != 36 or len(data["matchings"]) != 36:
            return f"matchings: {data['matching_count']} matchings, expected 36"
        if len(sizes) != 3 or sum(sizes) != 36:
            return f"matchings: class sizes {sizes}, expected 3 classes covering 36"
        return None

    return check


def _generate_check(stem: str, doc: str, svg: str, obj: str, codes: dict):
    def check(op: Op) -> Optional[str]:
        from spheretile.complexes import canonical_code
        from spheretile.serialization import parse_tiling

        parsed = parse_tiling(_read(doc))
        if parsed.coordinates is None or parsed.angles is None:
            return f"generate {stem}: document lacks coordinates or angles"
        if not _read(svg).rstrip().endswith("</svg>"):
            return f"generate {stem}: SVG output is not closed"
        obj_faces = sum(1 for line in _read(obj).splitlines() if line.startswith("f "))
        if obj_faces != len(parsed.face_specs):
            return f"generate {stem}: OBJ has {obj_faces} faces, document {len(parsed.face_specs)}"
        codes[stem] = canonical_code(parsed.build())
        return None

    return check


def _verify_check(stem: str, form: str, path: str, codes: dict):
    coordinates, _, origin = FORMS[form]

    def check(op: Op) -> Optional[str]:
        from spheretile.complexes import canonical_code
        from spheretile.serialization import parse_tiling

        lines = op.stdout.splitlines()
        wanted = ["combinatorial: ok"] + (["geometric: ok"] if coordinates else [])
        if not lines or origin not in lines[0]:
            return f"verify {stem}/{form}: angles not taken {origin!r}: {lines[:1]}"
        for prefix in wanted:
            if not any(line.startswith(prefix) for line in lines):
                return f"verify {stem}/{form}: no {prefix!r} in {op.stdout!r}"
        if "FAIL" in op.stdout:
            return f"verify {stem}/{form}: {op.stdout!r}"
        if stem not in codes:
            return f"verify {stem}/{form}: generator output was not checked"
        if canonical_code(parse_tiling(_read(path)).build()) != codes[stem]:
            return f"verify {stem}/{form}: canonical code differs from the generator's"
        return None

    return check


# -- workloads ---------------------------------------------------------------------


def classify_sweep(p: Pass, seed: int, clear_fusion_cache: Callable[[], None]) -> None:
    """`classify` for every m the CLI accepts, then cold `matchings` runs.

    Nothing here is verified, so the seed changes nothing.
    """
    with p.timed():
        for m in CLASSIFY_M:
            out = p.path(f"classify_m{m}.json")
            p.run("classify", ["classify", "--m", str(m), "--out", out], _classify_check(m, out))
        for i in range(MATCHINGS_REPEATS):
            clear_fusion_cache()
            out = p.path(f"matchings_{i}.json")
            p.run("matchings", ["matchings", "--out", out], _matchings_check(out))


def _generate_then_verify(p: Pass, seed: int, tilings, forms) -> None:
    codes: dict = {}
    generated = []
    with p.timed():
        for stem, family_args in tilings:
            doc, svg, obj = (p.path(f"{stem}.{ext}") for ext in ("json", "svg", "obj"))
            argv = ["generate", *family_args, "--realize", "--svg", svg, "--obj", obj, "--out", doc]
            op = p.run("generate", argv, _generate_check(stem, doc, svg, obj, codes))
            if op.code == 0:  # check() counts a failed generate; there is nothing to verify
                generated.append((stem, doc))

    to_verify = []
    for stem, doc in generated:
        text = _read(doc)
        p.add_document(text)
        for form in forms:
            coordinates, angles, _ = FORMS[form]
            rng = random.Random(f"{seed}/{stem}/{form}")
            relabelled = relabel(text, rng, coordinates, angles)
            p.add_document(relabelled)
            path = p.path(f"{stem}.{form}.json")
            with open(path, "w") as fh:
                fh.write(relabelled)
            to_verify.append((stem, form, path))

    with p.timed():
        for stem, form, path in to_verify:
            p.run("verify", ["verify", "--in", path], _verify_check(stem, form, path, codes))


def realize_large(p: Pass, seed: int, clear_fusion_cache: Callable[[], None]) -> None:
    """Realize and verify the largest tilings: earth maps up to F=157."""
    _generate_then_verify(p, seed, LARGE_TILINGS, ["full"])


def catalog_roundtrip(p: Pass, seed: int, clear_fusion_cache: Callable[[], None]) -> None:
    """Many small tilings, each verified in all three document forms."""
    _generate_then_verify(p, seed, CATALOG_TILINGS, list(FORMS))


RUNNERS = {
    "classify-sweep": classify_sweep,
    "realize-large": realize_large,
    "catalog-roundtrip": catalog_roundtrip,
}
