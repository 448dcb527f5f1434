"""Layer spans for the traced benchmark pass, installed from outside the package.

Each listed function is replaced, in every ``spheretile`` module that binds
it, by a wrapper that records a span (name, parent span, command index,
start, end, raised) in memory.  ``cli`` imports most functions by name and
reaches ``realization`` through the module, so patching only the defining
module would miss calls.  The scalar helpers ``closure_residual``,
``mgon_edge_cos`` and ``rhombus_edge_cos`` run about 400k times per
classify sweep and are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

LAYER_FUNCTIONS = {
    "cli": ["cmd_classify", "report_payload", "cmd_generate", "cmd_verify", "cmd_matchings"],
    "trig": ["solve_closure", "certify_no_root", "NonexistenceEvidence.to_json"],
    "combinatorics": ["classify", "enumerate_degree3", "enumerate_avc", "counting_filter"],
    "complexes": ["build_from_faces", "canonical_code", "isomorphic", "verify_combinatorial"],
    "generators": [
        "prism",
        "earth_map",
        "football",
        "snub_fusion",
        "fusion_classification",
        "dodecahedron_matchings",
        "triangular_fusion",
    ],
    "realization": [
        "embed_generic",
        "embed_prism",
        "embed_earth_map",
        "earth_map_gamma",
        "verify_geometric",
    ],
    "serialization": ["serialize_tiling", "parse_tiling", "export_svg", "export_obj"],
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _face_pairs(args, kwargs, result) -> int:
    faces = _first_arg(args, kwargs, "t").face_count
    return faces * (faces - 1) // 2


# Work counts, keyed by span name: (metric name, count from one call).
# Strings the package emits are ASCII, so their length is their size in bytes.
# verify_geometric's face pairs are computed from its input, F(F-1)/2, the
# number of pairs its overlap scan compares.
COUNTERS = {
    "trig.certify_no_root": ("trig.certify_no_root.samples", lambda a, k, r: r.sample_count),
    "trig.solve_closure": ("trig.solve_closure.roots", lambda a, k, r: len(r)),
    "trig.NonexistenceEvidence.to_json": ("trig.evidence_json.bytes", lambda a, k, r: len(r)),
    "complexes.build_from_faces": ("complexes.build_from_faces.faces", lambda a, k, r: r.face_count),
    "realization.embed_generic": (
        "realization.embed_generic.faces",
        lambda a, k, r: _first_arg(a, k, "t").face_count,
    ),
    "realization.verify_geometric": ("realization.verify_geometric.face_pairs_computed", _face_pairs),
    "serialization.serialize_tiling": ("serialization.serialize_tiling.bytes", lambda a, k, r: len(r)),
    "serialization.parse_tiling": (
        "serialization.parse_tiling.bytes",
        lambda a, k, r: len(_first_arg(a, k, "text")),
    ),
    "serialization.export_svg": ("serialization.export_svg.bytes", lambda a, k, r: len(r)),
    "serialization.export_obj": ("serialization.export_obj.bytes", lambda a, k, r: len(r)),
}
# Counted from the lru_cache statistics around each call.
CACHE_MISSES = "generators.fusion_classification.misses"


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
        names += [f"{layer}.self_s", f"{layer}.failed"]
    names += [metric for metric, _ in COUNTERS.values()]
    names += [CACHE_MISSES, "trace.coverage"]
    return names


class Tracer:
    """Spans kept in memory during one pass; summarized and written after it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent, command, start, end, raised]
        self.counts: dict[str, int] = {}
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.command, time.perf_counter(), 0.0, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counter:
                metric, count = counter
                counts[metric] = counts.get(metric, 0) + count(args, kwargs, result)
            if cache_info:
                counts[CACHE_MISSES] = counts.get(CACHE_MISSES, 0) + cache_info().misses - misses
            return result

        return traced

    def install(self) -> None:
        """Replace every listed function wherever a spheretile module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "spheretile" or n.startswith("spheretile.")]
        for layer, functions in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"spheretile.{layer}")
            for qualname in functions:
                owner_name, _, attr = qualname.rpartition(".")
                name = f"{layer}.{qualname}"
                if owner_name:
                    owner = getattr(home, owner_name)
                    self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
                    continue
                original = getattr(home, attr)
                traced = self.wrap(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-function calls and self time, per-layer totals, counts, coverage.

        Self time is a span's duration minus the durations of its direct
        children.  Coverage is the share of ``wall_s`` inside a top-level span.
        """
        metrics: dict[str, float] = dict.fromkeys(metric_names(), 0)
        child_s = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        covered = 0.0
        for (name, parent, _, start, end, raised), inner in zip(self.spans, child_s):
            layer = name.split(".", 1)[0]
            self_s = end - start - inner
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += self_s
            metrics[f"{layer}.self_s"] += self_s
            metrics[f"{layer}.failed"] += raised
            if parent < 0:
                covered += end - start
        metrics.update(self.counts)
        metrics["trace.coverage"] = covered / wall_s
        return metrics

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, parent, command, start, end, raised) in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": parent,
                    "command": command,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "raised": raised,
                }
                fh.write(json.dumps(record) + "\n")
