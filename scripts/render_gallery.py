"""Embed every tiling family and render an SVG gallery (plus optional OBJ).

Each tiling is built, embedded on the unit sphere by ``embed_generic``,
checked geometrically, and written out; the printed table shows the closure
defect, the spread of edge lengths, and the area defect against the full
sphere.  The exit status is 1 when any tiling fails the geometric check.

    python3 scripts/render_gallery.py --out-dir gallery/ --obj
"""

import argparse
import pathlib
import sys
from dataclasses import dataclass

from spheretile.generators import earth_map, football, prism, snub_fusion
from spheretile.realization import (
    Embedding,
    earth_map_solution,
    embed_generic,
    prism_default_radius,
    prism_solution,
    sporadic_solution,
    verify_geometric,
)
from spheretile.serialization import export_obj, export_svg
from spheretile.trig import AngleSolution


@dataclass(frozen=True)
class GalleryItem:
    name: str
    tiling: object
    embedding: Embedding
    angles: AngleSolution


def build_items(m_values, c_values) -> list[GalleryItem]:
    jobs = [
        (f"prism_m{m}", prism(m), prism_solution(m, prism_default_radius(m)))
        for m in m_values
    ]
    jobs += [(f"earthmap_c{c}", earth_map(c), earth_map_solution(c)) for c in c_values]
    snub_angles = sporadic_solution("snub-fusion")
    jobs += [(f"snub_fusion_{v}", snub_fusion(v), snub_angles) for v in (1, 2, 3)]
    jobs.append(("football", football(), sporadic_solution("football")))
    return [GalleryItem(name, t, embed_generic(t, s), s) for name, t, s in jobs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("gallery"))
    parser.add_argument("--m", type=int, nargs="*", default=[3, 5, 6, 8, 12])
    parser.add_argument("--c", type=int, nargs="*", default=[2, 3, 4])
    parser.add_argument("--obj", action="store_true", help="also write OBJ meshes")
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    items = build_items(args.m, args.c)

    print(f"{'tiling':<16} {'faces':>5} {'defect':>10} {'edge spread':>12} {'area defect':>12}")
    failed = 0
    for item in items:
        report = verify_geometric(item.tiling, item.embedding, item.angles)
        failed += not report.ok
        status = "" if report.ok else "  <-- FAILED: " + "; ".join(report.failures)
        print(
            f"{item.name:<16} {item.tiling.face_count:>5}"
            f" {item.embedding.worst_defect:>10.2e}"
            f" {report.edge_spread:>12.2e} {report.area_defect:>12.2e}{status}"
        )
        svg_path = args.out_dir / f"{item.name}.svg"
        svg_path.write_text(export_svg(item.tiling, item.embedding))
        if args.obj:
            obj_path = args.out_dir / f"{item.name}.obj"
            obj_path.write_text(export_obj(item.tiling, item.embedding))
    print(f"\nwrote {len(items)} SVG files to {args.out_dir}/")
    if failed:
        print(f"{failed} of {len(items)} tilings failed the geometric check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
