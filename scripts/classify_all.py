"""Sweep the classification over a gonality range and summarize the outcomes.

Writes one JSON report per gonality when --out-dir is given, and always
prints a one-line summary per m: realized families, then the seeds settled
by nonexistence evidence, split into those with an exact proof ("proved")
and those that still rest on a dense sign sample ("sampled"), then those
settled by subsumption.  The files hold the same bytes as the stdout of
``spheretile classify --m M``.

    python3 scripts/classify_all.py --m-min 5 --m-max 12 --out-dir reports/
"""

import argparse
import pathlib
import time

from spheretile.cli import report_json
from spheretile.combinatorics import classify, vertex_label


def summarize(m: int) -> tuple[str, str]:
    start = time.perf_counter()
    report = classify(m)
    elapsed = time.perf_counter() - start

    families = []
    proved = []
    sampled = []
    subsumed = []
    for entry in report.entries:
        label = vertex_label(entry.seed)
        out = entry.outcome
        if out.kind == "family":
            suffix = f" x{out.variants}" if out.variants > 1 else ""
            if out.parameterized:
                suffix += " (1-param)"
            families.append(f"{out.name}[{label}]{suffix}")
        elif out.kind == "nonexistence":
            (proved if out.proof else sampled).append(label)
        elif out.kind == "subsumed":
            subsumed.append(label)

    line = (
        f"m={m:>2}  families: {', '.join(families) or 'none'}"
        f"  | proved: {', '.join(proved) or '-'}"
        f"  | sampled: {', '.join(sampled) or '-'}"
    )
    if subsumed:
        line += f"  | subsumed: {', '.join(subsumed)}"
    line += f"  ({elapsed:.2f} s)"
    return line, report_json(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m-min", type=int, default=5)
    parser.add_argument("--m-max", type=int, default=12)
    parser.add_argument("--out-dir", type=pathlib.Path, default=None)
    args = parser.parse_args()

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    for m in range(args.m_min, args.m_max + 1):
        line, text = summarize(m)
        print(line)
        if args.out_dir is not None:
            (args.out_dir / f"classification_m{m}.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
