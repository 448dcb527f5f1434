"""One workload pass in a fresh process; prints its result as one JSON line.

    python3 bench/one_pass.py --workload realize-large --seed 1 --out-dir .bench_build --t0 <time>

``--t0`` is the launcher's ``time.monotonic()`` just before it started this
process (a system-wide clock on Linux), so ``setup_s`` covers interpreter
start-up and the import of ``spheretile.cli`` with numpy and scipy.
Right after that import the process takes one sample of the reference
work; with ``--probe`` it stops there.
"""

import time

import spheretile.cli  # noqa: E402  (first, so set-up time is measured)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import spheretile.generators  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    setup_s = IMPORTED - args.t0
    root = Path(__file__).resolve().parent.parent
    if not Path(spheretile.cli.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"spheretile was imported from {spheretile.cli.__file__}, not from {root / 'src'}")
    ref_after_setup_s = reference.sample()
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "ref_after_setup_s": ref_after_setup_s}))
        return

    clear_fusion_cache = spheretile.generators.fusion_classification.cache_clear
    tracer = Tracer() if args.traced else None
    workdir = Path(tempfile.mkdtemp(dir=args.out_dir, prefix=f"{args.workload}-"))
    try:
        tag = (lambda index: setattr(tracer, "command", index)) if tracer else (lambda index: None)
        p = workloads.Pass(workdir, on_command=tag)
        if tracer:
            tracer.install()
        try:
            workloads.RUNNERS[args.workload](p, args.seed, clear_fusion_cache)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p.check()
    finally:
        shutil.rmtree(workdir)

    seconds: dict[str, float] = {}
    for op in p.ops:
        seconds[op.command] = seconds.get(op.command, 0.0) + op.seconds
    failures = [f for op in p.ops for f in op.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "ref_after_setup_s": ref_after_setup_s,
        "wall_s": p.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "command_s": seconds,
        "op_s": [[op.command, op.seconds, p.local_reference(op)] for op in p.ops],
        "ref_s": p.ref_s,
        "attempted": len(p.ops),
        "failed": sum(1 for op in p.ops if op.failures),
        "digest": p.digest.hexdigest(),
    }
    if tracer:
        result["layers"] = tracer.summary(p.wall_s)
        tracer.write(args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
