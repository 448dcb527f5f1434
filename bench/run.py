"""spheretile benchmark: CLI workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload realize-large --seed 1 --seconds 20 --trace 0

The package is imported from the ``src/`` directory of the checkout that
holds this file.  Every pass is a fresh single-threaded process
(``one_pass.py``), started one at a time while one more pass still ends
within ``--seconds``, and at least twice.  One untimed process first
compiles the bytecode, and a probe process before each pass times set-up
alone.

With ``--trace 0`` the last output line holds the end-to-end metrics named
in BENCHMARK.json: the time of a pass, each command at its median over the
run's passes; the median set-up time, both scaled to the reference work's
nominal speed (``reference.py``); and the median peak memory.  With
``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, plus the untraced per-command
times and the tracing overhead.  The line before the last records the
environment and the per-pass figures.  Scratch files and spans go to
``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracing import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
PROBES_PER_PASS = 1
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its passes do
COMMANDS = ("classify", "matchings", "generate", "verify")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_pass(args: argparse.Namespace, out_dir: Path, deadline: float, *extra: str) -> dict:
    """Run one_pass.py in a fresh process and return its result line."""
    argv = [sys.executable, str(HERE / "one_pass.py"), "--out-dir", str(out_dir), *extra]
    argv += ["--workload", args.workload, "--seed", str(args.seed)]
    ref_before_setup_s = reference.sample()
    t0 = time.monotonic()
    argv += ["--t0", repr(t0)]
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(1.0, deadline - t0)
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"pass process failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["ref_before_setup_s"] = ref_before_setup_s
    return result


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": nproc,
        "cpu": cpu,
    }


def command_times(results: list[dict], normalized: bool = False) -> list[tuple[str, float]]:
    """Each command's median time over the passes, in the order a pass runs them.

    Every pass of a run issues the same commands in the same order.  With
    ``normalized``, each time is first scaled to the reference work's
    nominal speed by the reference samples taken just before and after
    that command; ``reference.py`` says why.
    """

    def seconds(op: list) -> float:
        _, op_s, around_s = op
        return op_s * reference.NOMINAL_S / around_s if normalized else op_s

    count = min(len(r["op_s"]) for r in results)
    return [
        (results[0]["op_s"][i][0], statistics.median(seconds(r["op_s"][i]) for r in results))
        for i in range(count)
    ]


def pass_time(results: list[dict], normalized: bool = False) -> float:
    """The sum of ``command_times``: the time of a typical pass."""
    return sum(seconds for _, seconds in command_times(results, normalized))


def norm_setup(results: list[dict]) -> float:
    """Median set-up time, each scaled by the reference samples just before and after it."""
    return statistics.median(
        r["setup_s"] * reference.NOMINAL_S * 2 / (r["ref_before_setup_s"] + r["ref_after_setup_s"])
        for r in results
    )


def end_to_end(passes: list[dict], probes: list[dict]) -> dict[str, float]:
    return {
        "norm_wall_s": pass_time(passes, normalized=True),
        "setup_s": norm_setup(passes + probes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in metric_names()}
    metrics["trace.overhead_s"] = pass_time(traced, normalized=True) - pass_time(untraced, normalized=True)
    metrics["e2e.wall_s"] = pass_time(untraced)
    for command in COMMANDS:
        metrics[f"e2e.{command}_s"] = sum(s for c, s in command_times(untraced) if c == command)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spheretile" / "cli.py").is_file():
        sys.exit(f"no spheretile source under {ROOT / 'src'}; run from a source checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / ".bench_build"
    out_dir.mkdir(exist_ok=True)
    start_pass(args, out_dir, deadline, "--probe")  # writes the bytecode caches; untimed

    probes: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    cycles: list[float] = []
    started = time.monotonic()
    # A new probe and pass start only if one more cycle like the last ones
    # still ends within --seconds, so a run lasts about --seconds.
    while len(untraced) < MIN_PASSES or time.monotonic() - started + max(cycles) <= args.seconds:
        cycle_start = time.monotonic()
        # Probes spread over the run, so a slow spell on the host hits only some.
        probes += [start_pass(args, out_dir, deadline, "--probe") for _ in range(PROBES_PER_PASS)]
        if args.trace and len(traced) < len(untraced):
            traced.append(start_pass(args, out_dir, deadline, "--traced"))
        else:
            untraced.append(start_pass(args, out_dir, deadline))
        cycles.append(time.monotonic() - cycle_start)

    passes = untraced + traced
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, probes)
    if sorted(metrics) != sorted(wanted):
        sys.exit(f"reported metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(wanted)}")

    digests = {r["digest"] for r in passes}
    command_lists = {tuple(op[0] for op in r["op_s"]) for r in passes}
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setup_probes": len(probes),
        "document_digest": sorted(digests),
        "failed_frac": failed / attempted,
        "wall_s": pass_time(untraced),
        "reference_s": statistics.median(s for r in untraced for s in r["ref_s"]),
        "setup_s": [r["setup_s"] for r in untraced + probes],
        "command_s": {c: [r["command_s"][c] for r in untraced] for c in COMMANDS if c in untraced[0]["command_s"]},
    }
    print(json.dumps(record))
    with open(out_dir / f"passes-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"passes": untraced, "traced": traced, "probes": probes}, fh)
    result = {
        "correct": failed == 0 and len(digests) == 1 and len(command_lists) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
