"""Benchmark of the decoy_hsps package: figures, cutoff and counts workloads.

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Workloads: figures, cutoff, counts, or all three in turn (see
bench/README.md). Run from a checkout of the repository; the package is
imported from its src/ directory.

With --trace 0 the output reports the end-to-end metrics: set-up time (the
median over several fresh processes), ops per second, median and tail op
latency, and peak resident memory. With --trace 1 it reports the per-layer
metrics of a traced run. Every op's output is checked. Human-readable lines
and a JSON report with the environment come first; the last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOAD_NAMES = ("figures", "cutoff", "counts")

# Set-up is sampled in this many extra processes besides the measuring one.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60.0
# Slack beyond --seconds for the last pass, the checks and the trace summary.
WORKER_SLACK_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "sources.post_selection.calls": "count",
    "sources.post_selection.self_s": "s",
    "channel.transmittance.calls": "count",
    "channel.transmittance.self_s": "s",
    "observables.forecast.calls": "count",
    "observables.forecast.self_s": "s",
    "observables.forecast.decoy_unique_ratio": "ratio",
    "observables.from_counts.calls": "count",
    "observables.from_counts.self_s": "s",
    "bounds.compute.calls": "count",
    "bounds.compute.self_s": "s",
    "bounds.compute.feasible_ratio": "ratio",
    "bounds.ideal.calls": "count",
    "bounds.ideal.self_s": "s",
    "bounds.rate.calls": "count",
    "bounds.rate.self_s": "s",
    "bounds.rate.positive_ratio": "ratio",
    "optimizer.searches": "count",
    "optimizer.evals_per_search": "evals/search",
    "optimizer.self_s": "s",
    "optimizer.cutoff.grid_points": "count",
    "optimizer.cutoff.bisect_points": "count",
    "config.resolve.self_s": "s",
    "config.manifest.self_s": "s",
    "cli.emit.rows": "count",
    "cli.emit.bytes": "bytes",
    "cli.emit.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    """Machine record, so a noisy run can be told from a regression."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_worker(workload: str, args, workdir: Path, setup_only: bool, timeout: float) -> dict:
    """Start one worker process, wait for it, and return its JSON report."""
    argv = [sys.executable, str(WORKER),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, args) -> int:
    """Measure one workload and print its metrics, details and result."""
    env = environment()
    workdir = BENCH_DIR / "_work" / f"{workload}-{os.getpid()}"
    try:
        probes = [] if args.trace else [
            run_worker(workload, args, workdir, True, PROBE_TIMEOUT_S)
            for _ in range(SETUP_PROBES)]
        report = run_worker(workload, args, workdir, False, args.seconds + WORKER_SLACK_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(report["metrics"])
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    details = dict(report["details"])
    if not args.trace:
        probes.append(report)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        details["setup_samples_s"] = [p["setup_s"] for p in probes]
        details["wall_setup_s"] = statistics.median(p["wall_setup_s"] for p in probes)
    attempted, failed = report["attempted"], report["failed"]
    details["fail_ratio"] = failed / attempted if attempted else 1.0
    env.update(numpy=report["numpy_version"], package=report["package_version"])

    for name, unit in units.items():
        print(f"{workload:8s} {name:42s} {metrics[name]:.6g} {unit}")
    print(f"{workload:8s} {'fail_ratio':42s} {details['fail_ratio']:.6g} "
          f"({failed} of {attempted} ops)")
    if not args.trace:
        print(f"{workload:8s} latency_tail_s is p{details['tail_percentile']:g} of "
              f"{details['latency_samples']} samples, {details['tail_samples_beyond']} "
              f"beyond it ({details['ops']} ops)")
    for message in report["errors"]:
        print(f"{workload:8s} FAILED: {message}")
    print(json.dumps({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": env, "details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all three in turn, each with its own result line")
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; only counts uses it, figures and cutoff have fixed inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "decoy_hsps" / "__init__.py").is_file():
        print(f"error: no decoy_hsps package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = run_workload(workload, args)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
