"""One workload in its own process: set up, run the closed loop, check, report.

Started by ``run.py``; prints one JSON object as its last line of output.
``--setup-only`` stops after set-up, for the extra set-up samples.

With ``--trace 0`` the loop runs whole passes until ``--seconds`` have gone
and records each op's latency (a uniform sample past LATENCY_CAP ops). With ``--trace 1`` it alternates an
untraced and a traced pass of identical work, so per-layer numbers refer to
one pass and their counts repeat exactly from run to run.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

from tracer import REPORTED_SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Latency samples kept per run. Past this, a seeded reservoir keeps a uniform
# sample of all ops, so memory stays fixed however fast ops are. (Keeping
# every k-th op instead would alias with the fixed order of a pass.)
LATENCY_CAP = 1 << 16
# A traced pass is not started once the spans held would pass this (26 bytes
# each).
SPAN_CAP = 4_000_000

# Op times are reported at a reference CPU speed. On a shared machine the
# CPU time of identical work drifts by 20-30 % over seconds, so a fixed
# pure-Python loop is timed at least every CALIB_INTERVAL_S, just before an
# op, and each op's wall time is scaled by CALIB_REF_S over that loop's time:
# the result reads as seconds on a CPU that runs the loop in CALIB_REF_S.
# The loop mixes integer arithmetic with calls, float math and small objects
# because the package's ops slowed unlike either kind alone.
CALIB_INT_STEPS = 50_000
CALIB_CALL_STEPS = 6_000
CALIB_REF_S = 0.005
CALIB_INTERVAL_S = 0.1


def mono() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _pair(x: float, y: float) -> _Pair:
    return _Pair(x * y, math.expm1(-x) + math.log1p(y))


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_INT_STEPS):
        total += i * i
    acc = 0.0
    for i in range(CALIB_CALL_STEPS):
        p = _pair(i * 1e-4, 0.5)
        acc += p.a + p.b
    return time.perf_counter() - start


class LatencySample:
    """Op wall times and their speed scales: all of them, or a uniform sample.

    Both arrays are allocated in full up front, so the memory they hold is
    the same in every run, however many ops it has.
    """

    def __init__(self, cap: int = LATENCY_CAP):
        self.cap = cap
        self._values = array("d", bytes(8 * cap))
        self._scales = array("d", bytes(8 * cap))
        self._random = random.Random(0).random
        self.seen = 0

    @property
    def n(self) -> int:
        return min(self.seen, self.cap)

    def add(self, seconds: float, scale: float) -> None:
        seen = self.seen
        self.seen = seen + 1
        i = seen if seen < self.cap else int(self._random() * (seen + 1))
        if i < self.cap:
            self._values[i] = seconds
            self._scales[i] = scale

    def wall(self) -> list[float]:
        return self._values[:self.n].tolist()

    def scaled(self) -> list[float]:
        return [v * s for v, s in zip(self._values[:self.n], self._scales[:self.n])]


def nearest_rank(values, percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) at `percentile` by nearest rank."""
    xs = sorted(values)
    rank = max(1, math.ceil(round(percentile * len(xs) / 100.0, 9)))
    return xs[rank - 1], len(xs) - rank


class Loop:
    """Runs passes of ops and tallies attempts, failures and latencies."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency = LatencySample()
        self.calibrations: list[float] = []
        self._calib = CALIB_REF_S
        self._calibrated_at = -math.inf

    def _calibrate(self) -> None:
        self._calib = calibrate()
        self.calibrations.append(self._calib)
        self._calibrated_at = time.perf_counter()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def run_pass(self) -> tuple[float, float]:
        """One pass over the ops; returns (wall, scaled) op time in seconds."""
        add = self.latency.add
        clock = time.perf_counter
        wall = scaled = 0.0
        for fn, check in self.ops:
            self.attempted += 1
            if clock() - self._calibrated_at >= CALIB_INTERVAL_S:
                self._calibrate()
            before = self._calib
            t0 = clock()
            try:
                result = fn()
            except Exception as exc:  # an op that raises is a failed op
                result, message = None, f"{type(exc).__name__}: {exc}"
            else:
                message = None
            dt = clock() - t0
            if dt >= CALIB_INTERVAL_S:
                # Speed drifts during a long op: use the loop timed on each side.
                self._calibrate()
                scale = 2.0 * CALIB_REF_S / (before + self._calib)
            else:
                scale = CALIB_REF_S / before
            add(dt, scale)
            wall += dt
            scaled += dt * scale
            if message is None:
                try:
                    message = check(result)
                except Exception as exc:  # an output that cannot be checked fails
                    message = f"check raised {type(exc).__name__}: {exc}"
            if message is not None:
                self.fail(message)
        return wall, scaled


def measure(loop: Loop, seconds: float, tail_percentile: float) -> dict:
    """End-to-end metrics of whole passes run for at least `seconds`."""
    passes = 0
    wall = scaled = 0.0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        pass_wall, pass_scaled = loop.run_pass()
        passes += 1
        wall += pass_wall
        scaled += pass_scaled
    # Read before the summary below, whose lists grow with the sample count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = loop.latency.seen
    scaled_latency = loop.latency.scaled()
    tail, beyond = nearest_rank(scaled_latency, tail_percentile)
    return {
        "metrics": {
            "ops_per_s": ops / scaled,
            "latency_p50_s": statistics.median(scaled_latency),
            "latency_tail_s": tail,
            "peak_rss_mb": peak_rss_mb,
        },
        "details": {
            "passes": passes,
            "ops": ops,
            "latency_samples": len(scaled_latency),
            "tail_percentile": tail_percentile,
            "tail_samples_beyond": beyond,
            "measured_s": time.perf_counter() - begin,
            "wall_ops_per_s": ops / wall,
            "wall_latency_p50_s": statistics.median(loop.latency.wall()),
            "calibrations": len(loop.calibrations),
            "calibration_median_s": statistics.median(loop.calibrations),
        },
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass (a ratio with a zero base reads 0)."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    m = {}
    for name in REPORTED_SPANS:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["observables.forecast.decoy_unique_ratio"] = _ratio(
        counts["forecast.decoy_unique"], calls("observables.forecast"))
    m["bounds.compute.feasible_ratio"] = _ratio(
        counts["bounds.compute.feasible"], calls("bounds.compute"))
    m["bounds.rate.positive_ratio"] = _ratio(
        counts["bounds.rate.positive"], calls("bounds.rate"))
    m["optimizer.searches"] = calls("optimizer.search")
    m["optimizer.evals_per_search"] = _ratio(
        counts["optimizer.evals"], calls("optimizer.search"))
    m["optimizer.self_s"] = self_s(*(n for n in summary if n.startswith("optimizer.")))
    m["optimizer.cutoff.grid_points"] = counts["optimizer.cutoff.grid_points"]
    m["optimizer.cutoff.bisect_points"] = counts["optimizer.cutoff.bisect_points"]
    m["config.resolve.self_s"] = self_s("config.resolve")
    m["config.manifest.self_s"] = self_s("config.manifest")
    m["cli.emit.rows"] = counts["cli.emit.rows"]
    m["cli.emit.bytes"] = counts["cli.emit.bytes"]
    m["cli.emit.self_s"] = self_s("cli.emit")
    return m


def measure_traced(loop: Loop, seconds: float) -> dict:
    """Per-layer metrics from alternating untraced and traced passes."""
    tracer = Tracer()
    untraced, traced, passes = [], [], []
    begin = time.perf_counter()
    while True:
        untraced.append(loop.run_pass()[1])
        patched = tracer.install()
        try:
            mark = tracer.mark()
            traced.append(loop.run_pass()[1])
            passes.append((mark[0], len(tracer.name), tracer.pass_counts(mark)))
        finally:
            tracer.uninstall()
        first_pass_spans = passes[0][1] - passes[0][0]
        if (time.perf_counter() - begin >= seconds
                or len(tracer.name) + first_pass_spans > SPAN_CAP):
            break
    # Spans are turned into per-layer numbers only now, after measuring.
    per_pass = [layer_metrics(tracer.summarize(a, b), c) for a, b, c in passes]
    metrics = {}
    mismatched = []
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("self_s"):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(key)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    for key in mismatched:
        loop.fail(f"traced count {key} differs between identical passes")
    return {
        "metrics": metrics,
        "details": {
            "traced_passes": len(passes),
            "spans": len(tracer.name),
            "patched": patched,
            "untraced_pass_s": statistics.median(untraced),
            "traced_pass_s": statistics.median(traced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC time at which the parent started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workdir)
    workload.setup()
    setup_s = mono() - args.spawned

    import decoy_hsps
    import numpy

    origin = Path(decoy_hsps.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        print(f"error: decoy_hsps imported from {origin}, not from {SRC_DIR}", file=sys.stderr)
        return 3
    # Set-up is scaled to the reference speed like op times (see CALIB_REF_S).
    out = {"setup_s": setup_s * CALIB_REF_S / calibrate(), "wall_setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    try:
        workload.make_inputs(args.seed)
        loop = Loop(workload.pass_ops())
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            if args.trace:
                result = measure_traced(loop, args.seconds)
            else:
                result = measure(loop, args.seconds, workload.tail_percentile)
    finally:
        workload.close()
    out.update(result)
    out.update(
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        numpy_version=numpy.__version__,
        package_version=decoy_hsps.__version__,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
