"""measengine benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): `sweep-grid`, `verify-default`, `cycle-stream`.
Each is one process and one client in a closed loop, without threads.

With `--trace 0` the run measures the workload untraced for `--seconds` and
reports the end-to-end metrics (BENCHMARK.json `end_to_end`).  With
`--trace 1` it reports the per-layer metrics instead: it runs a fixed amount
of the workload untraced and then again with every public function of the
package wrapped in spans (tracing.py), which gives per-operation call counts,
each module's self-time share and the tracing overhead; then it times each
layer's public calls untraced (microbench.py).  Spans are written to
`.bench_out/trace-<workload>.npz`.

Before the final line the run prints a report with the environment, the
workload's own metric names (`sweep_rows_per_s`, `cycle_p99_us`,
`failed_ratio`, ...) and any failure messages.  The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
`attempted` and `failed` count a fixed sample of operations (rows, checks or
requests; see workloads.py), so that they depend on the seed alone; the
report has the totals over every call of the run.  `correct` is
false when a whole call gave a wrong output (a CLI exit code, the sweep CSV
digest, the verify check count); a request whose numbers disagree is a
failed operation, so a known numeric defect shows in `failed`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from common import CALIBRATION_REF_S, OUT_DIR, ROOT, SpeedSampler, calibration_point, environment, load_package
from workloads import WORKLOADS

SETUP_PROBES = 9
SETUP_CALIBRATION_S = 0.05
WINDOW_S = 0.5  # throughput is a median over windows of calls this long
TRACE_BLOCKS = 10
MICRO_SHARE = 0.5  # share of --seconds a traced run spends on microbenchmarks

LAYERS = ("linalg", "states", "channels", "engine", "sweep", "verify", "cli")
PER_OP_COUNTS = {
    "linalg.as_square_matrix.calls_per_op": "linalg.as_square_matrix",
    "states.DensityMatrix.constructions_per_op": "states.DensityMatrix",
    "channels.KrausSet.constructions_per_op": "channels.KrausSet",
    "channels.validate_completeness.calls_per_op": "channels.validate_completeness",
}


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


@dataclass
class Measured:
    # numpy arrays, one entry per call.  Per-call data is kept in arrays so
    # that the benchmark's own memory hardly grows with the number of calls,
    # which depends on the machine's speed (peak_rss_mb is a gated metric).
    durations: object   # seconds, as timed, less the speed samples taken in the call
    normalized: object  # the same at the reference machine's speed
    window: object      # WINDOW_S window in which the call started
    attempted: int
    failed: int
    speed: float             # reference over median calibration unit


def measure(workload, seconds: float, min_calls: int, start: int = 0, between=None,
            sample_speed: bool = True) -> Measured:
    """Closed loop: call, then check, until `seconds` and `min_calls` are reached.

    Checking happens outside the timed region.  With `sample_speed`, a
    SpeedSampler runs throughout, and each call is scaled by the speed
    sampled during and around it.  `between(elapsed, paused)`, if given,
    runs after each check and returns the seconds it took, which extend
    the deadline; `paused` stops the sampler for work done there.
    """
    import numpy as np  # not at module level: a set-up probe times its import

    clock = time.perf_counter
    sampler = SpeedSampler()
    durations, starts, ends = array("d"), array("d"), array("d")
    attempted = failed = 0
    begin = clock()
    deadline = begin + seconds
    i = start
    with sampler.running() if sample_speed else contextlib.nullcontext():
        while len(durations) < min_calls or clock() < deadline:
            spent = sampler.spent
            t0 = clock()
            outcome = workload.call(i)
            t1 = clock()
            durations.append(t1 - t0 - (sampler.spent - spent))
            starts.append(t0)
            ends.append(t1)
            a, f = workload.check(outcome)
            attempted += a
            failed += f
            i += 1
            if between is not None:
                deadline += between(clock() - begin, sampler.paused)
    durations, starts = np.frombuffer(durations), np.frombuffer(starts)
    if sample_speed:
        normalized = durations * sampler.scales(starts, np.frombuffer(ends))
        speed = CALIBRATION_REF_S / statistics.median(sampler.units)
    else:
        normalized, speed = durations, float("nan")
    window = ((starts - begin) / WINDOW_S).astype(np.int64)
    return Measured(durations, normalized, window, attempted, failed, speed)


def setup_probe_seconds(workload: str, seed: int) -> tuple[float, float]:
    """One fresh interpreter's set-up time, as timed and at reference speed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    setup, calibration = (float(x) for x in done.stdout.split()[-2:])
    return setup, setup * CALIBRATION_REF_S / calibration


def setup_probe(workload: str, seed: int) -> None:
    """Import measengine and build the workload's inputs, then calibrate."""
    t0 = time.perf_counter()
    package = load_package()
    WORKLOADS[workload](package, seed, OUT_DIR)
    setup = time.perf_counter() - t0
    calibration = calibration_point(SETUP_CALIBRATION_S)
    print(repr(setup), repr(calibration))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(package, workload, args) -> tuple[dict, dict, int, int]:
    # Set-up probes are spread over the run, so that they see the same
    # machine conditions as the operations they are compared with.
    setup: list[tuple[float, float]] = []

    def probe_when_due(elapsed: float, paused) -> float:
        if len(setup) >= SETUP_PROBES or elapsed < len(setup) * args.seconds / SETUP_PROBES:
            return 0.0
        t0 = time.perf_counter()
        with paused():
            setup.append(setup_probe_seconds(args.workload, args.seed))
        return time.perf_counter() - t0

    run = measure(workload, args.seconds, workload.min_calls, between=probe_when_due)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe_seconds(args.workload, args.seed))
    ops_per_call = run.attempted / len(run.durations)

    import numpy as np

    _, in_window = np.unique(run.window, return_inverse=True)
    window_calls = np.bincount(in_window)

    def summary(durations, setup_times: list[float]) -> dict[str, float]:
        per_op_us = durations / ops_per_call * 1e6
        return {
            # Median over windows, so one stalled call cannot
            # move a run that makes only a few long calls.
            "ops_per_s": float(np.median(window_calls * ops_per_call / np.bincount(in_window, durations))),
            "op_p50_us": float(np.median(per_op_us)),
            # The highest percentile with at least ten samples beyond it
            # ("weibull" is statistics.quantiles' default method).
            "op_p99_us": float(np.percentile(per_op_us, 99, method="weibull")) if len(per_op_us) >= 1000 else None,
            "setup_s": statistics.median(setup_times),
        }

    normalized = summary(run.normalized, [s[1] for s in setup])
    metrics = {
        "ops_per_s": _metric(normalized["ops_per_s"], "1/s"),
        "op_p50_us": _metric(normalized["op_p50_us"], "us"),
        "setup_s": _metric(normalized["setup_s"], "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    report = {
        workload.throughput_name: normalized["ops_per_s"],
        "calls": len(run.durations),
        "normalized": normalized,
        "as_timed": summary(run.durations, [s[0] for s in setup]),
        "machine_speed": run.speed,
    }
    if workload.name == "cycle-stream":
        report["cycle_p50_us"] = normalized["op_p50_us"]
        report["cycle_p99_us"] = normalized["op_p99_us"]
        report["largest_failing_b"] = workload.failed_b_max
    return metrics, report, run.attempted, run.failed


def per_layer(package, workload, args) -> tuple[dict, dict, int, int]:
    from microbench import layer_cases, time_cases
    from tracing import Tracer

    # The same calls run untraced and then traced, block by block, so that
    # the overhead ratio of each block compares like with like.
    blocks = min(TRACE_BLOCKS, workload.trace_calls)
    per_block = workload.trace_calls // blocks
    tracer = Tracer()
    plain, traced = [], []
    attempted = failed = ops = checks = 0
    for block in range(blocks):
        start = block * per_block
        run = measure(workload, 0.0, per_block, start, sample_speed=False)
        plain.append(sum(run.durations))
        attempted, failed = attempted + run.attempted, failed + run.failed
        checks_before = getattr(workload, "checks_reported", 0)
        tracer.install(package)
        try:
            run = measure(workload, 0.0, per_block, start, sample_speed=False)
        finally:
            tracer.uninstall()
        traced.append(sum(run.durations))
        attempted, failed = attempted + run.attempted, failed + run.failed
        ops += run.attempted
        checks += getattr(workload, "checks_reported", 0) - checks_before
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{workload.name}.npz")

    wall = sum(traced)
    counts = tracer.counts()
    self_seconds = tracer.self_seconds_by_module()
    metrics = {
        name: _metric(counts.get(span, 0) / ops, "count") for name, span in PER_OP_COUNTS.items()
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _metric(self_seconds.get(layer, 0.0) / wall, "share")
    verify_calls = counts.get("verify.run_verification", 0)
    metrics["verify.checks_per_call"] = _metric(checks / verify_calls if verify_calls else 0, "count")
    metrics["sweep.bytes_written"] = _metric(getattr(workload, "bytes_written", 0), "bytes")
    metrics["trace.spans_per_op"] = _metric(len(tracer) / ops, "count")
    overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    metrics["trace.overhead_share"] = _metric(overhead, "share")
    micro = time_cases(layer_cases(package, args.seed), MICRO_SHARE * args.seconds)
    for name, value in micro.items():
        metrics[name] = _metric(value, name.rsplit(".", 1)[1])
    report = {
        "untraced_s": sum(plain),
        "traced_s": wall,
        "spans": len(tracer),
        "client_share": 1.0 - sum(self_seconds.values()) / wall,
    }
    return metrics, report, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one measengine benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    package = load_package()
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](package, args.seed, OUT_DIR)
    run = per_layer if args.trace else end_to_end
    metrics, report, attempted_all, failed_all = run(package, workload, args)
    attempted, failed = workload.sample
    report["failed_ratio"] = failed / attempted
    report["attempted_all"] = attempted_all
    report["failed_all"] = failed_all
    report["failed_ratio_all"] = failed_all / attempted_all
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "report": report,
        "problems": workload.problems[:20],
    }))
    for name, m in metrics.items():
        print(f"{name:<46} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not workload.broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
