"""Per-layer microbenchmarks: one timed public call per layer, untraced.

`layer_cases` builds, from a seed, a small set of inputs for each layer
timing that the traced run reports (`<layer>.<function>.us`, `cli.main.s`).
`time_cases` runs each case in passes (one call per input) and reports the
median over passes of the mean time per call, so the input mix of a pass is
fixed and a stalled pass does not move the result.  Times are given at the
reference machine's speed, like the end-to-end metrics of run.py.

Run as a script, it reproduces the ROADMAP Baseline table, including the
2000-row sweep and the default `run_verification()`:

    python3 bench/microbench.py --seconds 20 --seed 1
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import random
import statistics
import sys
import time

from common import CALIBRATION_REF_S, OUT_DIR, calibration_point, environment, load_package, run_cli
from workloads import DEFAULT_SEED, sweep_grid

INPUTS_PER_CASE = 8
CHUNK_S = 0.5


def layer_cases(pkg, seed: int) -> dict[str, list]:
    """Metric name -> zero-argument calls on seed-drawn, valid engine inputs."""
    linalg = importlib.import_module(f"{pkg.__name__}.linalg")
    sweep = importlib.import_module(f"{pkg.__name__}.sweep")
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    rng = random.Random(seed)
    qubit = pkg.Hamiltonian.qubit(1.0)

    def point(mode: str) -> tuple[float, float, float]:
        b = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        gamma = rng.uniform(0.5, 1.0)
        r = 1.0 if mode == "three" else math.exp(rng.uniform(0.0, math.log(20.0)))
        return b, gamma, r

    def params(mode: str):
        b, gamma, r = point(mode)
        return pkg.CycleParams(b=b, gamma=gamma, mode=mode, r=r)

    n = INPUTS_PER_CASE
    thermal = [pkg.gibbs_state(qubit, point("three")[0]) for _ in range(n)]
    populations = []
    for _ in range(n):
        p = rng.uniform(0.0, 1.0)
        populations.append(pkg.DensityMatrix.from_populations((p, 1.0 - p)).mat.copy())
    three = [params("three") for _ in range(n)]
    five = [params("five") for _ in range(n)]
    # One gamma line of the sweep grid: the same 18/7 numeric/analytic mix
    # as the sweep-grid workload.
    b_values, gamma_values, r_values = sweep_grid(seed)
    b, r = rng.choice(b_values), rng.choice(r_values)
    rows = [pkg.CycleParams(b=b, gamma=g, mode="five", r=r) for g in gamma_values]
    cycles = []
    for mode in ("three", "five"):
        for _ in range(2):
            b, gamma, r = point(mode)
            cycles.append(["cycle", "--mode", mode, "--b", repr(b), "--gamma", repr(gamma), "--r", repr(r)])

    def cli_cycle(argv):
        code, _, err = run_cli(cli.main, argv)
        if code != 0:
            raise RuntimeError(f"measengine {' '.join(argv)} exited {code}: {err.strip()}")

    part = functools.partial
    return {
        "linalg.eig_hermitian.us": [part(linalg.eig_hermitian, rho.mat) for rho in thermal],
        "states.DensityMatrix.us": [part(pkg.DensityMatrix, m) for m in populations],
        "channels.apply_unselective.us": [
            part(pkg.apply_unselective, pkg.first_channel(p.strength), pkg.gibbs_state(qubit, p.b))
            for p in three
        ],
        "engine.run_numeric.three.us": [part(pkg.run_numeric, p) for p in three],
        "engine.run_numeric.five.us": [part(pkg.run_numeric, p) for p in five],
        "engine.run_analytic.three.us": [part(pkg.run_analytic, p) for p in three],
        "engine.run_analytic.five.us": [part(pkg.run_analytic, p) for p in five],
        "sweep.sweep_row.us": [part(sweep.sweep_row, p) for p in rows],
        "cli.main.s": [part(cli_cycle, argv) for argv in cycles],
    }


def time_calls(calls: list, seconds: float, min_passes: int = 5) -> list[float]:
    """Per-pass mean seconds per call, over at least `min_passes` passes.

    Passes run in chunks of about CHUNK_S between calibration points, and
    each chunk is normalized to the reference machine's speed by the mean
    of the two points around it (see common.calibration_seconds).
    """
    clock = time.perf_counter
    means: list[float] = []
    deadline = clock() + seconds
    before = calibration_point()
    while len(means) < min_passes or clock() < deadline:
        chunk: list[float] = []
        chunk_end = clock() + CHUNK_S
        while not chunk or clock() < chunk_end:
            t0 = clock()
            for call in calls:
                call()
            chunk.append((clock() - t0) / len(calls))
        after = calibration_point()
        scale = 2.0 * CALIBRATION_REF_S / (before + after)
        means += [t * scale for t in chunk]
        before = after
    return means


def time_cases(cases: dict[str, list], seconds: float) -> dict[str, float]:
    """Median per-call time of each case, in the unit its name ends with."""
    scale = {"us": 1e6, "ms": 1e3, "s": 1.0}
    share = seconds / len(cases)
    return {
        name: statistics.median(time_calls(calls, share)) * scale[name.rsplit(".", 1)[1]]
        for name, calls in cases.items()
    }


def _baseline(package, seed: int, seconds: float) -> dict[str, dict[str, float]]:
    """The ROADMAP Baseline rows: mean and median of each, in ms at reference speed."""
    sweep = importlib.import_module(f"{package.__name__}.sweep")
    layers = layer_cases(package, seed)
    del layers["cli.main.s"]
    b_values, gamma_values, r_values = sweep_grid(seed)
    OUT_DIR.mkdir(exist_ok=True)
    spec = sweep.SweepSpec("five", b_values, gamma_values, str(OUT_DIR / "baseline-sweep.csv"),
                           r_values=r_values)

    def sweep_once():
        if sweep.run_sweep(spec) != 2000:
            raise RuntimeError("baseline sweep did not write 2000 rows")

    whole_runs = {
        "sweep.run_sweep 2000 rows": [sweep_once],
        "verify.run_verification default grid": [package.run_verification],
    }
    result = {}
    for group in (layers, whole_runs):
        for name, calls in group.items():
            samples = time_calls(calls, 0.5 * seconds / len(group), min_passes=3)
            result[name] = {
                "mean_ms": statistics.fmean(samples) * 1e3,
                "median_ms": statistics.median(samples) * 1e3,
                "passes": len(samples),
                "calls_per_pass": len(calls),
            }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    package = load_package()
    before = calibration_point()
    baseline = _baseline(package, args.seed, args.seconds)
    after = calibration_point()
    print(json.dumps({
        "environment": environment(args.seed),
        "machine_speed": 2.0 * CALIBRATION_REF_S / (before + after),
        "baseline": baseline,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
