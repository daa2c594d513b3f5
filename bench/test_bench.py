"""Tests of the benchmark itself: `python3 -m pytest bench -q`."""

from __future__ import annotations

import dataclasses
import signal
import time

import numpy as np
import pytest

from common import CALIBRATION_REF_S, SpeedSampler, load_package
from tracing import Tracer
from workloads import (
    DEFAULT_SEED,
    VERIFY_CHECKS,
    CycleStream,
    SweepGrid,
    VerifyDefault,
    cycle_requests,
    sweep_grid,
    sweep_row_failures,
)

measengine = load_package()
from measengine import sweep, verify  # noqa: E402  (importable only after load_package)


@pytest.mark.parametrize(
    ("mode", "gamma", "r", "expected"),
    [("five", 0.75, 2.0, 116), ("five", 0.4, 2.0, 40), ("three", 0.75, 1.0, 86)],
    ids=["five-realizable", "five-analytic-only", "three"],
)
def test_tracer_counts_as_square_matrix_per_sweep_row(mode, gamma, r, expected):
    tracer = Tracer()
    tracer.install(measengine)
    try:
        sweep.sweep_row(measengine.CycleParams(b=0.7, gamma=gamma, mode=mode, r=r))
    finally:
        tracer.uninstall()
    assert tracer.counts()["linalg.as_square_matrix"] == expected
    assert tracer.counts()["sweep.sweep_row"] == 1


def test_tracer_uninstall_restores_every_namespace():
    before = (measengine.linalg.matmul, measengine.channels.matmul, measengine.run_numeric,
              measengine.DensityMatrix.__post_init__)
    tracer = Tracer()
    tracer.install(measengine)
    assert measengine.channels.matmul is not before[1]
    tracer.uninstall()
    after = (measengine.linalg.matmul, measengine.channels.matmul, measengine.run_numeric,
             measengine.DensityMatrix.__post_init__)
    assert after == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "linalg.inner")
    outer = tracer.wrap(lambda: inner(), "engine.outer")
    outer()
    by_module = tracer.self_seconds_by_module()
    total = tracer.end[0] - tracer.start[0]
    assert tracer.parent[1] == 0
    assert by_module["engine"] + by_module["linalg"] == pytest.approx(total)


def test_speed_sampler_samples_inside_a_long_call():
    handler = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:  # one call that never returns to the loop
            pass
        t1 = time.perf_counter()
    assert len(sampler.units) >= 5 and all(t0 <= t <= t1 for t in sampler.times)
    assert 0 < sampler.spent < t1 - t0
    (scale,) = sampler.scales(np.array([t0]), np.array([t1]))
    assert scale == pytest.approx(CALIBRATION_REF_S * len(sampler.units) / sum(sampler.units))
    assert signal.getsignal(signal.SIGALRM) is handler


def test_sweep_grid_keeps_the_row_mix_for_every_seed():
    for seed in (DEFAULT_SEED, 2, 3, 99):
        b, gamma, r = sweep_grid(seed)
        assert len(b) * len(gamma) * len(r) == 2000
        assert sum(g < 0.5 for g in gamma) == 7
        assert list(b) == sorted(b) and list(gamma) == sorted(gamma)
    assert sweep_grid(5) == sweep_grid(5) != sweep_grid(6)


def test_cycle_requests_follow_the_seed():
    assert cycle_requests(4, 50) == cycle_requests(4, 50) != cycle_requests(5, 50)
    for mode, b, gamma, r in cycle_requests(4, 2000):
        assert 1e-8 <= b <= 700 and 0.5 <= gamma <= 1.0
        assert r == 1.0 if mode == "three" else 1.0 <= r <= 100.0


@pytest.fixture(scope="module")
def sweep_outcome(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sweep")
    workload = SweepGrid(measengine, DEFAULT_SEED, workdir)
    return workdir, workload.call(0)


def test_sweep_at_the_default_seed_matches_the_recorded_digest(sweep_outcome):
    workdir, outcome = sweep_outcome
    workload = SweepGrid(measengine, DEFAULT_SEED, workdir)
    assert workload.check(outcome) == (2000, 0)
    assert not workload.broken


def test_corrupted_expected_digest_fails_every_row(sweep_outcome):
    workdir, outcome = sweep_outcome
    workload = SweepGrid(measengine, DEFAULT_SEED, workdir)
    workload.expected_digest = "0" * 64
    assert workload.check(outcome) == (2000, 2000)
    assert workload.broken


def test_injected_row_errors_fail_their_rows(sweep_outcome):
    workdir, _ = sweep_outcome
    text = (workdir / "sweep.csv").read_text()
    grid = sweep_grid(DEFAULT_SEED)
    tolerances = (verify.TOL_ORACLE, verify.TOL_EXACT)
    assert sweep_row_failures(text, grid, *tolerances) == 0
    lines = text.splitlines()
    header = lines[0].split(",")
    eta, residual = header.index("eta_numeric"), header.index("first_law_residual")
    numeric_row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[eta])
    for column, value in ((eta, "0.123"), (residual, "1e-9")):
        cells = lines[numeric_row].split(",")
        cells[column] = value
        broken = lines[:numeric_row] + [",".join(cells)] + lines[numeric_row + 1:]
        assert sweep_row_failures("\n".join(broken), grid, *tolerances) == 1
    assert sweep_row_failures("\n".join(lines[:-3]), grid, *tolerances) == 3


def test_injected_ledger_error_fails_cycle_requests(monkeypatch):
    workload = CycleStream(measengine, DEFAULT_SEED, None)
    moderate = next(i for i, req in enumerate(workload.requests) if req[1] > 1e-3)
    assert workload.check(workload.call(moderate)) == (1, 0)

    run_numeric = measengine.run_numeric

    def off_by_a_tenth(params):
        ledger = run_numeric(params)
        return dataclasses.replace(ledger, eta=ledger.eta + 0.1)

    monkeypatch.setattr(measengine, "run_numeric", off_by_a_tenth)
    assert workload.check(workload.call(moderate)) == (1, 1)
    assert workload.failed_b_max == workload.requests[moderate][1]
    # The sample keeps the request's first verdict; the changed one breaks the run.
    assert workload.sample == (1, 0)
    assert workload.broken


def test_request_that_raises_is_a_failed_operation(monkeypatch):
    workload = CycleStream(measengine, DEFAULT_SEED, None)

    def refuse(params):
        raise ValueError("refused")

    monkeypatch.setattr(measengine, "run_analytic", refuse)
    assert workload.check(workload.call(0)) == (1, 1)
    assert "refused" in workload.problems[0]


def test_injected_ledger_error_fails_the_verify_run(monkeypatch):
    workload = VerifyDefault(measengine, DEFAULT_SEED, None)
    assert workload.check(workload.call(0)) == (VERIFY_CHECKS, 0)
    assert not workload.broken

    run_five = verify.run_five_stroke_numeric

    def q_out_off(params):
        ledger = run_five(params)
        return dataclasses.replace(ledger, q_out=ledger.q_out + 0.1)

    monkeypatch.setattr(verify, "run_five_stroke_numeric", q_out_off)
    assert workload.check(workload.call(1)) == (VERIFY_CHECKS, VERIFY_CHECKS)
    assert workload.broken
