"""The batched grid path against the scalar runners it must reproduce bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measengine import engine
from measengine.channels import IncompleteKrausSetError, first_channel_stack
from measengine.engine import (
    CycleGrid,
    CycleMode,
    CycleParams,
    first_law_residual,
    numeric_realizable,
    run_analytic,
    run_analytic_grid,
    run_numeric,
    run_numeric_grid,
)
from measengine.states import population_stack
from measengine.sweep import SweepSpec, run_sweep, sweep_row

LEDGER_FIELDS = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta", "q_used", "valid")

b_values = st.floats(math.log(1e-8), math.log(700.0)).map(math.exp)
gamma_values = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
r_values = st.floats(1.0, 100.0)


def same(batched: float, scalar: float) -> bool:
    return batched == scalar or (math.isnan(batched) and math.isnan(scalar))


def assert_columns_match(ledger, i: int, scalar) -> None:
    for field in LEDGER_FIELDS:
        assert same(getattr(ledger, field)[i], getattr(scalar, field)), field
    assert same(first_law_residual(ledger)[i], first_law_residual(scalar))
    assert same(ledger.entropy_qmi[i], scalar.stroke("QMI").entropy_after)
    assert same(ledger.entropy_qmii[i], scalar.stroke("QMII").entropy_after)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(list(CycleMode)),
    points=st.lists(st.tuples(b_values, gamma_values, r_values), min_size=1, max_size=12),
)
def test_grid_columns_equal_the_scalar_fields_bit_for_bit(mode, points):
    b, gamma, r = (np.array(axis) for axis in zip(*points))
    if mode is CycleMode.THREE_STROKE:
        r = np.ones_like(b)
    grid = CycleGrid(b, gamma, mode, r)
    analytic = run_analytic_grid(grid)
    realizable = np.flatnonzero(grid.realizable)
    numeric = run_numeric_grid(grid.subset(realizable))
    for i in range(len(grid)):
        params = grid.point(i)
        assert same(grid.strength[i], params.strength)
        assert grid.realizable[i] == numeric_realizable(params)
        assert_columns_match(analytic, i, run_analytic(params))
    for j, i in enumerate(realizable):
        assert_columns_match(numeric, j, run_numeric(grid.point(i)))


@pytest.mark.parametrize(
    ("mode", "r_values"), [("three", (1.0,)), ("five", (1.0, 2.0, 20.0))], ids=["three", "five"]
)
def test_sweep_row_is_the_matching_csv_line(tmp_path, mode, r_values):
    spec = SweepSpec(mode, (0.05, 1.0, 50.0), (0.0, 0.3, 0.5, 0.8, 1.0),
                     str(tmp_path / "grid.csv"), r_values=r_values)
    assert run_sweep(spec) == 3 * 5 * len(r_values)
    lines = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    points = [(b, g, r) for b in spec.b_values for g in spec.gamma_values for r in r_values]
    for line, (b, g, r) in zip(lines, points, strict=True):
        assert sweep_row(CycleParams(b=b, gamma=g, mode=mode, r=r)) == line


def _states_with(index, value):
    """population_stack with one entry of the first state overwritten."""

    def corrupted(populations):
        rho = population_stack(populations)
        rho[index] = value
        return rho

    return corrupted


def _scaled_kraus(p):
    return 1.001 * first_channel_stack(p)


@pytest.mark.parametrize(
    ("target", "replacement", "error", "message"),
    [
        ("first_channel_stack", _scaled_kraus, IncompleteKrausSetError, "completeness"),
        ("population_stack", _states_with((0, 0, 1), 1e-9), ValueError, "not Hermitian"),
        ("population_stack", _states_with(0, np.diag([0.5, 0.5 + 1e-9])), ValueError, "trace"),
        ("population_stack", _states_with(0, np.diag([1.0 + 1e-9, -1e-9])), ValueError,
         "negative eigenvalue"),
        ("population_stack", _states_with((0, 1, 1), np.nan), ValueError, "finite"),
    ],
    ids=["incomplete-kraus", "non-hermitian", "trace", "negative-eigenvalue", "nan"],
)
def test_corrupted_stack_aborts_the_sweep_without_a_file(
    tmp_path, monkeypatch, target, replacement, error, message
):
    monkeypatch.setattr(engine, target, replacement)
    spec = SweepSpec("five", (0.5, 2.0), (0.3, 0.75, 1.0), str(tmp_path / "x.csv"),
                     r_values=(1.0, 3.0))
    with pytest.raises(error, match=message):
        run_sweep(spec)
    assert list(tmp_path.iterdir()) == []
