"""The batched grid path against the scalar runners it must reproduce bit for bit."""

import hashlib
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import WIDE_B, WIDE_GAMMA, WIDE_R, grid_states

from measengine import engine, states, sweep
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
from measengine.linalg import _distinct
from measengine.states import entropy_stack, gibbs_state
from measengine.sweep import SweepSpec, run_sweep, sweep_row

LEDGER_FIELDS = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta", "q_used", "valid")

b_values = st.floats(math.log(1e-8), math.log(700.0)).map(math.exp)
# gamma 5e-324 is subnormal: 1/gamma overflows and eta is -inf.  Just below 1/2, within
# the roundoff slack of the partner threshold, q falls below -1e-12 where x is small.
gamma_values = st.one_of(st.sampled_from((0.0, 5e-324, 0.5, 1.0)), st.floats(0.0, 1.0),
                         st.floats(0.5 - 1e-12, 0.5, exclude_min=True, exclude_max=True))
r_values = st.one_of(st.floats(1.0, 100.0), st.floats(0.0, math.log(1e6)).map(math.exp))


def same(batched: float, scalar: float) -> bool:
    return batched == scalar or (math.isnan(batched) and math.isnan(scalar))


def same_entries(column: np.ndarray, state) -> bool:
    """Whether a state stack's column is `state.entries`, bit for bit (the sign of a zero too)."""
    entries = state.entries
    return tuple(column.tolist()) == entries and column.tobytes() == np.array(entries).tobytes()


def assert_states_match(stacks: tuple[np.ndarray, ...], i: int, scalar) -> None:
    """Column i of each grid state stack, TP, QMI and QMII, is the scalar record's state."""
    for stroke, stack in zip(("TP", "QMI", "QMII"), stacks, strict=True):
        assert same_entries(stack[:, i], scalar.stroke(stroke).state_after), stroke


def assert_columns_match(ledger, held, i: int, scalar) -> None:
    """Point i of a grid ledger and of `held`, its `grid_states`, is the scalar ledger's."""
    for field in LEDGER_FIELDS:
        assert same(getattr(ledger, field)[i], getattr(scalar, field)), field
    assert same(first_law_residual(ledger)[i], first_law_residual(scalar))
    stacks, entropies = held
    for stroke, entropy in zip(("TP", "QMI", "QMII"), entropies, strict=True):
        assert same(entropy[i], scalar.stroke(stroke).entropy_after), stroke
    assert_states_match(stacks, i, scalar)


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
    analytic = run_analytic_grid(grid), grid_states(run_analytic_grid, grid)
    realizable = np.flatnonzero(grid.realizable)
    evolved = grid.subset(realizable)
    numeric = run_numeric_grid(evolved), grid_states(run_numeric_grid, evolved)
    for i in range(len(grid)):
        params = grid.point(i)
        for name in ("x", "th", "strength", "q"):
            assert same(getattr(grid, name)[i], getattr(params, name)), name
        assert same_entries(grid.thermal[:, i], params.thermal)
        assert grid.realizable[i] == numeric_realizable(params)
        assert_columns_match(*analytic, i, run_analytic(params))
    for j, i in enumerate(realizable):
        assert_columns_match(*numeric, j, run_numeric(grid.point(i)))


@pytest.mark.parametrize("mode", list(CycleMode))
def test_grid_states_are_the_scalar_states_on_the_wide_range_grid(mode):
    """One state format: a grid state is its scalar state's entries, for both runners."""
    r = WIDE_R if mode is CycleMode.FIVE_STROKE else (1.0,)
    grid = CycleGrid.product(WIDE_B, WIDE_GAMMA, r, mode).stretched(r, mode)
    assert len(grid) == len(WIDE_B) * len(WIDE_GAMMA) * len(r)
    for run_grid, run in ((run_numeric_grid, run_numeric), (run_analytic_grid, run_analytic)):
        stacks, _ = grid_states(run_grid, grid)
        for i in range(len(grid)):
            assert_states_match(stacks, i, run(grid.point(i)))


def assert_same_grid(subset: CycleGrid, fresh: CycleGrid) -> None:
    assert subset.mode is fresh.mode
    for name in ("b", "gamma", "r", "x", "th", "strength", "thermal", "q"):
        column = getattr(subset, name)
        assert column.dtype == getattr(fresh, name).dtype
        assert column.tobytes() == getattr(fresh, name).tobytes(), name
        assert not column.flags.writeable, name


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(list(CycleMode)),
    points=st.lists(st.tuples(st.sampled_from((0.1, 1.0, 5.0)) | b_values, gamma_values,
                              r_values), min_size=1, max_size=12),
    data=st.data(),
)
def test_subset_is_a_fresh_grid_of_the_same_points(mode, points, data):
    b, gamma, r = (np.array(axis) for axis in zip(*points))
    if mode is CycleMode.THREE_STROKE:
        r = np.ones_like(b)
    grid = CycleGrid(b, gamma, mode, r)
    n = len(grid)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    start, stop = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    positions = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=int)
    for index in (mask, slice(start, stop), positions):
        assert_same_grid(grid.subset(index),
                         CycleGrid(b[index], gamma[index], mode, r[index]))


@settings(max_examples=60, deadline=None)
@given(st.lists(b_values, min_size=1, max_size=17), st.sampled_from(list(CycleMode)))
def test_grid_thermal_stack_is_gibbs_state_per_point(b, mode):
    b = np.array(b)
    grid = CycleGrid(b, np.ones_like(b), mode, np.ones_like(b))
    assert grid.thermal.shape == (4, len(b)) and not grid.thermal.flags.writeable
    for i, v in enumerate(b.tolist()):
        assert same_entries(grid.thermal[:, i], gibbs_state(engine._H1, v))


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(list(CycleMode)),
    points=st.lists(st.tuples(b_values, st.floats(0.5, 1.0), r_values), min_size=1, max_size=12),
)
def test_one_entropy_pass_is_entropy_stack_of_each_state_stack(mode, points):
    b, gamma, r = (np.array(axis) for axis in zip(*points))
    if mode is CycleMode.THREE_STROKE:
        r = np.ones_like(b)
    grid = CycleGrid(b, gamma, mode, r)
    for run in (run_numeric_grid, run_analytic_grid):
        for stack, entropy in zip(*grid_states(run, grid), strict=True):
            assert np.array_equal(entropy, entropy_stack(stack))


@pytest.mark.parametrize(("mode", "r"), [("three", 1.0), ("five", 2.0)])
def test_subnormal_gamma_gives_the_scalar_eta_without_a_warning(mode, r):
    params = CycleParams(b=1.0, gamma=1e-310, mode=mode, r=r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eta = run_analytic_grid(CycleGrid((1.0,), (1e-310,), mode, (r,))).eta
    assert eta[0] == run_analytic(params).eta == -math.inf


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


def _fmt(x: float) -> str:
    """The CSV cell of one value, one float at a time: the rule `sweep._cells` must follow."""
    if math.isnan(x):
        return ""
    if x == 0.0:
        return "0"  # fold negative zero
    return f"{x:.12g}"


cell_values = st.one_of(
    st.sampled_from((0.5, 1e300, -1e300, 5e-324, -1e-310, 2.2250738585072014e-308,
                     math.inf, -math.inf)),
    st.floats(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(cell_values, min_size=1, max_size=30).flatmap(
        # each value with its neighbour (most print alike at 12 digits), a
        # repeat, and NaN, +0.0 and -0.0 in every column
        lambda base: st.permutations(
            base + [math.nextafter(v, math.inf) for v in base] + base + [math.nan, 0.0, -0.0]
        )
    )
)
def test_cells_format_every_entry_as_fmt(column):
    # The drawn mix, and the two layouts where only one side of the NaN split is non-empty.
    nan_free = [v for v in column if not math.isnan(v)]
    for layout in (column, nan_free, [math.nan] * len(column)):
        values = np.array(layout)
        assert sweep._cells(values).tolist() == [_fmt(v) for v in layout]
        # One value at a time (`cycle`'s numbers), where NaN reads "nan".
        assert [sweep._cell(v) for v in layout] == [_fmt(v) or "nan" for v in layout]
        table = np.stack((values, values[::-1]), axis=1)
        expected = [[_fmt(a), _fmt(b)] for a, b in table.tolist()]
        assert sweep._cells(table).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False), max_size=40).flatmap(
        # heavy repeats: every value drawn from a small pool, which may hold one value only
        lambda pool: st.lists(st.sampled_from(pool), max_size=200) if pool else st.just([])
    )
)
def test_distinct_is_np_unique_with_inverse(flat):
    flat = np.array(flat, dtype=float)
    values, inverse = _distinct(flat)
    expected, expected_inverse = np.unique(flat, return_inverse=True)
    # np.unique takes one of two equal zeros from an unstable sort; every other value
    # of a run of equal floats has the same bits.
    assert (values + 0.0).tobytes() == (expected + 0.0).tobytes()
    assert inverse.dtype == expected_inverse.dtype
    assert np.array_equal(inverse, expected_inverse.reshape(-1))


@pytest.mark.parametrize("flat", [[], [2.5], [7.0] * 50], ids=["empty", "single", "all-equal"])
def test_distinct_edge_cases_are_np_unique_bit_for_bit(flat):
    flat = np.array(flat, dtype=float)
    values, inverse = _distinct(flat)
    expected, expected_inverse = np.unique(flat, return_inverse=True)
    assert values.tobytes() == expected.tobytes() and values.dtype == expected.dtype
    assert inverse.tobytes() == expected_inverse.reshape(-1).tobytes()


def test_multi_chunk_csv_digest_is_pinned(tmp_path):
    """A five-stroke sweep over the physical range in three chunks, as first recorded.

    b runs in half decades from 1e-8 up to 700, where exp(-b) nears
    underflow; gamma includes 0, the subnormal 5e-324 (eta_analytic is
    -inf there) and the edges 1/2 and 1 of the numeric range.
    """
    b_values = tuple(float(f"{m}e{k}") for k in range(-8, 3) for m in (1, 3)) + (700.0,)
    gamma_values = (0.0, 5e-324, 0.1, 0.3, 0.45, 0.5, 0.6, 0.75, 0.9, 1.0)
    r_values = (1.0, 1.5, 2.0, 5.0, 10.0, 100.0)
    spec = SweepSpec("five", b_values, gamma_values, str(tmp_path / "range.csv"), r_values)
    rows = run_sweep(spec)
    assert rows == 1380 and rows > 2 * sweep.CHUNK_ROWS
    data = (tmp_path / "range.csv").read_bytes()
    assert b",-inf," in data
    assert hashlib.sha256(data).hexdigest() == (
        "3618d5b89a472419f45a745f3b63c0f96aedfefcf046ddfcf5ef17640acba32d"
    )


def test_chunk_boundaries_leave_the_csv_unchanged(tmp_path, monkeypatch):
    spec = SweepSpec("five", (0.05, 1.0, 50.0), (0.0, 0.3, 0.5, 0.8, 1.0),
                     str(tmp_path / "default.csv"), r_values=(1.0, 3.0))
    assert run_sweep(spec) == 30
    data = (tmp_path / "default.csv").read_bytes()
    # Engine batches of one (b, gamma) point (BATCH_ROWS = len(r), and 1 < len(r)), of two
    # points (5 rows), and of the whole grid; each formatted in 512-row slices and in slices
    # of 7 (7, 7, 7, 7 and 2 rows from the whole grid).
    for batch_rows, chunk_rows in itertools.product((2, 1, 5, 30), (512, 7)):
        monkeypatch.setattr(sweep, "BATCH_ROWS", batch_rows)
        monkeypatch.setattr(sweep, "CHUNK_ROWS", chunk_rows)
        path = tmp_path / f"{batch_rows}-{chunk_rows}.csv"
        assert run_sweep(replace(spec, output_path=str(path))) == 30
        assert path.read_bytes() == data, (batch_rows, chunk_rows)
    text = data.decode("ascii")
    points = [(b, g, r) for b in spec.b_values for g in spec.gamma_values for r in spec.r_values]
    for line, (b, g, r) in zip(text.splitlines()[1:], points, strict=True):
        assert sweep_row(CycleParams(b=b, gamma=g, mode="five", r=r)) == line


def _states_with(index, value):
    """`states.validate_state_stack`, handed its stack with `value` written at `index`."""
    validate = states.validate_state_stack

    def corrupted(rho):
        rho = rho.copy()
        rho[index] = value
        return validate(rho)

    return corrupted


def _scaled_kraus(p):
    return tuple(tuple(1.001 * v for v in op) for op in first_channel_stack(p))


@pytest.mark.parametrize(
    ("home", "target", "replacement", "error", "message"),
    [
        (engine, "first_channel_stack", _scaled_kraus, IncompleteKrausSetError, "completeness"),
        # Entry (0, 1), then the whole, then entry (1, 1) of the first state: the thermal stack.
        (states, "validate_state_stack", _states_with((1, 0), 1e-9), ValueError, "not Hermitian"),
        (states, "validate_state_stack",
         _states_with((slice(None), 0), (0.5, 0.0, 0.0, 0.5 + 1e-9)), ValueError, "trace"),
        (states, "validate_state_stack",
         _states_with((slice(None), 0), (1.0 + 1e-9, 0.0, 0.0, -1e-9)),
         ValueError, "negative eigenvalue"),
        (states, "validate_state_stack", _states_with((3, 0), np.nan), ValueError, "finite"),
    ],
    ids=["incomplete-kraus", "non-hermitian", "trace", "negative-eigenvalue", "nan"],
)
def test_corrupted_stack_aborts_the_sweep_without_a_file(
    tmp_path, monkeypatch, home, target, replacement, error, message
):
    monkeypatch.setattr(home, target, replacement)
    spec = SweepSpec("five", (0.5, 2.0), (0.3, 0.75, 1.0), str(tmp_path / "x.csv"),
                     r_values=(1.0, 3.0))
    with pytest.raises(error, match=message):
        run_sweep(spec)
    assert list(tmp_path.iterdir()) == []
