"""The grid ledgers' raw bits, and what each grid computes once or only when read."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import WIDE_B, WIDE_GAMMA, WIDE_R, grid_states

from measengine import channels, engine, states, verify
from measengine.cli import main
from measengine.engine import (
    CycleGrid,
    CycleMode,
    GridLedger,
    run_analytic_grid,
    run_numeric_grid,
)
from measengine.sweep import SweepSpec, run_sweep
from measengine.verify import DEFAULT_B_GRID, DEFAULT_GAMMA_GRID, DEFAULT_R_GRID

GRID_LEDGER_VALUES = (*engine.LEDGER_FIELDS, "valid")


def _grid(mode: CycleMode, b, gamma, r) -> CycleGrid:
    if mode is CycleMode.THREE_STROKE:
        r = (1.0,)
    b, gamma, r = (np.array(axis) for axis in zip(*itertools.product(b, gamma, r)))
    return CycleGrid(b, gamma, mode, r)


def _ledgers():
    """(runner, grid) pairs: both runners of each mode on the default and the wide-range grid.

    The wide analytic grid adds the subnormal gamma 5e-324, where eta is -inf
    and no numeric cycle exists.
    """
    for mode in CycleMode:
        for b, gamma, r in ((DEFAULT_B_GRID, DEFAULT_GAMMA_GRID, DEFAULT_R_GRID),
                            (WIDE_B, WIDE_GAMMA, WIDE_R)):
            yield run_numeric_grid, _grid(mode, b, gamma, r)
            yield run_analytic_grid, _grid(mode, b, gamma, r)
        yield run_analytic_grid, _grid(mode, WIDE_B, (5e-324, *WIDE_GAMMA), WIDE_R)


def _ledger_values(run, grid: CycleGrid) -> list[np.ndarray]:
    """The GRID_LEDGER_VALUES of `run(grid)`, then the TP, QMI and QMII entropies and states."""
    ledger = run(grid)
    stacks, entropies = grid_states(run, grid)
    return [getattr(ledger, name) for name in GRID_LEDGER_VALUES] + [*entropies, *stacks]


# sha256 over the float64 bytes of every `_ledger_values` entry of every `_ledgers()` pair,
# recorded before `verify` settled its checks in one comparison.  A grid-only drift of one
# ulp shows here, where the 12-digit CSV and verify's failure-only output miss it.  The
# state stacks are hashed point-major, each state's four entries together, as the digest
# was recorded.
GRID_LEDGERS_DIGEST = "f99b3b72f4c6d20154cb97ac74feb455678bd5a547fd5c59b4430258c5618aa8"


def test_grid_ledgers_digest_is_pinned():
    h = hashlib.sha256()
    for run, grid in _ledgers():
        for value in _ledger_values(run, grid):
            h.update(np.ascontiguousarray(value.T, dtype=np.float64).tobytes())
    assert h.hexdigest() == GRID_LEDGERS_DIGEST


def test_grid_ledger_is_its_numbers_alone():
    """A grid ledger holds the LEDGER_FIELDS and valid; its grid holds the states."""
    names = [f.name for f in dataclasses.fields(GridLedger)]
    assert names == [*engine.LEDGER_FIELDS, "valid"]
    grid = _grid(CycleMode.FIVE_STROKE, DEFAULT_B_GRID, DEFAULT_GAMMA_GRID, DEFAULT_R_GRID)
    for run in (run_numeric_grid, run_analytic_grid):
        ledger = run(grid)
        assert list(vars(ledger)) == names
        assert all(getattr(ledger, name).shape == (len(grid),) for name in names)


def _count_calls(monkeypatch, name: str, home=channels) -> list[int]:
    """Patch every binding of a stack function in the package.

    Each call appends the number of points of its first argument, the last axis of an
    array (a state stack or a column); a call whose first argument is a channel appends None.
    """
    calls = []
    original = getattr(home, name)

    def counted(*args, **kwargs):
        first = args[0]
        calls.append(first.shape[-1] if isinstance(first, np.ndarray) else None)
        return original(*args, **kwargs)

    for module in (states, channels, engine, verify):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _count_subsets(monkeypatch) -> list[int]:
    """Patch `CycleGrid.subset`; each call appends the length of the grid it selects from."""
    calls = []
    subset = CycleGrid.subset

    def counted(grid, index):
        calls.append(len(grid))
        return subset(grid, index)

    monkeypatch.setattr(CycleGrid, "subset", counted)
    return calls


def test_default_verify_builds_each_state_stack_and_q_once(monkeypatch, capsys):
    validations = _count_calls(monkeypatch, "validate_state_stack")
    strengths = _count_calls(monkeypatch, "isentropic_strength_stack")
    applications = _count_calls(monkeypatch, "apply_unselective_stack")
    completeness = _count_calls(monkeypatch, "_completeness_terms")
    excitations = _count_calls(monkeypatch, "first_channel_stack")
    entropies = _count_calls(monkeypatch, "entropy_stack", home=states)
    subsets = _count_subsets(monkeypatch)
    assert main(["verify"]) == 0
    capsys.readouterr()
    # Every point is realizable: the b x gamma grid itself is evolved, not a copy of it.
    assert (excitations, subsets) == ([20], [])
    # One b x gamma grid: its thermal stack and the two evolved stacks, which the five-stroke
    # grid repeats over r; one q.  The analytic QMI and QMII stacks are never read, so never
    # built.  Completeness is formed by each application only: every default point is
    # realizable, so both completeness families read the deviations the applications checked.
    # The entropies of the 3 x 20 three-stroke states are the five-stroke ones, repeated.
    assert (len(validations), len(strengths)) == (3, 1)
    assert (len(applications), len(completeness)) == (2, 2)
    assert entropies == [3 * 20]


def test_mixed_verify_forms_the_excitation_channels_of_unevolved_points_only(monkeypatch,
                                                                             capsys):
    completeness = _count_calls(monkeypatch, "_completeness_terms")
    excitations = _count_calls(monkeypatch, "first_channel_stack")
    subsets = _count_subsets(monkeypatch)
    assert main(["verify", "--grid-b", "0.1,1", "--grid-gamma", "0.3,0.5,0.75",
                 "--grid-r", "1,2"]) == 0
    capsys.readouterr()
    # The 4 realizable of the 6 b x gamma points are selected once and evolved; the
    # excitation channels of the 2 at gamma 0.3 are formed for the excite family alone.
    assert (subsets, excitations) == ([6], [4, 2])
    assert len(completeness) == 3


def test_sweep_evolves_each_b_gamma_point_once(monkeypatch, tmp_path):
    """The benchmark's 20 b x 25 gamma x 4 r sweep, 7 gamma below 1/2: 360 realizable points."""
    validations = _count_calls(monkeypatch, "validate_state_stack")
    strengths = _count_calls(monkeypatch, "isentropic_strength_stack")
    applications = _count_calls(monkeypatch, "apply_unselective_stack")
    entropies = _count_calls(monkeypatch, "entropy_stack", home=states)
    b = np.logspace(np.log10(0.05), 1.0, 20).tolist()
    gamma = np.linspace(0.3, 1.0, 25).tolist()
    spec = SweepSpec("five", b, gamma, str(tmp_path / "grid.csv"), r_values=(1.0, 2.0, 5.0, 20.0))
    assert run_sweep(spec) == 2000
    # The thermal stack of the 20 b, the two evolved stacks of the 360 realizable (b, gamma)
    # points and the analytic QMI and QMII stacks of all 500, whose entropies are the CSV's.
    assert validations == [20, 360, 360, 500, 500]
    assert (len(applications), strengths) == (2, [500])
    assert entropies == [2 * 500]


def test_q_is_computed_once_and_sliced_by_subset(monkeypatch):
    strengths = _count_calls(monkeypatch, "isentropic_strength_stack")
    grid = _grid(CycleMode.FIVE_STROKE, DEFAULT_B_GRID, DEFAULT_GAMMA_GRID, DEFAULT_R_GRID)
    analytic = run_analytic_grid(grid)
    numeric = run_numeric_grid(grid.subset(slice(3, None)))
    assert len(strengths) == 1
    assert analytic.q_used is grid.q and not grid.q.flags.writeable
    assert numeric.q_used.tobytes() == grid.q[3:].tobytes()


log_b = st.floats(math.log(1e-8), math.log(700.0)).map(math.exp)
log_r = st.floats(0.0, math.log(1e6)).map(math.exp)
realizable_points = st.lists(st.tuples(log_b, st.floats(0.5, 1.0)), min_size=1, max_size=8)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(points=realizable_points, r=st.lists(log_r, min_size=1, max_size=4),
       mode=st.sampled_from(list(CycleMode)), read_first=st.booleans(), base_r=log_r)
def test_stretched_grid_is_the_directly_built_five_stroke_grid(points, r, mode, read_first,
                                                               base_r):
    """The states depend on (b, gamma) alone, so repeating them over r builds nothing again."""
    b, gamma = (np.array(axis) for axis in zip(*points))
    grid = CycleGrid(b, gamma, mode, np.full(len(b), 1.0 if mode is CycleMode.THREE_STROKE
                                             else base_r))
    if read_first:
        grid.entropies  # and so the evolved states
        grid.closed_form_entropies  # and so the closed-form states
    stretched = grid.stretched(r)
    direct = CycleGrid(b.repeat(len(r)), gamma.repeat(len(r)), CycleMode.FIVE_STROKE,
                       np.tile(r, len(b)))
    assert stretched.mode is direct.mode
    assert [name in stretched.__dict__ for name in engine._KEPT] == [read_first] * len(engine._KEPT)
    for name in ("b", "gamma", "r", "x", "th", "strength", "thermal", "q"):
        assert _same_bits(getattr(stretched, name), getattr(direct, name)), name
        assert not getattr(stretched, name).flags.writeable, name
    for run in (run_numeric_grid, run_analytic_grid):
        for value, expected in zip(_ledger_values(run, stretched), _ledger_values(run, direct),
                                   strict=True):
            assert _same_bits(value, expected)


@settings(max_examples=60, deadline=None)
@given(points=realizable_points, data=st.data())
def test_subset_after_the_states_are_read_is_the_subset_before(points, data):
    b, gamma = (np.array(axis) for axis in zip(*points))
    grid = CycleGrid(b, gamma, CycleMode.THREE_STROKE, np.ones_like(b))
    n = len(grid)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    start, stop = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    positions = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=int)
    indices = (mask, slice(start, stop), positions)
    before = [grid.subset(index) for index in indices]
    grid.entropies  # and so the evolved states
    grid.closed_form_entropies  # and so the closed-form states
    for index, early in zip(indices, before):
        late = grid.subset(index)
        for name in engine._KEPT:
            assert name in late.__dict__ and name not in early.__dict__
        for name in ("b", "gamma", "r", "x", "th", "strength", "thermal", "q"):
            assert _same_bits(getattr(late, name), getattr(early, name)), name
        for name in engine._KEPT:
            for kept, built in zip(getattr(late, name), getattr(early, name), strict=True):
                assert _same_bits(kept, built) and not kept.flags.writeable, name


def _negative_population(monkeypatch):
    measured = engine._measured

    def shifted(*args):
        ground, excited = measured(*args)
        return ground - 1.0, excited + 1.0  # unit trace, one population below 0

    monkeypatch.setattr(engine, "_measured", shifted)


@pytest.mark.parametrize("read", [
    pytest.param(lambda grid: grid.closed_form[0], id="states_qmi"),
    pytest.param(lambda grid: grid.closed_form[1], id="states_qmii"),
    pytest.param(lambda grid: grid.closed_form_entropies[0], id="entropy_qmi"),
])
def test_analytic_states_are_validated_when_first_read(monkeypatch, read):
    _negative_population(monkeypatch)
    grid = _grid(CycleMode.THREE_STROKE, (1.0,), (0.5, 0.8), (1.0,))
    run_analytic_grid(grid)  # the ledger's numbers read no state
    with pytest.raises(ValueError, match="negative eigenvalue"):
        read(grid)


def test_sweep_of_invalid_analytic_states_exits_2_and_leaves_no_file(monkeypatch, tmp_path,
                                                                      capsys):
    _negative_population(monkeypatch)
    out_path = tmp_path / "x.csv"
    code = main(["sweep", "--mode", "three", "--b-values", "1", "--gamma-values", "0.5,0.8",
                 "--out", str(out_path)])
    assert code == 2
    assert "negative eigenvalue" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
