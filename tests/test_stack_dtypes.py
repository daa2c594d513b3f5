"""The dtype contract of the stack path: float64 only, complex input refused.

Both engine channels have real Kraus operators and the cycle never makes
a coherence, so the grid engine's stacks and channel columns are float64.
Every state-stack entry point refuses a complex stack with a ValueError,
without casting it; a complex channel gives a complex output, which the
same check refuses.
"""

import numpy as np
import pytest
from support import state_rows

from measengine import channels
from measengine.channels import (
    apply_unselective_stack,
    first_channel_stack,
    second_channel_stack,
)
from measengine.engine import CycleGrid
from measengine.linalg import as_matrix_stack
from measengine.states import (
    entropy_stack,
    mean_energy_stack,
    validate_state_stack,
)

F64 = np.dtype(np.float64)
STRENGTHS = np.array([0.0, 0.3, 0.7, 1.0])
POPULATIONS = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5], [0.1, 0.9]])
RHO = state_rows([np.diag(populations) for populations in POPULATIONS])
REAL_PATTERN = r"^matrix entries must be real$"


@pytest.mark.parametrize("entries", [
    state_rows(np.eye(2)[None]),
    state_rows(np.eye(2, dtype=int)[None]),
    state_rows(np.eye(2, dtype=np.float32)[None]),
    [[1.0], [0.0], [0.0], [1.0]],
], ids=["float64", "int", "float32", "list"])
def test_as_matrix_stack_makes_real_input_float64(entries):
    a = as_matrix_stack(entries)
    assert a.dtype == F64
    assert np.array_equal(a, [[1.0], [0.0], [0.0], [1.0]])


@pytest.mark.parametrize("entries", [
    state_rows(np.eye(2, dtype=complex)[None]),
    np.array([[1 + 0j], [0j], [0j], [1 + 0j]], dtype=object),
    [[1.0], [0.0], [0.0], [1 + 0j]],
], ids=["complex128", "object-complex", "list-complex"])
def test_as_matrix_stack_refuses_complex_input(entries):
    # Even with zero imaginary parts: no cast, so no ComplexWarning and no dropped part.
    # An object array is refused whatever it holds.
    with pytest.raises(ValueError, match=REAL_PATTERN):
        as_matrix_stack(entries)


def test_builders_are_float64():
    # The grid's state stacks are built by `CycleGrid`: see
    # `test_grid_states_are_float64`.
    # A grid channel's varying entries are float64 columns, its fixed zeros the exact zero
    # `_ZERO` and its fixed one the float 1.0.
    for make in (first_channel_stack, second_channel_stack):
        entries = [v for op in make(STRENGTHS) for v in op]
        assert [v.dtype for v in entries if type(v) is np.ndarray] == [F64] * 2
        assert [v for v in entries if type(v) is float] == [1.0]
        assert sum(v is channels._ZERO for v in entries) == 5


def _complex(ops):
    """The channel with complex columns and numbers; the exact zero is kept as it is."""
    return tuple(tuple(v if v is channels._ZERO else
                       v.astype(complex) if type(v) is np.ndarray else complex(v) for v in op)
                 for op in ops)


@pytest.mark.parametrize("make", [first_channel_stack, second_channel_stack])
def test_every_stack_entry_point_refuses_complex_stacks(make):
    # A complex channel passes completeness where its values are real, and its output is refused.
    kraus, rho = make(STRENGTHS), RHO
    assert [a.dtype for a in apply_unselective_stack(kraus, rho)] == [F64, F64]
    for call in (lambda: validate_state_stack(rho.astype(complex)),
                 lambda: apply_unselective_stack(_complex(kraus), rho),
                 lambda: apply_unselective_stack(kraus, rho.astype(complex)),
                 lambda: mean_energy_stack(rho.astype(complex), 1.0),
                 lambda: entropy_stack(rho.astype(complex))):
        with pytest.raises(ValueError, match=REAL_PATTERN):
            call()


def test_apply_unselective_stack_checks_the_state_stack_before_any_arithmetic(monkeypatch):
    kraus, rho = first_channel_stack(STRENGTHS), RHO
    expected, _ = apply_unselective_stack(kraus, rho)
    assert np.array_equal(apply_unselective_stack(kraus, rho.tolist())[0], expected)

    def no_arithmetic(*args):
        raise AssertionError("the channel ran on an unchecked state stack")

    monkeypatch.setattr(channels, "_completeness_terms", no_arithmetic)
    monkeypatch.setattr(channels, "_evolve", no_arithmetic)
    with pytest.raises(ValueError, match=REAL_PATTERN):
        apply_unselective_stack(kraus, rho.astype(complex))
    # One state, as its matrix or as its four entries, is not a stack of them.
    for state, shown in ((np.diag(POPULATIONS[0]), r"\(2, 2\)"), (rho[:, 0], r"\(4,\)")):
        pattern = rf"^expected a \(4, N\) state stack, got shape {shown}$"
        with pytest.raises(ValueError, match=pattern):
            apply_unselective_stack(kraus, state)


@pytest.mark.parametrize(("mode", "r"), [("three", 1.0), ("five", 3.0)])
def test_grid_states_are_float64(mode, r):
    grid = CycleGrid(np.array([0.1, 2.0, 700.0]), np.array([0.5, 0.8, 1.0]), mode, np.full(3, r))
    assert grid.thermal.dtype == F64 and grid.thermal.shape == (4, 3)
    for states in (*grid.evolved[:2], *grid.closed_form):
        assert states.dtype == F64 and states.shape == (4, 3)
