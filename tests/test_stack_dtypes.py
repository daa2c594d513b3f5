"""The dtype contract of the stack path: float64 only, complex input refused.

Both engine channels have real Kraus operators and the cycle never makes
a coherence, so the grid engine's stacks are float64.  Every stack entry
point refuses a complex stack with a ValueError, without casting it.
"""

import numpy as np
import pytest

from measengine.channels import (
    apply_unselective_stack,
    completeness_deviation_stack,
    first_channel_stack,
    second_channel_stack,
)
from measengine.engine import CycleGrid, run_analytic_grid, run_numeric_grid
from measengine.linalg import as_matrix_stack
from measengine.states import population_stack, validate_state_stack

F64 = np.dtype(np.float64)
STRENGTHS = np.array([0.0, 0.3, 0.7, 1.0])
POPULATIONS = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5], [0.1, 0.9]])
REAL_PATTERN = r"^matrix entries must be real$"


@pytest.mark.parametrize("entries", [
    np.eye(2)[None],
    np.eye(2, dtype=int)[None],
    np.eye(2, dtype=np.float32)[None],
    [[[1.0, 0.0], [0.0, 1.0]]],
], ids=["float64", "int", "float32", "list"])
def test_as_matrix_stack_makes_real_input_float64(entries):
    a = as_matrix_stack(entries)
    assert a.dtype == F64
    assert np.array_equal(a, np.eye(2)[None])


@pytest.mark.parametrize("entries", [
    np.eye(2, dtype=complex)[None],
    np.array([[[1 + 0j, 0j], [0j, 1 + 0j]]], dtype=object),
    [[[1.0, 0.0], [0.0, 1 + 0j]]],
], ids=["complex128", "object-complex", "list-complex"])
def test_as_matrix_stack_refuses_complex_input(entries):
    # Even with zero imaginary parts: no cast, so no ComplexWarning and no dropped part.
    # An object array is refused whatever it holds.
    with pytest.raises(ValueError, match=REAL_PATTERN):
        as_matrix_stack(entries)


def test_builders_are_float64():
    assert population_stack(POPULATIONS).dtype == F64
    assert first_channel_stack(STRENGTHS).dtype == F64
    assert second_channel_stack(STRENGTHS).dtype == F64


@pytest.mark.parametrize("make", [first_channel_stack, second_channel_stack])
def test_every_stack_entry_point_refuses_complex_stacks(make):
    kraus, rho = make(STRENGTHS), population_stack(POPULATIONS)
    assert apply_unselective_stack(kraus, rho).dtype == F64
    for call in (lambda: validate_state_stack(rho.astype(complex)),
                 lambda: completeness_deviation_stack(kraus.astype(complex)),
                 lambda: apply_unselective_stack(kraus.astype(complex), rho),
                 lambda: apply_unselective_stack(kraus, rho.astype(complex))):
        with pytest.raises(ValueError, match=REAL_PATTERN):
            call()


@pytest.mark.parametrize(("mode", "r"), [("three", 1.0), ("five", 3.0)])
def test_grid_states_are_float64(mode, r):
    grid = CycleGrid(np.array([0.1, 2.0, 700.0]), np.array([0.5, 0.8, 1.0]), mode, np.full(3, r))
    assert grid.thermal.dtype == F64
    for ledger in (run_numeric_grid(grid), run_analytic_grid(grid)):
        for states in (ledger.states_tp, ledger.states_qmi, ledger.states_qmii):
            assert states.dtype == F64
