"""The dtype contract of the stack path: real stacks stay float64, all other input is complex.

Both engine channels have real Kraus operators and the cycle never makes
a coherence, so the grid engine's stacks are float64.  A complex stack
still works everywhere, by numpy's type promotion, and a real stack gives
the bits of its complex copy.
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
from measengine.states import (
    entropy_stack,
    mean_energy_stack,
    population_stack,
    validate_state_stack,
)

F64, C128 = np.dtype(np.float64), np.dtype(np.complex128)
STRENGTHS = np.array([0.0, 0.3, 0.7, 1.0])
POPULATIONS = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5], [0.1, 0.9]])


def same_bits(real: np.ndarray, complex_: np.ndarray) -> bool:
    """real equals the real part of complex_ bit for bit, and complex_ has no imaginary part."""
    return (real.dtype == F64 and complex_.dtype == C128
            and real.tobytes() == complex_.real.tobytes()
            and not complex_.imag.any())


@pytest.mark.parametrize(("entries", "dtype"), [
    (np.eye(2)[None], F64),
    (np.eye(2, dtype=complex)[None], C128),
    (np.eye(2, dtype=int)[None], C128),
    (np.eye(2, dtype=np.float32)[None], C128),
    (np.array([[[1 + 0j, 0j], [0j, 1 + 0j]]], dtype=object), C128),
    ([[[1.0, 0.0], [0.0, 1.0]]], C128),
], ids=["float64", "complex128", "int", "float32", "object-complex", "list"])
def test_as_matrix_stack_keeps_float64_and_makes_the_rest_complex(entries, dtype):
    a = as_matrix_stack(entries)
    assert a.dtype == dtype
    assert np.array_equal(a, np.eye(2)[None])


def test_builders_are_float64():
    assert population_stack(POPULATIONS).dtype == F64
    assert first_channel_stack(STRENGTHS).dtype == F64
    assert second_channel_stack(STRENGTHS).dtype == F64


@pytest.mark.parametrize("make", [first_channel_stack, second_channel_stack])
def test_real_stacks_give_the_bits_of_their_complex_copies(make):
    kraus, rho = make(STRENGTHS), population_stack(POPULATIONS)
    real = apply_unselective_stack(kraus, rho)
    assert real.dtype == F64
    for k, r in ((kraus.astype(complex), rho), (kraus, rho.astype(complex)),
                 (kraus.astype(complex), rho.astype(complex))):
        assert same_bits(real, apply_unselective_stack(k, r))
    deviation = completeness_deviation_stack(kraus)
    assert deviation.dtype == F64
    assert deviation.tobytes() == completeness_deviation_stack(kraus.astype(complex)).tobytes()
    for states in (real, real.astype(complex)):
        assert validate_state_stack(states).dtype == states.dtype
    for per_state in (lambda m: mean_energy_stack(m, 1.5), entropy_stack):
        assert per_state(real).tobytes() == per_state(real.astype(complex)).tobytes()


@pytest.mark.parametrize(("mode", "r"), [("three", 1.0), ("five", 3.0)])
def test_grid_states_are_float64(mode, r):
    grid = CycleGrid(np.array([0.1, 2.0, 700.0]), np.array([0.5, 0.8, 1.0]), mode, np.full(3, r))
    assert grid.thermal.dtype == F64
    for ledger in (run_numeric_grid(grid), run_analytic_grid(grid)):
        for states in (ledger.states_tp, ledger.states_qmi, ledger.states_qmii):
            assert states.dtype == F64


def test_mean_energy_checks_the_imaginary_part_of_complex_stacks_only():
    rho = population_stack(POPULATIONS)
    for frequency in (1.5, np.array([1.0, 2.0, 3.0, 4.0])):
        energy = mean_energy_stack(rho, frequency)
        assert energy.dtype == F64
        assert energy.tobytes() == mean_energy_stack(rho.astype(complex), frequency).tobytes()
    tilted = rho.astype(complex)
    tilted[2, 1, 1] += 1e-10j  # Im Tr(H rho) = 0.5e-10 at unit gap: accepted
    assert mean_energy_stack(tilted, 1.0).tobytes() == mean_energy_stack(rho, 1.0).tobytes()
    tilted[2, 1, 1] += 2e-10j  # 1.5e-10 > TOL_ENERGY_IMAG
    with pytest.raises(ValueError, match=r"^mean energy has imaginary part 1\.500e-10$"):
        mean_energy_stack(tilted, 1.0)
