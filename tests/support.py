"""Shared test helpers: random real qubit states, channels, and rotations.

numpy.linalg is used freely here as the independent oracle side; the
package's own eigensolver is what these helpers help to check.
"""

from __future__ import annotations

import numpy as np

from measengine.channels import KrausSet
from measengine.engine import CycleGrid, EnergyLedger, StrokeRecord, run_numeric_grid
from measengine.linalg import _eig_pair
from measengine.states import DensityMatrix, entropy_stack


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Random real state, with a coherence almost surely."""
    g = rng.normal(size=(2, 2))
    m = g @ g.T
    return DensityMatrix(m / np.trace(m))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b, from `linalg._eig_pair` of the entry difference."""
    lo, hi = _eig_pair(*(x - y for x, y in zip(a.entries, b.entries, strict=True)))
    return 0.5 * (abs(lo) + abs(hi))


def stroke(ledger: EnergyLedger, name: str) -> StrokeRecord:
    """The ledger's record of the stroke called `name`."""
    return next(rec for rec in ledger.strokes if rec.name == name)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a real symmetric PSD matrix."""
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def random_kraus_set(rng: np.random.Generator, n_ops: int) -> KrausSet:
    """Random valid real set: n_ops - 1 scaled contractions plus the completion."""
    assert n_ops >= 2
    raw = [rng.normal(size=(2, 2)) for _ in range(n_ops - 1)]
    total = sum(g.T @ g for g in raw)
    scale = np.sqrt(0.9 / np.linalg.eigvalsh(total)[-1])  # remainder stays PSD
    ops = [scale * g for g in raw]
    remainder = np.eye(2) - sum(g.T @ g for g in ops)
    ops.append(psd_sqrt(remainder))
    return KrausSet(tuple(ops), label=f"random(n={n_ops})")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Real rotation of the qubit's two levels."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_symmetric(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2))
    return 0.5 * (g + g.T)


# The wide-range grid that CI verifies: b up to 700, where exp(-b) nears underflow, and r up to 100.
WIDE_B = (1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 700.0)
WIDE_GAMMA = (0.5, 0.6, 0.75, 0.9, 1.0)
WIDE_R = (1.0, 2.0, 10.0, 100.0)


def grid_states(run, grid: CycleGrid) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The TP, QMI and QMII state stacks, then their entropies, of `run(grid)`'s cycle.

    The grid holds them: the numeric runner's are its evolved states, and the analytic
    runner's its closed form's, whose TP entropy is the thermal stack's.
    """
    if run is run_numeric_grid:
        rho_m, rho_n, _, _ = grid.evolved
        return (grid.thermal, rho_m, rho_n), grid.entropies
    return ((grid.thermal, *grid.closed_form),
            (entropy_stack(grid.thermal), *grid.closed_form_entropies))


# Non-finite values: the first three are real (a zero imaginary part), and an entry of
# one makes a real matrix that is refused as not finite; each of the others has an
# imaginary part, so an entry of one makes a complex matrix, refused as not real.
NON_FINITE = (
    complex(np.inf, 0.0),
    complex(-np.inf, 0.0),
    complex(np.nan, 0.0),
    complex(0.0, np.inf),
    complex(0.0, -np.inf),
    complex(0.0, np.nan),
    complex(np.inf, -np.inf),
    complex(np.nan, np.nan),
)


def is_real(value: complex) -> bool:
    return value.imag == 0.0


def refusal(value: complex) -> str:
    """The message that refuses a matrix holding the non-finite `value`, anchored."""
    return f"^matrix entries must be {'finite' if is_real(value) else 'real'}$"


def with_entry(base, i: int, j: int, value: complex) -> np.ndarray:
    """Copy of `base` with entry [i, j] replaced by `value`: float64 if the value is real,
    else complex128."""
    out = np.array(base, dtype=float if is_real(value) else complex)
    out[i, j] = value.real if is_real(value) else value
    return out


def grid_channel(kraus) -> tuple[tuple[np.ndarray, ...], ...]:
    """A (N, K, 2, 2) stack of real Kraus sets in the grid-channel form: per operator, its four
    entries row by row, each the (N,) column of that entry over the sets."""
    kraus = np.asarray(kraus)
    n, k = kraus.shape[:2]
    return tuple(map(tuple, np.moveaxis(kraus, 0, -1).reshape(k, 4, n)))


def state_rows(matrices) -> np.ndarray:
    """The (4, N) state stack of N 2x2 matrices, their dtype kept: row k holds entry k of every
    matrix, row by row (r00, r01, r10, r11), the order of `DensityMatrix.entries`."""
    matrices = np.asarray(matrices)
    return np.ascontiguousarray(matrices.reshape(len(matrices), 4).T)
