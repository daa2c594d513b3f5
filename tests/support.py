"""Shared test helpers: random qubit states, channels, and unitaries.

numpy.linalg is used freely here as the independent oracle side; the
package's own eigensolver is what these helpers help to check.
"""

from __future__ import annotations

import numpy as np

from measengine.channels import KrausSet
from measengine.linalg import _eig_pair
from measengine.states import DensityMatrix


def _gaussian(rng: np.random.Generator, real: bool) -> np.ndarray:
    """A 2x2 matrix of standard normal entries, complex unless `real`."""
    g = rng.normal(size=(2, 2))
    return g if real else g + 1j * rng.normal(size=(2, 2))


def random_density_matrix(rng: np.random.Generator, real: bool = False) -> DensityMatrix:
    """Random state; `real` gives a real symmetric one."""
    g = _gaussian(rng, real)
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b, from `linalg._eig_pair` of the entry difference."""
    lo, hi = _eig_pair(*(x - y for x, y in zip(a.entries, b.entries, strict=True)))
    return 0.5 * (abs(lo) + abs(hi))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix."""
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def random_kraus_set(rng: np.random.Generator, n_ops: int, real: bool = False) -> KrausSet:
    """Random valid set: n_ops - 1 scaled contractions plus the completion; `real` ones if asked."""
    assert n_ops >= 2
    raw = [_gaussian(rng, real) for _ in range(n_ops - 1)]
    total = sum(g.conj().T @ g for g in raw)
    scale = np.sqrt(0.9 / np.linalg.eigvalsh(total)[-1])  # remainder stays PSD
    ops = [scale * g for g in raw]
    remainder = np.eye(2) - sum(g.conj().T @ g for g in ops)
    ops.append(psd_sqrt(remainder))
    return KrausSet(tuple(ops), label=f"random(n={n_ops})")


def random_givens_unitary(rng: np.random.Generator) -> np.ndarray:
    """Complex Givens rotation of the qubit's two levels."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s * np.exp(1j * phi)], [s * np.exp(-1j * phi), c]])


def random_hermitian(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (g + g.conj().T)


# Non-finite entries, each in the real part or the imaginary part alone, and in both.
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


def real_stack(matrices) -> np.ndarray:
    """The float64 stack of matrices whose entries are real (complex-typed ones included)."""
    stack = np.array(matrices)
    assert not np.imag(stack).any()
    return np.real(stack).astype(float)


def with_entry(base, i: int, j: int, value: complex) -> np.ndarray:
    """Complex copy of `base` with entry [i, j] replaced by `value`."""
    out = np.array(base, dtype=complex)
    out[i, j] = value
    return out


def grid_channel(kraus) -> tuple[tuple[np.ndarray, ...], ...]:
    """A (N, K, 2, 2) stack of real Kraus sets in the grid-channel form: per operator, its four
    entries row by row, each the (N,) column of that entry over the sets."""
    kraus = np.asarray(kraus)
    n, k = kraus.shape[:2]
    return tuple(map(tuple, np.moveaxis(kraus, 0, -1).reshape(k, 4, n)))
