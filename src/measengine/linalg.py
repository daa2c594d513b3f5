"""Real 2x2 matrices and (4, N) state stacks: coercion, finiteness and eigenvalues.

Every entry is real and finite.  Complex input (even with zero imaginary
parts), object and string arrays are refused with `matrix entries must be
real`, never cast; a NaN or inf entry with `matrix entries must be finite`.
One matrix travels as its four entries row by row (a00, a01, a10, a11), as
Python floats; N of them as a float64 (4, N) stack, one row per entry.
`matmul` and `eig_hermitian` have no caller in `src/`; `bench/` times them.
"""

from __future__ import annotations

import math

import numpy as np

TOL_HERM = 1e-12  # max entrywise |A - A^dag| accepted as Hermitian


def as_square_matrix(entries) -> np.ndarray:
    """`entries` as a 2x2 float64 matrix.

    Refuses a shape other than (2, 2) (`expected a square 2x2 qubit matrix, got
    shape S`), then what `as_matrix_stack` refuses, the dtype first.
    """
    a = np.asarray(entries)
    if a.shape != (2, 2):
        raise ValueError(f"expected a square 2x2 qubit matrix, got shape {a.shape}")
    return as_matrix_stack(a.reshape(4, 1)).reshape(2, 2)


def _square_entries(entries) -> list[float]:
    """The four entries of `as_square_matrix(entries)`, row by row, as Python floats."""
    return as_square_matrix(entries).ravel().tolist()


def _require_finite(a00: float, a01: float, a10: float, a11: float) -> None:
    """Refuse four Python floats unless every one is finite, as `as_matrix_stack` does."""
    # A finite sum has only finite terms; a sum that is not finite (a non-finite entry,
    # or finite entries that overflow) is decided entry by entry.
    if not math.isfinite(a00 + a01 + a10 + a11) and not all(
            map(math.isfinite, (a00, a01, a10, a11))):
        raise ValueError("matrix entries must be finite")


def _frozen_matrix(flat) -> np.ndarray:
    """The read-only 2x2 float64 matrix of four entries given row by row."""
    m = np.array(flat, dtype=float).reshape(2, 2)
    m.flags.writeable = False
    return m


def as_matrix_stack(entries) -> np.ndarray:
    """Real numeric input as a float64 (4, N) state stack.

    Refused in this order: a non-real dtype, a shape that is not (4, N)
    (`expected a (4, N) state stack, got shape S`), a non-finite entry.
    """
    a = np.asarray(entries)
    if a.dtype.kind not in "biuf":
        raise ValueError("matrix entries must be real")
    a = a.astype(float, copy=False)
    if a.ndim != 2 or len(a) != 4:
        raise ValueError(f"expected a (4, N) state stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two qubit operators, each checked by `as_square_matrix`."""
    return as_square_matrix(a) @ as_square_matrix(b)


def eig_hermitian(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric 2x2 matrix, as a float64 array.

    Refuses |a01 - a10| > TOL_HERM: `matrix is not Hermitian: defect D exceeds 1.0e-12`.
    """
    entries = _square_entries(a)
    defect = abs(entries[1] - entries[2])
    if defect > TOL_HERM:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {TOL_HERM:.1e}"
        )
    return np.array(_eig_pair(*entries))


def _eig_pair(a00: float, a01: float, a10: float, a11: float) -> tuple[float, float]:
    """Ascending eigenvalues of [[a00, c], [c, a11]], c = (a01 + a10)/2; unchecked, finite input."""
    # Eigenvalues of [[a00, c], [c, a11]] are mean +- hypot((a00 - a11)/2, c).
    c = 0.5 * (a01 + a10)
    if c == 0.0:
        # Diagonal case stays exact; the engine's states all live here.
        return (a00, a11) if a00 <= a11 else (a11, a00)
    if not math.isfinite(c):  # the sum overflowed: halve each term first
        c = 0.5 * a01 + 0.5 * a10
    mean = 0.5 * (a00 + a11)
    radius = math.hypot(0.5 * (a00 - a11), c)
    return mean - radius, mean + radius


def _eigvals_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_eig_pair` per state of a float64 (4, N) stack: the (N,) lower and upper eigenvalues.

    Bit for bit on diagonal states, within a few ulps on coherent ones
    (`test_eigvals_stack_is_eig_pair_per_state`); an overflowing a01 + a10 does not warn.
    """
    p, a01, a10, q = a
    if not (a01.any() or a10.any()):
        return np.minimum(p, q), np.maximum(p, q)
    with np.errstate(over="ignore"):  # entries near the float limit: the sum is inf
        c = 0.5 * (a01 + a10)
    over = np.isinf(c)
    if over.any():
        c[over] = 0.5 * a01[over] + 0.5 * a10[over]
    diagonal = c == 0.0
    mean = 0.5 * (p + q)
    radius = np.hypot(0.5 * (p - q), c)
    lo = np.where(diagonal, np.minimum(p, q), mean - radius)
    hi = np.where(diagonal, np.maximum(p, q), mean + radius)
    return lo, hi


def _distinct(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a flat array and, per entry, its index among them.

    `np.unique(flat, return_inverse=True)` on NaN-free input, up to which of two
    equal zeros stands for both (`test_distinct_edge_cases_are_np_unique_bit_for_bit`).
    Each NaN is a value of its own.
    """
    order = flat.argsort()
    ordered = flat[order]
    first = np.empty(len(ordered), dtype=bool)  # starts a run of equal values
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return ordered[first], inverse
