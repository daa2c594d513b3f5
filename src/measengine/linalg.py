"""Dense linear algebra for the qubit's 2x2 operator matrices.

Operators are numpy arrays of shape (2, 2), dtype complex128.
`_square_entries` is the one check of that shape and of finiteness: it
coerces the input, reads its four entries once as Python complex numbers
(one `.tolist()`) and checks each with `cmath.isfinite`.  The public
functions here coerce their input through it, by way of
`as_square_matrix`, and the `DensityMatrix`/`KrausSet` constructors call
it directly and keep the entries.  Batches of operators, as the grid
evaluation uses them, are stacks of shape (..., 2, 2) checked by
`as_matrix_stack`, and they are float64 only: the engine's states and
channels are real, and a complex stack is refused.
Eigenvalues come from the closed-form quadratic.  `_distinct` is the
sort-based deduplication the grid code shares (a transcendental or a
string once per distinct value); one argsort, of no particular kind.

The public functions are the validated boundary for callers outside the
package.  Inside it, `DensityMatrix` and `KrausSet` validate once at
construction, freeze their arrays and keep their entries, so the scalar
math (energies, entropies, channel application) runs on those Python
complex numbers and the unchecked kernels `_hermiticity_defect` and
`_eig_pair`, without a numpy call: on a 2x2 matrix a numpy call costs
more than its arithmetic.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Central tolerance for the whole verification stack.
TOL_HERM = 1e-12  # max entrywise |A - A^dag| accepted as Hermitian


def as_square_matrix(entries) -> np.ndarray:
    """Coerce input to a 2x2 complex matrix, rejecting NaN/Inf entries."""
    return _square_entries(entries)[0]


def _square_entries(entries) -> tuple[np.ndarray, list[complex]]:
    """`as_square_matrix` and the matrix's four entries, row by row, as Python complex numbers."""
    a = np.asarray(entries, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a square 2x2 qubit matrix, got shape {a.shape}")
    flat = a.ravel().tolist()
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("matrix entries must be finite")
    return a, flat


def as_matrix_stack(entries) -> np.ndarray:
    """Coerce real numeric input to a float64 (..., 2, 2) stack, rejecting NaN/Inf entries.

    Complex input, even with zero imaginary parts, and object arrays are
    refused, not cast.
    """
    a = np.asarray(entries)
    if a.dtype.kind not in "biuf":
        raise ValueError("matrix entries must be real")
    a = a.astype(float, copy=False)
    if a.ndim < 2 or a.shape[-2:] != (2, 2):
        raise ValueError(f"expected a stack of 2x2 qubit matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two qubit operators, each checked by `as_square_matrix`."""
    return as_square_matrix(a) @ as_square_matrix(b)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_square_matrix(a).conj().T


def trace(a: np.ndarray) -> complex:
    """Sum of diagonal entries."""
    return complex(np.trace(as_square_matrix(a)))


def hermiticity_defect(a: np.ndarray) -> float:
    """Max entrywise |A - A^dag|; zero for exactly Hermitian input."""
    return _hermiticity_defect(*_square_entries(a)[1])


def _hermiticity_defect(a00: complex, a01: complex, a10: complex, a11: complex) -> float:
    # |a_ii - conj(a_ii)| = 2|Im a_ii|, and the two off-diagonal entries of
    # A - A^dag are negated conjugates of each other, so they share one modulus.
    return max(2.0 * abs(a00.imag), 2.0 * abs(a11.imag), abs(a01 - a10.conjugate()))


def max_offdiag(a: np.ndarray) -> float:
    """Largest off-diagonal magnitude, max(|a_01|, |a_10|)."""
    a = as_square_matrix(a)
    return float(max(abs(a[0, 1]), abs(a[1, 0])))


def eig_hermitian(a: np.ndarray, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending, in closed form."""
    entries = _square_entries(a)[1]
    defect = _hermiticity_defect(*entries)
    if defect > tol_herm:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol_herm:.1e}"
        )
    return np.array(_eig_pair(*entries))


def _eig_pair(a00: complex, a01: complex, a10: complex, a11: complex) -> tuple[float, float]:
    """Unchecked kernel of eig_hermitian: ascending eigenvalues of a known-Hermitian matrix."""
    # Eigenvalues of [[p, c], [conj(c), q]] are mean +- sqrt(((p-q)/2)^2 + |c|^2).
    p = a00.real
    q = a11.real
    c = 0.5 * (a01 + a10.conjugate())
    if c == 0.0:
        # Diagonal case stays exact; the engine's states all live here.
        return (p, q) if p <= q else (q, p)
    mean = 0.5 * (p + q)
    radius = math.hypot(0.5 * (p - q), abs(c))
    return mean - radius, mean + radius


def _eigvals_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_eig_pair` over a float64 (N, 2, 2) stack: the (N,) lower and upper eigenvalues.

    Diagonal entries give the same bits as `_eig_pair`; the others can
    differ from it in the last place (numpy's hypot is not math.hypot).
    A stack without coherences, as every engine state is, skips the radius.
    """
    p = a[:, 0, 0]
    q = a[:, 1, 1]
    c = 0.5 * (a[:, 0, 1] + a[:, 1, 0])
    if not c.any():
        return np.minimum(p, q), np.maximum(p, q)
    diagonal = c == 0.0
    mean = 0.5 * (p + q)
    radius = np.hypot(0.5 * (p - q), c)
    lo = np.where(diagonal, np.minimum(p, q), mean - radius)
    hi = np.where(diagonal, np.maximum(p, q), mean + radius)
    return lo, hi


def _distinct(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a flat array and, per entry, its index among them.

    On NaN-free input this is np.unique(flat, return_inverse=True) bit for
    bit, up to which of two equal zeros stands for both.  One argsort of
    numpy's default kind, which is faster than the stable one, since the
    order within a run of equal values does not matter.  Each NaN is a
    value of its own (NaN != NaN); they sort last, but they slow the sort,
    so callers with many NaNs leave them out.
    """
    order = flat.argsort()
    ordered = flat[order]
    first = np.empty(len(ordered), dtype=bool)  # starts a run of equal values
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return ordered[first], inverse
