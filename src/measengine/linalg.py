"""Dense complex linear algebra for the qubit's 2x2 operator matrices.

Operators are numpy arrays of shape (2, 2), dtype complex128.
`as_square_matrix` is the one check of that shape: the public functions
here and the `DensityMatrix`/`KrausSet` constructors all coerce their
input through it.  Eigenvalues come from the closed-form quadratic.

The public functions are the validated boundary for callers outside the
package.  Inside it, `DensityMatrix` and `KrausSet` validate once at
construction and freeze their arrays, so math on those arrays uses numpy
directly and the unchecked kernels `_hermiticity_defect` and `_eigvals`.
"""

from __future__ import annotations

import math

import numpy as np

# Central tolerance for the whole verification stack.
TOL_HERM = 1e-12  # max entrywise |A - A^dag| accepted as Hermitian


def as_square_matrix(entries) -> np.ndarray:
    """Coerce input to a 2x2 complex matrix, rejecting NaN/Inf entries."""
    a = np.asarray(entries, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a square 2x2 qubit matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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
    return _hermiticity_defect(as_square_matrix(a))


def _hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def max_offdiag(a: np.ndarray) -> float:
    """Largest off-diagonal magnitude, max(|a_01|, |a_10|)."""
    a = as_square_matrix(a)
    return float(max(abs(a[0, 1]), abs(a[1, 0])))


def eig_hermitian(a: np.ndarray, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending, in closed form."""
    a = as_square_matrix(a)
    defect = _hermiticity_defect(a)
    if defect > tol_herm:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol_herm:.1e}"
        )
    return _eigvals(a)


def _eigvals(a: np.ndarray) -> np.ndarray:
    """Unchecked kernel of eig_hermitian, for arrays already known Hermitian."""
    # Eigenvalues of [[p, c], [conj(c), q]] are mean +- sqrt(((p-q)/2)^2 + |c|^2).
    p = a[0, 0].real
    q = a[1, 1].real
    c = 0.5 * (a[0, 1] + np.conj(a[1, 0]))
    if c == 0.0:
        # Diagonal case stays exact; the engine's states all live here.
        return np.array(sorted((p, q)))
    mean = 0.5 * (p + q)
    radius = math.hypot(0.5 * (p - q), abs(c))
    return np.array([mean - radius, mean + radius])
