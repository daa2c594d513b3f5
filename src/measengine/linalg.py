"""Dense complex linear algebra for small operator matrices.

Everything works on plain numpy arrays of shape (d, d), dtype complex128.
The matrices here are tiny (qubits, the odd d = 3 or 4 in tests), so the
code favors explicit loops and closed forms over library eigensolvers:
the 2x2 eigenvalues come from the trace/determinant quadratic and larger
Hermitian matrices go through a cyclic Jacobi sweep.

The public functions are the validated boundary for callers outside the
package: each coerces and checks its input with `as_square_matrix`.
Inside the package, `DensityMatrix` and `KrausSet` validate once at
construction and freeze their arrays, so math on those arrays uses numpy
directly and the unchecked kernels `_hermiticity_defect` and `_eigvals`.
"""

from __future__ import annotations

import math

import numpy as np

# Central tolerances for the whole verification stack.
TOL_HERM = 1e-12  # max entrywise |A - A^dag| accepted as Hermitian
TOL_EIG = 1e-13   # Jacobi off-diagonal residual target

_MAX_JACOBI_SWEEPS = 60


def as_square_matrix(entries) -> np.ndarray:
    """Coerce input to a square complex matrix, rejecting NaN/Inf entries."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


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
    """Largest |a_ij| over i != j (0.0 for dim 1)."""
    a = as_square_matrix(a)
    if a.shape[0] == 1:
        return 0.0
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.max(np.abs(a[mask])))


def eig_hermitian(a: np.ndarray, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    dim 1 and 2 are solved in closed form; larger matrices are
    diagonalized by cyclic Jacobi sweeps driven to an off-diagonal
    residual of TOL_EIG.
    """
    a = as_square_matrix(a)
    defect = _hermiticity_defect(a)
    if defect > tol_herm:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol_herm:.1e}"
        )
    return _eigvals(a)


def _eigvals(a: np.ndarray) -> np.ndarray:
    """Unchecked kernel of eig_hermitian, for arrays already known Hermitian."""
    d = a.shape[0]
    if d == 1:
        return np.array([a[0, 0].real])
    if d == 2:
        return _eig2(a)
    return _jacobi_eigvals(a)


def _eig2(a: np.ndarray) -> np.ndarray:
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


def _jacobi_rotate(m: np.ndarray, p: int, q: int) -> np.ndarray:
    """One Jacobi rotation zeroing the (p, q) entry of Hermitian m."""
    beta = m[p, q]
    ab = abs(beta)
    if ab == 0.0:
        return m
    tau = (m[q, q].real - m[p, p].real) / (2.0 * ab)
    # Small-magnitude root of t^2 - 2*tau*t - 1 = 0, written without cancellation.
    sign = 1.0 if tau >= 0 else -1.0
    t = -sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    u = beta / ab
    rot = np.eye(m.shape[0], dtype=complex)
    rot[p, p] = c
    rot[p, q] = -s * u
    rot[q, p] = s * np.conj(u)
    rot[q, q] = c
    return rot.conj().T @ m @ rot


def _jacobi_eigvals(a: np.ndarray) -> np.ndarray:
    m = 0.5 * (a + a.conj().T)  # symmetrize roundoff before sweeping
    d = m.shape[0]
    for _ in range(_MAX_JACOBI_SWEEPS):
        if max_offdiag(m) <= TOL_EIG:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                m = _jacobi_rotate(m, p, q)
    else:
        raise RuntimeError(
            f"Jacobi sweep failed to reach residual {TOL_EIG:.1e} "
            f"in {_MAX_JACOBI_SWEEPS} sweeps (off-diagonal {max_offdiag(m):.3e})"
        )
    return np.sort(np.diag(m).real)
