"""Dense linear algebra for the qubit's 2x2 operator matrices.

Operators are numpy arrays of shape (2, 2), dtype complex128.
`as_square_matrix` is the one check of that shape and of finiteness: it
coerces the input with numpy, reads its four entries once as Python
complex numbers (one `.tolist()`) and checks them with one
`cmath.isfinite` of their sum, entry by entry only when that sum is not
finite, so it decides exactly as an entrywise `cmath.isfinite` does.
The public functions here coerce their input through it.
`_square_entries` gives the `DensityMatrix`/`KrausSet` constructors the
checked entries alone: a 2x2 nested list of Python floats or complex
numbers, which is what the package's own builders pass, is read without
numpy, with the same finiteness check, and each entry is kept as it was
given, a float as a float; any other input goes through
`as_square_matrix`, so it is accepted or refused as there, and gives
complex numbers.
`_frozen_matrix` builds the read-only array of four such entries, which
the two classes do only when their `mat`/`ops` is first read.  Batches of
operators, as the grid evaluation uses them, are stacks of shape
(..., 2, 2) checked by `as_matrix_stack`, and they are float64 only: the
engine's states and channels are real, and a complex stack is refused.
Eigenvalues come from the closed-form quadratic.  `_distinct` is the
sort-based deduplication the grid code shares (a transcendental or a
string once per distinct value); one argsort, of no particular kind.

The public functions are the validated boundary for callers outside the
package.  Inside it, `DensityMatrix` and `KrausSet` validate once at
construction and keep their entries, so the scalar math (energies,
entropies, channel application) runs on those Python numbers and the
unchecked kernels `_hermiticity_defect` and `_eig_pair`, without a numpy
call: on a 2x2 matrix a numpy call costs more than its arithmetic.  The
engine's states and channels are real, so their entries are floats and
that math is float arithmetic; complex entries go through the same code,
since a float has `.real`, `.imag` and `.conjugate()` too.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Central tolerance for the whole verification stack.
TOL_HERM = 1e-12  # max entrywise |A - A^dag| accepted as Hermitian

_PYTHON_SCALARS = frozenset((float, complex))  # entry types `_square_entries` reads without numpy


def as_square_matrix(entries) -> np.ndarray:
    """Coerce input to a 2x2 complex matrix, rejecting NaN/Inf entries."""
    return _coerce(entries)[0]


def _coerce(entries) -> tuple[np.ndarray, list[complex]]:
    """`as_square_matrix` and the matrix's four entries, row by row, as Python complex numbers."""
    a = np.asarray(entries, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"expected a square 2x2 qubit matrix, got shape {a.shape}")
    flat = a.ravel().tolist()
    _require_finite(flat)
    return a, flat


def _square_entries(entries) -> list[float | complex]:
    """The four entries of `as_square_matrix(entries)`, row by row, as Python numbers.

    A list of two lists of two Python floats or complex numbers is read
    without numpy, and each entry is kept as it was given: a float stays a
    float, so a real matrix is worked on in float arithmetic, and complex()
    of either is numpy's complex128 of it, bit for bit.  Anything else is
    coerced by `as_square_matrix` and gives complex numbers.  Either way the
    matrix is refused exactly when one entry is not finite (`_require_finite`).
    """
    if type(entries) is list and len(entries) == 2:
        top, bottom = entries
        if type(top) is list and type(bottom) is list and len(top) == 2 and len(bottom) == 2:
            flat = top + bottom
            if _PYTHON_SCALARS.issuperset(map(type, flat)):
                _require_finite(flat)
                return flat
    return _coerce(entries)[1]


def _require_finite(flat: list[float | complex]) -> None:
    # A finite sum has only finite terms; a sum that is not finite (a non-finite
    # entry, or finite entries that overflow) is decided entry by entry.
    if not cmath.isfinite(sum(flat)) and not all(map(cmath.isfinite, flat)):
        raise ValueError("matrix entries must be finite")


def _frozen_matrix(flat) -> np.ndarray:
    """The read-only 2x2 complex matrix of four entries given row by row."""
    m = np.array(flat, dtype=complex).reshape(2, 2)
    m.flags.writeable = False
    return m


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
    return _hermiticity_defect(*_square_entries(a))


def _hermiticity_defect(a00: complex, a01: complex, a10: complex, a11: complex) -> float:
    # |a_ii - conj(a_ii)| = 2|Im a_ii|, and the two off-diagonal entries of
    # A - A^dag are negated conjugates of each other, so they share one modulus.
    try:
        off = abs(a01 - a10.conjugate())
    except OverflowError:  # a complex modulus beyond the float range
        off = math.inf
    return max(2.0 * abs(a00.imag), 2.0 * abs(a11.imag), off)


def max_offdiag(a: np.ndarray) -> float:
    """Largest off-diagonal magnitude, max(|a_01|, |a_10|)."""
    a = as_square_matrix(a)
    return float(max(abs(a[0, 1]), abs(a[1, 0])))


def eig_hermitian(a: np.ndarray, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending, in closed form."""
    entries = _square_entries(a)
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
    Coherences whose sum overflows give an infinite radius, without a warning.
    """
    p = a[:, 0, 0]
    q = a[:, 1, 1]
    if not (a[:, 0, 1].any() or a[:, 1, 0].any()):
        return np.minimum(p, q), np.maximum(p, q)
    with np.errstate(over="ignore"):  # entries near the float limit: c is inf, and so is radius
        c = 0.5 * (a[:, 0, 1] + a[:, 1, 0])
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
