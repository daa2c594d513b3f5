"""Dense linear algebra for the qubit's real 2x2 operator matrices.

Every matrix is real: the engine's states and Kraus operators have real
entries, so complex input, even with zero imaginary parts, is refused with
`matrix entries must be real`, and so is an object or string array.
`as_matrix_stack` is the one coercion rule, for a float64 (4, N) grid
state stack (the layout is set out in `states`); `as_square_matrix`
checks the (2, 2) shape and then applies it to the matrix's four entries
as one column.  `_square_entries` gives the `DensityMatrix` and `KrausSet`
constructors the checked entries as four Python floats: a 2x2 nested list
of Python floats (what `DensityMatrix.from_populations` passes) is read
without numpy; any other input goes through `as_square_matrix`.
`_require_finite` is the one finiteness rule on four Python floats, which
`_square_entries` applies to such a list and `states._state` to the four
floats the numeric cycle's states are built from.  `_frozen_matrix` builds
the read-only float64 array of four such entries, when a state's `mat` or
a set's `ops` is first read.

The scalar math runs on those floats without a numpy call (on a 2x2 matrix
a numpy call costs more than its arithmetic): the constructors' symmetry
defect is |a01 - a10|, and `_eig_pair` is the closed-form ascending
eigenvalue pair of a symmetric matrix.  `_eigvals_stack` is `_eig_pair`
over a stack, and `_distinct` the sort-based deduplication the grid code
shares (a transcendental or a string once per distinct value).

`matmul` (two checked matrices' product) and `eig_hermitian` (`_eig_pair`
behind the symmetry check) serve no engine path: they remain because
`bench/` times and traces them.
"""

from __future__ import annotations

import math

import numpy as np

# Central tolerance for the whole verification stack.
TOL_HERM = 1e-12  # max entrywise |A - A^dag| accepted as Hermitian


def as_square_matrix(entries) -> np.ndarray:
    """Coerce real input to a 2x2 float64 matrix, refusing complex and NaN/Inf entries.

    The shape is checked first, then `as_matrix_stack`'s rule applies to the
    four entries as one column, so a complex matrix is refused whatever its
    imaginary parts.
    """
    a = np.asarray(entries)
    if a.shape != (2, 2):
        raise ValueError(f"expected a square 2x2 qubit matrix, got shape {a.shape}")
    return as_matrix_stack(a.reshape(4, 1)).reshape(2, 2)


def _square_entries(entries) -> list[float]:
    """The four entries of `as_square_matrix(entries)`, row by row, as Python floats.

    A list of two lists of two Python floats is read without numpy, and
    refused by `_require_finite` exactly when one entry is not finite;
    anything else goes through `as_square_matrix`.
    """
    if type(entries) is list and len(entries) == 2:
        top, bottom = entries
        if type(top) is list and type(bottom) is list and len(top) == 2 and len(bottom) == 2:
            flat = top + bottom
            a00, a01, a10, a11 = flat
            if type(a00) is type(a01) is type(a10) is type(a11) is float:
                _require_finite(a00, a01, a10, a11)
                return flat
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
    """Coerce real numeric input to a float64 (4, N) state stack, rejecting NaN/Inf entries.

    The checks run in this order: the dtype (complex input, even with zero
    imaginary parts, and object arrays are refused, not cast), the shape,
    then finiteness.
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


def eig_hermitian(a: np.ndarray, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Real eigenvalues of a real Hermitian (symmetric) matrix, ascending, in closed form."""
    entries = _square_entries(a)
    defect = abs(entries[1] - entries[2])
    if defect > tol_herm:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol_herm:.1e}"
        )
    return np.array(_eig_pair(*entries))


def _eig_pair(a00: float, a01: float, a10: float, a11: float) -> tuple[float, float]:
    """Unchecked kernel of eig_hermitian: ascending eigenvalues of a known-symmetric matrix."""
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
    """`_eig_pair` over a float64 (4, N) stack: the (N,) lower and upper eigenvalues.

    Diagonal entries give the same bits as `_eig_pair`; the others can
    differ from it in the last place (numpy's hypot is not math.hypot).
    A stack without coherences, as every engine state is, skips the radius.
    Where the coherences' sum overflows, c is formed from the halved terms,
    as in `_eig_pair`, without a warning.
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
