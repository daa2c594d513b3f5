"""The engine's two measurement channels in Kraus form, on one state or a stack.

A channel is K operators, each the tuple of its four real entries row by
row.  It maps rho -> sum_n A_n rho A_n^T and is applied only if complete:
max |sum_n A_n^T A_n - 1| <= COMPLETENESS_TOL, a NaN deviation failing
(`IncompleteKrausSetError`).  Strengths outside [0, 1] (NaN included) are
refused with `<name> strength must lie in [0, 1], got S`.

    excitation, strength P:  M1 = [[sqrt(1-P), 0], [0, 1]],  M2 = [[0, 0], [sqrt(P), 0]]
    damping, strength q:     N1 = [[1, 0], [0, sqrt(1-q)]],  N2 = [[0, sqrt(q)], [0, 0]]

An entry is a Python float (one point), an (N,) float64 column (a grid) or
`_ZERO` (a grid builder's fixed zero); `_completeness_terms` and `_evolve`
take any of them.  `KrausSet`, `first_channel` and `apply_unselective` have
no caller in `src/`; `bench/` times them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _frozen_matrix, _square_entries, as_matrix_stack
from .linalg import matmul  # noqa: F401  (bench/test_bench.py checks the tracer patches it here)
from .states import DensityMatrix, _state, validate_state_stack

COMPLETENESS_TOL = 1e-12     # max entrywise |sum A^dag A - 1| accepted
_Q_SLACK = 1e-12             # roundoff allowed below the partner threshold and below q = 0


class IncompleteKrausSetError(ValueError):
    """A Kraus set fails the completeness relation beyond COMPLETENESS_TOL."""


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered real 2x2 measurement operators, checked at construction.

    Each operator is coerced by `linalg._square_entries`, with its refusals, and
    kept twice: `entries`, its four Python floats row by row, and `ops`, a
    read-only float64 array.  An empty set is refused.
    """

    ops: tuple[np.ndarray, ...]
    label: str = ""
    entries: tuple[tuple[float, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("Kraus set needs at least one operator")
        entries = tuple(tuple(_square_entries(op)) for op in self.ops)
        self.__dict__.update(ops=tuple(map(_frozen_matrix, entries)), entries=entries)


def _completeness_terms(ops):
    """sum_n A_n^T A_n - 1 as its (0, 0), (0, 1) and (1, 1) entries, in the entries' type."""
    # (A^T A)_il = A_0i A_0l + A_1i A_1l; the sum is symmetric, so its (1, 0)
    # entry is the (0, 1) entry.  Each sum is rebound, not updated in place,
    # so an (N,) column may follow a float.
    t00 = t01 = t11 = 0.0
    for a, b, c, d in ops:
        t00 = t00 + (a * a + c * c)
        t01 = t01 + (a * b + c * d)
        t11 = t11 + (b * b + d * d)
    return t00 - 1.0, t01, t11 - 1.0


def _evolve(ops, r00, r01, r10, r11):
    """The four entries, row by row, of sum_n (A_n rho) A_n^T, in the entries' type.

    Every sum starts at the float 0.0, so it never holds -0.0 and a `_ZERO` term
    changes no bit (`test_the_same_bits_as_float_zeros_and_as_each_point`).
    """
    o00 = o01 = o10 = o11 = 0.0  # rebound, as the sums of `_completeness_terms` are
    for a, b, c, d in ops:
        # B = A rho, then (B A^T)_im = B_i0 A_m0 + B_i1 A_m1.
        b00 = a * r00 + b * r10
        b01 = a * r01 + b * r11
        b10 = c * r00 + d * r10
        b11 = c * r01 + d * r11
        o00 = o00 + (b00 * a + b01 * b)
        o01 = o01 + (b00 * c + b01 * d)
        o10 = o10 + (b10 * a + b11 * b)
        o11 = o11 + (b10 * c + b11 * d)
    return o00, o01, o10, o11


def _max_deviation(ops) -> float:
    """Max entrywise |sum_n A_n^T A_n - 1| of one set's entries, NaN if one deviation is."""
    deviations = tuple(map(abs, _completeness_terms(ops)))
    total = sum(deviations)  # NaN exactly when a deviation is, since none is negative
    return total if total != total else max(deviations)


def _require_complete(ops, label: str) -> None:
    dev = _max_deviation(ops)
    if not dev <= COMPLETENESS_TOL:  # a NaN fails too
        raise IncompleteKrausSetError(
            f"Kraus set {label or '<unlabeled>'} violates completeness by {dev:.3e}"
        )


def apply_unselective(k: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Outcome-averaged channel: rho -> sum_n A_n rho A_n^T."""
    return _apply(k.entries, rho, k.label)


def _apply(ops, rho: DensityMatrix, label: str) -> DensityMatrix:
    """rho -> sum_n A_n rho A_n^T for the entries `ops`; an incomplete set is refused by `label`."""
    _require_complete(ops, label)
    return _state(*_evolve(ops, *rho.entries))


class _Zero:
    """An exact zero entry: a product with it is itself and a sum the other term.

    It stands for 0.0 times a finite entry.  With `__array_ufunc__ = None`
    (NEP 13) an ndarray hands it every such operation, so it reaches no numpy
    call (`test_numpy_calls_per_application`).
    """

    __slots__ = ()
    __array_ufunc__ = None

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __add__(self, other):
        return other

    __radd__ = __add__


_ZERO = _Zero()


def _excitation(p, sqrt, zero):
    """The excitation channel's M1 and M2, entries row by row; `sqrt` and `zero` suit p's type."""
    return (sqrt(1.0 - p), zero, zero, 1.0), (zero, zero, sqrt(p), zero)


def _damping(q, sqrt, zero):
    """The damping channel's N1 and N2, entries row by row; `sqrt` and `zero` suit q's type."""
    return (1.0, zero, zero, sqrt(1.0 - q)), (zero, sqrt(q), zero, zero)


def _excite(p: float, rho: DensityMatrix) -> DensityMatrix:
    """The excitation channel of strength p applied to rho, named `excite` if incomplete."""
    return _apply(_excitation(_valid_strength("excitation", p), math.sqrt, 0.0), rho, "excite")


def _damp(q: float, rho: DensityMatrix) -> DensityMatrix:
    """The damping channel of strength q applied to rho, named `damp` if incomplete."""
    return _apply(_damping(_valid_strength("damping", q), math.sqrt, 0.0), rho, "damp")


def first_channel(p: float) -> KrausSet:
    """The excitation channel of strength p in [0, 1] as a `KrausSet` labelled `excite(P=p)`."""
    ops = _excitation(_valid_strength("excitation", p), math.sqrt, 0.0)
    return KrausSet(tuple([[a, b], [c, d]] for a, b, c, d in ops), label=f"excite(P={p:g})")


def _isentropic_strength(p: float, x: float) -> float:
    """The damping strength q = (2P - 1 + x)/(P + x) that swaps the populations P leaves, x = e^-b.

    q exists where P >= (1 - x)/2 - _Q_SLACK and q >= -_Q_SLACK, and is then
    clamped to [0, 1]; elsewhere it is NaN, since a clamped q would not swap
    them.  Unchecked: p in [0, 1], x in [0, 1).
    """
    if p >= _partner_threshold(x) - _Q_SLACK:  # tested first: q is 0/0 at P = 0 and x = 0
        q = _swap_strength(p, x)
        if q >= -_Q_SLACK:
            return min(max(q, 0.0), 1.0)
    return math.nan


def _partner_threshold(x):
    """(1 - x)/2 with x = e^-b: the least excitation strength that has a partner q."""
    return 0.5 * (1.0 - x)


def _swap_strength(p, x):
    """(2P - 1 + x)/(P + x): the damping strength that swaps the populations P leaves."""
    return (2.0 * p - 1.0 + x) / (p + x)


def _valid_strength(name: str, s: float) -> float:
    """s, refused unless it lies in [0, 1]: the scalar form of `_strength_range`."""
    if not 0.0 <= s <= 1.0:  # a NaN fails too, and so does +-inf
        raise ValueError(f"{name} strength must lie in [0, 1], got {s}")
    return s


def _strength_range(name: str, values: np.ndarray) -> None:
    ok = (values >= 0.0) & (values <= 1.0)  # NaN fails both, and +-inf one of them
    if not ok.all():
        raise ValueError(f"{name} strength must lie in [0, 1], got {values[np.argmin(ok)]}")


def first_channel_stack(p: np.ndarray):
    """Excitation channels of strengths p: `_excitation`'s entries, the varying ones (N,) arrays."""
    _strength_range("excitation", p)
    return _excitation(p, np.sqrt, _ZERO)


def second_channel_stack(q: np.ndarray):
    """Damping channels of strengths q: `_damping`'s entries, the varying ones (N,) arrays."""
    _strength_range("damping", q)
    return _damping(q, np.sqrt, _ZERO)


def completeness_deviation_stack(ops) -> np.ndarray:
    """`_max_deviation` of every set of a grid channel, NaN kept, without a warning.

    An infinite or overflowing entry reads NaN or inf, and both fail the check.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        d00, d01, d11 = map(np.abs, _completeness_terms(ops))
    return np.maximum(np.maximum(d00, d01), d11)


def apply_unselective_stack(ops, rho) -> tuple[np.ndarray, np.ndarray]:
    """rho_n -> sum_k A_nk rho_n A_nk^T per point; returns the output stack and the deviations.

    Refused before any arithmetic: a `rho` that `as_matrix_stack` refuses, and
    `ops` without an (N,) column or with another shape (`expected a channel of
    (N,) columns, got shapes S`).  Then the first incomplete set (`Kraus set I of
    the stack violates completeness by D`) and `validate_state_stack`'s refusal
    of the output.  Each output entry is `_apply`'s
    (`test_matches_the_scalar_channel_entrywise`).
    """
    rho = as_matrix_stack(rho)
    columns = [v.shape for op in ops for v in op if isinstance(v, np.ndarray)]
    if not columns or columns.count(rho.shape[1:]) != len(columns):
        raise ValueError(f"expected a channel of ({rho.shape[1]},) columns, got shapes {columns}")
    dev = completeness_deviation_stack(ops)
    ok = dev <= COMPLETENESS_TOL  # as `_require_complete` passes: a NaN fails
    if not ok.all():
        i = int(np.argmin(ok))
        raise IncompleteKrausSetError(
            f"Kraus set {i} of the stack violates completeness by {dev[i]:.3e}"
        )
    return validate_state_stack(np.array(_evolve(ops, *rho))), dev


def isentropic_strength_stack(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`_isentropic_strength` per point, with x = e^-b from the caller; refuses p outside [0, 1].

    Bit for bit the scalar rule (`test_scalar_and_stack_give_the_same_bits`).
    """
    _strength_range("excitation", p)
    q = np.full(p.shape, math.nan)
    above = p >= _partner_threshold(x) - _Q_SLACK
    q[above] = _swap_strength(p[above], x[above])
    q[q < -_Q_SLACK] = math.nan
    return np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)
