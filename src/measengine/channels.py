"""The engine's two measurement channels in Kraus form, for one point and for a grid.

A measurement is a set of operators {A_n} obeying the completeness
relation sum_n A_n^dag A_n = 1; each stroke applies its outcome-averaged
(unselective) channel rho -> sum_n A_n rho A_n^dag.  Two qubit channels
drive the engine:

* the excitation channel, strength P: partially pumps ground population
  into the excited state,
      M1 = [[sqrt(1-P), 0], [0, 1]],   M2 = [[0, 0], [sqrt(P), 0]]
* the damping channel, strength q: partially drops excited population
  into the ground state,
      N1 = [[1, 0], [0, sqrt(1-q)]],   N2 = [[0, sqrt(q)], [0, 0]]

Every operator and state is real, so A^dag is A^T: complex operators and
states are refused where they enter (`KrausSet`, `DensityMatrix`, the
stack checks), and all channel arithmetic is real.

`_isentropic_strength` picks the damping strength that exactly swaps the
diagonal populations left by the excitation channel, so the second stroke
conserves entropy, and NaN where no strength in [0, 1] does;
`isentropic_strength_stack` is the same rule per grid point, through the
same `_partner_threshold` and `_swap_strength`, bit for bit
(`tests/test_channels.py`).

One channel format and one kernel serve both engines.  A channel is K
operators, each the tuple of its four entries row by row, and an entry is
a Python float (one set), an (N,) float64 array (one set per grid point),
or `_ZERO`, an exact zero that only the grid builders emit.
`_excitation` and `_damping` write the two engine channels in that format
once, taking the square root and the zero as arguments: `math.sqrt` and
the float 0.0 for one strength, `np.sqrt` and `_ZERO` for a column of
them; the fixed one is the float 1.0 either way.  A product with `_ZERO`
is `_ZERO` and a sum with it the other term, and an ndarray hands it every
such operation (NEP 13), so a grid channel's fixed zeros reach no numpy
call.  The grid evolves only finite states through complete, so finite,
sets: each product `_ZERO` stands for is +-0, and the kernel's sums, which
start at the float 0.0 and so never hold -0.0, are the same bits without
it.  On one set, Python floats are cheaper than `_ZERO`'s methods, so the
scalar entries keep 0.0.  All channel arithmetic is in two functions that
run alike on floats, arrays and `_ZERO`: `_completeness_terms` forms
sum_n A_n^T A_n - 1, and `_evolve` forms sum_n (A_n rho) A_n^T, entry by
entry.  Around them each engine keeps its own checks:

* One point.  `_excite` and `_damp` check the strength, write the
  channel's entries with `math.sqrt` and apply them (`_apply`): a set whose
  largest deviation (`_max_deviation`, NaN if any deviation is NaN) is
  above COMPLETENESS_TOL is refused, and the output's four floats are
  built into a state by `states._state`, which runs the constructor's
  checks without a nested list or a numpy array.  The scalar cycle makes
  one such call per stroke.
* A grid.  `first_channel_stack` / `second_channel_stack` check the
  strengths and give the channels' entries, the varying ones as (N,)
  columns and the fixed zeros `_ZERO`; `completeness_deviation_stack` is
  `_max_deviation` per set, the same bits on finite entries;
  `apply_unselective_stack` checks that every column has one entry per
  state, refuses the first set whose deviation is above COMPLETENESS_TOL
  or NaN, evolves a real (4, N) state stack (the layout of `states`:
  one (N,) row per entry, which `_evolve` takes as it is) and checks the
  output with `validate_state_stack`.

`KrausSet` (any real 2x2 operators, checked as `DensityMatrix` checks a
state, kept as entries, `ops` built on first read), `first_channel` and
`apply_unselective` (`_apply` on a set's entries) serve no engine path:
they remain because `bench/` times them.
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
    """Kraus set fails the completeness relation beyond tolerance."""


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered 2x2 measurement operators.

    Construction checks each operator as a real 2x2 matrix (`linalg._square_entries`;
    complex operators are refused) and keeps `entries`: per operator, its
    four entries row by row as Python floats.  `ops`, a tuple of read-only
    float64 arrays, is built from `entries` when first read, and is the
    same object on every later read.
    """

    ops: tuple[np.ndarray, ...]
    label: str = ""
    entries: tuple[tuple[float, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("Kraus set needs at least one operator")
        entries = tuple(tuple(_square_entries(op)) for op in self.ops)
        fields = self.__dict__
        del fields["ops"]  # the input; `__getattr__` builds the arrays from the entries
        fields["entries"] = entries

    def __getattr__(self, name):
        # Called only for a name the instance does not hold: `ops` until its first read.
        if name != "ops":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ops = tuple(map(_frozen_matrix, self.entries))
        object.__setattr__(self, "ops", ops)
        return ops

    def __len__(self) -> int:
        return len(self.entries)


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
    """The four entries, row by row, of sum_n (A_n rho) A_n^T, in the entries' type."""
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
    """rho -> sum_n A_n rho A_n^T for the set of entries `ops`, named `label` if incomplete."""
    _require_complete(ops, label)
    return _state(*_evolve(ops, *rho.entries))


class _Zero:
    """An exact zero entry: its products are itself and its sums the other term.

    Under NEP 13 (`__array_ufunc__ = None`) an ndarray hands `column * _ZERO`
    to `__rmul__`, so a grid channel's fixed zeros reach no numpy call.
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
    """Excitation channel of strength p in [0, 1].

    p = 0 leaves any state untouched; p = 1 pumps the full ground
    population into the excited state (projective strength).
    """
    ops = _excitation(_valid_strength("excitation", p), math.sqrt, 0.0)
    return KrausSet(tuple([[a, b], [c, d]] for a, b, c, d in ops), label=f"excite(P={p:g})")


def _isentropic_strength(p: float, x: float) -> float:
    """Damping strength q that exactly swaps the populations P leaves, x = e^-b.

        q = (2*P - 1 + x) / (P + x)

    A partner exists when P is at least the threshold (1 - x)/2 less _Q_SLACK
    and q is at least -_Q_SLACK; q is then clamped to [0, 1].  Elsewhere the
    result is NaN (clamping would silently leave the stroke entropy-increasing).
    Unchecked: the caller gives p in [0, 1] and x in [0, 1).
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
    """`_max_deviation` of every set of a grid channel (NaN kept).

    A set with an infinite entry, or one whose products overflow, reads NaN or inf
    without a warning, and either fails the check.  On a builder's channel an infinite
    entry reads inf: its exact zeros form no inf * 0.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        d00, d01, d11 = map(np.abs, _completeness_terms(ops))
    return np.maximum(np.maximum(d00, d01), d11)


def apply_unselective_stack(ops, rho) -> tuple[np.ndarray, np.ndarray]:
    """Outcome-averaged channel per point, rho_n -> sum_k A_nk rho_n A_nk^T, and its deviations.

    `ops` is a grid channel, as `first_channel_stack` gives it.  The state
    stack must be a real (4, N) stack, as `as_matrix_stack` coerces it, and
    every array entry of `ops` an (N,) column, at least one of them, else
    ValueError before any arithmetic.  Every set must pass
    `_require_complete`'s check, a NaN deviation failing (else
    IncompleteKrausSetError names the first that fails), and every output
    state the `DensityMatrix` checks.  The evolution is `_evolve` on the
    stack's rows, so each output entry is the IEEE result `_apply` gives on
    the same real entries, `_ZERO` read as 0.0.  Returns the output stack
    and the deviations it checked, `completeness_deviation_stack(ops)`.
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
    """`_isentropic_strength` per point, NaN included, with x = e^-b computed by the caller.

    A strength outside [0, 1] raises ValueError.
    """
    _strength_range("excitation", p)
    q = np.full(p.shape, math.nan)
    above = p >= _partner_threshold(x) - _Q_SLACK
    q[above] = _swap_strength(p[above], x[above])
    q[q < -_Q_SLACK] = math.nan
    return np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)
