"""Generalized measurements in Kraus form.

A measurement with outcomes n = 1..N is a set of operators {A_n} obeying
the completeness relation sum_n A_n^dag A_n = 1.  Outcome n occurs with
probability p_n = Tr(A_n^dag A_n rho) and leaves the system in
A_n rho A_n^dag / p_n; averaging over outcomes gives the unselective
channel rho -> sum_n A_n rho A_n^dag, which is the only evolution the
engine cycle uses (selective mode is a diagnostic).

Two concrete qubit channels drive the engine:

* the excitation channel, strength P: partially pumps ground population
  into the excited state,
      M1 = [[sqrt(1-P), 0], [0, 1]],   M2 = [[0, 0], [sqrt(P), 0]]
* the damping channel, strength q: partially drops excited population
  into the ground state,
      N1 = [[1, 0], [0, sqrt(1-q)]],   N2 = [[0, sqrt(q)], [0, 0]]

`isentropic_strength` picks the damping strength that exactly swaps the
diagonal populations left by the excitation channel, so the second stroke
conserves entropy.

One channel format and one kernel serve both engines.  A channel is K
operators, each the tuple of its four entries row by row, and an entry is
a Python number (one set) or an (N,) float64 array (one set per grid
point).  `_excitation` and `_damping` write the two engine channels in
that format once, taking the square root as an argument: `math.sqrt` for
one strength, `np.sqrt` for a column of them; the fixed entries are the
Python floats 0.0 and 1.0 either way.  All channel arithmetic is in two
functions that run alike on floats, complex numbers and arrays:
`_completeness_terms` forms sum_n A_n^dag A_n - 1, and `_evolve` forms
sum_n (A_n rho) A_n^dag, entry by entry.  Around them each engine keeps
its own checks:

* One set.  `KrausSet` accepts only 2x2 operators (via
  `linalg._square_entries`, which checks as `as_square_matrix` does), so a
  set and a `DensityMatrix` always agree on dimension; both keep their
  entries as Python numbers, floats for real operators and states, and
  build their read-only arrays (`ops`, `mat`) only when first read.
  `apply_unselective` refuses an incomplete set (the largest deviation,
  NaN if any deviation is NaN, above COMPLETENESS_TOL), evolves the
  state's entries and builds the output through the `DensityMatrix`
  constructor, which checks it without a numpy array.  `_excite` and
  `_damp` are that application on the engine's channels: each checks its
  strength, writes the entries with `math.sqrt` and applies them, with no
  `KrausSet`; the scalar cycle makes one such call per stroke.
  `measure_selective` and `povm_elements` take numpy's `@` products of
  the read-only operators, as the public `linalg` helpers do.
* A grid.  `first_channel_stack` / `second_channel_stack` check the
  strengths and give the channels' entries, the varying ones as (N,)
  columns; `completeness_deviation_stack` is `validate_completeness`'s
  deviation per set, the same bits on real entries;
  `apply_unselective_stack` checks that every column has one entry per
  state, refuses the first set whose deviation is above COMPLETENESS_TOL
  or NaN, evolves the (N,) columns of a real (N, 2, 2) state stack and
  checks the output with `validate_state_stack`.

`isentropic_strength_stack` is `isentropic_strength` per point, through
the same `_partner_threshold` and `_swap_strength`, with NaN for a point
that has no partner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _frozen_matrix, _square_entries, as_matrix_stack
from .linalg import matmul  # noqa: F401  (bench/test_bench.py checks the tracer patches it here)
from .states import DensityMatrix, validate_state_stack

COMPLETENESS_TOL = 1e-12     # max entrywise |sum A^dag A - 1| accepted
NEGLIGIBLE_PROB = 1e-15      # selective outcomes below this are not normalized
_Q_SLACK = 1e-12             # roundoff allowed below the partner threshold and below q = 0


class IncompleteKrausSetError(ValueError):
    """Kraus set fails the completeness relation beyond tolerance."""


class NoIsentropicStrengthError(ValueError):
    """No damping strength in [0, 1] can swap the populations.

    Carries the minimum excitation strength `threshold` at which a
    partner exists.
    """

    def __init__(self, p: float, threshold: float):
        self.threshold = threshold
        super().__init__(
            f"no isentropic partner strength: P={p:.12g} is below the "
            f"threshold (1 - e^-b)/2 = {threshold:.12g}"
        )


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered 2x2 measurement operators.

    Construction checks each operator (`linalg.as_square_matrix`'s check)
    and keeps `entries`: per operator, its four entries row by row as
    Python numbers (each float of a nested list stays a float; other
    inputs give complex numbers).  `ops`, a tuple of read-only complex
    arrays, is built from `entries` when first read, and is the same object
    on every later read.
    """

    ops: tuple[np.ndarray, ...]
    label: str = ""
    entries: tuple[tuple[float | complex, ...], ...] = field(init=False, repr=False)

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


@dataclass(frozen=True)
class CompletenessReport:
    passed: bool
    max_deviation: float


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One selective outcome: its probability and normalized post-state.

    `post_state` is None (and `negligible` True) when the probability is
    below NEGLIGIBLE_PROB, where normalizing would divide 0 by 0.
    """

    probability: float
    post_state: DensityMatrix | None
    negligible: bool = False


def validate_completeness(k: KrausSet) -> CompletenessReport:
    """Check sum_n A_n^dag A_n == 1 entrywise within COMPLETENESS_TOL."""
    dev = _max_deviation(k.entries)
    return CompletenessReport(passed=dev <= COMPLETENESS_TOL, max_deviation=dev)


def _completeness_terms(ops):
    """sum_n A_n^dag A_n - 1 as its (0, 0), (0, 1) and (1, 1) entries, in the entries' type."""
    # (A^dag A)_il = conj(A_0i) A_0l + conj(A_1i) A_1l; the (1, 0) entry of
    # the sum is the conjugate of the (0, 1) entry, so it has the same modulus.
    # Each sum is rebound, not updated in place, so a complex array may follow a real one.
    t00 = t01 = t11 = 0.0
    for a, b, c, d in ops:
        t00 = t00 + (a.conjugate() * a + c.conjugate() * c)
        t01 = t01 + (a.conjugate() * b + c.conjugate() * d)
        t11 = t11 + (b.conjugate() * b + d.conjugate() * d)
    return t00 - 1.0, t01, t11 - 1.0


def _evolve(ops, r00, r01, r10, r11):
    """The four entries, row by row, of sum_n (A_n rho) A_n^dag, in the entries' type."""
    o00 = o01 = o10 = o11 = 0.0  # rebound, as the sums of `_completeness_terms` are
    for a, b, c, d in ops:
        # B = A rho, then (B A^dag)_im = B_i0 conj(A_m0) + B_i1 conj(A_m1).
        b00 = a * r00 + b * r10
        b01 = a * r01 + b * r11
        b10 = c * r00 + d * r10
        b11 = c * r01 + d * r11
        a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        o00 = o00 + (b00 * a + b01 * b)
        o01 = o01 + (b00 * c + b01 * d)
        o10 = o10 + (b10 * a + b11 * b)
        o11 = o11 + (b10 * c + b11 * d)
    return o00, o01, o10, o11


def _max_deviation(ops) -> float:
    """Max entrywise |sum_n A_n^dag A_n - 1| of one set's entries, NaN if one deviation is."""
    deviations = tuple(map(abs, _completeness_terms(ops)))
    total = sum(deviations)  # NaN exactly when a deviation is, since none is negative
    return total if total != total else max(deviations)


def _require_complete(ops, label: str) -> None:
    dev = _max_deviation(ops)
    if not dev <= COMPLETENESS_TOL:  # as `validate_completeness` passes: a NaN fails
        raise IncompleteKrausSetError(
            f"Kraus set {label or '<unlabeled>'} violates completeness by {dev:.3e}"
        )


def apply_unselective(k: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Outcome-averaged channel: rho -> sum_n A_n rho A_n^dag."""
    return _apply(k.entries, rho, k.label)


def _apply(ops, rho: DensityMatrix, label: str) -> DensityMatrix:
    """`apply_unselective` of the set whose entries are `ops`, named `label` if it is incomplete."""
    _require_complete(ops, label)
    o00, o01, o10, o11 = _evolve(ops, *rho.entries)
    return DensityMatrix([[o00, o01], [o10, o11]])


def measure_selective(k: KrausSet, rho: DensityMatrix) -> list[MeasurementOutcome]:
    """All outcomes in Kraus order, with Born probabilities and post-states."""
    _require_complete(k.entries, k.label)
    outcomes = []
    for op in k.ops:
        raw = op @ rho.mat @ op.conj().T
        p = complex(raw.trace()).real
        if p < NEGLIGIBLE_PROB:
            outcomes.append(MeasurementOutcome(p, None, negligible=True))
        else:
            outcomes.append(MeasurementOutcome(p, DensityMatrix(raw / p)))
    return outcomes


def povm_elements(k: KrausSet) -> list[np.ndarray]:
    """Effect operators E_n = A_n^dag A_n; Hermitian, PSD, summing to 1."""
    return [op.conj().T @ op for op in k.ops]


def _excitation(p, sqrt):
    """The excitation channel's M1 and M2, entries row by row; `sqrt` suits p's type."""
    return (sqrt(1.0 - p), 0.0, 0.0, 1.0), (0.0, 0.0, sqrt(p), 0.0)


def _damping(q, sqrt):
    """The damping channel's N1 and N2, entries row by row; `sqrt` suits q's type."""
    return (1.0, 0.0, 0.0, sqrt(1.0 - q)), (0.0, sqrt(q), 0.0, 0.0)


def _excite(p: float, rho: DensityMatrix) -> DensityMatrix:
    """`apply_unselective(first_channel(p), rho)`, named `excite`, without a `KrausSet`."""
    return _apply(_excitation(_valid_strength("excitation", p), math.sqrt), rho, "excite")


def _damp(q: float, rho: DensityMatrix) -> DensityMatrix:
    """`apply_unselective(second_channel(q), rho)`, named `damp`, without a `KrausSet`."""
    return _apply(_damping(_valid_strength("damping", q), math.sqrt), rho, "damp")


def _kraus_set(ops, label: str) -> KrausSet:
    return KrausSet(tuple([[a, b], [c, d]] for a, b, c, d in ops), label=label)


def first_channel(p: float) -> KrausSet:
    """Excitation channel of strength p in [0, 1].

    p = 0 leaves any state untouched; p = 1 pumps the full ground
    population into the excited state (projective strength).
    """
    return _kraus_set(_excitation(_valid_strength("excitation", p), math.sqrt), f"excite(P={p:g})")


def second_channel(q: float) -> KrausSet:
    """Damping channel of strength q in [0, 1].

    q = 0 is the identity channel; q = 1 drops the full excited
    population into the ground state.
    """
    return _kraus_set(_damping(_valid_strength("damping", q), math.sqrt), f"damp(q={q:g})")


def isentropic_strength(p: float, b: float) -> float:
    """Damping strength q that exactly swaps the post-excitation populations.

        q = (2*P - 1 + e^-b) / (P + e^-b)

    Defined only for P >= (1 - e^-b)/2; below that no q in [0, 1] swaps
    the populations and NoIsentropicStrengthError is raised (clamping
    would silently leave the stroke entropy-increasing).  Roundoff is
    allowed for: a partner exists when P is at least the threshold less
    _Q_SLACK and q is at least -_Q_SLACK, and q is then clamped to [0, 1].
    """
    if not math.isfinite(b) or b <= 0:
        raise ValueError(f"inverse temperature b must be finite and positive, got {b}")
    return _isentropic_strength(_valid_strength("excitation", p), math.exp(-b))


def _isentropic_strength(p: float, x: float) -> float:
    """Unchecked kernel of `isentropic_strength`: p in [0, 1] and x = e^-b given by the caller."""
    threshold = _partner_threshold(x)
    if p >= threshold - _Q_SLACK:  # tested first: at P = 0 and x = 0, q would be 0/0
        q = _swap_strength(p, x)
        if q >= -_Q_SLACK:
            return min(max(q, 0.0), 1.0)
    raise NoIsentropicStrengthError(p, threshold)


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
    return _excitation(p, np.sqrt)


def second_channel_stack(q: np.ndarray):
    """Damping channels of strengths q: `_damping`'s entries, the varying ones (N,) arrays."""
    _strength_range("damping", q)
    return _damping(q, np.sqrt)


def completeness_deviation_stack(ops) -> np.ndarray:
    """`validate_completeness(...).max_deviation` of every set of a grid channel (NaN kept).

    A set with an infinite entry, or one whose products overflow, reads NaN or inf
    without a warning, as the scalar's Python arithmetic gives it; both fail the check.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        d00, d01, d11 = map(np.abs, _completeness_terms(ops))
    return np.maximum(np.maximum(d00, d01), d11)


def apply_unselective_stack(ops, rho) -> np.ndarray:
    """Outcome-averaged channel per point: rho_n -> sum_k A_nk rho_n A_nk^T.

    `ops` is a grid channel, as `first_channel_stack` gives it.  The state
    stack must be a real (N, 2, 2) stack, and every array entry of `ops` an
    (N,) column, at least one of them, else ValueError before any
    arithmetic.  Every set must pass the completeness check of
    `validate_completeness`, a NaN deviation failing (else
    IncompleteKrausSetError names the first that fails), and every output
    state the `DensityMatrix` checks.  The evolution is `_evolve` on the
    (N,) columns of the entries, so each output entry is the IEEE result
    `apply_unselective` gives on the same real entries.
    """
    rho = as_matrix_stack(rho)
    if rho.ndim != 3:
        raise ValueError(f"expected a (N, 2, 2) state stack, got shape {rho.shape}")
    columns = [v.shape for op in ops for v in op if isinstance(v, np.ndarray)]
    if not columns or columns.count(rho.shape[:1]) != len(columns):
        raise ValueError(f"expected a channel of ({len(rho)},) columns, got shapes {columns}")
    dev = completeness_deviation_stack(ops)
    ok = dev <= COMPLETENESS_TOL  # as `validate_completeness` passes: a NaN fails
    if not ok.all():
        i = int(np.argmin(ok))
        raise IncompleteKrausSetError(
            f"Kraus set {i} of the stack violates completeness by {dev[i]:.3e}"
        )
    # Each entry of every state as one contiguous (N,) row, and the output the same way:
    # its (N, 2, 2) view keeps every entry column contiguous for the next stroke.
    out = np.array(_evolve(ops, *rho.transpose(1, 2, 0).reshape(4, -1)))
    return validate_state_stack(out.reshape(2, 2, -1).transpose(2, 0, 1))


def isentropic_strength_stack(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`isentropic_strength` per point, with x = e^-b computed by the caller.

    A point without a partner gets NaN where the scalar raises
    NoIsentropicStrengthError; a strength outside [0, 1] raises ValueError,
    as there.
    """
    _strength_range("excitation", p)
    q = np.full(p.shape, math.nan)
    above = p >= _partner_threshold(x) - _Q_SLACK
    q[above] = _swap_strength(p[above], x[above])
    q[q < -_Q_SLACK] = math.nan
    return np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)
