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

`KrausSet` accepts only 2x2 operators (via `linalg._square_entries`, which
checks as `as_square_matrix` does), so a set and a `DensityMatrix` always
agree on dimension.  Both keep their entries as Python numbers, floats
for the engine's real states and channels, and build their read-only
arrays (`ops`, `mat`) from them only when first read.  Every application
first checks completeness on the operators' entries; `apply_unselective`
then forms sum_n (A_n rho) A_n^dag in Python arithmetic on the stored
entries of the set and the state (float arithmetic on real entries), and
builds the output, a nested list, through the `DensityMatrix`
constructor, which checks it without a numpy array.  `measure_selective`
and `povm_elements` take numpy's `@` products of the read-only operators,
as the public `linalg` helpers do.

Grid evaluation uses Kraus stacks of shape (N, K, 2, 2), one K-operator set
per grid point, float64 only since both channels' operators are real (a
complex stack is refused): `first_channel_stack` / `second_channel_stack`
build them; `completeness_deviation_stack` is `validate_completeness` per
set, summed in the same order, so on real entries it gives the same bits;
`apply_unselective_stack` checks it (COMPLETENESS_TOL) on every set and
applies each set to its state with elementwise arithmetic on the four
entries of the operators, each a (K, N) array; and
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
_IDENTITY = np.eye(2).reshape(2, 2, 1)  # broadcasts over the N axis of (2, 2, N) entries


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
    dev = _max_deviation(k)
    return CompletenessReport(passed=dev <= COMPLETENESS_TOL, max_deviation=dev)


def _max_deviation(k: KrausSet) -> float:
    """Max entrywise |sum_n A_n^dag A_n - 1|, in the arithmetic of the entries (float or complex)."""
    # (A^dag A)_il = conj(A_0i) A_0l + conj(A_1i) A_1l; the (1, 0) entry of
    # the sum is the conjugate of the (0, 1) entry, so it has the same modulus.
    t00 = t01 = t11 = 0.0
    for a, b, c, d in k.entries:
        t00 += a.conjugate() * a + c.conjugate() * c
        t01 += a.conjugate() * b + c.conjugate() * d
        t11 += b.conjugate() * b + d.conjugate() * d
    return max(abs(t00 - 1.0), abs(t01), abs(t11 - 1.0))


def _require_complete(k: KrausSet) -> None:
    dev = _max_deviation(k)
    if not dev <= COMPLETENESS_TOL:  # as `validate_completeness` passes: a NaN fails
        raise IncompleteKrausSetError(
            f"Kraus set {k.label or '<unlabeled>'} violates completeness by {dev:.3e}"
        )


def apply_unselective(k: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Outcome-averaged channel: rho -> sum_n A_n rho A_n^dag."""
    _require_complete(k)
    r00, r01, r10, r11 = rho.entries
    o00 = o01 = o10 = o11 = 0.0
    for a, b, c, d in k.entries:
        # B = A rho, then (B A^dag)_im = B_i0 conj(A_m0) + B_i1 conj(A_m1).
        b00 = a * r00 + b * r10
        b01 = a * r01 + b * r11
        b10 = c * r00 + d * r10
        b11 = c * r01 + d * r11
        a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        o00 += b00 * a + b01 * b
        o01 += b00 * c + b01 * d
        o10 += b10 * a + b11 * b
        o11 += b10 * c + b11 * d
    return DensityMatrix([[o00, o01], [o10, o11]])


def measure_selective(k: KrausSet, rho: DensityMatrix) -> list[MeasurementOutcome]:
    """All outcomes in Kraus order, with Born probabilities and post-states."""
    _require_complete(k)
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


def first_channel(p: float) -> KrausSet:
    """Excitation channel of strength p in [0, 1].

    p = 0 leaves any state untouched; p = 1 pumps the full ground
    population into the excited state (projective strength).
    """
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"excitation strength must lie in [0, 1], got {p}")
    m1 = [[math.sqrt(1.0 - p), 0.0], [0.0, 1.0]]
    m2 = [[0.0, 0.0], [math.sqrt(p), 0.0]]
    return KrausSet((m1, m2), label=f"excite(P={p:g})")


def second_channel(q: float) -> KrausSet:
    """Damping channel of strength q in [0, 1].

    q = 0 is the identity channel; q = 1 drops the full excited
    population into the ground state.
    """
    if not math.isfinite(q) or q < 0.0 or q > 1.0:
        raise ValueError(f"damping strength must lie in [0, 1], got {q}")
    n1 = [[1.0, 0.0], [0.0, math.sqrt(1.0 - q)]]
    n2 = [[0.0, math.sqrt(q)], [0.0, 0.0]]
    return KrausSet((n1, n2), label=f"damp(q={q:g})")


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
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"excitation strength must lie in [0, 1], got {p}")
    return _isentropic_strength(p, math.exp(-b))


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


def _strength_range(name: str, values: np.ndarray) -> None:
    bad = ~(np.isfinite(values) & (values >= 0.0) & (values <= 1.0))
    if bad.any():
        raise ValueError(f"{name} strength must lie in [0, 1], got {values[np.argmax(bad)]}")


def first_channel_stack(p: np.ndarray) -> np.ndarray:
    """Excitation channels of strengths p, as a real (N, 2, 2, 2) Kraus stack."""
    _strength_range("excitation", p)
    k = np.zeros(p.shape + (2, 2, 2))
    k[:, 0, 0, 0] = np.sqrt(1.0 - p)
    k[:, 0, 1, 1] = 1.0
    k[:, 1, 1, 0] = np.sqrt(p)
    return k


def second_channel_stack(q: np.ndarray) -> np.ndarray:
    """Damping channels of strengths q, as a real (N, 2, 2, 2) Kraus stack."""
    _strength_range("damping", q)
    k = np.zeros(q.shape + (2, 2, 2))
    k[:, 0, 0, 0] = 1.0
    k[:, 0, 1, 1] = np.sqrt(1.0 - q)
    k[:, 1, 0, 1] = np.sqrt(q)
    return k


def _entries(kraus: np.ndarray) -> np.ndarray:
    """A (N, K, 2, 2) Kraus stack as a contiguous (2, 2, K, N) array: [i, j] is every A_nk[i, j]."""
    return np.ascontiguousarray(kraus.transpose(2, 3, 1, 0))


def completeness_deviation_stack(kraus) -> np.ndarray:
    """`validate_completeness(...).max_deviation` of every set of a float64 (N, K, 2, 2) stack."""
    return _completeness_deviation(_entries(as_matrix_stack(kraus)))


def _completeness_deviation(a: np.ndarray) -> np.ndarray:
    """`completeness_deviation_stack` of the Kraus stack whose `_entries` are a."""
    # (sum_k A^T A)_il = sum_k A_0i A_0l + A_1i A_1l
    total = (a[0, :, None] * a[0, None] + a[1, :, None] * a[1, None]).sum(axis=2)
    return np.abs(total - _IDENTITY).reshape(4, -1).max(axis=0)


def apply_unselective_stack(kraus, rho: np.ndarray) -> np.ndarray:
    """Outcome-averaged channel per point: rho_n -> sum_k A_nk rho_n A_nk^T.

    Both stacks are float64 only: a complex one, or a state stack not of
    shape (N, 2, 2), raises ValueError before any arithmetic.  Every set
    of the (N, K, 2, 2) stack must pass the completeness check of
    `validate_completeness` (else IncompleteKrausSetError names the first
    that fails), and every output state the `DensityMatrix` checks.  On
    coherence-free states and the engine's channels each output entry is
    the same IEEE result as `apply_unselective`: every product is formed as
    (A rho) A^T and at most two are non-zero.
    """
    rho = as_matrix_stack(rho)
    if rho.ndim != 3:
        raise ValueError(f"expected a (N, 2, 2) state stack, got shape {rho.shape}")
    k = as_matrix_stack(kraus)
    if k.ndim != 4 or k.shape[0] != rho.shape[0]:
        raise ValueError(f"expected a ({rho.shape[0]}, K, 2, 2) Kraus stack, got shape {k.shape}")
    a = _entries(k)
    dev = _completeness_deviation(a)
    if (dev > COMPLETENESS_TOL).any():
        i = int(np.argmax(dev > COMPLETENESS_TOL))
        raise IncompleteKrausSetError(
            f"Kraus set {i} of the stack violates completeness by {dev[i]:.3e}"
        )
    r = np.ascontiguousarray(rho.transpose(1, 2, 0))[:, :, None]  # [i, j] is rho_ij as (1, N)
    # (A rho)_il = A_i0 rho_0l + A_i1 rho_1l, then ((A rho) A^T)_im summed over k
    b = a[:, None, 0] * r[None, 0] + a[:, None, 1] * r[None, 1]
    out = (b[:, None, 0] * a[None, :, 0] + b[:, None, 1] * a[None, :, 1]).sum(axis=2)
    return validate_state_stack(out.transpose(2, 0, 1))


def isentropic_strength_stack(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`isentropic_strength` per point, with x = e^-b computed by the caller.

    A point without a partner gets NaN where the scalar raises
    NoIsentropicStrengthError; a strength outside [0, 1] raises ValueError,
    as there.
    """
    _strength_range("excitation", p)
    q = np.full(p.shape, math.nan)
    above = p >= _partner_threshold(x) - _Q_SLACK
    qa = _swap_strength(p[above], x[above])
    q[above] = np.where(qa >= -_Q_SLACK, np.minimum(np.maximum(qa, 0.0), 1.0), math.nan)
    return q
