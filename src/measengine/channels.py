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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, as_square_matrix, matmul, trace
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-12     # max entrywise |sum A^dag A - 1| accepted
NEGLIGIBLE_PROB = 1e-15      # selective outcomes below this are not normalized


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
    """Ordered measurement operators sharing one dimension."""

    ops: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.ops) == 0:
            raise ValueError("Kraus set needs at least one operator")
        frozen = []
        dim = None
        for op in self.ops:
            m = as_square_matrix(op).copy()
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError(
                    f"Kraus operators disagree on dimension: {m.shape[0]} vs {dim}"
                )
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "ops", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def __len__(self) -> int:
        return len(self.ops)


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
    total = np.zeros((k.dim, k.dim), dtype=complex)
    for op in k.ops:
        total += op.conj().T @ op
    dev = float(np.max(np.abs(total - np.eye(k.dim))))
    return CompletenessReport(passed=dev <= COMPLETENESS_TOL, max_deviation=dev)


def _require_complete(k: KrausSet) -> None:
    report = validate_completeness(k)
    if not report.passed:
        raise IncompleteKrausSetError(
            f"Kraus set {k.label or '<unlabeled>'} violates completeness "
            f"by {report.max_deviation:.3e}"
        )


def apply_unselective(k: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Outcome-averaged channel: rho -> sum_n A_n rho A_n^dag."""
    _require_complete(k)
    if k.dim != rho.dim:
        raise ValueError(f"dimension mismatch: channel {k.dim} vs state {rho.dim}")
    out = np.zeros((k.dim, k.dim), dtype=complex)
    for op in k.ops:
        out += op @ rho.mat @ op.conj().T
    return DensityMatrix(out)


def measure_selective(k: KrausSet, rho: DensityMatrix) -> list[MeasurementOutcome]:
    """All outcomes in Kraus order, with Born probabilities and post-states."""
    _require_complete(k)
    if k.dim != rho.dim:
        raise ValueError(f"dimension mismatch: channel {k.dim} vs state {rho.dim}")
    outcomes = []
    for op in k.ops:
        raw = matmul(matmul(op, rho.mat), adjoint(op))
        p = trace(raw).real
        if p < NEGLIGIBLE_PROB:
            outcomes.append(MeasurementOutcome(p, None, negligible=True))
        else:
            outcomes.append(MeasurementOutcome(p, DensityMatrix(raw / p)))
    return outcomes


def povm_elements(k: KrausSet) -> list[np.ndarray]:
    """Effect operators E_n = A_n^dag A_n; Hermitian, PSD, summing to 1."""
    return [matmul(adjoint(op), op) for op in k.ops]


def first_channel(p: float) -> KrausSet:
    """Excitation channel of strength p in [0, 1].

    p = 0 leaves any state untouched; p = 1 pumps the full ground
    population into the excited state (projective strength).
    """
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"excitation strength must lie in [0, 1], got {p}")
    m1 = np.array([[math.sqrt(1.0 - p), 0.0], [0.0, 1.0]], dtype=complex)
    m2 = np.array([[0.0, 0.0], [math.sqrt(p), 0.0]], dtype=complex)
    return KrausSet((m1, m2), label=f"excite(P={p:g})")


def second_channel(q: float) -> KrausSet:
    """Damping channel of strength q in [0, 1].

    q = 0 is the identity channel; q = 1 drops the full excited
    population into the ground state.
    """
    if not math.isfinite(q) or q < 0.0 or q > 1.0:
        raise ValueError(f"damping strength must lie in [0, 1], got {q}")
    n1 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - q)]], dtype=complex)
    n2 = np.array([[0.0, math.sqrt(q)], [0.0, 0.0]], dtype=complex)
    return KrausSet((n1, n2), label=f"damp(q={q:g})")


def isentropic_strength(p: float, b: float) -> float:
    """Damping strength q that exactly swaps the post-excitation populations.

        q = (2*P - 1 + e^-b) / (P + e^-b)

    Defined only for P >= (1 - e^-b)/2; below that no q in [0, 1] swaps
    the populations and NoIsentropicStrengthError is raised (clamping
    would silently leave the stroke entropy-increasing).
    """
    if not math.isfinite(b) or b <= 0:
        raise ValueError(f"inverse temperature b must be finite and positive, got {b}")
    if not math.isfinite(p) or p > 1.0:
        raise ValueError(f"excitation strength must lie in [0, 1], got {p}")
    x = math.exp(-b)
    threshold = 0.5 * (1.0 - x)
    if p < threshold - 1e-12:
        raise NoIsentropicStrengthError(p, threshold)
    q = (2.0 * p - 1.0 + x) / (p + x)
    if q < -1e-12 or q > 1.0 + 1e-12:
        raise RuntimeError(f"isentropic strength {q!r} escaped [0, 1]")
    return min(max(q, 0.0), 1.0)
