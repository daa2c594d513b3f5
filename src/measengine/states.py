"""Working-substance states: thermal preparation, energy, and entropy.

Units are natural throughout: hbar = 1, the bare transition frequency is 1,
so every energy is a pure number (multiples of the bare level spacing) and
the only temperature parameter is the dimensionless product b = beta * gap.
Entropy is reported in nats.

The working substance is a qubit: `Hamiltonian` takes exactly two levels
and `DensityMatrix` only 2x2 matrices (via `linalg.as_square_matrix`).
Its constructor runs the Hermiticity, trace and lowest-eigenvalue checks
on the four entries as Python complex numbers, read once with `.tolist()`.

Grid evaluation works on (N, 2, 2) state stacks instead of one
`DensityMatrix` per point: `validate_state_stack` applies the
constructor's checks with the same tolerances to every state of a stack,
and `mean_energy_stack` / `entropy_stack` give, state by state, the same
bits as `mean_energy` / `von_neumann_entropy` on coherence-free states.
Stacks are float64 only (`population_stack` builds them; a complex one
is refused), so every difference and modulus the stack checks take is
exact, as the constructor's are on real entries, and they decide alike.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL_HERM,
    _distinct,
    _eig_pair,
    _eigvals_stack,
    _hermiticity_defect,
    as_matrix_stack,
    as_square_matrix,
)

TOL_TRACE = 1e-12        # |Tr(rho) - 1| accepted
TOL_PSD = 1e-12          # eigenvalues >= -TOL_PSD accepted, clamped to 0 for entropy
ENTROPY_EIG_FLOOR = 1e-15  # eigenvalues below this contribute exactly 0 to S
TOL_ENERGY_IMAG = 1e-10  # max |Im Tr(H rho)| before mean_energy refuses


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal qubit Hamiltonian, stored as its two real energy levels (ascending)."""

    levels: tuple[float, float]

    def __post_init__(self):
        if len(self.levels) != 2:
            raise ValueError(f"qubit Hamiltonian needs exactly two levels, got {len(self.levels)}")
        if not all(math.isfinite(e) for e in self.levels):
            raise ValueError("Hamiltonian levels must be finite")
        if self.levels[0] > self.levels[1]:
            raise ValueError("Hamiltonian levels must be sorted ascending")
        # A tuple of floats, whatever sequence was passed: hashable, so it can key a cache.
        object.__setattr__(self, "levels", tuple(float(e) for e in self.levels))

    @classmethod
    def qubit(cls, frequency: float = 1.0) -> Hamiltonian:
        """Two levels -f/2 (ground) and +f/2 (excited); f in units of the bare gap."""
        if not math.isfinite(frequency) or frequency <= 0:
            raise ValueError(f"qubit frequency must be positive, got {frequency}")
        return cls((-0.5 * frequency, +0.5 * frequency))

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.levels, dtype=complex))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    Construction validates all three invariants (tolerances TOL_HERM,
    TOL_TRACE, TOL_PSD) and freezes the underlying array.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.mat).copy()
        entries = m.ravel().tolist()
        defect = _hermiticity_defect(*entries)
        if defect > TOL_HERM:
            raise ValueError(f"state is not Hermitian (defect {defect:.3e})")
        tr = entries[0] + entries[3]
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"state trace {tr:.15g} is not 1")
        lo = _eig_pair(*entries)[0]
        if lo < -TOL_PSD:
            raise ValueError(f"state has negative eigenvalue {lo:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @classmethod
    def from_populations(cls, populations) -> DensityMatrix:
        """Diagonal state from a probability vector."""
        return cls(np.diag(np.asarray(populations, dtype=complex)))

    @classmethod
    def pure(cls, level: int) -> DensityMatrix:
        """Projector |level><level| in the computational basis."""
        p = np.zeros(2)
        p[level] = 1.0
        return cls.from_populations(p)

    @classmethod
    def maximally_mixed(cls) -> DensityMatrix:
        return cls.from_populations(np.full(2, 0.5))

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal of the state."""
        return np.diag(self.mat).real.copy()

    def eigenvalues(self) -> np.ndarray:
        return np.array(_eig_pair(*self.mat.ravel().tolist()))


@functools.lru_cache(maxsize=1)
def gibbs_state(h: Hamiltonian, b: float) -> DensityMatrix:
    """Thermal state exp(-b H)/Z at dimensionless inverse temperature b > 0.

    The last (h, b) is cached: a repeated request gets the same validated,
    read-only state back, so the numeric and analytic ledgers of one
    cycle build it once.  An invalid b raises on every call.
    """
    if not math.isfinite(b) or b <= 0:
        raise ValueError(f"inverse temperature b must be finite and positive, got {b}")
    e = np.asarray(h.levels)
    w = np.exp(-b * (e - e.min()))  # shift keeps exp() in range for any b
    return DensityMatrix.from_populations(w / w.sum())


def mean_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Tr(H rho); refuses if the imaginary part exceeds TOL_ENERGY_IMAG.

    H is diagonal, so Tr(H rho) = lo * rho_00 + hi * rho_11: the
    operations `mean_energy_stack` makes, in the same order.
    """
    lo, hi = h.levels
    m = rho.mat
    val = lo * complex(m[0, 0]) + hi * complex(m[1, 1])
    if abs(val.imag) > TOL_ENERGY_IMAG:
        raise ValueError(f"mean energy has imaginary part {val.imag:.3e}")
    return val.real


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum(lam * ln(lam)) over eigenvalues, in nats."""
    s = 0.0
    for lam in _eig_pair(*rho.mat.ravel().tolist()):
        lam = max(lam, 0.0)  # PSD slack in [-TOL_PSD, 0) must not produce NaN
        if lam < ENTROPY_EIG_FLOOR:
            continue
        s -= lam * math.log(lam)
    return s


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b); lies in [0, 1]."""
    lo, hi = _eig_pair(*(a.mat - b.mat).ravel().tolist())
    return 0.5 * (abs(lo) + abs(hi))


def population_stack(populations: np.ndarray) -> np.ndarray:
    """(N, 2, 2) real diagonal state stack from (N, 2) populations, as `from_populations`."""
    populations = np.asarray(populations)
    out = np.zeros(populations.shape[:-1] + (2, 2))
    out[..., 0, 0] = populations[..., 0]
    out[..., 1, 1] = populations[..., 1]
    return out


# numpy's lower eigenvalue of a unit-trace state is within this of `_eig_pair`'s: near 0 it
# is mean - radius with both terms near 1/2, so the ulps of numpy's hypot count at unit scale.
_PSD_SLACK = 4.0 * sys.float_info.epsilon


def validate_state_stack(rho) -> np.ndarray:
    """The `DensityMatrix` checks on every state of a float64 (N, 2, 2) stack.

    Raises ValueError if the stack is complex, and otherwise names the
    first state that is not finite, not Hermitian within TOL_HERM, off
    unit trace by more than TOL_TRACE, or has an eigenvalue below -TOL_PSD.
    Returns the stack as `as_matrix_stack` coerces it, float64.  Each check
    is one reduction over the whole stack; the per-state values are formed
    only to name the state.  On real entries |a01 - a10| and |tr - 1| are
    exact, so they decide as `DensityMatrix` does; numpy's hypot can be an
    ulp off math.hypot, so a lower eigenvalue within a few ulps of -TOL_PSD
    is decided by `_eig_pair`, the constructor's rule.
    """
    m = as_matrix_stack(rho)
    if m.ndim != 3:
        raise ValueError(f"expected a (N, 2, 2) state stack, got shape {m.shape}")
    defect = np.abs(m[:, 0, 1] - m[:, 1, 0])
    if defect.max(initial=0.0) > TOL_HERM:
        i = int(np.argmax(defect > TOL_HERM))
        raise ValueError(f"state {i} of the stack is not Hermitian (defect {defect[i]:.3e})")
    tr = m[:, 0, 0] + m[:, 1, 1]
    off = np.abs(tr - 1.0)
    if off.max(initial=0.0) > TOL_TRACE:
        i = int(np.argmax(off > TOL_TRACE))
        raise ValueError(f"state {i} of the stack has trace {complex(tr[i]):.15g}, not 1")
    lo, _ = _eigvals_stack(m)
    near = _PSD_SLACK - TOL_PSD
    if lo.min(initial=0.0) < near:
        for i in np.flatnonzero(lo < near).tolist():
            value = _eig_pair(*m[i].ravel().tolist())[0]
            if value < -TOL_PSD:
                raise ValueError(f"state {i} of the stack has negative eigenvalue {value:.3e}")
    return m


def mean_energy_stack(rho: np.ndarray, frequency) -> np.ndarray:
    """Tr(H rho) per state, H = `Hamiltonian.qubit(frequency)` (frequency scalar or per state).

    rho is a validated float64 (N, 2, 2) stack: a real state has no
    imaginary energy, so `mean_energy`'s TOL_ENERGY_IMAG check has nothing to refuse.
    """
    return (-0.5 * frequency) * rho[:, 0, 0] + (0.5 * frequency) * rho[:, 1, 1]


def entropy_stack(rho: np.ndarray) -> np.ndarray:
    """`von_neumann_entropy` per state of a validated (N, 2, 2) stack.

    math.log, the scalar path's logarithm, runs once per distinct eigenvalue.
    """
    lam = np.maximum(np.concatenate(_eigvals_stack(rho)), 0.0)  # PSD slack must not produce NaN
    kept = lam >= ENTROPY_EIG_FLOOR
    values, index = _distinct(lam[kept])
    logs = np.array([math.log(v) for v in values.tolist()])
    terms = np.zeros_like(lam)
    terms[kept] = (values * logs)[index]
    lower, upper = terms.reshape(2, -1)
    return (0.0 - lower) - upper
