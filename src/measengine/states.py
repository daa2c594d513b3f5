"""Working-substance states: thermal preparation, energy, and entropy.

Units are natural throughout: hbar = 1, the bare transition frequency is 1,
so every energy is a pure number (multiples of the bare level spacing) and
the only temperature parameter is the dimensionless product b = beta * gap.
Entropy is reported in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TOL_HERM, _eigvals, _hermiticity_defect, as_square_matrix

TOL_TRACE = 1e-12        # |Tr(rho) - 1| accepted
TOL_PSD = 1e-12          # eigenvalues >= -TOL_PSD accepted, clamped to 0 for entropy
ENTROPY_EIG_FLOOR = 1e-15  # eigenvalues below this contribute exactly 0 to S
TOL_ENERGY_IMAG = 1e-10  # max |Im Tr(H rho)| before mean_energy refuses


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal Hamiltonian, stored as its real energy levels (ascending)."""

    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError("Hamiltonian needs at least one level")
        if not all(math.isfinite(e) for e in self.levels):
            raise ValueError("Hamiltonian levels must be finite")
        if any(a > b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("Hamiltonian levels must be sorted ascending")

    @classmethod
    def qubit(cls, frequency: float = 1.0) -> Hamiltonian:
        """Two levels -f/2 (ground) and +f/2 (excited); f in units of the bare gap."""
        if not math.isfinite(frequency) or frequency <= 0:
            raise ValueError(f"qubit frequency must be positive, got {frequency}")
        return cls((-0.5 * frequency, +0.5 * frequency))

    @property
    def dim(self) -> int:
        return len(self.levels)

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
        defect = _hermiticity_defect(m)
        if defect > TOL_HERM:
            raise ValueError(f"state is not Hermitian (defect {defect:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"state trace {tr:.15g} is not 1")
        lo = _eigvals(m)[0]
        if lo < -TOL_PSD:
            raise ValueError(f"state has negative eigenvalue {lo:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @classmethod
    def from_populations(cls, populations) -> DensityMatrix:
        """Diagonal state from a probability vector."""
        return cls(np.diag(np.asarray(populations, dtype=complex)))

    @classmethod
    def pure(cls, level: int, dim: int = 2) -> DensityMatrix:
        """Projector |level><level| in the computational basis."""
        p = np.zeros(dim)
        p[level] = 1.0
        return cls.from_populations(p)

    @classmethod
    def maximally_mixed(cls, dim: int = 2) -> DensityMatrix:
        return cls.from_populations(np.full(dim, 1.0 / dim))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal of the state."""
        return np.diag(self.mat).real.copy()

    def eigenvalues(self) -> np.ndarray:
        return _eigvals(self.mat)


def gibbs_state(h: Hamiltonian, b: float) -> DensityMatrix:
    """Thermal state exp(-b H)/Z at dimensionless inverse temperature b > 0."""
    if not math.isfinite(b) or b <= 0:
        raise ValueError(f"inverse temperature b must be finite and positive, got {b}")
    e = np.asarray(h.levels)
    w = np.exp(-b * (e - e.min()))  # shift keeps exp() in range for any b
    return DensityMatrix.from_populations(w / w.sum())


def mean_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Tr(H rho); refuses if the imaginary part exceeds TOL_ENERGY_IMAG."""
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs Hamiltonian {h.dim}")
    val = complex(np.trace(h.matrix @ rho.mat))
    if abs(val.imag) > TOL_ENERGY_IMAG:
        raise ValueError(f"mean energy has imaginary part {val.imag:.3e}")
    return val.real


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum(lam * ln(lam)) over eigenvalues, in nats."""
    s = 0.0
    for lam in rho.eigenvalues():
        lam = max(lam, 0.0)  # PSD slack in [-TOL_PSD, 0) must not produce NaN
        if lam < ENTROPY_EIG_FLOOR:
            continue
        s -= lam * math.log(lam)
    return s


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b); lies in [0, 1]."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = _eigvals(a.mat - b.mat)
    return 0.5 * float(np.sum(np.abs(eigs)))
