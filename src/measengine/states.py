"""Working-substance states: thermal preparation, energy, and entropy.

Units are natural throughout: hbar = 1, the bare transition frequency is 1,
so every energy is a pure number (multiples of the bare level spacing) and
the only temperature parameter is the dimensionless product b = beta * gap.
Entropy is reported in nats.

The working substance is a qubit: `Hamiltonian` takes exactly two levels
and `DensityMatrix` only 2x2 matrices (via `linalg._square_entries`, which
checks as `as_square_matrix` does).  Its constructor runs the Hermiticity,
trace and lowest-eigenvalue checks on the four entries as Python numbers
(floats for a real nested list, complex numbers for a complex one or for
anything numpy coerces), and keeps the entries and the eigenvalue pair it
computed:
`mean_energy`, `von_neumann_entropy`, `trace_distance` and
`DensityMatrix.eigenvalues` read those.  The constructor builds no numpy
array from a nested list of Python floats, which is what
`from_populations`, `gibbs_state` and the channels pass, so the engine's
states hold floats and are checked and read in float arithmetic; `mat` is
built from the entries when first read, which a single cycle never does.
`gibbs_state` weighs the two levels with one `np.exp` on a float (the
same `_gibbs_populations` weighs a grid's array of b).

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

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    TOL_HERM,
    _distinct,
    _eig_pair,
    _eigvals_stack,
    _frozen_matrix,
    _hermiticity_defect,
    _square_entries,
    as_matrix_stack,
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
        lo, hi = self.levels
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("Hamiltonian levels must be finite")
        if lo > hi:
            raise ValueError("Hamiltonian levels must be sorted ascending")
        # A tuple of floats, whatever sequence was passed, so equal levels compare and hash alike.
        object.__setattr__(self, "levels", (float(lo), float(hi)))

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
    TOL_TRACE, TOL_PSD) and keeps what the checks read: `entries`, the
    four entries of `mat` row by row as Python numbers (each float of a
    nested list stays a float; other inputs give complex numbers), and
    `eig_pair`, its ascending eigenvalues.  `mat` itself, a read-only
    complex array, is built from `entries` when first read, and is the
    same object on every later read.
    """

    mat: np.ndarray
    entries: tuple[float | complex, ...] = field(init=False, repr=False)
    eig_pair: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        entries = _square_entries(self.mat)
        defect = _hermiticity_defect(*entries)
        if defect > TOL_HERM:
            raise ValueError(f"state is not Hermitian (defect {defect:.3e})")
        tr = entries[0] + entries[3]
        if abs(tr - 1.0) > TOL_TRACE:
            # complex(): a real trace prints as numpy's complex128 trace does, "1.1+0j"
            raise ValueError(f"state trace {complex(tr):.15g} is not 1")
        eig = _eig_pair(*entries)
        if not eig[0] >= -TOL_PSD:  # NaN too: complex coherences that overflow, far below 0
            raise ValueError(f"state has negative eigenvalue {eig[0]:.3e}")
        fields = self.__dict__
        del fields["mat"]  # the input; `__getattr__` builds the array from the entries
        fields["entries"] = tuple(entries)
        fields["eig_pair"] = eig

    def __getattr__(self, name):
        # Called only for a name the instance does not hold: `mat` until its first read.
        if name != "mat":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mat = _frozen_matrix(self.entries)
        object.__setattr__(self, "mat", mat)
        return mat

    @classmethod
    def from_populations(cls, populations) -> DensityMatrix:
        """Diagonal state from a probability vector of length 2."""
        n = len(populations)
        if n != 2:
            raise ValueError(f"expected 2 populations for a 2x2 qubit state, got {n}")
        p0, p1 = populations
        return cls([[p0, 0.0], [0.0, p1]])

    @classmethod
    def pure(cls, level: int) -> DensityMatrix:
        """Projector |level><level| in the computational basis, level 0 or 1."""
        if level not in (0, 1):
            raise ValueError(f"qubit level must be 0 or 1, got {level!r}")
        return cls.from_populations((1.0, 0.0) if level == 0 else (0.0, 1.0))

    @classmethod
    def maximally_mixed(cls) -> DensityMatrix:
        return cls.from_populations((0.5, 0.5))

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal of the state."""
        return np.diag(self.mat).real.copy()

    def eigenvalues(self) -> np.ndarray:
        return np.array(self.eig_pair)


def gibbs_state(h: Hamiltonian, b: float) -> DensityMatrix:
    """Thermal state exp(-b H)/Z at dimensionless inverse temperature b > 0.

    Each call builds and validates a new state; a cycle gets its one
    thermal state from `CycleParams`.  An invalid b raises ValueError.
    A gap so wide that b times it leaves the float range gives the ground
    state, the limit, without a warning.
    """
    if not math.isfinite(b) or b <= 0:
        raise ValueError(f"inverse temperature b must be finite and positive, got {b}")
    return DensityMatrix.from_populations(_gibbs_populations(h, b))


def _gibbs_populations(h: Hamiltonian, b):
    """The (ground, excited) populations of exp(-b H)/Z, for a float b or an (N,) array of b.

    A float b gives two floats, an array two (N,) arrays.  The weights are
    taken relative to the ground level, which keeps exp() in range for any b:
    the ground weight exp(-b*0) is 1 exactly, the excited one w = exp(-b*gap)
    comes from one np.exp, and Z = 1 + w.  An overflowing gap, or b*gap, is
    inf (Python floats do not warn; numpy is told not to) and w = exp(-inf) = 0.
    """
    lo, hi = h.levels
    gap = hi - lo
    if isinstance(b, float):
        w = float(np.exp(-b * gap))
    else:
        with np.errstate(over="ignore"):
            w = np.exp(-b * gap)
    z = 1.0 + w
    return 1.0 / z, w / z


def mean_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Tr(H rho); refuses if the imaginary part exceeds TOL_ENERGY_IMAG.

    H is diagonal, so Tr(H rho) = lo * rho_00 + hi * rho_11: the
    operations `mean_energy_stack` makes, in the same order.
    """
    lo, hi = h.levels
    rho_00, _, _, rho_11 = rho.entries
    val = lo * rho_00 + hi * rho_11
    if abs(val.imag) > TOL_ENERGY_IMAG:
        raise ValueError(f"mean energy has imaginary part {val.imag:.3e}")
    return val.real


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum(lam * ln(lam)) over eigenvalues, in nats."""
    s = 0.0
    for lam in rho.eig_pair:
        lam = max(lam, 0.0)  # PSD slack in [-TOL_PSD, 0) must not produce NaN
        if lam < ENTROPY_EIG_FLOOR:
            continue
        s -= lam * math.log(lam)
    return s


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b); lies in [0, 1]."""
    lo, hi = _eig_pair(*(x - y for x, y in zip(a.entries, b.entries)))
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


def _require_float(rho: np.ndarray) -> None:
    """Refuse a stack that is not floating point; a dtype check, no pass over the entries."""
    if rho.dtype.kind != "f":
        raise ValueError("matrix entries must be real")


def mean_energy_stack(rho: np.ndarray, frequency) -> np.ndarray:
    """Tr(H rho) per state, H = `Hamiltonian.qubit(frequency)` (frequency scalar or per state).

    rho is a validated float64 (N, 2, 2) stack: a real state has no
    imaginary energy, so `mean_energy`'s TOL_ENERGY_IMAG check has nothing to refuse.
    A complex stack raises ValueError, as in `as_matrix_stack`.
    """
    _require_float(rho)
    return (-0.5 * frequency) * rho[:, 0, 0] + (0.5 * frequency) * rho[:, 1, 1]


def entropy_stack(rho: np.ndarray) -> np.ndarray:
    """`von_neumann_entropy` per state of a validated (N, 2, 2) stack.

    math.log, the scalar path's logarithm, runs once per distinct eigenvalue.
    A complex stack raises ValueError, as in `as_matrix_stack`.
    """
    _require_float(rho)
    lam = np.maximum(np.concatenate(_eigvals_stack(rho)), 0.0)  # PSD slack must not produce NaN
    kept = lam >= ENTROPY_EIG_FLOOR
    values, index = _distinct(lam[kept])
    logs = np.array([math.log(v) for v in values.tolist()])
    terms = np.zeros_like(lam)
    terms[kept] = (values * logs)[index]
    lower, upper = terms.reshape(2, -1)
    return (0.0 - lower) - upper
