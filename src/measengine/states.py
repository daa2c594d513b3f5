"""Working-substance states: thermal preparation, energy, and entropy.

Units are natural throughout: hbar = 1, the bare transition frequency is 1,
so every energy is a pure number (multiples of the bare level spacing) and
the only temperature parameter is the dimensionless product b = beta * gap.
Entropy is reported in nats.

The working substance is a qubit with real states: `Hamiltonian` takes
exactly two levels and `DensityMatrix` only real 2x2 matrices (via
`linalg._square_entries`; complex input is refused).  Every state, however
built, passes one check, `_admit`: the symmetry, trace and lowest-eigenvalue
checks on the four entries as Python floats, which keeps the entries and
the eigenvalue pair it computed; `mean_energy`, `von_neumann_entropy` and
`DensityMatrix.eigenvalues` read those.  The constructor builds no numpy
array from a nested list of Python floats, which is what `from_populations`
and `gibbs_state` pass.  The numeric cycle's states (its thermal state and
each channel output) already are four Python floats, so `_state` builds
them without the list: the same finiteness rule (`linalg._require_finite`)
and `_admit`, without the dataclass `__init__`.  `mat` (read-only float64)
is built from the entries when first read, which a single cycle never
does, and `entropy` is computed when first read, which a cycle whose
caller reads only the ledger never does.  `_gibbs_populations` weighs the
two levels with one `np.exp` on a float, or on a grid's array of b.

Grid evaluation holds the states of N points as one state stack instead
of one `DensityMatrix` per point.  A state stack is a float64 (4, N)
array, read-only wherever a grid holds one, whose rows are the entries
(r00, r01, r10, r11) in the order of `DensityMatrix.entries`: column i
is the state of point i, and each row is the (N,) column of one entry
over the points, which is what the channel kernel (`channels._evolve`)
takes and returns.
`validate_state_stack` applies the constructor's checks with the same
tolerances to every state of a stack (`diagonal_stack` builds and checks
one from two population columns), and `mean_energy_stack` /
`entropy_stack` give, state by state, the same bits as `mean_energy` /
`von_neumann_entropy` on coherence-free states.  On float64 entries
every difference and modulus the stack checks take is exact, as the
constructor's are, so they decide alike.
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
    _require_finite,
    _square_entries,
    as_matrix_stack,
)

TOL_TRACE = 1e-12        # |Tr(rho) - 1| accepted
TOL_PSD = 1e-12          # eigenvalues >= -TOL_PSD accepted, clamped to 0 for entropy
ENTROPY_EIG_FLOOR = 1e-15  # eigenvalues below this contribute exactly 0 to S


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
        """The read-only float64 diagonal matrix of the two levels."""
        lo, hi = self.levels
        return _frozen_matrix((lo, 0.0, 0.0, hi))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    The input is a real 2x2 matrix (`linalg._square_entries`; complex input
    is refused).  Construction validates all three invariants (`_admit`;
    tolerances TOL_HERM, TOL_TRACE, TOL_PSD) and keeps what the checks read:
    `entries`, the four entries of `mat` row by row as Python floats, and
    `eig_pair`, its ascending eigenvalues.  Two fields are computed on
    first read and kept, so every later read gives the same object:
    `mat`, a read-only float64 array built from `entries`, and `entropy`,
    the `von_neumann_entropy` of the state.
    """

    mat: np.ndarray
    entries: tuple[float, ...] = field(init=False, repr=False)
    eig_pair: tuple[float, float] = field(init=False, repr=False)
    entropy: float = field(init=False, repr=False)

    def __post_init__(self):
        fields = self.__dict__
        # `mat` is the input; `__getattr__` builds the array from the entries.
        _admit(fields, *_square_entries(fields.pop("mat")))

    def __getattr__(self, name):
        # Called only for a name the instance does not hold: `mat` or `entropy` until its first read.
        if name == "entropy":
            value = von_neumann_entropy(self)
        elif name == "mat":
            value = _frozen_matrix(self.entries)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = value
        return value

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
        """Diagonal of the state, a new float64 array."""
        return np.diag(self.mat).copy()

    def eigenvalues(self) -> np.ndarray:
        return np.array(self.eig_pair)


def _admit(fields: dict, a00: float, a01: float, a10: float, a11: float) -> None:
    """The state checks on four finite real entries, row by row; on success they go in `fields`.

    Refuses a state that is not Hermitian within TOL_HERM, off unit trace by
    more than TOL_TRACE, or has an eigenvalue below -TOL_PSD; otherwise writes
    `entries` and `eig_pair` into `fields`, a new state's `__dict__`.
    """
    defect = abs(a01 - a10)
    if defect > TOL_HERM:
        raise ValueError(f"state is not Hermitian (defect {defect:.3e})")
    tr = a00 + a11
    if abs(tr - 1.0) > TOL_TRACE:
        # complex(): the trace prints as a complex number, "1.1+0j", as a stack's does
        raise ValueError(f"state trace {complex(tr):.15g} is not 1")
    eig = _eig_pair(a00, a01, a10, a11)
    if not eig[0] >= -TOL_PSD:  # a NaN would be refused too
        raise ValueError(f"state has negative eigenvalue {eig[0]:.3e}")
    fields["entries"] = (a00, a01, a10, a11)
    fields["eig_pair"] = eig


def _state(a00: float, a01: float, a10: float, a11: float) -> DensityMatrix:
    """`DensityMatrix([[a00, a01], [a10, a11]])` of four Python floats, without the nested list.

    The same finiteness rule and checks, with the same messages, skipping the
    dataclass `__init__` and `_square_entries`' list and type checks.
    """
    _require_finite(a00, a01, a10, a11)
    rho = object.__new__(DensityMatrix)
    _admit(rho.__dict__, a00, a01, a10, a11)
    return rho


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
    """Tr(H rho), a float: H is diagonal, so lo * rho_00 + hi * rho_11.

    These are the operations `mean_energy_stack` makes, in the same order.
    """
    lo, hi = h.levels
    rho_00, _, _, rho_11 = rho.entries
    return lo * rho_00 + hi * rho_11


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum(lam * ln(lam)) over eigenvalues, in nats."""
    s = 0.0
    for lam in rho.eig_pair:
        lam = max(lam, 0.0)  # PSD slack in [-TOL_PSD, 0) must not produce NaN
        if lam < ENTROPY_EIG_FLOOR:
            continue
        s -= lam * math.log(lam)
    return s


# numpy's lower eigenvalue of a unit-trace state is within this of `_eig_pair`'s: near 0 it
# is mean - radius with both terms near 1/2, so the ulps of numpy's hypot count at unit scale.
_PSD_SLACK = 4.0 * sys.float_info.epsilon


def validate_state_stack(rho) -> np.ndarray:
    """The `DensityMatrix` checks on every state of a float64 (4, N) state stack.

    Raises ValueError if the stack is not real, not of shape (4, N) or not
    finite, as `as_matrix_stack` decides, and otherwise names the first
    state that is not Hermitian within TOL_HERM, off unit trace by more
    than TOL_TRACE, or has an eigenvalue below -TOL_PSD.  Returns the stack
    as `as_matrix_stack` coerces it, float64.  Each check is one reduction
    over the whole stack; the per-state values are formed only to name the
    state.  On real entries |a01 - a10| and |tr - 1| are exact, so they
    decide as `DensityMatrix` does; numpy's hypot can be an ulp off
    math.hypot, so a lower eigenvalue within a few ulps of -TOL_PSD is
    decided by `_eig_pair`, the constructor's rule.
    """
    m = as_matrix_stack(rho)
    r00, r01, r10, r11 = m
    defect = np.abs(r01 - r10)
    if defect.max(initial=0.0) > TOL_HERM:
        i = int(np.argmax(defect > TOL_HERM))
        raise ValueError(f"state {i} of the stack is not Hermitian (defect {defect[i]:.3e})")
    tr = r00 + r11
    off = np.abs(tr - 1.0)
    if off.max(initial=0.0) > TOL_TRACE:
        i = int(np.argmax(off > TOL_TRACE))
        raise ValueError(f"state {i} of the stack has trace {complex(tr[i]):.15g}, not 1")
    lo, _ = _eigvals_stack(m)
    near = _PSD_SLACK - TOL_PSD
    if lo.min(initial=0.0) < near:
        for i in np.flatnonzero(lo < near).tolist():
            value = _eig_pair(*m[:, i].tolist())[0]
            if value < -TOL_PSD:
                raise ValueError(f"state {i} of the stack has negative eigenvalue {value:.3e}")
    return m


def diagonal_stack(ground: np.ndarray, excited: np.ndarray) -> np.ndarray:
    """The validated (4, N) stack of the diagonal states with these (N,) population columns."""
    zero = np.zeros(len(ground))
    return validate_state_stack(np.array((ground, zero, zero, excited)))


def _require_float(rho: np.ndarray) -> None:
    """Refuse a stack that is not floating point; a dtype check, no pass over the entries."""
    if rho.dtype.kind != "f":
        raise ValueError("matrix entries must be real")


def mean_energy_stack(rho: np.ndarray, frequency) -> np.ndarray:
    """Tr(H rho) per state, H = `Hamiltonian.qubit(frequency)` (frequency scalar or per state).

    rho is a validated float64 (4, N) stack; each state gives `mean_energy`'s
    bits.  A complex stack raises ValueError, as in `as_matrix_stack`.
    """
    _require_float(rho)
    return (-0.5 * frequency) * rho[0] + (0.5 * frequency) * rho[3]


def entropy_stack(rho: np.ndarray) -> np.ndarray:
    """`von_neumann_entropy` per state of a validated (4, N) stack.

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
