"""Qubit states: thermal preparation, energy and entropy, for one state or a stack.

Units: hbar = 1 and the bare gap is 1, so energies are pure numbers and
temperature enters only as b = beta * gap.  Entropies are in nats.

Every state passes `_admit`: symmetric within TOL_HERM, of unit trace within
TOL_TRACE, lower eigenvalue >= -TOL_PSD.  A state stack is a float64 (4, N)
array with the entries (r00, r01, r10, r11) as rows, so column i is the state
of point i; a grid holds it read-only.  On coherence-free states, as every
engine state is, the stack functions give each column the scalar functions'
bits (`test_grid_columns_equal_the_scalar_fields_bit_for_bit`).
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
    """Diagonal qubit Hamiltonian: two finite levels, ascending, its only field (a float tuple)."""

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
        """Levels -f/2 (ground) and +f/2 (excited), f in units of the bare gap, finite and > 0."""
        if not math.isfinite(frequency) or frequency <= 0:
            raise ValueError(f"qubit frequency must be positive, got {frequency}")
        return cls((-0.5 * frequency, +0.5 * frequency))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A checked qubit state, from a real 2x2 matrix that numpy coerces (`as_square_matrix`).

    The engine builds its states by `_state`; `_admit` refuses.  Its only views: `entries`
    (Python floats, row by row; populations at 0 and 3) and `eig_pair` (ascending), held;
    `mat` (read-only float64) and `entropy` (`von_neumann_entropy`), built on first read.
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
        """The diagonal state of two populations; any other length is refused."""
        n = len(populations)
        if n != 2:
            raise ValueError(f"expected 2 populations for a 2x2 qubit state, got {n}")
        p0, p1 = populations
        return cls([[p0, 0.0], [0.0, p1]])


def _admit(fields: dict, a00: float, a01: float, a10: float, a11: float) -> None:
    """Check four finite real entries, row by row, and write `entries` and `eig_pair` to `fields`.

    Refuses a state that is not symmetric within TOL_HERM, off unit trace by
    more than TOL_TRACE, or has an eigenvalue below -TOL_PSD or NaN.
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
    """`DensityMatrix([[a00, a01], [a10, a11]])` of four Python floats, without numpy.

    Same refusals (`test_each_input_is_accepted_or_refused_as_numpy_coerces_it`).
    """
    _require_finite(a00, a01, a10, a11)
    rho = object.__new__(DensityMatrix)
    _admit(rho.__dict__, a00, a01, a10, a11)
    return rho


def gibbs_state(h: Hamiltonian, b: float) -> DensityMatrix:
    """The thermal state exp(-b H)/Z, checked, for a finite b > 0 (else ValueError).

    A b * gap beyond the float range gives the ground state, without a warning.
    """
    if not math.isfinite(b) or b <= 0:
        raise ValueError(f"inverse temperature b must be finite and positive, got {b}")
    return DensityMatrix.from_populations(_gibbs_populations(h, b))


def _gibbs_populations(h: Hamiltonian, b):
    """(ground, excited) of exp(-b H)/Z: two floats for a float b, two (N,) arrays for an array.

    The ground weight is 1 and the excited one exp(-b * gap), so an infinite
    b * gap gives (1, 0), without a warning.
    """
    lo, hi = h.levels
    gap = hi - lo
    if isinstance(b, float):
        # np.exp, not the math.exp that gives CycleParams.x: the two differ in the last bit
        # for some b (~7 %), so either one replacing the other moves the pinned digests.
        w = float(np.exp(-b * gap))
    else:
        with np.errstate(over="ignore"):
            w = np.exp(-b * gap)
    z = 1.0 + w
    return 1.0 / z, w / z


def mean_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """Tr(H rho), a float: lo * rho_00 + hi * rho_11, since H is diagonal."""
    lo, hi = h.levels
    rho_00, _, _, rho_11 = rho.entries
    return lo * rho_00 + hi * rho_11


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum(lam * ln(lam)) in nats; eigenvalues below ENTROPY_EIG_FLOOR add 0."""
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
    """The `DensityMatrix` checks on every state of a (4, N) stack; returns it as float64.

    Refuses what `as_matrix_stack` refuses, then names the first bad state:
    `state I of the stack is not Hermitian (defect D)`, `... has trace T, not 1`
    or `... has negative eigenvalue E`.  It decides as `_admit` does at each
    tolerance (`test_coherent_psd_edge_is_the_density_matrix_rule`).
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
    """Tr(H rho) per state of a float64 (4, N) stack, H = `Hamiltonian.qubit(frequency)`.

    `frequency` is a scalar or (N,).  A complex stack is refused.
    """
    _require_float(rho)
    return (-0.5 * frequency) * rho[0] + (0.5 * frequency) * rho[3]


def entropy_stack(rho: np.ndarray) -> np.ndarray:
    """`von_neumann_entropy` per state of a float64 (4, N) stack; a complex stack is refused."""
    _require_float(rho)
    lam = np.maximum(np.concatenate(_eigvals_stack(rho)), 0.0)  # PSD slack must not produce NaN
    kept = lam >= ENTROPY_EIG_FLOOR
    values, index = _distinct(lam[kept])
    logs = np.array([math.log(v) for v in values.tolist()])
    terms = np.zeros_like(lam)
    terms[kept] = (values * logs)[index]
    lower, upper = terms.reshape(2, -1)
    return (0.0 - lower) - upper
