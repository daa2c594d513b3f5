"""Engine cycles built from measurement strokes.

Two cycle shapes:

* three-stroke: thermalize (TP), excitation measurement (QMI), entropy-
  preserving damping measurement (QMII), and back to TP.
* five-stroke: TP, adiabatic gap stretch 1 -> r (API), QMI, QMII,
  adiabatic return r -> 1 (APII), back to TP.

At r = 1 the adiabats relabel nothing, so the three-stroke cycle is the
r = 1 five-stroke cycle viewed without its API and APII records.  Each
path therefore has one runner for both shapes, selected by nothing but
`CycleParams.mode` (which pins r = 1 for three-stroke).

Each cycle is evaluated two independent ways.  The numeric path
(`run_numeric`) evolves the density matrix stroke by stroke through the
Kraus channels and reads energies off the state.  The analytic path
(`run_analytic`) evaluates the closed-form bookkeeping for the same
cycle.  They must agree to ~1e-10; the verify suite and tests enforce
that.

The five records hold three distinct states (thermal, after QMI, after
QMII): the adiabats only relabel the gap, so TP and API share one
entropy, and QMII and APII another, each computed once.  Both runners
read the thermal state, x, tanh(b/2) and the two strengths off the
`CycleParams`, which builds them once, as `CycleGrid` builds its columns,
and take its TP and API records, which it builds once with the stretched
`Hamiltonian`; a runner forms only QMI, QMII and APII.  One scalar cycle
builds no numpy array: its states and Kraus sets are built from Python
floats and keep them, so every check and product on their entries is
float arithmetic, as on the grid's float64 stacks; the one numpy call is
the `np.exp` of the Gibbs weight.  Its frozen dataclasses skip
`object.__setattr__`: `_record` and `_energy_ledger` write every field of
the check-free `StrokeRecord` and `EnergyLedger` into a new instance's
`__dict__`, and the checked constructors write what they derive there
after their checks (`test_engine_built_records_are_whole_and_frozen`).

Sign conventions (all energies in units of the bare level spacing):
q_in is the energy imported by QMI, q_out = E_TP - E_APII is the energy
exchanged with the reservoir on thermalization (negative when the engine
dissipates), w_api = E_TP - E_API, w_apii = E_QMII - E_APII, delta is the
isentropic energy drop across QMII, w_ext = q_in + q_out is the net
extracted work, and eta = w_ext / q_in.

Adiabatic strokes are population-preserving Hamiltonian relabelings
(frequency 1 <-> r); the cycle never populates off-diagonal elements,
so nothing more is needed.  Thermalization is a full reset to the Gibbs
state.

`CycleGrid` holds many parameter points as flat arrays, and
`run_numeric_grid` / `run_analytic_grid` evaluate all of them at once:
the numeric side evolves (N, 2, 2) state stacks through (N, 2, 2, 2) Kraus
stacks, the analytic side evaluates the closed form on arrays.  The two
engines share `_strength`, `_gamma_range`, `_ledger`, `_closed_form` and
`_eta_law`, which take Python floats or float64 arrays alike, and the
channel helpers that give q.  The state evolution stays per type and makes
the same operations on the diagonal states; each transcendental comes from
the same function (`np.exp` for the Gibbs weights, one call over all
distinct b; `math.exp`/`math.tanh` for the closed form, once per distinct
b; `math.log` for the entropy, once per distinct eigenvalue).  So each
column equals the scalar field bit for bit.  A grid builds every per-point
column once, at construction: x, tanh(b/2), the excitation strengths,
the validated thermal stack and the damping strengths `q`; `subset`
slices them all, and both grid runners read them.  The analytic runner
builds and validates its QMI and QMII state stacks only when they, or
their entropies, are read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channels import (
    NoIsentropicStrengthError,
    _isentropic_strength,
    apply_unselective,
    apply_unselective_stack,
    first_channel,
    first_channel_stack,
    isentropic_strength_stack,
    second_channel,
    second_channel_stack,
)
from .linalg import _distinct
from .states import (
    DensityMatrix,
    Hamiltonian,
    _gibbs_populations,
    entropy_stack,
    gibbs_state,
    mean_energy,
    mean_energy_stack,
    population_stack,
    validate_state_stack,
    von_neumann_entropy,
)

GAMMA_NUMERIC_MIN = 0.5  # below this the population-swapping channel does not exist

FLAG_ETA_ZERO_INPUT = "eta-zero-input"
FLAG_OUTSIDE_RANGE = "gamma-outside-engine-range"
FLAG_NO_PARTNER = "no-isentropic-partner"

_H1 = Hamiltonian.qubit(1.0)  # the bare gap, before API and after APII


class InvalidCycleError(ValueError):
    """Cycle parameters violate a mode-dependent bound."""


class UnrealizableChannelError(InvalidCycleError):
    """Parameters pass the work bound but the damping channel cannot exist."""


class CycleMode(str, Enum):
    THREE_STROKE = "three"
    FIVE_STROKE = "five"


@dataclass(frozen=True)
class CycleParams:
    """Cycle control knobs: b = beta*gap, strength fraction gamma, ratio r.

    After the checks, the point's `CycleGrid` columns are built once: x = e^-b,
    th = tanh(b/2), the excitation strength P = gamma * (1 - x), the thermal
    state and q (from the same x, NaN where no partner exists); so are the
    TP and API records, which hold the thermal state under the bare and the
    stretched gap, with their energies and its entropy.  They, and `mode` as
    a `CycleMode`, are written into the instance's `__dict__` in one update.
    Equality, hash and repr ignore them.
    """

    b: float
    gamma: float
    mode: CycleMode
    r: float = 1.0
    x: float = field(init=False, repr=False, compare=False)
    th: float = field(init=False, repr=False, compare=False)
    strength: float = field(init=False, repr=False, compare=False)
    thermal: DensityMatrix = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)
    thermal_strokes: tuple[StrokeRecord, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mode = CycleMode(self.mode)
        b = self.b
        if not math.isfinite(b) or b <= 0:
            raise InvalidCycleError(f"b must be finite and positive, got {b}")
        if not math.isfinite(self.gamma) or not 0.0 <= self.gamma <= 1.0:
            raise InvalidCycleError(f"gamma must lie in [0, 1], got {self.gamma}")
        gamma_bounds(mode, self.r)  # refuses a bad r
        x = math.exp(-b)
        strength = _strength(self.gamma, x)
        try:
            q = _isentropic_strength(strength, x)
        except NoIsentropicStrengthError:
            q = math.nan
        thermal = gibbs_state(_H1, b)
        hr = Hamiltonian.qubit(self.r)
        s_th = von_neumann_entropy(thermal)
        strokes = (
            _record("TP", thermal, _H1, mean_energy(thermal, _H1), s_th),
            # API stretches the gap and leaves the populations untouched.
            _record("API", thermal, hr, mean_energy(thermal, hr), s_th),
        )
        self.__dict__.update(mode=mode, x=x, th=math.tanh(0.5 * b), strength=strength,
                             thermal=thermal, q=q, thermal_strokes=strokes)


@dataclass(frozen=True, eq=False)
class StrokeRecord:
    name: str  # TP, API, QMI, QMII, APII
    state_after: DensityMatrix
    hamiltonian_after: Hamiltonian
    energy_after: float
    entropy_after: float


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """Per-cycle energy bookkeeping from one evaluation path."""

    params: CycleParams
    source: str  # "numeric" or "analytic"
    strokes: tuple[StrokeRecord, ...]
    q_in: float
    q_out: float
    w_api: float
    w_apii: float
    delta: float
    w_ext: float
    eta: float
    q_used: float  # NaN when no isentropic partner strength exists
    valid: bool    # gamma within the mode's engine range
    flags: tuple[str, ...] = ()

    def stroke(self, name: str) -> StrokeRecord:
        for rec in self.strokes:
            if rec.name == name:
                return rec
        raise KeyError(f"no stroke named {name!r} in this ledger")


def _record(name: str, state: DensityMatrix, h: Hamiltonian, energy: float,
            entropy: float) -> StrokeRecord:
    """`StrokeRecord(name, state, h, energy, entropy)`, its fields written into `__dict__`.

    The record checks nothing; this skips the frozen `__init__`'s `object.__setattr__` per field.
    """
    rec = object.__new__(StrokeRecord)
    fields = rec.__dict__
    fields["name"] = name
    fields["state_after"] = state
    fields["hamiltonian_after"] = h
    fields["energy_after"] = energy
    fields["entropy_after"] = entropy
    return rec


def _energy_ledger(**fields) -> EnergyLedger:
    """`EnergyLedger(**fields)`, all 13 fields given, written into `__dict__` as `_record` does."""
    ledger = object.__new__(EnergyLedger)
    ledger.__dict__.update(fields)
    return ledger


def gamma_bounds(mode: CycleMode | str, r: float = 1.0) -> tuple[float, float]:
    """Engine-valid gamma range: [1/2, 1] three-stroke (r = 1 only), [1/(1+r), 1] five-stroke."""
    mode = CycleMode(mode)
    if not math.isfinite(r) or r < 1.0:
        raise InvalidCycleError(f"frequency ratio r must be >= 1, got {r}")
    if mode is CycleMode.THREE_STROKE and r != 1.0:
        raise InvalidCycleError(f"three-stroke cycle requires r = 1, got r = {r}")
    return _gamma_range(mode, r)


# The arithmetic of both engines: `+ - * /` round floats and float64 arrays alike.

def _strength(gamma, x):
    """Excitation strength P = gamma * (1 - x), with x = e^-b."""
    return gamma * (1.0 - x)


def _gamma_range(mode: CycleMode, r):
    """`gamma_bounds` of a validated r (a float, or an array for five-stroke)."""
    if mode is CycleMode.THREE_STROKE:
        return 0.5, 1.0
    return 1.0 / (1.0 + r), 1.0


def _ledger(tp, api, qmi, qmii, apii):
    """(w_api, q_in, delta, w_apii, q_out, w_ext) from the five stroke energies."""
    q_in = qmi - api
    q_out = tp - apii
    return tp - api, q_in, qmi - qmii, qmii - apii, q_out, q_in + q_out


def _closed_form(x, th, strength, r):
    """The analytic `_ledger` fields and the post-QMI (ground, excited) populations.

    x = e^-b, th = tanh(b/2).  ground = e^(b/2)/Z = 1/(1 + x), overflow-safe, is the
    thermal ground population and pumped = P * ground the part QMI moves up.
    At r = 1 the adiabatic works vanish and the rest are the three-stroke values.
    """
    ground = 1.0 / (1.0 + x)
    pumped = strength * ground
    w_api = 0.5 * (r - 1.0) * th
    q_in = r * pumped
    delta = r * (2.0 * pumped - th)  # equals w_ext up to roundoff
    w_apii = (r - 1.0) * (0.5 * th - pumped)
    q_out = pumped - th
    populations = ((1.0 - strength) * ground, x / (1.0 + x) + pumped)
    return (w_api, q_in, delta, w_apii, q_out, q_in + q_out), populations


def _eta_law(mode: CycleMode, gamma, r):
    """The closed-form eta at a non-zero gamma: 2 - 1/gamma, or (gamma*(1+r) - 1)/(gamma*r)."""
    if mode is CycleMode.THREE_STROKE:
        return 2.0 - 1.0 / gamma
    return (gamma * (1.0 + r) - 1.0) / (gamma * r)


def _cycle_strokes(p: CycleParams, rho_m: DensityMatrix,
                   rho_n: DensityMatrix) -> tuple[StrokeRecord, ...]:
    """Records of the full TP, API, QMI, QMII, APII sequence, one entropy per distinct state.

    TP and API are the point's own records; QMI, QMII and APII are formed here.
    """
    tp, api = p.thermal_strokes
    hr = api.hamiltonian_after
    s_n = von_neumann_entropy(rho_n)
    return (
        tp,
        api,
        _record("QMI", rho_m, hr, mean_energy(rho_m, hr), von_neumann_entropy(rho_m)),
        _record("QMII", rho_n, hr, mean_energy(rho_n, hr), s_n),
        # APII restores the gap before thermalization.
        _record("APII", rho_n, _H1, mean_energy(rho_n, _H1), s_n),
    )


def _view(p: CycleParams, strokes: tuple[StrokeRecord, ...]) -> tuple[StrokeRecord, ...]:
    """The strokes the mode shows: three-stroke drops the r = 1 adiabats (API and APII)."""
    if p.mode is CycleMode.THREE_STROKE:
        tp, _, qmi, qmii, _ = strokes
        return tp, qmi, qmii
    return strokes


def _require_realizable(p: CycleParams) -> None:
    lo, hi = _gamma_range(p.mode, p.r)
    if not lo <= p.gamma <= hi:
        raise InvalidCycleError(
            f"gamma = {p.gamma:g} outside the {p.mode.value}-stroke engine range [{lo:g}, {hi:g}]"
        )
    if p.gamma < GAMMA_NUMERIC_MIN:
        raise UnrealizableChannelError(
            f"isentropic channel unrealizable: gamma = {p.gamma:g} < {GAMMA_NUMERIC_MIN} "
            "leaves no damping strength in [0, 1] that swaps the populations"
        )


def run_numeric(p: CycleParams) -> EnergyLedger:
    """Evolve the cycle numerically, stroke by stroke, and ledger the energies."""
    _require_realizable(p)
    rho_m = apply_unselective(first_channel(p.strength), p.thermal)
    rho_n = apply_unselective(second_channel(p.q), rho_m)
    strokes = _cycle_strokes(p, rho_m, rho_n)
    w_api, q_in, delta, w_apii, q_out, w_ext = _ledger(*[rec.energy_after for rec in strokes])
    flags: list[str] = []
    if q_in == 0.0:
        flags.append(FLAG_ETA_ZERO_INPUT)
        eta = 0.0
    else:
        eta = w_ext / q_in
    return _energy_ledger(
        params=p, source="numeric", strokes=_view(p, strokes),
        q_in=q_in, q_out=q_out, w_api=w_api, w_apii=w_apii, delta=delta,
        w_ext=w_ext, eta=eta, q_used=p.q, valid=True, flags=tuple(flags),
    )


def run_analytic(p: CycleParams) -> EnergyLedger:
    """Closed-form ledger; defined for all gamma in [0, 1].

    Outside the engine range the values are still the formula values
    (useful for plotting the full efficiency curve) and the ledger is
    flagged invalid.  eta is the one mode-specific formula (`_eta_law`):
    the five-stroke law is exactly zero at the lower bound gamma = 1/(1+r),
    and the two agree at r = 1 only up to roundoff, so each mode keeps its
    own and the three-stroke CSV keeps its digits.
    """
    (w_api, q_in, delta, w_apii, q_out, w_ext), m_pops = _closed_form(p.x, p.th, p.strength, p.r)
    flags: list[str] = []
    if p.gamma == 0.0:
        flags.append(FLAG_ETA_ZERO_INPUT)
        eta = 0.0
    else:
        eta = _eta_law(p.mode, p.gamma, p.r)
    if math.isnan(p.q):
        flags.append(FLAG_NO_PARTNER)
    lo, hi = _gamma_range(p.mode, p.r)
    valid = lo <= p.gamma <= hi
    if not valid:
        flags.append(FLAG_OUTSIDE_RANGE)
    strokes = _cycle_strokes(p, DensityMatrix.from_populations(m_pops),
                             DensityMatrix.from_populations(m_pops[::-1]))  # QMII swaps them
    return _energy_ledger(
        params=p, source="analytic", strokes=_view(p, strokes),
        q_in=q_in, q_out=q_out, w_api=w_api, w_apii=w_apii, delta=delta,
        w_ext=w_ext, eta=eta, q_used=p.q, valid=valid, flags=tuple(flags),
    )


def numeric_realizable(p: CycleParams) -> bool:
    """True when the numeric cycle can run: gamma within bounds and >= 1/2."""
    # Validation keeps gamma <= 1, and no mode's lower bound (1/2 or 1/(1 + r)) exceeds 1/2.
    return p.gamma >= GAMMA_NUMERIC_MIN


def first_law_residual(ledger: EnergyLedger | GridLedger) -> float | np.ndarray:
    """Signed energy-balance residual of either mode; zero for a closed cycle.

    Three-stroke ledgers carry zero adiabatic work, so one identity covers
    both.  On a `GridLedger` it is the same arithmetic per grid point.
    """
    return ledger.q_out + ledger.q_in - ledger.w_api - ledger.delta - ledger.w_apii


_GRID_COLUMNS = ("b", "gamma", "r", "x", "th", "strength", "thermal", "q")


def _set_column(grid: CycleGrid, name: str, column: np.ndarray) -> None:
    column.flags.writeable = False
    object.__setattr__(grid, name, column)


@dataclass(frozen=True, eq=False)
class CycleGrid:
    """Many cycle points of one mode as flat (N,) arrays of b, gamma and r.

    Construction applies the `CycleParams` checks to every point, raising
    the error `CycleParams` raises for the first bad one, and builds every
    per-point column once, read-only: `x` = e^-b and `th` = tanh(b/2), from
    math.exp and math.tanh once per distinct b; `strength`, the excitation
    strength P = gamma * (1 - e^-b); `thermal`, the validated float64
    (N, 2, 2) Gibbs state of every point, from one `_gibbs_populations`
    call over the distinct b, as `gibbs_state` weighs each b; and `q`, the
    `isentropic_strength_stack` of every point, NaN where no partner exists.
    """

    b: np.ndarray
    gamma: np.ndarray
    mode: CycleMode
    r: np.ndarray
    x: np.ndarray = field(init=False, repr=False)
    th: np.ndarray = field(init=False, repr=False)
    strength: np.ndarray = field(init=False, repr=False)
    thermal: np.ndarray = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mode", CycleMode(self.mode))
        for name in ("b", "gamma", "r"):
            column = np.array(getattr(self, name), dtype=float)
            if column.shape != np.shape(self.b):
                raise ValueError(f"{name} has shape {column.shape}, b has {np.shape(self.b)}")
            _set_column(self, name, column)
        b, gamma, r = self.b, self.gamma, self.r
        if b.ndim != 1:
            raise ValueError(f"grid arrays must be flat, got shape {b.shape}")
        ok = (np.isfinite(b) & (b > 0) & np.isfinite(gamma) & (gamma >= 0.0)
              & (gamma <= 1.0) & np.isfinite(r) & (r >= 1.0))
        if self.mode is CycleMode.THREE_STROKE:
            ok &= r == 1.0
        if not ok.all():
            self.point(int(np.argmin(ok)))  # raises the CycleParams error for that point
        values, index = _distinct(b)
        thermal = np.zeros((len(values), 2, 2))  # `population_stack` of the Gibbs populations
        thermal[:, 0, 0], thermal[:, 1, 1] = _gibbs_populations(_H1, values)
        thermal = validate_state_stack(thermal)
        distinct = values.tolist()
        _set_column(self, "x", np.array([math.exp(-v) for v in distinct])[index])
        _set_column(self, "th", np.array([math.tanh(0.5 * v) for v in distinct])[index])
        _set_column(self, "strength", _strength(gamma, self.x))
        _set_column(self, "thermal", thermal[index])
        _set_column(self, "q", isentropic_strength_stack(self.strength, self.x))

    def __len__(self) -> int:
        return len(self.b)

    def point(self, i: int) -> CycleParams:
        """The `CycleParams` of point i."""
        return CycleParams(b=float(self.b[i]), gamma=float(self.gamma[i]),
                           mode=self.mode, r=float(self.r[i]))

    def subset(self, index) -> CycleGrid:
        """The points selected by a numpy index (mask, slice or positions), in order.

        The points are validated already, so nothing is checked or derived
        again: every column is sliced.
        """
        grid = object.__new__(CycleGrid)
        object.__setattr__(grid, "mode", self.mode)
        for name in _GRID_COLUMNS:
            _set_column(grid, name, getattr(self, name)[index])
        return grid

    @property
    def realizable(self) -> np.ndarray:
        """`numeric_realizable` per point."""
        return self.gamma >= GAMMA_NUMERIC_MIN


@dataclass(frozen=True, eq=False)
class GridLedger:
    """`EnergyLedger`'s numbers as (N,) arrays, one entry per grid point.

    `states_tp` / `states_qmi` / `states_qmii` are the validated (N, 2, 2)
    float64 states after TP (the thermal state, which API keeps), QMI and QMII.
    The numeric ledger is given all three stacks.  The analytic ledger is
    given `measured` as the (N, 2) post-QMI populations, and builds and
    validates the QMI and QMII stacks from them (QMII swaps the two) when
    they, or their entropies, are first read.  The entropies are computed,
    all three in one `entropy_stack` pass, when first asked for.
    """

    q_in: np.ndarray
    q_out: np.ndarray
    w_api: np.ndarray
    w_apii: np.ndarray
    delta: np.ndarray
    w_ext: np.ndarray
    eta: np.ndarray
    q_used: np.ndarray
    valid: np.ndarray
    states_tp: np.ndarray
    # The (states_qmi, states_qmii) stacks, or the (N, 2) populations after QMI.
    measured: tuple[np.ndarray, np.ndarray] | np.ndarray = field(repr=False)

    @functools.cached_property
    def _measured_states(self) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(self.measured, tuple):
            return self.measured
        m_pops = self.measured
        return (validate_state_stack(population_stack(m_pops)),
                validate_state_stack(population_stack(m_pops[:, ::-1])))

    @property
    def states_qmi(self) -> np.ndarray:
        return self._measured_states[0]

    @property
    def states_qmii(self) -> np.ndarray:
        return self._measured_states[1]

    @functools.cached_property
    def _entropies(self) -> np.ndarray:
        states = np.concatenate((self.states_tp, *self._measured_states))
        entropies = entropy_stack(states).reshape(3, -1)
        entropies.flags.writeable = False
        return entropies

    @property
    def entropy_tp(self) -> np.ndarray:
        return self._entropies[0]

    @property
    def entropy_qmi(self) -> np.ndarray:
        return self._entropies[1]

    @property
    def entropy_qmii(self) -> np.ndarray:
        return self._entropies[2]


def run_numeric_grid(grid: CycleGrid) -> GridLedger:
    """`run_numeric` at every point of the grid, on state and Kraus stacks.

    Raises the error `run_numeric` raises for the first unrealizable point.
    """
    realizable = grid.realizable
    if not realizable.all():
        _require_realizable(grid.point(int(np.argmin(realizable))))
    rho_th = grid.thermal
    rho_m = apply_unselective_stack(first_channel_stack(grid.strength), rho_th)
    rho_n = apply_unselective_stack(second_channel_stack(grid.q), rho_m)

    r = grid.r
    w_api, q_in, delta, w_apii, q_out, w_ext = _ledger(
        mean_energy_stack(rho_th, 1.0), mean_energy_stack(rho_th, r), mean_energy_stack(rho_m, r),
        mean_energy_stack(rho_n, r), mean_energy_stack(rho_n, 1.0))
    eta = np.divide(w_ext, q_in, out=np.zeros(len(grid)), where=q_in != 0.0)
    return GridLedger(
        q_in=q_in, q_out=q_out, w_api=w_api, w_apii=w_apii, delta=delta,
        w_ext=w_ext, eta=eta, q_used=grid.q, valid=np.ones(len(grid), dtype=bool),
        states_tp=rho_th, measured=(rho_m, rho_n),
    )


def run_analytic_grid(grid: CycleGrid) -> GridLedger:
    """`run_analytic` at every point of the grid, the closed form on arrays.

    It reads the grid's x, th and q columns.  A subnormal gamma overflows
    1/gamma, so eta is -inf there, as Python's float division gives it in
    `run_analytic`; numpy is told not to warn.  The QMI and QMII state
    stacks are built, and validated, when first read.
    """
    gamma, r = grid.gamma, grid.r
    (w_api, q_in, delta, w_apii, q_out, w_ext), m_pops = _closed_form(
        grid.x, grid.th, grid.strength, r)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta = np.where(gamma == 0.0, 0.0, _eta_law(grid.mode, gamma, r))
    lo, hi = _gamma_range(grid.mode, r)
    return GridLedger(
        q_in=q_in, q_out=q_out, w_api=w_api, w_apii=w_apii, delta=delta,
        w_ext=w_ext, eta=eta, q_used=grid.q, valid=(lo <= gamma) & (gamma <= hi),
        states_tp=grid.thermal, measured=np.stack(m_pops, axis=-1),
    )
