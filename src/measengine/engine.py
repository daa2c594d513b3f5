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
QMII): the adiabats only relabel the gap, so TP and API share one state,
and QMII and APII another.  A record's entropy is its state's, computed
on first read and kept on the state (`DensityMatrix.entropy`), so each
distinct state's entropy is computed at most once, and a caller that
reads only the ledger computes none.  Both runners
read the thermal state, x, tanh(b/2) and the two strengths off the
`CycleParams`, which builds them once, as `CycleGrid` builds its columns,
and take its TP and API records, which it builds once with the stretched
`Hamiltonian` (the bare `_H1` at r = 1); a runner forms only QMI, QMII
and APII.  One scalar cycle
builds no numpy array and no `KrausSet`: its states are built from Python
floats and keep them, and it hands the channel kernel the excitation and
damping entries as Python floats, so every check and product on them is
float arithmetic, as on the grid's float64 columns; the one numpy call is
the `np.exp` of the Gibbs weight.  The numeric path's three states, the
thermal one and the two channel outputs, go from their four floats
straight to the state checks (`states._state`), with no nested list and
no dataclass `__init__`; the analytic path's two are built from their
populations by `DensityMatrix.from_populations`.  The frozen dataclasses
skip `object.__setattr__`: `_record` and `_unchecked` write every field of a
check-free `StrokeRecord`, `EnergyLedger` or `GridLedger` into a new
instance's `__dict__`, and the checked constructors (`CycleParams`,
`CycleGrid`) write what they derive there after their checks
(`test_engine_built_records_are_whole_and_frozen`).

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
the numeric side evolves (4, N) state stacks (laid out as `states` sets
out) through grid channels, the analytic side evaluates the closed form
on arrays.  The two engines share `_strength`, `_gamma_range`, `_ledger`,
`_closed_form`, `_measured` (the post-QMI populations), `_eta_law` (the one
place both eta laws are written), the partner strength q (`channels`' one
rule: NaN where no partner exists), `LEDGER_FIELDS` (the eight numbers
`verify` checks and `cycle` prints) and the channel kernel
(`channels._completeness_terms` and `_evolve`), which take Python floats
or float64 columns alike, and each transcendental comes from the same
function (`np.exp` for the Gibbs weights, `math.exp`/`math.tanh` once per
distinct b, `math.log` once per distinct eigenvalue), so each column
equals the scalar field bit for bit (`tests/test_sweep.py`).

A grid builds every per-point column once, at construction, and owns
every per-point state and entropy: `thermal`, the `evolved` states (with
the deviation each channel application checked), the `closed_form` states
and the entropies of both, each built once, on first read.  None depends
on r, so `stretched` repeats them over r instead of building them again,
except the `closed_form` states: no caller reads them on a derived grid,
so it carries only their entropies, and builds the states again from its
x and strength columns if they are read.
A `GridLedger` is the ledger's numbers alone; a caller that reads a state
or an entropy reads it off the grid.  Both `verify` and `sweep` evaluate
a b x gamma grid (`CycleGrid.product`) stretched over their r axis this
way; `verify` evolves its `realizable_part`, the grid itself when every
point is realizable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channels import (
    _damp,
    _excite,
    _isentropic_strength,
    apply_unselective_stack,
    first_channel_stack,
    isentropic_strength_stack,
    second_channel_stack,
)
from .linalg import _distinct
from .states import (
    DensityMatrix,
    Hamiltonian,
    _gibbs_populations,
    _state,
    diagonal_stack,
    entropy_stack,
    mean_energy,
    mean_energy_stack,
)

GAMMA_NUMERIC_MIN = 0.5  # below this the population-swapping channel does not exist

FLAG_ETA_ZERO_INPUT = "eta-zero-input"
FLAG_OUTSIDE_RANGE = "gamma-outside-engine-range"
FLAG_NO_PARTNER = "no-isentropic-partner"

# The ledger's numbers, in the order `verify` checks them and `cycle` prints them.
LEDGER_FIELDS = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta", "q_used")

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
    state (the Gibbs populations of float(b), built by `states._state`) and
    q (from the same x, NaN where no partner exists); so are the TP and API
    records, which hold the thermal state under the bare gap (`_H1`) and the
    stretched one (`_H1` again at r = 1), with their energies; their entropy
    is the thermal state's, computed on first read.
    They, and `mode` as a `CycleMode`, are written into the instance's
    `__dict__` in one update.  Equality, hash and repr ignore them.
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
        b, r = self.b, self.r
        if not math.isfinite(b) or b <= 0:
            raise InvalidCycleError(f"b must be finite and positive, got {b}")
        if not math.isfinite(self.gamma) or not 0.0 <= self.gamma <= 1.0:
            raise InvalidCycleError(f"gamma must lie in [0, 1], got {self.gamma}")
        _require_ratio(mode, r)
        x = math.exp(-b)
        strength = _strength(self.gamma, x)
        ground, excited = _gibbs_populations(_H1, float(b))  # float entries for an integer b too
        thermal = _state(ground, 0.0, 0.0, excited)
        hr = _H1 if r == 1.0 else Hamiltonian.qubit(r)
        strokes = (
            _record("TP", thermal, _H1, mean_energy(thermal, _H1)),
            # API stretches the gap and leaves the populations untouched.
            _record("API", thermal, hr, mean_energy(thermal, hr)),
        )
        self.__dict__.update(mode=mode, x=x, th=math.tanh(0.5 * b), strength=strength,
                             thermal=thermal, q=_isentropic_strength(strength, x),
                             thermal_strokes=strokes)


@dataclass(frozen=True, eq=False)
class StrokeRecord:
    """One stroke's state, Hamiltonian and energy after it.

    `entropy_after` is the entropy of `state_after`, which the state computes
    on first read and keeps (`DensityMatrix.entropy`), so records that share
    a state share one computation.
    """

    name: str  # TP, API, QMI, QMII, APII
    state_after: DensityMatrix
    hamiltonian_after: Hamiltonian
    energy_after: float

    @property
    def entropy_after(self) -> float:
        return self.state_after.entropy


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


def _record(name: str, state: DensityMatrix, h: Hamiltonian, energy: float) -> StrokeRecord:
    """`StrokeRecord(name, state, h, energy)`, its fields written into `__dict__`.

    The record checks nothing; this skips the frozen `__init__`'s `object.__setattr__` per field.
    """
    rec = object.__new__(StrokeRecord)
    fields = rec.__dict__
    fields["name"] = name
    fields["state_after"] = state
    fields["hamiltonian_after"] = h
    fields["energy_after"] = energy
    return rec


def _unchecked(cls, **fields):
    """`cls(**fields)`, every field given, written into `__dict__` as `_record` does."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def gamma_bounds(mode: CycleMode | str, r: float = 1.0) -> tuple[float, float]:
    """Engine-valid gamma range: [1/2, 1] three-stroke (r = 1 only), [1/(1+r), 1] five-stroke."""
    _require_ratio(CycleMode(mode), r)
    return _gamma_range(r)


def _require_ratio(mode: CycleMode, r: float) -> None:
    """Refuse an r that is not finite or below 1, or that is not 1 for three-stroke."""
    if not math.isfinite(r) or r < 1.0:
        raise InvalidCycleError(f"frequency ratio r must be >= 1, got {r}")
    if mode is CycleMode.THREE_STROKE and r != 1.0:
        raise InvalidCycleError(f"three-stroke cycle requires r = 1, got r = {r}")


def _ratios_ok(mode: CycleMode, r: np.ndarray) -> np.ndarray:
    """Per entry of an r array, whether `_require_ratio` accepts it."""
    if mode is CycleMode.THREE_STROKE:
        return r == 1.0
    return np.isfinite(r) & (r >= 1.0)


# The arithmetic of both engines: `+ - * /` round floats and float64 arrays alike.

def _strength(gamma, x):
    """Excitation strength P = gamma * (1 - x), with x = e^-b."""
    return gamma * (1.0 - x)


def _gamma_range(r):
    """`gamma_bounds` of a validated r (a float or an array): [1/(1+r), 1], [1/2, 1] at r = 1."""
    return 1.0 / (1.0 + r), 1.0


def _ledger(tp, api, qmi, qmii, apii):
    """(w_api, q_in, delta, w_apii, q_out, w_ext) from the five stroke energies."""
    q_in = qmi - api
    q_out = tp - apii
    return tp - api, q_in, qmi - qmii, qmii - apii, q_out, q_in + q_out


def _closed_form(x, th, strength, r):
    """The analytic `_ledger` fields.

    x = e^-b, th = tanh(b/2).  ground = e^(b/2)/Z = 1/(1 + x), overflow-safe, is the
    thermal ground population and pumped = P * ground the part QMI moves up.
    At r = 1 the adiabatic works vanish and the rest are the three-stroke values.
    """
    pumped = strength * (1.0 / (1.0 + x))
    w_api = 0.5 * (r - 1.0) * th
    q_in = r * pumped
    delta = r * (2.0 * pumped - th)  # equals w_ext up to roundoff
    w_apii = (r - 1.0) * (0.5 * th - pumped)
    q_out = pumped - th
    return w_api, q_in, delta, w_apii, q_out, q_in + q_out


def _measured(x, strength):
    """The (ground, excited) populations after QMI, pumped as `_closed_form` pumps them."""
    ground = 1.0 / (1.0 + x)
    return (1.0 - strength) * ground, x / (1.0 + x) + strength * ground


def _eta_law(mode: CycleMode, gamma, r):
    """The closed-form eta at a non-zero gamma: 2 - 1/gamma, or (gamma*(1+r) - 1)/(gamma*r)."""
    if mode is CycleMode.THREE_STROKE:
        return 2.0 - 1.0 / gamma
    return (gamma * (1.0 + r) - 1.0) / (gamma * r)


def _cycle_strokes(p: CycleParams, rho_m: DensityMatrix,
                   rho_n: DensityMatrix) -> tuple[StrokeRecord, ...]:
    """Records of the full TP, API, QMI, QMII, APII sequence.

    TP and API are the point's own records; QMI, QMII and APII are formed here.
    """
    tp, api = p.thermal_strokes
    hr = api.hamiltonian_after
    return (
        tp,
        api,
        _record("QMI", rho_m, hr, mean_energy(rho_m, hr)),
        _record("QMII", rho_n, hr, mean_energy(rho_n, hr)),
        # APII restores the gap before thermalization.
        _record("APII", rho_n, _H1, mean_energy(rho_n, _H1)),
    )


def _view(p: CycleParams, strokes: tuple[StrokeRecord, ...]) -> tuple[StrokeRecord, ...]:
    """The strokes the mode shows: three-stroke drops the r = 1 adiabats (API and APII)."""
    if p.mode is CycleMode.THREE_STROKE:
        tp, _, qmi, qmii, _ = strokes
        return tp, qmi, qmii
    return strokes


def _require_realizable(p: CycleParams) -> None:
    lo, hi = _gamma_range(p.r)
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
    """Evolve the cycle numerically, stroke by stroke, and ledger the energies.

    Each channel is applied on its entries by `channels._excite` / `_damp`:
    every application checks its strength's range, then completeness.
    """
    _require_realizable(p)
    rho_m = _excite(p.strength, p.thermal)
    rho_n = _damp(p.q, rho_m)
    strokes = _cycle_strokes(p, rho_m, rho_n)
    w_api, q_in, delta, w_apii, q_out, w_ext = _ledger(*[rec.energy_after for rec in strokes])
    flags: list[str] = []
    if q_in == 0.0:
        flags.append(FLAG_ETA_ZERO_INPUT)
        eta = 0.0
    else:
        eta = w_ext / q_in
    return _unchecked(
        EnergyLedger, params=p, source="numeric", strokes=_view(p, strokes),
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
    w_api, q_in, delta, w_apii, q_out, w_ext = _closed_form(p.x, p.th, p.strength, p.r)
    flags: list[str] = []
    if p.gamma == 0.0:
        flags.append(FLAG_ETA_ZERO_INPUT)
        eta = 0.0
    else:
        eta = _eta_law(p.mode, p.gamma, p.r)
    if math.isnan(p.q):
        flags.append(FLAG_NO_PARTNER)
    lo, hi = _gamma_range(p.r)
    valid = lo <= p.gamma <= hi
    if not valid:
        flags.append(FLAG_OUTSIDE_RANGE)
    m_pops = _measured(p.x, p.strength)
    strokes = _cycle_strokes(p, DensityMatrix.from_populations(m_pops),
                             DensityMatrix.from_populations(m_pops[::-1]))  # QMII swaps them
    return _unchecked(
        EnergyLedger, params=p, source="analytic", strokes=_view(p, strokes),
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


_TAKEN_COLUMNS = ("b", "gamma", "x", "th", "strength", "thermal", "q")  # `_taken` is given r
# The cached stacks `_taken` carries, each a tuple of arrays with the point axis last.  Not
# `closed_form`: a sweep batch reads only its entropies, so copying its states would be waste.
_KEPT = ("evolved", "entropies", "closed_form_entropies")


def _read_only(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    for column in columns:
        column.flags.writeable = False
    return columns


@dataclass(frozen=True, eq=False)
class CycleGrid:
    """Many cycle points of one mode as flat (N,) arrays of b, gamma and r.

    Construction applies the `CycleParams` checks to every point, raising
    the error `CycleParams` raises for the first bad one, and builds every
    per-point column once, read-only: `x` = e^-b and `th` = tanh(b/2), from
    math.exp and math.tanh once per distinct b; `strength`, the excitation
    strength P = gamma * (1 - e^-b); `thermal`, the validated (4, N) state
    stack of every point's Gibbs state, from one `_gibbs_populations`
    call over the distinct b, as `gibbs_state` weighs each b; and `q`, the
    `isentropic_strength_stack` of every point, NaN where no partner exists.
    The grid owns every per-point state and entropy: `thermal`, and the `_KEPT`
    stacks, each built once, on first read, and carried by `subset` and `stretched`;
    `closed_form`, which only its entropies' first read needs, is not carried.
    Every kept array has the point axis last, so one index rule, `[..., index]`, takes points.
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
        fields = self.__dict__  # every field is written here, as `_taken` writes them
        fields["mode"] = CycleMode(self.mode)
        for name in ("b", "gamma", "r"):
            column = np.array(fields[name], dtype=float)
            if column.shape != np.shape(self.b):
                raise ValueError(f"{name} has shape {column.shape}, b has {np.shape(self.b)}")
            fields[name] = column
        b, gamma, r = self.b, self.gamma, self.r
        if b.ndim != 1:
            raise ValueError(f"grid arrays must be flat, got shape {b.shape}")
        ok = (np.isfinite(b) & (b > 0) & np.isfinite(gamma) & (gamma >= 0.0)
              & (gamma <= 1.0) & _ratios_ok(self.mode, r))
        if not ok.all():
            self.point(int(np.argmin(ok)))  # raises the CycleParams error for that point
        values, index = _distinct(b)
        ground, excited = _gibbs_populations(_H1, values)
        thermal = diagonal_stack(ground, excited)
        distinct = values.tolist()
        x = np.array([math.exp(-v) for v in distinct])[index]
        strength = _strength(gamma, x)
        fields.update(x=x, th=np.array([math.tanh(0.5 * v) for v in distinct])[index],
                      strength=strength, thermal=thermal[:, index],
                      q=isentropic_strength_stack(strength, x))
        _read_only(*(fields[name] for name in ("r", *_TAKEN_COLUMNS)))

    @classmethod
    def product(cls, b, gamma, r, mode: CycleMode | str) -> CycleGrid:
        """The b x gamma points (b outer) of the b x gamma x r product in `mode`, at r = 1.

        Raises the `CycleParams` error of the product's first bad point in its flat
        b > gamma > r order: a bad r meets the first (b, gamma), before a later bad b or
        gamma.  The grid is three-stroke; `stretched(r, mode)` gives the product's points.
        """
        b, gamma, r = (np.array(axis, dtype=float) for axis in (b, gamma, r))
        mode = CycleMode(mode)
        ok = _ratios_ok(mode, r)
        if len(b) * len(gamma) and not ok.all():
            CycleParams(float(b[0]), float(gamma[0]), mode, float(r[np.argmin(ok)]))  # raises
        return cls(b.repeat(len(gamma)), np.tile(gamma, len(b)), CycleMode.THREE_STROKE,
                   np.ones(len(b) * len(gamma)))

    def __len__(self) -> int:
        return len(self.b)

    def point(self, i: int) -> CycleParams:
        """The `CycleParams` of point i."""
        return CycleParams(b=float(self.b[i]), gamma=float(self.gamma[i]),
                           mode=self.mode, r=float(self.r[i]))

    def subset(self, index) -> CycleGrid:
        """The points selected by a numpy index (mask, slice or positions), in order, sliced."""
        return self._taken(index, self.mode, self.r[index])

    def realizable_part(self) -> CycleGrid:
        """The `realizable` points: the grid itself where every point is, else their subset."""
        realizable = self.realizable
        return self if realizable.all() else self.subset(realizable)

    def stretched(self, r, mode: CycleMode | str = CycleMode.FIVE_STROKE) -> CycleGrid:
        """The `mode` grid of every point at each ratio of r: point i at r[k] is i*len(r) + k.

        Only r is checked, as `CycleParams` checks it in `mode`; the states and their
        entropies do not depend on r, so the rest is repeated, not rebuilt.
        """
        mode = CycleMode(mode)
        r = np.array(r, dtype=float)
        ok = _ratios_ok(mode, r)
        if len(self) and not ok.all():
            _require_ratio(mode, float(r[np.argmin(ok)]))
        return self._taken(np.arange(len(self)).repeat(len(r)), mode, np.tile(r, len(self)))

    def _taken(self, index, mode: CycleMode, r: np.ndarray) -> CycleGrid:
        """The points at `index` in `mode` with ratios r, and the `_KEPT` stacks read so far."""
        kept = self.__dict__
        grid = object.__new__(CycleGrid)
        fields = grid.__dict__
        fields["mode"] = mode
        fields.update(zip(("r", *_TAKEN_COLUMNS),
                          _read_only(r, *(kept[name][..., index] for name in _TAKEN_COLUMNS))))
        for name in _KEPT:
            if name in kept:
                fields[name] = _read_only(*(array[..., index] for array in kept[name]))
        return grid

    @property
    def realizable(self) -> np.ndarray:
        """`numeric_realizable` per point."""
        return self.gamma >= GAMMA_NUMERIC_MIN

    @functools.cached_property
    def evolved(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rho_m, rho_n, excite, damp): the QMI and QMII states, each application's deviation.

        Raises the error `run_numeric` raises for the first unrealizable point.
        """
        realizable = self.realizable
        if not realizable.all():
            _require_realizable(self.point(int(np.argmin(realizable))))
        rho_m, excite = apply_unselective_stack(first_channel_stack(self.strength), self.thermal)
        rho_n, damp = apply_unselective_stack(second_channel_stack(self.q), rho_m)
        return _read_only(rho_m, rho_n, excite, damp)

    @functools.cached_property
    def entropies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (N,) entropies of `thermal` and of the two `evolved` stacks."""
        rho_m, rho_n, _, _ = self.evolved
        return _entropies(self.thermal, rho_m, rho_n)

    @functools.cached_property
    def closed_form(self) -> tuple[np.ndarray, np.ndarray]:
        """The validated QMI and QMII stacks of the closed form: QMII swaps `_measured`'s two."""
        ground, excited = _measured(self.x, self.strength)
        return _read_only(diagonal_stack(ground, excited), diagonal_stack(excited, ground))

    @functools.cached_property
    def closed_form_entropies(self) -> tuple[np.ndarray, np.ndarray]:
        """The (N,) entropies of the two `closed_form` stacks."""
        return _entropies(*self.closed_form)


def _entropies(*stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The read-only (N,) entropies of each (4, N) stack: one `entropy_stack` pass."""
    return _read_only(*entropy_stack(np.hstack(stacks)).reshape(len(stacks), -1))


@dataclass(frozen=True, eq=False)
class GridLedger:
    """`EnergyLedger`'s numbers as (N,) arrays, one entry per grid point, and nothing else.

    The states after each stroke and their entropies are the grid's: the
    numeric ledger's are `CycleGrid.thermal`, `evolved` and `entropies`, the
    analytic ledger's `thermal`, `closed_form` and `closed_form_entropies`.
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


def run_numeric_grid(grid: CycleGrid) -> GridLedger:
    """`run_numeric` at every point of the grid: the energies and eta of its `evolved` states."""
    rho_m, rho_n, _, _ = grid.evolved
    rho_th, r = grid.thermal, grid.r
    w_api, q_in, delta, w_apii, q_out, w_ext = _ledger(
        mean_energy_stack(rho_th, 1.0), mean_energy_stack(rho_th, r), mean_energy_stack(rho_m, r),
        mean_energy_stack(rho_n, r), mean_energy_stack(rho_n, 1.0))
    eta = np.divide(w_ext, q_in, out=np.zeros(len(grid)), where=q_in != 0.0)
    return _unchecked(
        GridLedger, q_in=q_in, q_out=q_out, w_api=w_api, w_apii=w_apii, delta=delta,
        w_ext=w_ext, eta=eta, q_used=grid.q, valid=np.ones(len(grid), dtype=bool),
    )


def run_analytic_grid(grid: CycleGrid) -> GridLedger:
    """`run_analytic` at every point of the grid, the closed form on arrays.

    It reads the grid's x, th and q columns.  A subnormal gamma overflows
    1/gamma, so eta is -inf there, as Python's float division gives it in
    `run_analytic`; numpy is told not to warn.  Its QMI and QMII states are
    the grid's `closed_form`, built and validated when first read.
    """
    gamma, r = grid.gamma, grid.r
    w_api, q_in, delta, w_apii, q_out, w_ext = _closed_form(grid.x, grid.th, grid.strength, r)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta = np.where(gamma == 0.0, 0.0, _eta_law(grid.mode, gamma, r))
    lo, hi = _gamma_range(r)
    return _unchecked(
        GridLedger, q_in=q_in, q_out=q_out, w_api=w_api, w_apii=w_apii, delta=delta,
        w_ext=w_ext, eta=eta, q_used=grid.q, valid=(lo <= gamma) & (gamma <= hi),
    )
