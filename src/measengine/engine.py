"""Engine cycles from measurement strokes, evaluated numerically and in closed form.

Strokes: TP (full reset to the Gibbs state at the bare gap), API (adiabatic
stretch 1 -> r), QMI (excitation, strength P = gamma * (1 - e^-b)), QMII
(damping at the isentropic partner q), APII (return r -> 1).  The adiabats
relabel the gap and keep the populations; no stroke makes a coherence.  The
three-stroke cycle is the r = 1 five-stroke cycle without API and APII
(`test_is_the_r1_five_stroke_cycle_without_adiabats`).

Energies are in units of the bare gap.  Signs: q_in = E_QMI - E_API, the
energy QMI imports; q_out = E_TP - E_APII, the heat from the bath, negative
when the engine dissipates; w_api = E_TP - E_API; w_apii = E_QMII - E_APII;
delta = E_QMI - E_QMII; w_ext = q_in + q_out; eta = w_ext / q_in.

`run_numeric` evolves the state through the channels and `run_analytic`
evaluates the closed form.  `run_numeric_grid` and `run_analytic_grid` do the
same on a `CycleGrid`, and give each point the scalar runner's bits
(`test_grid_columns_equal_the_scalar_fields_bit_for_bit`).
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
    """The cycle's shape, by its CLI name: "three" (r = 1 only) or "five" strokes."""

    THREE_STROKE = "three"
    FIVE_STROKE = "five"


@dataclass(frozen=True)
class CycleParams:
    """One cycle's inputs: b = beta * gap > 0, gamma in [0, 1], r >= 1 (r = 1 if three-stroke).

    A bad b, gamma or r raises `InvalidCycleError`, an unknown mode ValueError; each is
    then kept as a Python float.  Derived at construction and left out of equality, hash
    and repr: x = e^-b, th = tanh(b/2), the strength P = gamma * (1 - x), q (NaN where
    no partner exists), the `thermal` state, and `thermal_strokes`, the TP and API records.
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
        b, gamma, r = self.b, self.gamma, self.r
        if not math.isfinite(b) or b <= 0:
            raise InvalidCycleError(f"b must be finite and positive, got {b}")
        if not math.isfinite(gamma) or not 0.0 <= gamma <= 1.0:
            raise InvalidCycleError(f"gamma must lie in [0, 1], got {gamma}")
        _require_ratio(mode, r)
        b, gamma, r = float(b), float(gamma), float(r)  # after the checks, which print the input
        x = math.exp(-b)
        strength = _strength(gamma, x)
        ground, excited = _gibbs_populations(_H1, b)
        thermal = _state(ground, 0.0, 0.0, excited)
        hr = _H1 if r == 1.0 else Hamiltonian.qubit(r)
        strokes = (
            _record("TP", thermal, _H1, mean_energy(thermal, _H1)),
            # API stretches the gap and leaves the populations untouched.
            _record("API", thermal, hr, mean_energy(thermal, hr)),
        )
        self.__dict__.update(b=b, gamma=gamma, r=r, mode=mode, x=x, th=math.tanh(0.5 * b),
                             strength=strength, thermal=thermal,
                             q=_isentropic_strength(strength, x), thermal_strokes=strokes)


@dataclass(frozen=True, eq=False)
class StrokeRecord:
    """A stroke's state, Hamiltonian and energy after it; `entropy_after` is the state's."""

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


def _record(name: str, state: DensityMatrix, h: Hamiltonian, energy: float) -> StrokeRecord:
    """`StrokeRecord(name, state, h, energy)`, its fields written straight into `__dict__`."""
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
    """The analytic `_ledger` fields at x = e^-b and th = tanh(b/2).

    The thermal ground population is taken as 1/(1 + x), which cannot overflow.
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
    """The records TP and API (the point's own), then QMI, QMII and APII of these states."""
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
    """The ledger of the cycle evolved through the channels, stroke by stroke.

    Refuses gamma outside `gamma_bounds` (`InvalidCycleError`) and gamma < 1/2,
    which has no damping partner (`UnrealizableChannelError`).
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
    """The closed-form ledger, at any gamma in [0, 1].

    eta is the mode's `_eta_law` (0.0 at gamma = 0).  Each of these is flagged:
    gamma = 0, no isentropic partner (q_used NaN), and gamma outside the engine
    range, which also sets `valid` False.
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
    ground, excited = _measured(p.x, p.strength)
    strokes = _cycle_strokes(p, _state(ground, 0.0, 0.0, excited),
                             _state(excited, 0.0, 0.0, ground))  # QMII swaps them
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
    """The signed energy balance of a scalar or grid ledger: zero for a closed cycle."""
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
    """N cycle points of one mode as flat read-only (N,) columns b, gamma and r.

    Columns that are not flat or not of one shape raise ValueError, and a bad
    point the error its `CycleParams` raises.  Built at construction: x, th,
    strength and q, as `CycleParams` derives them, and `thermal`, the (4, N)
    Gibbs stack.  Built on first read and kept: `evolved`, `entropies`,
    `closed_form` and `closed_form_entropies`.  Every array has the point axis
    last; `subset` and `stretched` carry the `_KEPT` ones.
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
        """The b x gamma points (b outer) as a three-stroke grid at r = 1.

        Refuses the first bad point of the b x gamma x r product, in its flat order.
        `stretched(r, mode)` gives the product's points.
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
        """Every point at each ratio of r, in `mode`: point i at r[k] is i*len(r) + k.

        Only r is checked, as `CycleParams` checks it; the states and entropies are repeated.
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
    """`EnergyLedger`'s numbers and `valid` as (N,) arrays; states and entropies are the grid's."""

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
    """`run_analytic` at every point of the grid, on arrays.

    A subnormal gamma gives eta = -inf, as `run_analytic` does, without a warning.
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
