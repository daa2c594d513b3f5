"""Self-check suite: every closed-form result against the numeric evolution.

This is the machinery behind `measengine verify`.  It lays the b x gamma
grid out as one three-stroke `CycleGrid` and the b x gamma x r grid as one
five-stroke `CycleGrid`, restricts each to the points whose cycle is
realizable, and evaluates each twice: by `run_numeric_grid` (Kraus-channel
evolution of state stacks) and by `run_analytic_grid` (the closed form).
Each check family is one rule at every point it applies to: channel
completeness, oracle equivalence per ledger field, entropy equality,
population swap, coherence-free states per stroke, the efficiency law,
the first law, adiabat isentropy, the special points gamma = 1/2 and
gamma = 1 (and the entropy ordering between them), and the r = 1
reduction of the five-stroke cycle to the three-stroke one.  `_Checker`
records the (observed, expected, tol) of every family and decides the
whole run by one comparison of all their margins with 0.

Failures are collected into a report, never raised.  A family's points are
positions into the flat grid, named only when some check fails: then the
families are replayed one by one, and each failing position is worked back
into its b, gamma and r, formatted, and sorted: b, then gamma, then the
channels, the three-stroke cycle and the five-stroke cycle at each r.

The optional `perturb` hook adds +0.1 to one ledger field of every
numeric ledger before checking; it exists to prove the suite actually
bites (a perturbed build must fail).

The five-stroke numeric ledger comes from a single call of
`run_five_stroke_numeric`, which takes the realizable five-stroke
`CycleGrid` and returns its `GridLedger` (it is `run_numeric_grid`).
Replacing that name injects a fault into the five-stroke ledgers alone;
the three-stroke ledger, the r = 1 reduction's reference, is computed
without it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .channels import (COMPLETENESS_TOL, completeness_deviation_stack, first_channel_stack,
                       second_channel_stack)
from .engine import (
    CycleGrid,
    CycleMode,
    GridLedger,
    first_law_residual,
    run_analytic_grid,
    run_numeric_grid,
)
from .linalg import _eigvals_stack
from .states import mean_energy_stack

DEFAULT_B_GRID = (0.1, math.log(2.0), 1.0, 5.0)
DEFAULT_GAMMA_GRID = (0.5, 0.6, 0.75, 0.9, 1.0)
DEFAULT_R_GRID = (1.0, 2.0, 5.0)

TOL_ORACLE = 1e-10      # numeric-vs-analytic ledger agreement
TOL_EXACT = 1e-12       # entropy equality, population swap, first law, special points
TOL_COHERENCE = 1e-14   # off-diagonal elements must stay at zero

LEDGER_FIELDS = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta", "q_used")

PERTURBATION = 0.1

_MAXIMALLY_MIXED = 0.5 * np.eye(2)
_R_ONE = np.ones(1)  # the r axis of the b x gamma grid
# The order of the checks at one (b, gamma): channels, three-stroke, five-stroke at each r.
_SECTIONS = {"excite": 0, "damp": 0, "three": 1, "five": 2}

# The fault-injection seam (see the module docstring): CycleGrid -> GridLedger.
run_five_stroke_numeric = run_numeric_grid


@dataclass(frozen=True)
class CheckFailure:
    check: str
    where: str
    observed: float
    expected: float
    tolerance: float

    def __str__(self) -> str:
        return (
            f"FAIL {self.check} [{self.where}]: observed={self.observed:.12g} "
            f"expected={self.expected:.12g} tol={self.tolerance:g}"
        )


@dataclass
class VerifyReport:
    checks_run: int
    failures: list[CheckFailure]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [str(f) for f in self.failures]
        lines.append(
            f"verify: {self.checks_run} checks, {len(self.failures)} failures, "
            f"{self.elapsed_seconds:.3f} s"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Points:
    """Grid points checked together: positions `at` into the flat b x gamma x r grid.

    r is (1,) on the b x gamma grid.  Selecting points composes positions; only `where`
    and `key`, which name and sort a failure, work a position back into its axes.
    """

    label: str  # excite, damp, three or five; five also names r
    b: np.ndarray
    gamma: np.ndarray
    r: np.ndarray
    at: np.ndarray

    def __getitem__(self, index) -> _Points:
        return _Points(self.label, self.b, self.gamma, self.r, self.at[index])

    def _indices(self, i: int) -> tuple[int, int, int]:
        return np.unravel_index(self.at[i], (len(self.b), len(self.gamma), len(self.r)))

    def where(self, i: int) -> str:
        b_index, gamma_index, r_index = self._indices(i)
        text = f"{self.label} b={float(self.b[b_index]):g} gamma={float(self.gamma[gamma_index]):g}"
        return text + f" r={float(self.r[r_index]):g}" if self.label == "five" else text

    def key(self, i: int) -> tuple[int, int, int]:
        b_index, gamma_index, r_index = self._indices(i)
        return b_index, gamma_index, _SECTIONS[self.label] + r_index


class _Checker:
    """Records check families, then settles them all at the first read of `count` or `failures`.

    A family checks one rule at every point given.  Settling computes each
    family's margin, |observed - expected| - tol for `close` and
    `close_fields`, value - (bound + tol) for `below`, and decides the run
    with one comparison of all of them with 0: a margin is <= 0 exactly
    when its check passes (with gradual underflow a - t <= 0 iff a <= t),
    and NaN and inf fail it.  Only when some check fails are the families
    replayed one by one, under the NaN rule of `close`, to name the failing
    points.  Families are recorded in the order the checks run at one
    point, so the call number sorts the failures within a point's section.
    Every family must be recorded before the first read.
    """

    def __init__(self):
        # (checks, points, observed, expected, tol, detail, below): one check name per row.
        self._families: list[tuple] = []

    @property
    def count(self) -> int:
        return self._settled[0]

    @property
    def failures(self) -> list[CheckFailure]:
        return self._settled[1]

    def close(self, check: str, points: _Points, observed, expected, tol: float, detail: str = ""):
        """|observed - expected| <= tol; where either is NaN, passes only if both are."""
        self._families.append(((check,), points, observed, expected, tol, detail, False))

    def close_fields(self, prefix: str, points: _Points, observed: np.ndarray,
                     expected: np.ndarray, tol: float):
        """`close` of each (F, N) row, family prefix + field."""
        checks = tuple(prefix + field for field in LEDGER_FIELDS)
        self._families.append((checks, points, observed, expected, tol, "", False))

    def below(self, check: str, points: _Points, value, bound: float, tol: float = 0.0,
              detail: str = ""):
        """value <= bound + tol; a NaN value fails."""
        self._families.append(((check,), points, value, bound, tol, detail, True))

    @functools.cached_property
    def _settled(self) -> tuple[int, list[CheckFailure]]:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            margins = [observed - (expected + tol) if below else np.abs(observed - expected) - tol
                       for _, _, observed, expected, tol, _, below in self._families]
            passed = np.concatenate(margins, axis=None) <= 0.0
        if passed.all():
            return passed.size, []
        failures = []
        family = 0
        for (checks, points, observed, expected, tol, detail, below), margin in zip(
                self._families, margins):
            ok = margin <= 0.0
            if not below and not ok.all():  # a NaN fails <=, so only then can the NaN rule act
                nan_observed, nan_expected = np.isnan(observed), np.isnan(expected)
                ok = np.where(nan_observed | nan_expected, nan_observed & nan_expected, ok)
            if not ok.all():
                observed = np.reshape(observed, (len(checks), -1))
                expected = np.broadcast_to(expected, np.shape(ok)).reshape(len(checks), -1)
                rows, at = np.nonzero(~ok.reshape(len(checks), -1))
                for row, i in zip(rows.tolist(), at.tolist()):
                    failure = CheckFailure(checks[row], points.where(i) + detail,
                                           float(observed[row, i]), float(expected[row, i]), tol)
                    failures.append(((*points.key(i), family + row), failure))
            family += len(checks)
        return passed.size, [failure for _, failure in sorted(failures, key=itemgetter(0))]


def normalize_perturb_field(name: str) -> str:
    """Map user spellings like 'qout' or 'Q_out' onto ledger field names."""
    flat = name.replace("_", "").replace("-", "").lower()
    for field in LEDGER_FIELDS:
        if field.replace("_", "") == flat:
            return field
    raise ValueError(
        f"unknown perturbation field {name!r}; choose one of " + ", ".join(LEDGER_FIELDS)
    )


def _maybe_perturb(ledger: GridLedger, field: str | None) -> GridLedger:
    if field is None:
        return ledger
    return replace(ledger, **{field: getattr(ledger, field) + PERTURBATION})


def _offdiag(states: np.ndarray) -> np.ndarray:
    """`linalg.max_offdiag` of every state of a (N, 2, 2) stack."""
    return np.maximum(np.abs(states[:, 0, 1]), np.abs(states[:, 1, 0]))


def _fields(ledger: GridLedger) -> np.ndarray:
    """The LEDGER_FIELDS columns of a ledger as one (8, N) array."""
    return np.array([getattr(ledger, field) for field in LEDGER_FIELDS])


def _check_states(c: _Checker, points: _Points, ledger: GridLedger, strokes: tuple[str, ...]):
    """Entropy equality, population swap, coherence-free states; returns TP's and QMI's entropy."""
    entropy_qmi = ledger.entropy_qmi
    c.close("entropy-equality", points, entropy_qmi, ledger.entropy_qmii, TOL_EXACT)
    m, n = ledger.states_qmi, ledger.states_qmii
    for level in (0, 1):
        c.close("population-swap", points, n[:, level, level],
                m[:, 1 - level, 1 - level], TOL_EXACT, f" level={level}")
    tp, qmi, qmii = (_offdiag(states) for states in (ledger.states_tp, m, n))
    # Each adiabat relabels the state before it without touching it.
    offdiag = {"TP": tp, "API": tp, "QMI": qmi, "QMII": qmii, "APII": qmii}
    for name in strokes:
        c.below("coherence-free", points, offdiag[name], 0.0, TOL_COHERENCE, f" stroke={name}")
    return ledger.entropy_tp, entropy_qmi


def _check_three(c: _Checker, points: _Points, grid: CycleGrid, numeric: GridLedger,
                 fields: np.ndarray):
    """The three-stroke checks; `numeric` is the (perturbed) ledger of `grid`, with `fields`."""
    c.close_fields("oracle-equivalence-", points, fields, _fields(run_analytic_grid(grid)),
                   TOL_ORACLE)
    entropy_tp, entropy_qmi = _check_states(c, points, numeric, ("TP", "QMI", "QMII"))
    gamma = grid.gamma
    c.close("efficiency-law", points, numeric.eta, 2.0 - 1.0 / gamma, TOL_ORACLE)

    at = gamma == 0.5
    lo, hi = _eigvals_stack(numeric.states_qmi[at] - _MAXIMALLY_MIXED)
    c.below("special-maximal-mixing", points[at], 0.5 * (np.abs(lo) + np.abs(hi)), 0.0, TOL_EXACT)
    c.close("special-zero-energy", points[at],
            mean_energy_stack(numeric.states_qmi[at], 1.0), 0.0, TOL_EXACT)

    at = gamma == 1.0
    c.close("special-entropy-crossover", points[at], entropy_qmi[at], entropy_tp[at], TOL_EXACT)
    c.close("special-crossover-heat", points[at], numeric.q_in[at], grid.th[at], TOL_EXACT)
    c.close("special-zero-dissipation", points[at], numeric.q_out[at], 0.0, TOL_EXACT)

    # Interior strengths must raise the entropy above thermal.
    at = (gamma != 0.5) & (gamma != 1.0)
    c.below("entropy-ordering", points[at], entropy_tp[at] - entropy_qmi[at], 0.0, 0.0)


def _check_five(c: _Checker, points: _Points, grid: CycleGrid, numeric: GridLedger,
                three_fields: np.ndarray, three_at: np.ndarray):
    """The five-stroke checks; at r = 1 point i is checked against three_fields[:, three_at[i]]."""
    fields = _fields(numeric)
    c.close_fields("oracle-equivalence-", points, fields, _fields(run_analytic_grid(grid)),
                   TOL_ORACLE)
    entropy_tp, _ = _check_states(c, points, numeric, ("TP", "API", "QMI", "QMII", "APII"))
    c.close("first-law", points, first_law_residual(numeric), 0.0, TOL_EXACT)
    gamma, r = grid.gamma, grid.r
    c.close("efficiency-law", points, numeric.eta, (gamma * (1.0 + r) - 1.0) / (gamma * r),
            TOL_ORACLE)
    # API relabels the thermal state without touching its populations.
    c.close("adiabat-isentropic", points, entropy_tp, entropy_tp, 0.0)

    at = r == 1.0  # realizable at r = 1 exactly where the three-stroke cycle is
    c.close_fields("reduction-r1-", points[at], fields[:, at], three_fields[:, three_at[at]],
                   TOL_EXACT)


def run_verification(
    b_grid=DEFAULT_B_GRID,
    gamma_grid=DEFAULT_GAMMA_GRID,
    r_grid=DEFAULT_R_GRID,
    perturb: str | None = None,
) -> VerifyReport:
    """Run the full cross-check suite over the given grids."""
    if perturb is not None:
        perturb = normalize_perturb_field(perturb)
    start = time.perf_counter()
    b, gamma, r = (np.array(axis, dtype=float) for axis in (b_grid, gamma_grid, r_grid))
    nb, ng, nr = len(b), len(gamma), len(r)
    b2, gamma2 = b.repeat(ng), np.tile(gamma, nb)  # the flat b x gamma grid
    # The five-stroke grid is built first, in b > gamma > r order, so a bad
    # value raises the error the point-by-point nesting would meet first.
    five = CycleGrid(b2.repeat(nr), gamma2.repeat(nr), CycleMode.FIVE_STROKE,
                     np.tile(r, nb * ng))
    three = CycleGrid(b2, gamma2, CycleMode.THREE_STROKE, np.ones(nb * ng))

    c = _Checker()
    c.below("channel-completeness", _Points("excite", b, gamma, _R_ONE, np.arange(nb * ng)),
            completeness_deviation_stack(first_channel_stack(three.strength)), 0.0,
            COMPLETENESS_TOL)
    three_ok = np.flatnonzero(three.realizable)
    three = three.subset(three_ok)
    three_numeric = run_numeric_grid(three)
    c.below("channel-completeness", _Points("damp", b, gamma, _R_ONE, three_ok),
            completeness_deviation_stack(second_channel_stack(three_numeric.q_used)), 0.0,
            COMPLETENESS_TOL)
    three_numeric = _maybe_perturb(three_numeric, perturb)
    three_fields = _fields(three_numeric)  # checked here and again by reduction-r1-
    _check_three(c, _Points("three", b, gamma, _R_ONE, three_ok), three, three_numeric,
                 three_fields)

    ok = np.flatnonzero(five.realizable)
    five = five.subset(ok)
    five_numeric = _maybe_perturb(run_five_stroke_numeric(five), perturb)
    # The position in `three` of each point's (b, gamma), which at r = 1 is realizable there.
    _check_five(c, _Points("five", b, gamma, r, ok), five, five_numeric, three_fields,
                np.searchsorted(three_ok, ok // nr))
    elapsed = time.perf_counter() - start
    return VerifyReport(checks_run=c.count, failures=c.failures, elapsed_seconds=elapsed)
