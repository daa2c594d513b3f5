"""`measengine verify`: every ledger of a b x gamma x r grid, checked against the closed form.

Each check family is one rule over the points it applies to.  A check
passes when |observed - expected| - tol <= 0, and a one-sided one (value <=
0) is max(value, 0) against 0 at tol 0.  NaN passes only against NaN.
Failures are reported, never raised, ordered by b, gamma, then the channels,
the three-stroke cycle and the five-stroke cycle at each r.
`adiabat-isentropic` cannot fail, and `efficiency-law` fails only where
`oracle-equivalence-eta` does.

`perturb` adds PERTURBATION to one field of every numeric ledger, so the run
must fail.  Replacing `run_five_stroke_numeric` (CycleGrid -> GridLedger)
injects a fault into the five-stroke numeric ledger alone; the three-stroke
reference and the grid's states do not pass through it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .channels import COMPLETENESS_TOL, completeness_deviation_stack, first_channel_stack
from .engine import (
    LEDGER_FIELDS,
    CycleGrid,
    CycleMode,
    GridLedger,
    _eta_law,
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

PERTURBATION = 0.1

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
    """What `run_verification` found: the check count, the failures in report order, the seconds."""

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
    """Grid points checked together: positions `at` into the flat b x gamma (x r under five) grid."""

    label: str  # excite, damp, three or five; five also names r
    at: np.ndarray

    def __getitem__(self, index) -> _Points:
        return _Points(self.label, self.at[index])


class _Checker:
    """Check families over the axes b, gamma and r, settled when first read (`count`, `failures`).

    Every family is recorded before that read; the recording order orders one
    point's failures (`test_settling_gives_the_count_and_failures_of_each_check_on_its_own`).
    """

    def __init__(self, b: np.ndarray, gamma: np.ndarray, r: np.ndarray):
        self.b, self.gamma, self.r = b, gamma, r
        # (checks, points, observed, expected, tol, detail): one check name per row.
        self._families: list[tuple] = []

    @property
    def count(self) -> int:
        return self._settled[0]

    @property
    def failures(self) -> list[CheckFailure]:
        return self._settled[1]

    def close(self, check: str, points: _Points, observed, expected, tol: float, detail: str = ""):
        """|observed - expected| <= tol; where either is NaN, passes only if both are."""
        self._families.append(((check,), points, observed, expected, tol, detail))

    def close_fields(self, prefix: str, points: _Points, observed: np.ndarray,
                     expected: np.ndarray, tol: float):
        """`close` of each (F, N) row, family prefix + field."""
        checks = tuple(prefix + field for field in LEDGER_FIELDS)
        self._families.append((checks, points, observed, expected, tol, ""))

    @functools.cached_property
    def _settled(self) -> tuple[int, list[CheckFailure]]:
        differences, tols = [], []
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            for _, _, observed, expected, tol, _ in self._families:
                if not (isinstance(expected, float) and expected == 0.0):
                    observed = observed - expected
                differences.append(observed)
                tols.append(tol)
            flat = np.concatenate(differences, axis=None)
            margins = np.abs(flat) - np.repeat(tols, [d.size for d in differences])
        passed = margins <= 0.0
        if passed.all():
            return passed.size, []
        failures = []
        family = end = 0
        for (checks, points, observed, expected, tol, detail), difference in zip(
                self._families, differences):
            start, end = end, end + difference.size
            ok = passed[start:end].reshape(difference.shape)
            if not ok.all():  # a NaN fails <=, so only then can the NaN rule act
                nan_observed, nan_expected = np.isnan(observed), np.isnan(expected)
                ok = np.where(nan_observed | nan_expected, nan_observed & nan_expected, ok)
            if not ok.all():
                rows, at = np.nonzero(~ok.reshape(len(checks), -1))
                observed = np.reshape(observed, (len(checks), -1))[rows, at].tolist()
                expected = np.broadcast_to(expected, ok.shape).reshape(len(checks), -1)[rows, at]
                label = points.label
                five = label == "five"
                b_at, gamma_at, r_at = np.unravel_index(
                    points.at[at], (len(self.b), len(self.gamma), len(self.r) if five else 1))
                axes = zip(self.b[b_at].tolist(), self.gamma[gamma_at].tolist(),
                           self.r[r_at].tolist())
                keys = zip(b_at.tolist(), gamma_at.tolist(), (_SECTIONS[label] + r_at).tolist(),
                           (family + rows).tolist())
                for key, row, (b, gamma, r), o, e in zip(keys, rows.tolist(), axes, observed,
                                                         expected.tolist()):
                    where = f"{label} b={b:g} gamma={gamma:g}" + (f" r={r:g}" if five else "")
                    failures.append((key, CheckFailure(checks[row], where + detail, o, e, tol)))
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
    """The largest off-diagonal magnitude, max(|a_01|, |a_10|), of every state of a stack."""
    return np.maximum(np.abs(states[1]), np.abs(states[2]))


def _fields(ledger: GridLedger) -> np.ndarray:
    """The LEDGER_FIELDS columns of a ledger as one (8, N) array."""
    return np.array([getattr(ledger, field) for field in LEDGER_FIELDS])


def _check_states(c: _Checker, points: _Points, grid: CycleGrid, strokes: tuple[str, ...]):
    """Entropy equality, population swap, coherence-free states; returns TP's and QMI's entropy."""
    entropy_tp, entropy_qmi, entropy_qmii = grid.entropies
    c.close("entropy-equality", points, entropy_qmi, entropy_qmii, TOL_EXACT)
    m, n, _, _ = grid.evolved
    for level in (0, 1):  # the population of a level is row 0 (ground) or 3 (excited)
        c.close("population-swap", points, n[3 * level], m[3 - 3 * level], TOL_EXACT,
                f" level={level}")
    tp, qmi, qmii = (_offdiag(states) for states in (grid.thermal, m, n))
    # Each adiabat relabels the state before it without touching it.
    offdiag = {"TP": tp, "API": tp, "QMI": qmi, "QMII": qmii, "APII": qmii}
    for name in strokes:
        c.close("coherence-free", points, offdiag[name], 0.0, TOL_COHERENCE, f" stroke={name}")
    return entropy_tp, entropy_qmi


def _check_three(c: _Checker, points: _Points, grid: CycleGrid, numeric: GridLedger,
                 fields: np.ndarray):
    """The three-stroke checks; `numeric` is the (perturbed) ledger of `grid`, with `fields`."""
    c.close_fields("oracle-equivalence-", points, fields, _fields(run_analytic_grid(grid)),
                   TOL_ORACLE)
    entropy_tp, entropy_qmi = _check_states(c, points, grid, ("TP", "QMI", "QMII"))
    gamma = grid.gamma
    c.close("efficiency-law", points, numeric.eta, _eta_law(grid.mode, gamma, grid.r), TOL_ORACLE)

    at = gamma == 0.5
    special, states = points[at], grid.evolved[0][:, at]
    lo, hi = _eigvals_stack(states - [[0.5], [0.0], [0.0], [0.5]])  # minus the maximally mixed
    c.close("special-maximal-mixing", special, 0.5 * (np.abs(lo) + np.abs(hi)), 0.0,
            TOL_EXACT)
    c.close("special-zero-energy", special, mean_energy_stack(states, 1.0), 0.0, TOL_EXACT)

    at = gamma == 1.0
    special = points[at]
    c.close("special-entropy-crossover", special, entropy_qmi[at], entropy_tp[at], TOL_EXACT)
    c.close("special-crossover-heat", special, numeric.q_in[at], grid.th[at], TOL_EXACT)
    c.close("special-zero-dissipation", special, numeric.q_out[at], 0.0, TOL_EXACT)

    # Interior strengths must raise the entropy above thermal.
    at = (gamma != 0.5) & (gamma != 1.0)
    c.close("entropy-ordering", points[at], np.maximum(entropy_tp[at] - entropy_qmi[at], 0.0),
            0.0, 0.0)


def _check_five(c: _Checker, points: _Points, grid: CycleGrid, numeric: GridLedger,
                three_fields: np.ndarray, three_at: np.ndarray):
    """The five-stroke checks; at r = 1 point i is checked against three_fields[:, three_at[i]]."""
    fields = _fields(numeric)
    c.close_fields("oracle-equivalence-", points, fields, _fields(run_analytic_grid(grid)),
                   TOL_ORACLE)
    entropy_tp, _ = _check_states(c, points, grid, ("TP", "API", "QMI", "QMII", "APII"))
    c.close("first-law", points, first_law_residual(numeric), 0.0, TOL_EXACT)
    r = grid.r
    c.close("efficiency-law", points, numeric.eta, _eta_law(grid.mode, grid.gamma, r), TOL_ORACLE)
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
    """Run every check family over the product of the given axes.

    Refuses an unknown `perturb` field, and a bad grid point with its `CycleParams` error.
    """
    if perturb is not None:
        perturb = normalize_perturb_field(perturb)
    start = time.perf_counter()
    b, gamma, r = (np.array(axis, dtype=float) for axis in (b_grid, gamma_grid, r_grid))
    nr = len(r)
    grid = CycleGrid.product(b, gamma, r, CycleMode.FIVE_STROKE)

    c = _Checker(b, gamma, r)
    realizable = grid.realizable
    three_ok = np.flatnonzero(realizable)
    three = grid.realizable_part()  # the grid itself by default
    three_numeric = run_numeric_grid(three)
    # Each application's deviation, as it checked it; the unevolved points' formed here.
    _, _, excite_deviation, damp_deviation = three.evolved
    c.close("channel-completeness", _Points("excite", three_ok), excite_deviation, 0.0,
            COMPLETENESS_TOL)
    if len(three_ok) < len(grid):
        skipped = np.flatnonzero(~realizable)
        c.close("channel-completeness", _Points("excite", skipped), completeness_deviation_stack(
            first_channel_stack(grid.strength[skipped])), 0.0, COMPLETENESS_TOL)
    c.close("channel-completeness", _Points("damp", three_ok), damp_deviation, 0.0,
            COMPLETENESS_TOL)
    three_numeric = _maybe_perturb(three_numeric, perturb)
    three_fields = _fields(three_numeric)  # checked here and again by reduction-r1-
    _check_three(c, _Points("three", three_ok), three, three_numeric, three_fields)

    five = three.stretched(r)  # carries the states `three` evolved and their entropies
    five_numeric = _maybe_perturb(run_five_stroke_numeric(five), perturb)
    # Each point's position in the flat b x gamma x r grid, and in `three` (r = 1 reduction).
    ok = (three_ok[:, None] * nr + np.arange(nr)).ravel()
    _check_five(c, _Points("five", ok), five, five_numeric, three_fields,
                np.arange(len(three_ok)).repeat(nr))
    checks_run, failures = c.count, c.failures  # settled, so the time includes settling
    return VerifyReport(checks_run, failures, time.perf_counter() - start)
