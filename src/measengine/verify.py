"""Self-check suite: every closed-form result against the numeric evolution.

This is the machinery behind `measengine verify`.  It sweeps a parameter
grid, runs every cycle both ways, and cross-checks channel completeness,
entropy conservation, population swapping, the energy ledger, the first
law, and the special points of the efficiency curve.  Failures are
collected into a report, never raised.

The optional `perturb` hook adds +0.1 to one ledger field of every
numeric ledger before checking; it exists to prove the suite actually
bites (a perturbed build must fail).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from .channels import first_channel, isentropic_strength, second_channel, validate_completeness
from .engine import (
    CycleMode,
    CycleParams,
    EnergyLedger,
    first_law_residual,
    numeric_realizable,
    run_analytic,
    run_numeric,
)
from .linalg import max_offdiag
from .states import DensityMatrix, trace_distance

DEFAULT_B_GRID = (0.1, math.log(2.0), 1.0, 5.0)
DEFAULT_GAMMA_GRID = (0.5, 0.6, 0.75, 0.9, 1.0)
DEFAULT_R_GRID = (1.0, 2.0, 5.0)

TOL_ORACLE = 1e-10      # numeric-vs-analytic ledger agreement
TOL_EXACT = 1e-12       # entropy equality, population swap, first law, special points
TOL_COHERENCE = 1e-14   # off-diagonal elements must stay at zero

LEDGER_FIELDS = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta", "q_used")

PERTURBATION = 0.1

# The five-stroke checks reach the numeric runner through this name alone,
# so a test can inject a fault into those ledgers by replacing it here
# (bench/test_bench.py does) while the r = 1 reduction's three-stroke
# reference stays clean.
run_five_stroke_numeric = run_numeric


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


class _Checker:
    def __init__(self):
        self.count = 0
        self.failures: list[CheckFailure] = []

    def close(self, check: str, where: str, observed: float, expected: float, tol: float):
        self.count += 1
        ok = abs(observed - expected) <= tol
        if math.isnan(observed) or math.isnan(expected):
            ok = math.isnan(observed) and math.isnan(expected)
        if not ok:
            self.failures.append(CheckFailure(check, where, observed, expected, tol))

    def below(self, check: str, where: str, value: float, bound: float, tol: float = 0.0):
        self.count += 1
        if not value <= bound + tol or math.isnan(value):
            self.failures.append(CheckFailure(check, where, value, bound, tol))


def normalize_perturb_field(name: str) -> str:
    """Map user spellings like 'qout' or 'Q_out' onto ledger field names."""
    flat = name.replace("_", "").replace("-", "").lower()
    for field in LEDGER_FIELDS:
        if field.replace("_", "") == flat:
            return field
    raise ValueError(
        f"unknown perturbation field {name!r}; choose one of " + ", ".join(LEDGER_FIELDS)
    )


def _maybe_perturb(ledger: EnergyLedger, field: str | None) -> EnergyLedger:
    if field is None:
        return ledger
    return replace(ledger, **{field: getattr(ledger, field) + PERTURBATION})


def _check_channels(c: _Checker, p: CycleParams):
    b, gamma = p.b, p.gamma
    strength = p.strength
    rep = validate_completeness(first_channel(strength))
    c.below("channel-completeness", f"excite b={b:g} gamma={gamma:g}", rep.max_deviation, 0.0, 1e-12)
    if numeric_realizable(p):
        q = isentropic_strength(strength, b)
        rep = validate_completeness(second_channel(q))
        c.below("channel-completeness", f"damp b={b:g} gamma={gamma:g}", rep.max_deviation, 0.0, 1e-12)


def _check_ledger_pair(c: _Checker, where: str, numeric: EnergyLedger, analytic: EnergyLedger):
    for field in LEDGER_FIELDS:
        c.close(
            f"oracle-equivalence-{field}", where,
            getattr(numeric, field), getattr(analytic, field), TOL_ORACLE,
        )


def _check_states(c: _Checker, where: str, ledger: EnergyLedger):
    qmi = ledger.stroke("QMI")
    qmii = ledger.stroke("QMII")
    c.close("entropy-equality", where, qmi.entropy_after, qmii.entropy_after, TOL_EXACT)
    pops_m = qmi.state_after.populations
    pops_n = qmii.state_after.populations
    for i, (a, bb) in enumerate(zip(pops_m[::-1], pops_n)):
        c.close("population-swap", f"{where} level={i}", bb, a, TOL_EXACT)
    for rec in ledger.strokes:
        c.below("coherence-free", f"{where} stroke={rec.name}",
                max_offdiag(rec.state_after.mat), 0.0, TOL_COHERENCE)


def _check_three(c: _Checker, p: CycleParams, perturb: str | None) -> EnergyLedger:
    """Check the three-stroke cycle; returns its (perturbed) numeric ledger."""
    b, gamma = p.b, p.gamma
    where = f"three b={b:g} gamma={gamma:g}"
    numeric = _maybe_perturb(run_numeric(p), perturb)
    analytic = run_analytic(p)
    _check_ledger_pair(c, where, numeric, analytic)
    _check_states(c, where, numeric)
    c.close("efficiency-law", where, numeric.eta, 2.0 - 1.0 / gamma, TOL_ORACLE)

    tp = numeric.stroke("TP")
    qmi = numeric.stroke("QMI")
    if gamma == 0.5:
        mixed = DensityMatrix.maximally_mixed()
        c.below("special-maximal-mixing", where,
                trace_distance(qmi.state_after, mixed), 0.0, TOL_EXACT)
        c.close("special-zero-energy", where, qmi.energy_after, 0.0, TOL_EXACT)
    elif gamma == 1.0:
        c.close("special-entropy-crossover", where,
                qmi.entropy_after, tp.entropy_after, TOL_EXACT)
        c.close("special-crossover-heat", where,
                numeric.q_in, math.tanh(0.5 * b), TOL_EXACT)
        c.close("special-zero-dissipation", where, numeric.q_out, 0.0, TOL_EXACT)
    else:
        # Interior strengths must raise the entropy above thermal.
        c.below("entropy-ordering", where,
                tp.entropy_after - qmi.entropy_after, 0.0, 0.0)
    return numeric


def _check_five(c: _Checker, b: float, gamma: float, r: float, perturb: str | None,
                three: EnergyLedger | None):
    """Check the five-stroke cycle; at r = 1 against `three`, the ledger `_check_three` checked."""
    p = CycleParams(b=b, gamma=gamma, mode=CycleMode.FIVE_STROKE, r=r)
    if not numeric_realizable(p):
        return
    where = f"five b={b:g} gamma={gamma:g} r={r:g}"
    numeric = _maybe_perturb(run_five_stroke_numeric(p), perturb)
    analytic = run_analytic(p)
    _check_ledger_pair(c, where, numeric, analytic)
    _check_states(c, where, numeric)
    c.close("first-law", where, first_law_residual(numeric), 0.0, TOL_EXACT)
    c.close("efficiency-law", where, numeric.eta,
            (gamma * (1.0 + r) - 1.0) / (gamma * r), TOL_ORACLE)
    c.close("adiabat-isentropic", where,
            numeric.stroke("API").entropy_after, numeric.stroke("TP").entropy_after, 0.0)

    if r == 1.0:  # realizable at r = 1 exactly where the three-stroke cycle is
        for field in LEDGER_FIELDS:
            c.close(f"reduction-r1-{field}", where,
                    getattr(numeric, field), getattr(three, field), TOL_EXACT)


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
    c = _Checker()
    for b in b_grid:
        for gamma in gamma_grid:
            three = CycleParams(b=b, gamma=gamma, mode=CycleMode.THREE_STROKE)
            _check_channels(c, three)
            ledger = _check_three(c, three, perturb) if numeric_realizable(three) else None
            for r in r_grid:
                _check_five(c, b, gamma, r, perturb, ledger)
    elapsed = time.perf_counter() - start
    return VerifyReport(checks_run=c.count, failures=c.failures, elapsed_seconds=elapsed)
