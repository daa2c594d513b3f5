"""Both float paths against the 50-digit closed form of `reference.py`.

The numeric and the analytic path share P = gamma * (1 - e^-b), so their
mutual cross-check cannot see an error they make alike; the reference
shares no rounding with either.  Each ledger field must lie within k
machine epsilons of the reference, in units of the reference q_in for the
energies and of 1 for eta.  K holds, per path and field, the worst k
measured over about 1.5 million points of this range (most of them at the
small-b end, where 1 - e^-b cancels), rounded up to the next 10 (numeric)
or the next integer (analytic); a change that makes a path less accurate
breaks the pin.  The examples are points where that scan found a worst
k, and each property draws from a pinned seed, so it checks the same
points on every run and after an edit to its body.  The post-QMI
populations and the three entropies are pinned alike, for the scalar
runners and the grid runners of both paths.
"""

import math
import sys
from decimal import Decimal

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from reference import LEDGER, LN2, STATES, reference_ledger, reference_states
from support import grid_states, stroke

from measengine.engine import (
    CycleGrid,
    CycleMode,
    run_analytic,
    run_analytic_grid,
    run_numeric,
    run_numeric_grid,
)

EPS = sys.float_info.epsilon
K = {
    "numeric": {"q_in": 2570, "q_out": 2780, "w_api": 1590, "w_apii": 3450, "delta": 2900,
                "w_ext": 2520, "eta": 2240},
    "analytic": {"q_in": 252, "q_out": 252, "w_api": 2, "w_apii": 249, "delta": 503,
                 "w_ext": 503, "eta": 3},
}

# The seeds that `derandomize=True` derived from each property's source before they were
# pinned (in hypothesis 6.155.2, int_from_bytes(function_digest(inner_test))), so pinning
# them drew no new point.  A seed is read before `derandomize`.
LEDGER_SEED = int("240908877006836268739019818974154023774881319775281397122091"
                  "3122735689221620564078252667064674975445855443247939759")
STATES_SEED = int("139875260301656528521101672352262541384228412095246745652990"
                  "23545943284764586904373915310488492974687152903609560058")

b_values = st.floats(math.log(1e-3), math.log(700.0)).map(math.exp)
r_values = st.floats(0.0, math.log(100.0)).map(math.exp)


def errors_in_eps(ledger, i: int, ref: dict[str, Decimal]) -> dict[str, float]:
    """|field - reference| per ledger field, in epsilons of q_in (energies) or of 1 (eta)."""
    q_in = abs(float(ref["q_in"]))
    return {
        field: float(abs(Decimal(float(getattr(ledger, field)[i])) - ref[field]))
        / (1.0 if field == "eta" else q_in) / EPS
        for field in LEDGER
    }


@seed(LEDGER_SEED)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(list(CycleMode)),
    points=st.lists(st.tuples(b_values, st.floats(0.5, 1.0), r_values), min_size=1, max_size=8),
)
@example(mode=CycleMode.FIVE_STROKE, points=[(0.0010130363616734533, 0.5035877368653691,
                                              76.70808011297748),
                                             (0.0010000000000000002, 0.5844418239509803,
                                              8.098846771851571),
                                             (0.0010000433613704914, 0.696804427541106,
                                              86.87817442375997)])
@example(mode=CycleMode.THREE_STROKE, points=[(0.001042455004464783, 0.5190871971248466, 1.0),
                                              (0.0010006647911723545, 0.8109401876699974, 1.0)])
def test_float_paths_are_within_k_eps_of_the_reference(mode, points):
    b, gamma, r = (np.array(axis) for axis in zip(*points))
    if mode is CycleMode.THREE_STROKE:
        r = np.ones_like(b)
    grid = CycleGrid(b, gamma, mode, r)
    ledgers = {"numeric": run_numeric_grid(grid), "analytic": run_analytic_grid(grid)}
    for i in range(len(grid)):
        ref = reference_ledger(float(b[i]), float(gamma[i]), float(r[i]))
        for path, ledger in ledgers.items():
            for field, k in errors_in_eps(ledger, i, ref).items():
                assert k <= K[path][field], (path, field, grid.point(i), k)


# The post-QMI populations and the TP, QMI and QMII entropies, in epsilons of 1 and of
# ln 2: the worst k measured over about 2.2 million points of this range, rounded up to
# the next integer.  A million were log-uniform in b, the rest at the small-b end, at b in
# [5, 40] with gamma near 1, and at b in [25, 40] with gamma within 20 ulps of 1.  The
# entropy pins are set by ENTROPY_EIG_FLOOR: an eigenvalue just below it drops a term
# -lam ln lam of up to 1e-15 * ln(1e15) / ln 2 = 224 epsilons; the populations are within
# 2.  Every runner of a path gives the same bits, so each path has one pin.
K_STATES = {
    "numeric": {"ground_qmi": 2, "excited_qmi": 2, "entropy_tp": 225, "entropy_qmi": 236,
                "entropy_qmii": 236},
    "analytic": {"ground_qmi": 1, "excited_qmi": 2, "entropy_tp": 225, "entropy_qmi": 237,
                 "entropy_qmii": 237},
}


def state_errors_in_eps(values: dict[str, float], ref: dict[str, Decimal]) -> dict[str, float]:
    """|value - reference| per state field, in epsilons; entropies in units of ln 2."""
    errors = {}
    for field in STATES:
        value = Decimal(values[field])
        if field.startswith("entropy"):
            value /= LN2
        errors[field] = float(abs(value - ref[field])) / EPS
    return errors


def _scalar_states(ledger) -> dict[str, float]:
    qmi = stroke(ledger, "QMI")
    rho = qmi.state_after.entries
    return {"ground_qmi": rho[0], "excited_qmi": rho[3],
            "entropy_tp": stroke(ledger, "TP").entropy_after, "entropy_qmi": qmi.entropy_after,
            "entropy_qmii": stroke(ledger, "QMII").entropy_after}


def _grid_states(stacks: tuple[np.ndarray, ...], entropies: tuple[np.ndarray, ...],
                 i: int) -> dict[str, float]:
    """Point i of a grid's post-QMI populations and of its TP, QMI and QMII entropies."""
    qmi = stacks[1]
    return {"ground_qmi": float(qmi[0, i]), "excited_qmi": float(qmi[3, i]),
            **{field: float(column[i]) for field, column in zip(STATES[2:], entropies,
                                                                 strict=True)}}


@seed(STATES_SEED)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(list(CycleMode)),
    points=st.lists(st.tuples(b_values, st.floats(0.5, 1.0), r_values), min_size=1, max_size=8),
)
@example(mode=CycleMode.FIVE_STROKE, points=[(37.4302408763018, 0.999999999999999, 3.0),
                                             (34.53960021144422, 0.9018459838102647, 50.0),
                                             (0.0013391586638993858, 0.8107347999868229, 1.0),
                                             (18.162298636825007, 0.99598917384645, 1.0)])
@example(mode=CycleMode.THREE_STROKE, points=[(20.938080843148647, 0.9948597076887663, 1.0),
                                              (2.4286773695334642, 0.5198999803339529, 1.0),
                                              (33.0, 0.7, 1.0)])  # a thermal eigenvalue of 4.7e-15
def test_states_of_every_runner_are_within_k_eps_of_the_reference(mode, points):
    b, gamma, r = (np.array(axis) for axis in zip(*points))
    if mode is CycleMode.THREE_STROKE:
        r = np.ones_like(b)
    grid = CycleGrid(b, gamma, mode, r)
    grids = {"numeric": grid_states(run_numeric_grid, grid),
             "analytic": grid_states(run_analytic_grid, grid)}
    for i in range(len(grid)):
        p = grid.point(i)
        ref = reference_states(p.b, p.gamma)
        runs = {("numeric", "scalar"): _scalar_states(run_numeric(p)),
                ("analytic", "scalar"): _scalar_states(run_analytic(p)),
                ("numeric", "grid"): _grid_states(*grids["numeric"], i),
                ("analytic", "grid"): _grid_states(*grids["analytic"], i)}
        for (path, runner), values in runs.items():
            for field, k in state_errors_in_eps(values, ref).items():
                assert k <= K_STATES[path][field], (path, runner, field, p, k)
