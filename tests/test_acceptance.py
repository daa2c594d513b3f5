"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

from measengine.channels import (
    apply_unselective,
    first_channel,
    isentropic_strength,
    measure_selective,
    second_channel,
    validate_completeness,
)
from measengine.cli import main
from measengine.engine import (
    CycleMode,
    CycleParams,
    first_law_residual,
    gamma_bounds,
    run_analytic,
    run_numeric,
)
from measengine.states import DensityMatrix, trace_distance
from support import random_density_matrix, random_kraus_set

B_GRID = (0.1, math.log(2.0), 1.0, 5.0)
GAMMA_GRID = (0.5, 0.6, 0.75, 0.9, 1.0)
R_GRID = (1.0, 2.0, 5.0)
LEDGER_FIELDS = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta", "q_used")


def three(b, gamma):
    return CycleParams(b=b, gamma=gamma, mode=CycleMode.THREE_STROKE)


def five(b, gamma, r):
    return CycleParams(b=b, gamma=gamma, mode=CycleMode.FIVE_STROKE, r=r)


def report(num: int, desc: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {status} {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:10])


def test_criterion_01_efficiency_endpoints():
    failures = []
    for b in B_GRID:
        lo = run_numeric(three(b, 0.5)).eta
        hi = run_numeric(three(b, 1.0)).eta
        if abs(lo) > 1e-10:
            failures.append(f"eta({b}, 0.5) = {lo}")
        if abs(hi - 1.0) > 1e-10:
            failures.append(f"eta({b}, 1.0) = {hi}")
    report(1, "three-stroke eta endpoints: 0 at gamma=1/2, 1 at gamma=1 (tol 1e-10)", failures)


def test_criterion_02_efficiency_law():
    failures = []
    for b in B_GRID:
        for gamma in GAMMA_GRID:
            eta = run_numeric(three(b, gamma)).eta
            if abs(eta - (2.0 - 1.0 / gamma)) > 1e-10:
                failures.append(f"eta({b}, {gamma}) = {eta}")
    report(2, "three-stroke numeric eta equals 2 - 1/gamma (tol 1e-10)", failures)


def test_criterion_03_worked_point():
    led = run_numeric(three(math.log(2.0), 0.75))
    expected = {
        "q_in": 0.25,
        "w_ext": 1.0 / 6.0,
        "q_out": -1.0 / 12.0,
        "q_used": 2.0 / 7.0,
        "eta": 2.0 / 3.0,
    }
    failures = [
        f"{name}: got {getattr(led, name)}, want {want}"
        for name, want in expected.items()
        if abs(getattr(led, name) - want) > 1e-10
    ]
    report(3, "worked point b=ln2 gamma=3/4: q_in, w_ext, q_out, q, eta (tol 1e-10)", failures)


def test_criterion_04_entropy_equality_and_swap():
    failures = []
    for b in B_GRID:
        for gamma in GAMMA_GRID:
            led = run_numeric(three(b, gamma))
            qmi, qmii = led.stroke("QMI"), led.stroke("QMII")
            if abs(qmi.entropy_after - qmii.entropy_after) > 1e-12:
                failures.append(f"entropy b={b} gamma={gamma}")
            swap_err = np.max(
                np.abs(qmii.state_after.populations - qmi.state_after.populations[::-1])
            )
            if swap_err > 1e-12:
                failures.append(f"swap b={b} gamma={gamma}: {swap_err}")
    report(4, "S(QMI) == S(QMII) and populations exactly swapped (tol 1e-12)", failures)


def test_criterion_05_maximal_mixing_point():
    failures = []
    mixed = DensityMatrix.maximally_mixed()
    for b in B_GRID:
        led = run_numeric(three(b, 0.5))
        qmi = led.stroke("QMI")
        d = trace_distance(qmi.state_after, mixed)
        if d > 1e-12:
            failures.append(f"distance b={b}: {d}")
        if abs(qmi.energy_after) > 1e-12:
            failures.append(f"energy b={b}: {qmi.energy_after}")
    report(5, "gamma=1/2 fully mixes the state and zeroes its energy (tol 1e-12)", failures)


def test_criterion_06_entropy_crossover_point():
    failures = []
    for b in B_GRID:
        led = run_numeric(three(b, 1.0))  # P = 1 - e^-b
        tp, qmi = led.stroke("TP"), led.stroke("QMI")
        if abs(qmi.entropy_after - tp.entropy_after) > 1e-12:
            failures.append(f"entropy b={b}")
        if abs(led.q_in - math.tanh(0.5 * b)) > 1e-12:
            failures.append(f"q_in b={b}: {led.q_in}")
    report(6, "at P = 1 - e^-b the entropy returns to thermal and q_in = tanh(b/2)", failures)


def test_criterion_07_five_stroke_first_law():
    failures = []
    for b in B_GRID:
        for gamma in GAMMA_GRID:
            for r in R_GRID:
                residual = first_law_residual(run_numeric(five(b, gamma, r)))
                if abs(residual) > 1e-12:
                    failures.append(f"b={b} gamma={gamma} r={r}: {residual}")
    report(7, "five-stroke first-law residual vanishes (tol 1e-12)", failures)


def test_criterion_08_five_stroke_efficiency():
    failures = []
    for b in B_GRID:
        for gamma in GAMMA_GRID:
            for r in R_GRID:
                eta = run_numeric(five(b, gamma, r)).eta
                want = (gamma * (1.0 + r) - 1.0) / (gamma * r)
                if abs(eta - want) > 1e-10:
                    failures.append(f"b={b} gamma={gamma} r={r}: {eta} vs {want}")
    eta_half = run_numeric(five(math.log(2.0), 0.5, 2.0)).eta
    if abs(eta_half - 0.5) > 1e-10:
        failures.append(f"gamma=1/2 r=2: {eta_half}")
    for r in R_GRID:
        lo, _ = gamma_bounds(CycleMode.FIVE_STROKE, r)
        eta_lo = run_analytic(five(1.0, lo, r)).eta
        if eta_lo != 0.0:
            failures.append(f"analytic eta at gamma_min r={r}: {eta_lo!r}")
    report(8, "five-stroke eta law (tol 1e-10); eta(1/2, r=2)=0.5; analytic 0 at gamma_min", failures)


def test_criterion_09_reduction_consistency():
    failures = []
    for b in B_GRID:
        for gamma in GAMMA_GRID:
            led5 = run_numeric(five(b, gamma, 1.0))
            led3 = run_numeric(three(b, gamma))
            for field in LEDGER_FIELDS:
                diff = abs(getattr(led5, field) - getattr(led3, field))
                if diff > 1e-12:
                    failures.append(f"{field} b={b} gamma={gamma}: {diff}")
    report(9, "five-stroke at r=1 reproduces the three-stroke ledger (tol 1e-12)", failures)


def test_criterion_10_channel_soundness():
    failures = []
    for b in B_GRID:
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            strength = gamma * (1.0 - math.exp(-b))
            rep = validate_completeness(first_channel(strength))
            if rep.max_deviation > 1e-12:
                failures.append(f"excite b={b} gamma={gamma}: {rep.max_deviation}")
            if gamma >= 0.5:
                rep = validate_completeness(second_channel(isentropic_strength(strength, b)))
                if rep.max_deviation > 1e-12:
                    failures.append(f"damp b={b} gamma={gamma}: {rep.max_deviation}")

    rng = np.random.default_rng(20250811)
    for trial in range(1000):
        k = random_kraus_set(rng, 2 + trial % 3)
        rho = random_density_matrix(rng)
        out = apply_unselective(k, rho)
        if abs(out.mat.trace().real - 1.0) > 1e-13:
            failures.append(f"trace trial {trial}")
        if out.eigenvalues()[0] < -1e-12:
            failures.append(f"psd trial {trial}")
        rebuilt = sum(
            o.probability * o.post_state.mat
            for o in measure_selective(k, rho)
            if not o.negligible
        )
        if np.max(np.abs(rebuilt - out.mat)) > 1e-13:
            failures.append(f"selective-sum trial {trial}")
    report(10, "completeness (1e-12); 1000 random channels preserve trace/PSD; "
               "selective outcomes sum to the unselective state (1e-13)", failures)


def test_criterion_11_cli_contract(tmp_path, capsys):
    failures = []
    if main(["verify"]) != 0:
        failures.append("verify exited nonzero on a clean build")
    golden_args = [
        "sweep", "--mode", "three",
        "--b-values", "0.1,0.6931471805599453,1.0,5.0",
        "--gamma-values", "0.5,0.6,0.75,0.9,1.0",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    if main([*golden_args, "--out", str(a)]) != 0 or main([*golden_args, "--out", str(b)]) != 0:
        failures.append("sweep exited nonzero")
    elif a.read_bytes() != b.read_bytes():
        failures.append("sweep CSV differs between runs")
    capsys.readouterr()  # swallow the CLI output; the report line is ours
    report(11, "CLI: verify exits 0; golden sweep CSV is byte-identical", failures)
