import math
from dataclasses import replace

import numpy as np
import pytest

from measengine.engine import (
    CycleMode,
    CycleParams,
    InvalidCycleError,
    UnrealizableChannelError,
    first_law_residual,
    gamma_bounds,
    numeric_realizable,
    run_analytic,
    run_numeric,
)
from measengine.states import DensityMatrix, trace_distance
from measengine.verify import TOL_EXACT

B_GRID = (0.1, math.log(2.0), 1.0, 5.0)
GAMMA_GRID = (0.5, 0.6, 0.75, 0.9, 1.0)
R_GRID = (1.0, 2.0, 5.0)

LEDGER_FIELDS = ("q_in", "q_out", "w_api", "w_apii", "delta", "w_ext", "eta", "q_used")


def three(b, gamma):
    return CycleParams(b=b, gamma=gamma, mode=CycleMode.THREE_STROKE)


def five(b, gamma, r):
    return CycleParams(b=b, gamma=gamma, mode=CycleMode.FIVE_STROKE, r=r)


class TestCycleParams:
    def test_three_stroke_requires_unit_ratio(self):
        with pytest.raises(InvalidCycleError, match="r = 1"):
            CycleParams(b=1.0, gamma=0.75, mode="three", r=2.0)

    @pytest.mark.parametrize("bad", [{"b": -1.0}, {"gamma": 1.5}, {"gamma": -0.2}, {"r": 0.5}])
    def test_rejects_out_of_range_values(self, bad):
        kwargs = {"b": 1.0, "gamma": 0.75, "mode": "five", "r": 2.0}
        kwargs.update(bad)
        with pytest.raises(InvalidCycleError):
            CycleParams(**kwargs)

    def test_strength_definition(self):
        p = three(math.log(2.0), 0.75)
        assert p.strength == pytest.approx(3.0 / 8.0, abs=1e-15)


class TestGammaBounds:
    def test_three_stroke(self):
        assert gamma_bounds(CycleMode.THREE_STROKE) == (0.5, 1.0)

    def test_five_stroke_r2(self):
        lo, hi = gamma_bounds(CycleMode.FIVE_STROKE, 2.0)
        assert lo == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert hi == 1.0

    def test_five_stroke_r1_matches_three(self):
        assert gamma_bounds(CycleMode.FIVE_STROKE, 1.0) == (0.5, 1.0)

    def test_rejects_small_r(self):
        with pytest.raises(InvalidCycleError):
            gamma_bounds(CycleMode.FIVE_STROKE, 0.9)


class TestThreeStrokeNumeric:
    def test_worked_point(self):
        # b = ln 2, gamma = 3/4: all entries verified by exact arithmetic.
        led = run_numeric(three(math.log(2.0), 0.75))
        assert led.q_in == pytest.approx(0.25, abs=1e-10)
        assert led.w_ext == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert led.q_out == pytest.approx(-1.0 / 12.0, abs=1e-10)
        assert led.eta == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert led.q_used == pytest.approx(2.0 / 7.0, abs=1e-10)

    def test_half_strength_fully_mixes(self):
        for b in B_GRID:
            led = run_numeric(three(b, 0.5))
            qmi = led.stroke("QMI")
            assert trace_distance(qmi.state_after, DensityMatrix.maximally_mixed(2)) <= 1e-12
            assert abs(qmi.energy_after) <= 1e-12
            assert abs(led.w_ext) <= 1e-12
            assert abs(led.eta) <= 1e-10

    def test_full_strength_dissipates_nothing(self):
        for b in B_GRID:
            led = run_numeric(three(b, 1.0))
            assert abs(led.q_out) <= 1e-12
            assert led.eta == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_gamma_names_the_bound(self):
        with pytest.raises(InvalidCycleError, match=r"\[0.5, 1\]"):
            run_numeric(three(1.0, 0.3))

    def test_is_the_r1_five_stroke_cycle_without_adiabats(self):
        led3 = run_numeric(three(1.0, 0.75))
        led5 = run_numeric(five(1.0, 0.75, 1.0))
        assert [rec.name for rec in led3.strokes] == ["TP", "QMI", "QMII"]
        for field in LEDGER_FIELDS:
            assert getattr(led3, field) == getattr(led5, field)
        for rec in led3.strokes:
            assert rec.energy_after == led5.stroke(rec.name).energy_after

    def test_energy_bookkeeping_matches_records(self):
        led = run_numeric(three(1.0, 0.75))
        tp, qmi, qmii = led.strokes
        assert (tp.name, qmi.name, qmii.name) == ("TP", "QMI", "QMII")
        assert led.q_in == qmi.energy_after - tp.energy_after
        assert led.q_out == tp.energy_after - qmii.energy_after
        assert led.w_ext == pytest.approx(led.q_in + led.q_out, abs=1e-15)


class TestThreeStrokeAnalytic:
    def test_efficiency_is_gamma_law(self):
        assert run_analytic(three(math.log(2.0), 0.75)).eta == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert run_analytic(three(1.0, 0.5)).eta == 0.0
        assert run_analytic(three(1.0, 1.0)).eta == 1.0

    def test_crossover_strength_imports_tanh(self):
        # P = 1 - e^-b (gamma = 1): q_in = tanh(b/2) and the entropy returns to thermal.
        for b in B_GRID:
            led = run_analytic(three(b, 1.0))
            assert led.q_in == pytest.approx(math.tanh(0.5 * b), abs=1e-12)

    def test_below_range_is_flagged_not_refused(self):
        led = run_analytic(three(1.0, 0.25))
        assert not led.valid
        assert "gamma-outside-engine-range" in led.flags
        assert "no-isentropic-partner" in led.flags
        assert math.isnan(led.q_used)

    def test_zero_gamma_eta_is_flagged_zero(self):
        led = run_analytic(three(1.0, 0.0))
        assert led.eta == 0.0
        assert "eta-zero-input" in led.flags

    def test_stroke_list_starts_with_the_numeric_tp_record(self):
        led = run_analytic(three(1.0, 0.75))
        assert [rec.name for rec in led.strokes] == ["TP", "QMI", "QMII"]
        tp, numeric_tp = led.stroke("TP"), run_numeric(three(1.0, 0.75)).stroke("TP")
        assert np.array_equal(tp.state_after.mat, numeric_tp.state_after.mat)
        assert tp.hamiltonian_after == numeric_tp.hamiltonian_after
        assert tp.energy_after == numeric_tp.energy_after
        assert tp.entropy_after == numeric_tp.entropy_after


class TestFiveStrokeNumeric:
    def test_worked_point(self):
        led = run_numeric(five(math.log(2.0), 0.75, 2.0))
        assert led.q_in == pytest.approx(0.5, abs=1e-10)
        assert led.w_ext == pytest.approx(5.0 / 12.0, abs=1e-10)
        assert led.eta == pytest.approx(5.0 / 6.0, abs=1e-10)

    def test_stroke_order(self):
        led = run_numeric(five(1.0, 0.75, 2.0))
        assert [rec.name for rec in led.strokes] == ["TP", "API", "QMI", "QMII", "APII"]

    def test_first_law_holds_on_grid(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                for r in R_GRID:
                    led = run_numeric(five(b, gamma, r))
                    assert abs(first_law_residual(led)) <= 1e-12

    def test_r1_reduces_to_three_stroke(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                led5 = run_numeric(five(b, gamma, 1.0))
                led3 = run_numeric(three(b, gamma))
                for field in LEDGER_FIELDS:
                    assert abs(getattr(led5, field) - getattr(led3, field)) <= 1e-12
                assert led5.w_api == 0.0
                assert led5.w_apii == 0.0

    def test_adiabats_preserve_entropy_exactly(self):
        led = run_numeric(five(1.0, 0.75, 5.0))
        assert led.stroke("API").entropy_after == led.stroke("TP").entropy_after
        assert led.stroke("APII").entropy_after == led.stroke("QMII").entropy_after

    def test_entropy_is_independent_of_r(self):
        entropies = []
        for r in R_GRID:
            led = run_numeric(five(1.0, 0.75, r))
            entropies.append((led.stroke("QMI").entropy_after, led.stroke("QMII").entropy_after))
        assert all(e == entropies[0] for e in entropies)

    def test_work_window_without_channel_is_refused(self):
        # gamma in [1/(1+r), 1/2): the work bound passes but no channel swap exists.
        with pytest.raises(UnrealizableChannelError, match="unrealizable"):
            run_numeric(five(1.0, 0.4, 2.0))

    def test_outside_bounds_is_invalid(self):
        with pytest.raises(InvalidCycleError, match="engine range"):
            run_numeric(five(1.0, 0.2, 2.0))


class TestFiveStrokeAnalytic:
    def test_half_gamma_matches_projective_engine(self):
        # gamma = 1/2: eta = 1 - 1/r.
        assert run_analytic(five(math.log(2.0), 0.5, 2.0)).eta == pytest.approx(0.5, abs=1e-15)

    def test_unit_gamma_is_perfect(self):
        for r in R_GRID:
            assert run_analytic(five(1.0, 1.0, r)).eta == 1.0

    def test_eta_vanishes_exactly_at_lower_bound(self):
        for r in R_GRID:
            lo, _ = gamma_bounds(CycleMode.FIVE_STROKE, r)
            assert run_analytic(five(1.0, lo, r)).eta == 0.0

    def test_first_law_is_an_identity(self):
        for gamma in (0.0, 0.3, 0.75, 1.0):
            led = run_analytic(five(1.0, gamma, 3.0))
            assert abs(first_law_residual(led)) <= 1e-15


class TestOracleEquivalence:
    def test_three_stroke_grid(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                numeric = run_numeric(three(b, gamma))
                analytic = run_analytic(three(b, gamma))
                for field in LEDGER_FIELDS:
                    assert abs(getattr(numeric, field) - getattr(analytic, field)) <= 1e-10, (
                        f"{field} disagrees at b={b} gamma={gamma}"
                    )

    def test_five_stroke_grid(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                for r in R_GRID:
                    numeric = run_numeric(five(b, gamma, r))
                    analytic = run_analytic(five(b, gamma, r))
                    for field in LEDGER_FIELDS:
                        assert abs(getattr(numeric, field) - getattr(analytic, field)) <= 1e-10, (
                            f"{field} disagrees at b={b} gamma={gamma} r={r}"
                        )

    def test_efficiency_identities(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                led3 = run_numeric(three(b, gamma))
                assert abs(led3.eta - (2.0 - 1.0 / gamma)) <= 1e-10
                for r in R_GRID:
                    led5 = run_numeric(five(b, gamma, r))
                    expected = (gamma * (1.0 + r) - 1.0) / (gamma * r)
                    assert abs(led5.eta - expected) <= 1e-10


class TestSignStructureAndMonotonicity:
    def test_q_in_nonnegative_q_out_nonpositive(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                led = run_numeric(three(b, gamma))
                assert led.q_in >= 0.0
                assert led.q_out <= 1e-15
                assert led.w_ext >= -1e-15

    def test_eta_monotone_and_bounded(self):
        for b in B_GRID:
            etas3 = [run_numeric(three(b, g)).eta for g in GAMMA_GRID]
            assert all(later >= earlier for earlier, later in zip(etas3, etas3[1:]))
            assert all(-1e-15 <= e <= 1.0 + 1e-15 for e in etas3)
            for r in R_GRID:
                etas = [run_numeric(five(b, g, r)).eta for g in GAMMA_GRID]
                assert all(later >= earlier for earlier, later in zip(etas, etas[1:]))
                assert all(-1e-15 <= e <= 1.0 + 1e-15 for e in etas)

    def test_w_ext_changes_sign_at_the_lower_bound(self):
        # Above gamma_min the engine extracts work; below it (analytic
        # evaluation only) the formula goes negative.
        assert run_analytic(three(1.0, 0.3)).w_ext < 0.0
        assert run_analytic(five(1.0, 0.2, 2.0)).w_ext < 0.0
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                for r in R_GRID:
                    assert run_numeric(five(b, gamma, r)).w_ext >= -1e-15

    def test_entropy_equal_across_measurement_strokes(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                led = run_numeric(three(b, gamma))
                assert abs(led.stroke("QMI").entropy_after - led.stroke("QMII").entropy_after) <= 1e-12


class TestFirstLawResidual:
    def test_three_stroke_ledgers_close(self):
        for b in B_GRID:
            for gamma in GAMMA_GRID:
                for led in (run_numeric(three(b, gamma)), run_analytic(three(b, gamma))):
                    assert abs(first_law_residual(led)) <= TOL_EXACT

    def test_perturbed_ledger_shows_the_leak(self):
        led = run_numeric(five(1.0, 0.75, 2.0))
        perturbed = replace(led, q_out=led.q_out + 0.1)
        assert first_law_residual(perturbed) == pytest.approx(0.1, abs=1e-12)


class TestRealizability:
    def test_numeric_realizable_windows(self):
        assert numeric_realizable(three(1.0, 0.5))
        assert not numeric_realizable(three(1.0, 0.49))
        assert numeric_realizable(five(1.0, 0.5, 2.0))
        assert not numeric_realizable(five(1.0, 0.4, 2.0))
