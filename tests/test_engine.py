import collections
import hashlib
import math
import random
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from measengine.engine import (
    CycleGrid,
    CycleMode,
    CycleParams,
    FLAG_ETA_ZERO_INPUT,
    FLAG_NO_PARTNER,
    FLAG_OUTSIDE_RANGE,
    EnergyLedger,
    InvalidCycleError,
    StrokeRecord,
    UnrealizableChannelError,
    first_law_residual,
    gamma_bounds,
    numeric_realizable,
    run_analytic,
    run_numeric,
    run_numeric_grid,
)
from measengine import channels, engine, linalg, states
from measengine.channels import IncompleteKrausSetError, KrausSet, apply_unselective, first_channel
from measengine.states import DensityMatrix, Hamiltonian, von_neumann_entropy
from measengine.verify import TOL_EXACT, TOL_ORACLE
from support import stroke, trace_distance

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

    def test_three_stroke_refuses_r_other_than_1_as_cycle_params_does(self):
        message = r"^three-stroke cycle requires r = 1, got r = 2\.0$"
        with pytest.raises(InvalidCycleError, match=message):
            gamma_bounds(CycleMode.THREE_STROKE, 2.0)
        with pytest.raises(InvalidCycleError, match=message):
            CycleParams(b=1.0, gamma=0.75, mode=CycleMode.THREE_STROKE, r=2.0)


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
            qmi = stroke(led, "QMI")
            mixed = DensityMatrix.from_populations((0.5, 0.5))
            assert trace_distance(qmi.state_after, mixed) <= 1e-12
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
            assert rec.energy_after == stroke(led5, rec.name).energy_after

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
        tp, numeric_tp = stroke(led, "TP"), stroke(run_numeric(three(1.0, 0.75)), "TP")
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
        for b in B_GRID:
            for led in (run_numeric(five(b, 0.75, 5.0)), run_analytic(five(b, 0.75, 5.0))):
                assert stroke(led, "API").entropy_after == stroke(led, "TP").entropy_after
                assert stroke(led, "APII").entropy_after == stroke(led, "QMII").entropy_after
                for rec in led.strokes:
                    assert rec.entropy_after == von_neumann_entropy(rec.state_after)

    def test_entropy_is_independent_of_r(self):
        entropies = []
        for r in R_GRID:
            led = run_numeric(five(1.0, 0.75, r))
            entropies.append((stroke(led, "QMI").entropy_after, stroke(led, "QMII").entropy_after))
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
        # gamma = 1/2, the smallest realizable strength: eta = 1 - 1/r, which is
        # the lower end of the five-stroke efficiency range (0 for three-stroke).
        for r in R_GRID:
            p = five(math.log(2.0), 0.5, r)
            assert run_analytic(p).eta == pytest.approx(1.0 - 1.0 / r, abs=1e-15)
            assert abs(run_numeric(p).eta - (1.0 - 1.0 / r)) <= TOL_ORACLE

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
                assert abs(stroke(led, "QMI").entropy_after - stroke(led, "QMII").entropy_after) <= 1e-12


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


def cycle_stream_requests(seed: int, count: int):
    """The first `count` (mode, b, gamma, r) requests of the `cycle-stream` benchmark.

    The same draws as `bench/workloads.py`: mode 50/50, log-uniform b in
    [1e-8, 700] and r in [1, 100] (five-stroke only), uniform gamma in [1/2, 1].
    """
    rng = random.Random(seed)
    log_b = (math.log(1e-8), math.log(700.0))
    log_r = (math.log(1.0), math.log(100.0))
    for _ in range(count):
        mode = "three" if rng.random() < 0.5 else "five"
        b = math.exp(rng.uniform(*log_b))
        gamma = rng.uniform(0.5, 1.0)
        r = 1.0 if mode == "three" else math.exp(rng.uniform(*log_r))
        yield mode, b, gamma, r


def _hash_ledger(h, ledger: EnergyLedger) -> None:
    """Feed every field of a ledger to `h` at full precision (floats as hex)."""

    def put(value):
        if isinstance(value, float):
            h.update(value.hex().encode())
        elif isinstance(value, np.ndarray):
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")

    for f in fields(ledger):
        value = getattr(ledger, f.name)
        if f.name == "params":
            for x in (value.b, value.gamma, value.mode.value, value.r):
                put(x)
        elif f.name == "strokes":
            for rec in value:
                put(rec.name)
                # Recorded on complex128 matrices: the float64 one widens to it exactly.
                put(rec.state_after.mat.astype(complex))
                for e in rec.hamiltonian_after.levels:
                    put(e)
                put(rec.energy_after)
                put(rec.entropy_after)
        else:
            put(value)


class TestOutputsArePinned:
    # sha256 over both ledgers of the first 1000 seed-1 `cycle-stream`
    # requests and four three-stroke points, as recorded before the
    # constructor checks moved to Python scalars.  A change that keeps the
    # numerics must keep this digest; it is re-recorded only by a change
    # that says it changes the numerics, with the diff, under the digest
    # rule of ROADMAP item 1 (the small-b fix of item 4 is such a change).
    CYCLE_DIGEST = "f4933d0caf726de33e4b033feecb4216a390fa4a8ea542448c2a5af4e69675fe"

    def test_cycle_ledgers_digest_is_pinned(self):
        points = [(mode, b, gamma, r) for mode, b, gamma, r in cycle_stream_requests(1, 1000)]
        points += [("three", b, 0.8, 1.0) for b in (1e-7, math.log(2.0), 5.0, 700.0)]
        h = hashlib.sha256()
        for mode, b, gamma, r in points:
            p = CycleParams(b=b, gamma=gamma, mode=mode, r=r)
            _hash_ledger(h, run_numeric(p))
            _hash_ledger(h, run_analytic(p))
        assert h.hexdigest() == self.CYCLE_DIGEST


def test_a_cycle_builds_each_state_and_channel_once(monkeypatch):
    # Each state runs every check once, in `states._admit`, whether the constructor or
    # `states._state` builds it, so the count is the cost: the parameters build the
    # thermal state, each cycle its QMI and QMII states.  The numeric cycle applies its
    # two channels on their entries, and builds no `KrausSet`.
    counts = collections.Counter()

    def admitted(fields, *entries, check=states._admit):
        counts["DensityMatrix"] += 1
        check(fields, *entries)

    def counted(self, check=KrausSet.__post_init__):
        counts["KrausSet"] += 1
        check(self)

    monkeypatch.setattr(states, "_admit", admitted)
    monkeypatch.setattr(KrausSet, "__post_init__", counted)
    p = CycleParams(b=0.7, gamma=0.8, mode="five", r=2.0)
    assert (counts["DensityMatrix"], counts["KrausSet"]) == (1, 0)
    counts.clear()
    run_numeric(p)
    assert (counts["DensityMatrix"], counts["KrausSet"]) == (2, 0)
    counts.clear()
    run_analytic(p)
    assert (counts["DensityMatrix"], counts["KrausSet"]) == (2, 0)


def test_the_stretched_hamiltonian_is_built_once_per_point(monkeypatch):
    # The point's TP and API records hold it: both runners reuse them and build no Hamiltonian.
    # At r = 1 the stretched gap is the bare one, and no Hamiltonian is built at all.
    built = []
    check = Hamiltonian.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Hamiltonian, "__post_init__", counted)
    for mode, r in (("five", 2.0), ("three", 1.0), ("five", 1.0)):
        p = CycleParams(b=0.7, gamma=0.8, mode=mode, r=r)
        assert [h.levels for h in built] == ([] if r == 1.0 else [(-0.5 * r, 0.5 * r)])
        built.clear()
        numeric, analytic = run_numeric(p), run_analytic(p)
        assert built == []
        assert stroke(numeric, "TP") is stroke(analytic, "TP") is p.thermal_strokes[0]
        if r == 1.0:
            assert all(rec.hamiltonian_after is engine._H1
                       for ledger in (numeric, analytic) for rec in ledger.strokes)
            assert p.thermal_strokes[1].hamiltonian_after is engine._H1


@pytest.mark.parametrize("mode, b, gamma, r", [
    ("five", 0.7, 0.8, 2.0), ("three", 0.7, 0.8, 1.0), ("five", 1e-8, 0.5, 100.0),
    ("three", 700.0, 1.0, 1.0), ("five", 800.0, 0.75, 1e6), ("five", 2.0, 0.3, 3.0),
])
def test_stroke_entropies_are_computed_on_first_read_once_per_state(monkeypatch, mode, b, gamma,
                                                                     r):
    # A request that reads only the ledger computes no entropy.  Reading every record computes
    # one per distinct state: the thermal state, which TP and API share across both ledgers,
    # and each ledger's QMI and QMII states, QMII's shared with APII.
    computed = []

    def counted(rho, compute=states.von_neumann_entropy):
        computed.append(rho)
        return compute(rho)

    monkeypatch.setattr(states, "von_neumann_entropy", counted)
    p = CycleParams(b=b, gamma=gamma, mode=mode, r=r)
    ledgers = [run_analytic(p)]
    if numeric_realizable(p):
        ledgers.append(run_numeric(p))
    assert all(type(ledger.eta) is float for ledger in ledgers)
    assert computed == []
    for ledger in ledgers:
        for rec in ledger.strokes:
            assert type(rec.entropy_after) is float
    assert len(computed) == len({id(rho) for rho in computed}) == 1 + 2 * len(ledgers)
    for ledger in ledgers:
        for rec in ledger.strokes:  # read again: nothing more is computed
            assert rec.entropy_after is rec.state_after.entropy
    assert len(computed) == 1 + 2 * len(ledgers)
    monkeypatch.undo()
    tp, api = p.thermal_strokes
    assert api.entropy_after == tp.entropy_after
    for ledger in ledgers:
        assert stroke(ledger, "TP").entropy_after == tp.entropy_after
        if mode == "five":
            assert stroke(ledger, "APII").entropy_after == stroke(ledger, "QMII").entropy_after
        for rec in ledger.strokes:
            expected = von_neumann_entropy(rec.state_after)
            assert rec.entropy_after.hex() == expected.hex() == rec.state_after.entropy.hex()


@pytest.mark.parametrize("mode, b, gamma, r", [
    ("five", 0.7, 0.8, 2.0), ("three", 0.7, 0.8, 1.0), ("five", 1e-8, 0.5, 100.0),
    ("three", 700.0, 1.0, 1.0), ("five", 800.0, 0.75, 1e6), ("five", 2.0, 0.3, 3.0),
])
def test_a_scalar_cycle_makes_no_numpy_array(monkeypatch, mode, b, gamma, r):
    # Only the Gibbs weight's one np.exp, on a float, runs numpy; every matrix is
    # built from the checked entries when first read.
    def refuse(*args, **kwargs):
        raise AssertionError("the scalar cycle built a numpy array")

    with monkeypatch.context() as patch:
        for name in ("asarray", "array", "zeros", "diag"):
            patch.setattr(np, name, refuse)
        p = CycleParams(b=b, gamma=gamma, mode=mode, r=r)
        ledgers = [run_analytic(p)]
        if numeric_realizable(p):
            ledgers.append(run_numeric(p))
    for ledger in ledgers:
        for rec in ledger.strokes:
            mat = rec.state_after.mat
            assert not mat.flags.writeable and mat is rec.state_after.mat
            expected = np.asarray(rec.state_after.entries, float).reshape(2, 2)
            assert mat.dtype == np.float64 and mat.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode, b, gamma, r", [
    ("five", 0.7, 0.8, 2.0), ("three", 0.7, 0.8, 1.0), ("five", 1e-8, 0.5, 100.0),
    ("three", 700.0, 1.0, 1.0), ("five", 800.0, 0.75, 1e6),
    ("five", 1, 0.8, 2.0),  # an integer b: kept as a float, as every other number is
    # numpy scalars: kept as Python floats, so the ledgers hold no numpy scalar
    pytest.param("five", np.float64(0.7), np.float64(0.8), np.float64(2.0), id="five-float64"),
])
def test_a_scalar_cycle_holds_only_floats(monkeypatch, mode, b, gamma, r):
    # The engine's states and channels are real, so every entry the cycle builds or hands
    # the channel kernel is a Python float, and the cycle's arithmetic on them is float
    # arithmetic.  Every state is built from four floats by `states._state`, checked by
    # `states._admit`, and never coerced through numpy.
    built = {DensityMatrix: [], KrausSet: []}

    def refuse(*args, **kwargs):
        raise AssertionError("the scalar cycle coerced a matrix through numpy")

    for module, name in ((linalg, "as_square_matrix"), (linalg, "_square_entries"),
                         (states, "_square_entries"), (channels, "_square_entries")):
        monkeypatch.setattr(module, name, refuse)

    def admitted(fields, *entries, check=states._admit):
        check(fields, *entries)
        built[DensityMatrix].append(fields)

    def kept(self, check=KrausSet.__post_init__):
        check(self)
        built[KrausSet].append(self)

    monkeypatch.setattr(states, "_admit", admitted)
    monkeypatch.setattr(KrausSet, "__post_init__", kept)
    evolved = []

    def evolve(ops, *rho, kernel=channels._evolve):
        evolved.append((ops, rho))
        return kernel(ops, *rho)

    monkeypatch.setattr(channels, "_evolve", evolve)
    p = CycleParams(b=b, gamma=gamma, mode=mode, r=r)
    ledgers = (run_numeric(p), run_analytic(p))
    assert (len(built[DensityMatrix]), len(built[KrausSet]), len(evolved)) == (5, 0, 2)
    for rho in built[DensityMatrix]:
        assert all(type(v) is float for v in rho["entries"] + rho["eig_pair"])
    for ops, rho in evolved:
        assert len(ops) == 2 and all(len(op) == 4 for op in ops)
        assert all(type(v) is float for op in ops for v in op + rho)
    # `CycleParams` keeps b, gamma and r as Python floats, so both ledgers' numbers are too.
    assert all(type(v) is float for v in (p.b, p.gamma, p.r))
    for ledger in ledgers:
        assert all(type(getattr(ledger, name)) is float for name in LEDGER_FIELDS)
        assert all(type(rec.energy_after) is float and type(rec.entropy_after) is float
                   for rec in ledger.strokes)


def test_a_refused_input_prints_as_given():
    # The checks run before the float coercion: an int prints as an int, and a str is
    # refused by the finiteness check, not parsed.
    with pytest.raises(InvalidCycleError, match=r"^b must be finite and positive, got 0$"):
        CycleParams(b=0, gamma=0.8, mode="five", r=2.0)
    with pytest.raises(TypeError):
        CycleParams(b="0.7", gamma=0.8, mode="five", r=2.0)


@pytest.mark.parametrize("name, channel", [("strength", "excitation"), ("q", "damping")])
def test_a_nan_strength_is_refused_with_the_channel_message(name, channel):
    # A NaN strength has a NaN completeness deviation too; the range check names it first.
    p = CycleParams(b=0.7, gamma=0.8, mode="five", r=2.0)
    p.__dict__[name] = math.nan
    with pytest.raises(ValueError, match=rf"^{channel} strength must lie in \[0, 1\], got nan$"):
        run_numeric(p)


def test_an_incomplete_channel_is_refused_by_both_engines(monkeypatch):
    # One fault in the excitation entries both engines share: every application refuses it.
    def scaled(p, sqrt, zero, entries=channels._excitation):
        return tuple(tuple(1.001 * v for v in op) for op in entries(p, sqrt, zero))

    monkeypatch.setattr(channels, "_excitation", scaled)
    p = CycleParams(b=0.7, gamma=0.8, mode="five", r=2.0)
    message = r"violates completeness by 2\.001e-03$"
    with pytest.raises(IncompleteKrausSetError, match=r"^Kraus set excite " + message):
        run_numeric(p)
    with pytest.raises(IncompleteKrausSetError, match=r"^Kraus set excite\(P=0\.4\d*\) " + message):
        apply_unselective(first_channel(p.strength), p.thermal)
    grid = CycleGrid(np.array([0.7, 1.0, 2.0]), np.array([0.8, 0.9, 1.0]), "five", np.full(3, 2.0))
    with pytest.raises(IncompleteKrausSetError, match=r"^Kraus set 0 of the stack " + message):
        run_numeric_grid(grid)
    run_analytic(p)  # the closed form applies no channel


def _same(a, b) -> bool:
    """Equal values, NaN matching NaN; tuples entry by entry, states and records by their fields,
    arrays by dtype, shape and bytes."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and (a.dtype, a.shape) == (b.dtype, b.shape)
                and a.tobytes() == b.tobytes())
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, DensityMatrix):
        return _same(a.entries, b.entries) and _same(a.eig_pair, b.eig_pair)
    if isinstance(a, StrokeRecord):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


def _assert_whole_and_frozen(obj, lazy=()):
    """`obj` holds every field but the `lazy` ones in its __dict__, and no field can be set.

    It is then rebuilt through its public constructor from its own init fields,
    which must give the same value in every field.
    """
    names = {f.name for f in fields(obj)}
    assert set(vars(obj)) == names - set(lazy)
    for name in lazy:
        getattr(obj, name)
    assert set(vars(obj)) == names
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    again = type(obj)(**{f.name: getattr(obj, f.name) for f in fields(obj) if f.init})
    for name in names - set(lazy):
        assert _same(getattr(again, name), getattr(obj, name)), name


@pytest.mark.parametrize("mode, b, gamma, r, flags", [
    ("three", 0.7, 0.8, 1.0, ()),
    ("five", 0.7, 0.8, 2.0, ()),
    # Analytic only: outside the engine range [1/3, 1] and without an isentropic partner.
    ("five", 1.0, 0.3, 2.0, (FLAG_NO_PARTNER, FLAG_OUTSIDE_RANGE)),
    ("three", 1.0, 0.0, 1.0, (FLAG_ETA_ZERO_INPUT, FLAG_NO_PARTNER, FLAG_OUTSIDE_RANGE)),
])
def test_engine_built_records_are_whole_and_frozen(monkeypatch, mode, b, gamma, r, flags):
    # The runners write each record's and ledger's fields straight into its __dict__;
    # the result must be the frozen dataclass its public constructor gives.  Every state
    # is checked by `states._admit`, whether the constructor or `states._state` builds it.
    admitted, kraus_sets = [], []

    def admit(fields, *entries, check=states._admit):
        check(fields, *entries)
        admitted.append(fields)

    def kept(self, check=KrausSet.__post_init__):
        check(self)
        kraus_sets.append(self)

    monkeypatch.setattr(states, "_admit", admit)
    monkeypatch.setattr(KrausSet, "__post_init__", kept)
    p = CycleParams(b=b, gamma=gamma, mode=mode, r=r)
    ledgers = [run_analytic(p)]
    assert ledgers[0].flags == flags
    if numeric_realizable(p):
        ledgers.append(run_numeric(p))
    assert [ledger.source for ledger in ledgers] == ["analytic", "numeric"][:len(ledgers)]
    for ledger in ledgers:
        assert [rec.name for rec in ledger.strokes] == (
            ["TP", "QMI", "QMII"] if mode == "three" else ["TP", "API", "QMI", "QMII", "APII"])
    # Each record once, before the ledgers compare them: both ledgers hold the point's TP
    # record.  Reading a record's entropy reads its state's, so every state below holds its
    # entropy too.
    for rec in {id(rec): rec for ledger in ledgers for rec in ledger.strokes}.values():
        assert rec.entropy_after is rec.state_after.entropy
        _assert_whole_and_frozen(rec)
    for ledger in ledgers:
        _assert_whole_and_frozen(ledger)
    monkeypatch.undo()
    _assert_whole_and_frozen(p)
    assert not kraus_sets  # the numeric cycle applies its channels on their entries
    # Every checked state is a record's, and every record's state was checked.
    held = {id(vars(rec.state_after)): rec.state_after
            for ledger in ledgers for rec in ledger.strokes}
    assert sorted(map(id, admitted)) == sorted(held)
    for rho in held.values():
        _assert_whole_and_frozen(rho, lazy=("mat",))
    damping = channels._damping(0.25, math.sqrt, 0.0)
    damp = KrausSet(tuple([[a, b], [c, d]] for a, b, c, d in damping))
    for k in (first_channel(p.strength), damp):
        _assert_whole_and_frozen(k)  # `ops` and `entries` are both built at construction
