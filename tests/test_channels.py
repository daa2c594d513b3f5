import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measengine import channels
from measengine.channels import (
    COMPLETENESS_TOL,
    IncompleteKrausSetError,
    KrausSet,
    NoIsentropicStrengthError,
    apply_unselective,
    apply_unselective_stack,
    completeness_deviation_stack,
    first_channel,
    first_channel_stack,
    isentropic_strength,
    isentropic_strength_stack,
    measure_selective,
    povm_elements,
    second_channel,
    second_channel_stack,
    validate_completeness,
)
from measengine.linalg import adjoint, matmul, max_offdiag, trace
from measengine.states import (
    DensityMatrix,
    Hamiltonian,
    gibbs_state,
    mean_energy,
    trace_distance,
    von_neumann_entropy,
)
from support import (
    NON_FINITE,
    grid_channel,
    random_density_matrix,
    random_kraus_set,
    real_stack,
    with_entry,
)

QUBIT = Hamiltonian.qubit(1.0)
PROJ_Z = KrausSet(
    (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    label="projective-z",
)


class TestCompleteness:
    def test_projective_set_passes(self):
        report = validate_completeness(PROJ_Z)
        assert report.passed
        assert report.max_deviation == 0.0

    def test_single_scaled_identity_fails(self):
        report = validate_completeness(KrausSet((np.eye(2, dtype=complex) / math.sqrt(2.0),)))
        assert not report.passed
        assert report.max_deviation == pytest.approx(0.5, abs=1e-15)

    def test_first_channel_passes_at_p03(self):
        # sum M^dag M puts (1-P)+P on |0><0| and 1 on |1><1|.
        report = validate_completeness(first_channel(0.3))
        assert report.passed

    def test_mismatched_dims_rejected(self):
        # Kraus operators are qubit operators; a 3x3 one is refused at construction.
        with pytest.raises(ValueError, match="2x2"):
            KrausSet((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
        with pytest.raises(ValueError, match="2x2"):
            KrausSet((np.eye(3, dtype=complex),))

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_non_finite_operator_is_rejected(self, bad):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            op = with_entry(PROJ_Z.ops[1], i, j, bad)
            for given in (op, op.tolist()):  # the engine's channels pass nested lists
                with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                    KrausSet(PROJ_Z.ops[:1] + (given,))

    def test_stored_entries_are_those_of_the_operators(self, rng):
        for k in [random_kraus_set(rng, n) for n in (2, 3, 4)] + [first_channel(0.3), PROJ_Z]:
            assert k.entries == tuple(tuple(op.ravel().tolist()) for op in k.ops)


class TestChannelConstruction:
    def test_first_channel_p0_is_identity_channel(self, rng):
        rho = random_density_matrix(rng)
        out = apply_unselective(first_channel(0.0), rho)
        assert np.allclose(out.mat, rho.mat, atol=1e-15)

    def test_first_channel_p1_pumps_everything_up(self, rng):
        rho = random_density_matrix(rng)
        out = apply_unselective(first_channel(1.0), rho)
        assert np.allclose(out.mat, np.diag([0.0, 1.0]), atol=1e-15)

    def test_first_channel_matrix_entries(self):
        k = first_channel(3.0 / 8.0)
        assert np.allclose(k.ops[0], np.diag([math.sqrt(5.0 / 8.0), 1.0]), atol=1e-15)
        assert np.allclose(k.ops[1], [[0.0, 0.0], [math.sqrt(3.0 / 8.0), 0.0]], atol=1e-15)

    def test_second_channel_endpoints(self, rng):
        rho = random_density_matrix(rng)
        assert np.allclose(apply_unselective(second_channel(0.0), rho).mat, rho.mat, atol=1e-15)
        out = apply_unselective(second_channel(1.0), rho)
        assert np.allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_second_channel_matrix_entries(self):
        k = second_channel(2.0 / 7.0)
        assert np.allclose(k.ops[0], np.diag([1.0, math.sqrt(5.0 / 7.0)]), atol=1e-15)
        assert np.allclose(k.ops[1], [[0.0, math.sqrt(2.0 / 7.0)], [0.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize(("scalar", "stack"), [(first_channel, first_channel_stack),
                                                   (second_channel, second_channel_stack)])
    def test_a_grid_channel_holds_the_scalar_entries_of_each_point(self, scalar, stack):
        # One channel format: per point, the columns are the set's own entries, bit for bit.
        strengths = np.array([0.0, 3.0 / 8.0, 0.5, 0.9, 1.0])
        ops = stack(strengths)
        for i, strength in enumerate(strengths.tolist()):
            point = tuple(tuple(v if type(v) is float else float(v[i]) for v in op) for op in ops)
            assert scalar(strength).entries == point

    @pytest.mark.parametrize("strength", [-0.1, 1.1, math.nan])
    def test_strength_out_of_range(self, strength):
        with pytest.raises(ValueError):
            first_channel(strength)
        with pytest.raises(ValueError):
            second_channel(strength)


class TestApplyUnselective:
    def test_identity_set_is_identity_channel(self, rng):
        identity = KrausSet((np.eye(2, dtype=complex),), label="identity")
        rho = random_density_matrix(rng)
        assert np.array_equal(apply_unselective(identity, rho).mat, rho.mat)

    def test_pumped_thermal_populations(self):
        # P = 3/8 on the b = ln 2 thermal state: ((1-P)*2/3, 1/3 + P*2/3) = (5/12, 7/12).
        rho = apply_unselective(first_channel(3.0 / 8.0), gibbs_state(QUBIT, math.log(2.0)))
        assert rho.populations[0] == pytest.approx(5.0 / 12.0, abs=1e-15)
        assert rho.populations[1] == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_incomplete_set_is_refused(self):
        bad = KrausSet((np.eye(2, dtype=complex) / math.sqrt(2.0),))
        with pytest.raises(IncompleteKrausSetError):
            apply_unselective(bad, DensityMatrix.maximally_mixed())

    def test_a_nan_deviation_is_refused(self):
        # A NaN q leaves the (0, 0) entry of sum A^dag A - 1 at 0 and the others NaN: the
        # deviation is NaN, which fails, where a plain max() would keep the 0, which passes.
        ops = channels._damping(math.nan, math.sqrt)
        assert max(map(abs, channels._completeness_terms(ops))) == 0.0
        with pytest.raises(IncompleteKrausSetError,
                           match=r"^Kraus set damp violates completeness by nan$"):
            channels._apply(ops, DensityMatrix.maximally_mixed(), "damp")

    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imag"])
    def test_completeness_edge(self, unit):
        # sum A^dag A = [[1, e], [conj(e), 1]] (the e^2 on |1><1| rounds away):
        # the deviation is |e|, accepted at COMPLETENESS_TOL and refused one float beyond.
        def edge_set(e):
            return KrausSet(
                (np.array([[1.0, e], [0.0, 0.0]]), np.diag([0.0, 1.0]).astype(complex)),
                label="edge",
            )

        mixed = DensityMatrix.maximally_mixed()
        out = apply_unselective(edge_set(unit * COMPLETENESS_TOL), mixed)
        assert np.array_equal(out.mat, mixed.mat)
        beyond = edge_set(unit * math.nextafter(COMPLETENESS_TOL, math.inf))
        with pytest.raises(
            IncompleteKrausSetError, match=r"^Kraus set edge violates completeness by 1\.000e-12$"
        ):
            apply_unselective(beyond, mixed)

    def test_agrees_with_the_matrix_products_on_complex_sets(self, rng):
        for _ in range(300):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            expected = sum(op @ rho.mat @ op.conj().T for op in k.ops)
            assert np.max(np.abs(apply_unselective(k, rho).mat - expected)) <= 1e-15

    @pytest.mark.parametrize("channel", [first_channel, second_channel])
    def test_is_the_matrix_products_bit_for_bit_on_diagonal_states(self, rng, channel):
        # The engine's case: real operators on coherence-free states.
        states = [gibbs_state(QUBIT, b) for b in (1e-8, 0.7, 5.0, 700.0)]
        states += [DensityMatrix.pure(0), DensityMatrix.pure(1), DensityMatrix.maximally_mixed()]
        states += [DensityMatrix.from_populations([p, 1.0 - p]) for p in rng.uniform(size=50)]
        strengths = [0.0, 3.0 / 8.0, 1.0, *rng.uniform(size=20)]
        for rho in states:
            for strength in strengths:
                k = channel(strength)
                expected = np.zeros((2, 2), dtype=complex)
                for op in k.ops:
                    expected += op @ rho.mat @ op.conj().T
                assert apply_unselective(k, rho).mat.tobytes() == expected.tobytes()

    def test_random_sets_preserve_trace_and_psd(self, rng):
        for _ in range(150):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            out = apply_unselective(k, rho)
            assert abs(out.mat.trace().real - 1.0) <= 1e-13
            assert out.eigenvalues()[0] >= -1e-12


class TestApplyUnselectiveStack:
    """The grid channel against the scalar one on real states with coherences."""

    @staticmethod
    def random_stack(rng, n_ops: int, n: int = 40):
        """Real sets and states, the scalar ones holding float entries, and their (N, K, 2, 2)
        and (N, 2, 2) stacks."""
        sets = [random_kraus_set(rng, n_ops, real=True) for _ in range(n)]
        sets = [KrausSet(tuple(op.real.tolist() for op in k.ops)) for k in sets]
        states = [DensityMatrix(random_density_matrix(rng, real=True).mat.real.tolist())
                  for _ in range(n)]
        return (sets, states, real_stack([k.ops for k in sets]),
                real_stack([rho.mat for rho in states]))

    @pytest.mark.parametrize("n_ops", [2, 3, 4])
    def test_matches_the_scalar_channel_entrywise(self, rng, n_ops):
        # One kernel: the grid runs `apply_unselective`'s float arithmetic on (N,) columns.
        for _ in range(10):
            sets, states, kraus, rho = self.random_stack(rng, n_ops)
            out = apply_unselective_stack(grid_channel(kraus), rho)
            for k, state, got in zip(sets, states, out, strict=True):
                expected = apply_unselective(k, state).entries
                assert all(type(v) is float for v in expected)
                assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n_ops", [2, 3, 4])
    def test_completeness_deviation_matches_validate_completeness(self, rng, n_ops):
        sets, _, kraus, _ = self.random_stack(rng, n_ops)
        kraus[::3] *= 1.0 + rng.uniform(1e-13, 1e-3, size=(len(kraus[::3]), 1, 1, 1))
        dev = completeness_deviation_stack(grid_channel(kraus))
        for i, got in enumerate(dev):
            # Real entries: the same sums in the same order, and an exact modulus.
            assert got == validate_completeness(KrausSet(tuple(kraus[i]))).max_deviation

    def test_incomplete_set_is_refused_by_its_index(self, rng):
        _, _, kraus, rho = self.random_stack(rng, 2, n=10)
        kraus[4] *= 1.001
        kraus[7] *= 1.01  # worse, but later: the message names set 4
        expected = validate_completeness(KrausSet(tuple(kraus[4]))).max_deviation
        with pytest.raises(IncompleteKrausSetError, match=rf"^Kraus set 4 .* by {expected:.3e}$"):
            apply_unselective_stack(grid_channel(kraus), rho)


class TestMeasureSelective:
    def test_projective_on_diagonal_state(self):
        rho = DensityMatrix.from_populations([2.0 / 3.0, 1.0 / 3.0])
        outcomes = measure_selective(PROJ_Z, rho)
        assert outcomes[0].probability == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert outcomes[1].probability == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert np.allclose(outcomes[0].post_state.mat, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(outcomes[1].post_state.mat, np.diag([0.0, 1.0]), atol=1e-15)

    def test_pump_outcome_probability(self):
        # Second outcome has effect P|0><0|: probability P * <0|rho|0> = (3/8)(2/3) = 1/4.
        outcomes = measure_selective(first_channel(3.0 / 8.0), gibbs_state(QUBIT, math.log(2.0)))
        assert outcomes[1].probability == pytest.approx(0.25, abs=1e-15)
        assert np.allclose(outcomes[1].post_state.mat, np.diag([0.0, 1.0]), atol=1e-15)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(50):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            total = sum(o.probability for o in measure_selective(k, rho))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_selective_outcomes_rebuild_unselective_state(self, rng):
        for _ in range(50):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            unselective = apply_unselective(k, rho)
            rebuilt = sum(o.probability * o.post_state.mat for o in measure_selective(k, rho))
            assert np.max(np.abs(rebuilt - unselective.mat)) <= 1e-13

    def test_outcomes_are_the_checked_linalg_products_bit_for_bit(self, rng):
        for _ in range(50):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            for op, outcome in zip(k.ops, measure_selective(k, rho), strict=True):
                raw = matmul(matmul(op, rho.mat), adjoint(op))
                assert outcome.probability == trace(raw).real
                assert np.array_equal(outcome.post_state.mat, raw / trace(raw).real)

    def test_zero_probability_outcome_is_flagged(self):
        outcomes = measure_selective(first_channel(0.0), DensityMatrix.maximally_mixed())
        assert outcomes[1].negligible
        assert outcomes[1].post_state is None
        assert outcomes[1].probability == pytest.approx(0.0, abs=1e-15)


class TestPovmElements:
    def test_first_channel_effects(self):
        p = 0.3
        e1, e2 = povm_elements(first_channel(p))
        assert np.allclose(e1, np.diag([1.0 - p, 1.0]), atol=1e-15)
        assert np.allclose(e2, np.diag([p, 0.0]), atol=1e-15)

    def test_projectors_are_their_own_effects(self):
        effects = povm_elements(PROJ_Z)
        for effect, op in zip(effects, PROJ_Z.ops):
            assert np.array_equal(effect, op)

    def test_second_channel_effects(self):
        q = 2.0 / 7.0
        e1, e2 = povm_elements(second_channel(q))
        assert np.allclose(e1, np.diag([1.0, 1.0 - q]), atol=1e-15)
        assert np.allclose(e2, np.diag([0.0, q]), atol=1e-15)

    def test_effects_are_the_checked_linalg_products_bit_for_bit(self, rng):
        for _ in range(50):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            for effect, op in zip(povm_elements(k), k.ops, strict=True):
                assert np.array_equal(effect, matmul(adjoint(op), op))

    def test_effects_sum_to_identity(self, rng):
        for _ in range(50):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            total = sum(povm_elements(k))
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12


class TestIsentropicStrength:
    def test_threshold_gives_zero(self):
        for b in (0.1, math.log(2.0), 1.0, 5.0):
            p = 0.5 * (1.0 - math.exp(-b))
            assert isentropic_strength(p, b) == pytest.approx(0.0, abs=1e-15)

    def test_worked_point(self):
        # Exact arithmetic: numerator sqrt(2)/4, denominator 7 sqrt(2)/8 -> 2/7.
        assert isentropic_strength(3.0 / 8.0, math.log(2.0)) == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_full_strength_maps_to_full_strength(self):
        for b in (0.1, 1.0, 5.0, 30.0):
            assert isentropic_strength(1.0, b) == pytest.approx(1.0, abs=1e-15)

    def test_below_threshold_is_refused_with_threshold_value(self):
        b = math.log(2.0)
        with pytest.raises(NoIsentropicStrengthError) as exc:
            isentropic_strength(0.1, b)
        assert exc.value.threshold == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize(("p", "b"), [(-1e-13, 1e-13), (-0.5, 1.0)])
    def test_negative_strength_is_out_of_range(self, p, b):
        # Scalar and batched solvers alike: a range error, not a threshold refusal.
        for solve in (
            lambda: isentropic_strength(p, b),
            lambda: isentropic_strength_stack(np.array([p]), np.array([math.exp(-b)])),
        ):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]") as exc:
                solve()
            assert not isinstance(exc.value, NoIsentropicStrengthError)

    @given(
        st.floats(min_value=0.5, max_value=1.0),
        st.floats(min_value=1e-3, max_value=30.0),
    )
    def test_result_always_in_unit_interval(self, gamma, b):
        q = isentropic_strength(gamma * (1.0 - math.exp(-b)), b)
        assert 0.0 <= q <= 1.0


class TestCycleStateProperties:
    B_GRID = (0.1, math.log(2.0), 1.0, 5.0)

    def _pumped(self, b, gamma):
        p = gamma * (1.0 - math.exp(-b))
        return p, apply_unselective(first_channel(p), gibbs_state(QUBIT, b))

    def test_population_swap_under_isentropic_strength(self):
        for b in self.B_GRID:
            for gamma in (0.5, 0.6, 0.75, 0.9, 1.0):
                p, rho_m = self._pumped(b, gamma)
                q = isentropic_strength(p, b)
                rho_n = apply_unselective(second_channel(q), rho_m)
                assert np.max(np.abs(rho_n.populations - rho_m.populations[::-1])) <= 1e-12

    def test_entropy_equality_across_valid_grid(self):
        for b in self.B_GRID:
            for gamma in (0.5, 0.6, 0.75, 0.9, 1.0):
                p, rho_m = self._pumped(b, gamma)
                rho_n = apply_unselective(second_channel(isentropic_strength(p, b)), rho_m)
                assert abs(von_neumann_entropy(rho_m) - von_neumann_entropy(rho_n)) <= 1e-12

    def test_entropy_ordering_against_thermal(self):
        # Strictly above thermal entropy inside the strength window, equal at the top.
        for b in self.B_GRID:
            s_th = von_neumann_entropy(gibbs_state(QUBIT, b))
            for gamma in (0.6, 0.75, 0.9):
                _, rho_m = self._pumped(b, gamma)
                assert von_neumann_entropy(rho_m) > s_th
            _, rho_top = self._pumped(b, 1.0)
            assert abs(von_neumann_entropy(rho_top) - s_th) <= 1e-12

    def test_no_coherence_is_ever_populated(self):
        for b in self.B_GRID:
            for gamma in (0.5, 0.75, 1.0):
                p, rho_m = self._pumped(b, gamma)
                rho_n = apply_unselective(second_channel(isentropic_strength(p, b)), rho_m)
                assert max_offdiag(rho_m.mat) <= 1e-14
                assert max_offdiag(rho_n.mat) <= 1e-14


def _as_complex(rows) -> list[list[complex]]:
    return [[complex(v) for v in row] for row in rows]


def _real_state(p: float, t: float, zero: float) -> list[list[float]]:
    """[[p, c], [c, 1 - p]] with c = t * sqrt(p (1 - p)), or the signed zero `zero` when t is 0."""
    c = t * math.sqrt(p * (1.0 - p)) if t else zero
    return [[p, c], [c, 1.0 - p]]


def _rotated(theta: float, s0: float, s1: float) -> list[list[float]]:
    """R(theta) @ diag(s0, s1)."""
    c, s = math.cos(theta), math.sin(theta)
    return [[c * s0, -s * s1], [s * s0, c * s1]]


def _complete_pair(theta: float, phi: float, t0: float, t1: float):
    """A real pair R(theta) diag(cos t) and R(phi) diag(sin t): complete up to roundoff."""
    return (_rotated(theta, math.cos(t0), math.cos(t1)),
            _rotated(phi, math.sin(t0), math.sin(t1)))


_ZEROS = st.sampled_from((0.0, -0.0))
_REAL_STATES = st.one_of(
    st.builds(_real_state, st.floats(0.0, 1.0) | _ZEROS, st.just(0.0), _ZEROS),  # diagonal
    st.builds(_real_state, st.floats(0.0, 1.0), st.floats(-1.0, 1.0), _ZEROS),
)
_ANGLES = st.floats(-math.pi, math.pi)
_REAL_PAIRS = st.one_of(
    st.floats(0.0, 1.0).map(lambda p: first_channel(p).entries),
    st.floats(0.0, 1.0).map(lambda q: second_channel(q).entries),
    st.builds(_complete_pair, _ANGLES, _ANGLES, _ANGLES, _ANGLES).map(
        lambda ops: [[v for row in op for v in row] for op in ops]),
    st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8).map(lambda v: [v[:4], v[4:]]),
)


class TestFloatEntriesMatchComplex:
    """Real entries kept as Python floats give what their complex() gives, under ==.

    The package's builders pass floats, so the scalar cycle runs float
    arithmetic; the same matrices given as complex numbers run complex
    arithmetic through the same code.  Each result, refusals included,
    must be the same number (signed zeros may differ).
    """

    @staticmethod
    def _both(build, rows):
        """build() of the float rows and of their complex(), or the refusal message of each."""
        out = []
        for value in (rows, _as_complex(rows)):
            try:
                out.append(build(value))
            except ValueError as refusal:
                out.append(str(refusal))
        return out

    @settings(max_examples=300)
    @given(_REAL_STATES, _REAL_STATES, _REAL_PAIRS, st.floats(0.1, 100.0))
    def test_every_scalar_function_agrees(self, rows, other_rows, pair, frequency):
        rho_f, rho_c = self._both(DensityMatrix, rows)
        sigma_f, sigma_c = self._both(DensityMatrix, other_rows)
        ops = [[list(op[:2]), list(op[2:])] for op in pair]
        k_f, k_c = KrausSet(tuple(ops)), KrausSet(tuple(map(_as_complex, ops)))
        assert all(type(v) is float for op in k_f.entries for v in op)
        assert validate_completeness(k_f) == validate_completeness(k_c)
        if isinstance(rho_f, str):
            assert rho_f == rho_c
            return
        assert all(type(v) is float for v in rho_f.entries)
        assert rho_f.entries == rho_c.entries and rho_f.eig_pair == rho_c.eig_pair
        h = Hamiltonian.qubit(frequency)
        assert mean_energy(rho_f, h) == mean_energy(rho_c, h)
        assert von_neumann_entropy(rho_f) == von_neumann_entropy(rho_c)
        if not isinstance(sigma_f, str):
            assert trace_distance(rho_f, sigma_f) == trace_distance(rho_c, sigma_c)
        try:
            out_f = apply_unselective(k_f, rho_f)
        except ValueError as refusal:  # IncompleteKrausSetError is one
            with pytest.raises(type(refusal), match=f"^{re.escape(str(refusal))}$"):
                apply_unselective(k_c, rho_c)
            return
        out_c = apply_unselective(k_c, rho_c)
        assert all(type(v) is float for v in out_f.entries)
        assert out_f.entries == out_c.entries and out_f.eig_pair == out_c.eig_pair

    @pytest.mark.parametrize("rows, message", [
        ([[0.6, 0.0], [0.0, 0.5]], "state trace 1.1+0j is not 1"),
        ([[0.5, 0.0], [0.0, 0.4]], "state trace 0.9+0j is not 1"),
    ])
    def test_trace_refusal_reads_as_the_complex_array_gives_it(self, rows, message):
        # A float trace is formatted as complex, so a real state's message is the same
        # for every input kind.
        for value in (np.array(rows, dtype=complex), rows, _as_complex(rows)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DensityMatrix(value)
