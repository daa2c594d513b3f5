import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from measengine import channels
from measengine.channels import (
    COMPLETENESS_TOL,
    IncompleteKrausSetError,
    KrausSet,
    apply_unselective,
    apply_unselective_stack,
    completeness_deviation_stack,
    first_channel,
    first_channel_stack,
    isentropic_strength_stack,
    second_channel_stack,
)
from measengine.states import (
    DensityMatrix,
    Hamiltonian,
    gibbs_state,
    von_neumann_entropy,
)
from support import (
    NON_FINITE,
    grid_channel,
    random_density_matrix,
    random_kraus_set,
    refusal,
    state_rows,
    with_entry,
)

QUBIT = Hamiltonian.qubit(1.0)
MIXED = DensityMatrix.from_populations((0.5, 0.5))
PROJ_Z = KrausSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), label="projective-z")
_max_deviation = channels._max_deviation


def _excitation(p: float):
    """The scalar excitation channel's entries, as `channels._excite` applies them."""
    return channels._excitation(p, math.sqrt, 0.0)


def _damping(q: float):
    """The scalar damping channel's entries, as `channels._damp` applies them."""
    return channels._damping(q, math.sqrt, 0.0)


class TestCompleteness:
    def test_projective_set_passes(self):
        assert _max_deviation(PROJ_Z.entries) == 0.0

    def test_single_scaled_identity_fails(self):
        deviation = _max_deviation(KrausSet((np.eye(2) / math.sqrt(2.0),)).entries)
        assert deviation > COMPLETENESS_TOL
        assert deviation == pytest.approx(0.5, abs=1e-15)

    def test_first_channel_passes_at_p03(self):
        # sum M^dag M puts (1-P)+P on |0><0| and 1 on |1><1|.
        assert _max_deviation(first_channel(0.3).entries) <= COMPLETENESS_TOL

    def test_mismatched_dims_rejected(self):
        # Kraus operators are qubit operators; a 3x3 one is refused at construction.
        with pytest.raises(ValueError, match="2x2"):
            KrausSet((np.eye(2), np.eye(3)))
        with pytest.raises(ValueError, match="2x2"):
            KrausSet((np.eye(3),))

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_non_finite_operator_is_rejected(self, bad):
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            op = with_entry(PROJ_Z.ops[1], i, j, bad)
            for given in (op, op.tolist()):  # an array, and the nested list numpy coerces
                with pytest.raises(ValueError, match=refusal(bad)):
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
        assert np.allclose(channels._damp(0.0, rho).mat, rho.mat, atol=1e-15)
        out = channels._damp(1.0, rho)
        assert np.allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_second_channel_matrix_entries(self):
        n1, n2 = (np.reshape(op, (2, 2)) for op in _damping(2.0 / 7.0))
        assert np.allclose(n1, np.diag([1.0, math.sqrt(5.0 / 7.0)]), atol=1e-15)
        assert np.allclose(n2, [[0.0, math.sqrt(2.0 / 7.0)], [0.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize(("scalar", "stack"), [(_excitation, first_channel_stack),
                                                   (_damping, second_channel_stack)])
    def test_a_grid_channel_holds_the_scalar_entries_of_each_point(self, scalar, stack):
        # One channel format: per point, the columns are the set's own entries, bit for bit,
        # and the grid's exact zero stands where the set holds 0.0.
        strengths = np.array([0.0, 3.0 / 8.0, 0.5, 0.9, 1.0])
        ops = stack(strengths)
        for i, strength in enumerate(strengths.tolist()):
            point = tuple(tuple(0.0 if v is channels._ZERO else v if type(v) is float
                                else float(v[i]) for v in op) for op in ops)
            assert scalar(strength) == point

    @pytest.mark.parametrize("strength", [-0.1, 1.1, math.nan])
    def test_strength_out_of_range(self, strength):
        for build in (first_channel, lambda s: channels._excite(s, MIXED),
                      lambda s: channels._damp(s, MIXED)):
            with pytest.raises(ValueError, match=r"strength must lie in \[0, 1\]"):
                build(strength)


class TestApplyUnselective:
    def test_identity_set_is_identity_channel(self, rng):
        identity = KrausSet((np.eye(2),), label="identity")
        rho = random_density_matrix(rng)
        assert np.array_equal(apply_unselective(identity, rho).mat, rho.mat)

    def test_pumped_thermal_populations(self):
        # P = 3/8 on the b = ln 2 thermal state: ((1-P)*2/3, 1/3 + P*2/3) = (5/12, 7/12).
        rho = apply_unselective(first_channel(3.0 / 8.0), gibbs_state(QUBIT, math.log(2.0)))
        assert rho.entries[0] == pytest.approx(5.0 / 12.0, abs=1e-15)
        assert rho.entries[3] == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_incomplete_set_is_refused(self):
        bad = KrausSet((np.eye(2) / math.sqrt(2.0),))
        with pytest.raises(IncompleteKrausSetError):
            apply_unselective(bad, MIXED)

    def test_a_nan_deviation_is_refused(self):
        # A NaN q leaves the (0, 0) entry of sum A^dag A - 1 at 0 and the others NaN: the
        # deviation is NaN, which fails, where a plain max() would keep the 0, which passes.
        ops = channels._damping(math.nan, math.sqrt, 0.0)
        assert max(map(abs, channels._completeness_terms(ops))) == 0.0
        with pytest.raises(IncompleteKrausSetError,
                           match=r"^Kraus set damp violates completeness by nan$"):
            channels._apply(ops, MIXED, "damp")

    @pytest.mark.parametrize("unit", [1.0], ids=["real"])
    def test_completeness_edge(self, unit):
        # sum A^T A = [[1, e], [e, 1]] (the e^2 on |1><1| rounds away): the deviation
        # is |e|, accepted at COMPLETENESS_TOL and refused one float beyond.
        def edge_set(e):
            return KrausSet((np.array([[1.0, e], [0.0, 0.0]]), np.diag([0.0, 1.0])), label="edge")

        out = apply_unselective(edge_set(unit * COMPLETENESS_TOL), MIXED)
        assert np.array_equal(out.mat, MIXED.mat)
        beyond = edge_set(unit * math.nextafter(COMPLETENESS_TOL, math.inf))
        with pytest.raises(
            IncompleteKrausSetError, match=r"^Kraus set edge violates completeness by 1\.000e-12$"
        ):
            apply_unselective(beyond, MIXED)

    def test_agrees_with_the_matrix_products_on_random_sets(self, rng):
        for _ in range(300):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            expected = sum(op @ rho.mat @ op.T for op in k.ops)
            assert np.max(np.abs(apply_unselective(k, rho).mat - expected)) <= 1e-15

    @pytest.mark.parametrize(("entries", "apply"), [(_excitation, channels._excite),
                                                    (_damping, channels._damp)],
                             ids=["first", "second"])
    def test_is_the_matrix_products_bit_for_bit_on_diagonal_states(self, rng, entries, apply):
        # The engine's case: real operators on coherence-free states.
        states = [gibbs_state(QUBIT, b) for b in (1e-8, 0.7, 5.0, 700.0)]
        states += [DensityMatrix.from_populations([p, 1.0 - p])
                   for p in (1.0, 0.0, 0.5, *rng.uniform(size=50))]
        strengths = [0.0, 3.0 / 8.0, 1.0, *rng.uniform(size=20)]
        for rho in states:
            for strength in strengths:
                expected = np.zeros((2, 2))
                for op in entries(strength):
                    op = np.array(op).reshape(2, 2)
                    expected += op @ rho.mat @ op.T
                assert apply(strength, rho).mat.tobytes() == expected.tobytes()

    def test_random_sets_preserve_trace_and_psd(self, rng):
        for _ in range(150):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            out = apply_unselective(k, rho)
            assert abs(out.mat.trace() - 1.0) <= 1e-13
            assert out.eig_pair[0] >= -1e-12


class TestApplyUnselectiveStack:
    """The grid channel against the scalar one on real states with coherences."""

    @staticmethod
    def random_stack(rng, n_ops: int, n: int = 40):
        """Real sets and states, the scalar ones holding float entries, their (N, K, 2, 2)
        stack and their (4, N) state stack."""
        sets = [random_kraus_set(rng, n_ops) for _ in range(n)]
        sets = [KrausSet(tuple(op.tolist() for op in k.ops)) for k in sets]
        states = [DensityMatrix(random_density_matrix(rng).mat.tolist()) for _ in range(n)]
        return (sets, states, np.array([k.ops for k in sets]),
                state_rows([rho.mat for rho in states]))

    @pytest.mark.parametrize("n_ops", [2, 3, 4])
    def test_matches_the_scalar_channel_entrywise(self, rng, n_ops):
        # One kernel: the grid runs `apply_unselective`'s float arithmetic on (N,) columns.
        for _ in range(10):
            sets, states, kraus, rho = self.random_stack(rng, n_ops)
            out, _ = apply_unselective_stack(grid_channel(kraus), rho)
            for k, state, got in zip(sets, states, out.T, strict=True):
                expected = apply_unselective(k, state).entries
                assert all(type(v) is float for v in expected)
                assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n_ops", [2, 3, 4])
    def test_completeness_deviation_is_the_scalar_one(self, rng, n_ops):
        sets, _, kraus, _ = self.random_stack(rng, n_ops)
        kraus[::3] *= 1.0 + rng.uniform(1e-13, 1e-3, size=(len(kraus[::3]), 1, 1, 1))
        dev = completeness_deviation_stack(grid_channel(kraus))
        for i, got in enumerate(dev):
            # Real entries: the same sums in the same order, and an exact modulus.
            assert got == _max_deviation(KrausSet(tuple(kraus[i])).entries)

    def test_incomplete_set_is_refused_by_its_index(self, rng):
        _, _, kraus, rho = self.random_stack(rng, 2, n=10)
        kraus[4] *= 1.001
        kraus[7] *= 1.01  # worse, but later: the message names set 4
        expected = _max_deviation(KrausSet(tuple(kraus[4])).entries)
        with pytest.raises(IncompleteKrausSetError, match=rf"^Kraus set 4 .* by {expected:.3e}$"):
            apply_unselective_stack(grid_channel(kraus), rho)


def _float_zeros(ops):
    """A grid channel with each exact zero written as the Python float 0.0."""
    return tuple(tuple(0.0 if v is channels._ZERO else v for v in op) for op in ops)


def _signed_zero_states(rng, n: int) -> list[list[list[float]]]:
    """Real states: half with coherences, a quarter with a +-0.0 coherence, and a quarter
    pure, with +-0.0 for the empty population and the coherence."""

    def signed_zero():
        return -0.0 if rng.integers(2) else 0.0

    states = []
    for kind in rng.integers(4, size=n).tolist():
        if kind == 3:
            z, c = signed_zero(), signed_zero()
            states.append([[1.0, c], [c, z]] if rng.integers(2) else [[z, c], [c, 1.0]])
        else:
            p = float(rng.uniform(0.0, 1.0))
            c = signed_zero() if kind == 2 else rng.uniform(-1.0, 1.0) * math.sqrt(p * (1.0 - p))
            states.append([[p, c], [c, 1.0 - p]])
    return states


class TestExactZero:
    """A grid builder's fixed zeros are `channels._ZERO`: the same bits, fewer numpy calls."""

    CHANNELS = [(_excitation, channels._excite, first_channel_stack),
                (_damping, channels._damp, second_channel_stack)]

    @staticmethod
    def strengths(rng, n: int) -> np.ndarray:
        # The ends 0 and 1 give 0.0 columns beside the exact zeros.
        s = rng.uniform(0.0, 1.0, n)
        s[rng.random(n) < 0.2] = 0.0
        s[rng.random(n) < 0.2] = 1.0
        return s

    @pytest.mark.parametrize("n", [1, 20, 512])
    @pytest.mark.parametrize(("entries", "apply", "stack"), CHANNELS, ids=["first", "second"])
    def test_the_same_bits_as_float_zeros_and_as_each_point(self, rng, entries, apply, stack, n):
        for _ in range(3):
            strengths = self.strengths(rng, n)
            states = _signed_zero_states(rng, n)
            rho = state_rows(states)
            ops = stack(strengths)
            out, dev = apply_unselective_stack(ops, rho)
            float_out, float_dev = apply_unselective_stack(_float_zeros(ops), rho)
            assert out.tobytes() == float_out.tobytes()
            assert dev.shape == (n,)
            assert dev.tobytes() == float_dev.tobytes()
            assert dev.tobytes() == completeness_deviation_stack(ops).tobytes()
            for i, strength in enumerate(strengths.tolist()):
                expected = apply(strength, DensityMatrix(states[i])).entries
                assert out[:, i].tobytes() == np.array(expected).tobytes()
                assert dev[i] == _max_deviation(entries(strength))

    @pytest.mark.parametrize("stack", [first_channel_stack, second_channel_stack],
                             ids=["first", "second"])
    def test_numpy_calls_per_application(self, rng, stack):
        """On (N,) columns the kernel forms 16 numpy products and sums, and the completeness
        terms 5; with the zeros as 0.0, every zero entry's product is a numpy call too."""

        class Counted(np.ndarray):
            calls = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                Counted.calls += 1
                plain = (x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs)
                return getattr(ufunc, method)(*plain, **kwargs).view(Counted)

        def calls(kernel, ops, *args):
            ops = tuple(tuple(v.view(Counted) if isinstance(v, np.ndarray) else v for v in op)
                        for op in ops)
            Counted.calls = 0
            kernel(ops, *args)
            return Counted.calls

        ops = stack(self.strengths(rng, 20))
        columns = tuple(row.view(Counted) for row in state_rows(_signed_zero_states(rng, 20)))
        assert calls(channels._evolve, ops, *columns) == 16
        assert calls(channels._completeness_terms, ops) == 5
        assert calls(channels._evolve, _float_zeros(ops), *columns) == 56
        assert calls(channels._completeness_terms, _float_zeros(ops)) == 13


class TestMeasureSelective:
    def test_selective_outcomes_rebuild_unselective_state(self, rng):
        # Outcome n has probability p_n = Tr(A_n rho A_n^dag) and post-state A_n rho A_n^dag / p_n;
        # averaged over the outcomes they are the unselective channel's output.
        for _ in range(50):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            rho = random_density_matrix(rng)
            unselective = apply_unselective(k, rho)
            raw = [op @ rho.mat @ op.T for op in k.ops]
            probabilities = [np.trace(r) for r in raw]
            assert sum(probabilities) == pytest.approx(1.0, abs=1e-12)
            rebuilt = sum(p * (r / p) for p, r in zip(probabilities, raw, strict=True))
            assert np.max(np.abs(rebuilt - unselective.mat)) <= 1e-13


class TestPovmElements:
    def test_effects_sum_to_identity(self, rng):
        # The effects E_n = A_n^T A_n sum to 1: `_completeness_terms` forms that sum less 1.
        for _ in range(50):
            k = random_kraus_set(rng, int(rng.integers(2, 5)))
            assert max(map(abs, channels._completeness_terms(k.entries))) <= 1e-12


def isentropic_strength(p: float, b: float) -> float:
    """The scalar cycle's partner strength of p at inverse temperature b (x = e^-b)."""
    return channels._isentropic_strength(p, math.exp(-b))


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

    def test_below_threshold_is_nan(self):
        assert math.isnan(isentropic_strength(0.1, math.log(2.0)))  # the threshold is 1/4

    @pytest.mark.parametrize(("p", "b"), [(-1e-13, 1e-13), (-0.5, 1.0)])
    def test_negative_strength_is_out_of_range(self, p, b):
        # A range error, not a NaN.  The scalar kernel takes its strength as checked:
        # `CycleParams` forms it from a gamma it has checked to lie in [0, 1].
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            isentropic_strength_stack(np.array([p]), np.array([math.exp(-b)]))

    @given(
        st.floats(min_value=0.5, max_value=1.0),
        st.floats(min_value=1e-3, max_value=30.0),
    )
    def test_result_always_in_unit_interval(self, gamma, b):
        q = isentropic_strength(gamma * (1.0 - math.exp(-b)), b)
        assert 0.0 <= q <= 1.0

    @given(
        st.one_of(st.floats(1e-300, 1.0, exclude_max=True), st.floats(1e-300, 1e-6)),
        st.floats(-2.0 * channels._Q_SLACK, 2.0 * channels._Q_SLACK),
    )
    def test_scalar_and_stack_give_the_same_bits(self, x, offset):
        # Near the threshold, where tiny x puts q on either side of -_Q_SLACK as well.
        p = min(max(channels._partner_threshold(x) + offset, 0.0), 1.0)
        scalar = channels._isentropic_strength(p, x)
        stack = isentropic_strength_stack(np.array([p]), np.array([x]))
        assert math.isnan(scalar) == math.isnan(stack[0])
        assert math.isnan(scalar) or np.array([scalar]).tobytes() == stack.tobytes()


class TestCycleStateProperties:
    B_GRID = (0.1, math.log(2.0), 1.0, 5.0)

    def _pumped(self, b, gamma):
        p = gamma * (1.0 - math.exp(-b))
        return p, channels._excite(p, gibbs_state(QUBIT, b))

    def test_population_swap_under_isentropic_strength(self):
        for b in self.B_GRID:
            for gamma in (0.5, 0.6, 0.75, 0.9, 1.0):
                p, rho_m = self._pumped(b, gamma)
                q = isentropic_strength(p, b)
                rho_n = channels._damp(q, rho_m)
                assert np.max(np.abs(np.diag(rho_n.mat) - np.diag(rho_m.mat)[::-1])) <= 1e-12

    def test_entropy_equality_across_valid_grid(self):
        for b in self.B_GRID:
            for gamma in (0.5, 0.6, 0.75, 0.9, 1.0):
                p, rho_m = self._pumped(b, gamma)
                rho_n = channels._damp(isentropic_strength(p, b), rho_m)
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
                rho_n = channels._damp(isentropic_strength(p, b), rho_m)
                for rho in (rho_m, rho_n):
                    assert max(abs(rho.entries[1]), abs(rho.entries[2])) <= 1e-14


class TestFloatEntriesMatchComplex:
    """A real state's trace refusal prints the trace as a complex number, "1.1+0j",
    for every real input kind, as a stack's refusal does."""

    @pytest.mark.parametrize("rows, message", [
        ([[0.6, 0.0], [0.0, 0.5]], "state trace 1.1+0j is not 1"),
        ([[0.5, 0.0], [0.0, 0.4]], "state trace 0.9+0j is not 1"),
    ])
    def test_trace_refusal_reads_as_the_complex_array_gives_it(self, rows, message):
        for value in (np.array(rows), rows, tuple(map(tuple, rows))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DensityMatrix(value)
