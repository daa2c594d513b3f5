import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import NON_FINITE, random_density_matrix, refusal, trace_distance, with_entry

from measengine.channels import KrausSet
from measengine.engine import CycleParams, run_analytic, run_numeric
from measengine.linalg import TOL_HERM, _eig_pair, as_square_matrix
from measengine.states import (
    TOL_PSD,
    TOL_TRACE,
    DensityMatrix,
    Hamiltonian,
    _gibbs_populations,
    _state,
    gibbs_state,
    mean_energy,
    von_neumann_entropy,
)

QUBIT = Hamiltonian.qubit(1.0)
GROUND = DensityMatrix.from_populations((1.0, 0.0))
EXCITED = DensityMatrix.from_populations((0.0, 1.0))
MIXED = DensityMatrix.from_populations((0.5, 0.5))

# -(7/12)ln(7/12) - (5/12)ln(5/12), frozen from a 50-digit evaluation.
ENTROPY_7_5_TWELFTHS = 0.6791932659915257


class TestHamiltonian:
    def test_qubit_levels_symmetric(self):
        assert QUBIT.levels == (-0.5, 0.5)
        assert Hamiltonian.qubit(2.5).levels == (-1.25, 1.25)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            Hamiltonian.qubit(0.0)
        with pytest.raises(ValueError):
            Hamiltonian.qubit(-1.0)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValueError, match="ascending"):
            Hamiltonian((1.0, -1.0))

    @pytest.mark.parametrize("levels", [[-0.5, 0.5], np.array([-0.5, 0.5])], ids=["list", "array"])
    def test_any_sequence_is_stored_as_a_float_tuple(self, levels):
        h = Hamiltonian(levels)
        assert h.levels == (-0.5, 0.5)
        assert type(h.levels) is tuple and all(type(e) is float for e in h.levels)
        assert h == QUBIT and hash(h) == hash(QUBIT)
        # Equal levels, so gibbs_state gives QUBIT's state.
        b = 0.37
        assert np.array_equal(gibbs_state(h, b).mat, gibbs_state(QUBIT, b).mat)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.1, -0.1]))

    # Finite entries whose arithmetic leaves the float range (any warning fails the test).
    _HUGE = 1.3e308  # _HUGE + _HUGE overflows

    @pytest.mark.parametrize(("entries", "message"), [
        # Symmetric, so its lower eigenvalue is 0.5 - _HUGE, from the halved coherence terms.
        ([[0.5, _HUGE], [_HUGE, 0.5]], r"state has negative eigenvalue -1\.300e\+308"),
        # |a01 - a10| is beyond the float range: an infinite Hermiticity defect.
        ([[0.0, -_HUGE], [_HUGE, 0.0]], r"state is not Hermitian \(defect inf\)"),
    ], ids=["hermitian", "lower-triangular"])
    def test_entries_at_the_float_limit_are_refused(self, entries, message):
        for build in (DensityMatrix, lambda m: DensityMatrix(np.array(m)),
                      lambda m: _state(*m[0], *m[1])):  # the four-float route
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(entries)

    def test_maximally_mixed_holds_floats(self):
        assert all(type(v) is float for v in MIXED.entries + MIXED.eig_pair)
        assert MIXED.entries == (0.5, 0.0, 0.0, 0.5)

    def test_matrix_is_frozen(self):
        with pytest.raises(ValueError):
            MIXED.mat[0, 0] = 0.7

    def test_matrices_are_read_only_float64(self, rng):
        rho = DensityMatrix(random_density_matrix(rng).mat.tolist())
        k = KrausSet(([[1.0, 0.0], [0.0, 0.6]], np.array([[0.0, 0.8], [0.0, 0.0]])))
        for mat in (rho.mat, *k.ops):
            assert mat.dtype == np.float64 and mat.shape == (2, 2)
            assert not mat.flags.writeable

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_rejects_non_finite_entries(self, bad):
        mixed = np.eye(2) / 2.0
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            m = with_entry(mixed, i, j, bad)
            for given in (m, m.tolist()):  # an array, and the nested list numpy coerces
                with pytest.raises(ValueError, match=refusal(bad)):
                    DensityMatrix(given)

    def test_stored_entries_and_eigenvalues_are_those_of_mat(self, rng):
        states = [random_density_matrix(rng) for _ in range(200)]
        states += [gibbs_state(QUBIT, 0.7), EXCITED, MIXED]
        for rho in states:
            entries = rho.mat.ravel().tolist()
            assert rho.entries == tuple(entries)
            assert rho.eig_pair == _eig_pair(*entries)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


class TestDensityMatrixToleranceEdges:
    """Each check accepts its tolerance exactly and rejects the next float beyond it.

    The messages were recorded before the checks moved to Python scalars.
    """

    @pytest.mark.parametrize(
        "entries",
        [lambda t: [[0.5, t], [0.0, 0.5]]],
        ids=["off-diagonal-real"],
    )
    def test_hermiticity_edge(self, entries):
        DensityMatrix(np.array(entries(TOL_HERM)))
        with pytest.raises(ValueError, match=r"^state is not Hermitian \(defect 1\.000e-12\)$"):
            DensityMatrix(np.array(entries(_up(TOL_HERM))))

    def test_trace_edges(self):
        # Real traces move on the float grid around 1: steps of 2^-52 above, 2^-53 below.
        above = math.floor(TOL_TRACE / 2.0**-52)
        below = math.floor(TOL_TRACE / 2.0**-53)
        DensityMatrix(np.diag([0.5 + above * 2.0**-52, 0.5]))
        DensityMatrix(np.diag([0.5 - below * 2.0**-53, 0.5]))
        with pytest.raises(ValueError, match=r"^state trace 1\.000000000001\+0j is not 1$"):
            DensityMatrix(np.diag([0.5 + (above + 1) * 2.0**-52, 0.5]))
        with pytest.raises(ValueError, match=r"^state trace 0\.999999999999\+0j is not 1$"):
            DensityMatrix(np.diag([0.5 - (below + 1) * 2.0**-53, 0.5]))

    def test_imaginary_trace_edge(self):
        # Im Tr = TOL_TRACE exactly, with the Hermiticity defect at its edge too: complex input,
        # refused before any check, as a complex stack is.
        h = 0.5 * TOL_TRACE
        assert 2.0 * h == TOL_HERM
        for state in ([[0.5 + 1j * h, 0.0], [0.0, 0.5 + 1j * h]],
                      np.array([[0.5 + 1j * h, 0.0], [0.0, 0.5 + 1j * h]])):
            with pytest.raises(ValueError, match=r"^matrix entries must be real$"):
                DensityMatrix(state)

    def test_lowest_eigenvalue_edge(self):
        DensityMatrix(np.diag([1.0 + TOL_PSD, -TOL_PSD]))
        with pytest.raises(ValueError, match=r"^state has negative eigenvalue -1\.000e-12$"):
            DensityMatrix(np.diag([1.0 + TOL_PSD, -_up(TOL_PSD)]))


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        pops = np.diag(gibbs_state(QUBIT, 1e-9).mat)
        assert np.allclose(pops, [0.5, 0.5], atol=1e-9)

    def test_b_log2_gives_thirds(self):
        # e^(-+ln2/2) = 2^(-+1/2), Z = 3/sqrt(2): populations (2/3, 1/3).
        pops = np.diag(gibbs_state(QUBIT, math.log(2.0)).mat)
        assert pops[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert pops[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_zero_temperature_limit(self):
        assert gibbs_state(QUBIT, 50.0).entries[0] == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            gibbs_state(QUBIT, 0.0)
        with pytest.raises(ValueError):
            gibbs_state(QUBIT, math.inf)

    def test_repeated_request_gives_an_equal_read_only_state(self):
        first, second = gibbs_state(QUBIT, 0.42), gibbs_state(QUBIT, 0.42)
        assert np.array_equal(first.mat, second.mat)
        assert first.entries == second.entries and first.eig_pair == second.eig_pair
        assert not first.mat.flags.writeable and not second.mat.flags.writeable
        assert not np.array_equal(gibbs_state(QUBIT, 0.43).mat, first.mat)

    def test_invalid_b_raises_on_every_call(self):
        gibbs_state(QUBIT, 1.0)
        for _ in range(3):
            with pytest.raises(ValueError, match="inverse temperature"):
                gibbs_state(QUBIT, -1.0)
        with pytest.raises(ValueError, match="inverse temperature"):
            gibbs_state(QUBIT, math.nan)

    @given(st.floats(min_value=1e-3, max_value=50.0))
    def test_populations_positive_and_normalized(self, b):
        pops = np.diag(gibbs_state(QUBIT, b).mat)
        assert np.all(pops > 0.0)
        assert abs(pops.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("h, b", [(Hamiltonian((-1e308, 1e308)), 1.0),
                                      (Hamiltonian.qubit(1e308), 1e10)],
                             ids=["gap-overflows", "b-times-gap-overflows"])
    def test_an_overflowing_weight_gives_the_ground_state_without_a_warning(self, h, b):
        # Any warning is an error under this suite's filterwarnings.
        assert gibbs_state(h, b).entries == (1.0, 0.0, 0.0, 0.0)
        ground, excited = _gibbs_populations(h, np.array([b, 2.0 * b]))
        assert ground.tolist() == [1.0, 1.0] and excited.tolist() == [0.0, 0.0]

    @given(st.floats(min_value=-18.0, max_value=3.0), st.floats(min_value=0.0, max_value=2.0))
    def test_weighting_is_the_normalized_boltzmann_weights_bit_for_bit(self, log_b, log_f):
        # The reference is exp(-b (E - E_min)) over its sum, on numpy arrays, for one b.
        b = 10.0 ** log_b
        h = Hamiltonian.qubit(10.0 ** log_f)
        e = np.asarray(h.levels)
        w = np.exp(-np.multiply.outer(b, e - e.min()))
        expected = (w / w.sum(axis=-1, keepdims=True)).tolist()
        pops = _gibbs_populations(h, b)
        assert all(type(v) is float for v in pops)
        assert list(pops) == expected
        ground, excited = _gibbs_populations(h, np.array([b, b]))
        assert ground.tolist() == [expected[0]] * 2 and excited.tolist() == [expected[1]] * 2


def _state_entries(p: float, c: float) -> list[list[float]]:
    return [[p, c], [c, 1.0 - p]]


def _with(m: list[list[float]], i: int, j: int, value: float) -> list[list[float]]:
    m[i][j] = value
    return m


_STATE_ENTRIES = st.builds(_state_entries, st.floats(0.0, 1.0),
                           st.one_of(st.just(0.0), st.floats(-0.6, 0.6)))

# 2x2 real entries: states (diagonal, or with a coherence, some failing the PSD check),
# states with one non-finite entry, and arbitrary entries, NaN, infinities and huge values
# included.
_ENTRIES = st.one_of(
    _STATE_ENTRIES,
    st.builds(_with, _STATE_ENTRIES, st.integers(0, 1), st.integers(0, 1),
              st.sampled_from((math.inf, -math.inf, math.nan))),
    st.lists(st.floats(), min_size=4, max_size=4).map(lambda v: [v[:2], v[2:]]),
)

# Each real input kind a caller might pass, built from 2x2 float entries.  The last
# five are malformed: the wrong shape, or entries that are not numbers (numpy holds
# numeric strings as strings, refused as not real, and bools as bools, accepted).
_KINDS = {
    "float lists": lambda m: [list(row) for row in m],
    "int lists": lambda m: [[int(v) if math.isfinite(v) else 1 for v in row] for row in m],
    "float tuples": lambda m: tuple(tuple(row) for row in m),
    "np.float64 lists": lambda m: [[np.float64(v) for v in row] for row in m],
    "float64 array": lambda m: np.array(m),
    "3x3 lists": lambda m: [list(row) + [0.0] for row in m] + [[0.0, 0.0, 1.0]],
    "ragged lists": lambda m: [list(m[0]), [m[1][0]]],
    "flat list": lambda m: [v for row in m for v in row],
    "string lists": lambda m: [[repr(v) for v in row] for row in m],
    "bool lists": lambda m: [[v > 0.5 for v in row] for row in m],
}

_REFUSALS = (ValueError, TypeError, OverflowError)


class TestConstructorInputKinds:
    """`DensityMatrix` and `KrausSet` accept or refuse every kind of input as numpy's coercion does.

    The reference is `as_square_matrix`: the shape check, then numpy's coercion
    under `as_matrix_stack`'s rule (real entries only, all finite).  The four floats
    of a nested list of Python floats also build a state through `states._state`,
    which checks them without numpy, so for them this compares two routes.
    """

    @settings(max_examples=400)
    @given(_ENTRIES, st.sampled_from(sorted(_KINDS)))
    # A Hermiticity defect beyond the float range.
    @example([[0.0, -1.3e308], [1.3e308, 0.0]], "float lists")
    def test_each_input_is_accepted_or_refused_as_numpy_coerces_it(self, entries, kind):
        value = _KINDS[kind](entries)
        state_builds = [DensityMatrix]
        if kind == "float lists":
            state_builds.append(lambda m: _state(*m[0], *m[1]))
        try:
            expected = as_square_matrix(value).copy()
        except _REFUSALS as refusal:
            for build in (*state_builds, lambda m: KrausSet((m,))):
                with pytest.raises(type(refusal)) as raised:
                    build(value)
                assert type(raised.value) is type(refusal) and str(raised.value) == str(refusal)
            return
        k = KrausSet((value, value))
        assert k.ops is k.ops
        for op, op_entries in zip(k.ops, k.entries, strict=True):
            self._assert_built_from(op, op_entries, expected, value)
        try:
            reference = DensityMatrix(expected)  # an ndarray takes numpy's path
        except ValueError as refusal:
            for build in state_builds:
                with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
                    build(value)
            return
        for build in state_builds:
            rho = build(value)
            assert type(rho) is DensityMatrix and rho.eig_pair == reference.eig_pair
            assert rho.mat is rho.mat
            self._assert_built_from(rho.mat, rho.entries, expected, value)

    @staticmethod
    def _assert_built_from(mat: np.ndarray, entries: tuple, expected: np.ndarray, value) -> None:
        # Every kind gives Python float entries; a nested list of Python floats keeps their bits.
        assert all(type(v) is float for v in entries)
        rows = value if type(value) is list and all(type(row) is list for row in value) else []
        flat = [v for row in rows for v in row]
        if flat and all(type(v) is float for v in flat):
            assert np.array(entries).tobytes() == np.array(flat).tobytes()
        assert np.array(entries).tobytes() == expected.tobytes()
        assert mat.dtype == np.float64 and mat.shape == (2, 2) and not mat.flags.writeable
        assert mat.tobytes() == expected.tobytes()


class TestMeanEnergy:
    def test_maximally_mixed_is_zero(self):
        assert mean_energy(MIXED, QUBIT) == pytest.approx(0.0, abs=1e-15)

    def test_thermal_at_b_log2(self):
        # Tr(H rho_th) = -(1/2) tanh(ln2 / 2) = -1/6.
        val = mean_energy(gibbs_state(QUBIT, math.log(2.0)), QUBIT)
        assert val == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_ground_state(self):
        assert mean_energy(GROUND, QUBIT) == -0.5

    def test_closed_form_over_grid(self):
        # Bare qubit: Tr(H rho_th) = -(1/2) tanh(b/2).
        for b in (0.1, math.log(2.0), 1.0, 5.0, 20.0):
            expected = -0.5 * math.tanh(0.5 * b)
            assert mean_energy(gibbs_state(QUBIT, b), QUBIT) == pytest.approx(expected, abs=1e-12)

    def test_closed_form_at_stretched_gap(self):
        # Thermalizing at gap f keys the exponent to b*f: -(f/2) tanh(b*f/2).
        for f in (2.0, 5.0):
            h = Hamiltonian.qubit(f)
            for b in (0.1, 1.0, 5.0):
                expected = -0.5 * f * math.tanh(0.5 * b * f)
                assert mean_energy(gibbs_state(h, b), h) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("frequency", [1.0, 2.0, 37.5])
    def test_closed_form_is_the_trace_on_coherent_states(self, rng, frequency):
        h = Hamiltonian.qubit(frequency)
        for _ in range(200):
            rho = random_density_matrix(rng)
            assert abs(rho.mat[0, 1]) > 0.0
            assert mean_energy(rho, h) == float(np.trace(np.diag(h.levels) @ rho.mat))

    @pytest.mark.parametrize(("mode", "r"), [("three", 1.0), ("five", 3.0)])
    @pytest.mark.parametrize("b", [1e-7, math.log(2.0), 5.0, 700.0])
    def test_closed_form_is_the_trace_on_cycle_states(self, mode, r, b):
        p = CycleParams(b=b, gamma=0.8, mode=mode, r=r)
        for ledger in (run_numeric(p), run_analytic(p)):
            for rec in ledger.strokes:
                h, rho = rec.hamiltonian_after, rec.state_after
                assert rec.energy_after == float(np.trace(np.diag(h.levels) @ rho.mat))

    def test_dimension_mismatch(self):
        # Only qubits pass the boundary: neither a 3x3 state nor a three-level
        # Hamiltonian can be built, so mean_energy never sees a mismatch.
        with pytest.raises(ValueError, match="2x2"):
            DensityMatrix(np.eye(3) / 3.0)
        with pytest.raises(ValueError, match="exactly two levels"):
            Hamiltonian((-1.0, 0.0, 1.0))


class TestVonNeumannEntropy:
    def test_pure_state_is_exactly_zero(self):
        assert von_neumann_entropy(GROUND) == 0.0
        assert von_neumann_entropy(EXCITED) == 0.0

    def test_maximally_mixed_is_log2(self):
        s = von_neumann_entropy(MIXED)
        assert s == pytest.approx(math.log(2.0), abs=1e-15)

    def test_frozen_oracle_value(self):
        rho = DensityMatrix.from_populations([7.0 / 12.0, 5.0 / 12.0])
        assert von_neumann_entropy(rho) == pytest.approx(ENTROPY_7_5_TWELFTHS, abs=1e-15)

    def test_thermal_entropy_decreases_with_b(self):
        values = [von_neumann_entropy(gibbs_state(QUBIT, b)) for b in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    def test_permutation_symmetry_is_exact(self, p):
        forward = von_neumann_entropy(DensityMatrix.from_populations([p, 1.0 - p]))
        backward = von_neumann_entropy(DensityMatrix.from_populations([1.0 - p, p]))
        assert forward == backward


class TestTraceDistance:
    """The tests' trace distance (`support.trace_distance`): `_eig_pair` of an entry difference."""

    def test_identical_states(self):
        assert trace_distance(MIXED, MIXED) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(GROUND, EXCITED) == 1.0

    def test_mixed_vs_thirds(self):
        # Difference has eigenvalues +-1/6.
        d = trace_distance(
            MIXED,
            DensityMatrix.from_populations([2.0 / 3.0, 1.0 / 3.0]),
        )
        assert d == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_dimension_mismatch(self):
        # A 3x3 state is refused at construction, before trace_distance.
        with pytest.raises(ValueError, match="2x2"):
            DensityMatrix.from_populations([0.5, 0.25, 0.25])
