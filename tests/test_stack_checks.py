"""Every rejection of the stack checks: exception type, full message, and the state it names.

The messages were recorded before the checks moved to global reductions.
Where two entries of a stack are bad, the message names the first.
"""

import math

import numpy as np
import pytest
from support import NON_FINITE

from measengine.channels import (
    COMPLETENESS_TOL,
    IncompleteKrausSetError,
    KrausSet,
    NoIsentropicStrengthError,
    apply_unselective_stack,
    completeness_deviation_stack,
    first_channel_stack,
    isentropic_strength,
    isentropic_strength_stack,
    second_channel_stack,
    validate_completeness,
)
from measengine.engine import CycleGrid, run_analytic_grid, run_numeric_grid
from measengine.linalg import TOL_HERM, _eigvals_stack
from measengine.states import (
    TOL_PSD,
    TOL_TRACE,
    DensityMatrix,
    entropy_stack,
    validate_state_stack,
)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def mixed_stack(n: int = 4) -> np.ndarray:
    return np.array([np.diag([0.5, 0.5])] * n)


def with_bad_entry(stack: np.ndarray, index: tuple, bad: complex) -> tuple[np.ndarray, str]:
    """A copy of a real stack with one non-finite entry, and the message that refuses it.

    A value with an imaginary part makes the stack complex, which is refused
    before its values are looked at.
    """
    real = bad.imag == 0.0
    out = stack.astype(float if real else complex)
    out[index] = bad.real if real else bad
    return out, rf"^matrix entries must be {'finite' if real else 'real'}$"


def with_states(**states) -> np.ndarray:
    """A maximally mixed 4-state stack with the given states at positions s0..s3."""
    out = mixed_stack()
    for name, entries in states.items():
        out[int(name[1:])] = entries
    return out


def rejects_with(check, m, reason: str) -> bool:
    try:
        check(m)
    except ValueError as e:
        assert reason in str(e)
        return True
    return False


class TestValidateStateStack:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(("i", "j"), [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_entry(self, bad, i, j):
        stack, message = with_bad_entry(mixed_stack(), (2, i, j), bad)
        with pytest.raises(ValueError, match=message):
            validate_state_stack(stack)

    def test_non_hermitian_names_the_first_bad_state(self):
        stack = with_states(s1=[[0.5, 1e-3], [0.0, 0.5]], s3=[[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match=r"^state 1 of the stack is not Hermitian "
                                             r"\(defect 1\.000e-03\)$"):
            validate_state_stack(stack)

    def test_trace_names_the_first_bad_state(self):
        stack = with_states(s1=np.diag([0.6, 0.5]), s3=np.diag([2.0, 0.5]))
        with pytest.raises(ValueError, match=r"^state 1 of the stack has trace 1\.1\+0j, not 1$"):
            validate_state_stack(stack)

    def test_negative_eigenvalue_names_the_first_bad_state(self):
        stack = with_states(s1=np.diag([1.1, -0.1]), s3=np.diag([2.0, -1.0]))
        with pytest.raises(ValueError, match=r"^state 1 of the stack has negative eigenvalue "
                                             r"-1\.000e-01$"):
            validate_state_stack(stack)

    def test_coherences_whose_sum_overflows_are_refused_without_a_warning(self):
        # Hermitian, unit trace, lower eigenvalue 0.5 - 1e308; any warning fails the test.
        stack = with_states(s1=[[0.5, 1e308], [1e308, 0.5]])
        with pytest.raises(ValueError, match=r"^state 1 of the stack has negative eigenvalue "
                                             r"-inf$"):
            validate_state_stack(stack)

    def test_checks_run_in_the_constructor_order(self):
        # Every state fails something; the Hermiticity check runs over the whole stack first.
        stack = with_states(s0=np.diag([1.1, -0.1]), s1=np.diag([0.6, 0.5]),
                            s2=[[0.5, 1e-3], [0.0, 0.5]])
        with pytest.raises(ValueError, match=r"^state 2 of the stack is not Hermitian"):
            validate_state_stack(stack)
        stack[2] = np.diag([0.5, 0.5])
        with pytest.raises(ValueError, match=r"^state 1 of the stack has trace"):
            validate_state_stack(stack)

    @pytest.mark.parametrize(("shape", "message"), [
        ((2, 2), r"^expected a \(N, 2, 2\) state stack, got shape \(2, 2\)$"),
        ((2, 2, 2, 2), r"^expected a \(N, 2, 2\) state stack, got shape \(2, 2, 2, 2\)$"),
        ((3, 3, 3), r"^expected a stack of 2x2 qubit matrices, got shape \(3, 3, 3\)$"),
        ((2,), r"^expected a stack of 2x2 qubit matrices, got shape \(2,\)$"),
    ])
    def test_wrong_shape(self, shape, message):
        with pytest.raises(ValueError, match=message):
            validate_state_stack(np.zeros(shape))

    @pytest.mark.parametrize(
        "entries",
        [
            lambda t: [[0.5, t], [0.0, 0.5]],
            lambda t: [[0.5, 0.0], [t, 0.5]],
            lambda t: [[0.5, -t], [0.0, 0.5]],
        ],
        ids=["off-diagonal-real", "off-diagonal-lower", "off-diagonal-negative"],
    )
    def test_hermiticity_edge(self, entries):
        validate_state_stack(with_states(s1=entries(TOL_HERM), s3=entries(TOL_HERM)))
        with pytest.raises(ValueError, match=r"^state 3 of the stack is not Hermitian "
                                             r"\(defect 1\.000e-12\)$"):
            validate_state_stack(with_states(s1=entries(TOL_HERM), s3=entries(_up(TOL_HERM))))

    def test_trace_edges(self):
        above = math.floor(TOL_TRACE / 2.0**-52)
        below = math.floor(TOL_TRACE / 2.0**-53)
        validate_state_stack(with_states(s1=np.diag([0.5 + above * 2.0**-52, 0.5]),
                                         s2=np.diag([0.5 - below * 2.0**-53, 0.5])))
        with pytest.raises(ValueError, match=r"^state 2 of the stack has trace "
                                             r"1\.000000000001\+0j, not 1$"):
            validate_state_stack(with_states(s2=np.diag([0.5 + (above + 1) * 2.0**-52, 0.5])))
        with pytest.raises(ValueError, match=r"^state 0 of the stack has trace "
                                             r"0\.999999999999\+0j, not 1$"):
            validate_state_stack(with_states(s0=np.diag([0.5 - (below + 1) * 2.0**-53, 0.5])))

    def test_imaginary_trace_edge(self):
        # `DensityMatrix` accepts an imaginary trace within TOL_TRACE; a stack must be real.
        h = 0.5 * TOL_TRACE
        state = np.array([[0.5 + 1j * h, 0.0], [0.0, 0.5 + 1j * h]])
        DensityMatrix(state)
        stack = mixed_stack().astype(complex)
        stack[3] = state
        with pytest.raises(ValueError, match=r"^matrix entries must be real$"):
            validate_state_stack(stack)

    def test_lowest_eigenvalue_edge(self):
        validate_state_stack(with_states(s2=np.diag([1.0 + TOL_PSD, -TOL_PSD])))
        with pytest.raises(ValueError, match=r"^state 2 of the stack has negative eigenvalue "
                                             r"-1\.000e-12$"):
            validate_state_stack(with_states(s2=np.diag([1.0 + TOL_PSD, -_up(TOL_PSD)])))

    @staticmethod
    def decided_alike(stack: np.ndarray, reason: str) -> np.ndarray:
        """Per state, whether `DensityMatrix` accepts it; asserts the stack check agrees.

        Each state is checked alone by both rules, then a stack of the
        accepted states must pass and the whole stack must name the first
        rejected state.
        """
        accepted = np.array([not rejects_with(DensityMatrix, m, reason) for m in stack])
        assert 0.2 < accepted.mean() < 0.8
        rejected = [rejects_with(lambda m: validate_state_stack(m[None]), m, reason)
                    for m in stack]
        assert rejected == (~accepted).tolist()
        validate_state_stack(stack[accepted])
        first = int(np.argmin(accepted))
        with pytest.raises(ValueError, match=rf"^state {first} of the stack .*{reason}"):
            validate_state_stack(stack)
        return accepted

    def test_hermiticity_edge_is_the_density_matrix_rule(self, rng):
        """Near TOL_HERM the stack accepts exactly the states `DensityMatrix` accepts.

        Each state is the maximally mixed one with random real off-diagonal
        entries scaled so that the defect |a01 - a10| lies within a few ulps
        of TOL_HERM; only the Hermiticity check decides.
        """
        n = 20_000
        z = rng.normal(size=(2, n))
        z *= TOL_HERM / np.abs(z[0] - z[1])
        z *= 1.0 + rng.integers(-4, 5, size=n) * 2.0**-53
        stack = np.zeros((n, 2, 2))
        stack[:, 0, 0] = stack[:, 1, 1] = 0.5
        stack[:, 0, 1], stack[:, 1, 0] = z
        self.decided_alike(stack, "not Hermitian")

    def test_trace_edge_is_the_density_matrix_rule(self, rng):
        """Near TOL_TRACE the stack accepts exactly the states `DensityMatrix` accepts.

        Each state is diagonal with populations a and 1 - a shifted by
        TOL_TRACE, either way, and a few ulps of 1; only the trace check decides.
        """
        n = 20_000
        a = rng.uniform(0.01, 0.99, n)
        shift = rng.choice([-1.0, 1.0], n) * TOL_TRACE + rng.integers(-4, 5, size=n) * 2.0**-53
        stack = np.zeros((n, 2, 2))
        stack[:, 0, 0], stack[:, 1, 1] = a, (1.0 - a) + shift
        self.decided_alike(stack, "trace")

    def test_coherent_psd_edge_is_the_density_matrix_rule(self, rng):
        """Near -TOL_PSD the stack accepts exactly the states `DensityMatrix` accepts.

        Each state is diag(-TOL_PSD, 1 + TOL_PSD) in a random real basis, exactly
        symmetric and of unit trace within an ulp, so only the lowest-eigenvalue
        check decides.  numpy's lower eigenvalue, mean - radius with both terms
        near 1/2, can be an ulp of 1/2 off the constructor's.
        """
        n = 100_000
        theta = rng.uniform(0.0, math.pi, n)
        lo, hi = -TOL_PSD, 1.0 + TOL_PSD
        a = lo * np.cos(theta) ** 2 + hi * np.sin(theta) ** 2
        c = (hi - lo) * np.sin(theta) * np.cos(theta)
        stack = np.empty((n, 2, 2))
        stack[:, 0, 0], stack[:, 1, 1] = a, 1.0 - a
        stack[:, 0, 1] = stack[:, 1, 0] = c
        accepted = self.decided_alike(stack, "negative eigenvalue")
        numpy_accepts = _eigvals_stack(stack)[0] >= -TOL_PSD
        # numpy's eigenvalue alone would differ: on 437 of these states with the fixture's seed.
        assert (numpy_accepts != accepted).sum() > 200

class TestApplyUnselectiveStackRejects:
    RHO = mixed_stack()
    KRAUS = first_channel_stack(np.full(4, 0.3))

    def test_incomplete_set_names_the_first(self):
        kraus = self.KRAUS.copy()
        kraus[1] *= 1.001
        kraus[3] *= 1.1
        with pytest.raises(IncompleteKrausSetError, match=r"^Kraus set 1 of the stack violates "
                                                          r"completeness by 2\.001e-03$"):
            apply_unselective_stack(kraus, self.RHO)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)],
                             ids=["real", "imag"])
    def test_non_finite_operator(self, bad):
        kraus, message = with_bad_entry(self.KRAUS, (2, 1, 1, 0), bad)
        with pytest.raises(ValueError, match=message):
            apply_unselective_stack(kraus, self.RHO)

    def test_completeness_edge_is_the_validate_completeness_rule(self, rng):
        """Near COMPLETENESS_TOL the stack accepts exactly the sets `validate_completeness` accepts.

        Each set is {U diag(cos t) V, W diag(sin t) V} for random rotations U,
        W, V, complete in exact arithmetic, times diag(sqrt(1 + e), sqrt(1 - e))
        with e within a few ulps of 1 of COMPLETENESS_TOL, so that the sum is
        diag(1 + e, 1 - e) up to roundoff and the outputs keep unit trace.
        """
        n = 20_000

        def rotation():
            angle = rng.uniform(0.0, 2.0 * math.pi, n)
            cos, sin = np.cos(angle), np.sin(angle)
            return np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)

        t = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
        e = COMPLETENESS_TOL + rng.integers(-4, 5, size=n) * 2.0**-52
        scale = np.stack([np.sqrt(1.0 + e), np.sqrt(1.0 - e)], -1)[:, None, :]
        v = rotation()
        kraus = np.stack([rotation() @ (np.cos(t)[:, :, None] * v) * scale,
                          rotation() @ (np.sin(t)[:, :, None] * v) * scale], axis=1)
        expected = np.array([validate_completeness(KrausSet(tuple(k))).max_deviation
                             for k in kraus])
        assert completeness_deviation_stack(kraus).tobytes() == expected.tobytes()
        accepted = expected <= COMPLETENESS_TOL
        assert 0.2 < accepted.mean() < 0.8
        rho = mixed_stack(n)
        apply_unselective_stack(kraus[accepted], rho[accepted])
        first = int(np.argmin(accepted))
        with pytest.raises(IncompleteKrausSetError,
                           match=rf"^Kraus set {first} of the stack violates completeness"):
            apply_unselective_stack(kraus, rho)

    @pytest.mark.parametrize(("kraus", "message"), [
        (KRAUS[:, 0], r"^expected a \(4, K, 2, 2\) Kraus stack, got shape \(4, 2, 2\)$"),
        (KRAUS[:3], r"^expected a \(4, K, 2, 2\) Kraus stack, got shape \(3, 2, 2, 2\)$"),
        (np.zeros((4, 2, 3, 3)), r"^expected a stack of 2x2 qubit matrices, "
                                 r"got shape \(4, 2, 3, 3\)$"),
    ], ids=["no-operator-axis", "too-few-sets", "not-2x2"])
    def test_wrong_shape(self, kraus, message):
        with pytest.raises(ValueError, match=message):
            apply_unselective_stack(kraus, self.RHO)

    def test_invalid_output_names_the_first_state(self):
        rho = with_states(s1=np.diag([1.1, -0.1]), s3=np.diag([2.0, -1.0]))
        with pytest.raises(ValueError, match=r"^state 1 of the stack has negative eigenvalue "
                                             r"-1\.000e-01$"):
            apply_unselective_stack(second_channel_stack(np.zeros(4)), rho)


class TestIsentropicStrengthStackRejects:
    X = np.full(4, 0.5)

    @pytest.mark.parametrize(("p", "shown"), [
        ((0.3, 1.5, 0.2, -1.0), "1.5"),
        ((0.3, math.nan, 0.2, -1.0), "nan"),
        ((0.3, 0.9, -0.0625, math.inf), "-0.0625"),
    ])
    def test_strength_out_of_range_names_the_first(self, p, shown):
        with pytest.raises(ValueError, match=rf"^excitation strength must lie in \[0, 1\], "
                                             rf"got {shown}$"):
            isentropic_strength_stack(np.array(p), self.X)

    def test_q_below_its_slack_has_no_partner(self):
        # Within 1e-12 below the threshold, with x so small that q falls below -1e-12.
        p = np.array([0.3, 0.5 - 0.9e-12, 0.2, 0.5 - 0.5e-12])
        x = np.array([0.5, 1e-300, 0.5, 1e-300])
        q = isentropic_strength_stack(p, x)
        assert q[0] == (2.0 * 0.3 - 1.0 + 0.5) / (0.3 + 0.5) and np.isnan(q[1:]).all()
        for i in (1, 3):
            with pytest.raises(NoIsentropicStrengthError):
                isentropic_strength(float(p[i]), -math.log(x[i]))

    def test_below_threshold_is_nan(self):
        q = isentropic_strength_stack(np.array([0.2, 0.9]), np.array([0.5, 0.5]))
        assert math.isnan(q[0]) and q[1] == (2.0 * 0.9 - 1.0 + 0.5) / (0.9 + 0.5)

    @pytest.mark.parametrize(("make", "name"), [(first_channel_stack, "excitation"),
                                                (second_channel_stack, "damping")])
    def test_channel_strength_out_of_range_names_the_first(self, make, name):
        with pytest.raises(ValueError, match=rf"^{name} strength must lie in \[0, 1\], got inf$"):
            make(np.array([0.3, math.inf, 2.0]))


class TestEmptyStacks:
    EMPTY = np.zeros((0, 2, 2))

    def test_state_checks_and_kernels(self):
        assert validate_state_stack(self.EMPTY).shape == (0, 2, 2)
        lo, hi = _eigvals_stack(self.EMPTY)
        assert lo.shape == hi.shape == (0,)
        assert entropy_stack(self.EMPTY).shape == (0,)

    @pytest.mark.parametrize("mode", ["three", "five"])
    def test_grid_runners(self, mode):
        grid = CycleGrid(np.array([]), np.array([]), mode, np.array([]))
        for ledger in (run_numeric_grid(grid), run_analytic_grid(grid)):
            assert ledger.eta.shape == ledger.q_used.shape == (0,)
            assert ledger.states_tp.shape == ledger.states_qmii.shape == (0, 2, 2)
            assert ledger.entropy_tp.shape == ledger.entropy_qmii.shape == (0,)
