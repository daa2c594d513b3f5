"""Every rejection of the stack checks: exception type, full message, and the state it names.

The messages were recorded before the checks moved to global reductions.
Where two entries of a stack are bad, the message names the first.
"""

import math

import numpy as np
import pytest
from support import NON_FINITE

from measengine.channels import (
    IncompleteKrausSetError,
    NoIsentropicStrengthError,
    apply_unselective_stack,
    first_channel_stack,
    isentropic_strength,
    isentropic_strength_stack,
    second_channel_stack,
)
from measengine.engine import CycleGrid, run_analytic_grid, run_numeric_grid
from measengine.linalg import TOL_HERM, _eig_pair, _eigvals_stack, _hermiticity_defect
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
    return np.array([np.diag([0.5, 0.5])] * n, dtype=complex)


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
        stack = mixed_stack()
        stack[2, i, j] = bad
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
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
            lambda t: [[0.5, 1j * t], [0.0, 0.5]],
            lambda t: [[0.5 + 0.5j * t, 0.0], [0.0, 0.5]],
            lambda t: [[0.5, 0.0], [0.0, 0.5 - 0.5j * t]],
        ],
        ids=["off-diagonal-real", "off-diagonal-imag", "diagonal-0", "diagonal-1"],
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
        h = 0.5 * TOL_TRACE
        validate_state_stack(with_states(s3=[[0.5 + 1j * h, 0.0], [0.0, 0.5 + 1j * h]]))

    def test_lowest_eigenvalue_edge(self):
        validate_state_stack(with_states(s2=np.diag([1.0 + TOL_PSD, -TOL_PSD])))
        with pytest.raises(ValueError, match=r"^state 2 of the stack has negative eigenvalue "
                                             r"-1\.000e-12$"):
            validate_state_stack(with_states(s2=np.diag([1.0 + TOL_PSD, -_up(TOL_PSD)])))

    def test_coherent_hermiticity_edge_is_the_density_matrix_rule(self, rng):
        """Near TOL_HERM the stack accepts exactly the states `DensityMatrix` accepts.

        numpy's complex abs can be an ulp off Python's abs, the constructor's
        modulus.  Each state is the maximally mixed one with random
        off-diagonal entries scaled so that the defect |a01 - conj(a10)|
        lies within a few ulps of TOL_HERM; only the Hermiticity check decides.
        """
        n = 100_000
        z = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        z *= TOL_HERM / np.abs(z[0] - np.conj(z[1]))
        z *= 1.0 + rng.integers(-4, 5, size=n) * 2.0**-53
        stack = np.zeros((n, 2, 2), dtype=complex)
        stack[:, 0, 0] = stack[:, 1, 1] = 0.5
        stack[:, 0, 1], stack[:, 1, 0] = z
        defect = np.abs(z[0] - np.conj(z[1]))
        accepted = np.array([_hermiticity_defect(*m.ravel().tolist()) <= TOL_HERM
                             for m in stack])
        assert 0.2 < accepted.mean() < 0.8
        assert ((defect <= TOL_HERM) != accepted).sum() > 1000  # numpy's modulus would differ
        for check in (DensityMatrix, lambda m: validate_state_stack(m[None])):
            assert [rejects_with(check, m, "not Hermitian") for m in stack] == (~accepted).tolist()
        # A stack passes exactly when each of its states does.
        validate_state_stack(stack[accepted])
        first = int(np.argmin(accepted))
        with pytest.raises(ValueError, match=rf"^state {first} of the stack is not Hermitian"):
            validate_state_stack(stack)


    def test_coherent_psd_edge_is_the_density_matrix_rule(self, rng):
        """Near -TOL_PSD the stack accepts exactly the states `DensityMatrix` accepts.

        Each state is diag(-TOL_PSD, 1 + TOL_PSD) in a random basis, exactly
        Hermitian and of unit trace within an ulp, so only the lowest-eigenvalue
        check decides.  numpy's lower eigenvalue, mean - radius with both terms
        near 1/2, can be an ulp of 1/2 off the constructor's.
        """
        n = 100_000
        theta = rng.uniform(0.0, math.pi, n)
        lo, hi = -TOL_PSD, 1.0 + TOL_PSD
        a = lo * np.cos(theta) ** 2 + hi * np.sin(theta) ** 2
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        c = (hi - lo) * np.sin(theta) * np.cos(theta) * phase
        stack = np.empty((n, 2, 2), dtype=complex)
        stack[:, 0, 0], stack[:, 1, 1] = a, 1.0 - a
        stack[:, 0, 1], stack[:, 1, 0] = c, np.conj(c)
        accepted = np.array([_eig_pair(*m.ravel().tolist())[0] >= -TOL_PSD for m in stack])
        assert 0.2 < accepted.mean() < 0.8
        numpy_accepts = _eigvals_stack(stack)[0] >= -TOL_PSD
        assert (numpy_accepts != accepted).sum() > 1000  # numpy's eigenvalue alone would differ
        for check in (DensityMatrix, lambda m: validate_state_stack(m[None])):
            rejected = [rejects_with(check, m, "negative eigenvalue") for m in stack]
            assert rejected == (~accepted).tolist()
        # A stack passes exactly when each of its states does.
        validate_state_stack(stack[accepted])
        first = int(np.argmin(accepted))
        with pytest.raises(ValueError,
                           match=rf"^state {first} of the stack has negative eigenvalue"):
            validate_state_stack(stack)

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
        kraus = self.KRAUS.astype(complex)  # the channel stacks are real; the bad entry is not
        kraus[2, 1, 1, 0] = bad
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            apply_unselective_stack(kraus, self.RHO)

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
    EMPTY = np.zeros((0, 2, 2), dtype=complex)

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
