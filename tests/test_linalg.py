import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measengine import verify
from measengine.channels import KrausSet
from measengine.linalg import (
    _eig_pair,
    _eigvals_stack,
    _require_finite,
    _square_entries,
    as_square_matrix,
    eig_hermitian,
    matmul,
)
from measengine.states import DensityMatrix, _state
from support import (
    NON_FINITE,
    is_real,
    random_rotation,
    random_symmetric,
    refusal,
    state_rows,
    with_entry,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
EYE2 = np.eye(2)


def test_matmul_identity_leaves_input(rng):
    x = rng.normal(size=(2, 2))
    assert np.array_equal(matmul(EYE2, x), x)


def test_matmul_diagonal_algebra():
    out = matmul(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
    assert out.dtype == np.float64
    assert np.array_equal(out, np.diag([10.0, 21.0]))


def test_matmul_pauli_involution():
    assert np.array_equal(matmul(SIGMA_Z, SIGMA_Z), EYE2)


def test_matmul_dimension_mismatch():
    # Only qubit operators pass the boundary; a 3x3 factor is refused.
    with pytest.raises(ValueError, match="2x2"):
        matmul(EYE2, np.eye(3))
    with pytest.raises(ValueError, match="2x2"):
        as_square_matrix(np.eye(3))


def test_as_square_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="2x2"):
        as_square_matrix(np.ones((1, 1)))
    with pytest.raises(ValueError, match="finite"):
        as_square_matrix(np.array([[np.nan, 0], [0, 1]]))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("check", [as_square_matrix, eig_hermitian], ids=lambda f: f.__name__)
def test_non_finite_entries_are_rejected(check, bad):
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        with pytest.raises(ValueError, match=refusal(bad)):
            check(with_entry(EYE2, i, j, bad))


POSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _float_list(*replaced):
    """The maximally mixed state as a nested list of Python floats, with (i, j, value) put in."""
    m = [[0.5, 0.0], [0.0, 0.5]]
    for i, j, value in replaced:
        m[i][j] = value
    return m


# Nested lists of Python floats, which numpy coerces: one non-finite entry at each
# position, and +inf with -inf, whose sum is NaN; a NON_FINITE value with an imaginary
# part makes the list complex, which numpy refuses.
NON_FINITE_FLOAT_LISTS = [
    pytest.param(_float_list((i, j, bad)), refusal(bad), id=f"{bad!r}@{i}{j}")
    for bad in (math.nan, math.inf, -math.inf) for i, j in POSITIONS
] + [
    pytest.param(_float_list((i, j, bad.real if is_real(bad) else bad)), refusal(bad),
                 id=f"{bad!r}@{i}{j}")
    for bad in NON_FINITE for i, j in POSITIONS
] + [
    pytest.param(_float_list((*a, math.inf), (*b, -math.inf)), refusal(math.inf),
                 id=f"inf@{a}-inf@{b}")
    for a, b in itertools.permutations(POSITIONS, 2)
]
# `_state` takes the engine's four Python floats and checks them without numpy
# (`linalg._require_finite`: the sum first, then entry by entry), so it gets the real lists.
FINITENESS_CHECKS = {
    "_square_entries": _square_entries,
    "DensityMatrix": DensityMatrix,
    "KrausSet": lambda m: KrausSet((m,)),
    "_state": lambda m: _state(*m[0], *m[1]),
}


@pytest.mark.parametrize(("check", "entries", "message"), [
    pytest.param(check, *case.values, id=f"{name}-{case.id}")
    for name, check in FINITENESS_CHECKS.items() for case in NON_FINITE_FLOAT_LISTS
    if name != "_state" or all(type(v) is float for row in case.values[0] for v in row)
])
def test_non_finite_float_lists_are_rejected(check, entries, message):
    with pytest.raises(ValueError, match=message):
        check(entries)


# Complex input, with imaginary parts and with zero ones: nested lists (one complex entry
# among floats too), tuples and complex arrays.
COMPLEX_INPUTS = {
    "list": [[0.5 + 0j, 0j], [0j, 0.5 + 0j]],
    "list-one-entry": [[0.5, 0.0], [0j, 0.5]],
    "list-imag": [[0.5, 0.1j], [-0.1j, 0.5]],
    "tuple": ((0.5 + 0j, 0j), (0j, 0.5 + 0j)),
    "tuple-imag": ((0.5, 0.1j), (-0.1j, 0.5)),
    "complex128": np.eye(2, dtype=complex) / 2.0,
    "complex128-imag": np.array([[0.5, 0.1j], [-0.1j, 0.5]]),
    "complex64": np.eye(2, dtype=np.complex64) / 2.0,
}
REAL_ONLY = {
    "DensityMatrix": DensityMatrix,
    "KrausSet": lambda m: KrausSet((np.eye(2), m)),
    "as_square_matrix": as_square_matrix,
    "eig_hermitian": eig_hermitian,
    "matmul-left": lambda m: matmul(m, EYE2),
    "matmul-right": lambda m: matmul(EYE2, m),
}


@pytest.mark.parametrize("kind", sorted(COMPLEX_INPUTS))
@pytest.mark.parametrize("check", sorted(REAL_ONLY))
def test_complex_input_is_refused(check, kind):
    with pytest.raises(ValueError, match="^matrix entries must be real$"):
        REAL_ONLY[check](COMPLEX_INPUTS[kind])


def test_finite_entries_whose_sum_overflows_are_accepted():
    # The sum of the four entries is inf, so the finiteness check decides entry by entry.
    entries = [[1e308, 1e308], [1e308, 1e308]]
    assert math.isinf(sum(entries[0] + entries[1]))
    _require_finite(1e308, 1e308, 1e308, 1e308)
    for given_entries in (entries, np.array(entries)):
        flat = _square_entries(given_entries)
        assert flat == [1e308] * 4 and all(type(v) is float for v in flat)


def test_trace_is_cyclic(rng):
    for _ in range(60):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        assert abs(np.trace(matmul(a, b)) - np.trace(matmul(b, a))) <= 1e-13


def test_eig_examples():
    assert np.allclose(eig_hermitian(EYE2), [1.0, 1.0])
    assert np.allclose(eig_hermitian(SIGMA_X), [-1.0, 1.0])
    got = eig_hermitian(np.diag([5.0 / 12.0, 7.0 / 12.0]))
    assert np.array_equal(got, [5.0 / 12.0, 7.0 / 12.0])


# Symmetric matrices whose coherence sum a01 + a10 = 2c leaves the float range.
@pytest.mark.parametrize("c", [1e308], ids=["real"])
def test_eig_of_coherences_whose_sum_overflows_is_finite(c):
    # c is in range, so the eigenvalues 0.5 -+ c are finite.
    got = eig_hermitian([[0.5, c], [c, 0.5]])
    assert np.isfinite(got).all()
    assert got.tolist() == [0.5 - c, 0.5 + c]
    lo, hi = _eigvals_stack(state_rows([[[0.5, c], [c, 0.5]]]))  # the stack kernel forms c alike
    assert (lo.tolist(), hi.tolist()) == ([0.5 - c], [0.5 + c])


def test_eig_of_a_coherence_beyond_the_float_range_is_infinite_not_nan():
    # The coherence sum overflows, and so does the radius hypot(1.5e308, 1.5e308) = 2.1e308.
    c = 1.5e308
    assert eig_hermitian([[c, c], [c, -c]]).tolist() == [-math.inf, math.inf]


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_sum_matches_trace(rng):
    for _ in range(75):
        a = random_symmetric(rng)
        assert abs(np.sum(eig_hermitian(a)) - np.trace(a)) <= 1e-12


def test_eig_invariant_under_givens_similarity(rng):
    for _ in range(75):
        levels = np.sort(rng.uniform(-2.0, 2.0, size=2))
        u = random_rotation(rng)
        rotated = u @ np.diag(levels) @ u.T
        assert np.max(np.abs(eig_hermitian(rotated) - levels)) <= 1e-10


def test_eig_matches_numpy_oracle(rng):
    # Independent oracle for the closed form, the only eigen path: numpy's eigvalsh.
    for _ in range(75):
        a = random_symmetric(rng)
        assert a[0, 1] != 0.0  # non-diagonal, so the quadratic branch runs
        assert np.max(np.abs(eig_hermitian(a) - np.linalg.eigvalsh(a))) <= 1e-12


def test_hermiticity_defect_and_offdiag():
    # The constructors' symmetry defect |a01 - a10|, and the coherence `verify` reads off a
    # state stack.
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: defect 2\.000e\+00 "):
        eig_hermitian([[0.0, 1.0], [-1.0, 0.0]])
    assert eig_hermitian(SIGMA_X).tolist() == [-1.0, 1.0]
    assert verify._offdiag(state_rows([np.diag([1.0, 2.0]), SIGMA_X])).tolist() == [0.0, 1.0]


entries = st.floats(-1e3, 1e3)
diagonal_states = st.tuples(entries, entries, st.sampled_from((0.0, -0.0)))
coherent_states = st.tuples(entries, entries, entries.filter(lambda c: c != 0))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(diagonal_states, max_size=12),
    st.lists(coherent_states, max_size=12),
    st.lists(diagonal_states | coherent_states, max_size=12),
))
def test_eigvals_stack_is_eig_pair_per_state(states):
    """Bit for bit on diagonal states, whatever else the stack holds; coherent ones can
    differ in the last bits (numpy's hypot is not math.hypot)."""
    stack = state_rows([[[p, c], [c, q]] for p, q, c in states])
    lo, hi = _eigvals_stack(stack)
    assert lo.shape == hi.shape == (len(states),)
    for i, (p, q, c) in enumerate(states):
        pair = _eig_pair(*stack[:, i].tolist())
        if c == 0:
            assert (lo[i], hi[i]) == pair
        else:
            scale = 4.0 * sys.float_info.epsilon * max(abs(p), abs(q), abs(c))
            assert abs(lo[i] - pair[0]) <= scale and abs(hi[i] - pair[1]) <= scale
