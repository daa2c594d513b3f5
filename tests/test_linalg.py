import numpy as np
import pytest

from measengine.linalg import (
    adjoint,
    as_square_matrix,
    eig_hermitian,
    hermiticity_defect,
    matmul,
    max_offdiag,
    trace,
)
from support import NON_FINITE, random_givens_unitary, random_hermitian, with_entry

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def test_matmul_identity_leaves_input(rng):
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(matmul(EYE2, x), x)


def test_matmul_diagonal_algebra():
    out = matmul(np.diag([2.0, 3.0]).astype(complex), np.diag([5.0, 7.0]).astype(complex))
    assert np.array_equal(out, np.diag([10.0, 21.0]))


def test_matmul_pauli_involution():
    assert np.array_equal(matmul(SIGMA_Z, SIGMA_Z), EYE2)


def test_matmul_dimension_mismatch():
    # Only qubit operators pass the boundary; a 3x3 factor is refused.
    with pytest.raises(ValueError, match="2x2"):
        matmul(EYE2, np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="2x2"):
        as_square_matrix(np.eye(3, dtype=complex))


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
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            check(with_entry(EYE2, i, j, bad))


def test_adjoint_examples():
    real_diag = np.diag([1.0, 2.0]).astype(complex)
    assert np.array_equal(adjoint(real_diag), real_diag)
    raising = np.array([[0, 1], [0, 0]], dtype=complex)
    lowering = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.array_equal(adjoint(raising), lowering)
    assert np.array_equal(adjoint(1j * EYE2), -1j * EYE2)


def test_adjoint_is_involution(rng):
    for _ in range(80):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.array_equal(adjoint(adjoint(x)), x)


def test_trace_examples():
    assert trace(EYE2) == 2.0
    assert trace(SIGMA_Z) == 0.0
    assert trace(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)) == pytest.approx(1.0, abs=1e-15)


def test_trace_is_cyclic(rng):
    for _ in range(60):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(trace(matmul(a, b)) - trace(matmul(b, a))) <= 1e-13


def test_eig_examples():
    assert np.allclose(eig_hermitian(EYE2), [1.0, 1.0])
    assert np.allclose(eig_hermitian(SIGMA_X), [-1.0, 1.0])
    got = eig_hermitian(np.diag([5.0 / 12.0, 7.0 / 12.0]).astype(complex))
    assert np.array_equal(got, [5.0 / 12.0, 7.0 / 12.0])


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_sum_matches_trace(rng):
    for _ in range(75):
        a = random_hermitian(rng)
        assert abs(np.sum(eig_hermitian(a)) - trace(a).real) <= 1e-12


def test_eig_invariant_under_givens_similarity(rng):
    for _ in range(75):
        levels = np.sort(rng.uniform(-2.0, 2.0, size=2))
        u = random_givens_unitary(rng)
        rotated = u @ np.diag(levels).astype(complex) @ u.conj().T
        assert np.max(np.abs(eig_hermitian(rotated) - levels)) <= 1e-10


def test_eig_matches_numpy_oracle(rng):
    # Independent oracle for the closed form, the only eigen path: numpy's eigvalsh.
    for _ in range(75):
        a = random_hermitian(rng)
        assert a[0, 1] != 0.0  # non-diagonal, so the quadratic branch runs
        assert np.max(np.abs(eig_hermitian(a) - np.linalg.eigvalsh(a))) <= 1e-12


def test_hermiticity_defect_and_offdiag():
    assert hermiticity_defect(SIGMA_X) == 0.0
    assert max_offdiag(np.diag([1.0, 2.0]).astype(complex)) == 0.0
    assert max_offdiag(SIGMA_X) == 1.0
