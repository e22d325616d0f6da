import numpy as np
import pytest

from ulpsim import linalg
from ulpsim.errors import ShapeError, SingularMatrixError


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestSolveHermitian:
    def test_identity_system(self):
        x = linalg.solve_hermitian(np.eye(2), np.array([[1.0], [2.0]]))
        assert np.allclose(x, [[1.0], [2.0]])

    def test_diagonal_scaling(self):
        x = linalg.solve_hermitian(2.0 * np.eye(2), np.eye(2))
        assert np.allclose(x, 0.5 * np.eye(2))

    def test_residual_random_gram(self):
        rng = np.random.default_rng(5)
        g = crandn(rng, 4, 4)
        a = g @ g.conj().T
        b = crandn(rng, 4, 2)
        x = linalg.solve_hermitian(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10

    def test_residual_bound_many_sizes(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            g = crandn(rng, n, n)
            a = g @ g.conj().T + 1e-3 * np.eye(n)
            b = crandn(rng, n, 1)
            ridge = float(rng.uniform(0, 1))
            x = linalg.solve_hermitian(a, b, ridge)
            m = a + ridge * np.eye(n)
            bound = 1e-10 * (np.linalg.norm(a) + ridge) * max(np.linalg.norm(x), 1.0)
            assert np.linalg.norm(m @ x - b) <= bound

    def test_singular_raises_with_pivot(self):
        with pytest.raises(SingularMatrixError, match="pivot"):
            linalg.solve_hermitian(np.zeros((3, 3)), np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            linalg.solve_hermitian(np.ones((2, 3)), np.eye(2))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_hermitian(np.eye(2), np.eye(2), ridge=-1.0)

    def test_indefinite_falls_back_to_lu(self):
        # Not PSD, but nonsingular: the LU fallback must still solve it.
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        x = linalg.solve_hermitian(a, np.eye(2))
        assert np.allclose(a @ x, np.eye(2), atol=1e-12)



class TestSolveHermitianStack:
    def test_matches_per_matrix_solves(self):
        rng = np.random.default_rng(7)
        g = crandn(rng, 2, 3, 8, 8)
        a = g @ g.conj().swapaxes(-1, -2)
        b = crandn(rng, 2, 3, 8, 16)
        for ridge in (0.0, 0.3):
            x = linalg.solve_hermitian(a, b, ridge)
            assert x.shape == b.shape
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(x[i, j], linalg.solve_hermitian(a[i, j], b[i, j], ridge))

    def test_indefinite_member_falls_back_alone(self):
        # Cholesky fails for the stack; each matrix is then tested alone.
        a = np.array([[[2.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
        x = linalg.solve_hermitian(a, np.broadcast_to(np.eye(2), (2, 2, 2)))
        assert np.allclose(a @ x, np.eye(2), atol=1e-12)

    def test_singular_member_raises_with_its_index(self):
        a = np.stack([np.eye(3), 2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)])
        with pytest.raises(SingularMatrixError, match="pivot") as info:
            linalg.solve_hermitian(a, np.ones((4, 3, 1)))
        assert info.value.index == 2

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linalg.solve_hermitian(np.ones((2, 3, 3)), np.ones((3, 3, 1)))
