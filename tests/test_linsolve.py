import numpy as np
import pytest
import scipy.sparse as sp

from morphopt.errors import (InvalidParameterError, MatrixNotSPDError,
                             SolverFailureError)
from morphopt.linsolve import eliminate_dirichlet_triplets, solve_spd


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


class TestSolveSPD:
    def test_identity_in_one_iteration(self):
        A = sp.eye(7, format="csr")
        b = np.arange(1.0, 8.0)
        iters = []
        x = solve_spd(A, b, callback=lambda it, r: iters.append(it))
        np.testing.assert_allclose(x, b, rtol=1e-14)
        assert len(iters) == 1

    def test_two_by_two_hand_solvable(self):
        A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x = solve_spd(A, np.array([1.0, 2.0]), tol=1e-14)
        np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)

    def test_against_dense_factorization_oracle(self):
        dense = random_spd(50, seed=2)
        rng = np.random.default_rng(3)
        b = rng.normal(size=50)
        x = solve_spd(sp.csr_matrix(dense), b, tol=1e-12)
        oracle = np.linalg.solve(dense, b)
        np.testing.assert_allclose(x, oracle, rtol=1e-9, atol=1e-12)

    def test_residual_contract(self):
        dense = random_spd(30, seed=5)
        b = np.ones(30)
        tol = 1e-10
        x = solve_spd(sp.csr_matrix(dense), b, tol=tol)
        assert np.linalg.norm(dense @ x - b) <= tol * np.linalg.norm(b)

    def test_variational_characterization(self):
        dense = random_spd(20, seed=8)
        A = sp.csr_matrix(dense)
        rng = np.random.default_rng(9)
        b = rng.normal(size=20)
        x = solve_spd(A, b, tol=1e-12)

        def energy(v):
            return 0.5 * v @ dense @ v - b @ v

        e0 = energy(x)
        for _ in range(100):
            assert e0 <= energy(x + 1e-3 * rng.normal(size=20)) + 1e-12

    def test_zero_rhs(self):
        A = sp.eye(4, format="csr")
        np.testing.assert_array_equal(solve_spd(A, np.zeros(4)), np.zeros(4))

    def test_indefinite_curvature_detected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(MatrixNotSPDError):
            solve_spd(A, np.array([1.0, -1.0]))

    def test_nonpositive_diagonal_detected(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(MatrixNotSPDError):
            solve_spd(A, np.ones(2))

    def test_nonconvergence_reports_residual(self):
        dense = random_spd(40, seed=13)
        A = sp.csr_matrix(dense)
        with pytest.raises(SolverFailureError) as err:
            solve_spd(A, np.ones(40), tol=1e-14, maxit=2)
        assert err.value.residual is not None and err.value.residual > 0

    def test_nonfinite_rhs_rejected(self):
        A = sp.eye(3, format="csr")
        with pytest.raises(InvalidParameterError):
            solve_spd(A, np.array([1.0, np.nan, 0.0]))

    def test_deterministic(self):
        dense = random_spd(25, seed=21)
        A = sp.csr_matrix(dense)
        b = np.linspace(-1, 1, 25)
        x1 = solve_spd(A, b)
        x2 = solve_spd(A, b)
        assert np.array_equal(x1, x2)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParameterError):
            solve_spd(sp.csr_matrix(np.ones((2, 3))), np.ones(2))


class TestDirichletElimination:
    def test_constrained_entries_bit_exact_zero(self):
        dense = random_spd(10, seed=4)
        coo = sp.coo_matrix(dense)
        rows, cols, vals = eliminate_dirichlet_triplets(
            coo.row, coo.col, coo.data, 10, np.array([2, 7]))
        A = sp.coo_matrix((vals, (rows, cols)), shape=(10, 10)).tocsr()
        b = np.ones(10)
        b[[2, 7]] = 0.0
        x = solve_spd(A, b, tol=1e-12)
        assert x[2] == 0.0 and x[7] == 0.0
        m = A.toarray()
        assert m[2, 2] == 1.0 and m[7, 7] == 1.0
        assert np.all(m[2, [0, 1, 3, 4, 5, 6, 8, 9]] == 0.0)
        assert np.all(m[[0, 1, 3, 4, 5, 6, 8, 9], 7] == 0.0)

