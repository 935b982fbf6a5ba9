import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from morphopt import elasticity
from morphopt.elasticity import (assemble_link_operator, assemble_stiffness,
                                 factorize, point_constraint_dofs, solve_state)
from morphopt.errors import (InvalidParameterError, MatrixNotSPDError,
                             SolverFailureError)
from morphopt.fields import DesignField, StimulusField
from morphopt.linsolve import (BlockCholesky, LevelBlocks, level_structure,
                               solve_spd)
from morphopt.materials import Material, PhaseSet
from morphopt.mesh import Mesh, build_hexagon_mesh, build_rect_mesh

PHASES = PhaseSet.build(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def desk_mesh():
    return build_rect_mesh(1.0, 1.0 / 3.0, 1.0 / 60.0, "left",
                           (14.0 / 15.0, 2.0 / 15.0, 1.0, 0.2))


def hexagon_mesh(orientation="odd", h=0.01):
    return build_hexagon_mesh(0.35, h, 0.035, orientation)


def dilation_pins(mesh):
    """The pin and the slider of the analytic dilation: single components."""
    i00 = int(np.argmin(np.sum(np.abs(mesh.nodes), axis=1)))
    i10 = int(np.argmin(np.sum(np.abs(mesh.nodes - [1.0, 0.0]), axis=1)))
    return point_constraint_dofs([(i00, 0), (i00, 1), (i10, 1)])


def random_design(n, seed):
    rng = np.random.default_rng(seed)
    rho2 = rng.uniform(0.0, 0.5, n)
    return DesignField(rho2, rng.uniform(0.0, 1.0, n) * (1.0 - rho2))


class IdentityFactor:
    """An unpreconditioned CG: a stand-in factor whose solve is the copy."""

    def solve(self, r):
        return r.copy()


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

    def test_true_residual_checked_when_recursion_converges(self):
        # unpreconditioned CG at condition number 1e3: the recursive
        # residual falls below 1e-15 ||b|| while the true one is ~15x above
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        dense = (q * np.logspace(0, 3, 10)) @ q.T
        A = sp.csr_matrix(0.5 * (dense + dense.T))
        b = rng.normal(size=10)
        target = 1e-15 * np.linalg.norm(b)
        seen = []
        try:
            x = solve_spd(A, b, tol=1e-15, maxit=100, factor=IdentityFactor(),
                          callback=lambda it, r: seen.append(r))
        except SolverFailureError:
            pass
        else:
            assert np.linalg.norm(A @ x - b) <= target
        assert min(seen) <= target

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
        # without the factorization the curvature p'Ap = -2 catches it
        with pytest.raises(MatrixNotSPDError):
            solve_spd(A, np.array([1.0, -1.0]), factor=IdentityFactor())

    def test_nonpositive_diagonal_detected(self):
        A = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(MatrixNotSPDError):
            solve_spd(A, np.ones(2))

    def test_nonconvergence_reports_residual(self):
        # a tolerance below the rounding floor is never met
        dense = random_spd(40, seed=13)
        A = sp.csr_matrix(dense)
        with pytest.raises(SolverFailureError) as err:
            solve_spd(A, np.ones(40), tol=1e-30, maxit=3)
        assert err.value.residual is not None and err.value.residual > 0
        assert err.value.iterations == 3

    def test_zero_iterations_fail_with_the_rhs_residual(self):
        b = np.ones(3)
        with pytest.raises(SolverFailureError) as err:
            solve_spd(sp.eye(3, format="csr"), b, maxit=0)
        assert err.value.residual == pytest.approx(np.sqrt(3.0))
        assert err.value.iterations == 0

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


def reference_operator(mesh, wmu, wlam, fixed_dofs):
    """The per-call assembly the operator maps replaced: the (M, 3, 2, 3, 2)
    element einsum, elimination of the constrained triplets and COO -> CSR."""
    G = mesh.grads
    gg = np.einsum("mad,mbd->mab", G, G)
    k_mu = (np.einsum("mab,xy->maxby", gg, np.eye(2))
            + np.einsum("may,mbx->maxby", G, G))
    k_lam = np.einsum("max,mby->maxby", G, G)
    ke = (wmu[:, None, None, None, None] * k_mu
          + wlam[:, None, None, None, None] * k_lam).reshape(-1, 6, 6)
    t = mesh.triangles
    edof = np.empty((mesh.n_triangles, 6), dtype=np.int64)
    edof[:, 0::2] = 2 * t
    edof[:, 1::2] = 2 * t + 1
    rows = np.repeat(edof, 6, axis=1).ravel()
    cols = np.tile(edof, (1, 6)).ravel()
    vals = ke.ravel()
    n = 2 * mesh.n_nodes
    fixed = np.zeros(n, dtype=bool)
    if fixed_dofs is not None:
        fixed[fixed_dofs] = True
    keep = ~(fixed[rows] | fixed[cols])
    rows = np.concatenate([rows[keep], np.flatnonzero(fixed)])
    cols = np.concatenate([cols[keep], np.flatnonzero(fixed)])
    vals = np.concatenate([vals[keep], np.ones(int(fixed.sum()))])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class TestDirichletElimination:
    def test_constrained_entries_bit_exact_zero(self):
        # the clamp plus one interior component
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left")
        fixed = np.union1d(mesh.dirichlet_dofs(), [7])
        K = assemble_stiffness(mesh, random_design(mesh.n_nodes, 4), PHASES,
                               fixed_dofs=fixed)
        free = np.setdiff1d(np.arange(K.shape[0]), fixed)
        b = np.ones(K.shape[0])
        b[fixed] = 0.0
        x = solve_spd(K, b, tol=1e-12)
        assert np.all(x[fixed] == 0.0)
        m = K.toarray()
        assert np.all(m[fixed, fixed] == 1.0)
        assert np.all(m[np.ix_(fixed, free)] == 0.0)
        assert np.all(m[np.ix_(free, fixed)] == 0.0)

    @pytest.mark.parametrize("make_mesh, constrain", [
        pytest.param(desk_mesh, Mesh.dirichlet_dofs, id="desk_mesh"),
        pytest.param(hexagon_mesh, Mesh.dirichlet_dofs, id="hexagon_mesh"),
        pytest.param(lambda: build_rect_mesh(1.0, 1.0, 0.1, "left", None),
                     dilation_pins, id="dilation_pins"),
        pytest.param(desk_mesh, lambda mesh: None, id="no_fixed_dofs")])
    def test_operator_maps_match_reference_assembly(self, make_mesh, constrain,
                                                    monkeypatch):
        # stiffness and link operator both pass through _assemble_isotropic
        mesh = make_mesh()
        inner = elasticity._assemble_isotropic
        calls = []

        def recorded(mesh, wmu, wlam, fixed_dofs):
            K = inner(mesh, wmu, wlam, fixed_dofs)
            calls.append((K, reference_operator(mesh, wmu, wlam, fixed_dofs),
                          fixed_dofs))
            return K
        monkeypatch.setattr(elasticity, "_assemble_isotropic", recorded)
        design = random_design(mesh.n_nodes, 1)
        assemble_stiffness(mesh, design, PHASES, constrain(mesh))
        assemble_link_operator(mesh, design)
        assert len(calls) == 2
        for K, ref, fixed in calls:
            fixed = np.asarray([] if fixed is None else fixed, dtype=np.int64)
            assert K.nnz == ref.nnz
            assert np.array_equal(K.indptr, ref.indptr)
            assert np.array_equal(K.indices, ref.indices)
            assert (np.max(np.abs(K.data - ref.data))
                    <= 1e-15 * np.max(np.abs(ref.data)))
            rows = K[fixed]
            assert np.array_equal(rows.indices, fixed)
            assert np.all(rows.data == 1.0)


def assert_block_tridiagonal(K, blocks):
    n = K.shape[0]
    assert np.array_equal(np.sort(blocks.order), np.arange(n))
    level = np.empty(n, dtype=np.int64)
    level[blocks.order] = np.repeat(np.arange(len(blocks.level_ptr) - 1),
                                    np.diff(blocks.level_ptr))
    coo = K.tocoo()
    assert np.max(np.abs(level[coo.row] - level[coo.col])) <= 1


def assert_factor_solves(mesh, K, fixed, seed):
    b = np.random.default_rng(seed).normal(size=K.shape[0])
    b[fixed] = 0.0
    x = factorize(mesh, K, fixed).solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-11 * np.linalg.norm(b)


class TestLevelOrdering:
    @pytest.mark.parametrize("make_mesh", [
        desk_mesh, lambda: hexagon_mesh("odd"), lambda: hexagon_mesh("even")],
        ids=["desk", "hexagon-odd", "hexagon-even"])
    def test_operator_is_block_tridiagonal(self, make_mesh):
        mesh = make_mesh()
        fixed = mesh.dirichlet_dofs()
        K = assemble_stiffness(mesh, random_design(mesh.n_nodes, 2), PHASES,
                               fixed)
        blocks = elasticity._operator_map(mesh, fixed).blocks
        assert_block_tridiagonal(K, blocks)
        assert_factor_solves(mesh, K, fixed, seed=3)

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(st.integers(2, 14), st.sampled_from(["odd", "even"]),
           st.integers(0, 2 ** 16))
    def test_random_hexagons_block_tridiagonal(self, m, orientation, seed):
        mesh = build_hexagon_mesh(0.35, 0.35 / m, 0.2, orientation)
        fixed = mesh.dirichlet_dofs()
        K = assemble_stiffness(mesh, random_design(mesh.n_nodes, seed),
                               PHASES, fixed)
        assert_block_tridiagonal(K, elasticity._operator_map(mesh, fixed).blocks)
        assert_factor_solves(mesh, K, fixed, seed)

    def test_orientations_do_not_share_maps(self):
        # the two clamps give the same pattern size but other fixed rows
        odd, even = hexagon_mesh("odd"), hexagon_mesh("even")
        design = random_design(odd.n_nodes, 5)
        K = assemble_stiffness(odd, design, PHASES, odd.dirichlet_dofs())
        K_even = assemble_stiffness(even, design, PHASES, even.dirichlet_dofs())
        assert not np.array_equal(K.indices, K_even.indices)
        assert_factor_solves(odd, K, odd.dirichlet_dofs(), seed=6)
        assert_factor_solves(even, K_even, even.dirichlet_dofs(), seed=6)

    def test_components_get_their_own_levels(self):
        # two disjoint paths 0-1-2 and 3-4
        A = sp.csr_matrix(np.array([
            [2, 1, 0, 0, 0], [1, 2, 1, 0, 0], [0, 1, 2, 0, 0],
            [0, 0, 0, 2, 1], [0, 0, 0, 1, 2]], dtype=float))
        order, level_ptr = level_structure(A.indptr, A.indices)
        assert list(np.diff(level_ptr)) == [1, 1, 1, 1, 1]
        assert sorted(order) == [0, 1, 2, 3, 4]
        assert order[1] == 1                      # peripheral root: 0 or 2

    def test_non_adjacent_coupling_rejected(self):
        A = sp.csr_matrix(random_spd(3, seed=1))
        with pytest.raises(InvalidParameterError):
            LevelBlocks(A.indptr, A.indices, np.arange(3), np.arange(4))

    def test_blocks_of_another_pattern_rejected(self):
        blocks = LevelBlocks.of_matrix(sp.eye(3, format="csr"))
        with pytest.raises(InvalidParameterError):
            BlockCholesky(sp.csr_matrix(random_spd(3, seed=2)), blocks)


class TestIndefiniteOperator:
    @pytest.mark.parametrize("make_mesh", [desk_mesh, hexagon_mesh])
    def test_indefinite_at_one_dof_rejected(self, make_mesh):
        mesh = make_mesh()
        fixed = mesh.dirichlet_dofs()
        K = assemble_stiffness(mesh, random_design(mesh.n_nodes, 7), PHASES,
                               fixed)
        dof = np.setdiff1d(np.arange(K.shape[0]), fixed)[K.shape[0] // 3]
        K[dof, dof] = -K[dof, dof]
        with pytest.raises(MatrixNotSPDError):
            factorize(mesh, K, fixed)
        with pytest.raises(MatrixNotSPDError):
            solve_state(mesh, random_design(mesh.n_nodes, 7), PHASES,
                        StimulusField(np.ones((1, mesh.n_nodes))),
                        operator=K)
