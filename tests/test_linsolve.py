import multiprocessing
import os
import pickle
import threading
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from morphopt import config, elasticity, linsolve
from morphopt.elasticity import (assemble_link_operator, assemble_stiffness,
                                 factorize, point_constraint_dofs,
                                 solve_adjoint, solve_state,
                                 target_mass_apply)
from morphopt.errors import (InvalidParameterError, MatrixNotSPDError,
                             SolverFailureError)
from morphopt.fields import DesignField, StimulusField
from morphopt.linsolve import (SOLVER_TOL, BlockCholesky, LevelBlocks,
                               level_structure, solve_spd)
from morphopt.materials import Material, PhaseSet
from morphopt.mesh import Mesh, build_hexagon_mesh, build_rect_mesh

PHASES = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))


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


def certified(A, x, b):
    """Whether every column of x meets solve_spd's backward-error test
    for the CSR matrix A."""
    X, B = x.reshape(len(b), -1), b.reshape(len(b), -1)
    anorm = abs(A).sum(axis=1).max()
    return bool(np.all(np.linalg.norm(B - A @ X, axis=0) <= SOLVER_TOL * (
        anorm * np.linalg.norm(X, axis=0) + np.linalg.norm(B, axis=0))))


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
        x = solve_spd(A, np.array([1.0, 2.0]))
        np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)

    def test_against_dense_factorization_oracle(self):
        dense = random_spd(50, seed=2)
        rng = np.random.default_rng(3)
        b = rng.normal(size=50)
        x = solve_spd(sp.csr_matrix(dense), b)
        oracle = np.linalg.solve(dense, b)
        np.testing.assert_allclose(x, oracle, rtol=1e-9, atol=1e-12)

    def test_residual_contract(self):
        A = sp.csr_matrix(random_spd(30, seed=5))
        b = np.ones(30)
        factor = BlockCholesky(A)
        assert factor.anorm == pytest.approx(
            np.abs(A.toarray()).sum(axis=1).max(), rel=1e-14)
        assert certified(A, solve_spd(A, b, factor=factor), b)

    def test_variational_characterization(self):
        dense = random_spd(20, seed=8)
        A = sp.csr_matrix(dense)
        rng = np.random.default_rng(9)
        b = rng.normal(size=20)
        x = solve_spd(A, b)

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

    def test_uncertified_answer_reports_its_residual(self):
        # the factor of 2 A answers x / 2: its residual b / 2 fails the
        # certificate, and a zero b still returns zero before the factor
        A = sp.csr_matrix(random_spd(20, seed=13))
        b = np.random.default_rng(15).normal(size=20)
        with pytest.raises(SolverFailureError) as err:
            solve_spd(A, b, factor=BlockCholesky(2.0 * A))
        assert err.value.residual == pytest.approx(0.5 * np.linalg.norm(b),
                                                   rel=1e-12)
        assert not hasattr(err.value, "iterations")
        x = solve_spd(A, np.zeros(20), factor=BlockCholesky(2.0 * A))
        assert np.all(x == 0.0)

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

    @pytest.mark.parametrize("form", ["coo", "csr_duplicates", "lil", "dok"])
    def test_sparse_formats_are_factored_in_canonical_form(self, form):
        # entries out of CSR order, duplicates (halves summing to the
        # entry exactly) and the other formats factor like the CSR itself
        A = sp.csr_matrix(random_spd(30, seed=31))
        if form == "coo":
            coo = A.tocoo()
            perm = np.random.default_rng(32).permutation(coo.nnz)
            M = sp.coo_matrix((coo.data[perm], (coo.row[perm], coo.col[perm])),
                              shape=A.shape)
        elif form == "csr_duplicates":
            M = sp.csr_matrix((np.repeat(0.5 * A.data, 2),
                               np.repeat(A.indices, 2), 2 * A.indptr),
                              shape=A.shape)
        else:
            M = A.asformat(form)
        before = pickle.dumps(M)
        b = np.random.default_rng(33).normal(size=30)
        assert np.array_equal(BlockCholesky(M).solve(b),
                              BlockCholesky(A).solve(b))
        seen = []
        x = solve_spd(M, b, callback=lambda it, r: seen.append(it))
        assert seen == [0]
        assert certified(A, x, b)
        assert pickle.dumps(M) == before


def spectral_spd(n, seed):
    """An SPD matrix with eigenvalues 1..100 and its eigenvectors."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    dense = (q * np.linspace(1.0, 100.0, n)) @ q.T
    return sp.csr_matrix(0.5 * (dense + dense.T)), q


def hexagon_system(seed, k):
    """The clamped hexagon operator, its factor and k random loads."""
    return clamped_system(hexagon_mesh(), seed, k)


def clamped_system(mesh, seed, k):
    """The clamped operator of ``mesh``, its factor and k random loads."""
    fixed = mesh.dirichlet_dofs()
    K = assemble_stiffness(mesh, random_design(mesh.n_nodes, seed), PHASES,
                           fixed)
    B = np.random.default_rng(seed).normal(size=(K.shape[0], k))
    B[fixed] = 0.0
    return K, factorize(mesh, K, fixed), B


class TestBlockedSolve:
    """b of shape (n, k): one solve whose columns share one factor sweep."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(2, 40), st.floats(0.0, 4.0), st.integers(0, 2 ** 16))
    def test_one_column_equals_reference(self, n, decades, seed):
        # at condition numbers up to 1e4 the certified answer is the
        # factor's own, to the bit, with the true residual's norm
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        dense = (q * np.logspace(0, decades, n)) @ q.T
        A = sp.csr_matrix(0.5 * (dense + dense.T))
        b = rng.normal(size=n)
        factor = BlockCholesky(A)
        seen = []
        x = solve_spd(A, b, factor=factor,
                      callback=lambda it, r: seen.append((it, r)))
        assert np.array_equal(x, factor.solve(b))
        assert seen == [(0, float(np.sqrt(np.sum((b - A @ x) ** 2))))]

    def test_columns_agree_with_single_solves(self):
        K, factor, B = hexagon_system(seed=11, k=3)
        B[:, 1] *= 1e-6                       # columns of unequal scale
        X = solve_spd(K, B, factor=factor)
        assert X.shape == B.shape
        for j in range(3):
            x = solve_spd(K, B[:, j], factor=factor)
            assert (np.linalg.norm(X[:, j] - x)
                    <= 1e-14 * np.linalg.norm(x))
        assert certified(K, X, B)

    def test_one_column_is_the_vector_solve(self):
        K, factor, B = hexagon_system(seed=12, k=1)
        x = solve_spd(K, B[:, 0], factor=factor)
        assert x.shape == (K.shape[0],)
        assert np.array_equal(solve_spd(K, B, factor=factor)[:, 0], x)
        assert np.array_equal(factor.solve(B)[:, 0], factor.solve(B[:, 0]))

    def test_zero_column_is_exact_zero(self):
        K, factor, B = hexagon_system(seed=13, k=3)
        B[:, 1] = 0.0
        X = solve_spd(K, B, factor=factor)
        assert np.all(X[:, 1] == 0.0)
        assert certified(K, X[:, [0, 2]], B[:, [0, 2]])
        assert np.all(solve_spd(K, np.zeros((K.shape[0], 2))) == 0.0)

    def test_callback_sees_the_largest_column_residual(self):
        K, factor, B = hexagon_system(seed=14, k=3)
        B[:, 0] *= 1e3
        seen = []
        X = solve_spd(K, B, factor=factor,
                      callback=lambda it, r: seen.append((it, r)))
        rnorm = np.linalg.norm(B - K @ X, axis=0)
        assert np.argmax(rnorm) == 0
        assert len(seen) == 1 and seen[0][0] == 0
        assert type(seen[0][1]) is float
        assert seen[0][1] == pytest.approx(rnorm.max(), rel=1e-12)

    def test_indefinite_factor_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        B = np.array([[1.0, 1.0, 2.0], [1.0, -1.0, 0.0]])
        with pytest.raises(MatrixNotSPDError):
            solve_spd(A, B)

    def test_uncertified_answer_reports_the_largest_column_residual(self):
        # the factor of 2 A answers A^{-1} b / 2, whose residual b / 2 no
        # rounding explains
        A = sp.csr_matrix(random_spd(30, seed=13))
        B = np.random.default_rng(14).normal(size=(30, 3)) * [1.0, 5.0, 0.1]
        with pytest.raises(SolverFailureError) as err:
            solve_spd(A, B, factor=BlockCholesky(2.0 * A))
        X = BlockCholesky(2.0 * A).solve(B)
        rnorm = np.linalg.norm(B - A @ X, axis=0)
        assert np.argmax(rnorm) == 1
        assert err.value.residual == pytest.approx(rnorm[1], rel=1e-12)
        assert err.value.residual == pytest.approx(
            0.5 * np.linalg.norm(B[:, 1]), rel=1e-12)

    @pytest.mark.parametrize("shape", [(4,), (10,), (6, 2), (5, 2, 1), ()])
    def test_misshapen_rhs_rejected(self, shape):
        # a 1-D b of length 2n is not read as two columns
        with pytest.raises(InvalidParameterError):
            solve_spd(sp.eye(5, format="csr"), np.ones(shape))


class TestVoidHeavyDesigns:
    """A target load small against the displacement it produces: the
    residual's rounding floor, about eps ||A|| ||x||, lies above 1e-10 ||b||,
    yet the factor's answer has a backward error near eps / 10."""

    @pytest.mark.parametrize("design", [
        # passive strip rho2 = 0.5 on |y - ly / 2| < 0.03 in void
        lambda x, y: (np.where(np.abs(y - y.max() / 2) < 0.03, 0.5, 0.0),
                      np.zeros_like(y)),
        # responsive bump of amplitude 0.6 at (0.5, 1/6) in void
        lambda x, y: (np.zeros_like(y), 0.6 * np.exp(
            -((x - 0.5) ** 2 + (y - 1.0 / 6.0) ** 2) / 0.02))],
        ids=["strip", "bump"])
    def test_desk_target_load_certifies(self, design):
        spec = config.load_shipped_config("cantilever_desk_staggered")
        mesh = spec.build_mesh()
        fixed = mesh.dirichlet_dofs()
        K = assemble_stiffness(mesh, DesignField(*design(*mesh.nodes.T)),
                               spec.phases, fixed)
        unit_y = np.tile([0.0, 1.0], (mesh.n_nodes, 1))
        f = target_mass_apply(mesh, unit_y).ravel()
        f[fixed] = 0.0
        seen = []
        x = solve_spd(K, f, factor=factorize(mesh, K, fixed),
                      callback=lambda it, r: seen.append(it))
        assert seen == [0] and certified(K, x, f)
        assert np.linalg.norm(f - K @ x) > 1e-10 * np.linalg.norm(f)


class TestOneSweepForAllCases:
    def test_state_and_adjoint_sweep_once_per_iteration(self, monkeypatch):
        # three load cases: one solve per solve_state / solve_adjoint call,
        # one factor sweep for all three columns
        mesh = hexagon_mesh()
        n = mesh.n_nodes
        rng = np.random.default_rng(21)
        design = random_design(n, 21)
        stimulus = StimulusField(rng.uniform(-1.0, 1.0, (3, n)))
        targets = rng.normal(size=(3, 2)) * 0.01
        sweeps, calls, iterations = [], [], []
        inner_solve = BlockCholesky.solve
        inner_spd = elasticity.solve_spd

        def counted_solve(self, b):
            sweeps.append(b.shape)
            return inner_solve(self, b)

        def counted_spd(*args, **kwargs):
            calls.append(1)
            return inner_spd(*args, **kwargs,
                             callback=lambda it, r: iterations.append(it))
        monkeypatch.setattr(BlockCholesky, "solve", counted_solve)
        monkeypatch.setattr(elasticity, "solve_spd", counted_spd)
        state = solve_state(mesh, design, PHASES, stimulus)
        solve_adjoint(mesh, state, targets)
        assert len(calls) == 2
        assert len(sweeps) == len(iterations) >= 2
        assert sweeps[0] == (2 * n, 3)


class CountedOperator:
    """An operator whose products with a vector or a block are counted."""

    def __init__(self, A):
        self.A, self.shape, self.products = A, A.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


def reference_sweep(factor, A, b):
    """The lockstep sweep rebuilt from A's lower triangle and the steps of
    ``factor.blocks``: each coupling step gathers (entries, k) rows of u,
    multiplies them by the values broadcast over k and bincounts the
    ravelled products, the entries of a step's levels in the order of its
    levels and of their outer levels, each block's in CSR order; each step
    then takes one product with its levels' S_i^{-1} stacked.  Backward,
    each level bincounts the terms from its inner level on its own: the
    oracle of BlockCholesky.solve."""
    blocks = factor.blocks
    k = 1 if b.ndim == 1 else b.shape[1]
    ptr, m, outer = blocks.level_ptr, blocks.twist, blocks.outer
    level = np.empty(blocks.n, dtype=np.int64)
    level[blocks.order] = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    local = np.empty(blocks.n, dtype=np.int64)
    local[blocks.order] = np.arange(blocks.n) - ptr[level[blocks.order]]
    rows = np.repeat(np.arange(blocks.n), np.diff(A.indptr))
    lane = np.arange(k)

    def entries(i, j):
        # C_ij as (rows of level i, columns of level j, values)
        hi, lo = max(i, j), min(i, j)
        sel = (level[rows] == hi) & (level[A.indices] == lo)
        r, c = local[rows[sel]], local[A.indices[sel]]
        return (r, c, A.data[sel]) if i > j else (c, r, A.data[sel])

    def bincount(pairs, length):
        # sum of C_ij u_j over (i's row offset, i, j) in order
        targets, terms = [], []
        for offset, i, j in pairs:
            r, c, vals = entries(i, j)
            targets.append(((offset + r)[:, None] * k + lane).ravel())
            terms.append((vals[:, None] * u[j][c]).ravel())
        return np.bincount(np.concatenate(targets), np.concatenate(terms),
                           minlength=length * k).reshape(-1, k)

    def stacked(step, r):
        n = len(factor.sinv[step[0]])
        S = np.stack([factor.sinv[i] for i in step])
        return (S @ r.reshape(len(step), n, k)).reshape(-1, k)

    B = b.reshape(-1, k)
    u = {}
    for step in blocks.steps:
        sizes = [ptr[i + 1] - ptr[i] for i in step]
        offsets = np.cumsum([0] + sizes)
        r = np.concatenate([B[blocks.order[ptr[i]:ptr[i + 1]]] for i in step])
        pairs = [(o, i, j) for o, i in zip(offsets, step) for j in outer[i]]
        if pairs:
            r = r - bincount(pairs, offsets[-1])
        x = stacked(step, r)
        for o, n, i in zip(offsets, sizes, step):
            u[i] = x[o:o + n]
    for step in blocks.steps[-2::-1]:
        v = np.concatenate([bincount([(0, i, i + 1 if i < m else i - 1)],
                                     ptr[i + 1] - ptr[i]) for i in step])
        x = np.concatenate([u[i] for i in step]) - stacked(step, v)
        o = 0
        for i in step:
            u[i] = x[o:o + len(u[i])]
            o += len(u[i])
    x = np.empty_like(B)
    for i in range(len(ptr) - 1):
        x[blocks.order[ptr[i]:ptr[i + 1]]] = u[i]
    return x.reshape(b.shape)


SYSTEMS = {"desk": desk_mesh, "hexagon": hexagon_mesh}


class TestOneSweepPerCertifiedSolve:
    """The factor's answer is certified: one sweep, one product with A."""

    @pytest.mark.parametrize("name, k", [("hexagon", 3), ("desk", 1)])
    def test_one_sweep_and_one_product(self, name, k, monkeypatch):
        K, factor, B = clamped_system(SYSTEMS[name](), 17, k)
        sweeps, seen = [], []
        inner = BlockCholesky.solve

        def counted(self, b):
            sweeps.append(b.shape)
            return inner(self, b)
        monkeypatch.setattr(BlockCholesky, "solve", counted)
        A = CountedOperator(K)
        X = solve_spd(A, B if k > 1 else B[:, 0], factor=factor,
                      callback=lambda it, r: seen.append(it))
        assert sweeps == [(K.shape[0], k)]
        assert A.products == 1 and seen == [0]
        assert certified(K, X, B)

    @pytest.mark.parametrize("name", ["desk", "hexagon"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_sweep_equals_reference_bytewise(self, name, k):
        K, factor, B = clamped_system(SYSTEMS[name](), 19, 3)
        b = B[:, 0] if k == 1 else B
        assert np.array_equal(factor.solve(b), reference_sweep(factor, K, b))

    @pytest.mark.parametrize("name, pairs, steps", [("desk", 30, 60),
                                                    ("hexagon", 35, 70)])
    def test_one_coupling_step_per_step_and_pass(self, name, pairs, steps,
                                                 monkeypatch):
        # every level pair is of one size: the pairs, then the twist
        _, factor, B = clamped_system(SYSTEMS[name](), 23, 3)
        assert factor.blocks.steps[-1] == (factor.blocks.twist,)
        assert [len(step) for step in factor.blocks.steps] == [2] * pairs + [1]
        calls = []
        bincount = np.bincount

        def counted(*args, **kwargs):
            calls.append(1)
            return bincount(*args, **kwargs)
        monkeypatch.setattr(np, "bincount", counted)
        factor.solve(B)
        assert len(calls) == steps

    @pytest.mark.parametrize("n", [2562, 7562])
    def test_column_dots_are_one_column_sums(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, n, 3))
        got = linsolve._dots(a, b)
        for j in range(3):
            assert got[j] == np.sum(a[:, j] * b[:, j])


def block_tridiagonal_spd(sizes, seed):
    """A random sparse SPD matrix, diagonally dominant, whose pattern
    couples only unknowns of equal or adjacent levels of ``sizes``
    consecutive unknowns."""
    rng = np.random.default_rng(seed)
    level = np.repeat(np.arange(len(sizes)), sizes)
    n = len(level)
    near = np.abs(level[:, None] - level[None, :]) <= 1
    m = np.where(near & (rng.uniform(size=(n, n)) < 0.2),
                 rng.normal(size=(n, n)), 0.0)
    m = m + m.T
    m += np.diag(np.abs(m).sum(axis=1) + 1.0)
    return sp.csr_matrix(m)


class TestKeptInverses:
    def test_each_block_is_its_schur_complement_inverse(self):
        # levels above 48 rows, which _lower_inverse halves, on both sides
        # of the twist and at its neighbours; levels up to 48 rows, its base
        # case, at both ends
        sizes = [6, 50, 60, 4, 55, 9]
        A = block_tridiagonal_spd(sizes, seed=5)
        ptr = np.concatenate([[0], np.cumsum(sizes)])
        blocks = LevelBlocks(A.indptr, A.indices, np.arange(ptr[-1]), ptr)
        factor = BlockCholesky(A, blocks)
        m, dense = blocks.twist, A.toarray()
        assert max(sizes[:m]) > 48 and max(sizes[m + 1:]) > 48
        for i, (a, b) in enumerate(zip(ptr[:-1], ptr[1:])):
            # S_i^{-1} is level i's block of the inverse of the levels
            # eliminated into it: those before it, after it, or all
            lo, hi = (0 if i <= m else a), (b if i < m else ptr[-1])
            inverse = np.linalg.inv(dense[lo:hi, lo:hi])
            ref = inverse[a - lo:b - lo, a - lo:b - lo]
            kept = factor.sinv[i]
            assert np.array_equal(kept, kept.T)
            np.testing.assert_allclose(kept, ref, rtol=0,
                                       atol=1e-14 * np.abs(ref).max())


class TestRaggedSteps:
    """Level structures whose chains do not pair up level for level."""

    @pytest.mark.parametrize("sizes, steps", [
        # no pair of one size; the upper chain has level 2 spare
        ([6, 50, 60, 4, 55, 9], [(0,), (5,), (1,), (4,), (2,), (3,)]),
        # three pairs of one size; the lower chain has level 4 spare, so the
        # twist's sources 2 and 4 enclose level 5, as at h = 2e-3
        ([4, 6, 8, 10, 10, 8, 6, 4], [(0, 7), (1, 6), (2, 5), (4,), (3,)]),
        # the lower chain has levels 4 and 3 spare, outermost first
        ([80, 6, 6, 6, 6, 6, 6], [(0,), (6,), (1, 5), (4,), (3,), (2,)])],
        ids=["unequal-pairs", "lower-chain-longer", "two-spare-levels"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_ragged_structure_solves(self, sizes, steps, k):
        A = block_tridiagonal_spd(sizes, seed=7)
        ptr = np.concatenate([[0], np.cumsum(sizes)])
        blocks = LevelBlocks(A.indptr, A.indices, np.arange(ptr[-1]), ptr)
        assert blocks.steps == steps
        factor = BlockCholesky(A, blocks)
        b = np.random.default_rng(k).normal(size=(ptr[-1], k))
        b = b[:, 0] if k == 1 else b
        x = factor.solve(b)
        dense = np.linalg.solve(A.toarray(), b)
        assert np.max(np.abs(x - dense)) <= 1e-14 * np.max(np.abs(dense))
        assert np.array_equal(x, reference_sweep(factor, A, b))


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
        x = solve_spd(K, b)
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
        pytest.param(desk_mesh, lambda mesh: [], id="no_fixed_dofs")])
    def test_operator_maps_match_reference_assembly(self, make_mesh, constrain,
                                                    monkeypatch):
        # stiffness and link operator both pass through _OperatorMap.assemble
        mesh = make_mesh()
        inner = elasticity._OperatorMap.assemble
        calls = []

        def recorded(operator_map, wmu, wlam):
            K = inner(operator_map, wmu, wlam)
            # the fixed dofs the map was built for, from its Mesh.cache key
            fixed_dofs = next(np.frombuffer(key[1], dtype=np.int64)
                              for key, value in mesh.cache.items()
                              if value is operator_map)
            calls.append((K, reference_operator(mesh, wmu, wlam, fixed_dofs),
                          fixed_dofs))
            return K
        monkeypatch.setattr(elasticity._OperatorMap, "assemble", recorded)
        design = random_design(mesh.n_nodes, 1)
        assemble_stiffness(mesh, design, PHASES, constrain(mesh))
        assemble_link_operator(mesh, design)
        assert len(calls) == 2
        for K, ref, fixed in calls:
            fixed = np.asarray(fixed, dtype=np.int64)
            assert K.nnz == ref.nnz
            assert np.array_equal(K.indptr, ref.indptr)
            assert np.array_equal(K.indices, ref.indices)
            assert (np.max(np.abs(K.data - ref.data))
                    <= 1e-15 * np.max(np.abs(ref.data)))
            rows = K[fixed]
            assert np.array_equal(rows.indices, fixed)
            assert np.all(rows.data == 1.0)


def jittered_mesh():
    """A clamped rect mesh whose nodes are moved at random, so no two
    triangles share a gradient set."""
    mesh = build_rect_mesh(1.0, 0.5, 0.05, "left", None)
    nodes = mesh.nodes + np.random.default_rng(8).uniform(
        -0.01, 0.01, mesh.nodes.shape)
    return Mesh(nodes, mesh.triangles, mesh.dirichlet_nodes,
                mesh.target_elements, mesh.cell_size)


def per_triangle_data(operator_map, mesh, wmu, wlam):
    """K.data as per-triangle matrices form it: S_mu @ wmu + S_lam @ wlam,
    column m of S_mu (S_lam) the unit-mu (unit-lambda) entries of triangle
    m at their slots, then 1 on the fixed diagonal."""
    G, m = mesh.grads, mesh.n_triangles
    emu, elam = np.empty((m, 36)), np.empty((m, 36))
    for a in range(3):
        for b in range(3):
            gg = G[:, a, 0] * G[:, b, 0] + G[:, a, 1] * G[:, b, 1]
            for xa in range(2):
                for yb in range(2):
                    e = (2 * a + xa) * 6 + 2 * b + yb
                    emu[:, e] = (G[:, a, yb] * G[:, b, xa]
                                 + (gg if xa == yb else 0.0))
                    elam[:, e] = G[:, a, xa] * G[:, b, yb]
    col_ptr = np.arange(0, 36 * m + 1, 36, dtype=np.int32)
    S_mu, S_lam = (sp.csc_matrix((vals.ravel(), operator_map.eslot, col_ptr),
                                 shape=(len(operator_map.indices) + 1, m))
                   for vals in (emu, elam))
    data = (S_mu @ wmu + S_lam @ wlam)[:-1]
    data[operator_map.fixed_slots] = 1.0
    return data


def float_bytes(obj):
    """Bytes of the float arrays held by ``obj`` and its attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.dtype.kind == "f" else 0
    if isinstance(obj, (list, tuple)):
        return sum(float_bytes(v) for v in obj)
    return sum(float_bytes(v) for v in getattr(obj, "__dict__", {}).values())


class TestElementShapes:
    @pytest.mark.parametrize("make_mesh, shapes", [
        pytest.param(desk_mesh, 70, id="desk_mesh"),
        pytest.param(jittered_mesh, None, id="jittered_mesh")])
    def test_assembly_equals_per_triangle_maps(self, make_mesh, shapes):
        mesh = make_mesh()
        fixed = mesh.dirichlet_dofs()
        operator_map = elasticity._operator_map(mesh, fixed)
        assert operator_map.tables.shape[1] == (shapes or mesh.n_triangles)
        rng = np.random.default_rng(4)
        wmu, wlam = rng.uniform(0.01, 2.0, (2, mesh.n_triangles))
        K = operator_map.assemble(wmu, wlam)
        ref = per_triangle_data(operator_map, mesh, wmu, wlam)
        assert K.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("make_mesh", [desk_mesh, hexagon_mesh])
    def test_map_keeps_no_per_triangle_floats(self, make_mesh):
        mesh = make_mesh()
        operator_map = elasticity._operator_map(mesh, mesh.dirichlet_dofs())
        shapes = operator_map.tables.shape[1]
        # so the bound below is less than one (m, 36) float array
        assert 2 * shapes < mesh.n_triangles
        assert float_bytes(operator_map) <= 2 * 36 * 8 * shapes


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

    def test_desk_levels_start_at_the_clamped_column(self):
        mesh = desk_mesh()
        fixed = mesh.dirichlet_dofs()
        operator_map = elasticity._operator_map(mesh, fixed)
        blocks = operator_map.blocks
        assert operator_map.root == "clamped piece 0"
        assert len(blocks.level_ptr) - 1 == 61
        assert np.array_equal(np.sort(blocks.order[:blocks.level_ptr[1]]),
                              fixed)
        assert len(fixed) == 42

    def test_hexagon_levels_start_at_one_clamped_side(self):
        mesh = hexagon_mesh()
        fixed = mesh.dirichlet_dofs()
        operator_map = elasticity._operator_map(mesh, fixed)
        blocks = operator_map.blocks
        sizes = np.diff(blocks.level_ptr)
        first = blocks.order[:sizes[0]]
        assert operator_map.root == "clamped piece 0"
        assert sizes[0] == 72 and np.isin(first, fixed).all()
        side = mesh.nodes[np.unique(first // 2)]
        assert np.linalg.matrix_rank(side - side.mean(axis=0), tol=1e-12) == 1
        assert len(sizes) == 71
        assert np.sum(sizes.astype(np.int64) ** 3) == 95_316_488

    def test_long_side_clamp_keeps_the_peripheral_root(self):
        # the clamped bottom side gives 21 levels of 122 dofs: more n^3
        # than 81 levels from a corner
        mesh = build_rect_mesh(1.0, 1.0 / 3.0, 1.0 / 60.0, "bottom")
        operator_map = elasticity._operator_map(mesh, mesh.dirichlet_dofs())
        assert operator_map.root == "peripheral"
        assert len(operator_map.blocks.level_ptr) - 1 == 81

    @pytest.mark.parametrize("make_mesh", [desk_mesh, hexagon_mesh],
                             ids=["desk", "hexagon"])
    def test_two_builds_give_the_same_order(self, make_mesh):
        first, second = (
            elasticity._operator_map(mesh, mesh.dirichlet_dofs())
            for mesh in (make_mesh(), make_mesh()))
        assert first is not second and first.root == second.root
        assert first.blocks.order.tobytes() == second.blocks.order.tobytes()
        assert np.array_equal(first.blocks.level_ptr, second.blocks.level_ptr)
        assert first.blocks.twist == second.blocks.twist

    def test_levels_from_a_root_set_and_pieces(self):
        # the path 0-1-2-3-4 and the separate edge 5-6
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]
        rows, cols = np.array(edges + [(b, a) for a, b in edges]).T
        A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(7, 7))
        order, level_ptr = level_structure(A.indptr, A.indices, [4, 2])
        assert [list(order[a:b]) for a, b in zip(level_ptr[:-1], level_ptr[1:])
                ][:3] == [[2, 4], [1, 3], [0]]
        assert sorted(order[5:]) == [5, 6]         # its own root
        pieces = linsolve.connected_pieces(A.indptr, A.indices, [6, 0, 1, 3, 5])
        assert [list(p) for p in pieces] == [[0, 1], [3], [5, 6]]

    def test_cheapest_structure_and_first_of_equal_cost(self):
        # a 4 x 4 grid graph rooted at a corner, a side or its mirror side
        n = 4
        grid = np.arange(n * n).reshape(n, n)
        edges = np.concatenate([
            np.column_stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()]),
            np.column_stack([grid[:-1].ravel(), grid[1:].ravel()])])
        rows, cols = np.concatenate([edges, edges[:, ::-1]]).T
        A = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(n * n, n * n))
        candidates = {"peripheral": None, "left": grid[:, 0],
                      "right": grid[:, -1]}
        # corner: 7 levels of at most 4 vertices; side: 4 levels of 4
        for unknowns, name in [(1, "left"), (40, "peripheral")]:
            got, order, level_ptr = linsolve.cheapest_level_structure(
                A.indptr, A.indices, candidates, unknowns)
            assert got == name
            sizes = unknowns * np.diff(level_ptr)
            for roots in candidates.values():
                other = unknowns * np.diff(
                    level_structure(A.indptr, A.indices, roots)[1])
                assert (linsolve.level_costs(sizes).sum()
                        <= linsolve.level_costs(other).sum())

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


def hexagon_factor_system(seed=11):
    """The h = 0.01 hexagon (largest level 142 unknowns), a random stiffness
    and three loads zero on the clamp."""
    mesh = hexagon_mesh()
    fixed = mesh.dirichlet_dofs()
    K = assemble_stiffness(mesh, random_design(mesh.n_nodes, seed), PHASES,
                           fixed)
    B = np.random.default_rng(seed).normal(size=(K.shape[0], 3))
    B[fixed] = 0.0
    return mesh, K, fixed, B


class TestTwoSidedFactor:
    """Levels 0..m-1 eliminated upward, N-1..m+1 downward on the worker
    thread, level m last."""

    def test_hexagon_twists_at_an_interior_level(self):
        mesh, K, fixed, B = hexagon_factor_system()
        blocks = factorize(mesh, K, fixed).blocks
        sizes = np.diff(blocks.level_ptr)
        m, last = blocks.twist, len(sizes) - 1
        assert sizes.max() == 142
        assert 0 < m < last                      # both chains non-empty
        # m minimizes the modelled time of the two chains run at once
        cost = [float(n) ** 3 + linsolve.LEVEL_COST for n in sizes]
        span = [max(sum(cost[:i]), sum(cost[i + 1:])) + cost[i]
                for i in range(last + 1)]
        assert span[m] == pytest.approx(min(span), rel=1e-12)
        assert min(span[:m]) > span[m] * (1 + 1e-12)
        assert blocks.outer[m] == [m - 1, m + 1]
        assert blocks.outer[0] == [] and blocks.outer[last] == []
        assert all(blocks.outer[i] == [i - 1] for i in range(1, m))
        assert all(blocks.outer[i] == [i + 1] for i in range(m + 1, last))

    def test_two_factorizations_solve_identically_to_rounding(self):
        mesh, K, fixed, B = hexagon_factor_system()
        first = factorize(mesh, K, fixed).solve(B)
        second = factorize(mesh, K, fixed).solve(B)
        assert first.tobytes() == second.tobytes()
        for j in range(B.shape[1]):
            assert (np.linalg.norm(K @ first[:, j] - B[:, j])
                    <= 1e-11 * np.linalg.norm(B[:, j]))

    def test_worker_and_inline_lower_chain_agree_bytewise(self, monkeypatch):
        mesh, K, fixed, B = hexagon_factor_system()
        threads = {}
        eliminate = BlockCholesky._eliminate

        def recorded(self, data, i, linvs):
            threads[i] = threading.current_thread()
            return eliminate(self, data, i, linvs)
        monkeypatch.setattr(BlockCholesky, "_eliminate", recorded)
        worker = factorize(mesh, K, fixed)
        m, last = worker.blocks.twist, len(worker.sinv) - 1
        main = threading.main_thread()
        assert sorted(threads) == list(range(last + 1))
        assert all(threads[i] is main for i in range(m + 1))
        assert all(threads[i] is not main for i in range(m + 1, last + 1))

        class CallingThread:
            """An executor that runs each submitted call at once, here."""

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future
        monkeypatch.setattr(linsolve, "_worker", CallingThread())
        threads.clear()
        inline = factorize(mesh, K, fixed)
        assert sorted(threads) == list(range(last + 1))
        assert all(thread is main for thread in threads.values())
        for a, b in zip(worker.sinv, inline.sinv):
            assert a.tobytes() == b.tobytes()
        assert worker.solve(B).tobytes() == inline.solve(B).tobytes()

    @pytest.mark.parametrize("where", ["upper", "lower", "twist"])
    def test_breakdown_names_its_level_and_the_next_factor_works(self, where):
        mesh, K, fixed, B = hexagon_factor_system()
        blocks = elasticity._operator_map(mesh, fixed).blocks
        m, last = blocks.twist, len(blocks.level_ptr) - 2
        level = {"upper": m // 2, "lower": (m + last) // 2, "twist": m}[where]
        dofs = blocks.order[blocks.level_ptr[level]:blocks.level_ptr[level + 1]]
        dof = np.setdiff1d(dofs, fixed)[0]
        bad = K.copy()
        bad[dof, dof] = -bad[dof, dof]
        with pytest.raises(MatrixNotSPDError, match=f"in level {level}:"):
            factorize(mesh, bad, fixed)
        X = factorize(mesh, K, fixed).solve(B)
        assert np.linalg.norm(K @ X - B) <= 1e-11 * np.linalg.norm(B)

    def test_desk_twists_at_its_middle_level(self):
        # 61 levels of 42 unknowns: 30 in each chain
        mesh = desk_mesh()
        blocks = elasticity._operator_map(mesh, mesh.dirichlet_dofs()).blocks
        sizes = np.diff(blocks.level_ptr)
        assert list(sizes) == [42] * 61
        assert blocks.twist == 30
        assert blocks.outer == ([[]] + [[i - 1] for i in range(1, 30)]
                                + [[29, 31]]
                                + [[i + 1] for i in range(31, 60)] + [[]])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_factors_after_the_parent_did(self):
        # the child inherits the worker's executor but not its thread
        mesh, K, fixed, B = hexagon_factor_system()
        expected = factorize(mesh, K, fixed).solve(B)
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(
            factorize(mesh, K, fixed).solve(B).tobytes()))
        child.start()
        try:
            assert results.get(timeout=30) == expected.tobytes()
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
