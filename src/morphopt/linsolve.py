"""Sparse SPD linear algebra: conjugate gradients preconditioned by an exact
level-set block Cholesky factor.

The unknowns are ordered by breadth-first level (George and Liu, ACM TOMS
5, 1979).  Every edge of the graph joins two vertices of the same or of
adjacent levels, so the permuted matrix is block tridiagonal and its
Cholesky factor has the same block profile.  The root of the levels, a
pseudo-peripheral vertex or a vertex set the caller names (cf. Gibbs,
Poole and Stockmeyer, SIAM J. Numer. Anal. 13, 1976), is chosen by one
cost model, sum n_i^3 + LEVEL_COST per level, which also places the twist
level.  The blocks are eliminated with dense LAPACK Cholesky, from both
ends of the level sequence towards the twist level (Meurant, SIAM J.
Matrix Anal. Appl. 13, 1992): the two chains are independent, and the
lower one runs on a worker thread, since LAPACK and BLAS release the
interpreter lock.  Only the inverse Schur complements S_i^{-1} are kept,
in one buffer, so a sweep makes one dense product per level and pass; the
sparse coupling blocks are applied on the fly, each as one take, one
multiply and one bincount over its entries and the k lanes.  A sweep
solves for k right-hand sides at once, so its per-level work is paid once
for all k.  It stays in one thread: a level step takes tens of
microseconds, too short to gain from a second thread that hands work over
and contends for the lock at every step (a two-thread sweep measured
slower on a 2-vCPU VM: 2.83 -> 3.59 ms for the h = 0.01 hexagon with
k = 3, 0.84 -> 1.16 ms on the h = 1/60 desk mesh).

The conjugate-gradient loop is written out explicitly so the iteration is
deterministic (fixed summation order) and so indefiniteness is detected
through the failed factorization or the curvature p'Ap rather than
discovered as silent non-convergence.  Iteration 0 is the factor's answer
x0 = M^{-1} b, certified on its true residual b - A x0: with the exact
factor a solve costs one sweep and one product with A, and PCG runs from
x0 only for the columns that miss the tolerance.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, MatrixNotSPDError, SolverFailureError

# relative residual ||A x - b|| / ||b|| every solve of the package meets
SOLVER_TOL = 1e-10
# iterations before SolverFailureError, the factor's answer counted; with
# the exact preconditioner more than a few only happen when rounding keeps
# the residual above tol
MAX_ITERATIONS = 50


def _dots(a, b):
    # column inner products of (n, k) arrays by numpy reduction:
    # deterministic, not delegated to threaded BLAS.  Each column is summed
    # contiguously, the pairwise sum of a one-column solve; a reduction
    # down the strided axis would add row by row, in another order
    return np.ascontiguousarray((a * b).T).sum(axis=1)


def _neighbours(indptr, indices, frontier):
    """All column indices of the rows in ``frontier``."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return indices[offsets + np.arange(offsets.size)]


def _bfs_levels(indptr, indices, roots, visited):
    """Breadth-first levels from the vertex set ``roots`` (level 0) over
    the vertices not yet ``visited``; marks them in ``visited`` and returns
    the list of sorted level arrays."""
    levels = [np.unique(np.asarray(roots, dtype=np.int64))]
    visited[levels[0]] = True
    while True:
        nxt = np.unique(_neighbours(indptr, indices, levels[-1]))
        nxt = nxt[~visited[nxt]]
        if nxt.size == 0:
            return levels
        visited[nxt] = True
        levels.append(nxt)


def level_structure(indptr, indices, roots=None):
    """Vertex order and level pointers of a symmetric sparsity graph.

    Level 0 is the vertex set ``roots`` when given, and the breadth-first
    levels from it cover its components.  Every other connected component
    is rooted at a pseudo-peripheral vertex found by the George-Liu
    iteration: start anywhere, re-root at a vertex of minimum degree in
    the last level while that lengthens the structure.  Returns
    ``(order, level_ptr)``: the vertices of level i are
    ``order[level_ptr[i]:level_ptr[i + 1]]``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indptr) - 1
    degree = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order = [] if roots is None else _bfs_levels(indptr, indices, roots,
                                                 visited)
    for start in range(n):
        if visited[start]:
            continue
        levels = _bfs_levels(indptr, indices, [start], visited.copy())
        while len(levels) > 1:
            last = levels[-1]
            candidate = last[np.argmin(degree[last])]
            trial = _bfs_levels(indptr, indices, [candidate], visited.copy())
            if len(trial) <= len(levels):
                break
            levels = trial
        visited[np.concatenate(levels)] = True
        order += levels
    sizes = [len(level) for level in order]
    return np.concatenate(order), np.concatenate([[0], np.cumsum(sizes)])


def connected_pieces(indptr, indices, vertices):
    """The connected pieces of the subgraph on ``vertices``, each a sorted
    vertex array, in the order of their least vertex."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    outside = np.ones(len(indptr) - 1, dtype=bool)
    outside[vertices] = False
    pieces = []
    for v in vertices:
        if not outside[v]:
            pieces.append(np.sort(np.concatenate(
                _bfs_levels(indptr, indices, [v], outside))))
    return pieces


# the factor's cost model: a level of n unknowns costs n^3 plus
# LEVEL_COST, the per-level Python and numpy wrapper work in the same
# units.  Fitted to one-chain factor times of the desk and h = 0.01
# hexagon meshes under three roots each (one BLAS thread): 3.5e5 to 7.3e5
# by relative or absolute least squares.  Any value from 3.9e4 to 1.1e7
# picks the same roots on the shipped meshes
LEVEL_COST = 4e5


def level_costs(sizes):
    """Model cost n_i^3 + LEVEL_COST of eliminating each level of
    ``sizes`` unknowns."""
    return np.asarray(sizes, dtype=float) ** 3 + LEVEL_COST


def cheapest_level_structure(indptr, indices, candidates, unknowns=1):
    """The level structure of least model cost among the named root
    ``candidates`` (name -> vertex set, or None for a pseudo-peripheral
    vertex), for ``unknowns`` unknowns per vertex; the first of equal
    cost wins.  Returns ``(name, order, level_ptr)``."""
    structures = [(name, *level_structure(indptr, indices, roots))
                  for name, roots in candidates.items()]
    return min(structures, key=lambda structure: level_costs(
        unknowns * np.diff(structure[2])).sum())


def _lower_inverse(L, out):
    """Write the inverse of a lower-triangular L into ``out`` by halving,
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]:
    above about 48 rows this beats np.linalg.inv, an LU-based inverse."""
    n = len(L)
    if n <= 48:
        out[...] = np.linalg.inv(L)
        return
    h = n // 2
    _lower_inverse(L[:h, :h], out[:h, :h])
    _lower_inverse(L[h:, h:], out[h:, h:])
    out[:h, h:] = 0.0
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])


class LevelBlocks:
    """Where the entries of one CSR pattern land in its level blocks.

    ``order``/``level_ptr`` give the unknowns level by level.  For level i
    it records the K.data positions and flat positions of the dense
    diagonal block D_i, and the K.data positions, local rows and local
    columns of the coupling block C_i (rows of level i + 1, columns of
    level i).

    ``twist`` is the level m at which BlockCholesky's two elimination
    chains meet, and ``outer[i]`` lists the adjacent levels eliminated
    before level i: those farther from m.  m minimizes the modelled time
    of a factor whose chains run at once, max(cost of the levels before
    m, cost of those after m) + cost of m, each level costed by
    ``level_costs``; the first such level wins.  Raises
    InvalidParameterError if the pattern couples two levels that are not
    adjacent.
    """

    def __init__(self, indptr, indices, order, level_ptr):
        indptr = np.asarray(indptr, dtype=np.int64)
        n = len(indptr) - 1
        self.n, self.nnz = n, int(indptr[-1])
        self.order = np.asarray(order, dtype=np.int64)
        self.level_ptr = np.asarray(level_ptr, dtype=np.int64)
        sizes = np.diff(self.level_ptr)
        pos = np.empty(n, dtype=np.int64)
        pos[self.order] = np.arange(n)
        level_of = np.repeat(np.arange(len(sizes)), sizes)
        rows = pos[np.repeat(np.arange(n), np.diff(indptr))]
        cols = pos[np.asarray(indices, dtype=np.int64)]
        lr, lc = level_of[rows], level_of[cols]
        if np.any(np.abs(lr - lc) > 1):
            raise InvalidParameterError(
                "ordering is not block tridiagonal for this pattern")
        rows -= self.level_ptr[lr]
        cols -= self.level_ptr[lc]

        diag = np.flatnonzero(lr == lc)
        diag = diag[np.argsort(lr[diag], kind="stable")]
        dptr = np.searchsorted(lr[diag], np.arange(len(sizes) + 1))
        flat = rows[diag] * sizes[lr[diag]] + cols[diag]
        diag, flat = diag.astype(np.int32), flat.astype(np.int32)
        self.diagonal = [(diag[a:b], flat[a:b])
                         for a, b in zip(dptr[:-1], dptr[1:])]

        # below the diagonal: the triplets of each coupling block
        low = np.flatnonzero(lr == lc + 1)
        low = low[np.argsort(lc[low], kind="stable")]
        lptr = np.searchsorted(lc[low], np.arange(len(sizes)))
        low, rows, cols = (v.astype(np.int32) for v in (low, rows[low], cols[low]))
        self.coupling = [(low[a:b], rows[a:b], cols[a:b])
                         for a, b in zip(lptr[:-1], lptr[1:])]
        self._lanes = {1: [(rows, cols) for _, rows, cols in self.coupling]}

        last = len(sizes) - 1
        cost = level_costs(sizes)
        before = np.cumsum(cost) - cost
        after = np.cumsum(cost[::-1])[::-1] - cost
        self.twist = m = int(np.argmin(np.maximum(before, after) + cost))
        self.outer = [[j for j in (i - 1, i + 1)
                       if 0 <= j <= last and abs(j - m) > abs(i - m)]
                      for i in range(last + 1)]

    def lanes(self, k):
        """Per coupling block, the bincount targets of its rows and of its
        columns for k right-hand sides stored row-major (local row i, lane
        l -> i k + l); built once per k."""
        if k not in self._lanes:
            lane = np.arange(k, dtype=np.int32)
            self._lanes[k] = [((rows[:, None] * k + lane).ravel(),
                               (cols[:, None] * k + lane).ravel())
                              for _, rows, cols in self.coupling]
        return self._lanes[k]

    @classmethod
    def of_matrix(cls, A):
        """Blocks of A's own sparsity graph (symmetric pattern assumed), in
        its canonical CSR form."""
        A = _canonical_csr(A)
        return cls(A.indptr, A.indices, *level_structure(A.indptr, A.indices))


def _canonical_csr(A):
    """A as CSR with sorted column indices and no duplicate entries: a CSR
    view of A's own arrays when A already is one, else a converted copy
    with duplicates summed.  The caller's matrix is not modified."""
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def _start_worker():
    # an executor starts its thread on the first submit; a forked child
    # inherits the executor but not its thread, so it gets a new one
    global _worker
    _worker = ThreadPoolExecutor(1, "linsolve")


_start_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_worker)


class BlockCholesky:
    """Exact factor of an SPD CSR matrix A in the level order of ``blocks``
    (LevelBlocks.of_matrix(A) when omitted), eliminated from both ends
    towards the twist level m = ``blocks.twist``.

    With D_i the diagonal and C_i the coupling blocks, the upper chain
    S_0 = D_0, S_i = D_i - C_{i-1} S_{i-1}^{-1} C_{i-1}^T runs for i < m in
    the calling thread, the lower chain S_{N-1} = D_{N-1},
    S_i = D_i - C_i^T S_{i+1}^{-1} C_i for i > m on the worker thread, and
    S_m takes both updates last.  Every level is eliminated alike: L_i =
    chol(S_i) and its halving inverse give ``sinv[i]`` = S_i^{-1} =
    L_i^{-T} L_i^{-1}, symmetric to the bit, and the Schur update W W^T,
    W = C_ji L_i^{-T}, of the next level j.  ``solve`` sweeps forward from
    both ends into m, then back outwards, one product with S_i^{-1} per
    level and pass.  A breakdown of chol(S_i) raises MatrixNotSPDError
    naming the level once both chains have stopped.  A of another sparse
    format, or a CSR with unsorted or duplicate entries, is factored in
    its canonical CSR form.
    """

    def __init__(self, A, blocks=None):
        A = _canonical_csr(A)
        blocks = LevelBlocks.of_matrix(A) if blocks is None else blocks
        if A.shape != (blocks.n, blocks.n) or A.nnz != blocks.nnz:
            raise InvalidParameterError("level blocks built for another pattern")
        self.blocks = blocks
        self.order, self.level_ptr = blocks.order, blocks.level_ptr
        sizes = np.diff(self.level_ptr)
        last, m = len(sizes) - 1, blocks.twist
        # every S_i^{-1} in one buffer of this thread, so the worker's
        # allocator arena holds only its temporaries
        ends = np.cumsum(sizes ** 2)
        buffer = np.empty(ends[-1])
        self.sinv = [buffer[e - n * n:e].reshape(n, n)
                     for n, e in zip(sizes, ends)]
        # coupling block i as (rows, columns, values); the sweep takes the
        # values repeated per lane, built once per number of lanes k
        self.coupling = [(rows, cols, A.data[src])
                         for src, rows, cols in blocks.coupling]
        self._lane_values = {1: [vals for _, _, vals in self.coupling]}

        def chain(levels):
            # each level's L_i^{-1} goes to the next level only
            linvs = []
            for i in levels:
                linvs = [self._eliminate(A.data, i, linvs)]
            return linvs

        lower = _worker.submit(chain, range(last, m, -1))
        try:
            upper = chain(range(m))
        finally:
            wait([lower])
        self._eliminate(A.data, m, upper + lower.result())

    def _eliminate(self, data, i, linvs):
        """L_i^{-1} of S_i = D_i - sum_j W_j W_j^T, W_j = C_ij L_j^{-T}, with
        ``linvs`` the L_j^{-1} of the levels j of ``blocks.outer[i]``;
        keeps S_i^{-1} = L_i^{-T} L_i^{-1} in ``sinv[i]``."""
        src, flat = self.blocks.diagonal[i]
        out = self.sinv[i]
        n = len(out)
        S = np.zeros(n * n)
        S[flat] = data[src]
        S = S.reshape(n, n)
        for j, linv in zip(self.blocks.outer[i], linvs):
            rows, cols, vals = self.coupling[min(i, j)]
            if j > i:
                rows, cols = cols, rows
            C = np.zeros((n, len(linv)))
            C[rows, cols] = vals
            W = C @ linv.T                       # C_ij L_j^{-T}
            S -= W @ W.T
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise MatrixNotSPDError(
                f"block Cholesky broke down in level {i}: {exc}") from None
        _lower_inverse(L, L)
        np.matmul(L.T, L, out=out)        # syrk: symmetric to the bit
        return L

    def solve(self, b):
        """A^{-1} b up to rounding, for b of shape (n,) or (n, k)."""
        k = 1 if b.ndim == 1 else b.shape[1]
        lanes = self.blocks.lanes(k)
        if k not in self._lane_values:
            self._lane_values[k] = [np.repeat(vals, k)
                                    for vals in self._lane_values[1]]
        values = self._lane_values[k]
        bp = b[self.order].reshape(-1, k)
        u = np.empty_like(bp)
        flat = u.reshape(-1)                     # u row-major: i k + l
        ptr = self.level_ptr.tolist()           # Python ints index faster
        m, outer = self.blocks.twist, self.blocks.outer
        last = len(outer) - 1

        def coupled(i, j):
            # C_ij u_j: level j's term in the equations of level i, one
            # product per entry and lane, summed in entry order
            c = min(i, j)
            rows, cols = lanes[c]
            src, dst = (cols, rows) if j < i else (rows, cols)
            terms = flat[ptr[j] * k:ptr[j + 1] * k].take(src) * values[c]
            return np.bincount(dst, terms,
                               minlength=len(self.sinv[i]) * k).reshape(-1, k)

        # forward from both ends into m, then back outwards from m
        for i in [*range(m), *range(last, m - 1, -1)]:
            r = bp[ptr[i]:ptr[i + 1]]
            for j in outer[i]:
                r = r - coupled(i, j)
            u[ptr[i]:ptr[i + 1]] = self.sinv[i] @ r
        for i in [*range(m - 1, -1, -1), *range(m + 1, last + 1)]:
            v = coupled(i, i + 1 if i < m else i - 1)
            u[ptr[i]:ptr[i + 1]] -= self.sinv[i] @ v
        x = np.empty_like(u)
        x[self.order] = u
        return x.reshape(b.shape)


def solve_spd(A, b, tol=SOLVER_TOL, maxit=MAX_ITERATIONS, callback=None,
              factor=None):
    """Conjugate gradients for an SPD sparse matrix, preconditioned by its
    block Cholesky ``factor`` (built here when omitted).

    ``b`` is one right-hand side (n,) or k of them (n, k); x has b's
    shape.  Iteration 0 takes the factor's answer x0 = M^{-1} b and
    certifies each column on its true residual b - A x0: with the exact
    factor a solve costs one sweep and one product with A.  The columns
    that miss run PCG from x0 together, one factor sweep per iteration for
    all columns still above the tolerance, and each column leaves the loop
    once its own residual is certified.  ``maxit`` counts iteration 0.
    Guarantees ||A x_j - b_j|| <= tol * ||b_j|| for every column j on
    return, checked on the true residual.  Raises MatrixNotSPDError when
    the factorization breaks down or on nonpositive curvature,
    SolverFailureError (with the largest column residual, the largest
    ||b_j|| when maxit is 0) when maxit iterations do not reach the
    tolerance.  ``callback(it, rnorm)`` sees every iteration's largest
    residual norm: the true one at iteration 0, the recursive one after.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise InvalidParameterError("right-hand side contains non-finite entries")
    n, m = A.shape
    if n != m:
        raise InvalidParameterError("operator must be square")
    if b.ndim not in (1, 2) or len(b) != n:
        raise InvalidParameterError(
            f"right-hand side of shape {b.shape} for an operator of size {n}")
    B = b.reshape(n, -1)
    x = np.zeros(B.shape)
    bnorm = np.sqrt(_dots(B, B))
    target = tol * bnorm
    live = np.flatnonzero(bnorm > target)           # columns still iterating
    if live.size == 0:
        return x.reshape(b.shape)
    if factor is None:
        factor = BlockCholesky(A)
    r = B if live.size == B.shape[1] else B[:, live]
    rnorm, tl = bnorm[live], target[live]
    p = None
    for it in range(maxit):
        z = factor.solve(r)
        if it == 0:
            # the factor's answer x0 = M^{-1} b and its true residual
            xl = z
            r = r - A @ xl
        else:
            rz_new = _dots(r, z)
            if p is None:
                p = z
            else:
                p = z + (rz_new / rz) * p
                p[:, restart] = z[:, restart]
            rz = rz_new
            q = A @ p
            curvature = _dots(p, q)
            if np.any(curvature <= 0.0):
                raise MatrixNotSPDError(
                    f"nonpositive curvature p'Ap = {float(curvature.min())!r} "
                    f"at iteration {it}")
            alpha = rz / curvature
            xl += alpha * p
            r -= alpha * q
        rnorm = np.sqrt(_dots(r, r))
        if callback is not None:
            callback(it, float(rnorm.max()))
        # iteration 0's residual is the true one; later the recursion
        # drifts from b - A x: certify the true residual of the columns
        # below target, restart those that miss from it
        restart = rnorm <= tl
        if it > 0 and restart.any():
            c = np.flatnonzero(restart)
            r[:, c] = B[:, live[c]] - A @ xl[:, c]
            rnorm[c] = np.sqrt(_dots(r[:, c], r[:, c]))
        done = rnorm <= tl
        if done.any():
            x[:, live[done]] = xl[:, done]
            if done.all():
                return x.reshape(b.shape)
            keep = ~done
            live, tl, rnorm, restart = (
                v[keep] for v in (live, tl, rnorm, restart))
            r, xl = r[:, keep], xl[:, keep]
            if p is not None:
                rz, p = rz[keep], p[:, keep]
    worst = np.argmax(rnorm)
    raise SolverFailureError(
        f"CG did not converge in {maxit} iterations (residual "
        f"{rnorm[worst]:.3e}, target {tl[worst]:.3e})",
        residual=float(rnorm[worst]), iterations=maxit)
