"""Sparse SPD linear algebra: conjugate gradients preconditioned by an exact
level-set block Cholesky factor.

The unknowns are ordered by breadth-first level from a pseudo-peripheral
vertex of the sparsity graph (George and Liu, ACM TOMS 5, 1979).  Every
edge of the graph joins two vertices of the same or of adjacent levels,
so the permuted matrix is block tridiagonal and its Cholesky factor has
the same block profile.  It is factored level by level with dense LAPACK
Cholesky; only the inverse diagonal factors L_i^{-1} are kept, and the
sparse coupling blocks are applied on the fly.  A sweep solves for k
right-hand sides at once, so its per-level work is paid once for all k.

The conjugate-gradient loop is written out explicitly so the iteration is
deterministic (fixed summation order) and so indefiniteness is detected
through the failed factorization or the curvature p'Ap rather than
discovered as silent non-convergence.  With the exact factor a solve
takes one iteration; the loop then only certifies the true residual.
"""

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, MatrixNotSPDError, SolverFailureError

# relative residual ||A x - b|| / ||b|| every solve of the package meets
SOLVER_TOL = 1e-10
# CG iterations before SolverFailureError; with the exact preconditioner
# more than a few only happen when rounding keeps the residual above tol
MAX_ITERATIONS = 50


def _dots(a, b):
    # column inner products of (n, k) arrays by numpy reduction:
    # deterministic, not delegated to threaded BLAS
    return np.sum(a * b, axis=0)


def _neighbours(indptr, indices, frontier):
    """All column indices of the rows in ``frontier``."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return indices[offsets + np.arange(offsets.size)]


def _bfs_levels(indptr, indices, root, visited):
    """Breadth-first levels of the component of ``root``; marks it in
    ``visited`` and returns the list of sorted level arrays."""
    levels = [np.array([root])]
    visited[root] = True
    while True:
        nxt = np.unique(_neighbours(indptr, indices, levels[-1]))
        nxt = nxt[~visited[nxt]]
        if nxt.size == 0:
            return levels
        visited[nxt] = True
        levels.append(nxt)


def level_structure(indptr, indices):
    """Vertex order and level pointers of a symmetric sparsity graph.

    Each connected component is rooted at a pseudo-peripheral vertex found
    by the George-Liu iteration: start anywhere, re-root at a vertex of
    minimum degree in the last level while that lengthens the structure.
    Returns ``(order, level_ptr)``: the vertices of level i are
    ``order[level_ptr[i]:level_ptr[i + 1]]``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indptr) - 1
    degree = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order = []
    for start in range(n):
        if visited[start]:
            continue
        levels = _bfs_levels(indptr, indices, start, visited.copy())
        while len(levels) > 1:
            last = levels[-1]
            candidate = last[np.argmin(degree[last])]
            trial = _bfs_levels(indptr, indices, candidate, visited.copy())
            if len(trial) <= len(levels):
                break
            levels = trial
        visited[np.concatenate(levels)] = True
        order += levels
    sizes = [len(level) for level in order]
    return np.concatenate(order), np.concatenate([[0], np.cumsum(sizes)])


def _lower_inverse(L):
    """Inverse of a lower-triangular L by halving,
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]:
    above about 48 rows this beats np.linalg.inv, an LU-based inverse."""
    n = len(L)
    if n <= 48:
        return np.linalg.inv(L)
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = _lower_inverse(L[:h, :h])
    out[h:, h:] = _lower_inverse(L[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])
    return out


class LevelBlocks:
    """Where the entries of one CSR pattern land in its level blocks.

    ``order``/``level_ptr`` give the unknowns level by level.  For level i
    it records the K.data positions and flat positions of the dense
    diagonal block D_i, and the K.data positions, local rows and local
    columns of the coupling block C_i (rows of level i + 1, columns of
    level i).
    Raises InvalidParameterError if the pattern couples two levels that
    are not adjacent.
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
        """Blocks of A's own sparsity graph (symmetric pattern assumed)."""
        A = sp.csr_matrix(A)
        return cls(A.indptr, A.indices, *level_structure(A.indptr, A.indices))


class BlockCholesky:
    """Exact factor of an SPD CSR matrix A in the level order of ``blocks``
    (LevelBlocks.of_matrix(A) when omitted).

    With S_0 = D_0 and S_{i+1} = D_{i+1} - C_i S_i^{-1} C_i^T, S_i = L_i L_i^T;
    ``solve`` runs the block forward and backward sweeps.  A factorization
    that breaks down raises MatrixNotSPDError.
    """

    def __init__(self, A, blocks=None):
        blocks = LevelBlocks.of_matrix(A) if blocks is None else blocks
        if A.shape != (blocks.n, blocks.n) or A.nnz != blocks.nnz:
            raise InvalidParameterError("level blocks built for another pattern")
        data = A.data
        self.blocks = blocks
        self.order, self.level_ptr = blocks.order, blocks.level_ptr
        sizes = np.diff(self.level_ptr)
        self.linv = []
        # coupling block i as (rows, columns, values), applied by bincount
        self.coupling = [(rows, cols, data[src])
                         for src, rows, cols in blocks.coupling]
        for i, (src, flat) in enumerate(blocks.diagonal):
            S = np.zeros(sizes[i] * sizes[i])
            S[flat] = data[src]
            S = S.reshape(sizes[i], sizes[i])
            if i:
                rows, cols, vals = self.coupling[i - 1]
                C = np.zeros((sizes[i], sizes[i - 1]))
                C[rows, cols] = vals
                W = C @ self.linv[-1].T                  # C_{i-1} L_{i-1}^{-T}
                S -= W @ W.T
            try:
                L = np.linalg.cholesky(S)
            except np.linalg.LinAlgError as exc:
                raise MatrixNotSPDError(
                    f"block Cholesky broke down in level {i}: {exc}") from None
            self.linv.append(_lower_inverse(L))

    def solve(self, b):
        """A^{-1} b up to rounding, for b of shape (n,) or (n, k)."""
        k = 1 if b.ndim == 1 else b.shape[1]
        lanes = self.blocks.lanes(k)
        bp = b[self.order].reshape(-1, k)
        u = np.empty_like(bp)
        ptr = self.level_ptr
        for i, linv in enumerate(self.linv):
            r = bp[ptr[i]:ptr[i + 1]]
            if i:
                _, cols, vals = self.coupling[i - 1]
                r = r - np.bincount(
                    lanes[i - 1][0],
                    (vals[:, None] * u[ptr[i - 1]:ptr[i]][cols]).ravel(),
                    minlength=r.size).reshape(r.shape)
            u[ptr[i]:ptr[i + 1]] = linv.T @ (linv @ r)
        for i in range(len(self.linv) - 2, -1, -1):
            linv = self.linv[i]
            rows, _, vals = self.coupling[i]
            v = np.bincount(
                lanes[i][1],
                (vals[:, None] * u[ptr[i + 1]:ptr[i + 2]][rows]).ravel(),
                minlength=len(linv) * k).reshape(-1, k)
            u[ptr[i]:ptr[i + 1]] -= linv.T @ (linv @ v)
        x = np.empty_like(u)
        x[self.order] = u
        return x.reshape(b.shape)


def solve_spd(A, b, tol=SOLVER_TOL, maxit=MAX_ITERATIONS, callback=None,
              factor=None):
    """Conjugate gradients for an SPD sparse matrix, preconditioned by its
    block Cholesky ``factor`` (built here when omitted).

    ``b`` is one right-hand side (n,) or k of them (n, k); x has b's
    shape.  The columns iterate together, one factor sweep per iteration
    for all columns still above the tolerance, and each column leaves the
    loop once its own residual is certified.  Guarantees
    ||A x_j - b_j|| <= tol * ||b_j|| for every column j on return, checked
    on the true residual.  Raises MatrixNotSPDError when the
    factorization breaks down or on nonpositive curvature,
    SolverFailureError (with the largest column residual) when maxit
    iterations do not reach the tolerance.  ``callback(it, rnorm)`` sees
    every iteration's largest recursive residual norm.
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
    r = B[:, live]
    xl = np.zeros_like(r)
    rnorm, tl = bnorm[live], target[live]
    p = None
    for it in range(maxit):
        z = factor.solve(r)
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
        # the recursion drifts from b - A x: certify the true residual of
        # the columns below target, restart those that miss from it
        restart = rnorm <= tl
        if restart.any():
            c = np.flatnonzero(restart)
            r[:, c] = B[:, live[c]] - A @ xl[:, c]
            rnorm[c] = np.sqrt(_dots(r[:, c], r[:, c]))
            done = np.zeros_like(restart)
            done[c[rnorm[c] <= tl[c]]] = True
            x[:, live[done]] = xl[:, done]
            if done.all():
                return x.reshape(b.shape)
            keep = ~done
            live, tl, rnorm, rz, restart = (
                v[keep] for v in (live, tl, rnorm, rz, restart))
            r, xl, p = (v[:, keep] for v in (r, xl, p))
    worst = np.argmax(rnorm)
    raise SolverFailureError(
        f"CG did not converge in {maxit} iterations (residual "
        f"{rnorm[worst]:.3e}, target {tl[worst]:.3e})",
        residual=float(rnorm[worst]), iterations=maxit)
