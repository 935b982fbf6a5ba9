"""Sparse SPD linear algebra: the answer of an exact level-set block
Cholesky factor, certified on its true residual.

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
interpreter lock.  A level of at most SMALL_LEVEL unknowns, as every level
of the desk mesh is, takes the inverse of its Cholesky factor from one
Cholesky call of twice its size, whose trailing triangular solve forms it;
a larger level takes a Cholesky call and an inverse by halving.  Only the
inverse Schur complements S_i^{-1} are kept, in one buffer.  A sweep
steps both chains in lockstep: level p and level N - 1 - p are
independent in both passes, so when they are of one size their S_i^{-1}
lie side by side as one (2, n, n) block, and one step makes one take,
one multiply and one bincount over the sparse coupling entries
of both levels and the k lanes, and one stacked (2, n, n) @ (2, n, k)
product.  That halves the numpy calls of a sweep, whose cost they are at
desk scale.  A sweep solves for k right-hand sides at once, so its
per-step work is paid once for all k.  It stays in one thread: a step
takes tens of microseconds, too short to gain from a second thread that
hands work over and contends for the lock at every step (a two-thread
sweep, one level per step, measured slower on a 2-vCPU VM: 2.83 -> 3.59
ms for the h = 0.01 hexagon with k = 3, 0.84 -> 1.16 ms on the h = 1/60
desk mesh).

A solve is one sweep and one product with A: the factor's answer x is
certified by the normwise backward error of its true residual b - A x
(Rigal and Gaches, J. ACM 14, 1967; Arioli, Duff and Ruiz, SIAM J. Matrix
Anal. Appl. 13, 1992), a test that float64 can meet however small b is
against A x.  An operator that is not SPD breaks the factorization down.
The reductions run in a fixed order, so a solve is deterministic.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, MatrixNotSPDError, SolverFailureError

# normwise backward error ||b - A x|| / (||A||_inf ||x|| + ||b||) every
# solve of the package meets, 45 units of float64 rounding: the factor's
# answers read at most 7.5e-17 on the desk and hexagon runs of
# scripts/same_numbers.py and 1.9e-16 on the h = 2e-3 cantilever
SOLVER_TOL = 1e-14


def _dots(a, b):
    # column inner products of (n, k) arrays by numpy reduction:
    # deterministic, not delegated to threaded BLAS.  Each column is summed
    # contiguously, the pairwise sum of a one-column solve; a reduction
    # down the strided axis would add row by row, in another order
    return np.ascontiguousarray((a * b).T).sum(axis=1)


def sorted_unique(keys, return_inverse=False):
    """The sorted distinct values of the 1-D array ``keys`` by one sort,
    not numpy's hash-based np.unique, and with ``return_inverse`` the
    index of each key among them.  Keys of a void dtype compare by their
    bytes."""
    if return_inverse:
        order = np.argsort(keys)
        ordered = keys[order]
    else:
        ordered = np.sort(keys)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    if not return_inverse:
        return ordered[first]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


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
    levels = [sorted_unique(np.asarray(roots, dtype=np.int64))]
    visited[levels[0]] = True
    while True:
        nxt = _neighbours(indptr, indices, levels[-1])
        nxt = sorted_unique(nxt[~visited[nxt]])
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
    start = 0
    while not visited[start:].all():
        start += int(np.argmin(visited[start:]))     # the first unvisited
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
    vertices = sorted_unique(np.asarray(vertices, dtype=np.int64))
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


# the largest level that _inverse_cholesky inverts by one augmented
# Cholesky call and the base case of _lower_inverse's halving
SMALL_LEVEL = 48
# t of that call, a power of two: t I - S^{-1} is SPD, so the call succeeds,
# for every SPD S whose least eigenvalue exceeds 1 / t, about 1e-271
AUGMENT = 2.0 ** 900


def _inverse_cholesky(S):
    """L^{-1} of the Cholesky factor S = L L^T of an SPD S; raises
    np.linalg.LinAlgError when S is not SPD.  Up to SMALL_LEVEL rows it is
    read from one Cholesky call of [[S, I], [I, t I]], t = AUGMENT, whose
    factor is [[L, 0], [L^{-T}, chol(t I - S^{-1})]]: the call's triangular
    solve forms L^{-T} in place of np.linalg.inv's LU of L (at n = 42, 34
    microseconds against 12 + 42 for chol(S) and the inverse of its L on a
    2-vCPU VM).  The call reads only the lower triangle, and it breaks
    down, as for an S that is not SPD, when S has an eigenvalue below
    1 / t."""
    n = len(S)
    if n > SMALL_LEVEL:
        return _lower_inverse(np.linalg.cholesky(S))
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = S
    flat = M.reshape(-1)              # rows n + j: 1 at column j, t at n + j
    flat[2 * n * n::2 * n + 1] = 1.0
    flat[2 * n * n + n::2 * n + 1] = AUGMENT
    return np.linalg.cholesky(M)[n:, :n].T


def _lower_inverse(L):
    """The inverse of a lower-triangular L by halving in place,
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]:
    above SMALL_LEVEL rows this beats np.linalg.inv, an LU-based inverse,
    which gives the smaller blocks as new arrays."""
    n = len(L)
    if n <= SMALL_LEVEL:
        return np.linalg.inv(L)
    h = n // 2
    L[:h, :h] = _lower_inverse(L[:h, :h])
    L[h:, h:] = _lower_inverse(L[h:, h:])
    L[h:, :h] = -L[h:, h:] @ (L[h:, :h] @ L[:h, :h])
    return L


class LevelBlocks:
    """Where the entries of one CSR pattern land in its level blocks, and
    the steps in which BlockCholesky sweeps them.

    ``order``/``level_ptr`` give the unknowns level by level.  ``twist`` is
    the level m at which BlockCholesky's two elimination chains meet, and
    ``outer[i]`` lists the adjacent levels eliminated before level i: those
    farther from m.  m minimizes the modelled time of a factor whose chains
    run at once, max(cost of the levels before m, cost of those after m) +
    cost of m, each level costed by ``level_costs``; the first such level
    wins.

    The sweep walks both chains in lockstep.  ``steps`` lists the levels of
    each step: level p of the upper chain and level N - 1 - p of the lower
    one together when they are of one size, else one after the other; then
    one by one the levels that the longer chain has spare, and m.  ``perm``
    orders the unknowns step by step, the row layout of the sweep; the
    S_i^{-1} buffer holds its blocks in the same order.  ``diagonal`` gives
    the K.data positions of all diagonal-block entries and their flat
    positions in that buffer, ``coupling`` the K.data positions of the
    entries below the diagonal blocks, step by step.  Each such entry
    couples a row of the level nearer m, the target, to a column of the
    other, the source, and belongs to the step of its target.  ``table``
    is the int32 lane table of one right-hand side: per entry its target
    row counted from its step's first row and its source row counted from
    the first row of the step's sources; the backward step into those
    sources uses it with the two rows swapped.  ``plan`` holds per step its
    first row, its number of levels and their size, its sources' rows
    [a, z) (None with no sources) and its entries [e0, e1).  ``links[i]``
    holds, per level j of ``outer[i]``, the slice of the entries from j
    into i and their flat positions in the (n_i, n_j) block C_ij.  Raises
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
        # per entry the level and local index of its row and its column,
        # in int32, which halves the largest arrays of the build
        pos = np.empty(n, dtype=np.int32)
        pos[self.order] = np.arange(n)
        level_of = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        rows = pos[np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))]
        cols = pos[np.asarray(indices)]
        lr, lc = level_of[rows], level_of[cols]
        if np.any(np.abs(lr - lc) > 1):
            raise InvalidParameterError(
                "ordering is not block tridiagonal for this pattern")
        ptr = self.level_ptr.astype(np.int32)
        rows -= ptr[lr]
        cols -= ptr[lc]

        last = len(sizes) - 1
        cost = level_costs(sizes)
        before = np.cumsum(cost) - cost
        after = np.cumsum(cost[::-1])[::-1] - cost
        self.twist = m = int(np.argmin(np.maximum(before, after) + cost))
        self.outer = [[j for j in (i - 1, i + 1)
                       if 0 <= j <= last and abs(j - m) > abs(i - m)]
                      for i in range(last + 1)]

        upper, lower = range(m), range(last, m, -1)
        self.steps = []
        for i, j in zip(upper, lower):
            self.steps += [(i, j)] if sizes[i] == sizes[j] else [(i,), (j,)]
        pairs = min(len(upper), len(lower))
        self.steps += [(i,) for i in (*upper[pairs:], *lower[pairs:], m)]
        seq = np.array([i for step in self.steps for i in step])
        start = np.empty(last + 1, dtype=np.int64)   # first row of level i
        start[seq] = np.cumsum(sizes[seq]) - sizes[seq]
        self.perm = np.empty(n, dtype=np.int64)
        self.perm[start[level_of] + np.arange(n)
                  - self.level_ptr[level_of]] = self.order

        squares = sizes ** 2
        offset = np.empty(last + 1, dtype=np.int64)
        offset[seq] = np.cumsum(squares[seq]) - squares[seq]
        diag = np.flatnonzero(lr == lc)
        low = np.flatnonzero(lr == lc + 1)        # rows c + 1, columns c
        level = lr[diag]
        self.diagonal = (diag.astype(np.int32), (
            offset[level] + rows[diag] * sizes[level] + cols[diag]).astype(
                np.int32 if squares.sum() < 2 ** 31 else np.int64))

        # from here only the entries below the diagonal blocks: each couples
        # a row of its level nearer m, the target, to a column of the other,
        # the source; sorted by step, target and source, then in CSR order
        c = lc[low]
        up = c < m                                # c + 1 is the target
        rows, cols = (np.where(up, rows[low], cols[low]),
                      np.where(up, cols[low], rows[low]))
        del lr, lc, diag, level
        block = 2 * c + 1 + up              # 2 target + (source > target)
        sort = np.argsort(2 * start[c + up] + 1 - up, kind="stable")
        self.coupling = low[sort].astype(np.int32)
        counts = np.bincount(block, minlength=2 * last + 2)
        # per entry its flat position in C_ij, (n_i, n_j); per block where
        # its target and source levels start among the rows of its step and
        # of the step's sources
        flat = (rows * sizes[c + 1 - up] + cols)[sort].astype(np.int32)
        offsets = np.zeros((2, 2 * last + 2), dtype=np.int64)
        self.links, self.plan, e = [[] for _ in sizes], [], 0
        for step in self.steps:
            r0, e0 = int(start[step[0]]), e
            js = [j for i in step for j in self.outer[i]]
            src = ((int(min(start[js])), int(max(start[js] + sizes[js])))
                   if js else None)
            for i in step:
                for j in self.outer[i]:
                    b = 2 * i + (j > i)
                    offsets[:, b] = start[i] - r0, start[j] - src[0]
                    entries = slice(e, e + counts[b])
                    self.links[i].append((entries, flat[entries]))
                    e += counts[b]
            self.plan.append((r0, len(step), int(sizes[step[0]]), src, e0, e))
        self.table = np.empty((2, len(low)), dtype=np.int32)
        self.table[0] = (rows + offsets[0, block])[sort]
        self.table[1] = (cols + offsets[1, block])[sort]
        self._lanes = {1: [self.table[:, e0:e] for *_, e0, e in self.plan]}

    def lanes(self, k):
        """Per step its lane table for k right-hand sides stored row-major
        (row r, lane l -> r k + l): the step's columns of ``table`` with
        each row r as r k + l, one column per entry and lane; built once
        per k."""
        if k not in self._lanes:
            lane = np.arange(k, dtype=np.int32)
            self._lanes[k] = [(self.table[:, e0:e, None] * k + lane
                               ).reshape(2, -1) for *_, e0, e in self.plan]
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
    S_m takes both updates last.  One scatter puts every D_i into the
    buffer of the S_i^{-1}, laid out by ``blocks.steps``, and one gather
    takes all coupling values.  Every level is eliminated alike: S_i is
    formed in place, and the inverse L_i^{-1} of L_i = chol(S_i)
    (``_inverse_cholesky``) gives ``sinv[i]`` = S_i^{-1} = L_i^{-T} L_i^{-1},
    symmetric to the bit, and the Schur update W W^T, W = C_ji L_i^{-T}, of
    the next level j.
    ``solve`` sweeps forward from both ends into m, then back outwards,
    step by step: one gather, multiply and bincount for the coupling of
    all the step's levels and one stacked product with their S_i^{-1}.  A
    breakdown of chol(S_i) raises MatrixNotSPDError naming the level once
    both chains have stopped.  A of another sparse format, or a CSR with
    unsorted or duplicate entries, is factored in its canonical CSR form,
    and ``anorm`` is the largest absolute row sum ||A||_inf of that form,
    the scale of solve_spd's certificate.
    """

    def __init__(self, A, blocks=None):
        A = _canonical_csr(A)
        blocks = LevelBlocks.of_matrix(A) if blocks is None else blocks
        if A.shape != (blocks.n, blocks.n) or A.nnz != blocks.nnz:
            raise InvalidParameterError("level blocks built for another pattern")
        self.blocks = blocks
        sizes = np.diff(blocks.level_ptr)
        last, m = len(sizes) - 1, blocks.twist
        # every S_i^{-1} in one buffer of this thread, so the worker's
        # allocator arena holds only its temporaries; the stacked levels
        # of a step side by side
        ends = np.cumsum([len(step) * sizes[step[0]] ** 2
                          for step in blocks.steps])
        buffer = np.zeros(ends[-1])
        src, dst = blocks.diagonal
        buffer[dst] = A.data[src]
        self._stacked = [part.reshape(len(step), sizes[step[0]], -1)
                         for step, part in zip(blocks.steps,
                                               np.split(buffer, ends[:-1]))]
        self.sinv = [None] * len(sizes)
        for step, stacked in zip(blocks.steps, self._stacked):
            for i, block in zip(step, stacked):
                self.sinv[i] = block
        self.values = A.data[blocks.coupling]
        self._sweeps = {}

        def chain(levels):
            # each level's L_i^{-1} goes to the next level only
            linvs = []
            for i in levels:
                linvs = [self._eliminate(self.values, i, linvs)]
            return linvs

        lower = _worker.submit(chain, range(last, m, -1))
        try:
            upper = chain(range(m))
        finally:
            wait([lower])
        self._eliminate(self.values, m, upper + lower.result())
        # ||A||_inf by one segmented sum over the rows; every row of an SPD
        # matrix holds its diagonal, so no segment is empty (an empty row
        # has broken the factor down above)
        self.anorm = float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())

    def _eliminate(self, values, i, linvs):
        """L_i^{-1} of S_i = D_i - sum_j W_j W_j^T, W_j = C_ij L_j^{-T}, with
        ``values`` the coupling values in ``blocks.coupling`` order and
        ``linvs`` the L_j^{-1} of the levels j of ``blocks.outer[i]``; forms
        S_i over D_i in ``sinv[i]`` and leaves S_i^{-1} = L_i^{-T} L_i^{-1}
        there.  ``_inverse_cholesky`` gives L_i^{-1}: by one Cholesky call
        of [[S_i, I], [I, t I]] up to SMALL_LEVEL unknowns, else by
        chol(S_i) and its inverse by halving."""
        out = self.sinv[i]
        for linv, (entries, flat) in zip(linvs, self.blocks.links[i]):
            C = np.zeros((len(out), len(linv)))
            C.put(flat, values[entries])
            W = C @ linv.T                       # C_ij L_j^{-T}
            out -= W @ W.T
        try:
            linv = _inverse_cholesky(out)
        except np.linalg.LinAlgError as exc:
            raise MatrixNotSPDError(
                f"block Cholesky broke down in level {i}: {exc}") from None
        np.matmul(linv.T, linv, out=out)     # syrk: symmetric to the bit
        return linv

    def solve(self, b):
        """A^{-1} b up to rounding, for b of shape (n,) or (n, k)."""
        k = 1 if b.ndim == 1 else b.shape[1]
        if k not in self._sweeps:
            # per step its rows, stacked shape, sources, lanes and values
            values = self.values if k == 1 else np.repeat(self.values, k)
            self._sweeps[k] = [
                (k * r0, k * (r0 + levels * rows), (levels, rows, k),
                 None if src is None else (k * src[0], k * src[1]),
                 lane, values[k * e0:k * e], stacked)
                for (r0, levels, rows, src, e0, e), lane, stacked
                in zip(self.blocks.plan, self.blocks.lanes(k), self._stacked)]
        steps = self._sweeps[k]
        bp = b[self.blocks.perm].reshape(-1)     # row-major: r k + l
        u = np.empty_like(bp)

        # forward from both ends into m: r = b - C u over the step's
        # sources, one product with the stacked S_i^{-1}
        for r0, r1, shape, src, lanes, vals, stacked in steps:
            r = bp[r0:r1]
            if src is not None:
                terms = u[src[0]:src[1]].take(lanes[1]) * vals
                r -= np.bincount(lanes[0], terms, minlength=r1 - r0)
            np.matmul(stacked, r.reshape(shape), out=u[r0:r1].reshape(shape))
        # back outwards from m: each step's levels take the terms its inner
        # step left in v, then leave C^T u in v for their sources.  m comes
        # first, and the rows of its sources' range that are not its
        # sources are written again by their own inner steps.  v takes the
        # place of b, which the forward pass has read
        v = bp
        for s, (r0, r1, shape, src, lanes, vals, stacked) in enumerate(
                reversed(steps)):
            if s:
                w = u[r0:r1].reshape(shape)
                w -= stacked @ v[r0:r1].reshape(shape)
            if src is not None:
                terms = u[r0:r1].take(lanes[0]) * vals
                v[src[0]:src[1]] = np.bincount(lanes[1], terms,
                                               minlength=src[1] - src[0])
        x = np.empty((len(bp) // k, k))
        x[self.blocks.perm] = u.reshape(-1, k)
        return x.reshape(b.shape)


def solve_spd(A, b, callback=None, factor=None):
    """x = A^{-1} b for an SPD sparse matrix A: its block Cholesky
    ``factor``'s answer (built here when omitted), certified on its true
    residual.

    ``b`` is one right-hand side (n,) or k of them (n, k); x has b's
    shape.  A zero column gives an exact zero; the others take one factor
    sweep together and one product with A.  Guarantees the normwise
    backward error test ||b_j - A x_j|| <= SOLVER_TOL (``factor.anorm``
    ||x_j|| + ||b_j||) for every column j on return: x_j solves
    (A + E) x_j = b_j + f for some ||E||_2 <= SOLVER_TOL ||A||_inf and
    ||f|| <= SOLVER_TOL ||b_j||.  Raises MatrixNotSPDError when the
    factorization breaks down, SolverFailureError (with the largest column
    residual) when a column misses the test.  ``callback(0, rnorm)`` sees
    the largest column residual norm.
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
    live = np.flatnonzero(bnorm > 0.0)
    if live.size == 0:
        return x.reshape(b.shape)
    if factor is None:
        factor = BlockCholesky(A)
    B = B if live.size == B.shape[1] else B[:, live]
    xl = factor.solve(B)
    r = B - A @ xl
    rnorm = np.sqrt(_dots(r, r))
    if callback is not None:
        callback(0, float(rnorm.max()))
    scale = factor.anorm * np.sqrt(_dots(xl, xl)) + bnorm[live]
    if not np.all(rnorm <= SOLVER_TOL * scale):
        raise SolverFailureError(
            f"solve not certified: backward error {np.max(rnorm / scale):.3e}"
            f" above {SOLVER_TOL:g}", residual=float(rnorm.max()))
    x[:, live] = xl
    return x.reshape(b.shape)
