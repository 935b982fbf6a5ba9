"""Sparse SPD linear algebra: Jacobi-PCG on scipy CSR matrices and
Dirichlet elimination.

The conjugate-gradient loop is written out explicitly so the iteration is
deterministic (fixed summation order, no threading) and so indefiniteness
is detected through the curvature p'Ap rather than discovered as silent
non-convergence.
"""

import numpy as np

from .errors import InvalidParameterError, MatrixNotSPDError, SolverFailureError


def _dot(a, b):
    # pairwise numpy reduction: deterministic, not delegated to threaded BLAS
    return float(np.sum(a * b))


def eliminate_dirichlet_triplets(rows, cols, vals, n, fixed_dofs):
    """Symmetric elimination at the triplet level: drop every entry in a
    constrained row or column, then put 1 on the constrained diagonal."""
    fixed = np.zeros(n, dtype=bool)
    fixed[np.asarray(fixed_dofs, dtype=np.int64)] = True
    keep = ~(fixed[rows] | fixed[cols])
    rows = np.concatenate([rows[keep], np.nonzero(fixed)[0]])
    cols = np.concatenate([cols[keep], np.nonzero(fixed)[0]])
    vals = np.concatenate([vals[keep], np.ones(int(fixed.sum()))])
    return rows, cols, vals


def solve_spd(A, b, tol=1e-10, maxit=None, callback=None):
    """Jacobi-preconditioned conjugate gradients for an SPD sparse matrix.

    Guarantees ||A x - b|| <= tol * ||b|| on return.  Raises
    MatrixNotSPDError on nonpositive curvature or a nonpositive diagonal,
    SolverFailureError when maxit iterations do not reach the tolerance.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise InvalidParameterError("right-hand side contains non-finite entries")
    n, m = A.shape
    if n != m:
        raise InvalidParameterError("operator must be square")
    if maxit is None:
        maxit = 10 * n
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise MatrixNotSPDError("operator has a nonpositive diagonal entry")
    x = np.zeros(n)
    bnorm = np.sqrt(_dot(b, b))
    target = tol * bnorm
    if bnorm <= target:
        return x
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = _dot(r, z)
    for it in range(maxit):
        q = A @ p
        curvature = _dot(p, q)
        if curvature <= 0.0:
            raise MatrixNotSPDError(
                f"nonpositive curvature p'Ap = {curvature!r} at iteration {it}")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        rnorm = np.sqrt(_dot(r, r))
        if callback is not None:
            callback(it, rnorm)
        if rnorm <= target:
            return x
        z = r / diag
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverFailureError(
        f"PCG did not converge in {maxit} iterations (residual {rnorm:.3e}, "
        f"target {target:.3e})", residual=rnorm, iterations=maxit)
