"""State and adjoint solves for the density-interpolated elasticity system.

The weak form is  sum_i  int a(rho_i) C_i (e(u_j) - beta_i s_j I) : e(phi) = 0
for every test field phi vanishing on the clamped boundary.  The stiffness
integrand is quadratic per element and is integrated with the 3-point
degree-2 rule; the stimulus load integrand is cubic (a(rho) times the P1
stimulus) and uses the 6-point degree-4 rule.  Exactness of both rules is
a tested property, not an assumption.

The adjoint problem reuses the state operator (it is self-adjoint) with
the tracking-misfit load M0 (ubar_j - u_j); this is the Lagrange
multiplier convention under which the sensitivity formulas in
:mod:`morphopt.sensitivity` are the exact derivatives of the discrete
objective.

The link problem is the optional virtual elastic body behind the link
energy of :mod:`morphopt.functional`: the unit material LINK_MATERIAL,
scaled by  k(m) = LINK_FLOOR + (1 - LINK_FLOOR) m^LINK_POWER  of the
material density m = rho2 + rho3, clamped like the state and loaded on
the target region by M0 ubar_j.  Its stiffness integrand has degree
LINK_POWER per element and uses the degree-4 rule, so it is exact.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .errors import InvalidParameterError
from .fields import check_nodal, check_targets
from .linsolve import (BlockCholesky, LevelBlocks, cheapest_level_structure,
                       connected_pieces, solve_spd)
from .materials import Material, interp

# the virtual material of the link problem and its void stand-in
LINK_MATERIAL = Material(1.0, 0.3)
LINK_FLOOR = 1e-4
LINK_POWER = 4


def point_constraint_dofs(constraints):
    """Dofs for test-mode point constraints given (node, component) pairs."""
    if any(c not in (0, 1) for _, c in constraints):
        raise InvalidParameterError("constraint component must be 0 or 1")
    return np.sort(np.array([2 * n + c for n, c in constraints], dtype=np.int64))


def element_strains(mesh, u):
    """Constant strain tensor of every triangle, (n_tri, 2, 2) for a nodal
    (n, 2) field and (k, n_tri, 2, 2) for k fields (k, n, 2), all from one
    product with the gradient operator."""
    u = np.asarray(u)
    # (n, 2, k); its (n, 2k) reshape is a view of the blocked solve's result
    cases = np.moveaxis(u, 0, -1) if u.ndim == 3 else u[..., None]
    X = check_nodal(mesh, cases, "displacement")
    # [c, m, j, i] = d u_i / d x_j of case c
    grad = np.moveaxis((mesh.gradient_operator() @ X.reshape(mesh.n_nodes, -1))
                       .reshape(-1, 2, 2, X.shape[2]), -1, 0)
    # C order, so sums over the strains add in the same order for any k
    e = np.ascontiguousarray(0.5 * (np.swapaxes(grad, 2, 3) + grad))
    return e if u.ndim == 3 else e[0]


def assemble_stiffness(mesh, design, phases, fixed_dofs):
    """Global stiffness K = sum_T int sum_i a(rho_i) C_i e(.) : e(.).

    The rows/columns of ``fixed_dofs`` are eliminated symmetrically and
    replaced by a unit diagonal, so the operator stays SPD on the free
    subspace.
    """
    check_nodal(mesh, design.rho2, "rho2")
    abar = quadrature.element_integrals(                          # (3, M)
        interp(design.phase_samples(mesh)), quadrature.TRI_DEG2, mesh.areas)
    mats = phases.as_tuple()
    wmu = sum(abar[i] * mats[i].lame_mu for i in range(3))           # (M,)
    wlam = sum(abar[i] * mats[i].lame_lambda for i in range(3))
    return _operator_map(mesh, fixed_dofs).assemble(wmu, wlam)


class _OperatorMap:
    """The stiffness pattern of one mesh and one set of fixed dofs.

    K is linear in the per-element Lame weights: entry e of element m adds
    ``wmu[m] tables[0, s, e] + wlam[m] tables[1, s, e]`` to CSR slot
    ``eslot[36 m + e]``, where s = ``shape_of[m]`` names the element's
    unit-mu and unit-lambda tables, one pair per distinct gradient set, and
    the fixed diagonal is 1.  Entries in a fixed row or column go to a spare
    slot past the pattern, so the elimination is built into it.  ``blocks``
    place the pattern in the breadth-first level order of the mesh's node
    graph, both dofs of a node in its level.  The levels are rooted where
    the factor's cost model is least (``linsolve.cheapest_level_structure``)
    among a pseudo-peripheral node, each connected piece of the clamped
    nodes and all of them; ``root`` names the one taken.
    """

    def __init__(self, mesh, fixed_dofs):
        tri, nn, m = mesh.triangles, mesh.n_nodes, mesh.n_triangles
        n = 2 * nn
        fixed = np.zeros(n, dtype=bool)
        fixed[fixed_dofs] = True
        # element entry e = 6i + j = (2a + xa) * 6 + 2b + yb couples the
        # dofs edof[i], edof[j]; its key row * n + col sorts in CSR order.
        # Entries in a fixed row or column take the key n * n, which sorts
        # last onto the spare slot nnz; the appended fixed-diagonal keys
        # give fixed_slots
        edof = (2 * tri[:, :, None] + [0, 1]).reshape(m, 6)
        keys = n * edof[:, :, None] + edof[:, None, :]
        on_fixed = fixed[edof]
        keys[on_fixed[:, :, None] | on_fixed[:, None, :]] = n * n
        keys, slots = np.unique(
            np.concatenate([keys.ravel(), fixed_dofs * (n + 1), [n * n]]),
            return_inverse=True)
        row, col = np.divmod(keys[:-1], n)
        self.shape = (n, n)
        self.indices = col.astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(row, minlength=n))]).astype(np.int32)
        self.fixed_slots = slots[36 * m:-1].copy()
        self.eslot = slots[:36 * m].astype(np.int32)

        # unit-weight entries in the order e above, one table per gradient
        # set: rows of mesh.grads compared by their bytes, so -0.0 != 0.0
        shapes, shape_of = np.unique(mesh.grads.reshape(m, 6).view(np.int64),
                                     axis=0, return_inverse=True)
        self.shape_of = shape_of.ravel().astype(np.int32)
        G = shapes.view(np.float64).reshape(-1, 3, 2)
        self.tables = mu, lam = np.empty((2, len(G), 36))
        for a in range(3):
            for b in range(3):
                gg = G[:, a, 0] * G[:, b, 0] + G[:, a, 1] * G[:, b, 1]
                for xa in range(2):
                    for yb in range(2):
                        e = (2 * a + xa) * 6 + 2 * b + yb
                        mu[:, e] = (G[:, a, yb] * G[:, b, xa]
                                    + (gg if xa == yb else 0.0))
                        lam[:, e] = G[:, a, xa] * G[:, b, yb]

        # the node graph and the candidate roots of its levels
        pairs = np.unique((tri[:, :, None] * nn + tri[:, None, :]).ravel())
        row_node, col_node = np.divmod(pairs, nn)
        node_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(row_node, minlength=nn))])
        clamped = np.unique(fixed_dofs // 2)
        pieces = connected_pieces(node_ptr, col_node, clamped)
        candidates = {"peripheral": None}
        candidates.update((f"clamped piece {i}", piece)
                          for i, piece in enumerate(pieces))
        if len(pieces) > 1:
            candidates["clamped"] = clamped
        self.root, node_order, node_levels = cheapest_level_structure(
            node_ptr, col_node, candidates, unknowns=2)
        self.blocks = LevelBlocks(
            self.indptr, self.indices,
            np.column_stack([2 * node_order, 2 * node_order + 1]).ravel(),
            2 * node_levels)

    def assemble(self, wmu, wlam):
        # each element's entries, taken from its shape's table into one
        # buffer per call (mode "clip" lets take write it unbuffered), times
        # the weights in a mat-vec with one column per element: the sums of
        # the per-element S_mu @ wmu + S_lam @ wlam, bit for bit
        m, nnz = len(self.shape_of), len(self.indices)
        entries = np.empty((m, 36))
        col_ptr = np.arange(0, 36 * m + 1, 36, dtype=np.int32)
        sums = []
        for table, w in zip(self.tables, (wmu, wlam)):
            np.take(table, self.shape_of, axis=0, out=entries, mode="clip")
            sums.append(sp.csc_matrix((entries.ravel(), self.eslot, col_ptr),
                                      shape=(nnz + 1, m)) @ w)
        data = (sums[0] + sums[1])[:-1]
        data[self.fixed_slots] = 1.0
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _operator_map(mesh, fixed_dofs):
    """The mesh's _OperatorMap for ``fixed_dofs``, built on first use."""
    fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
    if fixed_dofs.size and (fixed_dofs[0] < 0
                            or fixed_dofs[-1] >= 2 * mesh.n_nodes):
        raise InvalidParameterError("fixed dof refers to a nonexistent node")
    key = ("operator", fixed_dofs.tobytes())
    if key not in mesh.cache:
        mesh.cache[key] = _OperatorMap(mesh, fixed_dofs)
    return mesh.cache[key]


def factorize(mesh, K, fixed_dofs):
    """Block Cholesky factor of an operator assembled on ``mesh`` with
    ``fixed_dofs``, in the level order of the mesh's operator map."""
    return BlockCholesky(K, _operator_map(mesh, fixed_dofs).blocks)


def assemble_stimulus_load(mesh, design, phases, stimulus):
    """Load vectors f_j(phi) = int a(rho3) beta3 s_j C3 I : e(phi), one
    column of the (2 n_nodes, n_cases) result per case; the responsive
    phase is the only one with beta != 0 (see PhaseSet).

    For an isotropic phase C3 I : e(phi) = 2 kappa3 div(phi), constant
    per element, so only int a(rho3) s_j needs quadrature (degree 3).
    """
    check_nodal(mesh, stimulus.s.T, "stimulus")
    rule = quadrature.TRI_DEG4
    aw = interp(design.samples(mesh)[1])
    coef = (phases.responsive.stimulus_stress                        # (k, M)
            * ((aw * stimulus.samples(mesh)) @ rule.weights) * mesh.areas)
    # column y k + j of the (2M, 2k) element values is coef_j on rows
    # 2m + y, so D^T scatters coef_j * d phi_a / dx_y to dof 2a + y of case j
    w = (coef.T[:, None, None, :] * np.eye(2)[:, :, None]).reshape(
        2 * mesh.n_triangles, -1)
    return (mesh.gradient_operator().T @ w).reshape(2 * mesh.n_nodes, -1)


def target_mass_apply(mesh, w):
    """Consistent P1 mass product  int_{target} w . phi  for nodal w (n, ...)."""
    w = check_nodal(mesh, w, "misfit")
    out = np.zeros(w.shape)
    te = mesh.target_elements
    tri = mesh.triangles[te]
    we = w[tri]                                                 # (Mt, 3, ...)
    a = mesh.areas[te].reshape((-1,) + (1,) * w.ndim)
    # (M w)_a = (A/12)(2 w_a + w_b + w_c) per target element
    contrib = a / 12.0 * (we + we.sum(axis=1, keepdims=True))
    np.add.at(out, tri.ravel(), contrib.reshape(-1, *w.shape[1:]))
    return out


@dataclass
class StateSolution:
    """Equilibrium displacements (n_cases, n_nodes, 2) plus the operator
    they satisfy and its block Cholesky factor (None once released)."""

    u: np.ndarray
    operator: sp.csr_matrix
    fixed_dofs: np.ndarray
    factor: BlockCholesky = None


def solve_state(mesh, design, phases, stimulus, fixed_dofs=None,
                operator=None, factor=None):
    """Solve the n state problems sharing one stiffness ``operator`` and its
    ``factor``, built here unless given (for this design and ``fixed_dofs``),
    in one blocked solve."""
    if fixed_dofs is None:
        fixed_dofs = mesh.dirichlet_dofs()
    fixed_dofs = np.asarray(fixed_dofs, dtype=np.int64)
    if len(fixed_dofs) == 0:
        raise InvalidParameterError("no Dirichlet constraints: operator is singular")
    if operator is None:
        operator = assemble_stiffness(mesh, design, phases, fixed_dofs)
    F = assemble_stimulus_load(mesh, design, phases, stimulus)
    F[fixed_dofs] = 0.0
    if factor is None:
        factor = factorize(mesh, operator, fixed_dofs)
    X = solve_spd(operator, F, factor=factor)
    u = X.T.reshape(X.shape[1], -1, 2)                   # a view, case first
    return StateSolution(u, operator, fixed_dofs, factor)


def solve_adjoint(mesh, state, targets):
    """Adjoint displacements lambda_j with K lambda_j = M0 (ubar_j - u_j),
    (n_cases, n_nodes, 2), all cases in one blocked solve."""
    if state.factor is None:
        raise InvalidParameterError("the state's factor was released")
    u = state.u
    misfit = check_targets(targets, len(u)).T - u.transpose(1, 2, 0)
    rhs = target_mass_apply(mesh, misfit).reshape(2 * mesh.n_nodes, -1)
    rhs[state.fixed_dofs] = 0.0
    lams = solve_spd(state.operator, rhs, factor=state.factor)
    return lams.T.reshape(lams.shape[1], -1, 2)


def link_stiffness(m):
    """k(m) = LINK_FLOOR + (1 - LINK_FLOOR) m^LINK_POWER."""
    return LINK_FLOOR + (1.0 - LINK_FLOOR) * m ** LINK_POWER


def link_stiffness_derivative(m):
    """dk/dm = LINK_POWER (1 - LINK_FLOOR) m^(LINK_POWER - 1)."""
    return LINK_POWER * (1.0 - LINK_FLOOR) * m ** (LINK_POWER - 1)


def assemble_link_operator(mesh, design):
    """Stiffness of LINK_MATERIAL scaled by k(rho2 + rho3), clamped."""
    check_nodal(mesh, design.rho2, "rho2")
    r2q, r3q = design.samples(mesh)
    kbar = quadrature.element_integrals(link_stiffness(r2q + r3q),
                                        quadrature.TRI_DEG4, mesh.areas)
    return _operator_map(mesh, mesh.dirichlet_dofs()).assemble(
        kbar * LINK_MATERIAL.lame_mu, kbar * LINK_MATERIAL.lame_lambda)


def link_loads(mesh, targets):
    """Target loads M0 ubar_j of the link problem, zero on the clamp, one
    row of the (n_cases, 2 n_nodes) result per target."""
    t = check_targets(targets, len(np.asarray(targets))).T           # (2, k)
    F = target_mass_apply(mesh, np.broadcast_to(t, (mesh.n_nodes, *t.shape)))
    F = F.reshape(2 * mesh.n_nodes, -1)
    F[mesh.dirichlet_dofs()] = 0.0
    return F.T


def solve_link(mesh, design, targets):
    """Displacements V and loads F of the link problem, one row v_j and
    f_j of the (n_cases, 2 n_nodes) arrays per case."""
    K = assemble_link_operator(mesh, design)
    factor = factorize(mesh, K, mesh.dirichlet_dofs())
    F = link_loads(mesh, targets)
    return solve_spd(K, F.T, factor=factor).T, F
