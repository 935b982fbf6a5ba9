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

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .errors import InvalidParameterError
from .fields import check_nodal, target_values
from .linsolve import eliminate_dirichlet_triplets, solve_spd
from .materials import Material, interp

NEAR_SINGULAR_FLOOR = 1e-14
# the virtual material of the link problem and its void stand-in
LINK_MATERIAL = Material(1.0, 0.3)
LINK_FLOOR = 1e-4
LINK_POWER = 4


def point_constraint_dofs(constraints):
    """Dofs for test-mode point constraints given (node, component) pairs."""
    return np.sort(np.array([2 * n + c for n, c in constraints], dtype=np.int64))


def phase_densities(design):
    """Nodal densities (rho1, rho2, rho3) with rho1 substituted."""
    return (design.rho1(), design.rho2, design.rho3)


def element_strains(mesh, u):
    """Constant strain tensor of every triangle for a nodal (n, 2) field."""
    u = check_nodal(mesh, u, "displacement")
    ue = u[mesh.triangles]                                   # (M, 3, 2)
    grad = np.einsum("mai,maj->mij", ue, mesh.grads)         # (M, 2, 2)
    return 0.5 * (grad + np.transpose(grad, (0, 2, 1)))


def _element_edofs(mesh):
    t = mesh.triangles
    edof = np.empty((mesh.n_triangles, 6), dtype=np.int64)
    edof[:, 0::2] = 2 * t
    edof[:, 1::2] = 2 * t + 1
    return edof


def assemble_stiffness(mesh, design, phases, fixed_dofs=None):
    """Global stiffness K = sum_T int sum_i a(rho_i) C_i e(.) : e(.).

    With ``fixed_dofs`` the constrained rows/columns are eliminated
    symmetrically and replaced by a unit diagonal, so the operator stays
    SPD on the free subspace.
    """
    check_nodal(mesh, design.rho2, "rho2")
    rule = quadrature.TRI_DEG2
    aw = np.stack([interp(quadrature.at_quadrature_points(r, mesh.triangles, rule))
                   for r in phase_densities(design)])               # (3, M, nq)
    abar = quadrature.element_integrals(aw, rule, mesh.areas)       # (3, M)
    if np.any(abar.max(axis=0) / mesh.areas < NEAR_SINGULAR_FLOOR):
        warnings.warn("element with all phase weights below 1e-14; "
                      "stiffness is near singular", RuntimeWarning)

    mats = phases.as_tuple()
    wmu = sum(abar[i] * mats[i].lame_mu for i in range(3))           # (M,)
    wlam = sum(abar[i] * mats[i].lame_lambda for i in range(3))
    return _assemble_isotropic(mesh, wmu, wlam, fixed_dofs)


def _assemble_isotropic(mesh, wmu, wlam, fixed_dofs):
    """CSR operator with the per-element integrated Lame weights (wmu, wlam)."""
    G = mesh.grads
    gg = np.einsum("mad,mbd->mab", G, G)                             # (M, 3, 3)
    eye = np.eye(2)
    k_mu = (np.einsum("mab,xy->maxby", gg, eye)
            + np.einsum("may,mbx->maxby", G, G))                     # (M,3,2,3,2)
    k_lam = np.einsum("max,mby->maxby", G, G)
    ke = (wmu[:, None, None, None, None] * k_mu
          + wlam[:, None, None, None, None] * k_lam).reshape(-1, 6, 6)

    edof = _element_edofs(mesh)
    rows = np.repeat(edof, 6, axis=1).ravel()
    cols = np.tile(edof, (1, 6)).ravel()
    vals = ke.ravel()
    n = 2 * mesh.n_nodes
    if fixed_dofs is not None and len(fixed_dofs):
        rows, cols, vals = eliminate_dirichlet_triplets(rows, cols, vals, n, fixed_dofs)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_stimulus_load(mesh, design, phases, s_j):
    """Load vector f(phi) = int a(rho3) beta3 s_j C3 I : e(phi); the
    responsive phase is the only one with beta != 0 (see PhaseSet).

    For an isotropic phase C3 I : e(phi) = 2 kappa3 div(phi), constant
    per element, so only int a(rho3) s_j needs quadrature (degree 3).
    """
    s_j = check_nodal(mesh, s_j, "stimulus")
    rule = quadrature.TRI_DEG4
    aw = interp(quadrature.at_quadrature_points(design.rho3, mesh.triangles, rule))
    sq = quadrature.at_quadrature_points(s_j, mesh.triangles, rule)  # (M, nq)
    resp = phases.responsive
    coef = (resp.beta * 2.0 * resp.bulk * ((aw * sq) @ rule.weights)
            * mesh.areas)
    f = np.zeros(2 * mesh.n_nodes)
    edof = _element_edofs(mesh)
    np.add.at(f, edof.ravel(),
              (coef[:, None, None] * mesh.grads).reshape(-1, 6).ravel())
    return f


def target_mass_apply(mesh, w):
    """Consistent P1 mass product  int_{target} w . phi  for nodal w (n, 2)."""
    w = check_nodal(mesh, w, "misfit")
    out = np.zeros((mesh.n_nodes, 2))
    te = mesh.target_elements
    if len(te) == 0:
        return out
    tri = mesh.triangles[te]
    we = w[tri]                                                      # (Mt, 3, 2)
    a = mesh.areas[te][:, None, None]
    # (M w)_a = (A/12)(2 w_a + w_b + w_c) per target element
    contrib = a / 12.0 * (we + we.sum(axis=1, keepdims=True))
    np.add.at(out, tri.ravel(), contrib.reshape(-1, 2))
    return out


@dataclass
class StateSolution:
    """Equilibrium displacements plus the operator they satisfy."""

    u: list
    operator: sp.csr_matrix
    fixed_dofs: np.ndarray


def _resolve_fixed_dofs(mesh, fixed_dofs):
    if fixed_dofs is None:
        fixed_dofs = mesh.dirichlet_dofs()
    fixed_dofs = np.asarray(fixed_dofs, dtype=np.int64)
    if len(fixed_dofs) == 0:
        raise InvalidParameterError("no Dirichlet constraints: operator is singular")
    return fixed_dofs


def solve_state(mesh, design, phases, stimulus, fixed_dofs=None,
                tol=1e-10, operator=None):
    """Solve the n state problems sharing one stiffness ``operator``,
    assembled here unless given (for this design and ``fixed_dofs``)."""
    fixed_dofs = _resolve_fixed_dofs(mesh, fixed_dofs)
    K = operator
    if K is None:
        K = assemble_stiffness(mesh, design, phases, fixed_dofs=fixed_dofs)
    us = []
    for j in range(stimulus.n_cases):
        f = assemble_stimulus_load(mesh, design, phases, stimulus.s[j])
        f[fixed_dofs] = 0.0
        x = solve_spd(K, f, tol=tol)
        us.append(x.reshape(-1, 2))
    return StateSolution(us, K, fixed_dofs)


def solve_adjoint(mesh, design, phases, state, targets, tol=1e-10):
    """Adjoint displacements lambda_j with K lambda_j = M0 (ubar_j - u_j)."""
    lams = []
    for j, u_j in enumerate(state.u):
        ubar = target_values(targets, j, mesh.n_nodes)
        rhs = target_mass_apply(mesh, ubar - u_j).ravel()
        rhs[state.fixed_dofs] = 0.0
        lam = solve_spd(state.operator, rhs, tol=tol)
        lams.append(lam.reshape(-1, 2))
    return lams


def link_stiffness(m):
    """k(m) = LINK_FLOOR + (1 - LINK_FLOOR) m^LINK_POWER."""
    return LINK_FLOOR + (1.0 - LINK_FLOOR) * m ** LINK_POWER


def link_stiffness_derivative(m):
    """dk/dm = LINK_POWER (1 - LINK_FLOOR) m^(LINK_POWER - 1)."""
    return LINK_POWER * (1.0 - LINK_FLOOR) * m ** (LINK_POWER - 1)


def assemble_link_operator(mesh, design):
    """Stiffness of LINK_MATERIAL scaled by k(rho2 + rho3), clamped."""
    check_nodal(mesh, design.rho2, "rho2")
    rule = quadrature.TRI_DEG4
    mq = quadrature.at_quadrature_points(design.rho2 + design.rho3,
                                         mesh.triangles, rule)
    kbar = quadrature.element_integrals(link_stiffness(mq), rule, mesh.areas)
    return _assemble_isotropic(mesh, kbar * LINK_MATERIAL.lame_mu,
                               kbar * LINK_MATERIAL.lame_lambda,
                               mesh.dirichlet_dofs())


def link_loads(mesh, targets):
    """Target loads M0 ubar_j of the link problem, zero on the clamp."""
    n = mesh.n_nodes
    loads = []
    for j in range(len(np.asarray(targets))):
        ubar = np.broadcast_to(target_values(targets, j, n), (n, 2))
        f = target_mass_apply(mesh, ubar).ravel()
        f[mesh.dirichlet_dofs()] = 0.0
        loads.append(f)
    return loads


def solve_link(mesh, design, targets):
    """Displacements v_j of the link problem with their loads f_j."""
    K = assemble_link_operator(mesh, design)
    loads = link_loads(mesh, targets)
    return [solve_spd(K, f) for f in loads], loads
