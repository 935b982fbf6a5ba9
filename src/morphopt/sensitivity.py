"""Adjoint gradients of the reduced objective.

The gradients returned here are the exact derivatives of the discretized
objective with respect to the nodal coefficients (discretize-then-
differentiate): every quadrature rule used by the assembly is
differentiated consistently, so central finite differences of
``Evaluation(...).breakdown.total`` agree to the float rounding floor.

An :class:`Evaluation` does the work of one point (design, stimulus) once:
one stiffness and its factor, one blocked state solve for all cases, one
blocked adjoint solve, one link solve when the link energy is on, and one
gradient, which computes the strains of every u_j and lambda_j once.  The
quadrature samples (rho2, rho3 and every s_j at the degree-4 points, the
three phase densities at the degree-2 points) and the design-only
objective terms (perimeter and volume) are kept on the design and
stimulus fields, so the assembly, the objective and both gradients share
them, and so do all evaluations that share a field: every trial of a line
search shares its stimulus, and ``Evaluation.at_stimulus`` its design.

Design sensitivity (direction phi restricted to nodal hat functions,
with the void chain rule phi1 = -phi2 - phi3):

  alpha * dP_eps + (nu2 phi2 + nu3 phi3)
  + sum_j sum_i a'(rho_i) C_i (e(u_j) - beta_i s_j I) : e(lambda_j) phi_i
  + dQ/drho . phi

Stimulus sensitivity per case j:

  - sum_i a(rho_i) beta_i C_i I : e(lambda_j) + dQ/ds_j

both with the multiplier convention K lambda_j = M0 (ubar_j - u_j).

With the link switch on, the design sensitivity gains the self-adjoint
compliance term  - link_weight sum_j int k'(rho2 + rho3) C_link e(v_j) : e(v_j)
(phi2 + phi3)  of the link displacements v_j; the stimulus sensitivity is
unchanged.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature
from .elasticity import (LINK_MATERIAL, element_strains,
                         link_stiffness_derivative, solve_adjoint, solve_link,
                         solve_state)
from .fields import check_nodal
from .functional import (multiwell_derivative, p1_gradient, stimulus_squares,
                         total)
from .linsolve import SOLVER_TOL
from .materials import interp, interp_derivative


@dataclass
class Gradient:
    g_rho2: np.ndarray
    g_rho3: np.ndarray
    g_s: np.ndarray  # (n_cases, n_nodes)


def perimeter_design_grad(mesh, design, epsilon):
    """Gradient of the perimeter energy (not yet weighted by alpha)."""
    tri = mesh.triangles
    r2q, r3q = design.samples(mesh)
    w1 = multiwell_derivative(1.0 - r2q - r3q)
    w2 = multiwell_derivative(r2q)
    w3 = multiwell_derivative(r3q)
    scale = mesh.areas / epsilon
    g2 = np.zeros(mesh.n_nodes)
    g3 = np.zeros(mesh.n_nodes)
    quadrature.add_hat_integrals(g2, tri, w2 - w1, quadrature.TRI_DEG4, scale)
    quadrature.add_hat_integrals(g3, tri, w3 - w1, quadrature.TRI_DEG4, scale)

    gr2 = p1_gradient(mesh, design.rho2)
    gr3 = p1_gradient(mesh, design.rho3)
    gr1 = -gr2 - gr3
    c = 2.0 * epsilon * mesh.areas
    for g, gr in ((g2, gr2), (g3, gr3)):
        np.add.at(g, tri.ravel(), (c[:, None] * np.einsum(
            "md,mad->ma", gr - gr1, mesh.grads)).ravel())
    return g2, g3


def q_design_grad(mesh, design, stimulus):
    """Gradient of the stimulus penalty with respect to the densities."""
    r2q, r3q = design.samples(mesh)
    r1q = 1.0 - r2q - r3q
    s2 = stimulus_squares(mesh, stimulus)
    g2 = np.zeros(mesh.n_nodes)
    g3 = np.zeros(mesh.n_nodes)
    quadrature.add_hat_integrals(g2, mesh.triangles, 2.0 * (r2q - r1q) * s2,
                                 quadrature.TRI_DEG4, mesh.areas)
    quadrature.add_hat_integrals(g3, mesh.triangles, -2.0 * r1q * s2,
                                 quadrature.TRI_DEG4, mesh.areas)
    return g2, g3


def _strains(mesh, fields):
    return [element_strains(mesh, f) for f in fields]


def elasticity_design_grad(mesh, design, stimulus, state, lambdas, phases,
                           strains=None):
    """sum_j sum_i a'(rho_i) C_i (e(u_j) - beta_i s_j I) : e(lambda_j) phi_i
    (``strains``: the element strains of lambdas, computed here unless
    given)."""
    mats, resp = phases.as_tuple(), phases.responsive
    tri = mesh.triangles
    r3 = quadrature.TRI_DEG2
    r6 = quadrature.TRI_DEG4
    da3 = interp_derivative(design.phase_samples(mesh))
    da6 = interp_derivative(design.samples(mesh)[1])
    # sign of phi_i in the chain rule phi1 = -phi2 - phi3
    signs = ((-1.0, -1.0), (1.0, 0.0), (0.0, 1.0))
    if strains is None:
        strains = _strains(mesh, lambdas)

    g2 = np.zeros(mesh.n_nodes)
    g3 = np.zeros(mesh.n_nodes)
    for u_j, el, sq6 in zip(state.u, strains, stimulus.samples(mesh)):
        eu = element_strains(mesh, u_j)
        inner = np.einsum("mxy,mxy->m", eu, el)
        tru = eu[:, 0, 0] + eu[:, 1, 1]
        trl = el[:, 0, 0] + el[:, 1, 1]
        for i, mat in enumerate(mats):
            cval = 2.0 * mat.lame_mu * inner + mat.lame_lambda * tru * trl
            for g, sign in zip((g2, g3), signs[i]):
                if sign:
                    quadrature.add_hat_integrals(g, tri, da3[i], r3,
                                                 sign * (mesh.areas * cval))
        # the stimulus load: beta_i = 0 except in the responsive phase
        lval = resp.beta * 2.0 * resp.bulk * trl
        quadrature.add_hat_integrals(g3, tri, da6 * sq6, r6,
                                     -(mesh.areas * lval))
    return g2, g3


def link_design_grad(mesh, design, link):
    """Gradient of the link energy; it is the same for rho2 and rho3
    (``link``: solve_link's (v_j, f_j) at this design)."""
    rule = quadrature.TRI_DEG4
    mq = quadrature.at_quadrature_points(design.rho2 + design.rho3,
                                         mesh.triangles, rule)
    dk = link_stiffness_derivative(mq)
    g = np.zeros(mesh.n_nodes)
    for v in link[0]:
        e = element_strains(mesh, v.reshape(-1, 2))
        tr = e[:, 0, 0] + e[:, 1, 1]
        energy = (2.0 * LINK_MATERIAL.lame_mu * np.einsum("mxy,mxy->m", e, e)
                  + LINK_MATERIAL.lame_lambda * tr * tr)
        quadrature.add_hat_integrals(g, mesh.triangles, dk, rule,
                                     -(mesh.areas * energy))
    return g


def grad_design(mesh, design, stimulus, state, lambdas, phases, params,
                link=None, strains=None):
    """Full design gradient (g_rho2, g_rho3) of the reduced objective
    (``link`` as in :func:`link_design_grad`, needed when link_weight > 0;
    ``strains`` as in :func:`elasticity_design_grad`)."""
    check_nodal(mesh, design.rho2, "rho2")
    p2, p3 = perimeter_design_grad(mesh, design, params.epsilon)
    q2, q3 = q_design_grad(mesh, design, stimulus)
    e2, e3 = elasticity_design_grad(mesh, design, stimulus, state, lambdas,
                                    phases, strains)
    lumped = mesh.lumped_node_areas()
    g2 = params.alpha * p2 + params.nu2 * lumped + q2 + e2
    g3 = params.alpha * p3 + params.nu3 * lumped + q3 + e3
    if params.link_weight:
        g_link = params.link_weight * link_design_grad(mesh, design, link)
        g2 = g2 + g_link
        g3 = g3 + g_link
    return g2, g3


def grad_stimulus(mesh, design, stimulus, lambdas, phases, strains=None):
    """Stimulus gradient, one nodal array per load case (``strains``: the
    element strains of lambdas, computed here unless given)."""
    resp = phases.responsive
    tri = mesh.triangles
    rule = quadrature.TRI_DEG4
    r2q, r3q = design.samples(mesh)
    a3q = interp(r3q)
    bq = (1.0 - r2q - r3q) ** 2 + r2q ** 2
    if strains is None:
        strains = _strains(mesh, lambdas)

    out = np.zeros((stimulus.n_cases, mesh.n_nodes))
    for out_j, el, sq in zip(out, strains, stimulus.samples(mesh)):
        trl = el[:, 0, 0] + el[:, 1, 1]
        coef = resp.beta * 2.0 * resp.bulk * trl
        quadrature.add_hat_integrals(out_j, tri, a3q, rule, -(mesh.areas * coef))
        quadrature.add_hat_integrals(out_j, tri, 2.0 * bq * sq, rule,
                                     mesh.areas)
    return out


class Evaluation:
    """The reduced objective at one point (design, stimulus).

    K is assembled and factored and the states are solved once, and the
    link problem once when the link energy is on; the adjoints and the
    gradient are computed the first time they are asked for.
    ``at_stimulus`` evaluates a new stimulus on the same design, reusing K,
    its factor, the link solution and everything kept on the design.
    ``release`` drops the factor, the largest thing an Evaluation holds,
    and what is kept on the design; a later use recomputes them.
    """

    def __init__(self, mesh, design, stimulus, phases, params, targets,
                 tol=SOLVER_TOL, operator=None, factor=None, link=None):
        self.mesh, self.design, self.stimulus = mesh, design, stimulus
        self.phases, self.params, self.targets = phases, params, targets
        self.tol = tol
        # the link factor is gone before the state's is built
        if link is None and params.link_weight:
            link = solve_link(mesh, design, targets)
        self.link = link
        self.state = solve_state(mesh, design, phases, stimulus, tol=tol,
                                 operator=operator, factor=factor)
        self.breakdown = total(mesh, design, stimulus, self.state.u, targets,
                               params, link)

    def at_stimulus(self, stimulus):
        return Evaluation(self.mesh, self.design, stimulus, self.phases,
                          self.params, self.targets, self.tol,
                          self.state.operator, self.state.factor, self.link)

    def release(self):
        self.state.factor = None
        self.design.forget()

    @cached_property
    def lambdas(self):
        return solve_adjoint(self.mesh, self.state, self.targets, tol=self.tol)

    @cached_property
    def gradient(self):
        # the adjoint strains serve both gradients
        strains = _strains(self.mesh, self.lambdas)
        g2, g3 = grad_design(self.mesh, self.design, self.stimulus, self.state,
                             self.lambdas, self.phases, self.params, self.link,
                             strains)
        gs = grad_stimulus(self.mesh, self.design, self.stimulus, self.lambdas,
                           self.phases, strains)
        return Gradient(g2, g3, gs)

