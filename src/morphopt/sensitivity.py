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
states, adjoints and link fields are one array each, case axis first, and
their strains come from one gradient-operator product per array.  The
quadrature samples (rho2, rho3 and every s_j at the degree-4 points, the
three phase densities at the degree-2 points), the density gradients D
[rho2, rho3], sum_j s_j^2 at the degree-4 points and the design-only
objective terms (perimeter and volume) are kept on the design and
stimulus fields, so the assembly, the objective and both gradients share
them, and so do all evaluations that share a field: every trial of a line
search shares its stimulus, and ``Evaluation.at_stimulus`` its design.

Each gradient term sums its integrands over the load cases and the phases
first, applies the void chain rule to the sums, and then scatters once:
one :func:`morphopt.quadrature.hat_integrals` or one product with the
transpose of the mesh's gradient operator, with both densities, or all
cases, as the lanes or columns of that scatter.  A
gradient makes six scatters for any number of cases, seven with the link
energy on.

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

from .elasticity import (LINK_MATERIAL, element_strains,
                         link_stiffness_derivative, solve_adjoint, solve_link,
                         solve_state)
from .fields import check_nodal, check_targets
from .functional import multiwell_derivative, stimulus_weight, total
from .materials import interp, interp_derivative
from .quadrature import TRI_DEG2, TRI_DEG4, hat_integrals


@dataclass
class Gradient:
    g_rho2: np.ndarray
    g_rho3: np.ndarray
    g_s: np.ndarray  # (n_cases, n_nodes)


def perimeter_design_grad(mesh, design, epsilon):
    """Gradient of the perimeter energy (not yet weighted by alpha), the
    rho2 and rho3 rows of a (2, n_nodes) array."""
    r2q, r3q = design.samples(mesh)
    w1 = multiwell_derivative(1.0 - r2q - r3q)
    well = hat_integrals(mesh, TRI_DEG4, np.stack(
        [multiwell_derivative(r2q) - w1, multiwell_derivative(r3q) - w1]),
        mesh.areas / epsilon)
    # 2 eps int D(rho_i - rho1) . D phi_i, both densities as two columns
    grads = design.gradients(mesh)                               # (2M, 2)
    gr1 = -grads[:, 0] - grads[:, 1]
    c = np.repeat(2.0 * epsilon * mesh.areas, 2)
    return well + (mesh.gradient_operator().T
                   @ (c[:, None] * (grads - gr1[:, None]))).T


def q_design_grad(mesh, design, stimulus):
    """Gradient of the stimulus penalty with respect to the densities, as
    in :func:`perimeter_design_grad`."""
    r2q, r3q = design.samples(mesh)
    r1q = 1.0 - r2q - r3q
    s2 = stimulus.squares(mesh)
    return hat_integrals(mesh, TRI_DEG4,
                         np.stack([2.0 * (r2q - r1q) * s2, -2.0 * r1q * s2]),
                         mesh.areas)


def _traces(strains):
    """tr e of every case and triangle, (n_cases, n_tri)."""
    return strains[..., 0, 0] + strains[..., 1, 1]


def elasticity_design_grad(mesh, design, stimulus, state, strains, phases):
    """sum_j sum_i a'(rho_i) C_i (e(u_j) - beta_i s_j I) : e(lambda_j) phi_i
    as in :func:`perimeter_design_grad` (``strains``: the
    (n_cases, n_tri, 2, 2) element strains of the adjoints lambda_j)."""
    mats = phases.as_tuple()
    eu = element_strains(mesh, state.u)
    trl = _traces(strains)
    # C_i e(u_j) : e(lambda_j) summed over the cases, one row per phase i
    mu = np.array([[mat.lame_mu] for mat in mats])
    lam = np.array([[mat.lame_lambda] for mat in mats])
    cval = (2.0 * mu * np.einsum("jmxy,jmxy->m", eu, strains)
            + lam * np.einsum("jm,jm->m", _traces(eu), trl))
    # phases 2 and 3 minus the void, by the chain rule phi1 = -phi2 - phi3
    da3 = interp_derivative(design.phase_samples(mesh)) * cval[:, :, None]
    g = hat_integrals(mesh, TRI_DEG2, da3[1:] - da3[0], mesh.areas)
    # the stimulus load: beta_i = 0 except in the responsive phase
    lval = np.einsum("jmq,jm->mq", stimulus.samples(mesh), trl)
    g[1] -= hat_integrals(mesh, TRI_DEG4,
                          interp_derivative(design.samples(mesh)[1]) * lval,
                          phases.responsive.stimulus_stress * mesh.areas)[0]
    return g


def link_design_grad(mesh, design, link):
    """Gradient of the link energy; it is the same for rho2 and rho3
    (``link``: solve_link's (V, F) at this design)."""
    r2q, r3q = design.samples(mesh)
    e = element_strains(mesh, link[0].reshape(len(link[0]), -1, 2))
    tr = _traces(e)
    energy = (2.0 * LINK_MATERIAL.lame_mu * np.einsum("jmxy,jmxy->m", e, e)
              + LINK_MATERIAL.lame_lambda * np.einsum("jm,jm->m", tr, tr))
    return -hat_integrals(mesh, TRI_DEG4,
                          link_stiffness_derivative(r2q + r3q),
                          mesh.areas * energy)[0]


def grad_design(mesh, design, stimulus, state, strains, phases, params,
                link=None):
    """Full design gradient (g_rho2, g_rho3) of the reduced objective
    (``strains`` as in :func:`elasticity_design_grad`; ``link`` as in
    :func:`link_design_grad`, needed when link_weight > 0)."""
    check_nodal(mesh, design.rho2, "rho2")
    nu = np.array([[params.nu2], [params.nu3]])
    g = (params.alpha * perimeter_design_grad(mesh, design, params.epsilon)
         + nu * mesh.lumped_node_areas()
         + q_design_grad(mesh, design, stimulus)
         + elasticity_design_grad(mesh, design, stimulus, state, strains,
                                  phases))
    if params.link_weight:
        g = g + params.link_weight * link_design_grad(mesh, design, link)
    return g[0], g[1]


def grad_stimulus(mesh, design, stimulus, strains, phases):
    """Stimulus gradient, one nodal array per load case (``strains`` as in
    :func:`elasticity_design_grad`)."""
    r2q, r3q = design.samples(mesh)
    bq = stimulus_weight(r2q, r3q)
    coef = phases.responsive.stimulus_stress * _traces(strains)      # (k, M)
    return hat_integrals(mesh, TRI_DEG4, 2.0 * bq * stimulus.samples(mesh)
                         - interp(r3q) * coef[:, :, None], mesh.areas)


class Evaluation:
    """The reduced objective at one point (design, stimulus).

    K is assembled and factored and the states are solved once, and the
    link problem once when the link energy is on; the adjoints and the
    gradient are computed the first time they are asked for.
    ``at_stimulus`` evaluates a new stimulus on the same design, reusing K,
    its factor, the link solution and everything kept on the design.
    ``release`` drops the factor, the largest thing an Evaluation holds,
    and what is kept on the design; the adjoints then cannot be solved.
    ``terms``, the fields' ``functional.state_free_terms`` when already
    computed, are reused by the objective.
    """

    def __init__(self, mesh, design, stimulus, phases, params, targets,
                 operator=None, factor=None, link=None, terms=None):
        self.mesh, self.design, self.stimulus = mesh, design, stimulus
        self.phases, self.params = phases, params
        self.targets = check_targets(targets, stimulus.n_cases)
        # the link factor is gone before the state's is built
        if link is None and params.link_weight:
            link = solve_link(mesh, design, self.targets)
        self.link = link
        self.state = solve_state(mesh, design, phases, stimulus,
                                 operator=operator, factor=factor)
        self.breakdown = total(mesh, design, stimulus, self.state.u,
                               self.targets, params, link, terms)

    def at_stimulus(self, stimulus):
        return Evaluation(self.mesh, self.design, stimulus, self.phases,
                          self.params, self.targets, self.state.operator,
                          self.state.factor, self.link)

    def release(self):
        self.state.factor = None
        self.design.forget()

    @cached_property
    def lambdas(self):
        return solve_adjoint(self.mesh, self.state, self.targets)

    @cached_property
    def gradient(self):
        # the adjoint strains serve both gradients
        strains = element_strains(self.mesh, self.lambdas)
        g2, g3 = grad_design(self.mesh, self.design, self.stimulus, self.state,
                             strains, self.phases, self.params, self.link)
        gs = grad_stimulus(self.mesh, self.design, self.stimulus, strains,
                           self.phases)
        return Gradient(g2, g3, gs)

