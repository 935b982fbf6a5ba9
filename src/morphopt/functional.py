"""Every term of the total objective and the multi-well perimeter energy.

total = tracking + alpha * perimeter + volume_penalty + stimulus_penalty
        [+ link_weight * link]

The bracketed link energy is a switch, off by default (link_weight = 0):
the compliance  sum_j f_j . v_j  of a virtual elastic body (see
:mod:`morphopt.elasticity`) whose stiffness is the material density's,
loaded on the target region along the target displacements.  Only
material linked through material to the clamp keeps it small; a target
region left to the void makes it of order 1/LINK_FLOOR, and soft links
make it large, so the tracked target must be carried by a structure.

Quadrature choices (all exact for their integrands):
  tracking        closed-form P1 mass integration on target elements
  multi-well term 6-point degree-4 rule (quartic per element)
  gradient term   piecewise-constant gradients, integrated exactly
  volume penalty  nodal lumping (linear integrand, exact)
  stimulus term   6-point degree-4 rule (quartic per element)
  link term       f_j . v_j with exact loads and the degree-4 rule in K_link
"""

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import quadrature
from .errors import InvalidParameterError
from .fields import check_nodal, check_targets


@dataclass(frozen=True)
class RegularizationParams:
    """Phase-field length, perimeter weight, and penalty factors."""

    epsilon: float
    alpha: float
    nu2: float
    nu3: float
    link_weight: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise InvalidParameterError(
                    f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {self.alpha}")
        for name in ("nu2", "nu3", "link_weight"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(
                    f"{name} must be >= 0, got {getattr(self, name)}")

    def warn_if_unresolved(self, cell_size):
        if self.epsilon < cell_size:
            warnings.warn(
                f"epsilon = {self.epsilon} is below the cell size {cell_size}; "
                "the diffuse interface is unresolved", RuntimeWarning)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    tracking: float
    perimeter: float
    volume_penalty: float
    stimulus_penalty: float
    total: float
    link: float = 0.0


def tracking(mesh, state_u, targets):
    """sum_j (1/2) int_{target} |u_j - ubar_j|^2 of the (n_cases, n_nodes, 2)
    displacements, exact P1 mass quadrature.

    For a P1 misfit w the element integral is
    (A/6) * (w1.w1 + w2.w2 + w3.w3 + w1.w2 + w2.w3 + w1.w3).
    """
    u = np.asarray(state_u)
    check_nodal(mesh, u[0], "displacement")
    w = u - check_targets(targets, len(u))[:, None, :]
    te = mesh.target_elements
    we = w[:, mesh.triangles[te]]                                # (k, Mt, 3, 2)
    # C order and one sum per case keep each case's order of additions
    dots = np.einsum("jmax,jmbx->jmab", we, we, order="C")
    diag = np.trace(dots, axis1=2, axis2=3)
    off = 0.5 * (dots.sum(axis=(2, 3)) - diag)
    return sum(0.5 * float(np.sum(v))
               for v in mesh.areas[te] / 6.0 * (diag + off))


def multiwell(rho1, rho2, rho3):
    """W(rho) = sum_i rho_i^2 (1 - rho_i)^2; zero only at simplex vertices."""
    total = 0.0
    for r in (rho1, rho2, rho3):
        r = np.asarray(r, dtype=float)
        total = total + r * r * (1.0 - r) ** 2
    return total


def multiwell_derivative(rho):
    """W'(t) = 2 t (1 - t)(1 - 2t) applied componentwise."""
    r = np.asarray(rho, dtype=float)
    return 2.0 * r * (1.0 - r) * (1.0 - 2.0 * r)


def stimulus_weight(rho2, rho3):
    """B(rho) = (1 - rho2 - rho3)^2 + rho2^2, the weight of sum_j s_j^2 in
    the stimulus penalty."""
    return (1.0 - rho2 - rho3) ** 2 + rho2 ** 2


def perimeter_terms(mesh, design):
    """The two epsilon-free integrals of the perimeter energy.

    Returns (well_integral, gradient_integral) with
    perimeter = well_integral / eps + eps * gradient_integral.
    They are design-only, so they are kept on the design.
    """
    check_nodal(mesh, design.rho2, "rho2")

    def compute():
        r2q, r3q = design.samples(mesh)
        wq = multiwell(1.0 - r2q - r3q, r2q, r3q)
        well = float(np.sum(quadrature.element_integrals(
            wq, quadrature.TRI_DEG4, mesh.areas)))

        g2, g3 = (g.reshape(-1, 2) for g in design.gradients(mesh).T)
        g1 = -g2 - g3
        sq = np.einsum("md,md->m", g1, g1) + np.einsum("md,md->m", g2, g2) \
            + np.einsum("md,md->m", g3, g3)
        return well, float(np.sum(sq * mesh.areas))
    return design.derived(mesh, "perimeter_terms", compute)


def perimeter_energy(mesh, design, epsilon):
    """Multi-well phase-field perimeter  int W(rho)/eps + eps |D rho|^2."""
    if epsilon <= 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    well, grad = perimeter_terms(mesh, design)
    return well / epsilon + epsilon * grad


def _volumes(mesh, design):
    """(int rho2, int rho3), exact for P1 densities; kept on the design."""
    lumped = mesh.lumped_node_areas()
    return design.derived(mesh, "volumes", lambda: (
        np.dot(lumped, design.rho2), np.dot(lumped, design.rho3)))


def volume_penalty(mesh, design, nu2, nu3):
    """nu2 int rho2 + nu3 int rho3, exact for P1 densities."""
    v2, v3 = _volumes(mesh, design)
    return float(nu2 * v2 + nu3 * v3)


def volume_fractions(mesh, design):
    """Achieved volume fractions (int rho2 / |domain|, int rho3 / |domain|)."""
    v2, v3 = _volumes(mesh, design)
    return float(v2) / mesh.area, float(v3) / mesh.area


def stimulus_penalty(mesh, design, stimulus):
    """int B(rho) sum_j s_j^2, B as in :func:`stimulus_weight`."""
    check_nodal(mesh, stimulus.s.T, "stimulus")
    return float(np.sum(quadrature.element_integrals(
        stimulus_weight(*design.samples(mesh)) * stimulus.squares(mesh),
        quadrature.TRI_DEG4, mesh.areas)))


def link_energy(link):
    """Link compliance  sum_j f_j . v_j  of the virtual elastic body
    (``link``: the (V, F) that elasticity.solve_link returns)."""
    vs, loads = link
    return float(sum(np.dot(f, v) for f, v in zip(loads, vs)))


def state_free_terms(mesh, design, stimulus, params):
    """(perimeter, volume_penalty, stimulus_penalty): the terms of
    :func:`total` that need no state."""
    return (perimeter_energy(mesh, design, params.epsilon),
            volume_penalty(mesh, design, params.nu2, params.nu3),
            stimulus_penalty(mesh, design, stimulus))


def lower_bound(terms, params):
    """total's value with a zero tracking term and no link energy, for the
    :func:`state_free_terms` ``terms``, added in total's order.  Tracking
    is a sum of non-negative element terms and rounded addition is
    monotone, so with link_weight = 0 this never exceeds total's value at
    the same fields."""
    perim, vol, stim = terms
    return 0.0 + params.alpha * perim + vol + stim


def total(mesh, design, stimulus, state_u, targets, params, link=None,
          terms=None):
    """Full objective breakdown at given fields (``link`` as in
    :func:`link_energy`, needed when link_weight > 0; ``terms``: the
    fields' :func:`state_free_terms`, computed here when omitted)."""
    track = tracking(mesh, state_u, targets)
    perim, vol, stim = terms or state_free_terms(mesh, design, stimulus,
                                                 params)
    value = track + params.alpha * perim + vol + stim
    energy = 0.0
    if params.link_weight:
        energy = link_energy(link)
        value += params.link_weight * energy
    return ObjectiveBreakdown(track, perim, vol, stim, value, energy)
