"""Independent oracles: FD gradient checks, brute-force stimulus search,
and the 1D optimal-profile study of the perimeter coefficient.

These deliberately avoid the production code paths they check: the
brute-force stimulus recomputes tr(e(lambda)) from a boundary integral
(Green's theorem) instead of shape-function gradients, and the 1D profile
energy has its own quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature, sensitivity
from .errors import InvalidParameterError
from .fields import DesignField, StimulusField
from .optimizer import OptimizerConfig, bncg_minimize

# outer iteration cap of the 1D profile minimization
PROFILE_MAX_ITERS = 6000


@dataclass
class FdCheckResult:
    design_error: float
    stimulus_error: float

    @property
    def max_error(self):
        return max(self.design_error, self.stimulus_error)


def _rel_err(analytic, fd):
    return abs(analytic - fd) / max(abs(fd), 1e-12)


def fd_gradient_check(mesh, phases, params, targets, trials=20, delta=1e-6,
                      seed=0, corrupt=None):
    """Central-difference check of both gradients at random interior iterates.

    Returns the max relative error over the trials for the design and the
    stimulus block.  ``corrupt`` in {"design", "stimulus"} multiplies the
    largest-contribution gradient entry by 1.01 before comparing, and
    ``corrupt="link"`` scales the link energy's share of the design
    derivative by 1.01; a sound harness must detect either (error above
    1e-5).  ``trials`` must be at least 1 and ``delta`` finite and positive,
    so the check can never pass without comparing a difference quotient,
    and ``seed`` a non-negative whole number.
    """
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidParameterError(
            f"seed must be a non-negative whole number, got {seed!r}")
    if not trials >= 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials!r}")
    if not (np.isfinite(delta) and delta > 0):
        raise InvalidParameterError(
            f"delta must be finite and positive, got {delta!r}")
    if corrupt not in (None, "design", "stimulus", "link"):
        raise InvalidParameterError(f"unknown corrupt {corrupt!r}")

    def objective(design, stim):
        return sensitivity.Evaluation(mesh, design, stim, phases, params,
                                      targets).breakdown.total

    rng = np.random.default_rng(seed)
    n_cases = len(np.asarray(targets))
    nn = mesh.n_nodes
    err_d = 0.0
    err_s = 0.0
    for _ in range(trials):
        design = DesignField(rng.uniform(0.1, 0.9, nn), rng.uniform(0.1, 0.9, nn))
        stim = StimulusField(rng.uniform(-0.9, 0.9, (n_cases, nn)))
        ev = sensitivity.Evaluation(mesh, design, stim, phases, params, targets)
        grad = ev.gradient

        phi2 = rng.uniform(-1.0, 1.0, nn)
        phi3 = rng.uniform(-1.0, 1.0, nn)
        contrib = np.concatenate([grad.g_rho2 * phi2, grad.g_rho3 * phi3])
        if corrupt == "design":
            contrib[np.argmax(np.abs(contrib))] *= 1.01
        analytic = float(np.sum(contrib))
        if corrupt == "link":
            link = params.link_weight * sensitivity.link_design_grad(
                mesh, design, ev.link)
            analytic += 0.01 * float(np.dot(link, phi2 + phi3))
        dp = DesignField(design.rho2 + delta * phi2, design.rho3 + delta * phi3)
        dm = DesignField(design.rho2 - delta * phi2, design.rho3 - delta * phi3)
        fd = (objective(dp, stim) - objective(dm, stim)) / (2.0 * delta)
        err_d = max(err_d, _rel_err(analytic, fd))

        psi = rng.uniform(-1.0, 1.0, (n_cases, nn))
        contrib = (grad.g_s * psi).ravel()
        if corrupt == "stimulus":
            contrib[np.argmax(np.abs(contrib))] *= 1.01
        analytic = float(np.sum(contrib))
        sp = StimulusField(stim.s + delta * psi)
        sm = StimulusField(stim.s - delta * psi)
        fd = (objective(design, sp) - objective(design, sm)) / (2.0 * delta)
        err_s = max(err_s, _rel_err(analytic, fd))
    return FdCheckResult(err_d, err_s)


def _divergence_by_boundary_integral(mesh, lam):
    """Per-element tr(e(lambda)) = div(lambda) via the edge-normal flux.

    For P1 fields  A_T div(lam) = sum_edges 0.5 (lam_i + lam_j) . n_ij |e_ij|.
    This shares nothing with the shape-gradient path it cross-checks.
    """
    out = np.empty(mesh.n_triangles)
    for m, tri in enumerate(mesh.triangles):
        p = mesh.nodes[tri]
        flux = 0.0
        for a in range(3):
            i, j = tri[a], tri[(a + 1) % 3]
            edge = mesh.nodes[j] - mesh.nodes[i]
            normal = np.array([edge[1], -edge[0]])  # outward for ccw triangles
            mid = 0.5 * (lam[i] + lam[j])
            flux += float(mid @ normal)
        out[m] = flux / mesh.areas[m]
    return out


def brute_force_stimulus(mesh, design, lambdas, phases, resolution=20000):
    """Grid search of the pointwise stimulus quadratic, one case per adjoint.

    Ties (a flat quadratic) resolve to the smallest |s| grid point, which
    reproduces the closed form's zero-stimulus convention.
    """
    if resolution < 2:
        raise InvalidParameterError("resolution must be at least 2")
    resp = phases.responsive
    grid = -1.0 + 2.0 * np.arange(resolution + 1) / resolution
    s_out = np.empty((len(lambdas), mesh.n_nodes))
    for j, lam in enumerate(lambdas):
        tr_elem = _divergence_by_boundary_integral(mesh, lam)
        num = np.zeros(mesh.n_nodes)
        den = np.zeros(mesh.n_nodes)
        for m, tri in enumerate(mesh.triangles):
            for a in tri:
                num[a] += mesh.areas[m] * tr_elem[m]
                den[a] += mesh.areas[m]
        tr_nodal = num / den
        c = design.rho3 ** 2 * resp.beta * 2.0 * resp.bulk * tr_nodal
        B = (1.0 - design.rho2 - design.rho3) ** 2 + design.rho2 ** 2
        q = -np.outer(c, grid) + np.outer(B, grid * grid)
        qmin = q.min(axis=1, keepdims=True)
        tie_break = np.where(q <= qmin, np.abs(grid)[None, :], np.inf)
        s_out[j] = grid[np.argmin(tie_break, axis=1)]
    return StimulusField(s_out)


def _profile_energy_and_grad(z, n_nodes, dx, eps, potential):
    """Energy and gradient of the 1D interface functional on [0, L]."""
    t = quadrature.GL3_POINTS
    w = quadrature.GL3_WEIGHTS
    if potential == "triple":
        r2 = z[:n_nodes]
        r3 = z[n_nodes:]
        comps = [1.0 - r2 - r3, r2, r3]
        signs = [(-1.0, 1.0, 0.0), (-1.0, 0.0, 1.0)]  # d comps / d (r2, r3)
    else:
        comps = [z]
        signs = [(1.0,)]

    left = [c[:-1] for c in comps]
    right = [c[1:] for c in comps]
    well = 0.0
    dwell_q = []
    for cl, cr in zip(left, right):
        cq = cl[:, None] * (1.0 - t)[None, :] + cr[:, None] * t[None, :]
        well += np.sum((cq * cq * (1.0 - cq) ** 2) @ w) * dx
        dwell_q.append(2.0 * cq * (1.0 - cq) * (1.0 - 2.0 * cq))

    grad_term = 0.0
    deltas = [cr - cl for cl, cr in zip(left, right)]
    for d in deltas:
        grad_term += np.sum(d * d) / dx

    energy = well / eps + eps * grad_term

    g = np.zeros_like(z)
    for v in range(len(signs)):
        gv = np.zeros(n_nodes)
        acc_l = np.zeros(n_nodes - 1)
        acc_r = np.zeros(n_nodes - 1)
        for ci in range(len(comps)):
            sgn = signs[v][ci]
            if sgn == 0.0:
                continue
            acc_l += sgn * ((dwell_q[ci] @ (w * (1.0 - t))) * dx / eps
                            - 2.0 * eps * deltas[ci] / dx)
            acc_r += sgn * ((dwell_q[ci] @ (w * t)) * dx / eps
                            + 2.0 * eps * deltas[ci] / dx)
        gv[:-1] += acc_l
        gv[1:] += acc_r
        g[v * n_nodes:(v + 1) * n_nodes] = gv
    return energy, g


def minimize_profile(eps, n_intervals=4000, span_factor=40.0,
                     potential="triple"):
    """Minimize the 1D interface functional between two pure phases.

    Returns (energy, profile_arrays): the converged functional value and
    the minimizing nodal profiles.
    """
    if potential not in ("triple", "double"):
        raise InvalidParameterError(f"unknown potential {potential!r}")
    if n_intervals < 1:
        raise InvalidParameterError(
            f"n_intervals must be >= 1, got {n_intervals!r}")
    if not (math.isfinite(span_factor) and span_factor > 0):
        raise InvalidParameterError(
            f"span_factor must be positive and finite, got {span_factor!r}")
    n_nodes = n_intervals + 1
    length = span_factor * eps
    dx = length / n_intervals
    x = np.linspace(0.0, length, n_nodes)
    # logistic transition: the exact optimal profile of the scalar double
    # well in stretched coordinates, a near-optimal start for both modes
    y = np.clip((x - 0.5 * length) / eps, -500.0, 500.0)
    ramp = 1.0 / (1.0 + np.exp(-y))

    if potential == "triple":
        z0 = np.concatenate([ramp, np.zeros(n_nodes)])
        ends, values = [0, n_nodes - 1, n_nodes, -1], [0.0, 1.0, 0.0, 0.0]
    else:
        z0 = ramp.copy()
        ends, values = [0, -1], [0.0, 1.0]
    # clamp the endpoints to the two simplex vertices
    lower, upper = np.zeros(len(z0)), np.ones(len(z0))
    lower[ends] = upper[ends] = values

    def fg(z):
        return _profile_energy_and_grad(z, n_nodes, dx, eps, potential)

    cfg = OptimizerConfig(grad_rtol=0.0, grad_atol=1e-9, obj_rtol=1e-13,
                          max_outer_iters=PROFILE_MAX_ITERS)
    result = bncg_minimize(lambda z: fg(z)[0], fg, z0, lower, upper, cfg)
    return result.value, tuple(result.x.reshape(-1, n_nodes))


def profile_coefficient(epsilons, n_intervals=4000, span_factor=40.0,
                        potential="triple"):
    """Converged 1D interface energies for a nonempty, decreasing eps list.

    The limit approximates twice the geodesic distance between the two
    wells; for the shipped multi-well it must not exceed the straight-edge
    bound 2/3.
    """
    if len(epsilons) == 0:
        raise InvalidParameterError("epsilon list is empty")
    out = []
    for eps in epsilons:
        if not (math.isfinite(eps) and eps > 0):
            raise InvalidParameterError(
                f"epsilon values must be positive and finite, got {eps!r}")
        energy, _ = minimize_profile(eps, n_intervals=n_intervals,
                                     span_factor=span_factor,
                                     potential=potential)
        out.append((float(eps), float(energy)))
    return out
