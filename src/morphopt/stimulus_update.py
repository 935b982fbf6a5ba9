"""Exact pointwise minimization of the objective over the stimulus.

With the state and adjoint frozen, the Lagrangian is pointwise quadratic
in each stimulus:  -c s + B s^2  with

  c = a(rho3) beta3 d kappa3 tr(e(lambda)),   B = (1 - rho2 - rho3)^2 + rho2^2,

so the box-constrained minimizer is clamp(c / 2B) when B > 0 and the
bang-bang sign rule when B = 0.  This is the inner step of the staggered
scheme.
"""

import numpy as np

from .elasticity import element_strains
from .errors import InvalidParameterError
from .fields import StimulusField, nodal_average_from_elements
from .functional import stimulus_weight
from .materials import interp


def optimal_stimulus_pointwise(c, B):
    """Minimizer of -c s + B s^2 over [-1, 1], elementwise, for arrays c
    and B that broadcast.

    B > 0: clamp(c / 2B); B = 0: sign(c) (0 when c = 0).  Matches the
    limiting cases: pure responsive points give s = sign(tr e(lambda)),
    points without responsive material give the penalty minimizer 0.
    """
    c = np.asarray(c, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.any(B < 0):
        raise InvalidParameterError("quadratic coefficient B must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(B > 0.0, np.clip(c / (2.0 * B), -1.0, 1.0), np.sign(c))
    return float(s) if s.ndim == 0 else s


def minimize_stimulus_field(mesh, design, lambdas, phases):
    """Closed-form stimulus minimizer of every case at every node, for the
    (n_cases, n_nodes, 2) adjoints: tr(e(lambda_j)) is piecewise constant
    for P1 and is recovered at the nodes by area-weighted averaging."""
    el = element_strains(mesh, lambdas)
    tr = nodal_average_from_elements(mesh, el[..., 0, 0] + el[..., 1, 1])
    c = interp(design.rho3) * phases.responsive.stimulus_stress * tr  # (k, n)
    return StimulusField(optimal_stimulus_pointwise(
        c, stimulus_weight(design.rho2, design.rho3)))
