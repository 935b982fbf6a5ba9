"""Three-phase isotropic material model and the density interpolation.

Every phase is a plane-strain isotropic material with a responsiveness
coefficient beta: under a scalar stimulus s it develops the inelastic
strain beta*s*I, so the stress is C(e(u) - beta*s*I).  The void phase is a
weak material whose Young's modulus is the passive one scaled by eta.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

_CLAMP_SLACK = 1e-12


@dataclass(frozen=True)
class Material:
    """Isotropic plane-strain material with responsiveness beta."""

    young: float
    poisson: float
    beta: float = 0.0

    def __post_init__(self):
        # each message starts with the field name, which config.py
        # prefixes with the section
        if self.young < 0:
            raise InvalidParameterError(f"young must be >= 0, got {self.young}")
        if not -1.0 < self.poisson < 0.5:
            raise InvalidParameterError(
                f"poisson must lie in (-1, 0.5), got {self.poisson}")
        if self.beta < 0:
            raise InvalidParameterError(f"beta must be >= 0, got {self.beta}")

    @property
    def lame_mu(self):
        return self.young / (2.0 * (1.0 + self.poisson))

    @property
    def lame_lambda(self):
        # plane strain
        return self.young * self.poisson / ((1.0 + self.poisson) * (1.0 - 2.0 * self.poisson))

    @property
    def bulk(self):
        # kappa = (d*lambda + 2*mu)/d with d = 2
        return self.lame_lambda + self.lame_mu

    @property
    def stimulus_stress(self):
        # C (beta s I) = 2 beta kappa s I: the stress per unit stimulus
        return self.beta * 2.0 * self.bulk


@dataclass(frozen=True)
class PhaseSet:
    """The three phases: void (rho1), passive (rho2), responsive (rho3);
    the void is derived from the passive phase and eta."""

    passive: Material
    responsive: Material
    eta: float = 1e-4
    void: Material = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eta <= 1e-2:
            raise InvalidParameterError(f"eta must lie in (0, 1e-2], got {self.eta}")
        if self.passive.beta != 0.0:
            raise InvalidParameterError("passive phase must have beta = 0")
        object.__setattr__(self, "void", Material(
            self.eta * self.passive.young, self.passive.poisson))

    def as_tuple(self):
        return (self.void, self.passive, self.responsive)


def interp(rho):
    """Material interpolation a(rho) = rho^2, even on [-1, 1].

    Values beyond the interval by more than a 1e-12 slack are rejected;
    tiny overshoot from floating-point arithmetic is clamped.
    """
    r = np.asarray(rho, dtype=float)
    if np.any(np.abs(r) > 1.0 + _CLAMP_SLACK):
        raise InvalidParameterError("density outside [-1, 1]")
    r = np.clip(r, -1.0, 1.0)
    out = r * r
    return float(out) if np.isscalar(rho) else out


def interp_derivative(rho):
    """d a / d rho = 2 rho."""
    r = np.asarray(rho, dtype=float)
    out = 2.0 * r
    return float(out) if np.isscalar(rho) else out


def stress(material, strain, s=0.0):
    """Stress C(e - beta*s*I) for a 2x2 symmetric strain tensor."""
    e = np.asarray(strain, dtype=float)
    el = e - material.beta * s * np.eye(2)
    tr = el[0, 0] + el[1, 1]
    return 2.0 * material.lame_mu * el + material.lame_lambda * tr * np.eye(2)
