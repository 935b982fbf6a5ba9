"""Three-phase isotropic material model and the density interpolation.

Every phase is a plane-strain isotropic material with a responsiveness
coefficient beta: under a scalar stimulus s it develops the inelastic
strain beta*s*I, so the stress is C(e(u) - beta*s*I).  The void phase is a
weak material whose Young's modulus is the passive one scaled by eta.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class PhaseSet:
    """The three phases: void (rho1), passive (rho2), responsive (rho3)."""

    void: Material
    passive: Material
    responsive: Material
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1e-2:
            raise InvalidParameterError(f"eta must lie in (0, 1e-2], got {self.eta}")
        if self.void.beta != 0.0 or self.passive.beta != 0.0:
            raise InvalidParameterError("void and passive phases must have beta = 0")
        expected = self.eta * self.passive.young
        if abs(self.void.young - expected) > 1e-12 * max(expected, 1.0):
            raise InvalidParameterError(
                "void young modulus must equal eta * passive young modulus")

    @classmethod
    def build(cls, passive, responsive, eta=1e-4):
        """Derive the void phase from the passive one and assemble the set
        (an eta out of range is reported as such, not as a void modulus)."""
        void = Material(eta * passive.young, passive.poisson) if eta > 0 else passive
        return cls(void, passive, responsive, eta)

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
