"""Nodal field containers and projection utilities.

Design and stimulus fields are nodal P1 coefficient arrays; the
displacements and adjoints of n load cases are one (n_cases, n_nodes, 2)
array, case axis first, like the (n_cases, n_nodes) stimuli.  Target
displacements are one 2-vector per load case.

A field holds read-only copies of its arrays, so what is derived from them
on a mesh (quadrature samples, gradients, squares, perimeter integrals) is
computed once and kept on the field, read-only: it lives and dies with the
field, and every evaluation that shares the field shares it.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import InvalidParameterError

# uniform start of both optimization schemes, and the [initial] default
INITIAL_RHO2 = 0.3
INITIAL_RHO3 = 0.3


def _frozen(array):
    # C order, so a saved field's bytes do not depend on how it was computed
    out = np.array(array, dtype=float, order="C")
    out.setflags(write=False)
    return out


class _Derived:
    """Values derived from a field's read-only arrays on one mesh."""

    def derived(self, mesh, key, compute):
        """``compute()`` on first use of ``key``, kept for the last mesh
        (read-only where it is an array)."""
        if self.__dict__.get("_mesh") is not mesh:
            self._mesh, self._derived = mesh, {}
        if key not in self._derived:
            self._derived[key] = value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return self._derived[key]

    def forget(self):
        """Drop the derived values; they are recomputed on the next use."""
        self._mesh = self._derived = None


@dataclass
class DesignField(_Derived):
    """Nodal densities of the passive (rho2) and responsive (rho3) phases."""

    rho2: np.ndarray
    rho3: np.ndarray

    def __post_init__(self):
        self.rho2 = _frozen(self.rho2)
        self.rho3 = _frozen(self.rho3)
        if self.rho2.shape != self.rho3.shape or self.rho2.ndim != 1:
            raise InvalidParameterError("rho2 and rho3 must be 1d arrays of equal length")

    @property
    def n_nodes(self):
        return len(self.rho2)

    def rho1(self):
        """Implicit void density 1 - rho2 - rho3 (may dip into [-1, 0))."""
        return 1.0 - self.rho2 - self.rho3

    def samples(self, mesh):
        """(rho2, rho3) at the TRI_DEG4 points, (2, n_tri, nq)."""
        return self.derived(mesh, "deg4", lambda: quadrature.sample(
            mesh, quadrature.TRI_DEG4, (self.rho2, self.rho3)))

    def phase_samples(self, mesh):
        """(rho1, rho2, rho3) at the TRI_DEG2 points, (3, n_tri, nq)."""
        return self.derived(mesh, "deg2", lambda: quadrature.sample(
            mesh, quadrature.TRI_DEG2, (self.rho1(), self.rho2, self.rho3)))

    def gradients(self, mesh):
        """D [rho2, rho3], (2 n_tri, 2): row 2m + d holds d/dx_d of rho2
        and of rho3 on triangle m."""
        return self.derived(mesh, "gradients", lambda: mesh.gradient_operator()
                            @ np.column_stack([self.rho2, self.rho3]))

    @classmethod
    def constant(cls, n_nodes, rho2, rho3):
        return cls(np.full(n_nodes, float(rho2)), np.full(n_nodes, float(rho3)))


@dataclass
class StimulusField(_Derived):
    """One nodal stimulus array per load case, shape (n_cases, n_nodes)."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        self.s = _frozen(s[None, :] if s.ndim == 1 else s)
        if self.s.ndim != 2:
            raise InvalidParameterError("stimulus must be (n_cases, n_nodes)")

    @property
    def n_cases(self):
        return self.s.shape[0]

    @property
    def n_nodes(self):
        return self.s.shape[1]

    def samples(self, mesh):
        """Every s_j at the TRI_DEG4 points, (n_cases, n_tri, nq)."""
        return self.derived(mesh, "deg4", lambda: quadrature.sample(
            mesh, quadrature.TRI_DEG4, self.s))

    def squares(self, mesh):
        """sum_j s_j^2 at the TRI_DEG4 points, (n_tri, nq)."""
        return self.derived(mesh, "squares", lambda: sum(
            sq * sq for sq in self.samples(mesh)))

    @classmethod
    def zeros(cls, n_cases, n_nodes):
        return cls(np.zeros((n_cases, n_nodes)))


def project_design(design):
    """Clamp both densities to [0, 1]; idempotent."""
    return DesignField(np.clip(design.rho2, 0.0, 1.0),
                       np.clip(design.rho3, 0.0, 1.0))


def project_stimulus(stimulus):
    """Clamp every stimulus to [-1, 1]; idempotent."""
    return StimulusField(np.clip(stimulus.s, -1.0, 1.0))


def check_nodal(mesh, array, name="field"):
    """Raise unless ``array``'s leading nodal axis matches the mesh."""
    arr = np.asarray(array)
    if arr.shape[:1] != (mesh.n_nodes,):
        raise InvalidParameterError(
            f"{name} has shape {arr.shape} for a {mesh.n_nodes}-node mesh")
    return arr


def nodal_average_from_elements(mesh, element_values):
    """Area-weighted average of per-triangle values onto the nodes: (n_tri,)
    values give (n_nodes,), k rows (k, n_tri) give (k, n_nodes)."""
    vals = np.asarray(element_values, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[-1] != mesh.n_triangles:
        raise InvalidParameterError("element_values must have one entry per triangle")
    # int v phi_a over int phi_a: each triangle gives A/3 of itself to a node
    rule = quadrature.TRI_DEG2
    return (quadrature.hat_integrals(
        mesh, rule, np.repeat(vals[..., None], len(rule.weights), axis=-1),
        mesh.areas) / mesh.lumped_node_areas()).reshape(*vals.shape[:-1], -1)


def check_targets(targets, n_cases):
    """The (n_cases, 2) float array of target displacements, one per load
    case; raises unless ``targets`` has that shape."""
    t = np.asarray(targets, dtype=float)
    if t.shape != (n_cases, 2):
        raise InvalidParameterError(
            f"targets of shape {t.shape} for {n_cases} load cases; "
            "one (ux, uy) per case expected")
    return t
