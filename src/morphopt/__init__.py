"""Phase-field topology optimization of compliant morphing structures.

The package co-designs the layout of three material phases (void, passive,
responsive) and per-load-case stimulus fields so that a target subregion
of a 2D domain deforms toward prescribed displacements.
"""

from .elasticity import (StateSolution, assemble_stiffness,
                         assemble_stimulus_load, solve_adjoint, solve_state)
from .errors import (ConfigError, InvalidParameterError, MatrixNotSPDError,
                     MorphoptError, NonFiniteValueError, SolverFailureError)
from .fields import (DesignField, StimulusField, nodal_average_from_elements,
                     project_design, project_stimulus)
from .functional import (ObjectiveBreakdown, RegularizationParams, multiwell,
                         perimeter_energy, stimulus_penalty, total, tracking,
                         volume_fractions, volume_penalty)
from .materials import Material, PhaseSet, interp, interp_derivative, stress
from .mesh import Mesh, build_hexagon_mesh, build_rect_mesh
from .optimizer import (BncgResult, IterateRecord, OptimizerConfig,
                        bncg_minimize, run_monolithic, run_staggered)
from .sensitivity import Evaluation, Gradient, grad_design, grad_stimulus
from .stimulus_update import minimize_stimulus_field, optimal_stimulus_pointwise
from .verify import brute_force_stimulus, fd_gradient_check, profile_coefficient

__version__ = "0.1.0"

__all__ = [
    "BncgResult", "ConfigError", "DesignField", "Evaluation", "Gradient",
    "InvalidParameterError", "IterateRecord", "Material", "MatrixNotSPDError",
    "Mesh", "MorphoptError", "NonFiniteValueError", "ObjectiveBreakdown",
    "OptimizerConfig", "PhaseSet", "RegularizationParams",
    "SolverFailureError", "StateSolution", "StimulusField",
    "assemble_stiffness", "assemble_stimulus_load", "bncg_minimize", "brute_force_stimulus",
    "build_hexagon_mesh", "build_rect_mesh", "fd_gradient_check",
    "grad_design", "grad_stimulus", "interp", "interp_derivative",
    "minimize_stimulus_field", "nodal_average_from_elements", "multiwell",
    "optimal_stimulus_pointwise", "perimeter_energy", "profile_coefficient",
    "project_design", "project_stimulus", "run_monolithic", "run_staggered",
    "solve_adjoint", "solve_state", "stimulus_penalty", "stress", "total",
    "tracking", "volume_fractions", "volume_penalty",
]
