"""Finite-difference verification of the adjoint gradients.

The adjoint method delivers both gradient blocks (densities and stimuli)
from one extra linear solve per load case.  Because the gradients are the
exact derivatives of the discretized objective, central differences agree
to the rounding floor; a deliberately corrupted gradient must be caught.
"""

import numpy as np

from morphopt import Material, PhaseSet, RegularizationParams
from morphopt.mesh import build_rect_mesh
from morphopt.verify import fd_gradient_check

phases = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))
h = 1 / 20
mesh = build_rect_mesh(1.0, 1 / 3, h, "left",
                       (1 - 1 / 15, 1 / 6 - 1 / 30, 1.0, 1 / 6 + 1 / 30))
params = RegularizationParams(epsilon=2 * h, alpha=6e-4, nu2=0.1, nu3=0.3)
targets = np.array([[0.0, 1.0]])

print("central differences vs adjoint gradients, 10 random iterates:")
res = fd_gradient_check(mesh, phases, params, targets, trials=10, seed=0)
print(f"  design block   max relative error {res.design_error:.3e}")
print(f"  stimulus block max relative error {res.stimulus_error:.3e}")

print("\nmutation test (one gradient entry scaled by 1.01):")
bad = fd_gradient_check(mesh, phases, params, targets, trials=2, seed=1,
                        corrupt="design")
print(f"  corrupted design block error {bad.design_error:.3e} "
      f"-> {'detected' if bad.design_error > 1e-5 else 'MISSED'}")
