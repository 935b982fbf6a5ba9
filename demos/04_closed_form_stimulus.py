"""The closed-form stimulus update versus exhaustive search.

With the state and adjoint frozen, the objective is a pointwise quadratic
in each nodal stimulus value, so the box-constrained minimizer has a
closed form: clamp(c/2B), degenerating to the bang-bang rule sign(tr
e(lambda)) at pure responsive points and to 0 where no responsive
material is present.  A per-node grid search confirms it.
"""

import numpy as np

from morphopt import (DesignField, Material, PhaseSet, StimulusField,
                      project_design)
from morphopt.elasticity import solve_adjoint, solve_state
from morphopt.mesh import build_rect_mesh
from morphopt.stimulus_update import minimize_stimulus_field
from morphopt.verify import brute_force_stimulus

phases = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))
mesh = build_rect_mesh(1.0, 1 / 3, 1 / 10, "left", (0.8, 0.1, 1.0, 0.23))
n = mesh.n_nodes
rng = np.random.default_rng(0)

design = project_design(DesignField(rng.uniform(0, 1, n),
                                    rng.uniform(0, 1, n)))
stim = StimulusField(rng.uniform(-1, 1, (1, n)))
targets = np.array([[0.0, 1.0]])

state = solve_state(mesh, design, phases, stim)
lams = solve_adjoint(mesh, state, targets)

closed = minimize_stimulus_field(mesh, design, lams, phases)
grid = brute_force_stimulus(mesh, design, lams, phases, resolution=20000)
print(f"random mixed design: max |closed - grid| = "
      f"{np.max(np.abs(closed.s - grid.s)):.2e}  (grid spacing 1e-4)")

# Bang-bang limit: pure responsive material under a dilating adjoint.
pure = DesignField.constant(n, 0.0, 1.0)
dilation = mesh.nodes - mesh.nodes.mean(axis=0)
sat = minimize_stimulus_field(mesh, pure, [dilation], phases)
print(f"pure responsive + dilating adjoint: s is identically "
      f"{sat.s.min():.0f} (saturated)")

# No responsive material: the penalty minimizer 0 wins everywhere.
none = DesignField(rng.uniform(0, 1, n), np.zeros(n))
zero = minimize_stimulus_field(mesh, none, lams, phases)
print(f"no responsive material: max |s| = {np.max(np.abs(zero.s)):.0f}")
