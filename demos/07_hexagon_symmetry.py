"""Three-fold symmetry of the hexagon problem.

The platform-style problem prescribes three target displacements whose
set is invariant under rotation by 120 degrees, on a mesh built from
three rhombi so the triangulation shares that symmetry.  The design
gradient at the symmetric starting point is then equivariant: permuting
the nodes by the rotation leaves it unchanged.
"""

import numpy as np

from morphopt import (DesignField, Material, PhaseSet, RegularizationParams,
                      StimulusField)
from morphopt.elasticity import element_strains, solve_adjoint, solve_state
from morphopt.mesh import build_hexagon_mesh, hexagon_rotation_permutation
from morphopt.sensitivity import grad_design
from morphopt.stimulus_update import minimize_stimulus_field

mesh = build_hexagon_mesh(0.35, 0.35 / 12, 0.07)
perm = hexagon_rotation_permutation(mesh)
print(f"mesh: {mesh.n_nodes} nodes; 120-degree rotation is a node "
      f"permutation (max mismatch "
      f"{np.max(np.linalg.norm(mesh.nodes[perm] - mesh.nodes @ np.array([[-0.5, np.sqrt(3)/2], [-np.sqrt(3)/2, -0.5]]), axis=1)):.1e})")

s32 = np.sqrt(3.0) / 2.0
targets = np.array([[1.0, 0.0], [-0.5, s32], [-0.5, -s32]])
phases = PhaseSet(Material(5e-2, 0.3, 0.0), Material(5e-3, 0.3, 1.0))
params = RegularizationParams(2 * mesh.cell_size, 3.5e-4, 0.7, 0.03)

n = mesh.n_nodes
design = DesignField.constant(n, 0.3, 0.3)
state0 = solve_state(mesh, design, phases, StimulusField.zeros(3, n))
lams0 = solve_adjoint(mesh, state0, targets)
stim = minimize_stimulus_field(mesh, design, lams0, phases)
state = solve_state(mesh, design, phases, stim)
lams = solve_adjoint(mesh, state, targets)
g2, g3 = grad_design(mesh, design, stim, state, element_strains(mesh, lams),
                     phases, params)

scale = max(np.max(np.abs(g2)), np.max(np.abs(g3)))
defect = max(np.max(np.abs(g2[perm] - g2)), np.max(np.abs(g3[perm] - g3)))
print(f"design gradient equivariance defect: {defect / scale:.2e} (relative)")

# The stimulus fields themselves are carried case -> next case by the
# rotation (the targets permute cyclically).
carry = max(np.max(np.abs(stim.s[(j + 1) % 3][perm] - stim.s[j]))
            for j in range(3))
print(f"stimulus case-permutation defect: {carry:.2e}")
