from fractions import Fraction

import numpy as np
import pytest

from morphopt import quadrature
from morphopt.elasticity import (assemble_stiffness, assemble_stimulus_load,
                                 element_strains, point_constraint_dofs,
                                 solve_adjoint, solve_state, target_mass_apply)
from morphopt.errors import InvalidParameterError
from morphopt.fields import DesignField, StimulusField, project_design
from morphopt.materials import Material, PhaseSet, interp
from morphopt.mesh import Mesh, build_rect_mesh
from test_mesh import reference_at_quadrature_points

PASSIVE = Material(5.0, 0.3, 0.0)
RESPONSIVE = Material(5.0, 0.3, 1.0)
PHASES = PhaseSet(PASSIVE, RESPONSIVE, eta=1e-4)


def single_triangle_mesh():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([], dtype=int),
                np.array([], dtype=int), 1.0)


def element_stiffness_bmatrix_oracle(coords, young, poisson):
    """Exact-rational plane-strain P1 element matrix via the Voigt B-matrix.

    Independent of the production tensor-contraction assembly.
    """
    coords = [[Fraction(x), Fraction(y)] for x, y in coords]
    (x1, y1), (x2, y2), (x3, y3) = coords
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    area = det / 2
    b = [(y2 - y3) / det, (y3 - y1) / det, (y1 - y2) / det]
    c = [(x3 - x2) / det, (x1 - x3) / det, (x2 - x1) / det]
    B = [[b[0], 0, b[1], 0, b[2], 0],
         [0, c[0], 0, c[1], 0, c[2]],
         [c[0], b[0], c[1], b[1], c[2], b[2]]]
    E, nu = Fraction(young), Fraction(poisson)
    f = E / ((1 + nu) * (1 - 2 * nu))
    D = [[f * (1 - nu), f * nu, 0],
         [f * nu, f * (1 - nu), 0],
         [0, 0, f * (1 - 2 * nu) / 2]]
    K = [[area * sum(B[r][i] * D[r][s] * B[s][j]
                     for r in range(3) for s in range(3))
          for j in range(6)] for i in range(6)]
    return np.array([[float(v) for v in row] for row in K])


def duffy_integrate(coords, fn, order=6):
    """Gauss-Legendre quadrature on the collapsed square (Duffy transform);
    exact for polynomials well past the degrees used in assembly."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    p0, p1, p2 = (np.asarray(c, dtype=float) for c in coords)
    total = 0.0
    d1, d2 = p1 - p0, p2 - p0
    jac_area = abs(d1[0] * d2[1] - d1[1] * d2[0])
    for u, wu in zip(pts, wts):
        for v, wv in zip(pts, wts):
            lam1, lam2 = u, v * (1.0 - u)
            x = p0 + lam1 * (p1 - p0) + lam2 * (p2 - p0)
            total += wu * wv * (1.0 - u) * fn(x[0], x[1]) * jac_area
    return total


class TestStiffness:
    def test_element_matrix_against_symbolic_oracle(self):
        mesh = single_triangle_mesh()
        design = DesignField.constant(3, 1.0, 0.0)   # pure passive
        phases = PhaseSet(Material(1.0, 0.0), Material(1.0, 0.0, 1.0))
        K = assemble_stiffness(mesh, design, phases, []).toarray()
        oracle = element_stiffness_bmatrix_oracle(
            [(0, 0), (1, 0), (0, 1)], 1, 0)
        np.testing.assert_allclose(K, oracle, rtol=1e-13, atol=1e-15)

    def test_element_matrix_random_triangle_nonzero_poisson(self):
        coords = [(Fraction(1, 10), Fraction(3, 10)),
                  (Fraction(9, 10), Fraction(1, 5)),
                  (Fraction(2, 5), Fraction(11, 10))]
        mesh = Mesh(np.array([[float(x), float(y)] for x, y in coords]),
                    np.array([[0, 1, 2]]), np.array([], dtype=int),
                    np.array([], dtype=int), 1.0)
        design = DesignField.constant(3, 1.0, 0.0)
        phases = PhaseSet(Material(5.0, 0.3), Material(5.0, 0.3, 1.0))
        K = assemble_stiffness(mesh, design, phases, []).toarray()
        oracle = element_stiffness_bmatrix_oracle(
            coords, 5, Fraction(3, 10))
        np.testing.assert_allclose(K, oracle, rtol=1e-12)

    def test_void_is_scaled_passive(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        n = mesh.n_nodes
        k_void = assemble_stiffness(
            mesh, DesignField.constant(n, 0.0, 0.0), PHASES, []).toarray()
        k_pass = assemble_stiffness(
            mesh, DesignField.constant(n, 1.0, 0.0), PHASES, []).toarray()
        np.testing.assert_allclose(k_void, PHASES.eta * k_pass, rtol=1e-12)

    def test_rigid_translation_in_kernel(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.125, "left", None)
        rng = np.random.default_rng(0)
        n = mesh.n_nodes
        design = project_design(DesignField(rng.uniform(0, 1, n),
                                            rng.uniform(0, 1, n)))
        K = assemble_stiffness(mesh, design, PHASES, [])
        t = np.tile([0.7, -0.3], n)
        scale = np.abs(K.data).max()
        assert np.max(np.abs(K @ t)) <= 1e-12 * scale

    def test_exactly_symmetric(self):
        mesh = build_rect_mesh(1.0, 1 / 3, 0.1, "left", None)
        rng = np.random.default_rng(1)
        n = mesh.n_nodes
        design = project_design(DesignField(rng.uniform(0, 1, n),
                                            rng.uniform(0, 1, n)))
        K = assemble_stiffness(mesh, design, PHASES, [])
        diff = (K - K.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_quadrature_exactness_stiffness_weights(self):
        # int a(rho_i) is quadratic per element: degree-2 and degree-4 rules agree
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        rng = np.random.default_rng(2)
        rho = rng.uniform(0, 1, mesh.n_nodes)
        for rule_lo, rule_hi in ((quadrature.TRI_DEG2, quadrature.TRI_DEG4),):
            lo = interp(reference_at_quadrature_points(
                rho, mesh.triangles, rule_lo)) @ rule_lo.weights
            hi = interp(reference_at_quadrature_points(
                rho, mesh.triangles, rule_hi)) @ rule_hi.weights
            np.testing.assert_allclose(lo, hi, rtol=1e-13)

    def test_quadrature_exactness_load_weights(self):
        # int a(rho) * s is cubic per element: degree-4 and degree-5 rules agree
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        rng = np.random.default_rng(3)
        rho = rng.uniform(0, 1, mesh.n_nodes)
        s = rng.uniform(-1, 1, mesh.n_nodes)
        r4, r5 = quadrature.TRI_DEG4, quadrature.TRI_DEG5
        lo = (interp(reference_at_quadrature_points(rho, mesh.triangles, r4))
              * reference_at_quadrature_points(s, mesh.triangles, r4)) @ r4.weights
        hi = (interp(reference_at_quadrature_points(rho, mesh.triangles, r5))
              * reference_at_quadrature_points(s, mesh.triangles, r5)) @ r5.weights
        np.testing.assert_allclose(lo, hi, rtol=1e-13, atol=1e-16)


class TestStimulusLoad:
    def test_zero_stimulus_gives_zero_load(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        design = DesignField.constant(mesh.n_nodes, 0.4, 0.5)
        f = assemble_stimulus_load(mesh, design, PHASES,
                                   StimulusField.zeros(1, mesh.n_nodes))
        assert np.max(np.abs(f)) == 0.0

    def test_no_responsive_material_gives_zero_load(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        design = DesignField.constant(mesh.n_nodes, 0.8, 0.0)
        f = assemble_stimulus_load(mesh, design, PHASES,
                                   StimulusField(np.ones(mesh.n_nodes)))
        assert np.max(np.abs(f)) == 0.0

    def test_uniform_prestress_against_quadrature_oracle(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.25, "left", None)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.0, 1.0)
        f = assemble_stimulus_load(mesh, design, PHASES,
                                   StimulusField(np.ones(n)))[:, 0]
        kappa = RESPONSIVE.bulk
        oracle = np.zeros(2 * n)
        for m, tri in enumerate(mesh.triangles):
            coords = mesh.nodes[tri]
            M = np.column_stack([np.ones(3), coords])
            for a in range(3):
                e = np.zeros(3)
                e[a] = 1.0
                coef = np.linalg.solve(M, e)          # N_a = c0 + c1 x + c2 y
                for comp, grad in ((0, coef[1]), (1, coef[2])):
                    val = duffy_integrate(coords,
                                          lambda x, y: 2.0 * kappa * grad)
                    oracle[2 * tri[a] + comp] += val
        np.testing.assert_allclose(f, oracle, rtol=1e-11, atol=1e-13)

    def test_general_load_against_quadrature_oracle(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.5, "left", None)
        n = mesh.n_nodes
        rng = np.random.default_rng(4)
        design = project_design(DesignField(rng.uniform(0, 1, n),
                                            rng.uniform(0, 1, n)))
        s = rng.uniform(-1, 1, n)
        f = assemble_stimulus_load(mesh, design, PHASES,
                                   StimulusField(s))[:, 0]
        kappa = RESPONSIVE.bulk
        oracle = np.zeros(2 * n)
        for m, tri in enumerate(mesh.triangles):
            coords = mesh.nodes[tri]
            M = np.column_stack([np.ones(3), coords])
            basis = [np.linalg.solve(M, np.eye(3)[a]) for a in range(3)]

            def p1(coef, x, y):
                return coef[0] + coef[1] * x + coef[2] * y

            rho3 = np.linalg.solve(M, design.rho3[tri])
            sj = np.linalg.solve(M, s[tri])
            for a in range(3):
                for comp in (0, 1):
                    grad = basis[a][1 + comp]
                    val = duffy_integrate(
                        coords,
                        lambda x, y: p1(rho3, x, y) ** 2 * p1(sj, x, y)
                        * 2.0 * kappa * grad)
                    oracle[2 * tri[a] + comp] += val
        np.testing.assert_allclose(f, oracle, rtol=1e-10, atol=1e-14)


class TestSolveState:
    def test_pinned_dilation_is_exact_affine(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.1, "left", None)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.0, 1.0)
        s = 0.37
        stim = StimulusField(np.full((1, n), s))
        i00 = int(np.argmin(np.sum(np.abs(mesh.nodes), axis=1)))
        i10 = int(np.argmin(np.sum(np.abs(mesh.nodes - [1, 0]), axis=1)))
        fixed = point_constraint_dofs([(i00, 0), (i00, 1), (i10, 1)])
        state = solve_state(mesh, design, PHASES, stim, fixed_dofs=fixed)
        exact = RESPONSIVE.beta * s * (mesh.nodes - mesh.nodes[i00])
        assert np.max(np.abs(state.u[0] - exact)) <= 1e-9

    def test_zero_stimulus_zero_displacement(self):
        mesh = build_rect_mesh(1.0, 1 / 3, 0.125, "left", None)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.3, 0.3)
        state = solve_state(mesh, design, PHASES, StimulusField.zeros(2, n))
        for u in state.u:
            assert np.max(np.abs(u)) == 0.0

    def test_energy_balance_identity(self):
        # weak form tested with phi = u: int C(e - beta s I) : e(u) = 0
        mesh = build_rect_mesh(1.0, 1 / 3, 1 / 12, "left", None)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.2, 0.6)
        s = np.where(mesh.nodes[:, 0] > 0.5, 1.0, 0.0)
        state = solve_state(mesh, design, PHASES, StimulusField(s[None, :]))
        u = state.u[0].ravel()
        strain_energy = float(u @ (state.operator @ u))
        load = assemble_stimulus_load(mesh, design, PHASES,
                                      StimulusField(s))[:, 0]
        load[state.fixed_dofs] = 0.0
        residual = strain_energy - float(u @ load)
        assert abs(residual) <= 1e-9 * max(strain_energy, 1e-30)

    def test_missing_dirichlet_rejected(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.5, "left", None)
        no_bc = Mesh(mesh.nodes, mesh.triangles, np.array([], dtype=int),
                     np.array([], dtype=int), mesh.cell_size)
        design = DesignField.constant(no_bc.n_nodes, 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            solve_state(no_bc, design, PHASES,
                        StimulusField.zeros(1, no_bc.n_nodes))

    @pytest.mark.parametrize("first", [-1, 2 * 9])
    def test_fixed_dof_off_mesh_rejected(self, first):
        mesh = build_rect_mesh(1.0, 1.0, 0.5, "left", None)     # 9 nodes
        design = DesignField.constant(mesh.n_nodes, 0.5, 0.5)
        with pytest.raises(InvalidParameterError, match="fixed dof"):
            solve_state(mesh, design, PHASES,
                        StimulusField.zeros(1, mesh.n_nodes),
                        fixed_dofs=[first, 0, 1])

    def test_point_constraint_component_rejected(self):
        # component 2 of node 0 would name node 1's x dof
        with pytest.raises(InvalidParameterError, match="component"):
            point_constraint_dofs([(0, 0), (0, 2)])


class TestAdjoint:
    def setup_method(self):
        self.mesh = build_rect_mesh(1.0, 1 / 3, 1 / 12, "left",
                                    (0.75, 0.0, 1.0, 1 / 3))
        self.n = self.mesh.n_nodes
        self.targets = np.array([[0.0, 1.0]])

    def test_perfect_tracking_gives_zero_adjoint(self):
        design = DesignField.constant(self.n, 0.5, 0.3)
        stim = StimulusField.zeros(1, self.n)
        state = solve_state(self.mesh, design, PHASES, stim)
        state.u[0] = np.tile(self.targets[0], (self.n, 1))  # u == ubar
        lams = solve_adjoint(self.mesh, state, self.targets)
        assert np.max(np.abs(lams[0])) == 0.0

    def test_adjoint_load_supported_on_target(self):
        w = np.ones((self.n, 2))
        load = target_mass_apply(self.mesh, w)
        target_nodes = np.unique(
            self.mesh.triangles[self.mesh.target_elements])
        off_target = np.setdiff1d(np.arange(self.n), target_nodes)
        assert np.max(np.abs(load[off_target])) == 0.0
        assert np.max(np.abs(load[target_nodes])) > 0.0

    def test_mass_quadrature_against_midpoint_oracle(self):
        mesh = build_rect_mesh(1.0, 1 / 3, 1 / 20, "left",
                               (0.5, 0.0, 1.0, 1 / 3))
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        w = np.column_stack([1.0 + 0.1 * np.sin(1.5 * x) * np.cos(y),
                             1.0 + 0.1 * np.cos(x + y)])
        consistent = target_mass_apply(mesh, w)
        midpoint = np.zeros_like(consistent)
        for t in mesh.target_elements:
            tri = mesh.triangles[t]
            wc = w[tri].mean(axis=0)
            for a in tri:
                midpoint[a] += mesh.areas[t] * wc / 3.0
        rel = (np.linalg.norm(consistent - midpoint)
               / np.linalg.norm(consistent))
        assert rel <= 1e-3

    def test_adjoint_solves_with_state_operator(self):
        design = DesignField.constant(self.n, 0.4, 0.4)
        stim = StimulusField(np.full((1, self.n), 0.5))
        state = solve_state(self.mesh, design, PHASES, stim)
        lams = solve_adjoint(self.mesh, state, self.targets)
        rhs = target_mass_apply(self.mesh, self.targets[0] - state.u[0]).ravel()
        rhs[state.fixed_dofs] = 0.0
        res = state.operator @ lams[0].ravel() - rhs
        assert np.linalg.norm(res) <= 1e-11 * max(np.linalg.norm(rhs), 1e-30)

    def test_self_adjoint_numerically(self):
        design = DesignField.constant(self.n, 0.6, 0.2)
        K = assemble_stiffness(self.mesh, design, PHASES,
                               fixed_dofs=self.mesh.dirichlet_dofs())
        rng = np.random.default_rng(6)
        v = rng.normal(size=K.shape[0])
        w = rng.normal(size=K.shape[0])
        a = float((K @ v) @ w)
        b = float((K @ w) @ v)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


class TestEquiCoercivity:
    def test_random_designs_bounded_by_reference(self):
        mesh = build_rect_mesh(1.0, 1 / 3, 1 / 10, "left", None)
        n = mesh.n_nodes

        def h1_norm(u):
            mass = mesh.lumped_node_areas()
            l2 = float(np.sum(mass[:, None] * u * u))
            strains = element_strains(mesh, u)
            grad = float(np.sum(mesh.areas * np.sum(strains ** 2, axis=(1, 2))))
            return np.sqrt(l2 + grad)

        ref_state = solve_state(mesh, DesignField.constant(n, 0.0, 1.0),
                                PHASES, StimulusField(np.ones((1, n))))
        ref = h1_norm(ref_state.u[0])
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            design = DesignField(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
            stim = StimulusField(rng.uniform(-1, 1, (1, n)))
            state = solve_state(mesh, design, PHASES, stim)
            worst = max(worst, h1_norm(state.u[0]))
        assert worst <= 10.0 * ref
