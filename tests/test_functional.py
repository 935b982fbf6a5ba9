import numpy as np
import pytest

from morphopt.errors import InvalidParameterError
from morphopt.fields import DesignField, StimulusField
from morphopt.functional import (RegularizationParams, multiwell,
                                 multiwell_derivative, perimeter_energy,
                                 perimeter_terms, stimulus_penalty, total,
                                 tracking, volume_fractions, volume_penalty)
from morphopt.mesh import Mesh, build_rect_mesh
from morphopt.verify import minimize_profile

CANT_BOX = (1 - 1 / 15, 1 / 6 - 1 / 30, 1.0, 1 / 6 + 1 / 30)


def cantilever_mesh(h=1 / 60):
    return build_rect_mesh(1.0, 1 / 3, h, "left", CANT_BOX)


def permuted_mesh_and_fields(mesh, arrays, seed=0):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_nodes)       # new index of old node i
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_nodes)
    nodes = mesh.nodes[inv]
    tris = perm[mesh.triangles]
    pmesh = Mesh(nodes, tris, perm[mesh.dirichlet_nodes],
                 mesh.target_elements, mesh.cell_size)
    out = []
    for arr in arrays:
        if arr.ndim == 1:
            out.append(arr[inv])
        else:
            out.append(arr[..., inv] if arr.shape[-1] == mesh.n_nodes
                       else arr[inv])
    return pmesh, out


class TestTracking:
    def test_perfect_match_is_zero(self):
        mesh = cantilever_mesh()
        targets = np.array([[0.0, 1.0]])
        u = [np.tile(targets[0], (mesh.n_nodes, 1))]
        assert tracking(mesh, u, targets) == 0.0

    def test_constant_misfit_hand_value(self):
        mesh = cantilever_mesh()
        targets = np.array([[0.0, 1.0]])
        u = [np.zeros((mesh.n_nodes, 2))]
        # 1/2 * |(0,1)|^2 * (1/15)^2, the target box tiles 4x4 cells exactly
        assert tracking(mesh, u, targets) == pytest.approx(1 / 450, rel=1e-12)

    def test_random_field_against_refined_quadrature(self):
        mesh = cantilever_mesh(1 / 15)
        rng = np.random.default_rng(1)
        u = [rng.normal(size=(mesh.n_nodes, 2))]
        targets = np.array([[0.3, -0.4]])
        value = tracking(mesh, u, targets)
        # oracle: degree-5 rule on each target element
        from morphopt import quadrature
        rule = quadrature.TRI_DEG5
        oracle = 0.0
        w = u[0] - targets[0]
        for t in mesh.target_elements:
            tri = mesh.triangles[t]
            wq = rule.points @ w[tri]                  # (nq, 2)
            oracle += 0.5 * mesh.areas[t] * float(
                (np.sum(wq * wq, axis=1)) @ rule.weights)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_multiple_cases_sum(self):
        mesh = cantilever_mesh(1 / 30)
        targets = np.array([[0.0, 1.0], [0.0, 1.0]])
        u = [np.zeros((mesh.n_nodes, 2))] * 2
        assert tracking(mesh, u, targets) == pytest.approx(2 / 450, rel=1e-12)

    def test_wrong_node_count_rejected(self):
        mesh = cantilever_mesh(1 / 15)
        targets = np.array([[0.0, 1.0], [1.0, 0.0]])
        for n in (mesh.n_nodes - 1, mesh.n_nodes + 1):
            with pytest.raises(InvalidParameterError, match="displacement"):
                tracking(mesh, np.zeros((2, n, 2)), targets)


class TestMultiwell:
    def test_vertex_is_root(self):
        assert multiwell(1.0, 0.0, 0.0) == 0.0

    def test_simplex_center(self):
        assert multiwell(1 / 3, 1 / 3, 1 / 3) == pytest.approx(4 / 27, rel=1e-14)

    def test_edge_profile(self):
        t = np.linspace(0, 1, 51)
        w = multiwell(np.zeros_like(t), t, 1 - t)
        np.testing.assert_allclose(w, 2 * t ** 2 * (1 - t) ** 2, atol=1e-15)
        assert w.max() == pytest.approx(1 / 8, abs=1e-12)

    def test_derivative_matches_fd(self):
        for t in (0.13, 0.5, 0.77):
            fd = (multiwell(0, 0, t + 1e-6) - multiwell(0, 0, t - 1e-6)) / 2e-6
            assert multiwell_derivative(t) == pytest.approx(fd, abs=1e-8)


class TestPerimeter:
    def test_pure_phase_is_zero(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 1.0, 0.0)
        assert perimeter_energy(mesh, d, 0.05) == pytest.approx(0.0, abs=1e-15)

    def test_constant_mixture_analytic(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 1 / 3, 1 / 3)
        expected = (1 / 3) * (4 / 27) / 0.1
        assert perimeter_energy(mesh, d, 0.1) == pytest.approx(expected,
                                                               rel=1e-12)
        assert expected == pytest.approx(0.49382716049, rel=1e-9)

    def test_invalid_epsilon(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 0.3, 0.3)
        with pytest.raises(InvalidParameterError):
            perimeter_energy(mesh, d, 0.0)

    @pytest.mark.parametrize("eps,h", [(0.04, 1 / 200), (0.02, 1 / 400)])
    def test_interface_energy_matches_profile_oracle(self, eps, h):
        energy_1d, (r2_prof, r3_prof) = minimize_profile(
            eps, n_intervals=2000, span_factor=40.0)
        length = 40.0 * eps
        x0 = 0.5 - 0.5 * length
        mesh = build_rect_mesh(1.0, 0.1, h, "left", None)
        x1d = np.linspace(0.0, length, len(r2_prof))
        r2 = np.interp(mesh.nodes[:, 0], x1d + x0, r2_prof, left=0.0, right=1.0)
        r3 = np.interp(mesh.nodes[:, 0], x1d + x0, r3_prof, left=0.0, right=0.0)
        d = DesignField(r2, r3)
        per_unit = perimeter_energy(mesh, d, eps) / 0.1
        assert per_unit == pytest.approx(energy_1d, rel=0.02)
        assert 0.9 * (2 / 3) <= per_unit <= 2 / 3 + 2e-3

    def test_stationary_epsilon_by_golden_section(self):
        mesh = build_rect_mesh(1.0, 1 / 3, 1 / 30, "left", None)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        d = DesignField(0.3 + 0.2 * np.sin(2 * np.pi * x) * np.sin(np.pi * y),
                        0.3 + 0.1 * np.cos(2 * np.pi * x))
        well, grad = perimeter_terms(mesh, d)
        expected = np.sqrt(well / grad)

        phi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = 1e-3, 10.0
        c = b - phi * (b - a)
        dd = a + phi * (b - a)
        fc = perimeter_energy(mesh, d, c)
        fd = perimeter_energy(mesh, d, dd)
        while b - a > 1e-8:
            if fc < fd:
                b, dd, fd = dd, c, fc
                c = b - phi * (b - a)
                fc = perimeter_energy(mesh, d, c)
            else:
                a, c, fc = c, dd, fd
                dd = a + phi * (b - a)
                fd = perimeter_energy(mesh, d, dd)
        assert 0.5 * (a + b) == pytest.approx(expected, abs=1e-6)

    def test_mirror_symmetry(self):
        mesh = cantilever_mesh(1 / 20)
        rng = np.random.default_rng(2)
        d = DesignField(rng.uniform(0, 1, mesh.n_nodes),
                        rng.uniform(0, 1, mesh.n_nodes))
        nodes = mesh.nodes.copy()
        nodes[:, 0] = 1.0 - nodes[:, 0]
        tris = mesh.triangles[:, ::-1]          # restore ccw after mirroring
        mirrored = Mesh(nodes, tris, mesh.dirichlet_nodes,
                        mesh.target_elements, mesh.cell_size)
        a = perimeter_energy(mesh, d, 0.05)
        b = perimeter_energy(mirrored, d, 0.05)
        assert a == pytest.approx(b, rel=1e-12)


class TestPenalties:
    def test_volume_zero_design(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 0.0, 0.0)
        assert volume_penalty(mesh, d, 0.1, 0.3) == 0.0

    def test_volume_constant_hand_value(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 0.3, 0.3)
        assert volume_penalty(mesh, d, 0.1, 0.3) == pytest.approx(0.04,
                                                                  rel=1e-12)

    def test_volume_linear_field_exact(self):
        mesh = build_rect_mesh(1.0, 0.5, 0.05, "left", None)
        d = DesignField(mesh.nodes[:, 0].copy(), np.zeros(mesh.n_nodes))
        # int x over (0,1)x(0,0.5) = 0.25
        assert volume_penalty(mesh, d, 1.0, 0.7) == pytest.approx(0.25,
                                                                  rel=1e-12)

    def test_volume_fractions(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 0.25, 0.5)
        f2, f3 = volume_fractions(mesh, d)
        assert f2 == pytest.approx(0.25, rel=1e-12)
        assert f3 == pytest.approx(0.5, rel=1e-12)

    def test_stimulus_penalty_pure_responsive_is_free(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 0.0, 1.0)
        s = StimulusField(np.full((2, mesh.n_nodes), 0.8))
        assert stimulus_penalty(mesh, d, s) == pytest.approx(0.0, abs=1e-25)

    def test_stimulus_penalty_zero_stimulus(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 0.4, 0.1)
        assert stimulus_penalty(mesh, d, StimulusField.zeros(1, mesh.n_nodes)) == 0.0

    def test_stimulus_penalty_constant_hand_value(self):
        mesh = cantilever_mesh(1 / 15)
        d = DesignField.constant(mesh.n_nodes, 1.0, 0.0)
        s = StimulusField(np.ones((1, mesh.n_nodes)))
        # ((1-1-0)^2 + 1^2) * 1 * |domain| = 1/3
        assert stimulus_penalty(mesh, d, s) == pytest.approx(1 / 3, rel=1e-12)


class TestTotal:
    def test_breakdown_resums_bit_exact(self):
        mesh = cantilever_mesh(1 / 20)
        rng = np.random.default_rng(3)
        d = DesignField(rng.uniform(0, 1, mesh.n_nodes),
                        rng.uniform(0, 1, mesh.n_nodes))
        s = StimulusField(rng.uniform(-1, 1, (1, mesh.n_nodes)))
        u = [rng.normal(size=(mesh.n_nodes, 2))]
        params = RegularizationParams(0.05, 6e-4, 0.1, 0.3)
        b = total(mesh, d, s, u, np.array([[0.0, 1.0]]), params)
        assert b.total == (b.tracking + params.alpha * b.perimeter
                           + b.volume_penalty + b.stimulus_penalty)

    def test_zero_target_pure_design_volume_only(self):
        mesh = cantilever_mesh(1 / 20)
        d = DesignField.constant(mesh.n_nodes, 1.0, 0.0)
        s = StimulusField.zeros(1, mesh.n_nodes)
        u = [np.zeros((mesh.n_nodes, 2))]
        params = RegularizationParams(0.05, 6e-4, 0.1, 0.3)
        b = total(mesh, d, s, u, np.array([[0.0, 0.0]]), params)
        assert b.tracking == 0.0 and b.perimeter == pytest.approx(0.0, abs=1e-16)
        assert b.stimulus_penalty == 0.0
        assert b.total == pytest.approx(b.volume_penalty, rel=1e-14)

    def test_initial_state_hand_computed_composite(self):
        # reference cantilever parameter set: constant 0.3 design, zero stimulus
        mesh = cantilever_mesh(1 / 60)
        eps = 1 / 30
        params = RegularizationParams(eps, 6e-4, 0.1, 0.3)
        d = DesignField.constant(mesh.n_nodes, 0.3, 0.3)
        s = StimulusField.zeros(1, mesh.n_nodes)
        u = [np.zeros((mesh.n_nodes, 2))]
        b = total(mesh, d, s, u, np.array([[0.0, 1.0]]), params)
        w_const = multiwell(0.4, 0.3, 0.3)
        assert w_const == pytest.approx(0.1458, rel=1e-13)
        assert b.tracking == pytest.approx(1 / 450, rel=1e-10)
        assert b.perimeter == pytest.approx((1 / 3) * w_const / eps, rel=1e-10)
        assert b.volume_penalty == pytest.approx(0.04, rel=1e-10)
        assert b.stimulus_penalty == 0.0
        expected_total = 1 / 450 + 6e-4 * (1 / 3) * w_const / eps + 0.04
        assert b.total == pytest.approx(expected_total, rel=1e-10)


class TestInvariances:
    def test_node_permutation_invariance(self):
        mesh = cantilever_mesh(1 / 20)
        rng = np.random.default_rng(4)
        r2 = rng.uniform(0, 1, mesh.n_nodes)
        r3 = rng.uniform(0, 1, mesh.n_nodes)
        sv = rng.uniform(-1, 1, mesh.n_nodes)
        uv = rng.normal(size=(mesh.n_nodes, 2))
        pmesh, (p2, p3, ps, pu) = permuted_mesh_and_fields(
            mesh, [r2, r3, sv, uv], seed=5)
        targets = np.array([[0.0, 1.0]])
        params = RegularizationParams(0.07, 6e-4, 0.1, 0.3)
        a = total(mesh, DesignField(r2, r3), StimulusField(sv[None]),
                  [uv], targets, params)
        b = total(pmesh, DesignField(p2, p3), StimulusField(ps[None]),
                  [pu], targets, params)
        for name in ("tracking", "perimeter", "volume_penalty",
                     "stimulus_penalty", "total"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=1e-12, abs=1e-15)

    def test_params_validation(self):
        with pytest.raises(InvalidParameterError):
            RegularizationParams(0.0, 1.0, 0.1, 0.1)
        with pytest.raises(InvalidParameterError):
            RegularizationParams(0.1, 0.0, 0.1, 0.1)
        with pytest.raises(InvalidParameterError):
            RegularizationParams(0.1, 1.0, -0.1, 0.1)
        for i, name in enumerate(("epsilon", "alpha", "nu2", "nu3",
                                  "link_weight")):
            for bad in (np.nan, np.inf):
                values = [0.1, 1.0, 0.1, 0.1, 0.0]
                values[i] = bad
                with pytest.raises(InvalidParameterError, match=name):
                    RegularizationParams(*values)

    def test_unresolved_interface_warns(self):
        params = RegularizationParams(0.01, 1.0, 0.1, 0.1)
        with pytest.warns(RuntimeWarning):
            params.warn_if_unresolved(cell_size=0.05)
