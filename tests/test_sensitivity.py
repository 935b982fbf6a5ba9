import numpy as np
import pytest

from morphopt.elasticity import (LINK_FLOOR, StateSolution,
                                  assemble_stiffness, assemble_stimulus_load,
                                  element_strains, link_loads, solve_adjoint,
                                  solve_link, solve_state)
from morphopt.errors import InvalidParameterError
from morphopt.fields import DesignField, StimulusField, project_design
from morphopt.functional import (RegularizationParams, link_energy, total,
                                 tracking)
from morphopt.materials import Material, PhaseSet
from morphopt.mesh import build_hexagon_mesh, build_rect_mesh
from morphopt.linsolve import solve_spd
from morphopt.sensitivity import (Evaluation, elasticity_design_grad,
                                  grad_design, grad_stimulus,
                                  link_design_grad, perimeter_design_grad,
                                  q_design_grad)
from morphopt.verify import fd_gradient_check

PHASES = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))
BOX = (1 - 1 / 15, 1 / 6 - 1 / 30, 1.0, 1 / 6 + 1 / 30)
TARGETS = np.array([[0.0, 1.0]])
# the link weight of criterion 6d's desk run (tests/test_acceptance.py)
LINK_WEIGHT = 0.1


def cantilever(h):
    return build_rect_mesh(1.0, 1 / 3, h, "left", BOX)


class TestFdAgreement:
    def test_both_gradient_blocks(self):
        mesh = cantilever(1 / 12)
        params = RegularizationParams(2 / 12, 6e-4, 0.1, 0.3)
        res = fd_gradient_check(mesh, PHASES, params, TARGETS, trials=5,
                                delta=1e-6, seed=42)
        assert res.design_error <= 1e-5
        assert res.stimulus_error <= 1e-5

    def test_multi_case(self):
        mesh = cantilever(1 / 10)
        params = RegularizationParams(0.2, 1e-3, 0.2, 0.4)
        targets = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = fd_gradient_check(mesh, PHASES, params, targets, trials=3,
                                delta=1e-6, seed=7)
        assert res.max_error <= 1e-5


class TestTermStructure:
    def test_zero_fields_reduce_to_perimeter_plus_volume(self):
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        rng = np.random.default_rng(0)
        design = project_design(DesignField(rng.uniform(0, 1, n),
                                            rng.uniform(0, 1, n)))
        stim = StimulusField.zeros(1, n)
        params = RegularizationParams(0.1, 6e-4, 0.1, 0.3)
        zero_state = StateSolution([np.zeros((n, 2))], None, None)
        lams = [np.zeros((n, 2))]
        g2, g3 = grad_design(mesh, design, stim, zero_state,
                             element_strains(mesh, lams), PHASES, params)
        p2, p3 = perimeter_design_grad(mesh, design, params.epsilon)
        lumped = mesh.lumped_node_areas()
        np.testing.assert_allclose(g2, params.alpha * p2 + 0.1 * lumped,
                                   rtol=1e-13, atol=1e-18)
        np.testing.assert_allclose(g3, params.alpha * p3 + 0.3 * lumped,
                                   rtol=1e-13, atol=1e-18)

    def test_perimeter_gradient_vanishes_at_vertex(self):
        # identically zero up to quadrature round-off (W' ~ 1 ulp at vertices)
        mesh = cantilever(1 / 10)
        design = DesignField.constant(mesh.n_nodes, 1.0, 0.0)
        p2, p3 = perimeter_design_grad(mesh, design, 0.05)
        assert np.max(np.abs(p2)) <= 1e-14
        assert np.max(np.abs(p3)) <= 1e-14

    def test_q_gradient_zero_without_stimulus(self):
        mesh = cantilever(1 / 10)
        design = DesignField.constant(mesh.n_nodes, 0.4, 0.2)
        q2, q3 = q_design_grad(mesh, design, StimulusField.zeros(2, mesh.n_nodes))
        assert np.max(np.abs(q2)) == 0.0 and np.max(np.abs(q3)) == 0.0

    def test_stimulus_gradient_sign_structure(self):
        # pure responsive, dilation adjoint tr(e(lambda)) = 2 > 0, s = 0:
        # increasing the stimulus must decrease the objective
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.0, 1.0)
        stim = StimulusField.zeros(1, n)
        lams = [mesh.nodes - mesh.nodes.mean(axis=0)]
        gs = grad_stimulus(mesh, design, stim, element_strains(mesh, lams),
                           PHASES)
        assert np.all(gs[0] < 0.0)

    def test_stimulus_gradient_zero_where_inactive(self):
        # rho3 = 0 and s = 0 kill both terms of g_s
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.7, 0.0)
        stim = StimulusField.zeros(1, n)
        rng = np.random.default_rng(1)
        lams = [rng.normal(size=(n, 2))]
        gs = grad_stimulus(mesh, design, stim, element_strains(mesh, lams),
                           PHASES)
        assert np.max(np.abs(gs)) == 0.0

    def test_elasticity_term_is_tracking_gradient(self):
        # with alpha, nu2, nu3 and the stimulus penalty all absent, the
        # design gradient is the pure elasticity term; checked against
        # central differences of the tracking-only reduced objective
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        rng = np.random.default_rng(5)
        from morphopt.functional import tracking as tracking_term
        for _ in range(3):
            design = DesignField(rng.uniform(0.2, 0.8, n),
                                 rng.uniform(0.2, 0.8, n))
            stim = StimulusField(rng.uniform(-0.5, 0.5, (1, n)))
            state = solve_state(mesh, design, PHASES, stim)
            lams = solve_adjoint(mesh, state, TARGETS)
            e2, e3 = elasticity_design_grad(mesh, design, stim, state,
                                            element_strains(mesh, lams),
                                            PHASES)
            phi2 = rng.uniform(-1, 1, n)
            phi3 = rng.uniform(-1, 1, n)
            analytic = float(e2 @ phi2 + e3 @ phi3)
            delta = 1e-6

            def j_track(sign):
                d = DesignField(design.rho2 + sign * delta * phi2,
                                design.rho3 + sign * delta * phi3)
                st = solve_state(mesh, d, PHASES, stim)
                return tracking_term(mesh, st.u, TARGETS)

            fd = (j_track(+1) - j_track(-1)) / (2 * delta)
            assert analytic == pytest.approx(fd, rel=2e-6, abs=1e-12)


class TestReducedObjective:
    def test_matches_total_on_solved_state(self):
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.3, 0.3)
        stim = StimulusField(np.full((1, n), 0.2))
        params = RegularizationParams(0.1, 6e-4, 0.1, 0.3)
        value = Evaluation(mesh, design, stim, PHASES, params,
                           TARGETS).breakdown.total
        state = solve_state(mesh, design, PHASES, stim)
        assert value == total(mesh, design, stim, state.u, TARGETS,
                              params).total

    def test_bitwise_deterministic(self):
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        rng = np.random.default_rng(9)
        design = DesignField(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        stim = StimulusField(rng.uniform(-1, 1, (1, n)))
        params = RegularizationParams(0.1, 6e-4, 0.1, 0.3)
        a = Evaluation(mesh, design, stim, PHASES, params, TARGETS)
        b = Evaluation(mesh, design, stim, PHASES, params, TARGETS)
        assert a.breakdown.total == b.breakdown.total
        np.testing.assert_array_equal(a.gradient.g_rho2, b.gradient.g_rho2)
        np.testing.assert_array_equal(a.gradient.g_s, b.gradient.g_s)

    def test_lagrangian_value_independent_of_multiplier(self):
        # L(u(rho,s), lambda) = J for any lambda: the residual term vanishes
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.4, 0.3)
        stim = StimulusField(np.full((1, n), 0.4))
        params = RegularizationParams(0.1, 6e-4, 0.1, 0.3)
        state = solve_state(mesh, design, PHASES, stim)
        j = total(mesh, design, stim, state.u, TARGETS, params).total
        rng = np.random.default_rng(3)
        u = state.u[0].ravel()
        load = assemble_stimulus_load(mesh, design, PHASES, stim)[:, 0]
        load[state.fixed_dofs] = 0.0
        for _ in range(3):
            lam = rng.normal(size=2 * n)
            lam[state.fixed_dofs] = 0.0
            residual_term = float(lam @ (state.operator @ u - load))
            assert abs((j + residual_term) - j) <= 1e-10 * max(abs(j), 1.0)

    def test_gradient_bundle_consistent(self):
        mesh = cantilever(1 / 12)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.35, 0.25)
        stim = StimulusField(np.full((1, n), -0.3))
        params = RegularizationParams(0.15, 6e-4, 0.1, 0.3)
        ev = Evaluation(mesh, design, stim, PHASES, params, TARGETS)
        state = solve_state(mesh, design, PHASES, stim)
        assert ev.breakdown == total(mesh, design, stim, state.u, TARGETS,
                                     params)
        lams = solve_adjoint(mesh, state, TARGETS)
        np.testing.assert_array_equal(ev.lambdas[0], lams[0])
        g2, g3 = grad_design(mesh, design, stim, state,
                             element_strains(mesh, lams), PHASES, params)
        np.testing.assert_array_equal(ev.gradient.g_rho2, g2)
        np.testing.assert_array_equal(ev.gradient.g_rho3, g3)
        np.testing.assert_array_equal(
            ev.gradient.g_s,
            grad_stimulus(mesh, design, stim, element_strains(mesh, lams),
                          PHASES))
        assert ev.gradient.g_s.shape == (1, n)


class TestOneFactor:
    def setup_method(self):
        self.mesh = cantilever(1 / 10)
        n = self.mesh.n_nodes
        self.design = DesignField.constant(n, 0.35, 0.25)
        self.stim = StimulusField(np.full((1, n), 0.3))

    @pytest.mark.parametrize("link_weight, factors", [(0.0, 1),
                                                      (LINK_WEIGHT, 2)])
    def test_gradient_and_stimulus_resolve_share_the_factor(
            self, link_weight, factors, monkeypatch):
        from morphopt import elasticity
        inner = elasticity.BlockCholesky
        built = []

        def counted(*args, **kwargs):
            built.append(None)
            return inner(*args, **kwargs)
        monkeypatch.setattr(elasticity, "BlockCholesky", counted)
        params = RegularizationParams(0.1, 6e-4, 0.1, 0.3,
                                      link_weight=link_weight)
        ev = Evaluation(self.mesh, self.design, self.stim, PHASES, params,
                        TARGETS)
        ev.gradient
        ev.at_stimulus(StimulusField(-self.stim.s)).gradient
        assert len(built) == factors

    def test_released_state_cannot_be_solved_again(self):
        params = RegularizationParams(0.1, 6e-4, 0.1, 0.3)
        ev = Evaluation(self.mesh, self.design, self.stim, PHASES, params,
                        TARGETS)
        ev.release()
        with pytest.raises(InvalidParameterError, match="released"):
            solve_adjoint(self.mesh, ev.state, TARGETS)


class TestOncePerField:
    """The density gradients and sum_j s_j^2, which the objective and both
    gradients read, are formed once per design and per stimulus field."""

    def test_one_density_product_per_gradient(self):
        mesh = cantilever(1 / 60)                     # the desk mesh
        n = mesh.n_nodes
        rng = np.random.default_rng(3)
        design = DesignField(rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n))
        stim = StimulusField(rng.uniform(-0.9, 0.9, (1, n)))
        D = mesh.gradient_operator()
        products = []

        class Counted:
            T = D.T

            def __matmul__(self, x):
                products.append(np.reshape(x, (n, -1)))
                return D @ x
        mesh.cache["gradient"] = Counted()
        params = RegularizationParams(2 / 60, 6e-4, 0.1, 0.3)
        Evaluation(mesh, design, stim, PHASES, params, TARGETS).gradient
        with_densities = [x for x in products if any(
            np.array_equal(col, rho) for col in x.T
            for rho in (design.rho2, design.rho3))]
        assert len(with_densities) == 1
        assert len(products) > 1                      # strains go through D

    def test_trials_sharing_a_stimulus_square_it_once(self, monkeypatch):
        from morphopt import fields
        inner = fields._Derived.derived
        formed = []

        def recorded(field, mesh, key, compute):
            def counted():
                formed.append((id(field), key))
                return compute()
            return inner(field, mesh, key, counted)
        monkeypatch.setattr(fields._Derived, "derived", recorded)
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        rng = np.random.default_rng(5)
        stim = StimulusField(rng.uniform(-0.9, 0.9, (2, n)))
        targets = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = RegularizationParams(0.2, 6e-4, 0.1, 0.3)
        designs = [DesignField(rng.uniform(0.1, 0.9, n),
                               rng.uniform(0.1, 0.9, n)) for _ in range(3)]
        for design in designs:
            Evaluation(mesh, design, stim, PHASES, params, targets).gradient
        assert formed.count((id(stim), "squares")) == 1
        for design in designs:
            assert formed.count((id(design), "gradients")) == 1


class TestEmptyDesignIsKKT:
    """At rho2 = rho3 = s = 0 the stimulus load a(rho3) s vanishes, so
    u = 0 and every elastic term of the gradient with it; the volume
    gradient is positive at every node, so no feasible direction descends
    and the projected gradient is 0, whatever the target."""

    @pytest.mark.parametrize("name, overrides, total_value", [
        ("cantilever_desk_staggered", [], 1 / 450),
        ("hexagon_contrast5", ["mesh.h=0.01", "regularization.epsilon=0.02"],
         4.676537180435967e-3)], ids=["desk", "hexagon"])
    def test_empty_design_is_a_kkt_point(self, name, overrides, total_value):
        from morphopt.config import load_shipped_config
        spec = load_shipped_config(name, overrides=overrides)
        mesh = spec.build_mesh()
        n, targets = mesh.n_nodes, spec.target_array()
        ev = Evaluation(mesh, DesignField.constant(n, 0.0, 0.0),
                        StimulusField.zeros(len(targets), n), spec.phases,
                        spec.params, targets)
        g = ev.gradient
        assert np.all(ev.state.u == 0.0)
        assert g.g_rho2.min() > 0.0 and g.g_rho3.min() > 0.0
        assert np.all(g.g_s == 0.0)
        # the projection onto the box of run_monolithic's variable
        x = np.zeros(2 * n + g.g_s.size)
        grad = np.concatenate([g.g_rho2, g.g_rho3, g.g_s.ravel()])
        lower = np.concatenate([np.zeros(2 * n), -np.ones(g.g_s.size)])
        assert np.all(x - np.clip(x - grad, lower, 1.0) == 0.0)
        assert ev.breakdown.total == total_value


class TestLoadCases:
    @pytest.mark.parametrize("targets, n_cases", [
        ([[0.0, 1.0], [1.0, 0.0]], 1), ([[0.0, 1.0]], 2)],
        ids=["target-without-case", "case-without-target"])
    def test_target_count_must_match_cases(self, targets, n_cases):
        # an extra target was dropped silently, a missing one raised a bare
        # IndexError
        mesh = cantilever(1 / 10)
        n = mesh.n_nodes
        design = DesignField.constant(n, 0.3, 0.3)
        stim = StimulusField(np.full((n_cases, n), 0.5))
        params = RegularizationParams(0.2, 6e-4, 0.1, 0.3)
        with pytest.raises(InvalidParameterError, match="load cases"):
            Evaluation(mesh, design, stim, PHASES, params, targets)
        state = solve_state(mesh, design, PHASES, stim)
        with pytest.raises(InvalidParameterError, match="load cases"):
            tracking(mesh, state.u, targets)
        with pytest.raises(InvalidParameterError, match="load cases"):
            solve_adjoint(mesh, state, targets)

    def test_three_case_shapes(self):
        # one array per family, case axis first, on the three-case hexagon
        mesh = build_hexagon_mesh(0.35, 0.35 / 6, 0.14)
        n = mesh.n_nodes
        s32 = np.sqrt(3.0) / 2.0
        targets = np.array([[1.0, 0.0], [-0.5, s32], [-0.5, -s32]])
        design = DesignField.constant(n, 0.3, 0.3)
        stim = StimulusField(np.outer([1.0, -0.5, 0.25], np.ones(n)))
        params = RegularizationParams(2 * mesh.cell_size, 3.5e-4, 0.7, 0.03,
                                      link_weight=LINK_WEIGHT)
        ev = Evaluation(mesh, design, stim, PHASES, params, targets)
        assert ev.state.u.shape == ev.lambdas.shape == (3, n, 2)
        V, F = ev.link
        assert V.shape == F.shape == (3, 2 * n)
        # every row is its own one-case solve
        for j in range(3):
            one = Evaluation(mesh, design, StimulusField(stim.s[j]), PHASES,
                             params, targets[j:j + 1])
            np.testing.assert_allclose(
                one.state.u[0], ev.state.u[j],
                rtol=0, atol=1e-9 * np.abs(ev.state.u).max())
            np.testing.assert_array_equal(one.link[1][0], F[j])
        assert ev.gradient.g_s.shape == (3, n)


class TestLinkSwitch:
    def test_fd_agreement_at_criterion_1_bar(self):
        mesh = cantilever(1 / 20)
        params = RegularizationParams(2 / 20, 6e-4, 0.1, 0.3,
                                      link_weight=LINK_WEIGHT)
        res = fd_gradient_check(mesh, PHASES, params, TARGETS, trials=20,
                                delta=1e-6, seed=0)
        bad = fd_gradient_check(mesh, PHASES, params, TARGETS, trials=2,
                                delta=1e-6, seed=1, corrupt="link")
        assert res.design_error <= 1e-5
        assert res.stimulus_error <= 1e-5
        assert bad.design_error > 1e-5

    def test_off_by_default(self):
        mesh = cantilever(1 / 12)
        n = mesh.n_nodes
        rng = np.random.default_rng(4)
        design = DesignField(rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n))
        stim = StimulusField(rng.uniform(-0.9, 0.9, (1, n)))
        off = RegularizationParams(2 / 12, 6e-4, 0.1, 0.3)
        on = RegularizationParams(2 / 12, 6e-4, 0.1, 0.3,
                                  link_weight=LINK_WEIGHT)
        ev_off = Evaluation(mesh, design, stim, PHASES, off, TARGETS)
        ev_on = Evaluation(mesh, design, stim, PHASES, on, TARGETS)
        b_off, g_off = ev_off.breakdown, ev_off.gradient
        b_on, g_on = ev_on.breakdown, ev_on.gradient
        assert ev_off.link is None and b_off.link == 0.0
        assert b_off.total == (b_off.tracking + off.alpha * b_off.perimeter
                               + b_off.volume_penalty + b_off.stimulus_penalty)
        assert b_on.total == b_off.total + LINK_WEIGHT * b_on.link
        link = LINK_WEIGHT * link_design_grad(
            mesh, design, solve_link(mesh, design, TARGETS))
        np.testing.assert_array_equal(g_on.g_rho2, g_off.g_rho2 + link)
        np.testing.assert_array_equal(g_on.g_rho3, g_off.g_rho3 + link)
        np.testing.assert_array_equal(g_on.g_s, g_off.g_s)

    def test_full_material_is_unit_elastic_compliance(self):
        # k(1) = 1: the link body is the clamped unit material itself
        mesh = cantilever(1 / 12)
        unit = Material(1.0, 0.3, 0.0)
        phases = PhaseSet(unit, unit)
        design = DesignField.constant(mesh.n_nodes, 1.0, 0.0)
        K = assemble_stiffness(mesh, design, phases,
                               fixed_dofs=mesh.dirichlet_dofs())
        f = link_loads(mesh, TARGETS)[0]
        expected = float(f @ solve_spd(K, f))
        assert link_energy(solve_link(mesh, design, TARGETS)) == pytest.approx(
            expected, rel=1e-9)

    def test_void_target_costs_inverse_floor(self):
        # the empty design is the full one scaled by LINK_FLOOR
        mesh = cantilever(1 / 12)
        n = mesh.n_nodes
        full = link_energy(solve_link(mesh, DesignField.constant(n, 1.0, 0.0),
                                      TARGETS))
        empty = link_energy(solve_link(mesh, DesignField.constant(n, 0.0, 0.0),
                                       TARGETS))
        assert empty * LINK_FLOOR == pytest.approx(full, rel=1e-9)
