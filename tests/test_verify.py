import numpy as np
import pytest

from morphopt.elasticity import solve_adjoint, solve_state
from morphopt.errors import InvalidParameterError
from morphopt.fields import DesignField, StimulusField, project_design
from morphopt.functional import RegularizationParams
from morphopt.materials import Material, PhaseSet
from morphopt.mesh import build_rect_mesh
from morphopt.stimulus_update import minimize_stimulus_field
from morphopt.verify import (brute_force_stimulus, fd_gradient_check,
                             minimize_profile, profile_coefficient)

PHASES = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))
BOX = (1 - 1 / 15, 1 / 6 - 1 / 30, 1.0, 1 / 6 + 1 / 30)


class TestFdCheck:
    def setup_method(self):
        self.mesh = build_rect_mesh(1.0, 1 / 3, 1 / 10, "left", BOX)
        self.params = RegularizationParams(0.2, 6e-4, 0.1, 0.3)
        self.targets = np.array([[0.0, 1.0]])

    def test_sound_gradients_pass(self):
        res = fd_gradient_check(self.mesh, PHASES, self.params, self.targets,
                                trials=4, seed=0)
        assert res.design_error <= 1e-5
        assert res.stimulus_error <= 1e-5

    def test_volume_term_alone_is_exact(self):
        # at zero fields the objective is linear in the densities, so the
        # finite difference is exact up to rounding
        res = fd_gradient_check(self.mesh, PHASES, self.params, self.targets,
                                trials=2, seed=1)
        assert res.max_error < 1e-5

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(InvalidParameterError, match="trials"):
            fd_gradient_check(self.mesh, PHASES, self.params, self.targets,
                              trials=trials)

    @pytest.mark.parametrize("delta", [0.0, -1e-6, np.inf, np.nan])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(InvalidParameterError, match="delta"):
            fd_gradient_check(self.mesh, PHASES, self.params, self.targets,
                              trials=1, delta=delta)

    @pytest.mark.parametrize("corrupt", ["Design", "stimulis", "", 1])
    def test_unknown_corrupt_rejected(self, corrupt):
        # a typo must not run the check without its corruption
        with pytest.raises(InvalidParameterError, match="corrupt"):
            fd_gradient_check(self.mesh, PHASES, self.params, self.targets,
                              trials=1, corrupt=corrupt)

    def test_mutation_detected_in_design_block(self):
        res = fd_gradient_check(self.mesh, PHASES, self.params, self.targets,
                                trials=2, seed=2, corrupt="design")
        assert res.design_error > 1e-5

    def test_mutation_detected_in_stimulus_block(self):
        res = fd_gradient_check(self.mesh, PHASES, self.params, self.targets,
                                trials=2, seed=3, corrupt="stimulus")
        assert res.stimulus_error > 1e-5


class TestBruteForceStimulus:
    def setup_method(self):
        self.mesh = build_rect_mesh(1.0, 1 / 3, 1 / 10, "left",
                                    (0.8, 0.1, 1.0, 0.23))
        self.n = self.mesh.n_nodes
        rng = np.random.default_rng(4)
        self.design = project_design(DesignField(rng.uniform(0, 1, self.n),
                                                 rng.uniform(0, 1, self.n)))
        stim = StimulusField(rng.uniform(-1, 1, (1, self.n)))
        state = solve_state(self.mesh, self.design, PHASES, stim)
        self.lams = solve_adjoint(self.mesh, state, np.array([[0.0, 1.0]]))

    def test_agrees_with_closed_form(self):
        closed = minimize_stimulus_field(self.mesh, self.design, self.lams,
                                         PHASES)
        grid = brute_force_stimulus(self.mesh, self.design, self.lams,
                                    PHASES, resolution=20000)
        assert np.max(np.abs(closed.s - grid.s)) <= 2.0 / 20000

    def test_pure_responsive_node_saturates(self):
        design = DesignField.constant(self.n, 0.0, 1.0)
        lam = self.mesh.nodes - self.mesh.nodes.mean(axis=0)  # tr = 2 > 0
        grid = brute_force_stimulus(self.mesh, design, [lam], PHASES,
                                    resolution=1000)
        np.testing.assert_array_equal(grid.s, 1.0)

    def test_flat_quadratic_resolves_to_zero(self):
        design = DesignField.constant(self.n, 0.0, 1.0)  # B = 0 everywhere
        lam = np.zeros((self.n, 2))                      # c = 0 everywhere
        grid = brute_force_stimulus(self.mesh, design, [lam], PHASES,
                                    resolution=100)
        np.testing.assert_array_equal(grid.s, 0.0)

    def test_resolution_validated(self):
        with pytest.raises(InvalidParameterError):
            brute_force_stimulus(self.mesh, self.design, self.lams, PHASES,
                                 resolution=1)


class TestProfileCoefficient:
    def test_plateau_and_window(self):
        rows = profile_coefficient([0.08, 0.04, 0.02], n_intervals=2000)
        energies = [e for _, e in rows]
        for a, b in zip(energies, energies[1:]):
            assert abs(a - b) <= 0.02 * abs(a)
        limit = energies[-1]
        assert limit <= 2 / 3 + 1e-3
        assert limit >= 0.9 * (2 / 3)

    def test_straight_edge_upper_bound(self):
        (eps, energy), = profile_coefficient([0.05], n_intervals=2000)
        assert energy <= 2.0 * (1 / 3) + 1e-3

    def test_double_well_matches_classical_value(self):
        (eps, energy), = profile_coefficient([0.05], n_intervals=2000,
                                             potential="double")
        assert energy == pytest.approx(1 / 3, rel=0.01)

    def test_descends_from_crude_start(self):
        # the minimizer must do real work when started away from optimal
        import morphopt.verify as verify

        eps = 0.05
        n_nodes = 1001
        length = 40.0 * eps
        dx = length / (n_nodes - 1)
        x = np.linspace(0.0, length, n_nodes)
        crude = np.clip((x - 0.5 * length) / (20.0 * eps) + 0.5, 0.0, 1.0)
        z = np.concatenate([crude, np.zeros(n_nodes)])
        e0, _ = verify._profile_energy_and_grad(z, n_nodes, dx, eps, "triple")
        energy, _ = minimize_profile(eps, n_intervals=1000)
        assert energy < e0
        assert energy <= 2 / 3 + 1e-3

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            profile_coefficient([0.1, -0.1])

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_nonfinite_epsilon_rejected(self, eps):
        with pytest.raises(InvalidParameterError, match="epsilon"):
            profile_coefficient([eps])

    @pytest.mark.parametrize("kwargs", [
        {"n_intervals": 0}, {"n_intervals": -3}, {"span_factor": float("nan")},
        {"span_factor": float("inf")}, {"span_factor": 0.0},
        {"span_factor": -40.0}])
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
            minimize_profile(0.1, **kwargs)

    def test_unknown_potential_rejected(self):
        with pytest.raises(InvalidParameterError):
            minimize_profile(0.1, potential="quad")

    def test_profile_gradient_consistent(self):
        import morphopt.verify as verify

        rng = np.random.default_rng(5)
        n_nodes, eps = 41, 0.1
        dx = 40.0 * eps / (n_nodes - 1)
        z = rng.uniform(0.05, 0.95, 2 * n_nodes)
        e0, g = verify._profile_energy_and_grad(z, n_nodes, dx, eps, "triple")
        d = rng.uniform(-1, 1, 2 * n_nodes)
        delta = 1e-7
        ep, _ = verify._profile_energy_and_grad(z + delta * d, n_nodes, dx,
                                                eps, "triple")
        em, _ = verify._profile_energy_and_grad(z - delta * d, n_nodes, dx,
                                                eps, "triple")
        fd = (ep - em) / (2 * delta)
        assert float(g @ d) == pytest.approx(fd, rel=1e-6)
