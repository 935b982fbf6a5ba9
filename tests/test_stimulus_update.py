import numpy as np
import pytest

from morphopt.elasticity import solve_adjoint, solve_state
from morphopt.errors import InvalidParameterError
from morphopt.fields import DesignField, StimulusField, project_design
from morphopt.functional import RegularizationParams
from morphopt.materials import Material, PhaseSet
from morphopt.mesh import build_rect_mesh
from morphopt.sensitivity import Evaluation
from morphopt.stimulus_update import (minimize_stimulus_field,
                                      optimal_stimulus_pointwise)

PHASES = PhaseSet(Material(5.0, 0.3, 0.0), Material(5.0, 0.3, 1.0))


def grid_search_minimizer(c, B, resolution=10000):
    s = np.linspace(-1.0, 1.0, resolution + 1)
    q = -c * s + B * s * s
    qmin = q.min()
    candidates = s[q <= qmin]
    return candidates[np.argmin(np.abs(candidates))]


class TestPointwiseRule:
    def test_pure_responsive_positive_trace(self):
        # rho3 = 1, rho2 = 0 makes B = 0; positive trace drives s to +1
        assert optimal_stimulus_pointwise(np.array([0.7]),
                                          np.array([0.0]))[0] == 1.0

    def test_no_responsive_material(self):
        # rho3 = 0 makes c = 0 and B > 0: penalty minimizer 0
        assert optimal_stimulus_pointwise(np.array([0.0]),
                                          np.array([1.0]))[0] == 0.0

    def test_interior_minimizer_matches_grid_search(self):
        # rho2 = rho3 = 0.5, kappa = 1, tr = 0.1: c = 0.05, B = 0.25
        c, B = 0.25 * 2.0 * 1.0 * 0.1, 0.25
        s = optimal_stimulus_pointwise(np.array([c]), np.array([B]))[0]
        assert s == pytest.approx(0.1, abs=1e-14)
        assert abs(s - grid_search_minimizer(c, B, 20000)) <= 1e-4

    def test_degenerate_flat_quadratic(self):
        assert optimal_stimulus_pointwise(np.array([0.0]),
                                          np.array([0.0]))[0] == 0.0

    def test_negative_B_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimal_stimulus_pointwise(np.array([0.0]), np.array([-1e-3]))

    def test_kkt_conditions(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=200)
        B = np.abs(rng.normal(size=200)) + 1e-6
        s = optimal_stimulus_pointwise(c, B)
        slope = -c + 2.0 * B * s                # d/ds of -c s + B s^2
        interior = (np.abs(s) < 1.0)
        assert np.max(np.abs(slope[interior])) <= 1e-12
        assert np.all(slope[s >= 1.0] <= 1e-12)
        assert np.all(slope[s <= -1.0] >= -1e-12)

    def test_odd_and_monotone_in_c(self):
        B = np.full(101, 0.3)
        c = np.linspace(-2, 2, 101)
        s = optimal_stimulus_pointwise(c, B)
        np.testing.assert_allclose(s, -s[::-1], atol=1e-15)
        assert np.all(np.diff(s) >= -1e-15)

    def test_continuity_toward_vanishing_B(self):
        c = np.array([0.5])
        for B in (1e-2, 1e-4, 1e-8):
            s = optimal_stimulus_pointwise(c, np.array([B]))
            assert s[0] == 1.0  # clamp takes over well before B -> 0
        assert optimal_stimulus_pointwise(c, np.array([0.0]))[0] == 1.0

    def test_scalar_interface(self):
        assert optimal_stimulus_pointwise(0.05, 0.25) == pytest.approx(0.1)


class TestFieldMinimization:
    def setup_method(self):
        self.mesh = build_rect_mesh(1.0, 1 / 3, 1 / 10, "left",
                                    (0.8, 0.1, 1.0, 0.2333333333333333))
        self.n = self.mesh.n_nodes
        self.targets = np.array([[0.0, 1.0]])

    def test_zero_adjoint_gives_zero_stimulus(self):
        design = DesignField.constant(self.n, 0.4, 0.4)
        s = minimize_stimulus_field(self.mesh, design,
                                    [np.zeros((self.n, 2))], PHASES)
        assert np.max(np.abs(s.s)) == 0.0

    def test_no_responsive_gives_zero_stimulus(self):
        rng = np.random.default_rng(1)
        design = DesignField(rng.uniform(0, 1, self.n), np.zeros(self.n))
        lam = rng.normal(size=(self.n, 2))
        s = minimize_stimulus_field(self.mesh, design, [lam], PHASES)
        assert np.max(np.abs(s.s)) == 0.0

    def test_uniform_dilation_saturates(self):
        design = DesignField.constant(self.n, 0.0, 1.0)
        lam = self.mesh.nodes - self.mesh.nodes.mean(axis=0)
        s = minimize_stimulus_field(self.mesh, design, [lam], PHASES)
        np.testing.assert_array_equal(s.s, 1.0)

    def test_beats_random_stimuli_on_true_objective(self):
        rng = np.random.default_rng(2)
        design = project_design(DesignField(rng.uniform(0, 1, self.n),
                                            rng.uniform(0, 1, self.n)))
        params = RegularizationParams(0.2, 6e-4, 0.1, 0.3)
        s0 = StimulusField.zeros(1, self.n)
        state = solve_state(self.mesh, design, PHASES, s0)
        lams = solve_adjoint(self.mesh, state, self.targets)
        s_star = minimize_stimulus_field(self.mesh, design, lams, PHASES)
        j_star = Evaluation(self.mesh, design, s_star, PHASES, params,
                            self.targets).breakdown.total
        wins = 0
        trials = 200
        for _ in range(trials):
            s_rand = StimulusField(rng.uniform(-1, 1, (1, self.n)))
            j_rand = Evaluation(self.mesh, design, s_rand, PHASES, params,
                                self.targets).breakdown.total
            wins += j_star <= j_rand
        assert wins >= 0.95 * trials

    def test_cases_independent(self):
        rng = np.random.default_rng(4)
        design = project_design(DesignField(rng.uniform(0, 1, self.n),
                                            rng.uniform(0, 1, self.n)))
        lam1 = rng.normal(size=(self.n, 2))
        lam2 = rng.normal(size=(self.n, 2))
        both = minimize_stimulus_field(self.mesh, design, [lam1, lam2], PHASES)
        one = minimize_stimulus_field(self.mesh, design, [lam1], PHASES)
        two = minimize_stimulus_field(self.mesh, design, [lam2], PHASES)
        np.testing.assert_array_equal(both.s[0], one.s[0])
        np.testing.assert_array_equal(both.s[1], two.s[0])
