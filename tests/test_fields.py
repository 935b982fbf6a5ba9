import numpy as np
import pytest

from morphopt.errors import InvalidParameterError
from morphopt.fields import (DesignField, StimulusField, check_nodal,
                             check_targets, nodal_average_from_elements,
                             project_design, project_stimulus)
from morphopt.mesh import Mesh, build_rect_mesh


class TestProjections:
    def test_design_clamps(self):
        d = DesignField(np.array([1.2, 0.5, -0.1]), np.array([0.0, -0.3, 2.0]))
        p = project_design(d)
        np.testing.assert_array_equal(p.rho2, [1.0, 0.5, 0.0])
        np.testing.assert_array_equal(p.rho3, [0.0, 0.0, 1.0])

    def test_design_idempotent(self):
        d = DesignField(np.array([0.2, 0.9]), np.array([0.4, 0.1]))
        p = project_design(d)
        np.testing.assert_array_equal(p.rho2, d.rho2)
        np.testing.assert_array_equal(p.rho3, d.rho3)
        pp = project_design(p)
        np.testing.assert_array_equal(pp.rho2, p.rho2)

    def test_stimulus_clamps_and_idempotent(self):
        s = StimulusField(np.array([[1.4, -2.0, 0.3]]))
        p = project_stimulus(s)
        np.testing.assert_array_equal(p.s, [[1.0, -1.0, 0.3]])
        np.testing.assert_array_equal(project_stimulus(p).s, p.s)

    def test_projection_nonexpansive_max_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-2, 3, 30)
            b = rng.uniform(-2, 3, 30)
            pa = project_design(DesignField(a, np.zeros(30))).rho2
            pb = project_design(DesignField(b, np.zeros(30))).rho2
            assert np.max(np.abs(pa - pb)) <= np.max(np.abs(a - b)) + 1e-15

    def test_rho1_substitution(self):
        d = DesignField(np.array([0.3, 1.0]), np.array([0.3, 1.0]))
        np.testing.assert_allclose(d.rho1(), [0.4, -1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            DesignField(np.zeros(3), np.zeros(4))


class TestNodalAverage:
    def test_constant_maps_to_constant(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.25, "left", None)
        vals = np.full(mesh.n_triangles, 3.0)
        np.testing.assert_allclose(nodal_average_from_elements(mesh, vals),
                                   3.0, rtol=1e-14)

    def test_two_triangle_weighted_average(self):
        # shared nodes of two triangles with different areas
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        mesh = Mesh(nodes, tris, np.array([], dtype=int),
                    np.array([], dtype=int), 1.0)
        a1, a2 = mesh.areas
        out = nodal_average_from_elements(mesh, np.array([5.0, -1.0]))
        expected = (a1 * 5.0 + a2 * -1.0) / (a1 + a2)
        assert out[0] == pytest.approx(expected, rel=1e-14)
        assert out[2] == pytest.approx(expected, rel=1e-14)
        assert out[1] == pytest.approx(5.0)
        assert out[3] == pytest.approx(-1.0)

    def test_affine_recovery_first_order(self):
        f = lambda p: 0.7 * p[:, 0] - 1.3 * p[:, 1] + 0.2

        def max_err(h):
            mesh = build_rect_mesh(1.0, 1.0, h, "left", None)
            elem = f(mesh.centroids())
            rec = nodal_average_from_elements(mesh, elem)
            return np.max(np.abs(rec - f(mesh.nodes)))

        e1, e2 = max_err(0.1), max_err(0.05)
        assert 1.5 <= e1 / e2 <= 2.5

    def test_wrong_length_rejected(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.5, "left", None)
        with pytest.raises(InvalidParameterError):
            nodal_average_from_elements(mesh, np.zeros(3))


class TestContainers:
    def test_stimulus_1d_promoted(self):
        s = StimulusField(np.zeros(5))
        assert s.n_cases == 1 and s.n_nodes == 5

    def test_check_nodal(self):
        mesh = build_rect_mesh(1.0, 1.0, 0.5, "left", None)
        check_nodal(mesh, np.zeros(mesh.n_nodes), "ok")
        with pytest.raises(InvalidParameterError, match="rho2"):
            check_nodal(mesh, np.zeros(3), "rho2")
        with pytest.raises(InvalidParameterError, match="stimulus"):
            check_nodal(mesh, 0.5, "stimulus")

    def test_check_targets_shapes(self):
        t = check_targets([[0, 1], [1, 0]], 2)
        assert t.shape == (2, 2) and t.dtype == float
        # one target per case only: a nodal (n, n_nodes, 2) array is rejected
        for bad in (np.zeros((2, 10, 2)), np.zeros((2, 3))):
            with pytest.raises(InvalidParameterError):
                check_targets(bad, 2)
        # and so is a target count other than the case count
        for n_cases in (1, 3):
            with pytest.raises(InvalidParameterError, match="load cases"):
                check_targets(t, n_cases)

    def test_fields_stored_in_c_order(self):
        # the saved bytes of a field must not depend on how it was computed
        s = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        stim = StimulusField(s)
        assert stim.s.flags.c_contiguous
        np.testing.assert_array_equal(stim.s, s)

    def test_constant_constructors(self):
        d = DesignField.constant(4, 0.3, 0.2)
        assert d.n_nodes == 4
        s = StimulusField.zeros(2, 4)
        assert s.n_cases == 2 and not s.s.any()
