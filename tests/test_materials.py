from fractions import Fraction

import numpy as np
import pytest

from morphopt.errors import InvalidParameterError
from morphopt.materials import (Material, PhaseSet, interp, interp_derivative,
                                stress)


class TestInterpolation:
    @pytest.mark.parametrize("rho,expected", [(1.0, 1.0), (0.0, 0.0),
                                              (-0.5, 0.25), (0.7, 0.49)])
    def test_values(self, rho, expected):
        assert interp(rho) == pytest.approx(expected, abs=1e-15)

    def test_tiny_overshoot_clamped(self):
        assert interp(1.0 + 1e-13) == 1.0
        assert interp(-1.0 - 1e-13) == 1.0

    def test_gross_violation_rejected(self):
        with pytest.raises(InvalidParameterError):
            interp(1.5)

    def test_even(self):
        r = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(interp(r), interp(-r))

    @pytest.mark.parametrize("rho,expected", [(1.0, 2.0), (0.0, 0.0)])
    def test_derivative_values(self, rho, expected):
        assert interp_derivative(rho) == expected

    def test_derivative_matches_central_difference(self):
        rho, delta = 0.3, 1e-5
        fd = (interp(rho + delta) - interp(rho - delta)) / (2 * delta)
        assert abs(interp_derivative(rho) - fd) <= 1e-9
        assert interp_derivative(rho) == pytest.approx(0.6)


class TestMaterial:
    def test_plane_strain_constants(self):
        m = Material(5.0, 0.3, 1.0)
        assert m.lame_mu == pytest.approx(5.0 / 2.6)
        assert m.lame_lambda == pytest.approx(5.0 * 0.3 / (1.3 * 0.4))
        assert m.bulk == pytest.approx(m.lame_lambda + m.lame_mu)

    @pytest.mark.parametrize("kwargs", [
        dict(young=-1.0, poisson=0.3),
        dict(young=1.0, poisson=0.5),
        dict(young=1.0, poisson=-1.0),
        dict(young=1.0, poisson=0.3, beta=-0.1),
    ])
    def test_invalid_material(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Material(**kwargs)


class TestStress:
    def test_stress_free_dilation(self):
        m = Material(5.0, 0.3, 1.0)
        sigma = stress(m, np.eye(2), s=1.0)
        assert np.max(np.abs(sigma)) <= 1e-14

    def test_zero_inputs(self):
        m = Material(3.0, 0.2, 0.7)
        assert np.max(np.abs(stress(m, np.zeros((2, 2)), 0.0))) == 0.0

    def test_uniaxial_against_symbolic_oracle(self):
        # exact rational plane-strain evaluation of C e for e = diag(eps, 0)
        E, nu, eps = Fraction(5), Fraction(3, 10), Fraction(7, 100)
        mu = E / (2 * (1 + nu))
        lam = E * nu / ((1 + nu) * (1 - 2 * nu))
        sxx = float((2 * mu + lam) * eps)
        syy = float(lam * eps)
        sigma = stress(Material(5.0, 0.3, 0.0), np.diag([0.07, 0.0]))
        assert sigma[0, 0] == pytest.approx(sxx, rel=1e-14)
        assert sigma[1, 1] == pytest.approx(syy, rel=1e-14)
        assert sigma[0, 1] == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        m = Material(2.0, 0.25, 0.8)
        for _ in range(20):
            e1 = rng.normal(size=(2, 2))
            e1 = 0.5 * (e1 + e1.T)
            e2 = rng.normal(size=(2, 2))
            e2 = 0.5 * (e2 + e2.T)
            s1, s2, a = rng.normal(), rng.normal(), rng.normal()
            lhs = stress(m, a * e1 + e2, a * s1 + s2)
            rhs = a * stress(m, e1, s1) + stress(m, e2, s2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1, np.max(np.abs(rhs)))

    def test_quadratic_form_positive_definite(self):
        rng = np.random.default_rng(11)
        for m in (Material(5.0, 0.3), Material(0.01, 0.45), Material(2.0, -0.5)):
            for _ in range(50):
                e = rng.normal(size=(2, 2))
                e = 0.5 * (e + e.T)
                norm2 = float(np.sum(e * e))
                if norm2 < 1e-12:
                    continue
                quad = float(np.sum(stress(m, e) * e))
                assert quad / norm2 > 0.0


class TestPhaseSet:
    def test_build_derives_void(self):
        ps = PhaseSet(Material(5.0, 0.3), Material(5.0, 0.3, 1.0), eta=1e-4)
        assert ps.void.young == pytest.approx(5e-4)
        assert ps.void.poisson == 0.3
        assert ps.void.beta == 0.0
        assert ps.as_tuple() == (ps.void, ps.passive, ps.responsive)

    def test_eta_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            PhaseSet(Material(5.0, 0.3), Material(5.0, 0.3, 1.0), eta=0.5)

    def test_nonzero_passive_beta_rejected(self):
        with pytest.raises(InvalidParameterError):
            PhaseSet(Material(5.0, 0.3, 0.5), Material(5.0, 0.3, 1.0))
