import numpy as np
import pytest

from conftest import reference_state
from mhd1d.constitutive import pressure, viscosity_mu
from mhd1d.core import Grid, PhysicalParams
from mhd1d.diagnostics import effective_stress
from mhd1d.solver import state_coeffs
from mhd1d.verification import MmsSolution


class TestPressure:
    @pytest.mark.parametrize("v,theta,R,expected", [
        (1.0, 1.0, 1.0, 1.0),
        (2.0, 3.0, 1.0, 1.5),
        (0.5, 2.0, 2.0, 8.0),
    ])
    def test_values(self, v, theta, R, expected):
        p = PhysicalParams(R=R)
        assert pressure(v, theta, p) == pytest.approx(expected, rel=1e-15)

    def test_domain_errors(self):
        p = PhysicalParams()
        with pytest.raises(ValueError):
            pressure(0.0, 1.0, p)
        with pytest.raises(ValueError):
            pressure(1.0, -1.0, p)

    def test_homogeneous_degree_zero(self):
        p = PhysicalParams(R=1.7)
        rng = np.random.default_rng(7)
        v = rng.uniform(0.2, 3.0, 50)
        theta = rng.uniform(0.2, 3.0, 50)
        for c in (0.5, 2.0, 10.0):
            assert np.allclose(pressure(c * v, c * theta, p),
                               pressure(v, theta, p), rtol=1e-14)


class TestViscosity:
    def test_values(self):
        assert viscosity_mu(1.0, PhysicalParams(mu1=1.0, mu2=0.5, alpha=2.0)) \
            == pytest.approx(1.5)
        assert viscosity_mu(2.0, PhysicalParams(mu1=1.0, mu2=4.0, alpha=2.0)) \
            == pytest.approx(2.0)

    def test_constant_viscosity_degeneration(self):
        p = PhysicalParams(mu1=1.3, mu2=0.0, alpha=5.0)
        v = np.array([0.1, 1.0, 10.0])
        assert np.all(viscosity_mu(v, p) == 1.3)

    def test_nonincreasing_and_floor(self):
        p = PhysicalParams(mu1=0.7, mu2=2.0, alpha=1.5)
        v = np.linspace(0.05, 20.0, 400)
        mu = viscosity_mu(v, p)
        assert np.all(np.diff(mu) <= 0.0)
        assert np.all(mu >= p.mu1)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            viscosity_mu(-1.0, PhysicalParams())


def interior_stress(state, grid, p):
    """effective_stress at every interior node."""
    coeffs = state_coeffs(state, viscosity_mu(state.v, p), p)
    return np.array([effective_stress(state, grid, coeffs, j)
                     for j in range(1, grid.cells)])


class TestEffectiveStress:
    def test_equilibrium_stress_is_minus_pressure(self):
        grid = Grid.uniform(8, 4.0, 0.0)
        state = reference_state(grid)
        sigma = interior_stress(state, grid, PhysicalParams(R=1.0))
        assert np.allclose(sigma, -1.0, atol=1e-15)

    def test_magnetic_pressure_contribution(self):
        grid = Grid.uniform(8, 4.0, 0.0)
        state = reference_state(grid)
        state.b[:, 0] = np.sqrt(2.0)
        sigma = interior_stress(state, grid, PhysicalParams(R=1.0))
        assert np.allclose(sigma, -2.0, rtol=1e-14)

    def test_matches_analytic_stress_at_second_order(self):
        # oracle: the closed-form stress of the manufactured fields
        sol = MmsSolution(amp_v=0.2, amp_u=0.3, amp_theta=0.15,
                          amp_b=(0.2, -0.1))
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        t = 0.3
        errs = []
        for cells in (32, 64, 128):
            grid = Grid.uniform(cells, 1.0, 0.0)
            state = sol.state(grid, t)
            xn = grid.nodes()[1:-1]
            k, ee = sol.k, np.exp(-t)
            v = sol.v(xn, t)
            ux = sol.amp_u * k * np.cos(k * xn) * ee
            mu = p.mu1 + p.mu2 * v ** (-p.alpha)
            analytic = mu * ux / v - (p.R * sol.theta(xn, t) / v
                                      + 0.5 * np.sum(sol.b(xn, t) ** 2, axis=-1))
            sigma = interior_stress(state, grid, p)
            errs.append(np.max(np.abs(sigma - analytic)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)
