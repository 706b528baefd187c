import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import reference_state
from mhd1d import verification
from mhd1d.core import (
    FAR_FIELD_THETA,
    BoundaryCondition,
    GaussianBump,
    Grid,
    PhysicalParams,
    make_initial_state,
)
from mhd1d.solver import PositivityFailure, StepControl
from mhd1d.verification import (
    MmsForcing,
    MmsSolution,
    explicit_reference,
    mms_convergence,
    mms_sources,
    numerical_source_check,
    oracle_comparison,
    reference_dt_bound,
    temporal_convergence,
)

CAUCHY = BoundaryCondition.CAUCHY_FAR_FIELD


class TestMmsSources:
    def test_zero_amplitudes_give_zero_sources(self):
        sol = MmsSolution()
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        grid = Grid.uniform(16, 1.0, 0.0)
        src = mms_sources(sol, grid, 0.7, p)
        for name, arr in src.items():
            assert np.all(arr == 0.0), name

    def test_velocity_only_volume_source(self):
        # with v* = 1 the volume equation needs S_v = -u*_x exactly
        sol = MmsSolution(amp_u=0.4)
        p = PhysicalParams.normalized()
        x = np.linspace(0.0, 1.0, 33)
        t = 0.45
        src = sol.sources_at(x, t, p)
        expected = -0.4 * sol.k * np.cos(sol.k * x) * np.exp(-t)
        assert np.allclose(src["v"], expected, atol=1e-15)

    def test_amplitude_guard(self):
        with pytest.raises(ValueError):
            MmsSolution(amp_v=0.9)
        with pytest.raises(ValueError):
            MmsSolution(amp_theta=-0.85)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, 0.5), (2.0, 1.0)])
    def test_sources_match_numerical_differentiation(self, alpha, beta):
        sol = MmsSolution(amp_v=0.15, amp_u=0.2, amp_theta=0.12,
                          amp_w=(0.15, -0.1), amp_b=(0.12, 0.08))
        p = PhysicalParams.normalized(alpha=alpha, beta=beta)
        errs = numerical_source_check(sol, p)
        assert max(errs.values()) <= 1e-6, errs

    def test_sources_match_numeric_for_general_constants(self):
        sol = MmsSolution(amp_v=0.2, amp_u=0.15, amp_theta=0.1,
                          amp_w=(0.1, 0.05), amp_b=(0.1, -0.07))
        p = PhysicalParams(mu1=0.8, mu2=0.5, alpha=1.3, kappa_tilde=1.2,
                           beta=0.7, lam=1.1, nu=0.9, R=1.15, c_v=0.85)
        errs = numerical_source_check(sol, p)
        assert max(errs.values()) <= 1e-6, errs

    def test_closed_forms_are_far_field_plus_mode(self):
        sol = MmsSolution(amp_v=0.2, amp_u=-0.3, amp_theta=0.1,
                          amp_w=(0.1, -0.2), amp_b=(0.3, 0.05))
        x, t, k = np.linspace(0.0, 1.0, 17), 0.4, sol.k
        e = np.exp(-t)
        assert np.allclose(sol.v(x, t), 1.0 + 0.2 * np.sin(k * x) * e,
                           rtol=0.0, atol=1e-15)
        assert np.allclose(sol.theta(x, t), 1.0 + 0.1 * np.cos(k * x) * e,
                           rtol=0.0, atol=1e-15)
        assert sol.w(x, t).shape == sol.b(x, t).shape == (17, 2)
        assert np.allclose(sol.b(x, t)[:, 1], 0.05 * np.cos(k * x) * e,
                           rtol=0.0, atol=1e-15)
        # each derivative is a quarter turn of the trig times k
        for name in ("v", "u", "theta", "w", "b"):
            f0, f2 = (sol.perturbation(name, x, t, n) for n in (0, 2))
            assert np.allclose(f2, -k * k * f0, rtol=0.0, atol=1e-13), name
        assert np.allclose(sol.perturbation("u", x, t, 3),
                           0.3 * k ** 3 * np.cos(k * x) * e,
                           rtol=0.0, atol=1e-12)

    def test_source_check_keys_run_v_u_w_b_theta(self):
        # the order of the `max_errors` keys in the verify output
        errs = numerical_source_check(MmsSolution(amp_v=0.1),
                                      PhysicalParams.normalized())
        assert list(errs) == ["v", "u", "w", "b", "theta"]


def heat_exact_semidiscrete(theta0: np.ndarray, grid: Grid, p: PhysicalParams,
                            bc: BoundaryCondition, t: float) -> np.ndarray:
    """Exact solution of the semi-discrete linear conduction system
    c_v*theta_t = kappa_tilde*theta_xx (v = 1, beta = 0, discrete stencils
    with the regime's boundary rows) via symmetric tridiagonal
    eigendecomposition: the oracle of the explicit reference's heat
    configuration."""
    m = grid.cells
    coef = p.kappa_tilde / (p.c_v * grid.dx ** 2)
    diag = np.full(m, -2.0 * coef)
    off = np.full(m - 1, coef)
    if bc is BoundaryCondition.ISOTHERMAL_WALL_LEFT:
        diag[0] = -3.0 * coef
    elif bc is BoundaryCondition.INSULATED_WALL_LEFT:
        diag[0] = -1.0 * coef
    # the steady state: every boundary value is FAR_FIELD_THETA (or the
    # insulated wall's zero flux), so each row sums to zero at that constant
    lam, vecs = eigh_tridiagonal(diag, off)
    coeffs = vecs.T @ (theta0 - FAR_FIELD_THETA)
    return FAR_FIELD_THETA + vecs @ (np.exp(lam * t) * coeffs)


class TestExplicitReference:
    def test_equilibrium_fixed_point(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = reference_state(grid)
        out = explicit_reference(state, grid, 0.005, p, CAUCHY, dt_ref=1e-4)
        assert np.all(out.v == 1.0) and np.all(out.theta == 1.0)
        assert np.all(out.u == 0.0) and np.all(out.w == 0.0)

    def test_rejects_unstable_step(self):
        grid = Grid.uniform(16, 1.0, 0.0)
        p = PhysicalParams.normalized()
        state = reference_state(grid)
        bound = reference_dt_bound(state, grid, p)
        with pytest.raises(ValueError, match="stability"):
            explicit_reference(state, grid, 0.01, p, CAUCHY, dt_ref=2 * bound)

    def test_rejects_large_grids(self):
        grid = Grid.uniform(128, 8.0, -4.0)
        p = PhysicalParams.normalized()
        with pytest.raises(ValueError, match="cells"):
            explicit_reference(reference_state(grid), grid, 0.01, p, CAUCHY,
                               dt_ref=1e-6)

    @pytest.mark.parametrize("bc", [BoundaryCondition.CAUCHY_FAR_FIELD,
                                    BoundaryCondition.ISOTHERMAL_WALL_LEFT,
                                    BoundaryCondition.INSULATED_WALL_LEFT])
    def test_heat_configuration_matches_discrete_fourier_solution(self, bc):
        # pure conduction: v = 1, u = w = b = 0, beta = 0; R tiny keeps the
        # acoustic feedback below round-off while honoring R > 0
        left = -0.5 if bc is CAUCHY else 0.0
        grid = Grid.uniform(16, 1.0, left)
        p = PhysicalParams(mu1=1.0, mu2=0.0, alpha=0.0, kappa_tilde=1.0,
                           beta=0.0, lam=1.0, nu=1.0, R=1e-12, c_v=1.0)
        center = 0.0 if bc is CAUCHY else 0.5
        state0 = make_initial_state(
            grid, GaussianBump(center=center, width=0.15, amp_theta=0.3), bc)
        ref = explicit_reference(state0.copy(), grid, 0.01, p, bc, dt_ref=2.5e-5)
        exact = heat_exact_semidiscrete(state0.theta, grid, p, bc, 0.01)
        assert np.max(np.abs(ref.theta - exact)) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_fourth_order_on_the_oracle_profile(self, alpha):
        # the oracle study's data: successive differences must shrink at
        # fourth order (end nodes off their boundary values make it first)
        grid = Grid.uniform(16, 1.0, -0.5)
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        state0 = make_initial_state(grid, GaussianBump(
            center=0.0, width=0.2, amp_v=-0.1, amp_u=0.1, amp_theta=0.1,
            amp_b=(0.1, -0.05), amp_w=(0.1, 0.05)), CAUCHY)
        dts = [1e-4, 5e-5, 2.5e-5, 1.25e-5]
        outs = [explicit_reference(state0.copy(), grid, 0.01, p, CAUCHY,
                                   dt_ref=dt) for dt in dts]
        diffs = [max(np.max(np.abs(getattr(a, f) - getattr(b, f)))
                     for f in ("v", "u", "theta", "w", "b"))
                 for a, b in zip(outs[:-1], outs[1:])]
        order = np.polyfit(np.log(dts[:-1]), np.log(diffs), 1)[0]
        assert order >= 3.5, diffs

    def test_mass_conserved_each_step(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, GaussianBump(
            width=1.0, amp_v=-0.2, amp_u=0.3, amp_theta=0.2), CAUCHY)
        dt = 0.5 * reference_dt_bound(state, grid, p)
        mass = grid.dx * np.sum(state.v)
        for k in range(1, 21):
            out = explicit_reference(state, grid, k * dt, p, CAUCHY, dt_ref=dt)
            new_mass = grid.dx * np.sum(out.v)
            assert abs(new_mass - mass) / mass <= 1e-13
            mass = new_mass

    @pytest.mark.parametrize("t_end", [0.5, 0.5 + 1e-5])
    def test_leaves_its_input_alone(self, t_end):
        # zero steps (t_end at the state time) and one step
        grid = Grid.uniform(16, 1.0, -0.5)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state0 = make_initial_state(grid, GaussianBump(
            center=0.0, width=0.2, amp_v=-0.1, amp_u=0.1, amp_theta=0.1,
            amp_b=(0.1, -0.05), amp_w=(0.1, 0.05)), CAUCHY)
        state0.t, state0.step = 0.5, 7
        before = state0.copy()
        out = explicit_reference(state0, grid, t_end, p, CAUCHY, dt_ref=1e-5)
        assert out.step == 7 + (t_end > 0.5) and out.t == t_end
        for f in ("v", "u", "theta", "w", "b"):
            assert np.array_equal(getattr(state0, f), getattr(before, f)), f
            assert not np.shares_memory(getattr(out, f), getattr(state0, f)), f
        assert (state0.t, state0.step) == (0.5, 7)

    def test_rejects_an_end_before_the_state_time(self):
        grid = Grid.uniform(16, 1.0, 0.0)
        p = PhysicalParams.normalized()
        state = reference_state(grid)
        state.t = 0.5
        with pytest.raises(ValueError,
                           match="t_end = 0.1 is before state time 0.5"):
            explicit_reference(state, grid, 0.1, p, CAUCHY, dt_ref=1e-6)

    def test_a_stage_that_loses_positivity_aborts_the_integration(self):
        # a strong compression drives an RK4 stage's theta negative within
        # a few steps: the stage is refused before its right-hand side,
        # whose pressure would raise a bare ValueError
        grid = Grid.uniform(16, 1.0, -0.5)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state0 = make_initial_state(grid, GaussianBump(
            center=-0.1, width=0.15, amp_v=-0.6, amp_u=-20), CAUCHY)
        dt_ref = reference_dt_bound(state0, grid, p)
        with pytest.raises(PositivityFailure,
                           match="reference integration lost positivity") as exc:
            explicit_reference(state0, grid, 0.05, p, CAUCHY, dt_ref=dt_ref)
        assert 0.0 < exc.value.t <= 0.05

    def test_oracle_comparison_keys_and_input(self):
        # the order of the `max_diffs` keys in the verify output
        grid = Grid.uniform(16, 1.0, -0.5)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state0 = make_initial_state(grid, GaussianBump(
            center=0.0, width=0.2, amp_u=0.1, amp_theta=0.1), CAUCHY)
        before = state0.copy()
        diffs = oracle_comparison(state0, grid, 1e-4, p, CAUCHY,
                                  StepControl(cfl=0.4, dt_min=1e-12,
                                              dt_max=2e-5), dt_ref=2e-5)
        assert list(diffs) == ["v", "u", "theta", "w", "b"]
        assert max(diffs.values()) <= 1e-4
        for f in ("v", "u", "theta", "w", "b"):
            assert np.array_equal(getattr(state0, f), getattr(before, f)), f


class TestConvergenceStudies:
    def test_zero_amplitudes_are_exact(self):
        sol = MmsSolution()
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        res = mms_convergence(sol, p, [8, 16], t_end=0.02, dt_coarsest=1e-3)
        for field, errs in res["errors"].items():
            assert max(errs) < 1e-13, field
        assert all(o is None for o in res["orders"].values())

    def test_spatial_order_keys_run_v_u_theta_w_b(self):
        # the order of the `orders` keys in the verify output
        res = mms_convergence(MmsSolution(amp_u=0.1),
                              PhysicalParams.normalized(), [8, 16],
                              t_end=0.01, dt_coarsest=1e-3)
        assert list(res["orders"]) == ["v", "u", "theta", "w", "b"]

    def test_zero_amplitudes_have_no_temporal_order(self):
        res = temporal_convergence(MmsSolution(),
                                   PhysicalParams.normalized(alpha=1.0,
                                                             beta=1.0),
                                   cells=8, dts=[2e-3, 1e-3, 5e-4],
                                   t_end=0.01)
        assert max(res["diffs"]) < 1e-13
        assert res["order"] is None

    def test_small_spatial_study_converges(self):
        sol = MmsSolution(amp_v=0.15, amp_u=0.2, amp_theta=0.12,
                          amp_w=(0.15, -0.1), amp_b=(0.12, 0.08))
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        res = mms_convergence(sol, p, [32, 64], t_end=0.05, dt_coarsest=1e-3)
        for field, order in res["orders"].items():
            assert order is not None and order >= 1.7, (field, order)

    def test_temporal_study_first_order(self):
        sol = MmsSolution(amp_v=0.1, amp_u=0.15, amp_theta=0.1,
                          amp_w=(0.1, 0.0), amp_b=(0.1, 0.0))
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        res = temporal_convergence(sol, p, cells=32,
                                   dts=[2e-3, 1e-3, 5e-4], t_end=0.05)
        assert res["order"] >= 0.9

    def test_verify_runs_both_mms_studies_at_beta_1_0_5_and_10(self,
                                                              monkeypatch):
        # the studies are stubbed, so this reads only which ones verify
        # runs, at which beta and under which name and threshold; the
        # verify CLI test runs them for real
        calls = []

        def spatial(sol, p, *args, **kwargs):
            calls.append(("spatial", p.beta, sol.amp_theta))
            return {"orders": {"v": 2.0}}

        def temporal(sol, p, **kwargs):
            calls.append(("temporal", p.beta, sol.amp_theta))
            return {"order": 1.0}

        monkeypatch.setattr(verification, "mms_convergence", spatial)
        monkeypatch.setattr(verification, "temporal_convergence", temporal)
        monkeypatch.setattr(verification, "numerical_source_check",
                            lambda sol, p: {"v": 0.0})
        monkeypatch.setattr(verification, "oracle_comparison",
                            lambda *args, **kwargs: {"v": 0.0})
        studies = verification.standard_studies()
        assert calls == [(kind, beta, 0.12) for beta in (1.0, 0.5, 10.0)
                         for kind in ("spatial", "temporal")] + [
                             ("spatial", 10.0, 0.5)]
        mms = [(s["study"], s["threshold"]) for s in studies[1:8]]
        assert mms == [("mms_spatial_order", 1.9), ("mms_temporal_order", 0.9),
                       ("mms_spatial_order_beta0.5", 1.9),
                       ("mms_temporal_order_beta0.5", 0.9),
                       ("mms_spatial_order_beta10", 1.9),
                       ("mms_temporal_order_beta10", 0.9),
                       ("mms_spatial_order_amp0.5_beta10", 1.9)]
        assert all(s["pass"] for s in studies)


class TestForcingAdapter:
    def test_exact_state_round_trip(self):
        sol = MmsSolution(amp_v=0.2, amp_u=0.1, amp_theta=0.1)
        grid = Grid.uniform(16, 1.0, 0.0)
        state = sol.state(grid, 0.25)
        assert np.allclose(state.v, sol.v(grid.centers(), 0.25))
        assert np.allclose(state.u, sol.u(grid.nodes(), 0.25))

    def test_ghost_values_sit_half_cell_outside(self):
        sol = MmsSolution(amp_theta=0.3)
        p = PhysicalParams.normalized()
        forcing = MmsForcing(sol, p)
        grid = Grid.uniform(16, 1.0, 0.0)
        bnd = forcing.boundary_data(grid, 0.1)
        assert bnd.th_gl == pytest.approx(
            float(sol.theta(-0.5 * grid.dx, 0.1)), rel=1e-15)
        assert bnd.th_gr == pytest.approx(
            float(sol.theta(1.0 + 0.5 * grid.dx, 0.1)), rel=1e-15)
