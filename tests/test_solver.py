import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import solve_banded

from conftest import (
    ALL_REGIMES,
    bits,
    patch_newton_solve,
    reference_state,
    report_of,
    smooth_bump,
    state_max_diff,
)
from mhd1d import solver
from mhd1d.config import parse_config, parse_config_file
from mhd1d.constitutive import pressure, viscosity_mu
from mhd1d.core import (
    BoundaryCondition,
    GasState,
    GaussianBump,
    Grid,
    PhysicalParams,
    make_initial_state,
    sq2,
)
from mhd1d.diagnostics import DiagnosticsCollector, dissipation_W, record_terms
from mhd1d.solver import (
    NewtonDivergence,
    PositivityFailure,
    StateCoeffs,
    StepControl,
    attempt,
    boundary_data,
    compute_dt,
    dissipation_source,
    end_nodes,
    face_conductance,
    heat_flux,
    heat_flux_stencil,
    initial_report,
    run_until,
    state_coeffs,
    step,
    substep_induction,
    substep_temperature,
    substep_transverse,
    substep_velocity,
    substep_volume,
    symmetric_tridiag_solve,
)
from mhd1d.verification import MmsForcing, MmsSolution, explicit_reference

CAUCHY = BoundaryCondition.CAUCHY_FAR_FIELD
ROUNDOFF = Path(__file__).resolve().parent / "data" / "roundoff"


def bump_state(grid, scale=1.0, bc=CAUCHY):
    return make_initial_state(grid, smooth_bump(scale=scale), bc)


class TestStepControl:
    def test_defaults(self):
        ctl = StepControl()
        assert ctl.cfl == 0.4 and ctl.newton_max_iter == 50

    @pytest.mark.parametrize("kwargs", [
        {"cfl": 0.0}, {"cfl": 1.5}, {"dt_min": 1.0, "dt_max": 0.5},
        {"newton_tol": 0.0}, {"dt_min": -2.0, "dt_max": -1.0},
        {"newton_max_iter": -1}, {"retry_max": -1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            StepControl(**kwargs)


class TestComputeDt:
    def test_reference_state(self):
        # gamma = 2, P = v = 1, b = 0 -> signal speed sqrt(2)
        grid = Grid(cells=10, dx=0.1)
        state = reference_state(grid)
        p = PhysicalParams(R=1.0, c_v=1.0)
        dt = compute_dt(state, sq2(state.b), grid, p, StepControl(cfl=0.4, dt_max=10.0))
        assert dt == pytest.approx(0.4 * 0.1 / np.sqrt(2.0), rel=1e-12)
        assert dt == pytest.approx(0.028284, abs=1e-6)

    def test_magnetosonic_speed(self):
        grid = Grid(cells=10, dx=0.1)
        state = reference_state(grid)
        state.b[:, 0] = np.sqrt(2.0)  # |b|^2 = 2 -> s = sqrt(2 + 2) = 2
        p = PhysicalParams(R=1.0, c_v=1.0)
        dt = compute_dt(state, sq2(state.b), grid, p, StepControl(cfl=0.4, dt_max=10.0))
        assert dt == pytest.approx(0.02, rel=1e-12)

    def test_clamped_to_bounds(self):
        grid = Grid(cells=10, dx=0.1)
        state = reference_state(grid)
        p = PhysicalParams()
        ctl = StepControl(dt_min=1e-3, dt_max=2e-3)
        assert 1e-3 <= compute_dt(state, sq2(state.b), grid, p, ctl) <= 2e-3
        hot = reference_state(grid)
        hot.theta[:] = 1e8
        assert compute_dt(hot, sq2(hot.b), grid, p, ctl) == 1e-3


class TestEquilibriumFixedPoint:
    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_constant_state_is_exact_fixed_point(self, bc):
        grid = Grid.uniform(16, 8.0, 0.0 if bc.has_left_wall else -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = reference_state(grid)
        ctl = StepControl()
        report = report_of(state, grid, p, bc)
        for _ in range(20):
            state, report = step(state, grid, p, bc, ctl, report)
        assert np.all(state.v == 1.0)
        assert np.all(state.theta == 1.0)
        assert np.all(state.u == 0.0)
        assert np.all(state.b == 0.0)
        assert np.all(state.w == 0.0)
        assert report.newton_iterations == 0

    def test_long_run_stays_on_equilibrium(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.5, beta=1.0)
        state = run_until(reference_state(grid), grid, 10.0, p, CAUCHY,
                          StepControl())
        assert state_max_diff(state, reference_state(grid)) <= 1e-12


class TestSubstepsInIsolation:
    """Each implicit stage is checked against an independently assembled
    dense linear system solved by numpy."""

    def setup_method(self):
        self.grid = Grid.uniform(16, 8.0, -4.0)
        self.p = PhysicalParams(mu1=0.8, mu2=0.6, alpha=1.2, kappa_tilde=1.1,
                                beta=0.7, lam=0.9, nu=1.3, R=1.1, c_v=0.9)
        self.state = bump_state(self.grid)
        self.dt = 0.01
        self.bnd = boundary_data(self.grid, CAUCHY, self.state.t + self.dt)

    def velocity(self):
        return substep_velocity(self.state, self.grid, self.dt, self.bnd,
                                report_of(self.state, self.grid, self.p,
                                          CAUCHY).coeffs)

    def test_velocity_matches_dense_solve(self):
        grid, p, state, dt = self.grid, self.p, self.state, self.dt
        m, dx = grid.cells, grid.dx
        u_new = self.velocity()
        a = (p.mu1 + p.mu2 * state.v ** (-p.alpha)) / state.v
        g = p.R * state.theta / state.v + 0.5 * np.sum(state.b ** 2, axis=1)
        r = dt / dx ** 2
        n = m - 1
        dense = np.zeros((n, n))
        rhs = np.zeros(n)
        for k in range(n):
            i = k + 1
            dense[k, k] = 1.0 + r * (a[i] + a[i - 1])
            if k > 0:
                dense[k, k - 1] = -r * a[i - 1]
            if k < n - 1:
                dense[k, k + 1] = -r * a[i]
            rhs[k] = state.u[i] - dt / dx * (g[i] - g[i - 1])
        expected = np.linalg.solve(dense, rhs)
        assert u_new[0] == 0.0 and u_new[-1] == 0.0
        assert np.max(np.abs(u_new[1:-1] - expected)) < 1e-13

    def test_volume_update_is_conservative(self):
        grid, state, dt = self.grid, self.state, self.dt
        u_new = self.velocity()
        v_new = substep_volume(state, u_new[1:] - u_new[:-1], grid, dt, self.bnd)
        change = grid.dx * (np.sum(v_new) - np.sum(state.v))
        assert change == pytest.approx(dt * (u_new[-1] - u_new[0]), abs=1e-14)

    def test_transverse_matches_dense_solve(self):
        grid, p, state, dt = self.grid, self.p, self.state, self.dt
        m, dx = grid.cells, grid.dx
        u_new = self.velocity()
        v_new = substep_volume(state, u_new[1:] - u_new[:-1], grid, dt, self.bnd)
        w_new = substep_transverse(state, v_new, grid, p, dt, self.bnd)
        a = p.lam / v_new
        r = dt / dx ** 2
        n = m - 1
        dense = np.zeros((n, n))
        rhs = np.zeros((n, 2))
        for k in range(n):
            i = k + 1
            dense[k, k] = 1.0 + r * (a[i] + a[i - 1])
            if k > 0:
                dense[k, k - 1] = -r * a[i - 1]
            if k < n - 1:
                dense[k, k + 1] = -r * a[i]
            rhs[k] = state.w[i] + dt / dx * (state.b[i] - state.b[i - 1])
        expected = np.linalg.solve(dense, rhs)
        assert np.all(w_new[0] == 0.0) and np.all(w_new[-1] == 0.0)
        assert np.max(np.abs(w_new[1:-1] - expected)) < 1e-13

    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_induction_satisfies_its_stencil(self, bc):
        # a wall holds b = 0 on its node, half a cell from the first center,
        # and its node coefficient takes v of the first cell
        grid, p, dt = self.grid, self.p, self.dt
        dx = grid.dx
        if bc is CAUCHY:
            state, bnd = self.state, self.bnd
        else:
            # a bump on the wall, its u and w pinned there, so b is far
            # from the wall's zero in the first cell
            grid = Grid.uniform(16, 8.0, 0.0)
            state = bump_state(grid)
            state.u[0], state.w[0] = 0.0, 0.0
            bnd = boundary_data(grid, bc, state.t + dt)
            assert state.b[0, 0] > 0.2 and np.all(bnd.b_gl == 0.0)
        u_new = substep_velocity(state, grid, dt, bnd,
                                 report_of(state, grid, p, bc).coeffs)
        v_new = substep_volume(state, u_new[1:] - u_new[:-1], grid, dt, bnd)
        w_new = state.w.copy()
        b_new = substep_induction(state, v_new, w_new[1:] - w_new[:-1], grid, p,
                                  dt, bnd)
        d = np.empty(grid.cells + 1)
        d[1:-1] = 2.0 * p.nu / (v_new[:-1] + v_new[1:])
        v0 = v_new[0] if bnd.left_wall else bnd.v_gl
        d[0] = 2.0 * p.nu / (v0 + v_new[0])
        d[-1] = 2.0 * p.nu / (v_new[-1] + bnd.v_gr)
        bx = np.empty((grid.cells + 1, 2))
        bx[1:-1] = (b_new[1:] - b_new[:-1]) / dx
        bx[0] = (b_new[0] - bnd.b_gl) / (0.5 * dx if bnd.left_wall else dx)
        bx[-1] = (bnd.b_gr - b_new[-1]) / dx
        flux = d[:, None] * bx
        resid = (v_new[:, None] * b_new - dt * np.diff(flux, axis=0) / dx
                 - state.v[:, None] * state.b
                 - dt * np.diff(w_new, axis=0) / dx)
        assert np.max(np.abs(resid)) < 1e-13

    def test_temperature_linear_case_matches_dense_solve(self):
        # beta = 0 makes the heat operator linear; Newton must land on the
        # dense implicit-Euler solution in one update.
        grid, dt = self.grid, self.dt
        m, dx = grid.cells, grid.dx
        p = PhysicalParams(mu1=1.0, mu2=0.0, alpha=0.0, kappa_tilde=1.3,
                           beta=0.0, lam=1.0, nu=1.0, R=1.2, c_v=0.8)
        state = bump_state(grid)
        u_new = state.u.copy()
        v_new = state.v.copy()
        w_new = state.w.copy()
        b_new = state.b.copy()
        theta_new, iters, _, _, _ = substep_temperature(
            state, v_new, u_new[1:] - u_new[:-1], w_new[1:] - w_new[:-1], b_new,
            viscosity_mu(v_new, p), grid, p, StepControl(), dt, self.bnd)

        a = p.kappa_tilde / v_new
        c = np.empty(m + 1)
        c[1:-1] = 2.0 * a[:-1] * a[1:] / (a[:-1] + a[1:])
        a_ghost = p.kappa_tilde / 1.0
        c[0] = 2.0 * a_ghost * a[0] / (a_ghost + a[0])
        c[-1] = 2.0 * a[-1] * a_ghost / (a[-1] + a_ghost)
        ux = np.diff(u_new) / dx
        wx_sq = np.sum((np.diff(w_new, axis=0) / dx) ** 2, axis=1)
        bx = np.empty((m + 1, 2))
        bx[1:-1] = (b_new[1:] - b_new[:-1]) / dx
        bx[0] = b_new[0] / dx
        bx[-1] = -b_new[-1] / dx
        bx_sq = np.sum(bx ** 2, axis=1)
        q = ((p.mu1 + p.mu2 * v_new ** (-p.alpha)) * ux ** 2
             + p.lam * wx_sq
             + p.nu * 0.5 * (bx_sq[:-1] + bx_sq[1:])) / v_new

        dense = np.zeros((m, m))
        rhs = p.c_v * state.theta / dt + q
        for i in range(m):
            dense[i, i] = p.c_v / dt + p.R * ux[i] / v_new[i] \
                + (c[i + 1] + c[i]) / dx ** 2
            if i > 0:
                dense[i, i - 1] = -c[i] / dx ** 2
            if i < m - 1:
                dense[i, i + 1] = -c[i + 1] / dx ** 2
        rhs[0] += c[0] / dx ** 2 * 1.0
        rhs[-1] += c[-1] / dx ** 2 * 1.0
        expected = np.linalg.solve(dense, rhs)
        assert iters <= 2
        assert np.max(np.abs(theta_new - expected)) < 1e-10


class TestEndNodes:
    """The one end-node rule, against its documented values, for each kind of
    outer value: a far-field ghost, a left wall's own value, None."""

    # outer-value kind of (v, theta, b) at the left end of each boundary
    KINDS = {"cauchy": ("ghost", "ghost", "ghost"),
             "isothermal_wall": (None, "wall", "wall"),
             "insulated_wall": (None, None, "wall"),
             "mms": ("ghost", "ghost", "ghost")}

    @pytest.mark.parametrize("name", list(KINDS))
    def test_exact_end_values(self, name):
        grid = Grid.uniform(16, 4.8, 0.0 if "wall" in name else -2.4)
        dx = grid.dx  # 0.3, not a power of two
        if name == "mms":
            p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
            bnd = MmsForcing(MmsSolution(), p).boundary_data(grid, 0.1)
        else:
            bnd = boundary_data(grid, BoundaryCondition(name), 0.0)
        rng = np.random.default_rng(5)
        fields = [(1.0 + rng.random(16), bnd.v_gl, bnd.v_gr),
                  (1.0 + rng.random(16), bnd.th_gl, bnd.th_gr),
                  (rng.standard_normal((16, 2)), bnd.b_gl, bnd.b_gr)]
        for kind, (f, lo, hi) in zip(self.KINDS[name], fields):
            mean_l, grad_l, mean_r, grad_r = end_nodes(f, lo, hi, bnd, dx)
            if kind is None:
                assert lo is None
                want_l = (f[0], 0.0)
            elif kind == "wall":
                want_l = (0.5 * (lo + f[0]), (f[0] - lo) / (0.5 * dx))
            else:
                want_l = (0.5 * (lo + f[0]), (f[0] - lo) / dx)
            want_r = (0.5 * (f[-1] + hi), (hi - f[-1]) / dx)
            for got, want in zip((mean_l, grad_l, mean_r, grad_r), want_l + want_r):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_unforced_data_is_one_frozen_read_only_instance(self, bc):
        bnd = boundary_data(Grid.uniform(16, 8.0, 0.0), bc, 0.0)
        assert boundary_data(Grid.uniform(64, 3.0, 0.0), bc, 7.5) is bnd
        with pytest.raises(FrozenInstanceError):
            bnd.u_left = 1.0
        for arr in (bnd.w_left, bnd.w_right, bnd.b_gl, bnd.b_gr):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_forced_data_is_read_only(self):
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        bnd = boundary_data(Grid.uniform(16, 1.0, 0.1), CAUCHY, 0.1,
                            MmsForcing(MmsSolution(), p))
        for arr in (bnd.w_left, bnd.b_gr, *bnd.sources.values()):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_transverse_marks_data_that_bring_a_transverse_field(self, bc):
        bnd = boundary_data(Grid.uniform(16, 8.0, 0.0), bc, 0.0)
        assert bnd.transverse is False
        for name in ("w_left", "w_right", "b_gl", "b_gr"):
            tiny = np.array([0.0, -1e-300])
            assert replace(bnd, **{name: tiny}).transverse is True, name
        assert replace(bnd, w_left=np.array([-0.0, 0.0])).transverse is False
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        forced = MmsForcing(MmsSolution(), p).boundary_data(Grid.uniform(16, 1.0), 0.1)
        assert forced.transverse is True
        zero = {name: np.zeros(16) for name in ("v", "u", "w", "b", "theta")}
        assert replace(bnd, sources=zero).transverse is True

    def test_wall_outer_values(self):
        grid = Grid.uniform(16, 8.0, 0.0)
        iso = boundary_data(grid, BoundaryCondition.ISOTHERMAL_WALL_LEFT, 0.0)
        ins = boundary_data(grid, BoundaryCondition.INSULATED_WALL_LEFT, 0.0)
        assert iso.v_gl is None and iso.th_gl == 1.0 and np.all(iso.b_gl == 0.0)
        assert ins.v_gl is None and ins.th_gl is None and np.all(ins.b_gl == 0.0)


def dominant_system(n, columns, seed):
    """A symmetric, strictly diagonally dominant tridiagonal system with a
    positive diagonal, as the stage solves build: (d, e, rhs)."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n - 1)
    d = 0.5 + rng.random(n)
    d[:-1] += np.abs(e)
    d[1:] += np.abs(e)
    rhs = rng.normal(size=n if columns is None else (n, columns))
    return d, e, rhs


class TestSymmetricTridiagSolve:
    """ptsv orders its operations unlike gtsv, so it agrees with solve_banded
    to round-off; the bound is 1e-14 of the solution's largest entry (the
    largest error over these cases is 1.7e-16 of it)."""

    @pytest.mark.parametrize("n", [3, 64, 2048, 8191])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_matches_solve_banded_to_round_off(self, n, columns):
        d, e, rhs = dominant_system(n, columns, n)
        ab = np.zeros((3, n))
        ab[0, 1:] = e
        ab[1] = d
        ab[2, :-1] = e
        expected = solve_banded((1, 1), ab, rhs, check_finite=False)
        x = symmetric_tridiag_solve(d, e, rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_solves_each_column_alone(self):
        # the induction stage's two components must not mix, bit for bit
        d, e, rhs = dominant_system(257, 2, 1)
        x = symmetric_tridiag_solve(d, e, rhs)
        for k in range(2):
            assert np.array_equal(x[:, k],
                                  symmetric_tridiag_solve(d, e, rhs[:, k].copy()))

    def test_leaves_its_inputs_unchanged(self):
        d, e, rhs = dominant_system(64, 2, 2)
        before = [arr.copy() for arr in (d, e, rhs)]
        symmetric_tridiag_solve(d, e, rhs)
        for arr, old in zip((d, e, rhs), before):
            assert np.array_equal(arr, old)

    def test_indefinite_raises(self):
        d, e, rhs = dominant_system(16, None, 3)
        d[5] = -d[5]
        with pytest.raises(LinAlgError):
            symmetric_tridiag_solve(d, e, rhs)

    def test_singular_raises(self):
        d = np.ones(5)
        d[2] = 0.0
        with pytest.raises(LinAlgError):
            symmetric_tridiag_solve(d, np.zeros(4), np.ones(5))

    def test_commands_load_lapack_without_scipy_linalg(self):
        # a fresh interpreter: importing the package and its CLI loads scipy's
        # LAPACK extension alone, whose routine is the one
        # scipy.linalg.lapack exports, so every solve runs the same code
        script = (
            "import sys\n"
            "import mhd1d, mhd1d.cli\n"
            "assert 'scipy.linalg' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "from mhd1d import solver\n"
            "import scipy.linalg.lapack as lapack\n"
            "assert solver.dptsv is lapack.dptsv\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestStepHandsOverMonitorInputs:
    """The step's heat flux and dissipation feed the monitors; they must equal
    a fresh evaluation on the new state exactly."""

    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_report_arrays_and_W_are_exact(self, bc, monkeypatch):
        # beta = 0.5 makes the Newton solve end both ways within six steps: on
        # the residual test, with the flux of the returned theta in hand, and
        # on the update test, which evaluates the stencil at the returned
        # theta once more. Either way a stage evaluates the conductance once
        # and the stencil once per update plus once.
        ctl = StepControl()
        thetas, conductance_calls, exits = [], [], []

        def stencil(theta, *args):
            thetas.append(theta)
            return solver_stencil(theta, *args)

        def conductance(*args):
            conductance_calls.append(args)
            return solver_conductance(*args)

        def recording(*args, **kwargs):
            before, k_before = len(thetas), len(conductance_calls)
            out = substep_temperature(*args, **kwargs)
            updates, evaluated = out[1], thetas[before:]
            assert len(conductance_calls) - k_before == 1
            assert len(evaluated) == updates + 1
            if updates:
                # the last update is the difference of the last two thetas
                prev, last = evaluated[-2:]
                small = (np.abs(last - prev).max()
                         <= ctl.newton_tol * max(1.0, prev.max()))
                exits.append("update" if small else "residual")
            return out

        solver_stencil = solver.heat_flux_stencil
        solver_conductance = solver.face_conductance
        monkeypatch.setattr(solver, "heat_flux_stencil", stencil)
        monkeypatch.setattr(solver, "face_conductance", conductance)
        monkeypatch.setattr(solver, "substep_temperature", recording)
        wall = bc.has_left_wall
        grid = Grid.uniform(32, 16.0, 0.0 if wall else -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=0.5)
        state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
        collector = DiagnosticsCollector(grid, p, bc, state)
        bnd = boundary_data(grid, bc, 0.0)
        for _ in range(6):
            state, report = step(state, grid, p, bc, ctl,
                                 report_of(state, grid, p, bc))
            assert np.array_equal(report.heat_flux,
                                  heat_flux(state.theta, state.v, grid.dx, p, bnd))
            ux = (state.u[1:] - state.u[:-1]) / grid.dx
            wx = (state.w[1:] - state.w[:-1]) / grid.dx
            assert np.array_equal(report.dissipation,
                                  dissipation_source(state.v, viscosity_mu(state.v, p),
                                                     ux, wx, state.b, grid, p, bnd))
            record = collector.make_record(state, report)
            fresh = initial_report(state, grid, p, bnd)
            assert record.W == dissipation_W(state, grid, p,
                                             record_terms(state, grid, p, bnd, fresh))
        assert set(exits) == {"update", "residual"}

    def test_forced_step_hands_over_the_forced_arrays(self):
        # the manufactured ghosts differ from the far field at both ends, so
        # the forced arrays differ from the unforced ones there
        sol = MmsSolution(amp_v=0.1, amp_u=0.2, amp_theta=0.1, amp_w=(0.1, 0.2),
                          amp_b=(0.2, 0.1))
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        grid = Grid.uniform(16, 1.0, 0.1)
        state = sol.state(grid, 0.0)
        forcing = MmsForcing(sol, p)
        new, report = step(state, grid, p, CAUCHY, StepControl(dt_max=1e-3),
                           report_of(state, grid, p, CAUCHY), forcing=forcing)
        ux = (new.u[1:] - new.u[:-1]) / grid.dx
        wx = (new.w[1:] - new.w[:-1]) / grid.dx
        for bnd, same in ((boundary_data(grid, CAUCHY, new.t, forcing), True),
                          (boundary_data(grid, CAUCHY, new.t), False)):
            h = heat_flux(new.theta, new.v, grid.dx, p, bnd)
            q = dissipation_source(new.v, viscosity_mu(new.v, p), ux, wx,
                                   new.b, grid, p, bnd)
            assert np.array_equal(report.heat_flux, h) is same
            assert np.array_equal(report.dissipation, q) is same


def assert_carried(report, state, p):
    """Every array of the report's coefficients equals the builder's; a
    b_sq of None stands for the all-zero |b|^2 of a state with no
    transverse field."""
    fresh = state_coeffs(state, viscosity_mu(state.v, p), p)
    for f in fields(StateCoeffs):
        carried = getattr(report.coeffs, f.name)
        if carried is None:
            assert f.name == "b_sq"
            assert not (state.w.any() or state.b.any())
            carried = np.zeros(state.v.shape)
        assert np.array_equal(carried, getattr(fresh, f.name)), f.name


def end_fluxes_reference(old, new, grid, p, bnd, dt, h):
    """The boundary report as it was written before the coefficients were
    carried: numpy scalars throughout, viscosity_mu of each end cell's own
    volume, and the old state's coefficients evaluated here."""
    dx = grid.dx
    u_new, v_new, w_new = new.u, new.v, new.w
    a_old = viscosity_mu(old.v, p) / old.v
    g_old = pressure(old.v, old.theta, p) + 0.5 * np.sum(old.b ** 2, axis=1)
    v_l, _, v_r, _ = end_nodes(v_new, bnd.v_gl, bnd.v_gr, bnd, dx)
    th_l, _, th_r, _ = end_nodes(new.theta, bnd.th_gl, bnd.th_gr, bnd, dx)
    b_l, bx_l, b_r, bx_r = end_nodes(new.b, bnd.b_gl, bnd.b_gr, bnd, dx)
    if bnd.left_wall:
        b_l = bnd.b_gl
        th_l = th_l if bnd.th_gl is None else bnd.th_gl

    def end(c, j, v_node, th_node, b_node, bx):
        u, w, vc = u_new[j], w_new[j], v_new[c]
        ux = (u_new[c + 1] - u_new[c]) / dx
        wx = (w_new[c + 1] - w_new[c]) / dx
        g_node = p.R * th_node / v_node + 0.5 * float(b_node @ b_node)
        visc = viscosity_mu(vc, p) / vc * u * ux
        wvisc = p.lam / vc * float(w @ wx)
        wb = float(w @ b_node)
        bxb = float(b_node @ (p.nu / v_node * bx))
        phi = u * g_node - wb - h[j] - visc - wvisc - bxb
        bf = ((1.0 - 1.0 / th_node) * h[j] + bxb + visc + wvisc - u * g_node
              + p.R * u + wb)
        return a_old[c] * ux - g_old[c], phi, bf

    m = grid.cells
    stress_l, phi_l, bf_l = end(0, 0, v_l, th_l, b_l, bx_l)
    stress_r, phi_r, bf_r = end(m - 1, m, v_r, th_r, b_r, bx_r)
    return (dt * (u_new[-1] - u_new[0]), dt * (stress_r - stress_l),
            dt * (phi_l - phi_r), dt * (bf_r - bf_l))


class TestStepCarriesCoefficients:
    """A step hands the new state's coefficients to the next step and the
    monitors; they must be the builder's, bit for bit."""

    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_unforced_steps(self, bc):
        wall = bc.has_left_wall
        grid = Grid.uniform(32, 16.0, 0.0 if wall else -8.0)
        p = PhysicalParams(mu1=0.8, mu2=0.6, alpha=1.3, beta=0.7)
        state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
        report = report_of(state, grid, p, bc)
        for _ in range(5):
            state, report = step(state, grid, p, bc, StepControl(), report)
            assert_carried(report, state, p)

    def test_forced_step(self):
        sol = MmsSolution(amp_v=0.1, amp_u=0.2, amp_theta=0.1, amp_w=(0.1, 0.2),
                          amp_b=(0.2, 0.1))
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        grid = Grid.uniform(16, 1.0, 0.1)
        state = sol.state(grid, 0.0)
        new, report = step(state, grid, p, CAUCHY, StepControl(dt_max=1e-3),
                           report_of(state, grid, p, CAUCHY),
                           forcing=MmsForcing(sol, p))
        assert_carried(report, new, p)

    def test_retried_step(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.5, beta=1.0)
        state = reference_state(grid)
        state.u = -10.0 * np.tanh(grid.nodes())
        state.u[0] = state.u[-1] = 0.0
        ctl = StepControl(cfl=1.0, dt_min=1e-12, dt_max=0.2)
        new, report = step(state, grid, p, CAUCHY, ctl,
                           report_of(state, grid, p, CAUCHY))
        assert report.retries >= 1
        assert_carried(report, new, p)

    @pytest.mark.parametrize("alpha", [1.0, 1.3])
    def test_boundary_fluxes_match_the_scalar_report(self, alpha):
        # manufactured data put nonzero b and w on both end nodes, so each of
        # the four 2-vector products contributes
        rng = np.random.default_rng(11)
        grid = Grid.uniform(16, 1.0, 0.1)
        p = PhysicalParams(mu1=1.0, mu2=0.7, alpha=alpha, beta=1.2, lam=0.9,
                           nu=1.1, R=1.05)
        for _ in range(6):
            sol = MmsSolution(amp_v=rng.uniform(-0.5, 0.5), amp_u=rng.uniform(-1, 1),
                              amp_theta=rng.uniform(-0.5, 0.5),
                              amp_w=tuple(rng.uniform(-1, 1, 2)),
                              amp_b=tuple(rng.uniform(-1, 1, 2)))
            forcing = MmsForcing(sol, p)
            state = sol.state(grid, 0.0)
            report = report_of(state, grid, p, CAUCHY)
            for _ in range(3):
                new, report = step(state, grid, p, CAUCHY, StepControl(dt_max=2e-3),
                                   report, forcing=forcing)
                bnd = boundary_data(grid, CAUCHY, new.t, forcing)
                assert np.all(new.w[[0, -1]] != 0.0) and np.all(bnd.b_gl != 0.0)
                h = heat_flux(new.theta, new.v, grid.dx, p, bnd)
                expected = end_fluxes_reference(state, new, grid, p, bnd,
                                                report.dt_used, h)
                assert (report.mass_flux, report.momentum_flux, report.energy_flux,
                        report.entropy_flux) == expected
                state = new


class TestForcingRegime:
    @pytest.mark.parametrize("bc", [BoundaryCondition.ISOTHERMAL_WALL_LEFT,
                                    BoundaryCondition.INSULATED_WALL_LEFT])
    def test_forcing_requires_the_cauchy_regime(self, bc):
        sol = MmsSolution(amp_v=0.1, amp_theta=0.1)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        grid = Grid.uniform(16, 1.0, 0.0)
        state = sol.state(grid, 0.0)
        with pytest.raises(ValueError, match="Cauchy"):
            step(state, grid, p, bc, StepControl(dt_max=1e-3),
                 report_of(state, grid, p, bc), forcing=MmsForcing(sol, p))


class TestStepBudgets:
    def test_mass_and_momentum_budgets_close_each_step(self):
        grid = Grid.uniform(64, 32.0, -16.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = bump_state(grid)
        ctl = StepControl()
        report = report_of(state, grid, p, CAUCHY)
        for _ in range(25):
            mass0 = grid.dx * np.sum(state.v)
            mom0 = grid.dx * np.sum(state.u)
            state, report = step(state, grid, p, CAUCHY, ctl, report)
            mass1 = grid.dx * np.sum(state.v)
            mom1 = grid.dx * np.sum(state.u)
            assert abs(mass1 - mass0 - report.mass_flux) / mass0 <= 1e-13
            mom_scale = max(1.0, grid.dx * np.sum(np.abs(state.u)))
            assert abs(mom1 - mom0 - report.momentum_flux) / mom_scale <= 1e-12

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (2.0, 0.5), (2.0, 2.0)])
    def test_positivity_of_accepted_states(self, alpha, beta):
        grid = Grid.uniform(64, 32.0, -16.0)
        p = PhysicalParams.normalized(alpha=alpha, beta=beta)
        state = make_initial_state(grid, GaussianBump(
            width=1.5, amp_v=-0.8, amp_u=1.0, amp_theta=3.0,
            amp_b=(1.0, 0.0), amp_w=(1.0, 0.5)), CAUCHY)
        state = run_until(state, grid, 0.25, p, CAUCHY, StepControl(),
                          sink=lambda s, r: None)
        assert state.v.min() > 0.0 and state.theta.min() > 0.0


class TestDeterminismAndSymmetry:
    def test_bitwise_deterministic(self):
        grid = Grid.uniform(32, 16.0, -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        a = run_until(bump_state(grid), grid, 0.3, p, CAUCHY, StepControl())
        b = run_until(bump_state(grid), grid, 0.3, p, CAUCHY, StepControl())
        assert state_max_diff(a, b) == 0.0

    def test_transverse_component_swap(self):
        grid = Grid.uniform(32, 16.0, -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        prof = GaussianBump(width=1.0, amp_v=-0.2, amp_u=0.2, amp_theta=0.3,
                            amp_b=(0.4, -0.15), amp_w=(0.25, 0.1))
        swapped = GaussianBump(width=1.0, amp_v=-0.2, amp_u=0.2, amp_theta=0.3,
                               amp_b=(-0.15, 0.4), amp_w=(0.1, 0.25))
        sa = run_until(make_initial_state(grid, prof, CAUCHY), grid, 0.3, p,
                       CAUCHY, StepControl())
        sb = run_until(make_initial_state(grid, swapped, CAUCHY), grid, 0.3, p,
                       CAUCHY, StepControl())
        assert np.array_equal(sa.b[:, ::-1], sb.b)
        assert np.array_equal(sa.w[:, ::-1], sb.w)
        assert np.array_equal(sa.v, sb.v)
        assert np.array_equal(sa.theta, sb.theta)
        assert np.array_equal(sa.u, sb.u)


class TestWallRegimes:
    """Dynamic behavior against the two wall regimes (the far-field matrix
    is exercised by the acceptance suite)."""

    @pytest.mark.parametrize("bc", [BoundaryCondition.ISOTHERMAL_WALL_LEFT,
                                    BoundaryCondition.INSULATED_WALL_LEFT])
    def test_interior_bump_run_stays_positive_and_conservative(self, bc):
        grid = Grid.uniform(64, 32.0, 0.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        prof = GaussianBump(center=8.0, width=1.0, amp_v=-0.4, amp_u=0.5,
                            amp_theta=1.0, amp_b=(0.5, 0.0), amp_w=(0.5, 0.2))
        state = make_initial_state(grid, prof, bc)
        mass0 = grid.dx * np.sum(state.v)
        flux_cum = 0.0

        def sink(s, r):
            nonlocal flux_cum
            flux_cum += r.mass_flux

        state = run_until(state, grid, 1.0, p, bc, StepControl(), sink=sink)
        assert state.v.min() > 0.0 and state.theta.min() > 0.0
        assert state.u[0] == 0.0 and np.all(state.w[0] == 0.0)
        mass1 = grid.dx * np.sum(state.v)
        # u vanishes at the wall and at the far end, so total mass is fixed
        assert flux_cum == 0.0
        assert abs(mass1 - mass0) / mass0 <= 1e-12

    def test_isothermal_wall_pins_wall_temperature(self):
        # a hot layer near the wall must relax toward the pinned value
        grid = Grid.uniform(64, 32.0, 0.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        bc = BoundaryCondition.ISOTHERMAL_WALL_LEFT
        state = make_initial_state(grid, GaussianBump(
            center=8.0, width=1.0, amp_theta=2.0), bc)
        state = run_until(state, grid, 2.0, p, bc, StepControl())
        # extrapolate the wall value from the first cell and its mirror ghost
        wall_theta = state.theta[0] - 0.5 * (state.theta[0] - 1.0)
        assert abs(wall_theta - 1.0) < 0.05

    def test_isothermal_wall_survives_hot_gas_at_wall(self):
        # theta exceeds 2 in the wall cell from the start; the half-cell flux
        # coefficient must stay positive and drain heat into the wall
        grid = Grid.uniform(64, 32.0, 0.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        bc = BoundaryCondition.ISOTHERMAL_WALL_LEFT
        state = make_initial_state(grid, GaussianBump(
            center=0.75, width=1.0, amp_theta=3.0), bc)
        assert state.theta[0] > 2.0
        peak0 = state.theta.max()
        state = run_until(state, grid, 1.0, p, bc, StepControl())
        assert state.theta.min() > 0.0
        assert state.theta.max() < peak0

    def test_isothermal_wall_node_holds_theta_one(self):
        # hot wall cell, far end undisturbed: the wall node sits at theta = 1,
        # so no entropy flux crosses it, while heat leaves through the wall
        grid = Grid.uniform(64, 32.0, 0.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        bc = BoundaryCondition.ISOTHERMAL_WALL_LEFT
        state = make_initial_state(grid, GaussianBump(
            center=0.75, width=1.0, amp_theta=3.0), bc)
        assert state.theta[0] > 2.0 and state.theta[-1] == 1.0
        new, report = step(state, grid, p, bc, StepControl(),
                           report_of(state, grid, p, bc))
        assert new.theta[-1] == 1.0
        assert report.entropy_flux == 0.0
        assert report.energy_flux < 0.0

    def test_insulated_wall_blocks_heat_flux(self):
        grid = Grid.uniform(64, 32.0, 0.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        bc = BoundaryCondition.INSULATED_WALL_LEFT
        state = make_initial_state(grid, GaussianBump(
            center=4.0, width=1.0, amp_theta=1.5), bc)
        entropy_flux = []
        state = run_until(state, grid, 1.0, p, bc, StepControl(),
                          sink=lambda s, r: entropy_flux.append(r.entropy_flux))
        # the left wall passes nothing; only the (equilibrium) far end could
        # contribute, and the bump never reaches it
        assert max(abs(f) for f in entropy_flux) < 1e-12
        assert state.theta.min() > 0.0


TEMPERATURE_CASES = [(bc.value, bc) for bc in ALL_REGIMES] + [("forced", None)]


def temperature_case(bc, m=12, seed=11):
    """A random stage-(e) input on a small grid in the regime bc, or, for
    bc None, under a manufactured solution's forcing: (grid, p, bnd, state,
    du), with the state's v standing for the new volume."""
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(m, 3.0, 0.0)
    p = PhysicalParams(kappa_tilde=1.3, beta=1.7)
    if bc is None:
        sol = MmsSolution(amp_v=0.3, amp_theta=0.4)
        bnd = MmsForcing(sol, p).boundary_data(grid, 0.2)
    else:
        bnd = boundary_data(grid, bc, 0.0)
    theta = rng.uniform(0.5, 2.0, m)
    v = rng.uniform(0.5, 1.5, m)
    du = rng.uniform(-0.05, 0.05, m)
    state = GasState(v=v, theta=theta, b=np.zeros((m, 2)),
                     u=np.zeros(m + 1), w=np.zeros((m + 1, 2)))
    return grid, p, bnd, state, du


class TestNewtonMatrix:
    """The matrix each temperature Newton update solves, captured at the
    solver's symmetric_tridiag_solve, against a centred finite-difference
    Jacobian of the residual F = theta*base - (H[1:] - H[:-1])/dx - known
    with respect to theta, interior and end rows alike: the update solves
    A dphi = -F with dphi = theta**beta * dtheta, so A * diag(theta**beta)
    must be that Jacobian."""

    M = 12

    @pytest.mark.parametrize("name, bc", TEMPERATURE_CASES,
                             ids=[c[0] for c in TEMPERATURE_CASES])
    def test_the_matrix_matches_finite_differences(self, name, bc, monkeypatch):
        grid, p, bnd, state, du = temperature_case(bc, self.M)
        dx, v, theta0 = grid.dx, state.v, state.theta
        dt = 0.05
        solved = []

        def capturing(d, e, rhs):
            solved.append((d.copy(), e.copy(), rhs.copy()))
            return solve(d, e, rhs)

        solve = solver.symmetric_tridiag_solve
        monkeypatch.setattr(solver, "symmetric_tridiag_solve", capturing)
        with pytest.raises(solver._Retry):
            substep_temperature(state, v, du, None, state.b, viscosity_mu(v, p),
                                grid, p, StepControl(newton_max_iter=1), dt,
                                bnd)
        d, e, neg_f = solved[0]  # the first update, at theta0
        base = p.c_v / dt + p.R * (du / dx) / v

        def residual(theta):  # up to the theta-free part
            h = heat_flux(theta, v, dx, p, bnd)
            return theta * base - (h[1:] - h[:-1]) / dx

        fd = np.empty((self.M, self.M))
        for k in range(self.M):
            step_k = 1e-6 * theta0[k]
            up, down = theta0.copy(), theta0.copy()
            up[k] += step_k
            down[k] -= step_k
            fd[:, k] = (residual(up) - residual(down)) / (2.0 * step_k)
        jac = (np.diag(d) + np.diag(e, -1) + np.diag(e, 1)) * theta0 ** p.beta
        assert np.count_nonzero(fd - np.triu(np.tril(fd, 1), -1)) == 0
        for row in range(self.M):
            scale = np.abs(jac[row]).max()
            assert np.abs(fd[row] - jac[row]).max() <= 1e-6 * scale, row
        # the right-hand side is minus the residual at theta0
        known = p.c_v * theta0 / dt + dissipation_source(
            v, viscosity_mu(v, p), du / dx, None, state.b, grid, p, bnd)
        if bnd.sources is not None:
            known += bnd.sources["theta"]
        f = residual(theta0) - known
        assert np.abs(neg_f + f).max() <= 1e-12 * np.abs(f).max()
        # an insulated wall passes no heat, whatever theta does: row 0 of the
        # k-Laplacian sums to zero
        if bc is BoundaryCondition.INSULATED_WALL_LEFT:
            assert heat_flux(theta0, v, dx, p, bnd)[0] == 0.0
            assert d[0] - base[0] / theta0[0] ** p.beta == pytest.approx(-e[0])


class TestFaceConductance:
    @pytest.mark.parametrize("name, bc", TEMPERATURE_CASES,
                             ids=[c[0] for c in TEMPERATURE_CASES])
    def test_the_harmonic_mean_of_kappa_over_v_closed_per_regime(self, name,
                                                                  bc):
        # interior nodes and the far end average the cells on either side;
        # on the left a ghost closes it, an insulated wall passes nothing and
        # an isothermal wall's theta sits half a cell from the first center
        grid, p, bnd, state, _ = temperature_case(bc)
        v, c = state.v, p.kappa_tilde
        k = face_conductance(v, p, bnd)
        assert k.shape == (grid.cells + 1,)
        assert k[1:-1] == pytest.approx(2.0 * c / (v[:-1] + v[1:]), rel=1e-15)
        assert k[-1] == pytest.approx(2.0 * c / (v[-1] + bnd.v_gr), rel=1e-15)
        if bc is BoundaryCondition.INSULATED_WALL_LEFT:
            assert k[0] == 0.0
        elif bc is BoundaryCondition.ISOTHERMAL_WALL_LEFT:
            assert k[0] == pytest.approx(2.0 * c / v[0], rel=1e-15)
        else:
            assert k[0] == pytest.approx(2.0 * c / (bnd.v_gl + v[0]),
                                         rel=1e-15)


class TestKirchhoffFlux:
    @pytest.mark.parametrize("name, bc", TEMPERATURE_CASES,
                             ids=[c[0] for c in TEMPERATURE_CASES])
    def test_the_flux_has_the_sign_of_the_theta_difference(self, name, bc):
        # phi is increasing in theta, so the flux runs down the temperature
        # difference at every node the conductance does not close
        grid, p, bnd, state, _ = temperature_case(bc)
        theta = state.theta
        h = heat_flux(theta, state.v, grid.dx, p, bnd)
        lo = theta[0] if bnd.th_gl is None else bnd.th_gl
        rise = np.diff(np.concatenate(([lo], theta, [bnd.th_gr])))
        open_nodes = face_conductance(state.v, p, bnd) > 0.0
        assert np.count_nonzero(rise) == grid.cells + 1 - (bnd.th_gl is None)
        assert np.array_equal(np.sign(h), np.sign(rise) * open_nodes)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 10.0, 30.0])
    def test_converges_to_the_pointwise_flux_at_second_order(self, beta):
        # smooth theta and v, equal to their far-field values 1 at both ends:
        # the root-mean-square error at the nodes against
        # kappa_tilde * theta**beta * theta_x / v falls as dx**2
        p = PhysicalParams(kappa_tilde=1.3, beta=beta)
        bnd = boundary_data(Grid.uniform(8, 16.0, -8.0), CAUCHY, 0.0)

        def theta(x):
            return 1.0 + 0.3 * np.exp(-x * x)

        def v(x):
            return 1.0 + 0.4 * np.exp(-(x - 0.5) ** 2)

        errors = []
        for m in (128, 256, 512):
            grid = Grid.uniform(m, 16.0, -8.0)
            xc, xn = grid.centers(), grid.nodes()
            h = heat_flux(theta(xc), v(xc), grid.dx, p, bnd)
            theta_x = -0.6 * xn * np.exp(-xn * xn)
            exact = p.kappa_tilde * theta(xn) ** beta * theta_x / v(xn)
            errors.append(np.sqrt(np.mean((h - exact) ** 2)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.95), orders


class TestTemperatureSolve:
    @pytest.mark.parametrize("name, bc", TEMPERATURE_CASES,
                             ids=[c[0] for c in TEMPERATURE_CASES])
    def test_the_returned_theta_meets_the_residual_test(self, name, bc):
        # the residual, recomputed at the returned theta from the heat flux
        # returned with it, meets the Newton tolerance to a factor of 10, as
        # on every accepted step of the large-beta table
        grid, p, bnd, state, du = temperature_case(bc)
        v, dx, dt, ctl = state.v, grid.dx, 0.05, StepControl()
        mu = viscosity_mu(v, p)
        theta, updates, q, h, _ = substep_temperature(
            state, v, du, None, state.b, mu, grid, p, ctl, dt, bnd)
        assert updates >= 1 and theta.min() > 0.0
        assert bits(h) == bits(heat_flux(theta, v, dx, p, bnd))
        assert bits(q) == bits(dissipation_source(v, mu, du / dx, None,
                                                  state.b, grid, p, bnd))
        f = (p.c_v * (theta - state.theta) / dt + p.R * theta / v * (du / dx)
             - (h[1:] - h[:-1]) / dx - q)
        if bnd.sources is not None:
            f -= bnd.sources["theta"]
        tol = ctl.newton_tol * p.c_v * max(1.0, theta.max()) / dt
        assert np.abs(f).max() <= 10.0 * tol


class TestHeatEquationAgreement:
    def test_solver_matches_explicit_reference(self):
        # u = w = b = 0, v = 1, beta = 0: pure conduction (R tiny keeps the
        # acoustic coupling below round-off while honoring R > 0)
        grid = Grid.uniform(16, 1.0, -0.5)
        p = PhysicalParams(mu1=1.0, mu2=0.0, alpha=0.0, kappa_tilde=1.0,
                           beta=0.0, lam=1.0, nu=1.0, R=1e-12, c_v=1.0)
        state0 = make_initial_state(
            grid, GaussianBump(width=0.15, amp_theta=0.3), CAUCHY)
        ctl = StepControl(cfl=0.4, dt_min=1e-12, dt_max=2e-5)
        solved = run_until(state0.copy(), grid, 0.01, p, CAUCHY, ctl)
        ref = explicit_reference(state0.copy(), grid, 0.01, p, CAUCHY,
                                 dt_ref=1e-5)
        assert np.max(np.abs(solved.theta - ref.theta)) <= 1e-4


class TestFailureModes:
    def test_positivity_retry_then_success(self):
        # steep inward velocity with an over-large forced step: the first
        # attempt drives v negative, halvings rescue it
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state = reference_state(grid)
        state.u = -10.0 * np.tanh(grid.nodes())
        state.u[0] = state.u[-1] = 0.0
        ctl = StepControl(cfl=1.0, dt_min=1e-12, dt_max=0.2, retry_max=20)
        new_state, report = step(state, grid, p, CAUCHY, ctl,
                                 report_of(state, grid, p, CAUCHY))
        assert report.retries >= 1
        assert new_state.v.min() > 0.0

    def test_positivity_failure_when_retries_exhausted(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state = reference_state(grid)
        state.u = -10.0 * np.tanh(grid.nodes())
        state.u[0] = state.u[-1] = 0.0
        ctl = StepControl(cfl=1.0, dt_min=1e-12, dt_max=0.2, retry_max=0)
        with pytest.raises(PositivityFailure) as err:
            step(state, grid, p, CAUCHY, ctl, report_of(state, grid, p, CAUCHY))
        assert err.value.t == state.t

    def test_newton_divergence_after_retry_max_halvings(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state = bump_state(grid)
        ctl = StepControl(newton_max_iter=0, dt_min=1e-12)
        with pytest.raises(NewtonDivergence):
            step(state, grid, p, CAUCHY, ctl, report_of(state, grid, p, CAUCHY))

    @pytest.mark.parametrize("retry_max", [0, 1, 3])
    def test_a_failed_temperature_solve_halves_dt_under_retry_max(
            self, retry_max, monkeypatch):
        attempts = []

        def recording(state, v_new, du, dw, b_new, mu_new, grid, p, ctl, dt,
                      bnd, *kirchhoff):
            attempts.append(dt)
            return substep_temperature(state, v_new, du, dw, b_new, mu_new,
                                       grid, p, ctl, dt, bnd, *kirchhoff)

        monkeypatch.setattr(solver, "substep_temperature", recording)
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state = bump_state(grid)
        ctl = StepControl(newton_max_iter=0, dt_min=1e-12, retry_max=retry_max)
        with pytest.raises(NewtonDivergence) as err:
            step(state, grid, p, CAUCHY, ctl, report_of(state, grid, p, CAUCHY))
        assert f"after {retry_max} dt halvings" in str(err.value)
        assert err.value.t == state.t
        assert attempts == [attempts[0] * 0.5 ** k for k in range(retry_max + 1)]

    def test_a_failed_damping_names_the_damping(self, monkeypatch):
        # an update of -inf leaves theta nonpositive after every halving, one
        # Newton update into the solve, far below the iteration cap
        patch_newton_solve(monkeypatch,
                           lambda solve, d, e, rhs: np.full_like(rhs, -np.inf))
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state = bump_state(grid)
        with pytest.raises(NewtonDivergence) as err:
            step(state, grid, p, CAUCHY, StepControl(retry_max=1),
                 report_of(state, grid, p, CAUCHY))
        assert str(err.value).startswith(
            "temperature solve could not damp an update to keep theta positive "
            "after 1 dt halvings")

    def test_a_damped_update_does_not_end_the_solve(self, monkeypatch):
        # the first scripted update takes cell 5 to 1e-11; the second would
        # take it below zero, and damping shrinks it under the update
        # tolerance. A damped update is small because it was damped, so the
        # solve goes on; at beta = 0 it is linear, and one real update
        # reaches the solution
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=0.0)
        state = reference_state(grid)
        state.theta = 1.0 + 0.1 * np.cos(np.arange(16.0))
        first, second = np.zeros(16), np.zeros(16)
        first[5] = 1e-11 - state.theta[5]
        second[5] = -1.0
        scripted = [first, second]
        patch_newton_solve(monkeypatch, lambda solve, d, e, rhs: (
            scripted.pop(0) if scripted else solve(d, e, rhs)))
        theta, updates, _, _, _ = substep_temperature(
            state, state.v, np.zeros(16), None, state.b,
            viscosity_mu(state.v, p), grid, p, StepControl(), 0.01,
            boundary_data(grid, CAUCHY, 0.01))
        assert updates >= 3 and theta.min() > 0.5

    def test_a_halving_below_dt_min_ends_the_step(self):
        # dt_max caps the first attempt at 1.5e-3, and its half is below
        # dt_min long before retry_max halvings
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state = bump_state(grid)
        ctl = StepControl(newton_max_iter=0, dt_min=1e-3, dt_max=1.5e-3)
        with pytest.raises(NewtonDivergence) as err:
            step(state, grid, p, CAUCHY, ctl, report_of(state, grid, p, CAUCHY))
        assert str(err.value) == ("temperature solve exceeded 0 iterations; "
                                  "dt halved below dt_min = 0.001 (at t = 0)")

    def test_a_failed_temperature_solve_is_retried_until_it_converges(self):
        # at beta = 6 the Newton solves of the first attempts need more than
        # six updates; smaller steps converge within them
        grid = Grid.uniform(64, 16.0, -8.0)
        p = PhysicalParams(beta=6.0)
        state = make_initial_state(grid, GaussianBump(amp_theta=3.0), CAUCHY)
        new, report = step(state, grid, p, CAUCHY, StepControl(newton_max_iter=6),
                           report_of(state, grid, p, CAUCHY))
        assert report.retries == 4
        assert new.theta.min() > 0.0


class TestLargeBetaTable:
    """The temperature Newton on a hot bump (amp_theta = 3) at large beta, in
    every regime: each cell up to beta 30 reaches t_end, a beta-50 cell
    reaches it or fails with a NewtonDivergence that names the cause, and
    every accepted temperature solve meets its tolerance at the theta it
    returns, to a factor of 10."""

    CONFIG = ("grid.cells = 64\ngrid.mass = 16\n{left}bc = {bc}\n"
              "params.preset = normalized\nparams.alpha = 1\n"
              "params.beta = {beta}\ninitial.profile = gaussian_bump\n"
              "initial.center = 0\ninitial.amp_theta = 3\ntime.t_end = 0.5\n")
    CAUSES = ("temperature solve exceeded", "temperature solve met a Newton "
              "matrix", "temperature solve could not damp",
              "temperature iterate overflowed")

    def test_every_cell_finishes_or_names_its_failure(self, monkeypatch):
        ratios = []

        def checking(state, v_new, du, dw, b_new, mu_new, grid, p, ctl, dt,
                     bnd, *kirchhoff):
            out = substep_temperature(state, v_new, du, dw, b_new, mu_new,
                                      grid, p, ctl, dt, bnd, *kirchhoff)
            theta, dx = out[0], grid.dx
            ux = du / dx
            wx = None if dw is None else dw / dx
            h = heat_flux(theta, v_new, dx, p, bnd)
            q = dissipation_source(v_new, mu_new, ux, wx, b_new, grid, p, bnd)
            f = (p.c_v * (theta - state.theta) / dt + p.R * theta / v_new * ux
                 - (h[1:] - h[:-1]) / dx - q)
            tol = ctl.newton_tol * p.c_v * max(1.0, theta.max()) / dt
            ratios.append(np.abs(f).max() / tol)
            return out

        monkeypatch.setattr(solver, "substep_temperature", checking)
        for bc in ("cauchy", "insulated_wall", "isothermal_wall"):
            left = "" if bc == "cauchy" else "grid.left = 0\n"
            for beta in (6, 10, 15, 20, 30, 50):
                cfg = parse_config(self.CONFIG.format(left=left, bc=bc,
                                                      beta=beta))
                state = make_initial_state(cfg.grid, cfg.profile, cfg.bc)
                try:
                    end = run_until(state, cfg.grid, cfg.t_end, cfg.params,
                                    cfg.bc, cfg.control)
                except NewtonDivergence as exc:
                    assert beta == 50, (bc, beta, str(exc))
                    assert str(exc).startswith(self.CAUSES), str(exc)
                else:
                    assert end.t == cfg.t_end and end.theta.min() > 0.0
        assert len(ratios) > 100 and max(ratios) <= 10.0


def assert_same_step(new, report, a_new, a_report):
    """Two steps' states and reports, bit for bit, but for retries."""
    for name in ("v", "theta", "b", "u", "w", "t", "step"):
        assert bits(getattr(new, name)) == bits(getattr(a_new, name)), name
    for f in fields(StateCoeffs):
        x, y = getattr(report.coeffs, f.name), getattr(a_report.coeffs, f.name)
        assert (x is None) == (y is None), f.name
        assert x is None or bits(x) == bits(y), f.name
    for f in fields(report):
        if f.name not in ("coeffs", "retries"):
            assert bits(getattr(report, f.name)) == \
                bits(getattr(a_report, f.name)), f.name


class TestAttempt:
    """attempt runs one step attempt at the dt it is given; step is the dt
    controller around it."""

    @pytest.mark.parametrize("name", ["cauchy_beta10_retries",
                                      "isothermal_wall_beta35_retries"])
    def test_every_step_is_an_attempt_at_the_halved_proposal(self, name):
        # each step of the run equals, bit for bit, one attempt at its
        # proposed dt halved once per retry; the attempts at the larger dts
        # fail
        cfg = parse_config_file(ROUNDOFF / f"{name}.cfg")
        grid, p, bc, ctl = cfg.grid, cfg.params, cfg.bc, cfg.control
        state = make_initial_state(grid, cfg.profile, bc)
        prev = [state, report_of(state, grid, p, bc)]
        retried = []

        def sink(new, report):
            old, old_report = prev
            proposed = min(compute_dt(old, old_report.coeffs.b_sq, grid, p, ctl),
                           cfg.t_end - old.t)
            for k in range(report.retries):
                with pytest.raises(solver._Retry):
                    attempt(old, old_report, proposed * 0.5 ** k, grid, p, bc, ctl)
            dt = proposed * 0.5 ** report.retries
            a_new, a_report = attempt(old, old_report, dt, grid, p, bc, ctl)
            assert a_report.dt_used == dt == report.dt_used
            assert a_report.retries == 0
            assert_same_step(new, report, a_new, a_report)
            retried.append(report.retries)
            prev[:] = [new, report]

        run_until(state, grid, cfg.t_end, p, bc, ctl, sink=sink)
        assert max(retried) > 0

    def test_an_attempt_keeps_the_dt_it_is_given(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = bump_state(grid)
        start = report_of(state, grid, p, CAUCHY)
        for dt in (1e-3, 0.3 * compute_dt(state, start.coeffs.b_sq, grid, p,
                                          StepControl())):
            new, report = attempt(state, start, dt, grid, p, CAUCHY, StepControl())
            assert report.dt_used == dt and report.retries == 0
            assert new.t == state.t + dt and new.step == state.step + 1

    @pytest.mark.parametrize("failure", [PositivityFailure, NewtonDivergence])
    def test_a_failed_attempt_names_its_cause_and_edits_nothing(self, failure):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=0.0, beta=1.0)
        state = bump_state(grid)
        if failure is PositivityFailure:  # steep inflow at a large dt
            state.u = -10.0 * np.tanh(grid.nodes())
            state.u[0] = state.u[-1] = 0.0
            ctl, dt = StepControl(), 0.2
        else:  # a temperature solve allowed no update
            ctl, dt = StepControl(newton_max_iter=0), 1e-2
        report = report_of(state, grid, p, CAUCHY)
        arrays = [getattr(state, name).copy() for name in ("v", "theta", "b", "u", "w")]
        report_arrays = [getattr(report.coeffs, f.name).copy()
                         for f in fields(StateCoeffs)] + [
            x.copy() for x in (report.dissipation, report.heat_flux, *report.kirchhoff)]
        with pytest.raises(solver._Retry) as err:
            attempt(state, report, dt, grid, p, CAUCHY, ctl)
        assert err.value.args[0] is failure
        assert bits(*arrays) == bits(*(getattr(state, name) for name in
                                       ("v", "theta", "b", "u", "w")))
        assert bits(*report_arrays) == bits(
            *(getattr(report.coeffs, f.name) for f in fields(StateCoeffs)),
            report.dissipation, report.heat_flux, *report.kirchhoff)


class TestRunUntil:
    def test_empty_interval(self, grid16, params_normalized):
        state = reference_state(grid16)
        state.t = 2.0
        calls = []
        out = run_until(state, grid16, 2.0, params_normalized, CAUCHY,
                        StepControl(), sink=lambda s, r: calls.append(1))
        assert out.t == 2.0 and not calls

    def test_backward_interval_rejected(self, grid16, params_normalized):
        state = reference_state(grid16)
        state.t = 2.0
        with pytest.raises(ValueError):
            run_until(state, grid16, 1.0, params_normalized, CAUCHY,
                      StepControl())

    def test_lands_exactly_on_t_end(self, grid16, params_normalized):
        state = bump_state(grid16)
        t_end = 0.3117
        out = run_until(state, grid16, t_end, params_normalized, CAUCHY,
                        StepControl())
        assert out.t == t_end

    def test_sink_sees_strictly_increasing_time(self, grid16, params_normalized):
        times = []
        run_until(bump_state(grid16), grid16, 0.2, params_normalized, CAUCHY,
                  StepControl(), sink=lambda s, r: times.append(s.t))
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_snaps_onto_t_end_without_editing_the_callers_state(
            self, grid16, params_normalized):
        state = reference_state(grid16)
        state.t = 1.0 - 1e-14
        out = run_until(state, grid16, 1.0, params_normalized, CAUCHY,
                        StepControl())
        assert out.t == 1.0 and state.t == 1.0 - 1e-14

    def test_snaps_onto_t_end_without_editing_a_state_the_sink_received(
            self, grid16, params_normalized):
        # the rest state steps at dt_max, so the third step lands 5e-13 short
        # of t_end, inside the snap tolerance
        seen = []
        out = run_until(reference_state(grid16), grid16, 0.3 + 5e-13,
                        params_normalized, CAUCHY, StepControl(dt_max=0.1),
                        sink=lambda s, r: seen.append((s, s.t)))
        assert out.t == 0.3 + 5e-13 and len(seen) == 3
        assert seen[-1][1] != out.t
        assert all(s.t == t for s, t in seen)


class TestKirchhoffCarry:
    """A report, an accepted step's or a state's initial_report, carries the
    Kirchhoff terms of its state's theta, and the first Newton iterate of a
    step from it reads them, on the regime's unforced boundary data only,
    instead of forming them again."""

    @pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
    def test_the_carried_terms_are_a_fresh_evaluation(self, bc):
        wall = bc.has_left_wall
        grid = Grid.uniform(32, 16.0, 0.0 if wall else -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=0.5)
        state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
        bnd = boundary_data(grid, bc, 0.0)
        pairs = [(state, initial_report(state, grid, p, bnd))]
        run_until(state, grid, 0.3, p, bc, StepControl(),
                  sink=lambda s, r: pairs.append((s, r)))
        assert len(pairs) > 4
        for s, r in pairs:
            h, fresh = heat_flux_stencil(s.theta, face_conductance(s.v, p, bnd),
                                         grid.dx, p, bnd)
            assert [x.shape for x in r.kirchhoff] == [(grid.cells + 2,)] * 2
            assert bits(*r.kirchhoff) == bits(*fresh)
            assert bits(r.heat_flux) == bits(h)

    def test_run_until_starts_from_the_initial_terms(self, monkeypatch):
        # one step to t_end: run_until forms the terms once for the initial
        # report, and its step's first Newton iterate reads them, so the
        # step forms one evaluation fewer than a step from a report with
        # no terms, and evaluates the stencil as often, to the same bits
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.5)
        state, ctl, t_end = bump_state(grid), StepControl(), 1e-3
        formed, stencil = [], solver.heat_flux_stencil

        def counting(theta, k, dx, p, bnd, kirchhoff=None):
            formed.append(kirchhoff is None)
            return stencil(theta, k, dx, p, bnd, kirchhoff)

        monkeypatch.setattr(solver, "heat_flux_stencil", counting)
        run = run_until(state, grid, t_end, p, CAUCHY, ctl)
        in_run, formed[:] = formed[:], []
        plain, _ = step(state, grid, p, CAUCHY, ctl,
                        replace(report_of(state, grid, p, CAUCHY), kirchhoff=None),
                        dt_cap=t_end)
        monkeypatch.undo()
        in_step, in_plain = in_run[1:], formed[1:]  # past each initial report
        assert in_run[0] and formed[0] and not in_step[0] and in_plain[0]
        assert len(in_step) == len(in_plain) > 1
        assert sum(in_step) == sum(in_plain) - 1
        assert run.t == plain.t == t_end and bits(run.theta) == bits(plain.theta)

    @pytest.mark.parametrize("name", ["v", "theta", "b", "u", "w"])
    def test_run_until_refuses_a_non_finite_state(self, name, monkeypatch):
        # the initial report validates the state; a NaN theta passes the
        # constitutive laws, whose positivity test skips NaN
        grid = Grid.uniform(16, 8.0, -4.0)
        state = bump_state(grid)
        getattr(state, name).flat[3] = np.nan
        monkeypatch.setattr(solver, "step", lambda *args, **kwargs: pytest.fail(
            "run_until stepped a non-finite state"))
        with pytest.raises(ValueError, match=name):
            run_until(state, grid, 0.1, PhysicalParams.normalized(1.0, 1.0),
                      CAUCHY, StepControl())

    def test_a_run_with_the_carry_is_the_run_without_it(self):
        # the carry changes no bit: every step of a run, the first included,
        # equals, bit for bit, a step from the same report with no terms,
        # and a wrong carry on unforced data moves the result, so the first
        # iterate reads it
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.5)
        state = bump_state(grid)
        ctl = StepControl()
        prev = [state, report_of(state, grid, p, CAUCHY)]

        def sink(new, report):
            old, carried = prev
            assert_same_step(new, report, *step(
                old, grid, p, CAUCHY, ctl, replace(carried, kirchhoff=None),
                dt_cap=0.2 - old.t))
            skewed = tuple(2.0 * x for x in carried.kirchhoff)
            wrong, _ = attempt(old, replace(carried, kirchhoff=skewed),
                               report.dt_used, grid, p, CAUCHY, ctl)
            assert bits(wrong.theta) != bits(new.theta)
            prev[:] = [new, report]

        run_until(state, grid, 0.2, p, CAUCHY, ctl, sink=sink)
        assert prev[0].t == 0.2

    def test_a_forced_attempt_forms_the_terms_again(self):
        sol = MmsSolution(amp_v=0.1, amp_u=0.2, amp_theta=0.1, amp_w=(0.1, 0.2),
                          amp_b=(0.2, 0.1))
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        grid = Grid.uniform(16, 1.0, 0.1)
        state = sol.state(grid, 0.0)
        forcing, ctl = MmsForcing(sol, p), StepControl(dt_max=1e-3)
        new, report = step(state, grid, p, CAUCHY, ctl,
                           report_of(state, grid, p, CAUCHY), forcing=forcing)
        junk = tuple(np.full_like(x, np.nan) for x in report.kirchhoff)
        plain = attempt(new, replace(report, kirchhoff=None), 1e-3, grid, p,
                        CAUCHY, ctl, forcing)
        carried = attempt(new, replace(report, kirchhoff=junk), 1e-3, grid, p,
                          CAUCHY, ctl, forcing)
        assert_same_step(*plain, *carried)

    def test_the_carry_survives_a_retry(self, monkeypatch):
        # the first attempt's temperature solve fails; the retry at half
        # the dt reads the same carry, which no attempt has edited
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.5)
        state = bump_state(grid)
        bnd = boundary_data(grid, CAUCHY, 0.0)
        carry = heat_flux_stencil(state.theta, face_conductance(state.v, p, bnd),
                                  grid.dx, p, bnd)[1]
        before = bits(*carry)
        seen = []

        def failing_once(*args):
            seen.append(args[-1])
            if len(seen) % 2:
                raise solver._Retry(NewtonDivergence, "failed on purpose")
            return substep_temperature(*args)

        monkeypatch.setattr(solver, "substep_temperature", failing_once)
        ctl = StepControl()
        start = replace(report_of(state, grid, p, CAUCHY), kirchhoff=carry)
        new, report = step(state, grid, p, CAUCHY, ctl, start)
        assert report.retries == 1 and len(seen) == 2
        assert all(k is carry for k in seen) and bits(*carry) == before
        assert_same_step(new, report, *step(state, grid, p, CAUCHY, ctl,
                                            replace(start, kirchhoff=None)))
