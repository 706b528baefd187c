import json
import math
import re
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from conftest import ALL_REGIMES, coeffs_of, reference_state, smooth_bump
from mhd1d import diagnostics
from mhd1d.constitutive import effective_stress, pressure, viscosity_mu
from mhd1d.core import (
    BoundaryCondition,
    ConstantProfile,
    GasState,
    GaussianBump,
    Grid,
    PhysicalParams,
    StateBlock,
    make_initial_state,
    sq2,
)
from mhd1d.diagnostics import (
    BLOCK_CELLS,
    SLAB_INTERVALS_PER_CELL,
    DiagnosticsCollector,
    DiagnosticsRecord,
    ReprAccumulator,
    default_anchor,
    dissipation_W,
    energy_entropy,
    equilibrium_roots,
    level_set_measures,
    record_terms,
    representation_residual,
    representation_update,
    slab_integrals,
)
from mhd1d.solver import (
    StepControl,
    boundary_data,
    dissipation_source,
    initial_report,
    run_until,
    state_coeffs,
    step,
)

CAUCHY = BoundaryCondition.CAUCHY_FAR_FIELD
FIELDS = ("v", "theta", "b", "u", "w")


def terms_of(state, grid, p, bc=CAUCHY, acc=None):
    """The RecordTerms of a state with the report of a zero-length step:
    fresh H, q and coefficients."""
    bnd = boundary_data(grid, bc, state.t)
    return record_terms(state, grid, p, bnd, initial_report(state, grid, p, bnd),
                        acc)


class TestEnergyEntropy:
    def test_reference_state_is_zero(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized()
        state = reference_state(grid)
        assert energy_entropy(state, grid, p, terms_of(state, grid, p)) == 0.0

    def test_uniform_volume_offset(self):
        # v = e everywhere: integrand is e - 2 per unit mass (R = 1)
        grid = Grid.uniform(64, 16.0, -8.0)
        state = reference_state(grid)
        state.v[:] = math.e
        p = PhysicalParams.normalized()
        assert energy_entropy(state, grid, p, terms_of(state, grid, p)) == pytest.approx(
            16.0 * (math.e - 2.0), rel=1e-14)

    def test_bump_matches_fine_quadrature(self):
        # oracle: midpoint quadrature of the continuum integrand at 128x the
        # resolution, with u, w evaluated directly (no node averaging)
        prof = GaussianBump(center=0.0, width=1.0, amp_v=-0.3, amp_u=0.3,
                            amp_theta=0.5, amp_b=(0.3, -0.1), amp_w=(0.25, 0.1))
        p = PhysicalParams(R=1.2, c_v=0.8, mu1=1.0)
        grid = Grid.uniform(16384, 32.0, -16.0)
        state = make_initial_state(grid, prof, CAUCHY)
        discrete = energy_entropy(state, grid, p, terms_of(state, grid, p))

        n_fine = 1 << 21
        x = -16.0 + (np.arange(n_fine) + 0.5) * (32.0 / n_fine)

        def bump(far, amp):
            return far + amp * np.exp(-((x - prof.center) / prof.width) ** 2)

        v, th, u = bump(1, prof.amp_v), bump(1, prof.amp_theta), bump(0, prof.amp_u)
        b2 = bump(0, prof.amp_b[0]) ** 2 + bump(0, prof.amp_b[1]) ** 2
        w2 = bump(0, prof.amp_w[0]) ** 2 + bump(0, prof.amp_w[1]) ** 2
        integrand = (0.5 * (u ** 2 + w2 + v * b2)
                     + p.R * (v - np.log(v) - 1.0)
                     + p.c_v * (th - np.log(th) - 1.0))
        oracle = float(np.sum(integrand) * 32.0 / n_fine)
        assert discrete == pytest.approx(oracle, rel=1e-6)

    def test_domain_error(self):
        grid = Grid.uniform(8, 4.0, 0.0)
        state = reference_state(grid)
        state.v[2] = -1.0
        with pytest.raises(ValueError):
            p = PhysicalParams()
            energy_entropy(state, grid, p, terms_of(state, grid, p))


class TestDissipationW:
    def test_reference_state_is_zero(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized()
        state = reference_state(grid)
        assert dissipation_W(state, grid, p, terms_of(state, grid, p)) == 0.0

    def test_linear_velocity_constant_shear(self):
        # u = c*x gives u_x = c exactly; with v = theta = 1 and mu2 = 0 the
        # integrand is mu1*c^2 everywhere
        grid = Grid.uniform(32, 8.0, -4.0)
        state = reference_state(grid)
        c = 0.37
        state.u = c * grid.nodes()
        p = PhysicalParams(mu1=1.4, mu2=0.0)
        w = dissipation_W(state, grid, p, terms_of(state, grid, p))
        assert w == pytest.approx(1.4 * c ** 2 * 8.0, rel=1e-13)

    def test_nonnegative_on_random_states(self):
        grid = Grid.uniform(24, 12.0, -6.0)
        p = PhysicalParams(mu1=0.9, mu2=0.4, alpha=1.0, kappa_tilde=1.2,
                           beta=0.6)
        rng = np.random.default_rng(11)
        for _ in range(25):
            state = reference_state(grid)
            state.v = rng.uniform(0.2, 3.0, grid.cells)
            state.theta = rng.uniform(0.2, 3.0, grid.cells)
            state.u = rng.normal(0.0, 1.0, grid.cells + 1)
            state.w = rng.normal(0.0, 1.0, (grid.cells + 1, 2))
            state.b = rng.normal(0.0, 1.0, (grid.cells, 2))
            assert dissipation_W(state, grid, p, terms_of(state, grid, p)) >= 0.0


class TestEquilibriumRoots:
    def test_zero_level(self):
        assert equilibrium_roots(0.0) == (1.0, 1.0)

    def test_known_level(self):
        a1, a2 = equilibrium_roots(1.0)
        assert a1 == pytest.approx(0.1586, abs=1e-4)
        assert a2 == pytest.approx(3.1462, abs=1e-4)

    @pytest.mark.parametrize("e0", [0.0, 0.1, 0.5, 1.0, 5.0])
    def test_residual_within_tolerance(self, e0):
        a1, a2 = equilibrium_roots(e0)
        assert 0.0 < a1 <= 1.0 <= a2
        for z in (a1, a2):
            assert abs(z - math.log(z) - 1.0 - e0) <= 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_roots(-0.1)


def overlap_loop(f, grid):
    """Integrals of the cell field f over the whole unit intervals of the
    grid, one interval at a time."""
    left, dx, m = grid.left_edge, grid.dx, grid.cells
    n0 = math.ceil(left - 1e-9)
    n_int = max(math.floor(grid.right_edge + 1e-9) - n0, 0)
    cell_lo = left + np.arange(m) * dx
    cell_hi = cell_lo + dx
    out = np.empty(n_int)
    for k in range(n_int):
        overlap = np.clip(np.minimum(cell_hi, n0 + k + 1)
                          - np.maximum(cell_lo, n0 + k), 0.0, None)
        out[k] = np.sum(f * overlap)
    return out


class TestSlabIntegrals:
    def test_reference_state(self):
        grid = Grid.uniform(64, 8.0, -4.0)
        v_ints, th_ints = slab_integrals(reference_state(grid), grid)
        assert v_ints.shape == (8,)
        assert np.allclose(v_ints, 1.0, atol=1e-14)
        assert np.allclose(th_ints, 1.0, atol=1e-14)

    def test_constant_double_volume(self):
        grid = Grid.uniform(64, 8.0, -4.0)
        state = reference_state(grid)
        state.v[:] = 2.0
        v_ints, _ = slab_integrals(state, grid)
        assert np.allclose(v_ints, 2.0, atol=1e-14)

    def test_partial_cells_split_proportionally(self):
        # domain [-2.25, 2.25] has 4 whole unit intervals, each starting and
        # ending mid-cell
        grid = Grid.uniform(18, 4.5, -2.25)
        state = reference_state(grid)
        v_ints, th_ints = slab_integrals(state, grid)
        assert v_ints.shape == (4,)
        assert np.allclose(v_ints, 1.0, atol=1e-14)
        # smooth non-constant field: midpoint split stays second-order close
        state.v = 2.0 + 0.1 * np.sin(grid.centers())
        v_ints, _ = slab_integrals(state, grid)
        for k, n in enumerate(range(-2, 2)):
            exact = 2.0 + 0.1 * (math.cos(n) - math.cos(n + 1))
            assert v_ints[k] == pytest.approx(exact, abs=2e-3)

    @pytest.mark.parametrize("seed", range(6))
    def test_unaligned_grids_match_the_overlap_loop(self, seed):
        # oracle: each unit interval summed over its overlap with every cell
        rng = np.random.default_rng(seed)
        for _ in range(20):
            cells = int(rng.integers(4, 200))
            dx = float(rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 16.0)]))
            left = float(rng.choice([rng.uniform(-50.0, 50.0),
                                     round(rng.uniform(-50.0, 50.0)) + rng.uniform(-2e-9, 2e-9),
                                     1e6 + rng.uniform(0.0, 1.0)]))
            grid = Grid(cells=cells, dx=dx, left_edge=left)
            state = reference_state(grid)
            state.v = rng.uniform(0.2, 3.0, cells)
            state.theta = rng.uniform(0.2, 3.0, cells)
            got = slab_integrals(state, grid)
            for f, ints in zip((state.v, state.theta), got):
                want = overlap_loop(f, grid)
                assert ints.shape == want.shape
                # round-off of the sums, and of the coordinates: a cell edge
                # is known to an ulp of the largest coordinate
                ulp = math.ulp(max(abs(left), abs(grid.right_edge)))
                tol = 1e-13 * float(np.sum(f)) * dx + 8.0 * ulp * float(np.max(f))
                assert np.max(np.abs(ints - want), initial=0.0) <= tol

    def test_short_domain_gives_nothing(self):
        grid = Grid.uniform(4, 0.5, 0.1)
        v_ints, th_ints = slab_integrals(reference_state(grid), grid)
        assert v_ints.size == 0 and th_ints.size == 0


class TestLevelSetMeasures:
    def test_reference_state(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        assert level_set_measures(reference_state(grid), grid) == (0.0, 0.0)

    def test_uniformly_hot(self):
        grid = Grid.uniform(20, 5.0, 0.0)
        state = reference_state(grid)
        state.theta[:] = 3.0
        lo, hi = level_set_measures(state, grid)
        assert lo == 0.0 and hi == pytest.approx(5.0, rel=1e-14)


class TestRepresentationFormula:
    def test_rejects_general_constants(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        state = reference_state(grid)
        with pytest.raises(ValueError, match="normalized"):
            ReprAccumulator.start(state, grid, PhysicalParams(R=2.0))

    def test_initial_accumulator(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0)
        acc = ReprAccumulator.start(reference_state(grid), grid, p)
        assert acc.factor.shape == (grid.cells,)
        assert np.all(acc.factor == 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_equilibrium_closed_forms(self, alpha):
        # at the far-field state: Y = exp(-t), B = exp(-1), H = e^t - 1, so
        # the factor Y * (1 + H) stays 1
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        state = reference_state(grid)
        acc = ReprAccumulator.start(state, grid, p)
        t = 0.0
        for _ in range(50):
            dt = 0.02
            t += dt
            state.t = t
            representation_update(acc, state, grid, dt, p,
                                  terms_of(state, grid, p, acc=acc))
        assert np.max(np.abs(acc.factor - 1.0)) <= 1e-12
        # the initial data's part of v_per_factor, v0 exp(-v0**-alpha) times
        # exp(-u0 integral), is exp(-1) at the far-field state
        assert np.allclose(np.exp(acc.log_constant), math.exp(-1.0), rtol=1e-14)
        resid = representation_residual(acc.factor, state, grid, p,
                                        terms_of(state, grid, p, acc=acc))
        assert np.max(resid) <= 1e-12

    def test_accumulators_stay_finite_on_smooth_run(self):
        grid = Grid.uniform(64, 16.0, -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, smooth_bump(), CAUCHY)
        acc = ReprAccumulator.start(state, grid, p)

        def sink(s, r):
            representation_update(acc, s, grid, r.dt_used, p,
                                  terms_of(s, grid, p, acc=acc))
            assert np.all(np.isfinite(acc.factor))
            assert np.all(acc.factor > 0.0)

        assert run_until(state, grid, 0.5, p, CAUCHY, StepControl(), sink=sink).t == 0.5

    def test_factor_follows_the_split_stress_and_history_recurrence(self):
        # the split form of the factor: S += sigma dt, H += h geom / exp(S),
        # factor = exp(S) * (1 + H), which holds while exp(S) stays in range
        grid = Grid.uniform(64, 16.0, -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, smooth_bump(), CAUCHY)
        acc = ReprAccumulator.start(state, grid, p)
        split = {"S": 0.0, "H": np.zeros(grid.cells)}
        defects = []

        def sink(s, r):
            terms = terms_of(s, grid, p, acc=acc)
            representation_update(acc, s, grid, r.dt_used, p, terms)
            sigma = effective_stress(s, grid, coeffs_of(s, p), acc.anchor)
            sdt = sigma * r.dt_used
            geom = r.dt_used if sdt == 0.0 else math.expm1(sdt) / sigma
            h = (s.theta + 0.5 * s.v * terms.coeffs.b_sq) / terms.v_per_factor
            split["S"] += sdt
            split["H"] = split["H"] + h * geom / math.exp(split["S"])
            want = math.exp(split["S"]) * (1.0 + split["H"])
            defects.append(np.max(np.abs(acc.factor - want) / want))

        run_until(state, grid, 2.0, p, CAUCHY, StepControl(), sink=sink)
        assert len(defects) > 10 and max(defects) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_residual_stays_round_off_past_the_float_range_of_exp(self, alpha):
        # at rest the anchor stress is -1: exp(S) = exp(-t) underflows near
        # t = 745 while H grows as exp(t); their product, the factor, must
        # stay 1 and keep every residual at round-off
        grid = Grid.uniform(8, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        state = make_initial_state(grid, ConstantProfile(), CAUCHY)
        collector = DiagnosticsCollector(grid, p, CAUCHY, state)
        residuals = [collector.make_record(state, None).repr_residual_max]

        def sink(s, r):
            residuals.append(collector.make_record(s, r).repr_residual_max)

        final = run_until(state, grid, 800.0, p, CAUCHY, StepControl(cfl=1.0),
                          sink=sink)
        assert final.t == 800.0
        assert all(r is not None and r <= 1e-12 for r in residuals)

    def test_a_nan_residual_stays_the_run_maximum(self, monkeypatch):
        # max() keeps its first argument against a NaN; the run's maximum
        # must show the NaN that one record wrote as null
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state0, pairs = trajectory(grid, p, CAUCHY, smooth_bump(), 0.2)
        assert len(pairs) >= 3
        residual = diagnostics.representation_residual
        calls = []

        def nan_in_the_second(*args):
            out = residual(*args)
            calls.append(out)
            if len(calls) == 2:
                out[...] = math.nan
            return out

        monkeypatch.setattr(diagnostics, "representation_residual",
                            nan_in_the_second)
        coll = DiagnosticsCollector(grid, p, CAUCHY, state0)  # the first call
        records = [coll.last]
        records += [coll.make_record(s, r) for s, r in pairs]
        assert math.isnan(records[1].repr_residual_max)
        assert all(0.0 <= r.repr_residual_max < 1.0 for r in records[2:])
        assert math.isnan(coll.max_repr_residual)

    def test_residual_shrinks_under_refinement(self):
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        maxes = []
        for cells in (64, 128, 256):
            grid = Grid.uniform(cells, 16.0, -8.0)
            state = make_initial_state(grid, smooth_bump(), CAUCHY)
            coll = DiagnosticsCollector(grid, p, CAUCHY, state)
            run_until(state, grid, 0.5, p, CAUCHY, StepControl(),
                      sink=coll.make_record)
            maxes.append(coll.max_repr_residual)
        assert maxes[0] > maxes[1] > maxes[2]


class TestCollector:
    def test_equilibrium_records(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = reference_state(grid)
        coll = DiagnosticsCollector(grid, p, CAUCHY, state)
        rec0 = coll.make_record(state)
        assert rec0.E_entropy == 0.0
        assert rec0.W == 0.0
        assert rec0.measure_theta_low == 0.0 and rec0.measure_theta_high == 0.0
        assert rec0.repr_residual_max == pytest.approx(0.0, abs=1e-14)

        records = [rec0]
        run_until(state, grid, 0.5, p, CAUCHY, StepControl(),
                  sink=lambda s, r: records.append(coll.make_record(s, r)))
        times = [r.t for r in records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(r.mass_defect <= 1e-13 for r in records)

    def test_bump_run_monitors(self):
        grid = Grid.uniform(64, 32.0, -16.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, smooth_bump(), CAUCHY)
        coll = DiagnosticsCollector(grid, p, CAUCHY, state)
        records = [coll.make_record(state)]
        run_until(state, grid, 0.5, p, CAUCHY, StepControl(),
                  sink=lambda s, r: records.append(coll.make_record(s, r)))
        e0 = records[0].E_entropy
        bound = 2.0 * e0 / (2.0 * math.log(2.0) - 1.0)
        assert bound == pytest.approx(5.177399 * e0, rel=1e-6)
        for rec in records:
            assert rec.W >= 0.0
            assert rec.min_v > 0.0 and rec.min_theta > 0.0
            assert (rec.measure_theta_low + rec.measure_theta_high
                    <= bound + 2.0 * grid.dx)
            # unit intervals average the field: sandwiched by its extremes
            assert rec.min_v - 1e-14 <= rec.slab_v_min
            assert rec.slab_v_max <= rec.max_v + 1e-14
            assert rec.min_theta - 1e-14 <= rec.slab_theta_min
            assert rec.slab_theta_max <= rec.max_theta + 1e-14
        # no repr tracking without the normalized preset
        coll2 = DiagnosticsCollector(grid, PhysicalParams(R=1.1), CAUCHY,
                                     make_initial_state(grid, smooth_bump(), CAUCHY))
        assert coll2.make_record(make_initial_state(grid, smooth_bump(), CAUCHY)
                                 ).repr_residual_max is None

    def test_total_energy_drift_shrinks_under_refinement(self):
        # the temperature-form scheme does not conserve the total-energy form;
        # the monitored defect must shrink at first order in dt (dt ~ dx here)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        drifts = []
        for cells in (256, 512, 1024):
            grid = Grid.uniform(cells, 32.0, -16.0)
            state = make_initial_state(grid, smooth_bump(), CAUCHY)
            coll = DiagnosticsCollector(grid, p, CAUCHY, state)
            records = [coll.make_record(state)]
            run_until(state, grid, 1.0, p, CAUCHY, StepControl(),
                      sink=lambda s, r: records.append(coll.make_record(s, r)))
            e_tot0 = records[0].energy_total
            drifts.append(max(abs(r.energy_total - e_tot0 - r.energy_flux_cum)
                              for r in records))
        assert drifts[0] > drifts[1] > drifts[2]
        assert drifts[2] <= drifts[1] / 1.5

    def test_grid_beyond_the_slab_bound_is_refused(self):
        # 1e300 unit intervals: slab_integrals could not allocate them
        grid = Grid(cells=4, dx=2.5e299)
        p = PhysicalParams(R=1.1)
        with pytest.raises(ValueError, match="SLAB_INTERVALS_PER_CELL"):
            DiagnosticsCollector(grid, p, CAUCHY, reference_state(grid))
        at_bound = Grid(cells=4, dx=float(SLAB_INTERVALS_PER_CELL))
        coll = DiagnosticsCollector(at_bound, p, CAUCHY, reference_state(at_bound))
        assert coll.make_record(reference_state(at_bound)).slab_v_max == 1.0

    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_record_fields_are_builtin_scalars(self, bc):
        wall = bc.has_left_wall
        grid = Grid.uniform(32, 16.0, 0.0 if wall else -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
        coll = DiagnosticsCollector(grid, p, bc, state)
        records = [coll.make_record(state)]
        run_until(state, grid, 0.1, p, bc, StepControl(),
                  sink=lambda s, r: records.append(coll.make_record(s, r)))
        for record in records:
            for f in fields(record):
                value = getattr(record, f.name)
                assert type(value) in (int, float, type(None)), (f.name, type(value))


def energy_density(state, p):
    """c_v*theta + (u^2 + |w|^2 + v|b|^2)/2 per cell, with u and w averaged
    from the adjacent nodes: an oracle for the record's energy_total."""
    u_c = 0.5 * (state.u[:-1] + state.u[1:])
    w_c = 0.5 * (state.w[:-1] + state.w[1:])
    return p.c_v * state.theta + 0.5 * (u_c ** 2 + np.sum(w_c ** 2, axis=1)
                                        + state.v * np.sum(state.b ** 2, axis=1))


class TestOnePassRecord:
    """make_record builds one RecordTerms per state, with the step's heat
    flux and dissipation, and every monitor reads it; every field must still
    equal the monitor called through record_terms with initial_report, which
    computes a fresh H and q."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_record_equals_the_monitors_called_alone(self, bc, alpha):
        wall = bc.has_left_wall
        grid = Grid.uniform(32, 16.0, 0.0 if wall else -8.0)
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
        collector = DiagnosticsCollector(grid, p, bc, state)
        anchor = collector.acc.anchor
        ref = ReprAccumulator.start(state, grid, p, anchor)
        dx = grid.dx
        w_cum = 0.0
        flux_cum = dict.fromkeys(("mass", "momentum", "energy", "entropy"), 0.0)
        prev_mass = prev_momentum = None
        report = None
        for n in range(7):
            if n > 0:
                state, report = step(state, grid, p, bc, StepControl(),
                                     coeffs_of(state, p))
            record = collector.make_record(state, report)

            terms = terms_of(state, grid, p, bc, ref)
            mass = float(dx * np.sum(state.v))
            momentum = float(dx * np.sum(state.u))
            w_rate = dissipation_W(state, grid, p, terms)
            dt = mass_defect = momentum_defect = 0.0
            if report is not None:
                dt = report.dt_used
                w_cum += w_rate * dt
                for name in flux_cum:
                    flux_cum[name] += getattr(report, f"{name}_flux")
                mass_defect = (abs(mass - prev_mass - report.mass_flux)
                               / max(abs(prev_mass), 1.0))
                momentum_defect = (abs(momentum - prev_momentum - report.momentum_flux)
                                   / max(1.0, float(dx * np.sum(np.abs(state.u)))))
                representation_update(ref, state, grid, dt, p, terms)
                assert np.array_equal(collector.acc.factor, ref.factor)
            prev_mass, prev_momentum = mass, momentum
            slab_v, slab_th = slab_integrals(state, grid)
            low, high = level_set_measures(state, grid)
            expected = DiagnosticsRecord(
                t=state.t, step=state.step, dt=dt,
                newton_iterations=0 if report is None else report.newton_iterations,
                retries=0 if report is None else report.retries,
                E_entropy=energy_entropy(state, grid, p, terms), W=w_rate, W_cum=w_cum,
                min_v=float(np.min(state.v)), max_v=float(np.max(state.v)),
                min_theta=float(np.min(state.theta)),
                max_theta=float(np.max(state.theta)),
                mass_total=mass, mass_flux_cum=flux_cum["mass"],
                mass_defect=mass_defect,
                momentum_total=momentum, momentum_flux_cum=flux_cum["momentum"],
                momentum_defect=momentum_defect,
                energy_total=float(dx * np.sum(energy_density(state, p))),
                energy_flux_cum=flux_cum["energy"],
                entropy_flux_cum=flux_cum["entropy"],
                measure_theta_low=low, measure_theta_high=high,
                slab_v_min=float(np.min(slab_v)), slab_v_max=float(np.max(slab_v)),
                slab_theta_min=float(np.min(slab_th)),
                slab_theta_max=float(np.max(slab_th)),
                repr_residual_max=float(np.max(
                    representation_residual(ref.factor, state, grid, p, terms))))
            assert asdict(record) == asdict(expected), f"record {n}"

    @pytest.mark.parametrize("bc", ALL_REGIMES)
    def test_terms_take_the_reports_arrays(self, bc):
        wall = bc.has_left_wall
        grid = Grid.uniform(32, 16.0, 0.0 if wall else -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
        state, report = step(state, grid, p, bc, StepControl(), coeffs_of(state, p))
        bnd = boundary_data(grid, bc, 0.0)
        handed = record_terms(state, grid, p, bnd, report)
        assert handed.heat_flux is report.heat_flux
        assert handed.dissipation is report.dissipation
        assert handed.coeffs is report.coeffs

    def test_anchor_stress_is_the_entry_of_the_full_array(self):
        grid = Grid.uniform(32, 16.0, -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, smooth_bump(), CAUCHY)
        # the stencil over every interior node at once
        mu_over_v = viscosity_mu(state.v, p) / state.v
        ptot = pressure(state.v, state.theta, p) + 0.5 * np.sum(state.b ** 2, axis=1)
        ux_cell = np.diff(state.u) / grid.dx
        sigma = (0.5 * (mu_over_v[:-1] + mu_over_v[1:]) * 0.5 * (ux_cell[:-1] + ux_cell[1:])
                 - 0.5 * (ptot[:-1] + ptot[1:]))
        coeffs = coeffs_of(state, p)
        for node in range(1, grid.cells):
            assert effective_stress(state, grid, coeffs, node) == sigma[node - 1]
        for node in (0, grid.cells):
            with pytest.raises(ValueError, match="interior"):
                effective_stress(state, grid, coeffs, node)

    @pytest.mark.parametrize("name, value", [
        *[(name, "short") for name in FIELDS],
        ("v", 0.0), ("v", -1.0), ("theta", 0.0), ("theta", -1.0),
        *[(name, bad) for name in FIELDS for bad in (math.inf, -math.inf, math.nan)],
    ])
    def test_record_validates_the_state(self, name, value):
        # the t = 0 record computes its report from the state: validate must
        # raise its own error before that arithmetic warns or fails to broadcast
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        collector = DiagnosticsCollector(grid, p, CAUCHY, reference_state(grid))
        state = reference_state(grid)
        if value == "short":
            setattr(state, name, getattr(state, name)[:-1])
        else:
            getattr(state, name).flat[3] = value
        with pytest.raises(ValueError) as invalid:
            state.validate(grid)
        with pytest.raises(ValueError, match=re.escape(str(invalid.value))):
            collector.make_record(state)


class TestDefaultAnchor:
    def test_far_offset_grid_has_a_finite_anchor(self):
        # left + right overflows; the halves do not
        grid = Grid(cells=4, dx=1.75e307, left_edge=1e308)
        assert default_anchor(grid) in range(1, 4)

    @pytest.mark.parametrize("cells, mass, left", [
        (16, 8.0, -4.0), (64, 32.0, -16.0), (33, 7.3, 0.0), (50, 3.0, 1.25)])
    def test_matches_the_rounded_midpoint(self, cells, mass, left):
        grid = Grid.uniform(cells, mass, left)
        j = round((round(0.5 * (grid.left_edge + grid.right_edge)) - left) / grid.dx)
        assert default_anchor(grid) == min(max(j, 1), cells - 1)


def trajectory(grid, p, bc, profile, t_end, ctl=StepControl()):
    """The initial state and every accepted (state, report) of a run."""
    state0 = make_initial_state(grid, profile, bc)
    pairs = []
    run_until(state0.copy(), grid, t_end, p, bc, ctl,
              sink=lambda s, r: pairs.append((s, r)))
    return state0, pairs


def collector_outcome(coll, records):
    """What a run reports from its collector: the JSON lines, and the run
    extremes and the running sums of its newest record that the summary
    prints."""
    lines = [json.dumps(r.to_json_dict()) for r in records]
    last = coll.last
    totals = (coll.min_v_run, coll.max_v_run, coll.min_theta_run,
              coll.max_theta_run, coll.max_repr_residual, last.W_cum,
              last.mass_flux_cum, last.momentum_flux_cum,
              last.energy_flux_cum, last.entropy_flux_cum)
    return lines, totals


def per_step(grid, p, bc, state0, pairs):
    coll = DiagnosticsCollector(grid, p, bc, state0)
    records = [coll.make_record(state0)]
    records += [coll.make_record(s, r) for s, r in pairs]
    return coll, records


def in_blocks(grid, p, bc, state0, pairs, size):
    """Records of the pairs fed to record_block `size` at a time, the last
    block ragged; size None pushes every pair and flushes at the end."""
    coll = DiagnosticsCollector(grid, p, bc, state0)
    records = [coll.make_record(state0)]
    if size is None:
        for s, r in pairs:
            records += coll.push(s, r)
        records += coll.flush()
    else:
        for at in range(0, len(pairs), size):
            chunk = pairs[at:at + size]
            records += coll.record_block([s for s, _ in chunk],
                                         [r for _, r in chunk])
    return coll, records


WALL_BUMP = smooth_bump(center=8.0)


class TestRecordBlocks:
    """A block of records is the same records as one state at a time: every
    JSON line, run extreme and running sum, bit for bit."""

    CASES = {
        "cauchy-alpha0": (Grid.uniform(96, 16.0, -8.0), PhysicalParams.normalized(0.0, 1.0),
                          CAUCHY, smooth_bump()),
        "cauchy-alpha1.3": (Grid.uniform(96, 16.0, -8.0), PhysicalParams.normalized(1.3, 0.7),
                            CAUCHY, smooth_bump()),
        "isothermal-alpha0": (Grid.uniform(96, 16.0, 0.0), PhysicalParams.normalized(0.0, 1.0),
                              BoundaryCondition.ISOTHERMAL_WALL_LEFT, WALL_BUMP),
        "isothermal-alpha1.3": (Grid.uniform(96, 16.0, 0.0), PhysicalParams.normalized(1.3, 1.6),
                                BoundaryCondition.ISOTHERMAL_WALL_LEFT, WALL_BUMP),
        "insulated-alpha0": (Grid.uniform(96, 16.0, 0.0), PhysicalParams.normalized(0.0, 0.5),
                             BoundaryCondition.INSULATED_WALL_LEFT, WALL_BUMP),
        "insulated-alpha1.3": (Grid.uniform(96, 16.0, 0.0), PhysicalParams.normalized(1.3, 1.0),
                               BoundaryCondition.INSULATED_WALL_LEFT, WALL_BUMP),
        # no representation accumulator without the normalized preset
        "general-constants": (Grid.uniform(96, 16.0, -8.0),
                              PhysicalParams(mu1=0.8, mu2=0.7, alpha=1.3, beta=1.6,
                                             lam=1.2, nu=0.9, R=1.1, c_v=0.7),
                              CAUCHY, smooth_bump()),
        # unit intervals that split cells: the interpolated slab integrals
        "unaligned-9.5": (Grid.uniform(115, 9.5, -4.75), PhysicalParams.normalized(1.0, 1.0),
                          CAUCHY, smooth_bump()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocks_match_the_records_of_one_state_at_a_time(self, case):
        grid, p, bc, profile = self.CASES[case]
        state0, pairs = trajectory(grid, p, bc, profile, 3.01, StepControl(dt_max=0.02))
        k = BLOCK_CELLS // grid.cells
        assert len(pairs) > k and len(pairs) % k and len(pairs) % 2, len(pairs)
        # the states hold b and w column-major, as every GasState does
        assert all(s.b.flags.f_contiguous and s.w.flags.f_contiguous
                   for s, _ in pairs)
        want = collector_outcome(*per_step(grid, p, bc, state0, pairs))
        for size in (1, 2, k, None):
            assert collector_outcome(*in_blocks(grid, p, bc, state0, pairs, size)) \
                == want, size

    def test_a_block_of_mixed_transverse_flags_matches_one_at_a_time(
            self, monkeypatch):
        # a run with no transverse field, every third report forced onto the
        # full path with its full-path arrays (coefficients with a b_sq
        # array): a block holding one records every state on the full path,
        # one at a time only those reports do
        def carries(r):
            return r.coeffs.b_sq is not None

        grid, p = Grid.uniform(32, 16.0, -8.0), PhysicalParams.normalized(1.0, 1.0)
        quiet = replace(smooth_bump(), amp_b=(0.0, 0.0), amp_w=(0.0, 0.0))
        state0, pairs = trajectory(grid, p, CAUCHY, quiet, 1.01, StepControl(dt_max=0.02))
        assert not any(carries(r) for _, r in pairs)
        bnd, dx = boundary_data(grid, CAUCHY, 0.0), grid.dx
        mixed = []
        for k, (s, r) in enumerate(pairs):
            if k % 3 == 1:
                mu = viscosity_mu(s.v, p)
                q = dissipation_source(s.v, mu, (s.u[1:] - s.u[:-1]) / dx,
                                       (s.w[1:] - s.w[:-1]) / dx, s.b, grid, p, bnd)
                r = replace(r, coeffs=state_coeffs(s, mu, p), dissipation=q)
            mixed.append((s, r))
        squares = []
        sq2_of = diagnostics.sq2
        monkeypatch.setattr(diagnostics, "sq2",
                            lambda x: squares.append(x.shape) or sq2_of(x))
        want = collector_outcome(*per_step(grid, p, CAUCHY, state0, mixed))
        assert len(squares) == sum(carries(r) for _, r in mixed)
        assert collector_outcome(*per_step(grid, p, CAUCHY, state0, pairs)) == want
        for size in (2, 3, None):
            squares.clear()
            assert collector_outcome(*in_blocks(grid, p, CAUCHY, state0, mixed,
                                                size)) == want, size
            chunks = [mixed[at:at + (size or len(mixed))]
                      for at in range(0, len(mixed), size or len(mixed))]
            assert len(squares) == sum(any(carries(r) for _, r in chunk)
                                       for chunk in chunks), size

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_representation_blocks_past_the_float_range_of_exp(self, alpha):
        # the equilibrium run to t = 800, past the t = 745 where exp(S)
        # underflows, in blocks of BLOCK_CELLS // 24 records, the last ragged
        grid = Grid.uniform(24, 24.0, -12.0)
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        state0, pairs = trajectory(grid, p, CAUCHY, ConstantProfile(), 800.0,
                                   StepControl(cfl=1.0))
        k = BLOCK_CELLS // grid.cells
        assert pairs[-1][0].t == 800.0 and len(pairs) > k and len(pairs) % k
        ref, records = per_step(grid, p, CAUCHY, state0, pairs)
        coll, got = in_blocks(grid, p, CAUCHY, state0, pairs, None)
        assert collector_outcome(coll, got) == collector_outcome(ref, records)
        assert np.array_equal(coll.acc.factor, ref.acc.factor)
        assert all(r.repr_residual_max <= 1e-12 for r in got)


class TestMixedFeeding:
    def test_make_record_after_push_records_the_pushed_steps_first(self):
        # two steps pushed, short of a block, then a third made at once: the
        # third record continues from the second, and nothing is left over
        grid, p, bc, profile = TestRecordBlocks.CASES["cauchy-alpha1.3"]
        state0, pairs = trajectory(grid, p, bc, profile, 0.05, StepControl(dt_max=0.02))
        want_lines, want_totals = collector_outcome(
            *per_step(grid, p, bc, state0, pairs[:3]))
        coll = DiagnosticsCollector(grid, p, bc, state0)
        first = coll.make_record(state0)
        assert coll.push(*pairs[0]) == [] and coll.push(*pairs[1]) == []
        third = coll.make_record(*pairs[2])
        lines, totals = collector_outcome(coll, [first, third])
        assert lines == [want_lines[0], want_lines[3]] and totals == want_totals
        assert coll.flush() == [] and coll.last is third


class TestTheCarryHasOneCopy:
    """The collector's newest record, last, is the one copy of every running
    total: the t = 0 record right after construction, then the newest record
    of each call, and a record swapped in for it is what the next record
    continues from."""

    GRID = Grid.uniform(32, 16.0, -8.0)
    P = PhysicalParams.normalized(alpha=1.0, beta=1.0)

    def run(self):
        return trajectory(self.GRID, self.P, CAUCHY, smooth_bump(), 1.5)

    def test_last_is_the_newest_record_of_every_call(self):
        state0, pairs = self.run()
        coll = DiagnosticsCollector(self.GRID, self.P, CAUCHY, state0)
        first = coll.last
        assert (first.t, first.step, first.dt, first.W_cum) == (0.0, 0, 0.0, 0.0)
        assert first.mass_defect == first.momentum_defect == 0.0
        assert first.json_line() == DiagnosticsCollector(
            self.GRID, self.P, CAUCHY, state0).make_record(state0).json_line()
        # recording state0 again adds a zero-length step: the same record
        again = coll.make_record(state0)
        assert coll.last is again and again.json_line() == first.json_line()
        coll.block_size = 5  # blocks that fill and a ragged one in this run
        assert len(pairs) > 10 and (len(pairs) - 4) % 5
        s, r = pairs[0]
        assert coll.make_record(s, r) is coll.last
        done = coll.record_block([s for s, _ in pairs[1:4]],
                                 [r for _, r in pairs[1:4]])
        assert coll.last is done[-1]
        for s, r in pairs[4:]:
            before, records = coll.last, coll.push(s, r)
            assert coll.last is (records[-1] if records else before)
        assert records == []  # a ragged block is left
        assert coll.flush()[-1] is coll.last and coll.flush() == []
        assert coll.last.step == pairs[-1][0].step

    # each carry swapped for another value: what the next record starts from
    SWAPS = {"W_cum": 0.25, "mass_flux_cum": 0.5, "momentum_flux_cum": -0.75,
             "energy_flux_cum": 1.5, "entropy_flux_cum": -2.0,
             "mass_total": 16.5, "momentum_total": 0.125}

    def carried(self, name, prev, rec, report, state):
        """What rec's field that reads carry `name` is when rec continues
        from prev: a running sum, or the defect against prev's total."""
        if name == "W_cum":
            return prev.W_cum + rec.W * rec.dt
        if name.endswith("_flux_cum"):
            return getattr(prev, name) + getattr(report, name[:-4])
        if name == "mass_total":
            return (abs(rec.mass_total - prev.mass_total - report.mass_flux)
                    / max(abs(prev.mass_total), 1.0))
        return (abs(rec.momentum_total - prev.momentum_total - report.momentum_flux)
                / max(1.0, self.GRID.dx * np.abs(state.u).sum()))

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("name", sorted(SWAPS))
    def test_the_next_records_continue_from_a_swapped_last(self, name, size):
        state0, pairs = self.run()
        states, reports = zip(*pairs[:size])
        want = DiagnosticsCollector(self.GRID, self.P, CAUCHY,
                                    state0).record_block(states, reports)
        coll = DiagnosticsCollector(self.GRID, self.P, CAUCHY, state0)
        start = coll.last = replace(coll.last, **{name: self.SWAPS[name]})
        got = coll.record_block(states, reports)
        field = {"mass_total": "mass_defect",
                 "momentum_total": "momentum_defect"}.get(name, name)
        for prev, rec, report, state in zip([start, *got], got, reports,
                                            states):
            assert getattr(rec, field) == self.carried(name, prev, rec, report,
                                                       state)
        # a sum moves on every record, a defect on the first alone, and
        # nothing else moves
        for k, (a, b) in enumerate(zip(got, want)):
            moved = {f for f in a.names if getattr(a, f) != getattr(b, f)}
            assert moved == ({field} if k == 0 or field == name else set()), k


def validate_text(name, value):
    """The ValueError text of GasState.validate for a state that is the
    reference state but for one entry of field `name` set to value: v and
    theta must be positive (NaN is not), then every field finite."""
    if name in ("v", "theta") and not value > 0.0:
        what = "specific volume" if name == "v" else "temperature"
        return f"nonpositive {what}, min {name} = {value}"
    return f"non-finite {name}: {value}"


class TestTheFoldedCheckKeepsItsOrder:
    """The record path reads positivity and finiteness off its reductions:
    a defect must still raise validate's own text, before any monitor's
    log or exp can warn, in a block of one and inside a block of three.
    Each state comes with the report of a step that produced it, so a
    defective b is in that report's |b|^2 too."""

    DEFECTS = [*[(name, bad) for name in FIELDS
                 for bad in (math.nan, math.inf, -math.inf)],
               ("v", 0.0), ("v", -1.0), ("theta", 0.0), ("theta", -1.0)]

    @pytest.mark.parametrize("name, value", DEFECTS)
    @pytest.mark.parametrize("size", [1, 3])
    def test_flush_raises_the_validate_text(self, name, value, size):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state0, pairs = trajectory(grid, p, CAUCHY, smooth_bump(), 0.1)
        pairs = pairs[:size]
        bad, report = pairs[size // 2]
        bad = bad.copy()
        getattr(bad, name).flat[3] = value
        report = replace(report, coeffs=replace(report.coeffs, b_sq=sq2(bad.b)))
        pairs[size // 2] = (bad, report)
        want = validate_text(name, value)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            bad.validate(grid)
        collector = DiagnosticsCollector(grid, p, CAUCHY, state0)
        assert collector.block_size > size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s, r in pairs:
                assert collector.push(s, r) == []
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                collector.flush()

    def test_a_finite_sum_that_overflows_is_no_defect(self):
        # the reductions overflow; the scan they hand the state to finds
        # every entry finite and lets it pass
        grid = Grid.uniform(8, 4.0, -2.0)
        state = reference_state(grid)
        for name in ("u", "b", "w"):
            getattr(state, name).flat[1:3] = 1e308
        with np.errstate(over="ignore"):
            # |b|^2 overflows to inf, as a step's would
            coeffs = coeffs_of(state, PhysicalParams.normalized())
        assert coeffs.b_sq.max() == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bounds in (state.validate(grid), state.validate(grid, coeffs)):
                assert bounds.u_abs == math.inf
                assert (bounds.v_min, bounds.v_max) == (1.0, 1.0)


class TestLevelSetSkip:
    """The record skips level_set_measures when every record's theta
    extremes show both sets empty; a block that straddles the thresholds
    must give each record the measures and extremes it has alone."""

    @staticmethod
    def straddling_pairs(grid, p):
        state0, pairs = trajectory(grid, p, CAUCHY, smooth_bump(), 0.6)
        assert len(pairs) >= 6
        pairs = [(s.copy(), r) for s, r in pairs[:6]]
        pairs[1][0].theta[4] = 0.3        # cold
        pairs[3][0].theta[9] = 2.5        # hot
        pairs[4][0].theta[[2, 11]] = 0.4, 3.0  # both
        return state0, pairs

    @staticmethod
    def level_fields(record):
        return json.dumps([record.measure_theta_low, record.measure_theta_high,
                           record.min_theta, record.max_theta])

    def test_a_straddling_block_keeps_every_measure(self):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state0, pairs = self.straddling_pairs(grid, p)
        alone = DiagnosticsCollector(grid, p, CAUCHY, state0)
        want = [self.level_fields(alone.make_record(s, r)) for s, r in pairs]
        for size in (2, 3, 6):
            block = DiagnosticsCollector(grid, p, CAUCHY, state0)
            got = []
            for at in range(0, len(pairs), size):
                chunk = pairs[at:at + size]
                got += [self.level_fields(r) for r in block.record_block(
                    [s for s, _ in chunk], [r for _, r in chunk])]
            assert got == want, size
        for s, _ in pairs:
            low, high = level_set_measures(s, grid)
            assert (low > 0.0) == (s.theta.min() < 0.5)
            assert (high > 0.0) == (s.theta.max() > 2.0)
        assert [json.loads(w)[:2] for w in want] == [
            [0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5], [0.5, 0.5], [0.0, 0.0]]


class TestFieldsMustBeFinite:
    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_state_with_a_non_finite_entry_is_rejected(self, name, bad):
        grid = Grid.uniform(8, 4.0, -2.0)
        state = reference_state(grid)
        getattr(state, name).flat[3] = bad
        with pytest.raises(ValueError):
            state.validate(grid)
        # every record of a block is checked, in one pass over the block
        block = StateBlock.of([reference_state(grid), state, reference_state(grid)])
        with pytest.raises(ValueError):
            block.validate(grid)

    @pytest.mark.parametrize("name", ("b", "u", "w"))
    def test_message_names_the_field(self, name):
        grid = Grid.uniform(8, 4.0, -2.0)
        state = reference_state(grid)
        getattr(state, name).flat[2] = math.inf
        with pytest.raises(ValueError, match=f"non-finite {name}"):
            state.validate(grid)

    def test_a_finite_block_passes_and_shapes_must_agree(self):
        grid = Grid.uniform(8, 4.0, -2.0)
        StateBlock.of([reference_state(grid)] * 3).validate(grid)
        short = reference_state(Grid.uniform(7, 4.0, -2.0))
        with pytest.raises(ValueError, match="shapes"):
            StateBlock.of([reference_state(grid), short, short])

    def test_block_of_one_views_the_state(self):
        grid = Grid.uniform(8, 4.0, -2.0)
        state = GasState(v=np.ones(8), theta=np.ones(8), b=np.zeros((8, 2)),
                         u=np.zeros(9), w=np.zeros((9, 2)), t=0.5, step=3)
        block = StateBlock.of([state])
        assert (block.t, block.step) == ((0.5,), (3,))
        for name in FIELDS:
            assert np.shares_memory(getattr(block, name), getattr(state, name))


class TestBlocksCopyOnlyWhatTheMonitorsRead:
    """A record block stacks v, theta and u, w only when some record carries
    a transverse field, and b never: validation takes b's finiteness from
    the reports' |b|^2. Its records are those of one state at a time, bit
    for bit, and a wrongly shaped b or w is still refused."""

    K = 48

    @staticmethod
    def run(bc, quiet):
        wall = bc.has_left_wall
        grid = Grid.uniform(32, 16.0, 0.0 if wall else -8.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        bump = smooth_bump(center=8.0 if wall else 0.0)
        if quiet:
            bump = replace(bump, amp_b=(0.0, 0.0), amp_w=(0.0, 0.0))
        state0, pairs = trajectory(grid, p, bc, bump, 1.51, StepControl(dt_max=0.02))
        return grid, p, state0, pairs

    @pytest.mark.parametrize("quiet", [True, False], ids=["quiet", "magnetized"])
    @pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
    def test_blocks_of_1_5_and_48_are_the_records_one_by_one(self, bc, quiet,
                                                             monkeypatch):
        grid, p, state0, pairs = self.run(bc, quiet)
        assert len(pairs) > self.K and len(pairs) % self.K and len(pairs) % 5
        assert all((r.coeffs.b_sq is None) is quiet for _, r in pairs)
        want = collector_outcome(*per_step(grid, p, bc, state0, pairs))
        blocks = []
        block_of = diagnostics.StateBlock.of
        monkeypatch.setattr(diagnostics.StateBlock, "of", lambda states: (
            blocks.append(block_of(states)) or blocks[-1]))
        for size in (1, 5, self.K):
            blocks.clear()
            assert collector_outcome(*in_blocks(grid, p, bc, state0, pairs,
                                                size)) == want, size
            # the t = 0 record twice (constructor, make_record), then the pairs
            assert len(blocks) == 2 + -(-len(pairs) // size)
            # a cached_property keeps what it stacked in the block's __dict__
            for block in blocks:
                assert "b" not in vars(block)
                assert ("w" in vars(block)) is not quiet

    @pytest.mark.parametrize("name", ["b", "w"])
    @pytest.mark.parametrize("quiet", [True, False], ids=["quiet", "magnetized"])
    def test_a_wrongly_shaped_b_or_w_is_refused(self, name, quiet):
        grid, p, state0, pairs = self.run(CAUCHY, quiet)
        pairs = pairs[:5]
        bad = pairs[2][0].copy()
        setattr(bad, name, getattr(bad, name)[:-1])
        pairs[2] = (bad, pairs[2][1])
        want = f"{name} has shape {getattr(bad, name).shape}, expected "
        coll = DiagnosticsCollector(grid, p, CAUCHY, state0)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            coll.record_block([s for s, _ in pairs], [r for _, r in pairs])


def test_a_block_of_json_lines_is_json_dumps_of_each_record():
    # a NaN slab extreme, a None residual and an infinite value in the
    # middle of a block: the whole text is respelled as json.dumps spells it
    grid, p = Grid.uniform(16, 8.0, -4.0), PhysicalParams.normalized(1.0, 1.0)
    state0, pairs = trajectory(grid, p, CAUCHY, smooth_bump(), 0.2,
                               StepControl(dt_max=0.02))
    coll = DiagnosticsCollector(grid, p, CAUCHY, state0)
    records = coll.record_block([s for s, _ in pairs[:7]], [r for _, r in pairs[:7]])
    records[2] = replace(records[2], slab_theta_max=math.nan)
    records[3] = replace(records[3], repr_residual_max=None)
    records[4] = replace(records[4], W=math.inf, energy_total=-math.inf)
    want = [json.dumps(r.to_json_dict()) + "\n" for r in records]
    assert diagnostics.json_lines(records) == "".join(want)
    assert [r.json_line() for r in records] == want
    assert diagnostics.json_lines(records[:2]) == "".join(want[:2])
    assert "null" in want[2] and "null" in want[3] and "-Infinity" in want[4]
