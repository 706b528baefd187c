"""Memory layout of the transverse fields.

GasState holds b and w column-major (Fortran order), the layout in which
LAPACK ptsv takes and returns the stage solves' two-column right-hand sides.
Every way of making a state must keep it, a block of records must keep each
record's components contiguous, and the stages must hand ptsv column-major
right-hand sides, or each step pays for transposing copies again. A step
with no transverse field makes none of those arrays and does no transverse
arithmetic, and gives the bits of the path that does.
"""
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import ALL_REGIMES, bits, report_of, smooth_bump
from mhd1d import diagnostics, solver
from mhd1d.constitutive import viscosity_mu
from mhd1d.core import (
    ConstantProfile,
    FileProfile,
    GasState,
    Grid,
    PhysicalParams,
    StateBlock,
    make_initial_state,
)
from mhd1d.diagnostics import DiagnosticsCollector
from mhd1d.snapshots import emit_snapshot, load_snapshot
from mhd1d.solver import StateCoeffs, StepControl, step
from mhd1d.verification import MmsForcing, MmsSolution, explicit_reference

CAUCHY = ALL_REGIMES[0]
P = PhysicalParams.normalized(alpha=1.0, beta=1.5)
SOL = MmsSolution(amp_v=0.2, amp_u=0.1, amp_theta=0.3, amp_w=(0.1, -0.2),
                  amp_b=(0.2, 0.1))


def assert_column_major(state: GasState) -> None:
    for name in ("b", "w"):
        arr = getattr(state, name)
        assert arr.ndim == 2 and arr.shape[1] == 2, name
        assert arr.flags.f_contiguous, name


def stepped(bc):
    wall = bc.has_left_wall
    grid = Grid.uniform(16, 16.0, 0.0 if wall else -8.0)
    state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
    return step(state, grid, P, bc, StepControl(), report_of(state, grid, P, bc))[0]


@pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
def test_initial_and_stepped_states_are_column_major(bc):
    grid = Grid.uniform(16, 16.0, 0.0)
    assert_column_major(make_initial_state(grid, ConstantProfile(), bc))
    assert_column_major(stepped(bc))


def test_every_other_way_of_making_a_state_is_column_major(tmp_path):
    grid = Grid.uniform(16, 16.0, -8.0)
    state = make_initial_state(grid, smooth_bump(), CAUCHY)
    emit_snapshot(state, grid, tmp_path / "s.csv")
    loaded, _ = load_snapshot(tmp_path / "s.csv")
    from_file = make_initial_state(grid, FileProfile(str(tmp_path / "s.csv")),
                                   CAUCHY)
    mms_grid = Grid.uniform(16, 1.0)
    mms = SOL.state(mms_grid, 0.0)
    forced = step(mms, mms_grid, P, MmsForcing(SOL, P), StepControl(),
                  report_of(mms, mms_grid, P, CAUCHY))[0]
    reference = explicit_reference(state, grid, 1e-3, P, CAUCHY, 1e-3)
    for built in (state, loaded, from_file, state.copy(), mms, forced,
                  reference, replace(state, t=1.0)):
        assert_column_major(built)
    assert np.array_equal(loaded.b, state.b) and np.array_equal(loaded.w, state.w)


def test_a_state_made_of_row_major_arrays_is_converted():
    m = 8
    b = np.arange(2.0 * m).reshape(m, 2)
    w = np.arange(2.0 * m + 2).reshape(m + 1, 2)
    state = GasState(v=np.ones(m), theta=np.ones(m), b=b, u=np.zeros(m + 1), w=w)
    assert_column_major(state)
    assert np.array_equal(state.b, b) and np.array_equal(state.w, w)
    copy = state.copy()
    assert_column_major(copy)
    assert not np.shares_memory(copy.b, state.b)


def test_a_block_keeps_each_records_components_contiguous():
    states = [stepped(bc) for bc in ALL_REGIMES]
    block = StateBlock.of(states)
    for name in ("v", "theta", "b", "u", "w"):
        stacked = getattr(block, name)
        assert stacked.shape == (3,) + getattr(states[0], name).shape
        for k, state in enumerate(states):
            assert np.array_equal(stacked[k], getattr(state, name))
            assert stacked[k].strides == getattr(state, name).strides, name
    for k in range(3):
        assert block.b[k, :, 1].flags.c_contiguous
        assert block.w[k, :, 0].flags.c_contiguous


def quiet_state(grid, bc=CAUCHY):
    """A bump with no transverse field: the Navier-Stokes subspace."""
    bump = replace(smooth_bump(center=8.0 if bc.has_left_wall else 0.0),
                   amp_b=(0.0, 0.0), amp_w=(0.0, 0.0))
    return make_initial_state(grid, bump, bc)


@pytest.mark.parametrize("forced, transverse", [(False, "bump"), (True, "bump"),
                                                (False, "none"),
                                                (False, "one tiny b")],
                         ids=["False", "True", "no transverse data",
                              "one tiny b"])
def test_the_stage_solves_get_column_major_right_hand_sides(forced, transverse,
                                                            monkeypatch):
    # stages (c) and (d) solve for two components at once; (a) and each
    # Newton update of (e) for one. A state with no transverse field under
    # unforced data skips (c) and (d)
    seen = []
    solve = solver.symmetric_tridiag_solve

    def checking(d, e, rhs):
        seen.append((rhs.ndim, rhs.flags.f_contiguous))
        return solve(d, e, rhs)

    monkeypatch.setattr(solver, "symmetric_tridiag_solve", checking)
    if forced:
        grid = Grid.uniform(16, 1.0)
        state, bc = SOL.state(grid, 0.0), MmsForcing(SOL, P)
    else:
        grid = Grid.uniform(16, 16.0, -8.0)
        state, bc = make_initial_state(grid, smooth_bump(), CAUCHY), CAUCHY
        if transverse != "bump":
            state = quiet_state(grid)
        if transverse == "one tiny b":  # its |b|^2 underflows to 0
            b = state.b.copy()
            b[5, 0] = 1e-300
            state = replace(state, b=b)
    _, report = step(state, grid, P, bc, StepControl(),
                     report_of(state, grid, P, CAUCHY))
    newton = [(1, True)] * report.newton_iterations
    assert report.newton_iterations > 0
    if transverse == "none":
        assert seen == [(1, True)] + newton
    else:
        assert seen == [(1, True), (2, True), (2, True)] + newton


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+0.0", "-0.0"])
@pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
def test_a_skipped_step_returns_the_zeros_of_the_stages(bc, sign, monkeypatch):
    wall = bc.has_left_wall
    grid = Grid.uniform(16, 16.0, 0.0 if wall else -8.0)
    state = quiet_state(grid, bc)
    state = replace(state, w=np.full((17, 2), sign * 0.0),
                    b=np.full((16, 2), sign * 0.0))
    assert np.signbit(state.b).all() == (sign < 0)
    calls, stage = [], solver.substep_transverse
    monkeypatch.setattr(solver, "substep_transverse",
                        lambda *args: calls.append(args) or stage(*args))
    new, report = step(state, grid, P, bc, StepControl(),
                       report_of(state, grid, P, bc))
    monkeypatch.undo()
    assert calls == []
    assert_column_major(new)

    # what the stages return for the step's own inputs
    bnd = solver.boundary_data(grid, bc, new.t)
    dt = report.dt_used
    w = solver.substep_transverse(state, new.v, grid, P, dt, bnd)
    b = solver.substep_induction(state, new.v, w[1:] - w[:-1], grid, P, dt, bnd)
    for name, staged in (("w", w), ("b", b)):
        arr = getattr(new, name)
        assert arr.flags.writeable, name
        assert not np.signbit(arr).any(), name
        assert arr.shape == staged.shape
        assert arr.tobytes(order="A") == staged.tobytes(order="A"), name
        assert staged.flags.f_contiguous, name

    # the decision skipped the transverse terms of the dissipation, the
    # coefficients (b_sq None) and the boundary fluxes: each gives the bits
    # of its full path, forced by transverse=True or the differences of w
    # on the same inputs
    assert report.coeffs.b_sq is None
    mu, dx = viscosity_mu(new.v, P), grid.dx
    du, dw = new.u[1:] - new.u[:-1], new.w[1:] - new.w[:-1]
    full_q = solver.dissipation_source(new.v, mu, du / dx, dw / dx, new.b,
                                      grid, P, bnd)
    full_c = solver.state_coeffs(new, mu, P, True)
    full_fluxes = solver.boundary_report(new, du, dw, grid, P, bnd, dt,
                                         scanning_coeffs(state), full_c,
                                         report.heat_flux)
    fluxes = (report.mass_flux, report.momentum_flux, report.energy_flux,
              report.entropy_flux)
    assert bits(*fluxes) == bits(*full_fluxes)
    assert_same_arrays(report, replace(report, coeffs=full_c,
                                       dissipation=full_q))

    # the t = 0 report of the state, whose w and b may hold -0.0, decides
    # the same; each record, forced onto the full path, keeps its bits
    first = solver.initial_report(state, grid, P, bnd)
    assert first.coeffs.b_sq is None
    mu = viscosity_mu(state.v, P)
    ux, wx = (state.u[1:] - state.u[:-1]) / dx, (state.w[1:] - state.w[:-1]) / dx
    first_full = replace(
        first, coeffs=solver.state_coeffs(state, mu, P, True),
        dissipation=solver.dissipation_source(state.v, mu, ux, wx, state.b,
                                              grid, P, bnd))
    assert_same_arrays(first, first_full)
    lines = []
    for reports in ((first, report),
                    (first_full,
                     replace(report, coeffs=full_c, dissipation=full_q))):
        collector = DiagnosticsCollector(grid, P, bc, state)
        lines.append([json.dumps(collector.make_record(s, r).to_json_dict())
                      for s, r in zip((state, new), reports)])
    assert lines[0] == lines[1]


def scanning_coeffs(state):
    """The state's coefficients with a b_sq array, even of a state with no
    transverse field: a step from a report that holds them scans w and b."""
    return solver.state_coeffs(state, viscosity_mu(state.v, P), P)


def coeff_bits(coeffs, name):
    """bits of one coefficient array; a b_sq of None (a state with no
    transverse field) stands for its +0.0 array."""
    arr = getattr(coeffs, name)
    return bits(np.zeros(coeffs.ptot.shape) if arr is None else arr)


def assert_same_arrays(report, other):
    """The report's coefficients and dissipation, bit for bit."""
    for f in fields(StateCoeffs):
        assert coeff_bits(report.coeffs, f.name) == \
            coeff_bits(other.coeffs, f.name), f.name
    assert bits(report.dissipation) == bits(other.dissipation)


@pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
def test_a_quiet_step_and_its_records_do_no_transverse_arithmetic(bc, monkeypatch):
    wall = bc.has_left_wall
    grid = Grid.uniform(16, 16.0, 0.0 if wall else -8.0)
    calls = []

    def spy(owner, name):
        orig, seen = getattr(owner, name), f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name,
                            lambda *args: calls.append(seen) or orig(*args))

    magnetized = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
    for state, transverse in ((quiet_state(grid, bc), False), (magnetized, True)):
        report = report_of(state, grid, P, bc)
        collector = DiagnosticsCollector(grid, P, bc, state)
        for owner, name in ((solver, "b_gradient"), (solver, "sq2"),
                            (diagnostics, "sq2")):
            spy(owner, name)
        new, report = step(state, grid, P, bc, StepControl(), report)
        collector.make_record(state)
        collector.make_record(new, report)
        monkeypatch.undo()
        # the magnetized step shows that the spies see each call
        assert sorted(set(calls)) == (["mhd1d.diagnostics.sq2", "mhd1d.solver.b_gradient",
                                       "mhd1d.solver.sq2"] if transverse else [])
        assert (report.coeffs.b_sq is not None) is transverse
        calls.clear()


@pytest.mark.parametrize("start", ["quiet, w -0.0", "one tiny b", "magnetized bump"])
@pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
def test_run_until_carries_the_decision_with_the_bits_of_a_scan(bc, start,
                                                                monkeypatch):
    # run_until starts from the state's initial report and hands each step
    # the report of the one before: a report with no transverse field has
    # b_sq None, so the step scans no w or b and compute_dt gets no |b|^2,
    # the first step too. Every state and report equals the bits of steps
    # that scan, each from a report whose coefficients hold a b_sq array
    wall = bc.has_left_wall
    grid = Grid.uniform(16, 16.0, 0.0 if wall else -8.0)
    if start == "magnetized bump":
        state = make_initial_state(grid, smooth_bump(center=8.0 if wall else 0.0), bc)
    else:
        state = quiet_state(grid, bc)
        if start == "one tiny b":  # its |b|^2 underflows to 0
            b = state.b.copy()
            b[5, 0] = 1e-300
            state = replace(state, b=b)
        else:
            state = replace(state, w=np.full((17, 2), -0.0))
    t_end = 3.0
    seen, run, compute_dt = [], [], solver.compute_dt
    monkeypatch.setattr(solver, "compute_dt",
                        lambda s, b_sq, *args: seen.append(b_sq is None)
                        or compute_dt(s, b_sq, *args))
    solver.run_until(state, grid, t_end, P, bc, StepControl(),
                     sink=lambda s, r: run.append((s, r)))
    monkeypatch.undo()

    quiet = start == "quiet, w -0.0"
    assert len(run) > 3
    assert seen == [quiet] * len(run)
    new = state
    for got, report in run:
        scanning = replace(report_of(new, grid, P, bc), coeffs=scanning_coeffs(new))
        new, expected = step(new, grid, P, bc, StepControl(), scanning,
                             dt_cap=t_end - new.t)
        assert (report.coeffs.b_sq is None) is (expected.coeffs.b_sq is None) \
            is quiet
        for name in ("v", "theta", "b", "u", "w"):
            assert bits(getattr(got, name)) == bits(getattr(new, name)), name
        assert (got.t, got.step) == (new.t, new.step)
        assert report == expected  # the scalar fields
        scalars = ("dt_used", "mass_flux", "momentum_flux", "energy_flux",
                   "entropy_flux")
        assert bits(*(getattr(report, f) for f in scalars)) == \
            bits(*(getattr(expected, f) for f in scalars))
        assert bits(report.heat_flux) == bits(expected.heat_flux)
        assert_same_arrays(report, expected)


class CountsScans(np.ndarray):
    """An array view that records each .any() scan made of it."""

    scans: list = []

    def any(self, *args, **kwargs):
        CountsScans.scans.append(self.shape)
        return super().any(*args, **kwargs)


@pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
def test_a_direct_step_on_quiet_coeffs_has_the_bits_of_a_scanning_step(
        bc, monkeypatch):
    # a caller that chains a quiet report (b_sq None) into step gets
    # run_until's scan-free path: no scan of w or b and no |b|^2 in
    # compute_dt, with the bits of a step from coefficients that scan
    wall = bc.has_left_wall
    grid = Grid.uniform(16, 16.0, 0.0 if wall else -8.0)
    state = quiet_state(grid, bc)
    state, report = step(state, grid, P, bc, StepControl(),
                         report_of(state, grid, P, bc))
    assert report.coeffs.b_sq is None
    state.w, state.b = state.w.view(CountsScans), state.b.view(CountsScans)
    seen, compute_dt = [], solver.compute_dt
    monkeypatch.setattr(solver, "compute_dt",
                        lambda s, b_sq, *args: seen.append(b_sq is None)
                        or compute_dt(s, b_sq, *args))
    runs, scans = [], []
    for start in (report, replace(report, coeffs=scanning_coeffs(state))):
        CountsScans.scans.clear()
        runs.append(step(state, grid, P, bc, StepControl(), start))
        scans.append(list(CountsScans.scans))
    monkeypatch.undo()
    (quiet_new, quiet), (new, scanned) = runs
    assert seen == [True, False]
    assert scans == [[], [(17, 2), (16, 2)]]
    for name in ("v", "theta", "b", "u", "w"):
        assert bits(getattr(quiet_new, name)) == bits(getattr(new, name)), name
    assert quiet == scanned  # the scalar fields
    assert bits(*(getattr(quiet, f) for f in ("dt_used", "energy_flux",
                                              "entropy_flux"))) == \
        bits(*(getattr(scanned, f) for f in ("dt_used", "energy_flux",
                                             "entropy_flux")))
    assert bits(quiet.heat_flux) == bits(scanned.heat_flux)
    assert_same_arrays(quiet, scanned)


@pytest.mark.parametrize("bc", ALL_REGIMES, ids=lambda bc: bc.value)
def test_a_quiet_record_reads_neither_w_nor_b(bc):
    # the report's coefficients vouch for w and b as +0.0: NaN planted in
    # both changes neither the validation nor the record, while coefficients
    # with a b_sq array find the NaN
    wall = bc.has_left_wall
    grid = Grid.uniform(16, 16.0, 0.0 if wall else -8.0)
    state0 = quiet_state(grid, bc)
    new, report = step(state0, grid, P, bc, StepControl(),
                       report_of(state0, grid, P, bc))
    assert report.coeffs.b_sq is None
    bad = new.copy()
    bad.w[3, 1] = bad.b[2, 0] = np.nan
    assert bad.validate(grid, report.coeffs) == new.validate(grid, report.coeffs)
    with pytest.raises(ValueError, match="^non-finite b: nan$"):
        bad.validate(grid, scanning_coeffs(bad))
    lines = [DiagnosticsCollector(grid, P, bc, state0).make_record(s, report)
             .json_line() for s in (new, bad)]
    assert lines[0] == lines[1]
