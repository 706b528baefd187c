"""Acceptance suite: one test per criterion, run at the stated tolerances.

The 8-case regime matrix (alpha x beta x amplitude at M = 512, t = 1) is run
once through the CLI and shared by the conservation, positivity, dissipation,
slab, and level-set criteria. Each test prints one summary line; run with
`pytest tests/test_acceptance.py -v -s` to see them all.
"""
import itertools
import json
import math

import pytest

from conftest import reference_state, report_of, smooth_bump, state_max_diff
from mhd1d import cli
from mhd1d.core import (
    BoundaryCondition,
    GaussianBump,
    Grid,
    PhysicalParams,
    make_initial_state,
)
from mhd1d.diagnostics import DiagnosticsCollector, equilibrium_roots
from mhd1d.snapshots import load_snapshot, node_companion
from mhd1d.solver import StepControl, run_until, step
from mhd1d.verification import (
    MmsSolution,
    mms_convergence,
    oracle_comparison,
    temporal_convergence,
)

CAUCHY = BoundaryCondition.CAUCHY_FAR_FIELD
ALL_REGIMES = [BoundaryCondition.CAUCHY_FAR_FIELD,
               BoundaryCondition.ISOTHERMAL_WALL_LEFT,
               BoundaryCondition.INSULATED_WALL_LEFT]

MODERATE_AMPS = ("initial.amp_v = -0.3\ninitial.amp_u = 0.3\n"
                 "initial.amp_theta = 0.5\ninitial.amp_b1 = 0.3\n"
                 "initial.amp_w1 = 0.3\ninitial.amp_w2 = 0.1\n"
                 "initial.width = 1.0\n")
# vigorous data: v0 dips to 0.2, theta0 peaks at 4, |b0| reaches 1
LARGE_AMPS = ("initial.amp_v = -0.8\ninitial.amp_u = 1.0\n"
              "initial.amp_theta = 3.0\ninitial.amp_b1 = 1.0\n"
              "initial.amp_w1 = 1.0\ninitial.amp_w2 = 0.5\n"
              "initial.width = 1.5\n")

MATRIX_CONFIG = """
grid.cells = 512
grid.mass = 32.0
params.preset = normalized
params.alpha = {alpha}
params.beta = {beta}
initial.profile = gaussian_bump
time.t_end = 1.0
{amps}
"""


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def matrix_runs(tmp_path_factory):
    """The 8-case alpha x beta x amplitude matrix, run through the CLI."""
    root = tmp_path_factory.mktemp("matrix")
    runs = []
    for alpha, beta, (amp_name, amps) in itertools.product(
            (0.0, 1.0), (0.5, 1.0), (("moderate", MODERATE_AMPS),
                                     ("large", LARGE_AMPS))):
        tag = f"a{alpha:g}_b{beta:g}_{amp_name}"
        cfg_path = root / f"{tag}.cfg"
        cfg_path.write_text(MATRIX_CONFIG.format(alpha=alpha, beta=beta,
                                                 amps=amps))
        out = root / tag
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        records = [json.loads(line) for line in
                   (out / "diagnostics.jsonl").read_text().splitlines()]
        runs.append({"tag": tag, "alpha": alpha, "beta": beta,
                     "amp": amp_name, "exit": code, "records": records,
                     "out": out, "dx": 32.0 / 512})
    return runs


def test_criterion_01_equilibrium_fixed_point():
    p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
    ctl = StepControl()
    worst = 0.0
    for bc in ALL_REGIMES:
        grid = Grid.uniform(64, 32.0, 0.0 if bc.has_left_wall else -16.0)
        state = reference_state(grid)
        report = report_of(state, grid, p, bc)
        for _ in range(1000):
            state, report = step(state, grid, p, bc, ctl, report)
        diff = state_max_diff(state, reference_state(grid))
        worst = max(worst, diff)
        assert diff <= 1e-12, bc
    _report("01 equilibrium fixed point",
            f"3 regimes x 1000 steps, max drift {worst:.2e} <= 1e-12")


def test_criterion_02_exact_conservation(matrix_runs):
    worst_mass = worst_mom = 0.0
    for run in matrix_runs:
        for rec in run["records"]:
            worst_mass = max(worst_mass, rec["mass_defect"])
            worst_mom = max(worst_mom, rec["momentum_defect"])
            assert rec["mass_defect"] <= 1e-13, run["tag"]
            assert rec["momentum_defect"] <= 1e-12, run["tag"]
    _report("02 exact conservation",
            f"max mass defect {worst_mass:.2e} <= 1e-13, "
            f"max momentum defect {worst_mom:.2e} <= 1e-12")


def test_criterion_03_positivity_matrix(matrix_runs):
    assert len(matrix_runs) == 8
    for run in matrix_runs:
        assert run["exit"] == 0, run["tag"]
        min_v = min(r["min_v"] for r in run["records"])
        min_theta = min(r["min_theta"] for r in run["records"])
        dts = [r["dt"] for r in run["records"] if r["step"] > 0]
        assert min_v > 0.0 and min_theta > 0.0, run["tag"]
        assert min(dts) >= 1e-8, run["tag"]
    _report("03 global positivity",
            "8/8 matrix runs to t = 1 at M = 512: exit 0, v > 0, theta > 0, "
            f"min dt {min(min(r['dt'] for r in run['records'] if r['step'] > 0) for run in matrix_runs):.2e} >= 1e-8")


def _budget_run(cells, alpha=1.0, beta=1.0, t_end=1.0):
    grid = Grid.uniform(cells, 32.0, -16.0)
    p = PhysicalParams.normalized(alpha=alpha, beta=beta)
    state = make_initial_state(grid, smooth_bump(), CAUCHY)
    coll = DiagnosticsCollector(grid, p, CAUCHY, state)
    records = [coll.make_record(state)]
    run_until(state, grid, t_end, p, CAUCHY, StepControl(),
              sink=lambda s, r: records.append(coll.make_record(s, r)))
    e0 = records[0].E_entropy
    gaps = [r.E_entropy + r.W_cum - e0 - abs(r.entropy_flux_cum)
            for r in records]
    drift = max(0.0, max(gaps))
    defect = max(abs(g) for g in gaps)
    return e0, drift, defect


def test_criterion_04_energy_entropy_budget():
    e0, drift_coarse, defect_coarse = _budget_run(512)
    assert drift_coarse <= 0.01 * e0
    _, drift_fine, defect_fine = _budget_run(1024)
    assert drift_fine <= max(drift_coarse / 1.7, 1e-14 * e0)
    # the signed budget defect is the non-vacuous refinement witness: the
    # scheme dissipates slightly more than the recorded W, and that excess
    # must shrink at first order
    assert defect_fine <= defect_coarse / 1.7
    _report("04 energy-entropy budget",
            f"drift {drift_coarse:.2e} <= 1% of e0 = {e0:.3f}; "
            f"defect {defect_coarse:.2e} -> {defect_fine:.2e} "
            f"(x{defect_coarse / defect_fine:.2f} >= 1.7 under refinement)")


def test_criterion_05_dissipation_sign(matrix_runs):
    count = 0
    for run in matrix_runs:
        for rec in run["records"]:
            assert rec["W"] >= 0.0, run["tag"]
            count += 1
    _report("05 dissipation sign", f"W >= 0 on all {count} records (tolerance 0)")


def test_criterion_06_slab_bounds(matrix_runs):
    for run in matrix_runs:
        e0 = run["records"][0]["E_entropy"]
        a1, a2 = equilibrium_roots(e0)
        dx = run["dx"]
        for rec in run["records"]:
            tol_v = 2.0 * dx * rec["max_v"]
            tol_t = 2.0 * dx * rec["max_theta"]
            assert rec["slab_v_min"] >= a1 - tol_v, run["tag"]
            assert rec["slab_v_max"] <= a2 + tol_v, run["tag"]
            assert rec["slab_theta_min"] >= a1 - tol_t, run["tag"]
            assert rec["slab_theta_max"] <= a2 + tol_t, run["tag"]
    _report("06 slab bounds",
            "unit-interval integrals of v and theta inside "
            "[a1 - 2dx max|f|, a2 + 2dx max|f|] on every record")


def test_criterion_07_level_set_measure_bound(matrix_runs):
    const = 2.0 / (2.0 * math.log(2.0) - 1.0)
    for run in matrix_runs:
        e0 = run["records"][0]["E_entropy"]
        bound = const * e0 + 2.0 * run["dx"]
        for rec in run["records"]:
            measure = rec["measure_theta_low"] + rec["measure_theta_high"]
            assert measure <= bound, run["tag"]
    _report("07 level-set measure bound",
            f"|theta<1/2| + |theta>2| <= {const:.4f}*e0 + 2dx on every record")


def test_criterion_08_representation_formula():
    ctl = StepControl()
    # equilibrium runs reconstruct v to round-off
    for alpha in (0.0, 1.0):
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        grid = Grid.uniform(64, 32.0, -16.0)
        state = reference_state(grid)
        coll = DiagnosticsCollector(grid, p, CAUCHY, state)
        run_until(state, grid, 1.0, p, CAUCHY, ctl, sink=coll.make_record)
        assert coll.max_repr_residual <= 1e-10, alpha

    # smooth nontrivial runs: <= 5% at M = 512 and decreasing over 3 levels
    for alpha in (0.0, 1.0):
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        maxes = {}
        for cells in (256, 512, 1024):
            grid = Grid.uniform(cells, 32.0, -16.0)
            state = make_initial_state(grid, smooth_bump(), CAUCHY)
            coll = DiagnosticsCollector(grid, p, CAUCHY, state)
            run_until(state, grid, 1.0, p, CAUCHY, ctl, sink=coll.make_record)
            maxes[cells] = coll.max_repr_residual
        assert maxes[512] <= 0.05, alpha
        assert maxes[256] > maxes[512] > maxes[1024], (alpha, maxes)
    _report("08 representation formula",
            f"equilibrium residual <= 1e-10; smooth alpha=1 run: "
            f"{maxes[256]:.4f} > {maxes[512]:.4f} > {maxes[1024]:.4f}, "
            "M=512 residual <= 5%")


def test_criterion_09_equilibrium_roots():
    a1, a2 = equilibrium_roots(0.0)
    assert abs(a1 - 1.0) <= 1e-12 and abs(a2 - 1.0) <= 1e-12
    worst = 0.0
    for e0 in (0.0, 0.1, 0.5, 1.0, 5.0):
        r1, r2 = equilibrium_roots(e0)
        for z in (r1, r2):
            worst = max(worst, abs(z - math.log(z) - 1.0 - e0))
            assert abs(z - math.log(z) - 1.0 - e0) <= 1e-12
    _report("09 equilibrium roots",
            f"residual <= {worst:.2e} <= 1e-12 for e0 in {{0, 0.1, 0.5, 1, 5}}")


def test_criterion_10_oracle_equivalence():
    grid = Grid.uniform(16, 1.0, -0.5)
    profile = GaussianBump(center=0.0, width=0.2, amp_v=-0.1, amp_u=0.1,
                           amp_theta=0.1, amp_b=(0.1, -0.05), amp_w=(0.1, 0.05))
    ctl = StepControl(cfl=0.4, dt_min=1e-12, dt_max=2e-5)
    worst = 0.0
    for alpha in (0.0, 1.0):
        p = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        state0 = make_initial_state(grid, profile, CAUCHY)
        diffs = oracle_comparison(state0, grid, 0.01, p, CAUCHY, ctl,
                                  dt_ref=2e-5)
        worst = max(worst, max(diffs.values()))
        assert max(diffs.values()) <= 1e-4, (alpha, diffs)
    _report("10 oracle equivalence",
            f"semi-implicit vs RK4 reference at dt_ref = 2e-5: "
            f"max field diff {worst:.2e} <= 1e-4 for alpha in {{0, 1}}")


def test_criterion_11_mms_convergence():
    sol = MmsSolution(amp_v=0.15, amp_u=0.2, amp_theta=0.12,
                      amp_w=(0.15, -0.1), amp_b=(0.12, 0.08))
    p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
    spatial = mms_convergence(sol, p, [64, 128, 256], t_end=0.1,
                              dt_coarsest=2e-3)
    for field, order in spatial["orders"].items():
        assert order is not None and order >= 1.9, (field, order)
    temporal = temporal_convergence(sol, p, cells=64,
                                    dts=[2e-3, 1e-3, 5e-4, 2.5e-4], t_end=0.1)
    assert temporal["order"] >= 0.9
    _report("11 MMS convergence",
            "spatial orders "
            + ", ".join(f"{f}={o:.2f}" for f, o in spatial["orders"].items())
            + f" (all >= 1.9); temporal order {temporal['order']:.2f} >= 0.9")


def test_criterion_12_determinism_and_round_trips(matrix_runs, tmp_path):
    # byte-identical diagnostics for a repeated identical config
    run = matrix_runs[0]
    cfg_path = run["out"].parent / f"{run['tag']}.cfg"
    repeat_out = tmp_path / "repeat"
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(repeat_out)]) == 0
    original = (run["out"] / "diagnostics.jsonl").read_bytes()
    repeated = (repeat_out / "diagnostics.jsonl").read_bytes()
    assert original == repeated

    # lossless snapshot round trip for every matrix final state
    for mrun in matrix_runs:
        src = mrun["out"] / "snapshot_final.csv"
        state, grid = load_snapshot(src)
        from mhd1d.snapshots import emit_snapshot

        copy = tmp_path / f"{mrun['tag']}_copy.csv"
        emit_snapshot(state, grid, copy)
        assert copy.read_bytes() == src.read_bytes()
        assert node_companion(copy).read_bytes() == \
            node_companion(src).read_bytes()
    _report("12 determinism and round trips",
            "byte-identical diagnostics on repeat; all 8 final snapshots "
            "round-trip losslessly")
