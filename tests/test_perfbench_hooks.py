"""The benchmark's probes (perfbench/probes.py) wrap mhd1d functions by the
names their callers look up. A refactor that renames one of those names, or
calls a function without going through it, would silently zero a benchmark
metric; these tests catch both."""
import json
from pathlib import Path

import pytest

from conftest import smooth_bump
from mhd1d import cli, diagnostics, solver
from mhd1d.core import BoundaryCondition, Grid, PhysicalParams, make_initial_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes

    return probes


def test_every_probed_name_resolves(probes):
    for owner, attr, name, _ in probes.probe_table():
        assert callable(getattr(owner, attr, None)), \
            f"{name}: {owner.__name__}.{attr} is gone"


def test_run_until_steps_through_the_module_global(probes):
    grid = Grid.uniform(16, 8.0, -4.0)
    p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
    bc = BoundaryCondition.CAUCHY_FAR_FIELD
    state = make_initial_state(grid, smooth_bump(), bc)
    accepted = []
    counter = probes.StepCounter()
    try:
        solver.run_until(state, grid, 0.5, p, bc, solver.StepControl(),
                         sink=lambda s, report: accepted.append(s.step))
    finally:
        counter.close()
    assert len(accepted) > 0
    assert counter.steps == len(accepted)


RUN = ("grid.cells = 32\ngrid.mass = 16.0\nparams.preset = normalized\n"
       "params.alpha = 1.0\ninitial.profile = gaussian_bump\n"
       "initial.amp_v = -0.3\ninitial.amp_theta = 0.5\ntime.t_end = 0.5\n")


def test_the_block_path_keeps_the_monitor_spans(probes, tmp_path):
    # the run command records its steps a block at a time, outside
    # make_record; the monitors it calls there must still show as spans
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN)
    spans = []
    tracer = probes.Tracer(spans)
    try:
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.close()

    def under_make_record(i):
        while i >= 0:
            if spans[i][0] == "diagnostics.make_record":
                return True
            i = spans[i][3]
        return False

    block_path = {name for i, (name, *_) in enumerate(spans)
                  if not under_make_record(i)}
    assert {"diagnostics.dissipation_W", "diagnostics.energy_entropy",
            "diagnostics.repr"} <= block_path


def test_each_written_block_is_one_emit_span_and_newton_counts_hold(
        probes, tmp_path, monkeypatch):
    # blocks of five records at 32 cells: the run writes the t = 0 line,
    # then each block's lines, through cli.emit_diagnostics, one call (so
    # one span of snapshots.emit_diagnostics) per block. Each accepted
    # temperature stage's span holds its Newton update count, result[1] of
    # substep_temperature, as the records count them
    monkeypatch.setattr(diagnostics, "BLOCK_CELLS", 5 * 32)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN + "time.dt_max = 0.04\n")
    spans = []
    tracer = probes.Tracer(spans)
    try:
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.close()
    records = [json.loads(line) for line in
               (tmp_path / "out" / "diagnostics.jsonl").read_text().splitlines()]
    steps = len(records) - 1
    assert steps > 10 and steps % 5
    emits = [span for span in spans if span[0] == "snapshots.emit_diagnostics"]
    assert len(emits) == 1 + -(-steps // 5)
    updates = [span[4] for span in spans if span[0] == "solver.temperature"]
    assert all(isinstance(n, int) for n in updates)
    assert sum(r["retries"] for r in records) == 0 and len(updates) == steps
    assert updates == [r["newton_iterations"] for r in records[1:]]
