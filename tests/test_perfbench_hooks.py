"""The benchmark's probes (perfbench/probes.py) wrap mhd1d functions by the
names their callers look up. A refactor that renames one of those names, or
calls a function without going through it, would silently zero a benchmark
metric; these tests catch both."""
from pathlib import Path

import pytest

from conftest import smooth_bump
from mhd1d import solver
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
