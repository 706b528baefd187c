"""Quick checks of the benchmark itself (about 20 s).

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import subprocess
import sys

import probes
import run

EXACT_COUNTS = ("solver.steps", "solver.attempts", "solver.newton_updates",
                "constitutive.calls", "verification.rk4_steps",
                "snapshots.bytes_written")


def _bench(seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "run_small",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_exact_counts_repeat_for_a_seed():
    first, second = _bench(7, 1), _bench(7, 1)
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == _declared("per_layer")
    assert first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["solver.steps"]["value"] > 0
    assert first["metrics"]["snapshots.bytes_written"]["value"] > 0


def test_rk4_steps_repeat():
    sys.path.insert(0, str(run.SRC))
    from mhd1d import verification
    from mhd1d.core import (BoundaryCondition, GaussianBump, Grid,
                            PhysicalParams, make_initial_state)
    from mhd1d.solver import StepControl

    grid = Grid.uniform(16, 1.0, -0.5)
    bc = BoundaryCondition.CAUCHY_FAR_FIELD
    state0 = make_initial_state(grid, GaussianBump(width=0.2, amp_v=-0.1), bc)
    counts = []
    for _ in range(2):
        spans = []
        tracer = probes.Tracer(spans)
        try:
            verification.oracle_comparison(
                state0, grid, 1e-4, PhysicalParams.normalized(1.0, 1.0), bc,
                StepControl(dt_max=2e-5), dt_ref=1e-6)
        finally:
            tracer.close()
        (ops,) = probes.split_ops(spans)
        counts.append(probes.summarize(spans, ops)
                      ["verification.explicit_reference"]["values"])
    assert counts[0] == counts[1] == 100


def test_another_seed_changes_inputs_and_passes_the_gate():
    spec = run.WORKLOADS["run_small"][:3]
    assert run.config_text(*spec, 1) != run.config_text(*spec, 2)
    assert run.config_text(*spec, 2) == run.config_text(*spec, 2)
    result = _bench(2, 0)
    assert result["correct"] and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
