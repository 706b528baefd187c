import sys

import numpy as np
import pytest

from mhd1d import solver
from mhd1d.core import (
    BoundaryCondition,
    GasState,
    GaussianBump,
    Grid,
    PhysicalParams,
)
from mhd1d.solver import boundary_data, initial_report

ALL_REGIMES = [BoundaryCondition.CAUCHY_FAR_FIELD,
               BoundaryCondition.ISOTHERMAL_WALL_LEFT,
               BoundaryCondition.INSULATED_WALL_LEFT]


@pytest.fixture
def grid16():
    return Grid.uniform(16, 8.0, -4.0)


@pytest.fixture
def params_normalized():
    return PhysicalParams.normalized(alpha=1.0, beta=1.0)


def smooth_bump(center=0.0, scale=1.0):
    """Moderate all-field bump used across the solver tests."""
    return GaussianBump(center=center, width=1.0,
                        amp_v=-0.3 * scale, amp_u=0.3 * scale,
                        amp_theta=0.5 * scale,
                        amp_b=(0.3 * scale, 0.0), amp_w=(0.3 * scale, 0.1 * scale))


def reference_state(grid: Grid) -> GasState:
    m = grid.cells
    return GasState(v=np.ones(m), theta=np.ones(m), b=np.zeros((m, 2)),
                    u=np.zeros(m + 1), w=np.zeros((m + 1, 2)))


def report_of(state: GasState, grid: Grid, p: PhysicalParams,
              bc: BoundaryCondition):
    """The report that a step from a state no step produced takes: its
    initial_report under the regime's unforced boundary data, as run_until
    and the collector build it."""
    return initial_report(state, grid, p, boundary_data(grid, bc, state.t))


def bits(*values):
    """The bytes of each float or array, so that -0.0 differs from +0.0."""
    return [np.asarray(x, dtype=float).tobytes() for x in values]


def state_max_diff(a: GasState, b: GasState) -> float:
    """Largest field-wise max-norm difference between two states."""
    return max(float(np.max(np.abs(a.v - b.v))),
               float(np.max(np.abs(a.theta - b.theta))),
               float(np.max(np.abs(a.b - b.b))),
               float(np.max(np.abs(a.u - b.u))),
               float(np.max(np.abs(a.w - b.w))))


def patch_newton_solve(monkeypatch, newton_solve):
    """Route the temperature Newton's symmetric_tridiag_solve calls, and only
    those, to newton_solve(solve, d, e, rhs) with solve the real routine; the
    stage solves keep the real routine."""
    solve = solver.symmetric_tridiag_solve

    def routed(d, e, rhs):
        if sys._getframe(1).f_code.co_name == "substep_temperature":
            return newton_solve(solve, d, e, rhs)
        return solve(d, e, rhs)

    monkeypatch.setattr(solver, "symmetric_tridiag_solve", routed)
