"""Pointwise constitutive laws of the perfect MHD gas and derived quantities.

The laws accept scalars or numpy arrays; every function is pure.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import GasState, Grid, PhysicalParams, StateBlock

if TYPE_CHECKING:  # the solver imports this module
    from .solver import StateCoeffs


def _require_positive(name, value):
    if (np.asarray(value) <= 0.0).any():
        raise ValueError(f"{name} must be positive, got min {np.min(value)}")


def pressure(v, theta, p: PhysicalParams):
    """Perfect-gas pressure R * theta / v."""
    _require_positive("specific volume", v)
    _require_positive("temperature", theta)
    return p.R * theta / v


def viscosity_mu(v, p: PhysicalParams):
    """Volume-dependent longitudinal viscosity mu1 + mu2 * v**(-alpha)."""
    _require_positive("specific volume", v)
    if p.mu2 == 0.0:
        return p.mu1 + np.zeros_like(np.asarray(v, dtype=float))
    return p.mu1 + p.mu2 * np.asarray(v, dtype=float) ** (-p.alpha)


def effective_stress(state: GasState | StateBlock, grid: Grid,
                     coeffs: StateCoeffs, node: int):
    """Total longitudinal stress mu(v)*u_x/v - (R*theta/v + |b|^2/2) at an
    interior node: mu/v and the total pressure are the means of the two
    adjacent cells' coeffs (solver.state_coeffs of the state, whose
    constitutive laws checked positivity) and u_x their mean gradient
    (u[node+1] - u[node-1])/(2 dx). Only those cells and three nodes are
    read. A StateBlock with its stacked coeffs gives one stress per
    record."""
    if not 0 < node < grid.cells:
        raise ValueError(f"node {node} must be interior (1 to {grid.cells - 1})")
    c = slice(node - 1, node + 1)
    mu_over_v, ptot = coeffs.mu_over_v[..., c], coeffs.ptot[..., c]
    u = state.u[..., node - 1:node + 2]
    ux_cell = (u[..., 1:] - u[..., :-1]) / grid.dx
    return (0.5 * (mu_over_v[..., 0] + mu_over_v[..., 1])
            * 0.5 * (ux_cell[..., 0] + ux_cell[..., 1])
            - 0.5 * (ptot[..., 0] + ptot[..., 1]))
