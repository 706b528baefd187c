"""Pointwise constitutive laws of the perfect MHD gas and derived quantities.

All functions accept scalars or numpy arrays and are pure.
"""
from __future__ import annotations

import numpy as np

from .core import GasState, Grid, PhysicalParams, sq2


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


def effective_stress(state: GasState, grid: Grid, p: PhysicalParams,
                     node: int) -> float:
    """Total longitudinal stress mu(v)*u_x/v - (R*theta/v + |b|^2/2) at an
    interior node: mu/v, R*theta/v and |b|^2 are the means of the two
    adjacent cells and u_x their mean gradient (u[node+1] - u[node-1])/(2 dx).
    Only those cells and three nodes are read, and the constitutive laws
    check their positivity."""
    if not 0 < node < grid.cells:
        raise ValueError(f"node {node} must be interior (1 to {grid.cells - 1})")
    c = slice(node - 1, node + 1)
    v, u = state.v[c], state.u[node - 1:node + 2]
    mu_over_v = viscosity_mu(v, p) / v
    ptot = pressure(v, state.theta[c], p) + 0.5 * sq2(state.b[c])
    ux_cell = (u[1:] - u[:-1]) / grid.dx
    return float(0.5 * (mu_over_v[0] + mu_over_v[1]) * 0.5 * (ux_cell[0] + ux_cell[1])
                 - 0.5 * (ptot[0] + ptot[1]))
