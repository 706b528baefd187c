"""Pointwise constitutive laws of the perfect MHD gas and derived quantities.

All functions accept scalars or numpy arrays and are pure.
"""
from __future__ import annotations

from typing import Optional

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


def conductivity_kappa(theta, p: PhysicalParams):
    """Temperature-degenerate heat conductivity kappa_tilde * theta**beta.

    Vanishes as theta -> 0 when beta > 0, which is the regime where the
    temperature equation loses parabolicity.
    """
    _require_positive("temperature", theta)
    return p.kappa_tilde * np.asarray(theta, dtype=float) ** p.beta


def total_energy_density(v, theta, u, w, b, p: PhysicalParams):
    """Total energy per unit mass, c_v*theta + (u^2 + |w|^2 + v*|b|^2) / 2.

    u, w, b are values co-located with v and theta (node fields already
    averaged to cells). w and b may be (..., 2) component arrays or scalars.
    """
    _require_positive("specific volume", v)
    _require_positive("temperature", theta)
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    w_sq = sq2(w) if w.ndim and w.shape[-1] == 2 else w * w
    b_sq = sq2(b) if b.ndim and b.shape[-1] == 2 else b * b
    return p.c_v * theta + 0.5 * (np.asarray(u) ** 2 + w_sq + v * b_sq)


def state_energy_density(state: GasState, p: PhysicalParams) -> np.ndarray:
    """total_energy_density over the cells of a state, with u and w averaged
    from the adjacent nodes by arithmetic mean."""
    u_c = 0.5 * (state.u[:-1] + state.u[1:])
    w_c = 0.5 * (state.w[:-1] + state.w[1:])
    return total_energy_density(state.v, state.theta, u_c, w_c, state.b, p)


def effective_stress(state: GasState, grid: Grid, p: PhysicalParams,
                     node: Optional[int] = None):
    """Total longitudinal stress mu(v)*u_x/v - (R*theta/v + |b|^2/2) at nodes.

    Cell quantities (mu/v, R*theta/v, |b|^2) are averaged to interior nodes by
    arithmetic mean and u_x at an interior node is the mean of the two adjacent
    cell gradients, i.e. the centered difference (u[j+1] - u[j-1]) / (2 dx).
    Boundary nodes use the adjacent cell's values and one-sided u_x.

    With node, an interior node index, returns the stress at that node alone
    as a float, bitwise the same entry of the full array, from the two
    adjacent cells and three nodes; only those are read, and the constitutive
    laws check their positivity instead of the whole state being validated.
    """
    if node is None:
        state.validate(grid)
        cells, nodes = slice(None), slice(None)
    elif 0 < node < grid.cells:
        cells, nodes = slice(node - 1, node + 1), slice(node - 1, node + 2)
    else:
        raise ValueError(f"node {node} must be interior (1 to {grid.cells - 1})")
    v, u = state.v[cells], state.u[nodes]
    mu_over_v = viscosity_mu(v, p) / v
    ptot = pressure(v, state.theta[cells], p) + 0.5 * sq2(state.b[cells])
    ux_cell = (u[1:] - u[:-1]) / grid.dx

    interior = (0.5 * (mu_over_v[:-1] + mu_over_v[1:]) * 0.5 * (ux_cell[:-1] + ux_cell[1:])
                - 0.5 * (ptot[:-1] + ptot[1:]))
    if node is not None:
        return float(interior[0])
    sigma = np.empty(grid.cells + 1)
    sigma[1:-1] = interior
    sigma[0] = mu_over_v[0] * ux_cell[0] - ptot[0]
    sigma[-1] = mu_over_v[-1] * ux_cell[-1] - ptot[-1]
    return sigma
