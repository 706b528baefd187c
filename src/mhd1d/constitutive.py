"""Pointwise constitutive laws of the perfect MHD gas and derived quantities.

The laws accept scalars or numpy arrays; every function is pure.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import GasState, Grid, PhysicalParams, StateBlock

if TYPE_CHECKING:  # the solver imports this module
    from .solver import StateCoeffs


def _require_positive(name, value):
    # fmin skips NaN, as value <= 0.0 does entry by entry
    if np.fmin.reduce(np.asarray(value), axis=None, initial=np.inf) <= 0.0:
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
    mu = np.asarray(v, dtype=float) ** (-p.alpha)
    mu *= p.mu2
    mu += p.mu1
    return mu


def effective_stress(state: GasState | StateBlock, grid: Grid,
                     coeffs: StateCoeffs | Sequence[StateCoeffs], node: int):
    """Total longitudinal stress mu(v)*u_x/v - (R*theta/v + |b|^2/2) at an
    interior node: mu/v and the total pressure are the means of the two
    adjacent cells' coeffs (solver.state_coeffs of the state, whose
    constitutive laws checked positivity) and u_x their mean gradient
    (u[node+1] - u[node-1])/(2 dx). Only those cells and three nodes are
    read, as Python floats. A StateBlock, with a sequence of coeffs, one
    per record in order, gives an array of one stress per record."""
    if not 0 < node < grid.cells:
        raise ValueError(f"node {node} must be interior (1 to {grid.cells - 1})")
    c, dx = slice(node - 1, node + 1), grid.dx
    single = state.u.ndim == 1
    rows = [coeffs] if single else coeffs
    stress = [0.5 * (m0 + m1) * 0.5 * ((u1 - u0) / dx + (u2 - u1) / dx)
              - 0.5 * (p0 + p1)
              for (m0, m1), (p0, p1), (u0, u1, u2) in zip(
                  [k.mu_over_v[c].tolist() for k in rows],
                  [k.ptot[c].tolist() for k in rows],
                  state.u[..., node - 1:node + 2].reshape(-1, 3).tolist())]
    return stress[0] if single else np.array(stress)
