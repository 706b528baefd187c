"""Pointwise constitutive laws of the perfect MHD gas.

The laws accept scalars or numpy arrays; every function is pure.
"""
from __future__ import annotations

import numpy as np

from .core import PhysicalParams


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
