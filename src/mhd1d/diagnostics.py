"""Invariant monitors evaluated on states and along trajectories.

Implements the energy-entropy functional, the nonnegative dissipation rate,
the slab-average bounds (via the roots of z - ln z - 1 = e0), temperature
level-set measures, and the volume representation-formula residual that
reconstructs v from initial data, the stress history at an anchor node, and
a temperature/magnetic history integral. The representation diagnostic is
derived for the normalized constant preset only and is rejected otherwise.

Every monitor reads the RecordTerms of its state, which only record_terms
builds, for a record and a standalone call alike: it validates the state and
computes each quantity that several monitors share once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import solver
from .constitutive import effective_stress, viscosity_mu
from .core import (
    BoundaryCondition,
    GasState,
    Grid,
    PhysicalParams,
    sq2,
)
from .solver import (
    BoundaryData,
    StateCoeffs,
    StepReport,
    boundary_data,
    dissipation_source,
    state_coeffs,
)

# unit mass intervals per cell at most; a record integrates over each
# (slab_integrals), so the bound keeps a record O(cells)
SLAB_INTERVALS_PER_CELL = 16

# |sigma_integral - offset| past which a ReprAccumulator is rescaled: e**512
# is about 1e222, so the factor and the history stay finite, and a run whose
# stress integral stays within 512 of zero is never rescaled
_REPR_RESCALE = 512.0


@dataclass(frozen=True)
class RecordTerms:
    """Quantities of one state that the monitors read, built by record_terms.

    bnd is the unforced BoundaryData, heat_flux the heat flux at every node
    and dissipation the heating source per cell (both with bnd). coeffs are
    the state's solver.state_coeffs (mu(v), |b|^2, the total pressure) and
    kinetic the kinetic energy density (u^2 + |w|^2 + v|b|^2)/2, with u and
    w averaged from the adjacent nodes. With a representation accumulator,
    b_factor is init_factor * exp(integral of u from the anchor - its
    initial value) and v_pow is v**(-alpha); both are None without one.
    """

    bnd: BoundaryData
    heat_flux: np.ndarray
    dissipation: np.ndarray
    coeffs: StateCoeffs
    kinetic: np.ndarray
    b_factor: Optional[np.ndarray]
    v_pow: Optional[np.ndarray]


def record_terms(state: GasState, grid: Grid, p: PhysicalParams,
                 bnd: BoundaryData, acc: Optional["ReprAccumulator"] = None,
                 report: Optional[StepReport] = None) -> RecordTerms:
    """Validate the state and return its RecordTerms. bnd is the unforced
    boundary_data; the coefficients come from report (the step that produced
    the state), and so do the heat flux and dissipation when it carries them;
    whatever report does not hold is computed here, with bnd."""
    state.validate(grid)
    if report is None:
        coeffs = state_coeffs(state, viscosity_mu(state.v, p), p)
    else:
        coeffs = report.coeffs
    if report is None or report.heat_flux is None:
        h = solver.heat_flux(state.theta, state.v, grid.dx, p, bnd)
        ux = (state.u[1:] - state.u[:-1]) / grid.dx
        q = dissipation_source(state.v, coeffs.mu, ux, state.w, state.b, grid,
                               p, bnd)
    else:
        h, q = report.heat_flux, report.dissipation
    u_c = 0.5 * (state.u[:-1] + state.u[1:])
    w_c = 0.5 * (state.w[:-1] + state.w[1:])
    kinetic = 0.5 * (u_c ** 2 + sq2(w_c) + state.v * coeffs.b_sq)
    b_factor = v_pow = None
    if acc is not None:
        ucum = _integral_to_centers(state.u, grid, acc.anchor)
        b_factor = acc.init_factor * np.exp(ucum - acc.u0_integral)
        v_pow = state.v ** (-p.alpha)
    return RecordTerms(bnd, h, q, coeffs, kinetic, b_factor, v_pow)


def energy_entropy(state: GasState, grid: Grid, p: PhysicalParams,
                   terms: RecordTerms) -> float:
    """Energy-entropy functional: the midpoint-rule integral of
    (u^2 + |w|^2 + v|b|^2)/2 + R(v - ln v - 1) + c_v(theta - ln theta - 1),
    with node fields averaged to cell centers.

    Nonnegative; zero exactly at the far-field state (1, 0, 1, 0, 0).
    """
    vol = state.v - np.log(state.v) - 1.0
    therm = state.theta - np.log(state.theta) - 1.0
    return float(grid.dx * (terms.kinetic + p.R * vol + p.c_v * therm).sum())


def dissipation_W(state: GasState, grid: Grid, p: PhysicalParams,
                  terms: RecordTerms) -> float:
    """Dissipation rate: the integral of
    kappa(theta)*theta_x^2/(v*theta^2) + (mu(v)*u_x^2 + lam|w_x|^2 + nu|b_x|^2)/(v*theta).

    Gradients use the solver's node stencils and interface coefficients, so
    this is exactly the heating the temperature stage injects, weighted by
    1/theta. Nonnegative by construction.
    """
    dx, m, bnd, h = grid.dx, grid.cells, terms.bnd, terms.heat_flux
    grad = np.empty(m + 1)
    theta_bar = np.empty(m + 1)
    grad[1:-1] = (state.theta[1:] - state.theta[:-1]) / dx
    theta_bar[1:-1] = 0.5 * (state.theta[:-1] + state.theta[1:])
    theta_bar[0], grad[0], theta_bar[-1], grad[-1] = solver.end_nodes(
        state.theta, bnd.th_gl, bnd.th_gr, bnd, dx)

    # trapezoid weights: dx, and dx/2 on the end nodes
    wh = dx * h
    wh[0], wh[-1] = 0.5 * dx * h[0], 0.5 * dx * h[-1]
    heat_part = float((wh * grad / theta_bar ** 2).sum())
    mech_part = float(dx * (terms.dissipation / state.theta).sum())
    return heat_part + mech_part


def equilibrium_roots(e0: float) -> tuple[float, float]:
    """The two roots 0 < a1 <= 1 <= a2 of z - ln z - 1 = e0.

    Bisection on (0, 1] and [1, inf), run to machine-limited bracket width so
    the residual is far below 1e-12. e0 = 0 returns (1.0, 1.0) exactly.
    """
    if e0 < 0.0:
        raise ValueError(f"e0 must be >= 0, got {e0}")
    if e0 == 0.0:
        return 1.0, 1.0

    def f(z):
        return z - math.log(z) - 1.0 - e0

    def bisect(lo, hi):
        flo = f(lo)
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fmid = f(mid)
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return lo if abs(f(lo)) <= abs(f(hi)) else hi

    lower = bisect(0.5 * math.exp(-(1.0 + e0)), 1.0)
    upper = bisect(1.0, 2.0 * e0 + 4.0)
    return min(lower, 1.0), max(upper, 1.0)


def slab_intervals_bounded(cells: int, mass: float) -> bool:
    """Whether a domain of `mass` mass units over `cells` cells holds at most
    SLAB_INTERVALS_PER_CELL unit mass intervals per cell."""
    return mass <= SLAB_INTERVALS_PER_CELL * cells


def slab_integrals(state: GasState, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of v and theta over each whole unit mass interval [N, N+1]
    aligned to integer mass coordinates inside the domain.

    Midpoint quadrature; cells straddling an interval edge are split in
    proportion to their overlap, that is, the piecewise-linear cumulative
    integral is interpolated at the integers. Empty arrays if the domain is
    shorter than one unit.
    """
    left, right, dx, m = grid.left_edge, grid.right_edge, grid.dx, grid.cells
    n0 = math.ceil(left - 1e-9)
    n_int = math.floor(right + 1e-9) - n0
    if n_int < 1:
        return np.empty(0), np.empty(0)

    per = round(1.0 / dx)
    aligned = (per >= 1 and abs(per * dx - 1.0) <= 1e-12
               and abs(left - round(left)) <= 1e-12 and m % per == 0
               and m // per == n_int)
    if aligned:
        v_ints = state.v.reshape(n_int, per).sum(axis=1) * dx
        th_ints = state.theta.reshape(n_int, per).sum(axis=1) * dx
        return v_ints, th_ints

    nodes = grid.nodes()
    ints = float(n0) + np.arange(n_int + 1.0)

    def per_interval(f):
        cum = np.interp(ints, nodes, np.concatenate(([0.0], (dx * f).cumsum())))
        return cum[1:] - cum[:-1]

    return per_interval(state.v), per_interval(state.theta)


def level_set_measures(state: GasState, grid: Grid) -> tuple[float, float]:
    """Mass measures of the cold set {theta < 1/2} and the hot set {theta > 2}."""
    low = grid.dx * float(np.count_nonzero(state.theta < 0.5))
    high = grid.dx * float(np.count_nonzero(state.theta > 2.0))
    return low, high


@dataclass
class ReprAccumulator:
    """Running integrals behind the volume representation formula.

    anchor is a node index at an integer mass coordinate. sigma_integral is
    the time integral S of the effective stress at the anchor, whose
    exponential Y = exp(S) is the stress-history factor, positive by
    construction. With H the per-cell temperature/magnetic history integral,
    the reconstruction's factor Y * (1 + H) is held as
    exp(S - offset) * (unit + history): offset = 0, unit = 1 and history = H
    until the first rescale (_REPR_RESCALE), unit = 0 and history =
    exp(offset) * (1 + H) after it. init_factor stores
    v0 * exp(-v0**(-alpha)) and u0_integral the initial velocity integral from
    the anchor to each cell center.
    """

    anchor: int
    t: float
    sigma_integral: float
    offset: float
    unit: float
    history: np.ndarray
    init_factor: np.ndarray
    u0_integral: np.ndarray

    @classmethod
    def start(cls, state0: GasState, grid: Grid, p: PhysicalParams,
              anchor: Optional[int] = None) -> "ReprAccumulator":
        _require_normalized(p)
        if anchor is None:
            anchor = default_anchor(grid)
        if not 0 < anchor < grid.cells:
            raise ValueError(f"anchor node {anchor} must be interior")
        init_factor = state0.v * np.exp(-state0.v ** (-p.alpha))
        u0_int = _integral_to_centers(state0.u, grid, anchor)
        return cls(anchor=anchor, t=state0.t, sigma_integral=0.0, offset=0.0,
                   unit=1.0, history=np.zeros(grid.cells),
                   init_factor=init_factor, u0_integral=u0_int)


def default_anchor(grid: Grid) -> int:
    """Node index nearest the integer mass coordinate closest to the domain center."""
    # halved before the sum, which cannot overflow on a far-offset grid
    mid = 0.5 * grid.left_edge + 0.5 * grid.right_edge
    target = round(mid)
    j = round((target - grid.left_edge) / grid.dx)
    return int(np.clip(j, 1, grid.cells - 1))


def _require_normalized(p: PhysicalParams) -> None:
    if not p.is_normalized:
        raise ValueError("representation diagnostic requires the normalized "
                         "preset (lam = nu = kappa_tilde = R = c_v = mu1 = 1, "
                         "mu2 = alpha)")


def _integral_to_centers(u: np.ndarray, grid: Grid, anchor: int) -> np.ndarray:
    """Integral of the piecewise-linear node field u from the anchor node to
    every cell center (trapezoid over whole cells plus the half-cell tail)."""
    dx = grid.dx
    seg = 0.5 * dx * (u[:-1] + u[1:])
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    to_nodes = cum - cum[anchor]
    tail = dx * (3.0 * u[:-1] + u[1:]) / 8.0
    return to_nodes[:-1] + tail


def representation_update(acc: ReprAccumulator, state: GasState, grid: Grid,
                          dt: float, p: PhysicalParams,
                          terms: RecordTerms) -> ReprAccumulator:
    """Advance the accumulator by one accepted step of size dt.

    The stress integral gets a rectangle-rule increment from the end-of-step
    stress at the anchor; the history integral is advanced with the stress
    factor treated as exponential across the step, which keeps the far-field
    equilibrium reconstruction exact to round-off for any dt. terms are the
    record_terms of the state with acc.
    """
    _require_normalized(p)
    sigma_n = effective_stress(state, grid, terms.coeffs, acc.anchor)
    acc.sigma_integral += sigma_n * dt
    if abs(acc.sigma_integral - acc.offset) > _REPR_RESCALE:
        # move the offset to S, folding the factor into the history
        acc.history = ((acc.unit + acc.history)
                       * math.exp(acc.sigma_integral - acc.offset))
        acc.unit, acc.offset = 0.0, acc.sigma_integral
    y = math.exp(acc.sigma_integral - acc.offset)

    h = (np.exp(-terms.v_pow)
         * (state.theta + 0.5 * state.v * terms.coeffs.b_sq) / terms.b_factor)
    sdt = sigma_n * dt
    geom = dt if sdt == 0.0 else math.expm1(sdt) / sigma_n
    acc.history = acc.history + h * geom / y
    acc.t = state.t
    return acc


def representation_residual(acc: ReprAccumulator, state: GasState, grid: Grid,
                            p: PhysicalParams, terms: RecordTerms) -> np.ndarray:
    """Per-cell relative defect |v - v_reconstructed| / v of the
    representation formula, given an accumulator consistent with the
    trajectory that produced the state. terms are the record_terms of the
    state with acc."""
    _require_normalized(p)
    y = math.exp(acc.sigma_integral - acc.offset)
    pred = terms.b_factor * y * np.exp(terms.v_pow) * (acc.unit + acc.history)
    return np.abs(state.v - pred) / state.v


@dataclass
class DiagnosticsRecord:
    """One time-stamped row of every monitored invariant."""

    t: float
    step: int
    dt: float
    newton_iterations: int
    retries: int
    E_entropy: float
    W: float
    W_cum: float
    min_v: float
    max_v: float
    min_theta: float
    max_theta: float
    mass_total: float
    mass_flux_cum: float
    mass_defect: float
    momentum_total: float
    momentum_flux_cum: float
    momentum_defect: float
    energy_total: float
    energy_flux_cum: float
    entropy_flux_cum: float
    measure_theta_low: float
    measure_theta_high: float
    slab_v_min: float
    slab_v_max: float
    slab_theta_min: float
    slab_theta_max: float
    repr_residual_max: Optional[float]

    def to_json_dict(self) -> dict:
        # NaN (e.g. slab extremes on a sub-unit domain) is not valid JSON
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                value = None
            out[f.name] = value
        return out


class DiagnosticsCollector:
    """Stateful sink that assembles a DiagnosticsRecord after every accepted
    step and maintains the cumulative budgets.

    Use make_record(state) once for the initial record, then feed
    (state, report) pairs, e.g. sink=collector.on_step with solver.run_until.
    The grid must hold at most SLAB_INTERVALS_PER_CELL unit mass intervals
    per cell (ValueError otherwise), which bounds the slab integrals of every
    record.
    """

    def __init__(self, grid: Grid, p: PhysicalParams, bc: BoundaryCondition,
                 state0: GasState, repr_anchor: Optional[int] = None):
        if not slab_intervals_bounded(grid.cells, grid.mass):
            raise ValueError(
                f"grid mass {grid.mass:g} over {grid.cells} cells exceeds "
                f"SLAB_INTERVALS_PER_CELL = {SLAB_INTERVALS_PER_CELL} unit "
                "mass intervals per cell")
        self.grid, self.p = grid, p
        self.bnd = boundary_data(grid, bc, state0.t)  # unforced: no t dependence
        self.acc = (ReprAccumulator.start(state0, grid, p, repr_anchor)
                    if p.is_normalized else None)
        self.w_cum = 0.0
        self.mass_flux_cum = 0.0
        self.momentum_flux_cum = 0.0
        self.energy_flux_cum = 0.0
        self.entropy_flux_cum = 0.0
        self._prev_mass = self._mass(state0)
        self._prev_momentum = self._momentum(state0)
        self.min_v_run = float(state0.v.min())
        self.min_theta_run = float(state0.theta.min())
        self.max_v_run = float(state0.v.max())
        self.max_theta_run = float(state0.theta.max())
        self.max_repr_residual = 0.0

    def _mass(self, state: GasState) -> float:
        return float(self.grid.dx * state.v.sum())

    def _momentum(self, state: GasState) -> float:
        return float(self.grid.dx * state.u.sum())

    def make_record(self, state: GasState,
                    report: Optional[StepReport] = None) -> DiagnosticsRecord:
        """Assemble the record for a state; report=None marks the t = 0 row.

        Every monitor reads the one RecordTerms of the state, built with the
        collector's boundary data and the report's heat flux and dissipation.
        """
        grid, p = self.grid, self.p
        terms = record_terms(state, grid, p, self.bnd, self.acc, report)
        mass = self._mass(state)
        momentum = self._momentum(state)
        w_rate = dissipation_W(state, grid, p, terms)
        if report is None:
            dt = 0.0
            iters = retries = 0
            mass_defect = momentum_defect = 0.0
        else:
            dt = report.dt_used
            iters, retries = report.newton_iterations, report.retries
            self.w_cum += w_rate * dt
            self.mass_flux_cum += report.mass_flux
            self.momentum_flux_cum += report.momentum_flux
            self.energy_flux_cum += report.energy_flux
            self.entropy_flux_cum += report.entropy_flux
            mass_defect = abs(mass - self._prev_mass - report.mass_flux) \
                / max(abs(self._prev_mass), 1.0)
            mom_scale = max(1.0, float(grid.dx * np.abs(state.u).sum()))
            momentum_defect = abs(momentum - self._prev_momentum
                                  - report.momentum_flux) / mom_scale
            if self.acc is not None:
                representation_update(self.acc, state, grid, dt, p, terms)
        self._prev_mass = mass
        self._prev_momentum = momentum

        if self.acc is not None:
            repr_max = float(representation_residual(self.acc, state, grid, p,
                                                     terms).max())
            self.max_repr_residual = max(self.max_repr_residual, repr_max)
        else:
            repr_max = None

        slab_v, slab_th = slab_integrals(state, grid)
        meas_lo, meas_hi = level_set_measures(state, grid)
        min_v, max_v = float(state.v.min()), float(state.v.max())
        min_theta, max_theta = float(state.theta.min()), float(state.theta.max())
        self.min_v_run = min(self.min_v_run, min_v)
        self.min_theta_run = min(self.min_theta_run, min_theta)
        self.max_v_run = max(self.max_v_run, max_v)
        self.max_theta_run = max(self.max_theta_run, max_theta)

        return DiagnosticsRecord(
            t=state.t, step=state.step, dt=dt, newton_iterations=iters,
            retries=retries,
            E_entropy=energy_entropy(state, grid, p, terms),
            W=w_rate, W_cum=self.w_cum,
            min_v=min_v, max_v=max_v, min_theta=min_theta, max_theta=max_theta,
            mass_total=mass, mass_flux_cum=self.mass_flux_cum,
            mass_defect=mass_defect,
            momentum_total=momentum, momentum_flux_cum=self.momentum_flux_cum,
            momentum_defect=momentum_defect,
            energy_total=float(grid.dx * (p.c_v * state.theta + terms.kinetic).sum()),
            energy_flux_cum=self.energy_flux_cum,
            entropy_flux_cum=self.entropy_flux_cum,
            measure_theta_low=meas_lo, measure_theta_high=meas_hi,
            slab_v_min=float(slab_v.min()) if slab_v.size else math.nan,
            slab_v_max=float(slab_v.max()) if slab_v.size else math.nan,
            slab_theta_min=float(slab_th.min()) if slab_th.size else math.nan,
            slab_theta_max=float(slab_th.max()) if slab_th.size else math.nan,
            repr_residual_max=repr_max,
        )

    def on_step(self, state: GasState, report: StepReport) -> DiagnosticsRecord:
        return self.make_record(state, report)
