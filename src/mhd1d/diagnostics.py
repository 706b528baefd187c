"""Invariant monitors evaluated on states and along trajectories.

Implements the energy-entropy functional, the nonnegative dissipation rate,
the slab-average bounds (via the roots of z - ln z - 1 = e0), temperature
level-set measures, and the volume representation-formula residual that
reconstructs v from initial data, the stress history at an anchor node, and
a temperature/magnetic history integral. The representation diagnostic is
derived for the normalized constant preset only and is rejected otherwise.

Every monitor reads the RecordTerms of its state, which only record_terms
builds, for a record and a standalone call alike: it validates the state,
keeps the extremes and the sum of |u| that the check reduced, takes the heat
flux, dissipation and coefficients from the step report, and computes each
other quantity that several monitors share once. A monitor
reads a core.StateBlock, states stacked along a leading record axis, as it
reads a GasState and gives one value per record: the DiagnosticsCollector
evaluates a block of accepted steps in one set of array operations. The
running sums advance column by column; only the anchor stress, which reads
two cells of each report's coefficients, and the representation
accumulator's affine recurrence run record by record. json_lines writes a
block's records as JSON lines with one % format.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import attrgetter, mul
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import solver
from .core import (
    BoundaryCondition,
    FieldBounds,
    GasState,
    Grid,
    PhysicalParams,
    StateBlock,
    sq2,
    stack_rows,
)
from .solver import (
    BoundaryData,
    StateCoeffs,
    StepReport,
    boundary_data,
    initial_report,
)

# unit mass intervals per cell at most; a record integrates over each
# (slab_integrals), so the bound keeps a record O(cells)
SLAB_INTERVALS_PER_CELL = 16

# thresholds of the cold set {theta < THETA_COLD} and the hot set
# {theta > THETA_HOT} that level_set_measures measures
THETA_COLD = 0.5
THETA_HOT = 2.0

# what record_block reads off each StepReport, as columns
_REPORT_COLUMNS = attrgetter("dt_used", "mass_flux", "momentum_flux",
                             "energy_flux", "entropy_flux",
                             "newton_iterations", "retries")
# what the next block carries on from the newest record: the running sums
# (W_cum, then the four boundary fluxes') and the budgets' totals
_CARRIES = attrgetter("W_cum", "mass_flux_cum", "momentum_flux_cum",
                      "energy_flux_cum", "entropy_flux_cum", "mass_total",
                      "momentum_total")

# cell rows of a record block: the collector records max(1, BLOCK_CELLS //
# cells) accepted steps at once, which spreads the per-call cost of a small
# grid over many records (48 at 256 cells, 24 at 512) and keeps a block of a
# large grid at one state (above 6144 cells). Per record, a block of 48 at
# 256 cells costs about a fifth of a block of one, and longer blocks save a
# few percent more; at 8192 cells a block of two is slower than one
BLOCK_CELLS = 12288


@dataclass(frozen=True)
class RecordTerms:
    """Quantities of one state that the monitors read, built by record_terms.

    bnd is the collector's BoundaryData. heat_flux (at every node),
    dissipation (per cell) and coeffs, the state's solver.state_coeffs
    (mu(v)/v, |b|^2, the total pressure), are the step report's, and for a
    StateBlock its ReportArrays' (coeffs one StateCoeffs per record); bounds
    are the FieldBounds that validating the state read. v_b_sq is v|b|^2,
    or None when the report carries no transverse field (b_sq None), and
    kinetic the kinetic energy density (u^2 + |w|^2 + v|b|^2)/2, with u and
    w averaged from the adjacent nodes. With a representation accumulator, v_per_factor
    is exp(integral of u from the anchor + acc.log_constant + v**(-alpha)),
    the volume that the representation formula reconstructs per unit of the
    accumulator's factor; None without one. The terms of a StateBlock carry
    its leading record axis on every array.
    """

    bnd: BoundaryData
    heat_flux: np.ndarray
    dissipation: np.ndarray
    coeffs: StateCoeffs | tuple
    bounds: FieldBounds
    v_b_sq: Optional[np.ndarray]
    kinetic: np.ndarray
    v_per_factor: Optional[np.ndarray]


@dataclass(frozen=True)
class ReportArrays:
    """What the StepReports of a StateBlock's records hand the monitors:
    coeffs, each report's StateCoeffs in record order, and b_sq, heat_flux
    and dissipation, their |b|^2, heat flux and dissipation stacked like the
    block (stack_rows, which views a single report's arrays). record_terms
    reads it as it reads the StepReport of one state; mu_over_v and ptot stay
    unstacked, as the monitors read two cells of each (effective_stress).
    b_sq is None when no record carries a transverse field, and holds +0.0
    rows for the records that carry none in a block that mixes them (only a
    hand-built sequence of reports does)."""

    coeffs: tuple
    b_sq: Optional[np.ndarray]
    heat_flux: np.ndarray
    dissipation: np.ndarray

    @classmethod
    def of(cls, reports: Sequence[StepReport]) -> "ReportArrays":
        coeffs = tuple(r.coeffs for r in reports)
        quiet = [c.b_sq is None for c in coeffs]
        b_sq = None if all(quiet) else stack_rows(  # +0.0 rows for quiet records
            [np.zeros(c.ptot.shape) if q else c.b_sq for c, q in zip(coeffs, quiet)])
        return cls(coeffs, b_sq, stack_rows([r.heat_flux for r in reports]),
                   stack_rows([r.dissipation for r in reports]))


def record_terms(state: GasState | StateBlock, grid: Grid, p: PhysicalParams,
                 bnd: BoundaryData, report: StepReport | ReportArrays,
                 acc: Optional["ReprAccumulator"] = None) -> RecordTerms:
    """Validate the state, a GasState or a StateBlock, and return its
    RecordTerms. bnd is the boundary_data the monitors close the end nodes
    with; the coefficients, heat flux and dissipation come from report: the
    StepReport of the step that produced a GasState (solver.initial_report
    for a state no step produced), or the ReportArrays of a block's steps.
    The validation takes the report's |b|^2 (its coeffs', or a ReportArrays'
    stacked b_sq), which the step formed from the same b: it decides b's
    finiteness, so b is neither scanned nor stacked. The node-pair sum
    u[..., :-1] + u[..., 1:] and v|b|^2 are formed once, for the kinetic
    energy and the representation terms alike. A report that carries no
    transverse field (b_sq None, in every record of a block) leaves w
    and b out, as their +0.0 terms leave the sums: the validation scans
    neither, the kinetic density is u_c^2 / 2, and v_b_sq is None, so the
    representation's heat is theta."""
    squares = report if isinstance(report, ReportArrays) else report.coeffs
    bounds = state.validate(grid, squares)
    u = state.u
    u_pair = u[..., :-1] + u[..., 1:]
    # (u_c^2 + |w_c|^2 + v|b|^2) / 2 with u_c = u_pair / 2, in one buffer
    kinetic = 0.5 * u_pair
    kinetic *= kinetic
    v_b_sq = None
    if squares.b_sq is not None:
        w_c = state.w[..., :-1, :] + state.w[..., 1:, :]
        w_c *= 0.5
        v_b_sq = state.v * squares.b_sq
        kinetic += sq2(w_c)
        kinetic += v_b_sq
    kinetic *= 0.5
    v_per_factor = None
    if acc is not None:  # summed in log space: one exp, in the float range
        v_per_factor = _integral_to_centers(u, u_pair, grid, acc.anchor)
        v_per_factor += acc.log_constant
        v_per_factor += state.v ** (-p.alpha)
        np.exp(v_per_factor, out=v_per_factor)
    return RecordTerms(bnd, report.heat_flux, report.dissipation, report.coeffs,
                       bounds, v_b_sq, kinetic, v_per_factor)


def energy_entropy(state: GasState | StateBlock, grid: Grid, p: PhysicalParams,
                   terms: RecordTerms):
    """Energy-entropy functional: the midpoint-rule integral of
    (u^2 + |w|^2 + v|b|^2)/2 + R(v - ln v - 1) + c_v(theta - ln theta - 1),
    with node fields averaged to cell centers.

    Nonnegative; zero exactly at the far-field state (1, 0, 1, 0, 0).
    """
    # kinetic + R * (v - ln v - 1) + c_v * (theta - ln theta - 1), in two buffers
    total = np.log(state.v)
    np.subtract(state.v, total, out=total)
    total -= 1.0
    total *= p.R
    total += terms.kinetic
    therm = np.log(state.theta)
    np.subtract(state.theta, therm, out=therm)
    therm -= 1.0
    therm *= p.c_v
    total += therm
    return grid.dx * total.sum(axis=-1)


def dissipation_W(state: GasState | StateBlock, grid: Grid, p: PhysicalParams,
                  terms: RecordTerms):
    """Dissipation rate: the integral of
    kappa(theta)*theta_x^2/(v*theta^2) + (mu(v)*u_x^2 + lam|w_x|^2 + nu|b_x|^2)/(v*theta).

    Gradients use the solver's node stencils and interface coefficients, so
    this is exactly the heating the temperature stage injects, weighted by
    1/theta. Nonnegative by construction.
    """
    dx, bnd, h, theta = grid.dx, terms.bnd, terms.heat_flux, state.theta
    grad = np.empty(h.shape)
    theta_bar = np.empty(h.shape)
    # the inner nodes are written in place, with no temporary to copy in
    inner = grad[..., 1:-1]
    np.subtract(theta[..., 1:], theta[..., :-1], out=inner)
    inner /= dx
    inner = theta_bar[..., 1:-1]
    np.add(theta[..., :-1], theta[..., 1:], out=inner)
    inner *= 0.5
    theta_bar[..., 0], grad[..., 0], theta_bar[..., -1], grad[..., -1] = \
        solver.end_nodes(theta.T, bnd.th_gl, bnd.th_gr, bnd, dx)

    # trapezoid weights: dx, and dx/2 on the end nodes
    wh = dx * h
    wh[..., 0], wh[..., -1] = 0.5 * dx * h[..., 0], 0.5 * dx * h[..., -1]
    wh *= grad
    wh /= np.square(theta_bar, out=theta_bar)
    heat_part = wh.sum(axis=-1)
    mech_part = dx * (terms.dissipation / theta).sum(axis=-1)
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


def slab_integrals(state: GasState | StateBlock, grid: Grid
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of v and theta over each whole unit mass interval [N, N+1]
    aligned to integer mass coordinates inside the domain.

    Midpoint quadrature; cells straddling an interval edge are split in
    proportion to their overlap, that is, the piecewise-linear cumulative
    integral is interpolated at the integers. Empty arrays if the domain is
    shorter than one unit.
    """
    left, right, dx, m = grid.left_edge, grid.right_edge, grid.dx, grid.cells
    lead = state.v.shape[:-1]
    n0 = math.ceil(left - 1e-9)
    n_int = math.floor(right + 1e-9) - n0
    if n_int < 1:
        return np.empty(lead + (0,)), np.empty(lead + (0,))

    per = round(1.0 / dx)
    aligned = (per >= 1 and abs(per * dx - 1.0) <= 1e-12
               and abs(left - round(left)) <= 1e-12 and m % per == 0
               and m // per == n_int)
    if aligned:
        v_ints = state.v.reshape(lead + (n_int, per)).sum(axis=-1) * dx
        th_ints = state.theta.reshape(lead + (n_int, per)).sum(axis=-1) * dx
        return v_ints, th_ints

    nodes = grid.nodes()
    ints = float(n0) + np.arange(n_int + 1.0)

    def per_interval(f):
        cum = np.zeros(lead + (m + 1,))
        np.cumsum(dx * f, axis=-1, out=cum[..., 1:])
        # np.interp takes one record at a time
        at = np.array([np.interp(ints, nodes, row)
                       for row in cum.reshape(-1, m + 1)]).reshape(lead + (-1,))
        return at[..., 1:] - at[..., :-1]

    return per_interval(state.v), per_interval(state.theta)


def level_set_measures(state: GasState | StateBlock, grid: Grid):
    """Mass measures of the cold set {theta < 1/2} and the hot set {theta > 2}."""
    low = grid.dx * (state.theta < THETA_COLD).sum(axis=-1)
    high = grid.dx * (state.theta > THETA_HOT).sum(axis=-1)
    return low, high


@dataclass
class ReprAccumulator:
    """Running factor of the volume representation formula.

    anchor is a node index at an integer mass coordinate. factor is the
    per-cell reconstruction factor Y * (1 + H), one at t = 0: Y = exp(S) is
    the stress-history factor, S the time integral of the effective stress
    at the anchor, and H the per-cell temperature/magnetic history integral.
    The factor approximates v / RecordTerms.v_per_factor, so it stays of
    order one while v stays bounded above and below, even where exp(S) alone
    leaves the float range. log_constant stores the initial data's part of
    log v_per_factor, log v0 - v0**(-alpha) - the initial velocity integral
    from the anchor to each cell center: kept as a logarithm, it stays
    finite where v0 * exp(-v0**(-alpha)) underflows (v0**(-alpha) > 745).
    """

    anchor: int
    factor: np.ndarray
    log_constant: np.ndarray

    @classmethod
    def start(cls, state0: GasState, grid: Grid, p: PhysicalParams,
              anchor: Optional[int] = None) -> "ReprAccumulator":
        _require_normalized(p)
        if anchor is None:
            anchor = default_anchor(grid)
        if not 0 < anchor < grid.cells:
            raise ValueError(f"anchor node {anchor} must be interior")
        u0 = state0.u
        log_constant = np.log(state0.v)
        log_constant -= state0.v ** (-p.alpha)
        log_constant -= _integral_to_centers(u0, u0[:-1] + u0[1:], grid, anchor)
        return cls(anchor=anchor, factor=np.ones(grid.cells),
                   log_constant=log_constant)


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


def _integral_to_centers(u: np.ndarray, u_pair: np.ndarray, grid: Grid,
                         anchor: int) -> np.ndarray:
    """Integral of the piecewise-linear node field u (nodes on the last axis)
    from the anchor node to every cell center (trapezoid over whole cells
    plus the half-cell tail); u_pair holds u[..., :-1] + u[..., 1:]."""
    dx = grid.dx
    cum = np.empty(u.shape)
    cum[..., 0] = 0.0
    tail = np.multiply(u_pair, 0.5 * dx)  # the cumsum's input, then the tail
    np.cumsum(tail, axis=-1, out=cum[..., 1:])
    cum -= cum[..., anchor, None]
    np.multiply(u[..., :-1], 3.0, out=tail)
    tail += u[..., 1:]
    tail *= dx
    tail /= 8.0
    tail += cum[..., :-1]
    return tail


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


def representation_update(acc: ReprAccumulator, state: GasState | StateBlock,
                          grid: Grid, dt, p: PhysicalParams,
                          terms: RecordTerms) -> np.ndarray:
    """Advance the accumulator by one accepted step of size dt for a
    GasState, or by one step per record of a StateBlock, dt holding their
    sizes in order.

    The end-of-step stress sigma at the anchor is held across the step, so
    the factor P = Y * (1 + H) advances as P * exp(sigma dt) + h * geom, with
    h the history integrand and geom = expm1(sigma dt) / sigma (dt when
    sigma dt = 0); this keeps the far-field equilibrium reconstruction exact
    to round-off for any dt. terms are the record_terms of the state with
    acc. Returns the factor after each record, a (K, M) array.
    """
    _require_normalized(p)
    sigma = np.atleast_1d(effective_stress(state, grid, terms.coeffs, acc.anchor))
    # h = (theta + v|b|^2 / 2) / v_per_factor
    if terms.v_b_sq is None:  # no transverse field: the heat is theta
        h = state.theta / terms.v_per_factor
    else:
        h = 0.5 * terms.v_b_sq
        h += state.theta
        h /= terms.v_per_factor
    h = h.reshape(len(sigma), -1)
    steps = list(zip(sigma.tolist(), np.atleast_1d(dt).tolist()))
    sdt = [s * d for s, d in steps]
    # h * geom of each record, in one multiply
    h *= np.array([d if x == 0.0 else math.expm1(x) / s
                   for (s, d), x in zip(steps, sdt)])[:, None]
    factor = np.empty_like(h)
    row = acc.factor
    # in order: each record's factor starts from the one before
    for k, x in enumerate(sdt):
        row = np.multiply(row, math.exp(x), out=factor[k])
        row += h[k]
    acc.factor = row
    return factor


def representation_residual(factor: np.ndarray, state: GasState | StateBlock,
                            grid: Grid, p: PhysicalParams,
                            terms: RecordTerms) -> np.ndarray:
    """Per-cell relative defect |v - v_reconstructed| / v of the
    representation formula, given the reconstruction factor of the state:
    the factor of an accumulator consistent with the trajectory that
    produced it, or the factors that representation_update returned for it.
    terms are the record_terms of the state with that accumulator."""
    _require_normalized(p)
    # factor may carry a record axis that a state lacks
    pred = terms.v_per_factor * factor
    np.subtract(state.v, pred, out=pred)
    np.abs(pred, out=pred)
    pred /= state.v
    return pred


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

    # the field names in order, and the JSON line as one positional
    # %-layout over them, each key written as json.dumps writes it; set
    # once below the class
    names: ClassVar[tuple[str, ...]]
    _line: ClassVar[str]

    def to_json_dict(self) -> dict:
        # NaN (e.g. slab extremes on a sub-unit domain) is not valid JSON
        out = {}
        for name in self.names:
            value = getattr(self, name)
            if isinstance(value, float) and math.isnan(value):
                value = None
            out[name] = value
        return out

    def json_line(self) -> str:
        """json.dumps(self.to_json_dict()) and a newline: json_lines of this
        record alone."""
        return json_lines([self])


DiagnosticsRecord.names = tuple(f.name for f in fields(DiagnosticsRecord))
DiagnosticsRecord._line = "{" + ", ".join(
    f"{json.dumps(name)}: %s" for name in DiagnosticsRecord.names) + "}\n"
# what %s writes for None, NaN and +-inf, and what to_json_dict and
# json.dumps write instead; ": " precedes only a value, so a finite value
# is left as it is
_NOT_JSON = ((": None", ": null"), (": nan", ": null"),
             (": -inf", ": -Infinity"), (": inf", ": Infinity"))


def json_lines(records: Sequence[DiagnosticsRecord]) -> str:
    """Each record's json.dumps(to_json_dict()) and a newline, in order, all
    filled by one % into the record layout repeated once per record: %s
    writes an int or a float as json.dumps does, and only a text whose
    values hold None, NaN or +-inf has them respelled. A record's __dict__
    holds its fields in order, as its __init__ set them."""
    values = [x for r in records for x in r.__dict__.values()]
    text = (DiagnosticsRecord._line * len(records)) % tuple(values)
    try:  # a finite sum: no None, NaN or inf among the values
        plain = math.isfinite(sum(values))
    except TypeError:
        plain = False
    if not plain:
        for spelled, json_text in _NOT_JSON:
            text = text.replace(spelled, json_text)
    return text


class DiagnosticsCollector:
    """Stateful sink that assembles a DiagnosticsRecord for every accepted
    step and maintains the cumulative budgets.

    The constructor records state0 as the t = 0 row (make_record(state0)).
    last is the newest record, and the only copy of every running total: the
    next record continues W_cum and the four *_flux_cum sums from it and
    measures its mass and momentum defects against its mass_total and
    momentum_total. The run extremes (min_v_run, max_v_run, min_theta_run,
    max_theta_run and, with the representation diagnostic,
    max_repr_residual) fold the records' values.

    Feed (state, report) pairs in order: make_record(state, report) records
    one at once (e.g. sink=collector.make_record with solver.run_until), push
    buffers them and records block_size = max(1, BLOCK_CELLS // cells) of
    them at a time, and flush records what push still holds. make_record
    records what push holds first, so the records stay in order however the
    two are mixed. Each way runs record_block, so the records are the same.
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
        self.block_size = max(1, BLOCK_CELLS // grid.cells)
        self._buffer = []
        self.min_v_run = self.min_theta_run = math.inf
        self.max_v_run = self.max_theta_run = -math.inf
        self.max_repr_residual = 0.0
        self.last: Optional[DiagnosticsRecord] = None
        self.make_record(state0)

    def make_record(self, state: GasState,
                    report: Optional[StepReport] = None) -> DiagnosticsRecord:
        """Assemble the record for a state, after those of the steps push
        still holds, and return it; it becomes last. report=None records the
        state as a zero-length step (solver.initial_report), as the
        constructor records the t = 0 row. Recording state0 again before any
        step gives a record equal to that row (dt 0 adds nothing)."""
        if report is None:
            report = initial_report(state, self.grid, self.p, self.bnd)
        self._buffer.append((state, report))
        return self.flush()[-1]

    def push(self, state: GasState, report: StepReport) -> list[DiagnosticsRecord]:
        """Buffer an accepted step as given: it is read when its block is
        recorded, so it must not change meanwhile. Once block_size steps
        are buffered, record them and return their records; until then
        return []."""
        self._buffer.append((state, report))
        return self.flush() if len(self._buffer) >= self.block_size else []

    def flush(self) -> list[DiagnosticsRecord]:
        """Record every buffered step, in order, as one block."""
        if not self._buffer:
            return []
        states, reports = zip(*self._buffer)
        self._buffer = []
        return self.record_block(states, reports)

    def record_block(self, states: Sequence[GasState],
                     reports: Sequence[StepReport]) -> list[DiagnosticsRecord]:
        """The records of consecutive accepted states, each with the report
        of the step that produced it.

        Every monitor runs once over the StateBlock of the states and reads
        its one RecordTerms, built with the collector's boundary data and the
        reports' coefficients, heat flux and dissipation. Only what a monitor
        reads is copied: the block stacks v, theta and u, and w only when
        some report carries a transverse field; b is never stacked, as the
        reports' |b|^2 decide its finiteness. The ReportArrays stack |b|^2,
        heat flux and dissipation, and the anchor stress reads two cells of
        each report's mu(v)/v and total pressure. The extremes and
        the momentum scale are the reductions that validation made, and
        level_set_measures runs only if some record's theta extremes reach a
        set. The running sums and budget defects then advance column by
        column from last's carries, and the run extremes fold the columns,
        each in record order; the newest record becomes last.
        """
        grid, p, dx = self.grid, self.p, self.grid.dx
        block = StateBlock.of(states)
        dts, *flux, newton, retries = zip(*map(_REPORT_COLUMNS, reports))
        terms = record_terms(block, grid, p, self.bnd, ReportArrays.of(reports),
                             self.acc)
        bounds = terms.bounds
        mass = (dx * block.v.sum(axis=-1)).tolist()
        momentum = (dx * block.u.sum(axis=-1)).tolist()
        mom_scale = (dx * bounds.u_abs).tolist()
        w_rate = dissipation_W(block, grid, p, terms).tolist()
        e_entropy = energy_entropy(block, grid, p, terms).tolist()
        energy = p.c_v * block.theta
        energy += terms.kinetic
        energy = (dx * energy.sum(axis=-1)).tolist()
        if self.acc is None:
            repr_max = [None] * len(states)
        else:
            factor = representation_update(self.acc, block, grid, dts, p, terms)
            repr_max = representation_residual(factor, block, grid, p,
                                               terms).max(axis=-1).tolist()
        min_v, max_v = bounds.v_min.tolist(), bounds.v_max.tolist()
        min_th, max_th = bounds.theta_min.tolist(), bounds.theta_max.tolist()
        if min(min_th) < THETA_COLD or max(max_th) > THETA_HOT:
            meas_lo, meas_hi = (m.tolist() for m in level_set_measures(block, grid))
        else:  # the extremes show both sets empty in every record: dx * 0
            meas_lo = meas_hi = [0.0] * len(states)
        slabs = []
        for ints in slab_integrals(block, grid):
            if ints.shape[-1]:
                slabs += [ints.min(axis=-1).tolist(), ints.max(axis=-1).tolist()]
            else:
                slabs += [[math.nan] * len(states)] * 2

        # the carries of the newest record; the t = 0 record starts the sums
        # at zero and measures its budgets against its own totals
        w0, *flux0, mass0, momentum0 = (
            (0.0,) * 5 + (mass[0], momentum[0]) if self.last is None
            else _CARRIES(self.last))
        # running sums, added left to right as a loop adds them
        w_cum = list(accumulate(map(mul, w_rate, dts), initial=w0))[1:]
        cum = [list(accumulate(c, initial=c0))[1:] for c, c0 in zip(flux, flux0)]
        # each record's defect against the record before it (zip stops at
        # the shorter list)
        mass_defect = [abs(m - m0 - f) / max(abs(m0), 1.0) for m, m0, f
                       in zip(mass, [mass0, *mass], flux[0])]
        momentum_defect = [abs(m - m0 - f) / max(1.0, scale) for m, m0, f, scale
                           in zip(momentum, [momentum0, *momentum],
                                  flux[1], mom_scale)]
        # min and max of several arguments fold them left to right
        self.min_v_run = min(self.min_v_run, *min_v)
        self.min_theta_run = min(self.min_theta_run, *min_th)
        self.max_v_run = max(self.max_v_run, *max_v)
        self.max_theta_run = max(self.max_theta_run, *max_th)
        if self.acc is not None:
            # max() would drop a NaN residual; it stays the run's maximum
            peak = [self.max_repr_residual, *repr_max]
            self.max_repr_residual = next(filter(math.isnan, peak), max(peak))
        # one column per field, in DiagnosticsRecord's order
        records = list(map(DiagnosticsRecord, block.t, block.step, dts, newton,
                           retries, e_entropy, w_rate, w_cum, min_v, max_v,
                           min_th, max_th, mass, cum[0], mass_defect, momentum,
                           cum[1], momentum_defect, energy, cum[2], cum[3],
                           meas_lo, meas_hi, *slabs, repr_max))
        self.last = records[-1]
        return records
