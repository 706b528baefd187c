"""Semi-implicit time stepping for the Lagrangian planar-MHD system.

One accepted step advances the state through five sub-stages, each using the
freshest available fields:

  (a) longitudinal velocity: diffusion implicit (tridiagonal), total-pressure
      gradient explicit;
  (b) specific volume: conservative explicit update from the new velocity;
  (c) transverse velocity: diffusion implicit per component, magnetic tension
      explicit;
  (d) transverse magnetic field: diffusion implicit per component, with the
      new specific volume multiplying the time term;
  (e) temperature: fully implicit Newton solve with the conductivity
      relinearized every iteration, fed by the dissipation of stages (a)-(d).

A failed attempt raises one retry signal naming its cause: nonpositive v,
or a temperature solve at its iteration cap, on a singular Jacobian, with an
update that no damping keeps theta positive, or with an iterate that
overflows the conductivity. It is discarded and retried at half the dt, at
most retry_max times per step. Stages (a), (c) and (d) share one implicit
diffusion solve (_diffusion_solve); the attempt differences the new u and w
once, and stages (b), (d) and (e) read those differences. Each attempt
evaluates mu(v) of its new volume once; an accepted step hands the new
state's StateCoeffs (mu(v), mu(v)/v, |b|^2 and the total pressure) to the
next step and to the monitors. Every stage reads the attempt's BoundaryData,
which decides the boundary regime and carries any manufactured-solution
sources; an unforced regime's BoundaryData is built once and shared.
The symmetric, diagonally dominant solves of stages (a), (c) and (d) use
LAPACK ptsv; the Newton Jacobian of stage (e) is not symmetric and uses gtsv.
Both come from scipy's f2py extension scipy.linalg._flapack, loaded from its
file: importing the scipy.linalg package would cost every process about
0.2 s for two routines (see _load_flapack).
Two-component arrays are column-major, as GasState holds b and w, so ptsv
takes and returns them without a transposing copy. The heat flux has one
stencil, over theta padded with the regime's ghosts (heat_flux_stencil).
Interface diffusion coefficients are harmonic means of adjacent cell values;
all other center-to-node transfers are arithmetic means.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Optional

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .constitutive import pressure, viscosity_mu
from .core import (
    FAR_FIELD_B,
    FAR_FIELD_THETA,
    FAR_FIELD_U,
    FAR_FIELD_V,
    BoundaryCondition,
    GasState,
    Grid,
    PhysicalParams,
    sq2,
)


def _load_flapack():
    """scipy's f2py LAPACK extension, scipy.linalg._flapack, loaded from its
    file without running scipy.linalg's package __init__, which imports far
    more than the two routines the solver calls. The module is the one
    scipy.linalg.lapack re-exports, so its routines are the same objects."""
    finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension "
                          f"scipy.linalg._flapack")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv, dptsv = _flapack.dgtsv, _flapack.dptsv


class SolverFailure(RuntimeError):
    """Base for unrecoverable stepping failures; carries the failing time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t = {t:.6g})")
        self.t = t


class PositivityFailure(SolverFailure):
    """Raised when retry_max halvings of dt still produce v <= 0 (the
    temperature solve keeps theta positive by damping its updates)."""


class NewtonDivergence(SolverFailure):
    """Raised when retry_max halvings of dt (or a dt underflow) still leave
    the temperature solve failing: at its iteration cap, on a singular Newton
    Jacobian, with an update no damping keeps positive, or with an iterate
    that overflows the conductivity."""


class _Retry(Exception):
    """A failed step attempt: args are the SolverFailure subclass to raise
    once the halvings run out and the reason it names."""


@dataclass(frozen=True)
class StepControl:
    """Time-step controller and nonlinear-solve settings."""

    cfl: float = 0.4
    dt_min: float = 1e-10
    dt_max: float = 1.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    retry_max: int = 20

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.dt_min > 0.0:
            raise ValueError(f"dt_min must be > 0, got {self.dt_min}")
        if not self.dt_min < self.dt_max:
            raise ValueError(f"need dt_min < dt_max, got {self.dt_min} >= {self.dt_max}")
        if not self.newton_tol > 0.0:
            raise ValueError(f"newton_tol must be > 0, got {self.newton_tol}")
        if not self.newton_max_iter >= 0:
            raise ValueError(f"newton_max_iter must be >= 0, got {self.newton_max_iter}")
        if not self.retry_max >= 0:
            raise ValueError(f"retry_max must be >= 0, got {self.retry_max}")


@dataclass(frozen=True)
class StateCoeffs:
    """Cell coefficients of one state, built by state_coeffs: mu = mu(v),
    mu_over_v = mu(v)/v, b_sq = |b|^2 and ptot the total pressure
    R*theta/v + |b|^2/2. A step reads them as its stage-(a) coefficients and
    its time-step bound; the monitors read them for the same state."""

    mu: np.ndarray
    mu_over_v: np.ndarray
    b_sq: np.ndarray
    ptot: np.ndarray


def state_coeffs(state: GasState, mu: np.ndarray, p: PhysicalParams
                 ) -> StateCoeffs:
    """The StateCoeffs of a state whose viscosity mu = viscosity_mu(state.v, p)
    is already evaluated (a step evaluates it as soon as the new v exists)."""
    b_sq = sq2(state.b)
    ptot = pressure(state.v, state.theta, p)
    ptot += 0.5 * b_sq
    return StateCoeffs(mu=mu, mu_over_v=mu / state.v, b_sq=b_sq, ptot=ptot)


@dataclass
class StepReport:
    """Bookkeeping for one accepted step.

    The *_flux fields are the amounts the boundary terms added to the
    corresponding domain totals during this step (signed).

    coeffs are the state_coeffs of the new state, which the next step and the
    monitors read. dissipation is the stage-(e) heating source per cell
    (dissipation_source of the new state) and heat_flux the diffusive heat
    flux at every node of the new state (heat_flux of its theta and v), both
    with the step's boundary data (a forced step's are the forcing's), so
    the monitors need not compute them again. initial_report gives the
    report of a zero-length step, for a state no step produced.
    """

    dt_used: float
    newton_iterations: int
    retries: int
    coeffs: StateCoeffs = field(repr=False, compare=False)
    mass_flux: float
    momentum_flux: float
    energy_flux: float
    entropy_flux: float
    dissipation: np.ndarray = field(repr=False, compare=False)
    heat_flux: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class BoundaryData:
    """Resolved boundary treatment of one step attempt.

    u_*/w_* are the end nodes' Dirichlet values. The outer values v_g*, th_g*
    and b_g* close the end-node stencils (end_nodes): a far-field or
    manufactured ghost one dx beyond the end center, a left wall's own value
    on its node, or None where a wall holds no value (v on every wall, theta
    on an insulated one). sources holds the manufactured-solution source
    terms at the attempt's time, one array per field ("v", "u", "w", "b",
    "theta") at that field's grid locations, or None for the unforced system.
    Every array it holds is made read-only, so one instance can serve every
    step attempt of a regime.
    """

    left_wall: bool
    u_left: float
    u_right: float
    w_left: np.ndarray
    w_right: np.ndarray
    v_gl: Optional[float]
    v_gr: float
    th_gl: Optional[float]
    th_gr: float
    b_gl: np.ndarray
    b_gr: np.ndarray
    sources: Optional[dict] = None

    def __post_init__(self):
        arrays = [self.w_left, self.w_right, self.b_gl, self.b_gr]
        for arr in arrays + list((self.sources or {}).values()):
            arr.flags.writeable = False


_LEFT_OUTER = {  # (v_gl, th_gl) of each regime, see BoundaryData
    BoundaryCondition.CAUCHY_FAR_FIELD: (FAR_FIELD_V, FAR_FIELD_THETA),
    BoundaryCondition.ISOTHERMAL_WALL_LEFT: (None, FAR_FIELD_THETA),
    BoundaryCondition.INSULATED_WALL_LEFT: (None, None),
}

# the unforced BoundaryData of each regime, which depends on nothing else
_UNFORCED = {bc: BoundaryData(left_wall=bc.has_left_wall,
                              u_left=FAR_FIELD_U, u_right=FAR_FIELD_U,
                              w_left=np.zeros(2), w_right=np.zeros(2),
                              v_gl=v_gl, v_gr=FAR_FIELD_V,
                              th_gl=th_gl, th_gr=FAR_FIELD_THETA,
                              b_gl=np.full(2, FAR_FIELD_B),
                              b_gr=np.full(2, FAR_FIELD_B))
             for bc, (v_gl, th_gl) in _LEFT_OUTER.items()}


def boundary_data(grid: Grid, bc: BoundaryCondition, t: float,
                  forcing=None) -> BoundaryData:
    """The boundary data of the regime, the same instance at every time t, or
    the forcing's own (forcing.boundary_data(grid, t)), which requires the
    Cauchy regime."""
    if forcing is not None:
        if bc is not BoundaryCondition.CAUCHY_FAR_FIELD:
            raise ValueError("manufactured-solution forcing requires the Cauchy regime")
        return forcing.boundary_data(grid, t)
    return _UNFORCED[bc]


def tridiag_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-diagonal dl, diagonal d and
    super-diagonal du (dl and du of length n - 1; one array may be both).

    rhs may have a trailing component axis; the same matrix is applied to
    every column. Calls LAPACK gtsv directly, the routine
    scipy.linalg.solve_banded uses for (1, 1) bands, so the result is bitwise
    the same without building the band array. No input is overwritten. The
    wrapper needs at least two unknowns, as every grid of 4 cells gives.
    """
    _, _, _, x, info = dgtsv(dl, d, du, rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def symmetric_tridiag_solve(d: np.ndarray, e: np.ndarray, rhs: np.ndarray
                            ) -> np.ndarray:
    """Solve the symmetric positive definite tridiagonal system with diagonal
    d and off-diagonal e (length n - 1), as tridiag_solve(e, d, e, rhs) does,
    by LAPACK ptsv (a pivot-free L*D*L^T factorization). Its operations differ
    from gtsv's, so the result agrees with tridiag_solve to round-off, not bit
    for bit; each column of rhs is solved alone. No input is overwritten.
    Raises LinAlgError when the matrix is not positive definite.
    """
    _, _, x, info = dptsv(d, e, rhs)
    if info > 0:
        raise LinAlgError("matrix not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of ptsv")
    return x


def end_nodes(f: np.ndarray, lo, hi, bnd: BoundaryData, dx: float):
    """(mean, gradient) of the cell field f at its left end node, then at its
    right, closed by the outer values lo and hi (see BoundaryData): a ghost g
    gives 0.5*(g + f[0]) and (f[0] - g)/dx, a wall value w 0.5*(w + f[0]) and
    (f[0] - w)/(0.5*dx), None f[0] and 0; on the right, 0.5*(f[-1] + g) and
    (g - f[-1])/dx. The cell axis of f is its first: a transposed view of a
    block of records (cells last) closes every record at once."""
    f0 = f[0]
    if lo is None:
        left = f0, 0.0
    else:
        left = 0.5 * (lo + f0), (f0 - lo) / (0.5 * dx if bnd.left_wall else dx)
    return (*left, 0.5 * (f[-1] + hi), (hi - f[-1]) / dx)


def b_gradient(b: np.ndarray, bnd: BoundaryData, dx: float) -> np.ndarray:
    """Transverse-field gradient at every node, closed per end_nodes."""
    m = b.shape[0]
    bx = np.empty((m + 1,) + b.shape[1:], order="F")
    np.subtract(b[1:], b[:-1], out=bx[1:-1])
    bx[1:-1] /= dx
    _, bx[0], _, bx[-1] = end_nodes(b, bnd.b_gl, bnd.b_gr, bnd, dx)
    return bx


def _padded(f: np.ndarray, lo, hi) -> np.ndarray:
    """The field f between the values lo and hi along its first axis (two
    more rows), column-major."""
    out = np.empty((f.shape[0] + 2,) + f.shape[1:], order="F")
    out[0], out[1:-1], out[-1] = lo, f, hi
    return out


def padded_k_over_v(v: np.ndarray, p: PhysicalParams, bnd: BoundaryData
                    ) -> np.ndarray:
    """kappa_tilde / v per cell between the ghosts of heat_flux_stencil: that
    of v_gl and v_gr, or zero on a wall, where no heat crosses an insulated
    one and the stencil sets the isothermal one's node flux itself."""
    out = np.empty(v.shape[0] + 2)
    np.divide(p.kappa_tilde, v, out=out[1:-1])
    out[0] = 0.0 if bnd.v_gl is None else p.kappa_tilde / bnd.v_gl
    out[-1] = p.kappa_tilde / bnd.v_gr
    return out


def heat_flux_stencil(theta: np.ndarray, k_over_v: np.ndarray, dx: float,
                      p: PhysicalParams, bnd: BoundaryData):
    """Diffusive heat flux kappa(theta) * theta_x / v at every node, with
    k_over_v = padded_k_over_v(v, p, bnd), and a function bands(frozen) for
    the Newton Jacobian.

    theta is padded with a ghost at each end (th_gl, or theta[0] on an
    insulated wall, and th_gr), so the flux at all M + 1 nodes is one slice
    expression: the harmonic mean of the cell values a = kappa(theta)/v on
    either side times the difference quotient. An insulated wall's ghost has
    a = 0, so its flux and derivatives vanish. The one fix-up is the
    isothermal wall, whose th_gl sits on the node half a cell away.

    bands returns the (sub, main, super) diagonals of the derivative of the
    flux divergence -(H[1:] - H[:-1]) / dx with respect to theta, from the
    flux's own coefficients; the conductivity's derivative is beta*a/theta
    for the cell value a, so no second power is taken. frozen=True drops the
    conductivity-derivative terms (Picard linearization).
    """
    th = _padded(theta, theta[0] if bnd.th_gl is None else bnd.th_gl, bnd.th_gr)
    # k_over_v * th**beta, 2 * a[:-1] * a[1:] / a_sum and c * (dth / dx),
    # each evaluated in place in that order of operations
    a = th ** p.beta
    a *= k_over_v
    a_sum = a[:-1] + a[1:]
    c = a[:-1] * 2.0
    c *= a[1:]
    c /= a_sum
    H = th[1:] - th[:-1]
    H /= dx
    H *= c
    isothermal = bnd.left_wall and bnd.th_gl is not None
    if isothermal:
        th_mid = 0.5 * (theta[0] + bnd.th_gl)
        c_l = k_over_v[1] * th_mid ** p.beta
        H[0] = c_l * (theta[0] - bnd.th_gl) / (0.5 * dx)

    def bands(frozen: bool):
        # hi, lo: dH_j/dtheta of the cell right of node j (nodes 0..M-1) and
        # left of it (nodes 1..M), over dx. A harmonic mean c(x, y) has dc/dx
        # = c y / (x (x + y)) and da/dtheta = beta a / theta, so the term of
        # the left cell's conductance is H_j y beta / ((x + y) theta).
        c_dd = c / (dx * dx)
        if frozen:
            hi, lo = c_dd[:-1], -c_dd[1:]
        else:
            bt = p.beta / th
            g = a_sum * dx
            np.divide(H, g, out=g)
            hi = g[:-1] * a[:-2]
            hi *= bt[1:-1]
            hi += c_dd[:-1]
            lo = g[1:] * a[2:]
            lo *= bt[1:-1]
            lo -= c_dd[1:]
        if isothermal:  # the conductance of th_mid, half a cell away
            hi[0] = (c_l / (0.5 * dx) + (
                0.0 if frozen else H[0] * p.beta / (2.0 * th_mid))) / dx
        return lo[:-1], hi - lo, -hi[1:]

    return H, bands


def heat_flux(theta: np.ndarray, v: np.ndarray, dx: float, p: PhysicalParams,
              bnd: BoundaryData) -> np.ndarray:
    """Diffusive heat flux kappa(theta) * theta_x / v at every node."""
    return heat_flux_stencil(theta, padded_k_over_v(v, p, bnd), dx, p, bnd)[0]


def compute_dt(state: GasState, b_sq: np.ndarray, grid: Grid,
               p: PhysicalParams, ctl: StepControl) -> float:
    """Hyperbolic time-step bound; diffusion is implicit and does not restrict dt.

    Per-cell Lagrangian fast magnetosonic speed sqrt(gamma*P*v + v*|b|^2) / v,
    with b_sq = |b|^2 of the state, and the far-field signal speed as a floor,
    then clamped to [dt_min, dt_max].
    """
    s = p.gamma * p.R * state.theta
    s += state.v * b_sq
    np.sqrt(s, out=s)
    s /= state.v
    s_far = math.sqrt(p.gamma * p.R * FAR_FIELD_THETA * FAR_FIELD_V) / FAR_FIELD_V
    s_max = max(float(s.max()), s_far)
    return float(min(max(ctl.cfl * grid.dx / s_max, ctl.dt_min), ctl.dt_max))


def _diffusion_solve(mass, a: np.ndarray, r: float, rhs: np.ndarray, left,
                     right) -> np.ndarray:
    """The n unknowns x of the implicit diffusion solve
    mass*x_i - r*(a_{i+1}*(x_{i+1} - x_i) - a_i*(x_i - x_{i-1})) = rhs_i,
    with the n + 1 coefficients a around the unknowns and the outer values
    x_{-1} = left and x_n = right. rhs is modified in place."""
    rhs[0] += r * a[0] * left
    rhs[-1] += r * a[-1] * right
    d = a[1:] + a[:-1]
    d *= r
    d += mass
    return symmetric_tridiag_solve(d, a[1:-1] * -r, rhs)


def substep_velocity(state: GasState, grid: Grid, dt: float,
                     bnd: BoundaryData, coeffs: StateCoeffs) -> np.ndarray:
    """Stage (a): implicit viscous solve for u with explicit total-pressure
    gradient; coeffs are the state_coeffs of the stage-begin state."""
    g = coeffs.ptot
    rhs = g[1:] - g[:-1]
    rhs *= dt / grid.dx
    np.subtract(state.u[1:-1], rhs, out=rhs)
    if bnd.sources is not None:
        rhs += dt * bnd.sources["u"][1:-1]
    u = _diffusion_solve(1.0, coeffs.mu_over_v, dt / grid.dx ** 2, rhs,
                         bnd.u_left, bnd.u_right)
    return _padded(u, bnd.u_left, bnd.u_right)


def substep_volume(state: GasState, du: np.ndarray, grid: Grid, dt: float,
                   bnd: BoundaryData) -> np.ndarray:
    """Stage (b): conservative volume update v += dt * u_x, with
    du = u_new[1:] - u_new[:-1] of stage (a)."""
    v_new = du * dt
    v_new /= grid.dx
    v_new += state.v
    if bnd.sources is not None:
        v_new += dt * bnd.sources["v"]
    return v_new


def substep_transverse(state: GasState, v_new: np.ndarray, grid: Grid,
                       p: PhysicalParams, dt: float, bnd: BoundaryData
                       ) -> np.ndarray:
    """Stage (c): implicit transverse-velocity solve, magnetic tension b_x
    explicit from stage-begin b. Both components share one matrix."""
    dx = grid.dx
    rhs = state.b[1:] - state.b[:-1]
    rhs *= dt / dx
    rhs += state.w[1:-1]
    if bnd.sources is not None:  # in place keeps rhs column-major
        rhs += dt * bnd.sources["w"][1:-1]
    w = _diffusion_solve(1.0, p.lam / v_new, dt / dx ** 2, rhs, bnd.w_left,
                         bnd.w_right)
    return _padded(w, bnd.w_left, bnd.w_right)


def induction_coeffs(v_new: np.ndarray, p: PhysicalParams, bnd: BoundaryData
                     ) -> np.ndarray:
    """Magnetic diffusion coefficient nu/v at nodes (harmonic interface mean),
    closed by the ghosts v_gl and v_gr, or on a wall by the first cell."""
    v = _padded(v_new, v_new[0] if bnd.v_gl is None else bnd.v_gl, bnd.v_gr)
    v_sum = v[:-1] + v[1:]
    return np.divide(2.0 * p.nu, v_sum, out=v_sum)


def substep_induction(state: GasState, v_new: np.ndarray, dw: np.ndarray,
                      grid: Grid, p: PhysicalParams, dt: float,
                      bnd: BoundaryData) -> np.ndarray:
    """Stage (d): implicit induction solve for b; the stage-(b) volume
    multiplies the time term, dw = w_new[1:] - w_new[:-1] of stage (c)."""
    dx = grid.dx
    d = induction_coeffs(v_new, p, bnd)
    if bnd.left_wall:
        # Dirichlet b = 0 at the wall node, half a cell from the first center.
        d[0] *= 2.0
    rhs = dw * (dt / dx)
    rhs += state.v[:, None] * state.b
    if bnd.sources is not None:  # in place keeps rhs column-major
        rhs += dt * bnd.sources["b"]
    return _diffusion_solve(v_new, d, dt / dx ** 2, rhs, bnd.b_gl, bnd.b_gr)


def dissipation_source(v: np.ndarray, mu: np.ndarray, ux: np.ndarray,
                       wx: np.ndarray, b: np.ndarray, grid: Grid,
                       p: PhysicalParams, bnd: BoundaryData) -> np.ndarray:
    """Nonnegative viscous/resistive heating per cell,
    (mu(v)*u_x^2 + lam*|w_x|^2 + nu*|b_x|^2) / v, with mu = mu(v), the cell
    gradients ux = (u[1:] - u[:-1]) / dx and wx = (w[1:] - w[:-1]) / dx,
    and |b_x|^2 averaged from the adjacent nodes."""
    bx_sq = sq2(b_gradient(b, bnd, grid.dx))
    q = ux * ux
    q *= mu
    term = sq2(wx)
    term *= p.lam
    q += term
    term = bx_sq[:-1] + bx_sq[1:]
    term *= 0.5
    term *= p.nu
    q += term
    q /= v
    return q


def substep_temperature(state: GasState, v_new: np.ndarray, du: np.ndarray,
                        dw: np.ndarray, b_new: np.ndarray, mu_new: np.ndarray,
                        grid: Grid, p: PhysicalParams, ctl: StepControl,
                        dt: float, bnd: BoundaryData):
    """Stage (e): fully implicit temperature solve by Newton iteration;
    du and dw are the node differences of the new u and w, mu_new is
    viscosity_mu of v_new.

    Solves c_v*theta_t + (R*theta/v)*u_x = (kappa(theta)*theta_x/v)_x + Q with
    the compression term implicit in theta and Q the stage dissipation. The
    conductivity is relinearized each iteration (full beta*theta**(beta-1)
    derivative); if the residual fails to decrease three times in a row the
    Jacobian falls back to the frozen-coefficient (Picard) form. Each iterate
    evaluates the heat flux once (heat_flux_stencil), for the residual and
    the Jacobian alike; kappa_tilde / v, the diagonal base c_v/dt + R*u_x/v
    and the residual's theta-free part are evaluated once per stage.

    Returns (theta, number of Newton updates taken, Q, H) where H is the heat
    flux at the returned theta: the last iterate's, or evaluated once more
    when the last update moved theta past it. The returned theta is positive
    whenever the stage-begin theta is: it is either an iterate that met the
    residual test or one reached by an update damped until theta + delta > 0.

    Raises _Retry naming the cause when the iteration cap is reached without
    meeting the tolerance, when the Newton Jacobian is singular, when 60
    halvings of an update still leave theta nonpositive, or when an iterate
    overflows or makes an invalid value (the loop runs under np.errstate, so
    no NaN iterate runs on to the cap).
    """
    dx = grid.dx
    ux = du / dx
    q = dissipation_source(v_new, mu_new, ux, dw / dx, b_new, grid, p, bnd)
    k_over_v = padded_k_over_v(v_new, p, bnd)
    base = ux * p.R
    base /= v_new
    base += p.c_v / dt
    # the residual is theta * base - (H[1:] - H[:-1]) / dx - known
    known = state.theta * p.c_v
    known /= dt
    known += q
    if bnd.sources is not None:
        known += bnd.sources["theta"]

    theta = state.theta.copy()
    picard = False
    stall = 0
    prev_norm = math.inf
    try:
        with np.errstate(over="raise", invalid="raise"):
            for it in range(ctl.newton_max_iter + 1):
                h, bands = heat_flux_stencil(theta, k_over_v, dx, p, bnd)
                div = h[1:] - h[:-1]
                div /= dx
                neg_f = theta * base
                neg_f -= div
                np.subtract(known, neg_f, out=neg_f)  # minus residual
                # max norms as max(x.max(), -x.min()): no |x| array is formed
                fnorm = max(float(neg_f.max()), -float(neg_f.min()))
                scale = max(1.0, float(theta.max()))
                if fnorm <= ctl.newton_tol * p.c_v * scale / dt:
                    break
                if it == ctl.newton_max_iter:
                    raise _Retry(NewtonDivergence, f"temperature solve exceeded "
                                 f"{ctl.newton_max_iter} iterations")
                if fnorm >= prev_norm:
                    stall += 1
                    if stall >= 3:
                        picard = True
                else:
                    stall = 0
                prev_norm = fnorm

                lower, main, upper = bands(frozen=picard)
                main += base
                try:
                    delta = tridiag_solve(lower, main, upper, neg_f)
                except LinAlgError:
                    raise _Retry(NewtonDivergence, "temperature solve met a "
                                 "singular Newton Jacobian") from None

                # Damp the update rather than clip: theta must stay positive
                # for the conductivity to be evaluable at the next iterate.
                # fmin skips NaN, as the test trial <= 0.0 does entry by entry.
                guard = 0
                trial = theta + delta
                while np.fmin.reduce(trial) <= 0.0:
                    delta *= 0.5
                    guard += 1
                    if guard > 60:
                        raise _Retry(NewtonDivergence, "temperature solve could "
                                     "not damp an update to keep theta positive")
                    trial = theta + delta
                theta = trial
                if max(float(delta.max()),
                       -float(delta.min())) <= ctl.newton_tol * scale:
                    it, h = it + 1, heat_flux_stencil(theta, k_over_v, dx, p, bnd)[0]
                    break
    except FloatingPointError:
        raise _Retry(NewtonDivergence, "temperature iterate overflowed the "
                     "conductivity") from None
    return theta, it, q, h


def boundary_report(new: GasState, grid: Grid, p: PhysicalParams,
                    bnd: BoundaryData, dt: float, old: StateCoeffs,
                    coeffs: StateCoeffs, h: np.ndarray
                    ) -> tuple[float, float, float, float]:
    """Boundary flux totals (mass, momentum, total energy, entropy budget)
    added to the domain during this step.

    old are the stage-(a) coefficients of the old state, coeffs those of the
    new state and h its heat flux. Mass and momentum reproduce the telescoped
    sums of stages (b) and (a) exactly; the energy and entropy terms are
    second-order monitors. Each end's arithmetic runs on Python floats; its
    2-vector dot products stay numpy @, whose rounding can differ from
    x0*y0 + x1*y1.
    """
    dx = grid.dx
    u_new, w_new = new.u, new.w
    v_l, _, v_r, _ = end_nodes(new.v, bnd.v_gl, bnd.v_gr, bnd, dx)
    th_l, _, th_r, _ = end_nodes(new.theta, bnd.th_gl, bnd.th_gr, bnd, dx)
    b_l, bx_l, b_r, bx_r = end_nodes(new.b, bnd.b_gl, bnd.b_gr, bnd, dx)
    if bnd.left_wall:
        # The wall node holds the wall's own b, and theta where it fixes one.
        b_l = bnd.b_gl
        th_l = th_l if bnd.th_gl is None else bnd.th_gl

    def end(c, j, v_node, th_node, b_node, bx):
        """Stress, energy flux and entropy flux at node j of end cell c."""
        v_node, th_node, hj = float(v_node), float(th_node), float(h[j])
        u, w = float(u_new[j]), w_new[j]
        ux = float(u_new[c + 1] - u_new[c]) / dx
        wx = (w_new[c + 1] - w_new[c]) / dx
        g_node = p.R * th_node / v_node + 0.5 * float(b_node @ b_node)
        visc = float(coeffs.mu_over_v[c]) * u * ux
        wvisc = p.lam / float(new.v[c]) * float(w @ wx)
        wb = float(w @ b_node)
        bxb = float(b_node @ (p.nu / v_node * bx))
        phi = u * g_node - wb - hj - visc - wvisc - bxb
        bf = ((1.0 - 1.0 / th_node) * hj + bxb + visc + wvisc - u * g_node
              + p.R * u + wb)
        return float(old.mu_over_v[c]) * ux - float(old.ptot[c]), phi, bf

    m = grid.cells
    stress_l, phi_l, bf_l = end(0, 0, v_l, th_l, b_l, bx_l)
    stress_r, phi_r, bf_r = end(m - 1, m, v_r, th_r, b_r, bx_r)
    return (dt * float(u_new[-1] - u_new[0]), dt * (stress_r - stress_l),
            dt * (phi_l - phi_r), dt * (bf_r - bf_l))


def step(state: GasState, grid: Grid, p: PhysicalParams, bc: BoundaryCondition,
         ctl: StepControl, coeffs: StateCoeffs, forcing=None,
         dt_cap: float | None = None) -> tuple[GasState, StepReport]:
    """Advance one accepted step; coeffs are the state_coeffs of state (the
    previous step's report.coeffs).

    The proposed dt comes from compute_dt, optionally capped (used by
    run_until to land exactly on the end time). An attempt that produces
    nonpositive v, or whose temperature solve fails, is discarded and retried
    at half the step; the temperature solve keeps theta positive itself.

    Raises, when the attempt after retry_max halvings fails too or a halving
    takes dt below dt_min, PositivityFailure if that attempt produced
    nonpositive v and NewtonDivergence if its temperature solve failed.
    """
    dt = compute_dt(state, coeffs.b_sq, grid, p, ctl)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    retries = 0

    while True:
        t_new = state.t + dt
        bnd = boundary_data(grid, bc, t_new, forcing)
        try:
            u_new = substep_velocity(state, grid, dt, bnd, coeffs)
            du = u_new[1:] - u_new[:-1]
            v_new = substep_volume(state, du, grid, dt, bnd)
            if not v_new.min() > 0.0:  # NaN fails it, as v_new > 0.0 does
                raise _Retry(PositivityFailure, "state stayed nonpositive")
            mu_new = viscosity_mu(v_new, p)
            w_new = substep_transverse(state, v_new, grid, p, dt, bnd)
            dw = w_new[1:] - w_new[:-1]
            b_new = substep_induction(state, v_new, dw, grid, p, dt, bnd)
            theta_new, iters, q, h = substep_temperature(
                state, v_new, du, dw, b_new, mu_new, grid, p, ctl, dt, bnd)
        except _Retry as exc:
            failure, what = exc.args
            retries += 1
            if retries > ctl.retry_max:
                raise failure(f"{what} after {ctl.retry_max} dt halvings",
                              state.t) from None
            dt *= 0.5
            if dt < ctl.dt_min:
                raise failure(f"{what}; dt halved below dt_min = {ctl.dt_min}",
                              state.t) from None
            continue
        break

    new_state = GasState(v=v_new, theta=theta_new, b=b_new, u=u_new, w=w_new,
                         t=t_new, step=state.step + 1)
    new_coeffs = state_coeffs(new_state, mu_new, p)
    fluxes = boundary_report(new_state, grid, p, bnd, dt, coeffs, new_coeffs, h)
    report = StepReport(dt_used=dt, newton_iterations=iters, retries=retries,
                        coeffs=new_coeffs,
                        mass_flux=fluxes[0], momentum_flux=fluxes[1],
                        energy_flux=fluxes[2], entropy_flux=fluxes[3],
                        dissipation=q, heat_flux=h)
    return new_state, report


def initial_report(state: GasState, grid: Grid, p: PhysicalParams,
                   bnd: BoundaryData) -> StepReport:
    """The StepReport of a zero-length step ending at state (dt 0, no Newton
    updates, retries or boundary fluxes), with the state's coefficients,
    dissipation and heat flux under bnd; the state is validated first."""
    state.validate(grid)
    coeffs = state_coeffs(state, viscosity_mu(state.v, p), p)
    dx = grid.dx
    ux = (state.u[1:] - state.u[:-1]) / dx
    wx = (state.w[1:] - state.w[:-1]) / dx
    q = dissipation_source(state.v, coeffs.mu, ux, wx, state.b, grid, p, bnd)
    return StepReport(dt_used=0.0, newton_iterations=0, retries=0, coeffs=coeffs,
                      mass_flux=0.0, momentum_flux=0.0, energy_flux=0.0,
                      entropy_flux=0.0, dissipation=q,
                      heat_flux=heat_flux(state.theta, state.v, dx, p, bnd))


def run_until(state: GasState, grid: Grid, t_end: float, p: PhysicalParams,
              bc: BoundaryCondition, ctl: StepControl, sink=None,
              forcing=None) -> GasState:
    """Step repeatedly until t_end, invoking sink(state, report) after each
    accepted step, and hand each step's report.coeffs to the next. The final
    step is shortened to land exactly on t_end; a state within round-off of
    t_end is returned as a copy at t_end, so no state handed out or passed in
    is edited."""
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} is before state time {state.t}")
    snap_tol = 1e-12 * max(1.0, abs(t_end))
    coeffs = state_coeffs(state, viscosity_mu(state.v, p), p)
    while t_end - state.t > snap_tol:
        state, report = step(state, grid, p, bc, ctl, coeffs, forcing=forcing,
                             dt_cap=t_end - state.t)
        coeffs = report.coeffs
        if sink is not None:
            sink(state, report)
    if state.t != t_end and abs(state.t - t_end) <= snap_tol:
        state = replace(state, t=t_end)
    return state
