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
  (e) temperature: fully implicit Newton solve, with the heat flux taken in
      the Kirchhoff variable phi = theta**(beta+1)/(beta+1), fed by the
      dissipation of stages (a)-(d).

attempt runs the five stages once at a dt its caller fixes and never
changes it. A failed attempt raises one retry signal naming its cause:
nonpositive v, or a temperature solve at its iteration cap, on a Newton
matrix that is not positive definite, with an update that no damping keeps
theta positive, or with an iterate that overflows the conductivity. step is
the one dt controller and
holds the whole retry policy: it proposes dt (compute_dt, capped), and
discards a failed attempt and retries at half the dt, at most retry_max
times per step. Stages (a), (c) and (d) share one implicit diffusion solve
(_diffusion_solve); the attempt differences the new u and w once, and
stages (b), (d) and (e) read those differences. Each attempt evaluates
mu(v) of its new volume once. A run is a chain of (state, StepReport)
pairs: each step starts from the report of the step that produced its state
(initial_report for a state no step produced), and reads there the state's
StateCoeffs (mu(v)/v, |b|^2 and the total pressure) and the Kirchhoff terms
of its theta; the monitors read the same report. A run's regime is one
argument, bc: a BoundaryCondition, or a forcing (verification.MmsForcing)
that builds each attempt's data. Every stage reads the attempt's
BoundaryData, which decides the boundary treatment and carries any
manufactured-solution sources; an unforced regime's BoundaryData is built
once and shared. A report names the BoundaryData its arrays were formed
under, and a step reuses its Kirchhoff terms only under that same data.
Each attempt decides once, by the rule initial_report uses too, whether it
carries a transverse field: it does not when its BoundaryData brings none
(BoundaryData.transverse: zero transverse end values and no sources) and
its state holds no nonzero w or b, and the planar system then reduces to the
compressible Navier-Stokes one. Such an attempt skips stages (c) and (d),
and w and b come out as +0.0 arrays. Its dw is then None, and the
dissipation and the boundary report, which read the decision from it, skip
their transverse terms. The new state's coefficients carry the decision on:
their b_sq is None (state_coeffs' transverse), so the monitors skip their
transverse terms and the next step, which reads them from the report, knows
its state is quiet and scans no w or b. The skips are exact:
the stages' right-hand sides are sums and products of zeros, so each solves
for +0.0 (a -0.0 in the state becomes +0.0 too), and each skipped term is a
+0.0 added to a value that is never -0.0.
The symmetric, diagonally dominant solves of stages (a), (c) and (d) and
the symmetric positive definite Newton matrix of stage (e), in the unknown
dphi, all use LAPACK ptsv (symmetric_tridiag_solve), from scipy's f2py
extension scipy.linalg._flapack, loaded from its file: importing the
scipy.linalg package would cost every process about 0.2 s for one routine
(see _load_flapack).
Two-component arrays are column-major, as GasState holds b and w, so ptsv
takes and returns them without a transposing copy. The heat flux has one
stencil, linear in phi over theta padded with the regime's ghosts
(heat_flux_stencil), with the conductance face_conductance.
Interface diffusion coefficients and the heat conductance are harmonic means
of adjacent cell values of c/v; all other center-to-node transfers are
arithmetic means.
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
    more than the one routine the solver calls. The module is the one
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


dptsv = _load_flapack().dptsv


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
    the temperature solve failing: at its iteration cap, on a Newton matrix
    that is not positive definite, with an update no damping keeps positive,
    or with an iterate that overflows the conductivity."""


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
    """Cell coefficients of one state, built by state_coeffs: mu_over_v =
    mu(v)/v, b_sq = |b|^2 and ptot the total pressure R*theta/v + |b|^2/2.
    A step reads them as its stage-(a) coefficients and its time-step bound;
    the monitors read them for the same state. mu(v) itself is not kept: the
    step that evaluates it hands it to the stages that read it.

    b_sq is None for a state with no transverse field (w and b +0.0 arrays):
    the one mark of that state that a step, run_until and the monitors read.
    They then skip every transverse term and scan neither w nor b."""

    mu_over_v: np.ndarray
    b_sq: Optional[np.ndarray]
    ptot: np.ndarray


def state_coeffs(state: GasState, mu: np.ndarray, p: PhysicalParams,
                 transverse: bool = True) -> StateCoeffs:
    """The StateCoeffs of a state whose viscosity mu = viscosity_mu(state.v, p)
    is already evaluated (a step evaluates it as soon as the new v exists).
    transverse=False, for a state with no transverse field, gives b_sq None
    without squaring b and leaves |b|^2 out of the (positive) pressure."""
    ptot = pressure(state.v, state.theta, p)
    b_sq = None
    if transverse:
        b_sq = sq2(state.b)
        ptot += 0.5 * b_sq
    return StateCoeffs(mu_over_v=mu / state.v, b_sq=b_sq, ptot=ptot)


@dataclass
class StepReport:
    """Bookkeeping for one accepted step.

    The *_flux fields are the amounts the boundary terms added to the
    corresponding domain totals during this step (signed).

    The next step takes the whole report (step, attempt) and the monitors
    read it. coeffs are the state_coeffs of the new state. bnd is the
    BoundaryData the step ran under, and dissipation, heat_flux and
    kirchhoff were formed under it (a forced step's are the forcing's), so
    the monitors need not compute them again: dissipation is the stage-(e)
    heating source per cell (dissipation_source of the new state) and
    heat_flux the diffusive heat flux at every node of the new state
    (heat_flux of its theta and v). kirchhoff are the Kirchhoff terms of the
    new theta that the step's last heat_flux_stencil formed: theta**beta and
    theta**(beta+1) over the theta padded with bnd's ghosts, which the next
    step's first Newton iterate reads when it runs under bnd itself.
    initial_report gives the report of a zero-length step, for a state no
    step produced. coeffs.b_sq None marks a new state with no transverse
    field (see StateCoeffs).
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
    kirchhoff: tuple = field(repr=False, compare=False)
    bnd: BoundaryData = field(repr=False, compare=False)


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
    step attempt of a regime. transverse, worked out at construction, tells
    whether the data can put a transverse field into a state that holds none:
    a nonzero w_left, w_right, b_gl or b_gr, or any sources.
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
    transverse: bool = field(init=False)

    def __post_init__(self):
        arrays = [self.w_left, self.w_right, self.b_gl, self.b_gr]
        for arr in arrays + list((self.sources or {}).values()):
            arr.flags.writeable = False
        object.__setattr__(self, "transverse", self.sources is not None
                           or any(arr.any() for arr in arrays))


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


def boundary_data(grid: Grid, bc, t: float) -> BoundaryData:
    """The boundary data of the regime bc at time t: a BoundaryCondition's
    unforced data, the same instance at every t, or a forcing's own
    (bc.boundary_data(grid, t))."""
    if isinstance(bc, BoundaryCondition):
        return _UNFORCED[bc]
    return bc.boundary_data(grid, t)


def symmetric_tridiag_solve(d: np.ndarray, e: np.ndarray, rhs: np.ndarray
                            ) -> np.ndarray:
    """Solve the symmetric positive definite tridiagonal system with diagonal
    d and off-diagonal e (length n - 1) by LAPACK ptsv (a pivot-free L*D*L^T
    factorization). rhs may have a trailing component axis; each column is
    solved alone. No input is overwritten. Raises LinAlgError when the
    matrix is not positive definite.
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


def _node_harmonic(c: float, v: np.ndarray, bnd: BoundaryData) -> np.ndarray:
    """c / v at every node, the harmonic mean 2c / (v_l + v_r) of the cells
    on either side, closed by the ghosts v_gl and v_gr, or on a wall by the
    first cell."""
    v = _padded(v, v[0] if bnd.v_gl is None else bnd.v_gl, bnd.v_gr)
    v_sum = v[:-1] + v[1:]
    return np.divide(2.0 * c, v_sum, out=v_sum)


def face_conductance(v: np.ndarray, p: PhysicalParams, bnd: BoundaryData
                     ) -> np.ndarray:
    """The conductance K of heat_flux_stencil at every node: the harmonic
    mean of kappa_tilde / v of the cells on either side, closed as
    induction_coeffs closes it; 0 on an insulated wall, and on an isothermal
    wall 2 * kappa_tilde / v[0], since its theta sits on the node, half a
    cell from the first center."""
    k = _node_harmonic(p.kappa_tilde, v, bnd)
    if bnd.left_wall:
        k[0] = 0.0 if bnd.th_gl is None else 2.0 * k[0]
    return k


def heat_flux_stencil(theta: np.ndarray, k: np.ndarray, dx: float,
                      p: PhysicalParams, bnd: BoundaryData, kirchhoff=None):
    """Diffusive heat flux kappa(theta) * theta_x / v at every node, with
    k = face_conductance(v, p, bnd), and the Kirchhoff terms of theta: the
    pair (theta**beta, theta**(beta+1)) over theta padded with its ghosts.
    kirchhoff, if given, are those terms of this theta under this bnd, from
    an earlier evaluation, and are used instead of being formed again.

    The flux is taken in the Kirchhoff variable phi = theta**(beta+1) /
    (beta+1), in which kappa_tilde * theta**beta * theta_x / v =
    (kappa_tilde / v) * phi_x: the flux at node j is k_j * (phi_{j+1} -
    phi_j) / dx over theta padded with a ghost at each end (th_gl, or
    theta[0] on an insulated wall, and th_gr), one slice expression at all
    M + 1 nodes; k holds each wall's closure, so no node needs a fix-up. The
    flux has the sign of the theta difference, so the dissipation W stays
    nonnegative. It is linear in phi, so its derivative with respect to
    theta is the k-Laplacian times diag(theta**beta), theta**beta read off
    the returned terms (see substep_temperature).
    """
    if kirchhoff is None:
        th = _padded(theta, theta[0] if bnd.th_gl is None else bnd.th_gl, bnd.th_gr)
        th_beta = th ** p.beta
        kirchhoff = th_beta, th_beta * th
    phi = kirchhoff[1]
    h = phi[1:] - phi[:-1]
    h *= k
    h /= dx * (p.beta + 1.0)
    return h, kirchhoff


def heat_flux(theta: np.ndarray, v: np.ndarray, dx: float, p: PhysicalParams,
              bnd: BoundaryData) -> np.ndarray:
    """Diffusive heat flux kappa(theta) * theta_x / v at every node."""
    return heat_flux_stencil(theta, face_conductance(v, p, bnd), dx, p, bnd)[0]


def compute_dt(state: GasState, b_sq: Optional[np.ndarray], grid: Grid,
               p: PhysicalParams, ctl: StepControl) -> float:
    """Hyperbolic time-step bound; diffusion is implicit and does not restrict dt.

    Per-cell Lagrangian fast magnetosonic speed sqrt(gamma*P*v + v*|b|^2) / v,
    with b_sq = |b|^2 of the state, and the far-field signal speed as a floor,
    then clamped to [dt_min, dt_max]. b_sq None, for a state with no
    transverse field, leaves out the term v*|b|^2, a +0.0 added to a
    positive value.
    """
    s = p.gamma * p.R * state.theta
    if b_sq is not None:
        s += state.v * b_sq
    np.sqrt(s, out=s)
    s /= state.v
    s_far = math.sqrt(p.gamma * p.R * FAR_FIELD_THETA * FAR_FIELD_V) / FAR_FIELD_V
    s_max = max(float(np.maximum.reduce(s)), s_far)
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
    return _node_harmonic(p.nu, v_new, bnd)


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
                       wx: Optional[np.ndarray], b: np.ndarray, grid: Grid,
                       p: PhysicalParams, bnd: BoundaryData) -> np.ndarray:
    """Nonnegative viscous/resistive heating per cell,
    (mu(v)*u_x^2 + lam*|w_x|^2 + nu*|b_x|^2) / v, with mu = mu(v), the cell
    gradients ux = (u[1:] - u[:-1]) / dx and wx = (w[1:] - w[:-1]) / dx,
    and |b_x|^2 averaged from the adjacent nodes. wx None, for w, b and bnd
    with no transverse field, reads no b and gives mu(v)*u_x^2 / v: the two
    terms it skips add +0.0 to mu(v)*u_x^2."""
    q = ux * ux
    q *= mu
    if wx is not None:
        bx_sq = sq2(b_gradient(b, bnd, grid.dx))
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
                        dt: float, bnd: BoundaryData, kirchhoff=None):
    """Stage (e): fully implicit temperature solve by Newton iteration;
    du and dw are the node differences of the new u and w, mu_new is
    viscosity_mu of v_new. dw is None on an attempt that carries no
    transverse field (see attempt), whose dissipation then skips the
    transverse terms. kirchhoff, if given, are the Kirchhoff terms of
    state.theta under bnd (heat_flux_stencil), which the first iterate,
    state.theta itself, then does not form again.

    Solves c_v*theta_t + (R*theta/v)*u_x = (kappa(theta)*theta_x/v)_x + Q with
    the compression term implicit in theta and Q the stage dissipation. The
    residual is F = base*theta - (H[1:] - H[:-1])/dx - known, with base =
    c_v/dt + R*u_x/v, and the heat flux H is linear in phi (see
    heat_flux_stencil), so its Jacobian is base + L*diag(theta**beta) with L
    the k-Laplacian. Each Newton update solves the symmetric system
    (base/theta**beta + L) dphi = -F (symmetric_tridiag_solve) and takes
    delta = dphi/theta**beta. The conductance k, L, base and the residual's
    theta-free part are built once per stage. Each pass of the loop evaluates
    the heat flux of its iterate once, at one site (heat_flux_stencil), for
    the residual and the matrix alike, and both stops come right after it.

    Returns (theta, number of Newton updates taken, Q, H, kirchhoff) where H
    is the heat flux at the returned theta and kirchhoff its Kirchhoff terms,
    both from the last pass's evaluation. The returned theta is positive
    whenever the stage-begin theta is, since each update is damped, in at
    most 61 trials, until theta + delta > 0. It is an iterate that met the
    residual test, or one reached by an undamped update below the update
    tolerance: a damped update is small because it was damped. Such an
    update sets a flag, and the next pass stops on it after forming the
    flux and before the residual.

    Raises _Retry naming the cause when the iteration cap is reached without
    meeting the tolerance, when the matrix is not positive definite (base <=
    0 somewhere), when none of 61 trials (60 halvings) of an update keeps
    theta positive, or when an iterate overflows, divides by an underflowed
    theta**beta or makes an invalid value (the loop runs under np.errstate,
    so no such iterate runs on to the cap).
    """
    dx = grid.dx
    ux = du / dx
    wx = None if dw is None else dw / dx
    q = dissipation_source(v_new, mu_new, ux, wx, b_new, grid, p, bnd)
    k = face_conductance(v_new, p, bnd)
    # L has the diagonal lap[:-1] + lap[1:] and the off-diagonal -lap[1:-1]
    lap = k / (dx * dx)
    lap_main, lap_off = lap[:-1] + lap[1:], -lap[1:-1]
    base = ux * p.R
    base /= v_new
    base += p.c_v / dt
    # the residual is theta * base - (H[1:] - H[:-1]) / dx - known
    known = state.theta * p.c_v
    known /= dt
    known += q
    if bnd.sources is not None:
        known += bnd.sources["theta"]

    theta, small = state.theta.copy(), False
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for it in range(ctl.newton_max_iter + 1):
                h, kirchhoff = heat_flux_stencil(theta, k, dx, p, bnd, kirchhoff)
                if small:  # the update that reached theta met the update test
                    break
                th_beta = kirchhoff[0][1:-1]
                div = h[1:] - h[:-1]
                div /= dx
                neg_f = theta * base
                neg_f -= div
                np.subtract(known, neg_f, out=neg_f)  # minus residual
                # each max norm is one reduction of |x|, written into a
                # buffer that is dead by then: div here, delta below
                fnorm = float(np.maximum.reduce(np.abs(neg_f, out=div)))
                scale = max(1.0, float(np.maximum.reduce(theta)))
                if fnorm <= ctl.newton_tol * p.c_v * scale / dt:
                    break
                if it == ctl.newton_max_iter:
                    raise _Retry(NewtonDivergence, f"temperature solve exceeded "
                                 f"{ctl.newton_max_iter} iterations")
                main = base / th_beta
                main += lap_main
                try:
                    delta = symmetric_tridiag_solve(main, lap_off, neg_f)
                except LinAlgError:
                    raise _Retry(NewtonDivergence, "temperature solve met a "
                                 "Newton matrix that is not positive "
                                 "definite") from None
                delta /= th_beta

                # Damp the update rather than clip: theta must stay positive
                # for the conductivity to be evaluable at the next iterate.
                # fmin skips NaN, as the test trial <= 0.0 does entry by entry.
                for halvings in range(61):
                    trial = theta + delta
                    if not np.fmin.reduce(trial) <= 0.0:
                        break
                    delta *= 0.5
                else:
                    raise _Retry(NewtonDivergence, "temperature solve could "
                                 "not damp an update to keep theta positive")
                theta, kirchhoff = trial, None
                small = halvings == 0 and float(np.maximum.reduce(
                    np.abs(delta, out=delta))) <= ctl.newton_tol * scale
    except FloatingPointError:
        raise _Retry(NewtonDivergence, "temperature iterate overflowed the "
                     "conductivity") from None
    return theta, it, q, h, kirchhoff


def boundary_report(new: GasState, du: np.ndarray, dw: Optional[np.ndarray],
                    grid: Grid, p: PhysicalParams, bnd: BoundaryData, dt: float,
                    old: StateCoeffs, coeffs: StateCoeffs, h: np.ndarray
                    ) -> tuple[float, float, float, float]:
    """Boundary flux totals (mass, momentum, total energy, entropy budget)
    added to the domain during this step.

    du and dw are the node differences of the new u and w, old the stage-(a)
    coefficients of the old state, coeffs those of the new state and h its
    heat flux. Mass and momentum reproduce the telescoped sums of stages (b)
    and (a) exactly; the energy and entropy terms are second-order monitors.
    Each end's arithmetic runs on Python floats; its 2-vector dot products
    stay numpy @, whose rounding can differ from x0*y0 + x1*y1. With dw
    None (the new state and bnd hold no transverse field) each transverse
    term is the Python 0.0 that the products would give, in the same
    expressions.
    """
    dx = grid.dx
    u_new, w_new = new.u, new.w
    v_l, _, v_r, _ = end_nodes(new.v, bnd.v_gl, bnd.v_gr, bnd, dx)
    th_l, _, th_r, _ = end_nodes(new.theta, bnd.th_gl, bnd.th_gr, bnd, dx)
    b_l = bx_l = b_r = bx_r = None
    if dw is not None:
        b_l, bx_l, b_r, bx_r = end_nodes(new.b, bnd.b_gl, bnd.b_gr, bnd, dx)
    if bnd.left_wall:
        # The wall node holds the wall's own b, and theta where it fixes one.
        b_l = bnd.b_gl
        th_l = th_l if bnd.th_gl is None else bnd.th_gl

    def end(c, j, v_node, th_node, b_node, bx):
        """Stress, energy flux and entropy flux at node j of end cell c."""
        v_node, th_node, hj = float(v_node), float(th_node), float(h[j])
        u = float(u_new[j])
        ux = float(du[c]) / dx
        b_sq = wvisc = wb = bxb = 0.0
        if dw is not None:
            w, wx = w_new[j], dw[c] / dx
            b_sq = float(b_node @ b_node)
            wvisc = p.lam / float(new.v[c]) * float(w @ wx)
            wb = float(w @ b_node)
            bxb = float(b_node @ (p.nu / v_node * bx))
        g_node = p.R * th_node / v_node + 0.5 * b_sq
        visc = float(coeffs.mu_over_v[c]) * u * ux
        phi = u * g_node - wb - hj - visc - wvisc - bxb
        bf = ((1.0 - 1.0 / th_node) * hj + bxb + visc + wvisc - u * g_node
              + p.R * u + wb)
        return float(old.mu_over_v[c]) * ux - float(old.ptot[c]), phi, bf

    m = grid.cells
    stress_l, phi_l, bf_l = end(0, 0, v_l, th_l, b_l, bx_l)
    stress_r, phi_r, bf_r = end(m - 1, m, v_r, th_r, b_r, bx_r)
    return (dt * float(u_new[-1] - u_new[0]), dt * (stress_r - stress_l),
            dt * (phi_l - phi_r), dt * (bf_r - bf_l))


def attempt(state: GasState, report: StepReport, dt: float, grid: Grid,
            p: PhysicalParams, bc, ctl: StepControl) -> tuple[GasState, StepReport]:
    """One step attempt at exactly dt from state in the regime bc (see
    boundary_data), where report is the StepReport of the step that produced
    state (initial_report for a state no step produced). Returns the new
    state and its StepReport (dt_used dt, retries 0, bnd the attempt's
    boundary data), or raises _Retry naming the cause: nonpositive v, or a
    failed temperature solve. It never changes dt, state or report. The
    stages read report.coeffs; the temperature solve reads report.kirchhoff
    exactly when the attempt's boundary data is report.bnd, the data the
    terms were formed under, and forms the terms again otherwise (at every
    forced attempt, whose data is built at its own time).

    An attempt under boundary data that brings no transverse field, from a
    state that holds none, skips stages (c) and (d): its w and b are +0.0,
    as the stages would return them. The decision, made once per attempt,
    passes dw None to the dissipation and the boundary fluxes, which then
    skip their transverse terms, and gives the new coefficients b_sq None.
    Boundary data that bring a transverse field decide it without a scan,
    and so do coeffs whose b_sq is None (a quiet report's coeffs): their
    state's w and b are +0.0. Other coeffs have the state's w and b scanned.
    """
    t_new = state.t + dt
    bnd = boundary_data(grid, bc, t_new)
    u_new = substep_velocity(state, grid, dt, bnd, report.coeffs)
    du = u_new[1:] - u_new[:-1]
    v_new = substep_volume(state, du, grid, dt, bnd)
    # NaN fails it, as v_new > 0.0 does
    if not np.minimum.reduce(v_new) > 0.0:
        raise _Retry(PositivityFailure, "state stayed nonpositive")
    mu_new = viscosity_mu(v_new, p)
    transverse = bnd.transverse or (report.coeffs.b_sq is not None
                                    and (state.w.any() or state.b.any()))
    if transverse:
        w_new = substep_transverse(state, v_new, grid, p, dt, bnd)
        dw = w_new[1:] - w_new[:-1]
        b_new = substep_induction(state, v_new, dw, grid, p, dt, bnd)
    else:  # what stages (c) and (d) give
        w_new = np.zeros(state.w.shape, order="F")
        b_new = np.zeros(state.b.shape, order="F")
        dw = None
    theta_new, iters, q, h, terms = substep_temperature(
        state, v_new, du, dw, b_new, mu_new, grid, p, ctl, dt, bnd,
        report.kirchhoff if bnd is report.bnd else None)

    new_state = GasState(v=v_new, theta=theta_new, b=b_new, u=u_new, w=w_new,
                         t=t_new, step=state.step + 1)
    new_coeffs = state_coeffs(new_state, mu_new, p, transverse)
    # the mass, momentum, energy and entropy fluxes
    fluxes = boundary_report(new_state, du, dw, grid, p, bnd, dt,
                             report.coeffs, new_coeffs, h)
    return new_state, StepReport(dt, iters, 0, new_coeffs, *fluxes, q, h, terms, bnd)


def step(state: GasState, grid: Grid, p: PhysicalParams, bc,
         ctl: StepControl, report: StepReport,
         dt_cap: float | None = None) -> tuple[GasState, StepReport]:
    """Advance one accepted step from state in the regime bc (see
    boundary_data), where report is the StepReport of the step that produced
    state (initial_report for a state no step produced), which every attempt
    reads as attempt says. It holds the whole retry policy.

    The proposed dt comes from compute_dt, optionally capped (used by
    run_until to land exactly on the end time); with report.coeffs whose
    b_sq is None it skips the all-zero |b|^2. Each attempt (see attempt)
    that raises _Retry is discarded and retried at half the dt; the report
    of the accepted attempt counts those retries.

    Raises, when the attempt after retry_max halvings fails too or a halving
    takes dt below dt_min, PositivityFailure if that attempt produced
    nonpositive v and NewtonDivergence if its temperature solve failed.
    """
    dt = compute_dt(state, report.coeffs.b_sq, grid, p, ctl)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    retries = 0
    while True:
        try:
            new_state, new_report = attempt(state, report, dt, grid, p, bc, ctl)
            new_report.retries = retries
            return new_state, new_report
        except _Retry as exc:
            failure, what = exc.args
        retries += 1
        if retries > ctl.retry_max:
            raise failure(f"{what} after {ctl.retry_max} dt halvings", state.t)
        dt *= 0.5
        if dt < ctl.dt_min:
            raise failure(f"{what}; dt halved below dt_min = {ctl.dt_min}",
                          state.t)


def initial_report(state: GasState, grid: Grid, p: PhysicalParams,
                   bnd: BoundaryData) -> StepReport:
    """The StepReport of a zero-length step ending at state (dt 0, no Newton
    updates, retries or boundary fluxes), with the state's coefficients,
    and its dissipation, heat flux and Kirchhoff terms under bnd, which it
    names; the state is validated first. With the regime's boundary_data it
    is the report that step and attempt take for a state no step produced.
    It carries a transverse field when w or b has a nonzero entry (a -0.0
    is none) or bnd brings one; else its coeffs.b_sq is None."""
    state.validate(grid)
    transverse = bnd.transverse or state.w.any() or state.b.any()
    mu = viscosity_mu(state.v, p)
    coeffs = state_coeffs(state, mu, p, transverse)
    dx = grid.dx
    ux = (state.u[1:] - state.u[:-1]) / dx
    wx = (state.w[1:] - state.w[:-1]) / dx if transverse else None
    q = dissipation_source(state.v, mu, ux, wx, state.b, grid, p, bnd)
    # dt, Newton updates, retries, then the four boundary fluxes
    return StepReport(0.0, 0, 0, coeffs, 0.0, 0.0, 0.0, 0.0, q, *heat_flux_stencil(
        state.theta, face_conductance(state.v, p, bnd), dx, p, bnd), bnd)


def run_until(state: GasState, grid: Grid, t_end: float, p: PhysicalParams,
              bc, ctl: StepControl, sink=None) -> GasState:
    """Step repeatedly in the regime bc (see boundary_data) until t_end,
    invoking sink(state, report) after each accepted step. The first step
    starts from the state's initial_report under bc's data at the state's
    time, which validates the state (ValueError), and each later step from
    the report of the step before, so every step reads its state's
    coefficients and Kirchhoff terms from one hand-off (see attempt).

    The final step is shortened to land exactly on t_end; a state within
    round-off of t_end is returned as a copy at t_end, so no state handed out
    or passed in is edited."""
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} is before state time {state.t}")
    snap_tol = 1e-12 * max(1.0, abs(t_end))
    report = initial_report(state, grid, p, boundary_data(grid, bc, state.t))
    while t_end - state.t > snap_tol:
        state, report = step(state, grid, p, bc, ctl, report, t_end - state.t)
        if sink is not None:
            sink(state, report)
    if state.t != t_end and abs(state.t - t_end) <= snap_tol:
        state = replace(state, t=t_end)
    return state
