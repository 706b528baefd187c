"""Independent oracles for the solver.

Three layers of checking:

  * a manufactured solution with hand-derived source terms, cross-checked
    against numerical differentiation of the closed forms;
  * an all-explicit classical RK4 integrator that shares the solver's spatial
    stencils and differs only in time integration;
  * an exact eigendecomposition of the semi-discrete linear heat operator for
    the configuration where the system degenerates to pure conduction.

Convergence studies run the production solver on refined grids (dt tied to
dx^2 for spatial order) or refined steps (fixed grid, successive-difference
order for the splitting).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .constitutive import viscosity_mu
from .core import (
    BoundaryCondition,
    GasState,
    GaussianBump,
    Grid,
    PhysicalParams,
    make_initial_state,
)
from .solver import (
    BoundaryData,
    PositivityFailure,
    StepControl,
    b_gradient,
    boundary_data,
    dissipation_source,
    heat_flux,
    induction_coeffs,
    run_until,
    state_coeffs,
    tridiag_solve,
)

REFERENCE_MAX_CELLS = 64
REFERENCE_SAFETY = 0.2


@dataclass(frozen=True)
class MmsSolution:
    """Closed-form manufactured fields.

    v = 1 + amp_v*sin(kx)*exp(-t), u = amp_u*sin(kx)*exp(-t),
    theta = 1 + amp_theta*cos(kx)*exp(-t), w like u and b like theta per
    component. Amplitudes of v and theta are limited to 0.8 in magnitude so
    both fields stay at or above 0.2.
    """

    k: float = 2.0 * math.pi
    amp_v: float = 0.0
    amp_u: float = 0.0
    amp_theta: float = 0.0
    amp_w: tuple = (0.0, 0.0)
    amp_b: tuple = (0.0, 0.0)

    def __post_init__(self):
        if abs(self.amp_v) > 0.8 or abs(self.amp_theta) > 0.8:
            raise ValueError("v/theta amplitudes beyond 0.8 violate the "
                             "positivity margin of 0.2")

    # closed forms ---------------------------------------------------------
    def v(self, x, t):
        return 1.0 + self.amp_v * np.sin(self.k * x) * math.exp(-t)

    def u(self, x, t):
        return self.amp_u * np.sin(self.k * x) * math.exp(-t)

    def theta(self, x, t):
        return 1.0 + self.amp_theta * np.cos(self.k * x) * math.exp(-t)

    def w(self, x, t):
        base = np.sin(self.k * x) * math.exp(-t)
        return np.stack([a * base for a in self.amp_w], axis=-1)

    def b(self, x, t):
        base = np.cos(self.k * x) * math.exp(-t)
        return np.stack([a * base for a in self.amp_b], axis=-1)

    def state(self, grid: Grid, t: float) -> GasState:
        xc, xn = grid.centers(), grid.nodes()
        return GasState(v=self.v(xc, t), theta=self.theta(xc, t),
                        b=self.b(xc, t), u=self.u(xn, t), w=self.w(xn, t),
                        t=t, step=0)

    # hand-derived sources -------------------------------------------------
    def sources_at(self, x, t: float, p: PhysicalParams) -> dict:
        """Residual sources making the closed forms solve the system.

        Substituting the closed forms into the five equations leaves the
        terms assembled here; see tests for the numerical-differentiation
        cross-check of this algebra.
        """
        x = np.asarray(x, dtype=float)
        ee = math.exp(-t)
        s, c = np.sin(self.k * x), np.cos(self.k * x)
        k = self.k
        av, au, ath = self.amp_v, self.amp_u, self.amp_theta
        aw = np.asarray(self.amp_w)
        ab = np.asarray(self.amp_b)

        v = 1.0 + av * s * ee
        v_t, v_x = -av * s * ee, av * k * c * ee
        u_t, u_x, u_xx = -au * s * ee, au * k * c * ee, -au * k * k * s * ee
        th = 1.0 + ath * c * ee
        th_t, th_x, th_xx = -ath * c * ee, -ath * k * s * ee, -ath * k * k * c * ee
        w_t = -aw[None, :] * s[..., None] * ee
        w_x = aw[None, :] * k * c[..., None] * ee
        w_xx = -aw[None, :] * k * k * s[..., None] * ee
        b_ = ab[None, :] * c[..., None] * ee
        b_t = -ab[None, :] * c[..., None] * ee
        b_x = -ab[None, :] * k * s[..., None] * ee
        b_xx = -ab[None, :] * k * k * c[..., None] * ee

        s_v = v_t - u_x

        mu = p.mu1 + p.mu2 * v ** (-p.alpha)
        mu_x = -p.alpha * p.mu2 * v ** (-p.alpha - 1.0) * v_x
        g_x = p.R * (th_x * v - th * v_x) / v ** 2 + np.sum(b_ * b_x, axis=-1)
        visc_x = mu_x * u_x / v + mu * u_xx / v - mu * u_x * v_x / v ** 2
        s_u = u_t + g_x - visc_x

        wdiff_x = p.lam * (w_xx * v[..., None] - w_x * v_x[..., None]) / (v ** 2)[..., None]
        s_w = w_t - b_x - wdiff_x

        bdiff_x = p.nu * (b_xx * v[..., None] - b_x * v_x[..., None]) / (v ** 2)[..., None]
        s_b = (v_t[..., None] * b_ + v[..., None] * b_t) - w_x - bdiff_x

        heat_x = (p.kappa_tilde * (p.beta * th ** (p.beta - 1.0) * th_x ** 2
                                   + th ** p.beta * th_xx) / v
                  - p.kappa_tilde * th ** p.beta * th_x * v_x / v ** 2)
        diss = (mu * u_x ** 2 + p.lam * np.sum(w_x ** 2, axis=-1)
                + p.nu * np.sum(b_x ** 2, axis=-1)) / v
        s_theta = p.c_v * th_t + (p.R * th / v) * u_x - heat_x - diss

        return {"v": s_v, "u": s_u, "w": s_w, "b": s_b, "theta": s_theta}


def mms_sources(sol: MmsSolution, grid: Grid, t: float,
                p: PhysicalParams) -> dict:
    """Sources evaluated at grid locations: cell centers for v, b, theta and
    nodes for u, w."""
    at_c = sol.sources_at(grid.centers(), t, p)
    at_n = sol.sources_at(grid.nodes(), t, p)
    return {"v": at_c["v"], "u": at_n["u"], "w": at_n["w"],
            "b": at_c["b"], "theta": at_c["theta"]}


@dataclass(frozen=True)
class MmsForcing:
    """Boundary provider of a manufactured solution: the solver takes its
    boundary data, sources included, from boundary_data."""

    sol: MmsSolution
    p: PhysicalParams

    def boundary_data(self, grid: Grid, t: float) -> BoundaryData:
        """Exact boundary data at time t (Dirichlet node values from the
        closed forms, ghost cells one dx beyond the last center) and the
        sources at every grid location."""
        sol = self.sol
        xl, xr = grid.left_edge, grid.right_edge
        gl, gr = xl - 0.5 * grid.dx, xr + 0.5 * grid.dx
        return BoundaryData(left_wall=False,
                            u_left=float(sol.u(xl, t)), u_right=float(sol.u(xr, t)),
                            w_left=sol.w(xl, t), w_right=sol.w(xr, t),
                            v_gl=float(sol.v(gl, t)), v_gr=float(sol.v(gr, t)),
                            th_gl=float(sol.theta(gl, t)),
                            th_gr=float(sol.theta(gr, t)),
                            b_gl=sol.b(gl, t), b_gr=sol.b(gr, t),
                            sources=mms_sources(sol, grid, t, self.p))


def reference_dt_bound(state: GasState, grid: Grid, p: PhysicalParams) -> float:
    """Largest explicit step the reference integrator accepts."""
    mu_max = float(np.max(viscosity_mu(state.v, p)))
    kap = p.kappa_tilde * float(np.max(state.theta)) ** p.beta / p.c_v
    worst = max(mu_max, p.lam, p.nu, kap)
    return REFERENCE_SAFETY * grid.dx ** 2 * float(np.min(state.v)) / worst


def _semi_discrete_rhs(v, u, w, b, theta, grid: Grid, p: PhysicalParams,
                       bnd: BoundaryData):
    """Time derivatives of all fields with the solver's spatial stencils."""
    dx = grid.dx
    ux = np.diff(u) / dx  # v_t

    coeffs = state_coeffs(GasState(v=v, theta=theta, b=b, u=u, w=w),
                          viscosity_mu(v, p), p)
    g = coeffs.ptot
    visc = coeffs.mu_over_v * ux
    du = np.zeros_like(u)
    du[1:-1] = (visc[1:] - visc[:-1]) / dx - (g[1:] - g[:-1]) / dx

    wx = np.diff(w, axis=0) / dx
    wflux = (p.lam / v)[:, None] * wx
    dw = np.zeros_like(w)
    dw[1:-1] = (wflux[1:] - wflux[:-1]) / dx + (b[1:] - b[:-1]) / dx

    d = induction_coeffs(v, p, bnd, dx)
    bx = b_gradient(b, bnd, dx)
    xflux = d[:, None] * bx
    # (v*b)_t = w_x + flux_x, so b_t = (w_x + flux_x - b*v_t) / v.
    db = (wx + np.diff(xflux, axis=0) / dx - b * ux[:, None]) / v[:, None]

    h = heat_flux(theta, v, dx, p, bnd)
    q = dissipation_source(v, coeffs.mu, ux, w, b, grid, p, bnd)
    dth = (-(p.R * theta / v) * ux + np.diff(h) / dx + q) / p.c_v
    return ux, du, dw, db, dth


def explicit_reference(state0: GasState, grid: Grid, t_end: float,
                       p: PhysicalParams, bc: BoundaryCondition,
                       dt_ref: float) -> GasState:
    """Classical 4-stage explicit reference integration of the same
    semi-discrete system. Intended for tiny grids; rejects dt_ref beyond the
    explicit diffusion stability bound and aborts on lost positivity."""
    if grid.cells > REFERENCE_MAX_CELLS:
        raise ValueError(f"reference integrator is limited to "
                         f"{REFERENCE_MAX_CELLS} cells, got {grid.cells}")
    bound = reference_dt_bound(state0, grid, p)
    if dt_ref > bound:
        raise ValueError(f"dt_ref = {dt_ref} exceeds the explicit stability "
                         f"bound {bound:.3e}")

    bnd = boundary_data(grid, bc, state0.t)

    def impose(u, w):
        u[0], u[-1] = bnd.u_left, bnd.u_right
        w[0], w[-1] = bnd.w_left, bnd.w_right

    v, u = state0.v.copy(), state0.u.copy()
    w, b = state0.w.copy(), state0.b.copy()
    theta = state0.theta.copy()
    t = state0.t
    steps = 0
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        dt = min(dt_ref, t_end - t)
        k1 = _semi_discrete_rhs(v, u, w, b, theta, grid, p, bnd)
        y2 = _rk_stage(v, u, w, b, theta, k1, 0.5 * dt)
        impose(y2[1], y2[2])
        k2 = _semi_discrete_rhs(*y2, grid, p, bnd)
        y3 = _rk_stage(v, u, w, b, theta, k2, 0.5 * dt)
        impose(y3[1], y3[2])
        k3 = _semi_discrete_rhs(*y3, grid, p, bnd)
        y4 = _rk_stage(v, u, w, b, theta, k3, dt)
        impose(y4[1], y4[2])
        k4 = _semi_discrete_rhs(*y4, grid, p, bnd)

        v = v + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        u = u + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        w = w + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        b = b + dt / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        theta = theta + dt / 6.0 * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
        t += dt
        steps += 1
        impose(u, w)
        if not (np.all(v > 0.0) and np.all(theta > 0.0)):
            raise PositivityFailure("reference integration lost positivity", t)
    return GasState(v=v, theta=theta, b=b, u=u, w=w, t=t_end,
                    step=state0.step + steps)


def _rk_stage(v, u, w, b, theta, k, h):
    return (v + h * k[0], u + h * k[1], w + h * k[2], b + h * k[3],
            theta + h * k[4])


def heat_exact_semidiscrete(theta0: np.ndarray, grid: Grid, p: PhysicalParams,
                            bc: BoundaryCondition, t: float) -> np.ndarray:
    """Exact solution of the semi-discrete linear conduction system
    c_v*theta_t = kappa_tilde*theta_xx (v = 1, beta = 0, discrete stencils
    with the regime's boundary rows) via symmetric tridiagonal
    eigendecomposition."""
    m = grid.cells
    coef = p.kappa_tilde / (p.c_v * grid.dx ** 2)
    diag = np.full(m, -2.0 * coef)
    off = np.full(m - 1, coef)
    r = np.zeros(m)
    if bc is BoundaryCondition.CAUCHY_FAR_FIELD:
        r[0] = coef
    elif bc is BoundaryCondition.ISOTHERMAL_WALL_LEFT:
        diag[0] = -3.0 * coef
        r[0] = 2.0 * coef
    else:
        diag[0] = -1.0 * coef
    r[-1] = coef

    theta_ss = tridiag_solve(off, diag, off, -r)
    lam, vecs = eigh_tridiagonal(diag, off)
    coeffs = vecs.T @ (theta0 - theta_ss)
    return theta_ss + vecs @ (np.exp(lam * t) * coeffs)


def mms_convergence(sol: MmsSolution, p: PhysicalParams, cells_list,
                    t_end: float, dt_coarsest: float, mass: float = 1.0,
                    left_edge: float = 0.0) -> dict:
    """Spatial refinement study: run the solver on each grid with dt scaled
    as dx^2 and report L2 errors against the closed forms plus least-squares
    orders per field."""
    bc = BoundaryCondition.CAUCHY_FAR_FIELD
    forcing = MmsForcing(sol, p)
    errors = {f: [] for f in ("v", "u", "theta", "w", "b")}
    dxs = []
    for cells in cells_list:
        grid = Grid.uniform(cells, mass, left_edge)
        dt = dt_coarsest * (cells_list[0] / cells) ** 2
        ctl = StepControl(cfl=1.0, dt_min=1e-14, dt_max=dt)
        state = run_until(sol.state(grid, 0.0), grid, t_end, p, bc, ctl,
                          forcing=forcing)
        exact = sol.state(grid, t_end)
        dx = grid.dx
        dxs.append(dx)
        errors["v"].append(_l2(state.v - exact.v, dx))
        errors["u"].append(_l2(state.u - exact.u, dx))
        errors["theta"].append(_l2(state.theta - exact.theta, dx))
        errors["w"].append(_l2(state.w - exact.w, dx))
        errors["b"].append(_l2(state.b - exact.b, dx))
    orders = {}
    for f, errs in errors.items():
        if max(errs) < 1e-13:
            orders[f] = None  # exact to round-off, order undefined
        else:
            orders[f] = float(np.polyfit(np.log(dxs), np.log(errs), 1)[0])
    return {"dx": dxs, "errors": errors, "orders": orders}


def temporal_convergence(sol: MmsSolution, p: PhysicalParams, cells: int,
                         dts, t_end: float, mass: float = 1.0,
                         left_edge: float = 0.0) -> dict:
    """Step refinement study on a fixed grid. Successive differences of the
    final states isolate the time-integration order from the (common)
    spatial error."""
    bc = BoundaryCondition.CAUCHY_FAR_FIELD
    forcing = MmsForcing(sol, p)
    grid = Grid.uniform(cells, mass, left_edge)
    finals = []
    for dt in dts:
        ctl = StepControl(cfl=1.0, dt_min=1e-14, dt_max=dt)
        finals.append(run_until(sol.state(grid, 0.0), grid, t_end, p, bc, ctl,
                                forcing=forcing))
    diffs = []
    for s1, s2 in zip(finals[:-1], finals[1:]):
        diffs.append(max(_linf(s1.v - s2.v), _linf(s1.u - s2.u),
                         _linf(s1.theta - s2.theta), _linf(s1.w - s2.w),
                         _linf(s1.b - s2.b)))
    order = float(np.polyfit(np.log(np.asarray(dts[:-1], dtype=float)),
                             np.log(diffs), 1)[0])
    return {"dts": list(dts), "diffs": diffs, "order": order}


def oracle_comparison(state0: GasState, grid: Grid, t_end: float,
                      p: PhysicalParams, bc: BoundaryCondition,
                      ctl: StepControl, dt_ref: float) -> dict:
    """Max-norm disagreement per field between the semi-implicit solver and
    the explicit reference on the same configuration."""
    solved = run_until(state0.copy(), grid, t_end, p, bc, ctl)
    ref = explicit_reference(state0.copy(), grid, t_end, p, bc, dt_ref)
    return {"v": _linf(solved.v - ref.v), "u": _linf(solved.u - ref.u),
            "theta": _linf(solved.theta - ref.theta),
            "w": _linf(solved.w - ref.w), "b": _linf(solved.b - ref.b)}


def _l2(diff: np.ndarray, dx: float) -> float:
    return float(np.sqrt(dx * np.sum(diff ** 2)))


def _linf(diff: np.ndarray) -> float:
    return float(np.max(np.abs(diff)))


def numerical_source_check(sol: MmsSolution, p: PhysicalParams,
                           n_samples: int = 256, t: float = 0.3,
                           h_x: float = 2e-5, h_t: float = 1e-5) -> dict:
    """Cross-check the hand-derived sources against centered numerical
    differentiation of the closed forms (fluxes included as nested
    divided differences). Returns max abs discrepancy per equation."""
    x = np.linspace(0.0, 1.0, n_samples, endpoint=False) + 0.31 / n_samples

    def ddx(f):
        return (f(x + h_x) - f(x - h_x)) / (2.0 * h_x)

    def ddt(f):
        return (f(x, t + h_t) - f(x, t - h_t)) / (2.0 * h_t)

    def u_x(xx):
        return (sol.u(xx + h_x, t) - sol.u(xx - h_x, t)) / (2.0 * h_x)

    def th_x(xx):
        return (sol.theta(xx + h_x, t) - sol.theta(xx - h_x, t)) / (2.0 * h_x)

    def w_x(xx):
        return (sol.w(xx + h_x, t) - sol.w(xx - h_x, t)) / (2.0 * h_x)

    def b_x(xx):
        return (sol.b(xx + h_x, t) - sol.b(xx - h_x, t)) / (2.0 * h_x)

    def mu_of(xx):
        return p.mu1 + p.mu2 * sol.v(xx, t) ** (-p.alpha)

    num_v = ddt(sol.v) - ddx(lambda xx: sol.u(xx, t))

    def total_pressure(xx):
        return (p.R * sol.theta(xx, t) / sol.v(xx, t)
                + 0.5 * np.sum(sol.b(xx, t) ** 2, axis=-1))

    def visc_flux(xx):
        return mu_of(xx) * u_x(xx) / sol.v(xx, t)

    num_u = ddt(lambda xx, tt: sol.u(xx, tt)) + ddx(total_pressure) - ddx(visc_flux)

    def w_flux(xx):
        return p.lam * w_x(xx) / sol.v(xx, t)[..., None]

    num_w = (ddt(sol.w) - b_x(x)
             - (w_flux(x + h_x) - w_flux(x - h_x)) / (2.0 * h_x))

    def b_flux(xx):
        return p.nu * b_x(xx) / sol.v(xx, t)[..., None]

    num_b = (ddt(lambda xx, tt: sol.v(xx, tt)[..., None] * sol.b(xx, tt))
             - w_x(x) - (b_flux(x + h_x) - b_flux(x - h_x)) / (2.0 * h_x))

    def th_flux(xx):
        return (p.kappa_tilde * sol.theta(xx, t) ** p.beta * th_x(xx)
                / sol.v(xx, t))

    diss = (mu_of(x) * u_x(x) ** 2 + p.lam * np.sum(w_x(x) ** 2, axis=-1)
            + p.nu * np.sum(b_x(x) ** 2, axis=-1)) / sol.v(x, t)
    num_theta = (p.c_v * ddt(sol.theta)
                 + (p.R * sol.theta(x, t) / sol.v(x, t)) * u_x(x)
                 - (th_flux(x + h_x) - th_flux(x - h_x)) / (2.0 * h_x)
                 - diss)

    hand = sol.sources_at(x, t, p)
    return {"v": _linf(num_v - hand["v"]), "u": _linf(num_u - hand["u"]),
            "w": _linf(num_w - hand["w"]), "b": _linf(num_b - hand["b"]),
            "theta": _linf(num_theta - hand["theta"])}


def standard_studies() -> list[dict]:
    """The verification suite behind `mhd1d verify`: source self-check, MMS
    spatial and temporal orders, and oracle agreement for alpha in {0, 1}."""
    sol = MmsSolution(amp_v=0.15, amp_u=0.2, amp_theta=0.12,
                      amp_w=(0.15, -0.1), amp_b=(0.12, 0.08))
    p_norm = PhysicalParams.normalized(alpha=1.0, beta=1.0)
    studies = []

    src = numerical_source_check(sol, p_norm)
    studies.append({"study": "mms_source_check", "max_errors": src,
                    "tolerance": 1e-6,
                    "pass": max(src.values()) <= 1e-6})

    spatial = mms_convergence(sol, p_norm, [64, 128, 256], t_end=0.1,
                              dt_coarsest=2e-3)
    orders = spatial["orders"]
    studies.append({"study": "mms_spatial_order", "orders": orders,
                    "threshold": 1.9,
                    "pass": all(o is None or o >= 1.9 for o in orders.values())})

    # step sizes that divide t_end exactly, so no run ends on a shortened step
    temporal = temporal_convergence(sol, p_norm, cells=64,
                                    dts=[2e-3, 1e-3, 5e-4, 2.5e-4], t_end=0.1)
    studies.append({"study": "mms_temporal_order", "order": temporal["order"],
                    "threshold": 0.9, "pass": temporal["order"] >= 0.9})

    for alpha in (0.0, 1.0):
        p_a = PhysicalParams.normalized(alpha=alpha, beta=1.0)
        grid = Grid.uniform(16, 1.0, -0.5)
        profile = GaussianBump(center=0.0, width=0.2, amp_v=-0.1, amp_u=0.1,
                               amp_theta=0.1, amp_b=(0.1, -0.05),
                               amp_w=(0.1, 0.05))
        state0 = make_initial_state(grid, profile,
                                    BoundaryCondition.CAUCHY_FAR_FIELD)
        ctl = StepControl(cfl=0.4, dt_min=1e-12, dt_max=2e-5)
        diffs = oracle_comparison(state0, grid, 0.01, p_a,
                                  BoundaryCondition.CAUCHY_FAR_FIELD, ctl,
                                  dt_ref=2e-5)
        studies.append({"study": f"oracle_agreement_alpha{alpha:g}",
                        "max_diffs": diffs, "tolerance": 1e-4,
                        "pass": max(diffs.values()) <= 1e-4})
    return studies
