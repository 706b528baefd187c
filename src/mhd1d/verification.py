"""Independent oracles for the solver.

Two layers of checking:

  * a manufactured solution with hand-derived source terms, cross-checked
    against numerical differentiation of the closed forms;
  * an all-explicit classical RK4 integrator that shares the solver's spatial
    stencils and differs only in time integration. The tests check it in
    turn against an exact eigendecomposition of the semi-discrete linear
    heat operator, where the system degenerates to pure conduction.

Convergence studies run the production solver on refined grids (dt tied to
dx^2 for spatial order) or refined steps (fixed grid, successive-difference
order for the splitting).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
)

REFERENCE_MAX_CELLS = 64
REFERENCE_SAFETY = 0.2

# numerical_source_check's number of sample points on [0, 1), the time it
# checks, and its centered-difference steps in x and t
SOURCE_SAMPLES, SOURCE_T, SOURCE_H_X, SOURCE_H_T = 256, 0.3, 2e-5, 1e-5

FIELDS = ("v", "u", "theta", "w", "b")
# the trig of each field's mode, counted in quarter turns from sin (0 for sin,
# 1 for cos); the n-th x derivative adds n quarter turns
_TURNS = {"v": 0, "u": 0, "theta": 1, "w": 0, "b": 1}


@dataclass(frozen=True)
class MmsSolution:
    """Closed-form manufactured fields, each its far-field value plus one
    mode amp*trig(kx)*exp(-t).

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

    def perturbation(self, name: str, x, t: float, order: int = 0):
        """The `order`-th x derivative of one field's mode,
        amp*k^order*trig^(order)(kx)*exp(-t) multiplied left to right; w and
        b carry their two components on a trailing axis."""
        kx = self.k * x
        trig = np.cos(kx) if (_TURNS[name] + order) % 2 else np.sin(kx)
        return self._mode(name, order, trig, math.exp(-t))

    def _mode(self, name: str, order: int, trig, e: float):
        """perturbation from the sin(kx) or cos(kx) it needs and exp(-t)."""
        coef = getattr(self, "amp_" + name)
        if name in ("w", "b"):  # two components on a trailing axis
            coef, trig = np.asarray(coef, dtype=float), trig[..., None]
        for _ in range(order):
            coef = coef * self.k
        if (_TURNS[name] + order) % 4 >= 2:  # -sin or -cos
            coef = -coef
        return coef * trig * e

    # closed forms, far field plus mode
    def v(self, x, t):
        return 1.0 + self.perturbation("v", x, t)

    def u(self, x, t):
        return self.perturbation("u", x, t)

    def theta(self, x, t):
        return 1.0 + self.perturbation("theta", x, t)

    def w(self, x, t):
        return self.perturbation("w", x, t)

    def b(self, x, t):
        return self.perturbation("b", x, t)

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
        kx = self.k * np.asarray(x, dtype=float)
        sin_cos, e = (np.sin(kx), np.cos(kx)), math.exp(-t)

        def d(name, order):  # the order-th x derivative of one field's mode
            return self._mode(name, order,
                              sin_cos[(_TURNS[name] + order) % 2], e)

        mode = {n: d(n, 0) for n in FIELDS}
        v, th, b_ = 1.0 + mode["v"], 1.0 + mode["theta"], mode["b"]
        # every mode decays as exp(-t), so each f_t is minus its mode
        v_t, u_t, th_t, w_t, b_t = (-mode[n] for n in FIELDS)
        v_x, u_x, th_x, w_x, b_x = (d(n, 1) for n in FIELDS)
        u_xx, th_xx, w_xx, b_xx = (d(n, 2) for n in ("u", "theta", "w", "b"))

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
    nodes for u, w. One call of sources_at covers both point sets."""
    m = grid.cells
    at = sol.sources_at(np.concatenate((grid.centers(), grid.nodes())), t, p)
    return {"v": at["v"][:m], "u": at["u"][m:], "w": at["w"][m:],
            "b": at["b"][:m], "theta": at["theta"][:m]}


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


def _semi_discrete_rhs(y: dict, grid: Grid, p: PhysicalParams,
                       bnd: BoundaryData) -> dict:
    """Time derivatives of all fields with the solver's spatial stencils."""
    v, u, theta, w, b = (y[f] for f in FIELDS)
    dx = grid.dx
    ux = np.diff(u) / dx  # v_t

    mu = viscosity_mu(v, p)
    coeffs = state_coeffs(GasState(v=v, theta=theta, b=b, u=u, w=w), mu, p)
    g = coeffs.ptot
    visc = coeffs.mu_over_v * ux
    du = np.zeros_like(u)
    du[1:-1] = (visc[1:] - visc[:-1]) / dx - (g[1:] - g[:-1]) / dx

    wx = np.diff(w, axis=0) / dx
    wflux = (p.lam / v)[:, None] * wx
    dw = np.zeros_like(w)
    dw[1:-1] = (wflux[1:] - wflux[:-1]) / dx + (b[1:] - b[:-1]) / dx

    d = induction_coeffs(v, p, bnd)
    bx = b_gradient(b, bnd, dx)
    xflux = d[:, None] * bx
    # (v*b)_t = w_x + flux_x, so b_t = (w_x + flux_x - b*v_t) / v.
    db = (wx + np.diff(xflux, axis=0) / dx - b * ux[:, None]) / v[:, None]

    h = heat_flux(theta, v, dx, p, bnd)
    q = dissipation_source(v, mu, ux, wx, b, grid, p, bnd)
    dth = (-(p.R * theta / v) * ux + np.diff(h) / dx + q) / p.c_v
    return {"v": ux, "u": du, "theta": dth, "w": dw, "b": db}


def explicit_reference(state0: GasState, grid: Grid, t_end: float,
                       p: PhysicalParams, bc: BoundaryCondition,
                       dt_ref: float) -> GasState:
    """Classical 4-stage explicit reference integration of the same
    semi-discrete system. Intended for tiny grids; rejects dt_ref beyond the
    explicit diffusion stability bound and aborts on lost positivity. The
    returned state shares no array with state0, which it leaves unchanged."""
    if grid.cells > REFERENCE_MAX_CELLS:
        raise ValueError(f"reference integrator is limited to "
                         f"{REFERENCE_MAX_CELLS} cells, got {grid.cells}")
    if t_end < state0.t:
        raise ValueError(f"t_end = {t_end} is before state time {state0.t}")
    bound = reference_dt_bound(state0, grid, p)
    if dt_ref > bound:
        raise ValueError(f"dt_ref = {dt_ref} exceeds the explicit stability "
                         f"bound {bound:.3e}")

    bnd = boundary_data(grid, bc, state0.t)

    def impose(y):
        y["u"][0], y["u"][-1] = bnd.u_left, bnd.u_right
        y["w"][0], y["w"][-1] = bnd.w_left, bnd.w_right

    y = {f: getattr(state0, f).copy(order="F") for f in FIELDS}
    t = state0.t
    steps = 0
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        dt = min(dt_ref, t_end - t)
        ks = [_semi_discrete_rhs(y, grid, p, bnd)]
        for h in (0.5 * dt, 0.5 * dt, dt):
            stage = {f: y[f] + h * ks[-1][f] for f in FIELDS}
            impose(stage)
            ks.append(_semi_discrete_rhs(stage, grid, p, bnd))
        k1, k2, k3, k4 = ks
        y = {f: y[f] + dt / 6.0 * (k1[f] + 2.0 * k2[f] + 2.0 * k3[f] + k4[f])
             for f in FIELDS}
        t += dt
        steps += 1
        impose(y)
        if not (np.all(y["v"] > 0.0) and np.all(y["theta"] > 0.0)):
            raise PositivityFailure("reference integration lost positivity", t)
    return GasState(**y, t=t_end, step=state0.step + steps)


def _forced_run(sol: MmsSolution, p: PhysicalParams, grid: Grid,
                t_end: float, dt: float) -> GasState:
    """The solver at fixed step dt on the manufactured problem, from its
    exact state at t = 0."""
    ctl = StepControl(cfl=1.0, dt_min=1e-14, dt_max=dt)
    return run_until(sol.state(grid, 0.0), grid, t_end, p,
                     BoundaryCondition.CAUCHY_FAR_FIELD, ctl,
                     forcing=MmsForcing(sol, p))


def _order(steps, errors) -> float | None:
    """Least-squares slope of log error against log step; None when every
    error is below 1e-13, exact to round-off, where the order is undefined."""
    if max(errors) < 1e-13:
        return None
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


def mms_convergence(sol: MmsSolution, p: PhysicalParams, cells_list,
                    t_end: float, dt_coarsest: float) -> dict:
    """Spatial refinement study: run the solver on each grid with dt scaled
    as dx^2 and report L2 errors against the closed forms plus least-squares
    orders per field."""
    errors = {f: [] for f in FIELDS}
    dxs = []
    for cells in cells_list:
        grid = Grid.uniform(cells, 1.0)
        dt = dt_coarsest * (cells_list[0] / cells) ** 2
        state = _forced_run(sol, p, grid, t_end, dt)
        exact = sol.state(grid, t_end)
        dxs.append(grid.dx)
        for f in FIELDS:
            diff = getattr(state, f) - getattr(exact, f)
            errors[f].append(float(np.sqrt(grid.dx * np.sum(diff ** 2))))
    orders = {f: _order(dxs, errs) for f, errs in errors.items()}
    return {"dx": dxs, "errors": errors, "orders": orders}


def temporal_convergence(sol: MmsSolution, p: PhysicalParams, cells: int,
                         dts, t_end: float) -> dict:
    """Step refinement study on a fixed grid. Successive differences of the
    final states isolate the time-integration order from the (common)
    spatial error; the order is None when every difference is below 1e-13."""
    grid = Grid.uniform(cells, 1.0)
    finals = [_forced_run(sol, p, grid, t_end, dt) for dt in dts]
    diffs = [max(_field_diffs(s1, s2).values())
             for s1, s2 in zip(finals[:-1], finals[1:])]
    return {"dts": list(dts), "diffs": diffs,
            "order": _order(dts[:-1], diffs)}


def oracle_comparison(state0: GasState, grid: Grid, t_end: float,
                      p: PhysicalParams, bc: BoundaryCondition,
                      ctl: StepControl, dt_ref: float) -> dict:
    """Max-norm disagreement per field between the semi-implicit solver and
    the explicit reference on the same configuration."""
    solved = run_until(state0, grid, t_end, p, bc, ctl)
    return _field_diffs(solved,
                        explicit_reference(state0, grid, t_end, p, bc, dt_ref))


def _field_diffs(a: GasState, b: GasState) -> dict:
    return {f: _linf(getattr(a, f) - getattr(b, f)) for f in FIELDS}


def _linf(diff: np.ndarray) -> float:
    return float(np.max(np.abs(diff)))


def numerical_source_check(sol: MmsSolution, p: PhysicalParams) -> dict:
    """Cross-check the hand-derived sources against centered numerical
    differentiation of the closed forms (fluxes included as nested
    divided differences), at SOURCE_SAMPLES points and t = SOURCE_T with
    steps SOURCE_H_X and SOURCE_H_T. Returns max abs discrepancy per
    equation."""
    n_samples, t, h_x, h_t = SOURCE_SAMPLES, SOURCE_T, SOURCE_H_X, SOURCE_H_T
    x = np.linspace(0.0, 1.0, n_samples, endpoint=False) + 0.31 / n_samples
    at = {f: (lambda xx, f=f: getattr(sol, f)(xx, t)) for f in FIELDS}

    def ddx(g, xx=x):  # centered difference in x of g(xx)
        return (g(xx + h_x) - g(xx - h_x)) / (2.0 * h_x)

    def ddt(f):
        return (f(x, t + h_t) - f(x, t - h_t)) / (2.0 * h_t)

    def mu_of(xx):
        return p.mu1 + p.mu2 * at["v"](xx) ** (-p.alpha)

    num_v = ddt(sol.v) - ddx(at["u"])

    def total_pressure(xx):
        return (p.R * at["theta"](xx) / at["v"](xx)
                + 0.5 * np.sum(at["b"](xx) ** 2, axis=-1))

    def visc_flux(xx):
        return mu_of(xx) * ddx(at["u"], xx) / at["v"](xx)

    num_u = ddt(sol.u) + ddx(total_pressure) - ddx(visc_flux)

    def flux(coef, f):  # the diffusive flux coef*f_x/v of w or b
        return lambda xx: coef * ddx(at[f], xx) / at["v"](xx)[..., None]

    num_w = ddt(sol.w) - ddx(at["b"]) - ddx(flux(p.lam, "w"))
    num_b = (ddt(lambda xx, tt: sol.v(xx, tt)[..., None] * sol.b(xx, tt))
             - ddx(at["w"]) - ddx(flux(p.nu, "b")))

    def th_flux(xx):
        return (p.kappa_tilde * at["theta"](xx) ** p.beta * ddx(at["theta"], xx)
                / at["v"](xx))

    diss = (mu_of(x) * ddx(at["u"]) ** 2
            + p.lam * np.sum(ddx(at["w"]) ** 2, axis=-1)
            + p.nu * np.sum(ddx(at["b"]) ** 2, axis=-1)) / at["v"](x)
    num_theta = (p.c_v * ddt(sol.theta)
                 + (p.R * at["theta"](x) / at["v"](x)) * ddx(at["u"])
                 - ddx(th_flux) - diss)

    num = {"v": num_v, "u": num_u, "w": num_w, "b": num_b, "theta": num_theta}
    return {f: _linf(num[f] - hand)
            for f, hand in sol.sources_at(x, t, p).items()}


def standard_studies() -> list[dict]:
    """The verification suite behind `mhd1d verify`: source self-check, MMS
    spatial and temporal orders for beta in {1, 0.5, 10}, the spatial order
    of a hotter solution (amp_theta = 0.5) at beta 10, and oracle agreement
    for alpha in {0, 1}."""
    sol = MmsSolution(amp_v=0.15, amp_u=0.2, amp_theta=0.12,
                      amp_w=(0.15, -0.1), amp_b=(0.12, 0.08))
    p_norm = PhysicalParams.normalized(alpha=1.0, beta=1.0)
    studies = []

    src = numerical_source_check(sol, p_norm)
    studies.append({"study": "mms_source_check", "max_errors": src,
                    "tolerance": 1e-6,
                    "pass": max(src.values()) <= 1e-6})

    def spatial_study(name, solution, p):
        orders = mms_convergence(solution, p, [64, 128, 256], t_end=0.1,
                                 dt_coarsest=2e-3)["orders"]
        studies.append({"study": f"mms_spatial_order{name}", "orders": orders,
                        "threshold": 1.9,
                        "pass": all(o is None or o >= 1.9 for o in orders.values())})

    for beta in (1.0, 0.5, 10.0):
        p_beta = PhysicalParams.normalized(alpha=1.0, beta=beta)
        name = "" if beta == 1.0 else f"_beta{beta:g}"
        spatial_study(name, sol, p_beta)

        # step sizes that divide t_end exactly, so no run ends on a shortened step
        temporal = temporal_convergence(sol, p_beta, cells=64,
                                        dts=[2e-3, 1e-3, 5e-4, 2.5e-4], t_end=0.1)
        order = temporal["order"]
        studies.append({"study": f"mms_temporal_order{name}", "order": order,
                        "threshold": 0.9, "pass": order is None or order >= 0.9})

    # theta**10 spans a factor of 3**10 over the hotter solution's range
    spatial_study("_amp0.5_beta10", replace(sol, amp_theta=0.5),
                  PhysicalParams.normalized(alpha=1.0, beta=10.0))

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
