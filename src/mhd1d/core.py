"""Domain types for the planar-MHD simulator: physical constants, the staggered
mass-coordinate grid, boundary regimes, the discrete gas state, and initial
profile construction.

Field layout (staggered): specific volume v, temperature theta, and the
two-component transverse magnetic field b live at cell centers; longitudinal
velocity u and the two-component transverse velocity w live at cell nodes.
A grid with M cells has M + 1 nodes, so v/theta/b have length M and u/w have
length M + 1.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

# State toward which all fields relax at open boundaries: (v, u, theta, b, w).
FAR_FIELD_V = 1.0
FAR_FIELD_U = 0.0
FAR_FIELD_THETA = 1.0
FAR_FIELD_B = 0.0
FAR_FIELD_W = 0.0

# Compatibility tolerance for wall-adjacent initial values.
WALL_TOL = 1e-12


def sq2(x: np.ndarray) -> np.ndarray:
    """Squared norm x[..., 0]**2 + x[..., 1]**2 of a two-component field.

    Bitwise equal to np.sum(x ** 2, axis=-1) in any memory order, and about
    ten times faster on a large C-ordered (n, 2) array, whose axis-1
    reduction numpy runs as n separate two-element sums.
    """
    return x[..., 0] ** 2 + x[..., 1] ** 2


class ProfileError(ValueError):
    """Raised when an initial profile violates positivity, shape, or
    boundary-compatibility requirements."""


@dataclass(frozen=True)
class PhysicalParams:
    """Constitutive constants of the model.

    mu1, mu2, alpha define the volume-dependent viscosity mu(v) = mu1 + mu2 * v**(-alpha);
    kappa_tilde, beta define the temperature-dependent conductivity kappa(theta) =
    kappa_tilde * theta**beta; lam and nu are the transverse viscosity and the
    magnetic diffusivity; R and c_v are the gas constant and heat capacity.
    """

    mu1: float = 1.0
    mu2: float = 0.0
    alpha: float = 0.0
    kappa_tilde: float = 1.0
    beta: float = 1.0
    lam: float = 1.0
    nu: float = 1.0
    R: float = 1.0
    c_v: float = 1.0

    def __post_init__(self):
        for name in ("mu1", "kappa_tilde", "lam", "nu", "R", "c_v"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("mu2", "alpha", "beta"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def normalized(cls, alpha: float = 0.0, beta: float = 1.0) -> "PhysicalParams":
        """Preset with lam = nu = kappa_tilde = R = c_v = mu1 = 1 and mu2 = alpha.

        The volume-history diagnostic (diagnostics.representation_update) is
        derived for exactly this preset.
        """
        return cls(mu1=1.0, mu2=alpha, alpha=alpha, kappa_tilde=1.0, beta=beta,
                   lam=1.0, nu=1.0, R=1.0, c_v=1.0)

    @property
    def is_normalized(self) -> bool:
        ones = (self.mu1, self.kappa_tilde, self.lam, self.nu, self.R, self.c_v)
        return all(x == 1.0 for x in ones) and self.mu2 == self.alpha

    @property
    def gamma(self) -> float:
        """Adiabatic exponent 1 + R / c_v of the perfect gas."""
        return 1.0 + self.R / self.c_v


@dataclass(frozen=True)
class Grid:
    """Uniform staggered mesh over a finite interval of the mass coordinate.

    Cell centers sit at left_edge + (i + 1/2) * dx for i in 0..cells-1 and
    nodes at left_edge + j * dx for j in 0..cells.
    """

    cells: int
    dx: float
    left_edge: float = 0.0

    def __post_init__(self):
        if self.cells < 4:
            raise ValueError(f"need at least 4 cells, got {self.cells}")
        if not self.dx > 0.0:
            raise ValueError(f"dx must be > 0, got {self.dx}")

    @classmethod
    def uniform(cls, cells: int, mass: float, left_edge: float = 0.0) -> "Grid":
        """Grid of `cells` cells covering `mass` units of the mass coordinate."""
        if not mass > 0.0:
            raise ValueError(f"total mass must be > 0, got {mass}")
        return cls(cells=cells, dx=mass / cells, left_edge=left_edge)

    @property
    def mass(self) -> float:
        return self.cells * self.dx

    @property
    def right_edge(self) -> float:
        return self.left_edge + self.cells * self.dx

    @property
    def coordinate_tol(self) -> float:
        """How far a coordinate or spacing read back from a snapshot may sit
        off this grid: 1e-9 * dx plus the coordinates' own rounding, 2e-15
        (9 machine epsilons) times the larger magnitude of the two edges."""
        return 1e-9 * self.dx + 2e-15 * max(abs(self.left_edge), abs(self.right_edge))

    def nodes(self) -> np.ndarray:
        return self.left_edge + np.arange(self.cells + 1) * self.dx

    def centers(self) -> np.ndarray:
        return self.left_edge + (np.arange(self.cells) + 0.5) * self.dx


class BoundaryCondition(enum.Enum):
    """The three boundary/far-field regimes.

    CAUCHY_FAR_FIELD: far-field values (1, 0, 1, 0, 0) at both truncated ends.
    ISOTHERMAL_WALL_LEFT: u = 0, theta = 1, b = w = 0 at the left node;
        far field at the right end.
    INSULATED_WALL_LEFT: u = 0, zero heat flux, b = w = 0 at the left node;
        far field at the right end.
    """

    CAUCHY_FAR_FIELD = "cauchy"
    ISOTHERMAL_WALL_LEFT = "isothermal_wall"
    INSULATED_WALL_LEFT = "insulated_wall"

    @property
    def has_left_wall(self) -> bool:
        return self is not BoundaryCondition.CAUCHY_FAR_FIELD


@dataclass
class GasState:
    """Discrete fields at one time level.

    v, theta: (M,) positive cell values; b: (M, 2) cell values;
    u: (M+1,) node values; w: (M+1, 2) node values.

    b and w are held column-major (Fortran order), with each component
    contiguous: the layout in which LAPACK takes and returns the solver's
    two-column solves. The constructor converts any other layout.
    """

    v: np.ndarray
    theta: np.ndarray
    b: np.ndarray
    u: np.ndarray
    w: np.ndarray
    t: float = 0.0
    step: int = 0

    def __post_init__(self):
        self.b = np.asfortranarray(self.b)
        self.w = np.asfortranarray(self.w)

    def copy(self) -> "GasState":
        return GasState(v=self.v.copy(), theta=self.theta.copy(),
                        b=self.b.copy(order="F"), u=self.u.copy(),
                        w=self.w.copy(order="F"), t=self.t, step=self.step)

    def validate(self, grid: Grid, coeffs=None) -> FieldBounds:
        """Check array shapes against the grid, strict positivity of v and
        theta, and that every field is finite; return the FieldBounds that
        the check read. coeffs, if given, are the solver.StateCoeffs of this
        state, as a step report holds them: the maximum of their |b|^2
        decides b's finiteness instead of a scan of b, and a b_sq of None
        (w and b +0.0) leaves both w and b unscanned."""
        return _check_fields(self, grid, (), coeffs)


@dataclass(frozen=True)
class StateBlock:
    """K states of one grid stacked along a leading record axis.

    v, theta: (K, M) and u: (K, M+1) are stacked when the block is made,
    with t and step, each record's time and step; b: (K, M, 2) and w:
    (K, M+1, 2) are stacked when first read, so a reader that needs neither
    copies neither. Stacking is stack_rows: a block of one views its state.
    The monitors of mhd1d.diagnostics read a block as they read a GasState,
    and give one value per record.
    """

    states: tuple
    v: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    t: tuple
    step: tuple

    @classmethod
    def of(cls, states: Sequence[GasState]) -> "StateBlock":
        """The block of the states, in order."""
        return cls(tuple(states), *(stack_rows([getattr(s, name) for s in states])
                                    for name in ("v", "theta", "u")),
                   t=tuple(s.t for s in states),
                   step=tuple(s.step for s in states))

    b = cached_property(lambda self: stack_rows([s.b for s in self.states]))
    w = cached_property(lambda self: stack_rows([s.w for s in self.states]))

    def validate(self, grid: Grid, coeffs=None) -> FieldBounds:
        """GasState.validate of every record at once: each check is one call
        over the whole block, and the FieldBounds hold one entry per record;
        coeffs then hold the records' |b|^2 stacked the same way as b_sq.
        The shapes of b and w are checked state by state, so the check
        stacks w only to scan it and b only without coeffs."""
        return _check_fields(self, grid, (len(self.t),), coeffs)


class FieldBounds(NamedTuple):
    """What validate reads off a state or a block, per record: the extremes
    of v and theta and u_abs, the sum of |u| over the nodes."""

    v_min: np.ndarray
    v_max: np.ndarray
    theta_min: np.ndarray
    theta_max: np.ndarray
    u_abs: np.ndarray


def stack_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Equal-shape arrays of one or two axes stacked along a new leading axis
    (a single array is viewed, x[None]). 1-D rows are concatenated and
    reshaped; 2-D rows are concatenated transposed and viewed back, so a
    column-major row (b, w) keeps its components contiguous."""
    if len(rows) == 1:
        return rows[0][None]
    shape = rows[0].shape
    if any(r.shape != shape for r in rows):
        raise ValueError(f"cannot stack arrays of shapes {[r.shape for r in rows]}")
    # np.concatenate costs a third of np.stack's call overhead
    if len(shape) == 1:
        return np.concatenate(rows).reshape(len(rows), shape[0])
    return np.concatenate([r.T for r in rows]).reshape(
        (len(rows),) + shape[::-1]).swapaxes(1, -1)


def _check_fields(s, grid: Grid, lead: tuple, coeffs) -> FieldBounds:
    m = grid.cells
    rows = s.states if lead else (s,)  # whose b and w shapes are checked
    for name, arr, want in (("v", s.v, lead + (m,)), ("theta", s.theta, lead + (m,)),
                            *(("b", r.b, (m, 2)) for r in rows),
                            ("u", s.u, lead + (m + 1,)),
                            *(("w", r.w, (m + 1, 2)) for r in rows)):
        if arr.shape != want:
            raise ValueError(f"{name} has shape {arr.shape}, expected {want}")
    # One reduction per field decides: NaN and -inf reach the minima, NaN
    # and +inf the maxima, the sum of |u| and the maximum of |b|^2, and
    # isfinite scans w (and b without coeffs); quiet coeffs (b_sq None)
    # vouch for both. A sum of finite values that overflows, or a |b|^2 that
    # did, only sends the state on to the scan, which then passes it.
    b_sq = None if coeffs is None else coeffs.b_sq
    scans = ((s.b, s.w) if coeffs is None
             else () if b_sq is None else (s.w,))
    v_min, v_max = s.v.min(axis=-1), s.v.max(axis=-1)
    theta_min, theta_max = s.theta.min(axis=-1), s.theta.max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        u_abs = np.abs(s.u).sum(axis=-1)
        top = v_max + theta_max + u_abs
        if b_sq is not None:
            top += b_sq.max()
    if not ((np.minimum(v_min, theta_min) > 0.0).all() and np.isfinite(top).all()
            and all(np.isfinite(arr).all() for arr in scans)):
        _scan_fields(s)
    return FieldBounds(v_min, v_max, theta_min, theta_max, u_abs)


def _scan_fields(s) -> None:
    """Raise for the first defect, in the order positivity of v, of theta,
    then finiteness field by field; pass if there is none."""
    if not (s.v > 0.0).all():
        raise ValueError(f"nonpositive specific volume, min v = {s.v.min()}")
    if not (s.theta > 0.0).all():
        raise ValueError(f"nonpositive temperature, min theta = {s.theta.min()}")
    for name in ("v", "theta", "b", "u", "w"):
        arr = getattr(s, name)
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"non-finite {name}: {arr[~finite].flat[0]}")


@dataclass(frozen=True)
class ConstantProfile:
    """Far-field equilibrium everywhere."""


@dataclass(frozen=True)
class GaussianBump:
    """Per-field Gaussian perturbations of the far-field state.

    Each field takes the value far + amp * exp(-((x - center) / width)**2).
    Amplitudes must keep v and theta positive: amp_v > -1 and amp_theta > -1.
    """

    center: float = 0.0
    width: float = 1.0
    amp_v: float = 0.0
    amp_u: float = 0.0
    amp_theta: float = 0.0
    amp_b: tuple = (0.0, 0.0)
    amp_w: tuple = (0.0, 0.0)

    def scaled(self, factor: float) -> "GaussianBump":
        """All amplitudes multiplied by `factor` (used by parameter sweeps)."""
        return GaussianBump(center=self.center, width=self.width,
                            amp_v=factor * self.amp_v, amp_u=factor * self.amp_u,
                            amp_theta=factor * self.amp_theta,
                            amp_b=tuple(factor * a for a in self.amp_b),
                            amp_w=tuple(factor * a for a in self.amp_w))


@dataclass(frozen=True)
class FileProfile:
    """Initial fields ingested from a snapshot file pair (see mhd1d.snapshots)."""

    path: str


InitialProfile = Union[ConstantProfile, GaussianBump, FileProfile]


def _bump(x: np.ndarray, far: float, amp: float, center: float, width: float) -> np.ndarray:
    return far + amp * np.exp(-((x - center) / width) ** 2)


def make_initial_state(grid: Grid, profile: InitialProfile,
                       bc: BoundaryCondition) -> GasState:
    """Build the t = 0 state for a profile, enforcing positivity and
    compatibility with the chosen boundary regime.

    Rejects profiles whose continuum infimum of v or theta is nonpositive,
    file profiles whose cell count, left_edge or dx (beyond the grid's
    coordinate_tol, as load_snapshot allows) mismatches the grid, and wall
    regimes whose initial u, w (at the wall node) or b (in the wall cell)
    exceed 1e-12.
    u and w on every far-field end node (both ends for Cauchy, the right end
    with a wall) are set to FAR_FIELD_U and FAR_FIELD_W, the values the
    solver holds there, so that the initial data match the boundary data
    instead of keeping the profile's sampled tail.
    """
    m = grid.cells
    xc = grid.centers()
    xn = grid.nodes()

    if isinstance(profile, ConstantProfile):
        state = GasState(v=np.full(m, FAR_FIELD_V), theta=np.full(m, FAR_FIELD_THETA),
                         b=np.zeros((m, 2)), u=np.zeros(m + 1), w=np.zeros((m + 1, 2)))
    elif isinstance(profile, GaussianBump):
        # The continuum infimum of far + amp*exp(...) is min(far, far + amp),
        # so positivity is decided by the amplitude, not the sampled minimum.
        if FAR_FIELD_V + min(0.0, profile.amp_v) <= 0.0:
            raise ProfileError(f"v amplitude {profile.amp_v} drives inf v0 to "
                               f"{FAR_FIELD_V + profile.amp_v} <= 0")
        if FAR_FIELD_THETA + min(0.0, profile.amp_theta) <= 0.0:
            raise ProfileError(f"theta amplitude {profile.amp_theta} drives inf theta0 to "
                               f"{FAR_FIELD_THETA + profile.amp_theta} <= 0")
        if not profile.width > 0.0:
            raise ProfileError(f"bump width must be > 0, got {profile.width}")
        c, wdt = profile.center, profile.width
        # the transposes of the stacked components are column-major
        b = np.stack([_bump(xc, FAR_FIELD_B, profile.amp_b[0], c, wdt),
                      _bump(xc, FAR_FIELD_B, profile.amp_b[1], c, wdt)]).T
        w = np.stack([_bump(xn, FAR_FIELD_W, profile.amp_w[0], c, wdt),
                      _bump(xn, FAR_FIELD_W, profile.amp_w[1], c, wdt)]).T
        state = GasState(v=_bump(xc, FAR_FIELD_V, profile.amp_v, c, wdt),
                         theta=_bump(xc, FAR_FIELD_THETA, profile.amp_theta, c, wdt),
                         b=b, u=_bump(xn, FAR_FIELD_U, profile.amp_u, c, wdt), w=w)
    elif isinstance(profile, FileProfile):
        from . import snapshots  # deferred: snapshots imports GasState from here

        loaded, file_grid = snapshots.load_snapshot(profile.path)
        if file_grid.cells != m:
            raise ProfileError(f"file profile has {file_grid.cells} cells, grid has {m}")
        for name in ("left_edge", "dx"):
            have, want = getattr(file_grid, name), getattr(grid, name)
            if abs(have - want) > grid.coordinate_tol:
                raise ProfileError(f"file profile has {name} = {have!r}, "
                                   f"grid has {want!r}")
        state = GasState(v=loaded.v, theta=loaded.theta, b=loaded.b,
                         u=loaded.u, w=loaded.w, t=0.0, step=0)
    else:
        raise TypeError(f"unknown profile type {type(profile).__name__}")

    if bc.has_left_wall:
        bad = []
        if abs(state.u[0]) > WALL_TOL:
            bad.append(f"u(wall) = {state.u[0]}")
        if np.max(np.abs(state.w[0])) > WALL_TOL:
            bad.append(f"|w(wall)| = {np.max(np.abs(state.w[0]))}")
        if np.max(np.abs(state.b[0])) > WALL_TOL:
            bad.append(f"|b(wall cell)| = {np.max(np.abs(state.b[0]))}")
        if bad:
            raise ProfileError("profile incompatible with wall regime: " + ", ".join(bad))
    far_ends = [-1] if bc.has_left_wall else [0, -1]
    state.u[far_ends] = FAR_FIELD_U
    state.w[far_ends] = FAR_FIELD_W

    state.validate(grid)
    return state
