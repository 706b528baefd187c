"""Flat key = value run configuration.

One `key = value` per line, `#` starts a comment, sections are dotted key
prefixes. Unknown keys are errors, not warnings. See README for the full key
table and defaults.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    BoundaryCondition,
    ConstantProfile,
    FileProfile,
    GaussianBump,
    Grid,
    InitialProfile,
    PhysicalParams,
)
from .diagnostics import SLAB_INTERVALS_PER_CELL, slab_intervals_bounded
from .solver import StepControl


class ConfigError(ValueError):
    """Configuration problem; message names the key, line, and constraint."""


_PROFILE_NAMES = {ConstantProfile: "constant", GaussianBump: "gaussian_bump",
                  FileProfile: "file"}

# key -> (parser, default, lower bound); a None default means "computed
# later"; a bound (op, limit) holds for every value a config sets, and the
# rules that join keys live in parse_config
_KEYS = {
    "grid.cells": (int, 512, (">=", 4)),
    "grid.mass": (float, 32.0, (">", 0)),
    "grid.left": (float, None, None),
    "bc": (str, "cauchy", None),
    "params.preset": (str, None, None),
    "params.alpha": (float, 0.0, (">=", 0)),
    "params.beta": (float, 1.0, (">=", 0)),
    "params.mu1": (float, 1.0, (">", 0)),
    "params.mu2": (float, 0.0, (">=", 0)),
    "params.kappa": (float, 1.0, (">", 0)),
    "params.lambda": (float, 1.0, (">", 0)),
    "params.nu": (float, 1.0, (">", 0)),
    "params.R": (float, 1.0, (">", 0)),
    "params.cv": (float, 1.0, (">", 0)),
    "initial.profile": (str, "constant", None),
    "initial.center": (float, 0.0, None),
    "initial.width": (float, 1.0, (">", 0)),
    "initial.amp_v": (float, 0.0, None),
    "initial.amp_u": (float, 0.0, None),
    "initial.amp_theta": (float, 0.0, None),
    "initial.amp_b1": (float, 0.0, None),
    "initial.amp_b2": (float, 0.0, None),
    "initial.amp_w1": (float, 0.0, None),
    "initial.amp_w2": (float, 0.0, None),
    "initial.jitter": (float, 0.0, (">=", 0)),
    "initial.file": (str, None, None),
    "time.t_end": (float, 1.0, (">", 0)),
    "time.cfl": (float, 0.4, None),
    "time.dt_min": (float, 1e-10, (">", 0)),
    "time.dt_max": (float, 1.0, None),
    "time.newton_tol": (float, 1e-10, (">", 0)),
    "time.newton_max_iter": (int, 50, (">=", 0)),
    "time.retry_max": (int, 20, (">=", 0)),
    "output.dir": (str, "out", None),
    "output.snapshot_interval": (float, 0.0, (">=", 0)),
    "output.diagnostics_every": (int, 1, (">=", 1)),
    "repr.anchor": (float, None, None),
    "seed": (int, 0, (">=", 0)),
    "sweep.cap": (int, 64, (">=", 1)),
    "sweep.workers": (int, 1, (">=", 1)),
}

_BOUND_OPS = {">": operator.gt, ">=": operator.ge}

# key -> PhysicalParams field of each constant the normalized preset fixes
_PRESET_FIXED = {"params.mu1": "mu1", "params.mu2": "mu2",
                 "params.kappa": "kappa_tilde", "params.lambda": "lam",
                 "params.nu": "nu", "params.R": "R", "params.cv": "c_v"}


_NORMALIZED = ("normalized constants (mu1 = kappa = lambda = nu = R = cv = 1, "
               "mu2 = alpha)")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description."""

    grid: Grid
    bc: BoundaryCondition
    params: PhysicalParams
    profile: InitialProfile
    control: StepControl
    t_end: float
    out_dir: str
    snapshot_interval: float
    diagnostics_every: int
    sweep_cap: int
    sweep_workers: int
    repr_node: Optional[int]  # the node nearest repr.anchor
    normalized_preset: bool

    def with_params(self, alpha: float, beta: float) -> "RunConfig":
        """Rebuild with new exponents, preserving the preset coupling
        mu2 = alpha when the normalized preset is in force. A repr.anchor
        needs normalized constants, as parse_config requires of a file."""
        what = f"alpha = {alpha!r}, beta = {beta!r}"
        if self.normalized_preset:
            params = _build(what, PhysicalParams.normalized, alpha=alpha, beta=beta)
        else:
            params = _build(what, replace, self.params, alpha=alpha, beta=beta)
        if self.repr_node is not None and not params.is_normalized:
            raise ConfigError(f"{what}: repr.anchor requires {_NORMALIZED}")
        return replace(self, params=params)

    def with_amplitude_scale(self, factor: float) -> "RunConfig":
        if isinstance(self.profile, GaussianBump):
            return replace(self, profile=self.profile.scaled(factor))
        if factor == 1.0 or isinstance(self.profile, ConstantProfile):
            return self
        raise ConfigError("amplitude scaling requires a gaussian_bump profile")


def _strip_comment(line: str) -> str:
    if line.lstrip().startswith("#"):
        return ""
    out = []
    for i, ch in enumerate(line):
        if ch == "#" and (i == 0 or line[i - 1].isspace()):
            break
        out.append(ch)
    return "".join(out)


def _refusal(line: int, key: str, what: str) -> ConfigError:
    return ConfigError(f"line {line}: key '{key}' {what}")


def _entries(text: str) -> dict:
    """{key: (value, line)} of every key the text sets, each value parsed by
    its _KEYS parser, finite if a float, and within its bound; the first
    faulty line, in file order, raises ConfigError."""
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _strip_comment(line).strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' "
                              f"(first set on line {entries[key][1]})")
        if not raw:
            raise _refusal(lineno, key, "has no value")
        parser, _, bound = _KEYS[key]
        try:
            value = parser(raw)
        except ValueError:
            raise _refusal(lineno, key, f"expects {parser.__name__}, "
                                        f"got {raw!r}") from None
        if parser is float and not math.isfinite(value):
            raise _refusal(lineno, key, f"expects a finite float, got {raw!r}")
        if bound is not None and not _BOUND_OPS[bound[0]](value, bound[1]):
            raise _refusal(lineno, key, "violates {} {} {}".format(
                key.rpartition(".")[2], *bound))
        entries[key] = (value, lineno)
    return entries


def _build(what: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), with a ValueError it raises turned into a
    ConfigError that names what the arguments came from."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _nodes_resolved(grid: Grid) -> bool:
    """Whether the node coordinates left + j*dx are finite and strictly
    increasing, decided without building them: rounding j*dx moves a node by
    at most half an ulp of the span cells*dx, and adding the left edge by at
    most half an ulp of the largest coordinate, so a spacing dx above the sum
    of those two ulps keeps every pair of neighbours apart."""
    span, right = grid.cells * grid.dx, grid.right_edge
    if not (math.isfinite(span) and math.isfinite(right)):
        return False
    return grid.dx > math.ulp(span) + math.ulp(max(abs(grid.left_edge), abs(right)))


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration. _entries checks each key
    the text sets against its own bound (_KEYS) as its line is read; the
    checks here are the rest: names, upper bounds and the rules that join
    keys."""
    entries = _entries(text)

    def get(key):
        return entries[key][0] if key in entries else _KEYS[key][1]

    def fail(key, constraint):
        line = entries[key][1] if key in entries else 0
        raise _refusal(line, key, f"violates {constraint}")

    try:
        bc = BoundaryCondition(get("bc"))
    except ValueError:
        fail("bc", f"one of {sorted(b.value for b in BoundaryCondition)}")

    cells, mass = get("grid.cells"), get("grid.mass")
    if not slab_intervals_bounded(cells, mass):
        fail("grid.mass", f"mass <= {SLAB_INTERVALS_PER_CELL} * grid.cells "
             "(at most that many unit intervals per cell)")
    left = get("grid.left")
    if left is None:
        left = -0.5 * mass if bc is BoundaryCondition.CAUCHY_FAR_FIELD else 0.0
    grid = _build("grid.cells, grid.mass", Grid.uniform, cells, mass, left)
    if not _nodes_resolved(grid):
        fail("grid.left" if "grid.left" in entries else "grid.cells",
             "finite, strictly increasing node coordinates grid.left + "
             "j * grid.mass / grid.cells")

    preset = get("params.preset")
    if preset is not None and preset != "normalized":
        fail("params.preset", "'normalized' (or omit the key)")
    alpha, beta = get("params.alpha"), get("params.beta")
    if preset == "normalized":
        for key in _PRESET_FIXED:
            if key in entries:
                fail(key, "no explicit constants together with "
                          "params.preset = normalized")
        params = _build("params.alpha, params.beta",
                        PhysicalParams.normalized, alpha=alpha, beta=beta)
    else:
        params = _build("params.*", PhysicalParams, alpha=alpha, beta=beta,
                        **{name: get(key) for key, name in _PRESET_FIXED.items()})

    profile_kind = get("initial.profile")
    if profile_kind == "constant":
        profile: InitialProfile = ConstantProfile()
    elif profile_kind == "gaussian_bump":
        width, jitter = get("initial.width"), get("initial.jitter")
        amps = {name: get(f"initial.amp_{name}")
                for name in ("v", "u", "theta", "b1", "b2", "w1", "w2")}
        if jitter > 0.0:
            rng = np.random.default_rng(get("seed"))
            for name in amps:
                amps[name] *= 1.0 + jitter * rng.standard_normal()
        profile = GaussianBump(center=get("initial.center"), width=width,
                               amp_v=amps["v"], amp_u=amps["u"],
                               amp_theta=amps["theta"],
                               amp_b=(amps["b1"], amps["b2"]),
                               amp_w=(amps["w1"], amps["w2"]))
    elif profile_kind == "file":
        path = get("initial.file")
        if path is None:
            raise ConfigError("initial.profile = file requires initial.file")
        profile = FileProfile(path)
    else:
        fail("initial.profile", "one of constant, gaussian_bump, file")

    cfl = get("time.cfl")
    if not 0.0 < cfl <= 1.0:
        fail("time.cfl", "0 < cfl <= 1")
    dt_min, dt_max = get("time.dt_min"), get("time.dt_max")
    if not dt_min < dt_max:
        fail("time.dt_max", "dt_min < dt_max")
    control = _build("time.*", StepControl, cfl=cfl, dt_min=dt_min,
                     dt_max=dt_max, newton_tol=get("time.newton_tol"),
                     newton_max_iter=get("time.newton_max_iter"),
                     retry_max=get("time.retry_max"))

    anchor = get("repr.anchor")  # used at its nearest node
    if anchor is not None and not params.is_normalized:
        fail("repr.anchor", _NORMALIZED)
    inside = anchor is not None and grid.left_edge < anchor < grid.right_edge
    node = round((anchor - left) / grid.dx) if inside else None
    if anchor is not None and not (inside and 0 < node < cells):
        fail("repr.anchor", "an interior nearest node (1 to grid.cells - 1)")

    return RunConfig(grid=grid, bc=bc, params=params, profile=profile,
                     control=control, t_end=get("time.t_end"),
                     out_dir=get("output.dir"),
                     snapshot_interval=get("output.snapshot_interval"),
                     diagnostics_every=get("output.diagnostics_every"),
                     sweep_cap=get("sweep.cap"),
                     sweep_workers=get("sweep.workers"), repr_node=node,
                     normalized_preset=(preset == "normalized"))


def parse_config_file(path) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def describe(cfg: RunConfig) -> str:
    """Canonical one-key-per-line rendering of every resolved value of a
    parsed config, itself a config that parse_config reads back to an equal
    RunConfig: the constants the normalized preset fixes are left to it, a
    bump prints its resolved amplitudes (jitter applied, so without jitter or
    seed), a file profile names its file, and repr.anchor, when set, prints
    the coordinate of the node it resolved to. Floats print as their shortest
    round-trip repr."""
    grid, ctl, profile = cfg.grid, cfg.control, cfg.profile
    values = {"grid.cells": grid.cells, "grid.mass": grid.mass,
              "grid.left": grid.left_edge, "bc": cfg.bc.value}
    if cfg.normalized_preset:
        values["params.preset"] = "normalized"
    else:
        values.update({key: getattr(cfg.params, name)
                       for key, name in _PRESET_FIXED.items()})
    values.update({"params.alpha": cfg.params.alpha,
                   "params.beta": cfg.params.beta,
                   "initial.profile": _PROFILE_NAMES[type(profile)]})
    if isinstance(profile, GaussianBump):
        values.update({"initial.center": profile.center,
                       "initial.width": profile.width,
                       "initial.amp_v": profile.amp_v,
                       "initial.amp_u": profile.amp_u,
                       "initial.amp_theta": profile.amp_theta,
                       "initial.amp_b1": profile.amp_b[0],
                       "initial.amp_b2": profile.amp_b[1],
                       "initial.amp_w1": profile.amp_w[0],
                       "initial.amp_w2": profile.amp_w[1]})
    elif isinstance(profile, FileProfile):
        values["initial.file"] = profile.path
    values.update({"time.t_end": cfg.t_end, "time.cfl": ctl.cfl,
                   "time.dt_min": ctl.dt_min, "time.dt_max": ctl.dt_max,
                   "time.newton_tol": ctl.newton_tol,
                   "time.newton_max_iter": ctl.newton_max_iter,
                   "time.retry_max": ctl.retry_max,
                   "output.dir": cfg.out_dir,
                   "output.snapshot_interval": cfg.snapshot_interval,
                   "output.diagnostics_every": cfg.diagnostics_every})
    if cfg.repr_node is not None:
        values["repr.anchor"] = grid.left_edge + cfg.repr_node * grid.dx
    values.update({"sweep.cap": cfg.sweep_cap,
                   "sweep.workers": cfg.sweep_workers})
    return "\n".join(f"{key} = {float(value)!r}" if _KEYS[key][0] is float
                     else f"{key} = {value}" for key, value in values.items())
