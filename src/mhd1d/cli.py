"""Command-line entry points: run, sweep, verify, check-config.

Exit codes: 0 success, 2 configuration error or unwritable output, 3 solver
failure (lost positivity or diverged temperature solve), 4
verification-study failure.
"""
from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import verification
from .config import ConfigError, RunConfig, describe, parse_config_file
from .core import make_initial_state
from .diagnostics import DiagnosticsCollector
from .snapshots import emit_diagnostics, emit_snapshot
from .solver import SolverFailure, run_until


# run-wide summary of a run that produced no diagnostics record
_NO_SUMMARY = {"min_v": math.nan, "min_theta": math.nan,
              "E_entropy_final": math.nan, "repr_residual_max": math.nan}

_AXES = ("alpha", "beta", "amp")

# glibc mallopt parameters, and the values _keep_freed_heap sets: the ceiling
# of glibc's own dynamic mmap threshold on 64-bit systems, and twice it for
# the trim threshold, the pair glibc sets itself when it raises the former
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


def _error(message: str) -> int:
    """Report an input or output the command cannot use; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_simulation(cfg: RunConfig, out_dir=None) -> tuple[int, dict]:
    """Execute one configured run: snapshots, diagnostics stream, summary.

    Returns the exit code and the run-wide summary: the minima of v and theta
    and the largest representation residual over every accepted step (NaN
    without the representation diagnostic), and E_entropy of the last record.
    The summary does not depend on the diagnostics cadence.
    """
    try:
        state = make_initial_state(cfg.grid, cfg.profile, cfg.bc)
        with np.errstate(over="raise", invalid="raise"):  # the t = 0 record
            collector = DiagnosticsCollector(cfg.grid, cfg.params, cfg.bc,
                                             state, repr_anchor=cfg.repr_node)
    except FloatingPointError as exc:  # only the record raises it
        largest = ", ".join(f"|{name}| = {np.max(np.abs(getattr(state, name))):.3g}"
                            for name in ("v", "theta", "u", "w", "b"))
        return (_error(f"initial profile rejected: {exc}; largest {largest}"),
                dict(_NO_SUMMARY))
    except (ValueError, OSError) as exc:
        return _error(f"initial profile rejected: {exc}"), dict(_NO_SUMMARY)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:  # after the profile is accepted, so a rejected one leaves no directory
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return (_error(f"cannot create output directory {out}: {exc}"),
                dict(_NO_SUMMARY))
    try:
        return _simulate(cfg, state, collector, out)
    except OSError as exc:
        return _error(f"cannot write output in {out}: {exc}"), dict(_NO_SUMMARY)


def _simulate(cfg: RunConfig, state, collector, out: Path) -> tuple[int, dict]:
    """run_simulation from the initial state and the collector that recorded
    it on; a failed write raises."""
    interval, t0 = cfg.snapshot_interval, state.t
    snap_next = t0 + interval
    failure = None
    with open(out / "diagnostics.jsonl", "w") as stream:
        emit_diagnostics([collector.last], stream)
        emit_snapshot(state, cfg.grid, out / "snapshot_initial.csv")

        def write(records):  # on the cadence, a block in one call
            printed = [r for r in records if r.step % cfg.diagnostics_every == 0]
            if printed:
                emit_diagnostics(printed, stream)

        def sink(s, report):
            nonlocal snap_next
            write(collector.push(s, report))
            if interval > 0.0 and s.t >= snap_next - 1e-12:
                emit_snapshot(s, cfg.grid, out / f"snapshot_{s.step:06d}.csv")
                # the first multiple of the interval past t + 1e-12, in one
                # step whatever the interval; past an overflow of t / interval
                # every step snapshots, as below the float spacing of t
                count = (s.t - t0 + 1e-12) / interval
                snap_next = (t0 + (math.floor(count) + 1) * interval
                             if math.isfinite(count) else s.t)

        try:
            state = run_until(state, cfg.grid, cfg.t_end, cfg.params, cfg.bc,
                              cfg.control, sink=sink)
        except SolverFailure as exc:
            failure = exc
        write(collector.flush())  # before the failure message reads the minima
        last = collector.last
        if last.step % cfg.diagnostics_every != 0:  # the cadence skipped it
            emit_diagnostics([last], stream)

    summary = {"min_v": collector.min_v_run,
               "min_theta": collector.min_theta_run,
               "E_entropy_final": last.E_entropy,
               "repr_residual_max": (math.nan if collector.acc is None
                                     else collector.max_repr_residual)}
    if failure is not None:
        print(f"error: {failure}; run minima: v = {collector.min_v_run:.6g}, "
              f"theta = {collector.min_theta_run:.6g}", file=sys.stderr)
        return 3, summary
    emit_snapshot(state, cfg.grid, out / "snapshot_final.csv")
    repr_txt = ("n/a" if collector.acc is None
                else f"{collector.max_repr_residual:.6g}")
    print(f"run complete: t = {state.t:.6g}, steps = {state.step}")
    print(f"summary: min_v = {collector.min_v_run:.17g}, "
          f"max_v = {collector.max_v_run:.17g}, "
          f"min_theta = {collector.min_theta_run:.17g}, "
          f"max_theta = {collector.max_theta_run:.17g}")
    print(f"summary: E_entropy_final = {last.E_entropy:.17g}, "
          f"W_integral = {last.W_cum:.17g}, "
          f"repr_residual_max = {repr_txt}")
    return 0, summary


def _cmd_run(args) -> int:
    return run_simulation(parse_config_file(args.config), args.out)[0]


def _parse_axes(axis_args) -> dict:
    """The sweep axes named on the command line, with their values, in the
    order alpha, beta, amp."""
    axes = {}
    for item in axis_args or []:
        name, _, values = item.partition("=")
        name = name.strip()
        if name not in _AXES:
            raise ConfigError(f"unknown sweep axis '{name}' "
                              "(expected alpha, beta, or amp)")
        if name in axes:
            raise ConfigError(f"duplicate sweep axis '{name}'")
        try:
            axes[name] = [float(x) for x in values.split(",") if x.strip()]
        except ValueError:
            raise ConfigError(f"axis '{name}' values must be numbers, "
                              f"got {values!r}") from None
        if not all(math.isfinite(x) for x in axes[name]):
            raise ConfigError(f"axis '{name}' values must be finite, "
                              f"got {values!r}")
        if not axes[name]:
            raise ConfigError(f"axis '{name}' has no values")
    return {name: axes[name] for name in _AXES if name in axes}


def _sweep_worker(task):
    cfg, run_dir, combo = task
    code, summary = run_simulation(cfg, run_dir)
    return {"alpha": cfg.params.alpha, "beta": cfg.params.beta,
            "amp": combo.get("amp", 1.0), "exit": code, **summary}


def _cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config)
    axes = _parse_axes(args.axis)
    combos = [dict(zip(axes, values))
              for values in itertools.product(*axes.values())]
    if len(combos) > cfg.sweep_cap:
        raise ConfigError(f"sweep of {len(combos)} runs exceeds "
                          f"sweep.cap = {cfg.sweep_cap}; refusing to start")

    out_root = Path(args.out if args.out is not None else cfg.out_dir)
    tasks, named = [], {}
    for combo in combos:  # {axis: value}, one run each
        name = "_".join(["run"] + [f"{k}{v:g}" for k, v in combo.items()])
        values = ", ".join(f"{k} = {v!r}" for k, v in combo.items())
        if name in named:
            raise ConfigError(f"sweep runs ({named[name]}) and ({values}) would "
                              f"share the run directory {name}; refusing to start")
        named[name] = values
        tasks.append((cfg.member(*map(combo.get, _AXES)), str(out_root / name),
                      combo))

    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _error(f"cannot create output directory {out_root}: {exc}")
    if cfg.sweep_workers > 1:
        # deferred: the import costs every other command 15-20 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.sweep_workers) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(task) for task in tasks]

    columns = ["alpha", "beta", "amp", "exit", "min_v", "min_theta",
               "E_entropy_final", "repr_residual_max"]
    try:
        with open(out_root / "summary.csv", "w") as f:
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")
    except OSError as exc:
        return _error(f"cannot write output in {out_root}: {exc}")
    print(f"sweep complete: {len(rows)} runs, summary in "
          f"{out_root / 'summary.csv'}")
    return 0


def _csv_cell(value) -> str:
    return "%.17g" % value if isinstance(value, float) else str(value)


def _cmd_verify(_args) -> int:
    studies = verification.standard_studies()
    for study in studies:
        print(json.dumps(study))
    return 0 if all(study["pass"] for study in studies) else 4


def _cmd_check_config(args) -> int:
    print(describe(parse_config_file(args.config)))
    return 0


def _keep_freed_heap() -> None:
    """Keep the memory that a step's temporaries free in the process's heap.

    A step at M = 8192 makes arrays of 64 to 130 kB by the dozen. By default
    glibc gives the top of its heap back to the system once 128 kB or more
    of it is free (and maps arrays above its mmap threshold one by one), so
    the next temporaries fault their pages in afresh: about 200 minor page
    faults a step, against 3 with these thresholds. Peak memory is the same,
    since a freed block is reused before the heap grows. A C library without
    mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="mhd1d",
        description="1D Lagrangian planar-MHD simulator with invariant monitors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None,
                       help="override the configured output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="Cartesian parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                         help="sweep axis: alpha, beta, or amp")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification studies")
    p_verify.set_defaults(func=_cmd_verify)

    p_check = sub.add_parser("check-config", help="validate a config file")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(func=_cmd_check_config)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
