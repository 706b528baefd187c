"""Command-line entry points: run, sweep, verify, check-config.

Exit codes: 0 success, 2 configuration error, 3 solver failure (lost
positivity or diverged temperature solve), 4 verification-study failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import verification
from .config import ConfigError, RunConfig, parse_config_file
from .core import make_initial_state
from .diagnostics import DiagnosticsCollector
from .snapshots import emit_diagnostics, emit_snapshot
from .solver import SolverFailure, run_until


# run-wide summary of a run that produced no diagnostics record
_NO_SUMMARY = {"min_v": math.nan, "min_theta": math.nan,
              "E_entropy_final": math.nan, "repr_residual_max": math.nan}


def run_simulation(cfg: RunConfig, out_dir=None) -> tuple[int, dict]:
    """Execute one configured run: snapshots, diagnostics stream, summary.

    Returns the exit code and the run-wide summary: the minima of v and theta
    and the largest representation residual over every accepted step (NaN
    without the representation diagnostic), and E_entropy of the last record.
    The summary does not depend on the diagnostics cadence.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}",
              file=sys.stderr)
        return 2, dict(_NO_SUMMARY)

    try:
        state = make_initial_state(cfg.grid, cfg.profile, cfg.bc)
    except (ValueError, OSError) as exc:
        print(f"error: initial profile rejected: {exc}", file=sys.stderr)
        return 2, dict(_NO_SUMMARY)

    anchor = (None if cfg.repr_anchor is None
              else round((cfg.repr_anchor - cfg.grid.left_edge) / cfg.grid.dx))
    collector = DiagnosticsCollector(cfg.grid, cfg.params, cfg.bc, state,
                                     repr_anchor=anchor)

    interval, t0 = cfg.snapshot_interval, state.t
    snap_next = [t0 + interval]

    def maybe_snapshot(s):
        if interval <= 0.0 or s.t < snap_next[0] - 1e-12:
            return
        emit_snapshot(s, cfg.grid, out / f"snapshot_{s.step:06d}.csv")
        # the first multiple of the interval past t + 1e-12, in one step
        # whatever the interval; where t / interval overflows, the next
        # step snapshots, as every step does below the float spacing of t
        count = (s.t - t0 + 1e-12) / interval
        snap_next[0] = (t0 + (math.floor(count) + 1) * interval
                        if math.isfinite(count) else s.t)

    pending = [None]  # last record not yet written, for sparse cadences
    last = [collector.make_record(state)]
    failure = None
    with open(out / "diagnostics.jsonl", "w") as stream:
        emit_diagnostics(last[0], stream)
        emit_snapshot(state, cfg.grid, out / "snapshot_initial.csv")

        def write(records):
            for record in records:
                if record.step % cfg.diagnostics_every == 0:
                    emit_diagnostics(record, stream)
                    pending[0] = None
                else:
                    pending[0] = record
                last[0] = record

        def sink(s, report):
            write(collector.push(s, report))
            maybe_snapshot(s)

        try:
            state = run_until(state, cfg.grid, cfg.t_end, cfg.params, cfg.bc,
                              cfg.control, sink=sink)
        except SolverFailure as exc:
            failure = exc
        # the buffered steps, before the failure message reads the minima
        write(collector.flush())
        if failure is not None:
            print(f"error: {failure}; run minima: v = {collector.min_v_run:.6g}, "
                  f"theta = {collector.min_theta_run:.6g}", file=sys.stderr)
        if pending[0] is not None:
            emit_diagnostics(pending[0], stream)

    status = 0 if failure is None else 3
    summary = {"min_v": collector.min_v_run,
               "min_theta": collector.min_theta_run,
               "E_entropy_final": last[0].E_entropy,
               "repr_residual_max": (math.nan if collector.acc is None
                                     else collector.max_repr_residual)}
    if status == 0:
        emit_snapshot(state, cfg.grid, out / "snapshot_final.csv")
        repr_txt = ("n/a" if collector.acc is None
                    else f"{collector.max_repr_residual:.6g}")
        print(f"run complete: t = {state.t:.6g}, steps = {state.step}")
        print(f"summary: min_v = {collector.min_v_run:.17g}, "
              f"max_v = {collector.max_v_run:.17g}, "
              f"min_theta = {collector.min_theta_run:.17g}, "
              f"max_theta = {collector.max_theta_run:.17g}")
        print(f"summary: E_entropy_final = {last[0].E_entropy:.17g}, "
              f"W_integral = {collector.w_cum:.17g}, "
              f"repr_residual_max = {repr_txt}")
    return status, summary


def _cmd_run(args) -> int:
    try:
        cfg = parse_config_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_simulation(cfg, args.out)[0]


def _parse_axes(axis_args) -> dict:
    axes = {}
    for item in axis_args or []:
        name, _, values = item.partition("=")
        name = name.strip()
        if name not in ("alpha", "beta", "amp"):
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
    return axes


def _sweep_case(cfg: RunConfig, alpha, beta, amp) -> RunConfig:
    out = cfg
    if alpha is not None or beta is not None:
        out = out.with_params(alpha if alpha is not None else cfg.params.alpha,
                              beta if beta is not None else cfg.params.beta)
    if amp is not None:
        out = out.with_amplitude_scale(amp)
    return out


def _sweep_worker(task):
    cfg, run_dir, combo = task
    code, summary = run_simulation(cfg, run_dir)
    return {"alpha": cfg.params.alpha, "beta": cfg.params.beta,
            "amp": combo.get("amp", 1.0), "exit": code, **summary}


def _cmd_sweep(args) -> int:
    try:
        cfg = parse_config_file(args.config)
        axes = _parse_axes(args.axis)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    alphas = axes.get("alpha", [None])
    betas = axes.get("beta", [None])
    amps = axes.get("amp", [None])
    combos = list(itertools.product(alphas, betas, amps))
    if len(combos) > cfg.sweep_cap:
        print(f"config error: sweep of {len(combos)} runs exceeds "
              f"sweep.cap = {cfg.sweep_cap}; refusing to start",
              file=sys.stderr)
        return 2

    out_root = Path(args.out if args.out is not None else cfg.out_dir)
    tasks = []
    for alpha, beta, amp in combos:
        combo = {}
        name_bits = []
        if alpha is not None:
            combo["alpha"] = alpha
            name_bits.append(f"alpha{alpha:g}")
        if beta is not None:
            combo["beta"] = beta
            name_bits.append(f"beta{beta:g}")
        if amp is not None:
            combo["amp"] = amp
            name_bits.append(f"amp{amp:g}")
        run_dir = out_root / ("run_" + "_".join(name_bits) if name_bits else "run")
        try:
            case = _sweep_case(cfg, alpha, beta, amp)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        tasks.append((case, str(run_dir), combo))

    out_root.mkdir(parents=True, exist_ok=True)
    if cfg.sweep_workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.sweep_workers) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(task) for task in tasks]

    columns = ["alpha", "beta", "amp", "exit", "min_v", "min_theta",
               "E_entropy_final", "repr_residual_max"]
    with open(out_root / "summary.csv", "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")
    print(f"sweep complete: {len(rows)} runs, summary in "
          f"{out_root / 'summary.csv'}")
    return 0


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _cmd_verify(_args) -> int:
    studies = verification.standard_studies()
    ok = True
    for study in studies:
        print(json.dumps(study))
        ok = ok and study["pass"]
    return 0 if ok else 4


def _cmd_check_config(args) -> int:
    try:
        cfg = parse_config_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    from .config import describe

    print(describe(cfg))
    return 0


def main(argv=None) -> int:
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
