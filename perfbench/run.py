"""The mhd1d benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run_small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The package is imported from ``src/`` of the checkout; nothing is installed.
Each workload drives the public entry point ``mhd1d.cli.main`` in this one
process, operation after operation, for ``--seconds`` seconds:

* run_small: ``mhd1d run`` on the README's Gaussian bump at M = 256 to a long
  horizon, diagnostics on every step; fixed per-call cost sets the pace.
* run_large: the same physics at M = 8192 for a short time; array arithmetic
  sets the pace, so a change that only cuts per-call cost should not show.
* sweep_matrix: ``mhd1d sweep`` over alpha in {0, 1} x beta in {0.5, 1} x
  amp in {0.375, 1} on the acceptance suite's large amplitudes at M = 512,
  t = 1: the mu2 = 0 branch, the beta = 0.5 conductivity, near-vacuum data.
* verify: ``mhd1d verify``, the MMS and RK4-oracle studies, which run the
  solver with forcing and without a DiagnosticsCollector. It is the only
  workload that reaches the verification layer, but it is not listed in
  BENCHMARK.json: its one 13-25 s operation per run is not steady enough on
  a shared host (normalized times still spread about 10%), so it is run by
  hand for the verification-layer trace and the bypass case of changes to
  the diagnostics.

``--seed`` jitters every bump amplitude by a factor in [1 - JITTER, 1 + JITTER]
and moves the bump centre by up to JITTER bump widths, then writes plain
config files; the program sees only those files. verify takes no config and
is the same for every seed.

Every operation passes a correctness gate: exit code 0; on every
diagnostics.jsonl record mass_defect <= 1e-13, momentum_defect <= 1e-12,
W >= 0, min_v > 0 and min_theta > 0; every sweep row exit 0; every verify
study "pass": true. An operation that misses it counts as failed. The SHA-256
of every diagnostics.jsonl, of summary.csv and of the verify output must be
the same for every operation of one invocation.

With ``--trace 0`` the end-to-end metrics are measured; the probes are a
counter of accepted solver steps and the speed sampler of probes.py. The
``*_norm`` metrics are speed-normalized: an operation's wall time times
REF_SNIPPET_S over the mean snippet time sampled during it, that is, its time
on this machine at the reference speed. The measured wall times are printed
beside them. A step is an accepted step of the production solver and a run
is a simulation run, or for verify a study. setup_s is measured time, the
median over fresh interpreters. With ``--trace 1`` half the time runs
untraced and half traced; the per-layer times are medians of measured span
times over the traced operations, the exact counts must agree between them,
and trace.overhead_frac compares the normalized wall times of the two halves.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the readable report.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

JITTER = 0.01
SETUP_SAMPLES = 7
# snippet time (probes.SpeedSampler) that defines the reference machine speed,
# close to its time on a 2-core x86-64 VM at 2.1 GHz when the host is quiet
REF_SNIPPET_S = 4e-4

README_BUMP = {"width": 1.0, "amps": {"v": -0.3, "theta": 0.5}}
# the acceptance suite's large amplitudes: v0 dips to 0.2, theta0 peaks at 4
ACCEPTANCE_LARGE = {"width": 1.5, "amps": {"v": -0.8, "u": 1.0, "theta": 3.0,
                                           "b1": 1.0, "w1": 1.0, "w2": 0.5}}
SWEEP_AXES = ("alpha=0,1", "beta=0.5,1", "amp=0.375,1")

# workload -> (cells, t_end, bump, simulation runs per operation); verify
# has no config of its own and takes run_small's for the set-up probe
WORKLOADS = {
    "run_small": (256, 30.0, README_BUMP, 1),
    "run_large": (8192, 0.25, README_BUMP, 1),
    "sweep_matrix": (512, 1.0, ACCEPTANCE_LARGE, 8),
    "verify": (256, 30.0, README_BUMP, None),
}

END_TO_END = {"wall_norm_s": "s", "ms_per_step_norm": "ms",
              "runs_per_s_norm": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}

_TIMES = ("solver.velocity_s", "solver.volume_s", "solver.transverse_s",
          "solver.induction_s", "solver.temperature_s", "solver.compute_dt_s",
          "solver.step_s", "solver.step_self_s", "constitutive.s",
          "diagnostics.make_record_s", "diagnostics.dissipation_W_s",
          "diagnostics.energy_entropy_s", "diagnostics.repr_s",
          "snapshots.emit_diagnostics_s", "snapshots.emit_snapshot_s",
          "cli.run_simulation_s", "cli.sweep_self_s", "config.parse_s",
          "core.make_initial_state_s", "verification.explicit_reference_s",
          "verification.mms_s", "verification.oracle_solver_s")
_COUNTS = ("solver.steps", "solver.attempts", "solver.newton_updates",
           "constitutive.calls", "snapshots.bytes_written",
           "verification.rk4_steps")
PER_LAYER = {**{name: "s" for name in _TIMES},
             **{name: "count" for name in _COUNTS},
             "solver.us_per_cell_step": "us", "solver.accept_ratio": "ratio",
             "solver.newton_per_step": "ratio", "diagnostics.share": "frac",
             "trace.overhead_frac": "frac"}


@dataclass
class Op:
    """One timed operation and what the gate found in its outputs."""

    wall: float
    norm_wall: float
    steps: int
    runs: int
    bytes_written: int
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def config_text(cells: int, t_end: float, bump: dict, seed: int) -> str:
    """A run config for the bump, with amplitudes and centre jittered by seed."""
    rng = random.Random(seed)
    width = bump["width"]
    lines = [f"grid.cells = {cells}", "grid.mass = 32.0", "bc = cauchy",
             "params.preset = normalized", "params.alpha = 1.0",
             "params.beta = 1.0", "initial.profile = gaussian_bump",
             f"initial.width = {width!r}",
             f"initial.center = {JITTER * width * rng.uniform(-1.0, 1.0)!r}"]
    for name, amp in bump["amps"].items():
        scaled = amp * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
        lines.append(f"initial.amp_{name} = {scaled!r}")
    lines += [f"time.t_end = {t_end!r}", "sweep.workers = 1"]
    return "\n".join(lines) + "\n"


def cli_args(workload: str, cfg: Path, out: Path) -> list[str]:
    if workload == "verify":
        return ["verify"]
    if workload == "sweep_matrix":
        axes = [arg for axis in SWEEP_AXES for arg in ("--axis", axis)]
        return ["sweep", "--config", str(cfg), *axes, "--out", str(out)]
    return ["run", "--config", str(cfg), "--out", str(out)]


def _record_ok(r: dict) -> bool:
    try:
        return (r["mass_defect"] <= 1e-13 and r["momentum_defect"] <= 1e-12
                and r["W"] >= 0.0 and r["min_v"] > 0.0
                and r["min_theta"] > 0.0)
    except (KeyError, TypeError):
        return False


def gate(workload: str, stdout: str, out: Path) -> tuple[list, dict, int]:
    """Check one operation's outputs: (problems, digests, bytes written)."""
    problems, digests = [], {}
    if workload == "verify":
        digests["verify.jsonl"] = hashlib.sha256(stdout.encode()).hexdigest()
        try:
            studies = [json.loads(line) for line in stdout.splitlines() if line]
        except json.JSONDecodeError as exc:
            return [f"verify output is not JSON lines: {exc}"], digests, 0
        if not studies:
            problems.append("verify reported no study")
        problems += [f"study {s.get('study')} did not pass"
                     for s in studies if s.get("pass") is not True]
        return problems, digests, 0

    files = sorted(out.rglob("diagnostics.jsonl"))
    expected = WORKLOADS[workload][3]
    if len(files) != expected:
        problems.append(f"{len(files)} diagnostics streams, expected {expected}")
    for path in files:
        data = path.read_bytes()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
        for lineno, line in enumerate(data.splitlines(), start=1):
            try:
                ok = _record_ok(json.loads(line))
            except json.JSONDecodeError:
                ok = False
            if not ok:
                problems.append(f"{path.relative_to(out)}:{lineno} is not a "
                                "record within the acceptance bounds")
                break
    if workload == "sweep_matrix":
        summary = out / "summary.csv"
        if not summary.is_file():
            problems.append("summary.csv missing")
        else:
            data = summary.read_bytes()
            digests["summary.csv"] = hashlib.sha256(data).hexdigest()
            rows = data.decode().splitlines()[1:]
            exits = [row.split(",")[3] for row in rows]
            if len(rows) != expected or any(code != "0" for code in exits):
                problems.append(f"sweep rows with exit codes {exits}")
    written = sum(p.stat().st_size for pattern in ("diagnostics.jsonl", "snapshot*.csv")
                  for p in out.rglob(pattern))
    return problems, digests, written


def run_op(workload: str, cfg: Path, out: Path, probe) -> Op:
    """Run one operation under `probe` (closed afterwards) and gate it."""
    from mhd1d import cli

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    buf = io.StringIO()
    problems = []
    try:
        with contextlib.redirect_stdout(buf), probes.SpeedSampler() as speed:
            t0 = perf_counter()
            try:
                code = cli.main(cli_args(workload, cfg, out))
            finally:
                wall = perf_counter() - t0
    except (Exception, SystemExit) as exc:  # a crash fails the op, not the benchmark
        code = None
        problems.append(f"raised {exc!r}")
    finally:
        probe.close()
    if code is not None and code != 0:
        problems.append(f"exit code {code}")
    found, digests, written = gate(workload, buf.getvalue(), out)
    steps = probe.steps if isinstance(probe, probes.StepCounter) else 0
    runs = WORKLOADS[workload][3] or len(buf.getvalue().splitlines())
    return Op(wall=wall, norm_wall=wall * REF_SNIPPET_S / speed.mean(),
              steps=steps, runs=runs, bytes_written=written,
              problems=problems + found, digests=digests)


def measure(workload: str, cfg: Path, out: Path, seconds: float,
            make_probe) -> list[Op]:
    """Run operations back to back until `seconds` have passed (at least one)."""
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        ops.append(run_op(workload, cfg, out, make_probe()))
    return ops


def setup_times(cfg: Path) -> list[float]:
    """Set-up seconds from fresh interpreters; the first one only warms up."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cfg)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times[1:]


def end_to_end(ops: list[Op], setup: list[float]) -> dict:
    return {
        "wall_norm_s": statistics.median(op.norm_wall for op in ops),
        "ms_per_step_norm": statistics.median(
            1e3 * op.norm_wall / max(op.steps, 1) for op in ops),
        "runs_per_s_norm": statistics.median(op.runs / op.norm_wall
                                             for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(spans: list, indices: list, op: Op) -> dict:
    """Per-layer metrics of one traced operation.

    Times are measured span seconds, inclusive of children, except the two
    self times: step_self_s is solver.step minus its child spans (the five
    stages, compute_dt and the constitutive calls of the boundary report),
    leaving the boundary report, the boundary data and the retry bookkeeping;
    cli.sweep_self_s is cli.main minus config parsing and the runs, that is
    the sweep's orchestration and its summary. An attempt is a call of the
    velocity stage; diagnostics.share is make_record's share of the
    operation's wall time.
    """
    s = probes.summarize(spans, indices)
    steps = s["solver.step"]["returned"]
    attempts = s["solver.velocity"]["calls"]
    cell_steps = s["solver.step"]["values"]
    newton = s["solver.temperature"]["values"]
    constitutive = ("constitutive.pressure", "constitutive.viscosity_mu")
    out = {f"solver.{stage}_s": s[f"solver.{stage}"]["s"]
           for stage in ("velocity", "volume", "transverse", "induction",
                         "temperature", "compute_dt", "step")}
    out.update({
        "solver.step_self_s": s["solver.step"]["self_s"],
        "solver.us_per_cell_step": 1e6 * s["solver.step"]["s"] / max(cell_steps, 1),
        "solver.steps": steps,
        "solver.attempts": attempts,
        "solver.accept_ratio": steps / max(attempts, 1),
        "solver.newton_updates": newton,
        "solver.newton_per_step": newton / max(steps, 1),
        "constitutive.calls": sum(s[n]["calls"] for n in constitutive),
        "constitutive.s": sum(s[n]["s"] for n in constitutive),
        "diagnostics.make_record_s": s["diagnostics.make_record"]["s"],
        "diagnostics.dissipation_W_s": s["diagnostics.dissipation_W"]["s"],
        "diagnostics.energy_entropy_s": s["diagnostics.energy_entropy"]["s"],
        "diagnostics.repr_s": s["diagnostics.repr"]["s"],
        "diagnostics.share": s["diagnostics.make_record"]["s"] / s["cli.main"]["s"],
        "snapshots.emit_diagnostics_s": s["snapshots.emit_diagnostics"]["s"],
        "snapshots.emit_snapshot_s": s["snapshots.emit_snapshot"]["s"],
        "snapshots.bytes_written": op.bytes_written,
        "cli.run_simulation_s": s["cli.run_simulation"]["s"],
        "cli.sweep_self_s": s["cli.main"]["self_s"],
        "config.parse_s": s["config.parse"]["s"],
        "core.make_initial_state_s": s["core.make_initial_state"]["s"],
        "verification.explicit_reference_s":
            s["verification.explicit_reference"]["s"],
        "verification.rk4_steps": s["verification.explicit_reference"]["values"],
        "verification.mms_s": s["verification.mms"]["s"],
        "verification.oracle_solver_s": sum((
            spans[i][2] - spans[i][1] for i in indices
            if spans[i][0] == "solver.run_until" and spans[i][3] >= 0
            and spans[spans[i][3]][0] == "verification.oracle_comparison"), 0.0),
    })
    return out


def traced_metrics(plain: list[Op], traced: list[Op],
                   spans: list) -> tuple[dict, list]:
    """Medians over the traced operations, and the names of the exact counts
    that differ between them."""
    per_op = [layer_metrics(spans, idx, op)
              for idx, op in zip(probes.split_ops(spans), traced)]
    out = {name: per_op[0][name] if name in _COUNTS
           else statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["trace.overhead_frac"] = (
        statistics.median(op.norm_wall for op in traced)
        / statistics.median(op.norm_wall for op in plain) - 1.0)
    unsteady = [name for name in _COUNTS
                if any(m[name] != out[name] for m in per_op)]
    return out, unsteady


def run_workload(args) -> int:
    if not (SRC / "mhd1d" / "__init__.py").is_file():
        print(f"error: no mhd1d package under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "input.cfg"
    cfg.write_text(config_text(*WORKLOADS[args.workload][:3], args.seed))
    warm_cfg = work / "warmup.cfg"
    warm_cfg.write_text(config_text(64, 0.5, README_BUMP, args.seed))

    setup = [] if args.trace else setup_times(cfg)
    sys.path.insert(0, str(SRC))
    import mhd1d

    if Path(mhd1d.__file__).resolve().parent != SRC / "mhd1d":
        print(f"error: imported mhd1d from {mhd1d.__file__}", file=sys.stderr)
        return 2
    run_op("run_small", warm_cfg, work / "warmup", probes.StepCounter())

    out = work / "out"
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        spans = []
        plain = measure(args.workload, cfg, out, args.seconds / 2,
                        probes.StepCounter)
        traced = measure(args.workload, cfg, out, args.seconds / 2,
                         lambda: probes.Tracer(spans))
        ops = plain + traced
        metrics, unsteady = traced_metrics(plain, traced, spans)
        units = PER_LAYER
        probes.write_spans(spans, work / "spans.csv")
        print(f"  {len(spans)} spans of {len(traced)} traced operations in "
              f"{work / 'spans.csv'}; {len(plain)} untraced operations")
    else:
        ops = measure(args.workload, cfg, out, args.seconds, probes.StepCounter)
        metrics, unsteady = end_to_end(ops, setup), []
        units = END_TO_END
        print(f"  timings are medians of {len(ops)} operations; setup_s of "
              f"{len(setup)} fresh interpreters")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r} {units[name]}")
    walls = [op.wall for op in ops]
    print(f"  measured wall time per operation: median {statistics.median(walls)!r} s, "
          f"range {min(walls)!r} to {max(walls)!r} s")

    failed = [op for op in ops if op.problems]
    deterministic = all(op.digests == ops[0].digests for op in ops)
    for name, digest in ops[0].digests.items():
        print(f"  sha256 {name} {digest}")
    for op in failed:
        print(f"  failed operation: {'; '.join(op.problems)}")
    print(f"  failed_frac {len(failed) / len(ops)!r} "
          f"({len(failed)} of {len(ops)} operations)")
    if not deterministic:
        print("  outputs differ between repetitions of the same inputs")
    if unsteady:
        print(f"  exact counts differ between repetitions: {', '.join(unsteady)}")
    correct = not failed and deterministic and not unsteady
    print(f"  gate: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run each workload in its own process, one after the other."""
    codes = {}
    for name in WORKLOADS:
        codes[name] = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], timeout=600).returncode
    bad = [name for name, code in codes.items() if code != 0]
    print(f"gate over all workloads: {'FAIL ' + ', '.join(bad) if bad else 'PASS'}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
