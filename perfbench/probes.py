"""Probes around mhd1d: a machine-speed sampler, a step counter and span
tracing, all applied from outside the package.

The speed sampler exists because a shared host's speed can swing by a third
over periods of 5 to 30 seconds (other tenants), which moves the median wall
time of a 20-second run by as much. A fixed snippet of small numpy and scipy
calls, JSON and float formatting, the mix that dominates mhd1d, runs from a
SIGALRM handler every INTERVAL_S during an operation (about 2% of its time);
wall time divided by the mean snippet time then varies across such periods
by a few percent instead. The snippet calls only numpy, scipy and the standard
library, never mhd1d, so a change to mhd1d cannot change the reference.

The modules of mhd1d import each other's functions by name, so a function is
wrapped at every name its callers look up (``mhd1d.solver.viscosity_mu`` as
well as ``mhd1d.constitutive.viscosity_mu``). Each call of a wrapped function
appends one span ``[name, start, end, parent, value]`` to an in-memory list:
``parent`` is the index of the enclosing span (-1 at the root) and ``value``
is an exact count taken from the call's result, or None. Spans are kept in
call order, so the spans of one operation follow its root span.
"""
from __future__ import annotations

import json
import signal
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

INTERVAL_S = 0.05
_SNIPPET_X = np.linspace(1.0, 2.0, 256)
_SNIPPET_AB = np.vstack([np.full(256, -0.3), np.full(256, 1.7), np.full(256, -0.3)])
_SNIPPET_RECORD = {f"key_{i}": 0.1 * i + 1e-7 for i in range(30)}


def _snippet() -> float:
    x, s = _SNIPPET_X, 0.0
    for _ in range(4):
        y = solve_banded((1, 1), _SNIPPET_AB, x, check_finite=False)
        z = np.empty(257)
        z[1:-1] = 0.5 * (y[1:] + y[:-1])
        z[0] = z[-1] = 0.0
        s += float(np.max(np.abs(np.diff(z)))) + float(np.sum(y ** 1.5 / x))
        s += len(json.dumps(_SNIPPET_RECORD))
        s += len(",".join("%.17g" % v for v in y[:16]))
    for i in range(200):
        s += i * 0.5
    return s


class SpeedSampler:
    """Times the snippet once on entry and then every INTERVAL_S until exit.

    Each sample runs the snippet twice and times the second run: the first
    refills the caches the operation evicted, so that a sample measures the
    machine and depends little on the operation around it.
    """

    def __init__(self):
        self.samples = []

    def sample(self, signum=None, frame=None):
        _snippet()
        t0 = perf_counter()
        _snippet()
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def _cells(args, result):
    return result[0].v.shape[0]


def _newton_updates(args, result):
    return result[1]


def _rk4_steps(args, result):
    return result.step - args[0].step


def probe_table():
    """(owner, attribute, span name, count hook) for every wrapped name."""
    from mhd1d import cli, constitutive, diagnostics, solver, verification
    from mhd1d.diagnostics import DiagnosticsCollector

    return [
        (cli, "main", "cli.main", None),
        (cli, "run_simulation", "cli.run_simulation", None),
        (cli, "parse_config_file", "config.parse", None),
        (cli, "make_initial_state", "core.make_initial_state", None),
        (verification, "make_initial_state", "core.make_initial_state", None),
        (cli, "run_until", "solver.run_until", None),
        (verification, "run_until", "solver.run_until", None),
        (solver, "step", "solver.step", _cells),
        (solver, "compute_dt", "solver.compute_dt", None),
        (solver, "substep_velocity", "solver.velocity", None),
        (solver, "substep_volume", "solver.volume", None),
        (solver, "substep_transverse", "solver.transverse", None),
        (solver, "substep_induction", "solver.induction", None),
        (solver, "substep_temperature", "solver.temperature", _newton_updates),
        (solver, "pressure", "constitutive.pressure", None),
        (solver, "viscosity_mu", "constitutive.viscosity_mu", None),
        (constitutive, "pressure", "constitutive.pressure", None),
        (constitutive, "viscosity_mu", "constitutive.viscosity_mu", None),
        (verification, "viscosity_mu", "constitutive.viscosity_mu", None),
        (DiagnosticsCollector, "make_record", "diagnostics.make_record", None),
        (diagnostics, "dissipation_W", "diagnostics.dissipation_W", None),
        (diagnostics, "energy_entropy", "diagnostics.energy_entropy", None),
        (diagnostics, "representation_update", "diagnostics.repr", None),
        (diagnostics, "representation_residual", "diagnostics.repr", None),
        (cli, "emit_diagnostics", "snapshots.emit_diagnostics", None),
        (cli, "emit_snapshot", "snapshots.emit_snapshot", None),
        (verification, "standard_studies", "verification.standard_studies", None),
        (verification, "mms_convergence", "verification.mms", None),
        (verification, "temporal_convergence", "verification.mms", None),
        (verification, "oracle_comparison", "verification.oracle_comparison", None),
        (verification, "explicit_reference", "verification.explicit_reference",
         _rk4_steps),
    ]


class Patches:
    """Replaces attributes and puts the originals back on close()."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def close(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class StepCounter(Patches):
    """Counts accepted solver steps and nothing else: the probe of the
    untraced runs, which need the step count for ms_per_step."""

    def __init__(self):
        super().__init__()
        from mhd1d import solver

        self.steps = 0
        orig = solver.step

        def counted(*args, **kwargs):
            result = orig(*args, **kwargs)
            self.steps += 1
            return result

        self.replace(solver, "step", counted)


class Tracer(Patches):
    """Wraps every entry of probe_table() and records its spans."""

    def __init__(self, spans: list):
        super().__init__()
        self.spans = spans
        self._stack = []
        for owner, attr, name, hook in probe_table():
            self.replace(owner, attr, self._wrap(getattr(owner, attr), name, hook))

    def _wrap(self, orig, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return traced


def split_ops(spans: list) -> list[list]:
    """The spans of each operation: a root span and the spans after it up to
    the next root. Parent indices stay global."""
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    bounds = roots + [len(spans)]
    return [list(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


def summarize(spans: list, indices: list) -> dict:
    """Per-name totals over one operation's spans.

    Returns {name: {"calls", "s" (inclusive), "self_s", "returned",
    "values"}} where a span's self time is its duration minus the durations
    of its direct children, "returned" counts the calls with a count hook
    that returned normally and "values" sums their counts.
    """
    child = defaultdict(float)
    for i in indices:
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "values": 0, "returned": 0})
    for i in indices:
        name, start, end, parent, value = spans[i]
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child[i]
        if value is not None:
            rec["values"] += value
            rec["returned"] += 1
    return out


def write_spans(spans: list, path) -> None:
    with open(path, "w") as f:
        f.write("index,name,start_s,end_s,parent,value\n")
        for i, (name, start, end, parent, value) in enumerate(spans):
            f.write(f"{i},{name},{start!r},{end!r},{parent},"
                    f"{'' if value is None else value}\n")
