"""Time the set-up a run pays before its first step, in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config file>

Prints the seconds spent importing mhd1d, parsing the config, building the
initial state and constructing the DiagnosticsCollector, as the CLI does.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mhd1d  # noqa: E402
from mhd1d.diagnostics import default_anchor  # noqa: E402

cfg = mhd1d.parse_config_file(sys.argv[2])
state = mhd1d.make_initial_state(cfg.grid, cfg.profile, cfg.bc)
mhd1d.DiagnosticsCollector(
    cfg.grid, cfg.params, cfg.bc, state,
    repr_anchor=default_anchor(cfg.grid) if cfg.params.is_normalized else None)
print(repr(time.perf_counter() - t0))
