"""1D Lagrangian planar compressible MHD with volume-dependent viscosity,
temperature-degenerate heat conduction, and built-in invariant monitors."""

from .core import (
    BoundaryCondition,
    ConstantProfile,
    FileProfile,
    GasState,
    GaussianBump,
    Grid,
    PhysicalParams,
    ProfileError,
    make_initial_state,
)
from .solver import (
    NewtonDivergence,
    PositivityFailure,
    StepControl,
    StepReport,
    compute_dt,
    run_until,
    step,
)
from .diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    ReprAccumulator,
    dissipation_W,
    energy_entropy,
    equilibrium_roots,
    level_set_measures,
    record_terms,
    representation_residual,
    representation_update,
    slab_integrals,
)
from .snapshots import SnapshotError, emit_diagnostics, emit_snapshot, load_snapshot
from .config import ConfigError, RunConfig, parse_config, parse_config_file

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition", "ConstantProfile", "FileProfile", "GasState",
    "GaussianBump", "Grid", "PhysicalParams", "ProfileError",
    "make_initial_state", "NewtonDivergence", "PositivityFailure",
    "StepControl", "StepReport", "compute_dt", "run_until", "step",
    "DiagnosticsCollector", "DiagnosticsRecord", "ReprAccumulator",
    "dissipation_W", "energy_entropy", "equilibrium_roots",
    "level_set_measures", "record_terms", "representation_residual",
    "representation_update", "slab_integrals", "SnapshotError",
    "emit_diagnostics", "emit_snapshot",
    "load_snapshot", "ConfigError", "RunConfig", "parse_config",
    "parse_config_file", "__version__",
]
