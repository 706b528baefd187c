"""Module boundaries of the package: no module of mhd1d reaches into another
module's private names. A helper two modules share is part of the owner's
public surface and carries a public name. The boundary regime of a step is
read in solver.py alone; every other module closes its end nodes through
solver.end_nodes. The monitors have one calling convention: each takes its
context as required arguments (no parameter defaults), and in
diagnostics.py only record_terms validates a state. diagnostics.py computes
none of the arrays a step report carries (heat flux, dissipation,
coefficients): it reads them off the report. In cli.py only main
catches ConfigError, so every config error leaves by one exit path. The
decision whether a step carries a transverse field has one flag: outside
solver.py no module reads an attribute .transverse, and solver.py reads only
BoundaryData's (bnd.transverse); a state carries the decision as
StateCoeffs.b_sq None. A step takes what the step before it hands on in
one carrier, that step's report: run_until, step and attempt take no coeffs
or kirchhoff parameter, and only attempt reads a report's .kirchhoff. No
module of the package or of the tests imports a name it never reads."""
import ast
from pathlib import Path

import pytest

import mhd1d

PACKAGE = Path(mhd1d.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


REGIME_FIELDS = ("left_wall", "isothermal")


def _regime_reads(path: Path) -> list[str]:
    """Attribute reads of a BoundaryData regime field in this module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in REGIME_FIELDS]


def _private_uses(path: Path) -> list[str]:
    """Private names this module imports from, or reads off, another
    mhd1d module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = path.stem
    modules = set()  # local names bound to mhd1d modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            in_package = node.level > 0 or (node.module or "").split(".")[0] == "mhd1d"
            if not in_package:
                continue
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if source in ("", "mhd1d"):
                    # from . import module
                    modules.add(alias.asname or alias.name)
                elif source != own and alias.name.startswith("_"):
                    found.append(f"from {source} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mhd1d":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert _private_uses(path) == []


def test_the_check_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .solver import _hidden, public\n"
                     "from . import solver\n"
                     "x = solver._other\n")
    assert _private_uses(probe) == ["from solver import _hidden", "solver._other"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "solver.py"],
                         ids=lambda p: p.name)
def test_only_the_solver_reads_the_boundary_regime(path):
    assert _regime_reads(path) == []


def test_the_check_sees_regime_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("if bnd.left_wall and not bnd.isothermal:\n    pass\n")
    assert sorted(_regime_reads(probe)) == ["line 1: .isothermal", "line 1: .left_wall"]


def _transverse_reads(path: Path) -> list[str]:
    """Reads of an attribute .transverse in this module, with what they
    read it off."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "transverse"
            and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "solver.py"],
                         ids=lambda p: p.name)
def test_no_module_but_the_solver_reads_a_transverse_flag(path):
    assert _transverse_reads(path) == []


def test_the_solver_reads_only_the_boundary_datas_transverse_flag():
    reads = _transverse_reads(PACKAGE / "solver.py")
    assert reads
    assert {read.split(": ", 1)[1] for read in reads} == {"bnd.transverse"}


def test_the_check_sees_transverse_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("quiet = not report.transverse\n"
                     "if bnd.transverse or arrays.transverse:\n"
                     "    self.transverse = True\n")
    assert sorted(_transverse_reads(probe)) == [
        "line 1: report.transverse", "line 2: arrays.transverse",
        "line 2: bnd.transverse"]


HAND_OFF = ("run_until", "step", "attempt")


def _hand_off_faults(path: Path) -> list[str]:
    """Parameters coeffs or kirchhoff of run_until, step and attempt, and
    reads of an attribute .kirchhoff outside attempt, in this module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, in_attempt = [], set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name == "attempt":
            in_attempt |= {id(node) for node in ast.walk(fn)}
        if fn.name in HAND_OFF:
            args = fn.args
            found += [f"{fn.name}: {a.arg}"
                      for a in args.posonlyargs + args.args + args.kwonlyargs
                      if a.arg in ("coeffs", "kirchhoff")]
    found += [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "kirchhoff"
              and isinstance(node.ctx, ast.Load) and id(node) not in in_attempt]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_step_takes_one_hand_off(path):
    assert _hand_off_faults(path) == []


def test_the_check_sees_a_second_hand_off(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def attempt(state, report, dt):\n"
                     "    return report.kirchhoff\n"
                     "def step(state, report, coeffs, *, kirchhoff=None):\n"
                     "    return report.kirchhoff\n"
                     "def run_until(state, grid):\n"
                     "    carry = report.kirchhoff\n"
                     "def other(coeffs, kirchhoff):\n"
                     "    report.kirchhoff = kirchhoff\n")
    assert _hand_off_faults(probe) == ["line 4: report.kirchhoff",
                                       "line 6: report.kirchhoff",
                                       "step: coeffs", "step: kirchhoff"]


MONITORS = {"diagnostics.py": ("energy_entropy", "dissipation_W", "effective_stress",
                               "representation_update", "representation_residual",
                               "level_set_measures"),
            "constitutive.py": ("pressure", "viscosity_mu")}


def _functions(path: Path):
    """Every function and method of this module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _defaults(path: Path, names) -> list[str]:
    """Parameters that declare a default in the named functions."""
    found = []
    for fn in _functions(path):
        if fn.name not in names:
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        with_default = positional[len(positional) - len(args.defaults):]
        with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
        found += [f"{fn.name}: {a.arg}" for a in with_default]
    return found


def _validate_callers(path: Path) -> list[str]:
    """Functions of this module that call .validate(."""
    return sorted({fn.name for fn in _functions(path) for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "validate"})


@pytest.mark.parametrize("name", sorted(MONITORS))
def test_monitors_declare_no_default(name):
    path = PACKAGE / name
    defined = {fn.name for fn in _functions(path)}
    assert set(MONITORS[name]) <= defined
    assert _defaults(path, MONITORS[name]) == []


def test_only_record_terms_validates_in_diagnostics():
    assert _validate_callers(PACKAGE / "diagnostics.py") == ["record_terms"]


def test_the_checks_see_defaults_and_validate_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def energy_entropy(state, grid, p, terms=None):\n"
                     "    state.validate(grid)\n"
                     "def pressure(v, theta, p, *, check=True):\n"
                     "    pass\n"
                     "def record_terms(state, grid):\n"
                     "    state.validate(grid)\n"
                     "class Collector:\n"
                     "    def make_record(self, state, report=None):\n"
                     "        state.validate(self.grid)\n")
    assert _defaults(probe, ("energy_entropy", "pressure")) == [
        "energy_entropy: terms", "pressure: check"]
    assert _validate_callers(probe) == ["energy_entropy", "make_record",
                                        "record_terms"]


# the builders of a StepReport's arrays, which the monitors read off the report
REPORT_BUILDERS = ("heat_flux", "heat_flux_and_jacobian", "heat_flux_stencil",
                   "face_conductance", "dissipation_source", "state_coeffs",
                   "viscosity_mu")


def _calls_of(path: Path, names) -> list[str]:
    """Calls of the named functions in this module: bare, under an import
    alias, or as an attribute (solver.heat_flux)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        if name in names:
            found.append(f"line {node.lineno}: {name}")
    return sorted(found)


def test_the_monitors_compute_no_report_array():
    assert _calls_of(PACKAGE / "diagnostics.py", REPORT_BUILDERS) == []


def test_the_check_sees_report_array_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import solver\n"
                     "from .solver import heat_flux as hf, state_coeffs\n"
                     "from .constitutive import viscosity_mu\n"
                     "h = hf(theta, v, dx, p, bnd)\n"
                     "q = solver.dissipation_source(v, mu, ux, w, b, grid, p, bnd)\n"
                     "c = state_coeffs(state, viscosity_mu(state.v, p), p)\n"
                     "j = solver.heat_flux_and_jacobian(theta, v, dx, p, bnd)\n"
                     "x = report.heat_flux, terms.dissipation\n")
    assert _calls_of(probe, REPORT_BUILDERS) == [
        "line 4: heat_flux", "line 5: dissipation_source", "line 6: state_coeffs",
        "line 6: viscosity_mu", "line 7: heat_flux_and_jacobian"]


def _unused_imports(path: Path) -> list[str]:
    """Names this module imports and never reads; a name listed in __all__
    counts as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert _unused_imports(path) == []


def test_the_check_sees_unused_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os\n"
                     "import numpy as np\n"
                     "import xml.dom\n"
                     "from .solver import step, heat_flux as hf, run_until\n"
                     "__all__ = ['run_until']\n"
                     "x = np.zeros(1)\n"
                     "def f(a: hf) -> None:\n"
                     "    os = 1\n")
    assert _unused_imports(probe) == ["line 2: os", "line 4: xml",
                                      "line 5: step"]


def _config_error_handlers(path: Path) -> list[str]:
    """Functions of this module with an `except` clause that names
    ConfigError, alone or in a tuple, bare or as a module attribute."""
    found = set()
    for fn in _functions(path):
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                if any(ast.unparse(t).split(".")[-1] == "ConfigError"
                       for t in types):
                    found.add(fn.name)
    return sorted(found)


def test_only_main_catches_config_errors_in_the_cli():
    assert _config_error_handlers(PACKAGE / "cli.py") == ["main"]


def test_the_check_sees_config_error_handlers(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def main():\n"
                     "    try:\n        pass\n"
                     "    except ConfigError:\n        pass\n"
                     "def _cmd_run(args):\n"
                     "    try:\n        pass\n"
                     "    except (OSError, ConfigError) as exc:\n        pass\n"
                     "def _cmd_sweep(args):\n"
                     "    try:\n        pass\n"
                     "    except OSError:\n        pass\n"
                     "def _cmd_check_config(args):\n"
                     "    try:\n        pass\n"
                     "    except config.ConfigError:\n        pass\n")
    assert _config_error_handlers(probe) == ["_cmd_check_config", "_cmd_run",
                                             "main"]
