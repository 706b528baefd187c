import importlib.util
import io
import json
import math
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import patch_newton_solve, reference_state
from mhd1d import cli, solver
from mhd1d.config import _KEYS, ConfigError, describe, parse_config
from mhd1d.core import (
    BoundaryCondition,
    ConstantProfile,
    FileProfile,
    GaussianBump,
    Grid,
    PhysicalParams,
    make_initial_state,
)
from mhd1d.diagnostics import (
    BLOCK_CELLS,
    SLAB_INTERVALS_PER_CELL,
    DiagnosticsCollector,
)
from mhd1d.snapshots import (
    SnapshotError,
    emit_diagnostics,
    emit_snapshot,
    load_snapshot,
    node_companion,
)
from mhd1d.solver import SolverFailure, run_until

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CAUCHY = BoundaryCondition.CAUCHY_FAR_FIELD


class TestParseConfig:
    def test_empty_config_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.grid.cells == 512
        assert cfg.grid.mass == 32.0
        assert cfg.grid.left_edge == -16.0  # centered for the Cauchy regime
        assert cfg.bc is CAUCHY
        assert cfg.params == PhysicalParams()
        assert isinstance(cfg.profile, ConstantProfile)
        assert cfg.t_end == 1.0
        assert cfg.control.cfl == 0.4
        assert cfg.diagnostics_every == 1

    def test_wall_regime_defaults_left_edge_to_zero(self):
        cfg = parse_config("bc = insulated_wall")
        assert cfg.grid.left_edge == 0.0
        # constant profile is wall-compatible
        make_initial_state(cfg.grid, cfg.profile, cfg.bc)

    def test_negative_beta_cites_constraint(self):
        with pytest.raises(ConfigError, match=r"beta >= 0"):
            parse_config("params.beta = -1")

    def test_unknown_key_cites_line(self):
        text = "grid.cells = 64\nno.such.key = 1\n"
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'no.such.key'"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("grid.cells = 64\ngrid.cells = 32\n")

    def test_type_error_cites_line_and_type(self):
        with pytest.raises(ConfigError, match="line 1.*int"):
            parse_config("grid.cells = many")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full line comment\n\ngrid.cells = 64  # inline\n")
        assert cfg.grid.cells == 64

    def test_normalized_preset(self):
        cfg = parse_config("params.preset = normalized\nparams.alpha = 1.5\n"
                           "params.beta = 0.5\n")
        assert cfg.params.is_normalized
        assert cfg.params.mu2 == 1.5

    def test_preset_conflicts_with_explicit_constants(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config("params.preset = normalized\nparams.mu1 = 2.0\n")

    def test_custom_constants(self):
        cfg = parse_config("params.R = 1.5\nparams.cv = 0.7\nparams.mu2 = 0.3\n")
        assert cfg.params.R == 1.5 and cfg.params.c_v == 0.7
        assert not cfg.params.is_normalized

    def test_gaussian_profile_keys(self):
        cfg = parse_config(
            "initial.profile = gaussian_bump\ninitial.amp_v = -0.4\n"
            "initial.amp_b1 = 0.25\ninitial.width = 2.0\n")
        assert isinstance(cfg.profile, GaussianBump)
        assert cfg.profile.amp_v == -0.4
        assert cfg.profile.amp_b == (0.25, 0.0)

    def test_jitter_is_seed_deterministic(self):
        text = ("initial.profile = gaussian_bump\ninitial.amp_v = -0.3\n"
                "initial.jitter = 0.1\nseed = {seed}\n")
        a = parse_config(text.format(seed=7))
        b = parse_config(text.format(seed=7))
        c = parse_config(text.format(seed=8))
        assert a.profile.amp_v == b.profile.amp_v
        assert a.profile.amp_v != c.profile.amp_v

    def test_file_profile_requires_path(self):
        with pytest.raises(ConfigError, match="initial.file"):
            parse_config("initial.profile = file")

    def test_cfl_bounds(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config("time.cfl = 1.5")

    def test_missing_value(self):
        with pytest.raises(ConfigError, match="no value"):
            parse_config("grid.cells =")

    @pytest.mark.parametrize("text, message", [
        ("initial.jitter = inf\n",
         "line 1: key 'initial.jitter' expects a finite float, got 'inf'"),
        ("initial.center = x\n", "line 1: key 'initial.center' expects float, got 'x'"),
        ("params.preset = normalized\nparams.mu1 = 0\n",
         "line 2: key 'params.mu1' violates mu1 > 0"),
    ], ids=["jitter", "center", "mu1"])
    def test_a_set_key_is_checked_whether_or_not_it_is_used(self, text, message):
        # the default constant profile uses no bump key, and the preset
        # replaces the constants (TestKeyTable covers each bound alone)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    def test_the_first_faulty_line_is_named(self):
        text = ("time.t_end = 0\ngrid.cells = 2\ninitial.amp_u = x\n"
                "grid.cells = 8\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == "line 1: key 'time.t_end' violates t_end > 0"

    @pytest.mark.parametrize("constants", [
        "params.mu1 = 2\n", "params.mu2 = 0.5\n", "params.alpha = 1\n"],
        ids=["mu1", "mu2", "alpha"])
    def test_anchor_needs_normalized_constants(self, constants):
        # the representation diagnostic is computed for no other constants
        with pytest.raises(ConfigError) as exc:
            parse_config(constants + "repr.anchor = 0.5\n")
        assert str(exc.value) == (
            "line 2: key 'repr.anchor' violates normalized constants "
            "(mu1 = kappa = lambda = nu = R = cv = 1, mu2 = alpha)")

    def test_anchor_with_the_normalized_values_set_one_by_one(self):
        cfg = parse_config("params.mu1 = 1\nparams.alpha = 1\nparams.mu2 = 1\n"
                           "repr.anchor = 0.5\n")
        assert cfg.params.is_normalized and not cfg.normalized_preset
        assert cfg.repr_node == 264  # (0.5 + 16) / (32 / 512)


BOUNDED_KEYS = sorted(key for key, (_, _, bound) in _KEYS.items() if bound)


def bound_text(key):
    """A key's lower bound as the error message and the README state it."""
    op, limit = _KEYS[key][2]
    return f"{key.rpartition('.')[2]} {op} {limit}"


def readme_key_rows():
    """Each key named in the first column of the README's configuration
    table, mapped to its whole row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            for key in re.findall(r"`([^`]+)`", line.split("|")[1]):
                rows[key] = line
    return rows


class TestKeyTable:
    @pytest.mark.parametrize("prefix", ["", "initial.profile = gaussian_bump\n"],
                             ids=["alone", "after-bump"])
    @pytest.mark.parametrize("key", BOUNDED_KEYS)
    def test_first_value_past_each_bound_is_refused(self, key, prefix):
        # the limit itself for '>', the next value below it for '>='; a bump
        # is the only profile that uses width and jitter, and the bound
        # holds with or without it
        parser, _, (op, limit) = _KEYS[key]
        if op == ">":
            value = limit
        elif parser is int:
            value = limit - 1
        else:
            value = math.nextafter(limit, -math.inf)
        line = prefix.count("\n") + 1
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{prefix}{key} = {value!r}\n")
        assert str(exc.value) == f"line {line}: key '{key}' violates {bound_text(key)}"

    def test_readme_states_every_key_and_its_bound(self):
        rows = readme_key_rows()
        assert sorted(rows) == sorted(_KEYS)
        for key in BOUNDED_KEYS:
            assert f"`{bound_text(key)}`" in rows[key], key


class TestSnapshots:
    def make_state(self, grid):
        rng = np.random.default_rng(5)
        state = reference_state(grid)
        state.v = rng.uniform(0.3, 2.7, grid.cells)
        state.theta = rng.uniform(0.4, 3.1, grid.cells)
        state.b = rng.normal(0.0, 0.7, (grid.cells, 2))
        state.u = rng.normal(0.0, 0.5, grid.cells + 1)
        state.w = rng.normal(0.0, 0.5, (grid.cells + 1, 2))
        state.t = 0.123456789123456789
        state.step = 917
        return state

    def test_round_trip_bit_exact(self, tmp_path):
        grid = Grid.uniform(16, 8.0, -4.0)
        state = self.make_state(grid)
        path = tmp_path / "snap.csv"
        emit_snapshot(state, grid, path)
        loaded, lgrid = load_snapshot(path)
        assert lgrid.cells == grid.cells
        assert loaded.t == state.t and loaded.step == state.step
        for name in ("v", "theta", "b", "u", "w"):
            assert np.array_equal(getattr(loaded, name), getattr(state, name)), name

    def test_row_counts_follow_staggering(self, tmp_path):
        grid = Grid.uniform(4, 2.0, 0.0)
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(grid), grid, path)
        assert len(path.read_text().splitlines()) == 2 + 4
        assert len(node_companion(path).read_text().splitlines()) == 2 + 5

    def test_malformed_row_names_line(self, tmp_path):
        grid = Grid.uniform(4, 2.0, 0.0)
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(grid), grid, path)
        lines = path.read_text().splitlines()
        lines[4] = "oops,not,a,number,row"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotError, match=r"snap.csv:5"):
            load_snapshot(path)

    def test_wrong_column_count(self, tmp_path):
        grid = Grid.uniform(4, 2.0, 0.0)
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(grid), grid, path)
        lines = path.read_text().splitlines()
        lines[3] = "1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotError, match="expected 5 fields"):
            load_snapshot(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("x_center,v,theta,b1,b2\n1,1,1,0,0\n")
        with pytest.raises(SnapshotError, match="header"):
            load_snapshot(path)

    def test_a_cell_file_with_no_data_row_is_refused(self, tmp_path):
        # the only line after the column header is blank, and the node file
        # holds the one row that zero cells would need
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(Grid.uniform(4, 2.0, 0.0)),
                      Grid.uniform(4, 2.0, 0.0), path)
        cells = path.read_text().splitlines()
        path.write_text("\n".join(cells[:2]) + "\n\n")
        nodes = node_companion(path).read_text().splitlines()
        node_companion(path).write_text("\n".join(nodes[:3]) + "\n")
        with pytest.raises(SnapshotError, match="^.*snap.csv: no data rows$"):
            load_snapshot(path)

    @pytest.mark.parametrize("cells, mass, left", [
        (8192, 32.0, -16.0), (8192, 7.3, -1e6), (8192, 1e-3, 1e8),
        (80, 9.5, 12345.678), (1000, 1e6, -3e5), (5000, 3.3, 1e-7)])
    def test_every_written_pair_loads(self, tmp_path, cells, mass, left):
        # the coordinates' rounding grows with the offset and the cell count:
        # at 1e8 it is a few percent of dx, and x0 + j * dx drifts from the
        # written nodes by more than 1e-9 * dx on the large grids. Each pair
        # is also its own initial profile on the grid that wrote it
        grid = Grid.uniform(cells, mass, left)
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(grid), grid, path)
        loaded, lgrid = load_snapshot(path)
        assert lgrid.cells == cells and lgrid.left_edge == grid.left_edge
        assert np.array_equal(loaded.v, np.ones(cells))
        state = make_initial_state(grid, FileProfile(str(path)), CAUCHY)
        for name in ("v", "theta", "b", "u", "w"):
            assert np.array_equal(getattr(state, name), getattr(loaded, name))

    def write_pair(self, tmp_path, cells=None, nodes=None):
        """An 8-cell pair over [-2, 2] whose data rows' x_center (cells) or
        x_node (nodes) is replaced by edit(row index, x); None keeps them."""
        grid = Grid.uniform(8, 4.0, -2.0)
        path = tmp_path / "snap.csv"
        emit_snapshot(reference_state(grid), grid, path)
        for name, edit in ((path, cells), (node_companion(path), nodes)):
            if edit is None:
                continue
            lines = name.read_text().splitlines()
            for j, line in enumerate(lines[2:]):
                x, rest = line.split(",", 1)
                lines[2 + j] = f"{edit(j, float(x))!r},{rest}"
            name.write_text("\n".join(lines) + "\n")
        return path

    def test_stray_coordinates_are_refused_at_their_line(self, tmp_path):
        # centers all -999 and nodes 100, 101, ... from the third on: the
        # first two nodes alone give a plausible grid
        path = self.write_pair(tmp_path, lambda j, x: -999.0,
                               lambda j, x: x if j < 2 else 98.0 + j)
        with pytest.raises(SnapshotError, match=re.escape(
                f"{node_companion(path)}:5: coordinate 100.0 is off the grid "
                "of dx = 0.5 from -2.0")):
            load_snapshot(path)
        path = self.write_pair(tmp_path, cells=lambda j, x: -999.0)
        with pytest.raises(SnapshotError, match=re.escape(
                f"{path}:3: coordinate -999.0 is off")):
            load_snapshot(path)

    @pytest.mark.parametrize("second", [-2.0, -2.5, math.nan])
    def test_a_second_node_not_past_the_first_is_refused_at_its_line(
            self, tmp_path, second):
        # coincident, reversed or NaN: the first two nodes give no grid
        path = self.write_pair(tmp_path, nodes=lambda j, x: second if j == 1 else x)
        with pytest.raises(SnapshotError, match=re.escape(
                f"{node_companion(path)}:4: node {second!r} is not past the "
                "first node -2.0")):
            load_snapshot(path)

    # the edit of the centers, of the nodes, and the file and line refused
    STRAYS = {
        # each spacing 3e-10 longer than the one before, inside the 5e-10
        # tolerance, so the spacing of nodes 2 and 3 is 6e-10 off dx: each
        # spacing is held to dx, not to the spacing before it
        "drift": (None, lambda j, x: x + 3e-10 * j * (j - 1) / 2, "nodes.csv:6"),
        "center": (lambda j, x: x + 1e-6 if j == 5 else x, None, "csv:8"),
        "nan": (lambda j, x: math.nan if j == 3 else x, None, "csv:6"),
        "inf": (None, lambda j, x: math.inf if j == 8 else x, "nodes.csv:11"),
    }

    @pytest.mark.parametrize("case", sorted(STRAYS))
    def test_each_kind_of_stray_coordinate_is_refused(self, tmp_path, case):
        cells, nodes, where = self.STRAYS[case]
        self.write_pair(tmp_path, cells, nodes)
        with pytest.raises(SnapshotError, match=re.escape(
                f"{tmp_path / 'snap'}.{where}: coordinate ")):
            load_snapshot(tmp_path / "snap.csv")

    def test_the_line_counts_blank_lines(self, tmp_path):
        path = self.write_pair(tmp_path, lambda j, x: -999.0 if j == 2 else x)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["", ""] + lines[3:]) + "\n")
        with pytest.raises(SnapshotError, match=re.escape(f"{path}:7: ")):
            load_snapshot(path)


class TestEmitDiagnostics:
    def test_reference_record_line(self, tmp_path):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = reference_state(grid)
        coll = DiagnosticsCollector(grid, p, CAUCHY, state)
        rec = coll.make_record(state)
        path = tmp_path / "diag.jsonl"
        with open(path, "w") as f:
            emit_diagnostics([rec], f)
            emit_diagnostics([coll.make_record(state)], f)
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        assert first["E_entropy"] == 0.0
        assert first["W"] == 0.0
        # identical key sets and ordering on every line
        assert [list(json.loads(l).keys()) for l in lines] \
            == [list(first.keys())] * 2

    # what %s and json.dumps must write alike: ints and floats at the ends of
    # the float range, a numpy float, and the values JSON spells otherwise
    VALUES = [0, 7, -3, 0.0, -0.0, 0.1, 1e16, 1e-5, 5e-324, -5e-324, 1e308,
              -1e308, np.float64(2.0 / 3.0), None, math.nan, math.inf,
              -math.inf]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    def test_the_line_is_json_dumps_of_the_record(self, value):
        grid = Grid.uniform(16, 8.0, -4.0)
        p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
        state = make_initial_state(grid, GaussianBump(amp_v=-0.3), CAUCHY)
        rec = DiagnosticsCollector(grid, p, CAUCHY, state).make_record(state)
        records = [rec, replace(rec, **{name: value for name in rec.names})]
        records += [replace(rec, **{name: value}) for name in rec.names]
        want = "".join(json.dumps(r.to_json_dict()) + "\n" for r in records)
        # record by record, and the whole list as one block
        for blocks in ([[r] for r in records], [records]):
            stream = io.StringIO()
            for block in blocks:
                emit_diagnostics(block, stream)
            assert stream.getvalue() == want


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_RUN = """
grid.cells = 16
grid.mass = 8.0
params.preset = normalized
params.alpha = 1.0
params.beta = 1.0
initial.profile = gaussian_bump
initial.amp_v = -0.2
initial.amp_u = 0.2
initial.amp_theta = 0.3
initial.amp_b1 = 0.2
initial.amp_w1 = 0.1
time.t_end = 0.05
"""


class TestRunCommand:
    def test_failed_temperature_solves_are_retried_at_smaller_steps(
            self, tmp_path):
        # at beta = 6 the Newton solves of the first steps need more than six
        # updates; halving dt under time.retry_max, as for lost positivity,
        # lets the run finish
        text = ("params.beta = 6\ninitial.profile = gaussian_bump\n"
                "initial.amp_theta = 3\ngrid.cells = 64\ngrid.mass = 16\n"
                "time.t_end = 0.5\ntime.newton_max_iter = 6\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in
                   (out / "diagnostics.jsonl").read_text().splitlines()]
        assert records[-1]["t"] == 0.5
        assert max(r["retries"] for r in records) == 4

    @pytest.mark.parametrize("retry_max, code, message", [
        (20, 0, ""),
        (2, 3, "temperature solve met a Newton matrix that is not positive "
               "definite after 2 dt halvings")])
    def test_a_newton_matrix_not_positive_definite_is_retried_not_a_traceback(
            self, tmp_path, capsys, monkeypatch, retry_max, code, message):
        # the first three Newton solves get their diagonal negated, so ptsv
        # finds the matrix not positive definite (as where c_v/dt + R*u_x/v
        # <= 0); each such attempt is retried at half the dt like any other
        # failed temperature solve
        failing = [3]

        def newton_solve(solve, d, e, rhs):
            if failing[0]:
                failing[0] -= 1
                d = -d
            return solve(d, e, rhs)

        patch_newton_solve(monkeypatch, newton_solve)
        text = ("grid.cells = 64\ngrid.mass = 16\nbc = cauchy\n"
                "params.preset = normalized\nparams.alpha = 1\n"
                "params.beta = 2\ninitial.profile = gaussian_bump\n"
                "initial.amp_theta = 3\ntime.t_end = 0.5\n"
                f"time.retry_max = {retry_max}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err
        if code == 0:
            records = (out / "diagnostics.jsonl").read_text().splitlines()
            assert json.loads(records[1])["retries"] == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_newton_iterate_fails_its_attempt(
            self, tmp_path, capsys, monkeypatch):
        # at beta = 35 some failing Newton iterates of the first attempts
        # raise theta ** beta past the largest double; each such attempt is
        # retried at half the dt, with no RuntimeWarning, and the run finishes
        causes, attempt = [], solver.attempt

        def recording(*args, **kwargs):
            try:
                return attempt(*args, **kwargs)
            except solver._Retry as exc:
                causes.append(exc.args[1])
                raise

        monkeypatch.setattr(solver, "attempt", recording)
        text = ("grid.cells = 64\ngrid.mass = 16\nbc = cauchy\n"
                "params.preset = normalized\nparams.alpha = 1\n"
                "params.beta = 35\ninitial.profile = gaussian_bump\n"
                "initial.amp_theta = 3\ntime.t_end = 0.5\n")
        code = cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "RuntimeWarning" not in err
        assert "temperature iterate overflowed the conductivity" in causes

    def test_run_writes_outputs_and_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "summary:" in captured and "E_entropy_final" in captured
        assert (out / "snapshot_initial.csv").exists()
        assert (out / "snapshot_final.csv").exists()
        records = [json.loads(l) for l in
                   (out / "diagnostics.jsonl").read_text().splitlines()]
        times = [r["t"] for r in records]
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(0.05, abs=1e-12)
        final, fgrid = load_snapshot(out / "snapshot_final.csv")
        assert final.t == pytest.approx(0.05, abs=1e-12)
        assert fgrid.cells == 16

    def test_constant_run_reports_equilibrium_summary(self, tmp_path, capsys):
        text = ("grid.cells = 16\ngrid.mass = 8.0\nparams.preset = normalized\n"
                "params.alpha = 1.0\ntime.t_end = 1.0\n")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "min_v = 1," in captured and "max_v = 1," in captured
        records = [json.loads(l) for l in
                   (out / "diagnostics.jsonl").read_text().splitlines()]
        assert all(r["min_v"] == 1.0 and r["max_v"] == 1.0 for r in records)
        assert all(r["E_entropy"] == 0.0 for r in records)

    def test_run_is_byte_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["run", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            outs.append((out / "diagnostics.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "params.beta = -1\n")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("anchor", ["-15.9", "15.9"])
    def test_anchor_nearest_an_end_node_exit_2(self, tmp_path, capsys, anchor):
        # inside the domain, but the nearest node is node 0 or node M, where
        # the representation diagnostic cannot be anchored
        text = ("grid.cells = 64\ngrid.mass = 32.0\nparams.preset = normalized\n"
                f"repr.anchor = {anchor}\ntime.t_end = 0.1\n")
        cfg_path = write_config(tmp_path, text)
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "repr.anchor" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, key", [
        ("params.preset = normalized\nparams.alpha = nan\n", "params.alpha"),
        ("params.mu2 = nan\n", "params.mu2"),
        ("params.preset = normalized\nparams.beta = nan\n", "params.beta"),
        ("grid.mass = 5e-324\n", "grid.mass"),
        ("seed = -1\ninitial.profile = gaussian_bump\ninitial.jitter = 0.1\n",
         "seed"),
        ("time.dt_min = nan\n", "time.dt_min"),
        ("output.snapshot_interval = nan\n", "output.snapshot_interval"),
        ("time.t_end = inf\n", "time.t_end"),
        # at left = 1e308 every node has the same coordinate
        ("grid.left = 1e308\ngrid.mass = 8\nbc = insulated_wall\n", "grid.left"),
        # one unit interval per slab entry: 1e300 of them cannot be allocated
        ("grid.mass = 1e300\n", "grid.mass"),
        # a negative step ran backward in time until exp overflowed
        ("time.dt_min = -2\ntime.dt_max = -1\n", "time.dt_min"),
    ])
    def test_values_that_got_past_validation_exit_2(self, tmp_path, capsys,
                                                    text, key):
        cfg_path = write_config(tmp_path, "grid.cells = 16\n" + text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err and not out.exists()

    def test_mass_is_bounded_by_unit_intervals_per_cell(self):
        bound = float(SLAB_INTERVALS_PER_CELL * 16)
        assert parse_config(f"grid.cells = 16\ngrid.mass = {bound!r}\n").grid.mass == bound
        above = math.nextafter(bound, math.inf)
        with pytest.raises(ConfigError, match="grid.mass"):
            parse_config(f"grid.cells = 16\ngrid.mass = {above!r}\n")

    @pytest.mark.parametrize("cells", [16, 4096])
    def test_accepted_grids_have_increasing_nodes(self, cells):
        # the check decides without building the nodes; every grid it
        # accepts must have finite, strictly increasing node coordinates,
        # and the offsets where the spacing is lost must be rejected
        verdicts = []
        for exponent in range(0, 21):
            text = (f"grid.cells = {cells}\ngrid.mass = 1.0\n"
                    f"grid.left = 1e{exponent}\n")
            try:
                grid = parse_config(text).grid
            except ConfigError as exc:
                assert "grid.left" in str(exc)
                verdicts.append(False)
                continue
            nodes = grid.nodes()
            assert np.isfinite(nodes).all() and (np.diff(nodes) > 0.0).all()
            verdicts.append(True)
        assert verdicts[0] and not verdicts[-1]
        assert verdicts == sorted(verdicts, reverse=True)

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_solver_failure_exit_3(self, tmp_path, capsys):
        # an iteration cap of zero cannot solve a heated bump: the run must
        # stop with the typed failure and report the failing time
        text = SMALL_RUN + "time.newton_max_iter = 0\n"
        cfg_path = write_config(tmp_path, text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "temperature solve" in err and "at t" in err

    def test_sparse_cadence_still_emits_final_record(self, tmp_path):
        text = SMALL_RUN + "output.diagnostics_every = 7\ntime.dt_max = 0.004\n"
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        records = [json.loads(l) for l in
                   (out / "diagnostics.jsonl").read_text().splitlines()]
        assert records[-1]["t"] == pytest.approx(0.05, abs=1e-12)
        assert len(records) < records[-1]["step"] + 1

    def test_snapshot_interval(self, tmp_path):
        text = SMALL_RUN.replace("time.t_end = 0.05", "time.t_end = 0.2") \
            + "output.snapshot_interval = 0.05\ntime.dt_max = 0.01\n"
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        snaps = [s for s in out.glob("snapshot_0*.csv")
                 if "nodes" not in s.name and "initial" not in s.name]
        assert len(snaps) >= 3

    @pytest.mark.parametrize("interval", [0.5, 0.3, 0.1])
    def test_snapshot_names_follow_the_interval(self, tmp_path, interval):
        # oracle: the interval rule replayed on the step times, one interval
        # added at a time until the next snapshot time passes t; a 16-cell
        # step is longer than 0.1, so some steps pass several times
        text = SMALL_RUN.replace("time.t_end = 0.05", "time.t_end = 2.0") \
            + f"output.snapshot_interval = {interval}\n"
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        records = [json.loads(l) for l in
                   (out / "diagnostics.jsonl").read_text().splitlines()]
        expected, snap_next = [], interval
        for r in records[1:]:
            if r["t"] >= snap_next - 1e-12:
                expected.append(f"snapshot_{r['step']:06d}.csv")
                while r["t"] >= snap_next - 1e-12:
                    snap_next += interval
        got = sorted(p.name for p in out.glob("snapshot_0*.csv")
                     if not p.name.endswith(".nodes.csv"))
        assert got == expected and len(got) >= 3
        if interval == 0.1:
            assert any(b["t"] - a["t"] > interval
                       for a, b in zip(records, records[1:]))

    def test_snapshot_interval_below_float_spacing_ends(self, tmp_path):
        # 1e-300 added to t changes nothing, so stepping the next snapshot
        # time by one interval at a time never passes t; the run must end
        # promptly with one snapshot per accepted step
        cfg_path = write_config(tmp_path,
                                SMALL_RUN + "output.snapshot_interval = 1e-300\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "mhd1d.cli", "run", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        steps = len((out / "diagnostics.jsonl").read_text().splitlines()) - 1
        snaps = [p for p in out.glob("snapshot_0*.csv")
                 if not p.name.endswith(".nodes.csv")]
        assert steps >= 1 and len(snaps) == steps

    def test_unaligned_grid_with_many_unit_intervals_ends(self, tmp_path):
        # 200000 unit intervals, none aligned with a cell edge: the slab
        # integrals of a record must cost O(cells + intervals), not a pass
        # over the cells per interval
        cfg_path = write_config(tmp_path, (
            "grid.cells = 16384\ngrid.mass = 200000.5\nparams.preset = normalized\n"
            "initial.profile = gaussian_bump\ninitial.width = 1000.0\n"
            "initial.amp_theta = 0.3\ntime.t_end = 1e-6\n"))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "mhd1d.cli", "run", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in
                   (out / "diagnostics.jsonl").read_text().splitlines()]
        assert len(records) == 2
        for r in records:
            assert 1.0 - 1e-9 <= r["slab_theta_min"] < r["slab_theta_max"] <= 1.3


def per_step_records(text):
    """The records and the collector of the run a config describes, made one
    accepted step at a time through the Python API, and the failure that
    ended the run, if any."""
    cfg = parse_config(text)
    state = make_initial_state(cfg.grid, cfg.profile, cfg.bc)
    coll = DiagnosticsCollector(cfg.grid, cfg.params, cfg.bc, state)
    records = [coll.make_record(state)]
    failure = None
    try:
        run_until(state, cfg.grid, cfg.t_end, cfg.params, cfg.bc, cfg.control,
                  sink=lambda s, r: records.append(coll.make_record(s, r)))
    except SolverFailure as exc:
        failure = exc
    return records, coll, failure


def json_line(record):
    return json.dumps(record.to_json_dict())


BLOCK_RUN = SMALL_RUN.replace("grid.cells = 16", "grid.cells = 32")


def test_the_representation_residual_stays_finite_at_large_alpha(tmp_path,
                                                                  capsys):
    # v0 = 0.21 at the dip: v0**-alpha is about 2400, past the 745 where
    # exp(-v0**-alpha) underflows, which no record may meet
    text = ("grid.cells = 64\ngrid.mass = 16\nparams.preset = normalized\n"
            "params.alpha = 5\ninitial.profile = gaussian_bump\n"
            "initial.amp_v = -0.8\ninitial.amp_theta = 0.5\ntime.t_end = 0.01\n")
    code, summary = cli.run_simulation(parse_config(text), tmp_path / "out")
    assert code == 0
    residuals = [json.loads(line)["repr_residual_max"] for line in
                 (tmp_path / "out" / "diagnostics.jsonl").read_text().splitlines()]
    assert all(isinstance(r, float) and math.isfinite(r) for r in residuals)
    assert summary["repr_residual_max"] == max(residuals)
    assert f"repr_residual_max = {max(residuals):.6g}\n" in capsys.readouterr().out


class TestRecordBlocksInTheRunCommand:
    """The run command records its steps a block at a time; what it writes
    and prints must be what one step at a time gives."""

    def test_sparse_cadence_matches_the_per_step_records(self, tmp_path, capsys):
        text = (BLOCK_RUN.replace("grid.cells = 32", "grid.cells = 96")
                .replace("time.t_end = 0.05", "time.t_end = 1.2")
                + "time.dt_max = 0.004\noutput.diagnostics_every = 7\n")
        records, coll, _ = per_step_records(text)
        steps = len(records) - 1
        block = BLOCK_CELLS // 96
        # two full blocks and a ragged one, whose last record is pending
        assert steps > 2 * block and steps % block and steps % 7
        want = [json_line(r) for r in records if r.step % 7 == 0] \
            + [json_line(records[-1])]
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 0
        assert (out / "diagnostics.jsonl").read_text().splitlines() == want
        printed = capsys.readouterr().out
        assert (f"min_v = {coll.min_v_run:.17g}, max_v = {coll.max_v_run:.17g}, "
                f"min_theta = {coll.min_theta_run:.17g}, "
                f"max_theta = {coll.max_theta_run:.17g}") in printed
        assert (f"E_entropy_final = {records[-1].E_entropy:.17g}, "
                f"W_integral = {coll.last.W_cum:.17g}, "
                f"repr_residual_max = {coll.max_repr_residual:.6g}") in printed

    def test_failure_inside_a_block_writes_every_accepted_step(self, tmp_path,
                                                                capsys):
        # one Newton update per step suffices for two steps, then not, even
        # after the one dt halving that retry_max allows
        text = (BLOCK_RUN.replace("time.t_end = 0.05", "time.t_end = 2.0")
                .replace("initial.amp_v = -0.2", "initial.amp_v = -0.1")
                .replace("initial.amp_u = 0.2\n", "")
                .replace("initial.amp_theta = 0.3\n", "")
                .replace("initial.amp_b1 = 0.2\n", "")
                .replace("initial.amp_w1 = 0.1\n", "")
                + "time.newton_max_iter = 1\ntime.newton_tol = 1e-8\n"
                + "time.retry_max = 1\n")
        records, coll, failure = per_step_records(text)
        assert failure is not None and 1 < len(records) - 1 < BLOCK_CELLS // 32
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 3
        assert (out / "diagnostics.jsonl").read_text().splitlines() \
            == [json_line(r) for r in records]
        err = capsys.readouterr().err
        assert (f"error: {failure}; run minima: v = {coll.min_v_run:.6g}, "
                f"theta = {coll.min_theta_run:.6g}\n") == err


class TestNonFiniteFields:
    def test_overflowing_sweep_amplitude_exits_2(self, tmp_path, capsys):
        # 2 * 1e308 overflows to inf: the profile is rejected before a step
        text = ("grid.cells = 16\ngrid.mass = 8.0\n"
                "initial.profile = gaussian_bump\ninitial.amp_v = 2\n")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(write_config(tmp_path, text)),
                         "--axis", "amp=1e308", "--out", str(out)]) == 0
        row = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "2"
        err = capsys.readouterr().err
        assert "initial profile rejected: non-finite v" in err
        assert "Traceback" not in err
        assert not (out / "run_amp1e+308" / "diagnostics.jsonl").exists()

    def test_snapshot_with_inf_exits_2(self, tmp_path, capsys):
        grid = Grid.uniform(16, 8.0, -4.0)
        state = reference_state(grid)
        state.u[5] = math.inf
        snap = tmp_path / "snap.csv"
        emit_snapshot(state, grid, snap)
        text = (f"grid.cells = 16\ngrid.mass = 8.0\ninitial.profile = file\n"
                f"initial.file = {snap}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial profile rejected: non-finite u")
        assert not (out / "diagnostics.jsonl").exists()

    # finite bumps whose t = 0 record overflows: u^2 in the kinetic energy,
    # |b|^2, |w_x|^2 in the dissipation, kappa(theta) theta_x^2
    OVERFLOWING = ["amp_u = 1e160", "amp_b1 = 1e160", "amp_b2 = 1e160",
                   "amp_w1 = 1e160", "amp_w2 = 1e160", "amp_theta = 1e150"]

    @pytest.mark.parametrize("amp", OVERFLOWING)
    def test_an_overflowing_initial_record_exits_2(self, tmp_path, capsys, amp):
        # the record is neither written (E_entropy Infinity, W_cum null) nor
        # run; the suite turns the RuntimeWarning it used to print into an
        # error
        text = ("grid.cells = 16\ngrid.mass = 8.0\n"
                f"initial.profile = gaussian_bump\ninitial.{amp}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: initial profile rejected: (overflow|invalid "
                            r"value) encountered in \w+; largest \|v\| = \S+, "
                            r"\|theta\| = \S+, \|u\| = \S+, \|w\| = \S+, "
                            r"\|b\| = \S+\n", err), err
        # the message names the amplitude's field as by far the largest
        sizes = {k: float(x) for k, x in re.findall(r"\|(\w+)\| = ([^,\n]+)", err)}
        culprit = amp.split()[0].removeprefix("amp_").rstrip("12")
        assert sizes[culprit] > 1e149 and max(sizes, key=sizes.get) == culprit
        assert not (out / "diagnostics.jsonl").exists()

    def test_an_overflowing_initial_record_exits_2_under_warnings_as_errors(
            self, tmp_path):
        text = ("grid.cells = 16\ngrid.mass = 8.0\n"
                "initial.profile = gaussian_bump\ninitial.amp_u = 1e160\n")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "mhd1d.cli",
             "run", "--config", str(write_config(tmp_path, text)),
             "--out", str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: initial profile rejected: overflow "
                               "encountered in multiply; largest |v| = 1, "
                               "|theta| = 1, |u| = 1e+160, |w| = 0, |b| = 0\n")


class TestUnreadableInput:
    @pytest.mark.parametrize("command", [["check-config"], ["run"],
                                         ["sweep", "--axis", "alpha=0,1"]])
    def test_a_config_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(SMALL_RUN.encode() + b"# \xff\n")
        out = [] if command == ["check-config"] else ["--out", str(tmp_path / "out")]
        assert cli.main([*command, "--config", str(cfg_path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg_path}: ")
        assert "can't decode byte 0xff" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_snapshot_with_no_data_row_exits_2(self, tmp_path, capsys):
        grid = Grid.uniform(16, 8.0, -4.0)
        snap = tmp_path / "snap.csv"
        emit_snapshot(reference_state(grid), grid, snap)
        snap.write_text("\n".join(snap.read_text().splitlines()[:2]) + "\n\n")
        nodes = node_companion(snap).read_text().splitlines()
        node_companion(snap).write_text("\n".join(nodes[:3]) + "\n")
        text = (f"grid.cells = 16\ngrid.mass = 8.0\ninitial.profile = file\n"
                f"initial.file = {snap}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: initial profile rejected: {snap}: no data rows\n"

    def test_a_snapshot_of_three_cells_exits_2_naming_it(self, tmp_path, capsys):
        # a 4-cell pair without its last center and last node: consistent
        # coordinates, one cell too few for a grid
        grid = Grid.uniform(4, 2.0, 0.0)
        snap = tmp_path / "snap.csv"
        emit_snapshot(reference_state(grid), grid, snap)
        for name in (snap, node_companion(snap)):
            name.write_text("\n".join(name.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(snap)
        assert str(exc.value) == f"{snap}: need at least 4 cells, got 3"
        text = (f"grid.cells = 4\ngrid.mass = 2.0\nbc = insulated_wall\n"
                f"initial.profile = file\ninitial.file = {snap}\n")
        assert cli.main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: initial profile rejected: {snap}: need at least 4 cells, "
            "got 3\n")


class TestCheckConfig:
    def test_valid(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        assert cli.main(["check-config", "--config", str(cfg_path)]) == 0
        assert "grid.cells = 16" in capsys.readouterr().out

    def test_invalid(self, tmp_path):
        cfg_path = write_config(tmp_path, "grid.cells = 2\n")
        assert cli.main(["check-config", "--config", str(cfg_path)]) == 2

    def test_a_key_the_profile_does_not_use_is_still_checked(self, tmp_path,
                                                              capsys):
        cfg_path = write_config(tmp_path, "initial.profile = constant\n"
                                          "initial.amp_v = nan\n")
        assert cli.main(["check-config", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: line 2: key 'initial.amp_v' expects a finite "
            "float, got 'nan'\n")

    CUSTOM = """
grid.cells = 40
grid.mass = 9.7
grid.left = 0.25
bc = insulated_wall
params.alpha = 1.3
params.beta = 1.6
params.mu1 = 0.8
params.mu2 = 0.6
params.kappa = 1.2
params.lambda = 0.9
params.nu = 1.1
params.R = 1.05
params.cv = 0.7
time.t_end = 0.3
time.cfl = 0.25
output.dir = elsewhere
"""

    @pytest.mark.parametrize("case", ["normalized-bump", "custom", "file"])
    def test_output_is_a_config_that_reads_back_the_same(self, tmp_path, capsys,
                                                         case):
        if case == "file":
            grid = Grid.uniform(16, 8.0, -4.0)
            emit_snapshot(reference_state(grid), grid, tmp_path / "snap.csv")
            text = (SMALL_RUN.replace("initial.profile = gaussian_bump",
                                      "initial.profile = file")
                    + f"initial.file = {tmp_path / 'snap.csv'}\n")
        else:
            text = SMALL_RUN if case == "normalized-bump" else self.CUSTOM
        cfg = parse_config(text)
        assert cli.main(["check-config", "--config",
                         str(write_config(tmp_path, text))]) == 0
        echoed = capsys.readouterr().out
        assert echoed == describe(cfg) + "\n"
        again = parse_config(echoed)
        for name in ("grid", "bc", "params", "t_end", "out_dir",
                     "normalized_preset"):
            assert getattr(again, name) == getattr(cfg, name), name
        assert again.control.cfl == cfg.control.cfl
        assert type(again.profile) is type(cfg.profile)
        if case == "file":
            assert again.profile == cfg.profile


    @pytest.mark.parametrize("extra", [
        "",
        "initial.amp_u = 0.25\ninitial.amp_b2 = -0.1\ninitial.jitter = 0.03\n"
        "seed = 11\n",
    ])
    def test_output_reads_back_to_an_equal_run_config(self, tmp_path, capsys,
                                                       monkeypatch, extra):
        # the benchmark's run_small config with a nondefault key of every
        # section that used to go unprinted; jittered amplitudes print as
        # resolved, so neither jitter nor seed is needed to read them back
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench)
        spec.loader.exec_module(bench)
        text = (bench.config_text(*bench.WORKLOADS["run_small"][:3], 3)
                + "time.dt_max = 0.05\noutput.diagnostics_every = 4\n"
                + "sweep.cap = 9\nrepr.anchor = 2.3\n" + extra)
        cfg = parse_config(text)
        assert cli.main(["check-config", "--config",
                         str(write_config(tmp_path, text))]) == 0
        echoed = capsys.readouterr().out
        assert parse_config(echoed) == cfg
        assert "jitter" not in echoed and "seed" not in echoed


class TestSweepCommand:
    def test_an_axis_value_that_unnormalizes_the_anchor_exits_2(self, tmp_path,
                                                                 capsys):
        # mu2 = 0 set key by key is normalized only at alpha = 0; the sweep
        # refuses before any run starts, as parse_config refuses the file
        text = ("grid.cells = 32\nparams.mu1 = 1\nparams.alpha = 0\n"
                "params.mu2 = 0\nrepr.anchor = 0.5\ntime.t_end = 0.05\n")
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--config", str(write_config(tmp_path, text)),
                         "--axis", "alpha=0,1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() == (
            "config error: alpha = 1.0, beta = 1.0: repr.anchor requires "
            "normalized constants (mu1 = kappa = lambda = nu = R = cv = 1, "
            "mu2 = alpha)")
        assert not out.exists()

    def test_cartesian_product_and_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "alpha=0,1", "--axis", "beta=0.5,1",
                         "--out", str(out)])
        assert code == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[0] == ("alpha,beta,amp,exit,min_v,min_theta,"
                           "E_entropy_final,repr_residual_max")
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            cells = row.split(",")
            assert cells[3] == "0"          # every run exits 0
            assert float(cells[4]) > 0.0    # min v stays positive
        assert len(list(out.glob("run_*"))) == 4

    def test_single_equilibrium_row(self, tmp_path):
        text = SMALL_RUN.replace("initial.profile = gaussian_bump",
                                 "initial.profile = constant")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "alpha=0", "--axis", "beta=1",
                         "--axis", "amp=0", "--out", str(out)])
        assert code == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 2
        assert float(rows[1].split(",")[6]) == pytest.approx(0.0, abs=1e-12)

    def test_cap_refuses_before_running(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN + "sweep.cap = 3\n")
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "alpha=0,1", "--axis", "beta=0.5,1",
                         "--out", str(out)])
        assert code == 2
        assert not list(out.glob("run_*")) if out.exists() else True

    def test_unknown_axis(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "gamma=1,2"]) == 2

    @pytest.mark.parametrize("axis", ["alpha=-1", "beta=nan", "amp=nan"])
    def test_invalid_axis_value_exit_2_before_any_run(self, tmp_path, capsys,
                                                      axis):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", str(cfg_path), "--axis", axis,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and axis.split("=")[0] in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("axes, message", [
        (["alpha=0", "alpha=1"], "duplicate sweep axis 'alpha'"),
        (["beta=0.5,x"], "axis 'beta' values must be numbers, got '0.5,x'"),
        (["amp= , "], "axis 'amp' has no values"),
    ], ids=["duplicate", "non-numeric", "empty"])
    def test_malformed_axes_exit_2_before_any_run(self, tmp_path, capsys, axes,
                                                  message):
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(write_config(tmp_path, SMALL_RUN)),
                "--out", str(out)]
        for axis in axes:
            args += ["--axis", axis]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_summary_does_not_depend_on_diagnostics_cadence(self, tmp_path):
        # the run-wide extremes cover every accepted step, not only the
        # records a sparse cadence writes
        text = (SMALL_RUN.replace("time.t_end = 0.05", "time.t_end = 0.5")
                + "time.dt_max = 0.005\n")
        summaries = []
        for every in (1, 50):
            cfg_path = write_config(
                tmp_path, text + f"output.diagnostics_every = {every}\n",
                name=f"every{every}.cfg")
            out = tmp_path / f"sweep{every}"
            assert cli.main(["sweep", "--config", str(cfg_path),
                             "--axis", "alpha=0,1", "--out", str(out)]) == 0
            summaries.append((out / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]

    def test_parallel_workers_match_serial(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN + "sweep.workers = 2\n")
        out = tmp_path / "sweep_par"
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "alpha=0,1", "--out", str(out)])
        assert code == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 3

    def test_axis_order_does_not_change_the_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        outcomes = []
        for name, axes in (("a", ["amp=0.5,1", "alpha=0,1"]),
                           ("b", ["alpha=0,1", "amp=0.5,1"])):
            out = tmp_path / name
            args = ["sweep", "--config", str(cfg_path), "--out", str(out)]
            for axis in axes:
                args += ["--axis", axis]
            assert cli.main(args) == 0
            outcomes.append((sorted(p.name for p in out.glob("run_*")),
                             (out / "summary.csv").read_bytes()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == ["run_alpha0_amp0.5", "run_alpha0_amp1",
                                  "run_alpha1_amp0.5", "run_alpha1_amp1"]

    @pytest.mark.parametrize("axes, first, second, name", [
        (["alpha=1,1.0000001"], "(alpha = 1.0)", "(alpha = 1.0000001)",
         "run_alpha1"),
        (["amp=0.5,0.5"], "(amp = 0.5)", "(amp = 0.5)", "run_amp0.5"),
        (["alpha=0,1", "amp=0.25,0.2500001"], "(alpha = 0.0, amp = 0.25)",
         "(alpha = 0.0, amp = 0.2500001)", "run_alpha0_amp0.25"),
    ])
    def test_runs_that_would_share_a_directory_are_refused(self, tmp_path, capsys,
                                                           axes, first, second,
                                                           name):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(cfg_path), "--out", str(out)]
        for axis in axes:
            args += ["--axis", axis]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == (
            f"config error: sweep runs {first} and {second} would share the "
            f"run directory {name}; refusing to start\n")
        assert not out.exists()

    def test_cap_refusal_message(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_RUN + "sweep.cap = 3\n")
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "alpha=0,1", "--axis", "beta=0.5,1",
                         "--out", str(tmp_path / "sweep")]) == 2
        assert capsys.readouterr().err == (
            "config error: sweep of 4 runs exceeds sweep.cap = 3; "
            "refusing to start\n")


class TestUnwritableOutput:
    """An output directory or file that cannot be written exits 2 with a
    message naming the path; in a sweep that run's row exits 2."""

    @pytest.mark.parametrize("command", [["run"],
                                         ["sweep", "--axis", "alpha=0,1"]])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main([*command, "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in err and out.read_text() == ""

    def test_run_with_an_unopenable_diagnostics_file_exits_2(self, tmp_path,
                                                             capsys):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        (out / "diagnostics.jsonl").mkdir(parents=True)
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output in {out}: ")
        assert str(out / "diagnostics.jsonl") in err

    def test_sweep_row_with_an_unopenable_file_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        (out / "run_alpha1" / "diagnostics.jsonl").mkdir(parents=True)
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "alpha=0,1", "--out", str(out)]) == 0
        rows = [row.split(",") for row in
                (out / "summary.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[3]) for row in rows] == [("0", "0"), ("1", "2")]
        assert rows[1][4:] == ["nan"] * 4
        assert str(out / "run_alpha1" / "diagnostics.jsonl") in \
            capsys.readouterr().err

    def test_sweep_with_an_unwritable_summary_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "sweep"
        (out / "summary.csv").mkdir(parents=True)
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--axis", "alpha=0,1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output in {out}: ")
        assert "Traceback" not in err
        for run in ("run_alpha0", "run_alpha1"):
            assert (out / run / "snapshot_final.csv").is_file()
            assert (out / run / "diagnostics.jsonl").read_text()


class TestVerifyCommand:
    def test_studies_emit_json_lines_and_pass(self, capsys):
        code = cli.main(["verify"])
        lines = capsys.readouterr().out.splitlines()
        studies = [json.loads(l) for l in lines if l.strip()]
        assert code == 0
        names = {s["study"] for s in studies}
        assert {"mms_source_check", "mms_spatial_order",
                "mms_temporal_order"} <= names
        assert any(n.startswith("oracle_agreement") for n in names)
        assert all(s["pass"] for s in studies)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "mhd1d.cli", "run", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "summary:" in proc.stdout


HEAP_PROBE = """
import resource
from mhd1d import cli, solver
from mhd1d.core import BoundaryCondition, GaussianBump, Grid, PhysicalParams, make_initial_state
cli._keep_freed_heap()
grid = Grid.uniform(8192, 32.0, -16.0)
p = PhysicalParams.normalized(alpha=1.0, beta=1.0)
bc = BoundaryCondition.CAUCHY_FAR_FIELD
state = make_initial_state(grid, GaussianBump(amp_v=-0.3, amp_theta=0.5), bc)
coeffs = solver.state_coeffs(state, solver.viscosity_mu(state.v, p), p)
ctl = solver.StepControl()
for _ in range(5):
    solver.step(state, grid, p, bc, ctl, coeffs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    solver.step(state, grid, p, bc, ctl, coeffs)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_a_large_step_reuses_freed_heap():
    # glibc's default thresholds return a step's freed temporaries to the
    # system, about 200 minor page faults a step at M = 8192; kept, about 3
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20.0
