"""Field snapshot files and the JSON-lines diagnostics stream.

A snapshot is a CSV pair: the given path holds cell data
(`x_center,v,theta,b1,b2`) and a companion `<name>.nodes<ext>` file holds node
data (`x_node,u,w1,w2`). Both start with a `# t=<time> step=<n>` header and
store full double precision (17 significant digits), so a write/load round
trip is bit-exact.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import GasState, Grid
from .diagnostics import json_lines

_FMT = "%.17g"
_ROWS = 1024


class SnapshotError(ValueError):
    """Malformed or inconsistent snapshot file; message carries path and line."""


def node_companion(path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".nodes" + p.suffix)


def emit_snapshot(state: GasState, grid: Grid, path) -> None:
    """Write the center/node CSV pair for a state."""
    path = Path(path)
    header = f"# t={_FMT % state.t} step={state.step}\n"
    for name, columns, fields in (
            (path, "x_center,v,theta,b1,b2",
             (grid.centers(), state.v, state.theta, state.b)),
            (node_companion(path), "x_node,u,w1,w2",
             (grid.nodes(), state.u, state.w))):
        with open(name, "w") as f:
            f.write(header + columns + "\n")
            # one % per _ROWS rows: the call cost of one % per file, and a
            # temporary text of at most _ROWS rows however large the grid
            for at in range(0, fields[0].shape[0], _ROWS):
                table = np.column_stack([a[at:at + _ROWS] for a in fields])
                row = ",".join([_FMT] * table.shape[1]) + "\n"
                f.write((row * table.shape[0]) % tuple(table.ravel().tolist()))


def _parse_header(line: str, path) -> tuple[float, int]:
    try:
        parts = dict(item.split("=") for item in line.lstrip("#").split())
        return float(parts["t"]), int(parts["step"])
    except (ValueError, KeyError) as exc:
        raise SnapshotError(f"{path}:1: bad header {line!r}") from exc


def _read_csv(path, columns: int) -> tuple[float, int, np.ndarray, list]:
    """The time, step and data rows of one snapshot file, and the line
    number of each row."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if len(lines) < 3 or not lines[0].startswith("#"):
        raise SnapshotError(f"{path}:1: missing '# t=...' header")
    t, step = _parse_header(lines[0], path)
    rows, linenos = [], []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        linenos.append(lineno)
        fields = line.split(",")
        if len(fields) != columns:
            raise SnapshotError(f"{path}:{lineno}: expected {columns} fields, "
                                f"got {len(fields)}")
        try:
            rows.append([float(x) for x in fields])
        except ValueError as exc:
            raise SnapshotError(f"{path}:{lineno}: non-numeric field: {exc}") from exc
    if not rows:
        raise SnapshotError(f"{path}: no data rows")
    return t, step, np.asarray(rows, dtype=float), linenos


def load_snapshot(path) -> tuple[GasState, Grid]:
    """Inverse of emit_snapshot. Reconstructs the grid from the stored
    coordinates and returns the state with its saved time and step.

    The first two nodes give the grid; a second node that is not past the
    first is refused at its line, and fewer than 4 cells with the file's
    name. Every later node must sit one dx past the node before it, and
    every center half a dx past its left node (midway between its nodes),
    each within the grid's coordinate_tol; else SnapshotError names the
    file and line of the first coordinate off the grid. Each spacing is held
    to dx, not each node to x_node[0] + j * dx, whose rounding drifts on
    long grids."""
    t, step, centers, center_lines = _read_csv(path, 5)
    t_n, step_n, nodes, node_lines = _read_csv(node_companion(path), 4)
    if t_n != t or step_n != step:
        raise SnapshotError(f"{path}: node companion carries a different "
                            f"time/step ({t_n}, {step_n}) vs ({t}, {step})")
    if nodes.shape[0] != centers.shape[0] + 1:
        raise SnapshotError(f"{path}: {centers.shape[0]} centers need "
                            f"{centers.shape[0] + 1} nodes, got {nodes.shape[0]}")
    x_node, x_center = nodes[:, 0], centers[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are stray
        dx = float(x_node[1] - x_node[0])
        offsets = (np.diff(x_node) - dx, x_center - x_node[:-1] - 0.5 * dx)
    if not dx > 0.0:
        raise SnapshotError(f"{node_companion(path)}:{node_lines[1]}: node "
                            f"{float(x_node[1])!r} is not past the first node "
                            f"{float(x_node[0])!r}")
    try:
        grid = Grid(cells=centers.shape[0], dx=dx, left_edge=float(x_node[0]))
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from None
    for name, lines, x, off in zip((node_companion(path), path),
                                   (node_lines[1:], center_lines),
                                   (x_node[1:], x_center), offsets):
        stray = np.flatnonzero(~(np.abs(off) <= grid.coordinate_tol))
        if stray.size:
            raise SnapshotError(f"{name}:{lines[stray[0]]}: coordinate "
                                f"{float(x[stray[0]])!r} is off the grid of "
                                f"dx = {dx!r} from {grid.left_edge!r}")
    state = GasState(v=centers[:, 1].copy(), theta=centers[:, 2].copy(),
                     b=centers[:, 3:5], u=nodes[:, 1].copy(),
                     w=nodes[:, 2:4], t=t, step=step)
    state.validate(grid)
    return state, grid


def emit_diagnostics(records, stream) -> None:
    """Append each record's JSON object as one line, the records formatted
    by one json_lines call and written at once; keys follow the record's
    field order so identical runs produce identical bytes."""
    stream.write(json_lines(records))
