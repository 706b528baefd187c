"""Property tests of the input layer: every text of known keys with numeric
values, every numeric sweep axis and every byte string of a config file
gives a valid RunConfig or a ConfigError (exit 2 on the command line), and
every snapshot file pair gives a state or a ValueError or OSError (which
the run command turns into exit 2), never another exception."""
import itertools
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhd1d.cli import _parse_axes
from mhd1d.config import _KEYS, ConfigError, RunConfig, parse_config, parse_config_file
from mhd1d.core import GasState
from mhd1d.snapshots import load_snapshot, node_companion

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)

NUMBERS = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     1e-310, 1e308, -1e308]),
)

# fixed first lines that open the paths numbers alone cannot select
PREFIXES = ["", "params.preset = normalized\n",
            "initial.profile = gaussian_bump\n",
            "bc = isothermal_wall\ninitial.profile = gaussian_bump\n"]


@SETTINGS
@given(prefix=st.sampled_from(PREFIXES),
       lines=st.lists(st.tuples(st.sampled_from(sorted(_KEYS)), NUMBERS),
                      max_size=6))
def test_parse_config_gives_a_config_or_a_config_error(prefix, lines):
    text = prefix + "".join(f"{key} = {value!r}\n" for key, value in lines)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


BASES = ["params.preset = normalized\ninitial.profile = gaussian_bump\n"
         "initial.amp_v = -0.2\n",
         "params.mu2 = 0.5\nparams.alpha = 1\ninitial.profile = gaussian_bump\n",
         "initial.profile = file\ninitial.file = missing.csv\n",
         ""]


@SETTINGS
@given(base=st.sampled_from(BASES),
       axes=st.dictionaries(st.sampled_from(["alpha", "beta", "amp"]),
                            st.lists(NUMBERS, min_size=1, max_size=3),
                            max_size=3))
def test_sweep_axes_give_cases_or_a_config_error(base, axes):
    cfg = parse_config(base)
    args = [f"{name}=" + ",".join(repr(v) for v in values)
            for name, values in axes.items()]
    try:
        parsed = _parse_axes(args)
        combos = itertools.product(*(parsed.get(name, [None])
                                     for name in ("alpha", "beta", "amp")))
        for alpha, beta, amp in combos:
            assert isinstance(cfg.member(alpha, beta, amp), RunConfig)
    except ConfigError:
        pass


# the bytes of valid config lines, of invalid ones and of bytes that are not
# UTF-8, so that both the decoding and the parsing are reached
CONFIG_PIECES = st.one_of(
    st.binary(max_size=12),
    st.sampled_from([b"grid.cells = 16\n", b"initial.profile = gaussian_bump\n",
                     b"params.preset = normalized\n", b"time.t_end = 0.5\n",
                     b"\xff", b"\xc3", b"\xc3\xa9", b"\x00", b"=", b"\n",
                     b"# comment\n", b"grid.mass = nan\n"]))
FILE_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


@FILE_SETTINGS
@given(pieces=st.lists(CONFIG_PIECES, max_size=8))
@example(pieces=[b"grid.cells = 16\n", b"\xff"])
def test_config_file_bytes_give_a_config_or_a_config_error(pieces):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(b"".join(pieces))
        try:
            cfg = parse_config_file(path)
        except ConfigError:
            return
    assert isinstance(cfg, RunConfig)


# snapshot rows: blank, short, non-numeric, NaN, overflowing and valid
CELL_ROWS = ["", "  ", "1", "1,2", "a,b,c,d,e", "0.5,nan,1,0,0",
             "0.5,1,1e400,0,0", "0.5,-1,1,0,0", "0.5,1,1,0,0",
             "0.5,2,0.5,0.1,-0.1"]
NODE_ROWS = ["", "1", "a,b,c,d", "0.25,nan,0,0", "0.75,1e400,0,0",
             "0.5,0,1,2,3", "0,0,0,0", "0.5,0.1,0,0", "1,0,0,0.2"]
HEADERS = ["# t=0 step=0", "# t=0.5 step=3", "# t=x step=0", "x_center"]
# a pair that loads: four cells and their five nodes
VALID_CELLS = ["0.25,1,1,0,0", "0.75,1.5,0.5,0.1,0", "1.25,1,1,0,-0.1",
               "1.75,0.5,2,0,0"]
VALID_NODES = ["0,0,0,0", "0.5,0.1,0,0", "1,0,0,0.2", "1.5,0,0.1,0", "2,0,0,0"]


def rows_of(alphabet, valid):
    """Rows drawn from the alphabet, or the valid rows with at most one of
    them replaced by, or one more taken from, the alphabet, or one dropped."""
    def edit(at, row):
        return valid[:at] + ([] if row is None else [row]) + valid[at + 1:]

    return st.one_of(st.lists(st.sampled_from(alphabet), max_size=7),
                     st.just(valid),
                     st.builds(edit, st.integers(0, len(valid)),
                               st.one_of(st.none(), st.sampled_from(alphabet))))


@FILE_SETTINGS
@given(header=st.sampled_from(HEADERS),
       node_header=st.one_of(st.none(), st.sampled_from(HEADERS)),
       cells=rows_of(CELL_ROWS, VALID_CELLS),
       nodes=rows_of(NODE_ROWS, VALID_NODES))
@example(header="# t=0 step=0", node_header=None, cells=[""], nodes=["0,0,0,0"])
def test_snapshot_pairs_give_a_state_or_a_value_or_os_error(header, node_header,
                                                            cells, nodes):
    # node_header None repeats the cell file's header
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.csv"
        for name, head, columns, rows in (
                (path, header, "x_center,v,theta,b1,b2", cells),
                (node_companion(path), node_header or header, "x_node,u,w1,w2",
                 nodes)):
            name.write_text("\n".join([head, columns, *rows]) + "\n")
        try:
            state, grid = load_snapshot(path)
        except (ValueError, OSError):
            return
    assert isinstance(state, GasState) and state.v.shape == (grid.cells,)
