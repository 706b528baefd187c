"""Property tests of the config layer: every text of known keys with numeric
values, and every numeric sweep axis, gives a valid RunConfig or a
ConfigError (exit 2 on the command line), never another exception."""
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mhd1d.cli import _parse_axes, _sweep_case
from mhd1d.config import _KEYS, ConfigError, RunConfig, parse_config

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
            assert isinstance(_sweep_case(cfg, alpha, beta, amp), RunConfig)
    except ConfigError:
        pass
