"""Kernels of the step and record paths.

numpy reduces a C-ordered (n, 2) array along axis 1 as n separate
two-element sums, about ten times slower than the two products and one sum
of sq2; sq2 must give the same bits. The step and the record use slice
differences instead of np.diff for the same reason; an ast check keeps both
slow forms out of the modules on those paths.
"""
import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import mhd1d
from mhd1d.core import sq2

PACKAGE = Path(mhd1d.__file__).resolve().parent
HOT_MODULES = ("solver.py", "diagnostics.py", "constitutive.py")

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
           1.5e-154, 1.0, -3.0, 1e154, -1e154, 1.3e154, 1.4e154, 1e155,
           np.inf, -np.inf]


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("order", ["C", "F"])
def test_sq2_is_bitwise_the_axis_sum(order):
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.integers(-320, 156, size=(4000, 2))
    random = rng.standard_normal((4000, 2)) * scales
    pairs = np.array(list(itertools.product(SPECIAL, repeat=2)))
    x = np.asarray(np.concatenate([random, pairs]), order=order)
    assert x.flags[f"{order}_CONTIGUOUS"]
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(_bits(sq2(x)), _bits(np.sum(x ** 2, axis=1)))


def _slow_forms(path: Path) -> list[str]:
    """np.diff, and np.sum with an axis, in this module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "diff"
                and isinstance(node.value, ast.Name) and node.value.id == "np"):
            found.append(f"line {node.lineno}: np.diff")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sum" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "np"
              and (len(node.args) > 1 or any(k.arg == "axis" for k in node.keywords))):
            found.append(f"line {node.lineno}: np.sum(..., axis)")
    return found


@pytest.mark.parametrize("name", HOT_MODULES)
def test_no_slow_forms_on_the_step_and_record_paths(name):
    assert _slow_forms(PACKAGE / name) == []


def test_the_check_sees_slow_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("a = np.sum(x ** 2, axis=1)\n"
                     "b = np.sum(x, 0)\n"
                     "c = np.diff(u)\n"
                     "d = np.sum(x) + x.sum(axis=1)\n")
    assert _slow_forms(probe) == ["line 1: np.sum(..., axis)",
                                  "line 2: np.sum(..., axis)",
                                  "line 3: np.diff"]
