"""The line counter (tools/count_code_lines.py) on a small synthetic module."""
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''"""A module docstring
over two lines."""
import os  # a trailing comment counts as code

# a comment line


def f(x):
    """One line."""
    s = """a string that is
not a docstring"""
    return s


class C:
    """A class docstring
    over two lines."""

    y = 1
'''


@pytest.fixture
def count_code_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import count_code_lines

    return count_code_lines


def test_it_counts_code_outside_comments_docstrings_and_blank_lines(
        count_code_lines):
    # code: import, def, the string's two lines, return, class, y = 1
    assert count_code_lines.count(MODULE) == (19, 7)


def test_it_prints_each_module_and_the_total(count_code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "19", "7"], ["b.py", "2", "1"],
                    ["total", "21", "8"]]
