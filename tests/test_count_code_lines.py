"""tools/count_code_lines.py, the code-line count of src/quasidiff, on a
small module whose count is known line by line."""

import importlib.util
from pathlib import Path

from numpy.testing import assert_equal

ROOT = Path(__file__).resolve().parent.parent

# 7 code lines: the import, the def, the assignment, the two lines of
# the dict, the return and the class line; the module, function and
# class docstrings, the comments and the blank lines count 0
MODULE = '''\
"""A module docstring
over two lines."""

import math  # a comment after code adds no line


def f(x):
    """A function docstring."""
    # a comment line
    y = math.sqrt(x)
    table = {"a": 1,
             "b": 2}

    return y + table["a"]


class C:
    """A class docstring, its only statement."""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "count_code_lines", ROOT / "tools" / "count_code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE, encoding="utf-8")
    assert_equal(load_tool().count(path), 7)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert_equal(load_tool().main(["count_code_lines.py", str(tmp_path)]), 0)
    assert_equal(capsys.readouterr().out.split(),
                 ["a.py", "7", "b.py", "1", "total", "8"])
