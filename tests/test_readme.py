"""The README's python examples run against the package as it is.

The ```python blocks of README.md run in order in one namespace, as a
reader would paste them.  A line that is a bare expression followed by a
comment holding a python literal, such as `dd(q, [0.0, 1.0])  # -1.0`,
must evaluate to that literal.  The "Command line" section names every
flag that the parser accepts and no other, and its `quasidiff ...`
examples exit 0.  Its ```ini sample, and the sample of the problemfile
module docstring, are problem files that name every [check] key that
problemfile accepts.
"""

import argparse
import ast
import dataclasses
import re
import textwrap
from pathlib import Path

from numpy.testing import assert_equal

from quasidiff import cli, problemfile
from quasidiff.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      re.M | re.S)


def test_examples_run_and_print_what_they_say():
    blocks = python_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), README.name, "exec"),
                     namespace)
                continue
            value = eval(compile(ast.Expression(node.value), README.name,
                                 "eval"), namespace)
            comment = lines[node.end_lineno - 1][node.end_col_offset:]
            try:
                want = ast.literal_eval(comment.strip().removeprefix("#"))
            except (ValueError, SyntaxError):
                continue
            assert value == want, (f"{ast.unparse(node)}: {value!r}, "
                                   f"README says {want!r}")
            checked += 1
    assert checked >= 2


def command_line_section() -> str:
    """README's "Command line" section, its "Problem files" included."""
    return re.search(r"^## Command line\n(.*?)^## ", README.read_text(),
                     re.M | re.S).group(1)


def test_command_line_names_every_flag_and_no_other():
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*",
                           command_line_section()))
    sub, = [a for a in cli._parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    accepted = {flag for sp in sub.choices.values() for a in sp._actions
                if not isinstance(a, argparse._HelpAction)
                for flag in a.option_strings}
    assert_equal(named, accepted)


def test_command_line_examples_exit_zero(tmp_path, capsys, monkeypatch):
    examples = re.findall(r"^quasidiff (.+)$", command_line_section(), re.M)
    assert_equal(len(examples), 5)
    monkeypatch.chdir(README.parent)
    for k, example in enumerate(examples):
        argv = example.split()
        if "--json" in argv:
            at = argv.index("--json") + 1
            argv[at] = str(tmp_path / f"{k}-{Path(argv[at]).name}")
        assert_equal(main(argv), 0, example)
        assert capsys.readouterr().out.startswith(
            f"quasidiff {argv[0]} report\n")
    assert_equal(len(list(tmp_path.iterdir())), 1)


def test_problem_file_sample_parses_and_names_every_check_key():
    readme, = re.findall(r"^```ini\n(.*?)^```$", command_line_section(),
                         re.M | re.S)
    # the problemfile module docstring's sample: its first indented block
    docstring = textwrap.dedent(re.search(r"^    .*\n(?:^    .*\n|^\n)*",
                                          problemfile.__doc__, re.M)[0])
    for sample in (readme, docstring):
        problemfile.loads(sample)
        named = {key for _, key, _ in problemfile._entries(sample)["check"]}
        assert_equal(named, {f.name for f in
                             dataclasses.fields(problemfile.CheckSettings)})
