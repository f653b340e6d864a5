"""The README's python examples run against the package as it is.

The ```python blocks of README.md run in order in one namespace, as a
reader would paste them.  A line that is a bare expression followed by a
comment holding a python literal, such as `dd(q, [0.0, 1.0])  # -1.0`,
must evaluate to that literal.
"""

import ast
import re
from pathlib import Path

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
