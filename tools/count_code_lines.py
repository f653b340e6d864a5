"""Count the code lines of each module in src/quasidiff.

A code line is a source line that holds at least one token other than a
comment, a newline or an indent, and that is not part of a docstring (the
first statement of a module, class or function when it is a string
literal).  Blank lines, comments and docstrings do not count.

Run from the repository root (or pass the package directory):

    python tools/count_code_lines.py [src/quasidiff]

It prints one line per module and the total.  Only the standard library
is used.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> int:
    """Code lines of one Python source file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/quasidiff")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count(path)
        total += n
        print(f"{path.name:20s} {n:6,d}")
    print(f"{'total':20s} {total:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
