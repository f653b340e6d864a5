"""The text reports of the shipped fixtures, byte for byte.

Each file under tests/golden holds stdout, stderr and the exit code of
one `quasidiff <command> problems/<fixture>.prob` run without flags.  A
change that means to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says why; any other change must leave them as they are.
"""

import contextlib
import io
from pathlib import Path

import pytest

from quasidiff.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("qd", "slope", "mfcq", "regcheck", "optcheck")
FIXTURES = ("cubic", "penalty_demo", "sin_system")


def record(command: str, fixture: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(ROOT / "problems" / f"{fixture}.prob")])
    return f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n"


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_is_unchanged(command, fixture):
    golden = (GOLDEN / f"{command}-{fixture}.txt").read_text(encoding="utf-8")
    assert record(command, fixture) == golden


if __name__ == "__main__":
    for command in COMMANDS:
        for fixture in FIXTURES:
            (GOLDEN / f"{command}-{fixture}.txt").write_text(
                record(command, fixture), encoding="utf-8")
