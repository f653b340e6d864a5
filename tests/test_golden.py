"""The reports of the shipped fixtures, byte for byte.

Each `<command>-<fixture>.txt` under tests/golden holds stdout, stderr
and the exit code of one `quasidiff <command> problems/<fixture>.prob`
run without flags, and `<command>-<fixture>.json` the --json sidecar of
the same run; a run that rejects its input writes no sidecar and has no
.json file.  A change that means to alter a report regenerates both
kinds of file with

    PYTHONPATH=src python tests/test_golden.py

and says why; any other change must leave them as they are.
"""

import contextlib
import io
from pathlib import Path

import pytest

from quasidiff.cli import _parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("qd", "slope", "mfcq", "regcheck", "optcheck")
FIXTURES = ("cubic", "penalty_demo", "sin_system")


def record(command: str, fixture: str, sidecar: Path):
    """(text record, sidecar text or None) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(ROOT / "problems" / f"{fixture}.prob"),
                     "--json", str(sidecar)])
    text = f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n"
    return text, (sidecar.read_text(encoding="utf-8")
                  if sidecar.exists() else None)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_is_unchanged(command, fixture, tmp_path):
    text, sidecar = record(command, fixture, tmp_path / "sidecar.json")
    stem = GOLDEN / f"{command}-{fixture}"
    assert text == stem.with_suffix(".txt").read_text(encoding="utf-8")
    golden = stem.with_suffix(".json")
    assert sidecar == (golden.read_text(encoding="utf-8")
                       if golden.exists() else None)


def test_a_rejected_command_line_leaves_the_parser_intact(tmp_path):
    # main builds its parser once per process; an argparse rejection
    # (--target with no value) must not change the next parse
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["slope", str(ROOT / "problems" / "cubic.prob"),
                     "--target"])
    assert (code, err.getvalue()) == (
        2, "error: argument --target: expected at least one argument\n")
    text, sidecar = record("slope", "cubic", tmp_path / "sidecar.json")
    assert text == (GOLDEN / "slope-cubic.txt").read_text(encoding="utf-8")
    assert sidecar == (GOLDEN / "slope-cubic.json").read_text(
        encoding="utf-8")
    assert _parser() is _parser()


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for fixture in FIXTURES:
                text, sidecar = record(command, fixture, Path(tmp) /
                                       f"{command}-{fixture}.json")
                stem = GOLDEN / f"{command}-{fixture}"
                stem.with_suffix(".txt").write_text(text, encoding="utf-8")
                stem.with_suffix(".json").unlink(missing_ok=True)
                if sidecar is not None:
                    stem.with_suffix(".json").write_text(sidecar,
                                                         encoding="utf-8")
