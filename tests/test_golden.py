"""The reports of the shipped fixtures, byte for byte.

Each `<command>-<fixture>.txt` under tests/golden holds stdout, stderr
and the exit code of one `quasidiff <command> problems/<fixture>.prob`
run without flags, and `<command>-<fixture>.json` the --json sidecar of
the same run; a run that rejects its input writes no sidecar and has no
.json file.  benchmark-digests.txt holds one sha256 per op and warm-up
run of the benchmark workloads (perfbench/gen.py) for seeds 41-43, over
the same four parts.  A change that means to alter a report regenerates
every file with

    PYTHONPATH=src python tests/test_golden.py

and says why; any other change must leave them as they are.
"""

import contextlib
import hashlib
import io
import shutil
import sys
from pathlib import Path

import pytest

from quasidiff.cli import _parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("qd", "slope", "mfcq", "regcheck", "optcheck")
FIXTURES = ("cubic", "penalty_demo", "sin_system")
WORKLOADS = ("cli-fixtures", "qd-build", "verdicts")
SEEDS = (41, 42, 43)
DIGESTS = GOLDEN / "benchmark-digests.txt"


def run(argv: list, sidecar: Path):
    """(text record, sidecar text or None) of one in-process run of argv
    with --json sidecar."""
    sidecar.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json", str(sidecar)])
    text = f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n"
    return text, (sidecar.read_text(encoding="utf-8")
                  if sidecar.exists() else None)


def record(command: str, fixture: str, sidecar: Path):
    """run() of `quasidiff <command> problems/<fixture>.prob`."""
    return run([command, str(ROOT / "problems" / f"{fixture}.prob")], sidecar)


def benchmark_digests(gen, workdir: Path) -> str:
    """One line '<workload> <seed> <op|warmup> <key> <sha256>' per run of
    the workloads' ops and warm-up ops, run in workdir, which gets a copy
    of problems/ and the generated problem files."""
    shutil.copytree(ROOT / "problems", workdir / "problems")
    lines = []
    with contextlib.chdir(workdir):
        for workload in WORKLOADS:
            for seed in SEEDS:
                w = gen.WORKLOADS[workload](seed)
                runs = [("op", op) for op in w.ops]
                runs += [("warmup", op) for op in w.warmup]
                for role, op in runs:
                    if op.text is not None:
                        Path(op.file).write_text(op.text, encoding="utf-8")
                    text, side = run(op.argv(), workdir / "sidecar.json")
                    if side is None:
                        side = "(none)\n"
                    text += f"--- sidecar\n{side}"
                    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    lines.append(f"{workload} {seed} {role} {op.key} {sha}\n")
    return "".join(lines)


def test_benchmark_reports_are_unchanged(tmp_path, load_perfbench):
    load_perfbench("oracle")
    got = benchmark_digests(load_perfbench("gen"), tmp_path)
    assert got.splitlines() == DIGESTS.read_text(
        encoding="utf-8").splitlines()


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
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(benchmark_digests(gen, Path(tmp)), encoding="utf-8")
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
