import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_equal

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_resolve():
    # the tracer looks each name up with getattr when it installs, so a
    # renamed or deleted function would break `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{short}.{name}"
               for short, names in tracer.PUBLIC.items()
               for name in names
               if not hasattr(importlib.import_module(f"quasidiff.{short}"),
                              name)]
    assert_equal(missing, [])


def referring_modules(name):
    """The modules of src/quasidiff whose code refers to name: as a
    variable, an attribute or an imported name; docstrings and comments
    do not count."""
    out = []
    for path in sorted((ROOT / "src" / "quasidiff").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if name in (getattr(node, "id", None), getattr(node, "attr", None),
                        getattr(node, "name", None)):
                out.append(path.stem)
                break
    return out


def test_geometry_owns_the_cuts():
    # the tie, zero and hull-test cuts, the Wolfe solve that gives their
    # distances and the lift that guards its norms are geometry's; cli
    # echoes the tolerance, and optimality lifts LP blocks past HiGHS's
    # small-entry cut
    assert_equal(referring_modules("FEAS_TOL"), ["cli", "geometry"])
    assert_equal(referring_modules("_min_norm_combination"), ["geometry"])
    assert_equal(referring_modules("_lifted"), ["geometry", "optimality"])


# imports quasidiff.cli alone and prints the traced modules it left
# unloaded; runs `COMMAND FILE` for each pair of arguments after the
# tracer's path in process, then again under perfbench's Tracer, and prints whether the exit codes and stdout
# are the untraced ones, the exit codes, and the layer metrics' count of
# cli.main spans after a JSON round trip of the dump
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import quasidiff.cli as cli
loaded = set(sys.modules)
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
print(sorted(m for m in tracer.PUBLIC if f"quasidiff.{m}" not in loaded))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()

args = sys.argv[2:]
runs = [list(pair) for pair in zip(args[::2], args[1::2])]
plain = [run(argv) for argv in runs]
t = tracer.Tracer()
t.install()
t.op = "op"
try:
    traced = [run(argv) for argv in runs]
finally:
    t.uninstall()
print(traced == plain, [code for code, _ in plain])
spans = json.loads(json.dumps(t.dump()))
print(tracer.layer_metrics(spans, 1.0)["cli.main.calls"])
"""


def test_traced_commands_match_the_untraced(tmp_path):
    # a traced benchmark run (perfbench/run.py --trace 1) installs the
    # tracer after importing quasidiff.cli alone; a module that import
    # leaves unloaded, a span attribute that JSON cannot hold or a
    # signature the tracer's wrappers assume would fail it, where a
    # getattr of each name would not
    problems = ROOT / "problems"
    runs = [("qd", "penalty_demo"), ("slope", "cubic"),
            ("mfcq", "sin_system"), ("regcheck", "cubic"),
            ("optcheck", "penalty_demo")]
    out = run_python(TRACED_RUN, str(ROOT / "perfbench" / "tracer.py"),
                     *[a for command, name in runs
                       for a in (command, str(problems / f"{name}.prob"))])
    assert_equal(out.splitlines(), ["[]", "True [0, 0, 0, 0, 0]", "5"])
    # the child that a traced cli-fixtures run starts for each op
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" /
                                               "tracer.py"), str(spans),
                           "qd", str(problems / "cubic.prob")],
                          capture_output=True, text=True, env=checkout_env())
    assert_equal(proc.returncode, 0)
    names = [row[0] for row in json.loads(spans.read_text())["spans"]]
    assert_equal(names.count("cli.main"), 1)


def test_version_has_one_source():
    # pyproject reads the version from the package, so the two cannot
    # drift apart
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert_equal(pyproject["project"]["dynamic"], ["version"])
    assert_equal(pyproject["tool"]["setuptools"]["dynamic"],
                 {"version": {"attr": "quasidiff.__version__"}})


def checkout_env():
    """The environment of a fresh interpreter that imports quasidiff from
    this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_python(code, *args):
    """stdout of a fresh interpreter that imports quasidiff from this
    checkout."""
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=checkout_env(),
                          check=True).stdout


def test_package_import_loads_no_submodule():
    out = run_python("import sys, quasidiff; print(sorted("
                     "m for m in sys.modules if m.startswith('quasidiff.')))")
    assert_equal(out, "[]\n")


# the scipy packages loaded so far, such as scipy.optimize
SCIPY_LOADED = ("sorted({'.'.join(m.split('.')[:2]) for m in sys.modules "
                "if m.split('.')[0] == 'scipy'})")
# runs `python -m quasidiff.cli COMMAND FILE` for each pair of arguments
# and prints the command, the file name, the exit code and SCIPY_LOADED
RUN_CLI = f"""
import contextlib, io, os, runpy, sys
args = sys.argv[1:]
for command, path in zip(args[::2], args[1::2]):
    sys.argv = ["quasidiff", command, path]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("quasidiff.cli", run_name="__main__")
        except SystemExit as e:
            code = e.code
    print(command, os.path.basename(path), code, {SCIPY_LOADED})
"""


def test_cli_import_loads_no_scipy():
    # importing scipy.optimize would be most of every command's start-up
    assert_equal(run_python(f"import sys, quasidiff.cli; "
                            f"print({SCIPY_LOADED})"), "[]\n")


def test_commands_without_lp_load_no_scipy():
    runs = [(command, name) for command in ("qd", "slope", "mfcq")
            for name in ("cubic.prob", "penalty_demo.prob", "sin_system.prob")]
    args = [a for command, name in runs
            for a in (command, str(ROOT / "problems" / name))]
    assert_equal(run_python(RUN_CLI, *args).splitlines(),
                 [f"{command} {name} 0 []" for command, name in runs])


def test_mfcq_with_an_active_inequality_loads_no_scipy(tmp_path):
    # the direction comes from a nearest-point solve, not an LP
    f = tmp_path / "active.prob"
    f.write_text("[problem]\nn = 3\nequality = x1\ninequality = x2 + x3\n"
                 "[point]\nx = 0 0 0\n")
    assert_equal(run_python(RUN_CLI, "mfcq", str(f)),
                 "mfcq active.prob 0 []\n")


def test_slope_off_the_solution_set_loads_no_scipy():
    # psi > 0 at the point, so the slope comes from the vertex margin,
    # which projects with Wolfe's algorithm and needs no LP
    code = f"""
import contextlib, io, sys
from quasidiff.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
lines = out.getvalue().splitlines()
print(code, "slope method: exact (vertex margin)" in lines, {SCIPY_LOADED})
"""
    cubic = str(ROOT / "problems" / "cubic.prob")
    assert_equal(run_python(code, "slope", cubic, "--target", "0.008"),
                 "0 True []\n")


# regcheck's n = 2 grids: at budget 4e4 the psi cutoff is 0.8, above
# every psi of the r = 0.2 grid (as in the benchmark's n = 2 grids), so
# no row is checked; at r = 0.5 and the default budget, rows are checked
_SKIPPED_N2 = ("[problem]\nn = 2\nequality = abs(x1) - abs(x2)\n[point]\n"
               "x = 0 0\n[check]\nK = 1.5\nr = 0.2\ngrid = 5\n"
               "target_grid = 5\nbudget = 40000\n")
_CHECKED_N2 = ("[problem]\nn = 2\nequality = abs(x1) - abs(x2)\n[point]\n"
               "x = 0 0\n[check]\nK = 1.5\nr = 0.5\ngrid = 5\n"
               "target_grid = 5\nscan_radius = 1.2\n")


def test_regcheck_measures_distances_without_scipy(tmp_path):
    # at n = 1 the nearest scan point comes from a sorted search, and a
    # grid that checks no row measures no distance
    skipped = tmp_path / "skipped.prob"
    skipped.write_text(_SKIPPED_N2)
    cubic = str(ROOT / "problems" / "cubic.prob")
    assert_equal(run_python(RUN_CLI, "regcheck", cubic, "regcheck",
                            str(skipped)).splitlines(),
                 ["regcheck cubic.prob 0 []", "regcheck skipped.prob 0 []"])


def test_checked_n2_grid_loads_the_kd_tree(tmp_path):
    # where scipy still loads: the nearest-distance tree of an n >= 2
    # grid with checked rows
    checked = tmp_path / "checked.prob"
    checked.write_text(_CHECKED_N2)
    code = f"""
import contextlib, io, sys
from quasidiff.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
checked = out.getvalue().split("checked: ")[1].split()[0]
print(code, checked, "scipy.spatial" in {SCIPY_LOADED})
"""
    assert_equal(run_python(code, "regcheck", str(checked)),
                 "0 100 True\n")
