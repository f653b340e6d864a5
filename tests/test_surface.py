import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def test_package_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, quasidiff; print(sorted("
         "m for m in sys.modules if m.startswith('quasidiff.')))"],
        capture_output=True, text=True, env=env, check=True)
    assert_equal(out.stdout, "[]\n")
