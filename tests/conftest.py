import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def load_perfbench(monkeypatch):
    """A loader of perfbench/ modules, read from their files without
    editing them.  Each is registered under its bare name for the test's
    duration: gen.py imports oracle.py by that name, and dataclasses look
    their module up in sys.modules."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module
    return load
