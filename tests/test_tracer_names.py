"""The traced benchmark run (`perfbench/tracer.py`) rebinds avec
functions by name; each name it lists must still be a callable of its
module, or the benchmark breaks only in its own, much slower suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    """Import tracer.py from its path without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("avec_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callables(monkeypatch):
    traced = load_tracer(monkeypatch).TRACED
    assert traced
    missing = [
        f"avec.{short}.{name}"
        for short, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"avec.{short}"), name, None))
    ]
    assert not missing, missing
