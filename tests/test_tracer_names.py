"""The traced benchmark run (`perfbench/tracer.py`) rebinds avec
functions by name; each name it lists must still be a callable of its
module, and each function that the benchmark's self-test requires on a
workload must still be called by that workload's commands, or the
benchmark breaks only in its own, much slower suite."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


# ---------------------------------------------------------------- pinned calls
# The benchmark's self-test (`perfbench/test_perfbench.py`) requires every
# metric in its EXERCISED table to be nonzero on its workload, so a
# change that stops a workload calling a traced function fails only there,
# in a suite that takes minutes.  Here each workload's verbs run once under
# the tracer on tiny inputs, and every function that an entry names must
# leave a span.

#: Each workload's verbs on tiny inputs, as `python -m avec` arguments.
TINY = {
    "analyze-chain": (
        ("gen", "chain", "--delta", "3", "--ell", "2", "--out", "c.el"),
        ("sweep", "--family", "chain", "--delta", "3", "--ell-range", "2..4", "--csv", "s.csv"),
        ("analyze", "c.el"),
        ("analyze", "c.el", "--csv"),
    ),
    "replay-chain": (
        ("gen", "chain", "--delta", "3", "--ell", "4", "--out", "c.el"),
        ("replay", "c.el", "--variant", "girth6", "--trace", "g.json"),
        ("replay", "c.el", "--variant", "maxdeg", "--trace", "m.json"),
    ),
    "reiman-dense": (
        ("gen", "reiman", "--q", "2", "--out", "r.el"),
        ("gen", "reiman", "--q", "2", "--out", "r.g6", "--format", "graph6"),
        ("analyze", "r.el"),
        ("analyze", "r.g6"),
        ("audit", "r.el"),
    ),
}


def exercised():
    """EXERCISED of the benchmark's self-test, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "test_perfbench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXERCISED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("EXERCISED not found")


def span_of(metric, sizes):
    """The span a metric is read from, or None for one that names no
    function (`cli.startup_s`)."""
    for span, (name, _) in sizes.items():
        if name == metric:
            return span
    span = metric.rpartition(".")[0]
    return span if "." in span else None


def test_tiny_runs_cover_every_workload():
    assert set(TINY) == set(exercised())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_calls_every_pinned_function(monkeypatch, tmp_path, workload):
    tracer = load_tracer(monkeypatch)
    wanted = {span_of(m, tracer.SIZES) for m in exercised()[workload]} - {None}
    for span in wanted:
        short, _, name = span.partition(".")
        assert short == "cli" or name in tracer.TRACED[short], span
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    seen = set()
    for i, args in enumerate(TINY[workload]):
        spans = tmp_path / f"spans-{i}.json"
        proc = subprocess.run(
            [sys.executable, "-B", str(TRACER), str(spans), str(i), *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, (args, proc.stderr)
        seen |= {s[0] for s in json.loads(spans.read_text())["spans"]}
    assert not wanted - seen, sorted(wanted - seen)
