"""avec is stdlib-only: every absolute import in the package names a
module of the standard library, and importing the CLI loads none of the
costly ones that no avec command needs.  No module of the package grows
long enough to lift what every command pays to compile it, and none
reads an `edge_list`: a graph's edges come from `Graph.edges()`."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import avec

PACKAGE = Path(avec.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(source):
    """Top-level names of the absolute imports in `source`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {"graph.py", "replay.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    names = set(absolute_imports(path.read_text(encoding="utf-8")))
    assert names <= sys.stdlib_module_names, sorted(names - sys.stdlib_module_names)


def attribute_reads(source, name):
    """Line numbers where `source` reads the attribute `name`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == name
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_edge_list_read(path):
    # Graph keeps n, m and its adjacency; an edge-list attribute would
    # hide an O(m) copy behind a name.
    assert attribute_reads(path.read_text(encoding="utf-8"), "edge_list") == []


def test_attribute_reader_sees_reads():
    source = "g.edge_list[0]\nfor e in trace.tree.edge_list: pass\nedge_list = 1\n"
    assert attribute_reads(source, "edge_list") == [1, 2]


def test_reader_sees_every_import_form():
    source = (
        "import os.path, json\n"
        "from networkx import Graph\n"
        "from . import graph\n"
        "def f():\n"
        "    import numpy as np\n"
    )
    assert sorted(absolute_imports(source)) == ["json", "networkx", "numpy", "os"]


#: Modules whose import alone costs more than avec's own start-up work;
#: `gettext` and `locale` come with an option parser's messages.
HEAVY = ("argparse", "dataclasses", "gettext", "inspect", "locale", "typing")


def test_cli_import_loads_no_heavy_module(tmp_path):
    # -S: no site hook preloads anything; -E: no PYTHONPATH.  -E also
    # drops PYTHONDONTWRITEBYTECODE, so -B keeps the run from leaving
    # bytecode in the package.  The path to the package is absolute and
    # the working directory is empty.
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import avec.cli; "
        f"print(sorted(set({HEAVY!r}) & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-E", "-S", "-c", code],
        capture_output=True, text=True, cwd=tmp_path, check=True,
    )
    assert done.stdout == "[]\n"


#: Lines in graph.py, the longest module, were 584 when this limit was set.
MAX_MODULE_LINES = 600


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_is_short(path):
    # A run without bytecode compiles every module it imports, and the
    # compiler's peak memory grows with the longest one: a longer module
    # lifts the peak RSS of every avec command, whatever it computes.
    lines = len(path.read_text(encoding="utf-8").splitlines())
    assert lines <= MAX_MODULE_LINES, f"{path.name} has {lines} lines"
