"""avec is stdlib-only: every absolute import in the package names a
module of the standard library."""

import ast
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


def test_reader_sees_every_import_form():
    source = (
        "import os.path, json\n"
        "from networkx import Graph\n"
        "from . import graph\n"
        "def f():\n"
        "    import numpy as np\n"
    )
    assert sorted(absolute_imports(source)) == ["json", "networkx", "numpy", "os"]
