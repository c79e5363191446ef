"""The README's "Public API" list names exactly `avec.__all__`, in
sorted order, so that a name cannot be added or removed without the
documentation following; and every other module-level name of the
package is read somewhere in it."""

import ast
import re
from pathlib import Path

import avec

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_api_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Public API\n", 1)[1].split("\n#", 1)[0]
    bullets = []
    for line in section.splitlines():
        if line.startswith("- "):
            bullets.append(line[2:])
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()
    # each bullet names its objects before the first colon
    return [name for b in bullets for name in re.findall(r"`(\w+)`", b.split(":", 1)[0])]


def test_readme_api_list_is_all():
    assert _readme_api_names() == sorted(avec.__all__)


def test_all_names_exist():
    assert len(set(avec.__all__)) == len(avec.__all__)
    for name in avec.__all__:
        assert hasattr(avec, name), name


SRC = Path(avec.__file__).resolve().parent


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_module_name_has_a_reader():
    # A module-level name earns its place by being read from another
    # top-level statement of the package, or by being public.  Reads are
    # matched by name alone, so a name read in one module also covers a
    # namesake in another.
    defined = []
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined += [(path.stem, name, stmt) for name in _defined_names(stmt)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(stmt)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(stmt)
    unread = [
        f"{module}.{name}"
        for module, name, stmt in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in avec.__all__
        and not readers.get(name, set()) - {stmt}
    ]
    assert unread == []
