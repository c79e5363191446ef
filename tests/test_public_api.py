"""The README's "Public API" list names exactly `avec.__all__`, in
sorted order, so that a name cannot be added or removed without the
documentation following."""

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
