"""DESIGN.md's module map (§3) names exactly the modules under ``src/repro``.

The map is an indented tree inside one code block. A line whose first
word ends in ``/`` opens a directory for the lines indented below it; every
``*.py`` word on a line names a module in the directory the line sits in
(a directory line's own ``*.py`` words, e.g. ``extras/ ... knn.py``, sit
inside it). ``__init__.py`` and ``__main__.py`` need no row.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def map_block() -> str:
    """The code block of DESIGN.md's section 3."""
    text = (ROOT / "DESIGN.md").read_text()
    section = re.search(r"^## 3\..*?(?=^## 4\.)", text, re.M | re.S).group()
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def mapped_modules() -> set:
    """Package-relative paths of the modules the map names."""
    named = set()
    stack = []  # (indent, directory) of the open directory lines
    for line in map_block().splitlines():
        words = line.split()
        if not words:
            continue
        indent = len(line) - len(line.lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parts = [d for _, d in stack]
        if words[0].endswith("/"):
            stack.append((indent, words[0].rstrip("/")))
            parts.append(words[0].rstrip("/"))
        here = "/".join(parts[1:])  # drop the src/repro/ root line
        for word in re.findall(r"[\w/]+\.py\b", line):
            named.add(f"{here}/{word}".lstrip("/"))
    return named


def package_modules() -> set:
    return {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }


def test_every_module_has_a_row():
    missing = sorted(package_modules() - mapped_modules())
    assert not missing, f"modules missing from DESIGN.md §3: {missing}"


def test_every_row_names_a_module():
    stale = sorted(mapped_modules() - package_modules())
    assert not stale, f"DESIGN.md §3 rows without a module: {stale}"
