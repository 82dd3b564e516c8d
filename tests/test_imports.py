"""Every imported name is read in the module that imports it: src/ (bar
the package's ``__init__``, whose imports are its exports), demos/ and
tests/.  A stale import is found here, not by hand."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p
    for p in [
        *(ROOT / "src" / "jumpfolio").glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
    ]
    if p.name != "__init__.py"
)


def unused_imports(source):
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_a_stale_import():
    source = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x.y)\n"
    assert unused_imports(source) == ["os", "e"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in FILES}
    assert {path: names for path, names in found.items() if names} == {}
