"""Source hygiene: no module of the package or of the tests imports a name
that it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "qident").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(text):
    """(line, name) of each name bound by an import in the module source text
    that the module never reads, as a name, as the root of an attribute, or
    as an entry of __all__.  Imports from __future__ and names imported on a
    line marked `# noqa: F401` are skipped."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_scan_finds_and_skips():
    text = ("from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "import cmath  # noqa: F401\n"
            "from json import (\n"
            "    dumps,\n"
            "    loads,\n"
            ")\n"
            "import csv as table\n"
            "__all__ = ['loads']\n"
            "print(os.getcwd())\n")
    assert unused_imports(text) == [(2, "math"), (6, "dumps"), (9, "table")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
