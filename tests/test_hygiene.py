"""Source hygiene: no module of the package or of the tests imports a name
that it never uses, and no module of the package keeps a process-lifetime
cache."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qident").glob("*.py"))
FILES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])

#: functools decorators whose cache lives as long as the process.
PROCESS_CACHES = {"lru_cache", "cache", "cached_property"}


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


def process_caches(text):
    """(line, name) of each use of a functools cache decorator in the module
    source text: imported from functools, or read as an attribute of
    functools (under any alias).  Such a cache outlives one evaluation: a
    repeated benchmark round would time cache hits instead of the
    computation, and cli.run's worker threads would share its state.
    Per-evaluation state belongs in a context variable that run_case sets and
    resets (qcore.THETA_MEMO)."""
    nodes = list(ast.walk(ast.parse(text)))
    modules = {a.asname or a.name for node in nodes if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in PROCESS_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_process_cache_scan_finds_each_form():
    text = ("import functools\n"
            "from functools import cached_property, reduce\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def f(x):\n"
            "    return x\n"
            "g = functools.cache(f)\n"
            "h = functools.reduce\n"
            "import functools as ft\n"
            "k = ft.lru_cache()(f)\n"
            "memo = {}\n")
    assert process_caches(text) == [(2, "cached_property"), (3, "lru_cache"),
                                    (6, "cache"), (9, "lru_cache")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_process_lifetime_caches(path):
    assert process_caches(path.read_text(encoding="utf-8")) == []
