"""Every psmt module uses each name it imports."""

import ast
import pathlib

import psmt.field

ROOT = pathlib.Path(psmt.field.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_detected():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a.b import c as d, e\n"
              "print(sys.argv, e)\n")
    assert unused_imports(source) == [(2, "os"), (3, "d")]


def test_no_module_imports_a_name_it_never_uses():
    found = [(str(path.relative_to(ROOT)), line, name)
             for path in sorted(ROOT.rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
