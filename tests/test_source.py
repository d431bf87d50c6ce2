"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

import seblab

MODULES = sorted(p for p in Path(seblab.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names that an import binds and no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_finds_an_unused_import():
    source = ("import os, sys\nimport numpy as np\nimport a.b\n"
              "from x import y, z\nprint(np.pi, a.b, y)\n")
    assert unused_imports(source) == [(1, "os"), (1, "sys"), (4, "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports to re-export, which `__all__` lists as strings
    assert unused_imports(path.read_text()) == []
