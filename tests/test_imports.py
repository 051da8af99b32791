"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import upcr

MODULES = sorted(p for p in Path(upcr.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_guard_flags_an_unused_import():
    src = "import os\nimport sys\nfrom json import dumps, loads as ld\nprint(sys.argv, ld)\n"
    assert unused_imports(src) == ["os (line 1)", "dumps (line 3)"]


def test_guard_sees_annotations_and_attribute_bases():
    src = ("from __future__ import annotations\nimport numpy as np\n"
           "from typing import Callable\n"
           "def f(x: Callable) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
