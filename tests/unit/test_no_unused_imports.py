"""Every name a ``repro`` module imports is used.

The standard library's ``ast`` stands in for a linter.  A module other
than a package ``__init__`` fails when it imports a name that it never
loads and does not list in ``__all__``; ``from __future__`` imports are
exempt.  A package ``__init__`` imports in order to re-export, so it is
not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(
                element.value for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            )
    return sorted(
        (line, name) for name, line in imported.items()
        if name not in loaded and name not in exported
    )


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        unused.extend(
            f"{path.relative_to(SRC.parent)}:{line} {name}"
            for line, name in _unused_imports(tree)
        )
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Dict, Optional\n"
        "from json import dumps as _dumps\n"
        "__all__ = ['Dict']\n"
        "def f(x: Optional[int]) -> int:\n"
        "    return os.path.sep\n"
    )
    assert _unused_imports(tree) == [(2, "math"), (5, "_dumps")]
