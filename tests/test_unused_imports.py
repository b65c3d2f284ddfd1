"""No module of the package imports a name it never uses.

No linter ships with the project, so this stdlib ``ast`` check stands in
for pyflakes' F401: deleting code must not leave its imports behind.
``__init__.py`` re-exports are exempt, and so is an import marked
``# noqa: F401`` (a name bound for another module to find there).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliplta"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for each name an import in ``source`` binds and no expression reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_checker_finds_unused_names_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from json import dumps, loads\n"
        "from sys import (argv,  # noqa: F401\n"
        "                 path)\n"
        "def f(x: dumps) -> None:\n"
        "    return numpy.zeros(osp.sep)\n"
    )
    assert unused_imports(source) == ["2: os", "5: loads"]
