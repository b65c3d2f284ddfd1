"""Only ``cliplta.nn`` calls ``np.exp``.

The softmax and the cross-entropy are written once, in ``nn``; a module that
needs a softmax calls ``nn.softmax`` instead of inlining its steps again.
This stdlib ``ast`` check, like ``test_unused_imports.py``, keeps a second
copy from coming back.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliplta"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "nn.py")


def exp_uses(source: str) -> list[int]:
    """The line of each ``np.exp`` / ``numpy.exp`` in ``source``, and of each ``exp`` imported from numpy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "exp"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name == "exp" for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_module_but_nn_calls_np_exp(module):
    assert exp_uses(module.read_text(encoding="utf-8")) == []


def test_checker_finds_every_spelling():
    source = (
        "import math\n"
        "import numpy\n"
        "import numpy as np\n"
        "from numpy import exp, log\n"
        "a = np.exp(1.0)\n"
        "np.exp(a, out=a)\n"
        "b = numpy.exp(a) + math.exp(1.0) + np.expm1(a)\n"
    )
    assert exp_uses(source) == [4, 5, 6, 7]
