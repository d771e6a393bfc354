"""Every module imports only names it reads.

No lint tool is installed, so this scans the syntax trees with `ast`:
a name bound by an import statement in a module of `src/horoshadow`
(the package `__init__.py` re-exports on purpose and is left out),
`scripts/` or `tests/` must be read somewhere in the same module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "horoshadow").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scanner_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from fractions import Fraction as F\n"
              "from typing import Optional\n"
              "def f(x: Optional[int]):\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 3: F"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
