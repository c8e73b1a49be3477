"""Checks on the package source itself, run without a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vertexsim"

# (module, name) imported on purpose without a use: perfbench traces
# apply_matrix through every module that binds it, and its tracer test
# expects the binding in transfer.py although that module no longer calls it.
UNUSED_ALLOWED = {("transfer", "apply_matrix")}


def unused_imports(source: str) -> list[str]:
    """Names a module imports (outside `from __future__`) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_module_has_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.stem, name) not in UNUSED_ALLOWED]
    assert unused == []
