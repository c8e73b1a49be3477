"""Checks on the package source itself, run without a linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vertexsim"

# (module, name) imported on purpose without a use: perfbench traces
# apply_matrix through every module that binds it, and its tracer test
# expects the binding in transfer.py although that module no longer calls it.
UNUSED_ALLOWED = {("transfer", "apply_matrix")}


def test_suite_imports_the_package_from_this_source_tree():
    # pyproject.toml puts src/ on pytest's path, so an installed copy of the
    # package is never the one under test
    import vertexsim

    assert Path(vertexsim.__file__).resolve().parent == SRC


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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source file imports (relative imports excluded)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_cli_and_model_write_file_formats():
    # cli.py lays out every output file and model.py owns the model file format;
    # the rest of the library returns records and writes no text formats
    imports = {p.stem: imported_modules(p.read_text()) for p in SRC.glob("*.py")}
    assert sorted(m for m, names in imports.items() if "json" in names) == ["cli", "model"]
    assert sorted(m for m, names in imports.items() if names & {"io", "csv"}) == []


def names_read(source: str) -> set[str]:
    """Every name a module reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name for a in node.names}
    return names


def test_names_read_finds_imports_and_attributes():
    assert names_read("from .t import A\nimport b\nc.D\ne") == {"A", "b", "c", "D", "e"}


def test_dense_cap_stays_in_the_transfer_module():
    # only `TransferOperator.entries` builds the 4^(N+1) matrix; a second reader
    # of its cap would split the one matvec interface by size again
    readers = [p.stem for p in SRC.glob("*.py") if "DENSE_CAP_QUBITS" in names_read(p.read_text())]
    assert sorted(readers) == ["__init__", "transfer"]


def test_eigensolvers_stay_in_the_transfer_module():
    # `spectral_summary` solves each spectrum once and `_summary` checks it; a
    # second `eig` or `eigvals` elsewhere would solve it again, unchecked
    readers = [p.stem for p in SRC.glob("*.py")
               if names_read(p.read_text()) & {"eig", "eigvals"}]
    assert readers == ["transfer"]


def test_plans_and_experiments_own_the_input_rules():
    # `CircuitPlan` alone makes a plan's gates read-only, and
    # `experiments.normalize_positive_input` alone normalizes a positive input
    for stem in ("experiments", "circuit_text", "cli"):
        assert not names_read((SRC / f"{stem}.py").read_text()) & {"writeable", "setflags"}, stem
    assert not names_read((SRC / "cli.py").read_text()) & {"linalg", "norm"}
