"""The library imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mcfr"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mcfr"}


def imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    top = {name.split(".")[0] for name in imported_modules(tree)}
    assert top <= ALLOWED, f"{path.name} imports {sorted(top - ALLOWED)}"
