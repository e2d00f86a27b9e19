"""The library imports nothing beyond the standard library and numpy, and
its package declares numpy as its only runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mcfr"
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


def test_pyproject_declares_numpy_only_and_no_entry_points():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(text)["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    declared = set(project) | set(project.get("dynamic", []))
    assert not declared & {"scripts", "gui-scripts", "entry-points"}
