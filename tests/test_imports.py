"""The library imports nothing beyond the standard library and numpy, and
its package declares numpy as its only runtime dependency. Only
errors.text_lines reads a file as text, so every text loader splits lines
the same way."""

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


def reads_text(call: ast.Call) -> bool:
    """Whether a call reads a file as text: read_text, or open with a mode
    that reads and is not binary. A mode that is not a literal counts."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "open":
        return name == "read_text"
    # open(file, mode) and io.open(file, mode), but path.open(mode)
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "io"
    at = 0 if method else 1
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "b" not in mode.value and bool({"r", "+"} & set(mode.value))


def text_reads(tree: ast.Module):
    """(innermost enclosing function or None, line) of each text read."""
    owner = {}
    # ast.walk goes outside in, so an inner function overwrites its outer one
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and reads_text(node):
            yield owner.get(node), node.lineno


def test_only_text_lines_reads_text():
    reads = [(path.name, function, line) for path in sorted(SRC.glob("*.py"))
             for function, line in text_reads(ast.parse(path.read_text(encoding="utf-8")))]
    owners = [(name, function) for name, function, _ in reads]
    assert owners == [("errors.py", "text_lines")], reads


@pytest.mark.parametrize("source,found", [
    ("def f(p):\n    open(p)", True),
    ("def f(p):\n    open(p, 'r', encoding='ascii')", True),
    ("def f(p):\n    open(p, mode='r+b')", False),
    ("def f(p, m):\n    open(p, m)", True),
    ("def f(p):\n    io.open(p, 'w+')", True),
    ("def f(p):\n    p.open()", True),
    ("def f(p):\n    p.open('rb')", False),
    ("def f(p):\n    open(p, 'w')", False),
    ("def f(p):\n    with open(p, 'wb') as fh:\n        fh.write(p.read_text())", True),
    ("x = open('f').read()", True),
])
def test_text_reads_finds_each_form(source, found):
    assert bool(list(text_reads(ast.parse(source)))) is found
