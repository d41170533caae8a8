"""Only ``cli.py`` touches the file system.

Every other module of ``src/hypstab`` calls no ``open``, imports no
``importlib.resources`` and calls no ``read_text``, ``read_bytes`` or
``write_text``, and the package ships no file but its ``.py`` sources: the
library's data lives in its code.  The files are parsed, never imported or
changed."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypstab"

_CALLS = {"open", "read_text", "read_bytes", "write_text"}


def _imports_resources(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("importlib.resources") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module.startswith("importlib.resources"):
            return True
        return node.module == "importlib" and any(a.name == "resources" for a in node.names)
    return False


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def file_accesses(package: Path = PACKAGE) -> list[str]:
    """``file:line`` of every file call or resource import outside ``cli.py``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = isinstance(node, ast.Call) and _callee(node) in _CALLS
            if call or _imports_resources(node):
                found.append(f"{path.name}:{node.lineno}")
    return found


def data_files(package: Path = PACKAGE) -> list[str]:
    """Every file of the package, outside ``__pycache__``, that is not a
    ``.py`` source."""
    return sorted(
        str(path.relative_to(package))
        for path in package.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    )


def test_only_cli_touches_files():
    assert not file_accesses(), file_accesses()


def test_no_package_data():
    assert not data_files(), data_files()
