"""Every module in ``src/hypstab`` imports what it uses at its top, and
none imports another module's private name.

- No ``import`` inside a function or under ``if TYPE_CHECKING``: a module
  whose imports all sit at its top loads one way, and the names a test
  patches are the ones its functions read.
- No ``from .m import _name``: a name used by two modules is public, with
  one home.  Dunders such as ``__version__`` are exempt.

The files are parsed, never imported or changed."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypstab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``."""
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def import_faults(source: str, name: str = "<source>") -> list[str]:
    """``name:line: what`` for every import in a function or under
    ``if TYPE_CHECKING``, and every import of a private name from a module
    of the package."""
    found = []

    def visit(node: ast.AST, where: str | None) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and where:
            found.append(f"{name}:{node.lineno}: import {where}")
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hypstab")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{name}:{node.lineno}: private name {alias.name}")
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(node, FUNCTIONS):
                inner = "inside a function"
            elif isinstance(node, ast.If) and _is_type_checking(node.test) and child in node.body:
                inner = "under TYPE_CHECKING"
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def package_import_faults(package: Path = PACKAGE) -> list[str]:
    return [
        fault
        for path in sorted(package.glob("*.py"))
        for fault in import_faults(path.read_text(encoding="utf-8"), path.name)
    ]


def test_every_module_imports_at_its_top():
    assert not package_import_faults(), package_import_faults()


def test_the_check_sees_each_kind_of_fault():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import __version__\n"
        "if TYPE_CHECKING:\n"
        "    from .modp import IntForm\n"
        "def f():\n"
        "    import numpy as np\n"
        "    def g():\n"
        "        from .grid import exact_dtype\n"
        "from .modp import _partials, PRIME\n"
        "from hypstab.grid import _tile\n"
    )
    assert import_faults(source, "m.py") == [
        "m.py:4: import under TYPE_CHECKING",
        "m.py:6: import inside a function",
        "m.py:8: import inside a function",
        "m.py:9: private name _partials",
        "m.py:10: private name _tile",
    ]
