"""No ``except`` handler in ``src/hypstab`` raises ``InternalConsistencyError``
or a subclass of it.

Such a handler only renames a fault: ``cli.main`` already reports any
exception from the work with its own type and exits 3, and a library caller
would lose that type.  ``InternalConsistencyError`` is for two routes that
must agree and disagree, raised where they are compared.  The files are
parsed, never imported or changed."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypstab"


def _name(node: ast.expr) -> str | None:
    """The last part of a (dotted) name, or of the callee of a call."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _consistency_errors(trees: list[ast.AST]) -> set[str]:
    """``InternalConsistencyError`` and every class of the package that
    derives from it, directly or through another."""
    names = {"InternalConsistencyError"}
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    while True:
        more = {c.name for c in classes if {_name(b) for b in c.bases} & names} - names
        if not more:
            return names
        names |= more


def renaming_handlers(package: Path = PACKAGE) -> list[str]:
    """``file:line`` of every raise of such an error inside an ``except``
    handler's body."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    errors = _consistency_errors(list(trees.values()))
    found = []
    for name, tree in trees.items():
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            for node in (n for stmt in handler.body for n in ast.walk(stmt)):
                if isinstance(node, ast.Raise) and node.exc is not None and _name(node.exc) in errors:
                    found.append(f"{name}:{node.lineno}")
    return found


def test_no_handler_renames_a_fault():
    assert not renaming_handlers(), renaming_handlers()
