"""Everything defined in ``src/hypstab`` must have a caller in the program:
``src/hypstab`` (outside ``__init__.py``), ``scripts/`` or ``perfbench/``.

- A top-level function or class must be named somewhere outside its own
  definition.
- A method or property of a top-level class must be read as an attribute
  (``.name``) somewhere outside its own definition.  Dunders are exempt:
  operators and the language reach them.  Attributes are matched by name
  alone, so a method shares its callers with every other attribute of that
  name.

A helper that only the tests and the package exports use is dead code.  The
files are parsed, never imported or changed."""
from __future__ import annotations

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypstab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(tree: ast.AST) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
    """Every name the code refers to, with its line: identifiers, attributes,
    imported names and the parts of dotted strings (the benchmark tracer
    names its wrap points as strings); and, apart, the attributes alone."""
    names, attributes = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
            attributes.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            names.extend((part, node.lineno) for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.extend((part, node.lineno) for part in node.value.split("."))
    return names, attributes


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@cache
def uncalled() -> frozenset[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    program = sources + sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    named, read = defaultdict(list), defaultdict(list)
    for path in program:
        names, attributes = _mentions(ast.parse(path.read_text(encoding="utf-8")))
        for name, line in names:
            named[name].append((path, line))
        for name, line in attributes:
            read[name].append((path, line))

    def only_inside(node: ast.AST, path: Path, uses: list) -> bool:
        own = range(node.lineno, node.end_lineno + 1)
        return all(other == path and line in own for other, line in uses)

    missing = set()
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFINITIONS):
                continue
            if only_inside(node, path, named[node.name]):
                missing.add(node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS[:2]) and not _is_dunder(member.name):
                        if only_inside(member, path, read[member.name]):
                            missing.add(f"{node.name}.{member.name}")
    return frozenset(missing)


def test_every_helper_has_a_caller():
    assert not uncalled(), sorted(uncalled())
